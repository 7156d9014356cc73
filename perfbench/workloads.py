"""The three benchmark workloads: operations, known answers and re-checks.

``build(name, seed, api, workdir)`` returns the ladder of one workload: a
list of ``Op`` records.  Each op does its timed work in ``run`` and is
judged by ``check``, which compares buildctl's canonical report with the
answer known from the input's construction (``inputs``) and re-checks
every diagnosis witness with the benchmark's own arithmetic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import inputs as I

WORKLOADS = ("dim1", "links", "cli")

# A certificate flag starting with one of these leaves the verdict undecided.
UNDECIDED_MARKERS = ("global_cat1_unverified", "unknown_pi1",
                     "apartment_axiom2_unverified", "apartments_sampled")
TOL = 1e-9


@dataclass
class Outcome:
    ok: bool
    decided: bool
    digest: str
    detail: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]            # the timed work; the dict carries results within a pass
    check: Callable[[Any], Outcome]
    verdict: bool = True                  # counts toward decided_share
    known_defect: str | None = None       # a defect the program has today


def load_api(src: Path) -> SimpleNamespace:
    """Import buildctl from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import buildctl
    from buildctl import angles, cli, complexes, coxeter, metric_graph, recognizer
    if Path(buildctl.__file__).resolve().parent != (src / "buildctl").resolve():
        raise ImportError(f"buildctl imported from {buildctl.__file__}, not {src}")
    return SimpleNamespace(angles=angles, cli=cli, complexes=complexes, coxeter=coxeter,
                           metric_graph=metric_graph, recognizer=recognizer, src=src)


def digest_of(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- complexes handed to buildctl ----------------------------------------------------


def complex_args(api, raw: I.Raw) -> tuple:
    """MetricComplex constructor arguments; the op constructs the complex itself."""
    Angle = api.angles.Angle
    lengths = [(i, j, Angle(frac=v) if isinstance(v, Fraction) else Angle(rad=v))
               for (i, j), v in sorted(raw.lengths.items())]
    return (raw.geometry, tuple(raw.names), list(raw.cells), lengths,
            raw.dimension, False, raw.provenance)


def recognition_op(api, name, entry: str, raw: I.Raw, check, **kw) -> Op:
    """``entry`` names a recognizer function; it is looked up at call time so
    that the traced run sees its wrapper."""
    MetricComplex = api.complexes.MetricComplex
    args = complex_args(api, raw)
    report_of = api.cli.report_of
    return Op(name, lambda ctx: report_of(
        getattr(api.recognizer, entry)(MetricComplex(*args), **kw)),
        lambda rep: judge(rep, check))


def judge(rep: dict, check: Callable[[dict], str | None]) -> Outcome:
    """An undecided certificate must still carry the right verdict and
    structure, but its apartment count is not judged."""
    decided = is_decided(rep)
    try:
        problem = check(rep if decided or rep.get("verdict") is None
                        else dict(rep, apartments=None))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"unexpected report shape: {exc!r}"
    return Outcome(problem is None, decided, digest_of(rep), problem or "")


def is_decided(rep: dict) -> bool:
    if rep.get("verdict") is None:
        return rep["diagnosis"]["condition"] != "unknown_pi1"
    return not any(f.startswith(m) for f in rep["flags"] for m in UNDECIDED_MARKERS)


def same_coxeter(m, expected) -> bool:
    """Equal Coxeter matrices up to a relabelling of the generators."""
    n = len(expected)
    if len(m) != n:
        return False
    return any(all(m[p[i]][p[j]] == expected[i][j] for i in range(n) for j in range(n))
               for p in itertools.permutations(range(n)))


def expect_certificate(verdict, *, thickness, apartments=None, coxeter=None, m=None,
                       poles=None, base_size=None, factors=None, dimension=None):
    def check(rep):
        if rep.get("verdict") != verdict:
            return f"verdict {rep.get('verdict')!r}, expected {verdict!r}" + (
                f" ({rep['diagnosis']})" if "diagnosis" in rep else "")
        if rep["thickness"] != thickness:
            return f"thickness {rep['thickness']}, expected {thickness}"
        if dimension is not None and rep["dimension"] != dimension:
            return f"dimension {rep['dimension']}, expected {dimension}"
        if m is not None and rep["m"] != m:
            return f"m {rep['m']}, expected {m}"
        if coxeter is not None and not same_coxeter(rep["coxeter"]["m"], coxeter):
            return f"Coxeter matrix {rep['coxeter']['m']}, expected {coxeter}"
        if apartments is not None and rep["apartments"] is not None and \
                rep["apartments"]["count"] != apartments:
            return f"{rep['apartments']['count']} apartments, expected {apartments}"
        if poles is not None and (rep.get("suspension") or {}).get("poles") != poles:
            return f"suspension {rep.get('suspension')}, expected poles {poles}"
        if base_size is not None and rep["suspension"]["base_size"] != base_size:
            return f"base size {rep['suspension']['base_size']}, expected {base_size}"
        if factors is not None and rep.get("factors") != factors:
            return f"factors {rep.get('factors')}, expected {factors}"
        return None
    return check


def expect_diagnosis(condition, witness_check=None, inner=None):
    """``inner`` is a further expect_diagnosis for a link failure's cause."""
    def check(rep):
        if rep.get("verdict") is not None:
            return f"verdict {rep['verdict']!r}, expected diagnosis {condition!r}"
        return check_diag(rep["diagnosis"])

    def check_diag(d):
        if d["condition"] != condition:
            return f"condition {d['condition']!r}, expected {condition!r}"
        if witness_check is not None:
            problem = witness_check(d["witness"])
            if problem:
                return f"{condition} witness: {problem}"
        if inner is not None:
            if "inner" not in d:
                return "missing inner diagnosis"
            return inner.check_diag(d["inner"])
        return None
    check.check_diag = check_diag
    return check


# -- witness re-checks ------------------------------------------------------------------


def cycle_witness(raw: I.Raw, length=None, through=None, upper=2):
    """A systole witness is a closed walk of raw edges shorter than 2*pi."""
    index = {n: i for i, n in enumerate(raw.names)}

    def check(w):
        vs = [index[n] for n in w["cycle"]]
        pairs = [(min(a, b), max(a, b)) for a, b in zip(vs, vs[1:] + vs[:1])]
        if len(vs) < 2 or any(p not in raw.lengths for p in pairs):
            return f"{w['cycle']} is not a closed walk"
        total = sum(raw.length_pi(*p) for p in pairs)
        if not total < upper:
            return f"cycle length {total} is not below {upper}"
        if abs(float(total) - w["length_pi_units"]) > TOL:
            return f"cycle length {total} but reported {w['length_pi_units']}"
        if length is not None and abs(float(total) - float(length)) > TOL:
            return f"cycle length {total}, expected {length}"
        if through is not None and through not in pairs:
            return f"cycle misses the shortened edge {through}"
        return None
    return check


def diameter_witness(raw: I.Raw, lo, hi):
    """Re-measure the witness pair; the diameter must lie in (lo, hi]."""
    edges = raw.edges
    index = {n: i for i, n in enumerate(raw.names)}

    def point(name):
        if ":" not in name:
            return index[name]
        e, t = name.split(":")
        return edges[int(e)], Fraction(t)

    def check(w):
        x = w["diameter_pi_units"]
        if not (lo < x <= hi + TOL):
            return f"diameter {x} outside ({lo}, {hi}]"
        d = I.point_distance(raw, point(w["witness"][0]), point(w["witness"][1]))
        if abs(float(d) - x) > TOL:
            return f"witness pair {w['witness']} is {d} apart, reported {x}"
        return None
    return check


def circle_witness(total_pi: float):
    """A link circle of the given length: systole below 2*pi, diameter above."""
    def check(w):
        got = w.get("length_pi_units", 2 * w.get("diameter_pi_units", 0.0))
        if abs(got - total_pi) > 1e-7:
            return f"link circle of {got}*pi, expected {total_pi}*pi"
        return None
    return check


# -- dim1 ---------------------------------------------------------------------------------

BUILDINGS = {
    # name: (constructor, m, thickness, apartment count)
    "heawood": (I.heawood, 3, 3, 28),
    "gq22": (I.gq22, 4, 3, 90),
    "k44": (lambda: I.kss(4), 2, 4, comb(4, 2) ** 2),
    "k66": (lambda: I.kss(6), 2, 6, comb(6, 2) ** 2),
    "k88": (lambda: I.kss(8), 2, 8, comb(8, 2) ** 2),
}
FLOAT_COPIES = ("heawood", "k66", "gq22", "k44", "k88")


def dim1_perturbations(raw: I.Raw, seed: int, name: str):
    for sign, tag in ((1, "long"), (-1, "short")):
        edge = I.seeded_edge(seed, f"{name}:{tag}", raw.edges)
        yield sign, tag, edge


def dim1_negative(api, name, raw, sign, tag, edge) -> Op:
    neg = I.perturbed(raw, edge, sign)
    label = f"{name}-{tag}({raw.names[edge[0]]},{raw.names[edge[1]]})"
    if sign > 0:
        check = expect_diagnosis("diameter", diameter_witness(neg, 1, 1 + I.SHIFT))
    else:
        check = expect_diagnosis("systole", cycle_witness(neg, through=edge))
    return recognition_op(api, label, "recognize_dim1", neg, check)


def build_dim1(api, seed: int, workdir: Path) -> list[Op]:
    rec = "recognize_dim1"
    ops = []
    raws = {name: ctor() for name, (ctor, *_rest) in BUILDINGS.items()}
    for name, (_, m, thick, apts) in BUILDINGS.items():
        ops.append(recognition_op(api, name, rec, raws[name], expect_certificate(
            "thick_building", m=m, thickness=thick, apartments=apts,
            coxeter=I.i2(m))))
    for name in FLOAT_COPIES:
        _, m, thick, apts = BUILDINGS[name]
        ops.append(recognition_op(api, name + "-float", rec, raws[name].floated(),
                                  expect_certificate("thick_building", m=m,
                                                     thickness=thick, apartments=apts,
                                                     coxeter=I.i2(m))))
    MetricGraph = api.metric_graph.MetricGraph
    report_of = api.cli.report_of
    ops.append(Op("triple-pi", lambda ctx: report_of(
        api.recognizer.recognize_dim1(MetricGraph(["N", "S"], [(0, 1, Fraction(1))] * 3))),
        lambda rep: judge(rep, expect_certificate(
            "suspension", m=1, thickness=2, apartments=comb(3, 2),
            poles=["N", "S"], base_size=3))))
    for suffix, pet, k4 in (("", I.petersen(), I.k4()),
                            ("-float", I.petersen().floated(), I.k4().floated())):
        ops.append(recognition_op(api, "petersen" + suffix, rec, pet, expect_diagnosis(
            "systole", cycle_witness(pet, length=Fraction(5, 3)))))
        ops.append(recognition_op(api, "k4" + suffix, rec, k4, expect_diagnosis(
            "diameter", diameter_witness(k4, Fraction(4, 3) - Fraction(1, 10**6),
                                         Fraction(4, 3)))))
    for name, raw in raws.items():
        for sign, tag, edge in dim1_perturbations(raw, seed, name):
            ops.append(dim1_negative(api, name, raw, sign, tag, edge))
    return ops


# -- links --------------------------------------------------------------------------------

WINDOW_RADII = range(3, 9)
PERTURBED_WINDOWS = (("a2w3-x1.01", 3, 1.01), ("a2w3-x0.99", 3, 0.99))
A2_FACTORS = [{"kind": "irreducible", "m": 3, "rank": 2, "thick": False}]


def perturbed_window_op(api, label, raw: I.Raw, edge, factor) -> Op:
    neg = raw.with_length(edge, factor)
    sums = I.euclidean_angle_sums(neg)
    bad = [v for v in sorted(raw.notes["interior"]) if abs(sums[v] - 2 * math.pi) > 1e-9]
    v = bad[0]
    total = sums[v] / math.pi
    cause = "systole" if total < 2 else "diameter"
    check = expect_diagnosis("link_failure", lambda w: None if w["cell"] == [raw.names[v]]
                             else f"failing vertex {w['cell']}, expected {raw.names[v]}",
                             inner=expect_diagnosis(cause, circle_witness(total)))
    name = f"{label}({raw.names[edge[0]]},{raw.names[edge[1]]})"
    return recognition_op(api, name, "check_euclidean", neg, check,
                          boundary_policy="window")


def coxeter_matrix(api, name: str):
    rows = I.COXETER[name][0]
    return api.coxeter.CoxeterMatrix(tuple(f"s{i}" for i in range(len(rows))), rows)


def coxeter_certificate(name: str):
    """A Coxeter complex is its own single apartment: thin, of its own type."""
    rows = I.COXETER[name][0]
    return expect_certificate("thin_building", thickness=2, apartments=1, coxeter=rows,
                              dimension=len(rows) - 1)


def coxeter_ops(api, name: str) -> list[Op]:
    """Build the Coxeter complex as one op, then check that build as the next."""
    rows, order, nverts = I.COXETER[name]
    M = coxeter_matrix(api, name)
    key = "coxeter:" + name

    def build(ctx):
        ctx[key] = model = api.coxeter.coxeter_complex(M)
        return model

    def check_build(model):
        cx = model.complex
        shape = (len(cx.top_cells), len(cx.vertices), cx.dimension)
        ok = shape == (order, nverts, len(rows) - 1)
        return Outcome(ok, True, digest_of(cx.dumps()),
                       "" if ok else f"(chambers, vertices, dim) = {shape}, expected "
                                     f"{(order, nverts, len(rows) - 1)}")

    report_of = api.cli.report_of
    return [Op(f"coxeter-build-{name}", build, check_build, verdict=False),
            Op(f"coxeter-check-{name}",
               lambda ctx: report_of(api.recognizer.check_spherical(ctx[key].complex)),
               lambda rep: judge(rep, coxeter_certificate(name)))]


def json_copy_op(api, name: str) -> Op:
    """The complex's JSON text, parsed inside the op; the text drops provenance."""
    text = api.coxeter.coxeter_complex(coxeter_matrix(api, name)).complex.dumps()
    report_of = api.cli.report_of
    return Op(f"json-{name}", lambda ctx: report_of(
        api.recognizer.check_spherical(api.complexes.loads(text))),
        lambda rep: judge(rep, coxeter_certificate(name)))


def build_links(api, seed: int, workdir: Path) -> list[Op]:
    sph, euc = "check_spherical", "check_euclidean"
    hea, k33 = I.heawood(), I.kss(3)
    A1, i2 = I.A1, I.i2
    ops = [
        recognition_op(api, "octahedron", sph, I.octahedron(), expect_certificate(
            "thin_building", thickness=2, apartments=1,
            coxeter=I.block_diag(A1, A1, A1))),
        recognition_op(api, "s0*k33", sph, I.suspension(k33), expect_certificate(
            "suspension", thickness=2, apartments=9, poles=["N", "S"], base_size=6,
            coxeter=I.block_diag(A1, i2(2)))),
        recognition_op(api, "s0*heawood", sph, I.suspension(hea), expect_certificate(
            "suspension", thickness=2, apartments=28, poles=["N", "S"], base_size=14,
            coxeter=I.block_diag(A1, i2(3)))),
    ]
    for name in I.COXETER:
        ops += coxeter_ops(api, name)
    ops += [json_copy_op(api, "A3"), json_copy_op(api, "A4")]
    ops += [
        recognition_op(api, "s0*s0*k33", sph, I.suspension(I.suspension(k33)),
                       expect_certificate("suspension", thickness=2, apartments=9,
                                          poles=["N0", "S0"], base_size=8,
                                          coxeter=I.block_diag(A1, A1, i2(2)))),
        recognition_op(api, "s0*s0*heawood", sph, I.suspension(I.suspension(hea)),
                       expect_certificate("suspension", thickness=2, apartments=28,
                                          poles=["N0", "S0"], base_size=16,
                                          coxeter=I.block_diag(A1, A1, i2(3)))),
    ]
    for r in WINDOW_RADII:
        ops.append(recognition_op(api, f"a2w{r}", euc, I.a2_window(r), expect_certificate(
            "metric_euclidean_building_local", thickness=2, factors=A2_FACTORS),
            boundary_policy="window"))
    for label, radius, factor in PERTURBED_WINDOWS:
        raw = I.a2_window(radius)
        edge = I.seeded_edge(seed, label, raw.edges)
        ops.append(perturbed_window_op(api, label, raw, edge, factor))
    lune = I.short_lune()
    ops.append(recognition_op(api, "short-lune", sph, lune, expect_diagnosis(
        "link_failure", lambda w: None if w["cell"] in (["N"], ["S"])
        else f"failing cell {w['cell']}, expected a pole",
        inner=expect_diagnosis("systole", cycle_witness(lune.notes["equator"], length=1)))))
    punct = I.punctured_octahedron()
    ops.append(recognition_op(api, "punctured-octahedron", sph, punct, expect_diagnosis(
        "codim1_cell_count",
        lambda w: None if sorted(w["cell"]) in punct.notes["removed_edges"]
        and w["top_cells"] == 1 else f"boundary witness {w}")))
    return ops


# -- cli ----------------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_mb: float | None = None
    written: str | None = None


class CliRunner:
    """Runs ``buildctl`` either as a fresh ``python -m buildctl.cli`` process
    or, for the traced run, through ``cli.main(argv)`` in this process."""

    def __init__(self, api, workdir: Path, in_process: bool = False):
        self.api = api
        self.workdir = workdir
        self.in_process = in_process

    def __call__(self, argv, env=None, output=None) -> CliResult:
        env = env or {}
        res = self._inproc(argv, env) if self.in_process else self._spawn(argv, env)
        if output is not None:
            p = Path(output)
            res.written = p.read_text() if p.exists() else None
            if p.exists():
                p.unlink()
        return res

    def _spawn(self, argv, env) -> CliResult:
        full_env = dict(os.environ, PYTHONPATH=str(self.api.src), **env)
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "buildctl.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.workdir, env=full_env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read().decode(), err.read().decode(),
                             usage.ru_maxrss / 1024.0)

    def _inproc(self, argv, env) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.api.cli.main(list(argv))
                except Exception:
                    # what the interpreter does with an uncaught exception
                    traceback.print_exc()
                    code = 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(name, runner: CliRunner, argv, *, code, check=None, env=None, output=None,
           verdict=False, known_defect=None, parse=json.loads) -> Op:
    """One CLI command.  ``check`` judges the parsed stdout (or the written file)."""

    def run(ctx):
        return runner(argv, env=env, output=output)

    def judge_cli(res: CliResult) -> Outcome:
        digest = digest_of(json.dumps([res.code, res.stdout, res.written]))
        problem = None
        decided = res.code != 2
        if res.code != code:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            problem = f"exit {res.code}, expected {code}: {tail[0][:160]}"
        elif code == 3:
            lines = res.stderr.strip().splitlines()
            if len(lines) != 1 or "Traceback" in res.stderr or \
                    not lines[0].startswith("buildctl: "):
                problem = f"stderr is not one 'buildctl: ' line: {res.stderr[:160]!r}"
        elif check is not None:
            try:
                body = res.written if output is not None else res.stdout
                problem = check(parse(body))
            except (TypeError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        return Outcome(problem is None, decided, digest, problem or "")

    return Op(name, run, judge_cli, verdict=verdict, known_defect=known_defect)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def raw_to_json(raw: I.Raw) -> dict:
    def rec(v):
        return {"pi": [v.numerator, v.denominator]} if isinstance(v, Fraction) \
            else {"rad": v}
    return {"geometry": raw.geometry, "dimension": raw.dimension,
            "vertices": raw.names, "top_cells": [list(c) for c in raw.cells],
            "edge_lengths": [{"edge": [i, j], **rec(v)}
                             for (i, j), v in sorted(raw.lengths.items())]}


def complex_file_check(nverts, ncells, length=None):
    def check(obj):
        got = (len(obj["vertices"]), len(obj["top_cells"]))
        if got != (nverts, ncells):
            return f"(vertices, cells) = {got}, expected {(nverts, ncells)}"
        if length is not None and any(r.get("pi") != length for r in obj["edge_lengths"]):
            return f"an edge length differs from pi*{length}"
        return None
    return check


def build_cli(api, seed: int, workdir: Path, run: CliRunner) -> list[Op]:
    """Files are written once here; every op is one buildctl command on them."""
    d = workdir
    hea, k33 = I.heawood(), I.kss(3)
    f_hea = write_json(d / "heawood.json", raw_to_json(hea))
    f_k33 = write_json(d / "k33.json", raw_to_json(k33))
    sign = 1 if I.seeded_edge(seed, "cli:sign", (0, 1)) else -1
    edge = I.seeded_edge(seed, "cli:edge", k33.edges)
    neg = I.perturbed(k33, edge, sign)
    f_neg = write_json(d / "k33-neg.json", raw_to_json(neg))
    f_a3 = d / "a3.json"
    f_a3.write_text(api.coxeter.coxeter_complex(coxeter_matrix(api, "A3")).complex.dumps())
    bad = raw_to_json(k33)
    bad["edge_lengths"][0] = {"edge": bad["edge_lengths"][0]["edge"], "pi": [1, 0]}
    f_badpi = write_json(d / "bad-pi.json", bad)
    text = json.dumps(raw_to_json(hea))
    f_win = write_json(d / "a2w3.json", raw_to_json(I.a2_window(3)))
    f_oct = write_json(d / "octahedron.json", raw_to_json(I.octahedron()))
    f_trunc = d / "truncated.json"
    f_trunc.write_text(text[:len(text) // 2])
    out = str(d / "gen-out.json")

    apex = I.seeded_edge(seed, "cli:antipodes", range(len(hea.names)))

    def antipodes(raw, v):
        """Vertices at distance pi; in these graphs no edge point is that far."""
        return sorted(raw.names[w] for w, x in I.vertex_distances(raw, v).items() if x == 1)

    def stdout_is(**want):
        def check(obj):
            bad_keys = {k: obj.get(k) for k, v in want.items() if obj.get(k) != v}
            return f"got {bad_keys}, expected {want}" if bad_keys else None
        return check

    neg_check = (expect_diagnosis("diameter", diameter_witness(neg, 1, 1 + I.SHIFT))
                 if sign > 0 else
                 expect_diagnosis("systole", cycle_witness(neg, through=edge)))

    def systole_check(obj):
        if obj["systole_pi_units"] != 2.0:
            return f"systole {obj['systole_pi_units']}, expected 2"
        return cycle_witness(hea, length=2, upper=2 + TOL)(
            {"cycle": obj["cycle"], "length_pi_units": 2.0})

    def decompose_check(obj):
        sizes = sorted(len(f["vertices"]) for f in obj["factors"])
        return None if sizes == [3, 3] and obj["verdict"] == "thick_building" \
            else f"factors of sizes {sizes}, verdict {obj['verdict']}"

    def op(name, argv, **kw):
        return cli_op(name, run, argv, **kw)

    return [
        op("gen-k33", ["gen", "complete-bipartite", "--s", "3", "--t", "3", "-o", out],
           code=0, output=out, check=complex_file_check(6, 9, [1, 2])),
        op("gen-a2-window", ["gen", "a2-window", "--radius", "2", "-o", out],
           code=0, output=out, check=complex_file_check(19, 24)),
        op("check-heawood", ["check", f_hea], code=0, verdict=True,
           check=expect_certificate("thick_building", m=3, thickness=3, apartments=28,
                                    coxeter=I.i2(3))),
        op("check-k33", ["check", f_k33], code=0, verdict=True,
           check=expect_certificate("thick_building", m=2, thickness=3, apartments=9,
                                    coxeter=I.i2(2))),
        op("check-k33-" + ("long" if sign > 0 else "short") +
           f"({k33.names[edge[0]]},{k33.names[edge[1]]})", ["check", f_neg],
           code=1, verdict=True, check=neg_check),
        op("check-a3-json", ["check", str(f_a3)], code=2, verdict=True,
           check=lambda obj: coxeter_certificate("A3")(obj) or (
               None if "global_cat1_unverified" in obj["flags"]
               else f"flags {obj['flags']} lack global_cat1_unverified")),
        op("graph-diameter", ["graph", "diameter", f_hea], code=0,
           check=stdout_is(diameter_pi_units=1.0, exact=True)),
        op("graph-systole", ["graph", "systole", f_hea], code=0, check=systole_check),
        op(f"graph-antipodes({hea.names[apex]})",
           ["graph", "antipodes", f_hea, "--point", hea.names[apex]], code=0,
           check=stdout_is(points=antipodes(hea, apex), discrete=True, nonempty=True)),
        op("graph-antipodes-k33", ["graph", "antipodes", f_k33, "--point", "a0"], code=0,
           check=stdout_is(points=antipodes(k33, 0), discrete=True, nonempty=True)),
        op("graph-diameter-k33", ["graph", "diameter", f_k33], code=0,
           check=stdout_is(diameter_pi_units=1.0, exact=True)),
        op("coxeter-classify-A3", ["coxeter", "classify", "--type", "A3"], code=0,
           check=stdout_is(verdict="spherical", group_order=24)),
        op("coxeter-complex-B3", ["coxeter", "complex", "--type", "B3"], code=0,
           check=stdout_is(chambers=48, vertices=26, group_order=48)),
        op("decompose-k33", ["decompose", f_k33], code=0, verdict=True,
           check=decompose_check),
        op("validate-k33", ["validate", f_k33], code=0, check=stdout_is(ok=True)),
        op("validate-heawood", ["validate", f_hea], code=0, check=stdout_is(ok=True)),
        op("gen-coxeter-complex-A3", ["gen", "coxeter-complex", "--type", "A3", "-o", out],
           code=0, output=out, check=complex_file_check(14, 24)),
        op("gen-suspension-k33", ["gen", "suspension", "--base", f_k33, "-o", out],
           code=0, output=out, check=complex_file_check(8, 18)),
        op("check-heawood-text", ["check", f_hea, "--report", "text"], code=0,
           verdict=True, parse=str,
           check=lambda text: None if "verdict: thick_building" in text.splitlines()
           else f"text report lacks the verdict line: {text[:120]!r}"),
        op("check-a2w3-window", ["check", f_win, "--boundary", "window"], code=0,
           verdict=True, check=expect_certificate(
               "metric_euclidean_building_local", thickness=2, factors=A2_FACTORS)),
        op("check-octahedron-json", ["check", f_oct], code=2, verdict=True,
           check=lambda obj: expect_certificate(
               "thin_building", thickness=2, apartments=1,
               coxeter=I.block_diag(I.A1, I.A1, I.A1))(obj) or (
               None if "global_cat1_unverified" in obj["flags"]
               else f"flags {obj['flags']} lack global_cat1_unverified")),
        op("malformed-pi-zero-denominator", ["check", f_badpi], code=3,
           known_defect="the {\"pi\": [1, 0]} angle raises ZeroDivisionError"),
        op("malformed-truncated-json", ["check", str(f_trunc)], code=3),
        op("malformed-budgets-list", ["check", f_k33], code=3,
           env={"BUILDCTL_BUDGETS": "[1]"},
           known_defect="BUILDCTL_BUDGETS='[1]' raises TypeError"),
        op("malformed-unknown-generator", ["gen", "frobnicator", "-o", out], code=3),
    ]


BUILDERS = {"dim1": build_dim1, "links": build_links}


def build(name: str, seed: int, api, workdir: Path, in_process: bool = False) -> list[Op]:
    """``in_process`` runs CLI commands through ``cli.main`` (the traced run)."""
    if name == "cli":
        return build_cli(api, seed, workdir, CliRunner(api, workdir, in_process))
    return BUILDERS[name](api, seed, workdir)


def timed_setup(name: str, seed: int, src: str, workdir: str) -> float:
    """Import buildctl and build one workload's inputs in a fresh process;
    the time is scaled to the reference host (``calibration``)."""
    import calibration
    before = calibration.kernel_seconds()
    t0 = time.perf_counter()
    api = load_api(Path(src))
    build(name, seed, api, Path(workdir))
    wall = time.perf_counter() - t0
    return calibration.scale(wall, (before + calibration.kernel_seconds()) / 2)
