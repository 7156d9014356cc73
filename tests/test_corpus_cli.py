import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import buildctl
import oracles
from buildctl.angles import Angle
from buildctl.cli import main
from buildctl.complexes import ComplexError, validate
from buildctl.corpus import GENERATORS, gen_a2_window, gen_octahedron, gen_rank2_building
from buildctl.metric_graph import MetricGraph
from buildctl.recognizer import Diagnosis, check_euclidean, check_spherical, recognize_dim1


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "buildctl.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc


# -- generators ----------------------------------------------------------------


def test_generator_counts(heawood, k33, tutte_coxeter):
    assert (len(k33.vertices), len(k33.edges)) == (6, 9)
    assert (len(heawood.vertices), len(heawood.edges)) == (14, 21)
    assert (len(tutte_coxeter.vertices), len(tutte_coxeter.edges)) == (30, 45)
    g = MetricGraph.from_complex(heawood)
    assert min(len(c) for c in oracles.all_injective_cycles(14, list(g.edges))) == 6
    g = MetricGraph.from_complex(tutte_coxeter)
    assert min(len(c) for c in oracles.all_injective_cycles(30, list(g.edges))) == 8


def test_generators_validate_and_are_deterministic():
    kinds = ["petersen", "k4", "short-lune", "punctured-octahedron",
             "perturbed-a2-window"]
    for kind in kinds:
        a = GENERATORS[kind]()
        b = GENERATORS[kind]()
        assert a.dumps() == b.dumps()
        assert validate(a).ok, kind
    a = gen_rank2_building("projective_plane").dumps()
    b = gen_rank2_building("projective_plane").dumps()
    assert a == b


def test_mismatched_length_refused():
    with pytest.raises(ComplexError):
        gen_rank2_building("projective_plane", length=Angle.exact(1, 2))


def test_negative_controls_trigger_intended_arms():
    expectations = {
        "petersen": ("systole", recognize_dim1),
        "k4": ("diameter", recognize_dim1),
        "short-lune": ("link_failure", check_spherical),
        "punctured-octahedron": ("codim1_cell_count", check_spherical),
    }
    for kind, (arm, checker) in expectations.items():
        res = checker(GENERATORS[kind]())
        assert isinstance(res, Diagnosis), kind
        assert res.condition == arm, kind
    res = check_euclidean(GENERATORS["perturbed-a2-window"](), "window")
    assert isinstance(res, Diagnosis) and res.condition == "link_failure"


def test_window_counts():
    w = gen_a2_window(3)
    assert len(w.complex.vertices) == 37          # hex ball: 1 + 3r(r+1)
    assert len(w.complex.top_cells) == 54
    assert validate(w.complex).ok
    assert len(w.coords) == 37


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_check_pipeline(tmp_path):
    f = tmp_path / "heawood.json"
    r = run_cli("gen", "projective-plane", "--q", "2", "--length", "pi/3",
                "-o", str(f))
    assert r.returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "thick_building"
    assert rep["m"] == 3
    assert rep["apartments"] == {"count": 28, "exhaustive": True}


def test_cli_petersen_exit1(tmp_path):
    f = tmp_path / "petersen.json"
    assert run_cli("gen", "petersen", "-o", str(f)).returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["diagnosis"]["condition"] == "systole"


def test_cli_2dim_from_file_exit2(tmp_path):
    f = tmp_path / "oct.json"
    assert run_cli("gen", "octahedron", "-o", str(f)).returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 2        # global CAT(1) honestly undecided from JSON
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "thin_building"
    assert "global_cat1_unverified" in rep["flags"]


def test_cli_usage_and_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli("check", str(bad)).returncode == 3
    assert run_cli("check", str(tmp_path / "missing.json")).returncode == 3
    assert run_cli("frobnicate").returncode == 3


def test_cli_malformed_angle_and_budgets_exit3(tmp_path):
    f = tmp_path / "k33.json"
    assert run_cli("gen", "complete-bipartite", "-o", str(f)).returncode == 0
    obj = json.loads(f.read_text())
    obj["edge_lengths"][0]["pi"] = [1, 0]
    bad = tmp_path / "bad-pi.json"
    bad.write_text(json.dumps(obj))
    huge = tmp_path / "huge-pi.json"      # 1e400 parses as inf; int(inf) overflows
    huge.write_text(json.dumps(obj).replace('"pi": [1, 0]', '"pi": [1e400, 1]'))
    assert "1e400" in huge.read_text()
    obj = json.loads(f.read_text())
    obj["edge_lengths"] = obj["edge_lengths"][1:]
    obj["default_length"] = 5
    bad_default = tmp_path / "bad-default.json"
    bad_default.write_text(json.dumps(obj))
    # records that a lenient reader would truncate or accept: 1.5 -> 1, true -> 1
    strict = []
    for k, record in enumerate(({"pi": [1.5, 2]}, {"pi": [True, 3]},
                                {"rad": float("inf")}, {"rad": "1.0"})):
        obj = json.loads(f.read_text())
        del obj["edge_lengths"][0]["pi"]
        obj["edge_lengths"][0].update(record)
        strict.append(tmp_path / f"strict-{k}.json")
        strict[-1].write_text(json.dumps(obj))
    assert "Infinity" in strict[2].read_text()
    # fractional indices that int() would truncate to a valid K3,3
    for k, (key, value) in enumerate((("dimension", 1.8), ("top_cells", [0, 3.9]),
                                      ("edge_lengths", [0, 3.7]))):
        obj = json.loads(f.read_text())
        if key == "dimension":
            obj[key] = value
        elif key == "top_cells":
            obj[key][0] = value
        else:
            obj[key][0]["edge"] = value
        strict.append(tmp_path / f"strict-index-{k}.json")
        strict[-1].write_text(json.dumps(obj))
    # an edge_lengths value that is not a list of records
    for k, value in enumerate((3, None, True, 1.5)):
        obj = json.loads(f.read_text())
        obj["edge_lengths"] = value
        strict.append(tmp_path / f"strict-records-{k}.json")
        strict[-1].write_text(json.dumps(obj))
    for r in (run_cli("check", str(bad)), run_cli("check", str(huge)),
              run_cli("check", str(bad_default)),
              *(run_cli("check", str(path)) for path in strict),
              run_cli("check", str(tmp_path)),           # a directory, not a file
              run_cli("gen", "complete-bipartite", "--s", "0", "--t", "3"),
              run_cli("check", str(f), env_extra={"BUILDCTL_BUDGETS": "[1]"})):
        lines = r.stderr.strip().splitlines()
        assert r.returncode == 3, r.stderr
        assert len(lines) == 1 and lines[0].startswith("buildctl: "), r.stderr


@pytest.mark.parametrize("raw", ['{"B_apt": "x"}', '{"B_apt": 0}', '{"B_apt": true}',
                                 '{"B_nope": 5}', '7'])
def test_cli_budgets_rejected_in_process(tmp_path, monkeypatch, capsys, raw):
    f = tmp_path / "k33.json"
    assert main(["gen", "complete-bipartite", "-o", str(f)]) == 0
    monkeypatch.setenv("BUILDCTL_BUDGETS", raw)
    assert main(["check", str(f)]) == 3
    assert capsys.readouterr().err.startswith("buildctl: bad BUILDCTL_BUDGETS")


def test_cli_budgets_checked_before_library_imports(tmp_path):
    """coxeter classify never loads the recognizer, and a malformed
    BUILDCTL_BUDGETS exits 3 before check loads it."""
    f = tmp_path / "k33.json"
    assert main(["gen", "complete-bipartite", "-o", str(f)]) == 0
    code = (
        "import contextlib, io, json, os, sys\n"
        "from buildctl.cli import main\n"
        "out = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    out.append(main(['coxeter', 'classify', '--type', 'A3']))\n"
        "out.append('buildctl.recognizer' in sys.modules)\n"
        "os.environ['BUILDCTL_BUDGETS'] = '[1]'\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    out.append(main(['check', sys.argv[1]]))\n"
        "out.append('buildctl.recognizer' in sys.modules)\n"
        "print(json.dumps(out))\n")
    env = {k: v for k, v in os.environ.items() if k != "BUILDCTL_BUDGETS"}
    proc = subprocess.run([sys.executable, "-c", code, str(f)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, 3, False]


def test_cli_dim1_check_loads_no_recognizer(tmp_path):
    """``check`` of a spherical graph or discrete set runs ``dim1`` alone: a
    positive, a diagnosis (K3,3 with one edge lengthened), a text report and
    a dimension-0 check load no recognizer, geodesics, homotopy or
    decompose; the diagnosis and the discrete set load no coxeter either,
    and neither does ``gen complete-bipartite``.  ``decompose`` of K3,3
    loads no recognizer, geodesics or homotopy.  No command of the cli
    ladder (``check`` in dimensions 0, 1 and 2, Euclidean included, ``graph``,
    ``coxeter``, ``gen``, ``validate``, ``decompose`` and malformed inputs)
    loads ``dataclasses`` or ``inspect``, unless a bare interpreter running
    the same harness already has it.  A dimension-2 check loads all of
    buildctl's modules.  Each command runs in a fresh interpreter."""
    from buildctl.complexes import MetricComplex
    k33 = gen_rank2_building("complete_bipartite")
    f = tmp_path / "k33.json"
    f.write_text(k33.dumps())
    obj = json.loads(k33.dumps())
    obj["edge_lengths"][0]["pi"] = [7, 12]
    neg = tmp_path / "k33-long.json"
    neg.write_text(json.dumps(obj))
    pts = tmp_path / "points.json"
    pts.write_text(MetricComplex("spherical", ["a", "b", "c"], [(0,), (1,), (2,)], []).dumps())
    octa = tmp_path / "oct.json"
    octa.write_text(gen_octahedron().dumps())
    win = tmp_path / "a2w2.json"
    win.write_text(gen_a2_window(2).complex.dumps())
    obj["edge_lengths"][0]["pi"] = [1, 0]
    badpi = tmp_path / "bad-pi.json"
    badpi.write_text(json.dumps(obj))
    trunc = tmp_path / "truncated.json"
    trunc.write_text(k33.dumps()[:40])
    out = str(tmp_path / "out.json")
    harness = ("import contextlib, io, json, sys\n"
               "from buildctl.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()), "
               "contextlib.redirect_stderr(io.StringIO()):\n"
               "    code = main(sys.argv[1:])\n")
    report = "print(json.dumps([code, sorted(sys.modules)]))\n"

    def loaded_by(code, argv=()):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    bare = loaded_by("import contextlib, io, json, sys\ncode = None\n" + report)[1]
    lean = {"dataclasses", "inspect"} - set(bare)
    heavy = {"buildctl." + m for m in ("recognizer", "geodesics", "homotopy", "decompose")}
    cox = {"buildctl.coxeter"}
    cases = [(["check", str(f)], 0, heavy),
             (["check", str(neg)], 1, heavy | cox),
             (["check", str(f), "--report", "text"], 0, heavy),
             (["check", str(pts)], 0, heavy | cox),
             (["gen", "complete-bipartite", "-o", out], 0, heavy | cox),
             (["decompose", str(f)], 0, heavy - {"buildctl.decompose"}),
             (["check", str(octa)], 2, set()),
             (["check", str(win), "--boundary", "window"], 0, set()),
             (["graph", "diameter", str(f)], 0, heavy | cox),
             (["graph", "antipodes", str(f), "--point", "a0"], 0, heavy | cox),
             (["coxeter", "classify", "--type", "A3"], 0, heavy),
             (["coxeter", "complex", "--type", "B3"], 0, heavy),
             (["gen", "coxeter-complex", "--type", "A3", "-o", out], 0, heavy),
             (["gen", "suspension", "--base", str(f), "-o", out], 0, heavy | cox),
             (["validate", str(f)], 0, heavy | cox),
             (["check", str(badpi)], 3, heavy),
             (["check", str(trunc)], 3, heavy),
             (["gen", "frobnicator", "-o", out], 3, heavy)]
    for argv, want, absent in cases:
        got, loaded = loaded_by(harness + report, argv)
        assert got == want and "buildctl.cli" in loaded, argv
        assert not (absent | lean) & set(loaded), (argv, sorted((absent | lean) & set(loaded)))
    loaded = loaded_by(harness + report, ["check", str(octa)])[1]
    assert heavy | cox <= set(loaded)


def _dim1_inputs() -> dict:
    """JSON texts of spherical complexes of dimension <= 1: every corpus
    graph, K4,4, a float copy of Heawood, a 2*pi hexagon, each with one
    seeded edge lengthened and one shortened by pi/12, and discrete sets of
    one, two and three points."""
    import random
    from fractions import Fraction
    from buildctl.complexes import MetricComplex
    from buildctl.corpus import GENERATORS
    out = {kind: make() for kind, make in GENERATORS.items()}
    out = {kind: c for kind, c in out.items() if c.dimension <= 1}
    out["k44"] = gen_rank2_building("complete_bipartite", s=4, t=4)
    third = Angle.exact(1, 3)
    out["hexagon"] = MetricComplex("spherical", [f"v{i}" for i in range(6)],
                                   [(i, (i + 1) % 6) for i in range(6)],
                                   [(i, (i + 1) % 6, third) for i in range(6)])
    texts = {name: c.dumps() for name, c in out.items()}
    obj = json.loads(texts["projective-plane"])
    for rec in obj["edge_lengths"]:
        rec.pop("pi")
        rec["rad"] = math.pi / 3
    texts["heawood-float"] = json.dumps(obj)
    for name in sorted(texts):
        obj = json.loads(texts[name])
        k = random.Random(name).randrange(len(obj["edge_lengths"]))
        for sign, tag in ((1, "long"), (-1, "short")):
            rec = dict(obj["edge_lengths"][k])
            ln = Fraction(*rec.pop("pi")) if "pi" in rec else Fraction(rec.pop("rad") / math.pi)
            ln += sign * Fraction(1, 12)
            rec["pi"] = [ln.numerator, ln.denominator]
            edges = list(obj["edge_lengths"])
            edges[k] = rec
            texts[f"{name}-{tag}"] = json.dumps({**obj, "edge_lengths": edges})
    for k in (1, 2, 3):
        texts[f"points{k}"] = MetricComplex(
            "spherical", [f"p{i}" for i in range(k)], [(i,) for i in range(k)], []).dumps()
    return texts


def test_cli_dim1_route_matches_check_spherical(tmp_path, capsys):
    """``buildctl check`` on a complex of dimension <= 1 (``dim1.check_dim1``)
    prints the same report bytes and exits with the same code as
    ``recognizer.check_spherical`` in process and as the recognizer's
    memoized dimension-1 answer (``_certify``), which certifies the
    (n-2)-cell links of higher-dimensional complexes."""
    import buildctl.recognizer as recognizer
    from buildctl.cli import emit, exit_code_of, report_of
    from buildctl.complexes import loads
    inputs = _dim1_inputs()
    assert len(inputs) == 27
    codes = set()
    for name, text in sorted(inputs.items()):
        f = tmp_path / "in.json"
        f.write_text(text)
        capsys.readouterr()
        code = main(["check", str(f)])
        printed = capsys.readouterr().out
        c = loads(text)
        local = recognizer._certify(c)
        for res in (check_spherical(loads(text)), local):
            out = io.StringIO()
            emit(report_of(res), "json", out)
            assert out.getvalue() == printed, name
            assert exit_code_of(res) == code, name
        codes.add(code)
    assert codes == {0, 1}


def test_cli_metric_graph_commands_do_not_load_numpy(tmp_path):
    """Graph, validate and dim-1 check commands, and a malformed input, run
    in a fresh interpreter without importing numpy."""
    f = tmp_path / "heawood.json"
    assert main(["gen", "projective-plane", "-o", str(f)]) == 0
    bad = tmp_path / "truncated.json"
    bad.write_text(f.read_text()[:40])
    code = (
        "import contextlib, io, json, sys\n"
        "from buildctl.cli import main\n"
        "codes = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv.split('|')))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    argvs = [f"graph|diameter|{f}", f"validate|{f}", f"check|{f}", f"check|{bad}"]
    proc = subprocess.run([sys.executable, "-c", code, *argvs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 3], False]


def test_no_package_module_imports_numpy():
    """numpy is a test-only dependency: no module of the package imports
    it, at module level or inside a function."""
    paths = sorted(Path(buildctl.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "numpy" for m in modules), (path.name, node.lineno)


def test_cli_model_and_dim2_commands_do_not_load_numpy(tmp_path):
    """The checks of cells of dimension 2 (a Coxeter complex's JSON, the
    octahedron, an A2 window), the Coxeter commands, ``apartment``, whose
    antipode and witness distance come from the model Coxeter complex, and
    ``geodesic``, along an edge and through faces, run on the standard
    library: after each, in one fresh interpreter, numpy is still not
    imported."""
    a3, octa, win, out = (tmp_path / f for f in ("a3.json", "oct.json", "w3.json", "o.json"))
    assert main(["gen", "coxeter-complex", "--type", "A3", "-o", str(a3)]) == 0
    assert main(["gen", "octahedron", "-o", str(octa)]) == 0
    assert main(["gen", "a2-window", "--radius", "3", "-o", str(win)]) == 0
    code = (
        "import contextlib, io, json, sys\n"
        "from buildctl.cli import main\n"
        "out = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        out.append([main(argv.split('|')), 'numpy' in sys.modules])\n"
        "print(json.dumps(out))\n")
    argvs = [f"check|{a3}", f"check|{octa}", f"check|{win}|--boundary|window",
             "coxeter|classify|--type|A3", "coxeter|complex|--type|B3",
             f"gen|coxeter-complex|--type|A3|-o|{out}",
             f"apartment|{octa}|--from|a0|--cycle|b0|c0|b1|c1|--to|a1",
             f"apartment|{octa}|--from|a0|--cycle|b0|c0|b1|c1|--to|b0",
             f"geodesic|{octa}|--from|a0|--dir|v:b0|--len|1",
             f"geodesic|{octa}|--from|a0|--dir|0:1/4|--len|3",
             f"geodesic|{a3}|--from|w0.0|--dir|1:1/12|--len|2pi"]
    proc = subprocess.run([sys.executable, "-c", code, *argvs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[2, False], [2, False], [0, False], [0, False],
                                       [0, False], [0, False], [0, False], [1, False],
                                       [0, False], [0, False], [0, False]]


def test_cli_dim0_check_and_decompose_agree(tmp_path, capsys):
    """Three points form a thick 0-dimensional building for both commands."""
    f = tmp_path / "three-points.json"
    f.write_text(json.dumps({"geometry": "spherical", "dimension": 0,
                             "vertices": ["a", "b", "c"],
                             "top_cells": [[0], [1], [2]]}))
    capsys.readouterr()
    assert main(["check", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "thick_building"
    assert main(["decompose", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "thick_building"


def test_cli_spherical_check_of_euclidean_complex_exit3(tmp_path, capsys):
    """--geometry spherical on a Euclidean complex is a usage error in every
    dimension, not a spherical report."""
    for kind in ("complete-bipartite", "octahedron"):
        f = tmp_path / f"{kind}.json"
        assert main(["gen", kind, "-o", str(f)]) == 0
        obj = json.loads(f.read_text())
        obj["geometry"] = "euclidean"
        f.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["check", "--geometry", "spherical", str(f)]) == 3, kind
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("buildctl: "), kind


@pytest.mark.parametrize("geometry, dimension",
                         [("spherical", 2), ("euclidean", 2), ("spherical", 0), ("spherical", 1)])
def test_cli_empty_complex_of_declared_dimension_exit3(tmp_path, capsys, geometry, dimension):
    """A complex that declares a dimension >= 0 and has no top cell fails
    validation with a purity issue: ``check`` and ``decompose`` exit 3 with
    one ``buildctl: `` line and ``validate`` exits 1.  The empty complex of
    dimension -1 stays valid."""
    f = tmp_path / "empty.json"
    record = {"geometry": geometry, "dimension": dimension, "vertices": [], "top_cells": []}
    f.write_text(json.dumps(record))
    capsys.readouterr()
    for argv in (["check", str(f)], ["decompose", str(f)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("buildctl: "), argv
        assert captured.err.count("\n") == 1, argv
    assert main(["validate", str(f)]) == 1
    issues = json.loads(capsys.readouterr().out)["issues"]
    assert [(i["kind"], i["where"]) for i in issues] == [("purity", [])]
    f.write_text(json.dumps({**record, "dimension": -1}))
    assert main(["validate", str(f)]) == 0


def test_cli_validate(tmp_path):
    f = tmp_path / "k33.json"
    run_cli("gen", "complete-bipartite", "--s", "3", "--t", "3",
            "--length", "pi/2", "-o", str(f))
    r = run_cli("validate", str(f))
    assert r.returncode == 0 and json.loads(r.stdout)["ok"]


def test_cli_graph_ops(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("graph", "diameter", str(f))
    rep = json.loads(r.stdout)
    assert rep["diameter_pi_units"] == 1.0 and rep["exact"]
    r = run_cli("graph", "systole", str(f))
    assert json.loads(r.stdout)["systole_pi_units"] == 2.0
    r = run_cli("graph", "antipodes", str(f), "--point", "p0")
    rep = json.loads(r.stdout)
    assert rep["discrete"] and rep["nonempty"] and len(rep["points"]) == 4
    r = run_cli("graph", "antipodes", str(f), "--point", "0:1/6")
    assert json.loads(r.stdout)["nonempty"]


def test_cli_coxeter(tmp_path):
    r = run_cli("coxeter", "classify", "--type", "A2")
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "spherical" and rep["group_order"] == 6
    mf = tmp_path / "a2t.json"
    mf.write_text(json.dumps({"generators": ["a", "b", "c"],
                              "m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    r = run_cli("coxeter", "classify", str(mf))
    assert json.loads(r.stdout)["verdict"] == "euclidean"
    out = tmp_path / "a3.json"
    r = run_cli("coxeter", "complex", "--type", "A3", "-o", str(out))
    assert r.returncode == 0
    r = run_cli("check", str(out))
    assert json.loads(r.stdout)["verdict"] == "thin_building"


def test_cli_geodesic_and_apartment(tmp_path, s0_heawood):
    f = tmp_path / "oct.json"
    run_cli("gen", "octahedron", "-o", str(f))
    r = run_cli("geodesic", str(f), "--from", "a0", "--dir", "0:1/4",
                "--len", "pi")
    rep = json.loads(r.stdout)
    assert rep["count"] == 1
    assert rep["geodesics"][0]["end"] == "a1"
    r = run_cli("apartment", str(f), "--from", "a0", "--cycle",
                "b0", "c0", "b1", "c1", "--to", "a1")
    rep = json.loads(r.stdout)
    assert rep["ok"] and rep["euler_characteristic"] == 2
    assert rep["antipode"] == "a1"
    r = run_cli("apartment", str(f), "--from", "a0", "--cycle",
                "b0", "c0", "b1", "c1", "--to", "b0")
    assert r.returncode == 1
    # l5 is the antipode of p0 in one apartment through this fan, not in all
    f = tmp_path / "s0heawood.json"
    f.write_text(s0_heawood.dumps())
    r = run_cli("apartment", str(f), "--from", "p0", "--cycle", "N", "l0", "S", "l4",
                "--to", "l5")
    assert r.returncode == 0, r.stdout
    rep = json.loads(r.stdout)
    assert rep["ok"] and rep["antipode"] == "l5"
    cells = {frozenset(t) for t in rep["cells"]}
    assert {frozenset(t) for t in (("N", "p0", "l0"), ("S", "p0", "l0"),
                                   ("S", "p0", "l4"), ("N", "p0", "l4"))} <= cells


def test_cli_apartment_exit_codes(tmp_path, s0_heawood):
    """A hull search cut off by B_apt before an apartment qualified is
    undecided (exit 2); a complex that check_spherical diagnoses exits 1
    with that diagnosis."""
    f = tmp_path / "s0heawood.json"
    f.write_text(s0_heawood.dumps())
    argv = ("apartment", str(f), "--from", "p0", "--cycle", "N", "l0", "S", "l4",
            "--to", "l5")
    r = run_cli(*argv, env_extra={"BUILDCTL_BUDGETS": '{"B_apt": 1}'})
    assert r.returncode == 2, r.stdout
    rep = json.loads(r.stdout)
    assert not rep["ok"] and "budget" in rep["reason"]
    assert run_cli(*argv, env_extra={"BUILDCTL_BUDGETS": '{"B_apt": 100}'}).returncode == 0
    f = tmp_path / "punctured.json"
    run_cli("gen", "punctured-octahedron", "-o", str(f))
    r = run_cli("apartment", str(f), "--from", "a0", "--cycle", "b0", "c0", "b1", "c1")
    assert r.returncode == 1, r.stdout
    rep = json.loads(r.stdout)
    assert rep["witness"]["diagnosis"]["condition"] == "codim1_cell_count"


def test_cli_decompose(tmp_path):
    f = tmp_path / "k33.json"
    run_cli("gen", "complete-bipartite", "-o", str(f))
    r = run_cli("decompose", str(f))
    rep = json.loads(r.stdout)
    assert len(rep["factors"]) == 2
    assert sorted(len(x["vertices"]) for x in rep["factors"]) == [3, 3]


def test_cli_budget_env(tmp_path, s0_heawood):
    """B_apt counts the hulls evaluated above dimension 1 only: a graph's
    apartments are counted, so Heawood under a budget of 10 is decided with
    all 28, while S0*Heawood's search stops after one hull and exits 2."""
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("check", str(f), env_extra={"BUILDCTL_BUDGETS": '{"B_apt": 10}'})
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["apartments"] == {"count": 28, "exhaustive": True} and rep["flags"] == []
    f = tmp_path / "s0-heawood.json"
    f.write_text(s0_heawood.dumps())
    r = run_cli("check", str(f), env_extra={"BUILDCTL_BUDGETS": '{"B_apt": 1}'})
    assert r.returncode == 2, r.stderr
    rep = json.loads(r.stdout)
    assert rep["apartments"] == {"count": 1, "exhaustive": False}
    assert rep["flags"] == ["apartment_axiom2_unverified", "apartments_sampled",
                            "global_cat1_unverified"]


def test_cli_k30_30_is_decided(tmp_path):
    """K30,30 passes the dimension-1 gates, so ``check`` counts its
    C(30, 2)^2 = 189225 apartments (4-cycles) and exits 0, where a search
    budgeted at 10^5 hulls used to leave it undecided."""
    f = tmp_path / "k30-30.json"
    run_cli("gen", "complete-bipartite", "--s", "30", "--t", "30", "-o", str(f))
    r = run_cli("check", str(f))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert (rep["verdict"], rep["m"], rep["thickness"]) == ("thick_building", 2, 30)
    assert rep["apartments"] == {"count": 189225, "exhaustive": True}
    assert rep["flags"] == []


def test_cli_float_drift_exit0(tmp_path, drifted_k33):
    """K3,3 with three edges drifted by 0.9e-9 rad, inside EPS_ANGLE, is
    certified with all 9 apartments; it used to end in a traceback, exit 1."""
    f = tmp_path / "k33-drift.json"
    f.write_text(drifted_k33.dumps())
    r = run_cli("check", str(f))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "thick_building"
    assert rep["apartments"] == {"count": 9, "exhaustive": True}


def test_cli_text_report(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("check", str(f), "--report", "text")
    assert "verdict: thick_building" in r.stdout


def test_cli_in_process_entry(tmp_path, capsys):
    f = tmp_path / "heawood.json"
    assert main(["gen", "projective-plane", "-o", str(f)]) == 0
    assert main(["check", str(f)]) == 0
    capsys.readouterr()


def test_exit_code_unknown_pi1_is_undecided():
    from buildctl.cli import exit_code_of, EXIT_UNDECIDED, EXIT_DIAGNOSED
    assert exit_code_of(Diagnosis("unknown_pi1", {})) == EXIT_UNDECIDED
    assert exit_code_of(Diagnosis("systole", {})) == EXIT_DIAGNOSED


def test_cli_geodesic_on_graph(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("geodesic", str(f), "--from", "p0", "--dir", "v:l0", "--len", "pi")
    rep = json.loads(r.stdout)
    assert rep["count"] == 4
    assert sorted({g["end"] for g in rep["geodesics"]}) == ["l1", "l2", "l3", "l5"]


@pytest.mark.parametrize("argv", [
    ["graph", "antipodes", "K33", "--point", "0:1/0"],
    ["graph", "antipodes", "K33", "--point", "0:nan"],
    ["graph", "antipodes", "K33", "--point", "0:inf"],
    ["graph", "antipodes", "K33", "--point", "9:1/4"],
    ["graph", "antipodes", "K33", "--point", "-1:1/4"],
    ["geodesic", "OCT", "--from", "a0", "--dir", "0:1/0"],
    ["geodesic", "OCT", "--from", "a0", "--dir", "0:nan"],
    ["geodesic", "OCT", "--from", "a0", "--len", "--dir", "0:1/4"],
    ["coxeter", "complex"],
    ["geodesic", "OCT", "--from", "a0", "--dir", "0:1/4", "--len", "inf"],
    ["geodesic", "OCT", "--from", "a0", "--dir", "0:1/4", "--len", "1e400"],
    ["gen", "complete-bipartite", "--length", "inf"],
    ["gen", "petersen", "--length", "inf"],
])
def test_cli_bad_arguments_exit3(tmp_path, capsys, argv):
    files = {"K33": gen_rank2_building("complete_bipartite"), "OCT": gen_octahedron()}
    for name, cx in files.items():
        (tmp_path / name).write_text(cx.dumps())
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("buildctl: ") and err.count("\n") == 1, err


LENGTH_SYNTAX = "expected pi, p pi, pi/q, p pi/q, p/q or radians"


@pytest.mark.parametrize("argv,message", [
    (["coxeter", "classify", "--type", "I2(0)"],
     "bad Coxeter type 'I2(0)': I2(m) needs an integer m >= 2"),
    (["coxeter", "complex", "--type", "I2(0)"],
     "bad Coxeter type 'I2(0)': I2(m) needs an integer m >= 2"),
    (["coxeter", "classify", "--type", "I2(1)"],
     "bad Coxeter type 'I2(1)': I2(m) needs an integer m >= 2"),
    (["coxeter", "classify", "--type", "i2(x)"],
     "bad Coxeter type 'i2(x)': I2(m) needs an integer m >= 2"),
    (["gen", "coxeter-complex", "--type", "I2()"],
     "bad Coxeter type 'I2()': I2(m) needs an integer m >= 2"),
    (["graph", "antipodes", "K33", "--point", "zz"], "bad point 'zz': no vertex named 'zz'"),
    (["graph", "antipodes", "K33", "--point", "e0:1/2"],
     "bad point 'e0:1/2': edge id 'e0' is not an integer"),
    (["graph", "antipodes", "K33", "--point", "0:x/2"],
     "bad point '0:x/2': offset 'x/2' is not a number"),
    (["geodesic", "OCT", "--from", "a0", "--dir", "v:zz"],
     "bad direction 'v:zz': the link of 'a0' has no vertex named 'zz'"),
    (["geodesic", "OCT", "--from", "a0", "--dir", "e0:1/4"],
     "bad point 'e0:1/4': edge id 'e0' is not an integer"),
    (["geodesic", "OCT", "--from", "a0", "--dir", "0:1/4", "--len", "2pix"],
     f"bad length '2pix': {LENGTH_SYNTAX}"),
    (["geodesic", "OCT", "--from", "a0", "--dir", "0:1/4", "--len", "pix/2"],
     f"bad length 'pix/2': {LENGTH_SYNTAX}"),
    (["gen", "complete-bipartite", "--length", "pi/2junk"],
     f"bad length 'pi/2junk': {LENGTH_SYNTAX}"),
    (["gen", "complete-bipartite", "--length", "pi/x"], f"bad length 'pi/x': {LENGTH_SYNTAX}"),
    (["gen", "complete-bipartite", "--length=-pi/3"], f"bad length '-pi/3': {LENGTH_SYNTAX}"),
    (["gen", "complete-bipartite", "--length", "1/2/3"], f"bad length '1/2/3': {LENGTH_SYNTAX}"),
    (["gen", "complete-bipartite", "--length", "pi/0"],
     "bad length 'pi/0': angle pi*1/0 has a zero denominator"),
    (["gen", "complete-bipartite", "--length", "1e400"], "bad length '1e400': not finite"),
])
def test_cli_bad_names_are_named(tmp_path, capsys, argv, message):
    """A Coxeter type I2(m) with m < 2 or no integer m (0 encodes the
    infinite dihedral group, which has no I2 name), a vertex name that the
    graph or link lacks, a non-integer edge id and a length with any text
    beyond the length grammar exit 3 with one line that names the bad
    input."""
    files = {"K33": gen_rank2_building("complete_bipartite"), "OCT": gen_octahedron()}
    for name, cx in files.items():
        (tmp_path / name).write_text(cx.dumps())
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"buildctl: {message}\n"


@pytest.mark.parametrize("argv", [
    ["gen", "petersen", "--length", "1.0"],
    ["gen", "octahedron", "--radius", "2"],
    ["gen", "projective-plane", "--s", "3"],
    ["gen", "generalized-quadrangle", "--t", "2"],
    ["gen", "complete-bipartite", "--q", "2"],
    ["gen", "a2-window", "--length", "pi/3"],
    ["gen", "coxeter-complex", "--type", "A2", "--q", "3"],
    ["gen", "suspension", "--base", "K33", "--length", "pi/2"],
])
def test_cli_gen_rejects_options_its_kind_does_not_take(tmp_path, capsys, argv):
    """An option the generator does not read exits 3 with one ``buildctl: ``
    line and writes nothing; the options it does read still work."""
    (tmp_path / "K33").write_text(gen_rank2_building("complete_bipartite").dumps())
    out = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a == "K33" else a for a in argv]
    assert main(argv + ["-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"buildctl: gen {argv[1]} takes no {argv[-2]}\n", err
    assert not out.exists()
    for ok in (["gen", "petersen"], ["gen", "a2-window", "--radius", "2"],
               ["gen", "complete-bipartite", "--s", "2", "--t", "3", "--length", "pi/2"],
               ["gen", "projective-plane", "--q", "2", "--length", "pi/3"]):
        assert main(ok + ["-o", str(out)]) == 0, ok


def test_cli_group_budget_exhausted_exit2(monkeypatch, capsys):
    """An exhausted group budget leaves the answer open: exit 2 and one
    ``buildctl: `` line; classify reports the order as unknown instead."""
    monkeypatch.setenv("BUILDCTL_BUDGETS", '{"B_group": 10}')
    for argv in (["coxeter", "complex", "--type", "B3"],
                 ["gen", "coxeter-complex", "--type", "B3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "buildctl: group enumeration exceeded budget 10\n"
    assert main(["coxeter", "classify", "--type", "B3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["group_order"] is None


def test_cli_integrity_error_is_not_an_exit_code(tmp_path, monkeypatch):
    """Only an exhausted budget maps to exit 2: an internal inconsistency
    still surfaces as an exception, from the dimension-1 route (K3,3) and
    from the recognizer (the octahedron)."""
    import buildctl.dim1 as dim1
    import buildctl.recognizer as recognizer
    f = tmp_path / "k33.json"
    f.write_text(gen_rank2_building("complete_bipartite").dumps())
    g = tmp_path / "oct.json"
    g.write_text(gen_octahedron().dumps())

    def broken(*args, **kwargs):
        raise dim1.IntegrityError("inconsistent")

    monkeypatch.setattr(dim1, "check_dim1", broken)
    monkeypatch.setattr(recognizer, "check_spherical", broken)
    for path in (f, g):
        with pytest.raises(dim1.IntegrityError):
            main(["check", str(path)])


def test_cli_geodesic_budget_exhausted_exit2(tmp_path, capsys):
    from buildctl.complexes import suspension
    f = tmp_path / "s0k33.json"
    f.write_text(suspension(gen_rank2_building("complete_bipartite")).dumps())
    argv = ["geodesic", str(f), "--from", "N", "--dir", "0:1/4"]
    assert main(argv + ["--len", "1000000"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 0 and rep["flags"] == ["branch_budget_exceeded"]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 1 and rep["flags"] == []


# -- malformed JSON, property-based ----------------------------------------------------

_KEYS = ("geometry", "dimension", "vertices", "top_cells", "edge_lengths",
         "default_length", "edge", "pi", "rad")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from(("", "a0", "spherical", "euclidean", "pi")))
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)), max_leaves=6)


def _value_paths(obj, prefix=()):
    """The path (keys and indices) of every value inside ``obj``, root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _value_paths(v, prefix + (k,))


@st.composite
def _mutated_complex(draw):
    """A generator's JSON with one to three values, each at a depth drawn
    first, replaced by a scalar, a list or a dict, or deleted."""
    obj = json.loads(draw(st.sampled_from(_BASE_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_value_paths(obj))
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        if not path:
            return draw(_VALUES)
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        if draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(_SCALARS, _VALUES))
    return obj


_BASE_TEXTS = (gen_rank2_building("complete_bipartite").dumps(), gen_octahedron().dumps())


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "complex.json"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_mutated_complex())
def test_cli_mutated_json_keeps_exit_contract(mutation_file, obj):
    """No mutation of a valid input makes a command raise: every run ends
    with an exit code of the contract, and an input error with one
    ``buildctl: `` line."""
    mutation_file.write_text(json.dumps(obj))
    f = str(mutation_file)
    for argv in (["check", f], ["validate", f], ["decompose", f],
                 ["graph", "diameter", f], ["graph", "systole", f],
                 ["graph", "antipodes", f, "--point", "a0"],
                 ["apartment", f, "--from", "a0", "--cycle", "b0", "c0", "b1", "c1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, obj)
        if code == 3:
            assert err.getvalue().startswith("buildctl: ") and \
                err.getvalue().count("\n") == 1, (argv, obj, err.getvalue())


# -- command arguments, property-based ---------------------------------------------------

_OFFSETS = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 9), st.integers(-1, 9)),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("nan", "inf", "-inf", "1e999", "0", "1", "10" * 20, "1/0", "x", "")),
    st.text(max_size=4))
_POINTS = st.one_of(
    st.builds("{}:{}".format, st.one_of(st.integers(-2, 20), st.text(max_size=2)), _OFFSETS),
    st.sampled_from(("a0", "b2", "N", "S", "zz", "")),
    st.text(max_size=5))
_LENGTHS = st.one_of(
    st.sampled_from(("pi", "pi/2", "2pi/3", "3pi", "pi/0", "0pi", "-pi", "1/0", "nan",
                     "inf", "1e6", "0", "-1", "0.5", "")),
    st.builds("{}pi/{}".format, st.integers(-2, 9), st.integers(-1, 9)),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4))
# small systems only, so that no drawn name builds a large matrix
_TYPES = st.one_of(
    st.sampled_from(("A1", "A2", "B2", "G2", "A3", "B3", "A1xA1xA1", "A1xI2(3)", "~A2",
                     "I2()", "I2(x)", "E8", "")),
    st.builds("I2({})".format, st.integers(-3, 10 ** 9)),
    st.text(max_size=4))
_BUDGETS = st.fixed_dictionaries(
    {"B_group": st.integers(1, 300), "branch_budget": st.integers(1, 64)},
    optional={"B_apt": st.integers(1, 300)}).map(json.dumps)


@pytest.fixture(scope="module")
def argument_files(tmp_path_factory):
    from buildctl.complexes import suspension
    from buildctl.coxeter import coxeter_complex, named_matrix
    from test_recognizer import _antipodal_quotient
    d = tmp_path_factory.mktemp("arguments")
    k33 = gen_rank2_building("complete_bipartite")
    rp2 = _antipodal_quotient(coxeter_complex(named_matrix("B3")).complex)
    out = {}
    for name, cx in (("k33", k33), ("s0k33", suspension(k33)), ("oct", gen_octahedron()),
                     ("rp2", rp2), ("s0rp2", suspension(rp2))):
        out[name] = str(d / f"{name}.json")
        with open(out[name], "w", encoding="utf-8") as fh:
            fh.write(cx.dumps())
    return out


@st.composite
def _command(draw, files):
    kind = draw(st.sampled_from(("antipodes", "geodesic", "coxeter", "gen", "check",
                                 "decompose")))
    if kind in ("check", "decompose"):
        return [kind, files[draw(st.sampled_from(sorted(files)))]]
    if kind == "antipodes":
        return ["graph", "antipodes", files["k33"], "--point", draw(_POINTS)]
    if kind == "geodesic":
        f = draw(st.sampled_from(sorted(files)))
        start = draw(st.sampled_from(("a0", "N", "b1", "zz")))
        direction = draw(st.one_of(_POINTS, st.builds("v:{}".format, _POINTS)))
        return ["geodesic", files[f], "--from", start, "--dir", direction,
                "--len", draw(_LENGTHS)]
    if kind == "coxeter":
        op = draw(st.sampled_from(("classify", "complex")))
        return ["coxeter", op] + draw(st.one_of(st.just([]), _TYPES.map(lambda t: ["--type", t])))
    return ["gen", "coxeter-complex", "--type", draw(_TYPES)]


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_arguments_keep_exit_contract(argument_files, data):
    """No point, direction, length, Coxeter type, input file or small budget
    makes graph antipodes, geodesic, coxeter, gen coxeter-complex, check or
    decompose raise: every run ends with an exit code of the contract, and
    an input error with one ``buildctl: `` line."""
    argv = data.draw(_command(argument_files))
    budgets = data.draw(_BUDGETS)
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"BUILDCTL_BUDGETS": budgets}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, budgets)
    if code == 3:
        assert err.getvalue().startswith("buildctl: ") and \
            err.getvalue().count("\n") == 1, (argv, budgets, err.getvalue())
