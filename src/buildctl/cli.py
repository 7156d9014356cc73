"""buildctl: command-line recognition and generation of building complexes.

Exit codes: 0 certified / success, 1 diagnosed failure, 2 undecided (a
certificate flag starting with one of UNDECIDED_MARKERS, or a budget that
ran out), 3 input or usage error.
Budgets can be overridden through the BUILDCTL_BUDGETS environment variable,
a JSON object of positive integers such as {"B_group": 100000, "B_apt": 10000}.
Each command imports the modules it runs inside its function, after reading
its input; numpy is loaded only by commands that do linear algebra (cells of
dimension >= 2, geodesics, Coxeter groups).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .angles import parse_length
from .complexes import ComplexError, load_path, validate, vertex_link

if TYPE_CHECKING:
    from .metric_graph import GraphPoint, MetricGraph

EXIT_OK = 0
EXIT_DIAGNOSED = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3

UNDECIDED_MARKERS = ("global_cat1_unverified", "unknown_pi1",
                     "apartment_axiom2_unverified", "apartments_sampled")


BUDGET_KEYS = ("B_group", "B_apt", "branch_budget")
GEN_OPTIONS = ("length", "s", "t", "q", "radius")    # generator keyword arguments


def budgets() -> dict:
    """The budgets that BUILDCTL_BUDGETS overrides, validated; each command
    falls back on the default of the module that spends the budget."""
    out: dict = {}
    raw = os.environ.get("BUILDCTL_BUDGETS")
    if raw:
        try:
            given = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ComplexError(f"bad BUILDCTL_BUDGETS: {exc}") from exc
        if not isinstance(given, dict):
            raise ComplexError("bad BUILDCTL_BUDGETS: expected a JSON object")
        for key, value in given.items():
            if key not in BUDGET_KEYS:
                raise ComplexError(f"bad BUILDCTL_BUDGETS: unknown budget {key!r}")
            if type(value) is not int or value <= 0:
                raise ComplexError(
                    f"bad BUILDCTL_BUDGETS: {key} must be a positive integer, got {value!r}")
        out.update(given)
    return out


def emit(obj: dict, mode: str, out=None) -> None:
    out = out or sys.stdout
    if mode == "json":
        out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_text(obj, out)


def _emit_text(obj: dict, out, indent: int = 0) -> None:
    pad = "  " * indent
    for k in sorted(obj):
        v = obj[k]
        if isinstance(v, dict):
            out.write(f"{pad}{k}:\n")
            _emit_text(v, out, indent + 1)
        else:
            out.write(f"{pad}{k}: {v}\n")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(g: MetricGraph, spec: str) -> GraphPoint:
    """e:t syntax: edge id and offset in pi units ('3:1/4'), or a vertex name."""
    from .metric_graph import GraphPoint
    if ":" in spec:
        e, t = spec.split(":", 1)
        eid = int(e)
        if not 0 <= eid < len(g.edges):
            raise ComplexError(f"bad point {spec!r}: no edge {eid}")
        try:
            tv = Fraction(t) if "/" in t or t.isdigit() else float(t)
        except ZeroDivisionError:
            raise ComplexError(f"bad point {spec!r}: zero denominator") from None
        if isinstance(tv, float) and not math.isfinite(tv):
            raise ComplexError(f"bad point {spec!r}: offset is not finite")
        return g.point(eid, tv)
    return GraphPoint(vertex=g.vertices.index(spec))


def report_of(result, extra: dict | None = None) -> dict:
    from .recognizer import Diagnosis
    if isinstance(result, Diagnosis):
        rep = {"schema": 1, "verdict": None, "diagnosis": result.to_json()}
    else:
        rep = result.to_report()
    if extra:
        rep.update(extra)
    return rep


def exit_code_of(result) -> int:
    from .recognizer import Diagnosis
    if isinstance(result, Diagnosis):
        # an undecided fundamental group is not a diagnosed failure
        if result.condition == "unknown_pi1":
            return EXIT_UNDECIDED
        return EXIT_DIAGNOSED
    if any(any(f.startswith(m) for m in UNDECIDED_MARKERS) for f in result.flags):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import corpus
    from .coxeter import B_GROUP_DEFAULT, CoxeterMatrix, coxeter_complex, named_matrix
    kind = args.kind
    make = corpus.GENERATORS.get(kind)
    if make is None and kind not in ("coxeter-complex", "suspension"):
        raise ComplexError(f"unknown generator {kind!r}")
    options = {k: getattr(args, k) for k in GEN_OPTIONS if getattr(args, k) is not None}
    takes = inspect.signature(make).parameters if make else {}
    for k in options:
        if k not in takes:
            raise ComplexError(f"gen {kind} takes no --{k}")
    if kind == "coxeter-complex":
        if args.matrix:
            with open(args.matrix, encoding="utf-8") as fh:
                M = CoxeterMatrix.from_json_dict(json.load(fh))
        else:
            M = named_matrix(args.type or "A3")
        budget = budgets().get("B_group", B_GROUP_DEFAULT)
        cx = coxeter_complex(M, budget=budget).complex
    elif kind == "suspension":
        if not args.base:
            raise ComplexError("gen suspension needs --base FILE")
        cx = corpus.gen_suspension(load_path(args.base))
    else:
        if "length" in options:
            options["length"] = parse_length(options["length"])
        cx = make(**options)
    _write_output(cx.dumps(), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    cx = load_path(args.file)
    rep = validate(cx)
    emit({"schema": 1, **rep.to_json()}, args.report)
    return EXIT_OK if rep.ok else EXIT_DIAGNOSED


def cmd_check(args) -> int:
    cx = load_path(args.file)
    cx.require_valid()
    b = budgets()
    from .recognizer import B_APT_DEFAULT, check_euclidean, check_spherical
    geometry = cx.geometry if args.geometry == "auto" else args.geometry
    if geometry == "euclidean":
        result = check_euclidean(cx, args.boundary)
    else:
        result = check_spherical(cx, budget=b.get("B_apt", B_APT_DEFAULT))
    emit(report_of(result), args.report)
    return exit_code_of(result)


def cmd_graph(args) -> int:
    cx = load_path(args.file)
    from .metric_graph import GraphPoint, MetricGraph
    g = MetricGraph.from_complex(cx)
    if args.op == "diameter":
        d, wit = g.diameter()
        emit({"schema": 1, "diameter_pi_units": float(d),
              "exact": isinstance(d, Fraction),
              "witness": None if wit is None else [g.point_name(wit[0]),
                                                   g.point_name(wit[1])]},
             args.report)
    elif args.op == "systole":
        s, cyc = g.systole()
        emit({"schema": 1,
              "systole_pi_units": None if s == float("inf") else float(s),
              "cycle": None if cyc is None else
              [g.vertices[v] for v in g.cycle_vertices(cyc)]}, args.report)
    else:
        p = _parse_point(g, args.point) if args.point else GraphPoint(vertex=0)
        ant = g.antipode_set(p)
        emit({"schema": 1, "nonempty": ant.nonempty, "discrete": ant.discrete,
              "points": [g.point_name(q) for q in ant.points],
              "intervals": [[e, float(lo), float(hi)] for e, lo, hi in ant.intervals]},
             args.report)
    return EXIT_OK


def cmd_coxeter(args) -> int:
    from .coxeter import (B_GROUP_DEFAULT, CoxeterMatrix, classify, coxeter_complex,
                          named_matrix)
    if args.type:
        M = named_matrix(args.type)
    elif args.file is None:
        raise ComplexError("coxeter needs a matrix FILE or --type")
    else:
        with open(args.file, encoding="utf-8") as fh:
            M = CoxeterMatrix.from_json_dict(json.load(fh))
    budget = budgets().get("B_group", B_GROUP_DEFAULT)
    if args.op == "classify":
        cls = classify(M, budget=budget)
        emit({"schema": 1, **cls.to_json()}, args.report)
        return EXIT_OK
    model = coxeter_complex(M, budget=budget)
    if args.output:
        _write_output(model.complex.dumps(), args.output)
    else:
        emit({"schema": 1, "chambers": len(model.complex.top_cells),
              "vertices": len(model.complex.vertices),
              "group_order": len(model.elements)}, args.report)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    cx = load_path(args.file)
    from .geodesics import BRANCH_BUDGET, shoot
    from .metric_graph import GraphPoint, MetricGraph
    vi = cx.vertex_index(args.from_)
    lk = vertex_link(cx, vi)
    g = MetricGraph.from_complex(lk)
    if args.dir.startswith("v:"):
        dp = GraphPoint(vertex=lk.vertices.index(args.dir[2:]))
    else:
        dp = _parse_point(g, args.dir)
    length = parse_length(args.len).radians
    geos, exhausted = shoot(cx, vi, dp, length,
                            branch_budget=budgets().get("branch_budget", BRANCH_BUDGET))
    emit({"schema": 1, "count": len(geos),
          "flags": ["branch_budget_exceeded"] if exhausted else [],
          "geodesics": [geo.describe() for geo in geos]}, args.report)
    return EXIT_UNDECIDED if exhausted else EXIT_OK


def cmd_apartment(args) -> int:
    cx = load_path(args.file)
    from .geodesics import propagate_apartment
    from .recognizer import B_APT_DEFAULT
    res = propagate_apartment(cx, args.from_, args.cycle, y=args.to,
                              budget=budgets().get("B_apt", B_APT_DEFAULT))
    if hasattr(res, "cells"):
        emit({"schema": 1, "ok": True, "cells":
              [[cx.vertices[v] for v in cell] for cell in res.cells],
              "euler_characteristic": res.euler,
              "antipode": None if res.antipode_of_base is None
              else cx.vertices[res.antipode_of_base]}, args.report)
        return EXIT_OK
    emit({"schema": 1, "ok": False, "reason": res.reason, "witness": res.witness},
         args.report)
    return EXIT_UNDECIDED if res.exhausted else EXIT_DIAGNOSED


def cmd_decompose(args) -> int:
    cx = load_path(args.file)
    from .decompose import join_decompose, suspension_factor
    from .recognizer import BuildingCertificate, Diagnosis, check_spherical
    if cx.geometry == "euclidean":
        raise ComplexError("decompose handles spherical complexes; "
                           "Euclidean factor hints are part of `check`")
    result = check_spherical(cx)
    if isinstance(result, Diagnosis):
        emit(report_of(result), args.report)
        return EXIT_DIAGNOSED
    out = {"schema": 1, "verdict": result.verdict, "factors": [], "suspension": None}
    tower = suspension_factor(cx, result)
    if tower is not None:
        out["suspension"] = {
            "pole_pairs": [list(p) for p in tower.pole_pairs],
            "base_vertices": None if tower.base is None
            else list(tower.base.vertices)}
    if result.coxeter_matrix is not None:
        for f in join_decompose(cx, result):
            out["factors"].append({
                "vertices": list(f.complex.vertices),
                "dimension": f.complex.dimension,
                "verdict": f.certificate.verdict
                if isinstance(f.certificate, BuildingCertificate)
                else {"diagnosis": f.certificate.to_json()},
                "component": list(f.generator_component)})
    emit(out, args.report)
    return exit_code_of(result)


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one ``buildctl: `` line, exit 3."""

    def error(self, message):
        command = self.prog.removeprefix("buildctl").strip()
        raise ComplexError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="buildctl",
        description="Recognize, diagnose and generate metric building complexes.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a corpus complex as JSON")
    g.add_argument("kind", help="complete-bipartite | projective-plane | "
                                "generalized-quadrangle | octahedron | petersen | k4 | "
                                "short-lune | punctured-octahedron | a2-window | "
                                "perturbed-a2-window | coxeter-complex | suspension")
    g.add_argument("--length", help="edge length: pi/3, 2pi/3, or radians")
    g.add_argument("--s", type=int)
    g.add_argument("--t", type=int)
    g.add_argument("--q", type=int)
    g.add_argument("--radius", type=int)
    g.add_argument("--type", help="Coxeter type name, e.g. A3, I2(5)")
    g.add_argument("--matrix", help="Coxeter matrix JSON file")
    g.add_argument("--base", help="base complex for suspension")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("validate", help="structural validation report")
    v.add_argument("file")
    v.add_argument("--report", choices=("json", "text"), default="json")
    v.set_defaults(func=cmd_validate)

    ck = sub.add_parser("check", help="run the building recognizer")
    ck.add_argument("file")
    ck.add_argument("--geometry", choices=("auto", "spherical", "euclidean"),
                    default="auto")
    ck.add_argument("--boundary", choices=("strict", "window"), default="strict")
    ck.add_argument("--report", choices=("json", "text"), default="json")
    ck.set_defaults(func=cmd_check)

    gr = sub.add_parser("graph", help="exact metric-graph analysis")
    gr.add_argument("op", choices=("diameter", "systole", "antipodes"))
    gr.add_argument("file")
    gr.add_argument("--point", help="base point e:t (edge id, offset in pi units) "
                                    "or vertex name")
    gr.add_argument("--report", choices=("json", "text"), default="json")
    gr.set_defaults(func=cmd_graph)

    cx = sub.add_parser("coxeter", help="classify or realize a Coxeter matrix")
    cx.add_argument("op", choices=("classify", "complex"))
    cx.add_argument("file", nargs="?")
    cx.add_argument("--type", help="named system instead of a file")
    cx.add_argument("-o", "--output", help="write the complex JSON here")
    cx.add_argument("--report", choices=("json", "text"), default="json")
    cx.set_defaults(func=cmd_coxeter)

    ge = sub.add_parser("geodesic", help="shoot geodesics from a vertex")
    ge.add_argument("file")
    ge.add_argument("--from", dest="from_", required=True, help="vertex name")
    ge.add_argument("--dir", required=True,
                    help="link direction: e:t (link edge id, offset in pi units) "
                         "or v:NAME (link vertex)")
    ge.add_argument("--len", default="pi", help="target length (default pi)")
    ge.add_argument("--report", choices=("json", "text"), default="json")
    ge.set_defaults(func=cmd_geodesic)

    apart = sub.add_parser("apartment",
                           help="an apartment through the sector fan of a link cycle")
    apart.add_argument("file")
    apart.add_argument("--from", dest="from_", required=True)
    apart.add_argument("--cycle", nargs="+", required=True,
                       help="link-cycle vertex names around the base vertex")
    apart.add_argument("--to", help="a vertex the apartment must hold as the antipode "
                                    "of --from")
    apart.add_argument("--report", choices=("json", "text"), default="json")
    apart.set_defaults(func=cmd_apartment)

    de = sub.add_parser("decompose", help="suspension and join factors")
    de.add_argument("file")
    de.add_argument("--report", choices=("json", "text"), default="json")
    de.set_defaults(func=cmd_decompose)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:       # --help
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        # every input error class (ComplexError, CoxeterError, GeodesicError,
        # JSONDecodeError, ...) subclasses ValueError
        sys.stderr.write(f"buildctl: {exc}\n")
        return EXIT_INPUT
    except RuntimeError as exc:
        # an exhausted budget leaves the answer open; IntegrityError is a bug
        from .coxeter import BudgetExceeded
        if not isinstance(exc, BudgetExceeded):
            raise
        sys.stderr.write(f"buildctl: {exc}\n")
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
