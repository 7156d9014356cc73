"""Golden reports: one 16-hex digest per (input, variant, budget or policy).

Every corpus generator, the A3, B3, H3 and A4 Coxeter complexes, the S0 and
S0*S0 joins of K3,3 and of the Heawood graph, and the antipodal quotient of
B3 with its suspension are each checked as given, relabelled, less one
chamber, and with one edge 1 % longer and 1 % shorter.  Spherical inputs run
``check_spherical`` under the budgets 10^5, 3 and 1; Euclidean ones run
``check_euclidean`` under the strict and the window policy.  Each record is
the CLI's JSON report of the answer with its exit code (or the input error),
and its digest is the first 16 hex digits of its SHA-256.

A refactor that keeps every report keeps every digest.  A failure prints the
input, the variant, the budget or policy and the new report.  Running this
file as a script (``PYTHONPATH=src python tests/test_report_digests.py``)
rewrites ``tests/data/report_digests.json`` from the program it imports.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from buildctl.cli import exit_code_of, report_of
from buildctl.complexes import EUCLIDEAN, ComplexError, suspension
from buildctl.corpus import GENERATORS, gen_rank2_building
from buildctl.coxeter import CoxeterMatrix, coxeter_complex, named_matrix
from buildctl.recognizer import check_euclidean, check_spherical
from test_complexes import _relabelled
from test_recognizer import (_a4_complex, _antipodal_quotient, _with_edge_scaled,
                             _without_chamber)

DATA = Path(__file__).resolve().parent / "data" / "report_digests.json"
BUDGETS = (10 ** 5, 3, 1)
POLICIES = ("strict", "window")


def _inputs() -> dict:
    out = {f"corpus:{name}": make for name, make in GENERATORS.items()}
    h3 = CoxeterMatrix(("s0", "s1", "s2"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    for name, M in (("A3", named_matrix("A3")), ("B3", named_matrix("B3")), ("H3", h3)):
        out[f"coxeter:{name}"] = lambda M=M: coxeter_complex(M).complex
    out["coxeter:A4"] = _a4_complex
    for name, kind in (("K33", "complete_bipartite"), ("heawood", "projective_plane")):
        out[f"S0*{name}"] = lambda kind=kind: suspension(gen_rank2_building(kind))
        out[f"S0*S0*{name}"] = lambda kind=kind: suspension(suspension(gen_rank2_building(kind)))
    out["b3-quotient"] = lambda: _antipodal_quotient(coxeter_complex(named_matrix("B3")).complex)
    out["S0*b3-quotient"] = lambda: suspension(out["b3-quotient"]())
    return out


def _variants(c) -> dict:
    edge = random.Random(len(c.top_cells)).choice(c.edges)
    return {"as-given": lambda: c,
            "relabelled": lambda: _relabelled(c, len(c.vertices)),
            "less-one-chamber": lambda: _without_chamber(c, len(c.top_cells) // 2),
            "edge+1%": lambda: _with_edge_scaled(c, edge, 1.01),
            "edge-1%": lambda: _with_edge_scaled(c, edge, 0.99)}


def _record(check) -> dict:
    try:
        res = check()
    except ComplexError as exc:
        return {"error": str(exc)}
    return {"report": report_of(res), "exit": exit_code_of(res)}


def _records(name: str) -> dict:
    """{"variant|setting": record} for one input."""
    base = _inputs()[name]()
    out = {}
    for variant, make in _variants(base).items():
        try:
            c = make()
        except ComplexError as exc:
            out[f"{variant}|build"] = {"error": str(exc)}
            continue
        if c.geometry == EUCLIDEAN:
            for policy in POLICIES:
                out[f"{variant}|{policy}"] = _record(lambda: check_euclidean(c, policy))
        else:
            for budget in BUDGETS:
                out[f"{variant}|{budget}"] = _record(lambda: check_spherical(c, budget))
    return out


def _digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_inputs()))
def test_reports_keep_their_digests(name):
    want = json.loads(DATA.read_text())["records"][name]
    got = _records(name)
    assert sorted(got) == sorted(want)
    changed = []
    for key, record in got.items():
        if _digest(record) != want[key]:
            variant, setting = key.split("|")
            changed.append(f"input {name}, variant {variant}, budget or policy {setting}: "
                           f"{json.dumps(record, sort_keys=True)}")
    assert not changed, "reports changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    records = {name: {key: _digest(r) for key, r in _records(name).items()}
               for name in sorted(_inputs())}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"records": records}, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, records.values()))} records written to {DATA}")
