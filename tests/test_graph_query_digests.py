"""Golden graph queries: one 16-hex digest per (graph, variant).

Every dimension-1 corpus graph in ``GENERATORS`` is checked as given,
relabelled, with its lengths as radians (floats), and with one edge pi/12
longer and pi/12 shorter.  Each record holds the ``graph diameter`` value
and its witness, the ``graph systole`` value and its cycle, and the antipode
set from every vertex and from the midpoint of one edge.  Values are written
exactly (``str`` of a Fraction or a float, which is its ``repr``), so a
record pins the queries byte for byte, beyond the CLI's float output.

A kernel change that keeps every answer keeps every digest.  A failure
prints the graph, the variant and the new record.  Running this file as a
script (``PYTHONPATH=src python tests/test_graph_query_digests.py``)
rewrites ``tests/data/graph_query_digests.json`` from the program it
imports.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from buildctl.angles import Angle
from buildctl.complexes import MetricComplex
from buildctl.corpus import GENERATORS
from buildctl.metric_graph import GraphPoint, MetricGraph
from test_complexes import _relabelled

DATA = Path(__file__).resolve().parent / "data" / "graph_query_digests.json"
TWELFTH = Fraction(1, 12)


def _graphs() -> dict:
    return {name: make for name, make in GENERATORS.items() if make().dimension == 1}


def _with_lengths(c, length) -> MetricComplex:
    """c with each edge's Angle a replaced by length(edge, a)."""
    return MetricComplex(c.geometry, c.vertices, c.top_cells,
                         [(i, j, length((i, j), c.lengths[i, j])) for i, j in c.edges])


def _variants(c) -> dict:
    edge = random.Random(len(c.top_cells)).choice(c.edges)

    def shifted(delta):
        return lambda e, a: Angle(frac=a.frac + delta) if e == edge else a

    return {"as-given": c,
            "relabelled": _relabelled(c, len(c.vertices)),
            "floated": _with_lengths(c, lambda e, a: Angle(rad=a.radians)),
            "edge+pi/12": _with_lengths(c, shifted(TWELFTH)),
            "edge-pi/12": _with_lengths(c, shifted(-TWELFTH))}


def _antipodes(g: MetricGraph, p) -> dict:
    ant = g.antipode_set(p)
    return {"nonempty": ant.nonempty, "discrete": ant.discrete,
            "points": [g.point_name(q) for q in ant.points],
            "intervals": [[e, str(lo), str(hi)] for e, lo, hi in ant.intervals]}


def _record(c) -> dict:
    g = MetricGraph.from_complex(c)
    d, wit = g.diameter()
    s, cyc = g.systole()
    eid = len(g.edges) // 2
    mid = g.point(eid, g.edges[eid][2] / 2)
    return {"diameter": str(d),
            "witness": None if wit is None else [g.point_name(q) for q in wit],
            "systole": str(s),
            "cycle": None if cyc is None else [g.vertices[v] for v in g.cycle_vertices(cyc)],
            "antipodes": [_antipodes(g, GraphPoint(vertex=v)) for v in range(len(g.vertices))],
            "midpoint": _antipodes(g, mid)}


def _records(name: str) -> dict:
    """{variant: record} for one corpus graph."""
    return {variant: _record(c) for variant, c in _variants(_graphs()[name]()).items()}


def _digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_graphs()))
def test_graph_queries_keep_their_digests(name):
    want = json.loads(DATA.read_text())["records"][name]
    got = _records(name)
    assert sorted(got) == sorted(want)
    changed = [f"graph {name}, variant {variant}: {json.dumps(record, sort_keys=True)}"
               for variant, record in got.items() if _digest(record) != want[variant]]
    assert not changed, "graph queries changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    records = {name: {variant: _digest(r) for variant, r in _records(name).items()}
               for name in sorted(_graphs())}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"records": records}, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, records.values()))} records written to {DATA}")
