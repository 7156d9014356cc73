"""Raw benchmark inputs, built from their mathematical constructions.

Nothing here calls buildctl: every complex is a plain record of vertex
names, top cells and edge lengths, so the answers the benchmark expects
follow from the construction alone.  Lengths are ``Fraction`` (exact, in
units of pi) or ``float`` (radians).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

HALF = Fraction(1, 2)
SHIFT = Fraction(1, 12)          # seeded negatives lengthen or shorten by pi/12


@dataclass
class Raw:
    """A simplicial complex as data: what a user hands to buildctl."""

    geometry: str
    names: list[str]
    cells: list[tuple[int, ...]]
    lengths: dict[tuple[int, int], Fraction | float]
    provenance: str | None = None
    dimension: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.lengths)

    def length_pi(self, i: int, j: int) -> Fraction | float:
        """Edge length in units of pi, exact when the record is exact."""
        ln = self.lengths[(min(i, j), max(i, j))]
        return ln if isinstance(ln, Fraction) else ln / math.pi

    def with_length(self, edge: tuple[int, int], value) -> "Raw":
        """A copy with one edge changed; no longer a construction, so no provenance."""
        lengths = dict(self.lengths)
        lengths[edge] = value
        return Raw(self.geometry, list(self.names), list(self.cells), lengths,
                   None, self.dimension)

    def floated(self) -> "Raw":
        """The same complex with every length given in radians."""
        lengths = {e: float(v) * math.pi if isinstance(v, Fraction) else v
                   for e, v in self.lengths.items()}
        return Raw(self.geometry, list(self.names), list(self.cells), lengths,
                   self.provenance, self.dimension)


def _graph(names, edges, length, tag) -> Raw:
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Raw("spherical", list(names), es, {e: length for e in es},
               provenance=tag, dimension=1)


# -- rank-2 buildings and graph controls ----------------------------------------


def heawood() -> Raw:
    """Incidence graph of the Fano plane, lines {i, i+1, i+3} mod 7."""
    lines = [sorted({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    names = [f"p{i}" for i in range(7)] + [f"l{i}" for i in range(7)]
    edges = [(p, 7 + li) for li, line in enumerate(lines) for p in line]
    return _graph(names, edges, Fraction(1, 3), "perfbench:heawood")


def gq22() -> Raw:
    """GQ(2,2): the 15 pairs of {0..5} against the 15 perfect matchings."""
    points = list(itertools.combinations(range(6), 2))

    def matchings(elts):
        if not elts:
            yield ()
            return
        a = elts[0]
        for b in elts[1:]:
            rest = tuple(x for x in elts if x not in (a, b))
            for m in matchings(rest):
                yield ((a, b),) + m

    lines = sorted(matchings(tuple(range(6))))
    names = [f"p{a}{b}" for a, b in points] + [f"l{i}" for i in range(len(lines))]
    pidx = {p: i for i, p in enumerate(points)}
    edges = [(pidx[p], len(points) + li) for li, line in enumerate(lines) for p in line]
    return _graph(names, edges, Fraction(1, 4), "perfbench:gq22")


def kss(s: int) -> Raw:
    names = [f"a{i}" for i in range(s)] + [f"b{j}" for j in range(s)]
    edges = [(i, s + j) for i in range(s) for j in range(s)]
    return _graph(names, edges, HALF, f"perfbench:k{s}{s}")


def petersen() -> Raw:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return _graph([f"v{i}" for i in range(10)], edges, Fraction(1, 3), None)


def k4() -> Raw:
    """K4 with edges 2pi/3: triangles are exactly 2pi, diameter is 4pi/3."""
    return _graph([f"v{i}" for i in range(4)], itertools.combinations(range(4), 2),
                  Fraction(2, 3), None)


def perturbed(raw: Raw, edge: tuple[int, int], sign: int) -> Raw:
    """One exact edge lengthened (sign +1) or shortened (sign -1) by pi/12."""
    return raw.with_length(edge, raw.lengths[edge] + sign * SHIFT)


def seeded_edge(seed: int, label: str, candidates):
    """The seed's pick among ``candidates``; stable across hash seeds."""
    candidates = list(candidates)
    return candidates[random.Random(f"{seed}:{label}").randrange(len(candidates))]


# -- joins and dimension-2/3 spherical inputs ----------------------------------------


def s0(a: str, b: str) -> Raw:
    return Raw("spherical", [a, b], [(0,), (1,)], {}, provenance="discrete", dimension=0)


def join(a: Raw, b: Raw) -> Raw:
    """Orthogonal join: cells are products, cross edges have length pi/2."""
    off = len(a.names)
    cells = [tuple(ca) + tuple(off + i for i in cb) for ca in a.cells for cb in b.cells]
    lengths = dict(a.lengths)
    lengths.update({(off + i, off + j): v for (i, j), v in b.lengths.items()})
    lengths.update({(i, off + j): HALF
                    for i in range(len(a.names)) for j in range(len(b.names))})
    prov = None
    if a.provenance and b.provenance:
        prov = f"orthogonal_join({a.provenance},{b.provenance})"
    dim = (a.dimension or 0) + (b.dimension or 0) + 1
    return Raw("spherical", a.names + b.names, cells, lengths, prov, dim)


def suspension(a: Raw) -> Raw:
    poles = ("N", "S")
    k = 0
    while set(poles) & set(a.names):
        poles = (f"N{k}", f"S{k}")
        k += 1
    return join(s0(*poles), a)


def octahedron() -> Raw:
    return join(join(s0("a0", "a1"), s0("b0", "b1")), s0("c0", "c1"))


def punctured_octahedron() -> Raw:
    """The octahedron minus its last top cell: that cell's edges bound one cell."""
    oc = octahedron()
    cells = sorted(tuple(sorted(c)) for c in oc.cells)
    removed = cells[-1]
    out = Raw("spherical", oc.names, cells[:-1], dict(oc.lengths), None, 2)
    out.notes["removed_edges"] = [sorted((oc.names[i], oc.names[j]))
                                  for i, j in itertools.combinations(removed, 2)]
    return out


def short_lune() -> Raw:
    """Suspension of a 4-cycle of pi/4 edges: each pole link has length pi."""
    c4 = _graph([f"y{i}" for i in range(4)], [(i, (i + 1) % 4) for i in range(4)],
                Fraction(1, 4), None)
    out = suspension(c4)
    out.notes["equator"] = c4
    return out


# -- Euclidean A2 windows -------------------------------------------------------------


def a2_window(radius: int) -> Raw:
    """Triangular-lattice disk of hex radius ``radius``, unit triangles."""
    pts = sorted((a, b) for a in range(-radius, radius + 1)
                 for b in range(-radius, radius + 1)
                 if (abs(a) + abs(b) + abs(a + b)) // 2 <= radius)
    idx = {p: i for i, p in enumerate(pts)}
    cells = set()
    for a in range(-radius - 1, radius + 1):
        for b in range(-radius - 1, radius + 1):
            for tri in ([(a, b), (a + 1, b), (a, b + 1)],
                        [(a + 1, b), (a, b + 1), (a + 1, b + 1)]):
                if all(p in idx for p in tri):
                    cells.add(tuple(sorted(idx[p] for p in tri)))
    cells = sorted(cells)
    lengths = {e: 1.0 for c in cells for e in itertools.combinations(c, 2)}
    out = Raw("euclidean", [f"{a}_{b}" for a, b in pts], cells, lengths,
              f"perfbench:a2_window({radius})", 2)
    out.notes["interior"] = [i for (a, b), i in idx.items()
                             if (abs(a) + abs(b) + abs(a + b)) // 2 < radius]
    return out


def euclidean_angle_sums(raw: Raw) -> dict[int, float]:
    """Total angle at each vertex, by the law of cosines on the raw lengths."""
    sums: dict[int, float] = {}
    for cell in raw.cells:
        for v in cell:
            u, w = (x for x in cell if x != v)
            a = raw.lengths[(min(v, u), max(v, u))]
            b = raw.lengths[(min(v, w), max(v, w))]
            c = raw.lengths[(min(u, w), max(u, w))]
            cos = (a * a + b * b - c * c) / (2 * a * b)
            sums[v] = sums.get(v, 0.0) + math.acos(max(-1.0, min(1.0, cos)))
    return sums


# -- Coxeter matrices -----------------------------------------------------------------

COXETER = {
    # name: (matrix, |W|, number of vertices = sum over types of |W / W_(S - s)|)
    "A3": (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 24, 14),
    "B3": (((1, 4, 2), (4, 1, 3), (2, 3, 1)), 48, 26),
    "H3": (((1, 5, 2), (5, 1, 3), (2, 3, 1)), 120, 62),
    "A4": (((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)), 120, 30),
}


def block_diag(*blocks) -> tuple[tuple[int, ...], ...]:
    """The Coxeter matrix of a join: generators of different factors commute."""
    n = sum(len(b) for b in blocks)
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[off + i][off + j] = v
        off += len(b)
    return tuple(tuple(r) for r in rows)


A1 = ((1,),)


def i2(m: int):
    return ((1, m), (m, 1))


# -- independent metric-graph arithmetic, for re-checking witnesses ---------------------


def vertex_distances(raw: Raw, source: int) -> dict[int, Fraction | float]:
    adj: dict[int, list] = {i: [] for i in range(len(raw.names))}
    for (u, v) in raw.lengths:
        ln = raw.length_pi(u, v)
        adj[u].append((v, ln))
        adj[v].append((u, ln))
    dist = {source: Fraction(0)}
    todo = {source}
    while todo:
        u = min(todo, key=lambda x: dist[x])
        todo.discard(u)
        for w, ln in adj[u]:
            nd = dist[u] + ln
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                todo.add(w)
    return dist


def point_distance(raw: Raw, p, q) -> Fraction | float:
    """Distance between points given as vertex index or (edge, offset)."""
    def sides(x):
        if isinstance(x, int):
            return [(x, Fraction(0))]
        (u, v), t = x
        return [(u, t), (v, raw.length_pi(u, v) - t)]

    best = None
    if not isinstance(p, int) and not isinstance(q, int) and p[0] == q[0]:
        best = abs(p[1] - q[1])
    for a, ta in sides(p):
        dist = vertex_distances(raw, a)
        for b, tb in sides(q):
            cand = ta + dist[b] + tb
            if best is None or cand < best:
                best = cand
    return best
