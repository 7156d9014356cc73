"""Deterministic generators for positive and negative test complexes."""

from __future__ import annotations

import itertools

from .angles import Angle
from .complexes import (EUCLIDEAN, SPHERICAL, ComplexError, MetricComplex,
                        orthogonal_join, s0, suspension)

# required edge lengths per rank-2 kind: the dihedral parameter of the building
RANK2_M = {"complete_bipartite": 2, "projective_plane": 3, "generalized_quadrangle": 4}


def gen_rank2_building(kind: str, s: int = 3, t: int = 3, q: int = 2,
                       length: Angle | None = None) -> MetricComplex:
    """Rank-2 spherical buildings as 1-complexes with uniform exact lengths.

    complete_bipartite(s,t) with edges pi/2; the 7-point projective plane
    incidence graph with edges pi/3; the GQ(2,2) incidence graph with edges
    pi/4.  A length not matching the kind is refused.
    """
    kind = kind.replace("-", "_")
    if kind not in RANK2_M:
        raise ComplexError(f"unknown rank-2 kind {kind!r}")
    m = RANK2_M[kind]
    if length is None:
        length = Angle.exact(1, m)
    if not length.equals(Angle.exact(1, m)):
        raise ComplexError(
            f"{kind} requires edge length pi/{m}, got {length} "
            "(any other length fails recognition by construction)")
    if kind == "complete_bipartite":
        if s < 1 or t < 1:
            raise ComplexError(f"complete_bipartite needs s, t >= 1, got s={s}, t={t}")
        names = [f"a{i}" for i in range(s)] + [f"b{j}" for j in range(t)]
        cells = [(i, s + j) for i in range(s) for j in range(t)]
        prov = f"gen:complete_bipartite({s},{t})"
    elif kind == "projective_plane":
        if q != 2:
            raise ComplexError("projective_plane generator supports q = 2 only")
        lines = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        names = [f"p{i}" for i in range(7)] + [f"l{i}" for i in range(7)]
        cells = [(p, 7 + li) for li, line in enumerate(lines) for p in line]
        prov = "gen:projective_plane(2)"
    else:
        if q != 2:
            raise ComplexError("generalized_quadrangle generator supports q = 2 only")
        points = sorted(itertools.combinations(range(6), 2))
        lines = sorted({tuple(sorted(map(tuple, mline)))
                        for mline in _perfect_matchings(tuple(range(6)))})
        names = [f"p{a}{b}" for a, b in points] + [f"l{i}" for i in range(len(lines))]
        pidx = {p: i for i, p in enumerate(points)}
        cells = [(pidx[p], len(points) + li)
                 for li, line in enumerate(lines) for p in line]
        prov = "gen:generalized_quadrangle(2)"
    edges = sorted({tuple(sorted(c)) for c in cells})
    return MetricComplex(SPHERICAL, names, cells,
                         [(i, j, length) for i, j in edges],
                         dimension=1, provenance=prov)


def _perfect_matchings(elts):
    if not elts:
        yield ()
        return
    a = elts[0]
    for b in elts[1:]:
        rest = tuple(x for x in elts if x not in (a, b))
        for m in _perfect_matchings(rest):
            yield ((a, b),) + m


def gen_octahedron() -> MetricComplex:
    return orthogonal_join(
        orthogonal_join(s0(("a0", "a1")), s0(("b0", "b1"))), s0(("c0", "c1")))


def gen_petersen() -> MetricComplex:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    third = Angle.exact(1, 3)
    return MetricComplex(SPHERICAL, [f"v{i}" for i in range(10)], edges,
                         [(u, v, third) for u, v in edges], dimension=1)


def gen_k4() -> MetricComplex:
    edges = list(itertools.combinations(range(4), 2))
    ln = Angle.exact(2, 3)
    return MetricComplex(SPHERICAL, [f"v{i}" for i in range(4)], edges,
                         [(u, v, ln) for u, v in edges], dimension=1)


def gen_short_lune() -> MetricComplex:
    """Suspension of a short circle: pole links have circumference pi < 2*pi."""
    quarter = Angle.exact(1, 4)
    c4 = MetricComplex(SPHERICAL, [f"y{i}" for i in range(4)],
                       [(i, (i + 1) % 4) for i in range(4)],
                       [(i, (i + 1) % 4, quarter) for i in range(4)], dimension=1)
    out = suspension(c4)
    return MetricComplex(out.geometry, out.vertices, out.top_cells,
                         [(i, j, out.edge_length(i, j)) for i, j in out.edges])


def gen_punctured_octahedron() -> MetricComplex:
    oct_ = gen_octahedron()
    return MetricComplex(SPHERICAL, oct_.vertices, list(oct_.top_cells)[:-1],
                         [(i, j, oct_.edge_length(i, j)) for i, j in oct_.edges])


class WindowModel:
    """A finite flat window with its canonical plane coordinates."""

    def __init__(self, complex: MetricComplex, coords: dict[int, tuple[float, float]],
                 name: str):
        self.complex = complex
        self.coords = coords
        self.name = name


SQRT3_2 = 3 ** 0.5 / 2


def gen_a2_window(radius: int = 3, perturb: float | None = None,
                  perturb_edge: tuple[str, str] = ("0_0", "1_0")) -> WindowModel:
    """Triangular-lattice disk: all lattice vertices within hex distance
    ``radius`` of the origin, unit equilateral triangles.

    ``perturb`` rescales one edge (default: an edge at the origin), producing
    the standard negative control for the Euclidean link check.
    """
    if radius < 1:
        raise ComplexError("window radius must be >= 1")
    pts = sorted((a, b) for a in range(-radius, radius + 1)
                 for b in range(-radius, radius + 1)
                 if (abs(a) + abs(b) + abs(a + b)) // 2 <= radius)
    idx = {p: i for i, p in enumerate(pts)}
    names = [f"{a}_{b}" for a, b in pts]
    cells = []
    for a in range(-radius - 1, radius + 1):
        for b in range(-radius - 1, radius + 1):
            up = [(a, b), (a + 1, b), (a, b + 1)]
            dn = [(a + 1, b), (a, b + 1), (a + 1, b + 1)]
            for tri in (up, dn):
                if all(p in idx for p in tri):
                    cells.append(tuple(sorted(idx[p] for p in tri)))
    edges = sorted({e for cell in cells for e in itertools.combinations(cell, 2)})
    unit = Angle(rad=1.0)
    lengths = []
    pe = None
    if perturb is not None:
        u, v = perturb_edge
        pe = tuple(sorted((names.index(u), names.index(v))))
    for e in edges:
        if pe is not None and e == pe:
            lengths.append((e[0], e[1], Angle(rad=float(perturb))))
        else:
            lengths.append((e[0], e[1], unit))
    cx = MetricComplex(EUCLIDEAN, names, cells, lengths,
                       provenance=None if perturb is not None
                       else f"gen:a2_window({radius})")
    coords = {idx[(a, b)]: (a + b / 2.0, b * SQRT3_2) for (a, b) in pts}
    tag = f"a2_window(radius={radius}"
    tag += ")" if perturb is None else f",perturb={perturb})"
    return WindowModel(cx, coords, tag)


GENERATORS = {
    "complete-bipartite": lambda s=3, t=3, length=None:
        gen_rank2_building("complete_bipartite", s=s, t=t, length=length),
    "projective-plane": lambda q=2, length=None:
        gen_rank2_building("projective_plane", q=q, length=length),
    "generalized-quadrangle": lambda q=2, length=None:
        gen_rank2_building("generalized_quadrangle", q=q, length=length),
    "octahedron": gen_octahedron,
    "petersen": gen_petersen,
    "k4": gen_k4,
    "short-lune": gen_short_lune,
    "punctured-octahedron": gen_punctured_octahedron,
    "a2-window": lambda radius=3: gen_a2_window(radius).complex,
    "perturbed-a2-window": lambda radius=3: gen_a2_window(radius, perturb=1.01).complex,
}
