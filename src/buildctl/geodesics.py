"""Local geodesics and apartments through sector fans in spherical complexes, n <= 2.

Within a 2-cell a geodesic is a great-circle arc of the cell's isometric
model on the round sphere; crossing an edge interior develops the two
incident cells flat; at a vertex the continuations are exactly the antipodes
of the incoming direction in the vertex link, which is a metric graph and
therefore exactly computable.  The apartments through the sector fan of a
2*pi link cycle at x are those of the recognizer's apartment system, the
convex hulls of opposite chambers (every apartment of a spherical building
is one), that contain every wedge of the fan; they come in
``Apartment.key`` order.  The 2*pi test sums the fan's corner angles
exactly, or within tolerance when one is a float (``cmp_units``).  Each
candidate apartment is walked onto the model Coxeter complex
(``_model_walk``), which labels its chambers by group words: x's antipode
and the distance in a "not antipodal" witness are read off the model, with
no coordinates.

The recognizer loads this module, so numpy is imported inside the functions
that use it: geodesic shooting is the only numpy user here, and a process
that runs no ``geodesic`` command never loads numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .angles import Angle, cmp_units
from .complexes import MetricComplex, _vertex_angle, vertex_link
from .coxeter import CoxeterComplexModel, cosine_form, coxeter_complex
from .metric_graph import GraphPoint, MetricGraph
from .recognizer import (B_APT_DEFAULT, Apartment, BuildingCertificate, Diagnosis,
                         _model_walk, check_spherical)

if TYPE_CHECKING:
    import numpy as np

BRANCH_BUDGET = 64


class GeodesicError(ValueError):
    pass


# -- cell frames --------------------------------------------------------------


def cell_frame(c: MetricComplex, cell) -> dict[int, np.ndarray]:
    """Unit-vector positions of a spherical cell's vertices (own model copy)."""
    import numpy as np
    t = tuple(sorted(cell))
    G = c.gram(t)
    L = np.linalg.cholesky(G)      # rows are the vertex vectors
    return {v: L[i] for i, v in enumerate(t)}


def _face_normals(frame: dict[int, np.ndarray], cell) -> dict[int, np.ndarray]:
    """Inward normal of the wall opposite each vertex of a 2-cell."""
    import numpy as np
    a, b, c3 = sorted(cell)
    out = {}
    for opp, (p, q) in ((a, (b, c3)), (b, (a, c3)), (c3, (a, b))):
        n = np.cross(frame[p], frame[q])
        if np.dot(n, frame[opp]) < 0:
            n = -n
        out[opp] = n / np.linalg.norm(n)
    return out


class FaceSegment:
    def __init__(self, cell: tuple, start: np.ndarray, direction: np.ndarray, length: float):
        self.cell = cell
        self.start = start
        self.direction = direction
        self.length = length


class EdgeSegment:
    def __init__(self, u: int, v: int, length: float):
        self.u = u
        self.v = v
        self.length = length


class LocalGeodesic:
    """A broken-arc geodesic: face arcs and along-edge runs, with endpoints."""

    def __init__(self, complex: MetricComplex, segments: list, start_vertex: int | None,
                 end_vertex: int | None = None, dead_end: bool = False):
        self.complex = complex
        self.segments = segments
        self.start_vertex = start_vertex
        self.end_vertex = end_vertex
        self.dead_end = dead_end

    @property
    def length(self) -> float:
        return float(sum(s.length for s in self.segments))

    def describe(self) -> dict:
        segs = []
        for s in self.segments:
            if isinstance(s, EdgeSegment):
                segs.append({"along_edge": [self.complex.vertices[s.u],
                                            self.complex.vertices[s.v]],
                             "length": s.length})
            else:
                segs.append({"cell": [self.complex.vertices[i] for i in s.cell],
                             "length": s.length})
        return {
            "start": None if self.start_vertex is None else self.complex.vertices[self.start_vertex],
            "end": None if self.end_vertex is None else self.complex.vertices[self.end_vertex],
            "length": self.length,
            "dead_end": self.dead_end,
            "segments": segs,
        }


class _State:
    """Marching state: where the geodesic tip is and how it points."""

    def __init__(self, kind: str, cell: tuple | None = None, point: tuple | None = None,
                 direction: tuple | None = None, vertex: int | None = None,
                 incoming: GraphPoint | None = None):
        self.kind = kind                # face | vertex | edge_launch | done
        self.cell = cell
        self.point = point              # unit vector as tuple (face kind)
        self.direction = direction
        self.vertex = vertex            # vertex kind: arrived here
        self.incoming = incoming        # direction of arrival inside lk(vertex)


def _link_graph(c: MetricComplex, v: int) -> tuple[MetricGraph, dict[int, int], dict[int, int]]:
    """lk(v) as a metric graph, with its vertex index -> ambient index map
    and the inverse map."""
    g = MetricGraph.from_complex(vertex_link(c, v))
    amb = {k: c.vertex_index(name) for k, name in enumerate(g.vertices)}
    return g, amb, {a: k for k, a in amb.items()}


def _link_edge_id(g: MetricGraph, a_local: int, b_local: int) -> int:
    for eid, (u, v, _) in enumerate(g.edges):
        if {u, v} == {a_local, b_local}:
            return eid
    raise GeodesicError("triangle not present in vertex link")


def _start_from_vertex(c: MetricComplex, v: int, link_point: GraphPoint,
                       g: MetricGraph, amb: dict[int, int]) -> _State:
    """Launch state for a geodesic leaving vertex v in a link direction."""
    import numpy as np
    if link_point.is_vertex:
        return _State(kind="edge_launch", vertex=v,
                      incoming=None, cell=(v, amb[link_point.vertex]))
    u_loc, w_loc, _ = g.edges[link_point.edge]
    a, b = amb[u_loc], amb[w_loc]
    cell = tuple(sorted((v, a, b)))
    frame = cell_frame(c, cell)
    ta = _unit_tangent(frame[v], frame[a])
    tb = _unit_tangent(frame[v], frame[b])
    alpha = _angle_between(ta, tb)
    s = float(link_point.t) * math.pi
    d = (math.sin(alpha - s) * ta + math.sin(s) * tb) / math.sin(alpha)
    return _State(kind="face", cell=cell, point=tuple(frame[v]),
                  direction=tuple(d / np.linalg.norm(d)))


def _unit_tangent(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    import numpy as np
    t = q - np.dot(q, p) * p
    return t / np.linalg.norm(t)


def _angle_between(u, v) -> float:
    import numpy as np
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))


def _march_face(c: MetricComplex, cell, p: np.ndarray, d: np.ndarray):
    """Great-circle march inside one cell to the boundary.

    Returns (arc_length, exit_point, exit_edge_or_vertex) where the exit is
    ('vertex', v) or ('edge', (a, b)).
    """
    import numpy as np
    frame = cell_frame(c, cell)
    normals = _face_normals(frame, cell)
    best_t = None
    for opp, n in normals.items():
        fn = float(np.dot(p, n))
        gn = float(np.dot(d, n))
        # wall coordinate along the arc: f(t) = fn*cos t + gn*sin t;
        # t = atan2(fn, -gn) is its first outward zero crossing
        t = math.atan2(fn, -gn)
        while t <= 1e-12:
            t += math.pi
        if best_t is None or t < best_t[0]:
            best_t = (t, opp)
    t, opp = best_t
    exitp = p * math.cos(t) + d * math.sin(t)
    verts = sorted(cell)
    for v in verts:
        if np.linalg.norm(exitp - frame[v]) < 1e-7:
            return t, exitp, ("vertex", v)
    a, b = [v for v in verts if v != opp]
    return t, exitp, ("edge", (a, b))


def _transfer(c: MetricComplex, cell_from, cell_to, shared: tuple[int, int],
              p: np.ndarray, d: np.ndarray):
    """Re-express point/direction across a shared edge in the next cell's frame."""
    import numpy as np
    fa = cell_frame(c, cell_from)
    fb = cell_frame(c, cell_to)
    a, b = shared
    # orthonormal basis adapted to the shared edge, on each side
    def basis(frame, other):
        e0 = frame[a]
        e1 = _unit_tangent(frame[a], frame[b])
        n = np.cross(e0, e1)
        if np.dot(n, frame[other] - np.dot(frame[other], e0) * e0) < 0:
            n = -n
        return np.stack([e0, e1, n])
    oa = next(v for v in cell_from if v not in shared)
    ob = next(v for v in cell_to if v not in shared)
    Ba = basis(fa, oa)
    Bb = basis(fb, ob)
    # map side of cell_from to the OPPOSITE side in cell_to: flip the normal
    F = np.diag([1.0, 1.0, -1.0])
    M = Bb.T @ F @ Ba
    return M @ p, M @ d


def _incoming_link_point(c: MetricComplex, v: int, cell, back_dir: np.ndarray,
                         g: MetricGraph, loc: dict[int, int]) -> GraphPoint:
    """Locate the direction back_dir (a tangent at v inside cell) in lk(v)."""
    frame = cell_frame(c, cell)
    others = [w for w in cell if w != v]
    a, b = others
    ta = _unit_tangent(frame[v], frame[a])
    tb = _unit_tangent(frame[v], frame[b])
    th_a = _angle_between(back_dir, ta)
    th_b = _angle_between(back_dir, tb)
    if th_a < 1e-9:
        return GraphPoint(vertex=loc[a])
    if th_b < 1e-9:
        return GraphPoint(vertex=loc[b])
    eid = _link_edge_id(g, loc[a], loc[b])
    u_loc = g.edges[eid][0]
    off = th_a if u_loc == loc[a] else th_b
    exact = Angle.from_radians(off)
    return GraphPoint(edge=eid, t=exact.pi_units if exact.is_exact else off / math.pi)


def extend_geodesic(c: MetricComplex, geo: LocalGeodesic, target_length: float,
                    branch_budget: int = BRANCH_BUDGET) -> tuple[list[LocalGeodesic], bool]:
    """All continuations of a geodesic to target_length (<= pi), and whether
    the branch budget ran out before every branch was followed.

    Branches at vertices over the antipode set of the incoming direction in
    the vertex link; crossing an edge interior branches over the other cells
    on that edge (unique when the edge is thin).  Dead ends (empty antipode
    set) are returned marked.
    """
    import numpy as np
    if c.geometry != "spherical" or c.dimension > 2:
        raise GeodesicError("geodesic extension implemented for spherical n <= 2")
    c.require_valid()
    done: list[LocalGeodesic] = []
    state = _resume_state(c, geo)
    stack = [(list(geo.segments), geo.length, state)]
    budget = branch_budget
    truncated = False
    while stack:
        segs, ln, st = stack.pop()
        if ln >= target_length - 1e-12 or st.kind == "done":
            done.append(LocalGeodesic(c, segs, geo.start_vertex,
                                      end_vertex=st.vertex, dead_end=False))
            continue
        if st.kind in ("vertex", "edge_launch"):
            nxt = _vertex_continuations(c, st, target_length - ln)
            if not nxt:
                done.append(LocalGeodesic(c, segs, geo.start_vertex,
                                          end_vertex=st.vertex, dead_end=True))
                continue
            for addseg, nst in reversed(nxt):
                if budget <= 0:
                    truncated = True
                    break
                budget -= 1
                stack.append((segs + addseg, ln + sum(s.length for s in addseg), nst))
            continue
        # face marching
        p = np.array(st.point)
        d = np.array(st.direction)
        t, exitp, exit_kind = _march_face(c, st.cell, p, d)
        t = min(t, target_length - ln)
        seg = FaceSegment(st.cell, p, d, t)
        if ln + t >= target_length - 1e-12:
            endv = None
            if exit_kind[0] == "vertex" and abs(ln + t - target_length) <= 1e-9:
                endv = exit_kind[1]
            done.append(LocalGeodesic(c, segs + [seg], geo.start_vertex, end_vertex=endv))
            continue
        if exit_kind[0] == "vertex":
            v = exit_kind[1]
            g, _, loc = _link_graph(c, v)
            back = -(p * (-math.sin(t)) + d * math.cos(t))
            inc = _incoming_link_point(c, v, st.cell, back, g, loc)
            stack.append((segs + [seg], ln + t,
                          _State(kind="vertex", vertex=v, incoming=inc)))
        else:
            a, b = exit_kind[1]
            newd = p * (-math.sin(t)) + d * math.cos(t)
            others = [cl for cl in c.cofaces[(min(a, b), max(a, b))]
                      if cl != st.cell]
            for cl in others:
                if budget <= 0:
                    truncated = True
                    break
                budget -= 1
                np_, nd = _transfer(c, st.cell, cl, (a, b), exitp, newd)
                stack.append((segs + [seg], ln + t,
                              _State(kind="face", cell=cl, point=tuple(np_),
                                     direction=tuple(nd))))
    return done, truncated


def _resume_state(c, geo: LocalGeodesic) -> _State:
    import numpy as np
    if not geo.segments:
        raise GeodesicError("cannot resume an empty geodesic; use shoot()")
    last = geo.segments[-1]
    if isinstance(last, EdgeSegment):
        _, _, loc = _link_graph(c, last.v)
        return _State(kind="vertex", vertex=last.v,
                      incoming=GraphPoint(vertex=loc[last.u]))
    p = np.array(last.start)
    d = np.array(last.direction)
    t = last.length
    return _State(kind="face", cell=last.cell,
                  point=tuple(p * math.cos(t) + d * math.sin(t)),
                  direction=tuple(p * (-math.sin(t)) + d * math.cos(t)))


def _vertex_continuations(c, st: _State, remaining: float):
    """Continuations out of a vertex: antipodes of the incoming direction.

    In a 1-complex the vertex link is a discrete set with pairwise distances
    pi, so every direction other than the incoming one continues the local
    geodesic.
    """
    v = st.vertex
    g, amb, loc = _link_graph(c, v)
    if st.kind == "edge_launch":
        targets = [GraphPoint(vertex=loc[st.cell[1]])]
    elif c.dimension == 1:
        inc = st.incoming.vertex if st.incoming is not None else None
        targets = [GraphPoint(vertex=k) for k in amb if k != inc]
        if not targets:
            return []
    else:
        ants = g.antipode_set(st.incoming)
        if not ants.nonempty or not ants.discrete:
            return []
        targets = list(ants.points)
    out = []
    for tp in targets:
        if tp.is_vertex:
            w = amb[tp.vertex]
            e = (min(v, w), max(v, w))
            ln = c.edge_length(*e).radians
            seg = EdgeSegment(v, w, ln)
            locq = _link_graph(c, w)[2]
            nst = _State(kind="vertex", vertex=w,
                         incoming=GraphPoint(vertex=locq[v]))
            out.append(([seg], nst))
        else:
            nst = _start_from_vertex(c, v, tp, g, amb)
            out.append(([], nst))
    return out


def shoot(c: MetricComplex, v, link_point: GraphPoint, length: float,
          branch_budget: int = BRANCH_BUDGET) -> tuple[list[LocalGeodesic], bool]:
    """All geodesics of the given length leaving vertex v in one direction,
    and whether the branch budget ran out (see extend_geodesic)."""
    import numpy as np
    vi = c.vertex_index(v)
    g, amb, _ = _link_graph(c, vi)
    st = _start_from_vertex(c, vi, link_point, g, amb)
    if st.kind == "face":
        stack_geo = LocalGeodesic(c, [FaceSegment(st.cell, np.array(st.point),
                                                  np.array(st.direction), 0.0)], vi)
        return extend_geodesic(c, stack_geo, length, branch_budget)
    # launch along an edge
    w = st.cell[1]
    e = (min(vi, w), max(vi, w))
    seg = EdgeSegment(vi, w, c.edge_length(*e).radians)
    return extend_geodesic(c, LocalGeodesic(c, [seg], vi), length, branch_budget)


# -- apartments through a sector fan --------------------------------------------


class ApartmentSurface:
    def __init__(self, cells: tuple[tuple, ...], vertices: tuple[int, ...], euler: int,
                 antipode_of_base: int):
        self.cells = cells
        self.vertices = vertices
        self.euler = euler
        self.antipode_of_base = antipode_of_base


class PropagationFailure:
    def __init__(self, reason: str, witness: dict, exhausted: bool = False):
        self.reason = reason
        self.witness = witness
        self.exhausted = exhausted      # the hull search was cut off: undecided


def _sector_fan(c: MetricComplex, x, link_cycle: Sequence) -> tuple[int, list, list]:
    """(x, cycle, fan): vertex indices and the wedge cells at x spanned by
    consecutive cycle entries, in cycle order."""
    if c.dimension != 2 or c.geometry != "spherical":
        raise GeodesicError("apartment propagation implemented for spherical n = 2")
    xi = c.vertex_index(x)
    cyc = [c.vertex_index(v) for v in link_cycle]
    return xi, cyc, [tuple(sorted((xi, a, b))) for a, b in zip(cyc, cyc[1:] + cyc[:1])]


def _through_fan(cert: BuildingCertificate, fan) -> list[Apartment]:
    return sorted((a for a in cert.apartments if set(fan) <= set(a.cells)),
                  key=Apartment.key)


def propagate_apartment(c: MetricComplex, x, link_cycle: Sequence, y=None,
                        budget: int = B_APT_DEFAULT):
    """The apartment spanned by the geodesics from x across a link circle.

    ``link_cycle`` is the vertex sequence (ambient names or indices) of a
    cycle of total length 2*pi in lk(x); consecutive entries span the wedge
    cells at x.  The result is the first apartment of ``check_spherical``
    (in ``Apartment.key`` order) that contains every wedge and, when y is
    given, holds y as the antipode of x.  A complex that ``check_spherical``
    diagnoses fails with that diagnosis; a failure after a hull search that
    ran out of ``budget`` is marked ``exhausted``.
    """
    xi, cyc, fan = _sector_fan(c, x, link_cycle)
    c.require_valid()
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise GeodesicError("link cycle must be a simple cycle of length >= 3")
    for cell in fan:
        if cell not in c.cofaces:     # pure and valid: a triangle is a top cell
            a, b = (c.vertices[v] for v in cell if v != xi)
            raise GeodesicError(f"({c.vertices[xi]},{a},{b}) is not a cell")
    total = sum(_vertex_angle(c, xi, *(v for v in cell if v != xi)).pi_units
                for cell in fan)
    if cmp_units(total, 2) != 0:
        return PropagationFailure("link cycle does not have length 2*pi",
                                  {"length_pi_units": float(total)})
    cert = check_spherical(c, budget)
    if isinstance(cert, Diagnosis):
        return PropagationFailure("not a spherical building", {
            "base": c.vertices[xi], "diagnosis": cert.to_json()})
    through = _through_fan(cert, fan)
    yi = None if y is None else c.vertex_index(y)
    holding_y = [a for a in through if yi is None or yi in a.vertices]
    model = coxeter_complex(cert.coxeter_matrix) if holding_y else None
    walks = []
    for apt in holding_y:
        walks.append(_model_walk(c, cert.vertex_types, apt.cells, model)[1:])
        anti = _model_antipode(model, walks[-1][0], xi)
        if yi is None or anti == yi:
            return ApartmentSurface(apt.cells, apt.vertices, 2, anti)
    if not cert.apartments_exhaustive:
        return PropagationFailure("apartment budget exceeded before an apartment qualified",
                                  {"base": c.vertices[xi], "budget": budget}, exhausted=True)
    if holding_y:
        return PropagationFailure("prescribed endpoint is not antipodal to the base", {
            "y": c.vertices[yi],
            "distance": _model_distance(model, *walks[0], xi, yi)})
    if through:
        return PropagationFailure("prescribed endpoint is in no apartment through the fan",
                                  {"y": c.vertices[yi]})
    return PropagationFailure("no apartment contains the sector fan", {"base": c.vertices[xi]})


def propagate_all(c: MetricComplex, x, link_cycle: Sequence,
                  budget: int = B_APT_DEFAULT) -> tuple[list[Apartment], bool]:
    """The apartments of ``check_spherical(c, budget)`` that contain every
    wedge cell of the link cycle's sector fan, in ``Apartment.key`` order,
    and whether the hull search was cut off; ``([], False)`` when
    ``check_spherical`` diagnoses c."""
    _, _, fan = _sector_fan(c, x, link_cycle)
    cert = check_spherical(c, budget)
    if isinstance(cert, Diagnosis):
        return [], False
    return _through_fan(cert, fan), not cert.apartments_exhaustive


def _model_antipode(model: CoxeterComplexModel, image: dict, x: int) -> int:
    """The antipode of x in a hull walked onto the model (``_model_walk``).
    Chamber w is opposite chamber w*w0, the word reached from w along the
    right-multiplication table by w0's letters, so the chambers opposite
    those through x are the star of x's antipode, their one common vertex."""
    elems = model.elements
    common = None
    for k, g in enumerate(elems):
        if x in image[g.word]:
            for s in elems[-1].word:
                k = elems[k].right[s]
            opposite = set(image[elems[k].word])
            common = opposite if common is None else common & opposite
    (antipode,) = common
    return antipode


def _model_distance(model: CoxeterComplexModel, image: dict, back: dict, x: int, y: int
                    ) -> float:
    """d(x, y) in a hull walked onto the model, in radians.  The type-i
    vertex of model chamber g is g p_i, where p_i is column i of B^-1 for the
    cosine form B, in simple-root coordinates, and B(p_i, alpha_k) is 1 when
    k = i and 0 otherwise.  With x = g p_i and y = h p_j, u = g^-1 h p_j
    (each letter t a reflection, which changes only u_t, by -2 B(u, alpha_t))
    gives cos d = B(p_i, u) / (|p_i| |p_j|) = u_i / sqrt(B^-1_ii B^-1_jj)."""
    from .linalg import inverse
    B = cosine_form(model.system)
    inv = inverse(B)
    g, h = (next(w for w, cell in image.items() if v in cell) for v in (x, y))
    i, j = (model.vertex_types[back[v]] for v in (x, y))
    u = [row[j] for row in inv]
    for t in (*reversed(h), *g):
        u[t] -= 2.0 * sum([a * b for a, b in zip(u, B[t])])
    return math.acos(min(max(u[i] / math.sqrt(inv[i][i] * inv[j][j]), -1.0), 1.0))
