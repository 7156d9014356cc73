"""Local geodesics and apartments through sector fans in spherical complexes, n <= 2.

Within a 2-cell a geodesic is a great-circle arc of the cell's isometric
model on the round sphere (the rows of the Cholesky factor of its Gram
matrix, 3-tuples of floats); crossing an edge interior develops the two
incident cells flat; at a vertex the continuations are exactly the
antipodes of the incoming direction in the vertex link, which is a metric
graph and therefore exactly computable.  A geodesic is cut at the length
asked for, inside a face or along an edge.  The apartments through the
sector fan of a 2*pi link cycle at x are those of the recognizer's
apartment system, the convex hulls of opposite chambers (every apartment
of a spherical building is one), that contain every wedge of the fan; they
come in ``Apartment.key`` order.  The 2*pi test sums the fan's corner angles
exactly, or within tolerance when one is a float (``cmp_units``).  Each
candidate apartment is walked onto the model Coxeter group
(``_model_walk``), which labels its chambers by group elements: x's antipode
and the distance in a "not antipodal" witness are read off the model, with
no coordinates.  The cells across an edge and the test that a wedge is a
cell read the complex's incidence index (``MetricComplex._incidence``).
"""

from __future__ import annotations

import math
from typing import Sequence

from .angles import Angle, cmp_units
from .complexes import MetricComplex, _vertex_angle, vertex_link
from .coxeter import CoxeterGroupModel, cosine_form, coxeter_group
from .linalg import cholesky
from .metric_graph import GraphPoint, MetricGraph
from .recognizer import (B_APT_DEFAULT, Apartment, BuildingCertificate, Diagnosis,
                         _model_walk, _typed_chambers, check_spherical)

BRANCH_BUDGET = 64


class GeodesicError(ValueError):
    pass


# -- vectors of R^3 and cell frames ------------------------------------------

Vec = tuple[float, float, float]


def _dot(u: Vec, v: Vec) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _comb(a: float, u: Vec, b: float, v: Vec) -> Vec:
    """a*u + b*v."""
    return (a * u[0] + b * v[0], a * u[1] + b * v[1], a * u[2] + b * v[2])


def _unit(u: Vec) -> Vec:
    n = math.sqrt(_dot(u, u))
    return (u[0] / n, u[1] / n, u[2] / n)


def _unit_normal(u: Vec, v: Vec, side: Vec) -> Vec:
    """The unit normal to u and v on the side of ``side``."""
    n = _unit((u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
               u[0] * v[1] - u[1] * v[0]))
    return n if _dot(n, side) >= 0 else (-n[0], -n[1], -n[2])


def cell_frame(c: MetricComplex, cell) -> dict[int, Vec]:
    """Unit-vector positions of a spherical 2-cell's vertices (own model
    copy): the rows of the Cholesky factor of its Gram matrix, which is
    positive definite in a valid complex."""
    t = tuple(sorted(cell))
    L = cholesky(c.gram(t))
    return {v: tuple(L[i]) for i, v in enumerate(t)}


class FaceSegment:
    def __init__(self, cell: tuple, start: Vec, direction: Vec, length: float):
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

    def __init__(self, kind: str, cell: tuple | None = None, point: Vec | None = None,
                 direction: Vec | None = None, vertex: int | None = None,
                 incoming: GraphPoint | None = None):
        self.kind = kind                # face | vertex | done
        self.cell = cell
        self.point = point              # unit vector (face kind)
        self.direction = direction
        self.vertex = vertex            # vertex kind: arrived here; done: the end or None
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
    """Launch state for a geodesic leaving vertex v into a 2-cell, in the
    direction of a point inside a link edge."""
    u_loc, w_loc, _ = g.edges[link_point.edge]
    a, b = amb[u_loc], amb[w_loc]
    cell = tuple(sorted((v, a, b)))
    frame = cell_frame(c, cell)
    ta = _unit_tangent(frame[v], frame[a])
    tb = _unit_tangent(frame[v], frame[b])
    alpha = _angle_between(ta, tb)
    s = float(link_point.t) * math.pi
    return _State(kind="face", cell=cell, point=frame[v],
                  direction=_unit(_comb(math.sin(alpha - s), ta, math.sin(s), tb)))


def _unit_tangent(p: Vec, q: Vec) -> Vec:
    """The unit tangent at p of the great circle from p to q."""
    return _unit(_comb(1.0, q, -_dot(q, p), p))


def _angle_between(u: Vec, v: Vec) -> float:
    return math.acos(max(-1.0, min(1.0, _dot(u, v))))


def _march_face(c: MetricComplex, cell, p: Vec, d: Vec):
    """Great-circle march inside one cell to the boundary.

    Returns (arc_length, exit_point, exit_edge_or_vertex) where the exit is
    ('vertex', v) or ('edge', (a, b)).
    """
    frame = cell_frame(c, cell)
    verts = sorted(cell)
    best_t = None
    for opp in verts:
        # the wall opposite opp, with inward unit normal n: its coordinate
        # along the arc is f(t) = fn*cos t + gn*sin t, and
        # t = atan2(fn, -gn) is its first outward zero crossing
        a, b = (v for v in verts if v != opp)
        n = _unit_normal(frame[a], frame[b], frame[opp])
        t = math.atan2(_dot(p, n), -_dot(d, n))
        while t <= 1e-12:
            t += math.pi
        if best_t is None or t < best_t[0]:
            best_t = (t, opp)
    t, opp = best_t
    exitp = _comb(math.cos(t), p, math.sin(t), d)
    for v in verts:
        if math.dist(exitp, frame[v]) < 1e-7:
            return t, exitp, ("vertex", v)
    return t, exitp, ("edge", tuple(v for v in verts if v != opp))


def _transfer(c: MetricComplex, cell_from, cell_to, shared: tuple[int, int],
              p: Vec, d: Vec) -> tuple[Vec, Vec]:
    """Re-express point/direction across a shared edge in the next cell's
    frame.  Each side has the orthonormal basis (a, the tangent at a toward
    b, the normal toward the cell's third vertex); the two cells lie on
    opposite sides of the edge, so the coordinates carry over with the
    normal one negated."""
    a, b = shared

    def basis(cell):
        frame = cell_frame(c, cell)
        e1 = _unit_tangent(frame[a], frame[b])
        other = next(v for v in cell if v not in shared)
        return frame[a], e1, _unit_normal(frame[a], e1, frame[other])

    (a0, a1, a2), (b0, b1, b2) = basis(cell_from), basis(cell_to)

    def move(x: Vec) -> Vec:
        return _comb(1.0, _comb(_dot(a0, x), b0, _dot(a1, x), b1), -_dot(a2, x), b2)

    return move(p), move(d)


def _incoming_link_point(c: MetricComplex, v: int, cell, back_dir: Vec,
                         g: MetricGraph, loc: dict[int, int]) -> GraphPoint:
    """Locate the direction back_dir (a tangent at v inside cell) in lk(v)."""
    frame = cell_frame(c, cell)
    a, b = (w for w in cell if w != v)
    ta = _unit_tangent(frame[v], frame[a])
    tb = _unit_tangent(frame[v], frame[b])
    th_a = _angle_between(back_dir, ta)
    th_b = _angle_between(back_dir, tb)
    if th_a < 1e-9:
        return GraphPoint(vertex=loc[a])
    if th_b < 1e-9:
        return GraphPoint(vertex=loc[b])
    eid = _link_edge_id(g, loc[a], loc[b])
    off = th_a if g.edges[eid][0] == loc[a] else th_b
    exact = Angle.from_radians(off)
    return GraphPoint(edge=eid, t=exact.pi_units if exact.is_exact else off / math.pi)


def _require_shootable(c: MetricComplex) -> None:
    if c.geometry != "spherical" or c.dimension > 2:
        raise GeodesicError("geodesic extension implemented for spherical n <= 2")
    c.require_valid()


def extend_geodesic(c: MetricComplex, geo: LocalGeodesic, target_length: float,
                    branch_budget: int = BRANCH_BUDGET) -> tuple[list[LocalGeodesic], bool]:
    """All continuations of a geodesic to target_length, and whether the
    branch budget ran out before every branch was followed.

    Branches at vertices over the antipode set of the incoming direction in
    the vertex link; crossing an edge interior branches over the other cells
    on that edge (unique when the edge is thin).  Dead ends (empty antipode
    set) are returned marked.  Each continuation is cut at target_length and
    ends at a vertex (``end_vertex``) only when its last face arc or edge
    run reaches one within 1e-9 rad of the cut.
    """
    _require_shootable(c)
    if not geo.segments:
        raise GeodesicError("cannot resume an empty geodesic; use shoot()")
    *segs, last = geo.segments
    if isinstance(last, EdgeSegment):
        # run the edge again, so that a run cut short of its far vertex goes on
        (last,), st = _edge_run(c, last.u, last.v, max(
            target_length - sum(s.length for s in segs), last.length))
    else:
        p, d, t = last.start, last.direction, last.length
        st = _State(kind="face", cell=last.cell, point=_comb(math.cos(t), p, math.sin(t), d),
                    direction=_comb(-math.sin(t), p, math.cos(t), d))
    return _extend(c, geo.start_vertex, [*segs, last], st, target_length, branch_budget)


def _extend(c: MetricComplex, start: int, segments: list, state: _State,
            target_length: float, budget: int) -> tuple[list[LocalGeodesic], bool]:
    """``extend_geodesic`` from a geodesic's segments and tip state."""
    done: list[LocalGeodesic] = []
    stack = [(segments, sum(s.length for s in segments), state)]
    truncated = False
    while stack:
        segs, ln, st = stack.pop()
        if ln >= target_length - 1e-12 or st.kind == "done":
            done.append(LocalGeodesic(c, segs, start, end_vertex=st.vertex, dead_end=False))
            continue
        if st.kind == "vertex":
            nxt = _vertex_continuations(c, st, target_length - ln)
            if not nxt:
                done.append(LocalGeodesic(c, segs, start, end_vertex=st.vertex, dead_end=True))
                continue
            for addseg, nst in reversed(nxt):
                if budget <= 0:
                    truncated = True
                    break
                budget -= 1
                stack.append((segs + addseg, ln + sum(s.length for s in addseg), nst))
            continue
        # face marching
        p, d = st.point, st.direction
        t_exit, exitp, exit_kind = _march_face(c, st.cell, p, d)
        t = min(t_exit, target_length - ln)
        seg = FaceSegment(st.cell, p, d, t)
        if ln + t >= target_length - 1e-12:
            at_exit = exit_kind[0] == "vertex" and t_exit - t <= 1e-9
            done.append(LocalGeodesic(c, segs + [seg], start,
                                      end_vertex=exit_kind[1] if at_exit else None))
            continue
        if exit_kind[0] == "vertex":
            v = exit_kind[1]
            g, _, loc = _link_graph(c, v)
            back = _comb(math.sin(t), p, -math.cos(t), d)
            inc = _incoming_link_point(c, v, st.cell, back, g, loc)
            stack.append((segs + [seg], ln + t,
                          _State(kind="vertex", vertex=v, incoming=inc)))
        else:
            a, b = exit_kind[1]
            newd = _comb(-math.sin(t), p, math.cos(t), d)
            cells = c.top_cells
            others = [cells[k] for k in c._incidence[1][(min(a, b), max(a, b))]
                      if cells[k] != st.cell]
            for cl in others:
                if budget <= 0:
                    truncated = True
                    break
                budget -= 1
                np_, nd = _transfer(c, st.cell, cl, (a, b), exitp, newd)
                stack.append((segs + [seg], ln + t,
                              _State(kind="face", cell=cl, point=np_, direction=nd)))
    return done, truncated


def _edge_run(c: MetricComplex, v: int, w: int, remaining: float
              ) -> tuple[list[EdgeSegment], _State]:
    """([segment], state) of the run from vertex v along the edge vw, cut at
    ``remaining``: a whole edge arrives at w, and a cut one is done, at w
    only when the cut is within 1e-9 rad of it."""
    ln = c.edge_length(v, w).radians
    if ln <= remaining:
        return [EdgeSegment(v, w, ln)], _State(
            kind="vertex", vertex=w, incoming=GraphPoint(vertex=_link_graph(c, w)[2][v]))
    return [EdgeSegment(v, w, remaining)], _State(
        kind="done", vertex=w if ln - remaining <= 1e-9 else None)


def _vertex_continuations(c, st: _State, remaining: float):
    """Continuations out of a vertex: antipodes of the incoming direction,
    edge runs cut at ``remaining``.

    In a 1-complex the vertex link is a discrete set with pairwise distances
    pi, so every direction other than the incoming one continues the local
    geodesic.
    """
    v = st.vertex
    g, amb, loc = _link_graph(c, v)
    if c.dimension == 1:
        targets = [GraphPoint(vertex=k) for k in amb if k != st.incoming.vertex]
    else:
        ants = g.antipode_set(st.incoming)
        if not ants.nonempty or not ants.discrete:
            return []
        targets = list(ants.points)
    return [_edge_run(c, v, amb[tp.vertex], remaining) if tp.is_vertex
            else ([], _start_from_vertex(c, v, tp, g, amb)) for tp in targets]


def shoot(c: MetricComplex, v, link_point: GraphPoint, length: float,
          branch_budget: int = BRANCH_BUDGET) -> tuple[list[LocalGeodesic], bool]:
    """All geodesics of the given length leaving vertex v in one direction,
    and whether the branch budget ran out (see extend_geodesic)."""
    _require_shootable(c)
    vi = c.vertex_index(v)
    g, amb, _ = _link_graph(c, vi)
    if link_point.is_vertex:
        return _extend(c, vi, *_edge_run(c, vi, amb[link_point.vertex], length), length,
                       branch_budget)
    st = _start_from_vertex(c, vi, link_point, g, amb)
    return _extend(c, vi, [], st, length, branch_budget)


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
    consecutive cycle entries, in cycle order.  A cycle through x itself
    lies in no link of x."""
    if c.dimension != 2 or c.geometry != "spherical":
        raise GeodesicError("apartment propagation implemented for spherical n = 2")
    xi = c.vertex_index(x)
    cyc = [c.vertex_index(v) for v in link_cycle]
    if xi in cyc:
        raise GeodesicError(f"link cycle {[c.vertices[v] for v in cyc]} holds the base "
                            f"vertex {c.vertices[xi]}")
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
        if cell not in c._incidence[0][xi]:     # the top cells through x
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
    if holding_y:
        model = coxeter_group(cert.coxeter_matrix)
        typed = _typed_chambers(c, cert.vertex_types)
        index = {t: k for k, t in enumerate(c.top_cells)}
    walks = []
    for apt in holding_y:
        hull = sum(1 << index[t] for t in apt.cells)
        # a combinatorial walk: the check compared every edge length with
        # the model's before it searched a hull (B0)
        walks.append(_model_walk(typed, hull, model)[1:])
        anti = _model_antipode(c, model, walks[-1][0], xi)
        if yi is None or anti == yi:
            return ApartmentSurface(apt.cells, apt.vertices, 2, anti)
    if not cert.apartments_exhaustive:
        return PropagationFailure("apartment budget exceeded before an apartment qualified",
                                  {"base": c.vertices[xi], "budget": budget}, exhausted=True)
    if holding_y:
        return PropagationFailure("prescribed endpoint is not antipodal to the base", {
            "y": c.vertices[yi],
            "distance": _model_distance(c, model, *walks[0], xi, yi)})
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


def _model_antipode(c: MetricComplex, model: CoxeterGroupModel, image: list, x: int) -> int:
    """The antipode of x in a hull of c walked onto the model
    (``_model_walk``).  Chamber w is opposite chamber w*w0, the element
    reached from w along the right-multiplication table by w0's letters, so
    the chambers opposite those through x are the star of x's antipode,
    their one common vertex."""
    elems, chambers = model.elements, c.top_cells
    common = None
    for k, C in enumerate(image):
        if x in chambers[C]:
            for s in elems[-1].word:
                k = elems[k].right[s]
            opposite = set(chambers[image[k]])
            common = opposite if common is None else common & opposite
    (antipode,) = common
    return antipode


def _model_distance(c: MetricComplex, model: CoxeterGroupModel, image: list, back: dict,
                    x: int, y: int) -> float:
    """d(x, y) in a hull of c walked onto the model, in radians.  The type-i
    vertex of model chamber g is g p_i, where p_i is column i of B^-1 for the
    cosine form B, in simple-root coordinates, and B(p_i, alpha_k) is 1 when
    k = i and 0 otherwise.  With x = g p_i and y = h p_j, u = g^-1 h p_j
    (each letter t a reflection, which changes only u_t, by -2 B(u, alpha_t))
    gives cos d = B(p_i, u) / (|p_i| |p_j|) = u_i / sqrt(B^-1_ii B^-1_jj)."""
    from .linalg import inverse
    B = cosine_form(model.system)
    inv = inverse(B)
    g, h = (next(model.elements[e].word for e, C in enumerate(image) if v in c.top_cells[C])
            for v in (x, y))
    i, j = (model.vertex_types[back[v]] for v in (x, y))
    u = [row[j] for row in inv]
    for t in (*reversed(h), *g):
        u[t] -= 2.0 * sum([a * b for a, b in zip(u, B[t])])
    return math.acos(min(max(u[i] / math.sqrt(inv[i][i] * inv[j][j]), -1.0), 1.0))
