"""Local geodesics and apartments through sector fans in spherical complexes, n <= 2.

Within a 2-cell a geodesic is a great-circle arc of the cell's isometric
model on the round sphere; crossing an edge interior develops the two
incident cells flat; at a vertex the continuations are exactly the antipodes
of the incoming direction in the vertex link, which is a metric graph and
therefore exactly computable.  The apartments through the sector fan of a
2*pi link cycle at x are those of the recognizer's apartment system, the
convex hulls of opposite chambers (every apartment of a spherical building
is one), that contain every wedge of the fan; they come in
``Apartment.key`` order, and an antipode is read off the developed
apartment.  The 2*pi test sums the fan's corner angles exactly, or within
tolerance when one is a float (``cmp_units``).

The recognizer loads this module, so numpy is imported inside the functions
that use it: this module is the only numpy user on a check's path, and a
process that runs no geodesic or apartment command never loads numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence

from .angles import Angle, cmp_units
from .complexes import MetricComplex, _vertex_angle, vertex_link
from .metric_graph import GraphPoint, MetricGraph
from .recognizer import (B_APT_DEFAULT, Apartment, BuildingCertificate, Diagnosis,
                         check_spherical)

if TYPE_CHECKING:
    import numpy as np

EPS_HIT = 1e-6
SHOOT_GRID = 720
SHOOT_DEPTH = 40
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


def geodesic_between(c: MetricComplex, p, q, initial_direction: GraphPoint | None = None,
                     grid: int = SHOOT_GRID, branch_budget: int = BRANCH_BUDGET):
    """A geodesic between two vertices of a spherical complex, n <= 2.

    Dimension 1 is exact (shortest path, or prescribed-direction continuation
    between antipodal endpoints).  Dimension 2 shoots over a direction grid
    and reports failure with best-miss data when nothing lands within EPS_HIT,
    flagged ``branch_budget_exceeded`` when a shot ran out of branches.
    """
    c.require_valid()
    pi_ = c.vertex_index(p)
    qi = c.vertex_index(q)
    if c.dimension <= 1:
        return _graph_geodesic(c, pi_, qi, initial_direction)
    g, amb, _ = _link_graph(c, pi_)
    dirs: list[GraphPoint] = [GraphPoint(vertex=k) for k in amb]
    if initial_direction is not None:
        dirs = [initial_direction]
    else:
        total = sum(float(ln) for _, _, ln in g.edges)
        for eid, (_, _, ln) in enumerate(g.edges):
            k = max(1, int(grid * float(ln) / max(total, 1e-9)))
            for i in range(1, k + 1):
                dirs.append(GraphPoint(edge=eid, t=float(ln) * i / (k + 1)))

    exhausted = False

    def try_direction(dp):
        nonlocal exhausted
        miss_best = None
        geos, ran_out = shoot(c, pi_, dp, math.pi, branch_budget)
        exhausted = exhausted or ran_out
        for geo in geos:
            hit = _extract_hit(c, geo, qi)
            if hit is not None:
                return hit, 0.0
            miss = _miss_distance(c, geo, qi)
            if miss is not None and (miss_best is None or miss < miss_best):
                miss_best = miss
        return None, miss_best

    best = None
    for dp in dirs:
        hit, miss = try_direction(dp)
        if hit is not None:
            return hit
        if miss is not None and (best is None or miss < best[0]):
            best = (miss, dp)
    if best is not None and not best[1].is_vertex and initial_direction is None:
        # bisection refinement around the best grid direction
        eid = best[1].edge
        ln = float(g.edges[eid][2])
        step = ln / max(1, int(grid * ln / max(sum(float(l) for _, _, l in g.edges),
                                               1e-9)) + 1)
        lo = max(0.0, float(best[1].t) - step)
        hi = min(ln, float(best[1].t) + step)
        for _ in range(SHOOT_DEPTH):
            improved = False
            for t in ((lo + float(best[1].t)) / 2, (hi + float(best[1].t)) / 2):
                dp = GraphPoint(edge=eid, t=t)
                hit, miss = try_direction(dp)
                if hit is not None:
                    return hit
                if miss is not None and miss < best[0]:
                    best = (miss, dp)
                    improved = True
            mid = float(best[1].t)
            lo = (lo + mid) / 2
            hi = (hi + mid) / 2
            if not improved and hi - lo < 1e-15:
                break
    failure = {"failure": "no geodesic found",
               "best_miss": None if best is None else best[0]}
    if exhausted:
        failure["branch_budget_exceeded"] = True
    return failure


def _extract_hit(c: MetricComplex, geo: LocalGeodesic, qi: int) -> LocalGeodesic | None:
    """The prefix of geo ending at the vertex qi, if the path passes it."""
    import numpy as np
    if geo.start_vertex == qi:
        return None
    prefix: list = []
    for s in geo.segments:
        if isinstance(s, EdgeSegment):
            prefix.append(s)
            if s.v == qi:
                return LocalGeodesic(c, prefix, geo.start_vertex, end_vertex=qi)
            continue
        if qi in s.cell:
            frame = cell_frame(c, s.cell)
            qpos = frame[qi]
            f0 = float(np.dot(s.start, qpos))
            f1 = float(np.dot(s.direction, qpos))
            t = math.atan2(f1, f0)
            if 0.0 <= t <= s.length + 1e-12:
                val = math.acos(max(-1.0, min(1.0, f0 * math.cos(t) + f1 * math.sin(t))))
                if val <= EPS_HIT:
                    prefix.append(FaceSegment(s.cell, s.start, s.direction, t))
                    return LocalGeodesic(c, prefix, geo.start_vertex, end_vertex=qi)
        prefix.append(s)
    if geo.end_vertex == qi:
        return geo
    return None


def _miss_distance(c, geo: LocalGeodesic, qi: int):
    import numpy as np
    best = None
    for s in geo.segments:
        if isinstance(s, EdgeSegment):
            continue
        if qi in s.cell:
            frame = cell_frame(c, s.cell)
            qpos = frame[qi]
            # closest approach of the arc to qpos
            f0 = float(np.dot(s.start, qpos))
            f1 = float(np.dot(s.direction, qpos))
            t = max(0.0, min(s.length, math.atan2(f1, f0)))
            val = math.acos(max(-1.0, min(1.0,
                  f0 * math.cos(t) + f1 * math.sin(t))))
            if best is None or val < best:
                best = val
    return best


def _graph_geodesic(c: MetricComplex, pi_: int, qi: int,
                    initial_direction: GraphPoint | None):
    g = MetricGraph.from_complex(c)
    if initial_direction is None:
        dist, prev = g.vertex_distances(pi_, with_paths=True)
        if qi not in dist:
            return {"failure": "disconnected"}
        path = []
        w = qi
        while w != pi_:
            u, eid = prev[w]
            path.append(EdgeSegment(u, w, float(g.edges[eid][2]) * math.pi))
            w = u
        return LocalGeodesic(c, list(reversed(path)), pi_, end_vertex=qi)
    # prescribed initial direction: first edge, then shortest continuation
    if not initial_direction.is_vertex:
        return {"failure": "dimension-1 directions are link vertices (edges at p)"}
    first = None
    for eid, (u, v, ln) in enumerate(g.edges):
        w = v if u == pi_ else (u if v == pi_ else None)
        if w is not None and w == initial_direction.vertex:
            first = (eid, w, ln)
            break
    if first is None:
        return {"failure": "initial direction is not an edge at p"}
    eid, w, ln = first
    dist = g.vertex_distances(pi_)
    dw, prev = g.vertex_distances(w, with_paths=True)
    if qi not in dw:
        return {"failure": "disconnected"}
    total = ln + dw[qi]
    if cmp_units(total, dist[qi]) != 0:
        return {"failure": "no geodesic from p through that direction reaches q",
                "length_through_direction": float(total) * math.pi}
    path = [EdgeSegment(pi_, w, float(ln) * math.pi)]
    z = qi
    rev = []
    while z != w:
        u, k = prev[z]
        rev.append(EdgeSegment(u, z, float(g.edges[k][2]) * math.pi))
        z = u
    return LocalGeodesic(c, path + list(reversed(rev)), pi_, end_vertex=qi)


# -- apartments through a sector fan --------------------------------------------


class ApartmentSurface:
    def __init__(self, cells: tuple[tuple, ...], vertices: tuple[int, ...], euler: int,
                 antipode_of_base: int | None):
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
    for apt in holding_y:
        anti = _apartment_antipode(c, apt.cells, xi)
        if yi is None or anti == yi:
            return ApartmentSurface(apt.cells, apt.vertices, 2, anti)
    if not cert.apartments_exhaustive:
        return PropagationFailure("apartment budget exceeded before an apartment qualified",
                                  {"base": c.vertices[xi], "budget": budget}, exhausted=True)
    if holding_y:
        return PropagationFailure("prescribed endpoint is not antipodal to the base", {
            "y": c.vertices[yi],
            "distance": _developed_distance(c, holding_y[0].cells, xi, yi)})
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


def develop_apartment(c: MetricComplex, cells, base: int) -> dict[int, np.ndarray]:
    """Spherical coordinates of a thin closed surface, base at the north pole."""
    import numpy as np
    cells = list(cells)
    by_edge: dict[tuple, list] = {}
    for cell in cells:
        for e in itertools.combinations(cell, 2):
            by_edge.setdefault(e, []).append(cell)
    pos: dict[int, np.ndarray] = {}
    start = next(cl for cl in sorted(cells) if base in cl)
    frame = cell_frame(c, start)
    others = [v for v in sorted(start) if v != base]
    a, b = others
    la = c.edge_length(base, a).radians
    pos[base] = np.array([0.0, 0.0, 1.0])
    pos[a] = np.array([math.sin(la), 0.0, math.cos(la)])
    pos[b] = _third_position(pos[base], pos[a],
                             c.edge_length(base, b).radians,
                             c.edge_length(a, b).radians, +1)
    placed = {start}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for e in itertools.combinations(cur, 2):
            for nxt in by_edge[e]:
                if nxt in placed:
                    continue
                w = next(v for v in nxt if v not in e)
                u, v = e
                if u not in pos or v not in pos:
                    continue
                opp = next(z for z in cur if z not in e)
                side = _side_sign(pos[u], pos[v], pos[opp])
                p = _third_position(pos[u], pos[v],
                                    c.edge_length(u, w).radians,
                                    c.edge_length(v, w).radians, -side)
                if w not in pos:
                    pos[w] = p
                placed.add(nxt)
                queue.append(nxt)
    return pos


def _side_sign(p, q, r) -> int:
    import numpy as np
    n = np.cross(p, q)
    return 1 if float(np.dot(n, r)) >= 0 else -1


def _third_position(p, q, dp, dq, sign: int) -> np.ndarray:
    """Unit vector at angular distances dp, dq from p, q, on the given side."""
    import numpy as np
    n = np.cross(p, q)
    nn = float(np.dot(n, n))
    cpq = float(np.dot(p, q))
    A = np.array([[1.0, cpq], [cpq, 1.0]])
    rhs = np.array([math.cos(dp), math.cos(dq)])
    ab = np.linalg.solve(A, rhs)
    base_v = ab[0] * p + ab[1] * q
    rem = 1.0 - float(np.dot(base_v, base_v))
    g = math.sqrt(max(0.0, rem) / nn)
    return base_v + sign * g * n


def _apartment_antipode(c: MetricComplex, cells, base: int) -> int | None:
    import numpy as np
    pos = develop_apartment(c, cells, base)
    for v, p in pos.items():
        if v != base and np.linalg.norm(p + pos[base]) <= 1e-6:
            return v
    return None


def _developed_distance(c: MetricComplex, cells, base: int, v: int) -> float:
    import numpy as np
    pos = develop_apartment(c, cells, base)
    if v not in pos:
        return float("nan")
    return math.acos(max(-1.0, min(1.0, float(np.dot(pos[base], pos[v])))))
