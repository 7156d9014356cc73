"""Exact metric analysis of 1-dimensional complexes.

Lengths live in units of pi (Fraction when exact, float otherwise), so the
decisions that matter downstream -- diameter == pi, systole >= 2*pi -- are
exact equalities on the target corpus.  Point-to-point distances reduce to
vertex Dijkstra plus the four endpoint routes; diameter is the maximum of the
concave lower envelope of those route functions over each edge-pair square,
evaluated exactly at corners and envelope-line crossings.

Kernel units.  Each graph keeps one length table.  When every length is
rational the table holds the lengths times 4L, L the lcm of their
denominators, as ints.  Route constants are then multiples of 4, and every
envelope candidate (a corner, or a crossing of envelope lines with a side or
with each other) is an int, so the kernel is exact without Fraction.  Float
and mixed graphs keep floats.  Dijkstra, all-pairs distances, systole and the
diameter scan run on the table; Fraction values are restored only where they
are returned.

Pruned diameter scan.  LB is the largest vertex-to-vertex distance.  On edges
(u,v) of length a and (x,y) of length b, the route via u..x plus the route via
v..y sum to a + b + d(u,x) + d(v,y) at every point, so their minimum is at
most half of that; likewise for the other opposing pair, and |t - s| <= a
bounds a pair of an edge with itself.  A pair is evaluated only when this
bound ub is at least LB and above the best value so far.  The first pair in
scan order that attains the maximum has ub >= maximum >= LB and a best value
below the maximum, so it is evaluated, and no later pair can exceed it: the
value and the witness are those of the full scan.  Float bounds carry a slack
of EPS_UNITS so that rounding never skips that pair.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable, Sequence

from .angles import EPS_ANGLE, PiUnits, cmp_units
from .complexes import MetricComplex, as_graph_data

INF = math.inf

# pi-unit slack equivalent to EPS_ANGLE radians
EPS_UNITS = EPS_ANGLE / math.pi


@dataclass(frozen=True)
class GraphPoint:
    """A point of the graph: a vertex, or an interior point of an edge."""

    vertex: int | None = None
    edge: int | None = None
    t: PiUnits | None = None

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __str__(self):
        if self.is_vertex:
            return f"v{self.vertex}"
        return f"e{self.edge}:{self.t}"


@dataclass(frozen=True)
class Circle:
    """A circle component produced by suppressing valence-2 vertices."""

    circumference: PiUnits
    vertex_names: tuple[str, ...]


@dataclass(frozen=True)
class AntipodeSet:
    """Superlevel set {d(p, .) >= pi}: isolated points plus fat intervals."""

    points: tuple[GraphPoint, ...]
    intervals: tuple[tuple[int, PiUnits, PiUnits], ...]   # (edge, lo, hi), lo < hi
    nonempty: bool
    discrete: bool


class MetricGraph:
    """Finite metric graph: multi-edges allowed, self-loops not."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[int, int, PiUnits]]):
        names = tuple(vertices)
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex names")
        es = []
        for u, v, ln in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}; subdivide to express it")
            if not (0 <= u < len(names) and 0 <= v < len(names)):
                raise ValueError(f"edge ({u},{v}) out of range")
            if not ln > 0:
                raise ValueError(f"nonpositive edge length {ln}")
            es.append((min(u, v), max(u, v), ln))
        self.vertices = names
        self.edges = tuple(es)

    @staticmethod
    def from_complex(c: MetricComplex) -> "MetricGraph":
        names, edges = as_graph_data(c)
        return MetricGraph(names, edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int, PiUnits], ...]]:
        adj: dict[int, list] = {i: [] for i in range(len(self.vertices))}
        for eid, (u, v, ln) in enumerate(self.edges):
            adj[u].append((v, eid, ln))
            adj[v].append((u, eid, ln))
        return {i: tuple(sorted(lst, key=lambda x: (x[0], x[1]))) for i, lst in adj.items()}

    def valence(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w, _, _ in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # -- points --------------------------------------------------------------

    def point(self, edge: int, t: PiUnits) -> GraphPoint:
        """Canonical point: offsets 0 / length normalize to the endpoint vertex."""
        u, v, ln = self.edges[edge]
        if t < 0 or t > ln:
            raise ValueError(f"offset {t} outside [0, {ln}]")
        if t == 0:
            return GraphPoint(vertex=u)
        if t == ln:
            return GraphPoint(vertex=v)
        return GraphPoint(edge=edge, t=t)

    def point_name(self, p: GraphPoint) -> str:
        if p.is_vertex:
            return self.vertices[p.vertex]
        return f"{p.edge}:{p.t}"

    # -- shortest paths --------------------------------------------------------

    @cached_property
    def _kernel(self):
        """(scale, lengths, adjacency) in kernel units: ints in units of
        pi/scale when every length is rational, else floats and scale None."""
        lengths = [ln for _, _, ln in self.edges]
        if all(isinstance(ln, Rational) for ln in lengths):
            scale = 4 * math.lcm(*(ln.denominator for ln in lengths))
            table = tuple(ln.numerator * (scale // ln.denominator) for ln in lengths)
        else:
            scale = None
            table = tuple(float(ln) for ln in lengths)
        adj = [tuple((w, eid, table[eid]) for w, eid, _ in self.adjacency[u])
               for u in range(len(self.vertices))]
        return scale, table, adj

    def _restore(self, x):
        """A kernel-unit value in pi units: a Fraction on exact graphs."""
        scale = self._kernel[0]
        if scale is None or x == INF:
            return x
        return Fraction(x, scale)

    def _dijkstra(self, source: int, skip_edge: int | None = None):
        """Distances (kernel units) and predecessor (vertex, edge) per vertex."""
        scale, _, adj = self._kernel
        zero = 0 if scale else 0.0
        dist = {source: zero}
        prev: dict[int, tuple[int, int]] = {}
        heap = [(zero, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for w, eid, ln in adj[u]:
                if eid == skip_edge:
                    continue
                nd = d + ln
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    prev[w] = (u, eid)
                    heapq.heappush(heap, (nd, w))
        return dist, prev

    def vertex_distances(self, source: int, skip_edge: int | None = None,
                         with_paths: bool = False):
        """Dijkstra distances from one vertex, Fractions on exact graphs;
        optionally excludes one edge id."""
        dist, prev = self._dijkstra(source, skip_edge)
        dist = {w: self._restore(x) for w, x in dist.items()}
        if with_paths:
            return dist, prev
        return dist

    @cached_property
    def _all_pairs(self) -> list[dict[int, int | float]]:
        """Vertex-to-vertex distances in kernel units."""
        return [self._dijkstra(s)[0] for s in range(len(self.vertices))]

    def d(self, u: int, v: int) -> PiUnits:
        return self._restore(self._all_pairs[u].get(v, INF))

    def _point_sides(self, p: GraphPoint):
        """(vertex, offset) pairs describing p's distance to graph vertices."""
        if p.is_vertex:
            return ((p.vertex, Fraction(0)),)
        u, v, ln = self.edges[p.edge]
        return ((u, p.t), (v, ln - p.t))

    def distance(self, p: GraphPoint, q: GraphPoint) -> PiUnits:
        """Exact shortest-path distance between two points."""
        best = INF
        if (not p.is_vertex and not q.is_vertex and p.edge == q.edge):
            best = abs(p.t - q.t)
        for a, ta in self._point_sides(p):
            for b, tb in self._point_sides(q):
                dd = self.d(a, b)
                if dd is not INF:
                    cand = ta + dd + tb
                    if cand < best:
                        best = cand
        return best

    # -- diameter via envelope analysis ----------------------------------------

    def diameter(self) -> tuple[PiUnits, tuple[GraphPoint, GraphPoint] | None]:
        """Exact sup of distance over all point pairs, with a witness pair."""
        cached = getattr(self, "_diameter", None)
        if cached is not None:
            return cached
        if not self.is_connected():
            self._diameter = (INF, None)
            return self._diameter
        if not self.edges:
            self._diameter = (Fraction(0), None)
            return self._diameter
        scale, w, _ = self._kernel
        ap = self._all_pairs
        # bounds are compared doubled, which keeps them ints on exact graphs
        slack = 0 if scale else 2 * EPS_UNITS
        lb2 = 2 * max(max(row.values()) for row in ap)
        best = -1
        witness = None
        for i, (u, v, _) in enumerate(self.edges):
            a, du, dv = w[i], ap[u], ap[v]
            for j in range(i, len(self.edges)):
                if i == j:
                    ub2 = 2 * a
                else:
                    x, y, _ = self.edges[j]
                    ub2 = a + w[j] + min(du[x] + dv[y], du[y] + dv[x])
                if ub2 + slack < lb2 or ub2 + slack <= 2 * best:
                    continue
                val, ts = self._edge_pair_max(i, j)
                if val > best:
                    best = val
                    witness = (i, j, ts)
        i, j, (t, s) = witness
        self._diameter = (self._restore(best), (self._kernel_point(i, t), self._kernel_point(j, s)))
        return self._diameter

    def _kernel_point(self, eid: int, t) -> GraphPoint:
        """The point at kernel-unit offset t on edge eid.  On a mixed graph the
        float far end stands for the exact length it rounds."""
        if t == self._kernel[1][eid]:
            return self.point(eid, self.edges[eid][2])
        return self.point(eid, self._restore(t))

    def _route_functions(self, i: int, j: int):
        """Linear route functions f(t,s) = al*t + be*s + ga for edges i, j,
        in kernel units."""
        _, w, _ = self._kernel
        ap = self._all_pairs
        u, v, _ = self.edges[i]
        x, y, _ = self.edges[j]
        fns = []
        for (ep, al, t0) in ((u, 1, 0), (v, -1, w[i])):
            for (eq, be, s0) in ((x, 1, 0), (y, -1, w[j])):
                dd = ap[ep].get(eq, INF)
                if dd is not INF:
                    fns.append((al, be, t0 + s0 + dd))
        return fns

    def _edge_pair_max(self, i: int, j: int):
        """Max of the distance envelope over edges i, j and its (t, s)
        offsets, in kernel units."""
        _, w, _ = self._kernel
        a, b = w[i], w[j]
        zero = 0 * a
        fns = self._route_functions(i, j)
        if i == j:
            # direct |t-s| breaks concavity; restrict to the triangle t >= s
            # (the envelope is symmetric under swapping t and s).
            poly = [(zero, zero), (a, zero), (a, a)]
            fns = fns + [(1, -1, zero)]
        else:
            poly = [(zero, zero), (a, zero), (a, b), (zero, b)]
        return _envelope_max(fns, poly)

    # -- systole -----------------------------------------------------------------

    def systole(self) -> tuple[PiUnits, list[int] | None]:
        """Shortest injective cycle: min over edges e of len(e) + d_{G-e}."""
        cached = getattr(self, "_systole", None)
        if cached is not None:
            return cached
        lengths = self._kernel[1]
        best = INF
        cycle = None
        for eid, (u, v, _) in enumerate(self.edges):
            dist, prev = self._dijkstra(u, skip_edge=eid)
            if v not in dist:
                continue
            cand = dist[v] + lengths[eid]
            if cand < best:
                best = cand
                path = []
                w = v
                while w != u:
                    pu, peid = prev[w]
                    path.append(peid)
                    w = pu
                cycle = list(reversed(path)) + [eid]
        self._systole = (self._restore(best), cycle)
        return self._systole

    def cycle_vertices(self, cycle_edges: list[int]) -> list[int]:
        """Vertex sequence of an edge-id cycle, starting at its smallest vertex."""
        e0 = self.edges[cycle_edges[0]]
        prev_e = self.edges[cycle_edges[-1]]
        start = e0[0] if e0[0] in (prev_e[0], prev_e[1]) else e0[1]
        seq = [start]
        cur = start
        for eid in cycle_edges:
            u, v, _ = self.edges[eid]
            cur = v if cur == u else u
            seq.append(cur)
        return seq[:-1]

    def cat1(self) -> tuple[bool, list[int] | None]:
        """CAT(1) for graphs: no closed geodesic shorter than 2*pi."""
        sys, cyc = self.systole()
        if sys is INF:
            return True, None
        ok = cmp_units(sys, Fraction(2)) >= 0
        return ok, (None if ok else cyc)

    # -- antipodes ------------------------------------------------------------------

    def antipode_set(self, p: GraphPoint) -> AntipodeSet:
        """All points at distance >= pi from p, edge by edge."""
        sides = self._point_sides(p)
        verts_near: dict[int, PiUnits] = {}
        for a, ta in sides:
            for w, dw in self._all_pairs[a].items():
                cand = ta + self._restore(dw)
                if cand < verts_near.get(w, INF):
                    verts_near[w] = cand
        points: list[GraphPoint] = []
        fat: list[tuple[int, PiUnits, PiUnits]] = []
        seen_vertices = set()
        one = Fraction(1)
        for eid, (x, y, ln) in enumerate(self.edges):
            dx = verts_near.get(x, INF)
            dy = verts_near.get(y, INF)
            if dx is INF or dy is INF:
                continue
            intervals = [(Fraction(0), ln)]
            intervals = _cut_lower(intervals, slope=+1, off=dx, level=one)
            intervals = _cut_lower(intervals, slope=-1, off=dy + ln, level=one)
            if not p.is_vertex and p.edge == eid:
                direct = []
                if p.t - one >= 0:
                    direct.append((Fraction(0), p.t - one))
                if p.t + one <= ln:
                    direct.append((p.t + one, ln))
                intervals = _intersect_intervals(intervals, direct)
            for lo, hi in intervals:
                if cmp_units(lo, hi) == 0:
                    pt = self.point(eid, lo)
                    if pt.is_vertex:
                        if pt.vertex in seen_vertices:
                            continue
                        seen_vertices.add(pt.vertex)
                    points.append(pt)
                else:
                    fat.append((eid, lo, hi))
        points.sort(key=lambda q: (0, q.vertex, 0) if q.is_vertex else (1, q.edge, q.t))
        return AntipodeSet(tuple(points), tuple(fat),
                           nonempty=bool(points or fat), discrete=not fat)

    def edge_max_distance(self, p: GraphPoint, eid: int) -> PiUnits:
        """Max of d(p, .) over one edge (concave on each side of p)."""
        x, y, ln = self.edges[eid]
        dx = self.distance(p, GraphPoint(vertex=x))
        dy = self.distance(p, GraphPoint(vertex=y))
        base = [(0, 1, dx), (0, -1, dy + ln)]
        if not p.is_vertex and p.edge == eid:
            # the direct term |p.t - s| is linear on each side of p
            pieces = [
                (Fraction(0), p.t, base + [(0, -1, p.t)]),
                (p.t, ln, base + [(0, 1, -p.t)]),
            ]
            best = None
            for lo, hi, fns in pieces:
                val, _ = _envelope_max(fns, [(Fraction(0), lo), (Fraction(0), hi)])
                if best is None or val > best:
                    best = val
            return best
        val, _ = _envelope_max(base, [(Fraction(0), Fraction(0)), (Fraction(0), ln)])
        return val

    # -- valence-2 suppression ----------------------------------------------------

    def suppress_degree2(self) -> "MetricGraph | Circle":
        """Remove valence-2 vertices, concatenating their edges.

        A connected graph in which every vertex has valence 2 is returned as
        the distinguished Circle value; a suppression step that would create a
        self-loop keeps its vertex in place.
        """
        if self.vertices and self.is_connected() and \
                all(self.valence(v) == 2 for v in range(len(self.vertices))):
            total = sum((ln for _, _, ln in self.edges), Fraction(0))
            return Circle(total, self.vertices)
        edges = {eid: e for eid, e in enumerate(self.edges)}
        incident: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for eid, (u, v, _) in edges.items():
            incident[u].add(eid)
            incident[v].add(eid)
        next_id = len(self.edges)
        removed: set[int] = set()
        changed = True
        while changed:
            changed = False
            for w in range(len(self.vertices)):
                if w in removed or len(incident[w]) != 2:
                    continue
                e1, e2 = sorted(incident[w])
                if e1 == e2:
                    continue
                a1, b1, l1 = edges[e1]
                a2, b2, l2 = edges[e2]
                u = a1 if b1 == w else b1
                v = a2 if b2 == w else b2
                if u == v:
                    continue   # would form a self-loop; leave this vertex alone
                for eid in (e1, e2):
                    for z in (edges[eid][0], edges[eid][1]):
                        incident[z].discard(eid)
                del edges[e1], edges[e2]
                edges[next_id] = (min(u, v), max(u, v), l1 + l2)
                incident[u].add(next_id)
                incident[v].add(next_id)
                next_id += 1
                removed.add(w)
                changed = True
        if not removed:
            return self
        keep = [i for i in range(len(self.vertices)) if i not in removed]
        remap = {old: new for new, old in enumerate(keep)}
        names = [self.vertices[i] for i in keep]
        out_edges = [(remap[u], remap[v], ln) for _, (u, v, ln) in sorted(edges.items())]
        return MetricGraph(names, out_edges)


# -- interval and envelope helpers ------------------------------------------------


def _cut_lower(intervals, slope: int, off: PiUnits, level: PiUnits):
    """Intersect intervals with {s : slope*s + off >= level}."""
    out = []
    for lo, hi in intervals:
        if slope > 0:
            nlo = level - off
            if nlo > lo:
                lo = nlo
        else:
            nhi = off - level
            if nhi < hi:
                hi = nhi
        if lo <= hi:
            out.append((lo, hi))
    return out


def _intersect_intervals(xs, ys):
    out = []
    for alo, ahi in xs:
        for blo, bhi in ys:
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if lo <= hi:
                out.append((lo, hi))
    return out


def _envelope_max(fns, poly):
    """Maximize min_i(al_i*t + be_i*s + ga_i) over a convex polygon.

    The lower envelope of linear functions is concave, so the maximum is
    attained at a polygon vertex, where a crossing line of two terms meets
    the boundary, or at an interior crossing of two crossing lines.  With
    all gradients in {-1,0,1}^2 an interior maximum requires an opposing
    gradient pair, whose crossing line is diagonal; only intersections of
    two diagonal lines need to be considered inside.  Everything is
    evaluated exactly.
    """
    if len(poly) == 2:
        corners = list(poly)
        sides = [(poly[0], poly[1])]
    else:
        corners = list(poly)
        sides = [(poly[k], poly[(k + 1) % len(poly)]) for k in range(len(poly))]
    candidates = list(corners)
    lines = []
    for (a1, b1, g1), (a2, b2, g2) in itertools.combinations(fns, 2):
        al, be, ga = a1 - a2, b1 - b2, g1 - g2
        if al == 0 and be == 0:
            continue
        lines.append((al, be, ga))
    for al, be, ga in lines:
        for (p0, p1) in sides:
            pt = _line_segment_intersection(al, be, ga, p0, p1)
            if pt is not None:
                candidates.append(pt)
    diagonals = [ln for ln in lines if abs(ln[0]) == abs(ln[1]) != 0]
    for (l1, l2) in itertools.combinations(diagonals, 2):
        pt = _line_line_intersection(l1, l2)
        if pt is not None and _in_polygon(pt, poly):
            candidates.append(pt)
    best = None
    argbest = None
    for (t, s) in candidates:
        val = min(al * t + be * s + ga for al, be, ga in fns)
        if best is None or val > best:
            best = val
            argbest = (t, s)
    return best, argbest


def _line_segment_intersection(al, be, ga, p0, p1):
    """Intersection of {al*t + be*s + ga = 0} with segment p0-p1, or None."""
    (t0, s0), (t1, s1) = p0, p1
    f0 = al * t0 + be * s0 + ga
    f1 = al * t1 + be * s1 + ga
    if f0 == f1:
        return None
    if type(f0) is int and type(f1) is int:
        # kernel units: 0 <= lam <= 1 tested without dividing
        den = f0 - f1
        if not 0 <= f0 * den <= den * den:
            return None
        return (_div(f0 * t1 - f1 * t0, den), _div(f0 * s1 - f1 * s0, den))
    lam = f0 / (f0 - f1)
    if lam < 0 or lam > 1:
        return None
    return (t0 + lam * (t1 - t0), s0 + lam * (s1 - s0))


def _line_line_intersection(l1, l2):
    a1, b1, g1 = l1
    a2, b2, g2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (_div(-g1 * b2 + g2 * b1, det), _div(-a1 * g2 + a2 * g1, det))


def _div(num, den):
    """num / den, kept exact on ints: an int when it divides (always, in
    kernel units), else a Fraction."""
    if type(num) is int:
        q, r = divmod(num, den)
        return q if r == 0 else Fraction(num, den)
    return num / den


def _in_polygon(pt, poly) -> bool:
    if len(poly) == 2:
        (t0, s0), (t1, s1) = poly
        t, s = pt
        cross = (t1 - t0) * (s - s0) - (s1 - s0) * (t - t0)
        if cross != 0:
            return False
        lo_t, hi_t = min(t0, t1), max(t0, t1)
        lo_s, hi_s = min(s0, s1), max(s0, s1)
        return lo_t <= t <= hi_t and lo_s <= s <= hi_s
    t, s = pt
    sign = 0
    for k in range(len(poly)):
        (t0, s0), (t1, s1) = poly[k], poly[(k + 1) % len(poly)]
        cross = (t1 - t0) * (s - s0) - (s1 - s0) * (t - t0)
        if cross == 0:
            continue
        cur = 1 if cross > 0 else -1
        if sign == 0:
            sign = cur
        elif sign != cur:
            return False
    return True
