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
of EPS_UNITS so that rounding never skips that pair.  The scan has no tie
rule: on a float graph a pair tied with the best value can compute one ulp
above it and become the witness, so every tied pair is evaluated.

The diameter = pi gate needs no witness.  ``diameter_cmp(target)`` answers
``cmp_units(diameter, target)`` from the band [lo, hi] of the target
(``kernel_band``: target*scale on both sides on exact graphs) and a rounding
allowance r, the most a computed envelope value may exceed its computed
bound: 0 on ints, EPS_UNITS/2 on floats (observed errors are about 1e-15).
A pair is evaluated only when ub > hi - r, so no pair left out can reach
above hi.  The answer is 0 when no evaluated value lies above hi and either
LB >= lo + r or some evaluated value lies in [lo, hi]; otherwise it is the
full scan's.  At the first value above hi the full scan resumes from that
pair: every pair before it has a value of at most hi, below the diameter,
so none of them is the witness.  Pair values are memoized per graph, so
the fallback after a scan without such a value evaluates no pair twice.

Systole.  Each vertex's shortest-path tree is computed once per graph
(``_trees``).  Its distance rows are the all-pairs distances of the diameter
scan, and the CAT(1) gate reads the girth off the same trees (Itai-Rodeh,
SIAM J. Comput. 1978).  For a source s, the branch of a vertex x is the
child of s on the tree path to x; s is its own branch.  A non-tree edge
(x, y) whose ends lie in different branches closes the cycle s..x, (x, y),
y..s, so its candidate dist(x) + len + dist(y) is a cycle length, at least
the systole.  When the ends lie in one branch, their tree paths meet at a
vertex z other than s, and the edge closes a cycle through z that is
shorter than the candidate by 2 d(s, z) > 0.  So every non-tree edge's
candidate is at least the systole, and ``_girth`` needs no branch test.
Conversely, take a shortest cycle C, of length g, and s on C.  A tree holds
no cycle, so some edge (x, y) of C is a non-tree edge, and d(s, x), d(s, y)
are at most the distances along C: its candidate is at most g (g for the
edge across C from s, at most twice g/2 for another).  So the least
candidate over all sources is the systole, the per-edge minimum of
``systole()``; a tree edge closes no cycle and is skipped.  ``cat1``
decides from it and runs ``systole()`` only below 2*pi.  On floats the
threshold is the band of 2*pi raised by the rounding allowance EPS_UNITS/2,
so that the two summation orders never decide differently.  The witness
cycle still comes from the per-edge scan: that of the first edge e, in id
order, whose len(e) + d_{G-e} attains the minimum.  Each skip-edge search
stops at the pop of e's far end, or at the first pop d with d + len(e) at
least the best cycle so far.  Any cycle it could still close is no shorter,
so it cannot replace the witness.  On an exact graph the girth is that
minimum, exactly: a search also stops once d + len(e) exceeds it, and the
first edge attaining it ends the scan, since a later one could only tie.
Either way the witness is that of the unbounded scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .angles import EPS_ANGLE, Frozen, PiUnits, cmp_units, kernel_band, kernel_units
from .complexes import MetricComplex, as_graph_data

INF = math.inf

# pi-unit slack equivalent to EPS_ANGLE radians
EPS_UNITS = EPS_ANGLE / math.pi


class GraphPoint(Frozen):
    """A point of the graph: a vertex, or an interior point of an edge."""

    __slots__ = ("vertex", "edge", "t")

    def __init__(self, vertex: int | None = None, edge: int | None = None,
                 t: PiUnits | None = None):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "t", t)

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __str__(self):
        if self.is_vertex:
            return f"v{self.vertex}"
        return f"e{self.edge}:{self.t}"


class Circle:
    """A circle component produced by suppressing valence-2 vertices."""

    def __init__(self, circumference: PiUnits, vertex_names: tuple[str, ...]):
        self.circumference = circumference
        self.vertex_names = vertex_names


class AntipodeSet:
    """Superlevel set {d(p, .) >= pi}: isolated points plus fat intervals,
    each (edge, lo, hi) with lo < hi."""

    def __init__(self, points: tuple[GraphPoint, ...],
                 intervals: tuple[tuple[int, PiUnits, PiUnits], ...],
                 nonempty: bool, discrete: bool):
        self.points = points
        self.intervals = intervals
        self.nonempty = nonempty
        self.discrete = discrete


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
        self._set(names, tuple(es))

    def _set(self, vertices: tuple[str, ...], edges: tuple) -> "MetricGraph":
        """Store checked data; ``__init__`` checks its input first, and a
        copy on other vertex names reuses a checked graph's edges."""
        self.vertices = vertices
        self.edges = edges
        return self

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

    @cached_property
    def incident(self) -> list[int]:
        """Per vertex, the bitmask of the ids of the edges at it."""
        masks = [0] * len(self.vertices)
        for eid, (u, v, _) in enumerate(self.edges):
            masks[u] |= 1 << eid
            masks[v] |= 1 << eid
        return masks

    def valence(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """One search per graph: ``suppress_degree2`` asks again."""
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
        scale, table = kernel_units([ln for _, _, ln in self.edges], 4)
        adj = [tuple((w, eid, table[eid]) for w, eid, _ in self.adjacency[u])
               for u in range(len(self.vertices))]
        return scale, table, adj

    def _restore(self, x):
        """A kernel-unit value in pi units: a Fraction on exact graphs."""
        scale = self._kernel[0]
        if scale is None or x == INF:
            return x
        return Fraction(x, scale)

    def _dijkstra(self, source: int, skip_edge: int | None = None,
                  target: int | None = None, best=INF):
        """Distances (kernel units) and predecessor (vertex, edge) per vertex.
        A systole scan passes a target and a bound ``best``: the search stops
        when the target is popped (its distance and path are then final) or
        at the first pop d with d + len(skip_edge) >= best."""
        scale, lengths, adj = self._kernel
        zero = 0 if scale else 0.0
        closing = zero if skip_edge is None else lengths[skip_edge]
        dist = {source: zero}
        prev: dict[int, tuple[int, int]] = {}
        heap = [(zero, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u == target or d + closing >= best:
                break
            for w, eid, ln in adj[u]:
                if eid == skip_edge:
                    continue
                nd = d + ln
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    prev[w] = (u, eid)
                    heapq.heappush(heap, (nd, w))
        return dist, prev

    def vertex_distances(self, source: int):
        """Dijkstra distances from one vertex, Fractions on exact graphs."""
        return {w: self._restore(x) for w, x in self._dijkstra(source)[0].items()}

    @cached_property
    def _trees(self) -> list[tuple[dict, dict]]:
        """``_dijkstra(s)`` for every vertex s: the shortest-path trees that
        the girth and the diameter scan share."""
        return [self._dijkstra(s) for s in range(len(self.vertices))]

    @cached_property
    def _all_pairs(self) -> list[dict[int, int | float]]:
        """Vertex-to-vertex distances in kernel units."""
        return [dist for dist, _ in self._trees]

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

    def diameter(self, resume=None) -> tuple[PiUnits, tuple[GraphPoint, GraphPoint] | None]:
        """Exact sup of distance over all point pairs, with a witness pair.
        ``resume`` continues a scan from ``diameter_cmp``: the rest of its
        ``_pair_bounds`` and the best value and (i, j, (t, s)) witness so far."""
        cached = getattr(self, "_diameter", None)
        if cached is not None:
            return cached
        if not self.is_connected():
            self._diameter = (INF, None)
            return self._diameter
        if not self.edges:
            self._diameter = (Fraction(0), None)
            return self._diameter
        bounds, best, witness = resume or (self._pair_bounds(), -1, None)
        # bounds are compared doubled, which keeps them ints on exact graphs
        slack = 0 if self._kernel[0] else 2 * EPS_UNITS
        lb2 = self._lb2
        for i, j, ub2 in bounds:
            if ub2 + slack < lb2 or ub2 + slack <= 2 * best:
                continue
            val, ts = self._pair_max(i, j)
            if val > best:
                best = val
                witness = (i, j, ts)
        i, j, (t, s) = witness
        self._diameter = (self._restore(best), (self._kernel_point(i, t), self._kernel_point(j, s)))
        return self._diameter

    def diameter_cmp(self, target: Fraction) -> int:
        """``cmp_units(self.diameter()[0], target)`` for an exact target,
        evaluating an edge pair only while its bound leaves the answer open
        (module docstring)."""
        if self.edges and self.is_connected():
            scale = self._kernel[0]
            lo, hi = kernel_band(target, scale)
            r = 0 if scale else EPS_UNITS / 2
            cut2 = 2 * (hi - r)
            settled = self._lb2 >= 2 * (lo + r)
            bounds = self._pair_bounds()
            for i, j, ub2 in bounds:
                if ub2 <= cut2:
                    continue
                val, ts = self._pair_max(i, j)
                if val > hi:
                    return cmp_units(self.diameter((bounds, val, (i, j, ts)))[0], target)
                settled = settled or val >= lo
            if settled:
                return 0
        return cmp_units(self.diameter()[0], target)

    @cached_property
    def _lb2(self):
        """Twice the largest vertex-to-vertex distance, in kernel units."""
        return 2 * max(max(row.values()) for row in self._all_pairs)

    def _pair_bounds(self):
        """(i, j, ub2) for every edge pair i <= j in scan order, ub2 twice the
        pair's bound on the distance envelope, in kernel units."""
        w = self._kernel[1]
        ap = self._all_pairs
        for i, (u, v, _) in enumerate(self.edges):
            a, du, dv = w[i], ap[u], ap[v]
            yield i, i, 2 * a
            for j in range(i + 1, len(self.edges)):
                x, y, _ = self.edges[j]
                yield i, j, a + w[j] + min(du[x] + dv[y], du[y] + dv[x])

    def _pair_max(self, i: int, j: int):
        """``_edge_pair_max``, memoized per graph."""
        memo = self.__dict__.setdefault("_pair_memo", {})
        got = memo.get((i, j))
        if got is None:
            got = memo[i, j] = self._edge_pair_max(i, j)
        return got

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
        """Shortest injective cycle: min over edges e of len(e) + d_{G-e},
        with the cycle of the first edge attaining it; each search is bounded
        (module docstring)."""
        cached = getattr(self, "_systole", None)
        if cached is not None:
            return cached
        scale, lengths, _ = self._kernel
        girth = self._girth if scale else None
        bound = INF if girth is None else girth + 1
        best = INF
        cycle = None
        for eid, (u, v, _) in enumerate(self.edges):
            limit = min(best, bound)
            dist, prev = self._dijkstra(u, skip_edge=eid, target=v, best=limit)
            cand = dist.get(v, INF) + lengths[eid]
            if cand < limit:        # so the search popped v: dist[v] and its path are final
                best = cand
                path = []
                w = v
                while w != u:
                    pu, peid = prev[w]
                    path.append(peid)
                    w = pu
                cycle = list(reversed(path)) + [eid]
                if cand == girth:
                    break
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

    @cached_property
    def _girth(self):
        """The systole in kernel units, INF on a forest: the least
        dist(x) + len + dist(y) over the non-tree edges (x, y) of every
        vertex's shortest-path tree (module docstring)."""
        lengths = self._kernel[1]
        best = INF
        for dist, prev in self._trees:
            tree = {eid for _, eid in prev.values()}
            for eid, (x, y, _) in enumerate(self.edges):
                if eid not in tree and x in dist:
                    cand = dist[x] + lengths[eid] + dist[y]
                    if cand < best:
                        best = cand
        return best

    def cat1(self) -> tuple[bool, list[int] | None]:
        """CAT(1) for graphs: no closed geodesic shorter than 2*pi.  The
        girth decides; below 2*pi the per-edge ``systole`` scan names the
        witness cycle (module docstring)."""
        scale = self._kernel[0]
        lo = kernel_band(Fraction(2), scale)[0]
        if self._girth >= lo + (0 if scale else EPS_UNITS / 2):
            return True, None
        sys, cyc = self.systole()
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
                if cmp_units(p.t, one) >= 0:
                    direct.append((Fraction(0), p.t - one))
                if cmp_units(p.t + one, ln) <= 0:
                    direct.append((p.t + one, ln))
                intervals = _intersect_intervals(intervals, direct)
            for lo, hi in intervals:
                if cmp_units(lo, hi) == 0:
                    # a point closed by rounding may put lo a little past ln
                    pt = self.point(eid, min(lo, ln))
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
    """Intersect intervals with {s : slope*s + off >= level}.  An interval is
    empty only when ``cmp_units`` puts lo past hi, so a single point that
    float rounding closes the wrong way round is kept."""
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
        if cmp_units(lo, hi) <= 0:
            out.append((lo, hi))
    return out


def _intersect_intervals(xs, ys):
    out = []
    for alo, ahi in xs:
        for blo, bhi in ys:
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if cmp_units(lo, hi) <= 0:
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
    sides = [(poly[k], poly[(k + 1) % len(poly)]) for k in range(len(poly))]
    candidates = list(poly)
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
