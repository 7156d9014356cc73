"""Exact metric analysis of 1-dimensional complexes.

Lengths live in units of pi (Fraction when exact, float otherwise), so the
decisions that matter downstream -- diameter == pi, systole >= 2*pi -- are
exact equalities on the target corpus.  Point-to-point distances reduce to
vertex Dijkstra plus the four endpoint routes; the diameter is a closed form
in the vertex distances, one per pair of edges.

Kernel units.  Each graph keeps one length table.  When every length is
rational the table holds the lengths times 4L, L the lcm of their
denominators, as ints.  Vertex distances are then multiples of 4, and every
pair value and witness offset below is an int, so the kernel is exact
without Fraction.  Float and mixed graphs keep floats.  Dijkstra, all-pairs
distances, systole and diameter run on the table; Fraction values are
restored only where they are returned.

Diameter.  Take p at offset t on an edge (u,v) of length a and q at offset s
on another edge (x,y) of length b.  With g_u(s) = min(s + d(u,x), b - s +
d(u,y)), the distance from u to q, d(p,q) = min(t + g_u, a - t + g_v).  As
|g_u - g_v| <= d(u,v) <= a, its maximum over t is (a + g_u + g_v)/2, at
t = (a + g_v - g_u)/2.  g_u + g_v is concave with slope 0 between the peaks
of g_u and g_v, so the peak s = (b + d(u,y) - d(u,x))/2 of g_u attains its
maximum, b + min(d(u,x) + d(v,y), d(u,y) + d(v,x)); half of a plus that is
the pair's maximum.  An edge with itself gives (a + d(u,v))/2, at t = 0 and
s = (a + d(u,v))/2, as q's direct route from p is s - t.  The
witness is the first pair i <= j attaining the maximum; float offsets are
clamped to their edges.

Systole.  Each vertex's shortest-path tree is computed once per graph
(``_trees``), as two lists indexed by vertex: ``dist``, in kernel units and
INF where a vertex is unreachable, and ``prev``, the (parent, edge id) of
each reached vertex but the source, else None.  Its distance rows are the
all-pairs distances of the diameter, and the systole is the girth read off
the same trees (Itai-Rodeh, SIAM J. Comput. 1978).  For a source s, the
branch of a vertex x is the child of s on the tree path to x; s is its own
branch.  A non-tree edge (x, y) whose ends lie in different branches closes
the cycle s..x, (x, y), y..s, so its candidate dist(x) + len + dist(y) is a
cycle length, at least the systole.  When the ends lie in one branch, their
tree paths meet at a vertex z other than s, and the edge closes a cycle
through z that is shorter than the candidate by 2 d(s, z) > 0.  So every non-tree edge's
candidate is at least the systole, and ``_girth`` needs no branch test.
Conversely, take a shortest cycle C, of length g, and s on C.  A tree holds
no cycle, so some edge (x, y) of C is a non-tree edge, and d(s, x), d(s, y)
are at most the distances along C: its candidate is at most g (g for the
edge across C from s, at most twice g/2 for another).  So the least
candidate over all sources is the systole; a tree edge closes no cycle and
is skipped.  The witness is the cycle of the first (source s, edge (x, y)),
in that order, that attains the least candidate: the tree path x..s, then
s..y, then the edge back to x.  It is a simple cycle, as a minimizer's ends
lie in different branches: one branch would make it longer than the cycle
through z (on floats, while rounding loses less than 2 d(s, z)).  ``cat1``
compares the systole with 2*pi by ``cmp_units``.

Layer sweep.  A graph whose kernel lengths are all one value l, as every
graph that passes the uniform-length gate is, gets its trees from a
breadth-first sweep (``_kernel`` decides this once per graph): each layer
is sorted by vertex, and a vertex keeps the first parent that reaches it,
by the first edge in ``adjacency`` order.  Other graphs keep the heap.  The
sweep's trees are Dijkstra's exactly.  The heap pops in (distance, vertex)
order.  With one length, every vertex k hops out gets the same kernel value
k*l: an exact int, or on floats the same left-to-right sum
(...(l + l) + ...) + l, which grows strictly with k (adding l to about k*l
rounds it away only past 2**53 hops).  So the heap pops the layers in
turn, each in vertex order, and as a relaxation replaces only a strictly
shorter distance, ``prev[w]`` is the first popped neighbour of w, by its
first edge to w in ``adjacency`` order.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .angles import Frozen, PiUnits, cmp_units, kernel_units
from .complexes import MetricComplex, as_graph_data

INF = math.inf


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
        """The graph of a 1-dimensional complex.  Its validation already
        guarantees distinct names, distinct ends in range, ordered, and
        positive lengths, so the edges are stored unchecked."""
        names, edges = as_graph_data(c)
        return MetricGraph.__new__(MetricGraph)._set(names, edges)

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
        """(scale, lengths, adjacency, step) in kernel units: ints in units of
        pi/scale when every length is rational, else floats and scale None.
        step is the one length when all are equal, which selects the layer
        sweep in ``_dijkstra`` (module docstring), else None."""
        scale, table = kernel_units([ln for _, _, ln in self.edges], 4)
        adj = [tuple((w, eid, table[eid]) for w, eid, _ in self.adjacency[u])
               for u in range(len(self.vertices))]
        return scale, table, adj, (table[0] if len(set(table)) == 1 else None)

    def _restore(self, x):
        """A kernel-unit value in pi units: a Fraction on exact graphs."""
        scale = self._kernel[0]
        if scale is None or x == INF:
            return x
        return Fraction(x, scale)

    def _dijkstra(self, source: int) -> tuple[list, list]:
        """The shortest-path tree of one vertex as the rows (dist, prev): the
        distance in kernel units, INF where unreachable, and the (parent,
        edge id) of each vertex, None at the source and where unreachable.
        One kernel length: the layer sweep (module docstring), else a heap."""
        scale, _, adj, step = self._kernel
        dist, prev = [INF] * len(self.vertices), [None] * len(self.vertices)
        d = dist[source] = 0 if scale else 0.0
        if step is not None:
            layer = [source]
            while layer:
                d += step
                nxt = []
                for u in layer:
                    for w, eid, _ in adj[u]:
                        if dist[w] is INF:      # this row's own mark of an unreached vertex
                            dist[w] = d
                            prev[w] = (u, eid)
                            nxt.append(w)
                nxt.sort()
                layer = nxt
            return dist, prev
        heap = [(d, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for w, eid, ln in adj[u]:
                nd = d + ln
                if nd < dist[w]:
                    dist[w] = nd
                    prev[w] = (u, eid)
                    heapq.heappush(heap, (nd, w))
        return dist, prev

    def vertex_distances(self, source: int) -> dict[int, PiUnits]:
        """Shortest-path distances from one vertex to the vertices it
        reaches, in vertex order; Fractions on exact graphs.  Read off the
        cached ``_all_pairs`` row, as ``d`` reads it."""
        return {w: self._restore(x) for w, x in enumerate(self._all_pairs[source])
                if x != INF}

    @cached_property
    def _trees(self) -> list[tuple[list, list]]:
        """``_dijkstra(s)`` for every vertex s: the shortest-path trees that
        the girth and the diameter scan share."""
        return [self._dijkstra(s) for s in range(len(self.vertices))]

    @cached_property
    def _all_pairs(self) -> list[list[int | float]]:
        """Vertex-to-vertex distance rows in kernel units, INF where
        unreachable."""
        return [dist for dist, _ in self._trees]

    def d(self, u: int, v: int) -> PiUnits:
        return self._restore(self._all_pairs[u][v])

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
                if dd != INF:
                    cand = ta + dd + tb
                    if cand < best:
                        best = cand
        return best

    # -- diameter in closed form ------------------------------------------------

    def diameter(self) -> tuple[PiUnits, tuple[GraphPoint, GraphPoint] | None]:
        """Exact sup of distance over all point pairs, with a witness pair: the
        first edge pair i <= j whose closed-form maximum is the largest
        (module docstring)."""
        cached = getattr(self, "_diameter", None)
        if cached is not None:
            return cached
        if not self.is_connected():
            self._diameter = (INF, None)
            return self._diameter
        if not self.edges:
            self._diameter = (Fraction(0), None)
            return self._diameter
        scale, w = self._kernel[:2]
        ap = self._all_pairs
        ends = [(x, y, w[j]) for j, (x, y, _) in enumerate(self.edges)]
        # pair values are kept doubled, which keeps them ints on exact graphs;
        # a row of pairs (i, j > i) is one comprehension, without min() calls
        best, arg = -1, None
        for i, (u, v, a) in enumerate(ends):
            du, dv = ap[u], ap[v]
            if a + du[v] > best:
                best, arg = a + du[v], (i, i)
            row = [b + (p if p < q else q)
                   for x, y, b in ends[i + 1:]
                   for p, q in ((du[x] + dv[y], du[y] + dv[x]),)]
            top = max(row, default=None)
            if top is not None and a + top > best:
                best, arg = a + top, (i, i + 1 + row.index(top))

        def half(z):
            return z // 2 if scale else z / 2

        i, j = arg
        u, v, a = ends[i]
        x, y, b = ends[j]
        du, dv = ap[u], ap[v]
        if i == j:
            t, s = 0, half(best)
        else:
            s = half(b + du[y] - du[x])
            t = half(a + min(s + dv[x], b - s + dv[y]) - half(b + du[x] + du[y]))
        # rounding may put a float offset a little outside its edge
        t, s = min(max(t, 0), a), min(max(s, 0), b)
        self._diameter = (self._restore(half(best)),
                          (self._kernel_point(i, t), self._kernel_point(j, s)))
        return self._diameter

    def _kernel_point(self, eid: int, t) -> GraphPoint:
        """The point at kernel-unit offset t on edge eid.  On a mixed graph the
        float far end stands for the exact length it rounds."""
        if t == self._kernel[1][eid]:
            return self.point(eid, self.edges[eid][2])
        return self.point(eid, self._restore(t))

    # -- systole -----------------------------------------------------------------

    def systole(self) -> tuple[PiUnits, list[int] | None]:
        """Shortest injective cycle: the girth of the shortest-path trees, with
        the cycle its first minimizing non-tree edge closes (module
        docstring)."""
        girth, witness = self._girth
        if witness is None:
            return self._restore(girth), None
        s, eid = witness
        prev = self._trees[s][1]
        x, y, _ = self.edges[eid]
        return self._restore(girth), self._tree_path(prev, x, s) + \
            self._tree_path(prev, y, s)[::-1] + [eid]

    @staticmethod
    def _tree_path(prev, x: int, s: int) -> list[int]:
        """The edge ids of the tree path from x up to the root s."""
        path = []
        while x != s:
            x, eid = prev[x]
            path.append(eid)
        return path

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
    def _girth(self) -> tuple:
        """(girth, witness): the systole in kernel units, INF on a forest,
        the least dist(x) + len + dist(y) over the non-tree edges (x, y) of
        every vertex's shortest-path tree, and the (root, edge id) that first
        attains it, or None (module docstring)."""
        lengths = self._kernel[1]
        ends = [(eid, x, y, lengths[eid]) for eid, (x, y, _) in enumerate(self.edges)]
        best, witness = INF, None
        for s, (dist, prev) in enumerate(self._trees):
            tree = {p[1] for p in prev if p is not None}
            for eid, x, y, ln in ends:
                # an edge s does not reach has the candidate INF, which never wins
                if eid not in tree:
                    cand = dist[x] + ln + dist[y]
                    if cand < best:
                        best, witness = cand, (s, eid)
        return best, witness

    def cat1(self) -> tuple[bool, list[int] | None]:
        """CAT(1) for graphs: no closed geodesic shorter than 2*pi, decided
        on the systole, with its cycle as the witness of a failure."""
        sys, cyc = self.systole()
        ok = cmp_units(sys, 2) >= 0
        return ok, (None if ok else cyc)

    # -- antipodes ------------------------------------------------------------------

    def antipode_set(self, p: GraphPoint) -> AntipodeSet:
        """All points at distance >= pi from p, edge by edge."""
        verts_near: list[PiUnits] = [INF] * len(self.vertices)
        for a, ta in self._point_sides(p):
            for w, dw in enumerate(self._all_pairs[a]):
                if dw != INF:
                    cand = ta + self._restore(dw)
                    if cand < verts_near[w]:
                        verts_near[w] = cand
        points: list[GraphPoint] = []
        fat: list[tuple[int, PiUnits, PiUnits]] = []
        seen_vertices = set()
        one = Fraction(1)
        for eid, (x, y, ln) in enumerate(self.edges):
            dx, dy = verts_near[x], verts_near[y]
            if dx == INF or dy == INF:
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


# -- interval helpers ------------------------------------------------


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
