"""Independent oracles: these deliberately avoid the library's algorithms.

Diameter: scipy Dijkstra vertex distances, dense numpy grids over edge-pair
squares with zoom refinement (the envelope is concave on each zoom region).
Systole: direct DFS enumeration of all injective cycles; the earlier
per-edge scan, len(e) + d_{G-e} with every search run to the end on the
graph's kernel-unit table, whose value the tree girth must equal; and the
girth of the shortest-path trees with the branch rule.  The band of an
exact length: the floats that ``cmp_units`` calls equal to it, found by
bisection over float bit patterns.  Edge maxima: the
closed form of the two routes into an edge.  Cycle counts:
networkx simple_cycles, and the earlier count of a generalized m-gon's
2m-cycles by a geodesic-counting search from every vertex, which the
closed form |E| q_w0 / 2m must equal.  Apartment axioms: an unsampled
scan over every pair of cells, faces included, each chamber's cover
rebuilt from the apartments' chamber lists, whose first uncovered pair the
hull search's own cover must name, a graph search of each apartment
intersection, and the dimension-1 axiom (3) by the intersection identity
of two cycles.
Apartment searches: the earlier copying, Fraction-summing surface growth,
whose closed spheres the hull family of opposite chambers must equal, and
the dim-1 cycle DFS, which the kernel-unit search must match node for node.
Hull isometry: an untyped search over every seed chamber and vertex
bijection, propagated across panels, which the typed model walk must match;
and the earlier walk on chamber tuples and word dicts over the face poset,
which compares every model edge length on every hull unless told the
lengths fit, with the left action read off its walks of the model complex
and the (B2) check on its maps, which the walk on chamber indices and the
bare group must equal.  Vertex types and panel counts: the earlier
propagation over the face poset and the scan of the sorted panels, which the
chamber graph must equal.  The face poset itself (``face_poset``): every face
of every top cell with the top cells on it, by a plain scan; the library keeps
no such index, and the faces its readers list must be this scan's.  Suspension
poles: the earlier search over every vertex pair, which the search over
vertices of valence nv - 2 must equal.  The spherical pi bound: one
comparison per (simplex, edge), which one comparison per edge must equal.
Apartment antipodes and distances: the apartment developed onto the unit
sphere in float coordinates, one cell at a time across shared edges.  The
discrete extension property: nonempty discrete antipode sets in every
space of directions, read off ``antipode_set``; no command or gate runs it.
The local route (``local_certificate``, ``local_route``): the earlier
spherical certificate from every (n-2)-cell link and, recursively, every
vertex link, with the Coxeter matrix assembled from the (n-2)-cell links
(``assemble_coxeter``), which ``check_spherical`` must answer as, link
certificates aside.  Dimension-1 apartments: not an oracle but a listing, with the library's
hull enumeration, of the apartments that a dimension-1 certificate only
counts.  Coxeter complexes: the earlier construction with orthogonal
matrices from the square root of the cosine form, rounded matrix and
vertex keys and one ``acos`` per edge.  Realizability: one ``eigvalsh`` call per
simplex.  Validation: the earlier report, with its set of covered vertices,
its scan of every edge for a missing length and ``realizability`` reading
the radians off each cell's Angles.  Kleiner-Leeb charts: random straight
segments in a window's flat frame must each lie in one chart, and
overlapping charts must differ by a rigid motion (``verify_def52``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


def vertex_distance_matrix(n: int, edges) -> np.ndarray:
    """Float all-pairs distances via scipy (parallel edges collapse to min)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra
    w: dict[tuple[int, int], float] = {}
    for u, v, ln in edges:
        key = (min(u, v), max(u, v))
        w[key] = min(w.get(key, math.inf), float(ln))
    if not w:
        return np.zeros((n, n))
    rows = [k[0] for k in w] + [k[1] for k in w]
    cols = [k[1] for k in w] + [k[0] for k in w]
    vals = [w[k] for k in w] * 2
    mat = coo_matrix((vals, (rows, cols)), shape=(n, n))
    return dijkstra(mat, directed=False)


def _zoom_max(fn, t_lo, t_hi, s_lo, s_hi, constraint=None, coarse=33, fine=9,
              rounds=30):
    """Max of a function concave on {constraint} within a rectangle."""
    lo = np.array([t_lo, s_lo], dtype=float)
    hi = np.array([t_hi, s_hi], dtype=float)
    best = -math.inf
    for r in range(rounds):
        k = coarse if r == 0 else fine
        ts = np.linspace(lo[0], hi[0], k)
        ss = np.linspace(lo[1], hi[1], k)
        T, S = np.meshgrid(ts, ss, indexing="ij")
        V = fn(T, S)
        if constraint is not None:
            V = np.where(constraint(T, S), V, -np.inf)
        i = int(np.argmax(V))
        val = V.flat[i]
        if val > best:
            best = val
        it, is_ = divmod(i, k)
        span_t = (hi[0] - lo[0]) / (k - 1)
        span_s = (hi[1] - lo[1]) / (k - 1)
        nlo = np.array([max(t_lo, ts[it] - span_t), max(s_lo, ss[is_] - span_s)])
        nhi = np.array([min(t_hi, ts[it] + span_t), min(s_hi, ss[is_] + span_s)])
        lo, hi = nlo, nhi
        if (hi - lo).max() < 1e-15:
            break
    return best


def sampling_diameter(n: int, edges) -> float:
    """Dense-sampling diameter with zoom refinement, independent of the
    library's closed form."""
    D = vertex_distance_matrix(n, edges)
    if np.isinf(D).any():
        return math.inf
    if not edges:
        return 0.0
    best = float(D.max())
    m = len(edges)
    for i in range(m):
        u, v, a = edges[i]
        a = float(a)
        for j in range(i, m):
            x, y, b = edges[j]
            b = float(b)

            def fn(T, S, u=u, v=v, x=x, y=y, a=a, b=b, same=(i == j)):
                r = np.minimum(T + D[u, x] + S, T + D[u, y] + (b - S))
                r = np.minimum(r, (a - T) + D[v, x] + S)
                r = np.minimum(r, (a - T) + D[v, y] + (b - S))
                if same:
                    r = np.minimum(r, np.abs(T - S))
                return r

            if i == j:
                val = max(
                    _zoom_max(fn, 0, a, 0, b, constraint=lambda T, S: T >= S),
                    _zoom_max(fn, 0, a, 0, b, constraint=lambda T, S: T <= S))
            else:
                val = _zoom_max(fn, 0, a, 0, b)
            if val > best:
                best = val
    return best


def all_injective_cycles(n: int, edges):
    """Every injective cycle as a tuple of edge ids, by plain path DFS."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for eid, (u, v, _) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    cycles = set()
    for e0, (u0, v0, _) in enumerate(edges):
        stack = [([e0], [u0, v0])]
        while stack:
            eids, verts = stack.pop()
            last = verts[-1]
            if last == u0 and len(eids) >= 2:
                cycles.add(frozenset(eids))
                continue
            for w, eid in adj[last]:
                if eid <= e0:
                    continue
                if eid in eids:
                    continue
                if w != u0 and w in verts:
                    continue
                stack.append((eids + [eid], verts + [w]))
    return cycles


def exhaustive_systole(n: int, edges):
    """Exact minimum injective-cycle length, Fractions preserved."""
    best = None
    for cyc in all_injective_cycles(n, edges):
        ln = sum((edges[e][2] for e in cyc), Fraction(0))
        if best is None or ln < best:
            best = ln
    return best


def _plain_dijkstra(g, source: int, skip_edge=None):
    """Dijkstra over ``g._kernel``'s adjacency without the edge
    ``skip_edge``, run until the heap is empty."""
    adj = g._kernel[2]
    zero = 0 if g._kernel[0] else 0.0
    dist, prev = {source: zero}, {}
    heap = [(zero, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, eid, ln in adj[u]:
            if eid != skip_edge and d + ln < dist.get(w, math.inf):
                dist[w] = d + ln
                prev[w] = (u, eid)
                heapq.heappush(heap, (d + ln, w))
    return dist, prev


def unbounded_systole(g):
    """The per-edge systole scan with every skip-edge search run to the end:
    the minimum over edges e = (u, v) of len(e) + d_{G-e}(u, v) in kernel
    units, and the cycle of the first edge attaining it."""
    lengths = g._kernel[1]
    best, cycle = math.inf, None
    for eid, (u, v, _) in enumerate(g.edges):
        dist, prev = _plain_dijkstra(g, u, skip_edge=eid)
        if v in dist and dist[v] + lengths[eid] < best:
            best = dist[v] + lengths[eid]
            path, w = [], v
            while w != u:
                w, peid = prev[w]
                path.append(peid)
            cycle = path[::-1] + [eid]
    return g._restore(best), cycle


def branch_rule_girth(g):
    """The shortest-path-tree girth in kernel units with the branch rule:
    from each source s, the non-tree edges (x, y) whose ends lie in
    different branches of s's tree (the child of s on the tree path; s is
    its own branch), each closing the cycle s..x, (x, y), y..s."""
    lengths = g._kernel[1]
    best = math.inf
    for s in range(len(g.vertices)):
        dist, prev = _plain_dijkstra(g, s)

        def branch(x):
            while x != s and prev[x][0] != s:
                x = prev[x][0]
            return x

        tree = {eid for _, eid in prev.values()}
        for eid, (x, y, _) in enumerate(g.edges):
            if eid not in tree and x in dist and branch(x) != branch(y):
                best = min(best, dist[x] + lengths[eid] + dist[y])
    return best


def _float_key(x: float) -> int:
    """An int that orders like the float: its bit pattern, negated for
    negative floats (-0.0 and 0.0 share the key 0)."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -bits if x < 0 else bits


def _key_float(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return -x if k < 0 else x


def units_band(b) -> tuple[float, float]:
    """(lo, hi): the closed interval of floats x with ``cmp_units(x, b) == 0``.

    Found by bisection over float bit patterns with ``cmp_units`` as the
    predicate, so the rule stays written only there.  The predicate is
    monotone on each side of b (a rounded difference grows with x), hence
    ``(x > hi) - (x < lo) == cmp_units(x, b)`` for every float x but nan.
    """
    from buildctl.angles import cmp_units

    def end(inside: int, outside: int) -> float:
        # the last float from ``inside`` (equal to b) towards ``outside`` (not)
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if cmp_units(_key_float(mid), b) == 0:
                inside = mid
            else:
                outside = mid
        return _key_float(inside)

    k = _float_key(float(b))
    return end(k, _float_key(-math.inf)), end(k, _float_key(math.inf))


def count_cycles_of_length(n: int, edges, k: int) -> int:
    """Independent k-cycle count via networkx."""
    import networkx as nx
    G = nx.MultiGraph()
    G.add_nodes_from(range(n))
    for u, v, _ in edges:
        G.add_edge(u, v)
    return sum(1 for cyc in nx.simple_cycles(G, length_bound=k) if len(cyc) == k)


def bfs_count_2m_cycles(sup, m: int) -> int:
    """The number of 2m-cycles of a graph of girth 2m hops (pairs of
    parallel edges when m = 1): one breadth-first search per vertex v,
    stopped at depth m, counts the geodesics sigma(v, w) to each w at
    depth m.  Two distinct m-hop geodesics from v to w are internally
    disjoint, as they would otherwise close a shorter cycle, so they make
    one 2m-cycle, and each 2m-cycle arises once from each of its 2m
    vertices and the vertex opposite it on the cycle:
    sum_v sum_{d(v,w) = m} C(sigma(v, w), 2) / 2m."""
    adj = [[w for w, _, _ in sup.adjacency[v]] for v in range(len(sup.vertices))]
    pairs = 0
    for v in range(len(adj)):
        seen, layer = {v}, {v: 1}
        for _ in range(m):
            nxt: dict[int, int] = {}
            for u, paths in layer.items():
                for w in adj[u]:
                    if w not in seen:
                        nxt[w] = nxt.get(w, 0) + paths
            seen.update(nxt)
            layer = nxt
        pairs += sum(k * (k - 1) // 2 for k in layer.values())
    return pairs // (2 * m)


def edge_max_distance(dx, dy, ln):
    """The largest distance from a vertex p to a point of an edge (x, y) of
    length ln, given dx = d(p, x) and dy = d(p, y): the maximum over s in
    [0, ln] of min(dx + s, dy + ln - s), where the two routes cross, at
    s = (dy + ln - dx) / 2 clamped to the edge."""
    s = min(max((dy + ln - dx) / 2, 0), ln)
    return min(dx + s, dy + ln - s)


def dim1_apartments(cert):
    """The apartments of a dimension-1 certificate, which keeps only their
    count, listed on demand with the library's own search: the hull
    enumeration on its graph, or the one cycle of a thin circle.  The
    listing must be complete and as long as the count."""
    from buildctl.dim1 import _walk_cycle, enumerate_apartments_dim1
    g = cert.graph
    if cert.verdict == "thin_building":
        found = (_walk_cycle(g, (1 << len(g.edges)) - 1),)
    else:
        found, exhaustive = enumerate_apartments_dim1(g, cert.m)
        assert exhaustive
    assert cert.apartments == () and len(found) == cert.apartment_count
    return found


def point_distance_oracle(n: int, edges, p, q) -> float:
    """Distance between (edge, offset) points via a subdivided float graph."""
    D = vertex_distance_matrix(n, edges)
    (pe, pt), (qe, qt) = p, q
    pu, pv, pl = edges[pe]
    qu, qv, ql = edges[qe]
    pt, qt, pl, ql = float(pt), float(qt), float(pl), float(ql)
    best = math.inf
    if pe == qe:
        best = abs(pt - qt)
    for a, ta in ((pu, pt), (pv, pl - pt)):
        for b, tb in ((qu, qt), (qv, ql - qt)):
            best = min(best, ta + D[a, b] + tb)
    return best


def rationalize_loop(radians) -> list:
    """The plain q <= 360 scan that ``angles.rationalize`` once was, run over
    a sequence of finite radian values: for each, the first q whose nearest
    p/q (p != 0) lies within EPS_ANGLE radians, as a Fraction, else None.
    numpy's rint rounds half to even like ``round`` and its float64
    arithmetic is Python's, so each entry is the scalar scan's answer."""
    from buildctl.angles import EPS_ANGLE
    r = np.asarray(radians, dtype=float)
    x = r / math.pi
    num = np.zeros(r.shape, dtype=np.int64)
    den = np.zeros(r.shape, dtype=np.int64)
    for q in range(1, 361):
        p = np.rint(x * q)
        hit = (den == 0) & (p != 0) & (np.abs(r - math.pi * p / q) <= EPS_ANGLE)
        num[hit] = p[hit]
        den[hit] = q
    return [None if q == 0 else Fraction(int(p), int(q)) for p, q in zip(num, den)]


def h1_free_generator_dense(ngens: int, relators):
    """First generator outside the pivot columns of the exponent-sum matrix
    (dense Fraction rows, column-order Gauss-Jordan elimination), or None."""
    rows = []
    for r in relators:
        v = [Fraction(0)] * ngens
        for g, s in r:
            v[g] += s
        rows.append(v)
    rank = 0
    pivots = set()
    for col in range(ngens):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.add(col)
        rank += 1
    return next((g for g in range(ngens) if g not in pivots), None)


def faces_of(cells) -> set:
    """Every nonempty face of the given simplices (sorted vertex tuples)."""
    return {f for cell in cells for k in range(1, len(cell) + 1)
            for f in itertools.combinations(cell, k)}


def uncovered_cell_pair(cells, apartments):
    """Building axiom (2) over every pair of cells, a cell with itself
    included, in the given order: the first pair that no apartment contains
    both of, or None.  Each apartment is given as the set of cells it
    contains."""
    holders = {cell: set() for cell in cells}
    for k, apt in enumerate(apartments):
        for cell in apt:
            if cell in holders:
                holders[cell].add(k)
    for a, b in itertools.combinations_with_replacement(cells, 2):
        if not holders[a] & holders[b]:
            return a, b
    return None


def uncovered_chamber_pair(chambers: Sequence, apartments: Sequence[Sequence]
                           ) -> tuple[int, int] | None:
    """Axiom (2), exactly, on chambers: the first index pair (i, j), i <= j,
    of chambers that no apartment contains both of, or None.

    ``apartments`` lists the chambers of each apartment.  Any two cells lie
    in chambers, and an apartment containing both chambers contains both
    cells, so chamber pairs decide the axiom.  Each apartment is an int
    bitmask of its chambers; a chamber's cover is the OR of the masks of the
    apartments through it, and a bit missing from it names the witness.
    """
    index = {ch: k for k, ch in enumerate(chambers)}
    cover = [0] * len(chambers)
    for apt in apartments:
        mask = 0
        for ch in apt:
            mask |= 1 << index[ch]
        for ch in apt:
            cover[index[ch]] |= mask
    full = (1 << len(chambers)) - 1
    for i, got in enumerate(cover):
        if got != full:
            missing = full & ~got
            return i, (missing & -missing).bit_length() - 1
    return None


def shared_part_connected(edges, verts: set, eids: set) -> bool:
    """Whether the subgraph with vertex set ``verts`` and edge ids ``eids``
    of the graph ``edges`` ((u, v, length) triples) is connected, by search."""
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for e in eids:
        u, v, _ = edges[e]
        adj[u].add(v)
        adj[v].add(u)
    start = min(verts)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def disconnected_apartment_pair(apartments):
    """Apartment axiom (3) for cycle apartments: the first index pair of
    apartments that share an edge and meet disconnectedly, or None.  Once
    the dimension-1 gates pass the graph is a generalized m-gon, where two
    apartments always meet connectedly, so this is a check on the hull
    search, not a gate.

    Two distinct cycles meet in a linear forest, so their intersection is
    connected exactly when |V_a & V_b| - |E_a & E_b| = 1.  Only the pairs
    that share an edge are tested: for each i, the j > i found through the
    apartments of i's edges, in increasing order.
    """
    vmask = [sum(1 << v for v in a.vertices) for a in apartments]
    emask = [sum(1 << e for e in a.edges) for a in apartments]
    through: dict[int, list[int]] = {}      # edge -> the apartments on it
    for k, a in enumerate(apartments):
        for e in a.edges:
            through.setdefault(e, []).append(k)
    for i, a in enumerate(apartments):
        vi, ei = vmask[i], emask[i]
        for j in sorted({j for e in a.edges for j in through[e] if j > i}):
            if (vi & vmask[j]).bit_count() - (ei & emask[j]).bit_count() != 1:
                return i, j
    return None


def grow_surface_fractions(c, fan, budget: int):
    """Surface growth with a fresh edge-count and angle-sum dict per DFS node
    and corner angles summed as pi-unit Fractions (floats when inexact).
    Returns (closures, budget_exhausted)."""
    from buildctl.angles import cmp_units
    from buildctl.complexes import _vertex_angle
    two = Fraction(2)
    poset = face_poset(c)
    cells0 = tuple(sorted(set(fan)))
    if len(cells0) != len(fan):
        return [], False

    def angle(cell, v):
        a, b = [w for w in cell if w != v]
        return _vertex_angle(c, v, a, b).pi_units

    nodes = 0
    exhausted = False
    results: list[frozenset] = []

    def dfs(cells: frozenset, edge_count: dict, vertex_angle: dict):
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        open_edges = sorted(e for e, k in edge_count.items() if k == 1)
        if not open_edges:
            for v, s in vertex_angle.items():
                if cmp_units(s, two) != 0:
                    return
            results.append(cells)
            return
        e = open_edges[0]
        for cand in poset.get(e, ()):
            if cand in cells:
                continue
            ok = True
            for e2 in itertools.combinations(cand, 2):
                if edge_count.get(e2, 0) >= 2:
                    ok = False
                    break
            if not ok:
                continue
            for v in cand:
                s = vertex_angle.get(v, Fraction(0)) + angle(cand, v)
                if cmp_units(s, two) > 0:
                    ok = False
                    break
            if not ok:
                continue
            ec = dict(edge_count)
            va = dict(vertex_angle)
            for e2 in itertools.combinations(cand, 2):
                ec[e2] = ec.get(e2, 0) + 1
            for v in cand:
                va[v] = va.get(v, Fraction(0)) + angle(cand, v)
            dfs(cells | {cand}, ec, va)
            if exhausted:
                return

    edge_count: dict = {}
    vertex_angle: dict = {}
    for cell in cells0:
        for e2 in itertools.combinations(cell, 2):
            edge_count[e2] = edge_count.get(e2, 0) + 1
        for v in cell:
            vertex_angle[v] = vertex_angle.get(v, Fraction(0)) + angle(cell, v)
    dfs(frozenset(cells0), edge_count, vertex_angle)
    return results, exhausted


def enumerate_cycles_fractions(g, m=None, budget: int = 10 ** 5):
    """The 2*pi cycle DFS on the graph's own pi-unit lengths (Fractions,
    floats when inexact), compared with ``cmp_units``.  Returns
    (apartments, exhaustive) like ``recognizer.enumerate_apartments_dim1``."""
    from buildctl.angles import cmp_units
    from buildctl.dim1 import Apartment, IntegrityError
    two = Fraction(2)
    found: dict = {}
    nodes = 0
    exhausted = False
    for e0, (u0, v0, l0) in enumerate(g.edges):
        stack = [([e0], [u0, v0], l0)]
        while stack:
            nodes += 1
            if nodes > budget:
                exhausted = True
                break
            eids, verts, ln = stack.pop()
            last = verts[-1]
            side = cmp_units(ln, two)
            if last == u0 and len(eids) >= 2:
                if side == 0:
                    key = frozenset(eids)
                    if key not in found:
                        found[key] = Apartment("cycle", edges=tuple(eids),
                                               vertices=tuple(verts[:-1]))
                continue
            if side > 0:
                continue
            for w, eid, wl in g.adjacency[last]:
                if eid <= e0 and eid != e0:
                    continue
                if eid in eids:
                    continue
                if w != u0 and w in verts:
                    continue
                stack.append((eids + [eid], verts + [w], ln + wl))
        if exhausted:
            break
    apartments = tuple(sorted(found.values(), key=lambda a: a.key()))
    if m is not None and not exhausted:
        for a in apartments:
            if len(a.edges) % 2 != 0:
                raise IntegrityError(f"odd apartment cycle {a}")
    return apartments, not exhausted


def tuple_model_walk(c, types, cells, model, lengths_fit: bool = False) -> tuple:
    """(bad, image, back) of the typed walk of the hull ``cells`` (chamber
    tuples, walked from cells[0]) onto a ``coxeter_complex`` model, as the
    walk on chamber tuples and word dicts gave them: each word's image
    chamber, found by filtering the panel's ``face_poset`` entry by hull
    membership, every vertex of every image chamber checked, and, unless
    ``lengths_fit``, each model edge of ``model.complex`` compared with its
    image in c, in the model's edge order, the first that differs naming a
    hull chamber on its image."""
    hull = set(cells)
    poset = face_poset(c)
    image = {(): cells[0]}
    vmap: dict[int, int] = {}
    back: dict[int, int] = {}
    for g in model.elements:
        w = g.word
        if w:
            at, s = image[w[:-1]], w[-1]
            panel = tuple(v for v in at if types[v] != s)
            nxt = [t for t in poset[panel] if t != at and t in hull]
            if len(nxt) != 1:
                return at, image, back
            image[w] = nxt[0]
        at = image[w]
        of_type = {types[v]: v for v in at}
        for mv in model.chamber_of[w]:
            v = of_type[model.vertex_types[mv]]
            if vmap.setdefault(mv, v) != v or back.setdefault(v, mv) != mv:
                return at, image, back
    missed = hull.difference(image.values())
    if missed:
        return min(missed), image, back
    if lengths_fit:
        return None, image, back
    for (a, b), ln in model.complex.lengths.items():
        if not ln.equals(c.edge_length(vmap[a], vmap[b])):
            return next(t for t in cells if vmap[a] in t and vmap[b] in t), image, back
    return None, image, back


def walked_left_action(model) -> dict[tuple, list[int]]:
    """For each group word w of a ``coxeter_complex`` model, the permutation
    v -> w^-1 v of its vertices, with each generator s read off the typed
    walk of the model complex onto itself from chamber s."""
    cx = model.complex
    gens = [tuple_model_walk(cx, model.vertex_types, [model.chamber_of[(s,)], *cx.top_cells],
                             model)[2] for s in range(model.system.rank)]
    act = {(): list(range(len(cx.vertices)))}
    for g in model.elements[1:]:
        w = g.word
        act[w] = [gens[w[-1]][v] for v in act[w[:-1]]]
    return act


def dict_incompatible_hulls(walks, model) -> tuple | None:
    """(B2) on ``tuple_model_walk`` maps (word -> chamber tuple dicts): the
    first (chamber, hull j, hull k, vertex x) where hulls j < k place x
    differently relative to the chamber, or None."""
    from collections import Counter
    through = Counter(C for image, _ in walks for C in image.values())
    labels: dict[tuple, dict] = {}
    act = None
    for k, (image, back) in enumerate(walks):
        for w, C in image.items():
            if through[C] < 2:
                continue
            act = act or walked_left_action(model)
            seen = labels.setdefault(C, {})
            for x, mv in back.items():
                first = seen.setdefault(x, (act[w][mv], k))
                if first[0] != act[w][mv]:
                    return C, first[1], k, x
    return None


def cofaces_vertex_types(c):
    """The proper (n+1)-coloring of c's vertices, or None, propagated
    panel by panel over ``face_poset`` from the first chamber of each
    gallery class."""
    n = c.dimension
    poset = face_poset(c)
    types: dict[int, int] = {}
    assigned: set[tuple] = set()
    for seed in c.top_cells:
        if seed in assigned:
            continue
        free = [v for v in seed if v not in types]
        used = {types[v] for v in seed if v in types}
        if len(used) != len(seed) - len(free):
            return None
        nxt = [t for t in range(n + 1) if t not in used]
        for v, t in zip(sorted(free), nxt):
            types[v] = t
        queue = [seed]
        assigned.add(seed)
        while queue:
            cur = queue.pop()
            for panel in itertools.combinations(cur, n):
                for nb in poset[panel]:
                    if nb in assigned:
                        continue
                    w = next(v for v in nb if v not in panel)
                    missing = [t for t in range(n + 1)
                               if t not in {types[v] for v in panel}]
                    if len(missing) != 1:
                        return None
                    if w in types:
                        if types[w] != missing[0]:
                            return None
                    else:
                        types[w] = missing[0]
                    assigned.add(nb)
                    queue.append(nb)
    if len(types) != len(c.vertices):
        return None
    return tuple(types[v] for v in range(len(c.vertices)))


def face_poset(c) -> dict[tuple, tuple]:
    """Every face of c (a sorted vertex tuple) -> the top cells containing
    it, in ``top_cells`` order, by a scan of every subset of every top
    cell."""
    out: dict[tuple, list] = {}
    for t in c.top_cells:
        for k in range(1, len(t) + 1):
            for f in itertools.combinations(t, k):
                out.setdefault(f, []).append(t)
    return {f: tuple(v) for f, v in out.items()}


def cofaces_incidence(c):
    """(stars, panels, chamber graph) of c read off ``face_poset``: the top
    cells on each vertex, the top cell indices on each face of dimension
    n - 1 and, for chamber k and position p, the other chambers on the face
    of chamber k without its p-th vertex, each in ``top_cells`` order."""
    index = {t: k for k, t in enumerate(c.top_cells)}
    poset = face_poset(c)
    stars = [list(poset.get((v,), ())) for v in range(len(c.vertices))]
    panels = {f: [index[t] for t in on] for f, on in poset.items()
              if len(f) == c.dimension}
    graph = tuple(tuple(tuple(index[s] for s in poset[t[:p] + t[p + 1:]] if s != t)
                        for p in range(len(t)))
                  for t in c.top_cells)
    return stars, panels, graph


def sorted_scan_panel_counts(c):
    """The connectivity and codimension-1 gates above dimension 1 by a scan
    of the sorted panels and their top cells (``face_poset``): the set
    of panel counts, or the diagnosis at the first panel in fewer than two
    top cells."""
    from buildctl.dim1 import CODIM1, NOT_CONNECTED, Diagnosis
    if not c._skeleton_connected:
        return Diagnosis(NOT_CONNECTED, {"detail": "complex is not connected"})
    counts = set()
    poset = face_poset(c)
    for panel in sorted(f for f in poset if len(f) == c.dimension):
        k = len(poset[panel])
        if k < 2:
            return Diagnosis(CODIM1, {
                "cell": [c.vertices[i] for i in panel], "top_cells": k})
        counts.add(k)
    return counts


def all_pairs_suspension_poles(c):
    """``decompose.find_suspension_poles`` over every vertex pair in
    ``itertools.combinations`` order: the first pair that is non-adjacent,
    has pi/2 edges to every other vertex, splits every top cell and
    reconstructs c as a suspension, or None."""
    from buildctl.decompose import RIGHT, _reconstructs_as_suspension
    if c.dimension < 1 or len(c.vertices) < 3:
        return None
    nv = len(c.vertices)
    poset = face_poset(c)
    for p, q in itertools.combinations(range(nv), 2):
        if (p, q) in poset:
            continue
        if any((min(pole, v), max(pole, v)) not in poset
               or not c.edge_length(pole, v).equals(RIGHT)
               for v in range(nv) if v not in (p, q) for pole in (p, q)):
            continue
        if all((p in cell) != (q in cell) for cell in c.top_cells) \
                and _reconstructs_as_suspension(c, p, q):
            return p, q
    return None


def pi_bound_per_simplex(simplices) -> list:
    """The spherical pi bound of ``complexes.realizability`` with one
    comparison per (simplex, edge): each simplex's (False, why) naming its
    first edge longer than pi, or None."""
    from buildctl.angles import cmp_units
    out = []
    for lengths in simplices:
        over = next((a for a in lengths if cmp_units(a.pi_units, Fraction(1)) > 0), None)
        out.append(None if over is None else
                   (False, f"spherical edge length {over} exceeds pi"))
    return out


def thin_isomorphic(a, b) -> bool:
    """Isometric isomorphism test for thin, pure, panel-closed complexes
    (two MetricComplex objects).

    Seeds a chamber-to-chamber map with a vertex bijection and propagates
    across panels (each panel bounds exactly two chambers); edge lengths must
    match within tolerance throughout.
    """
    if a.dimension != b.dimension:
        return False
    if len(a.top_cells) != len(b.top_cells) or len(a.vertices) != len(b.vertices):
        return False
    n = a.dimension
    if n == 0:
        return len(a.top_cells) == len(b.top_cells)
    ca0 = a.top_cells[0]
    for cb0 in b.top_cells:
        for perm in itertools.permutations(cb0):
            if _try_propagate_iso(a, b, ca0, perm):
                return True
    return False


def _try_propagate_iso(a, b, ca0, perm) -> bool:
    vmap = dict(zip(ca0, perm))
    for i, j in itertools.combinations(ca0, 2):
        if not a.edge_length(i, j).equals(b.edge_length(vmap[i], vmap[j])):
            return False
    b_cells = set(b.top_cells)
    a_poset, b_poset = face_poset(a), face_poset(b)
    mapped = {ca0: tuple(sorted(perm))}
    queue = [ca0]
    while queue:
        cur = queue.pop()
        img = mapped[cur]
        for panel in itertools.combinations(cur, len(cur) - 1):
            others = [t for t in a_poset[panel] if t != cur]
            if len(others) != 1:
                continue
            nxt = others[0]
            if nxt in mapped:
                continue
            v_new = next(v for v in nxt if v not in panel)
            img_panel = tuple(sorted(vmap[v] for v in panel))
            b_nbrs = [t for t in b_poset.get(img_panel, ()) if t != img]
            if len(b_nbrs) != 1:
                return False
            bimg = b_nbrs[0]
            w_new = next(w for w in bimg if w not in img_panel)
            if v_new in vmap:
                if vmap[v_new] != w_new:
                    return False
            else:
                vmap[v_new] = w_new
            for u in nxt:
                if u != v_new:
                    if not a.edge_length(u, v_new).equals(
                            b.edge_length(vmap[u], w_new)):
                        return False
            mapped[nxt] = tuple(sorted(vmap[v] for v in nxt))
            if mapped[nxt] not in b_cells:
                return False
            queue.append(nxt)
    return len(mapped) == len(a.top_cells) and \
        len(set(mapped.values())) == len(b.top_cells)


def develop_apartment(c, cells, base: int) -> dict[int, np.ndarray]:
    """Unit-vector coordinates of a thin closed spherical surface, base at
    the north pole: cells placed across shared edges in breadth-first order,
    each new vertex at its two edge lengths from the shared edge's ends, on
    the side away from the cell already placed."""
    cells = list(cells)
    by_edge: dict[tuple, list] = {}
    for cell in cells:
        for e in itertools.combinations(cell, 2):
            by_edge.setdefault(e, []).append(cell)
    pos: dict[int, np.ndarray] = {}
    start = next(cl for cl in sorted(cells) if base in cl)
    a, b = (v for v in sorted(start) if v != base)
    la = c.edge_length(base, a).radians
    pos[base] = np.array([0.0, 0.0, 1.0])
    pos[a] = np.array([math.sin(la), 0.0, math.cos(la)])
    pos[b] = _third_position(pos[base], pos[a], c.edge_length(base, b).radians,
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
                opp = next(z for z in cur if z not in e)
                side = _side_sign(pos[u], pos[v], pos[opp])
                p = _third_position(pos[u], pos[v], c.edge_length(u, w).radians,
                                    c.edge_length(v, w).radians, -side)
                pos.setdefault(w, p)
                placed.add(nxt)
                queue.append(nxt)
    return pos


def _side_sign(p, q, r) -> int:
    return 1 if float(np.dot(np.cross(p, q), r)) >= 0 else -1


def _third_position(p, q, dp, dq, sign: int) -> np.ndarray:
    """The unit vector at angular distances dp, dq from p, q, on the given
    side of the plane through p and q."""
    n = np.cross(p, q)
    cpq = float(np.dot(p, q))
    ab = np.linalg.solve(np.array([[1.0, cpq], [cpq, 1.0]]),
                         np.array([math.cos(dp), math.cos(dq)]))
    base_v = ab[0] * p + ab[1] * q
    rem = 1.0 - float(np.dot(base_v, base_v))
    return base_v + sign * math.sqrt(max(0.0, rem) / float(np.dot(n, n))) * n


def sqrt_form(B) -> np.ndarray:
    """The symmetric square root C of a positive definite cosine form, so
    that the rows of C are simple roots with C[s] . C[t] = B(s, t)."""
    from buildctl.angles import EPS_GRAM
    from buildctl.coxeter import CoxeterError
    w, Q = np.linalg.eigh(np.asarray(B))
    if w[0] <= EPS_GRAM:
        raise CoxeterError("cosine form is not positive definite")
    return Q @ np.diag(np.sqrt(w)) @ Q.T


def eigvalsh_cosine_verdicts(M) -> tuple:
    """``cosine_verdicts`` by numpy: the sign test on the eigvalsh spectrum of
    each irreducible component's cosine form."""
    from buildctl.angles import EPS_GRAM
    from buildctl.coxeter import cosine_form, irreducible_components
    comps = irreducible_components(M)
    verdicts = []
    for comp in comps:
        w = np.linalg.eigvalsh(np.asarray(cosine_form(M.submatrix(comp))))
        if w[0] > EPS_GRAM:
            verdicts.append("spherical")
        elif abs(w[0]) <= EPS_GRAM and (len(w) == 1 or w[1] > EPS_GRAM):
            verdicts.append("euclidean")
        else:
            verdicts.append("other")
    verdict = next((v for v in ("spherical", "euclidean")
                    if all(x == v for x in verdicts)), "other")
    return comps, tuple(verdicts), verdict


def reference_reflection_group(M, budget: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(word, matrix) of every element: breadth-first over right
    multiplication, each product keyed by its matrix rounded to 9 digits."""
    from buildctl.coxeter import BudgetExceeded, cosine_form
    C = sqrt_form(cosine_form(M))
    n = M.rank
    refl = [np.eye(n) - 2.0 * np.outer(C[s], C[s]) for s in range(n)]
    key = lambda m: tuple(np.round(m, 9).flatten().tolist())
    elems = [((), np.eye(n))]
    keys = {key(elems[0][1])}
    frontier = list(elems)
    while frontier:
        new = []
        for word, g in frontier:
            for s in range(n):
                h = g @ refl[s]
                k = key(h)
                if k in keys:
                    continue
                keys.add(k)
                new.append((word + (s,), h))
                if len(keys) > budget:
                    raise BudgetExceeded(f"group enumeration exceeded budget {budget}")
        new.sort(key=lambda e: e[0])
        elems.extend(new)
        frontier = new
    return elems


def reference_coxeter_complex(M, budget: int) -> dict:
    """The model as rounded vertex keys give it: each (element, type) in
    order names the vertex at g p_i unless its rounded coordinates were seen,
    and each edge is measured by the ``acos`` of its own dot product."""
    from buildctl.angles import Angle
    from buildctl.coxeter import cosine_form
    C = sqrt_form(cosine_form(M))
    n = M.rank
    P = np.linalg.inv(C)
    ps = [P[:, i] / np.linalg.norm(P[:, i]) for i in range(n)]
    elems = reference_reflection_group(M, budget)
    coords, vkeys, vtypes = [], {}, []

    def vid(x, typ):
        k = tuple(np.round(x, 9).tolist())
        if k not in vkeys:
            vkeys[k] = len(coords)
            coords.append(x)
            vtypes.append(typ)
        return vkeys[k]

    chamber_of = {}
    for word, g in elems:
        chamber_of[word] = tuple(sorted(vid(g @ ps[i], i) for i in range(n)))
    lengths = {}
    for cell in chamber_of.values():
        for i, j in itertools.combinations(cell, 2):
            if (i, j) not in lengths:
                cosv = float(np.clip(np.dot(coords[i], coords[j]), -1.0, 1.0))
                lengths[i, j] = Angle.from_radians(math.acos(cosv))
    return {"elements": elems, "chamber_of": chamber_of,
            "names": [f"w{vtypes[i]}.{i}" for i in range(len(coords))],
            "vertex_types": tuple(vtypes), "vertex_coords": np.array(coords),
            "lengths": lengths}


def gram_matrix(geometry: str, lengths) -> np.ndarray:
    """The Gram matrix cos d(i, j) of a spherical simplex, or the Gram
    matrix of the edge vectors from vertex 0 of a Euclidean one; ``lengths``
    in ``itertools.combinations(range(d + 1), 2)`` order."""
    n = next(k for k in itertools.count(1) if k * (k - 1) // 2 == len(lengths))
    d = dict(zip(itertools.combinations(range(n), 2), lengths))
    r = lambda i, j: d[min(i, j), max(i, j)].radians
    if geometry == "spherical":
        G = np.eye(n)
        for i, j in d:
            G[i, j] = G[j, i] = math.cos(r(i, j))
        return G
    d2 = lambda i, j: r(i, j) ** 2 if i != j else 0.0
    G = np.empty((n - 1, n - 1))
    for i in range(1, n):
        for j in range(1, n):
            G[i - 1, j - 1] = 0.5 * (d2(0, i) + d2(0, j) - d2(i, j))
    return G


def per_cell_realizable(geometry: str, lengths, eps: float,
                        least=lambda G: float(np.linalg.eigvalsh(G)[0])) -> tuple[bool, str]:
    """One simplex's (ok, why): a spherical edge past pi, then the least Gram
    eigenvalue, in closed form for an edge and from its own ``least`` call
    (``eigvalsh`` by default) above."""
    from buildctl.angles import cmp_units
    if not lengths:
        return True, ""
    if geometry == "spherical":
        for a in lengths:
            if cmp_units(a.pi_units, Fraction(1)) > 0:
                return False, f"spherical edge length {a} exceeds pi"
    if len(lengths) == 1:
        r = lengths[0].radians
        w0 = 1.0 - abs(math.cos(r)) if geometry == "spherical" else r ** 2
    else:
        w0 = least(gram_matrix(geometry, lengths))
    if w0 <= eps:
        kind = "Gram" if geometry == "spherical" else "Cayley-Menger"
        return False, f"{kind} matrix not positive definite (min eigenvalue {w0:.3e})"
    return True, ""


def scan_validation(c):
    """The earlier ``MetricComplex.validation``: the impure cells, a set of
    covered vertices, the conflicts, every edge (``c.edges``) scanned for a
    missing length, then ``realizability`` on the Angles of the pure cells
    and the connectivity search, each issue kind in that order."""
    from buildctl.complexes import ValidationIssue, ValidationReport, realizability
    issues = []
    name = lambda i: c.vertices[i]
    for t in c.top_cells:
        if len(t) - 1 != c.dimension:
            issues.append(ValidationIssue(
                "purity", tuple(name(i) for i in t),
                f"top cell has dimension {len(t)-1}, complex has dimension {c.dimension}"))
    if c.dimension >= 0 and not c.top_cells:
        issues.append(ValidationIssue(
            "purity", (), f"complex has dimension {c.dimension} and no top cell"))
    covered = {v for t in c.top_cells for v in t}
    for i in range(len(c.vertices)):
        if i not in covered:
            issues.append(ValidationIssue("purity", (name(i),), "vertex lies in no top cell"))
    for (i, j), a, b in c.length_conflicts:
        issues.append(ValidationIssue(
            "gluing", (name(i), name(j)), f"edge declared with lengths {a} and {b}"))
    missing = [e for e in c.edges if e not in c.lengths]
    for e in missing:
        issues.append(ValidationIssue(
            "length_missing", tuple(name(i) for i in e), "edge has no declared length"))
    if not missing and not c.length_conflicts:
        cells = [t for t in c.top_cells if len(t) - 1 == c.dimension]
        simplices = [[c.lengths[e] for e in itertools.combinations(t, 2)] for t in cells]
        for t, (ok, why) in zip(cells, realizability(c.geometry, simplices)):
            if not ok:
                issues.append(ValidationIssue("shape", tuple(name(i) for i in t), why))
    if c.dimension >= 1 and not c.allow_disconnected and not c._skeleton_connected:
        issues.append(ValidationIssue("connectivity", (), "complex is not connected"))
    return ValidationReport(not issues, tuple(issues))


@dataclass(frozen=True)
class Chart:
    """An isometric planar chart: a cell subset with vertex coordinates."""

    name: str
    cells: tuple[tuple, ...]
    coords: dict     # vertex index -> (x, y)


def verify_def52(c, atlas: Sequence[Chart], *, frame: dict,
                 n_samples: int = 60, seed: int = 0) -> dict:
    """Sampled verification of the metric-building axioms on a chart atlas.

    Geodesic segments are straight lines in the window's global flat frame;
    each sampled segment must lie in some chart, and overlapping charts must
    differ by a rigid motion on their overlap.
    """
    c.require_valid()
    rng = random.Random(seed)
    cells = list(c.top_cells)
    frame_np = {v: np.array(xy, dtype=float) for v, xy in frame.items()}
    failures = []
    chart_cells = [set(ch.cells) for ch in atlas]
    min_edge = min(c.edge_length(i, j).radians for i, j in c.edges)
    step = min_edge / 8.0
    for _ in range(n_samples):
        ca = cells[rng.randrange(len(cells))]
        cb = cells[rng.randrange(len(cells))]
        wa = [rng.random() for _ in ca]
        wb = [rng.random() for _ in cb]
        pa = sum(w * frame_np[v] for w, v in zip(wa, ca)) / sum(wa)
        pb = sum(w * frame_np[v] for w, v in zip(wb, cb)) / sum(wb)
        seg_cells = _cells_along_segment(c, frame_np, pa, pb, step)
        if seg_cells is None:
            continue
        if not any(seg_cells <= cc for cc in chart_cells):
            failures.append({
                "segment": [[float(x) for x in pa], [float(x) for x in pb]],
                "cells": [[c.vertices[v] for v in t] for t in sorted(seg_cells)]})
    compat = []
    for i, j in itertools.combinations(range(len(atlas)), 2):
        shared = sorted({v for t in (chart_cells[i] & chart_cells[j]) for v in t})
        if len(shared) < 3:
            continue
        A = np.array([atlas[i].coords[v] for v in shared], dtype=float)
        B = np.array([atlas[j].coords[v] for v in shared], dtype=float)
        motion = _rigid_fit(A, B)
        compat.append({"charts": [atlas[i].name, atlas[j].name],
                       "rigid": motion is not None,
                       "matrix": None if motion is None else motion[0].tolist(),
                       "translation": None if motion is None else motion[1].tolist()})
    ok = not failures and all(x["rigid"] for x in compat)
    return {"ok": ok, "uncovered_segments": failures, "compatibility": compat,
            "samples": n_samples}


def _cells_along_segment(c, frame_np, pa, pb, step):
    d = pb - pa
    ln = float(np.linalg.norm(d))
    if ln < 1e-12:
        return None
    k = max(2, int(ln / step) + 1)
    out = set()
    for i in range(k + 1):
        p = pa + d * (i / k)
        holders = _containing_cells(c, frame_np, p)
        if not holders:
            return None     # left the window; skip this sample
        out.add(min(holders))
    return out


def _containing_cells(c, frame_np, p):
    eps = 1e-9
    out = []
    for t in c.top_cells:
        a, b, d3 = (frame_np[v] for v in t)
        M = np.array([b - a, d3 - a]).T
        try:
            lam = np.linalg.solve(M, p - a)
        except np.linalg.LinAlgError:
            continue
        l1, l2 = float(lam[0]), float(lam[1])
        if l1 >= -eps and l2 >= -eps and l1 + l2 <= 1 + eps:
            out.append(t)
    return out


def _rigid_fit(A, B):
    """Least-squares rigid motion g with g(A) = B, or None if not isometric."""
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    H = (A - ca).T @ (B - cb)
    U, s, Vt = np.linalg.svd(H)
    R = (U @ Vt).T
    if np.linalg.det(R) < 0 and min(s) < 1e-12:
        R = (U @ np.diag([1, -1]) @ Vt).T
    t = cb - R @ ca
    resid = float(np.abs((A @ R.T + t) - B).max())
    if resid > 1e-6:
        # allow the reflection branch
        R2 = (U @ np.diag([1, -1]) @ Vt).T
        t2 = cb - R2 @ ca
        resid2 = float(np.abs((A @ R2.T + t2) - B).max())
        if resid2 < resid:
            R, t, resid = R2, t2, resid2
    if resid > 1e-6:
        return None
    return R, t


# -- discrete extension property ---------------------------------------------------


def discrete_extension_check(c) -> tuple[bool, dict | None]:
    """Nonempty discrete antipode sets for all link directions (n = 1 or 2).

    For n = 1 the graph is its own space of directions at each vertex; for
    n = 2 each vertex link is, and it must be connected.  The edge-interior
    directions of n = 2 have suspension links, where the antipode condition
    reduces to the incident-cell count being >= 2.
    """
    from buildctl.complexes import ComplexError, vertex_link
    from buildctl.metric_graph import GraphPoint, MetricGraph

    c.require_valid()
    if c.dimension == 1:
        spaces = [({}, "vertex", MetricGraph.from_complex(c))]
    elif c.dimension == 2:
        spaces = (({"vertex": c.vertices[vi]}, "direction",
                   MetricGraph.from_complex(vertex_link(c, vi)))
                  for vi in range(len(c.vertices)))
    else:
        raise ComplexError("discrete_extension_check handles dimensions 1 and 2")
    for at, key, g in spaces:
        if at and not g.is_connected():
            return False, {"condition": "dep_empty", **at,
                           "detail": "link disconnected: whole components are antipodal"}
        for ui, name in enumerate(g.vertices):
            ant = g.antipode_set(GraphPoint(vertex=ui))
            if not ant.nonempty:
                return False, {"condition": "dep_empty", **at, key: name}
            if not ant.discrete:
                _, lo, hi = ant.intervals[0]
                return False, {"condition": "dep_not_discrete", **at, key: name,
                               "interval": [float(lo), float(hi)]}
    if c.dimension == 2:
        poset = face_poset(c)
        for edge in sorted(f for f in poset if len(f) == 2):
            if len(poset[edge]) < 2:
                return False, {"condition": "dep_empty",
                               "edge": [c.vertices[i] for i in edge],
                               "detail": "edge-interior directions have empty antipode sets"}
    return True, None


def per_vertex_most_singular(c, link_certs) -> tuple[int, list[dict]]:
    """``decompose.most_singular_vertex`` reading the factor hint of every
    certified vertex link, one vertex at a time."""
    from buildctl.decompose import euclidean_factor_hint
    from buildctl.dim1 import Diagnosis
    best = None
    for (vi,), (L, cert) in sorted(link_certs.items(), key=lambda kv: c.vertices[kv[0][0]]):
        if isinstance(cert, Diagnosis):
            continue
        hints = euclidean_factor_hint(c, c.vertices[vi], cert)
        score = sum(1 for h in hints if h["kind"] != "flat")
        if best is None or score > best[0]:
            best = (score, vi, hints)
    return best[1], best[2]


def local_certificate(c, memo: dict | None = None):
    """The earlier local route of ``check_spherical``: the panel gate, the
    link of every (n-2)-cell and, from dimension 3 on, of every vertex,
    each certified by this route again (the vertex-link recursion), then
    the typing and the Coxeter matrix assembled from the (n-2)-cell links,
    with no apartment search.  A certificate holds its links in
    ``link_certificates``.  Graphs get ``recognizer._certify``, memoized on
    the graph; every complex of dimension >= 2 is certified once per call,
    through ``memo`` (by object)."""
    from buildctl import recognizer as r
    if c.dimension <= 1:
        return r._certify(c)
    memo = {} if memo is None else memo
    if id(c) not in memo:
        memo[id(c)] = (c, _local_certificate(c, memo))
    return memo[id(c)][1]


def _local_certificate(c, memo: dict):
    from buildctl import recognizer as r
    from buildctl.dim1 import EDGE_LENGTH_NONUNIFORM, Diagnosis
    c.require_valid()
    n = c.dimension
    panel_counts = r._panel_counts(c)
    if isinstance(panel_counts, Diagnosis):
        return panel_counts
    cells = sorted({f for t in c.top_cells for f in itertools.combinations(t, n - 1)})
    if n >= 3:
        cells += [(v,) for v in range(len(c.vertices))]
    link_certs = r._certify_links(c, cells, lambda L: local_certificate(L, memo))
    if isinstance(link_certs, Diagnosis):
        return link_certs
    types = r._vertex_types(c)
    if types is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": "vertices admit no consistent type coloring"})
    M = assemble_coxeter(c, types, {f: v for f, v in link_certs.items() if len(f) == n - 1})
    if isinstance(M, Diagnosis):
        return M
    form = r.cosine_verdicts(M)[2]
    if form != "spherical":
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": f"assembled Coxeter matrix is {form}, not spherical",
            "matrix": M.to_json_dict()})
    cert = r._spherical_certificate(c, M, types, panel_counts, (), False, None)
    cert.link_certificates = link_certs
    return cert


def assemble_coxeter(c, types, link_certs):
    """The Coxeter matrix the earlier local route assembled from the
    (n-2)-cell links, {cell: (link, certificate)}, or its diagnosis: each
    cell of cotype {i, j} must have a uniform link edge length pi/m(i, j),
    m >= 2, consistent across cells."""
    from buildctl.coxeter import CoxeterMatrix
    from buildctl.dim1 import EDGE_LENGTH_NONUNIFORM, Diagnosis, _length_to_m
    n = c.dimension
    all_types = set(range(n + 1))
    mvals = {}
    for cell, (L, sub) in sorted(link_certs.items()):
        cotype = tuple(sorted(all_types - {types[v] for v in cell}))
        lens = [L.edge_length(i, j) for i, j in L.edges]
        first = lens[0]
        for a in lens[1:]:
            if not first.equals(a):
                return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                    "cell": [c.vertices[i] for i in cell],
                    "detail": "link has non-uniform edge lengths",
                    "lengths": [str(first), str(a)]})
        m = _length_to_m(first.pi_units)
        if m is None or m < 2:
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "cell": [c.vertices[i] for i in cell],
                "detail": f"link edge length {first} is not pi/m, m >= 2"})
        old = mvals.get(cotype)
        if old is not None and old != m:
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "cotype": list(cotype),
                "detail": f"inconsistent panel parameters {old} and {m}"})
        mvals[cotype] = m
    gens = tuple(f"s{t}" for t in range(n + 1))
    rows = [[1 if i == j else mvals.get((min(i, j), max(i, j)), 2)
             for j in range(n + 1)] for i in range(n + 1)]
    return CoxeterMatrix(gens, tuple(tuple(r) for r in rows))


def local_route(c, budget: int):
    """``check_spherical``'s earlier answer through the local route: the
    ``local_certificate`` diagnosis, or the apartment layer
    (``recognizer._with_apartments``) on hulls walked against its own
    matrix's group, a certificate keeping the local route's links."""
    from buildctl import recognizer as r
    local = local_certificate(c)
    if isinstance(local, r.Diagnosis) or local.apartments_exhaustive:
        return local
    res = r._with_apartments(c, local.vertex_types, r._panel_counts(c),
                             r.coxeter_group(local.coxeter_matrix), budget)
    if isinstance(res, r.BuildingCertificate):
        res.link_certificates = local.link_certificates
    return res
