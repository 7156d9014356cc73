"""Independent oracles: these deliberately avoid the library's algorithms.

Diameter: scipy Dijkstra vertex distances, dense numpy grids over edge-pair
squares with zoom refinement (the envelope is concave on each zoom region).
Systole: direct DFS enumeration of all injective cycles.  Cycle counts:
networkx simple_cycles.  Apartment axioms: an unsampled scan over every pair
of cells, faces included, and a graph search of each apartment intersection.
Apartment searches: the earlier copying, Fraction-summing surface growth,
whose closed spheres the hull family of opposite chambers must equal, and
the dim-1 cycle DFS, which the kernel-unit search must match node for node.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
    library's envelope candidate analysis."""
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


def count_cycles_of_length(n: int, edges, k: int) -> int:
    """Independent k-cycle count via networkx."""
    import networkx as nx
    G = nx.MultiGraph()
    G.add_nodes_from(range(n))
    for u, v, _ in edges:
        G.add_edge(u, v)
    return sum(1 for cyc in nx.simple_cycles(G, length_bound=k) if len(cyc) == k)


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


def grow_surface_fractions(c, fan, budget: int):
    """Surface growth with a fresh edge-count and angle-sum dict per DFS node
    and corner angles summed as pi-unit Fractions (floats when inexact).
    Returns (closures, budget_exhausted)."""
    from buildctl.angles import cmp_units
    from buildctl.complexes import _vertex_angle
    two = Fraction(2)
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
        for cand in c.cofaces.get(e, ()):
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
    from buildctl.recognizer import Apartment, IntegrityError
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
