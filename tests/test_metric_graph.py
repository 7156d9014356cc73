import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import oracles
from buildctl.angles import Angle, cmp_units
from buildctl.complexes import MetricComplex
from buildctl.corpus import gen_k4, gen_petersen
from buildctl.metric_graph import Circle, GraphPoint, MetricGraph


def cycle_graph(n, length):
    return MetricGraph([f"v{i}" for i in range(n)],
                       [(i, (i + 1) % n, length) for i in range(n)])


def graph_of(c: MetricComplex) -> MetricGraph:
    return MetricGraph.from_complex(c)


def _band_lengths() -> list[float]:
    """Floats whose sums over one to four edges land on, or next to, the ends
    of the bands of pi and 2*pi (``oracles.units_band``)."""
    out = set()
    for b, parts in ((1, (1, 2, 3)), (2, (2, 4, 6))):
        for end in oracles.units_band(b):
            for x in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)):
                out.update(x / k for k in parts)
    return sorted(out)


BAND_LENGTHS = _band_lengths()
ONE = Fraction(1)


def random_graph(rng: random.Random, max_v=10, max_e=14, kind="exact", min_v=2,
                 lengths=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))) -> MetricGraph:
    """Random connected multigraph; kind "float" or "mixed" turns all or about
    half of the lengths into floats of the same value, and kind "band" draws
    about half of them from ``BAND_LENGTHS`` and the rest as floats."""
    n = rng.randint(min_v, max_v)

    def length():
        if kind == "band" and rng.random() < 0.5:
            return rng.choice(BAND_LENGTHS)
        ln = rng.choice(lengths)
        if kind in ("float", "band") or (kind == "mixed" and rng.random() < 0.5):
            return float(ln)
        return ln

    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, length()))
    extra = rng.randint(0, max_e - len(edges))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append((u, v, length()))
    return MetricGraph([f"v{i}" for i in range(n)], edges)


def lengthened(g: MetricGraph, eid: int, by=Fraction(1, 12)) -> MetricGraph:
    edges = list(g.edges)
    u, v, ln = edges[eid]
    edges[eid] = (u, v, ln + by)
    return MetricGraph(g.vertices, edges)


def floated(g: MetricGraph) -> MetricGraph:
    return MetricGraph(g.vertices, [(u, v, float(ln)) for u, v, ln in g.edges])


def full_scan_diameter(g: MetricGraph) -> Fraction:
    """Brute force over the grid of an exact graph: the largest distance
    between points at offsets k / (4L) on any two edges, L the lcm of the
    length denominators, where the diameter and its witness lie (module
    docstring of ``metric_graph``).  Vertex distances come from
    ``fraction_dijkstra``; a point pair's distance is the least of the four
    endpoint routes and, on one edge, the direct one, taken over int numpy
    grids in blocks of rows."""
    scale = 4 * math.lcm(*(ln.denominator for _, _, ln in g.edges))
    n = len(g.vertices)
    rows = [fraction_dijkstra(g, u) for u in range(n)]
    if any(len(row) < n for row in rows):
        return math.inf
    D = [[int(row[v] * scale) for v in range(n)] for row in rows]
    steps = [int(ln * scale) for _, _, ln in g.edges]
    best = 0
    for i, (u, v, _) in enumerate(g.edges):
        a = steps[i]
        for j in range(i, len(g.edges)):
            x, y, _ = g.edges[j]
            b = steps[j]
            S = np.arange(b + 1)
            block = max(1, (1 << 16) // (b + 1))
            for t0 in range(0, a + 1, block):
                T = np.arange(t0, min(a + 1, t0 + block))[:, None]
                r = np.minimum(np.minimum(T + D[u][x] + S, T + D[u][y] + b - S),
                               np.minimum(a - T + D[v][x] + S, a - T + D[v][y] + b - S))
                if i == j:
                    r = np.minimum(r, np.abs(T - S))
                best = max(best, int(r.max()))
    return Fraction(best, scale)


def assert_witness(g: MetricGraph):
    """The witness pair of ``diameter()`` lies inside its edges, at the
    diameter's distance: exactly on exact graphs, within 1e-12 otherwise."""
    d, wit = g.diameter()
    for p in wit:
        assert p.is_vertex or 0 < p.t < g.edges[p.edge][2], p
    got = g.distance(*wit)
    if isinstance(d, Fraction):
        assert type(got) is Fraction and got == d
    else:
        assert abs(got - d) <= 1e-12, (got, d)


def fraction_dijkstra(g: MetricGraph, source: int, skip_edge=None):
    """Plain Fraction Dijkstra over the original edge lengths."""
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for eid, (a, b, ln) in enumerate(g.edges):
            if eid == skip_edge or u not in (a, b):
                continue
            w = b if u == a else a
            if d + ln < dist.get(w, math.inf):
                dist[w] = d + ln
                heapq.heappush(heap, (d + ln, w))
    return dist


def test_c4_opposite_vertices():
    g = cycle_graph(4, Fraction(1, 2))
    assert g.distance(GraphPoint(vertex=0), GraphPoint(vertex=2)) == Fraction(1)


def test_heawood_distance_three_steps(heawood):
    g = graph_of(heawood)
    # p0 and l1 are at combinatorial distance 3 (l1 = {1,2,4} misses p0)
    i = heawood.vertices.index("p0")
    j = heawood.vertices.index("l1")
    assert g.distance(GraphPoint(vertex=i), GraphPoint(vertex=j)) == Fraction(1)


def test_k33_parallel_midpoints(k33):
    g = graph_of(k33)
    e1 = next(k for k, (u, v, _) in enumerate(g.edges)
              if {g.vertices[u], g.vertices[v]} == {"a0", "b0"})
    e2 = next(k for k, (u, v, _) in enumerate(g.edges)
              if {g.vertices[u], g.vertices[v]} == {"a1", "b1"})
    p = g.point(e1, Fraction(1, 4))
    q = g.point(e2, Fraction(1, 4))
    d = g.distance(p, q)
    assert d == Fraction(1)
    edges = [(u, v, float(ln)) for u, v, ln in g.edges]
    oracle = oracles.point_distance_oracle(6, edges, (e1, 0.25), (e2, 0.25))
    assert abs(float(d) - oracle) * math.pi <= 1e-9


def test_heawood_diameter_exactly_pi(heawood):
    g = graph_of(heawood)
    d, wit = g.diameter()
    assert d == Fraction(1)
    assert wit is not None
    assert g.distance(wit[0], wit[1]) == Fraction(1)


def test_k4_diameter_matches_oracle():
    g = graph_of(gen_k4())
    d, wit = g.diameter()
    assert d == Fraction(4, 3)
    oracle = oracles.sampling_diameter(4, [(u, v, float(ln)) for u, v, ln in g.edges])
    assert abs(float(d) - oracle) <= 1e-6


def test_circle_diameter():
    g = cycle_graph(6, Fraction(1, 3))
    d, _ = g.diameter()
    assert d == Fraction(1)


def test_single_edge_diameter():
    g = MetricGraph(["a", "b"], [(0, 1, Fraction(1, 3))])
    d, wit = g.diameter()
    assert d == Fraction(1, 3)


def test_disconnected_diameter_infinite():
    g = MetricGraph(["a", "b", "c", "d"],
                    [(0, 1, Fraction(1, 2)), (2, 3, Fraction(1, 2))])
    d, _ = g.diameter()
    assert d == math.inf


def test_heawood_systole_2pi(heawood):
    g = graph_of(heawood)
    s, cyc = g.systole()
    assert s == Fraction(2)
    assert oracles.exhaustive_systole(14, list(g.edges)) == Fraction(2)


def test_petersen_systole():
    g = graph_of(gen_petersen())
    s, cyc = g.systole()
    assert s == Fraction(5, 3)
    assert len(cyc) == 5
    assert oracles.exhaustive_systole(10, list(g.edges)) == Fraction(5, 3)


def test_tree_systole_infinite():
    g = MetricGraph(["a", "b", "c"], [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))])
    s, cyc = g.systole()
    assert s == math.inf and cyc is None
    assert g.cat1() == (True, None)


def test_cat1_verdicts(k33):
    assert graph_of(k33).cat1()[0] is True
    ok, cyc = graph_of(gen_petersen()).cat1()
    assert ok is False and len(cyc) == 5
    assert cycle_graph(8, Fraction(1, 4)).cat1()[0] is True


def test_circle_antipode_single_point():
    g = cycle_graph(6, Fraction(1, 3))
    ant = g.antipode_set(GraphPoint(vertex=0))
    assert ant.nonempty and ant.discrete
    assert len(ant.points) == 1
    assert ant.points[0] == GraphPoint(vertex=3)


def test_circle_antipodes_of_float_offsets_survive_rounding():
    """Every point of a circle of length 2*pi has exactly one antipode, at
    distance pi, also when its offset is a float and rounding closes the
    one-point antipode interval the wrong way round: a hexagon of pi/3
    edges at offsets 0.001 .. 0.332, and a 4-cycle of pi/2 edges at 5000
    seeded offsets."""
    rng = random.Random(5)
    hexagon, square = cycle_graph(6, Fraction(1, 3)), cycle_graph(4, Fraction(1, 2))
    cases = [(hexagon, 0, k / 1000) for k in range(1, 333)]
    cases += [(square, rng.randrange(4), rng.uniform(0, 0.5)) for _ in range(5000)]
    for g, eid, t in cases:
        p = GraphPoint(edge=eid, t=t)
        ant = g.antipode_set(p)
        assert ant.nonempty and ant.discrete and len(ant.points) == 1, (len(g.edges), eid, t)
        assert cmp_units(g.distance(p, ant.points[0]), Fraction(1)) == 0


def test_heawood_vertex_antipodes_match_sampling(heawood):
    g = graph_of(heawood)
    ant = g.antipode_set(GraphPoint(vertex=0))
    assert ant.nonempty and ant.discrete
    # exactly the vertices at combinatorial distance 3
    dist = g.vertex_distances(0)
    expect = {v for v, d in dist.items() if d == Fraction(1)}
    got = {p.vertex for p in ant.points}
    assert got == expect and len(got) == 4
    # sampled membership: no interior grid point reaches distance >= pi
    for eid in range(len(g.edges)):
        ln = g.edges[eid][2]
        for k in range(1, 8):
            p = g.point(eid, Fraction(k, 8) * ln)
            if p.is_vertex:
                continue
            assert g.distance(GraphPoint(vertex=0), p) < Fraction(1)


def test_petersen_vertex_antipodes_empty():
    g = graph_of(gen_petersen())
    for v in range(10):
        ant = g.antipode_set(GraphPoint(vertex=v))
        assert not ant.nonempty


def test_petersen_diameter_is_pi_at_edge_midpoints():
    # the vertex eccentricities stay below pi, but disjoint-edge midpoints reach it
    g = graph_of(gen_petersen())
    d, wit = g.diameter()
    assert d == Fraction(1)
    assert wit is not None and not wit[0].is_vertex and not wit[1].is_vertex


def test_fat_antipode_interval_detected():
    # two vertices joined by two paths of length 3*pi/2: lots of antipodes
    g = MetricGraph(["a", "m1", "b", "m2"],
                    [(0, 1, Fraction(3, 4)), (1, 2, Fraction(3, 4)),
                     (2, 3, Fraction(3, 4)), (3, 0, Fraction(3, 4))])
    ant = g.antipode_set(GraphPoint(vertex=0))
    assert ant.nonempty and not ant.discrete
    assert ant.intervals


def test_antipode_discreteness_iff_edge_max_below_pi():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng)
        if not g.is_connected():
            continue
        p = GraphPoint(vertex=rng.randrange(len(g.vertices)))
        ant = g.antipode_set(p)
        dist = fraction_dijkstra(g, p.vertex)
        has_fat = any(oracles.edge_max_distance(dist[x], dist[y], ln) > Fraction(1)
                      for x, y, ln in g.edges)
        assert (not ant.discrete) == has_fat


def test_suppress_path_subdivision():
    g = MetricGraph(["a", "m", "b"], [(0, 1, Fraction(1, 4)), (1, 2, Fraction(1, 4))])
    out = g.suppress_degree2()
    assert isinstance(out, MetricGraph)
    assert out.vertices == ("a", "b")
    assert out.edges == ((0, 1, Fraction(1, 2)),)


def test_suppress_circle_special_value():
    out = cycle_graph(6, Fraction(1, 3)).suppress_degree2()
    assert isinstance(out, Circle)
    assert out.circumference == Fraction(2)


def test_suppress_trivalent_unchanged(heawood):
    g = graph_of(heawood)
    out = g.suppress_degree2()
    assert isinstance(out, MetricGraph)
    assert len(out.vertices) == 14 and len(out.edges) == 21


def test_suppress_balloon_keeps_one_vertex():
    # a loop of two edges hung off a path: suppression must not build a self-loop
    g = MetricGraph(["x", "u", "w"],
                    [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
                     (1, 2, Fraction(1, 2))])
    out = g.suppress_degree2()
    assert isinstance(out, MetricGraph)
    assert all(u != v for u, v, _ in out.edges)


def test_suppress_preserves_distances():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng)
        if not g.is_connected():
            continue
        out = g.suppress_degree2()
        if isinstance(out, Circle):
            continue
        name_old = {nm: i for i, nm in enumerate(g.vertices)}
        name_new = {nm: i for i, nm in enumerate(out.vertices)}
        common = sorted(set(g.vertices) & set(out.vertices))
        for _ in range(10):
            a, b = rng.choice(common), rng.choice(common)
            d1 = g.distance(GraphPoint(vertex=name_old[a]), GraphPoint(vertex=name_old[b]))
            d2 = out.distance(GraphPoint(vertex=name_new[a]), GraphPoint(vertex=name_new[b]))
            assert d1 == d2


def test_point_canonicalization():
    g = MetricGraph(["a", "b"], [(0, 1, Fraction(1, 2))])
    assert g.point(0, Fraction(0)).is_vertex
    assert g.point(0, Fraction(1, 2)).is_vertex
    assert not g.point(0, Fraction(1, 4)).is_vertex
    with pytest.raises(ValueError):
        g.point(0, Fraction(2, 3))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        MetricGraph(["a"], [(0, 0, Fraction(1, 2))])


def test_metric_properties_random_sweep():
    # symmetry and triangle inequality on random point triples
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        g = random_graph(rng)
        if not g.is_connected() or not g.edges:
            continue
        pts = []
        for _ in range(3):
            eid = rng.randrange(len(g.edges))
            ln = g.edges[eid][2]
            pts.append(g.point(eid, Fraction(rng.randint(0, 8), 8) * ln))
        a, b, c = pts
        dab = g.distance(a, b)
        assert dab == g.distance(b, a)
        assert g.distance(a, c) <= dab + g.distance(b, c) + Fraction(1, 10 ** 12)
        checked += 1


def test_pruned_diameter_matches_full_scan_random():
    """The closed-form diameter against the grid oracle on random exact
    graphs, small ones (4 to 6 vertices, lengths pi/4 and pi/2) and the usual
    draw, with a float and a mixed copy of each within 1e-12; band graphs
    against the sampling oracle.  Every witness is at the diameter."""
    rng = random.Random(29)
    small = (Fraction(1, 4), Fraction(1, 2))
    exact = [random_graph(rng, min_v=4, max_v=6, max_e=10, lengths=small) for _ in range(40)]
    exact += [random_graph(rng) for _ in range(40)]
    for g in exact:
        d = g.diameter()[0]
        assert type(d) is Fraction and d == full_scan_diameter(g)
        assert_witness(g)
        mixed = MetricGraph(g.vertices, [(u, v, float(ln) if k % 2 else ln)
                                         for k, (u, v, ln) in enumerate(g.edges)])
        for h in (floated(g), mixed):
            assert abs(h.diameter()[0] - d) <= 1e-12
            assert_witness(h)
    for _ in range(20):
        g = random_graph(rng, kind="band")
        assert abs(g.diameter()[0] - oracles.sampling_diameter(len(g.vertices), g.edges)) <= 1e-6
        assert_witness(g)


def test_pruned_diameter_matches_full_scan_buildings(heawood, tutte_coxeter, k33):
    """Rank-2 buildings with one edge lengthened or shortened by pi/12:
    the grid oracle's value, and float copies within 1e-12."""
    from buildctl.corpus import gen_rank2_building
    k44 = gen_rank2_building("complete_bipartite", s=4, t=4)
    for c in (heawood, tutte_coxeter, k33, k44):
        g = graph_of(c)
        long = lengthened(g, len(g.edges) // 2)
        short = lengthened(g, 1, -Fraction(1, 12))
        for h in (g, long, short):
            d = h.diameter()[0]
            assert d == full_scan_diameter(h)
            assert abs(floated(h).diameter()[0] - d) <= 1e-12
            assert_witness(h)
            assert_witness(floated(h))
        assert 1 < long.diameter()[0] <= Fraction(13, 12)
        assert g.diameter()[0] == 1


def test_diameter_witness_is_at_the_diameter():
    """Every witness pair lies inside its edges at the diameter's distance:
    on random exact, float, mixed and band graphs, and on the seeded
    negatives of rank-2 buildings, one edge lengthened or shortened by pi/12,
    exact, float and in radians read back."""
    from buildctl.corpus import gen_rank2_building
    rng = random.Random(41)
    graphs = [random_graph(rng, kind=kind)
              for kind in ("exact", "float", "mixed", "band") for _ in range(50)]
    for name, kw in (("heawood", dict(kind="projective_plane")),
                     ("gq22", dict(kind="generalized_quadrangle")),
                     ("k44", dict(kind="complete_bipartite", s=4, t=4)),
                     ("k66", dict(kind="complete_bipartite", s=6, t=6)),
                     ("k88", dict(kind="complete_bipartite", s=8, t=8))):
        g = graph_of(gen_rank2_building(**kw))
        for eid in random.Random(name).sample(range(len(g.edges)), 3):
            for by in (Fraction(1, 12), -Fraction(1, 12)):
                neg = lengthened(g, eid, by)
                graphs += [neg, floated(neg),
                           MetricGraph(neg.vertices, [(u, v, Angle(rad=float(ln) * math.pi).pi_units)
                                                      for u, v, ln in neg.edges])]
    for g in graphs:
        assert_witness(g)


def test_integer_kernel_matches_fraction_dijkstra():
    rng = random.Random(31)
    for _ in range(30):
        shape = random_graph(rng)
        g = MetricGraph(shape.vertices,
                        [(u, v, Fraction(rng.randint(1, 7), rng.choice((1, 2, 3, 5, 12))))
                         for u, v, _ in shape.edges])
        n = len(g.vertices)
        for u in range(n):
            ref = fraction_dijkstra(g, u)
            assert g.vertex_distances(u) == ref
            for v in range(n):
                assert g.d(u, v) == ref.get(v, math.inf)
        want = math.inf
        for eid, (u, v, ln) in enumerate(g.edges):
            dist = fraction_dijkstra(g, u, skip_edge=eid)
            if v in dist:
                want = min(want, dist[v] + ln)
        s, cyc = g.systole()
        assert s == want
        if cyc is not None:
            assert sum(g.edges[e][2] for e in cyc) == s
        # lengths scaled by 4L keep the diameter and its witness exact
        d = g.diameter()[0]
        assert type(d) is Fraction and d == full_scan_diameter(g)
        assert_witness(g)


def test_vertex_distances_read_the_cached_rows(heawood, monkeypatch):
    """``vertex_distances`` reads the cached ``_all_pairs`` row, as ``d``
    does: once the trees exist, no source runs ``_dijkstra`` again, and
    the answers are the trees' rows, on an exact and a float graph."""
    calls = []
    real = MetricGraph._dijkstra
    monkeypatch.setattr(MetricGraph, "_dijkstra",
                        lambda self, s: calls.append(s) or real(self, s))
    exact = graph_of(heawood)
    for g in (exact, MetricGraph(exact.vertices, [(u, v, float(ln))
                                                  for u, v, ln in exact.edges])):
        assert len(g._trees) == len(g.vertices) == len(calls)
        calls.clear()
        for s in range(len(g.vertices)):
            assert g.vertex_distances(s) == {w: g.d(s, w) for w in range(len(g.vertices))}
        assert calls == []


@st.composite
def systole_graphs(draw):
    """Connected multigraphs for the girth: trees, single cycles (two
    parallel edges when n = 2) and multigraphs with parallel edges, with
    exact lengths over mixed denominators, their floats, a mix of both, or
    floats half drawn from ``BAND_LENGTHS``, whose sums land on or next to
    the ends of the band of 2*pi."""
    n = draw(st.integers(2, 8))
    shape = draw(st.sampled_from(("tree", "cycle", "multigraph")))
    if shape == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
    else:
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(1, 8)) if shape == "multigraph" else 0):
        if draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if u != v:
                pairs.append((u, v))
    kind = draw(st.sampled_from(("exact", "float", "mixed", "band")))

    def length():
        if kind == "band" and draw(st.booleans()):
            return draw(st.sampled_from(BAND_LENGTHS))
        ln = Fraction(draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 3, 4, 5, 7, 12))))
        if kind in ("float", "band") or (kind == "mixed" and draw(st.booleans())):
            return float(ln)
        return ln

    return MetricGraph([f"v{i}" for i in range(n)], [(u, v, length()) for u, v in pairs])


def assert_simple_cycle(g: MetricGraph, cyc: list[int]):
    """cyc is a closed walk of distinct edges through distinct vertices."""
    seq = g.cycle_vertices(cyc)
    assert len(set(cyc)) == len(cyc) == len(set(seq)) == len(seq)
    for k, eid in enumerate(cyc):
        u, v, _ = g.edges[eid]
        assert {u, v} == {seq[k], seq[(k + 1) % len(seq)]}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(systole_graphs())
def test_tree_girth_decides_cat1_as_the_systole_does(g):
    """The systole, the girth of the shortest-path trees, is the per-edge
    scan's value (``oracles.unbounded_systole``): equal on exact graphs,
    within 1e-12 on floats, which sum the lengths in another order.  Its
    witness is a simple cycle whose lengths sum to it, and on failure
    ``cat1`` names that witness.  The girth, which takes every non-tree
    edge, equals the girth with the branch rule."""
    sys_, cyc = g.systole()
    want = oracles.unbounded_systole(g)[0]
    if g._kernel[0] or sys_ == math.inf:
        assert sys_ == want
    else:
        assert abs(sys_ - want) <= 1e-12
    if sys_ == math.inf:
        assert cyc is None
    else:
        assert_simple_cycle(g, cyc)
        total = sum(g.edges[e][2] for e in cyc)
        assert total == sys_ if g._kernel[0] else abs(total - sys_) <= 1e-12
    ok, witness = g.cat1()
    assert ok == (cmp_units(sys_, 2) >= 0)
    assert witness == (None if ok else cyc)
    assert g._girth[0] == oracles.branch_rule_girth(g)


def test_cat1_agrees_with_the_systole_where_summation_orders_straddle_the_band():
    """On float cycles whose length lies at the low end of the band of 2*pi,
    where one summation order or another can round to either side of that
    end, ``cat1`` answers as ``cmp_units`` on ``systole()``."""
    lo = oracles.units_band(2)[0]
    rng = random.Random(3)
    for _ in range(1000):
        k = rng.randint(3, 8)
        parts = [rng.random() + 0.5 for _ in range(k)]
        g = MetricGraph([f"v{i}" for i in range(k)],
                        [(i, (i + 1) % k, lo * p / sum(parts)) for i, p in enumerate(parts)])
        assert g.cat1()[0] == (cmp_units(g.systole()[0], 2) >= 0)


def test_girth_property_catches_tree_edges():
    """The girth property has teeth: a girth that lets tree edges in (a
    tree edge (p, c) of s's tree gives 2 d(s, c) and closes no cycle) breaks
    it on a drawn graph.  Leaving out only the branch test changes nothing
    (module docstring of ``metric_graph``), which the property checks by
    comparing the girth with ``oracles.branch_rule_girth``."""
    def with_tree_edges(g):
        lengths = g._kernel[1]
        return g._restore(min((dist[x] + lengths[eid] + dist[y]
                               for dist, _ in g._trees
                               for eid, (x, y, _) in enumerate(g.edges)
                               if dist[x] != math.inf),
                              default=math.inf))

    bad = find(systole_graphs(), lambda g: with_tree_edges(g) != g.systole()[0],
               settings=settings(derandomize=True, database=None))
    assert with_tree_edges(bad) < bad.systole()[0]


@st.composite
def sweep_graphs(draw):
    """(graph, lengths drawn): multigraphs on 1 to 9 vertices with random
    edges, so parallel edges and disconnected graphs come up, with one
    length, exact or a float (often a third, whose multiples round), or two
    lengths, exact or floats, the first edge taking one and the last the
    other, so the heap runs."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16)) if u != v]
    exact = st.builds(Fraction, st.integers(1, 7), st.sampled_from((1, 2, 3, 4, 5, 12)))
    kind = draw(st.sampled_from(("exact", "float", "two exact", "two float")))
    one = draw(exact)
    if kind == "float":
        one = draw(st.one_of(st.just(1 / 3), st.floats(0.01, 2.0)))
    other = draw(exact.filter(lambda x: x != one))
    if kind == "two float":
        one, other = float(one), float(other)
    lengths = [one] * len(pairs)
    if kind.startswith("two") and len(pairs) > 1:
        lengths = [one] + [draw(st.sampled_from((one, other))) for _ in pairs[2:]] + [other]
    return MetricGraph([f"v{i}" for i in range(n)],
                       [(u, v, ln) for (u, v), ln in zip(pairs, lengths)]), set(lengths)


def _rows(g: MetricGraph, tree: tuple[dict, dict]) -> tuple[list, list]:
    """An ``oracles._plain_dijkstra`` tree as rows indexed by vertex."""
    dist, prev = tree
    return ([dist.get(w, math.inf) for w in range(len(g.vertices))],
            [prev.get(w) for w in range(len(g.vertices))])


def _antipode_answer(g: MetricGraph, p: GraphPoint) -> tuple:
    ant = g.antipode_set(p)
    return ant.points, ant.intervals, ant.nonempty, ant.discrete


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sweep_graphs())
def test_tree_rows_are_the_heap_dijkstra_trees(drawn):
    """From every source the rows (dist, prev) are the trees of the heap
    Dijkstra over dicts (``oracles._plain_dijkstra``), value for value and
    type for type: by the layer sweep on one-length graphs, exact or float,
    and by the heap on two-length ones.  A copy of the graph handed the
    oracle's rows answers ``systole``, ``diameter`` and ``antipode_set``
    (from every vertex and the midpoint of the first edge) exactly as the
    graph does."""
    g, lengths = drawn
    assert (g._kernel[3] is not None) == (len(lengths) == 1)
    want = [_rows(g, oracles._plain_dijkstra(g, s)) for s in range(len(g.vertices))]
    for (dist, prev), (want_dist, want_prev) in zip(g._trees, want):
        assert list(map(repr, dist)) == list(map(repr, want_dist))
        assert prev == want_prev
    twin = MetricGraph.__new__(MetricGraph)._set(g.vertices, g.edges)
    twin.__dict__["_trees"] = want
    assert repr(g.systole()) == repr(twin.systole())
    assert g.diameter() == twin.diameter()
    points = [GraphPoint(vertex=v) for v in range(len(g.vertices))]
    if g.edges:
        points.append(g.point(0, g.edges[0][2] / 2))
    for p in points:
        assert _antipode_answer(g, p) == _antipode_answer(twin, p)


def test_exact_graphs_return_fractions(heawood):
    g = lengthened(graph_of(heawood), 3)
    d, wit = g.diameter()
    s, _ = g.systole()
    assert all(isinstance(x, Fraction) for x in
               (d, s, g.d(0, 5), g.distance(*wit), *g.vertex_distances(2).values()))
    assert all(isinstance(p.t, Fraction) for p in wit if not p.is_vertex)
    f = MetricGraph(g.vertices, [(u, v, float(ln)) for u, v, ln in g.edges])
    assert isinstance(f.diameter()[0], float) and isinstance(f.d(0, 5), float)


# -- the diameter against its oracles, and the diameter = pi gate -------------------


GATE_LENGTHS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), ONE]


BAND_ENDS = [y for end, step in zip(oracles.units_band(1), (-math.inf, math.inf))
             for y in (end, math.nextafter(end, -step), math.nextafter(end, step))]


@st.composite
def gate_graphs(draw):
    """Connected multigraphs, half of them scaled to diameter exactly pi, with
    exact, float (pi units, or radians read back as Angle does), mixed or
    band-edge lengths: the latter scale by an end of the band of pi or a
    neighbour of one, or draw lengths from ``BAND_LENGTHS``.  Drawn as
    (graph, exact, factor): the graph's lengths are about factor times those
    of the exact graph, which is None when a length came from
    ``BAND_LENGTHS``."""
    n = draw(st.integers(2, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 8))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            pairs.append((u, v))
    lengths = [draw(st.sampled_from(GATE_LENGTHS)) for _ in pairs]
    names = [f"v{i}" for i in range(n)]
    if draw(st.booleans()):
        diam = MetricGraph(names, [(u, v, ln) for (u, v), ln in zip(pairs, lengths)]).diameter()[0]
        lengths = [ln / diam for ln in lengths]
    kind = draw(st.sampled_from(("exact", "float", "radians", "mixed", "band")))
    factor = draw(st.sampled_from(BAND_ENDS))
    exact = MetricGraph(names, [(u, v, ln) for (u, v), ln in zip(pairs, lengths)])

    def length(ln):
        nonlocal exact
        if kind == "radians":
            return Angle(rad=float(ln) * math.pi).pi_units
        if kind == "band" and draw(st.booleans()):
            exact = None
            return draw(st.sampled_from(BAND_LENGTHS))
        if kind == "band":
            return float(ln) * factor
        if kind == "float" or (kind == "mixed" and draw(st.booleans())):
            return float(ln)
        return ln

    g = MetricGraph(names, [(u, v, length(ln)) for (u, v), ln in zip(pairs, lengths)])
    return g, exact, (factor if kind == "band" else 1)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(gate_graphs())
def test_diameter_matches_the_oracles(drawn):
    """An exact graph's diameter is the grid oracle's; a float graph's is
    within 1e-12 of its exact graph's times the band factor, or, when its
    lengths came from ``BAND_LENGTHS``, within 1e-6 of the sampling oracle.
    Every witness is at the diameter."""
    g, exact, factor = drawn
    d = g.diameter()[0]
    if exact is None:
        assert abs(d - oracles.sampling_diameter(len(g.vertices), g.edges)) <= 1e-6
    elif isinstance(d, Fraction):
        assert d == full_scan_diameter(exact)
    else:
        assert abs(d - factor * full_scan_diameter(exact)) <= 1e-12
    assert_witness(g)


def test_diameter_gate_at_the_band_ends():
    """recognize_dim1 on buildings whose diameter x is an end of the band of
    pi or a float next to one: theta graphs of three edges x, and K3,3 and
    K4,4 with edges x/2, whose float sums are exact.  Above the band the
    diameter gate fails with x; in it the graph is certified.  Below it the
    girth 2x is already below the band of 2*pi, and the systole gate fails
    first: girth >= 2*pi less the band's half-width puts the diameter, at
    least half the girth, inside the band of pi, so no graph that reaches the
    diameter gate has a diameter below the band."""
    from buildctl.corpus import gen_rank2_building
    from buildctl.dim1 import recognize_dim1
    k33, k44 = (graph_of(gen_rank2_building("complete_bipartite", s=s, t=s)) for s in (3, 4))
    for x in BAND_ENDS:
        for g in (MetricGraph(["a", "b"], [(0, 1, x)] * 3),
                  MetricGraph(k33.vertices, [(u, v, x / 2) for u, v, _ in k33.edges]),
                  MetricGraph(k44.vertices, [(u, v, x / 2) for u, v, _ in k44.edges])):
            assert g.diameter()[0] == x
            res = recognize_dim1(g)
            assert cmp_units(x, ONE) >= 0 or cmp_units(2 * x, 2) < 0
            if cmp_units(2 * x, 2) < 0:
                assert res.condition == "systole"
            elif cmp_units(x, ONE) > 0:
                assert res.condition == "diameter" and res.witness["diameter_pi_units"] == x
            else:
                assert res.verdict in ("suspension", "thick_building"), x
