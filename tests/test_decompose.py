import math
from fractions import Fraction

import pytest

import oracles
from buildctl.angles import Angle
from buildctl.complexes import (MetricComplex, discrete_complex,
                                orthogonal_join, vertex_link)
from buildctl.decompose import (JoinFactor, euclidean_factor_hint,
                                find_suspension_poles, join_decompose,
                                most_singular_vertex, suspension_factor)
from buildctl.metric_graph import GraphPoint, MetricGraph
from buildctl.recognizer import (BuildingCertificate, check_spherical,
                                 recognize_dim1)


def euclidean_cone(base: MetricComplex, apex="apex") -> MetricComplex:
    """Right cone: apex edges 1, base edges sqrt(2), so apex angles are pi/2."""
    names = [apex] + list(base.vertices)
    cells = [tuple(sorted([0] + [v + 1 for v in cell])) for cell in base.top_cells]
    lengths = [(0, v + 1, Angle(rad=1.0)) for v in range(len(base.vertices))]
    lengths += [(i + 1, j + 1, Angle(rad=math.sqrt(2.0))) for i, j in base.edges]
    return MetricComplex("euclidean", names, cells, lengths)


def test_octahedron_suspension_tower(octahedron):
    sf = suspension_factor(octahedron)
    assert sf is not None
    assert len(sf.pole_pairs) == 2
    assert sf.base is not None and len(sf.base.vertices) == 2
    # two peeled S0 pairs plus the S0 base: three S0 join factors in total
    peeled = {frozenset(p) for p in sf.pole_pairs}
    assert len(peeled) == 2


def test_s0_heawood_suspension(s0_heawood, heawood):
    sf = suspension_factor(s0_heawood)
    assert sf.pole_pairs == [("N", "S")]
    assert set(sf.base.vertices) == set(heawood.vertices)
    # pole test: the antipode of a pole is exactly the other pole
    assert find_suspension_poles(s0_heawood) == (
        s0_heawood.vertices.index("N"), s0_heawood.vertices.index("S"))


def test_heawood_no_suspension(heawood):
    assert suspension_factor(heawood) is None


def test_k33_no_suspension(k33):
    # a1 and a2 sit at distance pi, but a3 is not at pi/2 from both
    assert find_suspension_poles(k33) is None


def test_subdivided_suspension_poles():
    from buildctl.complexes import suspension
    sy = suspension(discrete_complex(["y0", "y1", "y2"]))
    sf = suspension_factor(sy)
    assert sf.pole_pairs == [("N", "S")]
    assert len(sf.base.vertices) == 3


def test_join_decompose_k33(k33):
    cert = recognize_dim1(k33)
    factors = join_decompose(k33, cert)
    assert len(factors) == 2
    sizes = sorted(len(f.complex.vertices) for f in factors)
    assert sizes == [3, 3]
    for f in factors:
        assert f.complex.dimension == 0
        assert isinstance(f.certificate, BuildingCertificate)
        assert f.certificate.verdict == "thick_building"


def test_join_decompose_octahedron(octahedron, octahedron_cert):
    factors = join_decompose(octahedron, octahedron_cert)
    assert len(factors) == 3
    for f in factors:
        assert len(f.complex.vertices) == 2
        assert f.certificate.verdict == "thin_building"


def test_join_decompose_irreducible(heawood, heawood_cert):
    factors = join_decompose(heawood, heawood_cert)
    assert len(factors) == 1
    assert factors[0].complex is heawood


def test_reassembly_lengths_verified(k33):
    cert = recognize_dim1(k33)
    # does not raise: the join of the factors reassembles K33 exactly
    join_decompose(k33, cert)


def test_factor_certificates_reverify(octahedron, octahedron_cert):
    for f in join_decompose(octahedron, octahedron_cert):
        again = check_spherical(f.complex)
        assert isinstance(again, BuildingCertificate)
        assert again.verdict == f.certificate.verdict


def test_hint_irreducible_at_window_vertex(a2_window):
    w = a2_window
    origin = w.complex.vertices.index("0_0")
    L = vertex_link(w.complex, origin)
    cert = recognize_dim1(L)
    hints = euclidean_factor_hint(w.complex, "0_0", cert)
    assert hints == [{"kind": "irreducible", "rank": 2, "m": 3, "thick": False}]


def test_hint_r3_at_octahedral_link(octahedron):
    cone = euclidean_cone(octahedron)
    L = vertex_link(cone, "apex")
    cert = check_spherical(L)
    assert cert.verdict == "thin_building"
    hints = euclidean_factor_hint(cone, "apex", cert)
    assert hints == [{"kind": "flat", "dim": 3}]


def test_hint_two_trees_at_k33_link(k33):
    cone = euclidean_cone(k33)
    L = vertex_link(cone, "apex")
    cert = recognize_dim1(L)
    assert cert.verdict == "thick_building" and cert.m == 2
    hints = euclidean_factor_hint(cone, "apex", cert)
    assert hints == [{"kind": "tree", "branching": 3},
                     {"kind": "tree", "branching": 3}]


def test_hint_tree_and_flat_at_suspension_link():
    from buildctl.complexes import suspension
    base = suspension(discrete_complex(["y0", "y1", "y2"]))
    cone = euclidean_cone(base)
    L = vertex_link(cone, "apex")
    cert = recognize_dim1(L)
    assert cert.verdict == "suspension"
    hints = euclidean_factor_hint(cone, "apex", cert)
    assert {"kind": "tree", "branching": 3} in hints
    assert {"kind": "flat", "dim": 1} in hints


def test_most_singular_vertex_deterministic(a2_window):
    from buildctl.recognizer import check_euclidean
    cert = check_euclidean(a2_window.complex, "window")
    v, hints = most_singular_vertex(a2_window.complex, cert.link_certificates)
    # all interior links are the same irreducible hexagon: lexicographically
    # first interior vertex name wins
    interiors = sorted(a2_window.complex.vertices[vi]
                       for (vi,) in cert.link_certificates)
    assert a2_window.complex.vertices[v] == interiors[0]
    # with the winner's factor hint, which is the certificate's factors
    assert hints == euclidean_factor_hint(a2_window.complex, interiors[0],
                                          cert.link_certificates[(v,)][1])
    assert hints == cert.factors


def _tree_product(edges1, n1, edges2, n2) -> MetricComplex:
    """The product of two trees on vertices 0..n1-1 and 0..n2-1, unit
    squares cut on a diagonal; vertex (u, w) is named p<u>_<w>."""
    at = lambda u, w: u * n2 + w
    one, diagonal = Angle(rad=1.0), Angle(rad=math.sqrt(2))
    cells, lengths = [], {}
    for u, x in edges1:
        for w, y in edges2:
            a, b, c, d = at(u, w), at(u, y), at(x, w), at(x, y)
            cells += [(a, b, d), (a, c, d)]
            lengths.update({(a, b): one, (c, d): one, (a, c): one, (b, d): one, (a, d): diagonal})
    return MetricComplex("euclidean", [f"p{u}_{w}" for u in range(n1) for w in range(n2)],
                         cells, [(*e, a) for e, a in lengths.items()])


def test_subdivided_k33_link_hints_two_trees_of_three():
    """In the product of the trees 1-0-2-{3, 4} and K1,3, p2_0's link is
    K3,3 with each edge split by a diagonal: its hints are the two sides of
    the suppressed graph, tree 3 and tree 3, not counts that take in the
    subdivision points (tree 5 and tree 7), and so are the factors."""
    from buildctl.recognizer import check_euclidean
    c = _tree_product([(0, 1), (0, 2), (2, 3), (2, 4)], 5, [(0, 1), (0, 2), (0, 3)], 4)
    cert = check_euclidean(c, "window")
    link_cert = cert.link_certificates[(c.vertex_index("p2_0"),)][1]
    assert link_cert.m == 2 and link_cert.verdict == "thick_building"
    want = [{"kind": "tree", "branching": 3}, {"kind": "tree", "branching": 3}]
    assert euclidean_factor_hint(c, "p2_0", link_cert) == want
    assert cert.factors == want


def test_flat_point_is_no_irreducible_factor():
    """In (path 1-0-2-{3, 4, 5}) x (path 0-1-2-3), p0_1's link is a 2 pi
    circle of six edges, pi/2 and pi/4, whose certificate has no dihedral
    m: a flat point, hinted flat 2, which scores 0.  So p2_1 (link S0 * four
    points: tree 4 and flat 1) is the most singular vertex and gives the
    factors.  The hexagon links (m = 3) of an A2 window stay irreducible."""
    from buildctl.corpus import gen_a2_window
    from buildctl.recognizer import check_euclidean
    c = _tree_product([(1, 0), (0, 2), (2, 3), (2, 4), (2, 5)], 6, [(0, 1), (1, 2), (2, 3)], 4)
    cert = check_euclidean(c, "window")
    link_cert = cert.link_certificates[(c.vertex_index("p0_1"),)][1]
    assert link_cert.verdict == "thin_building" and link_cert.m is None
    assert euclidean_factor_hint(c, "p0_1", link_cert) == [{"kind": "flat", "dim": 2}]
    v, hints = most_singular_vertex(c, cert.link_certificates)
    assert c.vertices[v] == "p2_1"
    assert hints == cert.factors == [{"kind": "flat", "dim": 1},
                                     {"kind": "tree", "branching": 4}]
    window = check_euclidean(gen_a2_window(3).complex, "window")
    assert window.factors == [{"kind": "irreducible", "m": 3, "rank": 2, "thick": False}]


def _factor_inputs():
    """The A2 windows of radius 3 to 6, the radius-3 window with one edge
    1e-13 of its length longer (its two end links are another class), the
    three-page book, whose spine links name poles, the path 1-0-2-{3, 4}
    times the star K1,3, whose interior vertex p0_0 (link K2,3 subdivided)
    scores less than the later p2_0 (link K3,3 subdivided), and the
    Euclidean cones over K3,3, the octahedron, S0 * (three points), the B3
    Coxeter complex and S0*K3,3."""
    from buildctl.complexes import suspension
    from buildctl.corpus import gen_a2_window, gen_octahedron, gen_rank2_building
    from buildctl.coxeter import coxeter_complex, named_matrix
    from test_recognizer import _euclidean_cone, _length_edits, _three_page_book
    windows = [gen_a2_window(r).complex for r in range(3, 7)]
    k33 = gen_rank2_building("complete_bipartite", 3)
    bases = [k33, gen_octahedron(), suspension(discrete_complex(["y0", "y1", "y2"])),
             coxeter_complex(named_matrix("B3")).complex, suspension(k33)]
    trees = _tree_product([(0, 1), (0, 2), (2, 3), (2, 4)], 5, [(0, 1), (0, 2), (0, 3)], 4)
    return (windows + [_length_edits(windows[0])[2], _three_page_book(), trees]
            + [euclidean_cone(b) for b in bases[:3]] + [_euclidean_cone(b) for b in bases[3:]])


def test_factor_hints_read_once_per_link_class_are_the_per_vertex_hints():
    """``most_singular_vertex`` reads one vertex per link class; its vertex
    and hints, and the certificate's ``factors``, are those of the oracle
    that reads every vertex, also where a later class scores higher."""
    from buildctl.recognizer import check_euclidean
    for c in _factor_inputs():
        cert = check_euclidean(c, "window")
        assert isinstance(cert, BuildingCertificate), c.provenance
        want = oracles.per_vertex_most_singular(c, cert.link_certificates)
        assert most_singular_vertex(c, cert.link_certificates) == want
        assert cert.factors == want[1]
        if c.vertices[0] == "p0_0":         # the tree product: the later class wins
            assert c.vertices[want[0]] == "p2_0"


def test_join_decompose_suspended_heawood(s0_heawood, s0_heawood_cert):
    factors = join_decompose(s0_heawood, s0_heawood_cert)
    assert len(factors) == 2
    by_dim = {f.complex.dimension: f for f in factors}
    assert set(by_dim) == {0, 1}
    assert by_dim[0].certificate.verdict == "thin_building"      # the S0 factor
    assert by_dim[1].certificate.verdict == "thick_building"     # Heawood
    assert by_dim[1].certificate.m == 3


def _pole_inputs():
    """Every links-workload, ``_DIM2`` and ``_WALKED`` input, the octahedron
    with pi/3 edges (every vertex of valence nv - 2, no pi/2 edge), an A2
    window, S0*S0*K3,3 and each with one edge 1 % and 1e-13 off
    (``_length_edits``), with their vertex order reversed and with every
    vertex link of theirs."""
    from buildctl.corpus import gen_a2_window, gen_octahedron, gen_rank2_building
    from buildctl.complexes import suspension
    from test_recognizer import _DIM2, _WALKED, _length_edits, _links_inputs, _relabelled
    octa = gen_octahedron()
    short = MetricComplex(octa.geometry, octa.vertices, octa.top_cells,
                          [(i, j, Angle.exact(1, 3)) for i, j in octa.edges])
    k33 = gen_rank2_building("complete_bipartite", s=3, t=3)
    bases = [*_links_inputs(), *(make() for make in _DIM2.values()),
             *(c for make in _WALKED.values() for c in make()), short,
             gen_a2_window(3).complex, suspension(suspension(k33))]
    out = []
    for c in bases:
        for e in _length_edits(c) if c.geometry == "spherical" else [c]:
            for k in (e, _relabelled(e, list(range(len(e.vertices)))[::-1])):
                out.append(k)
                if k.dimension >= 1:
                    out += [vertex_link(k, v) for v in range(len(k.vertices))]
    return out


def test_pole_candidates_keep_the_all_pairs_answer():
    """The pole search over pairs of vertices of valence nv - 2 finds the
    pair that the search over every vertex pair finds
    (``oracles.all_pairs_suspension_poles``), on every ``_pole_inputs``
    complex.  S0*S0*K3,3 has two pole pairs, all four poles candidates, and
    both searches name the first; the octahedron with pi/3 edges has six
    candidates and no poles."""
    import oracles
    from buildctl.complexes import suspension
    from buildctl.corpus import gen_octahedron, gen_rank2_building
    from buildctl.decompose import _pole_candidates
    found = 0
    for c in _pole_inputs():
        poles = find_suspension_poles(c)
        assert poles == oracles.all_pairs_suspension_poles(c), c.vertices
        found += poles is not None
    assert found > 100
    twice = suspension(suspension(gen_rank2_building("complete_bipartite", s=3, t=3)))
    assert [twice.vertices[v] for v in _pole_candidates(twice)] == ["N0", "S0", "N", "S"]
    assert find_suspension_poles(twice) == (0, 1)
    octa = gen_octahedron()
    short = MetricComplex(octa.geometry, octa.vertices, octa.top_cells,
                          [(i, j, Angle.exact(1, 3)) for i, j in octa.edges])
    assert _pole_candidates(short) == list(range(6))
    assert find_suspension_poles(short) is None


def test_pole_oracle_catches_a_valence_off_by_one(monkeypatch):
    """With the candidates taken at valence nv - 1 instead of nv - 2, the
    pole search disagrees with the all-pairs oracle on some input."""
    import oracles
    import buildctl.decompose as decompose

    def off_by_one(c):
        valence = [sum(v in e for e in c.edges) for v in range(len(c.vertices))]
        return [v for v, k in enumerate(valence) if k == len(c.vertices) - 1]

    monkeypatch.setattr(decompose, "_pole_candidates", off_by_one)
    assert any(find_suspension_poles(c) != oracles.all_pairs_suspension_poles(c)
               for c in _pole_inputs())
