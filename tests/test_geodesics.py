import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from buildctl import geodesics
from buildctl.angles import Angle
from buildctl.complexes import MetricComplex, suspension, vertex_link
from buildctl.corpus import gen_octahedron, gen_short_lune
from buildctl.geodesics import (ApartmentSurface, EdgeSegment, FaceSegment, GeodesicError,
                                PropagationFailure, cell_frame, extend_geodesic,
                                propagate_all, propagate_apartment, shoot)
from buildctl.metric_graph import GraphPoint, MetricGraph


def link_graph_of(c, name):
    lk = vertex_link(c, name)
    return lk, MetricGraph.from_complex(lk)


def link_edge(lk, g, a, b):
    return next(i for i, (u, v, _) in enumerate(g.edges)
                if {lk.vertices[u], lk.vertices[v]} == {a, b})


def test_cell_frame_is_isometric(octahedron):
    cell = octahedron.top_cells[0]
    frame = cell_frame(octahedron, cell)
    for i, j in itertools.combinations(sorted(cell), 2):
        want = octahedron.edge_length(i, j).radians
        got = math.acos(float(np.clip(np.dot(frame[i], frame[j]), -1, 1)))
        assert abs(want - got) <= 1e-9


def test_octahedron_interior_shot_reaches_antipode(octahedron):
    lk, g = link_graph_of(octahedron, "a0")
    eid = link_edge(lk, g, "b0", "c0")
    geos, exhausted = shoot(octahedron, "a0", GraphPoint(edge=eid, t=Fraction(1, 4)), math.pi)
    assert len(geos) == 1 and not exhausted    # a sampled direction is unique
    geo = geos[0]
    assert not geo.dead_end
    assert geo.end_vertex == octahedron.vertices.index("a1")
    assert abs(geo.length - math.pi) <= 1e-9
    cells = [s.cell for s in geo.segments if isinstance(s, FaceSegment)]
    assert len(cells) == 2                     # through two face interiors


def test_octahedron_edge_direction_runs_along_edges(octahedron):
    lk, g = link_graph_of(octahedron, "a0")
    b0 = lk.vertices.index("b0")
    geos, exhausted = shoot(octahedron, "a0", GraphPoint(vertex=b0), math.pi)
    assert len(geos) == 1 and not exhausted
    geo = geos[0]
    assert all(isinstance(s, EdgeSegment) for s in geo.segments)
    assert geo.end_vertex == octahedron.vertices.index("a1")


def test_dead_end_arriving_at_cone_point():
    # the short lune's pole links have circumference pi: a geodesic arriving
    # at a pole has an empty antipode set and cannot continue
    lune = gen_short_lune()
    lk, g = link_graph_of(lune, "y0")
    n_dir = lk.vertices.index("N")
    geos, exhausted = shoot(lune, "y0", GraphPoint(vertex=n_dir), math.pi)
    assert geos and not exhausted
    assert all(geo.dead_end for geo in geos)
    assert all(abs(geo.length - math.pi / 2) <= 1e-9 for geo in geos)


def test_extension_of_extension_consistent(octahedron):
    lk, g = link_graph_of(octahedron, "a0")
    eid = link_edge(lk, g, "b0", "c0")
    part, exhausted = shoot(octahedron, "a0", GraphPoint(edge=eid, t=Fraction(1, 4)), 1.0)
    assert len(part) == 1 and not exhausted
    full, exhausted = extend_geodesic(octahedron, part[0], math.pi)
    assert len(full) == 1 and not exhausted
    assert abs(full[0].length - math.pi) <= 1e-9
    assert full[0].end_vertex == octahedron.vertices.index("a1")


def test_shots_are_cut_at_the_length_asked_for(octahedron):
    """An along-edge run stops at the length asked for, inside the edge, and
    a face arc cut short of its exit vertex does not end there; a cut run
    extends on along its edge."""
    from buildctl.coxeter import coxeter_complex, named_matrix
    lk, g = link_graph_of(octahedron, "a0")
    (geo,), exhausted = shoot(octahedron, "a0", GraphPoint(vertex=lk.vertices.index("b0")), 1.0)
    assert not exhausted and geo.end_vertex is None and geo.length == 1.0
    assert [(s.u, s.v) for s in geo.segments] == [(0, octahedron.vertex_index("b0"))]
    (full,), exhausted = extend_geodesic(octahedron, geo, math.pi)
    assert full.end_vertex == octahedron.vertex_index("a1") and not exhausted
    assert abs(full.length - math.pi) <= 1e-12 and len(full.segments) == 2
    start = GraphPoint(edge=link_edge(lk, g, "b0", "c0"), t=Fraction(1, 4))
    (geo,), _ = shoot(octahedron, "a0", start, 3.0)
    assert geo.end_vertex is None and abs(geo.length - 3.0) <= 1e-12
    a3 = coxeter_complex(named_matrix("A3")).complex
    lk = vertex_link(a3, "w0.0")
    (geo,), _ = shoot(a3, "w0.0", GraphPoint(vertex=lk.vertices.index("w1.4")), 1.0)
    first, second = geo.segments
    assert first.length == a3.edge_length(*(a3.vertex_index(v) for v in ("w0.0", "w1.4"))).radians
    assert geo.end_vertex is None and abs(geo.length - 1.0) <= 1e-12 and second.length < 0.1


def _round_sphere_shots():
    """(complex, vertex, direction, length) for the octahedron and the A3, B3
    and H3 Coxeter complexes: from every third vertex, into every second
    link edge at 1/4, 1/3 and 1/2 of its length, for lengths 1, pi, 2*pi."""
    from buildctl.coxeter import CoxeterMatrix, coxeter_complex, named_matrix
    h3 = CoxeterMatrix(("a", "b", "c"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    for c in (gen_octahedron(), *(coxeter_complex(M).complex for M in
                                  (named_matrix("A3"), named_matrix("B3"), h3))):
        for v in c.vertices[::3]:
            g = link_graph_of(c, v)[1]
            for eid in range(0, len(g.edges), 2):
                for k in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                    for length in (1.0, math.pi, 2 * math.pi):
                        yield c, v, GraphPoint(edge=eid, t=k * g.edges[eid][2]), length


def test_round_sphere_shots_neither_dead_end_nor_fall_short():
    """On a round sphere every local geodesic extends (an antipode set of a
    link point of a 2*pi circle is one point, float offsets included): each
    of 891 shots returns geodesics, none a dead end, each of the length
    asked for."""
    shots = 0
    for c, v, start, length in _round_sphere_shots():
        geos, exhausted = shoot(c, v, start, length)
        assert geos and not exhausted, (v, start, length)
        for geo in geos:
            assert not geo.dead_end and abs(geo.length - length) <= 1e-9, (v, start, length)
        shots += 1
    assert shots == 891


def test_exhausted_branch_search_is_reported(k33):
    """A search that runs out of branches says so, also when no branch
    completed; one that suffices does not."""
    c = suspension(k33)
    start = GraphPoint(edge=0, t=Fraction(1, 4))
    assert shoot(c, "N", start, 1e6) == ([], True)
    geos, exhausted = shoot(c, "N", start, math.pi)
    assert len(geos) == 1 and not exhausted
    geos, exhausted = shoot(c, "N", start, math.pi, branch_budget=0)
    assert geos == [] and exhausted


def test_propagate_octahedron_whole(octahedron, octahedron_cert):
    ap = propagate_apartment(octahedron, "a0", ["b0", "c0", "b1", "c1"], y="a1")
    assert isinstance(ap, ApartmentSurface)
    assert len(ap.cells) == 8 and ap.euler == 2
    assert octahedron.vertices[ap.antipode_of_base] == "a1"


def test_propagate_requires_2pi_cycle():
    # the short lune's pole link is a genuine cell cycle of length pi != 2*pi
    lune = gen_short_lune()
    res = propagate_apartment(lune, "N", ["y0", "y1", "y2", "y3"])
    assert isinstance(res, PropagationFailure)
    assert "2*pi" in res.reason


def test_propagate_rejects_non_cell_cycle(octahedron):
    with pytest.raises(GeodesicError):
        propagate_apartment(octahedron, "a0", ["b0", "c0", "b1"])


def test_propagate_rejects_cycle_through_the_base(octahedron, tmp_path):
    """A link cycle that holds the base vertex itself is an input error that
    names the cycle, for ``propagate_apartment`` and ``propagate_all``;
    ``buildctl apartment`` exits 3 with that one line and no traceback."""
    import subprocess
    import sys
    want = "link cycle ['a0', 'b0', 'c0'] holds the base vertex a0"
    for propagate in (propagate_apartment, propagate_all):
        with pytest.raises(GeodesicError) as err:
            propagate(octahedron, "a0", ["a0", "b0", "c0"])
        assert str(err.value) == want
    f = tmp_path / "oct.json"
    f.write_text(octahedron.dumps())
    r = subprocess.run([sys.executable, "-m", "buildctl.cli", "apartment", str(f), "--from",
                        "a0", "--cycle", "a0", "b0", "c0"], capture_output=True, text=True)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == f"buildctl: {want}\n"


def test_propagate_rejects_non_antipodal_y(octahedron):
    res = propagate_apartment(octahedron, "a0", ["b0", "c0", "b1", "c1"], y="b0")
    assert isinstance(res, PropagationFailure)
    assert "not antipodal" in res.reason
    assert abs(res.witness["distance"] - math.pi / 2) <= 1e-6


def test_propagate_suspended_hexagons(heawood, s0_heawood, heawood_cert):
    g = MetricGraph.from_complex(heawood)
    surfaces = set()
    for apt in oracles.dim1_apartments(heawood_cert):
        cyc = [heawood.vertices[v] for v in apt.vertices]
        ap = propagate_apartment(s0_heawood, "N", cyc, y="S")
        assert isinstance(ap, ApartmentSurface)
        assert len(ap.cells) == 12 and ap.euler == 2
        assert s0_heawood.vertices[ap.antipode_of_base] == "S"
        surfaces.add(ap.cells)
    assert len(surfaces) == 28


def test_propagate_all_finds_every_closure(s0_heawood):
    # through a point vertex, the fan of a link apartment extends to several
    # suspended hexagons; propagate_all enumerates them
    lk, g = link_graph_of(s0_heawood, "p0")
    apts, exhaustive = oracles.enumerate_cycles_fractions(g)
    assert exhaustive
    total = set()
    for a in apts:
        cyc = [lk.vertices[v] for v in a.vertices]
        surfaces, exhausted = propagate_all(s0_heawood, "p0", cyc)
        assert not exhausted
        assert surfaces
        for s in surfaces:
            total.add(s.cells)
    # every apartment through p0 appears: 12 of the 28 hexagons contain p0
    assert len(total) == 12


def test_every_apartment_through_a_fan_takes_its_antipode(s0_heawood, s0_heawood_cert):
    """For every (link fan, apartment) pair of S0*Heawood, the antipode y of
    the base in that apartment is a valid endpoint: propagate_apartment
    returns an apartment holding the fan and y, with y as the antipode.  A
    search that kept the first closed surface through the fan refused 126
    of these 224 pairs."""
    c = s0_heawood
    pairs = 0
    for x in c.vertices:
        xi = c.vertex_index(x)
        lk, g = link_graph_of(c, x)
        for a in oracles.enumerate_cycles_fractions(g)[0]:
            ring = [lk.vertices[v] for v in a.vertices]
            fan = {tuple(sorted((xi, c.vertex_index(u), c.vertex_index(w))))
                   for u, w in zip(ring, ring[1:] + ring[:1])}
            for apt in s0_heawood_cert.apartments:
                if not fan <= set(apt.cells):
                    continue
                pos = oracles.develop_apartment(c, apt.cells, xi)
                y = next(v for v, p in pos.items() if np.linalg.norm(p + pos[xi]) <= 1e-6)
                res = propagate_apartment(c, x, ring, y=c.vertices[y])
                assert isinstance(res, ApartmentSurface), (x, ring, c.vertices[y])
                assert fan <= set(res.cells) and res.antipode_of_base == y
                pairs += 1
    assert pairs == 224


def test_develop_apartment_isometry(octahedron):
    """The oracle development keeps every edge length."""
    pos = oracles.develop_apartment(octahedron, octahedron.top_cells,
                                    octahedron.vertices.index("a0"))
    assert len(pos) == 6
    for i, j in octahedron.edges:
        want = octahedron.edge_length(i, j).radians
        got = math.acos(float(np.clip(np.dot(pos[i], pos[j]), -1, 1)))
        assert abs(want - got) <= 1e-9


def test_propagation_matches_validator(s0_heawood, s0_heawood_cert):
    # propagated apartments satisfy the closed-surface checks used by the
    # recognizer: every edge twice, every vertex angle 2*pi
    from buildctl.complexes import _vertex_angle
    for a in s0_heawood_cert.apartments[:5]:
        edge_count = {}
        angle_sum = {}
        for cell in a.cells:
            for e in itertools.combinations(cell, 2):
                edge_count[e] = edge_count.get(e, 0) + 1
            for v in cell:
                x, y = [w for w in cell if w != v]
                angle_sum[v] = angle_sum.get(v, Fraction(0)) + \
                    _vertex_angle(s0_heawood, v, x, y).pi_units
        assert set(edge_count.values()) == {2}
        assert all(s == Fraction(2) for s in angle_sum.values())


def test_dim1_extension_ends_at_antipodes(heawood):
    # all non-backtracking length-pi walks from a fixed first edge are global
    # geodesics in a thick rank-2 building; their endpoints are antipodes
    g = MetricGraph.from_complex(heawood)
    p0 = heawood.vertices.index("p0")
    geos, exhausted = shoot(heawood, "p0", GraphPoint(vertex=0), math.pi)
    assert geos and not exhausted and not any(geo.dead_end for geo in geos)
    ends = {geo.end_vertex for geo in geos}
    ant = {pt.vertex for pt in g.antipode_set(GraphPoint(vertex=p0)).points}
    assert ends == ant


def test_dim1_dead_end_at_valence_one():
    path = MetricComplex("spherical", ["a", "b"], [(0, 1)],
                         [(0, 1, Angle.exact(1, 2))])
    geos, exhausted = shoot(path, "a", GraphPoint(vertex=0), math.pi)
    assert len(geos) == 1 and not exhausted
    assert geos[0].dead_end
    assert abs(geos[0].length - math.pi / 2) <= 1e-12


def test_no_dead_ends_in_certified_building(s0_heawood):
    # local extendability holds in a building: a sweep of directions from a
    # pole and from a point vertex always reaches length pi
    for start, k in (("N", 5), ("p0", 5)):
        lk, g = link_graph_of(s0_heawood, start)
        for eid in range(min(k, len(g.edges))):
            ln = g.edges[eid][2]
            for frac in (Fraction(1, 3), Fraction(1, 2)):
                geos, exhausted = shoot(s0_heawood, start,
                                        GraphPoint(edge=eid, t=frac * ln), math.pi)
                assert geos and not exhausted
                for geo in geos:
                    assert not geo.dead_end
                    assert abs(geo.length - math.pi) <= 1e-9


def test_shooting_grid_with_refinement_on_a3():
    """A length-pi shot from an A3 vertex through the interior of a link
    edge crosses cell interiors and ends at the vertex's antipode, the
    vertex at the opposite point in the model's reference coordinates."""
    from buildctl.coxeter import coxeter_complex, named_matrix
    model = coxeter_complex(named_matrix("A3"))
    cx = model.complex
    # the rounded-key model numbers its vertices as the coset model does
    ref = oracles.reference_coxeter_complex(named_matrix("A3"), 10 ** 6)
    assert ref["names"] == list(cx.vertices)
    coords = ref["vertex_coords"]
    for v in range(len(cx.vertices)):
        antipode = next(u for u in range(len(cx.vertices))
                        if np.linalg.norm(coords[u] + coords[v]) <= 1e-9)
        lk, g = link_graph_of(cx, cx.vertices[v])
        for eid in (0, len(g.edges) - 1):
            t = g.edges[eid][2] / 3
            geos, exhausted = shoot(cx, cx.vertices[v], GraphPoint(edge=eid, t=t), math.pi)
            assert len(geos) == 1 and not exhausted, (v, eid)
            assert geos[0].end_vertex == antipode and not geos[0].dead_end, (v, eid)
            assert abs(geos[0].length - math.pi) <= 1e-9
            assert sum(isinstance(s, FaceSegment) for s in geos[0].segments) >= 2


def _ring(cells, x) -> list:
    """The link cycle of x in a thin surface, in order around x."""
    sides = [tuple(v for v in t if v != x) for t in cells if x in t]
    ring = list(sides[0])
    while len(ring) < len(sides):
        ring.append(next(b if a == ring[-1] else a for a, b in sides
                         if ring[-1] in (a, b) and ring[-2] not in (a, b)))
    return ring


def test_model_antipodes_and_distances_match_the_developed_apartment(
        monkeypatch, s0_heawood, s0_heawood_cert, k33, tutte_coxeter):
    """In every apartment of S0*Heawood, S0*K3,3 and S0*GQ(2,2), and in the
    A3, B3 and H3 Coxeter complexes, the antipode and the distances that
    ``propagate_apartment`` reads off the model Coxeter complex are those of
    the apartment developed onto the sphere (``oracles.develop_apartment``):
    y at the developed antipode of the base is accepted, and every other
    vertex y of the apartment is refused as not antipodal, with the
    developed angle to within 1e-12 rad away from 0 and pi, where acos is
    ill-conditioned.  The base is a vertex of each type in a thin complex
    and of one type per apartment, in turn, otherwise; each complex's
    certificate is computed once."""
    from buildctl.coxeter import CoxeterMatrix, coxeter_complex, named_matrix
    from buildctl.recognizer import check_spherical
    h3 = CoxeterMatrix(("a", "b", "c"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    certs = {id(s0_heawood): s0_heawood_cert}
    complexes = [s0_heawood, suspension(k33), suspension(tutte_coxeter),
                 *(coxeter_complex(M).complex for M in (named_matrix("A3"),
                                                        named_matrix("B3"), h3))]
    for c in complexes:
        certs.setdefault(id(c), check_spherical(c))
    monkeypatch.setattr(geodesics, "check_spherical", lambda c, budget: certs[id(c)])
    counts = []
    for c in complexes:
        cert = certs[id(c)]
        types = cert.vertex_types
        pairs = 0
        for k, apt in enumerate(cert.apartments):
            thin = len(cert.apartments) == 1
            for typ in (range(3) if thin else (k % 3,)):
                x = next(v for v in apt.vertices if types[v] == typ)
                ring = _ring(apt.cells, x)
                pos = oracles.develop_apartment(c, apt.cells, x)
                anti = next(v for v, p in pos.items() if np.linalg.norm(p + pos[x]) <= 1e-6)
                res = propagate_apartment(c, x, ring, y=anti)
                assert isinstance(res, ApartmentSurface) and res.antipode_of_base == anti
                for y in apt.vertices:
                    d = math.acos(float(np.clip(pos[x] @ pos[y], -1.0, 1.0)))
                    if y == anti or not 1e-6 < d < math.pi - 1e-6:
                        continue
                    res = propagate_apartment(c, x, ring, y=y)
                    assert res.reason == "prescribed endpoint is not antipodal to the base"
                    assert abs(res.witness["distance"] - d) <= 1e-12, (c.vertices[x], y)
                    pairs += 1
        counts.append((len(cert.apartments), pairs))
    assert counts == [(28, 168), (9, 36), (90, 720), (1, 36), (1, 72), (1, 180)]
