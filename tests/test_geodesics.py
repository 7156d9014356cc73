import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from buildctl.angles import Angle
from buildctl.complexes import MetricComplex, suspension, vertex_link
from buildctl.corpus import gen_short_lune
from buildctl.geodesics import (ApartmentSurface, EdgeSegment, FaceSegment,
                                GeodesicError, LocalGeodesic,
                                PropagationFailure, cell_frame,
                                develop_apartment, extend_geodesic,
                                geodesic_between, propagate_all,
                                propagate_apartment, shoot)
from buildctl.metric_graph import GraphPoint, MetricGraph
from buildctl.recognizer import enumerate_apartments_dim1


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


def test_octahedron_edge_direction_runs_along_edges(octahedron):
    lk, g = link_graph_of(octahedron, "a0")
    b0 = lk.vertices.index("b0")
    geos, exhausted = shoot(octahedron, "a0", GraphPoint(vertex=b0), math.pi)
    assert len(geos) == 1 and not exhausted
    geo = geos[0]
    assert all(isinstance(s, EdgeSegment) for s in geo.segments)
    assert geo.end_vertex == octahedron.vertices.index("a1")


def test_geodesic_between_adjacent(octahedron):
    geo = geodesic_between(octahedron, "a0", "b0")
    assert isinstance(geo, LocalGeodesic)
    assert abs(geo.length - math.pi / 2) <= 1e-9


def test_geodesic_between_antipodal_with_direction(octahedron):
    lk, g = link_graph_of(octahedron, "a0")
    eid = link_edge(lk, g, "b0", "c1")
    geo = geodesic_between(octahedron, "a0", "a1",
                           initial_direction=GraphPoint(edge=eid, t=Fraction(1, 3)))
    assert isinstance(geo, LocalGeodesic)
    assert abs(geo.length - math.pi) <= 1e-9
    cells = [s.cell for s in geo.segments if isinstance(s, FaceSegment) and s.length > 1e-12]
    assert len(cells) == 2                     # through two face interiors


def test_geodesic_between_reports_exhausted_branches(octahedron):
    """A search whose shots ran out of branches says so in its failure; a
    search with enough branches finds the geodesic."""
    res = geodesic_between(octahedron, "a0", "a1", branch_budget=0)
    assert res == {"failure": "no geodesic found", "best_miss": None,
                   "branch_budget_exceeded": True}
    assert isinstance(geodesic_between(octahedron, "a0", "a1"), LocalGeodesic)


def test_heawood_prescribed_direction_unique(heawood):
    # antipodal pair at combinatorial distance 3; the geodesic through a fixed
    # first edge is unique
    g = MetricGraph.from_complex(heawood)
    p = heawood.vertices.index("p0")
    q = heawood.vertices.index("l1")
    nbr = next(w for w, eid, _ in g.adjacency[p])
    geo = geodesic_between(heawood, "p0", heawood.vertices[q],
                           initial_direction=GraphPoint(vertex=nbr))
    assert isinstance(geo, LocalGeodesic)
    assert abs(geo.length - math.pi) <= 1e-9
    assert geo.segments[0].u == p and geo.segments[0].v == nbr


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


def test_propagate_rejects_non_antipodal_y(octahedron):
    res = propagate_apartment(octahedron, "a0", ["b0", "c0", "b1", "c1"], y="b0")
    assert isinstance(res, PropagationFailure)
    assert "not antipodal" in res.reason
    assert abs(res.witness["distance"] - math.pi / 2) <= 1e-6


def test_propagate_suspended_hexagons(heawood, s0_heawood, heawood_cert):
    g = MetricGraph.from_complex(heawood)
    surfaces = set()
    for apt in heawood_cert.apartments:
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
    apts, exhaustive = enumerate_apartments_dim1(g)
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
        for a in enumerate_apartments_dim1(g)[0]:
            ring = [lk.vertices[v] for v in a.vertices]
            fan = {tuple(sorted((xi, c.vertex_index(u), c.vertex_index(w))))
                   for u, w in zip(ring, ring[1:] + ring[:1])}
            for apt in s0_heawood_cert.apartments:
                if not fan <= set(apt.cells):
                    continue
                pos = develop_apartment(c, apt.cells, xi)
                y = next(v for v, p in pos.items() if np.linalg.norm(p + pos[xi]) <= 1e-6)
                res = propagate_apartment(c, x, ring, y=c.vertices[y])
                assert isinstance(res, ApartmentSurface), (x, ring, c.vertices[y])
                assert fan <= set(res.cells) and res.antipode_of_base == y
                pairs += 1
    assert pairs == 224


def test_develop_apartment_isometry(octahedron):
    pos = develop_apartment(octahedron, octahedron.top_cells,
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
    # same-type vertices are never adjacent; the geodesic between them crosses
    # cell interiors and is found by the direction grid plus bisection
    from buildctl.coxeter import coxeter_complex, named_matrix
    import numpy as np
    model = coxeter_complex(named_matrix("A3"))
    cx = model.complex
    coords = model.vertex_coords
    hits = 0
    for i in range(len(cx.vertices)):
        for j in range(i + 1, len(cx.vertices)):
            if model.vertex_types[i] != model.vertex_types[j]:
                continue
            ang = math.acos(float(np.clip(coords[i] @ coords[j], -1, 1)))
            if not (0.1 < ang < math.pi - 0.2):
                continue
            geo = geodesic_between(cx, cx.vertices[i], cx.vertices[j])
            assert isinstance(geo, LocalGeodesic)
            assert abs(geo.length - ang) <= 1e-6
            hits += 1
            if hits == 2:
                return
    assert hits >= 1
