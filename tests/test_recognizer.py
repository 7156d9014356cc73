import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from buildctl.angles import Angle
from buildctl.complexes import (MetricComplex, _vertex_angle, cell_link, discrete_complex,
                                suspension, vertex_link)
from buildctl.coxeter import coxeter_complex, named_matrix
from buildctl.corpus import (gen_a2_window, gen_k4, gen_octahedron, gen_petersen,
                             gen_punctured_octahedron, gen_rank2_building,
                             gen_short_lune)
from buildctl.metric_graph import GraphPoint, MetricGraph
from buildctl.recognizer import (Apartment, Chart, Diagnosis, check_euclidean,
                                 check_spherical, discrete_extension_check,
                                 enumerate_apartments_dim1, recognize_dim1,
                                 thin_isomorphic, verify_def52)
from buildctl.recognizer import _disconnected_apartment_pair, _uncovered_chamber_pair

THIRD = Fraction(1, 3)


# -- recognize_dim1 -----------------------------------------------------------------


def test_heawood_thick_m3_28_apartments(heawood_cert):
    cert = heawood_cert
    assert cert.verdict == "thick_building"
    assert cert.m == 3
    assert len(cert.apartments) == 28
    assert cert.apartments_exhaustive
    assert cert.thickness == 3
    for a in cert.apartments:
        assert len(a.edges) == 6


def test_k33_thick_m2_9_apartments(k33):
    cert = recognize_dim1(k33)
    assert cert.verdict == "thick_building" and cert.m == 2
    assert len(cert.apartments) == 9 and cert.thickness == 3


def test_triple_pi_edge_suspension():
    g = MetricGraph(["N", "S"], [(0, 1, Fraction(1))] * 3)
    cert = recognize_dim1(g)
    assert cert.verdict == "suspension"
    assert cert.base_size == 3
    assert set(cert.poles) == {"N", "S"}
    assert len(cert.apartments) == 3


def test_subdivided_suspension_recognized():
    cert = recognize_dim1(suspension(discrete_complex(["y0", "y1", "y2"])))
    assert cert.verdict == "suspension" and cert.base_size == 3


def test_petersen_systole_diagnosis():
    res = recognize_dim1(gen_petersen())
    assert isinstance(res, Diagnosis) and res.condition == "systole"
    assert len(res.witness["cycle"]) == 5
    assert abs(res.witness["length_pi_units"] - 5 / 3) <= 1e-9


def test_k4_diameter_diagnosis():
    res = recognize_dim1(gen_k4())
    assert isinstance(res, Diagnosis) and res.condition == "diameter"
    assert abs(res.witness["diameter_pi_units"] - 4 / 3) <= 1e-9


def test_circle_thin_single_apartment():
    g = MetricGraph([f"v{i}" for i in range(8)],
                    [(i, (i + 1) % 8, Fraction(1, 4)) for i in range(8)])
    cert = recognize_dim1(g)
    assert cert.verdict == "thin_building" and cert.m == 4
    assert len(cert.apartments) == 1


def test_float_circle_uniform_within_tolerance():
    # a 2*pi hexagon whose edges differ by 1e-11 pi, far inside EPS_ANGLE
    lens = [1 / 3 + (1e-11 if i % 2 else 0.0) for i in range(6)]
    g = MetricGraph([f"v{i}" for i in range(6)],
                    [(i, (i + 1) % 6, lens[i]) for i in range(6)])
    cert = recognize_dim1(g)
    assert cert.verdict == "thin_building" and cert.m == 3
    assert cert.coxeter_matrix is not None


def test_short_circle_systole_diagnosis():
    g = MetricGraph([f"v{i}" for i in range(4)],
                    [(i, (i + 1) % 4, Fraction(1, 4)) for i in range(4)])
    res = recognize_dim1(g)
    assert res.condition == "systole"


def test_long_circle_diameter_diagnosis():
    g = MetricGraph([f"v{i}" for i in range(10)],
                    [(i, (i + 1) % 10, Fraction(1, 4)) for i in range(10)])
    res = recognize_dim1(g)
    assert res.condition == "diameter"


def test_valence_diagnosis():
    # three pi/3 edges in a path: diameter pi but an endpoint has valence 1
    g = MetricGraph(["a", "b", "c", "d"],
                    [(0, 1, THIRD), (1, 2, THIRD), (2, 3, THIRD)])
    res = recognize_dim1(g)
    assert res.condition == "valence"


def test_nonuniform_gate():
    # non-uniform lengths cannot survive the earlier gates (the uniformity of
    # edge lengths is a consequence of them), so the gate is tested directly
    from buildctl.recognizer import _uniform_m
    g = MetricGraph(["a", "b", "c"],
                    [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2)),
                     (0, 2, Fraction(1, 3))])
    res = _uniform_m(g)
    assert isinstance(res, Diagnosis) and res.condition == "edge_length_nonuniform"
    assert len(res.witness["edges"]) == 2
    # uniform but not pi/m is diagnosed on the same arm
    g2 = MetricGraph(["a", "b"], [(0, 1, 0.29)] * 3)
    res2 = _uniform_m(g2)
    assert isinstance(res2, Diagnosis) and res2.condition == "edge_length_nonuniform"
    # theta graph with a short chord fails at the systole gate instead
    g3 = MetricGraph(["a", "b"], [(0, 1, Fraction(1))] * 2 + [(0, 1, Fraction(1, 2))])
    assert recognize_dim1(g3).condition == "systole"


def test_not_connected_diagnosis():
    g = MetricGraph(["a", "b", "c", "d"],
                    [(0, 1, Fraction(1, 2)), (2, 3, Fraction(1, 2))])
    assert recognize_dim1(g).condition == "not_connected"


def test_relabeling_invariance(heawood):
    rng = random.Random(2)
    g = MetricGraph.from_complex(heawood)
    order = list(range(len(g.vertices)))
    rng.shuffle(order)
    remap = {old: new for new, old in enumerate(order)}
    g2 = MetricGraph([g.vertices[o] for o in order],
                     [(remap[u], remap[v], ln) for u, v, ln in g.edges])
    c2 = recognize_dim1(g2)
    assert c2.verdict == "thick_building" and c2.m == 3
    assert len(c2.apartments) == 28


def test_subdivision_invariance(heawood):
    g = MetricGraph.from_complex(heawood)
    names = list(g.vertices)
    edges = []
    for k, (u, v, ln) in enumerate(g.edges):
        mid = len(names)
        names.append(f"mid{k}")
        edges.append((u, mid, ln / 2))
        edges.append((mid, v, ln / 2))
    cert = recognize_dim1(MetricGraph(names, edges))
    assert cert.verdict == "thick_building" and cert.m == 3
    assert len(cert.apartments) == 28


def test_enumeration_matches_independent_oracle(heawood, k33, tutte_coxeter):
    for cx, k, expect in ((heawood, 6, 28), (k33, 4, 9), (tutte_coxeter, 8, 90)):
        g = MetricGraph.from_complex(cx)
        apts, exhaustive = enumerate_apartments_dim1(g)
        assert exhaustive
        assert len(apts) == expect
        assert oracles.count_cycles_of_length(len(g.vertices), list(g.edges), k) == expect


def test_axiom2_all_edge_pairs(heawood_cert, heawood):
    g = MetricGraph.from_complex(heawood)
    by_edge = {e: set() for e in range(len(g.edges))}
    for ai, a in enumerate(heawood_cert.apartments):
        for e in a.edges:
            by_edge[e].add(ai)
    for e, f in itertools.combinations(range(len(g.edges)), 2):
        assert by_edge[e] & by_edge[f]


def test_certificate_soundness_recheck(heawood_cert, heawood):
    g = MetricGraph.from_complex(heawood)
    #each apartment is a 2m-cycle of uniform edges pi/m: the dihedral Coxeter circle
    for a in heawood_cert.apartments:
        assert len(a.edges) == 2 * heawood_cert.m
        total = sum((g.edges[e][2] for e in a.edges), Fraction(0))
        assert total == Fraction(2)
        verts = set(a.vertices)
        assert len(verts) == len(a.vertices)
    # thickness recount
    assert heawood_cert.thickness == min(g.valence(v) for v in range(14))


def test_diagnosis_witnesses_reverify():
    pet = MetricGraph.from_complex(gen_petersen())
    res = recognize_dim1(gen_petersen())
    names = {nm: i for i, nm in enumerate(pet.vertices)}
    cyc = [names[v] for v in res.witness["cycle"]]
    total = Fraction(0)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        found = [ln for u, v, ln in pet.edges if {u, v} == {a, b}]
        assert found
        total += min(found)
    assert float(total) == pytest.approx(res.witness["length_pi_units"])
    assert total < 2

    k4 = MetricGraph.from_complex(gen_k4())
    res = recognize_dim1(gen_k4())
    wit = res.witness["witness"]
    assert wit is not None
    d = res.witness["diameter_pi_units"]
    assert d != pytest.approx(1.0)


def test_monotone_consistency(heawood_cert, octahedron_cert):
    # thick certificates satisfy the weaker >= 2 threshold trivially
    assert heawood_cert.verdict == "thick_building" and heawood_cert.thickness >= 3
    assert octahedron_cert.verdict == "thin_building" and octahedron_cert.thickness == 2


# -- check_spherical ------------------------------------------------------------------


def test_octahedron_certificate(octahedron_cert):
    cert = octahedron_cert
    assert cert.verdict == "thin_building"
    assert cert.coxeter_matrix.m == ((1, 2, 2), (2, 1, 2), (2, 2, 1))
    assert len(cert.apartments) == 1
    assert cert.thickness == 2
    assert cert.apartments_exhaustive
    assert not cert.flags          # by construction: no unverified-global flag


def test_s0_heawood_certificate(s0_heawood_cert, s0_heawood, heawood_cert):
    cert = s0_heawood_cert
    assert cert.verdict == "suspension"
    assert set(cert.poles) == {"N", "S"}
    assert cert.coxeter_matrix.m == ((1, 2, 2), (2, 1, 3), (2, 3, 1))
    assert len(cert.apartments) == 28
    assert cert.apartments_exhaustive
    assert cert.thickness == 2
    for a in cert.apartments:
        assert len(a.cells) == 12
    # the apartments are exactly S0 * (Heawood apartment), compared by names
    g = heawood_cert.graph
    want = set()
    for a in heawood_cert.apartments:
        ends = [(g.vertices[g.edges[e][0]], g.vertices[g.edges[e][1]]) for e in a.edges]
        want.add(frozenset(frozenset((p, x, y)) for x, y in ends for p in ("N", "S")))
    got = {frozenset(frozenset(s0_heawood.vertices[v] for v in cell) for cell in a.cells)
           for a in cert.apartments}
    assert got == want


def test_punctured_octahedron_codim1():
    res = check_spherical(gen_punctured_octahedron())
    assert isinstance(res, Diagnosis) and res.condition == "codim1_cell_count"
    assert res.witness["top_cells"] == 1


def test_short_lune_link_failure():
    res = check_spherical(gen_short_lune())
    assert isinstance(res, Diagnosis) and res.condition == "link_failure"
    assert res.inner.condition == "systole"


def test_coxeter_complexes_certify_thin():
    for name in ("A3", "A1xI2(3)", "B3"):
        cx = coxeter_complex(named_matrix(name)).complex
        cert = check_spherical(cx)
        assert cert.verdict == "thin_building", name
        assert len(cert.apartments) == 1
        assert not cert.flags


def test_file_loaded_complex_flags_unverified_global(octahedron):
    from buildctl.complexes import loads
    anon = loads(octahedron.dumps())       # provenance does not survive JSON
    cert = check_spherical(anon)
    assert any(f.startswith("global_cat1_unverified") for f in cert.flags)


def test_apartments_isometric_to_model(s0_heawood, s0_heawood_cert):
    from buildctl.recognizer import _subcomplex
    model = coxeter_complex(s0_heawood_cert.coxeter_matrix).complex
    a = s0_heawood_cert.apartments[0]
    assert thin_isomorphic(_subcomplex(s0_heawood, a.cells), model)
    # a different-shape sphere is rejected
    other = coxeter_complex(named_matrix("A1xA1xA1")).complex
    assert not thin_isomorphic(_subcomplex(s0_heawood, a.cells), other)


def test_disconnected_complex_diagnosed():
    two = MetricComplex(
        "spherical", ["a", "b", "c", "d", "e", "f"],
        [(0, 1, 2), (3, 4, 5)],
        [(i, j, Angle.exact(1, 2)) for i, j in
         [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]],
        allow_disconnected=True)
    res = check_spherical(two)
    assert res.condition == "not_connected"


# -- discrete extension property -------------------------------------------------------


def test_dep_octahedron_true(octahedron):
    ok, wit = discrete_extension_check(octahedron)
    assert ok and wit is None


def test_dep_short_lune_false():
    ok, wit = discrete_extension_check(gen_short_lune())
    assert not ok
    assert wit == {"condition": "dep_empty", "vertex": "N", "direction": "y0"}


def test_dep_heawood_as_graph(heawood):
    ok, wit = discrete_extension_check(heawood)
    assert ok and wit is None


def test_dep_punctured_octahedron_not_discrete():
    # a boundary vertex link is a 3*pi/2 path: its distance-pi superlevel set
    # from an endpoint is a fat interval
    ok, wit = discrete_extension_check(gen_punctured_octahedron())
    assert not ok
    assert wit == {"condition": "dep_not_discrete", "vertex": "a1", "direction": "b1",
                   "interval": [0.0, 0.5]}


def test_dep_single_triangle_empty():
    tri = MetricComplex("spherical", ["a", "b", "c"], [(0, 1, 2)],
                        [(0, 1, Angle.exact(1, 2)), (0, 2, Angle.exact(1, 2)),
                         (1, 2, Angle.exact(1, 2))])
    ok, wit = discrete_extension_check(tri)
    assert not ok
    assert wit == {"condition": "dep_empty", "vertex": "a", "direction": "b"}


def test_dep_disconnected_link_empty():
    half = Angle.exact(1, 2)
    bowtie = MetricComplex("spherical", ["o", "a", "b", "c", "d"], [(0, 1, 2), (0, 3, 4)],
                           [(i, j, half) for i, j in
                            [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]])
    ok, wit = discrete_extension_check(bowtie)
    assert not ok
    assert wit == {"condition": "dep_empty", "vertex": "o",
                   "detail": "link disconnected: whole components are antipodal"}


def test_dep_graph_witnesses_name_the_vertex():
    """In dimension 1 the graph is its own space of directions: a witness
    names the vertex and no direction."""
    ok, wit = discrete_extension_check(gen_petersen())
    assert not ok and wit == {"condition": "dep_empty", "vertex": "v0"}
    half = Angle.exact(1, 2)
    path = MetricComplex("spherical", list("abcd"), [(0, 1), (1, 2), (2, 3)],
                         [(0, 1, half), (1, 2, half), (2, 3, half)])
    ok, wit = discrete_extension_check(path)
    assert not ok
    assert wit == {"condition": "dep_not_discrete", "vertex": "a", "interval": [0.0, 0.5]}


# -- Euclidean checks --------------------------------------------------------------------


def test_a2_window_local_pass(a2_window):
    cert = check_euclidean(a2_window.complex, "window")
    assert cert.verdict == "metric_euclidean_building_local"
    # every interior vertex link is the thin hexagon
    assert len(cert.link_certificates) == 19
    for (vi,), (L, sub) in cert.link_certificates.items():
        assert sub.verdict == "thin_building" and sub.m == 3


def test_a2_window_perturbed_link_failure():
    w = gen_a2_window(3, perturb=1.01)
    res = check_euclidean(w.complex, "window")
    assert isinstance(res, Diagnosis) and res.condition == "link_failure"
    assert res.witness["cell"][0] in ("0_0", "1_0")   # adjacent to the perturbed edge
    assert res.inner.condition in ("systole", "diameter")


def test_single_triangle_strict_codim1():
    tri = MetricComplex("euclidean", ["a", "b", "c"], [(0, 1, 2)],
                        [(0, 1, Angle(rad=1.0)), (0, 2, Angle(rad=1.0)),
                         (1, 2, Angle(rad=1.0))])
    res = check_euclidean(tri, "strict")
    assert res.condition == "codim1_cell_count"


def test_window_strict_rejected_at_boundary(a2_window):
    res = check_euclidean(a2_window.complex, "strict")
    assert res.condition == "codim1_cell_count"


def test_euclidean_factor_hint_reported(a2_window):
    cert = check_euclidean(a2_window.complex, "window")
    assert cert.factors == [{"kind": "irreducible", "rank": 2, "m": 3, "thick": False}]


# -- Definition 5.2 on generated atlases ----------------------------------------------------


def _window_chart(w, name="full", cells=None):
    return Chart(name, tuple(sorted(cells if cells is not None else w.complex.top_cells)),
                 dict(w.coords))


def test_def52_standard_apartment_passes(a2_window):
    chart = _window_chart(a2_window)
    rep = verify_def52(a2_window.complex, [chart], frame=a2_window.coords)
    assert rep["ok"]


def test_def52_reflected_half_charts_compatible(a2_window):
    w = a2_window
    # an upper-half chart overlapping a full chart whose coordinates are the
    # wall reflection: the transition on the overlap is the reflection itself
    upper = tuple(t for t in w.complex.top_cells
                  if all(w.coords[v][1] >= -1e-9 for v in t))
    reflected = {v: (x, -y) for v, (x, y) in w.coords.items()}
    c1 = Chart("upper", upper, dict(w.coords))
    c2 = Chart("reflected_full", tuple(sorted(w.complex.top_cells)), reflected)
    rep = verify_def52(w.complex, [_window_chart(w), c1, c2], frame=w.coords)
    assert rep["ok"]
    pair = next(x for x in rep["compatibility"]
                if x["charts"] == ["upper", "reflected_full"])
    assert pair["rigid"]
    import numpy as np
    assert np.allclose(pair["matrix"], [[1, 0], [0, -1]], atol=1e-6)


def test_def52_missing_chart_fails(a2_window):
    w = a2_window
    upper = tuple(t for t in w.complex.top_cells
                  if all(w.coords[v][1] >= -1e-9 for v in t))
    rep = verify_def52(w.complex, [Chart("upper", upper, dict(w.coords))],
                       frame=w.coords)
    assert not rep["ok"]
    assert rep["uncovered_segments"]


def test_16cell_thin_dimension3():
    from buildctl.complexes import orthogonal_join, s0
    cell16 = orthogonal_join(orthogonal_join(s0(("a0", "a1")), s0(("b0", "b1"))),
                             orthogonal_join(s0(("c0", "c1")), s0(("d0", "d1"))))
    cert = check_spherical(cell16)
    assert cert.dimension == 3
    assert cert.verdict == "thin_building"
    assert len(cert.apartments) == 1
    assert cert.coxeter_matrix.m == ((1, 2, 2, 2), (2, 1, 2, 2),
                                     (2, 2, 1, 2), (2, 2, 2, 1))
    assert not cert.flags


def test_flat_torus_not_simply_connected():
    # 3x3 equilateral torus: all links pass, pi_1 = Z^2 stops the strict check
    idx = {(a, b): 3 * a + b for a in range(3) for b in range(3)}
    cells = set()
    for a in range(3):
        for b in range(3):
            v = (a, b)
            e1 = ((a + 1) % 3, b)
            e2 = (a, (b + 1) % 3)
            e12 = ((a + 1) % 3, (b + 1) % 3)
            cells.add(tuple(sorted((idx[v], idx[e1], idx[e2]))))
            cells.add(tuple(sorted((idx[e1], idx[e2], idx[e12]))))
    import itertools as it
    edges = sorted({e for t in cells for e in it.combinations(t, 2)})
    torus = MetricComplex("euclidean", [f"v{i}" for i in range(9)], sorted(cells),
                          [(i, j, Angle(rad=1.0)) for i, j in edges])
    from buildctl.complexes import validate
    assert validate(torus).ok
    res = check_euclidean(torus, "strict")
    assert isinstance(res, Diagnosis)
    assert res.condition == "not_simply_connected"
    assert res.witness["loop"] is not None


def test_mixed_thickness_join_generic_verdict():
    # 3 points * hexagon: hexagon panels lie in 3 cells, cross panels in 2;
    # metrically this is a join whose natural cells are not simplicial, so the
    # simplicial certificate reports the generic verdict with the join factors
    from buildctl.complexes import discrete_complex, orthogonal_join
    from buildctl.decompose import join_decompose
    hexagon = MetricComplex("spherical", [f"h{i}" for i in range(6)],
                            [(i, (i + 1) % 6) for i in range(6)],
                            [(i, (i + 1) % 6, Angle.exact(1, 3)) for i in range(6)])
    j = orthogonal_join(discrete_complex(["x0", "x1", "x2"]), hexagon)
    cert = check_spherical(j)
    assert cert.verdict == "building"
    assert "mixed_thickness" in cert.flags
    assert cert.thickness == 2
    assert len(cert.apartments) == 3          # pairs of the three points
    factors = join_decompose(j, cert)
    assert sorted(f.complex.dimension for f in factors) == [0, 1]
    assert {f.certificate.verdict for f in factors} == \
        {"thick_building", "thin_building"}


def test_thick_iff_thickness_at_least_3(octahedron_cert, s0_heawood_cert):
    # certificate invariant: thick verdicts carry thickness >= 3 and vice versa
    for cert in (octahedron_cert, s0_heawood_cert):
        assert (cert.verdict == "thick_building") == (
            cert.thickness is not None and cert.thickness >= 3
            and cert.verdict not in ("suspension", "thin_building", "building"))


# -- apartments only where a certificate keeps them ------------------------------------

S0S0K33_REPORT = {
    "schema": 1, "verdict": "suspension", "geometry": "spherical", "dimension": 3,
    "coxeter": {"generators": ["s0", "s1", "s2", "s3"],
                "m": [[1, 2, 2, 2], [2, 1, 2, 2], [2, 2, 1, 2], [2, 2, 2, 1]]},
    "m": None, "thickness": 2, "apartments": {"count": 9, "exhaustive": True},
    "flags": [],
    "suspension": {"poles": ["N0", "S0"], "base_size": 8}}

A4_REPORT = {
    "schema": 1, "verdict": "thin_building", "geometry": "spherical", "dimension": 3,
    "coxeter": {"generators": ["s0", "s1", "s2", "s3"],
                "m": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]},
    "m": None, "thickness": 2, "apartments": {"count": 1, "exhaustive": True},
    "flags": []}


def _a4_complex():
    from buildctl.coxeter import CoxeterMatrix
    m = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))
    return coxeter_complex(CoxeterMatrix(("s0", "s1", "s2", "s3"), m)).complex


def test_dim3_link_certificates_carry_no_apartments(k33):
    cases = [(suspension(suspension(k33)), S0S0K33_REPORT),
             (_a4_complex(), A4_REPORT)]
    for c, report in cases:
        cert = check_spherical(c)
        assert cert.to_report() == report
        links = [sub for _, sub in cert.link_certificates.values()
                 if sub.dimension == 2]
        assert len(links) == len(c.vertices)
        for sub in links:
            assert sub.apartments == ()
            assert sub.apartments_exhaustive is False
            assert "apartments_sampled" in sub.flags
        # (n-2)-cell links run no cycle search either; a circuit carries itself
        for _, sub in cert.link_certificates.values():
            assert sub.apartments == () or sub.verdict == "thin_building"


def _counting_local_certificates(monkeypatch):
    """Patch the uncached layer of recognition; the returned list receives
    every complex whose local certificate is computed."""
    import buildctl.recognizer as recognizer
    seen = []
    original = recognizer._local_certificate

    def counting(c):
        seen.append(c)
        return original(c)

    monkeypatch.setattr(recognizer, "_local_certificate", counting)
    return seen


def test_local_certificate_computed_once_per_complex(k33, monkeypatch):
    """A second check of the same object recomputes no local certificate and
    gives the same report; within one check every link object is certified
    once, and the memoized certificate is never changed by the apartment
    layer."""
    seen = _counting_local_certificates(monkeypatch)
    for c, report in ((suspension(suspension(k33)), S0S0K33_REPORT),
                      (_a4_complex(), A4_REPORT)):
        seen.clear()
        first = check_spherical(c)
        assert first.to_report() == report
        assert seen[0] is c
        assert len({id(x) for x in seen}) == len(seen) > len(c.vertices)
        memo = c._certificate
        assert first is not memo
        assert memo.apartments == () and "apartments_sampled" in memo.flags
        seen.clear()
        second = check_spherical(c)
        assert seen == []
        assert second.to_report() == first.to_report()
        assert c._certificate is memo
        assert memo.apartments == () and "apartments_sampled" in memo.flags


def test_memo_keeps_no_budget(k33):
    """The local certificate reads no budget: a small budget on one call
    leaves the next call on the same object exhaustive."""
    c = suspension(k33)
    small = check_spherical(c, budget=5)
    assert not small.apartments_exhaustive and len(small.apartments) == 5
    assert sorted(small.flags) == ["apartment_axiom2_unverified", "apartments_sampled"]
    full = check_spherical(c)
    assert full.apartments_exhaustive and len(full.apartments) == 9
    assert full.flags == ()
    # and the other way round on a fresh object
    c = suspension(k33)
    assert len(check_spherical(c).apartments) == 9
    assert check_spherical(c, budget=5).to_report() == small.to_report()


def test_one_group_per_check(heawood, monkeypatch):
    """Local certificates read only the sign test of the cosine form: the
    one group a check enumerates is that of the model its apartments are
    compared with, and no classification runs."""
    import buildctl.coxeter as coxeter
    groups = []
    original = coxeter.generate_reflection_group

    def counting(M, *args, **kwargs):
        groups.append(M)
        return original(M, *args, **kwargs)

    def no_classify(*args, **kwargs):
        raise AssertionError("classify ran")

    monkeypatch.setattr(coxeter, "generate_reflection_group", counting)
    monkeypatch.setattr(coxeter, "classify", no_classify)
    for c in (suspension(heawood), suspension(suspension(heawood)), gen_octahedron()):
        groups.clear()
        cert = check_spherical(c)
        assert cert.apartments_exhaustive and not cert.flags
        assert groups == [cert.coxeter_matrix]


def test_link_certificates_hold_their_link(k33):
    """Every link certificate entry is (link object, certificate), the vertex
    links of a dimension >= 3 complex included."""
    c = suspension(suspension(k33))
    cert = check_spherical(c)
    for cell, (L, sub) in cert.link_certificates.items():
        assert L is cell_link(c, [c.vertices[i] for i in cell])
        assert L._certificate is sub
    assert {len(cell) for cell in cert.link_certificates} == {1, 2}


def _counting_propagation(monkeypatch):
    """Patch ``geodesics.propagate_all`` where the recognizer would look it
    up; the returned list receives the base vertex of every call."""
    import buildctl.geodesics as geodesics
    import buildctl.recognizer as recognizer
    calls = []
    original = geodesics.propagate_all

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "propagate_all", counting)
    assert recognizer.geodesics.propagate_all is counting
    return calls


def test_no_surface_growth_inside_dim3_links(k33, monkeypatch):
    """Apartments are hulls of opposite chambers in every dimension: no
    sector propagation runs, neither for a dimension-3 complex and its links
    nor for a dimension-2 one, and both find all 9 apartments."""
    calls = _counting_propagation(monkeypatch)
    cert = check_spherical(suspension(suspension(k33)))
    assert cert.verdict == "suspension"
    assert len(cert.apartments) == 9 and cert.apartments_exhaustive
    cert = check_spherical(suspension(k33))
    assert len(cert.apartments) == 9 and cert.apartments_exhaustive
    assert calls == []


def test_no_surface_growth_in_thin_complexes(monkeypatch):
    """A thin complex with spherical Euler characteristic is its own single
    apartment, and the thin quotient that is not runs the hull search: no
    sector propagation runs for either."""
    calls = _counting_propagation(monkeypatch)
    from buildctl.coxeter import CoxeterMatrix
    h3 = CoxeterMatrix(("s0", "s1", "s2"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    for M in (named_matrix("A3"), named_matrix("B3"), h3):
        c = coxeter_complex(M).complex
        cert = check_spherical(c)
        assert cert.verdict == "thin_building", M
        assert len(cert.apartments) == 1 and cert.apartments_exhaustive, M
        assert cert.apartments[0].cells == c.top_cells, M
    # the Euler guard is live: the antipodal quotient of B3 (an RP^2, thin,
    # Euler characteristic 1) is not taken for its own apartment (which
    # would fail the isometry check); no chamber of it has an opposite, so
    # its hull family is empty and axiom (2) fails
    res = check_spherical(_antipodal_quotient(coxeter_complex(named_matrix("B3")).complex))
    assert isinstance(res, Diagnosis) and res.condition == "no_common_apartment"
    assert calls == []


def _antipodal_quotient(c):
    from buildctl.geodesics import develop_apartment
    pos = develop_apartment(c, c.top_cells, 0)
    rep = {v: min(u for u in pos if abs(pos[u] + pos[v]).max() < 1e-6 or u == v)
           for v in pos}
    keep = sorted(set(rep.values()))
    idx = {v: k for k, v in enumerate(keep)}
    cells = {tuple(sorted(idx[rep[v]] for v in t)) for t in c.top_cells}
    lengths = {tuple(sorted((idx[rep[i]], idx[rep[j]]))): c.edge_length(i, j)
               for i, j in c.edges}
    q = MetricComplex("spherical", [c.vertices[v] for v in keep], cells,
                      [(a, b, ln) for (a, b), ln in lengths.items()])
    assert q.validation.ok and len(q.vertices) - len(q.edges) + len(cells) == 1
    return q


def test_b3_quotient_has_no_common_apartment(tmp_path):
    """The antipodal quotient of B3 is a thin RP^2: no chamber of it has an
    opposite, so its exhaustive hull search finds no apartment, axiom (2)
    fails and the result is a diagnosis whose witness chambers no sphere
    that the surface-growth oracle grows holds together."""
    from buildctl.cli import main
    q = _antipodal_quotient(coxeter_complex(named_matrix("B3")).complex)
    res = check_spherical(q)
    assert isinstance(res, Diagnosis) and res.condition == "no_common_apartment"
    names = res.witness["chambers"]
    assert len(names) == 2
    pair = [tuple(sorted(q.vertex_index(v) for v in ch)) for ch in names]
    assert all(ch in q.top_cells for ch in pair)
    surfaces = set()
    for vi in range(len(q.vertices)):
        L = vertex_link(q, vi)
        for apt in recognize_dim1(L).apartments:
            ring = [q.vertex_index(L.vertices[w]) for w in apt.vertices]
            surfaces |= _grown_spheres(q, _fan(vi, ring))
    assert not any(set(pair) <= set(cells) for cells in surfaces)
    f = tmp_path / "b3-quotient.json"
    f.write_text(q.dumps())
    assert main(["check", str(f)]) == 1


# -- exact apartment axioms against the unsampled oracles ----------------------------


def _floated(g):
    return MetricGraph(g.vertices, [(u, v, float(ln)) for u, v, ln in g.edges])


@pytest.fixture(scope="module")
def dim1_apartment_lists():
    """(label, graph, apartments) for the exact and float copy of K4,4,
    Heawood, GQ(2,2) and K8,8."""
    out = []
    for name, kw in (("k44", dict(kind="complete_bipartite", s=4, t=4)),
                     ("heawood", dict(kind="projective_plane")),
                     ("gq22", dict(kind="generalized_quadrangle")),
                     ("k88", dict(kind="complete_bipartite", s=8, t=8))):
        g = MetricGraph.from_complex(gen_rank2_building(**kw))
        for label, h in ((name, g), (name + "-float", _floated(g))):
            cert = recognize_dim1(h)
            assert cert.apartments_exhaustive
            out.append((label, h, cert.apartments))
    return out


def _graph_cells(g):
    return [("v", v) for v in range(len(g.vertices))] + \
        [("e", e) for e in range(len(g.edges))]


def _graph_apartment_cells(apartments):
    return [{("v", v) for v in a.vertices} | {("e", e) for e in a.edges}
            for a in apartments]


def _deletions(apartments, chamber_sets):
    """Apartment sublists that leave some chamber pair uncovered or not."""
    yield "first dropped", apartments[1:]
    yield "every other", apartments[::2]
    yield "first only", apartments[:1]
    yield "none through chamber 0", [a for a, chs in zip(apartments, chamber_sets)
                                     if 0 not in chs]


def _check_witness(pair, chamber_sets, nchambers):
    """The witness is the lexicographically first uncovered pair."""
    i, j = pair
    assert i <= j
    assert not any(i in chs and j in chs for chs in chamber_sets)
    for a in range(i + 1):
        for b in range(a, nchambers if a < i else j):
            assert any(a in chs and b in chs for chs in chamber_sets), (a, b)


def test_dim1_chamber_cover_matches_cell_pair_oracle(dim1_apartment_lists):
    for label, g, apartments in dim1_apartment_lists:
        ne = len(g.edges)
        assert _uncovered_chamber_pair(range(ne), [a.edges for a in apartments]) is None
        assert oracles.uncovered_cell_pair(
            _graph_cells(g), _graph_apartment_cells(apartments)) is None, label
        sets = [set(a.edges) for a in apartments]
        for how, kept in _deletions(apartments, sets):
            pair = _uncovered_chamber_pair(range(ne), [a.edges for a in kept])
            oracle = oracles.uncovered_cell_pair(_graph_cells(g),
                                                 _graph_apartment_cells(kept))
            assert (pair is None) == (oracle is None), (label, how)
            if pair is not None:
                _check_witness(pair, [set(a.edges) for a in kept], ne)


def test_dim1_intersection_identity_matches_search(dim1_apartment_lists):
    for label, g, apartments in dim1_apartment_lists:
        assert _disconnected_apartment_pair(apartments) is None, label
        for a, b in itertools.combinations(apartments, 2):
            shared = set(a.edges) & set(b.edges)
            if shared:
                assert oracles.shared_part_connected(
                    g.edges, set(a.vertices) & set(b.vertices), shared), label


def test_intersection_identity_finds_first_disconnected_pair():
    """All injective cycles of K3,3 and K4,4, of every length: a 4-cycle and
    a Hamiltonian cycle can share two opposite edges, so both outcomes occur,
    and the identity must agree with the search on every pair."""
    for s in (3, 4):
        g = MetricGraph.from_complex(gen_rank2_building("complete_bipartite", s=s, t=s))
        cycles = [Apartment("cycle", edges=tuple(sorted(cyc)),
                            vertices=tuple(sorted({v for e in cyc for v in g.edges[e][:2]})))
                  for cyc in sorted(oracles.all_injective_cycles(len(g.vertices),
                                                                 list(g.edges)), key=sorted)]
        bad = []
        for (i, a), (j, b) in itertools.combinations(enumerate(cycles), 2):
            shared = set(a.edges) & set(b.edges)
            connected = not shared or oracles.shared_part_connected(
                g.edges, set(a.vertices) & set(b.vertices), shared)
            assert (_disconnected_apartment_pair([a, b]) is None) == connected
            if not connected:
                bad.append((i, j))
        assert bad
        assert _disconnected_apartment_pair(cycles) == bad[0]


def test_dim2_chamber_cover_matches_cell_pair_oracle(k33, heawood, octahedron):
    for c in (suspension(k33), suspension(heawood), octahedron):
        cert = check_spherical(c)
        assert cert.apartments_exhaustive and cert.apartments
        cells = c.all_cells()
        n = len(c.top_cells)
        index = {ch: k for k, ch in enumerate(c.top_cells)}
        sets = [{index[ch] for ch in a.cells} for a in cert.apartments]
        assert _uncovered_chamber_pair(c.top_cells,
                                       [a.cells for a in cert.apartments]) is None
        assert oracles.uncovered_cell_pair(
            cells, [oracles.faces_of(a.cells) for a in cert.apartments]) is None
        for how, kept in _deletions(list(cert.apartments), sets):
            pair = _uncovered_chamber_pair(c.top_cells, [a.cells for a in kept])
            oracle = oracles.uncovered_cell_pair(
                cells, [oracles.faces_of(a.cells) for a in kept])
            assert (pair is None) == (oracle is None), how
            if pair is not None:
                _check_witness(pair, [{index[ch] for ch in a.cells} for a in kept], n)


# -- kernel-unit apartment searches against the Fraction oracles ------------------


def _mixed(g):
    """Every other edge length as a float: the search sums in floats."""
    return MetricGraph(g.vertices, [(u, v, float(ln) if k % 2 else ln)
                                    for k, (u, v, ln) in enumerate(g.edges)])


def _node_count(completes):
    """The least budget for which ``completes(budget)`` holds: the node
    count of a bounded search."""
    hi = 1
    while not completes(hi):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if completes(mid) else (mid, hi)
    return hi


def _budgets(total, every):
    """Every budget 1..total, or eight spread over it with total - 1 and
    total; ``total`` is the node count, so the last one is exhaustive."""
    if every:
        return range(1, total + 1)
    return sorted({*range(1, total, max(total // 8, 1)), total - 1, total})


@pytest.mark.parametrize("name, kw, every", [
    ("k33", dict(kind="complete_bipartite", s=3, t=3), True),
    ("k44", dict(kind="complete_bipartite", s=4, t=4), True),
    ("heawood", dict(kind="projective_plane"), True),
    ("gq22", dict(kind="generalized_quadrangle"), False),
    ("k88", dict(kind="complete_bipartite", s=8, t=8), False),
])
def test_cycle_dfs_matches_fraction_oracle(name, kw, every):
    """Same apartments in the same order and the same exhaustion flag as the
    Fraction-summing DFS, on exact, float and mixed copies, at every budget
    up to the node count (eight budgets and the last two on the two large
    graphs), so exhaustion trips at the same node."""
    g = MetricGraph.from_complex(gen_rank2_building(**kw))
    m = 2 if name.startswith("k") else None
    for h in (g, _floated(g), _mixed(g)):
        total = _node_count(lambda b: enumerate_apartments_dim1(h, m, b)[1])
        for b in _budgets(total, every):
            res = enumerate_apartments_dim1(h, m, b)
            assert res == oracles.enumerate_cycles_fractions(h, m, b), (name, b)
            assert res[1] == (b == total)


def _float_corners(c, keep_exact=lambda key: False):
    """A copy of ``c`` whose corner angles are radian floats, except those
    ``keep_exact`` keeps.  Float edge lengths would not do: the corner angles
    they give rationalize back to exact values."""
    copy = MetricComplex(c.geometry, c.vertices, c.top_cells,
                         [(*sorted(e), a) for e, a in c.lengths.items()])
    for t in c.top_cells:
        for v in t:
            u, w = (x for x in t if x != v)
            ang = _vertex_angle(c, v, u, w)
            copy._corner_angles[v, u, w] = ang if keep_exact((v, u, w)) \
                else Angle(rad=ang.radians)
    return copy


def _fan(v, ring):
    """The wedge cells at vertex v spanned by consecutive ring vertices."""
    return [tuple(sorted((v, a, b))) for a, b in zip(ring, ring[1:] + ring[:1])]


def _link_fans(c):
    """(vertex, ring, fan) for every 2*pi cycle of every vertex link, and for
    up to two cycles of the next even length, which are longer than 2*pi; the
    ring is the cycle's ambient vertex indices, the fan its wedge cells."""
    for v in range(len(c.vertices)):
        L = vertex_link(c, v)
        g = MetricGraph.from_complex(L)
        cycles = [a.vertices for a in enumerate_apartments_dim1(g)[0]]
        if cycles:
            k = len(cycles[0]) + 2
            longer = MetricGraph(g.vertices, [(a, b, Fraction(2, k)) for a, b, _ in g.edges])
            cycles += [a.vertices for a in enumerate_apartments_dim1(longer)[0][:2]]
        for cyc in cycles:
            ring = [c.vertex_index(L.vertices[x]) for x in cyc]
            yield v, ring, _fan(v, ring)


_DIM2 = {
    "s0*k33": lambda: suspension(gen_rank2_building("complete_bipartite", s=3, t=3)),
    "s0*heawood": lambda: suspension(gen_rank2_building("projective_plane")),
    "octahedron": gen_octahedron,
    "punctured-octahedron": gen_punctured_octahedron,
    "b3-quotient": lambda: _antipodal_quotient(coxeter_complex(named_matrix("B3")).complex),
}


_DIM2_MODELS = {"s0*k33": "A1xA1xA1", "s0*heawood": "A1xI2(3)", "octahedron": "A1xA1xA1",
                "punctured-octahedron": "A1xA1xA1", "b3-quotient": "B3"}
_DIM2_HULLS = {"s0*k33": 9, "s0*heawood": 28, "octahedron": 1,
               "punctured-octahedron": 0, "b3-quotient": 0}


def _named_chambers(c, chamber_sets):
    return {frozenset(frozenset(c.vertices[v] for v in t) for t in cells)
            for cells in chamber_sets}


def _grown_spheres(c, fan):
    """The closed 2-spheres (Euler characteristic 2) into which the
    Fraction-summing surface growth closes a fan, as chamber tuples."""
    closures, exhausted = oracles.grow_surface_fractions(c, fan, 10 ** 4)
    assert not exhausted
    return {tuple(sorted(cells)) for cells in closures
            if len({v for t in cells for v in t})
            - len({e for t in cells for e in itertools.combinations(t, 2)})
            + len(cells) == 2}


def _grown_apartments(c):
    """The union over every vertex and every 2*pi cycle of its link of the
    closed spheres the surface-growth oracle grows, as chamber sets."""
    out = set()
    for v in range(len(c.vertices)):
        L = vertex_link(c, v)
        for apt in enumerate_apartments_dim1(MetricGraph.from_complex(L))[0]:
            if len(apt.vertices) < 3:
                continue
            ring = [c.vertex_index(L.vertices[w]) for w in apt.vertices]
            out |= _grown_spheres(c, _fan(v, ring))
    return _named_chambers(c, out)


def _dim2_copies(label):
    """The ``_DIM2`` input, a copy with float corner angles, a copy with
    every other corner exact and a relabelled copy."""
    c = _DIM2[label]()
    order = list(range(len(c.vertices)))
    random.Random(label).shuffle(order)
    return [c, _float_corners(c), _float_corners(c, lambda key: sum(key) % 2 == 0),
            _relabelled(c, order)]


@pytest.mark.parametrize("label", sorted(_DIM2))
def test_hull_family_matches_surface_growth(label):
    """The convex hulls of opposite chambers are, as chamber sets, the
    spheres that the surface-growth oracle grows from every link fan, on
    every ``_dim2_copies`` copy.  The hull family reads no angle, so it is
    the same on every copy; a budget below the hull count cuts it off."""
    from buildctl.recognizer import _hull_apartments
    copies = _dim2_copies(label)
    c = copies[0]
    model = coxeter_complex(named_matrix(_DIM2_MODELS[label]))
    hulls, exhaustive = _hull_apartments(c, model, 10 ** 5)
    assert exhaustive and len(hulls) == _DIM2_HULLS[label]
    expected = _named_chambers(c, [a.cells for a in hulls])
    assert len(expected) == len(hulls)
    for k in copies:
        found, exhaustive = _hull_apartments(k, model, 10 ** 5)
        assert exhaustive
        assert _named_chambers(k, [a.cells for a in found]) == expected, label
        assert _grown_apartments(k) == expected, label
    for b in range(1, len(hulls)):
        found, exhaustive = _hull_apartments(c, model, b)
        assert not exhaustive and len(found) == b
        assert _named_chambers(c, [a.cells for a in found]) < expected


@pytest.mark.parametrize("label", sorted(_DIM2))
def test_propagate_all_matches_surface_growth_per_fan(label):
    """From every link fan, of a 2*pi cycle or a longer one, the apartments
    that ``propagate_all`` filters out of the hull family are the spheres
    the surface-growth oracle grows, in ``Apartment.key`` order, on every
    ``_dim2_copies`` copy; on the two non-buildings both are empty."""
    from buildctl.geodesics import propagate_all
    for k in _dim2_copies(label):
        fans = list(_link_fans(k))
        assert fans
        found = 0
        for v, ring, fan in fans:
            apartments, exhausted = propagate_all(k, v, ring)
            assert not exhausted
            assert {a.cells for a in apartments} == _grown_spheres(k, fan), (label, v)
            assert [a.key() for a in apartments] == sorted(a.key() for a in apartments)
            found += len(apartments)
        assert (found > 0) == (_DIM2_HULLS[label] > 0), label


@pytest.mark.parametrize("label", ["s0*k33", "s0*heawood"])
def test_dim3_hulls_are_suspended_dim2_hulls(label):
    """The apartments of a suspension S0*X are the suspensions of the
    apartments of X, so the hull family of S0*S0*K3,3 and S0*S0*Heawood is
    the dimension-2 one (checked against surface growth above) joined with
    the two new poles."""
    inner = _DIM2[label]()
    outer = suspension(inner)
    poles = set(outer.vertices) - set(inner.vertices)
    apartments = _named_chambers(inner, [a.cells for a in check_spherical(inner).apartments])
    cert = check_spherical(outer)
    assert cert.apartments_exhaustive and not cert.flags
    assert _named_chambers(outer, [a.cells for a in cert.apartments]) == {
        frozenset(t | {p} for t in apt for p in poles) for apt in apartments}


def test_propagation_failure_keeps_exact_length():
    """The 2*pi test of propagate_apartment sums the fan's corner angles in
    cycle order; its failure witness is that exact sum, as a float."""
    from buildctl.geodesics import PropagationFailure, propagate_apartment
    lune = gen_short_lune()
    for c in (lune, _float_corners(lune)):
        n = c.vertex_index("N")
        ring = [c.vertex_index(f"y{k}") for k in range(4)]
        res = propagate_apartment(c, "N", [f"y{k}" for k in range(4)])
        assert isinstance(res, PropagationFailure)
        total = Fraction(0)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            total = total + _vertex_angle(c, n, min(a, b), max(a, b)).pi_units
        assert res.witness["length_pi_units"] == float(total)


# -- the diameter gate from bounds -----------------------------------------------------


def _radian_floated(g):
    """Float lengths as a radian JSON file gives them: (ln * pi) / pi."""
    return MetricGraph(g.vertices, [(u, v, Angle(rad=float(ln) * math.pi).pi_units)
                                    for u, v, ln in g.edges])


def _counting_pairs(monkeypatch):
    """(graph, i, j) of every ``MetricGraph._edge_pair_max`` call."""
    seen = []
    pair_max = MetricGraph._edge_pair_max

    def counting(self, i, j):
        seen.append((id(self), i, j))
        return pair_max(self, i, j)

    monkeypatch.setattr(MetricGraph, "_edge_pair_max", counting)
    return seen


_GATE_BUILDINGS = [
    ("heawood", dict(kind="projective_plane")),
    ("gq22", dict(kind="generalized_quadrangle")),
    ("k66", dict(kind="complete_bipartite", s=6, t=6)),
    ("k88", dict(kind="complete_bipartite", s=8, t=8)),
]


@pytest.mark.parametrize("name, kw", _GATE_BUILDINGS)
def test_diameter_gate_evaluates_no_pair_on_float_buildings(name, kw, monkeypatch):
    """The diameter = pi gate settles from bounds: no edge pair evaluated on
    the float copies, at most one (as the witness scan needs) on the exact
    graph, and the certificate is the one the full scan gives."""
    g = MetricGraph.from_complex(gen_rank2_building(**kw))
    seen = _counting_pairs(monkeypatch)
    reports = []
    for h, most in ((g, 1), (_floated(g), 0), (_radian_floated(g), 0)):
        seen.clear()
        cert = recognize_dim1(h)
        assert cert.verdict == "thick_building" and cert.apartments_exhaustive, name
        assert len(seen) <= most, (name, len(seen))
        reports.append(cert.to_report())
    assert reports[1] == reports[2]


@pytest.mark.parametrize("name, kw", _GATE_BUILDINGS + [
    ("k44", dict(kind="complete_bipartite", s=4, t=4))])
def test_diameter_gate_on_seeded_negatives(name, kw, monkeypatch):
    """One edge lengthened or shortened by pi/12, exact and float: the gate
    evaluates each pair at most once, and at most one distinct pair more than
    the witness scan alone, which is all that recognize_dim1 ran before the
    gate read bounds."""
    g = MetricGraph.from_complex(gen_rank2_building(**kw))
    rng = random.Random(name)
    seen = _counting_pairs(monkeypatch)
    for eid in rng.sample(range(len(g.edges)), 3):
        for by in (Fraction(1, 12), -Fraction(1, 12)):
            edges = list(g.edges)
            u, v, ln = edges[eid]
            edges[eid] = (u, v, ln + by)
            neg = MetricGraph(g.vertices, edges)
            for h in (neg, _floated(neg), _radian_floated(neg)):
                seen.clear()
                res = recognize_dim1(h)
                gate = len(seen)
                assert gate == len(set(seen))
                assert isinstance(res, Diagnosis)
                assert res.condition == ("diameter" if by > 0 else "systole")
                seen.clear()
                if by > 0:
                    MetricGraph(h.vertices, h.edges).diameter()
                assert gate <= len(seen) + 1, (name, eid, by, gate, len(seen))


# -- relabelling, property-based ---------------------------------------------------


def _relabelled(c, order):
    """``c`` with vertex ``order[i]`` renumbered i; names, lengths and
    provenance travel with the vertices."""
    new = {old: i for i, old in enumerate(order)}
    return MetricComplex(c.geometry, [c.vertices[v] for v in order],
                         [[new[v] for v in t] for t in c.top_cells],
                         [(*(new[v] for v in e), a) for e, a in c.lengths.items()],
                         provenance=c.provenance)


def _same_up_to_generator_order(m1, m2):
    n = len(m1.m)
    return len(m2.m) == n and any(
        all(m1.m[p[i]][p[j]] == m2.m[i][j] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n)))


def _apartment_names(c, cert):
    return sorted(sorted(tuple(sorted(c.vertices[v] for v in t)) for t in a.cells)
                  for a in cert.apartments)


@pytest.fixture(scope="module")
def relabel_cases(k33, heawood, octahedron):
    cases = {"s0*k33": suspension(k33), "s0*heawood": suspension(heawood),
             "octahedron": octahedron}
    return {name: (c, check_spherical(c)) for name, c in cases.items()}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(("s0*k33", "s0*heawood", "octahedron")))
def test_relabelling_keeps_certificate(relabel_cases, data, name):
    """A relabelled copy walks both apartment searches in another order and
    must still find the same verdict, thickness, apartments and flags, and
    the same Coxeter matrix up to generator order."""
    c, cert = relabel_cases[name]
    r = _relabelled(c, data.draw(st.permutations(range(len(c.vertices)))))
    other = check_spherical(r)
    assert (other.verdict, other.thickness, len(other.apartments), other.flags,
            other.apartments_exhaustive) == \
        (cert.verdict, cert.thickness, len(cert.apartments), cert.flags,
         cert.apartments_exhaustive)
    assert _same_up_to_generator_order(cert.coxeter_matrix, other.coxeter_matrix)
    assert _apartment_names(r, other) == _apartment_names(c, cert)


_JOIN_FACTORS = {
    "s0": lambda: discrete_complex(["0", "1"]),
    "d3": lambda: discrete_complex(["0", "1", "2"]),
    "k33": lambda: gen_rank2_building("complete_bipartite", s=3, t=3),
    "heawood": lambda: gen_rank2_building("projective_plane"),
    "petersen": gen_petersen,
    "k4": gen_k4,
}


def _join_factor(name):
    """A ``_JOIN_FACTORS`` complex whose vertex names carry the factor name,
    so that any two factors can be joined."""
    c = _JOIN_FACTORS[name]()
    return MetricComplex(c.geometry, [f"{name}:{v}" for v in c.vertices], c.top_cells,
                         [(*e, a) for e, a in c.lengths.items()],
                         allow_disconnected=c.allow_disconnected, provenance=c.provenance)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(pair=st.lists(st.sampled_from(sorted(_JOIN_FACTORS)), min_size=2, max_size=2,
                     unique=True))
def test_join_commutes(pair):
    """A * B and B * A get the same report but for the order of the Coxeter
    generators: the same verdict or diagnosis, thickness, apartments and
    flags, and Coxeter matrices equal up to a permutation of the generators.
    The factor pairs cover buildings, a suspension, a discrete join and the
    link failures of Petersen and K4.  When both factors fail, the first
    failing link is that of a top cell of the first factor, which is the
    second factor, so A * B carries B's diagnosis and B * A carries A's."""
    from buildctl.cli import report_of
    from buildctl.complexes import orthogonal_join
    a, b = (_join_factor(name) for name in pair)
    ab = check_spherical(orthogonal_join(a, b))
    ba = check_spherical(orthogonal_join(b, a))
    reports = [report_of(r) for r in (ab, ba)]
    for rep in reports:
        rep.pop("coxeter", None)
    own = [report_of(check_spherical(f)).get("diagnosis") for f in (a, b)]
    if all(own):
        assert [rep["diagnosis"]["condition"] for rep in reports] == ["link_failure"] * 2
        assert [rep["diagnosis"]["inner"] for rep in reports] == own[::-1], pair
        return
    assert reports[0] == reports[1], pair
    if isinstance(ab, Diagnosis) or ab.coxeter_matrix is None:
        assert isinstance(ba, Diagnosis) or ba.coxeter_matrix is None, pair
        return
    assert _same_up_to_generator_order(ab.coxeter_matrix, ba.coxeter_matrix), pair
