import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from buildctl.angles import Angle
from buildctl.complexes import (MetricComplex, discrete_complex, suspension,
                                vertex_link)
from buildctl.coxeter import coxeter_complex, named_matrix
from buildctl.corpus import (gen_a2_window, gen_k4, gen_petersen,
                             gen_punctured_octahedron, gen_rank2_building,
                             gen_short_lune)
from buildctl.metric_graph import GraphPoint, MetricGraph
from buildctl.recognizer import (Chart, Diagnosis, check_euclidean,
                                 check_spherical, discrete_extension_check,
                                 enumerate_apartments_dim1, recognize_dim1,
                                 thin_isomorphic, verify_def52)

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
    assert wit["condition"] == "dep_empty"


def test_dep_heawood_as_graph(heawood):
    ok, wit = discrete_extension_check(heawood)
    assert ok


def test_dep_punctured_octahedron_not_discrete():
    # a boundary vertex link is a 3*pi/2 path: its distance-pi superlevel set
    # from an endpoint is a fat interval
    ok, wit = discrete_extension_check(gen_punctured_octahedron())
    assert not ok and wit["condition"] == "dep_not_discrete"


def test_dep_single_triangle_empty():
    tri = MetricComplex("spherical", ["a", "b", "c"], [(0, 1, 2)],
                        [(0, 1, Angle.exact(1, 2)), (0, 2, Angle.exact(1, 2)),
                         (1, 2, Angle.exact(1, 2))])
    ok, wit = discrete_extension_check(tri)
    assert not ok and wit["condition"] == "dep_empty"


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
    "m": None, "thickness": 2, "apartments": {"count": 0, "exhaustive": False},
    "flags": ["apartment_axiom2_unverified", "apartments_sampled"],
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


def test_no_surface_growth_inside_dim3_links(k33, monkeypatch):
    import buildctl.geodesics as geodesics
    calls = []
    original = geodesics.propagate_all

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "propagate_all", counting)
    cert = check_spherical(suspension(suspension(k33)))
    assert cert.verdict == "suspension"
    assert calls == []
    # the guard is live: a dimension-2 complex grows its surfaces through it
    assert len(check_spherical(suspension(k33)).apartments) == 9
    assert calls


def test_no_surface_growth_in_thin_complexes(monkeypatch):
    """A thin complex with spherical Euler characteristic is its own single
    apartment, so no sector propagation runs."""
    import buildctl.geodesics as geodesics
    calls = []
    original = geodesics.propagate_all

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "propagate_all", counting)
    from buildctl.coxeter import CoxeterMatrix
    h3 = CoxeterMatrix(("s0", "s1", "s2"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    for M in (named_matrix("A3"), named_matrix("B3"), h3):
        c = coxeter_complex(M).complex
        cert = check_spherical(c)
        assert cert.verdict == "thin_building", M
        assert len(cert.apartments) == 1 and cert.apartments_exhaustive, M
        assert cert.apartments[0].cells == c.top_cells, M
    assert calls == []
    # the Euler guard is live: the antipodal quotient of B3 (an RP^2, thin,
    # Euler characteristic 1) grows surfaces, finds no sphere, and is not
    # taken for its own apartment (which would fail the isometry check)
    res = check_spherical(_antipodal_quotient(coxeter_complex(named_matrix("B3")).complex))
    assert getattr(res, "apartments", ()) == ()
    assert calls


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
