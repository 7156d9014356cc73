import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from buildctl.angles import Angle
from buildctl.complexes import MetricComplex, loads
from buildctl.coxeter import CoxeterMatrix, coxeter_complex
from buildctl.homotopy import (NONTRIVIAL, TRIVIAL, UNKNOWN, _h1_free_generator,
                               _presentation, simple_connectivity)


def test_octahedron_sphere_trivial(octahedron):
    res = simple_connectivity(octahedron)
    assert res.status == TRIVIAL


def test_circle_without_2cells_nontrivial():
    c6 = MetricComplex("spherical", [f"v{i}" for i in range(6)],
                       [(i, (i + 1) % 6) for i in range(6)],
                       [(i, (i + 1) % 6, Angle.exact(1, 3)) for i in range(6)])
    res = simple_connectivity(c6)
    assert res.status == NONTRIVIAL
    assert res.witness_loop is not None
    # the witness is a closed edge loop
    loop = res.witness_loop
    assert loop[0] == loop[-1]
    names = set(c6.vertices)
    assert all(v in names for v in loop)


def test_a2_window_trivial(a2_window):
    res = simple_connectivity(a2_window.complex)
    assert res.status == TRIVIAL


def test_torsion_detected_by_quotient_search():
    # minimal projective-plane triangulation: pi_1 = Z/2, H_1 torsion only
    tris = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
            (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]
    tris0 = [tuple(x - 1 for x in t) for t in tris]
    edges = sorted({e for t in tris0 for e in itertools.combinations(sorted(t), 2)})
    rp2 = MetricComplex("spherical", [f"v{i}" for i in range(6)], tris0,
                        [(i, j, Angle.exact(1, 2)) for i, j in edges])
    res = simple_connectivity(rp2)
    assert res.status == NONTRIVIAL


def test_unknown_is_first_class(monkeypatch):
    import buildctl.homotopy as H
    tris = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
            (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]
    tris0 = [tuple(x - 1 for x in t) for t in tris]
    edges = sorted({e for t in tris0 for e in itertools.combinations(sorted(t), 2)})
    rp2 = MetricComplex("spherical", [f"v{i}" for i in range(6)], tris0,
                        [(i, j, Angle.exact(1, 2)) for i, j in edges])
    monkeypatch.setattr(H, "_nontrivial_quotient", lambda *a, **k: False)
    res = H.simple_connectivity(rp2)
    assert res.status == UNKNOWN


def test_tree_skeleton_trivial():
    path = MetricComplex("spherical", ["a", "b", "c"], [(0, 1), (1, 2)],
                         [(0, 1, Angle.exact(1, 2)), (1, 2, Angle.exact(1, 2))])
    assert simple_connectivity(path).status == TRIVIAL


@st.composite
def _presentations(draw):
    ngens = draw(st.integers(0, 7))
    if ngens == 0:
        return 0, []
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=9), max_size=9))
    return ngens, [tuple(r) for r in relators]


@settings(max_examples=400, deadline=None)
@given(_presentations())
def test_sparse_h1_elimination_matches_dense(pres):
    ngens, relators = pres
    assert _h1_free_generator(ngens, relators) == \
        oracles.h1_free_generator_dense(ngens, relators)


def test_sparse_h1_elimination_on_a4_presentation():
    a4 = CoxeterMatrix(("s0", "s1", "s2", "s3"), ((1, 3, 2, 2), (3, 1, 3, 2),
                                                  (2, 3, 1, 3), (2, 2, 3, 1)))
    c = loads(coxeter_complex(a4).complex.dumps())
    ngens, relators, _ = _presentation(c)
    assert (ngens, len(relators)) == (121, 240)
    assert _h1_free_generator(ngens, relators) is None
    assert oracles.h1_free_generator_dense(ngens, relators) is None
