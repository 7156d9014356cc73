import itertools
import math
import random

import numpy as np
import pytest

from buildctl.complexes import validate, vertex_link
from buildctl.coxeter import (BudgetExceeded, CoxeterError, CoxeterMatrix,
                              classify, cosine_form, cosine_verdicts, coxeter_complex,
                              dihedral, generate_reflection_group,
                              irreducible_components, named_matrix)
from buildctl.metric_graph import MetricGraph
from buildctl.recognizer import recognize_dim1


def test_cosine_form_a2():
    B = cosine_form(named_matrix("A2"))
    assert np.allclose(B, [[1, -0.5], [-0.5, 1]])


def test_cosine_form_infinite_bond():
    M = CoxeterMatrix(("s", "t"), ((1, 0), (0, 1)))
    B = cosine_form(M)
    assert np.allclose(B, [[1, -1], [-1, 1]])


def test_cosine_form_rank1():
    assert np.allclose(cosine_form(named_matrix("A1")), [[1.0]])


def test_cosine_form_offdiag_range():
    for name in ("A2", "A3", "B3", "A1xA1xA1", "~A2"):
        B = cosine_form(named_matrix(name))
        n = len(B)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert -1.0 <= B[i, j] <= 0.0


def test_classify_a2_spherical_order6():
    cls = classify(named_matrix("A2"))
    assert cls.verdict == "spherical" and cls.group_order == 6


def test_classify_a2_tilde_euclidean():
    cls = classify(named_matrix("~A2"))
    assert cls.verdict == "euclidean"
    assert abs(np.linalg.det(cosine_form(named_matrix("~A2")))) <= 1e-9


def test_classify_rank2_finite_always_spherical():
    for m in (2, 3, 4, 5, 6, 7, 12):
        cls = classify(dihedral(m))
        assert cls.verdict == "spherical" and cls.group_order == 2 * m


def test_classify_infinite_dihedral():
    cls = classify(CoxeterMatrix(("s", "t"), ((1, 0), (0, 1))))
    assert cls.verdict == "euclidean"


def test_classify_hyperbolic_is_other():
    # (2,3,7) triangle group: indefinite cosine form
    M = CoxeterMatrix(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1)))
    assert classify(M).verdict == "other"


def test_classify_mixed_components_is_other():
    # spherical A1 x euclidean ~A2 is neither spherical nor euclidean
    M = CoxeterMatrix(
        ("x", "a", "b", "c"),
        ((1, 2, 2, 2), (2, 1, 3, 3), (2, 3, 1, 3), (2, 3, 3, 1)))
    assert classify(M).verdict == "other"


def test_classify_permutation_invariant():
    rng = random.Random(5)
    M = named_matrix("B3")
    base = classify(M)
    for _ in range(5):
        perm = list(range(M.rank))
        rng.shuffle(perm)
        M2 = CoxeterMatrix(tuple(M.generators[i] for i in perm),
                           tuple(tuple(M.m[i][j] for j in perm) for i in perm))
        cls = classify(M2)
        assert cls.verdict == base.verdict
        assert cls.group_order == base.group_order


def test_irreducible_components():
    assert irreducible_components(named_matrix("A1xA1")) == ((0,), (1,))
    assert irreducible_components(named_matrix("A3")) == ((0, 1, 2),)
    M = CoxeterMatrix(("a", "b", "c", "d"),
                      ((1, 3, 2, 2), (3, 1, 2, 2), (2, 2, 1, 4), (2, 2, 4, 1)))
    assert irreducible_components(M) == ((0, 1), (2, 3))


def test_group_orders():
    assert len(generate_reflection_group(named_matrix("A1"))) == 2
    assert len(generate_reflection_group(named_matrix("A2"))) == 6
    assert len(generate_reflection_group(named_matrix("A3"))) == 24
    assert len(generate_reflection_group(named_matrix("B3"))) == 48


def test_group_elements_orthogonal():
    for g in generate_reflection_group(named_matrix("A3")):
        assert np.allclose(g.matrix @ g.matrix.T, np.eye(3), atol=1e-9)


def test_group_budget():
    with pytest.raises(BudgetExceeded):
        generate_reflection_group(named_matrix("B3"), budget=10)


def test_matrix_validation():
    with pytest.raises(CoxeterError):
        CoxeterMatrix(("s",), ((2,),))
    with pytest.raises(CoxeterError):
        CoxeterMatrix(("s", "t"), ((1, 3), (2, 1)))
    with pytest.raises(CoxeterError):
        CoxeterMatrix(("s", "t"), ((1, 1), (1, 1)))


def test_i2m_complex_is_2m_circle():
    for m in (2, 3, 4, 6):
        model = coxeter_complex(dihedral(m))
        cx = model.complex
        assert cx.dimension == 1
        assert len(cx.top_cells) == 2 * m
        assert len(cx.vertices) == 2 * m
        lengths = {str(cx.edge_length(i, j)) for i, j in cx.edges}
        assert lengths == {f"pi/{m}"} if m > 1 else {"pi"}
        res = recognize_dim1(cx)
        assert res.verdict == "thin_building" and res.m == m


def test_a1_cubed_complex_is_octahedron():
    cx = coxeter_complex(named_matrix("A1xA1xA1")).complex
    assert validate(cx).ok
    assert len(cx.top_cells) == 8 and len(cx.vertices) == 6
    assert {str(cx.edge_length(i, j)) for i, j in cx.edges} == {"pi/2"}


def test_a3_complex_counts_and_links():
    model = coxeter_complex(named_matrix("A3"))
    cx = model.complex
    assert len(cx.top_cells) == 24 == len(model.elements)
    V, E, F = len(cx.vertices), len(cx.edges), len(cx.top_cells)
    assert V - E + F == 2
    assert validate(cx).ok
    # every vertex link is a full circle, recognized as thin
    for name in cx.vertices:
        res = recognize_dim1(vertex_link(cx, name))
        assert res.verdict == "thin_building"


def test_chamber_count_equals_group_order():
    for name in ("A2", "A3", "A1xA1xA1", "B3"):
        model = coxeter_complex(named_matrix(name))
        assert len(model.complex.top_cells) == len(model.elements)
        assert len(model.chamber_of) == len(model.elements)


def test_rank1_complex_is_s0():
    cx = coxeter_complex(named_matrix("A1")).complex
    assert cx.dimension == 0 and len(cx.vertices) == 2


def test_coxeter_complex_refuses_nonspherical():
    with pytest.raises(CoxeterError):
        coxeter_complex(named_matrix("~A2"))


def test_json_roundtrip():
    M = named_matrix("B3")
    assert CoxeterMatrix.from_json_dict(
        {"generators": list(M.generators), "m": [list(r) for r in M.m]}) == M


def test_classify_budget_flag():
    cls = classify(named_matrix("B3"), budget=10)
    assert cls.verdict == "spherical"
    assert cls.group_order is None and not cls.order_known


def test_cosine_verdicts_is_the_classify_sign_test(monkeypatch):
    """classify reports the sign test's components and verdicts and adds the
    order; the sign test alone enumerates no group, whatever the budget."""
    hyperbolic = CoxeterMatrix(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1)))
    mixed = CoxeterMatrix(("x", "a", "b", "c"),
                          ((1, 2, 2, 2), (2, 1, 3, 3), (2, 3, 1, 3), (2, 3, 3, 1)))
    matrices = [named_matrix(n) for n in ("A1", "A2", "B3", "A1xA1xA1", "A1xI2(3)", "~A2")]
    matrices += [dihedral(7), CoxeterMatrix(("s", "t"), ((1, 0), (0, 1))), hyperbolic, mixed]
    expected = [classify(M) for M in matrices]

    def no_group(*args, **kwargs):
        raise AssertionError("the sign test enumerated a group")

    monkeypatch.setattr("buildctl.coxeter.generate_reflection_group", no_group)
    for M, cls in zip(matrices, expected):
        assert cosine_verdicts(M) == (cls.components, cls.component_verdicts, cls.verdict)
    assert [cls.verdict for cls in expected[-4:]] == ["spherical", "euclidean", "other", "other"]
