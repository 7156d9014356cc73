import itertools
import json
import math
import random

import numpy as np
import pytest

import oracles

from buildctl.complexes import validate, vertex_link
from buildctl.coxeter import (INFINITE, BudgetExceeded, CoxeterError, CoxeterMatrix,
                              classify, clear_group_memo, cosine_form, cosine_verdicts,
                              coxeter_complex, coxeter_group, dihedral,
                              generate_reflection_group, irreducible_components,
                              named_matrix)
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
        B = np.asarray(cosine_form(named_matrix(name)))
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


def test_classify_reads_dihedral_orders_off_the_matrix():
    """A rank-1 component has order 2 and I2(m) order 2m (Humphreys, 1.1),
    which enumeration confirms for m <= 30 and at m = 5000, where roots
    rounded to 9 digits fell on both sides of a rounding boundary and gave
    49568 elements; classify reads them off the matrix, so they are known
    under a budget of one element, up to m = 10^4 and in a product, while a
    rank-3 component is still enumerated."""
    assert len(generate_reflection_group(named_matrix("A1"))) == 2
    for m in range(2, 31):
        assert len(generate_reflection_group(dihedral(m))) == 2 * m
    assert len(generate_reflection_group(dihedral(5000), budget=10 ** 5)) == 10000
    for m in range(2, 10 ** 4 + 1):
        cls = classify(dihedral(m), budget=1)
        assert cls.group_order == 2 * m and cls.order_known, m
    product = CoxeterMatrix(("x", "s", "t"), ((1, 2, 2), (2, 1, 5000), (2, 5000, 1)))
    assert classify(product, budget=1).group_order == 20000
    assert classify(named_matrix("A1xI2(3)"), budget=1).group_order == 12
    assert classify(named_matrix("A3"), budget=1).group_order is None


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
    for _, g in oracles.reference_reflection_group(named_matrix("A3"), 10 ** 6):
        assert np.allclose(g @ g.T, np.eye(3), atol=1e-9)


def test_group_budget():
    with pytest.raises(BudgetExceeded):
        generate_reflection_group(named_matrix("B3"), budget=10)


def test_group_of_an_infinite_system_is_refused():
    """A cosine form that is not positive definite is refused at once, not
    enumerated until the budget runs out."""
    for M in (named_matrix("~A2"), dihedral(INFINITE),
              CoxeterMatrix(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1)))):
        with pytest.raises(CoxeterError, match="not positive definite"):
            generate_reflection_group(M)


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


_AFFINE_ROWS = {
    "~A1": ((1, 0), (0, 1)),
    "~A3": ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1)),
    "~B2": ((1, 4, 2), (4, 1, 4), (2, 4, 1)),
    "~G2": ((1, 6, 2), (6, 1, 3), (2, 3, 1)),
    "~C3": ((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)),
    "~B3": ((1, 2, 3, 2), (2, 1, 3, 2), (3, 3, 1, 4), (2, 2, 4, 1)),
    "~D4": ((1, 2, 3, 2, 2), (2, 1, 3, 2, 2), (3, 3, 1, 3, 3), (2, 2, 3, 1, 2),
            (2, 2, 3, 2, 1)),
    "~F4": ((1, 3, 2, 2, 2), (3, 1, 3, 2, 2), (2, 3, 1, 4, 2), (2, 2, 4, 1, 3),
            (2, 2, 2, 3, 1)),
}
_HYPERBOLIC_ROWS = {
    "(2,3,7)": ((1, 2, 3), (2, 1, 7), (3, 7, 1)),
    "(3,3,4)": ((1, 3, 3), (3, 1, 4), (3, 4, 1)),
    "(4,4,4)": ((1, 4, 4), (4, 1, 4), (4, 4, 1)),
    "(inf,inf,inf)": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "5-3-5": ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 5), (2, 2, 5, 1)),
    "~A2 x A1, 7": ((1, 3, 3, 7), (3, 1, 3, 2), (3, 3, 1, 2), (7, 2, 2, 1)),
}


def test_cosine_verdicts_equal_the_eigvalsh_sign_test():
    """The Jacobi sign test equals numpy's eigvalsh one on every named,
    affine and hyperbolic matrix and on 300 seeded random ones of rank 1-6
    (m from 2-7 or infinite)."""
    of_rows = lambda rows: CoxeterMatrix(tuple(f"s{i}" for i in range(len(rows))), rows)
    affine = [of_rows(r) for r in _AFFINE_ROWS.values()]
    hyperbolic = [of_rows(r) for r in _HYPERBOLIC_ROWS.values()]
    matrices = [_model_matrix(n) for n in _MODELS]
    matrices += [named_matrix(n) for n in ("~A2", "A1xA1")] + affine + hyperbolic
    rng = random.Random(2020)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[1] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.choice((2, 2, 2, 3, 3, 4, 5, 6, 7, 0))
        matrices.append(of_rows(rows))
    verdicts = {}
    for M in matrices:
        got = verdicts[M] = cosine_verdicts(M)
        assert got == oracles.eigvalsh_cosine_verdicts(M), M
    assert {verdicts[M][2] for M in affine} == {"euclidean"}
    assert {verdicts[M][2] for M in hyperbolic} == {"other"}
    assert {v[2] for v in verdicts.values()} == {"spherical", "euclidean", "other"}


_MODEL_ROWS = {
    "H3": ((1, 5, 2), (5, 1, 3), (2, 3, 1)),
    "A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "B4": ((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "D4": ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),
    "F4": ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1)),
    "H4": ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "A5": ((1, 3, 2, 2, 2), (3, 1, 3, 2, 2), (2, 3, 1, 3, 2), (2, 2, 3, 1, 3),
           (2, 2, 2, 3, 1)),
}
_MODELS = ("A1", "A2", "B2", "G2", "A3", "B3", "H3", "A4", "B4", "D4", "F4",
           "A1xA1xA1", "A1xI2(3)")
_SMALL = ("A1", "A2", "B2", "G2", "A3", "B3", "A1xA1xA1", "A1xI2(3)")


def _model_matrix(name):
    rows = _MODEL_ROWS.get(name)
    if rows is None:
        return named_matrix(name)
    return CoxeterMatrix(tuple(f"s{i}" for i in range(len(rows))), rows)


@pytest.mark.parametrize("name", _MODELS)
def test_coset_model_equals_the_rounded_key_model(name):
    """Root permutations and standard cosets rebuild the rounding-based
    model: the same words, chambers, vertex names and types, the
    right-multiplication table of the oracle's matrices, and every edge the
    oracle's length (the same Fraction when exact)."""
    from buildctl.angles import cmp_units
    M = _model_matrix(name)
    ref = oracles.reference_coxeter_complex(M, 10 ** 6)
    model = coxeter_complex(M)
    assert [g.word for g in model.elements] == [w for w, _ in ref["elements"]]
    assert model.chamber_of == ref["chamber_of"]
    assert model.complex.top_cells == tuple(sorted(ref["chamber_of"].values()))
    assert list(model.complex.vertices) == ref["names"]
    assert model.vertex_types == ref["vertex_types"]
    lengths = model.complex.lengths
    assert set(lengths) == set(ref["lengths"])     # both keyed by sorted index pairs
    for (i, j), want in ref["lengths"].items():
        got = lengths[i, j]
        assert cmp_units(got.pi_units, want.pi_units) == 0, (name, i, j)
        assert got.is_exact == want.is_exact and (not got.is_exact or got.frac == want.frac)
    # the right-multiplication table is the one of the oracle's matrices
    mats = [h for _, h in ref["elements"]]
    gens = [mats[k] for k in model.elements[0].right]
    assert [model.elements[k].word for k in model.elements[0].right] == \
        [(s,) for s in range(M.rank)]
    for g, h in zip(model.elements, mats):
        for s, k in enumerate(g.right):
            assert np.allclose(h @ gens[s], mats[k])


@pytest.mark.parametrize("name", _MODELS)
def test_model_edges_of_one_type_pair_share_one_length(name):
    """W acts by isometries, so every edge of a type pair has one length;
    the model's JSON has exactly one length record value per type pair."""
    from buildctl.complexes import loads
    model = coxeter_complex(_model_matrix(name))
    cx, types = model.complex, model.vertex_types
    by_pair, records = {}, {}
    for e, a in cx.lengths.items():
        by_pair.setdefault(frozenset(types[v] for v in e), set()).add(a)
    assert all(len(v) == 1 for v in by_pair.values()), name
    copy = json.loads(loads(cx.dumps()).dumps())
    for rec in copy["edge_lengths"]:
        pair = frozenset(types[v] for v in rec.pop("edge"))
        records.setdefault(pair, set()).add(json.dumps(rec, sort_keys=True))
    assert records.keys() == by_pair.keys()
    assert all(len(v) == 1 for v in records.values()), name
    n = model.system.rank
    assert len(records) == n * (n - 1) // 2


@pytest.fixture
def enumerations(monkeypatch):
    """Empty the group memo and patch ``generate_reflection_group``; the
    returned list receives the matrix of every enumeration."""
    import buildctl.coxeter as coxeter
    coxeter.clear_group_memo()
    seen = []

    def counting(M, budget=coxeter.B_GROUP_DEFAULT):
        seen.append(M)
        return generate_reflection_group(M, budget=budget)

    monkeypatch.setattr(coxeter, "generate_reflection_group", counting)
    yield seen
    coxeter.clear_group_memo()


@pytest.mark.parametrize("name", _SMALL)
def test_group_and_model_budgets_match_the_rounded_key_oracle(name, enumerations):
    """Every budget from 1 to |W| + 1 ends the enumeration exactly when the
    rounding-based oracle does, with the same message, whether each call
    enumerates the group (cold: the memo emptied before it) or reads the
    model an earlier call kept (warm)."""
    M = _model_matrix(name)
    order = len(oracles.reference_reflection_group(M, 10 ** 6))

    def outcome(fn, budget, warm=False):
        if not warm:
            clear_group_memo()
        try:
            out = fn(M, budget=budget)
        except BudgetExceeded as exc:
            return str(exc)
        return len(out.elements if fn in (coxeter_group, coxeter_complex) else out)

    for budget in range(1, order + 2):
        want = outcome(oracles.reference_reflection_group, budget)
        assert want == (order if budget >= order
                        else f"group enumeration exceeded budget {budget}")
        assert outcome(generate_reflection_group, budget) == want, (name, budget)
        assert outcome(coxeter_group, budget) == want, (name, budget)
        assert outcome(coxeter_complex, budget) == want, (name, budget)
    assert enumerations == [M] * (2 * order + 2)
    enumerations.clear()
    clear_group_memo()
    coxeter_group(M)
    for budget in range(1, order + 2):
        want = outcome(oracles.reference_reflection_group, budget, warm=True)
        assert outcome(coxeter_group, budget, warm=True) == want, (name, budget)
        assert outcome(coxeter_complex, budget, warm=True) == want, (name, budget)
    assert enumerations == [M]


@pytest.mark.parametrize("name", _MODELS)
def test_kept_model_refuses_every_budget_below_its_order(name, enumerations):
    """A kept model raises the enumeration's message for every budget below
    |W| (checked against a cold enumeration at 1, |W| / 2 and |W| - 1) and
    is returned from |W| on, with no enumeration."""
    M = _model_matrix(name)
    order = len(coxeter_group(M).elements)
    cold = {}
    for budget in {1, order // 2, order - 1} - {0}:
        with pytest.raises(BudgetExceeded) as exc:
            generate_reflection_group(M, budget=budget)
        cold[budget] = str(exc.value)
    enumerations.clear()
    for budget in range(order - 1, -2, -1):
        with pytest.raises(BudgetExceeded) as exc:
            coxeter_group(M, budget=budget)
        assert str(exc.value) == cold.get(budget, f"group enumeration exceeded budget {budget}")
    assert coxeter_group(M, budget=order).elements == coxeter_group(M).elements
    assert enumerations == []


def test_memo_hit_is_the_kept_model(enumerations):
    """A second call returns the same object and enumerates nothing; the
    model is read-only, since every caller shares it."""
    M = named_matrix("B3")
    model = coxeter_group(M)
    assert enumerations == [M]
    assert coxeter_group(M) is model and coxeter_group(M, budget=48) is model
    assert coxeter_complex(M).elements is model.elements
    assert enumerations == [M]
    assert all(isinstance(x, tuple) for x in (model.elements, model.labels, model.steps))
    with pytest.raises(TypeError):
        model.pair_length[0, 1] = model.pair_length[1, 2]


def test_refusals_are_not_kept(enumerations):
    """A1 x I2(50000) refused under budget 8 is enumerated again on the
    next call and refused again."""
    M = CoxeterMatrix(("a", "s", "t"), ((1, 2, 2), (2, 1, 50000), (2, 50000, 1)))
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="exceeded budget 8"):
            coxeter_group(M, budget=8)
    assert enumerations == [M, M]


def test_memo_keys_carry_the_generator_names(enumerations):
    """Matrices equal up to generator names are kept apart, each model
    naming its own matrix (which provenance and certificates compare)."""
    M, N = dihedral(5), dihedral(5, names=("x", "y"))
    assert coxeter_group(M).system == M and coxeter_group(N).system == N
    assert coxeter_group(M).system == M and coxeter_group(N).system == N
    assert coxeter_complex(N).complex.provenance == "coxeter_complex(x-y:5)"
    assert enumerations == [M, N]


def test_memo_keeps_at_most_32_models(enumerations):
    """After 40 dihedral groups the memo holds 32, the oldest dropped: the
    first is enumerated again, the last is not."""
    import buildctl.coxeter as coxeter
    for m in range(3, 43):
        coxeter_group(dihedral(m))
    assert len(coxeter._GROUP_MEMO) <= 32
    enumerations.clear()
    coxeter_group(dihedral(42))
    assert enumerations == []
    coxeter_group(dihedral(3))
    assert enumerations == [dihedral(3)]


def test_rank0_group_is_never_refused(enumerations):
    """The empty system's group is the identity, which no budget refuses,
    cold or kept."""
    M = CoxeterMatrix((), ())
    for budget in (0, -1, 1, 0):
        assert len(coxeter_group(M, budget=budget).elements) == 1
    assert enumerations == [M]


def _edge_list(model):
    """The model complex's edges as a method listed them on every call
    before ``CoxeterGroupModel.edge_lengths`` was cached: (i, j, length),
    i < j, in order of first appearance over the elements' chambers, each
    vertex tuple sorted."""
    seen, out = set(), []
    for row in model.labels:
        for i, j in itertools.combinations(sorted(row), 2):
            if (i, j) not in seen:
                seen.add((i, j))
                out.append((i, j, model.pair_length[model.vertex_types[i],
                                                    model.vertex_types[j]]))
    return out


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4"])
def test_edge_lengths_are_computed_once_per_kept_model(name):
    """``edge_lengths`` is a tuple on the kept model, equal to the list
    computed per call before, not computed for a group whose complex is
    never built, and two ``coxeter_complex`` calls share it; the complex
    carries exactly those lengths."""
    M = _model_matrix(name)
    clear_group_memo()
    assert "edge_lengths" not in vars(coxeter_group(M))
    one, two = coxeter_complex(M), coxeter_complex(M)
    assert isinstance(one.edge_lengths, tuple)
    assert list(one.edge_lengths) == _edge_list(one)
    assert one.edge_lengths is two.edge_lengths is coxeter_group(M).edge_lengths
    assert one.complex is not two.complex
    assert one.complex.lengths == {(i, j): a for i, j, a in one.edge_lengths}
