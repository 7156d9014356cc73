import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from buildctl.angles import Angle
from buildctl.complexes import (ComplexError, InvalidComplexError,
                                MetricComplex, cell_link, discrete_complex,
                                loads, orthogonal_join, realizability, s0,
                                suspension, validate, vertex_link)
from buildctl.corpus import GENERATORS, gen_octahedron, gen_rank2_building
from buildctl.coxeter import coxeter_complex, named_matrix


def triangle(geometry, l01, l02, l12):
    return MetricComplex(geometry, ["a", "b", "c"], [(0, 1, 2)],
                         [(0, 1, l01), (0, 2, l02), (1, 2, l12)])


def test_octahedron_valid_pure_dim2(octahedron):
    rep = validate(octahedron)
    assert rep.ok
    assert octahedron.dimension == 2
    assert len(octahedron.top_cells) == 8
    assert len(octahedron.edges) == 12


def test_unrealizable_shape_names_cell():
    # pi/3, pi/3 legs admit a third side only up to 2*pi/3 = 2.094
    bad = triangle("spherical", Angle.exact(1, 3), Angle.exact(1, 3), Angle(rad=2.2))
    rep = validate(bad)
    assert not rep.ok
    assert any(i.kind == "shape" and set(i.where) == {"a", "b", "c"}
               for i in rep.issues)


def test_two_right_legs_admit_any_third_side_under_pi():
    ok = triangle("spherical", Angle.exact(1, 2), Angle.exact(1, 2), Angle(rad=2.0))
    assert validate(ok).ok


def test_gluing_mismatch_names_edge():
    # two triangles sharing edge (0,1) declared with different lengths
    c = MetricComplex(
        "spherical", ["a", "b", "c", "d"], [(0, 1, 2), (0, 1, 3)],
        [(0, 1, Angle.exact(1, 2)), (0, 1, Angle.exact(1, 3)),
         (0, 2, Angle.exact(1, 2)), (1, 2, Angle.exact(1, 2)),
         (0, 3, Angle.exact(1, 2)), (1, 3, Angle.exact(1, 2))])
    rep = validate(c)
    assert not rep.ok
    assert any(i.kind == "gluing" and set(i.where) == {"a", "b"} for i in rep.issues)


def test_dangling_vertex_is_purity_issue():
    c = MetricComplex("spherical", ["a", "b", "c"], [(0, 1)],
                      [(0, 1, Angle.exact(1, 2))])
    rep = validate(c)
    assert not rep.ok
    assert any(i.kind == "purity" and i.where == ("c",) for i in rep.issues)


def test_out_of_range_index_rejected_at_construction():
    with pytest.raises(ComplexError):
        MetricComplex("spherical", ["a"], [(0, 5)], [])


def test_invalid_complex_rejected_downstream():
    bad = triangle("spherical", Angle.exact(1, 3), Angle.exact(1, 3), Angle(rad=2.2))
    with pytest.raises(InvalidComplexError):
        vertex_link(bad, "a")


def test_octahedron_vertex_link_is_c4_right_angled(octahedron):
    lk = vertex_link(octahedron, "a0")
    assert lk.dimension == 1
    assert len(lk.vertices) == 4 and len(lk.top_cells) == 4
    for i, j in lk.edges:
        assert lk.edge_length(i, j) == Angle.exact(1, 2)
    total = sum(lk.edge_length(i, j).pi_units for i, j in lk.edges)
    assert total == Fraction(2)


def test_single_triangle_link_is_one_edge():
    c = triangle("spherical", Angle.exact(1, 2), Angle.exact(1, 2), Angle.exact(1, 2))
    lk = vertex_link(c, "a")
    assert len(lk.top_cells) == 1 and lk.dimension == 1
    assert lk.edge_length(0, 1) == Angle.exact(1, 2)


def test_pole_link_of_suspended_heawood_is_heawood(heawood, s0_heawood):
    lk = vertex_link(s0_heawood, "N")
    # same vertex names, same cells, same exact lengths as the base
    assert set(lk.vertices) == set(heawood.vertices)
    base_cells = {frozenset(heawood.vertices[v] for v in c) for c in heawood.top_cells}
    link_cells = {frozenset(lk.vertices[v] for v in c) for c in lk.top_cells}
    assert base_cells == link_cells
    for i, j in lk.edges:
        assert lk.edge_length(i, j) == Angle.exact(1, 3)


def test_edge_link_of_octahedron_is_two_points(octahedron):
    lk = cell_link(octahedron, ["a0", "b0"])
    assert lk.dimension == 0
    assert len(lk.top_cells) == 2


def test_vertex_link_of_graph_counts_valence(heawood):
    lk = vertex_link(heawood, "p0")
    assert lk.dimension == 0 and len(lk.top_cells) == 3


def test_edge_link_in_suspension_is_base_link(s0_heawood):
    lk = cell_link(s0_heawood, ["N", "p0"])
    assert lk.dimension == 0 and len(lk.top_cells) == 3


def test_cell_link_errors(octahedron):
    with pytest.raises(ComplexError):
        cell_link(octahedron, ["a0", "a1"])      # not a cell (antipodal pair)
    with pytest.raises(ComplexError):
        cell_link(octahedron, ["a0", "b0", "c0"])  # top-dimensional
    with pytest.raises(ComplexError):
        vertex_link(s0(), "N")                     # a 0-dimensional complex


def test_vertex_index_reads_names_and_indices(octahedron):
    for i, name in enumerate(octahedron.vertices):
        assert octahedron.vertex_index(name) == octahedron.vertex_index(i) == i
    with pytest.raises(ComplexError, match="no vertex named 'zz'"):
        octahedron.vertex_index("zz")
    with pytest.raises(ComplexError, match="out of range"):
        octahedron.vertex_index(len(octahedron.vertices))


def test_join_of_discrete_sets_is_complete_bipartite():
    a = discrete_complex(["x0", "x1", "x2"])
    b = discrete_complex(["y0", "y1", "y2"])
    j = orthogonal_join(a, b)
    assert j.dimension == 1
    assert len(j.top_cells) == 9
    for i, k in j.edges:
        assert j.edge_length(i, k) == Angle.exact(1, 2)


def test_iterated_s0_join_is_octahedron(octahedron):
    assert len(octahedron.top_cells) == 8
    lengths = {octahedron.edge_length(i, j) for i, j in octahedron.edges}
    assert lengths == {Angle.exact(1, 2)}


def test_join_dimension_formula(heawood):
    j = orthogonal_join(s0(), heawood)
    assert j.dimension == heawood.dimension + 0 + 1


def test_suspension_of_three_points_subdivided():
    sy = suspension(discrete_complex(["y0", "y1", "y2"]))
    assert len(sy.vertices) == 5 and len(sy.top_cells) == 6
    assert all(sy.edge_length(i, j) == Angle.exact(1, 2) for i, j in sy.edges)


def test_suspension_of_hexagon_has_12_triangles():
    c6 = MetricComplex("spherical", [f"v{i}" for i in range(6)],
                       [(i, (i + 1) % 6) for i in range(6)],
                       [(i, (i + 1) % 6, Angle.exact(1, 3)) for i in range(6)])
    s = suspension(c6)
    assert s.dimension == 2 and len(s.top_cells) == 12


def test_suspension_of_empty_rejected():
    empty = MetricComplex("spherical", [], [], [])
    with pytest.raises(ComplexError):
        suspension(empty)


def test_join_requires_spherical():
    e = MetricComplex("euclidean", ["a", "b"], [(0, 1)], [(0, 1, Angle(rad=1.0))])
    with pytest.raises(ComplexError):
        orthogonal_join(e, discrete_complex(["x"]))


def test_links_of_valid_complexes_are_valid_and_pure(octahedron, heawood, s0_heawood):
    for c in (octahedron, heawood, s0_heawood):
        for name in c.vertices:
            lk = vertex_link(c, name)
            assert validate(lk).ok
            assert lk.dimension == c.dimension - 1
            assert all(len(t) == lk.dimension + 1 for t in lk.top_cells)


def test_json_roundtrip_byte_identical(octahedron, heawood, s0_heawood, tutte_coxeter):
    for c in (octahedron, heawood, s0_heawood, tutte_coxeter):
        s = c.dumps()
        assert loads(s).dumps() == s


def test_parser_rejects_duplicate_edge_declarations():
    c = gen_rank2_building("complete_bipartite")
    obj = c.to_json_dict()
    obj["edge_lengths"].append(obj["edge_lengths"][0])
    import json
    with pytest.raises(ComplexError):
        loads(json.dumps(obj))


def test_parser_rejects_missing_lengths_without_default():
    c = gen_rank2_building("complete_bipartite")
    obj = c.to_json_dict()
    obj["edge_lengths"] = obj["edge_lengths"][:-1]
    import json
    with pytest.raises(ComplexError):
        loads(json.dumps(obj))


def test_parser_applies_default_length():
    c = gen_rank2_building("complete_bipartite")
    obj = c.to_json_dict()
    obj["edge_lengths"] = []
    obj["default_length"] = {"pi": [1, 2]}
    import json
    c2 = loads(json.dumps(obj))
    assert validate(c2).ok
    assert all(c2.edge_length(i, j) == Angle.exact(1, 2) for i, j in c2.edges)


def _defaulted_records(c, seed):
    """c's JSON record with a seeded third of its edge records dropped and a
    ``default_length`` of 5pi/12, and the same record with the dropped
    edges declared explicitly at that length, in edge order."""
    import json
    obj = c.to_json_dict()
    rng = random.Random(seed)
    kept = [r for r in obj["edge_lengths"] if rng.random() > 1 / 3]
    dropped = sorted(tuple(r["edge"]) for r in obj["edge_lengths"] if r not in kept)
    explicit = kept + [{"edge": list(e), "pi": [5, 12]} for e in dropped]
    return (json.dumps({**obj, "edge_lengths": kept, "default_length": {"pi": [5, 12]}}),
            json.dumps({**obj, "edge_lengths": explicit}), len(dropped))


@pytest.mark.parametrize("label", ["corpus:complete-bipartite", "corpus:octahedron",
                                   "corpus:a2-window", "model:A3", "json:B3", "model:A4"])
def test_default_length_parse_builds_the_complex_once(label, monkeypatch):
    """A record whose default fills a third of its edges is built by one
    ``MetricComplex.__init__`` and gives the complex, JSON and validation
    report of the record with those edges declared; without the default, or
    with a malformed one, the parser names them as before."""
    import json
    c = _validation_corpus()[label]
    text, explicit, count = _defaulted_records(c, label)
    assert count > 0
    inits, init = [], MetricComplex.__init__

    def spy(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(MetricComplex, "__init__", spy)
        got = loads(text)
    assert len(inits) == 1
    want = loads(explicit)
    assert got.dumps() == want.dumps()
    assert got.lengths == want.lengths and list(got.lengths) == list(want.lengths)
    assert got.validation.to_json() == want.validation.to_json()
    obj = json.loads(text)
    del obj["default_length"]
    with pytest.raises(ComplexError, match=f"ambiguous input: {count} edges lack lengths "
                                           "and no default_length given"):
        loads(json.dumps(obj))
    with pytest.raises(ComplexError, match="malformed default_length 5"):
        loads(json.dumps({**obj, "default_length": 5}))
    # a bad cell is reported before the default, as when the complex came first
    bad_cell = {**obj, "top_cells": obj["top_cells"] + [[0, 0]], "default_length": 5}
    with pytest.raises(ComplexError, match="repeated vertex in cell"):
        loads(json.dumps(bad_cell))


def _broken_copy(c, kinds, rng):
    """A copy of c with the seeded defects ``kinds``: an impure cell (a face
    of a top cell declared as one), a new vertex on an edge cell without a
    length (impure above dimension 1), an uncovered vertex, a conflicting
    second length, a missing length, a degenerate triangle, a spherical
    edge longer than pi, and a disjoint second copy (disconnected)."""
    names, cells = list(c.vertices), [tuple(t) for t in c.top_cells]
    lengths, extra = dict(c.lengths), []
    edges = sorted(lengths)
    for kind in kinds:
        if kind == "impure":
            cells.append(rng.choice(cells)[:-1])
        elif kind == "dangling":
            names.append(f"dangling{len(names)}")
            cells.append((rng.randrange(len(c.vertices)), len(names) - 1))
        elif kind == "uncovered":
            names.append(f"lonely{len(names)}")
        elif kind == "conflict":
            e = rng.choice(edges)
            extra.append((*e, Angle(rad=c.lengths[e].radians * 0.75)))
        elif kind == "missing":
            del lengths[rng.choice(sorted(lengths))]
        elif kind == "degenerate":
            x, y, z = sorted(rng.sample(rng.choice([t for t in cells if len(t) > 2]), 3))
            if c.geometry == "spherical":
                sides = (Angle.exact(1, 3), Angle.exact(2, 3), Angle.exact(1, 3))
            else:
                sides = (Angle(rad=1.0), Angle(rad=2.0), Angle(rad=1.0))
            lengths.update(zip(((x, y), (x, z), (y, z)), sides))
        elif kind == "over_pi":
            lengths[rng.choice(edges)] = Angle.exact(5, 4)
        elif kind == "disconnected":
            n = len(names)
            names += [f"{v}'" for v in names]
            cells += [tuple(v + n for v in t) for t in cells]
            lengths.update({(i + n, j + n): a for (i, j), a in list(lengths.items())})
    return MetricComplex(c.geometry, names, cells,
                         [(*e, a) for e, a in lengths.items()] + extra, dimension=c.dimension)


_DEFECTS = ("impure", "dangling", "uncovered", "conflict", "missing", "degenerate", "over_pi",
            "disconnected")


def test_validation_equals_the_scan_oracle():
    """The one-pass validation gives ``oracles.scan_validation``'s report,
    issue for issue and in its order, on the validation corpus and on seeded
    broken copies of its smaller complexes: each defect alone (where the
    complex can have it) and three random sets of two to four defects."""
    broken = 0
    for label, c in _validation_corpus().items():
        assert c.validation.to_json() == oracles.scan_validation(c).to_json(), label
        if len(c.top_cells) > 400:
            continue
        rng = random.Random(label)
        fits = [k for k in _DEFECTS
                if not (k in ("impure", "degenerate") and c.dimension < 2)
                and not (k == "dangling" and c.dimension < 1)
                and not (k == "disconnected" and c.dimension < 1)
                and not (k == "over_pi" and c.geometry != "spherical")
                and not (k in ("conflict", "missing", "over_pi") and not c.lengths)]
        for kinds in [(k,) for k in fits] + [tuple(rng.sample(fits, rng.randint(2, 4)))
                                             for _ in range(3) if len(fits) >= 4]:
            b = _broken_copy(c, kinds, rng)
            rep = b.validation
            assert rep.to_json() == oracles.scan_validation(b).to_json(), (label, kinds)
            assert len(kinds) > 1 or not rep.ok, (label, kinds)
            broken += 1
    assert broken > 150


def test_empty_and_dim0_complexes_valid():
    assert validate(MetricComplex("spherical", [], [], [])).ok
    assert validate(discrete_complex(["a", "b", "c"])).ok


def test_gram_eigenvalue_check_threshold():
    # degenerate: edge of length pi makes the Gram matrix singular
    bad = triangle("spherical", Angle.exact(1, 2), Angle.exact(1, 2), Angle.exact(1))
    assert not validate(bad).ok


def test_euclidean_shape_check():
    ok = triangle("euclidean", Angle(rad=1.0), Angle(rad=1.0), Angle(rad=1.0))
    assert validate(ok).ok
    bad = triangle("euclidean", Angle(rad=1.0), Angle(rad=1.0), Angle(rad=2.5))
    assert not validate(bad).ok


def test_edge_gram_closed_form_matches_eigvalsh():
    """A 1-simplex reads its least Gram eigenvalue in closed form; verdicts
    and messages must equal those of eigvalsh on the 2x2 / 1x1 matrix."""
    import random

    import numpy as np

    from buildctl.angles import EPS_GRAM
    from buildctl.complexes import least_gram_eigenvalues, realizability

    def eigvalsh_realizable(geometry, a, eps):
        w0 = np.linalg.eigvalsh(oracles.gram_matrix(geometry, [a]))[0]
        if w0 <= eps:
            kind = "Gram" if geometry == "spherical" else "Cayley-Menger"
            return w0, (False, f"{kind} matrix not positive definite (min eigenvalue {w0:.3e})")
        return w0, (True, "")

    rng = random.Random(20260)
    angles = [Angle.exact(p, q) for q in range(1, 361) for p in range(1, q + 1)
              if math.gcd(p, q) == 1]
    angles += [Angle(rad=rng.uniform(1e-6, math.pi)) for _ in range(2000)]
    angles += [Angle(rad=x) for x in (1e-12, 1e-5, 3.16e-5, math.pi - 1e-5, math.pi)]
    for geometry in ("spherical", "euclidean"):
        for a in angles:
            # default threshold: the verdict; infinite threshold: every shape
            # fails, so the message carries the eigenvalue's .3e text
            for eps in (EPS_GRAM, math.inf):
                w0, want = eigvalsh_realizable(geometry, a, eps)
                assert realizability(geometry, [[a]], eps) == [want], (geometry, a)
            assert abs(least_gram_eigenvalues(geometry, [[a]])[0] - w0) <= 1e-14, (geometry, a)


def _law_of_cosines(c, v, u, w):
    """Uncached corner angle at v in (v, u, w), evaluated in the given order."""
    a = c.edge_length(v, u).radians
    b = c.edge_length(v, w).radians
    opp = c.edge_length(u, w).radians
    if c.geometry == "spherical":
        cosang = (math.cos(opp) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))
    else:
        cosang = (a * a + b * b - opp * opp) / (2.0 * a * b)
    return Angle.from_radians(math.acos(max(-1.0, min(1.0, cosang))))


def test_cached_vertex_angle_equals_law_of_cosines(heawood):
    from buildctl.complexes import _vertex_angle
    exact = suspension(heawood)
    floats = MetricComplex(exact.geometry, exact.vertices, exact.top_cells,
                           [(i, j, Angle(rad=exact.edge_length(i, j).radians))
                            for i, j in exact.edges])
    assert any(not a.is_exact for a in floats.lengths.values())
    for c in (exact, floats):
        for cell in c.top_cells:
            for v in cell:
                u, w = [x for x in cell if x != v]
                first = _vertex_angle(c, v, u, w)
                second = _vertex_angle(c, v, w, u)
                assert first == _law_of_cosines(c, v, u, w)
                assert second == _law_of_cosines(c, v, w, u)
                assert second is first          # served from the cache


def _checked_corner(c, v, u, w):
    """The cached corner at v in (v, u, w), asserted bitwise equal to the
    uncached law of cosines; None for a zero corner, which both refuse."""
    from buildctl.complexes import _vertex_angle
    try:
        expected = _law_of_cosines(c, v, u, w)
    except ValueError:                  # Angle is positive: a degenerate triangle
        with pytest.raises(ComplexError, match="degenerate triangle"):
            _vertex_angle(c, v, u, w)
        return None
    got = _vertex_angle(c, v, u, w)
    assert got == expected
    return got


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["euclidean", "spherical"]),
       st.lists(st.floats(0.5, 1.0), min_size=3, max_size=3))
@example("euclidean", [1.0, 0.5, 0.5])           # flat: corners 0, 0 and pi
def test_shape_cached_vertex_angle_is_the_law_of_cosines_bit_for_bit(geometry, sides):
    """Two congruent triangles, (0, 1, 2) and (3, 4, 5) with 3, 4, 5 in the
    roles of 2, 0, 1: every corner, read with its sides in either order, is
    bitwise the uncached law of cosines in that order, and the second
    triangle's corners are the first one's Angles (a missed corner is looked
    up by the triangle's shape).  A flat triangle's zero corners raise
    ComplexError, in both triangles."""
    x, y, z = (Angle(rad=r) for r in sides)
    c = MetricComplex(geometry, [str(v) for v in range(6)], [(0, 1, 2), (3, 4, 5)],
                      [(0, 1, x), (0, 2, y), (1, 2, z), (3, 4, y), (3, 5, z), (4, 5, x)],
                      allow_disconnected=True)
    for v, u, w in itertools.permutations(range(3)):
        _checked_corner(c, v, u, w)
    role = {3: 2, 4: 0, 5: 1}
    for v, u, w in itertools.permutations(range(3, 6)):
        assert _checked_corner(c, v, u, w) is _checked_corner(c, role[v], role[u], role[w])


def _incidence_corpus():
    out = [gen() for gen in GENERATORS.values()]
    out += [coxeter_complex(named_matrix(n)).complex for n in ("A3", "B3")]
    out.append(suspension(suspension(gen_rank2_building("complete_bipartite"))))
    return out


def _relabelled(c, seed):
    new = list(range(len(c.vertices)))
    random.Random(seed).shuffle(new)
    names = [None] * len(new)
    for v, nv in enumerate(new):
        names[nv] = c.vertices[v]
    return MetricComplex(c.geometry, names,
                         [[new[v] for v in t] for t in c.top_cells],
                         [(new[i], new[j], c.edge_length(i, j)) for i, j in c.edges])


class _Stop(Exception):
    pass


def test_face_readers_list_the_face_posets_faces_in_order(monkeypatch):
    """The faces that each reader lists without a face poset are those of
    the plain scan (``oracles.face_poset``), in the same order, on
    ``_incidence_corpus()``, the links-workload inputs and a relabelled copy
    of each: the cells of ``check_spherical``'s residue pass (the sorted
    (n-2)-cells, and no vertex from dimension 3 on) where a spherical
    complex passes the panel gate, the axiom route skipped by reading no
    Coxeter matrix off a chamber, ``homotopy``'s edges
    and 2-cells (each relator's triangle, in relator order) on a connected
    complex, and in dimension 2 the cells across each edge of each top cell
    in which ``geodesics._extend`` branches."""
    from test_recognizer import _links_inputs_once
    from buildctl import geodesics, homotopy, recognizer
    from buildctl.dim1 import Diagnosis

    def certify_links(c, cells, certify):
        reached.append(list(cells))
        raise _Stop

    def edge_letter(edges, tree, gen_of_edge, adj, a, b):
        letters.append((tuple(edges), a))
        return letter(edges, tree, gen_of_edge, adj, a, b)

    letter = homotopy._edge_letter
    monkeypatch.setattr(recognizer, "_certify_links", certify_links)
    monkeypatch.setattr(recognizer, "_chamber_coxeter", lambda c, types: None)
    monkeypatch.setattr(homotopy, "_edge_letter", edge_letter)
    monkeypatch.setattr(geodesics, "_transfer",
                        lambda c, old, new, shared, p, d: crossed.append(new) or (p, d))
    inputs = _incidence_corpus() + list(_links_inputs_once())
    seen = 0
    for k, base in enumerate(inputs):
        for c in (base, _relabelled(base, k)):
            poset = oracles.face_poset(c)
            faces = lambda d: sorted(f for f in poset if len(f) == d + 1)
            n = c.dimension
            reached = []
            spherical = n >= 2 and c.geometry == "spherical"
            try:
                if spherical:
                    recognizer.check_spherical(c)
            except _Stop:
                pass
            passes = spherical and not isinstance(recognizer._panel_counts(c), Diagnosis)
            assert reached == ([faces(n - 2)] if passes else [])
            seen += passes
            if c._skeleton_connected:
                letters = []
                homotopy._presentation(c)
                assert all(e == tuple(faces(1)) for e, _ in letters)
                assert [tuple(a for _, a in letters[i:i + 3])
                        for i in range(0, len(letters), 3)] == faces(2)
            if n != 2:
                continue
            for t in c.top_cells:
                for e in itertools.combinations(t, 2):
                    crossed = []
                    march = lambda c, cell, p, d: (0.1, p, ("edge", e))
                    monkeypatch.setattr(geodesics, "_march_face", march)
                    state = geodesics._State("face", cell=t, point=(1.0, 0.0, 0.0),
                                             direction=(0.0, 1.0, 0.0))
                    geodesics._extend(c, t[0], [], state, 0.15, 10 ** 6)
                    assert crossed == [s for s in poset[e] if s != t]
    assert seen > 10


def test_vertex_link_is_built_once_per_vertex(octahedron, s0_heawood):
    a3 = coxeter_complex(named_matrix("A3")).complex
    s0s0k33 = suspension(suspension(gen_rank2_building("complete_bipartite")))
    for c in (octahedron, s0_heawood, a3, s0s0k33):
        fresh = loads(c.dumps())
        for v, name in enumerate(c.vertices):
            lk = vertex_link(c, v)
            assert vertex_link(c, v) is lk
            assert vertex_link(c, name) is lk
            assert lk.dumps() == vertex_link(fresh, v).dumps()
        for a, b in c.edges[:20]:
            pair = [c.vertices[a], c.vertices[b]]
            assert cell_link(c, pair) is vertex_link(vertex_link(c, a), pair[1])


def _top_simplices(c):
    """The edge lengths of each top cell, in the order validation reads them."""
    return [[c.edge_length(i, j) for i, j in itertools.combinations(t, 2)]
            for t in c.top_cells if len(t) - 1 == c.dimension]


def _jacobi_least(G):
    from buildctl.linalg import symmetric_eigenvalues
    return symmetric_eigenvalues(G.tolist())[0]


def _assert_batched_as_per_cell(geometry, simplices, label=None):
    """The batched verdicts equal one ``eigvalsh`` call per simplex, and the
    batched (ok, why) pairs one ``linalg.symmetric_eigenvalues`` call per
    simplex, at the validation threshold and at an infinite one (every
    simplex that reaches the eigenvalue test fails, so its message carries
    the .3e text).  The two routines can print other last digits of a
    near-zero eigenvalue, with neither nearer the true value; the mpmath
    test below bounds the Jacobi error."""
    from buildctl.angles import EPS_GRAM
    from buildctl.complexes import realizability
    oks = {}
    for eps in (EPS_GRAM, math.inf):
        got = realizability(geometry, simplices, eps)
        oks[eps] = [oracles.per_cell_realizable(geometry, s, eps)[0] for s in simplices]
        assert [ok for ok, _ in got] == oks[eps], (label, eps)
        assert got == [oracles.per_cell_realizable(geometry, s, eps, _jacobi_least)
                       for s in simplices], (label, eps)
    return oks[EPS_GRAM]


def _validation_corpus():
    from buildctl.corpus import gen_a2_window
    from test_coxeter import _MODELS, _model_matrix
    out = {f"corpus:{name}": make() for name, make in GENERATORS.items()}
    for r in (1, 2, 3):
        out[f"a2w{r}"] = gen_a2_window(r).complex
        out[f"a2w{r}-perturbed"] = gen_a2_window(r, perturb=1.01).complex
    for name in _MODELS:
        cx = coxeter_complex(_model_matrix(name)).complex
        out[f"model:{name}"] = cx
        out[f"json:{name}"] = loads(cx.dumps())
    return out


def test_batched_realizability_equals_per_cell_eigvalsh_on_the_corpus():
    """Every top cell of the corpus, the A2 windows, the Coxeter models and
    their JSON copies; validation reports a shape issue exactly where the
    per-cell verdict fails."""
    for label, c in _validation_corpus().items():
        simplices = _top_simplices(c)
        oks = _assert_batched_as_per_cell(c.geometry, simplices, label)
        shaped = {i.where for i in validate(c).issues if i.kind == "shape"}
        cells = [t for t in c.top_cells if len(t) - 1 == c.dimension]
        assert shaped == {tuple(c.vertices[v] for v in t)
                          for t, ok in zip(cells, oks) if not ok}, label


def _near_degenerate(rng_uniform, geometry, dim, scale):
    """Edge lengths of a simplex whose last vertex lies ``scale`` off the
    span (spherical) or affine span (Euclidean) of the others, so its least
    Gram eigenvalue is of order scale**2."""
    import numpy as np
    amb = dim + 1 if geometry == "spherical" else dim
    pts = [np.array([rng_uniform(-1, 1) for _ in range(amb)]) for _ in range(dim)]
    mix = [rng_uniform(0.1, 1) for _ in range(dim)]
    if geometry == "euclidean":
        mix = [m / sum(mix) for m in mix]
    last = sum(m * p for m, p in zip(mix, pts))
    last = last + scale * np.array([rng_uniform(-1, 1) for _ in range(amb)])
    pts.append(last)
    if geometry == "spherical":
        pts = [p / np.linalg.norm(p) for p in pts]
    out = []
    for i, j in itertools.combinations(range(dim + 1), 2):
        if geometry == "spherical":
            r = math.acos(max(-1.0, min(1.0, float(pts[i] @ pts[j]))))
        else:
            r = float(np.linalg.norm(pts[i] - pts[j]))
        out.append(Angle(rad=r) if r > 0 else Angle.exact(1, 360))
    return out


def _straddling_corpus():
    """(geometry, dim, simplices): 150 seeded simplices near degeneracy for
    each geometry and dimension 1-3."""
    rng = random.Random(17)
    for geometry in ("spherical", "euclidean"):
        for dim in (1, 2, 3):
            yield geometry, dim, [_near_degenerate(rng.uniform, geometry, dim,
                                                   10 ** rng.uniform(-7, -2))
                                  for _ in range(150)]


def test_batched_realizability_straddles_the_gram_threshold():
    """Seeded simplices of dimension 1-3 near degeneracy, batched per
    geometry and dimension: the verdicts fall on both sides of EPS_GRAM and
    equal the per-cell ones."""
    for geometry, dim, simplices in _straddling_corpus():
        oks = _assert_batched_as_per_cell(geometry, simplices, (geometry, dim))
        assert any(oks) and not all(oks), (geometry, dim)


def test_jacobi_least_eigenvalue_is_within_1e_14_of_mpmath():
    """On the 600 near-degenerate Gram matrices of dimension 2 and 3 above,
    the least eigenvalue that validation prints (Jacobi) is within 1e-14 of
    the one of the same float matrix at 50 digits."""
    import mpmath
    from buildctl.linalg import symmetric_eigenvalues
    count, worst = 0, 0.0
    with mpmath.workdps(50):
        for geometry, dim, simplices in _straddling_corpus():
            if dim == 1:
                continue
            for s in simplices:
                G = oracles.gram_matrix(geometry, s).tolist()
                exact = min(mpmath.eigsy(mpmath.matrix(G), eigvals_only=True))
                worst = max(worst, abs(symmetric_eigenvalues(G)[0] - float(exact)))
                count += 1
    assert count == 600 and worst <= 1e-14, worst


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_realizability_matches_per_cell_on_drawn_simplices(data):
    """Hypothesis simplices of one dimension and geometry: near-degenerate
    ones, and ones with arbitrary exact or float lengths (spherical edges
    past pi included)."""
    geometry = data.draw(st.sampled_from(["spherical", "euclidean"]))
    dim = data.draw(st.integers(1, 3))
    length = st.one_of(st.builds(Angle.exact, st.integers(1, 24), st.integers(1, 12)),
                       st.floats(1e-6, 4.0).map(lambda r: Angle(rad=r)))
    simplices = []
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            rand = random.Random(data.draw(st.integers(0, 2 ** 32)))
            scale = 10 ** data.draw(st.floats(-7, -2))
            simplices.append(_near_degenerate(rand.uniform, geometry, dim, scale))
        else:
            simplices.append(data.draw(st.lists(length, min_size=dim * (dim + 1) // 2,
                                                max_size=dim * (dim + 1) // 2)))
    _assert_batched_as_per_cell(geometry, simplices)


def test_batched_realizability_groups_simplices_by_shape():
    """Stacks whose simplices repeat a few shapes, the validation of a
    window or a Coxeter model in miniature: one shape many times, passing
    and failing; exact and float lengths of equal radians, which share a
    shape; and a spherical edge past pi, decided before any eigenvalue,
    next to a repeated shape.  Both thresholds give the per-cell verdicts,
    so every message that carries an eigenvalue has its .3e text."""
    third, half = Angle.exact(1, 3), Angle.exact(1, 2)
    float_third = Angle(rad=third.radians)
    one, two = Angle(rad=1.0), Angle(rad=2.0)
    flat = [one, one, two]                       # degenerate Euclidean triangle
    stacks = {
        "euclidean": [[one, one, one], flat] * 40 + [[one, one, Angle(rad=1.5)]] * 3,
        "spherical": [[third] * 3, [half] * 3, [third, third, Angle.exact(2, 3)]] * 30,
        "spherical-3": [[half] * 6, [third] * 6] * 20 + [[Angle.exact(2, 3)] * 6] * 5,
    }
    mixed = [[third, third, third], [float_third, third, float_third],
             [float_third] * 3, [half, float_third, half]] * 10
    over_pi = [[Angle.exact(4, 3), third, third]] + [[third] * 3] * 20 \
        + [[third, Angle.exact(5, 4), half]] + [[half] * 3] * 20
    for label, simplices in {**stacks, "mixed": mixed, "over-pi": over_pi}.items():
        geometry = "euclidean" if label == "euclidean" else "spherical"
        oks = _assert_batched_as_per_cell(geometry, simplices, label)
        assert len(set(oks)) == (1 if label == "mixed" else 2), label


def _pi_verdicts(results):
    """The pi-bound part of ``realizability``'s verdicts: each simplex's
    (False, why) when it failed on an edge past pi, else None."""
    return [r if r[1].endswith("exceeds pi") else None for r in results]


def test_pi_bound_once_per_edge_matches_per_simplex():
    """On every spherical complex of the validation corpus, and on a copy
    with one drawn edge set to 5pi/4, the pi bound compared once per edge
    fails the simplices that the per-(simplex, edge) comparison fails
    (``oracles.pi_bound_per_simplex``), each naming its first long edge."""
    failed = 0
    for label, c in _validation_corpus().items():
        if c.geometry != "spherical" or not c.edges:
            continue
        edge = frozenset(random.Random(label).choice(c.edges))
        long = [[Angle.exact(5, 4) if frozenset((i, j)) == edge else c.edge_length(i, j)
                 for i, j in itertools.combinations(t, 2)]
                for t in c.top_cells if len(t) - 1 == c.dimension]
        for simplices in (_top_simplices(c), long):
            want = oracles.pi_bound_per_simplex(simplices)
            assert _pi_verdicts(realizability("spherical", simplices)) == want, label
            failed += sum(r is not None for r in want)
    assert failed > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_pi_bound_on_shared_edges_matches_per_simplex(data):
    """Hypothesis simplices of one dimension drawn from a small pool of
    Angle objects, so that simplices share edges as a complex's do, with
    exact and float lengths past pi among them."""
    dim = data.draw(st.integers(1, 3))
    length = st.one_of(st.builds(Angle.exact, st.integers(1, 24), st.integers(1, 12)),
                       st.floats(1e-6, 4.0).map(lambda r: Angle(rad=r)))
    pool = data.draw(st.lists(length, min_size=1, max_size=8))
    edges = dim * (dim + 1) // 2
    picks = data.draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=edges,
                                        max_size=edges), min_size=1, max_size=12))
    simplices = [[pool[k] for k in pick] for pick in picks]
    assert _pi_verdicts(realizability("spherical", simplices)) == \
        oracles.pi_bound_per_simplex(simplices)


def test_over_pi_edge_shared_by_several_triangles_names_each_triangle():
    """A spherical book of three triangles on a 5pi/4 spine, and a fourth
    triangle whose second and third edges are past pi: validation reports a
    shape issue for each, in cell order, naming the triangle's first long
    edge."""
    names = ["a", "b", "c", "d", "e", "f"]
    half = Angle.exact(1, 2)
    lengths = {(0, 1): Angle.exact(5, 4), (2, 4): half, (2, 5): Angle.exact(9, 8),
               (4, 5): Angle.exact(3, 2)}
    cells = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 4, 5)]
    for t in cells:
        for e in itertools.combinations(t, 2):
            lengths.setdefault(e, half)
    c = MetricComplex("spherical", names, cells, [(*e, a) for e, a in lengths.items()])
    shapes = [(i.where, i.detail) for i in validate(c).issues if i.kind == "shape"]
    spine = "spherical edge length 5pi/4 exceeds pi"
    assert shapes == [(("a", "b", "c"), spine), (("a", "b", "d"), spine),
                      (("a", "b", "e"), spine),
                      (("c", "e", "f"), "spherical edge length 9pi/8 exceeds pi")]
    assert _pi_verdicts(realizability("spherical", _top_simplices(c))) == \
        oracles.pi_bound_per_simplex(_top_simplices(c))
