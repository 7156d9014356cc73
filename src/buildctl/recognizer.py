"""Recognition of building structure: certificates and pinpointed diagnoses.

Dimension <= 1, the decidable base, is ``dim1``, whose names are imported
here.  Above dimension 1 the building axioms decide first (Abramenko-Brown,
Buildings, Def. 4.1).  Every gate runs on the one incidence index of a
complex (``MetricComplex._incidence``, each vertex's star and each panel's
chambers) and the chamber graph read off it.  After the connectivity and
panel-count gates, which both geometries share, and the vertex typing, the
Coxeter matrix is read off one chamber and every edge is compared once
with the model's length for its type pair; only when all fit are the
apartments searched.  They are the convex hulls of opposite chambers (two
chambers at gallery distance l(w0) lie in exactly one apartment, the
chambers on their minimal galleries; a thin sphere is one hull), each an
int bitmask of its chambers.  (B0) each hull is walked against the bare
Coxeter group (``coxeter_group``: its right-multiplication table and the
vertex of each type of each element's chamber; no model complex is built),
by panel type, reading no length; (B1) every pair of chambers lies in a
hull; (B2) two hulls through a chamber agree on every vertex they share.
When all three hold on an exhaustive search the complex is a building, so
its links are buildings and no link is certified; only then, or for a
search cut off by the budget, are the verdict and the suspension poles
computed.  Only when something fails does one residue pass run: the links
of the (n-2)-cells, the rank-2 residues, are certified as graphs
(``_certify``); it names the first failing residue, chambers that no
gallery joins fail (B1) whatever the budget, a chamber or an edge off the
one Coxeter matrix names the metric fault, and otherwise the failed axiom is
the diagnosis.  No spherical check builds a vertex link.  The axioms are
checked exactly, never by sampling.
No spherical check computes a fundamental group: a spherical building is
CAT(1) (Bridson-Haefliger II.10A) and, from dimension 2 on, simply connected
(Solomon-Tits).  Global CAT(1) is never guessed either: the one verdict
builder flags every certificate unverified unless the complex was produced
by a curvature-preserving construction.  Only strict ``check_euclidean``
computes pi_1.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

from .angles import Angle
from .complexes import (EUCLIDEAN, SPHERICAL, ComplexError, MetricComplex, cell_link,
                        vertex_link)
from .coxeter import (BudgetExceeded, CoxeterGroupModel, CoxeterMatrix, cosine_verdicts,
                      coxeter_group)
from .decompose import find_suspension_poles, most_singular_vertex
from .dim1 import (  # noqa: F401  (some only for the callers that import them from here)
    APARTMENTS_INCOMPATIBLE, B_APT_DEFAULT, BUILDING, CODIM1,
    EDGE_LENGTH_NONUNIFORM, FLAG_AXIOM2_UNVERIFIED, FLAG_GLOBAL_UNVERIFIED, FLAG_MIXED,
    FLAG_SAMPLED, HULL_NOT_ISOMETRIC, LINK_FAILURE, LINK_UNDECIDED, MEB, MEB_LOCAL,
    NO_COMMON_APARTMENT, NO_OPPOSITE_CHAMBER, NOT_CONNECTED, NOT_SIMPLY_CONNECTED, SUSPENSION,
    THICK, THIN, UNKNOWN_PI1, Apartment, BuildingCertificate, Diagnosis, _length_to_m,
    _opposite_hulls, _subcomplex, _vertex_types, check_dim1, enumerate_apartments_dim1,
    recognize_dim1)
from .homotopy import NONTRIVIAL, UNKNOWN, simple_connectivity
from .metric_graph import MetricGraph

# -- spherical recognition, dimension >= 2 --------------------------------------------


def check_spherical(c: MetricComplex, budget: int = B_APT_DEFAULT
                    ) -> BuildingCertificate | Diagnosis:
    """Certify a spherical complex as a building, or diagnose the failure.

    Dimension <= 1 is ``dim1.check_dim1``'s answer, which counts the
    apartments and searches none.  Dimension >= 2 runs each gate once, in
    order.  After the connectivity and codimension-1 gates
    (``_panel_counts``), the vertex types and the Coxeter matrix of one
    chamber (``_chamber_coxeter``) give the model Coxeter group, enumerated
    only when it has no more elements than the complex has chambers (each
    apartment of a building has |W| chambers).  Every edge of the complex
    is then compared once with the model's length for its type pair
    (``_lengths_fit_model``).  Only when all fit does the apartment layer
    run (``_with_apartments``): the apartments are the convex hulls of
    opposite chambers in the chamber graph, with l(w0) and |W| read off the
    model (a thin sphere is its single hull, found by evaluating one pair);
    and (B0) every hull walks onto the model by panel type
    (``_model_walk``), (B1) every chamber pair lies in a hull and (B2) hulls
    through a common chamber agree on their shared vertices.  A walk keeps
    the vertex types, so each edge of a walked hull is the image of a model
    edge of its type pair and has its length: the one comparison stands for
    every hull.  On an exhaustive search that holds, panel counts and the
    suspension poles give the verdict.

    Only when that fails, the lengths misfit or the search is cut off by the
    budget does the residue pass run: the link of every (n-2)-cell, a
    rank-2 residue, is certified as a graph (``_certify_links``); two
    chambers that no gallery joins lie in no common apartment under any
    budget (``_gallery_split``); a first chamber with no Coxeter matrix, or
    the first edge whose length is not the model's for its type pair (the
    one ``_lengths_fit_model`` answer, found here for a model first
    enumerated here), is ``edge_length_nonuniform`` (once every residue
    passes, every chamber is a copy of the model chamber exactly when every
    edge fits).  The first failing gate is the diagnosis.  When every gate
    passes, the apartment layer (run once per check: a model refused under
    the chamber count is enumerated here and its hulls walked) names the
    failed axiom: a hull that does not walk is
    ``hull_not_isometric_to_model`` (its first chamber and the chamber where
    the walk failed), a chamber with no chamber at gallery distance l(w0) is
    ``no_opposite_chamber``, two chambers in no common hull after an
    exhaustive search are ``no_common_apartment`` and two hulls that label a
    shared vertex differently are ``apartments_incompatible``.  A search cut
    off by the budget flags ``apartments_sampled``, and
    ``apartment_axiom2_unverified`` if a chamber pair is still uncovered.
    No vertex link is built: the rank-2 residues carry the local condition
    (Tits, A local approach to buildings), and the axioms the rest.

    No fundamental group is computed: a building of dimension >= 2 is
    simply connected (Solomon-Tits).  Global CAT(1) is decided only for
    by-construction inputs (provenance): otherwise
    ``_spherical_certificate`` flags the certificate
    ``global_cat1_unverified``.
    """
    if c.dimension <= 1:
        return check_dim1(c)
    if c.geometry != SPHERICAL:
        raise ComplexError("check_spherical needs a spherical complex")
    c.require_valid()
    panel_counts = _panel_counts(c)
    if isinstance(panel_counts, Diagnosis):
        return panel_counts
    types = _vertex_types(c)
    M = None if types is None else _chamber_coxeter(c, types)
    try:
        model = None if M is None else coxeter_group(M, budget=len(c.top_cells))
    except BudgetExceeded:
        model = None
    answer = misfit = None
    if model is not None:
        misfit = _lengths_fit_model(c, types, model)
        if misfit is None:
            answer = _with_apartments(c, types, panel_counts, model, budget)
            if isinstance(answer, BuildingCertificate) and answer.apartments_exhaustive:
                return answer
    # the residue pass: the links of the (n-2)-cells name the failure
    n = c.dimension
    cells = sorted({f for t in c.top_cells for f in itertools.combinations(t, n - 1)})
    link_certs = _certify_links(c, cells, _certify)
    if isinstance(link_certs, Diagnosis):
        return link_certs
    split = _gallery_split(c)
    if split is not None:
        return Diagnosis(NO_COMMON_APARTMENT, {"chambers": [
            [c.vertices[v] for v in c.top_cells[k]] for k in split]})
    if types is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": "vertices admit no consistent type coloring"})
    if M is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "chamber": [c.vertices[v] for v in c.top_cells[0]],
            "detail": "dihedral angles are not all pi/m, m >= 2"})
    if model is None:
        model = coxeter_group(M)
        misfit = _lengths_fit_model(c, types, model)
    if misfit is not None:
        pair = tuple(types[v] for v in misfit)
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "edge": [c.vertices[v] for v in misfit], "types": list(pair),
            "lengths": [str(c.lengths[misfit]), str(model.pair_length[pair])]})
    if answer is None:
        answer = _with_apartments(c, types, panel_counts, model, budget)
    return answer


def _certify(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    """``check_dim1``'s answer for a complex of dimension <= 1, memoized in
    one slot on c: a link of an (n-2)-cell, or a vertex link of a
    2-dimensional Euclidean complex.  ``_certify_links`` hands a later link
    of a class its first link's answer through that slot."""
    if c._certificate is None:
        c._certificate = check_dim1(c)
    return c._certificate


def _panel_counts(c: MetricComplex) -> set[int] | Diagnosis:
    """The first gates above dimension 1, in both geometries: the complex is
    connected and every codimension-1 cell lies in two or more top cells.
    The set of those counts, read off the panels of ``_incidence``, or the
    diagnosis at the least panel in one top cell."""
    if not c._skeleton_connected:
        return Diagnosis(NOT_CONNECTED, {"detail": "complex is not connected"})
    panels = c._incidence[1]
    counts = {len(on) for on in panels.values()}
    if 1 in counts:
        p = min(f for f, on in panels.items() if len(on) == 1)
        return Diagnosis(CODIM1, {"cell": [c.vertices[i] for i in p], "top_cells": 1})
    return counts


def _spherical_certificate(c: MetricComplex, M: CoxeterMatrix, types, panel_counts,
                           apartments: tuple[Apartment, ...], exhaustive: bool,
                           pair: tuple[int, int] | None) -> BuildingCertificate:
    """The verdict from the panel counts and the suspension poles, for the
    Coxeter matrix read off the first chamber, with the apartment system
    that the apartment layer found (``_with_apartments``), flagged
    ``apartments_sampled`` unless the search was exhaustive,
    ``apartment_axiom2_unverified`` if it left the chamber pair ``pair``
    uncovered, and ``global_cat1_unverified`` unless a curvature-preserving
    construction made the complex (provenance)."""
    poles = find_suspension_poles(c)
    flags = []
    if not exhaustive:
        flags.append(FLAG_SAMPLED)
    if pair is not None:
        flags.append(FLAG_AXIOM2_UNVERIFIED)
    if c.provenance is None:
        flags.append(FLAG_GLOBAL_UNVERIFIED)
    if panel_counts == {2}:
        verdict = THIN
    elif poles is not None:
        verdict = SUSPENSION
    elif min(panel_counts) >= 3:
        verdict = THICK
    else:
        # mixed thickness: the metric cell structure is a join with thin
        # factors (non-simplicial suspension-shaped cells); the simplicial
        # certificate reports the generic verdict and the factors carry it
        verdict = BUILDING
        flags.append(FLAG_MIXED)
    cert = BuildingCertificate(
        SPHERICAL, c.dimension, verdict, coxeter_matrix=M, apartments=apartments,
        apartment_count=len(apartments), apartments_exhaustive=exhaustive,
        thickness=min(panel_counts), vertex_types=types, flags=tuple(sorted(flags)))
    if verdict == SUSPENSION:
        cert.poles = (c.vertices[poles[0]], c.vertices[poles[1]])
        cert.base_size = len(c.vertices) - 2
    return cert


def _certify_links(c: MetricComplex, cells, certify) -> dict | Diagnosis:
    """Every cell's link with ``certify``'s answer for it: {cell: (link,
    certificate)}, or a link_failure diagnosis at the first cell whose link
    fails.  ``check_spherical``'s residue pass lists the (n-2)-cells, whose
    links are graphs, and ``check_euclidean`` the interior vertices.

    Graph links equal up to vertex names (``graph_class``) share one
    validation and one run of the dimension-1 gates: a later link of a class
    gets the passing report and a shallow copy of the first link's
    certificate (``BuildingCertificate.copy``) on its own graph, which
    reuses the first graph's checked edges.  Only certificates
    that name no vertex (no suspension poles) are shared; diagnoses are
    computed per link.  ``vertex_link`` builds each link from the corner
    angles cached on its complex, without re-checking its data; a vertex
    cell's link is read by its index."""
    out = {}
    classes: dict[tuple, MetricComplex] = {}     # class -> its first certified link
    for cell in cells:
        L = vertex_link(c, cell[0]) if len(cell) == 1 else cell_link(c, cell)
        key = L.graph_class
        first = classes.get(key)
        if first is not None and L._certificate is None:
            cert = first._certificate
            L.validation = first.validation
            graph = MetricGraph.__new__(MetricGraph)._set(L.vertices, cert.graph.edges)
            L._certificate = cert.copy(graph=graph)
        res = certify(L)
        if isinstance(res, Diagnosis):
            return Diagnosis(LINK_FAILURE, {"cell": [c.vertices[i] for i in cell]}, inner=res)
        if first is None and key is not None and res.poles is None:
            classes[key] = L
        out[cell] = (L, res)
    return out


def _with_apartments(c: MetricComplex, types: Sequence[int], panel_counts,
                     model: CoxeterGroupModel, budget: int) -> BuildingCertificate | Diagnosis:
    """The apartment layer of a complex of dimension >= 2 whose edges fit
    the model (``_lengths_fit_model``): the diagnosis of the failed axiom,
    or the certificate (``_spherical_certificate``) with the apartment
    system, the convex hulls of opposite chambers, spheres walked onto the
    model (B0) in ``Apartment.key`` order and before (B1), so a hull that
    is no apartment covers no pair, and (B2) on the walks of an exhaustive
    search (see ``check_spherical``).  The hulls are ``_walked_hulls`` under
    ``budget``."""
    found, exhaustive, lonely, pair, walks, bad = _walked_hulls(c, types, model, budget)
    if bad is not None:
        return Diagnosis(HULL_NOT_ISOMETRIC, {"chambers": [
            [c.vertices[v] for v in t] for t in bad]})
    if lonely is not None:
        return Diagnosis(NO_OPPOSITE_CHAMBER, {
            "chamber": [c.vertices[v] for v in lonely],
            "gallery_distance": len(model.elements[-1].word)})
    if pair is not None and exhaustive:
        return Diagnosis(NO_COMMON_APARTMENT, {"chambers": [
            [c.vertices[v] for v in c.top_cells[k]] for k in pair]})
    clash = _incompatible_hulls(walks, model) if exhaustive else None
    if clash is not None:
        C, j, k, x = clash
        return Diagnosis(APARTMENTS_INCOMPATIBLE, {
            "chamber": [c.vertices[v] for v in c.top_cells[C]],
            "apartments": [[c.vertices[v] for v in found[i].cells[0]] for i in (j, k)],
            "vertex": c.vertices[x]})
    return _spherical_certificate(c, model.system, types, panel_counts, found, exhaustive,
                                  pair)


def _gallery_split(c: MetricComplex) -> tuple[int, int] | None:
    """(0, k) for the least chamber k that no gallery joins to the first
    chamber, or None when the chambers are gallery-connected.  An apartment
    is gallery-connected, so such a pair lies in no common apartment: (B1)
    fails, whatever the hull search reached."""
    reach, todo = {0}, [0]
    for k in todo:
        for others in c.chamber_graph[k]:
            new = set(others) - reach
            reach |= new
            todo.extend(new)
    missed = [k for k in range(len(c.top_cells)) if k not in reach]
    return (0, missed[0]) if missed else None


def _chamber_coxeter(c: MetricComplex, types) -> CoxeterMatrix | None:
    """The spherical Coxeter matrix read off the first chamber, or None when
    its dihedral angles are not all pi/m, m >= 2.

    In a building every chamber is a typed copy of the model's fundamental
    chamber, whose dihedral angle at the face of cotype {i, j} is pi/m_ij.
    With the vertices in type order, the inverse G^-1 of the chamber's Gram
    matrix gives cos theta_ij = -G^-1_ij / sqrt(G^-1_ii G^-1_jj), and each
    theta_ij is read as pi/m by the one rule for link edges
    (``_length_to_m``).  A wrong guess only fails the comparison of every
    edge length with the model's (``_lengths_fit_model``)."""
    from .linalg import inverse
    cell = sorted(c.top_cells[0], key=types.__getitem__)
    inv = inverse(c.gram(cell))
    n = len(cell)
    rows = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        cos = -inv[i][j] / math.sqrt(inv[i][i] * inv[j][j])
        m = _length_to_m(Angle.from_radians(math.acos(min(max(cos, -1.0), 1.0))).pi_units)
        if m is None or m < 2:
            return None
        rows[i][j] = rows[j][i] = m
    M = CoxeterMatrix(tuple(f"s{t}" for t in range(n)), rows)
    # a nearly degenerate chamber may give a form that is not definite
    return M if cosine_verdicts(M)[2] == "spherical" else None


def _walked_hulls(c: MetricComplex, types: Sequence[int], model: CoxeterGroupModel,
                  budget: int) -> tuple:
    """(apartments, exhaustive, lonely, pair, walks, bad): the
    ``_hull_apartments`` search, then each hull walked onto the model
    (``_model_walk``) in order, until the first that fails: ``walks`` holds
    the (image, back) maps of the hulls before it and ``bad`` its first
    chamber and the chamber where its walk failed, or None.  The walks are
    combinatorial: the caller has found every edge of c to have the model's
    length for its type pair (``_lengths_fit_model``)."""
    found, exhaustive, lonely, pair, masks = _hull_apartments(c, model, budget)
    typed = _typed_chambers(c, types)
    walks = []
    for a, hull in zip(found, masks):
        at, image, back = _model_walk(typed, hull, model)
        if at is not None:
            return found, exhaustive, lonely, pair, walks, (a.cells[0], c.top_cells[at])
        walks.append((image, back))
    return found, exhaustive, lonely, pair, walks, None


def _hull_apartments(c: MetricComplex, model: CoxeterGroupModel, budget: int
                     ) -> tuple[tuple[Apartment, ...], bool, tuple | None,
                                tuple[int, int] | None, list[int]]:
    """The apartments of c as convex hulls of opposite chambers
    (``_opposite_hulls``) in the chamber graph (``chamber_graph``), whether
    the search was exhaustive, the first chamber found with no opposite
    chamber, or None, the first pair of chamber indices in no apartment
    together, or None, and each apartment's bitmask of chamber indices.
    l(w0) and |W| are read off the model: its elements come in length
    order, the longest last."""
    chambers = c.top_cells
    nbrs = []
    for around in c.chamber_graph:
        mask = 0
        for others in around:
            for j in others:
                mask |= 1 << j
        nbrs.append(mask)
    hulls, exhaustive, lonely, pair = _opposite_hulls(nbrs, len(model.elements[-1].word),
                                                      len(model.elements), budget)
    # chambers are sorted, so the index lists the search kept with the hulls
    # sort as the apartments' cells do
    ordered = sorted(hulls, key=lambda h: h[1])
    found = []
    for _, ks in ordered:
        cells = tuple(chambers[k] for k in ks)
        found.append(Apartment("sphere", cells=cells,
                               vertices=tuple(sorted({v for t in cells for v in t}))))
    return (tuple(found), exhaustive, None if lonely is None else chambers[lonely], pair,
            [hull for hull, _ in ordered])


def _typed_chambers(c: MetricComplex, types: Sequence[int]
                    ) -> tuple[list[list[int]], list[list[tuple[int, ...]]]]:
    """(vertex, across) for c typed by ``types``: vertex[k][s] is chamber
    k's vertex of type s, and across[k][s] the other chambers on its panel
    without that vertex (``chamber_graph`` by type)."""
    vertex, across = [], []
    for cell, around in zip(c.top_cells, c.chamber_graph):
        by_vertex, by_panel = list(cell), list(around)
        for v, others in zip(cell, around):
            by_vertex[types[v]], by_panel[types[v]] = v, others
        vertex.append(by_vertex)
        across.append(by_panel)
    return vertex, across


def _model_walk(typed: tuple, hull: int, model: CoxeterGroupModel
                ) -> tuple[int | None, list[int], dict]:
    """(bad, image, back): the chamber of the hull (a bitmask of chamber
    indices) where it fails to be a typed combinatorial copy of the model
    Coxeter complex, or None; the hull chamber of each group element, by
    element index; and the model vertex of each hull vertex.  ``typed`` is
    ``_typed_chambers(c, types)``.

    The walk maps the model's chambers: the identity to the hull's least
    chamber, and g*s (``model.steps``) to the other hull chamber on the
    panel of g's image that omits its type-s vertex; there must be exactly
    one.  The model's elements come in length order, so g is mapped before
    g*s.  Each model vertex goes to the hull vertex of its type in the image
    chamber, and this vertex map must be consistent and injective.  Chambers
    g and g*s share the cosets g W_{S-i} for i != s, so only the type-s
    vertex of g*s is new to check.  The images must be all of the hull (else
    the least chamber never reached is named).  No length is read: the
    vertex map keeps types, so a model edge goes to an edge of c with its
    type pair, whose length the caller has compared with the model's once
    for all hulls (``_lengths_fit_model``)."""
    vertex, across = typed
    labels = model.labels
    at = (hull & -hull).bit_length() - 1
    image = [at]
    vmap = dict(zip(labels[0], vertex[at]))
    back = dict(zip(vertex[at], labels[0]))
    for b, (a, s) in enumerate(model.steps[1:], 1):
        at = image[a]
        nxt = [j for j in across[at][s] if hull >> j & 1]
        if len(nxt) != 1:
            return at, image, back
        at = nxt[0]
        image.append(at)
        mv, v = labels[b][s], vertex[at][s]
        if vmap.setdefault(mv, v) != v or back.setdefault(v, mv) != mv:
            return at, image, back
    if hull.bit_count() > len(image):
        # the images are distinct: the injective vertex map sends distinct
        # model chambers to distinct vertex sets
        seen = 0
        for k in image:
            seen |= 1 << k
        missed = hull & ~seen
        return (missed & -missed).bit_length() - 1, image, back
    return None, image, back


def _lengths_fit_model(c: MetricComplex, types: Sequence[int],
                       model: CoxeterGroupModel) -> tuple[int, int] | None:
    """The first edge of c, in ``c.lengths`` order, whose length is not the
    model's for its type pair (``pair_length``), or None when every edge
    fits: the length half of (B0), decided once per check before any hull
    is searched, so the hull walks read no length, and read again by the
    residue pass's edge gate.  An edge whose type pair the model lacks fits
    nothing."""
    pair = model.pair_length
    for (i, j), ln in c.lengths.items():
        want = pair.get((types[i], types[j]))
        if want is None or (want is not ln and not want.equals(ln)):
            return i, j
    return None


def _left_action(model: CoxeterGroupModel) -> list[list[int]]:
    """For each element w of the model, by index, the permutation
    v -> w^-1 v of the model's vertices.  Left multiplication by s is folded
    along each element's word in the right-multiplication table,
    s (g t) = (s g) t, and takes the coset g W_{S-i} to s g W_{S-i}; a
    generator is an involution, and (w s)^-1 = s w^-1."""
    elems, labels, steps = model.elements, model.labels, model.steps
    nv = len(model.vertex_types)
    gens = []
    for s in range(model.system.rank):
        left = [elems[0].right[s]]
        for a, t in steps[1:]:
            left.append(elems[left[a]].right[t])
        perm = [0] * nv
        for row, h in zip(labels, left):
            for v, u in zip(row, labels[h]):
                perm[v] = u
        gens.append(perm)
    act = [list(range(nv))]
    for a, s in steps[1:]:
        act.append([gens[s][v] for v in act[a]])
    return act


def _incompatible_hulls(walks: Sequence[tuple[list, dict]], model: CoxeterGroupModel
                        ) -> tuple | None:
    """(B2) on walked hulls: the first (chamber index C, hull j, hull k,
    vertex x) such that hulls j < k both hold C and x but place x
    differently relative to C, or None.

    ``walks`` holds each hull A's ``_model_walk`` maps: the chamber of each
    element w, D = w_A(D)'s image, and the model vertex f_A^-1(x) of each
    vertex.  Relative to C, x is the model vertex w_A(C)^-1 f_A^-1(x); the
    typed isomorphism between two hulls that fixes C fixes every vertex
    they share exactly when they give those vertices the same label
    (Abramenko-Brown, Buildings, Def. 4.1).  Only chambers in two or more
    hulls are labelled, each against one dict that the first hull through
    it fills, which checks every pair of hulls through it."""
    through = Counter(C for image, _ in walks for C in image)
    labels: dict[int, dict] = {}
    act = None
    for k, (image, back) in enumerate(walks):
        for e, C in enumerate(image):
            if through[C] < 2:
                continue
            act = act or _left_action(model)
            perm = act[e]
            seen = labels.setdefault(C, {})
            for x, mv in back.items():
                first = seen.setdefault(x, (perm[mv], k))
                if first[0] != perm[mv]:
                    return C, first[1], k, x
    return None


# -- Euclidean recognition ----------------------------------------------------------


def check_euclidean(c: MetricComplex, boundary_policy: str = "strict",
                    budget: int = B_APT_DEFAULT) -> BuildingCertificate | Diagnosis:
    """Metric Euclidean building verdict via certified vertex links.

    strict: all codimension-1 counts and all vertex links are checked and
    simple connectivity must be decided.  window: cells touching the free
    boundary are exempt and the verdict is the local one.  Connectivity and
    the codimension-1 counts are the spherical gate (``_panel_counts``),
    whose free-panel diagnosis the window policy waives.

    A vertex link of dimension 1 is a graph, which the dimension-1 gates
    decide, once per class of links equal up to vertex names (every
    interior link of an A2 window is one hexagon; ``_certify_links``).  A
    link of dimension >= 2 gets the whole ``check_spherical``
    answer, apartments included, with ``budget`` bounding each link's hull
    search: its diagnosis is a ``link_failure``, and a link certificate
    that leaves the link undecided (global CAT(1) or the apartment axioms
    unverified) makes the verdict ``global_cat1_unverified``.
    """
    if c.geometry != EUCLIDEAN:
        raise ComplexError("check_euclidean needs a Euclidean complex")
    if boundary_policy not in ("strict", "window"):
        raise ComplexError(f"unknown boundary policy {boundary_policy!r}")
    c.require_valid()
    n = c.dimension
    if n < 2:
        raise ComplexError("check_euclidean needs dimension >= 2")
    gate = _panel_counts(c)
    if isinstance(gate, Diagnosis) and (boundary_policy == "strict"
                                        or gate.condition == NOT_CONNECTED):
        return gate
    panels = c._incidence[1]
    boundary_vertices = {v for p, on in panels.items() if len(on) < 2 for v in p}
    interior = [vi for vi in range(len(c.vertices)) if vi not in boundary_vertices]
    link_certs = _certify_links(c, [(vi,) for vi in interior],
                                lambda L: _vertex_link_answer(L, budget))
    if isinstance(link_certs, Diagnosis):
        return link_certs
    flags = []
    if any(sub.dimension >= 2 and f.startswith(LINK_UNDECIDED)
           for _, sub in link_certs.values() for f in sub.flags):
        flags.append(FLAG_GLOBAL_UNVERIFIED)
    if boundary_policy == "window":
        verdict = MEB_LOCAL
        if not interior:
            flags.append("no_interior_vertices")
    else:
        pi1 = simple_connectivity(c)
        if pi1.status == NONTRIVIAL:
            return Diagnosis(NOT_SIMPLY_CONNECTED, {"loop": pi1.witness_loop})
        if pi1.status == UNKNOWN:
            return Diagnosis(UNKNOWN_PI1, {"detail": pi1.detail})
        verdict = MEB
    thickness = min((len(on) for on in panels.values() if len(on) >= 2), default=None)
    factors = most_singular_vertex(c, link_certs)[1] if interior else None
    return BuildingCertificate(
        EUCLIDEAN, n, verdict, thickness=thickness,
        apartments=(), apartments_exhaustive=False,
        factors=factors, link_certificates=link_certs, flags=tuple(sorted(flags)))


def _vertex_link_answer(L: MetricComplex, budget: int) -> BuildingCertificate | Diagnosis:
    """The whole spherical answer for a link of dimension >= 2; for a
    graph, the dimension-1 answer (``_certify``)."""
    return check_spherical(L, budget) if L.dimension >= 2 else _certify(L)


# loaded with the recognizer: perfbench/tracing.py patches it through
# sys.modules.  Imported last, because geodesics imports names defined above.
from . import geodesics  # noqa: E402,F401
