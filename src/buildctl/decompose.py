"""Join and product structure of recognized buildings.

Suspension factors are found by the pole test (a non-adjacent vertex pair
with all cross edges pi/2 whose join with the complement reconstructs the
complex); join decomposition splits along the irreducible components of the
certified Coxeter matrix and re-verifies by reassembly; a factor of
dimension <= 1 is decided by ``dim1``, so a graph is decomposed without the
recognizer.  Euclidean factor structure is reported as link-level hints only.
"""

from __future__ import annotations

import itertools

from .angles import Angle
from .complexes import (ComplexError, MetricComplex, orthogonal_join,
                        vertex_link)
from .coxeter import irreducible_components
from .dim1 import (SUSPENSION, THICK, THIN, BuildingCertificate, Diagnosis, IntegrityError,
                   _subcomplex, _vertex_types, check_dim1)

RIGHT = Angle.exact(1, 2)


def find_suspension_poles(c: MetricComplex) -> tuple[int, int] | None:
    """First vertex pair acting as S^0-join poles, or None.

    Poles are non-adjacent, joined to every other vertex by a pi/2 edge, and
    every top cell contains exactly one of them; the complex must equal the
    orthogonal join of the pole pair with the base.  So a pole has valence
    exactly nv - 2, and only pairs of such vertices are tried, in vertex
    order.  A non-adjacent pair of them is adjacent to every other vertex
    and shares no top cell, so what is left to check is the pi/2 lengths
    and the reconstruction, which leaves no top cell without a pole.
    """
    if c.dimension < 1 or len(c.vertices) < 3:
        return None
    edges = set(c.edges)
    for p, q in itertools.combinations(_pole_candidates(c), 2):
        if (p, q) in edges:
            continue
        if all(c.edge_length(pole, v).equals(RIGHT)
               for v in range(len(c.vertices)) if v != p and v != q for pole in (p, q)):
            if _reconstructs_as_suspension(c, p, q):
                return (p, q)
    return None


def _pole_candidates(c: MetricComplex) -> list[int]:
    """The vertices adjacent to all other vertices but one, in vertex order."""
    valence = [0] * len(c.vertices)
    for i, j in c.edges:
        valence[i] += 1
        valence[j] += 1
    return [v for v, k in enumerate(valence) if k == len(valence) - 2]


def _reconstructs_as_suspension(c: MetricComplex, p: int, q: int) -> bool:
    stars = c._incidence[0]
    base_p = {tuple(v for v in cell if v != p) for cell in stars[p]}
    base_q = {tuple(v for v in cell if v != q) for cell in stars[q]}
    if base_p != base_q:
        return False
    expected = {tuple(sorted(b + (pole,))) for b in base_p for pole in (p, q)}
    return expected == set(c.top_cells)


class SuspensionFactorization:
    def __init__(self, pole_pairs: list[tuple[str, str]], base: MetricComplex | None):
        self.pole_pairs = pole_pairs
        self.base = base                # None when the final base is empty


def suspension_factor(c: MetricComplex, cert: BuildingCertificate | None = None
                      ) -> SuspensionFactorization | None:
    """Iterated S^0 factors: peel pole pairs until no pole test passes.

    The base after each peel is the link of the extracted pole, which
    preserves the vertex names of the remaining factor.
    """
    c.require_valid()
    pairs: list[tuple[str, str]] = []
    cur = c
    while cur is not None and cur.dimension >= 1:
        poles = find_suspension_poles(cur)
        if poles is None:
            break
        p, q = poles
        pairs.append((cur.vertices[p], cur.vertices[q]))
        cur = vertex_link(cur, p)
    if not pairs:
        return None
    return SuspensionFactorization(pairs, cur)


class JoinFactor:
    def __init__(self, complex: MetricComplex, certificate: BuildingCertificate | Diagnosis,
                 generator_component: tuple[int, ...]):
        self.complex = complex
        self.certificate = certificate
        self.generator_component = generator_component


def spherical_answer(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    """``check_spherical``'s answer: the dimension-1 gates decide a graph or a
    discrete set, and only a complex of dimension >= 2 loads the recognizer."""
    if c.dimension <= 1:
        return check_dim1(c)
    from .recognizer import check_spherical
    return check_spherical(c)


def join_decompose(c: MetricComplex, cert: BuildingCertificate) -> list[JoinFactor]:
    """Split a certified building along its Coxeter diagram components.

    Vertices partition by type group; cross-component edges must all be
    pi/2 and the orthogonal join of the factors must reassemble the input
    cell-for-cell (checked; violation raises IntegrityError).
    """
    c.require_valid()
    if cert.coxeter_matrix is None:
        return [JoinFactor(c, cert, tuple(range(c.dimension + 1)))]
    comps = irreducible_components(cert.coxeter_matrix)
    if len(comps) == 1:
        return [JoinFactor(c, cert, comps[0])]
    types = cert.vertex_types if cert.dimension >= 2 else _vertex_types(c)
    if types is None:
        raise IntegrityError("certified rank-2 building is not bipartite")
    factors = []
    for comp in comps:
        vset = {v for v in range(len(c.vertices)) if types[v] in comp}
        tops = sorted({tuple(v for v in cell if v in vset) for cell in c.top_cells})
        sub = _subcomplex(c, tops)
        factors.append(JoinFactor(sub, spherical_answer(sub), comp))
    _verify_reassembly(c, [f.complex for f in factors])
    return factors


def _verify_reassembly(c: MetricComplex, parts: list[MetricComplex]):
    """The orthogonal join of the factors must equal the input isometrically."""
    joined = parts[0]
    for nxt in parts[1:]:
        joined = orthogonal_join(joined, nxt)
    want_cells = {frozenset(c.vertices[v] for v in cell) for cell in c.top_cells}
    got_cells = {frozenset(joined.vertices[v] for v in cell) for cell in joined.top_cells}
    if want_cells != got_cells:
        raise IntegrityError("join of factors does not reassemble the complex")
    name_to_c = {nm: i for i, nm in enumerate(c.vertices)}
    for i, j in joined.edges:
        a = joined.vertices[i]
        b = joined.vertices[j]
        orig = c.edge_length(name_to_c[a], name_to_c[b])
        if not joined.edge_length(i, j).equals(orig):
            raise IntegrityError(f"factor join length mismatch on edge ({a},{b})")


# -- Euclidean factor hints ---------------------------------------------------------


def euclidean_factor_hint(c: MetricComplex, x, link_cert) -> list[dict]:
    """Local factor structure at a vertex, read from its link decomposition.

    Each irreducible diagram component of the certified link contributes one
    factor hint: a thick rank-1 component is a tree direction, a thin rank-1
    component is a flat direction (aggregated into a single R^l hint), and a
    rank >= 2 component is an irreducible building or cone factor.  A graph
    link is read off its certificate: a thick K_{s,t} (m = 2) is two trees
    with the two sides of its suppressed graph as branching, and a thin
    circle with m = 2 or no dihedral m is a flat point.
    """
    if isinstance(link_cert, Diagnosis):
        raise ComplexError("link is not certified; run the recognizer first")
    xi = c.vertex_index(x)
    hints: list[dict] = []
    flat_dims = 0
    if link_cert.dimension == 1:
        if link_cert.verdict == SUSPENSION:
            flat_dims += 1
            size = link_cert.base_size or 0
            if size >= 3:
                hints.append({"kind": "tree", "branching": size})
            else:
                flat_dims += 1
        elif link_cert.verdict == THIN and link_cert.m in (None, 2):
            flat_dims += 2          # a square, or a circle with no dihedral m
        elif link_cert.m == 2:
            # suppressed, the link is K_{s,t}: vertex 0 is joined to the whole other side
            sup = link_cert.graph.suppress_degree2()
            side = sup.valence(0)
            for size in sorted((side, len(sup.vertices) - side)):
                hints.append({"kind": "tree", "branching": size})
        else:
            hints.append({"kind": "irreducible", "rank": 2, "m": link_cert.m,
                          "thick": link_cert.verdict == THICK})
    else:
        M = link_cert.coxeter_matrix
        types = link_cert.vertex_types
        L = vertex_link(c, xi)
        for comp in irreducible_components(M):
            if len(comp) >= 2:
                hints.append({"kind": "irreducible", "rank": len(comp),
                              "component": list(comp),
                              "thick": (link_cert.thickness or 0) >= 3})
                continue
            t = comp[0]
            count = sum(1 for v in range(len(L.vertices)) if types[v] == t)
            if count >= 3:
                hints.append({"kind": "tree", "branching": count})
            else:
                flat_dims += 1
    if flat_dims:
        hints.append({"kind": "flat", "dim": flat_dims})
    return sorted(hints, key=lambda h: (h["kind"], sorted(h.items())))


def most_singular_vertex(c: MetricComplex, link_certs: dict) -> tuple[int, list[dict]]:
    """Lexicographically-first vertex among those with the most non-flat
    link factors (the proof's 'most complicated point', made deterministic),
    with its ``euclidean_factor_hint``.  Graph links equal up to vertex
    names (one ``graph_class``, as every interior link of a window) have
    one hint list, so only the first vertex of each class is read: a later
    one scores the same and cannot win."""
    best = None
    classes = set()
    for (vi,), (L, cert) in sorted(link_certs.items(),
                                   key=lambda kv: c.vertices[kv[0][0]]):
        if isinstance(cert, Diagnosis):
            continue
        key = L.graph_class
        if key is not None:
            if key in classes:
                continue
            classes.add(key)
        hints = euclidean_factor_hint(c, c.vertices[vi], cert)
        score = sum(1 for h in hints if h["kind"] != "flat")
        if best is None or score > best[0]:
            best = (score, vi, hints)
    if best is None:
        raise ComplexError("no certified links available")
    return best[1], best[2]
