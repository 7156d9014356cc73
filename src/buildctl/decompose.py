"""Join and product structure of recognized buildings.

Suspension factors are found by the pole test (a non-adjacent vertex pair
with all cross edges pi/2 whose join with the complement reconstructs the
complex); join decomposition splits along the irreducible components of the
certified Coxeter matrix and re-verifies by reassembly.  Euclidean factor
structure is reported as link-level hints only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .angles import Angle
from .complexes import (ComplexError, MetricComplex, orthogonal_join,
                        vertex_link)
from .coxeter import irreducible_components

if TYPE_CHECKING:
    from .recognizer import BuildingCertificate, Diagnosis

RIGHT = Angle.exact(1, 2)


def find_suspension_poles(c: MetricComplex) -> tuple[int, int] | None:
    """First vertex pair acting as S^0-join poles, or None.

    Poles are non-adjacent, joined to every other vertex by a pi/2 edge, and
    every top cell contains exactly one of them; the complex must equal the
    orthogonal join of the pole pair with the base.
    """
    if c.dimension < 1 or len(c.vertices) < 3:
        return None
    edge_set = set(c.edges)
    nv = len(c.vertices)
    for p, q in itertools.combinations(range(nv), 2):
        if (p, q) in edge_set:
            continue
        ok = True
        for v in range(nv):
            if v in (p, q):
                continue
            for pole in (p, q):
                e = (min(pole, v), max(pole, v))
                if e not in edge_set or not c.edge_length(*e).equals(RIGHT):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if all((p in cell) != (q in cell) for cell in c.top_cells):
            if _reconstructs_as_suspension(c, p, q):
                return (p, q)
    return None


def _reconstructs_as_suspension(c: MetricComplex, p: int, q: int) -> bool:
    base_p = {tuple(v for v in cell if v != p) for cell in c.top_cells if p in cell}
    base_q = {tuple(v for v in cell if v != q) for cell in c.top_cells if q in cell}
    if base_p != base_q:
        return False
    expected = {tuple(sorted(b + (pole,))) for b in base_p for pole in (p, q)}
    return expected == set(c.top_cells)


@dataclass
class SuspensionFactorization:
    pole_pairs: list[tuple[str, str]]
    base: MetricComplex | None         # None when the final base is empty


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


@dataclass
class JoinFactor:
    complex: MetricComplex
    certificate: BuildingCertificate | Diagnosis
    generator_component: tuple[int, ...]


def join_decompose(c: MetricComplex, cert: BuildingCertificate) -> list[JoinFactor]:
    """Split a certified building along its Coxeter diagram components.

    Vertices partition by type group; cross-component edges must all be
    pi/2 and the orthogonal join of the factors must reassemble the input
    cell-for-cell (checked; violation raises IntegrityError).
    """
    # the recognizer imports this module, so its names are imported at use
    from .recognizer import (IntegrityError, _subcomplex, _vertex_types,
                             check_spherical)
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
        factors.append(JoinFactor(sub, check_spherical(sub), comp))
    _verify_reassembly(c, [f.complex for f in factors])
    return factors


def _verify_reassembly(c: MetricComplex, parts: list[MetricComplex]):
    """The orthogonal join of the factors must equal the input isometrically."""
    from .recognizer import IntegrityError
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
    rank >= 2 component is an irreducible building or cone factor.
    """
    from .recognizer import SUSPENSION, THICK, Diagnosis, _vertex_types
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
        elif link_cert.m == 2:
            types = _vertex_types(vertex_link(c, xi))
            sides = [sum(1 for t in types if t == 0), sum(1 for t in types if t == 1)]
            for size in sorted(sides):
                if size >= 3:
                    hints.append({"kind": "tree", "branching": size})
                else:
                    flat_dims += 1
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


def most_singular_vertex(c: MetricComplex, link_certs: dict) -> int:
    """Lexicographically-first vertex among those with the most non-flat
    link factors (the proof's 'most complicated point', made deterministic)."""
    from .recognizer import Diagnosis
    best = None
    for (vi,), (L, cert) in sorted(link_certs.items(),
                                   key=lambda kv: c.vertices[kv[0][0]]):
        if isinstance(cert, Diagnosis):
            continue
        hints = euclidean_factor_hint(c, c.vertices[vi], cert)
        score = sum(1 for h in hints if h["kind"] != "flat")
        if best is None or score > best[0]:
            best = (score, vi)
    if best is None:
        raise ComplexError("no certified links available")
    return best[1]
