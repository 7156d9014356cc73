"""Recognition in dimension <= 1, the decidable base: the gates that decide
whether a graph is a rank-2 building (or a discrete set a 0-dimensional
one) and the count of its apartments, the result types and names, the
hull search that ``recognizer`` shares, and the vertex typing and
subcomplex builder that ``recognizer`` and ``decompose`` share.  A graph
that passes the gates is a generalized m-gon, whose apartments are exactly
its 2m-cycles and any two of whose chambers lie in a common one, so the
check path counts them and lists none; ``enumerate_apartments_dim1`` lists
them on demand.  ``coxeter`` is loaded only for a certificate that
carries it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .angles import Frozen, PiUnits, cmp_units, units_close
from .complexes import SPHERICAL, ComplexError, MetricComplex
from .metric_graph import Circle, MetricGraph

if TYPE_CHECKING:
    from .coxeter import CoxeterMatrix

B_APT_DEFAULT = 10 ** 5
ONE, TWO = Fraction(1), Fraction(2)     # pi and 2*pi in pi units

# diagnosis conditions
NOT_CONNECTED = "not_connected"
VALENCE = "valence"
SYSTOLE = "systole"
DIAMETER = "diameter"
EDGE_LENGTH_NONUNIFORM = "edge_length_nonuniform"
LINK_FAILURE = "link_failure"
CODIM1 = "codim1_cell_count"
NOT_SIMPLY_CONNECTED = "not_simply_connected"
UNKNOWN_PI1 = "unknown_pi1"
NO_COMMON_APARTMENT = "no_common_apartment"
HULL_NOT_ISOMETRIC = "hull_not_isometric_to_model"
NO_OPPOSITE_CHAMBER = "no_opposite_chamber"
APARTMENTS_INCOMPATIBLE = "apartments_incompatible"

# verdicts
THICK = "thick_building"
THIN = "thin_building"
SUSPENSION = "suspension"
BUILDING = "building"          # mixed thickness: a join with thin factors
MEB = "metric_euclidean_building"
MEB_LOCAL = "metric_euclidean_building_local"

FLAG_GLOBAL_UNVERIFIED = "global_cat1_unverified"
FLAG_SAMPLED = "apartments_sampled"
FLAG_AXIOM2_UNVERIFIED = "apartment_axiom2_unverified"
FLAG_MIXED = "mixed_thickness"
# a certificate flagged with one of these is undecided (the CLI exits 2), and as a
# link certificate it leaves a Euclidean verdict undecided
LINK_UNDECIDED = (FLAG_GLOBAL_UNVERIFIED, FLAG_SAMPLED, FLAG_AXIOM2_UNVERIFIED)


class Diagnosis(Frozen):
    __slots__ = ("condition", "witness", "inner")

    def __init__(self, condition: str, witness: dict, inner: Diagnosis | None = None):
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "inner", inner)

    def to_json(self) -> dict:
        out = {"condition": self.condition, "witness": self.witness}
        if self.inner is not None:
            out["inner"] = self.inner.to_json()
        return out


class Apartment(Frozen):
    """A recognized apartment: a 2*pi cycle (dim 1) or a sphere subcomplex.
    ``kind`` is cycle | sphere.  In dimension 1 ``edges`` are edge ids of the
    graph and ``vertices`` the vertex cycle; in dimension >= 2 ``vertices``
    is the vertex set and ``cells`` the top cells."""

    __slots__ = ("kind", "edges", "vertices", "cells")

    def __init__(self, kind: str, edges: tuple[int, ...] = (),
                 vertices: tuple[int, ...] = (), cells: tuple[tuple, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "cells", cells)

    def key(self):
        return (self.kind, self.edges, self.cells)


class BuildingCertificate:
    """A certificate, compared field by field.  ``m`` is the dihedral
    parameter in dimension 1, ``poles`` and ``base_size`` (|Y|) are set by a
    suspension verdict, and ``graph`` is the dimension-1 carrier.
    ``apartment_count`` is the size of the apartment system in every
    dimension; only above dimension 1 are the ``apartments`` listed.
    ``copy`` derives a certificate from another."""

    def __init__(self, geometry: str, dimension: int, verdict: str,
                 coxeter_matrix: CoxeterMatrix | None = None, m: int | None = None,
                 apartments: tuple[Apartment, ...] = (), apartment_count: int = 0,
                 apartments_exhaustive: bool = True,
                 thickness: int | None = None, poles: tuple[str, str] | None = None,
                 base_size: int | None = None, vertex_types: tuple[int, ...] | None = None,
                 factors: list | None = None, flags: tuple[str, ...] = (),
                 link_certificates: dict | None = None, graph: MetricGraph | None = None):
        self.geometry = geometry
        self.dimension = dimension
        self.verdict = verdict
        self.coxeter_matrix = coxeter_matrix
        self.m = m
        self.apartments = apartments
        self.apartment_count = apartment_count
        self.apartments_exhaustive = apartments_exhaustive
        self.thickness = thickness
        self.poles = poles
        self.base_size = base_size
        self.vertex_types = vertex_types
        self.factors = factors
        self.flags = flags
        self.link_certificates = {} if link_certificates is None else link_certificates
        self.graph = graph

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def copy(self, **changes) -> BuildingCertificate:
        """A shallow copy with ``changes`` to some fields; runs no ``__init__``."""
        new = object.__new__(BuildingCertificate)
        new.__dict__.update(self.__dict__, **changes)
        return new

    def to_report(self) -> dict:
        cox = None
        if self.coxeter_matrix is not None:
            cox = self.coxeter_matrix.to_json_dict()
        out = {
            "schema": 1,
            "verdict": self.verdict,
            "geometry": self.geometry,
            "dimension": self.dimension,
            "coxeter": cox,
            "m": self.m,
            "thickness": self.thickness,
            "apartments": {"count": self.apartment_count,
                           "exhaustive": self.apartments_exhaustive},
            "flags": sorted(self.flags),
        }
        if self.poles is not None:
            out["suspension"] = {"poles": list(self.poles), "base_size": self.base_size}
        if self.factors is not None:
            out["factors"] = self.factors
        return out


class IntegrityError(RuntimeError):
    """A certified conclusion failed re-verification: internal inconsistency."""


def check_dim1(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    """``check_spherical`` for a complex of dimension <= 1: a graph, or a
    discrete set, which is a building when it has two or more points."""
    if c.geometry != SPHERICAL:
        raise ComplexError("check_spherical needs a spherical complex")
    c.require_valid()
    return _check_dim0(c) if c.dimension <= 0 else _certify_graph(c)


def recognize_dim1(g) -> BuildingCertificate | Diagnosis:
    """The 1-dimensional dichotomy: thick rank-2 building or suspension.

    Gates, in order: connectivity; valence >= 3 after valence-2 suppression;
    systole >= 2*pi; diameter = pi; uniform edge length pi/m.  m = 1 yields
    the suspension verdict, m >= 2 the thick verdict, each with the count of
    its apartments.  A single 2*pi circuit is the thin (Coxeter complex) case.
    """
    if isinstance(g, MetricComplex) and g.dimension == 1:
        g.require_valid()
    return _certify_graph(g)


def _certify_graph(g) -> BuildingCertificate | Diagnosis:
    """The gates of recognize_dim1, then the count of the apartments.

    The diameter gate compares ``MetricGraph.diameter``, one closed form per
    edge pair, with pi; a graph that fails it is reported with that
    diameter and its witness pair.

    A graph that passes the gates is a generalized m-gon once suppressed:
    its girth is 2m hops and its diameter m hops, so its apartments are
    exactly its 2m-cycles and any two of its chambers lie in one of them
    (Abramenko-Brown, Buildings, ch. 4); (B1) holds and nothing is searched.
    A thick one has m in {2, 3, 4, 6, 8} (Feit-Higman), else the gates are
    at fault."""
    graph = MetricGraph.from_complex(g) if isinstance(g, MetricComplex) else g
    if not graph.is_connected():
        return Diagnosis(NOT_CONNECTED, {"detail": "graph is not connected"})
    sup = graph.suppress_degree2()
    if isinstance(sup, Circle):
        return _recognize_circle(graph, sup)
    for v in range(len(sup.vertices)):
        if sup.valence(v) < 3:
            return Diagnosis(VALENCE, {"vertex": sup.vertices[v],
                                       "valence": sup.valence(v)})
    ok, cyc = sup.cat1()
    if not ok:
        names = [sup.vertices[v] for v in sup.cycle_vertices(cyc)]
        length = sum(sup.edges[e][2] for e in cyc)
        return Diagnosis(SYSTOLE, {"cycle": names,
                                   "length_pi_units": float(length)})
    diam, wit = sup.diameter()
    if cmp_units(diam, ONE) != 0:
        return Diagnosis(DIAMETER, {
            "diameter_pi_units": float(diam),
            "witness": [sup.point_name(wit[0]), sup.point_name(wit[1])] if wit else None})
    m = _uniform_m(sup)
    if isinstance(m, Diagnosis):
        return m
    if m == 1:
        return BuildingCertificate(
            SPHERICAL, 1, SUSPENSION, coxeter_matrix=None, m=1,
            apartment_count=_count_2m_cycles(sup, 1), thickness=2,
            poles=tuple(sup.vertices), base_size=len(sup.edges), graph=graph)
    if m not in (2, 3, 4, 6, 8):
        raise IntegrityError(f"a thick generalized {m}-gon contradicts Feit-Higman")
    from .coxeter import dihedral       # loaded for a certificate that carries it
    return BuildingCertificate(
        SPHERICAL, 1, THICK, coxeter_matrix=dihedral(m), m=m,
        apartment_count=_count_2m_cycles(sup, m),
        thickness=min(sup.valence(v) for v in range(len(sup.vertices))), graph=graph)


def _count_2m_cycles(sup: MetricGraph, m: int) -> int:
    """The number of 2m-cycles, the apartments, of a generalized m-gon
    (pairs of parallel edges when m = 1): |E| q_w0 / 2m.  Its edges are the
    chambers, and the chambers opposite one are q_w0 many, the product of
    (valence - 1) over the m letters of w0, alternating between the two
    ends of an edge.  Each opposite pair lies in exactly one apartment, and
    each apartment holds 2m ordered such pairs (Abramenko-Brown, Buildings,
    ch. 4).  A generalized m-gon is biregular, the valences equal when m is
    odd; anything else means the gates are at fault."""
    val = sup.valence
    pairs = {tuple(sorted((val(a), val(b)))) for a, b, _ in sup.edges}
    p, q = min(pairs)
    if len(pairs) != 1 or (m % 2 and p != q):
        raise IntegrityError(f"edge valences {sorted(pairs)} fit no generalized {m}-gon")
    return len(sup.edges) * (p - 1) ** (m // 2) * (q - 1) ** ((m + 1) // 2) // (2 * m)


def _recognize_circle(graph: MetricGraph, circ: Circle) -> BuildingCertificate | Diagnosis:
    c = circ.circumference
    side = cmp_units(c, TWO)
    if side < 0:
        return Diagnosis(SYSTOLE, {"cycle": list(circ.vertex_names),
                                   "length_pi_units": float(c)})
    if side > 0:
        return Diagnosis(DIAMETER, {"diameter_pi_units": float(c) / 2.0})
    m = _uniform_m(graph)
    if isinstance(m, Diagnosis):
        m = None
    from .coxeter import dihedral
    return BuildingCertificate(
        SPHERICAL, 1, THIN, coxeter_matrix=None if m is None else dihedral(max(m, 2)),
        m=m, apartment_count=1, thickness=2, graph=graph)


def _length_to_m(ln: PiUnits) -> int | None:
    if isinstance(ln, Fraction):
        return ln.denominator if ln.numerator == 1 else None
    m = round(1 / ln)
    return m if m >= 1 and cmp_units(ln, 1 / m) == 0 else None


def _uniform_m(sup: MetricGraph) -> int | Diagnosis:
    def ends(eid):
        return [sup.vertices[v] for v in sup.edges[eid][:2]]

    l0 = sup.edges[0][2]
    for eid, (_, _, ln) in enumerate(sup.edges):
        if not units_close(l0, ln):
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "edges": [ends(0), ends(eid)],
                "lengths_pi_units": [float(l0), float(ln)]})
    m = _length_to_m(l0)
    if m is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "edges": [ends(0)],
            "detail": f"uniform length {float(l0)}*pi is not pi/m for integer m"})
    return m


def _check_dim0(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    k = len(c.vertices)
    if k < 2:
        return Diagnosis(VALENCE, {"detail": f"discrete set of {k} < 2 points"})
    return BuildingCertificate(SPHERICAL, 0, THICK if k >= 3 else THIN,
                               thickness=k, apartment_count=k * (k - 1) // 2)


# -- vertex types and subcomplexes, shared with recognizer and decompose -------------


def _vertex_types(c: MetricComplex) -> tuple[int, ...] | None:
    """Proper (n+1)-coloring of the vertices of a pure complex, one color
    per chamber vertex, or None.  The first chamber of each gallery-connected
    class, in ``top_cells`` order, gives its untyped vertices the colors its
    typed ones leave, in vertex order; then the coloring is forced across
    each panel of ``chamber_graph``: a chamber's p-th vertex has the color
    that the panel omitting it lacks, and so must the vertex a neighbour on
    that panel adds.  Being forced, it does not depend on the search order."""
    n = c.dimension
    chambers, graph = c.top_cells, c.chamber_graph
    types = [-1] * len(c.vertices)
    assigned = [False] * len(chambers)
    for seed, cell in enumerate(chambers):
        if assigned[seed]:
            continue
        free = [v for v in cell if types[v] < 0]
        used = {types[v] for v in cell if types[v] >= 0}
        if len(used) != len(cell) - len(free):
            return None
        for v, t in zip(free, [t for t in range(n + 1) if t not in used]):
            types[v] = t
        assigned[seed] = True
        stack = [seed]
        while stack:
            k = stack.pop()
            cur = chambers[k]
            for v, others in zip(cur, graph[k]):
                for j in others:
                    if assigned[j]:
                        continue
                    w = next(u for u in chambers[j] if u not in cur)
                    if types[w] < 0:
                        types[w] = types[v]
                    elif types[w] != types[v]:
                        return None
                    assigned[j] = True
                    stack.append(j)
    if -1 in types:
        return None
    return tuple(types)


def _subcomplex(c: MetricComplex, cells) -> MetricComplex:
    verts = sorted({v for cell in cells for v in cell})
    remap = {v: i for i, v in enumerate(verts)}
    names = [c.vertices[v] for v in verts]
    top = [tuple(sorted(remap[v] for v in cell)) for cell in cells]
    lengths = []
    seen = set()
    for cell in cells:
        for i, j in itertools.combinations(sorted(cell), 2):
            if (i, j) in seen:
                continue
            seen.add((i, j))
            lengths.append((remap[i], remap[j], c.edge_length(i, j)))
    return MetricComplex(c.geometry, names, top, lengths,
                         allow_disconnected=True, provenance=c.provenance)


def enumerate_apartments_dim1(g: MetricGraph, m: int, budget: int = B_APT_DEFAULT
                              ) -> tuple[tuple[Apartment, ...], bool]:
    """The apartments of g, a generalized m-gon, listed on demand as convex
    hulls of opposite chambers (``_opposite_hulls``), with l(w0) = m and
    |W| = 2m.  The check path only counts them (``_count_2m_cycles``).

    A chamber is a chain of g: a maximal edge path whose inner vertices have
    valence 2, one edge of the suppressed graph; two chains are adjacent when
    they share a vertex of valence >= 3.  No length is read, so subdivided
    and float graphs give the apartments of their suppressed graph.  Each
    kept hull, a bitmask of chains, becomes the bitmask of their edges (the
    OR of its chains' edge masks) and is walked as a cycle from its least
    edge id e0 = (u0, v0), from u0 to v0.  The budget counts hulls
    evaluated."""
    adj = g.adjacency
    chain = [-1] * len(g.edges)             # edge -> its chain, by least edge id
    chains: list[list[int]] = []
    for e0 in range(len(g.edges)):
        if chain[e0] < 0:
            stack = [e0]
            for e in stack:                 # the list grows as it is walked
                chain[e] = len(chains)
                stack += [f for x in g.edges[e][:2] if len(adj[x]) == 2
                          for _, f, _ in adj[x] if chain[f] < 0 and f not in stack]
            chains.append(stack)
    nbrs = [0] * len(chains)
    for around in adj.values():
        if len(around) != 2:
            mask = sum({1 << chain[e] for _, e, _ in around})
            for k in _bits(mask):
                nbrs[k] |= mask & ~(1 << k)
    hulls, exhaustive, _, _ = _opposite_hulls(nbrs, m, 2 * m, budget)
    chain_masks = [sum(1 << e for e in ch) for ch in chains]
    walks = []
    for _, ks in hulls:
        mask = 0
        for k in ks:
            mask |= chain_masks[k]
        walks.append(_walk_cycle(g, mask))
    return tuple(sorted(walks, key=Apartment.key)), exhaustive


def _walk_cycle(g: MetricGraph, mask: int) -> Apartment:
    """The edges of the bitmask as one closed cycle from its least edge id
    e0 = (u0, v0), from u0 to v0.  At each vertex x the next edge is
    ``g.incident[x] & mask`` without the edge just taken, which must be a
    single bit; IntegrityError when the mask is no single cycle."""
    incident, edges = g.incident, g.edges
    last = mask & -mask
    e0 = last.bit_length() - 1
    u0, x, _ = edges[e0]
    eids, verts = [e0], [u0]
    while x != u0:
        out = incident[x] & mask & ~last
        if not out or out & (out - 1):
            break
        last = out
        e = out.bit_length() - 1
        verts.append(x)
        eids.append(e)
        u, v, _ = edges[e]
        x = v if x == u else u
    if x != u0 or len(eids) != mask.bit_count():
        raise IntegrityError(f"apartment edges {list(_bits(mask))} are no cycle")
    return Apartment("cycle", edges=tuple(eids), vertices=tuple(verts))


def _opposite_hulls(nbrs: Sequence[int], top: int, order: int, budget: int
                    ) -> tuple[list[tuple[int, list[int]]], bool, int | None,
                               tuple[int, int] | None]:
    """The convex hulls of opposite chambers that are apartments, each as
    its chamber bitmask with the list of its chamber indices in increasing
    order, whether the search was exhaustive, the first chamber whose
    distance layer at depth ``top`` is empty, or None, and the first pair
    (i, j), i <= j, of chambers in no kept hull together, or None.

    In a spherical building two chambers at gallery distance l(w0) = top
    lie in exactly one apartment, the chambers on their minimal galleries
    {E : d(C,E) + d(E,D) = top}, and every apartment through C holds a
    chamber opposite C (Abramenko-Brown, Buildings, ch. 4), so the hulls of
    opposite pairs are the whole apartment system.  Chamber k has neighbour
    bitmask nbrs[k]; its distance layers (a breadth-first search cut at
    depth top) are computed once, i's while i or a pair (i, j > i) is in no
    kept hull and j's when (i, j) is evaluated, so a thin sphere costs two;
    so every chamber in no kept hull is searched from, and one with no
    chamber at distance top is named (it has no opposite).  A
    hull of other than ``order`` = |W| chambers is no apartment and is not
    kept; a pair already inside a kept hull is not evaluated again, so a
    building costs one hull per apartment.  The budget counts hulls
    evaluated, and the search is exhaustive when none was cut off.  Each
    chamber's cover is the OR of the kept hulls through it, so a bit
    missing from it names the uncovered pair: axiom (B1) on chambers, which
    decides it on every pair of cells, as cells lie in chambers."""
    layers = [None] * len(nbrs)
    cover = [0] * len(nbrs)
    hulls = []
    lonely = None
    evaluated = 0
    for i in range(len(nbrs)):
        if cover[i] and (cover[i] >> (i + 1)).bit_count() == len(nbrs) - i - 1:
            continue                    # i and every pair (i, j > i) are in a kept hull
        li = layers[i] = layers[i] or _distance_layers(nbrs, i, top)
        if not li[top] and lonely is None:
            lonely = i
        todo = li[top] >> (i + 1) << (i + 1)
        while todo := todo & ~cover[i]:
            j = (todo & -todo).bit_length() - 1
            todo ^= 1 << j
            if evaluated == budget:
                return hulls, False, lonely, _uncovered(cover)
            evaluated += 1
            lj = layers[j] = layers[j] or _distance_layers(nbrs, j, top)
            hull = 0
            for d in range(top + 1):
                hull |= li[d] & lj[top - d]
            if hull.bit_count() == order:
                ks = list(_bits(hull))          # expanded once, kept with the hull
                hulls.append((hull, ks))
                for k in ks:
                    cover[k] |= hull
    return hulls, True, lonely, _uncovered(cover)


def _uncovered(cover: Sequence[int]) -> tuple[int, int] | None:
    """The first pair (i, j), i <= j, with bit j missing from cover[i], or
    None.  Covers are symmetric, so j < i would have named (j, i) first."""
    full = (1 << len(cover)) - 1
    for i, got in enumerate(cover):
        if got != full:
            missing = full & ~got
            return i, (missing & -missing).bit_length() - 1
    return None


def _distance_layers(nbrs: Sequence[int], start: int, depth: int) -> list[int]:
    """Bitmasks of the vertices at distance 0..depth from start, in the graph
    whose vertex k has neighbour bitmask nbrs[k]."""
    seen = frontier = 1 << start
    layers = [frontier]
    for _ in range(depth):
        reach = 0
        for k in _bits(frontier):
            reach |= nbrs[k]
        frontier = reach & ~seen
        seen |= frontier
        layers.append(frontier)
    return layers


def _bits(mask: int):
    """The set bit positions of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
