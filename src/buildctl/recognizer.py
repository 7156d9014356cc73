"""Recognition of building structure: certificates and pinpointed diagnoses.

Dimension 1 is the decidable base: after suppressing valence-2 vertices a
connected graph is a thick rank-2 building, a suspension of a discrete set,
or a single 2*pi circuit, provided it passes the systole (CAT(1)), diameter,
valence, and uniform-length gates; the first failed gate comes back as a
Diagnosis with a concrete witness.  Higher dimensions recurse through cell
links, assemble the Coxeter matrix from panel angles, and enumerate
apartments by sector propagation.  Apartments are built only where a
certificate keeps them: the link certificates inside a dimension >= 3
complex and inside a Euclidean check carry none, because no caller reads
them and growing surfaces in every vertex link would dominate the cost; the
vertex links of a dimension-2 complex keep theirs, which seed its sector
propagation.  Global CAT(1) in dimension 2 is never guessed: certificates
carry an explicit unverified flag unless the complex was produced by a
curvature-preserving construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import geodesics   # propagate_all is looked up at call time
from .angles import PiUnits, cmp_units, units_close
from .complexes import (EUCLIDEAN, SPHERICAL, ComplexError, MetricComplex,
                        cell_link, vertex_link)
from .coxeter import CoxeterMatrix, classify, coxeter_complex, dihedral
from .decompose import (euclidean_factor_hint, find_suspension_poles,
                        most_singular_vertex)
from .homotopy import NONTRIVIAL, UNKNOWN, simple_connectivity
from .metric_graph import Circle, GraphPoint, MetricGraph

B_APT_DEFAULT = 10 ** 5
SAMPLE_PAIRS = 10 ** 3
ONE, TWO = Fraction(1), Fraction(2)     # pi and 2*pi in pi units

# diagnosis conditions
NOT_CONNECTED = "not_connected"
VALENCE = "valence"
SYSTOLE = "systole"
DIAMETER = "diameter"
EDGE_LENGTH_NONUNIFORM = "edge_length_nonuniform"
LINK_FAILURE = "link_failure"
CODIM1 = "codim1_cell_count"
DEP_EMPTY = "dep_empty"
DEP_NOT_DISCRETE = "dep_not_discrete"
NOT_SIMPLY_CONNECTED = "not_simply_connected"
UNKNOWN_PI1 = "unknown_pi1"

# verdicts
THICK = "thick_building"
THIN = "thin_building"
SUSPENSION = "suspension"
BUILDING = "building"          # mixed thickness: a join with thin factors
MEB = "metric_euclidean_building"
MEB_LOCAL = "metric_euclidean_building_local"

FLAG_GLOBAL_UNVERIFIED = "global_cat1_unverified"
FLAG_SAMPLED = "apartments_sampled"
FLAG_MIXED = "mixed_thickness"


@dataclass(frozen=True)
class Diagnosis:
    condition: str
    witness: dict
    inner: "Diagnosis | None" = None

    def to_json(self) -> dict:
        out = {"condition": self.condition, "witness": self.witness}
        if self.inner is not None:
            out["inner"] = self.inner.to_json()
        return out

    def innermost(self) -> "Diagnosis":
        return self if self.inner is None else self.inner.innermost()


@dataclass(frozen=True)
class Apartment:
    """A recognized apartment: a 2*pi cycle (dim 1) or a 2-sphere subcomplex."""

    kind: str                           # cycle | sphere
    edges: tuple[int, ...] = ()         # dim 1: edge ids of the graph
    vertices: tuple[int, ...] = ()      # dim 1: vertex cycle / dim 2: vertex set
    cells: tuple[tuple, ...] = ()       # dim 2: top cells

    def key(self):
        return (self.kind, self.edges, self.cells)


@dataclass
class BuildingCertificate:
    geometry: str
    dimension: int
    verdict: str
    coxeter_matrix: CoxeterMatrix | None = None
    m: int | None = None                        # dihedral parameter, dimension 1
    apartments: tuple[Apartment, ...] = ()
    apartments_exhaustive: bool = True
    thickness: int | None = None
    poles: tuple[str, str] | None = None        # suspension verdicts
    base_size: int | None = None                # suspension: |Y|
    vertex_types: tuple[int, ...] | None = None
    factors: list | None = None
    flags: tuple[str, ...] = ()
    link_certificates: dict = field(default_factory=dict)
    graph: MetricGraph | None = None            # dimension-1 carrier

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
            "apartments": {"count": len(self.apartments),
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


# -- dimension 1 ----------------------------------------------------------------


def recognize_dim1(g, budget: int = B_APT_DEFAULT, *, apartments: bool = True
                   ) -> BuildingCertificate | Diagnosis:
    """The 1-dimensional dichotomy: thick rank-2 building or suspension.

    Gates, in order: connectivity; valence >= 3 after valence-2 suppression;
    systole >= 2*pi; diameter = pi; uniform edge length pi/m.  m = 1 yields
    the suspension verdict, m >= 2 the thick verdict with its apartment
    system.  A single 2*pi circuit is the thin (Coxeter complex) case.

    ``apartments=False`` skips the cycle search and its axiom check: the
    verdict is the same, but the certificate carries no apartments, is not
    exhaustive and is flagged ``apartments_sampled``.  A single circuit still
    carries itself, which costs no search.
    """
    if isinstance(g, MetricComplex):
        graph = MetricGraph.from_complex(g)
    else:
        graph = g
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
    found, exhaustive = (), False
    if apartments:
        found, exhaustive = enumerate_apartments_dim1(graph, m, budget=budget)
        axiom = _check_dim1_axioms(graph, found, exhaustive)
        if axiom is not None:
            raise IntegrityError(axiom)
    flags = () if exhaustive else (FLAG_SAMPLED,)
    if m == 1:
        poles = tuple(sup.vertices)
        return BuildingCertificate(
            SPHERICAL, 1, SUSPENSION, coxeter_matrix=None, m=1,
            apartments=found, apartments_exhaustive=exhaustive,
            thickness=2, poles=poles, base_size=len(sup.edges), flags=flags,
            graph=graph)
    return BuildingCertificate(
        SPHERICAL, 1, THICK, coxeter_matrix=dihedral(m), m=m,
        apartments=found, apartments_exhaustive=exhaustive,
        thickness=min(sup.valence(v) for v in range(len(sup.vertices))),
        flags=flags, graph=graph)


def _recognize_circle(graph: MetricGraph, circ: Circle) -> BuildingCertificate | Diagnosis:
    c = circ.circumference
    side = cmp_units(c, TWO)
    if side < 0:
        return Diagnosis(SYSTOLE, {"cycle": list(circ.vertex_names),
                                   "length_pi_units": float(c)})
    if side > 0:
        return Diagnosis(DIAMETER, {"diameter_pi_units": float(c) / 2.0})
    m = None
    lens = {ln if isinstance(ln, Fraction) else round(float(ln), 12)
            for _, _, ln in graph.edges}
    if len(lens) == 1:
        mm = _length_to_m(next(iter(graph.edges))[2])
        if mm is not None:
            m = mm
    cyc_edges, cyc_verts = _walk_circle(graph)
    whole = Apartment("cycle", edges=cyc_edges, vertices=cyc_verts)
    return BuildingCertificate(
        SPHERICAL, 1, THIN, coxeter_matrix=None if m is None else dihedral(max(m, 2)),
        m=m, apartments=(whole,), apartments_exhaustive=True, thickness=2,
        graph=graph)


def _walk_circle(graph: MetricGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic edge/vertex order of an all-valence-2 connected graph."""
    edges = []
    verts = [0]
    used: set[int] = set()
    cur = 0
    while True:
        nxt = None
        for w, eid, _ in graph.adjacency[cur]:
            if eid not in used:
                nxt = (w, eid)
                break
        if nxt is None:
            break
        w, eid = nxt
        used.add(eid)
        edges.append(eid)
        if w == 0:
            break
        verts.append(w)
        cur = w
    return tuple(edges), tuple(verts)


def _length_to_m(ln: PiUnits) -> int | None:
    if isinstance(ln, Fraction):
        return ln.denominator if ln.numerator == 1 else None
    m = round(1 / ln)
    return m if m >= 1 and cmp_units(ln, 1 / m) == 0 else None


def _uniform_m(sup: MetricGraph) -> int | Diagnosis:
    lens = [(eid, ln) for eid, (_, _, ln) in enumerate(sup.edges)]
    e0, l0 = lens[0]
    for eid, ln in lens[1:]:
        if not units_close(l0, ln):
            u0 = tuple(sup.vertices[v] for v in sup.edges[e0][:2])
            u1 = tuple(sup.vertices[v] for v in sup.edges[eid][:2])
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "edges": [list(u0), list(u1)],
                "lengths_pi_units": [float(l0), float(ln)]})
    m = _length_to_m(l0)
    if m is None:
        u0 = tuple(sup.vertices[v] for v in sup.edges[e0][:2])
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "edges": [list(u0)],
            "detail": f"uniform length {float(l0)}*pi is not pi/m for integer m"})
    return m


def enumerate_apartments_dim1(g: MetricGraph, m: int | None = None,
                              budget: int = B_APT_DEFAULT
                              ) -> tuple[tuple[Apartment, ...], bool]:
    """All injective cycles of total length exactly 2*pi, by bounded DFS.

    Works on the given (possibly subdivided) graph; with uniform lengths
    pi/m these are exactly the 2m-edge circuits.
    """
    found: dict[frozenset, Apartment] = {}
    nodes = 0
    exhausted = False
    for e0, (u0, v0, l0) in enumerate(g.edges):
        stack = [([e0], [u0, v0], l0)]
        while stack:
            nodes += 1
            if nodes > budget:
                exhausted = True
                break
            eids, verts, ln = stack.pop()
            last = verts[-1]
            side = cmp_units(ln, TWO)
            if last == u0 and len(eids) >= 2:
                if side == 0:
                    key = frozenset(eids)
                    if key not in found:
                        found[key] = Apartment("cycle", edges=tuple(eids),
                                               vertices=tuple(verts[:-1]))
                continue
            if side > 0:
                continue
            for w, eid, wl in g.adjacency[last]:
                if eid <= e0 and eid != e0:
                    continue
                if eid in eids:
                    continue
                if w != u0 and w in verts:
                    continue
                stack.append((eids + [eid], verts + [w], ln + wl))
        if exhausted:
            break
    apartments = tuple(sorted(found.values(), key=lambda a: a.key()))
    if m is not None and not exhausted:
        for a in apartments:
            if len(a.edges) % 2 != 0:
                raise IntegrityError(f"odd apartment cycle {a}")
    return apartments, not exhausted


def _check_dim1_axioms(g: MetricGraph, apartments: Sequence[Apartment],
                       exhaustive: bool, seed: int = 0) -> str | None:
    """Definition-of-building axioms (2) and (3) for cycle apartments.

    Returns an error description on violation, None when verified.  When the
    apartment list is sampled, pairs are sampled too.
    """
    ne = len(g.edges)
    apt_edges = [set(a.edges) for a in apartments]
    by_edge: dict[int, set[int]] = {e: set() for e in range(ne)}
    for ai, es in enumerate(apt_edges):
        for e in es:
            by_edge[e].add(ai)
    pairs = list(itertools.combinations(range(ne), 2)) + [(e, e) for e in range(ne)]
    if not exhaustive and len(pairs) > SAMPLE_PAIRS:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, SAMPLE_PAIRS)
    for e, f in pairs:
        if not (by_edge[e] & by_edge[f]):
            if exhaustive:
                return f"edges {e} and {f} lie in no common apartment"
    for ai, aj in itertools.combinations(range(len(apartments)), 2):
        shared = apt_edges[ai] & apt_edges[aj]
        if not shared:
            continue
        va = set(apartments[ai].vertices)
        vb = set(apartments[aj].vertices)
        common_v = va & vb
        if not _shared_part_connected(g, common_v, shared):
            return (f"apartments {ai} and {aj} intersect disconnectedly")
    return None


def _shared_part_connected(g: MetricGraph, verts: set[int], eids: set[int]) -> bool:
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for e in eids:
        u, v, _ = g.edges[e]
        adj[u].add(v)
        adj[v].add(u)
    start = min(verts)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


# -- complex isomorphism (thin closed complexes) -----------------------------------


def thin_isomorphic(a: MetricComplex, b: MetricComplex) -> bool:
    """Isometric isomorphism test for thin, pure, panel-closed complexes.

    Seeds a chamber-to-chamber map with a vertex bijection and propagates
    across panels (each panel bounds exactly two chambers); edge lengths must
    match within tolerance throughout.
    """
    if a.dimension != b.dimension:
        return False
    if len(a.top_cells) != len(b.top_cells) or len(a.vertices) != len(b.vertices):
        return False
    n = a.dimension
    if n == 0:
        return len(a.top_cells) == len(b.top_cells)
    ca0 = a.top_cells[0]
    for cb0 in b.top_cells:
        for perm in itertools.permutations(cb0):
            if _try_propagate_iso(a, b, ca0, perm):
                return True
    return False


def _try_propagate_iso(a, b, ca0, perm) -> bool:
    vmap = dict(zip(ca0, perm))
    for i, j in itertools.combinations(ca0, 2):
        if not a.edge_length(i, j).equals(b.edge_length(vmap[i], vmap[j])):
            return False
    b_cells = set(b.top_cells)
    mapped = {ca0: tuple(sorted(perm))}
    queue = [ca0]
    while queue:
        cur = queue.pop()
        img = mapped[cur]
        for panel in itertools.combinations(cur, len(cur) - 1):
            nbrs = _cofaces(a, panel)
            others = [t for t in nbrs if t != cur]
            if len(others) != 1:
                continue
            nxt = others[0]
            if nxt in mapped:
                continue
            v_new = next(v for v in nxt if v not in panel)
            img_panel = tuple(sorted(vmap[v] for v in panel))
            b_nbrs = [t for t in _cofaces(b, img_panel) if t != img]
            if len(b_nbrs) != 1:
                return False
            bimg = b_nbrs[0]
            w_new = next(w for w in bimg if w not in img_panel)
            if v_new in vmap:
                if vmap[v_new] != w_new:
                    return False
            else:
                vmap[v_new] = w_new
            for u in nxt:
                if u != v_new:
                    if not a.edge_length(u, v_new).equals(
                            b.edge_length(vmap[u], w_new)):
                        return False
            mapped[nxt] = tuple(sorted(vmap[v] for v in nxt))
            if mapped[nxt] not in b_cells:
                return False
            queue.append(nxt)
    return len(mapped) == len(a.top_cells) and \
        len(set(mapped.values())) == len(b.top_cells)


def _cofaces(c: MetricComplex, face) -> list[tuple]:
    fs = set(face)
    return [t for t in c.top_cells if fs <= set(t)]


# -- spherical recognition, dimension >= 2 --------------------------------------------


def check_spherical(c: MetricComplex, budget: int = B_APT_DEFAULT, *,
                    apartments: bool = True) -> BuildingCertificate | Diagnosis:
    """Certify a spherical complex as a building, or diagnose the failure.

    Dimension 1 delegates to recognize_dim1.  Dimension >= 2 verifies the
    codimension-1 counts, recursively certifies cell links, assembles the
    Coxeter matrix from panel angles, and enumerates apartments by sector
    propagation.  Global CAT(1) is decided only for by-construction inputs
    or through the simple-connectivity pathway in dimension >= 3.

    ``apartments=False`` skips apartment enumeration and the axiom (2)
    check; the certificate then carries no apartments, is not exhaustive and
    is flagged ``apartments_sampled``.  The links inside a dimension >= 3
    complex and inside check_euclidean are checked this way: only the
    dimension-2 sector propagation reads link apartments (the cycles in its
    vertex links), so a dimension-2 complex hands its own setting to its
    vertex links and every other link certificate is kept without them.
    """
    if c.geometry != SPHERICAL:
        raise ComplexError("check_spherical needs a spherical complex")
    c.require_valid()
    n = c.dimension
    if n <= 0:
        return _check_dim0(c)
    if n == 1:
        return recognize_dim1(c, budget=budget, apartments=apartments)
    if not c._skeleton_connected():
        return Diagnosis(NOT_CONNECTED, {"detail": "complex is not connected"})
    # codimension-1 cell counts
    thickness = None
    for panel in c.cells_by_dim.get(n - 1, ()):
        k = len(_cofaces(c, panel))
        if k < 2:
            return Diagnosis(CODIM1, {
                "cell": [c.vertices[i] for i in panel], "top_cells": k})
        thickness = k if thickness is None else min(thickness, k)
    # links: (n-2)-cells get graph recognition, deeper recursion via vertices
    link_certs: dict = {}
    for cell in c.cells_by_dim.get(n - 2, ()):
        L = cell_link(c, [c.vertices[i] for i in cell])
        res = recognize_dim1(L, budget=budget, apartments=apartments and n == 2)
        if isinstance(res, Diagnosis):
            return Diagnosis(LINK_FAILURE, {
                "cell": [c.vertices[i] for i in cell]}, inner=res)
        link_certs[cell] = (L, res)
    if n >= 3:
        for vi in range(len(c.vertices)):
            res = check_spherical(vertex_link(c, vi), budget=budget, apartments=False)
            if isinstance(res, Diagnosis):
                return Diagnosis(LINK_FAILURE, {"cell": [c.vertices[vi]]}, inner=res)
            link_certs[(vi,)] = (None, res)
    types = _vertex_types(c)
    if types is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": "vertices admit no consistent type coloring"})
    asm = _assemble_coxeter(c, types, link_certs)
    if isinstance(asm, Diagnosis):
        return asm
    M = asm
    cls = classify(M)
    if cls.verdict != "spherical":
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": f"assembled Coxeter matrix is {cls.verdict}, not spherical",
            "matrix": M.to_json_dict()})
    panel_counts = {len(_cofaces(c, p)) for p in c.cells_by_dim.get(n - 1, ())}
    # thin: the complex is its own single apartment.  In dimension 2 its Euler
    # characteristic must also be 2; a thin quotient such as RP^2 goes on to
    # sector propagation instead of failing the apartment isometry check.
    thin_sphere = panel_counts == {2} and (
        n != 2 or len(c.vertices) - len(c.edges) + len(c.top_cells) == 2)
    found, exhaustive = (), False
    if apartments and thin_sphere:
        whole = Apartment("sphere", cells=tuple(sorted(c.top_cells)),
                          vertices=tuple(range(len(c.vertices))))
        found, exhaustive = (whole,), True
    elif apartments and n == 2:
        found, exhaustive = _enumerate_apartments_dim2(c, link_certs, budget)
    flags = []
    poles = find_suspension_poles(c)
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
        SPHERICAL, n, verdict, coxeter_matrix=M,
        apartments=found, apartments_exhaustive=exhaustive,
        thickness=thickness, vertex_types=types,
        link_certificates=link_certs)
    if verdict == SUSPENSION:
        cert.poles = (c.vertices[poles[0]], c.vertices[poles[1]])
        base = [v for v in range(len(c.vertices)) if v not in poles]
        cert.base_size = len(base)
    if not exhaustive:
        flags.append(FLAG_SAMPLED)
    ax = _check_dim2_axiom2(c, found, exhaustive, budget) if apartments else None
    if ax is not None:
        flags.append(ax)
    # global curvature
    if c.provenance is not None:
        pass   # by-construction CAT(1)
    elif n >= 3:
        pi1 = simple_connectivity(c)
        if pi1.status == NONTRIVIAL:
            return Diagnosis(NOT_SIMPLY_CONNECTED, {"loop": pi1.witness_loop})
        if pi1.status == UNKNOWN:
            flags.append(FLAG_GLOBAL_UNVERIFIED + ":" + UNKNOWN_PI1)
        else:
            sub_flags = [f for (_, sub) in link_certs.values()
                         if isinstance(sub, BuildingCertificate)
                         for f in sub.flags if f.startswith(FLAG_GLOBAL_UNVERIFIED)]
            if sub_flags:
                flags.append(FLAG_GLOBAL_UNVERIFIED)
    else:
        flags.append(FLAG_GLOBAL_UNVERIFIED)
    cert.flags = tuple(sorted(set(flags)))
    _verify_apartment_isometry(c, cert)
    return cert


def _check_dim0(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    k = len(c.vertices)
    if k < 2:
        return Diagnosis(VALENCE, {"detail": f"discrete set of {k} < 2 points"})
    apartments = tuple(Apartment("cycle", vertices=pair)
                       for pair in itertools.combinations(range(k), 2))
    return BuildingCertificate(SPHERICAL, 0, THICK if k >= 3 else THIN,
                               thickness=k, apartments=apartments)


def _vertex_types(c: MetricComplex) -> tuple[int, ...] | None:
    """Proper (n+1)-coloring of vertices, one color per chamber vertex."""
    n = c.dimension
    types: dict[int, int] = {}
    assigned: set[tuple] = set()
    for seed in c.top_cells:
        if seed in assigned:
            continue
        free = [v for v in seed if v not in types]
        used = {types[v] for v in seed if v in types}
        if len(used) != len(seed) - len(free):
            return None
        nxt = [t for t in range(n + 1) if t not in used]
        for v, t in zip(sorted(free), nxt):
            types[v] = t
        queue = [seed]
        assigned.add(seed)
        while queue:
            cur = queue.pop()
            for panel in itertools.combinations(cur, n):
                for nb in _cofaces(c, panel):
                    if nb in assigned:
                        continue
                    w = next(v for v in nb if v not in panel)
                    missing = [t for t in range(n + 1)
                               if t not in {types[v] for v in panel}]
                    if len(missing) != 1:
                        return None
                    if w in types:
                        if types[w] != missing[0]:
                            return None
                    else:
                        types[w] = missing[0]
                    assigned.add(nb)
                    queue.append(nb)
    if len(types) != len(c.vertices):
        return None
    return tuple(types[v] for v in range(len(c.vertices)))


def _assemble_coxeter(c: MetricComplex, types, link_certs) -> CoxeterMatrix | Diagnosis:
    """Panel angles label the Coxeter matrix: each (n-2)-cell of cotype {i,j}
    must have a uniform link edge length pi/m(i,j), consistent across cells."""
    n = c.dimension
    all_types = set(range(n + 1))
    mvals: dict[tuple[int, int], int] = {}
    for cell, (L, sub) in sorted(link_certs.items()):
        if L is None or len(cell) != n - 1:
            continue
        cotype = tuple(sorted(all_types - {types[v] for v in cell}))
        lens = [L.edge_length(i, j) for i, j in L.edges]
        first = lens[0]
        for a in lens[1:]:
            if not first.equals(a):
                return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                    "cell": [c.vertices[i] for i in cell],
                    "detail": "link has non-uniform edge lengths",
                    "lengths": [str(first), str(a)]})
        m = _length_to_m(first.pi_units)
        if m is None or m < 2:
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "cell": [c.vertices[i] for i in cell],
                "detail": f"link edge length {first} is not pi/m, m >= 2"})
        old = mvals.get(cotype)
        if old is not None and old != m:
            return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
                "cotype": list(cotype),
                "detail": f"inconsistent panel parameters {old} and {m}"})
        mvals[cotype] = m
    gens = tuple(f"s{t}" for t in range(n + 1))
    rows = [[1 if i == j else mvals.get((min(i, j), max(i, j)), 2)
             for j in range(n + 1)] for i in range(n + 1)]
    return CoxeterMatrix(gens, tuple(tuple(r) for r in rows))


def _enumerate_apartments_dim2(c: MetricComplex, link_certs, budget: int
                               ) -> tuple[tuple[Apartment, ...], bool]:
    """Union over vertices of all sector-propagated spheres through each
    link apartment; exhaustive when every propagation completed."""
    seen: dict[tuple, Apartment] = {}
    exhaustive = True
    spent = 0
    for vi in range(len(c.vertices)):
        entry = link_certs.get((vi,))
        if entry is None or entry[0] is None:
            continue
        L, sub = entry
        if isinstance(sub, BuildingCertificate) and not sub.apartments_exhaustive:
            exhaustive = False
        for apt in (sub.apartments if isinstance(sub, BuildingCertificate) else ()):
            cyc_names = [L.vertices[w] for w in apt.vertices]
            if len(cyc_names) < 3:
                continue
            remaining = max(budget - spent, 0)
            if remaining == 0:
                exhaustive = False
                break
            surfaces, exhausted = geodesics.propagate_all(
                c, c.vertices[vi], cyc_names, budget=remaining)
            spent += 1 + len(surfaces)
            if exhausted:
                exhaustive = False
            for s in surfaces:
                key = s.cells
                if key not in seen:
                    verts = tuple(sorted({v for cell in s.cells for v in cell}))
                    seen[key] = Apartment("sphere", cells=s.cells, vertices=verts)
    return tuple(sorted(seen.values(), key=lambda a: a.key())), exhaustive


def _check_dim2_axiom2(c: MetricComplex, apartments, exhaustive, budget,
                       seed: int = 0) -> str | None:
    """Axiom (2) coverage over cell pairs; returns a flag string on failure."""
    all_cells = c.all_cells()
    in_apt: dict[tuple, set[int]] = {cell: set() for cell in all_cells}
    for ai, a in enumerate(apartments):
        faces = set()
        for cell in a.cells:
            for k in range(1, len(cell) + 1):
                faces.update(itertools.combinations(cell, k))
        for f in faces:
            if f in in_apt:
                in_apt[f].add(ai)
    pairs = list(itertools.combinations(range(len(all_cells)), 2))
    if len(pairs) > 4 * SAMPLE_PAIRS:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, 4 * SAMPLE_PAIRS)
    for i, j in pairs:
        if not (in_apt[all_cells[i]] & in_apt[all_cells[j]]):
            return ("apartment_axiom2_failed" if exhaustive
                    else "apartment_axiom2_unverified")
    return None


def _verify_apartment_isometry(c: MetricComplex, cert: BuildingCertificate):
    """Certificate soundness: every apartment matches the model Coxeter complex."""
    if cert.dimension < 2 or cert.coxeter_matrix is None or not cert.apartments:
        return
    model = coxeter_complex(cert.coxeter_matrix).complex
    for a in cert.apartments:
        sub = _subcomplex(c, a.cells)
        if not thin_isomorphic(sub, model):
            raise IntegrityError(
                "apartment is not isometric to the model Coxeter complex")


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


# -- discrete extension property ---------------------------------------------------


def discrete_extension_check(c: MetricComplex) -> tuple[bool, dict | None]:
    """Nonempty discrete antipode sets for all link directions (n = 1 or 2).

    For n = 2 the edge-interior directions have suspension links, where the
    antipode condition reduces to the incident-cell count being >= 2.
    """
    c.require_valid()
    if c.dimension == 1:
        g = MetricGraph.from_complex(c)
        for vi in range(len(c.vertices)):
            ant = g.antipode_set(GraphPoint(vertex=vi))
            if not ant.nonempty:
                return False, {"condition": DEP_EMPTY, "vertex": c.vertices[vi]}
            if not ant.discrete:
                eid, lo, hi = ant.intervals[0]
                return False, {"condition": DEP_NOT_DISCRETE,
                               "vertex": c.vertices[vi],
                               "interval": [float(lo), float(hi)]}
        return True, None
    if c.dimension != 2:
        raise ComplexError("discrete_extension_check handles dimensions 1 and 2")
    for vi in range(len(c.vertices)):
        L = vertex_link(c, vi)
        g = MetricGraph.from_complex(L)
        if not g.is_connected():
            return False, {"condition": DEP_EMPTY, "vertex": c.vertices[vi],
                           "detail": "link disconnected: whole components are antipodal"}
        for ui in range(len(L.vertices)):
            ant = g.antipode_set(GraphPoint(vertex=ui))
            if not ant.nonempty:
                return False, {"condition": DEP_EMPTY, "vertex": c.vertices[vi],
                               "direction": L.vertices[ui]}
            if not ant.discrete:
                eid, lo, hi = ant.intervals[0]
                return False, {"condition": DEP_NOT_DISCRETE,
                               "vertex": c.vertices[vi],
                               "direction": L.vertices[ui],
                               "interval": [float(lo), float(hi)]}
    for edge in c.cells_by_dim.get(1, ()):
        k = len(_cofaces(c, edge))
        if k < 2:
            return False, {"condition": DEP_EMPTY,
                           "edge": [c.vertices[i] for i in edge],
                           "detail": "edge-interior directions have empty antipode sets"}
    return True, None


# -- Euclidean recognition ----------------------------------------------------------


def check_euclidean(c: MetricComplex, boundary_policy: str = "strict",
                    budget: int = B_APT_DEFAULT) -> BuildingCertificate | Diagnosis:
    """Metric Euclidean building verdict via certified vertex links.

    strict: all codimension-1 counts and all vertex links are checked and
    simple connectivity must be decided.  window: cells touching the free
    boundary are exempt and the verdict is the local one.
    """
    if c.geometry != EUCLIDEAN:
        raise ComplexError("check_euclidean needs a Euclidean complex")
    if boundary_policy not in ("strict", "window"):
        raise ComplexError(f"unknown boundary policy {boundary_policy!r}")
    c.require_valid()
    n = c.dimension
    if n < 2:
        raise ComplexError("check_euclidean needs dimension >= 2")
    if not c._skeleton_connected():
        return Diagnosis(NOT_CONNECTED, {"detail": "complex is not connected"})
    boundary_panels = [p for p in c.cells_by_dim.get(n - 1, ())
                       if len(_cofaces(c, p)) < 2]
    if boundary_policy == "strict" and boundary_panels:
        p = boundary_panels[0]
        return Diagnosis(CODIM1, {"cell": [c.vertices[i] for i in p],
                                  "top_cells": len(_cofaces(c, p))})
    boundary_vertices = {v for p in boundary_panels for v in p}
    interior = [vi for vi in range(len(c.vertices)) if vi not in boundary_vertices]
    link_certs: dict = {}
    for vi in interior:
        L = vertex_link(c, vi)
        check = check_spherical if L.dimension >= 2 else recognize_dim1
        res = check(L, budget=budget, apartments=False)
        if isinstance(res, Diagnosis):
            return Diagnosis(LINK_FAILURE, {"cell": [c.vertices[vi]]}, inner=res)
        link_certs[(vi,)] = (L, res)
    flags = []
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
    thickness = None
    for p in c.cells_by_dim.get(n - 1, ()):
        if p in boundary_panels:
            continue
        k = len(_cofaces(c, p))
        thickness = k if thickness is None else min(thickness, k)
    factors = None
    if interior:
        vstar = most_singular_vertex(c, link_certs)
        factors = euclidean_factor_hint(c, c.vertices[vstar],
                                        link_certs[(vstar,)][1])
    cert = BuildingCertificate(
        EUCLIDEAN, n, verdict, thickness=thickness,
        apartments=(), apartments_exhaustive=False,
        factors=factors, link_certificates=link_certs, flags=tuple(sorted(flags)))
    return cert


# -- Kleiner-Leeb axioms on generated atlases ------------------------------------------


@dataclass(frozen=True)
class Chart:
    """An isometric planar chart: a cell subset with vertex coordinates."""

    name: str
    cells: tuple[tuple, ...]
    coords: dict     # vertex index -> (x, y)


def verify_def52(c: MetricComplex, atlas: Sequence[Chart], *, frame: dict,
                 n_samples: int = 60, seed: int = 0) -> dict:
    """Sampled verification of the metric-building axioms on a chart atlas.

    Geodesic segments are straight lines in the window's global flat frame;
    each sampled segment must lie in some chart, and overlapping charts must
    differ by a rigid motion on their overlap.
    """
    import numpy as np
    c.require_valid()
    rng = random.Random(seed)
    cells = list(c.top_cells)
    frame_np = {v: np.array(xy, dtype=float) for v, xy in frame.items()}
    failures = []
    chart_cells = [set(ch.cells) for ch in atlas]
    min_edge = min(c.edge_length(i, j).radians for i, j in c.edges)
    step = min_edge / 8.0
    for _ in range(n_samples):
        ca = cells[rng.randrange(len(cells))]
        cb = cells[rng.randrange(len(cells))]
        wa = [rng.random() for _ in ca]
        wb = [rng.random() for _ in cb]
        pa = sum(w * frame_np[v] for w, v in zip(wa, ca)) / sum(wa)
        pb = sum(w * frame_np[v] for w, v in zip(wb, cb)) / sum(wb)
        seg_cells = _cells_along_segment(c, frame_np, pa, pb, step)
        if seg_cells is None:
            continue
        if not any(seg_cells <= cc for cc in chart_cells):
            failures.append({
                "segment": [[float(x) for x in pa], [float(x) for x in pb]],
                "cells": [[c.vertices[v] for v in t] for t in sorted(seg_cells)]})
    compat = []
    for i, j in itertools.combinations(range(len(atlas)), 2):
        shared = sorted({v for t in (chart_cells[i] & chart_cells[j]) for v in t})
        if len(shared) < 3:
            continue
        A = np.array([atlas[i].coords[v] for v in shared], dtype=float)
        B = np.array([atlas[j].coords[v] for v in shared], dtype=float)
        motion = _rigid_fit(A, B)
        compat.append({"charts": [atlas[i].name, atlas[j].name],
                       "rigid": motion is not None,
                       "matrix": None if motion is None else motion[0].tolist(),
                       "translation": None if motion is None else motion[1].tolist()})
    ok = not failures and all(x["rigid"] for x in compat)
    return {"ok": ok, "uncovered_segments": failures, "compatibility": compat,
            "samples": n_samples}


def _cells_along_segment(c, frame_np, pa, pb, step):
    import numpy as np
    d = pb - pa
    ln = float(np.linalg.norm(d))
    if ln < 1e-12:
        return None
    k = max(2, int(ln / step) + 1)
    out = set()
    for i in range(k + 1):
        p = pa + d * (i / k)
        holders = _containing_cells(c, frame_np, p)
        if not holders:
            return None     # left the window; skip this sample
        out.add(min(holders))
    return out


def _containing_cells(c, frame_np, p):
    import numpy as np
    eps = 1e-9
    out = []
    for t in c.top_cells:
        a, b, d3 = (frame_np[v] for v in t)
        M = np.array([b - a, d3 - a]).T
        try:
            lam = np.linalg.solve(M, p - a)
        except np.linalg.LinAlgError:
            continue
        l1, l2 = float(lam[0]), float(lam[1])
        if l1 >= -eps and l2 >= -eps and l1 + l2 <= 1 + eps:
            out.append(t)
    return out


def _rigid_fit(A, B):
    """Least-squares rigid motion g with g(A) = B, or None if not isometric."""
    import numpy as np
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    H = (A - ca).T @ (B - cb)
    U, s, Vt = np.linalg.svd(H)
    R = (U @ Vt).T
    if np.linalg.det(R) < 0 and min(s) < 1e-12:
        R = (U @ np.diag([1, -1]) @ Vt).T
    t = cb - R @ ca
    resid = float(np.abs((A @ R.T + t) - B).max())
    if resid > 1e-6:
        # allow the reflection branch
        R2 = (U @ np.diag([1, -1]) @ Vt).T
        t2 = cb - R2 @ ca
        resid2 = float(np.abs((A @ R2.T + t2) - B).max())
        if resid2 < resid:
            R, t, resid = R2, t2, resid2
    if resid > 1e-6:
        return None
    return R, t
