"""Recognition of building structure: certificates and pinpointed diagnoses.

Dimension 1 is the decidable base: after suppressing valence-2 vertices a
connected graph is a thick rank-2 building, a suspension of a discrete set,
or a single 2*pi circuit, provided it passes the systole (CAT(1)), diameter,
valence, and uniform-length gates; the first failed gate comes back as a
Diagnosis with a concrete witness.  Higher dimensions recurse through cell
links and assemble the Coxeter matrix from panel angles.

Recognition has two layers.  The local certificate (``_certify``) runs the
gates, the link recursion, the Coxeter matrix and the verdict; it is
memoized on the complex and is what every link certificate holds.  The
public functions add the apartment system on top: the 2*pi cycles in
dimension 1, the whole complex when it is a thin sphere, and otherwise the
convex hulls of opposite chambers (two chambers at gallery distance l(w0)
lie in exactly one apartment, the chambers on their minimal galleries).
The apartment axioms are checked exactly, never by sampling: axiom (2) over
every pair of chambers (any two cells lie in chambers) with each apartment
an int bitmask of its chambers, and in dimension 1 axiom (3) over every
pair of cycles that share an edge.  Global CAT(1) in dimension 2 is never
guessed: certificates carry an explicit unverified flag unless the
complex was produced by a curvature-preserving construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .angles import PiUnits, cmp_units, kernel_band, units_close
from .complexes import (EUCLIDEAN, SPHERICAL, ComplexError, MetricComplex,
                        cell_link, vertex_link)
from .coxeter import (CoxeterComplexModel, CoxeterMatrix, cosine_verdicts,
                      coxeter_complex, dihedral)
from .decompose import (euclidean_factor_hint, find_suspension_poles,
                        most_singular_vertex)
from .homotopy import NONTRIVIAL, UNKNOWN, simple_connectivity
from .metric_graph import Circle, GraphPoint, MetricGraph

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
DEP_EMPTY = "dep_empty"
DEP_NOT_DISCRETE = "dep_not_discrete"
NOT_SIMPLY_CONNECTED = "not_simply_connected"
UNKNOWN_PI1 = "unknown_pi1"
NO_COMMON_APARTMENT = "no_common_apartment"

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


@dataclass(frozen=True)
class Apartment:
    """A recognized apartment: a 2*pi cycle (dim 1) or a sphere subcomplex."""

    kind: str                           # cycle | sphere
    edges: tuple[int, ...] = ()         # dim 1: edge ids of the graph
    vertices: tuple[int, ...] = ()      # dim 1: vertex cycle / dim >= 2: vertex set
    cells: tuple[tuple, ...] = ()       # dim >= 2: top cells

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


def recognize_dim1(g, budget: int = B_APT_DEFAULT) -> BuildingCertificate | Diagnosis:
    """The 1-dimensional dichotomy: thick rank-2 building or suspension.

    Gates, in order: connectivity; valence >= 3 after valence-2 suppression;
    systole >= 2*pi; diameter = pi; uniform edge length pi/m.  m = 1 yields
    the suspension verdict, m >= 2 the thick verdict with its apartment
    system.  A single 2*pi circuit is the thin (Coxeter complex) case.
    """
    dim1 = isinstance(g, MetricComplex) and g.dimension == 1
    return _with_apartments(g, _certify(g) if dim1 else _certify_graph(g), budget)


def _certify_graph(g) -> BuildingCertificate | Diagnosis:
    """The gates of recognize_dim1, without the apartment system."""
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
    if sup.diameter_cmp(ONE) != 0:
        diam, wit = sup.diameter()
        return Diagnosis(DIAMETER, {
            "diameter_pi_units": float(diam),
            "witness": [sup.point_name(wit[0]), sup.point_name(wit[1])] if wit else None})
    m = _uniform_m(sup)
    if isinstance(m, Diagnosis):
        return m
    if m == 1:
        poles = tuple(sup.vertices)
        return BuildingCertificate(
            SPHERICAL, 1, SUSPENSION, coxeter_matrix=None, m=1,
            apartments_exhaustive=False, thickness=2, poles=poles,
            base_size=len(sup.edges), flags=(FLAG_SAMPLED,), graph=graph)
    return BuildingCertificate(
        SPHERICAL, 1, THICK, coxeter_matrix=dihedral(m), m=m,
        apartments_exhaustive=False,
        thickness=min(sup.valence(v) for v in range(len(sup.vertices))),
        flags=(FLAG_SAMPLED,), graph=graph)


def _recognize_circle(graph: MetricGraph, circ: Circle) -> BuildingCertificate | Diagnosis:
    c = circ.circumference
    side = cmp_units(c, TWO)
    if side < 0:
        return Diagnosis(SYSTOLE, {"cycle": list(circ.vertex_names),
                                   "length_pi_units": float(c)})
    if side > 0:
        return Diagnosis(DIAMETER, {"diameter_pi_units": float(c) / 2.0})
    l0 = graph.edges[0][2]
    uniform = all(cmp_units(l0, ln) == 0 for _, _, ln in graph.edges)
    m = _length_to_m(l0) if uniform else None
    cyc_edges, cyc_verts = _walk_circle(graph)
    whole = Apartment("cycle", edges=cyc_edges, vertices=cyc_verts)
    return BuildingCertificate(
        SPHERICAL, 1, THIN, coxeter_matrix=None if m is None else dihedral(max(m, 2)),
        m=m, apartments=(whole,), apartments_exhaustive=True, thickness=2,
        graph=graph)


def _walk_circle(graph: MetricGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic edge/vertex order of an all-valence-2 connected graph."""
    edges, verts = [], [0]
    while True:
        w, eid = next((w, eid) for w, eid, _ in graph.adjacency[verts[-1]]
                      if eid not in edges)
        edges.append(eid)
        if w == 0:
            return tuple(edges), tuple(verts)
        verts.append(w)


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


def enumerate_apartments_dim1(g: MetricGraph, m: int | None = None,
                              budget: int = B_APT_DEFAULT
                              ) -> tuple[tuple[Apartment, ...], bool]:
    """All injective cycles of total length exactly 2*pi, by bounded DFS.

    Works on the given (possibly subdivided) graph; with uniform lengths
    pi/m these are exactly the 2m-edge circuits.  Lengths are summed in
    ``MetricGraph._kernel`` units and compared with the band of 2*pi
    (``kernel_band``): exactly on exact graphs, under ``cmp_units`` on float
    graphs.  The budget counts paths popped."""
    scale, table, adj = g._kernel
    lo, hi = kernel_band(TWO, scale)
    found: dict[frozenset, Apartment] = {}
    nodes = 0
    exhausted = False
    for e0, (u0, v0, _) in enumerate(g.edges):
        stack = [([e0], [u0, v0], table[e0])]
        while stack:
            nodes += 1
            if nodes > budget:
                exhausted = True
                break
            eids, verts, ln = stack.pop()
            last = verts[-1]
            side = (ln > hi) - (ln < lo)
            if last == u0 and len(eids) >= 2:
                if side == 0:
                    key = frozenset(eids)
                    if key not in found:
                        found[key] = Apartment("cycle", edges=tuple(eids),
                                               vertices=tuple(verts[:-1]))
                continue
            if side > 0:
                continue
            for w, eid, wl in adj[last]:
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


def _uncovered_chamber_pair(chambers: Sequence, apartments: Sequence[Sequence]
                            ) -> tuple[int, int] | None:
    """Axiom (2), exactly, on chambers: the first index pair (i, j), i <= j,
    of chambers that no apartment contains both of, or None.

    ``apartments`` lists the chambers of each apartment.  Any two cells lie
    in chambers, and an apartment containing both chambers contains both
    cells, so chamber pairs decide the axiom.  Each apartment is an int
    bitmask of its chambers; a chamber's cover is the OR of the masks of the
    apartments through it, and a bit missing from it names the witness.
    """
    index = {ch: k for k, ch in enumerate(chambers)}
    cover = [0] * len(chambers)
    for apt in apartments:
        mask = 0
        for ch in apt:
            mask |= 1 << index[ch]
        for ch in apt:
            cover[index[ch]] |= mask
    full = (1 << len(chambers)) - 1
    for i, got in enumerate(cover):
        if got != full:
            missing = full & ~got
            return i, (missing & -missing).bit_length() - 1
    return None


def _disconnected_apartment_pair(apartments: Sequence[Apartment]
                                 ) -> tuple[int, int] | None:
    """Axiom (3) for cycle apartments: the first index pair of apartments
    that share an edge and meet disconnectedly, or None.

    Two distinct cycles meet in a linear forest, so their intersection is
    connected exactly when |V_a & V_b| - |E_a & E_b| = 1.  Only the pairs
    that share an edge are tested: for each i, the j > i found through the
    apartments of i's edges, in increasing order.
    """
    vmask = [sum(1 << v for v in a.vertices) for a in apartments]
    emask = [sum(1 << e for e in a.edges) for a in apartments]
    through: dict[int, list[int]] = {}      # edge -> the apartments on it
    for k, a in enumerate(apartments):
        for e in a.edges:
            through.setdefault(e, []).append(k)
    for i, a in enumerate(apartments):
        vi, ei = vmask[i], emask[i]
        for j in sorted({j for e in a.edges for j in through[e] if j > i}):
            if (vi & vmask[j]).bit_count() - (ei & emask[j]).bit_count() != 1:
                return i, j
    return None


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
            others = [t for t in a.cofaces[panel] if t != cur]
            if len(others) != 1:
                continue
            nxt = others[0]
            if nxt in mapped:
                continue
            v_new = next(v for v in nxt if v not in panel)
            img_panel = tuple(sorted(vmap[v] for v in panel))
            b_nbrs = [t for t in b.cofaces.get(img_panel, ()) if t != img]
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


# -- spherical recognition, dimension >= 2 --------------------------------------------


def check_spherical(c: MetricComplex, budget: int = B_APT_DEFAULT
                    ) -> BuildingCertificate | Diagnosis:
    """Certify a spherical complex as a building, or diagnose the failure.

    Dimension 1 runs the gates of recognize_dim1.  Dimension >= 2 verifies
    the codimension-1 counts, recursively certifies cell links, assembles the
    Coxeter matrix from panel angles, and enumerates apartments as the
    convex hulls of opposite chambers in the chamber graph, with l(w0) and
    |W| read off the model Coxeter complex.  Global CAT(1) is decided only
    for by-construction inputs or through the simple-connectivity pathway
    in dimension >= 3.

    When the apartment search is exhaustive and two chambers lie in no
    common apartment, the result is a ``no_common_apartment`` diagnosis
    naming them; an incomplete search flags ``apartment_axiom2_unverified``
    instead.
    """
    if c.geometry != SPHERICAL:
        raise ComplexError("check_spherical needs a spherical complex")
    return _with_apartments(c, _certify(c), budget)


def _certify(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    """The local certificate of c, memoized in one slot on c (it reads no
    budget): everything but the apartment search, so it is flagged
    ``apartments_sampled`` unless complete by construction (a discrete set,
    a single 2*pi circuit)."""
    if c._certificate is None:
        c._certificate = _local_certificate(c)
    return c._certificate


def _local_certificate(c: MetricComplex) -> BuildingCertificate | Diagnosis:
    c.require_valid()
    n = c.dimension
    if n <= 0:
        return _check_dim0(c)
    if n == 1:
        return _certify_graph(c)
    if not c._skeleton_connected():
        return Diagnosis(NOT_CONNECTED, {"detail": "complex is not connected"})
    # codimension-1 cell counts
    panel_counts = set()
    for panel in c.cells_by_dim.get(n - 1, ()):
        k = len(c.cofaces[panel])
        if k < 2:
            return Diagnosis(CODIM1, {
                "cell": [c.vertices[i] for i in panel], "top_cells": k})
        panel_counts.add(k)
    thickness = min(panel_counts, default=None)
    # (n-2)-cell links are graphs; deeper structure recurses through vertices
    cells = c.cells_by_dim.get(n - 2, ())
    if n >= 3:
        cells += c.cells_by_dim[0]
    link_certs = _certify_links(c, cells)
    if isinstance(link_certs, Diagnosis):
        return link_certs
    types = _vertex_types(c)
    if types is None:
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": "vertices admit no consistent type coloring"})
    M = _assemble_coxeter(c, types, link_certs)
    if isinstance(M, Diagnosis):
        return M
    form = cosine_verdicts(M)[2]
    if form != "spherical":
        return Diagnosis(EDGE_LENGTH_NONUNIFORM, {
            "detail": f"assembled Coxeter matrix is {form}, not spherical",
            "matrix": M.to_json_dict()})
    poles = find_suspension_poles(c)
    flags = [FLAG_SAMPLED]
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
        SPHERICAL, n, verdict, coxeter_matrix=M, apartments_exhaustive=False,
        thickness=thickness, vertex_types=types, link_certificates=link_certs)
    if verdict == SUSPENSION:
        cert.poles = (c.vertices[poles[0]], c.vertices[poles[1]])
        cert.base_size = len(c.vertices) - 2
    # global curvature
    if c.provenance is not None:
        pass   # by-construction CAT(1)
    elif n >= 3:
        pi1 = simple_connectivity(c)
        if pi1.status == NONTRIVIAL:
            return Diagnosis(NOT_SIMPLY_CONNECTED, {"loop": pi1.witness_loop})
        if pi1.status == UNKNOWN:
            flags.append(FLAG_GLOBAL_UNVERIFIED + ":" + UNKNOWN_PI1)
        elif any(f.startswith(FLAG_GLOBAL_UNVERIFIED)
                 for _, sub in link_certs.values() for f in sub.flags):
            flags.append(FLAG_GLOBAL_UNVERIFIED)
    else:
        flags.append(FLAG_GLOBAL_UNVERIFIED)
    cert.flags = tuple(sorted(set(flags)))
    return cert


def _certify_links(c: MetricComplex, cells) -> dict | Diagnosis:
    """Every cell's link, certified locally: {cell: (link, certificate)}, or
    a link_failure diagnosis at the first cell whose link fails."""
    out = {}
    for cell in cells:
        names = [c.vertices[i] for i in cell]
        L = cell_link(c, names)
        res = _certify(L)
        if isinstance(res, Diagnosis):
            return Diagnosis(LINK_FAILURE, {"cell": names}, inner=res)
        out[cell] = (L, res)
    return out


def _with_apartments(c, cert, budget: int) -> BuildingCertificate | Diagnosis:
    """A copy of the local certificate with its apartment system: the 2*pi
    cycles and both cycle axioms in dimension 1, else the whole thin sphere
    or the convex hulls of opposite chambers, then axiom (2) and the
    isometry to the model.  The memoized certificate is never changed."""
    if isinstance(cert, Diagnosis):
        return cert
    if cert.apartments_exhaustive:      # complete by construction
        return replace(cert)
    flags = set(cert.flags) - {FLAG_SAMPLED}
    n = cert.dimension
    model = None
    if n == 1:
        found, exhaustive = enumerate_apartments_dim1(cert.graph, cert.m, budget=budget)
        # the gates prove a generalized m-gon, so a failed axiom is our fault
        pair = _uncovered_chamber_pair(
            range(len(cert.graph.edges)), [a.edges for a in found]) if exhaustive else None
        if pair is not None:
            raise IntegrityError("edges %d and %d lie in no common apartment" % pair)
        pair = _disconnected_apartment_pair(found)
        if pair is not None:
            raise IntegrityError("apartments %d and %d intersect disconnectedly" % pair)
    else:
        model = coxeter_complex(cert.coxeter_matrix)
        # a thin quotient such as RP^2 (Euler characteristic 1) goes on to
        # the hull search instead of failing the isometry check
        if cert.verdict == THIN and (
                n != 2 or len(c.vertices) - len(c.edges) + len(c.top_cells) == 2):
            whole = Apartment("sphere", cells=tuple(sorted(c.top_cells)),
                              vertices=tuple(range(len(c.vertices))))
            found, exhaustive = (whole,), True
        else:
            found, exhaustive = _hull_apartments(c, model, budget)
        pair = _uncovered_chamber_pair(c.top_cells, [a.cells for a in found])
        if pair is not None and exhaustive:
            return Diagnosis(NO_COMMON_APARTMENT, {"chambers": [
                [c.vertices[v] for v in c.top_cells[k]] for k in pair]})
        if pair is not None:
            flags.add(FLAG_AXIOM2_UNVERIFIED)
    if not exhaustive:
        flags.add(FLAG_SAMPLED)
    out = replace(cert, apartments=found, apartments_exhaustive=exhaustive,
                  flags=tuple(sorted(flags)))
    _verify_apartment_isometry(c, out, model)
    return out


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
                for nb in c.cofaces[panel]:
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
        if len(cell) != n - 1:
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


def _hull_apartments(c: MetricComplex, model: CoxeterComplexModel, budget: int
                     ) -> tuple[tuple[Apartment, ...], bool]:
    """The apartments of c as convex hulls of opposite chambers.

    In a spherical building two chambers at gallery distance l(w0) lie in
    exactly one apartment, the chambers on their minimal galleries
    {E : d(C,E) + d(E,D) = l(w0)}, and every apartment through C holds a
    chamber opposite C (Abramenko-Brown, Buildings, ch. 4), so the hulls of
    opposite pairs are the whole apartment system.  l(w0) and |W| are read
    off the model: its elements come in length order, the longest last.

    The chamber graph joins the cofaces of each panel; one breadth-first
    search per chamber, cut at depth l(w0), gives its distance layers as
    chamber bitmasks.  A hull of other than |W| chambers is no apartment
    and is not kept; a pair already inside a kept hull is not evaluated
    again.  The budget counts hulls evaluated, and the search is
    exhaustive when none was cut off."""
    chambers = c.top_cells
    index = {t: k for k, t in enumerate(chambers)}
    nbrs = []
    for t in chambers:
        mask = 0
        for panel in itertools.combinations(t, c.dimension):
            for u in c.cofaces[panel]:
                mask |= 1 << index[u]
        nbrs.append(mask & ~(1 << index[t]))
    top = len(model.elements[-1].word)
    order = len(model.elements)
    layers = [_distance_layers(nbrs, k, top) for k in range(len(chambers))]
    cover = [0] * len(chambers)
    hulls = []
    evaluated = 0
    exhaustive = True
    for i, li in enumerate(layers):
        todo = li[top] >> (i + 1) << (i + 1)
        while todo := todo & ~cover[i]:
            j = (todo & -todo).bit_length() - 1
            todo ^= 1 << j
            if evaluated == budget:
                exhaustive = False
                break
            evaluated += 1
            lj = layers[j]
            hull = 0
            for d in range(top + 1):
                hull |= li[d] & lj[top - d]
            if hull.bit_count() != order:
                continue
            hulls.append(hull)
            for k in _bits(hull):
                cover[k] |= hull
        if not exhaustive:
            break
    found = []
    for hull in hulls:
        cells = tuple(sorted(chambers[k] for k in _bits(hull)))
        found.append(Apartment("sphere", cells=cells,
                               vertices=tuple(sorted({v for t in cells for v in t}))))
    return tuple(sorted(found, key=lambda a: a.key())), exhaustive


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


def _verify_apartment_isometry(c: MetricComplex, cert: BuildingCertificate,
                               model: CoxeterComplexModel | None):
    """Certificate soundness: every apartment matches the model Coxeter complex."""
    if cert.dimension < 2 or cert.coxeter_matrix is None or not cert.apartments:
        return
    for a in cert.apartments:
        sub = _subcomplex(c, a.cells)
        if not thin_isomorphic(sub, model.complex):
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

    For n = 1 the graph is its own space of directions at each vertex; for
    n = 2 each vertex link is, and it must be connected.  The edge-interior
    directions of n = 2 have suspension links, where the antipode condition
    reduces to the incident-cell count being >= 2.
    """
    c.require_valid()
    if c.dimension == 1:
        spaces = [({}, "vertex", MetricGraph.from_complex(c))]
    elif c.dimension == 2:
        spaces = (({"vertex": c.vertices[vi]}, "direction",
                   MetricGraph.from_complex(vertex_link(c, vi)))
                  for vi in range(len(c.vertices)))
    else:
        raise ComplexError("discrete_extension_check handles dimensions 1 and 2")
    for at, key, g in spaces:
        if at and not g.is_connected():
            return False, {"condition": DEP_EMPTY, **at,
                           "detail": "link disconnected: whole components are antipodal"}
        for ui, name in enumerate(g.vertices):
            ant = g.antipode_set(GraphPoint(vertex=ui))
            if not ant.nonempty:
                return False, {"condition": DEP_EMPTY, **at, key: name}
            if not ant.discrete:
                eid, lo, hi = ant.intervals[0]
                return False, {"condition": DEP_NOT_DISCRETE, **at, key: name,
                               "interval": [float(lo), float(hi)]}
    if c.dimension == 2:
        for edge in c.cells_by_dim[1]:
            if len(c.cofaces[edge]) < 2:
                return False, {"condition": DEP_EMPTY,
                               "edge": [c.vertices[i] for i in edge],
                               "detail": "edge-interior directions have empty antipode sets"}
    return True, None


# -- Euclidean recognition ----------------------------------------------------------


def check_euclidean(c: MetricComplex, boundary_policy: str = "strict"
                    ) -> BuildingCertificate | Diagnosis:
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
                       if len(c.cofaces[p]) < 2]
    if boundary_policy == "strict" and boundary_panels:
        p = boundary_panels[0]
        return Diagnosis(CODIM1, {"cell": [c.vertices[i] for i in p],
                                  "top_cells": len(c.cofaces[p])})
    boundary_vertices = {v for p in boundary_panels for v in p}
    interior = [vi for vi in range(len(c.vertices)) if vi not in boundary_vertices]
    link_certs = _certify_links(c, [(vi,) for vi in interior])
    if isinstance(link_certs, Diagnosis):
        return link_certs
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
    counts = [len(c.cofaces[p]) for p in c.cells_by_dim.get(n - 1, ())]
    thickness = min((k for k in counts if k >= 2), default=None)
    factors = None
    if interior:
        vstar = most_singular_vertex(c, link_certs)
        factors = euclidean_factor_hint(c, c.vertices[vstar],
                                        link_certs[(vstar,)][1])
    return BuildingCertificate(
        EUCLIDEAN, n, verdict, thickness=thickness,
        apartments=(), apartments_exhaustive=False,
        factors=factors, link_certificates=link_certs, flags=tuple(sorted(flags)))


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


# loaded with the recognizer: perfbench/tracing.py patches it through
# sys.modules.  Imported last, because geodesics imports names defined above.
from . import geodesics  # noqa: E402,F401
