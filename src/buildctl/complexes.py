"""Finite piecewise spherical/Euclidean simplicial complexes.

A complex is given by its top-dimensional cells (vertex index tuples) plus a
single edge -> length map; faces are the subset closure.  Shared faces
therefore inherit consistent lengths by construction, and conflicting length
declarations are recorded and reported by validation.

All operations treat complexes as immutable after construction, and the
caches depend on it: ``cofaces`` (each face -> the top cells containing it),
the corner-angle memo and kernel, the vertex-link memo and the local
certificate are filled once and never invalidated, so ``vertex_link(c, v)``
returns the same link object on every call and each distinct link is built,
validated and certified once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .angles import Angle, EPS_GRAM, PiUnits, cmp_units

SPHERICAL = "spherical"
EUCLIDEAN = "euclidean"

Edge = frozenset
Cell = tuple

if TYPE_CHECKING:
    import numpy as np


class ComplexError(ValueError):
    """Malformed input: bad indices, duplicate declarations, parse problems."""


class InvalidComplexError(ValueError):
    """A complex that failed validation was passed to a downstream operation."""


@dataclass(frozen=True)
class ValidationIssue:
    kind: str          # purity | gluing | shape | length_missing | length_range | connectivity
    where: tuple       # cell / edge / vertex names involved
    detail: str

    def to_json(self):
        return {"kind": self.kind, "where": list(self.where), "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]

    def to_json(self):
        return {"ok": self.ok, "issues": [i.to_json() for i in self.issues]}


class SimplexShape:
    """Metric data of one simplex: symmetric edge lengths over local vertices."""

    def __init__(self, dimension: int, geometry: str, lengths: Mapping[Edge, Angle]):
        self.dimension = dimension
        self.geometry = geometry
        self.lengths = dict(lengths)

    def length(self, i: int, j: int) -> Angle:
        return self.lengths[Edge((i, j))]

    def gram(self) -> np.ndarray:
        """Spherical Gram matrix G(i,j) = cos d(i,j), G(i,i) = 1."""
        import numpy as np
        n = self.dimension + 1
        G = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                G[i, j] = G[j, i] = math.cos(self.length(i, j).radians)
        return G

    def euclidean_gram(self) -> np.ndarray:
        """Gram matrix of edge vectors from vertex 0 (PD iff nondegenerate)."""
        import numpy as np
        n = self.dimension
        d2 = lambda i, j: self.length(i, j).radians ** 2 if i != j else 0.0
        G = np.empty((n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                G[i - 1, j - 1] = 0.5 * (d2(0, i) + d2(0, j) - d2(i, j))
        return G

    def min_gram_eigenvalue(self) -> float:
        """Least eigenvalue of the Gram matrix (spherical) or of the edge-vector
        Gram matrix (Euclidean).  A 1-simplex of length l has the closed forms
        1 - |cos l| (eigenvalues 1 +- cos l) and l**2 (a 1x1 matrix)."""
        if self.dimension == 1:
            (a,) = self.lengths.values()
            r = a.radians
            return 1.0 - abs(math.cos(r)) if self.geometry == SPHERICAL else r ** 2
        import numpy as np
        m = self.gram() if self.geometry == SPHERICAL else self.euclidean_gram()
        return float(np.linalg.eigvalsh(m)[0])

    def realizable(self, eps: float = EPS_GRAM) -> tuple[bool, str]:
        if self.dimension == 0:
            return True, ""
        if self.geometry == SPHERICAL:
            for e, a in self.lengths.items():
                if cmp_units(a.pi_units, Fraction(1)) > 0:
                    return False, f"spherical edge length {a} exceeds pi"
        w0 = self.min_gram_eigenvalue()
        if w0 <= eps:
            kind = "Gram" if self.geometry == SPHERICAL else "Cayley-Menger"
            return False, f"{kind} matrix not positive definite (min eigenvalue {w0:.3e})"
        return True, ""


class MetricComplex:
    """A pure n-dimensional piecewise spherical or Euclidean simplicial complex."""

    def __init__(
        self,
        geometry: str,
        vertices: Sequence[str],
        top_cells: Iterable[Sequence[int]],
        lengths: Iterable[tuple[int, int, Angle]] = (),
        dimension: int | None = None,
        allow_disconnected: bool = False,
        provenance: str | None = None,
    ):
        if geometry not in (SPHERICAL, EUCLIDEAN):
            raise ComplexError(f"unknown geometry {geometry!r}")
        names = tuple(vertices)
        if len(set(names)) != len(names):
            raise ComplexError("duplicate vertex names")
        cells = []
        for c in top_cells:
            t = tuple(sorted(int(i) for i in c))
            if len(set(t)) != len(t):
                raise ComplexError(f"repeated vertex in cell {c}")
            if t and (t[0] < 0 or t[-1] >= len(names)):
                raise ComplexError(f"vertex index out of range in cell {c}")
            if not t:
                raise ComplexError("empty cell")
            cells.append(t)
        self.geometry = geometry
        self.vertices = names
        self.top_cells = tuple(sorted(set(cells)))
        if dimension is None:
            dimension = max((len(c) - 1 for c in self.top_cells), default=-1)
        self.dimension = dimension
        self.allow_disconnected = allow_disconnected
        self.provenance = provenance
        self.lengths: dict[Edge, Angle] = {}
        self.length_conflicts: list[tuple[Edge, Angle, Angle]] = []
        self._corner_angles: dict[tuple[int, int, int], Angle] = {}   # _vertex_angle
        self._vertex_links: dict[int, MetricComplex] = {}              # vertex_link
        self._certificate = None                                       # recognizer._certify
        for i, j, a in lengths:
            if i == j:
                raise ComplexError(f"self-edge length ({i},{i})")
            if not (0 <= i < len(names) and 0 <= j < len(names)):
                raise ComplexError(f"edge ({i},{j}) out of range")
            e = Edge((int(i), int(j)))
            old = self.lengths.get(e)
            if old is None:
                self.lengths[e] = a
            elif not old.equals(a):
                self.length_conflicts.append((e, old, a))

    # -- derived structure -------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Cell, ...]:
        es = set()
        for c in self.top_cells:
            es.update(itertools.combinations(c, 2))
        return tuple(sorted(es))

    @cached_property
    def cofaces(self) -> dict[Cell, tuple[Cell, ...]]:
        """Every face (a sorted vertex tuple) -> the top cells containing it,
        in ``top_cells`` order."""
        out: dict[Cell, list] = {}
        for c in self.top_cells:
            for k in range(1, len(c) + 1):
                for f in itertools.combinations(c, k):
                    out.setdefault(f, []).append(c)
        return {f: tuple(v) for f, v in out.items()}

    @cached_property
    def cells_by_dim(self) -> dict[int, tuple[Cell, ...]]:
        out: dict[int, list] = {}
        for f in self.cofaces:
            out.setdefault(len(f) - 1, []).append(f)
        return {k: tuple(sorted(v)) for k, v in sorted(out.items())}

    def all_cells(self) -> list[Cell]:
        return [c for k in sorted(self.cells_by_dim) for c in self.cells_by_dim[k]]

    def edge_length(self, i: int, j: int) -> Angle:
        return self.lengths[Edge((i, j))]

    def vertex_index(self, v) -> int:
        if isinstance(v, str):
            try:
                return self.vertices.index(v)
            except ValueError:
                raise ComplexError(f"no vertex named {v!r}") from None
        i = int(v)
        if not (0 <= i < len(self.vertices)):
            raise ComplexError(f"vertex index {i} out of range")
        return i

    def shape_of(self, cell: Sequence[int]) -> SimplexShape:
        t = tuple(sorted(cell))
        lengths = {}
        for i, j in itertools.combinations(range(len(t)), 2):
            lengths[Edge((i, j))] = self.edge_length(t[i], t[j])
        return SimplexShape(len(t) - 1, self.geometry, lengths)

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        issues: list[ValidationIssue] = []
        name = lambda i: self.vertices[i]
        for c in self.top_cells:
            if len(c) - 1 != self.dimension:
                issues.append(ValidationIssue(
                    "purity", tuple(name(i) for i in c),
                    f"top cell has dimension {len(c)-1}, complex has dimension {self.dimension}"))
        covered = {v for c in self.top_cells for v in c}
        for i in range(len(self.vertices)):
            if i not in covered:
                issues.append(ValidationIssue("purity", (name(i),), "vertex lies in no top cell"))
        for e, a, b in self.length_conflicts:
            i, j = sorted(e)
            issues.append(ValidationIssue(
                "gluing", (name(i), name(j)), f"edge declared with lengths {a} and {b}"))
        missing = [e for e in self.edges if Edge(e) not in self.lengths]
        for e in missing:
            issues.append(ValidationIssue(
                "length_missing", tuple(name(i) for i in e), "edge has no declared length"))
        if not missing and not self.length_conflicts:
            for c in self.top_cells:
                if len(c) - 1 != self.dimension:
                    continue
                ok, why = self.shape_of(c).realizable()
                if not ok:
                    issues.append(ValidationIssue("shape", tuple(name(i) for i in c), why))
        if self.dimension >= 1 and not self.allow_disconnected and not self._skeleton_connected():
            issues.append(ValidationIssue("connectivity", (), "complex is not connected"))
        return ValidationReport(not issues, tuple(issues))

    def _skeleton_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def require_valid(self):
        rep = self.validation
        if not rep.ok:
            raise InvalidComplexError(
                "; ".join(f"{i.kind} at {i.where}: {i.detail}" for i in rep.issues))
        return self

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.geometry,
            "dimension": self.dimension,
            "vertices": list(self.vertices),
            "top_cells": [list(c) for c in self.top_cells],
            "edge_lengths": [
                {"edge": [i, j], **self.lengths[Edge((i, j))].to_json()}
                for i, j in sorted(tuple(sorted(e)) for e in self.lengths)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def __repr__(self):
        return (f"MetricComplex({self.geometry}, dim={self.dimension}, "
                f"|V|={len(self.vertices)}, |top|={len(self.top_cells)})")


def validate(c: MetricComplex) -> ValidationReport:
    """Structural report: purity, gluing consistency, per-cell realizability."""
    return c.validation


def _json_int(v) -> int:
    """A JSON integer (not a bool, not a float with an integral value)."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def parse_json_dict(obj: dict) -> MetricComplex:
    try:
        geometry = obj["geometry"]
        dimension = _json_int(obj["dimension"])
        vertices = [str(v) for v in obj["vertices"]]
        top_cells = [tuple(_json_int(i) for i in c) for c in obj["top_cells"]]
        records = obj.get("edge_lengths", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed complex record: {exc}") from exc
    if not isinstance(records, list):
        raise ComplexError(f"malformed complex record: edge_lengths must be a list, "
                           f"got {records!r}")
    default = obj.get("default_length")
    seen: set[Edge] = set()
    lengths: list[tuple[int, int, Angle]] = []
    for rec in records:
        try:
            i, j = (_json_int(v) for v in rec["edge"])
            a = Angle.from_json(rec)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ComplexError(f"malformed edge length record {rec!r}: {exc}") from exc
        e = Edge((i, j))
        if e in seen:
            raise ComplexError(f"ambiguous input: edge {sorted(e)} declared twice")
        seen.add(e)
        lengths.append((i, j, a))
    c = MetricComplex(geometry, vertices, top_cells, lengths, dimension=dimension)
    missing = [e for e in c.edges if Edge(e) not in c.lengths]
    if missing:
        if default is None:
            raise ComplexError(
                f"ambiguous input: {len(missing)} edges lack lengths and no default_length given")
        try:
            d = Angle.from_json(default)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ComplexError(f"malformed default_length {default!r}: {exc}") from exc
        lengths.extend((i, j, d) for i, j in missing)
        c = MetricComplex(geometry, vertices, top_cells, lengths, dimension=dimension)
    return c


def loads(text: str) -> MetricComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ComplexError("top-level JSON value must be an object")
    return parse_json_dict(obj)


def load_path(path) -> MetricComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- links ---------------------------------------------------------------


def _vertex_angle(c: MetricComplex, v: int, u: int, w: int) -> Angle:
    """Angle at v in the triangle (v,u,w), by the law of cosines.

    Cached on ``c`` under (v, min(u, w), max(u, w)): the formula is symmetric
    in u and w (bit for bit) and lengths never change after construction.
    """
    key = (v, u, w) if u < w else (v, w, u)
    ang = c._corner_angles.get(key)
    if ang is not None:
        return ang
    a = c.edge_length(v, u).radians
    b = c.edge_length(v, w).radians
    opp = c.edge_length(u, w).radians
    if c.geometry == SPHERICAL:
        cosang = (math.cos(opp) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))
    else:
        cosang = (a * a + b * b - opp * opp) / (2.0 * a * b)
    ang = Angle.from_radians(math.acos(max(-1.0, min(1.0, cosang))))
    c._corner_angles[key] = ang
    return ang


def vertex_link(c: MetricComplex, v) -> MetricComplex:
    """The link of a vertex: unit tangent directions, a spherical complex of
    dimension n-1 whose edge lengths are the vertex angles of incident cells.

    Memoized on ``c`` by vertex index: a later call returns the same object,
    so the link's own caches (validation, faces, its vertex links) are shared.
    """
    c.require_valid()
    vi = c.vertex_index(v)
    link = c._vertex_links.get(vi)
    if link is not None:
        return link
    stars = c.cofaces.get((vi,), ())
    neighbors = sorted({u for cell in stars for u in cell if u != vi})
    index = {u: k for k, u in enumerate(neighbors)}
    names = [c.vertices[u] for u in neighbors]
    cells = [tuple(sorted(index[u] for u in cell if u != vi)) for cell in stars]
    lengths = {}
    for cell in stars:
        for u, w in itertools.combinations([u for u in cell if u != vi], 2):
            if (u, w) not in lengths:
                lengths[u, w] = (index[u], index[w], _vertex_angle(c, vi, u, w))
    link = MetricComplex(SPHERICAL, names, cells, lengths.values(), allow_disconnected=True)
    c._vertex_links[vi] = link
    return link


def cell_link(c: MetricComplex, cell) -> MetricComplex:
    """Link of a cell, by iterated vertex links (directions orthogonal to it)."""
    c.require_valid()
    idxs = [c.vertex_index(v) for v in cell]
    t = tuple(sorted(idxs))
    if t not in c.cofaces:
        raise ComplexError(f"{cell!r} is not a cell of the complex")
    if len(t) - 1 >= c.dimension:
        raise ComplexError("cell is top-dimensional; its link is empty")
    names = [c.vertices[i] for i in t]
    out = c
    for nm in names:
        out = vertex_link(out, nm)
    return out


# -- joins ----------------------------------------------------------------


def discrete_complex(names: Sequence[str]) -> MetricComplex:
    """A finite discrete set as a 0-dimensional spherical complex."""
    return MetricComplex(SPHERICAL, list(names), [(i,) for i in range(len(names))],
                         allow_disconnected=True, provenance="discrete")


def s0(names: tuple[str, str] = ("N", "S")) -> MetricComplex:
    return discrete_complex(list(names))


def orthogonal_join(a: MetricComplex, b: MetricComplex) -> MetricComplex:
    """Simplicial join with all cross-factor edges of length pi/2."""
    if a.geometry != SPHERICAL or b.geometry != SPHERICAL:
        raise ComplexError("orthogonal join requires spherical operands")
    if not a.top_cells or not b.top_cells:
        raise ComplexError("orthogonal join of an empty complex")
    a.require_valid()
    b.require_valid()
    if set(a.vertices) & set(b.vertices):
        raise ComplexError("operands share vertex names; rename before joining")
    names = list(a.vertices) + list(b.vertices)
    off = len(a.vertices)
    cells = [tuple(ca) + tuple(off + i for i in cb)
             for ca in a.top_cells for cb in b.top_cells]
    right = Angle.exact(1, 2)
    lengths = [(i, j, a.lengths[Edge((i, j))]) for i, j in a.edges]
    lengths += [(off + i, off + j, b.lengths[Edge((i, j))]) for i, j in b.edges]
    lengths += [(i, off + j, right)
                for i in range(len(a.vertices)) for j in range(len(b.vertices))]
    prov = None
    if a.provenance and b.provenance:
        prov = f"orthogonal_join({a.provenance},{b.provenance})"
    return MetricComplex(SPHERICAL, names, cells, lengths, provenance=prov)


def suspension(a: MetricComplex) -> MetricComplex:
    """Join with S^0; pole names avoid collisions deterministically."""
    poles = ("N", "S")
    k = 0
    while set(poles) & set(a.vertices):
        poles = (f"N{k}", f"S{k}")
        k += 1
    return orthogonal_join(s0(poles), a)


def as_graph_data(c: MetricComplex) -> tuple[tuple[str, ...], list[tuple[int, int, PiUnits]]]:
    """Vertices and weighted edges of a 1-dimensional complex, in pi units."""
    if c.dimension > 1:
        raise ComplexError(f"complex has dimension {c.dimension}, expected <= 1")
    c.require_valid()
    edges = [(i, j, c.edge_length(i, j).pi_units) for i, j in c.edges]
    return c.vertices, edges
