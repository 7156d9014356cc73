"""Finite piecewise spherical/Euclidean simplicial complexes.

A complex is given by its top-dimensional cells (vertex index tuples) plus a
single edge -> length map, keyed by the sorted index pair (i, j), i < j;
faces are the subset closure.  Shared faces therefore inherit consistent
lengths by construction, and conflicting length declarations are recorded
and reported by validation.

All operations treat complexes as immutable after construction, and the
caches depend on it; each is filled once and never invalidated:
- ``validation``, one pass over the top cells (purity, missing lengths and
  each simplex's lengths), the coverage read off the vertex stars.
- ``_radians``, each edge's length in radians: every corner angle is read
  off it.
- ``_incidence``, one pass over the top cells: each vertex's star and each
  panel's top cells, the only structural index of a complex.  Validation's
  coverage, ``chamber_graph``, ``_skeleton_connected``, ``vertex_link``
  outside dimension 2, ``cell_link``'s membership test, the recognizer's
  panel gate, ``check_euclidean``'s boundary panels and thickness, the
  suspension pole test and ``geodesics`` read it; a list of faces of one
  dimension is a sorted scan of the top cells' subsets.
- ``chamber_graph``, each top cell's neighbours across each of its panels:
  every gate of the axiom route and the vertex typing.
- ``_star_corners``, the star pass: one pass over the 2-faces that computes
  every corner angle and, in dimension 2, lists each vertex's link edges,
  from which ``vertex_link`` assembles a link when it is asked for.
- ``graph_class``, a graph's key up to vertex names: the recognizer shares
  one certificate, and ``most_singular_vertex`` one factor hint, per key.
  ``vertex_link`` fills it in for the graph links it assembles.
- the corner-angle memo and kernel, the vertex-link memo and, on a graph,
  the dimension-1 certificate, so ``vertex_link(c, v)`` returns the same
  link object on every call and each distinct link is built, validated and
  certified once.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .angles import Angle, EPS_GRAM, Frozen, PiUnits, cmp_units

SPHERICAL = "spherical"
EUCLIDEAN = "euclidean"

Cell = tuple


class ComplexError(ValueError):
    """Malformed input: bad indices, duplicate declarations, parse problems."""


class InvalidComplexError(ValueError):
    """A complex that failed validation was passed to a downstream operation."""


class ValidationIssue(Frozen):
    """``kind`` is purity | gluing | shape | length_missing | length_range |
    connectivity; ``where`` the cell / edge / vertex names involved."""

    __slots__ = ("kind", "where", "detail")

    def __init__(self, kind: str, where: tuple, detail: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "detail", detail)

    def to_json(self):
        return {"kind": self.kind, "where": list(self.where), "detail": self.detail}


class ValidationReport(Frozen):
    __slots__ = ("ok", "issues")

    def __init__(self, ok: bool, issues: tuple[ValidationIssue, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "issues", issues)

    def to_json(self):
        return {"ok": self.ok, "issues": [i.to_json() for i in self.issues]}


def _gram_matrix(geometry: str, radians: Sequence[float]) -> list[list[float]]:
    """The Gram matrix of a simplex (spherical) or the Gram matrix of its edge
    vectors from vertex 0 (Euclidean), from the edge radians in
    ``itertools.combinations(range(d + 1), 2)`` order."""
    n = round((1 + math.sqrt(1 + 8 * len(radians))) / 2)    # d + 1 vertices
    pairs = itertools.combinations(range(n), 2)
    if geometry == SPHERICAL:
        G = [[1.0] * n for _ in range(n)]
        for (i, j), r in zip(pairs, radians):
            G[i][j] = G[j][i] = math.cos(r)
        return G
    d2 = [[0.0] * n for _ in range(n)]
    for (i, j), r in zip(pairs, radians):
        d2[i][j] = d2[j][i] = r ** 2
    return [[0.5 * (d2[0][i] + d2[0][j] - d2[i][j]) for j in range(1, n)]
            for i in range(1, n)]


def least_gram_eigenvalues(geometry: str, simplices: Sequence[Sequence[Angle]]
                           ) -> list[float]:
    """The least eigenvalue of each simplex's Gram matrix (``_gram_matrix``).
    ``simplices`` hold the edge lengths of simplices of one dimension d >= 1,
    in ``itertools.combinations(range(d + 1), 2)`` order.  An edge of length
    l has the closed forms 1 - |cos l| (eigenvalues 1 +- cos l) and l**2 (a
    1x1 matrix); a higher simplex gets one ``linalg.symmetric_eigenvalues``
    call."""
    if not simplices:
        return []
    if len(simplices[0]) == 1:
        if geometry == SPHERICAL:
            return [1.0 - abs(math.cos(a.radians)) for (a,) in simplices]
        return [a.radians ** 2 for (a,) in simplices]
    from .linalg import symmetric_eigenvalues
    return [symmetric_eigenvalues(_gram_matrix(geometry, [a.radians for a in lengths]))[0]
            for lengths in simplices]


def realizability(geometry: str, simplices: Sequence[Sequence[Angle]],
                  eps: float = EPS_GRAM) -> list[tuple[bool, str]]:
    """(ok, why) for each simplex of one dimension, its edge lengths given as
    in ``least_gram_eigenvalues``: a spherical edge longer than pi fails
    first, the simplex's first such edge named, then a least Gram eigenvalue
    at most ``eps``.  An edge keeps its closed form.  Above dimension 1 each
    distinct ``Angle`` object is compared with pi once, however many
    simplices share it, and the simplices that reach the eigenvalue test are
    grouped by their tuple of edge radians, the only input to the Gram
    matrix, and each shape passes when G - (eps + margin) I has a Cholesky
    factor: lambda_min > eps exactly when G - eps I is positive definite,
    and the margin of 1e-12 times the largest diagonal entry exceeds the
    rounding of either algorithm, so a pass is one for the Jacobi
    eigenvalues too.
    Only the shapes that fail it get their least eigenvalue from
    ``least_gram_eigenvalues``, which decides them and names it."""
    out: list[tuple[bool, str] | None] = [None] * len(simplices)
    if geometry == SPHERICAL:
        pi = Fraction(1)
        too_long = lambda a: (False, f"spherical edge length {a} exceeds pi")
        if simplices and len(simplices[0]) > 1:
            # the simplices on an edge share its Angle: each object is compared
            # once (by id, as all stay alive in ``simplices``), and the
            # simplices are scanned only when one is longer than pi
            objects = {id(a): a for lengths in simplices for a in lengths}
            over = {i for i, a in objects.items() if cmp_units(a.pi_units, pi) > 0}
            for k, lengths in enumerate(simplices) if over else ():
                a = next((a for a in lengths if id(a) in over), None)
                if a is not None:
                    out[k] = too_long(a)
        else:
            for k, lengths in enumerate(simplices):
                for a in lengths:
                    if cmp_units(a.pi_units, pi) > 0:
                        out[k] = too_long(a)
                        break
    todo = [k for k, r in enumerate(out) if r is None and simplices[k]]
    if todo and len(simplices[todo[0]]) > 1:
        from . import linalg
        radians = Angle.radians.fget
        shapes = [tuple(map(radians, simplices[k])) for k in todo]
        one = dict(zip(shapes, (simplices[k] for k in todo)))

        def fails(shape):
            G = _gram_matrix(geometry, shape)
            margin = 1e-12 * max(G[i][i] for i in range(len(G)))
            return not linalg.positive_definite(G, eps + margin)

        failing = [shape for shape in one if fails(shape)]
        least = dict(zip(failing, least_gram_eigenvalues(geometry, [one[s] for s in failing])))
        w0s = [least.get(shape) for shape in shapes]
    else:
        w0s = least_gram_eigenvalues(geometry, [simplices[k] for k in todo])
    kind = "Gram" if geometry == SPHERICAL else "Cayley-Menger"
    for k, w0 in zip(todo, w0s):
        if w0 is not None and w0 <= eps:
            out[k] = (False, f"{kind} matrix not positive definite (min eigenvalue {w0:.3e})")
    return [(True, "") if r is None else r for r in out]


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
        n = len(names)
        if len(set(names)) != n:
            raise ComplexError("duplicate vertex names")
        cells = []
        for c in top_cells:
            t = tuple(sorted(map(int, c)))
            if len(set(t)) != len(t):
                raise ComplexError(f"repeated vertex in cell {c}")
            if t and (t[0] < 0 or t[-1] >= n):
                raise ComplexError(f"vertex index out of range in cell {c}")
            if not t:
                raise ComplexError("empty cell")
            cells.append(t)
        cells = tuple(sorted(set(cells)))
        if dimension is None:
            dimension = max((len(c) - 1 for c in cells), default=-1)
        table: dict[tuple[int, int], Angle] = {}
        keep = table.setdefault
        conflicts: list[tuple[tuple[int, int], Angle, Angle]] = []
        for i, j, a in lengths:
            if i == j:
                raise ComplexError(f"self-edge length ({i},{i})")
            if not (0 <= i < n and 0 <= j < n):
                raise ComplexError(f"edge ({i},{j}) out of range")
            e = (int(i), int(j)) if i < j else (int(j), int(i))     # ordered once
            old = keep(e, a)
            if old is not a and not old.equals(a):
                conflicts.append((e, old, a))
        self._set(geometry, names, cells, dimension, table, conflicts,
                  allow_disconnected, provenance)

    def _set(self, geometry, vertices, top_cells, dimension, lengths, length_conflicts,
             allow_disconnected, provenance) -> MetricComplex:
        """Store normalised data (``__init__`` checks and normalises its
        input first; ``vertex_link`` builds such data itself)."""
        self.geometry = geometry
        self.vertices = vertices
        self.top_cells = top_cells
        self.dimension = dimension
        self.allow_disconnected = allow_disconnected
        self.provenance = provenance
        self.lengths = lengths
        self.length_conflicts = length_conflicts
        self._corner_angles: dict[tuple[int, int, int], Angle] = {}   # _vertex_angle
        self._shape_angles: dict[tuple[float, float, float], Angle] = {}
        self._vertex_links: dict[int, MetricComplex] = {}              # vertex_link
        self._certificate = None          # recognizer._certify: a graph's dimension-1 answer
        return self

    # -- derived structure -------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Cell, ...]:
        es = set()
        for c in self.top_cells:
            es.update(itertools.combinations(c, 2))
        return tuple(sorted(es))

    @cached_property
    def _incidence(self) -> tuple[list[list[Cell]], dict[Cell, list[int]]]:
        """(stars, panels) from one pass over ``top_cells``: stars[v] holds
        the top cells containing vertex v and panels[f] the indices of the
        top cells containing the panel f, each in ``top_cells`` order."""
        stars: list[list[Cell]] = [[] for _ in self.vertices]
        panels: dict[Cell, list[int]] = {}
        for k, c in enumerate(self.top_cells):
            for v in c:
                stars[v].append(c)
            for f in itertools.combinations(c, len(c) - 1):
                panels.setdefault(f, []).append(k)
        return stars, panels

    @cached_property
    def _star_corners(self) -> list[list[tuple]] | None:
        """One pass over the 2-faces, the top cells in dimension 2 and each
        top cell's triangles above it: every corner angle, read off the
        radians table by ``_corner``, a corner already in
        ``_corner_angles`` kept and every other one cached there.  In
        dimension 2 the pass also lists, for each vertex v, the link edge of
        each star triangle (v, u, w), u < w, in ``top_cells`` order, as
        (u, w, corner at v, its ``_class_entry``).  None in other dimensions.
        The three corners of a triangle shape (xy, xz, yz) and their entries
        are computed once per pass, as a window repeats a handful of shapes
        over hundreds of triangles."""
        rad, keep = self._radians, self._corner_angles.setdefault
        two = self.dimension == 2
        stars = [[] for _ in self.vertices] if two else None
        shapes: dict[tuple[float, float, float], tuple] = {}
        for cell in self.top_cells:
            for x, y, z in (cell,) if two else itertools.combinations(cell, 3):
                xy, xz, yz = rad[x, y], rad[x, z], rad[y, z]
                corners = shapes.get((xy, xz, yz))
                if corners is None:
                    three = (_corner(self, xy, xz, yz), _corner(self, xy, yz, xz),
                             _corner(self, xz, yz, xy))
                    corners = shapes[xy, xz, yz] = three + tuple(map(_class_entry, three))
                X0, Y0, Z0, eX, eY, eZ = corners
                X, Y, Z = keep((x, y, z), X0), keep((y, x, z), Y0), keep((z, x, y), Z0)
                if two:     # a corner cached before the pass keeps its own entry
                    stars[x].append((y, z, X, eX if X is X0 else _class_entry(X)))
                    stars[y].append((x, z, Y, eY if Y is Y0 else _class_entry(Y)))
                    stars[z].append((x, y, Z, eZ if Z is Z0 else _class_entry(Z)))
        return stars

    @cached_property
    def chamber_graph(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The panel adjacency of the top cells (the chambers), read off
        ``_incidence``: entry [k][p] holds the other chambers, by index in
        ``top_cells`` order, on the panel of chamber k that omits its p-th
        vertex."""
        on = self._incidence[1]
        return tuple(tuple(tuple(j for j in on[c[:p] + c[p + 1:]] if j != k)
                           for p in range(len(c)))
                     for k, c in enumerate(self.top_cells))

    @cached_property
    def graph_class(self) -> tuple | None:
        """A graph up to vertex names: its vertex count, its top cells (its
        edges) and the Angle on each, as (p, q) of an exact pi*p/q or a
        float's radians (``_class_entry``), which hash without a Fraction;
        None above dimension 1.  Read edge by edge; ``vertex_link`` fills it
        in for the graph links it assembles."""
        if self.dimension != 1:
            return None
        return (len(self.vertices), self.top_cells,
                tuple(map(_class_entry, map(self.lengths.__getitem__, self.top_cells))))

    def edge_length(self, i: int, j: int) -> Angle:
        return self.lengths[(i, j) if i < j else (j, i)]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {nm: i for i, nm in enumerate(self.vertices)}

    def vertex_index(self, v) -> int:
        if isinstance(v, str):
            try:
                return self._name_index[v]
            except KeyError:
                raise ComplexError(f"no vertex named {v!r}") from None
        i = int(v)
        if not (0 <= i < len(self.vertices)):
            raise ComplexError(f"vertex index {i} out of range")
        return i

    def gram(self, cell: Sequence[int]) -> list[list[float]]:
        """Spherical Gram matrix of a cell's vertices in the given order:
        G(i,j) = cos d(i,j), G(i,i) = 1."""
        return [[1.0 if i == j else math.cos(self.edge_length(i, j).radians)
                 for j in cell] for i in cell]

    # -- validation ---------------------------------------------------------

    @cached_property
    def _radians(self) -> dict[tuple[int, int], float]:
        """Each edge's length in radians, read once: the corner angles are
        read off it."""
        return {e: a.radians for e, a in self.lengths.items()}

    @cached_property
    def validation(self) -> ValidationReport:
        """Purity, vertex coverage, gluing, missing lengths, per-cell
        realizability and connectivity, in that order.  One pass over the
        top cells finds the impure cells and the missing lengths and
        collects each simplex's lengths; the vertex stars (``_incidence``)
        give the coverage, and ``edges`` is built only to name missing
        lengths."""
        issues: list[ValidationIssue] = []
        name = self.vertices.__getitem__
        n, lengths = self.dimension, self.lengths
        length = lengths.__getitem__
        missing = False
        cells, simplices = [], []
        for c in self.top_cells:
            pairs = list(itertools.combinations(c, 2))
            if len(c) - 1 != n:
                issues.append(ValidationIssue(
                    "purity", tuple(map(name, c)),
                    f"top cell has dimension {len(c)-1}, complex has dimension {n}"))
                missing = missing or any(e not in lengths for e in pairs)
            elif not missing:
                try:
                    simplices.append(list(map(length, pairs)))
                except KeyError:
                    missing = True
                    continue
                cells.append(c)
        if n >= 0 and not self.top_cells:
            issues.append(ValidationIssue(
                "purity", (), f"complex has dimension {n} and no top cell"))
        for i, star in enumerate(self._incidence[0]):
            if not star:
                issues.append(ValidationIssue("purity", (name(i),), "vertex lies in no top cell"))
        for (i, j), a, b in self.length_conflicts:
            issues.append(ValidationIssue(
                "gluing", (name(i), name(j)), f"edge declared with lengths {a} and {b}"))
        if missing:
            for e in self.edges:
                if e not in lengths:
                    issues.append(ValidationIssue(
                        "length_missing", tuple(map(name, e)), "edge has no declared length"))
        elif not self.length_conflicts:
            for c, (ok, why) in zip(cells, realizability(self.geometry, simplices)):
                if not ok:
                    issues.append(ValidationIssue("shape", tuple(map(name, c)), why))
        if n >= 1 and not self.allow_disconnected and not self._skeleton_connected:
            issues.append(ValidationIssue("connectivity", (), "complex is not connected"))
        return ValidationReport(not issues, tuple(issues))

    @cached_property
    def _skeleton_connected(self) -> bool:
        """One search per complex, over the vertex stars (``_incidence``):
        validation, the panel-count gate of both geometries and
        ``simple_connectivity`` all ask."""
        if not self.vertices:
            return True
        stars = self._incidence[0]
        seen = {0}
        stack = [0]
        while stack:
            for cell in stars[stack.pop()]:
                for w in cell:
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
                {"edge": [i, j], **self.lengths[i, j].to_json()}
                for i, j in sorted(self.lengths)
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
    seen: set[tuple[int, int]] = set()
    lengths: list[tuple[int, int, Angle]] = []
    for rec in records:
        try:
            i, j = (_json_int(v) for v in rec["edge"])
            a = Angle.from_json(rec)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ComplexError(f"malformed edge length record {rec!r}: {exc}") from exc
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise ComplexError(f"ambiguous input: edge {sorted(set(e))} declared twice")
        seen.add(e)
        lengths.append((i, j, a))
    # the edges of the cells without a record, in ``edges`` order, filled
    # before the one construction; the constructor's errors (bad cells or
    # records) still come before those about the default
    missing = sorted({e for t in top_cells for e in itertools.combinations(sorted(t), 2)}
                     - seen)
    bad = None
    if missing and default is not None:
        try:
            fill = Angle.from_json(default)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            bad = exc
        else:
            lengths.extend((i, j, fill) for i, j in missing)
    c = MetricComplex(geometry, vertices, top_cells, lengths, dimension=dimension)
    if missing and default is None:
        raise ComplexError(
            f"ambiguous input: {len(missing)} edges lack lengths and no default_length given")
    if bad is not None:
        raise ComplexError(f"malformed default_length {default!r}: {bad}") from bad
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
    """Angle at v in the triangle (v,u,w), by the law of cosines (``_corner``)
    on the complex's radians table.

    Cached on ``c`` under (v, min(u, w), max(u, w)); lengths never change
    after construction.
    """
    key = (v, u, w) if u < w else (v, w, u)
    ang = c._corner_angles.get(key)
    if ang is None:
        rad = c._radians
        edge = lambda i, j: rad[(i, j) if i < j else (j, i)]
        ang = c._corner_angles[key] = _corner(c, edge(v, u), edge(v, w), edge(u, w))
    return ang


def _class_entry(a: Angle):
    """An Angle's entry in ``MetricComplex.graph_class``."""
    return a.rad if a.frac is None else a.frac.as_integer_ratio()


def _corner(c: MetricComplex, a: float, b: float, opp: float) -> Angle:
    """The angle between sides a and b opposite the side opp (radians), by
    the law of cosines, cached on ``c`` by the shape (min(a, b), max(a, b),
    opp): the formula reads nothing else and is symmetric in a and b.

    A zero angle (a degenerate triangle, which validation rejects) raises
    ComplexError: an Angle is positive.
    """
    shape = (a, b, opp) if a <= b else (b, a, opp)
    ang = c._shape_angles.get(shape)
    if ang is None:
        a, b, opp = shape
        if c.geometry == SPHERICAL:
            cosang = (math.cos(opp) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))
        else:
            cosang = (a * a + b * b - opp * opp) / (2.0 * a * b)
        rad = math.acos(max(-1.0, min(1.0, cosang)))
        if not rad > 0:
            raise ComplexError(f"degenerate triangle: sides {a!r} and {b!r} meet at a "
                               f"zero angle opposite {opp!r}")
        ang = c._shape_angles[shape] = Angle.from_radians(rad)
    return ang


def vertex_link(c: MetricComplex, v) -> MetricComplex:
    """The link of a vertex: unit tangent directions, a spherical complex of
    dimension n-1 whose edge lengths are the vertex angles of incident cells.

    Memoized on ``c`` by vertex index: a later call returns the same object,
    so the link's own caches (validation, incidence, its vertex links) are shared.
    The first call runs the complex's one pass over its 2-faces
    (``MetricComplex._star_corners``), which caches every corner angle.  As
    ``c`` is valid, the link's cells come out sorted, distinct and in range;
    it is stored as ``__init__`` would store it, without the checks.  The
    link of a 2-complex is a graph, assembled from the link edges that pass
    listed for its vertex, with its ``graph_class`` filled in from the same
    lists; any other link is read off the vertex's star (``_incidence``)
    and the cached corners.
    """
    c.require_valid()
    vi = c.vertex_index(v)
    link = c._vertex_links.get(vi)
    if link is not None:
        return link
    if c.dimension < 1:
        raise ComplexError("a vertex of a 0-dimensional complex has an empty link")
    stars = c._star_corners
    if stars is not None:
        us, ws, angles, entries = zip(*stars[vi])
        neighbors = sorted({*us, *ws})
        at = dict(zip(neighbors, range(len(neighbors)))).__getitem__
        cells = tuple(zip(map(at, us), map(at, ws)))
        link = MetricComplex.__new__(MetricComplex)._set(
            SPHERICAL, tuple(map(c.vertices.__getitem__, neighbors)), cells, 1,
            dict(zip(cells, angles)), [], True, None)
        link.__dict__["graph_class"] = (len(neighbors), cells, entries)
        c._vertex_links[vi] = link
        return link
    corners = c._corner_angles
    star = c._incidence[0][vi]
    neighbors = sorted({u for cell in star for u in cell if u != vi})
    index = {u: k for k, u in enumerate(neighbors)}
    cells, lengths = [], {}
    for cell in star:
        rest = [u for u in cell if u != vi]
        cells.append(tuple(index[u] for u in rest))
        for u, w in itertools.combinations(rest, 2):
            lengths[index[u], index[w]] = corners[vi, u, w]
    link = MetricComplex.__new__(MetricComplex)._set(
        SPHERICAL, tuple(c.vertices[u] for u in neighbors), tuple(cells),
        c.dimension - 1, lengths, [], True, None)
    c._vertex_links[vi] = link
    return link


def cell_link(c: MetricComplex, cell) -> MetricComplex:
    """Link of a cell, by iterated vertex links (directions orthogonal to it).
    A cell is a set of distinct vertices in some top cell of the star of its
    least vertex (``_incidence``)."""
    c.require_valid()
    idxs = [c.vertex_index(v) for v in cell]
    t = set(idxs)
    star = c._incidence[0][min(t)] if len(t) == len(idxs) > 0 else ()
    if not any(t.issubset(s) for s in star):
        raise ComplexError(f"{cell!r} is not a cell of the complex")
    if len(t) - 1 >= c.dimension:
        raise ComplexError("cell is top-dimensional; its link is empty")
    names = [c.vertices[i] for i in sorted(t)]
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
    lengths = [(i, j, a.lengths[i, j]) for i, j in a.edges]
    lengths += [(off + i, off + j, b.lengths[i, j]) for i, j in b.edges]
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


def as_graph_data(c: MetricComplex
                  ) -> tuple[tuple[str, ...], tuple[tuple[int, int, PiUnits], ...]]:
    """Vertices and weighted edges (i < j) of a valid 1-dimensional complex,
    in pi units and in ``edges`` order."""
    if c.dimension > 1:
        raise ComplexError(f"complex has dimension {c.dimension}, expected <= 1")
    c.require_valid()
    lengths = c.lengths
    return c.vertices, tuple((i, j, lengths[i, j].pi_units) for i, j in c.edges)
