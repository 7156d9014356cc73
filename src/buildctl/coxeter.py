"""Coxeter matrices: cosine form, classification, reflection groups, complexes.

The cosine form B(s,t) = -cos(pi/m(s,t)) drives everything: positive definite
means a finite (spherical) group, positive semidefinite with 1-dimensional
kernel per irreducible component means a Euclidean group.  For spherical
systems the group is enumerated exactly, each element a tuple of root indices
and each generator a permutation of the root system, whose roots are kept in
simple-root coordinates.  The unit sphere is cellulated by the translates of
the fundamental chamber: the vertices are the standard cosets g W_J, read off
the right-multiplication table, and the edges of one type pair share one
length, read off the inverse cosine form.  ``coxeter_group`` stops there,
which is all the recognizer reads; ``coxeter_complex`` adds the
``MetricComplex``.  The linear algebra is the standard-library kernels of
``linalg``.

Each group is enumerated once per process: ``coxeter_group`` keeps the
read-only models of the last 32 matrices it enumerated, keyed by the whole
``CoxeterMatrix``, generator names included.  A budget refuses a kept model
exactly when it would refuse its enumeration, with the same message, and
``clear_group_memo`` empties the memo.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

from .angles import Angle, EPS_GRAM, Frozen
from .complexes import MetricComplex, SPHERICAL

INFINITE = 0          # JSON and internal encoding of m(s,t) = infinity
B_GROUP_DEFAULT = 10 ** 6


class CoxeterError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class CoxeterMatrix(Frozen):
    __slots__ = ("generators", "m")

    def __init__(self, generators: tuple[str, ...], m: Sequence[Sequence[int]]):
        n = len(generators)
        if len(set(generators)) != n:
            raise CoxeterError("duplicate generator names")
        if len(m) != n or any(len(r) != n for r in m):
            raise CoxeterError("matrix shape does not match generators")
        for i in range(n):
            if m[i][i] != 1:
                raise CoxeterError(f"m({i},{i}) must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise CoxeterError("matrix not symmetric")
                if i != j and m[i][j] != INFINITE and m[i][j] < 2:
                    raise CoxeterError(f"m({i},{j}) must be >= 2 or infinite")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "m", tuple(tuple(r) for r in m))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def submatrix(self, idxs: Sequence[int]) -> "CoxeterMatrix":
        idxs = list(idxs)
        return CoxeterMatrix(tuple(self.generators[i] for i in idxs),
                             tuple(tuple(self.m[i][j] for j in idxs) for i in idxs))

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators), "m": [list(r) for r in self.m]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json_dict(obj: dict) -> "CoxeterMatrix":
        try:
            gens = tuple(str(g) for g in obj["generators"])
            m = tuple(tuple(int(x) for x in row) for row in obj["m"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CoxeterError(f"malformed Coxeter matrix record: {exc}") from exc
        return CoxeterMatrix(gens, m)

    def describe(self) -> str:
        return ",".join(f"{self.generators[i]}-{self.generators[j]}:{self.m[i][j]}"
                        for i in range(self.rank) for j in range(i + 1, self.rank)
                        if self.m[i][j] != 2)


def dihedral(m: int, names=("s", "t")) -> CoxeterMatrix:
    return CoxeterMatrix(tuple(names), ((1, m), (m, 1)))


def named_matrix(name: str) -> CoxeterMatrix:
    """A small table of named systems used by the corpus and tests."""
    key = name.upper().replace(" ", "")
    if key.startswith("I2(") and key.endswith(")"):
        m = key[3:-1]
        # m = 0 would be INFINITE, the infinite dihedral group: no I2 type
        if not (m.isdecimal() and int(m) >= 2):
            raise CoxeterError(f"bad Coxeter type {name!r}: I2(m) needs an integer m >= 2")
        return dihedral(int(m))
    table = {
        "A1": ((1,),),
        "A2": ((1, 3), (3, 1)),
        "B2": ((1, 4), (4, 1)),
        "G2": ((1, 6), (6, 1)),
        "A3": ((1, 3, 2), (3, 1, 3), (2, 3, 1)),
        "B3": ((1, 4, 2), (4, 1, 3), (2, 3, 1)),
        "A1XA1": ((1, 2), (2, 1)),
        "A1XA1XA1": ((1, 2, 2), (2, 1, 2), (2, 2, 1)),
        "A1XI2(3)": ((1, 2, 2), (2, 1, 3), (2, 3, 1)),
        "~A2": ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
        "A2~": ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
    }
    if key not in table:
        raise CoxeterError(f"unknown Coxeter system name {name!r}")
    rows = table[key]
    gens = tuple(f"s{i}" for i in range(len(rows)))
    return CoxeterMatrix(gens, rows)


def cosine_form(M: CoxeterMatrix) -> list[list[float]]:
    """B(s,t) = -cos(pi/m(s,t)); pi/infinity is 0.  Rows of floats."""
    return [[-1.0 if mij == INFINITE else -math.cos(math.pi / mij) for mij in row]
            for row in M.m]


def irreducible_components(M: CoxeterMatrix) -> tuple[tuple[int, ...], ...]:
    """Connected components of the diagram (edges where m >= 3 or infinite)."""
    n = M.rank
    seen: set[int] = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v not in comp and (M.m[u][v] == INFINITE or M.m[u][v] >= 3):
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


class CoxeterClassification:
    def __init__(self, verdict: str, components: tuple[tuple[int, ...], ...],
                 component_verdicts: tuple[str, ...], group_order: int | None,
                 order_known: bool):
        self.verdict = verdict              # spherical | euclidean | other
        self.components = components
        self.component_verdicts = component_verdicts
        self.group_order = group_order      # None means infinite or unknown
        self.order_known = order_known

    def to_json(self):
        return {
            "verdict": self.verdict,
            "components": [list(c) for c in self.components],
            "component_verdicts": list(self.component_verdicts),
            "group_order": self.group_order,
            "order_known": self.order_known,
        }


def cosine_verdicts(M: CoxeterMatrix) -> tuple[tuple[tuple[int, ...], ...],
                                              tuple[str, ...], str]:
    """The eigenvalue-sign test of the cosine form: (components, verdict per
    component, verdict), each verdict spherical | euclidean | other.  It
    enumerates no group."""
    from .linalg import symmetric_eigenvalues
    comps = irreducible_components(M)
    verdicts = []
    for comp in comps:
        w = symmetric_eigenvalues(cosine_form(M.submatrix(comp)))
        if w[0] > EPS_GRAM:
            verdicts.append("spherical")
        elif abs(w[0]) <= EPS_GRAM and (len(w) == 1 or w[1] > EPS_GRAM):
            # semidefinite with a 1-dimensional kernel, irreducible by choice
            verdicts.append("euclidean")
        else:
            verdicts.append("other")
    if all(v == "spherical" for v in verdicts):
        verdict = "spherical"
    elif all(v == "euclidean" for v in verdicts):
        verdict = "euclidean"
    else:
        verdict = "other"
    return comps, tuple(verdicts), verdict


def classify(M: CoxeterMatrix, budget: int = B_GROUP_DEFAULT) -> CoxeterClassification:
    """The sign test of ``cosine_verdicts``, with the group order of a
    spherical system: A1 has order 2 and I2(m) order 2m, whatever the
    budget, and a larger component is enumerated (unknown past the budget)."""
    comps, verdicts, verdict = cosine_verdicts(M)
    order: int | None = None
    known = True
    if verdict == "spherical":
        order = 1
        try:
            for comp in comps:          # m(s,s) = 1 for A1, m(s,t) = m for I2(m)
                order *= (2 * M.m[comp[0]][comp[-1]] if len(comp) <= 2 else
                          len(generate_reflection_group(M.submatrix(comp), budget=budget)))
        except BudgetExceeded:
            order = None
            known = False
    return CoxeterClassification(verdict, comps, verdicts, order, known)


class GroupElement(Frozen):
    """A group element, compared and hashed by its word alone."""

    __slots__ = ("word", "right")

    def __init__(self, word: tuple[int, ...], right: tuple[int, ...]):
        object.__setattr__(self, "word", word)      # reduced-by-construction generator word
        object.__setattr__(self, "right", right)    # s -> index of g*s

    def _fields(self) -> tuple:
        return (self.word,)


def _root_permutations(B: list[list[float]], budget: int) -> list[list[int]]:
    """The generators as permutations of the root system Phi, the orbit of
    the simple roots (indices 0..n-1) under the reflections.  A root is
    kept in simple-root coordinates x, alpha = sum_j x_j alpha_j: s_t
    changes only x_t, by -2 B(alpha, alpha_t) = -2 sum_j x_j B_jt.  Roots
    are keyed by the nearest point of a grid of step 1e-6
    (``_nearby_root``).  |Phi| <= |W|, so an orbit past the budget is a
    group past it."""
    n = len(B)
    vecs = [[float(i == j) for j in range(n)] for i in range(n)]
    index = {tuple([round(v * 1e6) for v in x]): s for s, x in enumerate(vecs)}
    perms: list[list[int]] = [[] for _ in range(n)]
    while vecs:
        grown = []
        for t, (Bt, perm) in enumerate(zip(B, perms)):
            for x in vecs:
                y = list(x)
                y[t] -= 2.0 * sum([a * b for a, b in zip(x, Bt)])
                z = [v * 1e6 for v in y]
                k = tuple([round(v) for v in z])
                i = index.get(k)
                if i is None:
                    i = _nearby_root(index, z, k)
                if i is None:
                    i = index[k] = len(index)
                    grown.append(y)
                perm.append(i)
        if len(index) > budget:
            raise BudgetExceeded(f"group enumeration exceeded budget {budget}")
        vecs = grown
    return perms


def _nearby_root(index: dict, z: list[float], k: tuple) -> int | None:
    """The root keyed in a cell next to k, or None.  Two float copies of one
    root differ by far less than a grid step, yet may round to neighbouring
    points when they straddle the midpoint between them; a copy that does is
    then more than a quarter step off its own point, so the other copy is
    looked up across each such coordinate.  Distinct roots differ by far
    more than a step."""
    near = [(kv, kv + 1 if zv > kv else kv - 1) if abs(zv - kv) > 0.25 else (kv,)
            for zv, kv in zip(z, k)]
    return next((index[c] for c in itertools.product(*near) if c in index), None)


def generate_reflection_group(M: CoxeterMatrix, budget: int = B_GROUP_DEFAULT
                              ) -> list[GroupElement]:
    """All elements of a finite reflection group, with their
    right-multiplication table.

    Breadth-first closure over right multiplication by the generating
    reflections, a queue in which each level's words come out in
    lexicographic order: the order is word length, then word, and each word
    is the least one of its element.  An element g is the exact tuple of the
    roots g^-1(alpha_s): (g s)^-1 = s g^-1, so g*s indexes the generator's
    root permutation by g's tuple.  A cosine form whose least eigenvalue
    is at most EPS_GRAM (a Cholesky test) is refused.
    """
    from .linalg import positive_definite
    B = cosine_form(M)
    if not positive_definite(B, EPS_GRAM):
        raise CoxeterError("cosine form is not positive definite")
    n = M.rank
    perms = _root_permutations(B, budget)
    keys = [tuple(range(n))]
    index = {keys[0]: 0}
    words, right = [()], []
    for key, word in zip(keys, words):    # the lists grow as it runs
        row = []
        for s, p in enumerate(perms):
            k = tuple([p[r] for r in key])
            b = index.get(k)
            if b is None:
                b = index[k] = len(keys)
                keys.append(k)
                words.append(word + (s,))
                if len(keys) > budget:
                    raise BudgetExceeded(f"group enumeration exceeded budget {budget}")
            row.append(b)
        right.append(tuple(row))
    return [GroupElement(*e) for e in zip(words, right)]


class CoxeterGroupModel:
    """W with its right-multiplication table, the vertex of each type of
    each element's chamber and the length of each type pair: all the
    axiom route reads of the model.  ``labels[a][i]`` is the type-i vertex
    of element a, ``vertex_types`` the type of each vertex, ``pair_length``
    the length of an edge of each type pair (both orders) and ``steps[b]``
    the (a, s) with elements[b] = elements[a] * s that names b's word
    (``steps[0]`` is None).  One model is shared by every caller of
    ``coxeter_group``, so its sequences are tuples and ``pair_length`` a
    read-only mapping."""

    def __init__(self, system: CoxeterMatrix, elements: Sequence[GroupElement],
                 labels: Sequence[tuple[int, ...]], vertex_types: tuple[int, ...],
                 pair_length: dict[tuple[int, int], Angle]):
        self.system = system
        self.elements = tuple(elements)
        self.labels = tuple(labels)
        self.vertex_types = vertex_types
        self.pair_length = MappingProxyType(dict(pair_length))
        steps: list[tuple[int, int] | None] = [None] * len(elements)
        for a, g in enumerate(elements):     # the first (a, s) to reach b named it
            for s, b in enumerate(g.right):
                if b and steps[b] is None:
                    steps[b] = (a, s)
        self.steps = tuple(steps)

    @cached_property
    def edge_lengths(self) -> tuple[tuple[int, int, Angle], ...]:
        """Every edge (i, j, length) of the model complex, i < j, in order of
        first appearance over the elements' chambers, each vertex tuple
        sorted: computed on first use, once per model, and shared."""
        seen, out = set(), []
        for row in self.labels:
            for i, j in itertools.combinations(sorted(row), 2):
                if (i, j) not in seen:
                    seen.add((i, j))
                    out.append((i, j, self.pair_length[self.vertex_types[i],
                                                       self.vertex_types[j]]))
        return tuple(out)


class CoxeterComplexModel(CoxeterGroupModel):
    """A ``CoxeterGroupModel`` with its ``MetricComplex``, built eagerly:
    ``complex`` and ``chamber_of``, each element's word -> its top cell."""

    def __init__(self, group: CoxeterGroupModel):
        edges = group.edge_lengths           # cached on the group first, so shared
        self.__dict__.update(vars(group))    # the group's read-only fields, shared
        M, n = group.system, group.system.rank
        cells = [tuple(sorted(row)) for row in group.labels]
        self.chamber_of = {g.word: cell for g, cell in zip(group.elements, cells)}
        names = [f"w{t}.{i}" for i, t in enumerate(group.vertex_types)]
        self.complex = MetricComplex(
            SPHERICAL, names, cells, edges, allow_disconnected=(n == 1),
            provenance=f"coxeter_complex({M.describe() or 'A1^' + str(n)})")


_GROUP_MEMO: dict[CoxeterMatrix, CoxeterGroupModel] = {}    # in order of entry
_GROUP_MEMO_SIZE = 32


def clear_group_memo() -> None:
    """Forget every model ``coxeter_group`` keeps."""
    _GROUP_MEMO.clear()


def coxeter_group(M: CoxeterMatrix, budget: int = B_GROUP_DEFAULT) -> CoxeterGroupModel:
    """The group of a spherical system with its chambers' vertices and the
    length of each type pair, without the complex (``coxeter_complex``).

    A matrix is enumerated once per process: the model of a successful
    enumeration is kept, keyed by the whole matrix (names included, since
    callers compare ``model.system`` with their own matrix and describe it),
    and returned by later calls.  The memo keeps the 32 matrices entered
    last, dropping the oldest; a refusal is not kept.  A kept model larger
    than the budget raises the ``BudgetExceeded`` an enumeration would, with
    its message: an enumeration raises exactly when |W| > budget, as |Phi|
    <= |W|, except that the identity alone is never refused.
    """
    model = _GROUP_MEMO.get(M)
    if model is None:
        model = _GROUP_MEMO[M] = _enumerated_model(M, budget)
        if len(_GROUP_MEMO) > _GROUP_MEMO_SIZE:
            del _GROUP_MEMO[next(iter(_GROUP_MEMO))]
    elif len(model.elements) > max(budget, 1):
        raise BudgetExceeded(f"group enumeration exceeded budget {budget}")
    return model


def _enumerated_model(M: CoxeterMatrix, budget: int) -> CoxeterGroupModel:
    """The model ``coxeter_group`` keeps, enumerated under the budget.

    The fundamental chamber's vertices p_i are the dual basis of the wall
    normals, normalized.  The type-i vertex of chamber g is the standard
    coset g W_{S-i}: chambers g and g*s share every vertex but the one of
    type s, so each vertex is a flood fill over the right-multiplication
    table, numbered by first appearance over (g, i).  W acts by isometries,
    so every edge of one type pair {a, b} has the length of p_a p_b, whose
    cosine is B^-1_ab / sqrt(B^-1_aa B^-1_bb) for the cosine form B (the
    p_i are the columns of B^-1 in the basis of the simple roots, up to
    scale).
    """
    from .linalg import inverse
    verdict = cosine_verdicts(M)[2]
    if verdict != "spherical":
        raise CoxeterError(f"coxeter_complex needs a spherical system, got {verdict}")
    n = M.rank
    elems = generate_reflection_group(M, budget=budget)
    vtypes: list[int] = []
    label = [[-1] * n for _ in elems]     # element -> its vertex of each type
    for a, g in enumerate(elems):
        for i in range(n):
            if label[a][i] >= 0:
                continue
            v = len(vtypes)
            vtypes.append(i)
            label[a][i] = v
            stack = [a]
            while stack:
                for s, b in enumerate(elems[stack.pop()].right):
                    if s != i and label[b][i] < 0:
                        label[b][i] = v
                        stack.append(b)
    inv = inverse(cosine_form(M))
    pair_length = {}
    for a, b in itertools.combinations(range(n), 2):
        cosv = min(max(inv[a][b] / math.sqrt(inv[a][a] * inv[b][b]), -1.0), 1.0)
        pair_length[a, b] = pair_length[b, a] = Angle.from_radians(math.acos(cosv))
    return CoxeterGroupModel(M, elems, [tuple(row) for row in label], tuple(vtypes),
                             pair_length)


def coxeter_complex(M: CoxeterMatrix, budget: int = B_GROUP_DEFAULT) -> CoxeterComplexModel:
    """The unit sphere cellulated by the translates of the fundamental
    chamber: ``coxeter_group``, then its ``MetricComplex``, each vertex
    named ``w<type>.<number>``."""
    return CoxeterComplexModel(coxeter_group(M, budget))
