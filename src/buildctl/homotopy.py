"""Simple-connectivity testing via edge-path group presentations.

The 2-skeleton gives a presentation: spanning-tree edges die, the remaining
edges generate, and each 2-cell contributes its boundary word as a relator.
Bounded Tietze simplification decides the easy cases; if the presentation
does not collapse, a nonzero first Betti number or a nontrivial homomorphism
into a small symmetric group certifies a nontrivial group.  Otherwise the
answer is ``unknown``, which callers must treat as a first-class outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .complexes import MetricComplex

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Pi1Result:
    status: str                    # trivial | nontrivial | unknown
    witness_loop: tuple[str, ...] | None = None    # vertex names of a loop
    detail: str = ""


def _presentation(c: MetricComplex):
    """(generators, relators, loops): edge-path group data of the 2-skeleton."""
    nv = len(c.vertices)
    edges = list(c.cells_by_dim.get(1, ()))
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(nv)}
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    parent: dict[int, tuple[int, int]] = {}
    seen = {0} if nv else set()
    order = [0] if nv else []
    i = 0
    tree: set[int] = set()
    while i < len(order):
        u = order[i]
        i += 1
        for w, k in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = (u, k)
                tree.add(k)
                order.append(w)
    gen_of_edge = {}
    gens = []
    for k, e in enumerate(edges):
        if k not in tree:
            gen_of_edge[k] = len(gens)
            gens.append(k)
    relators = []
    for tri in c.cells_by_dim.get(2, ()):
        word = []
        cyc = list(tri) + [tri[0]]
        for a, b in zip(cyc, cyc[1:]):
            lt = _edge_letter(edges, tree, gen_of_edge, adj, a, b)
            if lt is not None:
                word.append(lt)
        relators.append(_free_reduce(word))
    # witness loops: for each generator, tree path closing its edge
    def tree_path(v):
        path = [v]
        while path[-1] != 0:
            path.append(parent[path[-1]][0])
        return path

    loops = {}
    for g, k in enumerate(gens):
        u, v = edges[k]
        pu = tree_path(u)[::-1]
        pv = tree_path(v)
        loops[g] = tuple(c.vertices[x] for x in pu + pv)
    return len(gens), relators, loops


def _edge_letter(edges, tree, gen_of_edge, adj, a, b):
    for w, k in adj[a]:
        if w == b:
            if k in tree:
                return None
            sign = 1 if (edges[k][0], edges[k][1]) == (a, b) else -1
            return (gen_of_edge[k], sign)
    raise ValueError(f"no edge between {a} and {b}")


def _free_reduce(word):
    out = []
    for g, s in word:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _cyclic_reduce(word):
    w = list(word)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def _substitute(word, g, repl):
    out = []
    for h, s in word:
        if h != g:
            out.append((h, s))
        elif s == 1:
            out.extend(repl)
        else:
            out.extend((x, -t) for x, t in reversed(repl))
    return _free_reduce(out)


def _tietze_simplify(ngens: int, relators, max_steps: int = 10_000):
    """Eliminate generators occurring exactly once in some relator."""
    gens = set(range(ngens))
    rels = [_cyclic_reduce(_free_reduce(r)) for r in relators]
    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        rels = [r for r in rels if r]
        for ri, r in enumerate(rels):
            counts: dict[int, int] = {}
            for g, _ in r:
                counts[g] = counts.get(g, 0) + 1
            once = sorted(g for g, k in counts.items() if k == 1)
            if not once:
                continue
            g = once[0]
            pos = next(i for i, (h, _) in enumerate(r) if h == g)
            sign = r[pos][1]
            rest = r[pos + 1:] + r[:pos]
            repl = [(h, -s) for h, s in reversed(rest)]
            if sign == -1:
                repl = [(h, -s) for h, s in reversed(repl)]
            rels = [_cyclic_reduce(_substitute(w, g, repl))
                    for i, w in enumerate(rels) if i != ri]
            gens.discard(g)
            changed = True
            steps += 1
            break
    rels = [r for r in rels if r]
    return gens, rels


def _h1_free_generator(ngens: int, relators) -> int | None:
    """A generator whose class survives in H1 with rational coefficients, or
    None when the first Betti number is 0.

    Row-reduces the exponent-sum matrix; the first non-pivot column is the
    surviving generator.
    """
    rows = []
    for r in relators:
        v = [Fraction(0)] * ngens
        for g, s in r:
            v[g] += s
        rows.append(v)
    rank = 0
    pivots = set()
    for col in range(ngens):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.add(col)
        rank += 1
    return next((g for g in range(ngens) if g not in pivots), None)


def _nontrivial_quotient(gens, relators, budget: int = 100_000) -> bool:
    """Search for a nontrivial homomorphism into S3 or S4 (backtracking)."""
    glist = sorted(gens)
    if not glist:
        return False
    for deg in (3, 4):
        perms = sorted(itertools.permutations(range(deg)))
        ident = tuple(range(deg))
        nodes = 0

        def compose(p, q):
            return tuple(p[q[i]] for i in range(deg))

        def invert(p):
            out = [0] * deg
            for i, v in enumerate(p):
                out[v] = i
            return tuple(out)

        def rel_ok(assign):
            for r in relators:
                if all(g in assign for g, _ in r):
                    acc = ident
                    for g, s in r:
                        acc = compose(acc, assign[g] if s == 1 else invert(assign[g]))
                    if acc != ident:
                        return False
            return True

        def search(i, assign):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                return None
            if i == len(glist):
                if any(p != ident for p in assign.values()):
                    return True
                return False
            for p in perms:
                assign[glist[i]] = p
                if rel_ok(assign):
                    res = search(i + 1, assign)
                    if res:
                        return True
                    if res is None:
                        return None
            del assign[glist[i]]
            return False

        found = search(0, {})
        if found:
            return True
        if found is None:
            return False     # budget exhausted: give up quietly
    return False


def simple_connectivity(c: MetricComplex) -> Pi1Result:
    """Decide pi_1 triviality of the 2-skeleton when cheaply possible."""
    c.require_valid()
    if not c._skeleton_connected():
        return Pi1Result(UNKNOWN, None, "complex is not connected")
    ngens, relators, loops = _presentation(c)
    if ngens == 0:
        return Pi1Result(TRIVIAL, None, "1-skeleton is a tree")
    free = _h1_free_generator(ngens, relators)
    if free is not None:
        return Pi1Result(NONTRIVIAL, loops.get(free), "positive first Betti number")
    gens, rels = _tietze_simplify(ngens, relators)
    if not gens:
        return Pi1Result(TRIVIAL, None, "presentation collapses")
    if _nontrivial_quotient(gens, rels):
        g = sorted(gens)[0]
        return Pi1Result(NONTRIVIAL, loops.get(g), "nontrivial finite quotient")
    return Pi1Result(UNKNOWN, None,
                     f"simplification stuck with {len(gens)} generators, {len(rels)} relators")
