"""Small dense symmetric linear algebra on nested lists, standard library only.

buildctl's only linear algebra.  Its matrices are at most (n+1) x (n+1),
Gram matrices of one simplex or one geodesic cell frame and cosine forms of
one Coxeter system, so plain Python loops beat importing an array library.
Three kernels: a Cholesky factorization, cyclic Jacobi eigenvalues and a
Gauss-Jordan inverse.
"""

from __future__ import annotations

import math
from typing import Sequence

Matrix = Sequence[Sequence[float]]

JACOBI_SWEEPS = 50


def cholesky(A: Matrix, shift: float = 0.0) -> list[list[float]] | None:
    """The lower-triangular L with L L^T = A - shift*I, or None when A -
    shift*I is not positive definite: a pivot is not positive (or nan)."""
    n = len(A)
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        Lj = L[j]
        d = A[j][j] - shift - sum(x * x for x in Lj[:j])
        if not d > 0.0:
            return None
        r = Lj[j] = math.sqrt(d)
        for i in range(j + 1, n):
            Li = L[i]
            Li[j] = (A[i][j] - sum(x * y for x, y in zip(Li[:j], Lj[:j]))) / r
    return L


def positive_definite(A: Matrix, shift: float = 0.0) -> bool:
    """Whether A - shift*I is positive definite (``cholesky`` succeeds)."""
    return cholesky(A, shift) is not None


def symmetric_eigenvalues(A: Matrix) -> list[float]:
    """The eigenvalues of a symmetric matrix in ascending order, by cyclic
    Jacobi rotations.  The matrix is first scaled by a power of two to a
    largest entry in [1/2, 1), exactly, and the sweeps stop when every
    off-diagonal entry is at most 1e-18 (a handful of sweeps at the sizes
    used here)."""
    n = len(A)
    top = max((abs(x) for row in A for x in row), default=0.0)
    if top == 0.0:
        return [0.0] * n
    e = math.frexp(top)[1]
    a = [[math.ldexp(float(x), -e) for x in row] for row in A]
    for _ in range(JACOBI_SWEEPS):
        if max((abs(a[p][q]) for p in range(n) for q in range(p + 1, n)),
               default=0.0) <= 1e-18:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq == 0.0:
                    continue
                aq = a[q]
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        ak = a[k]
                        akp, akq = ak[p], ak[q]
                        ak[p] = ap[k] = c * akp - s * akq
                        ak[q] = aq[k] = s * akp + c * akq
                ap[p] -= t * apq
                aq[q] += t * apq
                ap[q] = aq[p] = 0.0
    return sorted(math.ldexp(a[i][i], e) for i in range(n))


def inverse(A: Matrix) -> list[list[float]]:
    """The inverse by Gauss-Jordan elimination with partial pivoting;
    ValueError when a pivot column is zero."""
    n = len(A)
    rows = [[float(x) for x in row] + [float(i == j) for j in range(n)]
            for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[piv][col] == 0.0:
            raise ValueError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        pivot_row = rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0.0:
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot_row)]
    return [row[n:] for row in rows]
