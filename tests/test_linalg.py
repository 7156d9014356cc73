"""The standard-library kernels of ``buildctl.linalg`` against numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildctl.linalg import cholesky, inverse, positive_definite, symmetric_eigenvalues


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    entry = st.floats(-100.0, 100.0, allow_nan=False)
    A = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = draw(entry)
    return A


@st.composite
def positive_definite_matrices(draw, max_n=6):
    """X X^T + I: symmetric, with every eigenvalue at least 1."""
    n = draw(st.integers(1, max_n))
    X = np.array(draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    return (X @ X.T + np.eye(n)).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=symmetric_matrices())
def test_jacobi_eigenvalues_match_eigvalsh(A):
    """Every eigenvalue, in ascending order, within 1e-12 of the spectral norm."""
    want = np.linalg.eigvalsh(np.array(A))
    got = symmetric_eigenvalues(A)
    assert got == sorted(got)
    assert np.abs(np.array(got) - want).max() <= 1e-12 * np.linalg.norm(np.array(A), 2)


def test_jacobi_eigenvalues_of_a_zero_and_a_diagonal_matrix():
    assert symmetric_eigenvalues([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]
    assert symmetric_eigenvalues([[3.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]]) \
        == [-1.0, 2.0, 3.0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=symmetric_matrices(), shift=st.floats(-100.0, 100.0))
def test_cholesky_test_is_the_least_eigenvalue_sign(A, shift):
    """A - shift*I is positive definite exactly when eigvalsh puts its least
    eigenvalue above 0, away from the rounding band of either method."""
    w0 = np.linalg.eigvalsh(np.array(A))[0] - shift
    band = 1e-9 * max(1.0, np.linalg.norm(np.array(A), 2), abs(shift))
    if abs(w0) > band:
        assert positive_definite(A, shift) == (w0 > 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=positive_definite_matrices())
def test_cholesky_factor_matches_numpy(A):
    """The factor is lower triangular and numpy's, within 1e-12 of its
    largest entry."""
    want = np.linalg.cholesky(np.array(A))
    got = np.array(cholesky(A))
    assert np.array_equal(np.tril(got), got)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cholesky_test_refuses_singular_indefinite_and_nan():
    assert positive_definite([[1.0, 0.5], [0.5, 1.0]])
    assert not positive_definite([[1.0, 1.0], [1.0, 1.0]])
    assert not positive_definite([[1.0, 2.0], [2.0, 1.0]])
    assert not positive_definite([[float("nan")]])
    assert not positive_definite([[1.0]], shift=1.0)
    assert not positive_definite([[1.0]], shift=float("inf"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=positive_definite_matrices())
def test_inverse_matches_numpy(A):
    want = np.linalg.inv(np.array(A))
    got = np.array(inverse(A))
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_inverse_refuses_a_singular_matrix():
    with pytest.raises(ValueError):
        inverse([[1.0, 2.0], [2.0, 4.0]])
