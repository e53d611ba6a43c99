"""Dense float64 linear algebra used by the calibration engine.

All matrices are numpy float64 arrays, validated where they lie: a float64
view is checked, not copied. Symmetric matrices are stored dense and
symmetrized exactly on construction; `as_sym_matrix` checks that a matrix
is finite and exactly symmetric. Every public operation validates its
input but `inverse_upper_factor`, whose caller has: a calibration checks
each layer's Hessian once, in `hessian.regularize`, and then damps and
factorizes it without a second scan. Factors are checked on the way out.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimMismatch, NonFinite, NotPositiveDefinite

__all__ = [
    "as_matrix",
    "as_sym_matrix",
    "symmetrize",
    "require_finite",
    "cholesky",
    "cholesky_inverse",
    "inverse_upper_factor",
]


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains NaN or Inf")
    return a


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a 2-D float64 matrix: a float64 array (or view)
    as it is, anything else converted."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimMismatch(f"expected {cols} cols, got {m.shape[1]}")
    return require_finite(m, "matrix")


def symmetrize(a) -> np.ndarray:
    """Return (a + a.T) / 2 so that data[j, k] == data[k, j] exactly."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimMismatch(f"cannot symmetrize a {m.shape[0]}x{m.shape[1]} matrix")
    return (m + m.T) / 2.0


def as_sym_matrix(a) -> np.ndarray:
    """Validate a square matrix that is already exactly symmetric."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected square matrix, got {m.shape}")
    if m.shape[0] < 1:
        raise DimMismatch("symmetric matrix must have dim >= 1")
    if not np.array_equal(m, m.T):
        raise DimMismatch("matrix is not exactly symmetric; use symmetrize() first")
    return m


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m, for symmetric positive-definite m.

    Raises NotPositiveDefinite when the matrix is singular or indefinite;
    the documented recovery is diagonal damping (hessian.regularize) and retry.
    """
    return _lower_factor(as_sym_matrix(m))


def _lower_factor(sym: np.ndarray) -> np.ndarray:
    """`cholesky` of a matrix already checked finite and exactly symmetric."""
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if not np.all(np.diag(lower) > 0.0):
        raise NotPositiveDefinite("factor has a non-positive diagonal entry")
    return lower


def cholesky_inverse(lower: np.ndarray) -> np.ndarray:
    """Explicit symmetric inverse of the matrix whose lower factor is `lower`.

    No quantization path calls it (`inverse_upper_factor` forms no inverse).
    It stays as the tests' reference inverse, and because
    `benchmarks/tracer.py` wraps it by name.
    """
    inv = scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0]))
    require_finite(inv, "inverse")
    return symmetrize(inv)


def inverse_upper_factor(h) -> np.ndarray:
    """Upper-triangular U with U.T @ U == inverse(h), from one Cholesky.

    With J the reversal permutation, J h J = L L.T gives h = (J L J)(J L J).T
    with J L J upper triangular, so U = (J L J)^-1 = J L^-1 J: one Cholesky
    and one triangular inverse, and no explicit inverse of h.

    Row q of U carries the trailing-submatrix inverse information used by the
    sequential column updates: for the active set {q..n}, the inverse of the
    restricted matrix satisfies inv_qq == U[q,q]**2 and inv[q, k] == U[q,q]*U[q,k].
    The diagonal of the full inverse is diag(inverse(h))[k] == sum_q U[q,k]**2,
    the column sums of U**2, so no second inverse is needed to read it.

    `h` must be a float64 array, finite and exactly symmetric, as
    `hessian.regularize` returns it: it is not checked again here. It is
    factorized through a reversed view, and the result is a reversed view
    of dtrtri's output (its Fortran-ordered copy of the factor, inverted in
    place). Beyond `h`, no d x d array is made but the factor, that copy
    and LAPACK's work copy in the Cholesky.
    """
    lower = _lower_factor(h[::-1, ::-1])
    inv, info = scipy.linalg.lapack.dtrtri(lower, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"triangular inverse failed (info={info})")
    return require_finite(inv[::-1, ::-1], "inverse factor")
