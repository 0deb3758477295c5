"""Small dense symmetric-positive-definite kernel: Cholesky factorization,
triangular solves, SPD solves and inverse quadratic forms.

The kernels call numpy's LAPACK gufuncs directly, skipping the public
wrappers' checks and error-state set-up; `np.linalg.cholesky` and
`np.linalg.solve` run the same gufuncs, so results are bit-equal, and they
stand in when numpy lacks the private `_umath_linalg` module. The
triangular solves accept a d x n right-hand side, so n quadratic forms
cost one call.
"""

from __future__ import annotations

import numpy as np

try:
    from numpy.linalg._umath_linalg import cholesky_lo as _potrf, solve as _gesv, solve1 as _gesv1
except ImportError:  # a numpy without the private module: the public calls
    _cholesky_lo, _solve = np.linalg.cholesky, np.linalg.solve
else:

    def _cholesky_lo(a: np.ndarray) -> np.ndarray:
        return _potrf(a, signature="d->d")

    def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (_gesv1 if b.ndim == 1 else _gesv)(a, b, signature="dd->d")


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot: the matrix is not SPD."""


_SYM_TOL = 1e-12
_PIVOT_TOL = 1e-14


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with a = L L^T.

    Raises NotPositiveDefiniteError when LAPACK rejects the matrix (the
    gufunc returns NaNs, which fail the pivot test) or a pivot L_jj^2 falls
    at or below 1e-14 * trace(a), without a floating-point warning; raises
    ValueError if the input is visibly asymmetric.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if a.tobytes() != a.T.tobytes():
        scale = np.abs(a).max()
        if scale > 0 and np.abs(a - a.T).max() > _SYM_TOL * scale:
            raise ValueError("matrix is not symmetric")
    return cholesky_symmetric(a)


@np.errstate(all="ignore")
def cholesky_symmetric(a: np.ndarray) -> np.ndarray:
    """`cholesky` of a square float matrix that is bitwise symmetric, as every
    merged server covariance is, without the shape and symmetry checks; the
    pivot test and its warning-free NotPositiveDefiniteError stay."""
    try:
        lower = _cholesky_lo(a)
    except np.linalg.LinAlgError as exc:  # the public fallback raises instead
        raise NotPositiveDefiniteError(str(exc)) from None
    # d is small: Python floats beat numpy reductions here
    thresh = _PIVOT_TOL * sum(a.diagonal().tolist())
    for j, ljj in enumerate(lower.diagonal().tolist()):
        if not ljj * ljj > thresh:  # also true for NaN
            raise NotPositiveDefiniteError(f"pivot {ljj * ljj:.3e} at column {j}")
    return lower


def forward_sub(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L z = b for a factor L from `cholesky`; b is a vector or a d x n matrix."""
    return _solve(lower, b)


def back_sub(lower: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve L^T x = z for a factor L from `cholesky`; z is a vector or a d x n matrix."""
    return _solve(lower.T, z)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system A x = b."""
    lower = cholesky(a)
    return back_sub(lower, forward_sub(lower, np.asarray(b, dtype=float)))


def quad_form_inv(a: np.ndarray, y: np.ndarray) -> float:
    """y^T A^{-1} y, computed as |L^{-1} y|^2 so the result is nonnegative."""
    z = forward_sub(cholesky(a), np.asarray(y, dtype=float))
    return float(z @ z)
