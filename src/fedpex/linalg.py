"""Small dense symmetric-positive-definite kernel: Cholesky factorization,
solves, log-determinants and inverse quadratic forms.

The factorization and the triangular solves are numpy's LAPACK routines.
Callers that need several quantities of one matrix factor it once with
`cholesky` and pass the factor to the `*_factored` forms; the triangular
solves accept a d x n right-hand side, so n quadratic forms cost one call.
"""

from __future__ import annotations

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot: the matrix is not SPD."""


_SYM_TOL = 1e-12
_PIVOT_TOL = 1e-14


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with a = L L^T.

    Raises NotPositiveDefiniteError when LAPACK rejects the matrix or a
    pivot L_jj^2 falls at or below 1e-14 * trace(a), and ValueError if the
    input is visibly asymmetric.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if (a != a.T).any():
        scale = np.abs(a).max()
        if scale > 0 and np.abs(a - a.T).max() > _SYM_TOL * scale:
            raise ValueError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    diag = lower.diagonal()
    thresh = _PIVOT_TOL * float(a.trace())
    if float(diag.min()) ** 2 <= thresh:
        j = int(np.argmax(diag * diag <= thresh))
        raise NotPositiveDefiniteError(f"pivot {diag[j] ** 2:.3e} at column {j}")
    return lower


def forward_sub(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L z = b for lower-triangular L; b is a vector or a d x n matrix."""
    return np.linalg.solve(lower, b)


def back_sub(lower: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve L^T x = z for lower-triangular L; z is a vector or a d x n matrix."""
    return np.linalg.solve(lower.T, z)


def solve_factored(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A."""
    return back_sub(lower, forward_sub(lower, np.asarray(b, dtype=float)))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system A x = b."""
    return solve_factored(cholesky(a), b)


def logdet(a: np.ndarray) -> float:
    """log det(A) as 2 * sum(log L_ii)."""
    lower = cholesky(a)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def quad_form_inv(a: np.ndarray, y: np.ndarray) -> float:
    """y^T A^{-1} y, computed as |L^{-1} y|^2 so the result is nonnegative."""
    return quad_form_inv_factored(cholesky(a), y)


def quad_form_inv_factored(lower: np.ndarray, y: np.ndarray) -> float:
    z = forward_sub(lower, np.asarray(y, dtype=float))
    return float(z @ z)
