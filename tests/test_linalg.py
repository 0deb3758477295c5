"""SPD kernel tests: reconstruction/residual oracles, monotonicity laws and
the NotPositiveDefiniteError contract.

A hand-rolled cofactor expansion serves as the independent determinant
oracle. The error contract is checked under both kernels the module can
run on: numpy's LAPACK gufuncs and the public np.linalg fallback.
"""

import warnings

import numpy as np
import pytest

from fedpex import linalg
from fedpex.linalg import (
    NotPositiveDefiniteError,
    cholesky,
    quad_form_inv,
    solve,
)


def logdet(a):
    """log det(A) from the diagonal of its Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(cholesky(a)))))


def random_spd(rng, d, lam=0.5, n_vecs=None):
    n_vecs = n_vecs if n_vecs is not None else d + 2
    a = lam * np.eye(d)
    for _ in range(n_vecs):
        x = rng.standard_normal(d)
        a += np.outer(x, x)
    return a


def det_cofactor(a):
    """Independent determinant via cofactor expansion (first row)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * a[0, j] * det_cofactor(minor)
    return total


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = random_spd(rng, d)
            lower = cholesky(a)
            err = np.abs(lower @ lower.T - a).max()
            assert err <= 1e-10 * (1.0 + np.abs(a).max())
            assert np.abs(np.triu(lower, 1)).max() == 0.0

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.zeros((3, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0])
        np.testing.assert_array_equal(solve(np.eye(2), b), b)

    def test_diagonal(self):
        x = solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_residual_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            a = random_spd(rng, d)
            b = rng.standard_normal(d)
            x = solve(a, b)
            assert np.abs(a @ x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())


class TestLogdet:
    def test_identity_zero(self):
        for d in (1, 3, 7):
            assert logdet(np.eye(d)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet(np.diag([4.0, 9.0])) == pytest.approx(np.log(36.0), rel=1e-12)

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = random_spd(rng, 3)
            assert np.exp(logdet(a)) == pytest.approx(det_cofactor(a), rel=1e-9)

    def test_psd_addition_monotonicity(self):
        # logdet(lam I + sum xx^T) >= d log lam for any vectors and lam > 0
        rng = np.random.default_rng(14)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            lam = float(rng.uniform(0.01, 3.0))
            n = int(rng.integers(0, 10))
            a = random_spd(rng, d, lam=lam, n_vecs=n)
            assert logdet(a) >= d * np.log(lam) - 1e-10


class TestQuadFormInv:
    def test_identity(self):
        assert quad_form_inv(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_diagonal(self):
        assert quad_form_inv(np.diag([25.0, 1.0]), np.array([5.0, 0.0])) == pytest.approx(1.0)

    def test_agrees_with_solve(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            d = int(rng.integers(1, 10))
            a = random_spd(rng, d)
            y = rng.standard_normal(d)
            direct = float(y @ solve(a, y))
            assert abs(quad_form_inv(a, y) - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            a = random_spd(rng, 4)
            y = rng.standard_normal(4)
            assert quad_form_inv(a, y) >= 0.0

    def test_decreases_under_rank_one_growth(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a = random_spd(rng, d)
            y = rng.standard_normal(d)
            x = rng.standard_normal(d)
            before = quad_form_inv(a, y)
            after = quad_form_inv(a + np.outer(x, x), y)
            assert after <= before + 1e-10


# The kernels cholesky can run on: numpy's LAPACK gufunc and the public call
# that replaces it when numpy lacks the private module.
KERNELS = {"gufunc": linalg._cholesky_lo, "public": np.linalg.cholesky}

# 2^-48 has the exact square root 2^-24, so this diagonal's second pivot is
# exactly 1e-14 * trace.
_AT_PIVOT = 2.0**-48
_AT_REST = _AT_PIVOT / 1e-14 - _AT_PIVOT


# every matrix here is bitwise symmetric, so the driver's factorization,
# which skips the symmetry check, must reject each one as `cholesky` does
NOT_POSITIVE_DEFINITE = [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    -np.eye(3),
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    np.zeros((2, 2)),
    np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.diag([1.0, np.nan]),
    np.full((2, 2), np.nan),
    np.diag([np.inf, 1.0]),
    np.diag([1.0, 5e-15]),
    np.diag([_AT_REST, _AT_PIVOT]),
]
NOT_POSITIVE_DEFINITE_IDS = [
    "indefinite", "negative", "singular", "zero", "rank-one", "nan-offdiagonal",
    "nan-diagonal", "all-nan", "inf", "pivot-below-threshold", "pivot-at-threshold",
]


class TestNotPositiveDefiniteContract:
    """Every rejected matrix raises the documented error, with warnings as
    errors and under a raising numpy errstate, and no factor is returned."""

    @pytest.fixture(params=sorted(KERNELS))
    def kernel(self, request, monkeypatch):
        monkeypatch.setattr(linalg, "_cholesky_lo", KERNELS[request.param])
        return request.param

    @pytest.mark.parametrize("a", NOT_POSITIVE_DEFINITE, ids=NOT_POSITIVE_DEFINITE_IDS)
    @pytest.mark.parametrize("fp_errors", ["warn", "raise"])
    def test_raises_not_positive_definite(self, kernel, a, fp_errors):
        with warnings.catch_warnings(), np.errstate(all=fp_errors):
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                cholesky(a)

    @pytest.mark.parametrize("a", NOT_POSITIVE_DEFINITE, ids=NOT_POSITIVE_DEFINITE_IDS)
    def test_driver_factorization_raises_not_positive_definite(self, kernel, a):
        assert a.tobytes() == a.T.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                linalg.cholesky_symmetric(a)

    def test_threshold_case_is_exact(self):
        assert np.sqrt(_AT_PIVOT) ** 2 == _AT_PIVOT == 1e-14 * (_AT_REST + _AT_PIVOT)

    def test_asymmetric_is_a_plain_value_error(self, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert type(info.value) is ValueError

    def test_accepted_factor_is_finite(self, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = cholesky(np.diag([1.0, 3e-14]))
        assert np.isfinite(lower).all()
