"""Linear state-machine operations: least-squares estimates, the radius
scalar, ellipsoid bonuses, pair selection, greedy selection, the hybrid
trigger, server merges, and the stopping rule composition."""

from fractions import Fraction

import numpy as np
import pytest

from fedpex.linalg import cholesky, forward_sub, quad_form_inv
from fedpex.mab import AgentState
from fedpex.linear import (
    LinServerState,
    c_scalar,
    check_trigger_hybrid,
    pair_widths,
    rls_estimate,
    select_arm_greedy,
    select_pair_linear,
    server_merge_linear,
    stopping_linear,
)


def rhs_of(contexts):
    """The stop check's right-hand side buffer: the contexts and a row for resp."""
    return np.concatenate((contexts, np.zeros((1, contexts.shape[1]))))


def make_agent(cov, x, counts, target=1):
    """An agent whose frozen target is x, with target_q = x^T cov^{-1} x; the
    trigger takes the number of pulls of x since its download."""
    cov = np.asarray(cov, dtype=float)
    x = np.asarray(x, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    snapshot = LinServerState(cov, np.zeros(cov.shape[0]), counts, int(counts.sum()))
    # trigger_limit -1: check_trigger_hybrid, the rule under test, does not read it
    return AgentState(snapshot, target, -1, quad_form_inv(cov, x))


class TestRlsEstimate:
    def test_identity(self):
        np.testing.assert_allclose(rls_estimate(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0])

    def test_scaled_identity(self):
        np.testing.assert_allclose(rls_estimate(2 * np.eye(2), np.array([2.0, 0.0])), [1.0, 0.0])

    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(8)
        d = 4
        theta_true = rng.standard_normal(d)
        theta_true /= np.linalg.norm(theta_true) * 1.5
        cov = 1e-8 * np.eye(d)
        resp = np.zeros(d)
        for _ in range(60):
            x = rng.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            cov += np.outer(x, x)
            resp += float(x @ theta_true) * x
        theta_hat = rls_estimate(cov, resp)
        assert np.abs(theta_hat - theta_true).max() <= 1e-6


class TestCScalar:
    def test_reference_value(self):
        # frozen from independent high-precision evaluation: coefficient
        # sqrt(2)+sqrt(2) = 2 sqrt(2), inner = 1 + 50/0.7
        v = c_scalar(50, 3, 0.1, 0.4, 0.7, 1.0, 0.0, 1)
        assert v == pytest.approx(6.123322415212311, abs=1e-12)

    def test_monotone_in_samples(self):
        lo = c_scalar(10, 5, 0.05, 0.3, 1.0, 0.01, 0.01, 10)
        hi = c_scalar(100, 5, 0.05, 0.3, 1.0, 0.01, 0.01, 10)
        assert lo < hi

    def test_zero_noise_collapses_to_sqrt_ridge(self):
        assert c_scalar(500, 5, 0.05, 0.0, 0.81, 0.01, 0.01, 10) == pytest.approx(0.9)

    def test_accepts_fractions(self):
        v = c_scalar(50, 3, 0.1, 0.4, 0.7, Fraction(1), Fraction(0), 1)
        assert v == pytest.approx(6.123322415212311, abs=1e-12)


def width(cov, y, c):
    """c * ||y||_{cov^-1}: the width pair_widths gives arm 1 against arm 0 at x_0 - x_1 = y."""
    contexts = np.vstack([y, np.zeros_like(y)])
    zx = forward_sub(cholesky(np.asarray(cov, dtype=float)), contexts.T)
    return pair_widths(zx, 0)[1] * c


class TestBonusLinear:
    def test_identity_cov(self):
        assert width(np.eye(2), np.array([3.0, 4.0]), 2.0) == pytest.approx(10.0)

    def test_zero_direction(self):
        assert width(np.eye(2), np.zeros(2), 5.0) == 0.0

    def test_linear_in_radius(self):
        y = np.array([0.3, -0.7])
        cov = np.array([[2.0, 0.1], [0.1, 1.0]])
        assert width(cov, y, 4.0) == pytest.approx(2 * width(cov, y, 2.0))


class TestSelectPairLinear:
    def test_two_arms(self):
        i, j = select_pair_linear(np.array([1.0, 0.0]), np.eye(2), np.eye(2), 3.0)
        assert (i, j) == (1, 2)

    def test_zero_radius_gives_second_best(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        theta = np.array([1.0, 0.2])
        i, j = select_pair_linear(theta, contexts, np.eye(2), 0.0)
        assert i == 1
        assert j == 3  # rewards 1.0, 0.2, 0.6

    def test_duplicate_contexts_tie_low_index(self):
        contexts = np.array([[0.8, 0.0], [0.3, 0.1], [0.3, 0.1]])
        i, j = select_pair_linear(np.array([1.0, 0.0]), contexts, np.eye(2), 1.0)
        assert i == 1 and j == 2


def greedy(cov, contexts, y):
    """select_arm_greedy on y and the contexts whitened by cov's Cholesky factor."""
    z = forward_sub(cholesky(cov), np.column_stack((y, contexts.T)))
    return select_arm_greedy(z[:, 0], z[:, 1:])


class TestSelectArmGreedy:
    def test_symmetry_tie(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = contexts[0] - contexts[1]
        assert greedy(np.eye(2), contexts, y) == 1

    def test_reduces_uncertain_direction(self):
        # V=diag(100,1), y=e2: adding e1 leaves y'V^{-1}y = 1, adding e2 halves it
        contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0.0, 1.0])
        assert greedy(np.diag([100.0, 1.0]), contexts, y) == 2

    def test_zero_direction_low_index(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert greedy(np.eye(2), contexts, np.zeros(2)) == 1


class TestHybridTrigger:
    # gamma2 is passed as its ratio (num, den); (10**9, 1) keeps the count rule quiet

    def test_determinant_condition_fires(self):
        agent = make_agent(np.eye(2), [1.0, 0.0], [5, 5])
        assert check_trigger_hybrid(agent, 1, 0.01, (10**9, 1))  # det doubles

    def test_quiet_with_no_data(self):
        agent = make_agent(np.eye(2), [1.0, 0.0], [5, 5])
        assert not check_trigger_hybrid(agent, 0, 0.01, (1, 100))

    def test_count_condition_fires_alone(self):
        agent = make_agent(np.eye(2), [1.0, 0.0], [1000, 1000])
        # det doubles, which stays below 1 + gamma1 = 11 ...
        assert not check_trigger_hybrid(agent, 1, 10.0, (10**9, 1))
        # ... so only the count ratio 2001/2000 > 1 + 1e-6 fires
        assert check_trigger_hybrid(agent, 1, 10.0, (1, 10**6))

    def test_determinant_condition_below_threshold(self):
        # det doubles; with gamma1=1.25 the ratio 2 <= 2.25 stays quiet
        agent = make_agent(np.eye(2), [1.0, 0.0], [50, 50])
        assert not check_trigger_hybrid(agent, 1, 1.25, (10**9, 1))
        # and just under the growth it fires
        assert check_trigger_hybrid(agent, 1, 0.9, (10**9, 1))


def outers_of(contexts):
    return contexts[:, :, None] * contexts[:, None, :]


class TestServerMergeLinear:
    def test_zero_merge_identity(self):
        contexts = np.array([[0.8, 0.1], [0.2, 0.7]])
        server = LinServerState(np.eye(2), np.zeros(2), np.array([1, 1], dtype=np.int64), 2)
        out = server_merge_linear(server, 1, 0, 0.0, outers_of(contexts), contexts)
        assert np.array_equal(out.cov, server.cov) and out.counts_total == 2
        assert np.array_equal(out.counts, server.counts) and out.counts is not server.counts

    def test_merges_commute(self):
        rng = np.random.default_rng(3)
        contexts = rng.standard_normal((2, 3))
        server = LinServerState(np.eye(3), rng.standard_normal(3), np.ones(2, dtype=np.int64), 2)
        ca, cb = (1, 1, 0.4), (2, 2, -0.2)

        def merge(state, arm, n, reward_sum):
            return server_merge_linear(state, arm, n, reward_sum, outers_of(contexts), contexts)

        ab = merge(merge(server, *ca), *cb)
        ba = merge(merge(server, *cb), *ca)
        np.testing.assert_allclose(ab.cov, ba.cov)
        np.testing.assert_allclose(ab.resp, ba.resp)
        assert np.array_equal(ab.counts, ba.counts) and ab.counts.tolist() == [2, 3]

    def test_global_identity_after_flush(self):
        rng = np.random.default_rng(4)
        ridge = 0.5
        d = 3
        contexts = rng.standard_normal((5, d))
        server = LinServerState(ridge * np.eye(d), np.zeros(d), np.zeros(5, dtype=np.int64), 0)
        total, resp = ridge * np.eye(d), np.zeros(d)
        for a, n in enumerate([1, 3, 1, 2, 4]):
            x = contexts[a]
            total += n * np.outer(x, x)
            resp += 0.1 * x
            server = server_merge_linear(server, a + 1, n, 0.1, outers_of(contexts), contexts)
        np.testing.assert_allclose(server.cov, total)
        np.testing.assert_allclose(server.resp, resp)
        assert server.counts.tolist() == [1, 3, 1, 2, 4] and server.counts_total == 11


class TestStoppingLinear:
    def test_zero_radius_stops_on_separation(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
        server = LinServerState(
            10 * np.eye(2), 10 * np.array([0.9, 0.1]), np.array([5, 5], dtype=np.int64), 10
        )
        b = stopping_linear(server, rhs_of(contexts), 0.0).b
        assert b < 0.0

    def test_duplicate_best_contexts_keep_running(self):
        contexts = np.array([[0.9, 0.0], [0.9, 0.0], [0.0, 0.5]])
        server = LinServerState(
            10 * np.eye(2), 10 * np.array([0.9, 0.0]), np.array([4, 3, 3], dtype=np.int64), 10
        )
        b = stopping_linear(server, rhs_of(contexts), c_scalar(10, 2, 0.05, 0.3, 1.0, 0.01, 0.01, 10)).b
        assert b > 0.0

    def test_composition_matches_audited_pieces(self):
        # B assembled by hand from rls_estimate + c_scalar + the ellipsoid width
        contexts = np.array([[0.8, 0.1], [0.2, 0.7]])
        cov = np.array([[6.0, 1.0], [1.0, 4.0]])
        resp = np.array([3.0, 1.0])
        server = LinServerState(cov, resp, np.array([6, 3], dtype=np.int64), 9)
        c = c_scalar(9, 2, 0.05, 0.3, 1.0, 0.01, 0.02, 10)
        i, j, b, _lower = stopping_linear(server, rhs_of(contexts), c)
        theta = rls_estimate(cov, resp)
        rewards = contexts @ theta
        i0 = int(np.argmax(rewards))
        y = contexts[i0] - contexts[1 - i0]
        want = rewards[1 - i0] - rewards[i0] + np.sqrt(quad_form_inv(cov, y)) * c
        assert i == i0 + 1 and j == 2 - i0
        assert b == pytest.approx(want, rel=1e-12)
