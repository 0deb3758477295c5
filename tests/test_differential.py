"""Differential tests: every fast path of the linear layers against the slow
path it replaced.

The reference functions below are the former pure-Python kernels and
per-arm loops, kept here only as oracles: the loop Cholesky and triangular
solves, the log-determinant trigger, per-arm width scoring, and the greedy
rule that refactors cov + x x^T for every arm. Snapshots are random SPD
matrices at d = 2, 5, 10.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fedpex import linear as lin
from fedpex.core import RunConfig, gen_gap_instance_linear, make_rng
from fedpex.baselines import SyncConfig, run_synchronous
from fedpex.linalg import NotPositiveDefiniteError, cholesky, quad_form_inv, solve
from fedpex.runner import run_falinpe

DIMS = (2, 5, 10)


# ---------------------------------------------------------------------------
# Reference implementations (the replaced slow paths)
# ---------------------------------------------------------------------------


def ref_cholesky(a):
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    thresh = 1e-14 * float(np.trace(a))
    lower = np.zeros((d, d))
    for j in range(d):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= thresh:
            raise NotPositiveDefiniteError(f"pivot {pivot:.3e} at column {j}")
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < d:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / ljj
    return lower


def ref_forward_sub(lower, b):
    d = lower.shape[0]
    z = np.empty(d)
    for i in range(d):
        z[i] = (b[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    return z


def ref_back_sub(lower, z):
    d = lower.shape[0]
    x = np.empty(d)
    for i in range(d - 1, -1, -1):
        x[i] = (z[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x


def ref_solve(a, b):
    lower = ref_cholesky(a)
    return ref_back_sub(lower, ref_forward_sub(lower, b))


def ref_logdet(a):
    return 2.0 * float(np.sum(np.log(np.diag(ref_cholesky(a)))))


def ref_quad_form_inv(a, y):
    z = ref_forward_sub(ref_cholesky(a), y)
    return float(z @ z)


def ref_trigger(agent, gamma1, gamma2):
    """The count rule, then logdet(cov + pending_cov) > log(1+g1) + logdet(cov)."""
    g2 = Fraction(gamma2)
    lhs = (agent.counts_total + agent.pending_total) * g2.denominator
    rhs = (g2.denominator + g2.numerator) * agent.counts_total
    if lhs > rhs:
        return True
    if agent.pending_total == 0:
        return False
    grown = ref_logdet(agent.cov + agent.pending_cov)
    return grown > math.log1p(float(gamma1)) + ref_logdet(agent.cov)


def ref_scores(rewards, contexts, cov, c):
    i = int(np.argmax(rewards))
    scores = np.empty(len(rewards))
    for k in range(len(rewards)):
        if k == i:
            scores[k] = -np.inf
            continue
        width = math.sqrt(ref_quad_form_inv(cov, contexts[i] - contexts[k])) * c
        scores[k] = rewards[k] - rewards[i] + width
    return i, scores


def ref_stopping(cov, resp, contexts, c):
    theta = ref_solve(cov, resp)
    i, scores = ref_scores(contexts @ theta, contexts, cov, c)
    j = int(np.argmax(scores))
    return i + 1, j + 1, float(scores[j])


def ref_greedy(cov, contexts, y, sense):
    vals = np.array([ref_quad_form_inv(cov + np.outer(x, x), y) for x in contexts])
    return (int(np.argmin(vals)) if sense == "min" else int(np.argmax(vals))) + 1


# ---------------------------------------------------------------------------
# Random snapshots
# ---------------------------------------------------------------------------


def snapshot(rng, d, k_arms=None):
    """(cov, resp, contexts): ridge*I plus pulls of unit-ball contexts."""
    k_arms = k_arms if k_arms is not None else int(rng.integers(max(d, 3), 2 * d + 4))
    contexts = rng.standard_normal((k_arms, d))
    contexts /= np.maximum(1.0, np.linalg.norm(contexts, axis=1))[:, None]
    cov = float(rng.uniform(0.05, 1.0)) * np.eye(d)
    resp = np.zeros(d)
    for _ in range(int(rng.integers(1, 40))):
        x = contexts[int(rng.integers(k_arms))]
        cov += np.outer(x, x)
        resp += float(rng.standard_normal()) * x
    return cov, resp, contexts


def agent_at(cov, x, counts_total, n):
    return lin.LinAgentState(
        cov=cov,
        resp=np.zeros(len(x)),
        counts=np.array([counts_total], dtype=np.int64),
        pending_cov=n * np.outer(x, x),
        pending_resp=np.zeros(len(x)),
        pending_counts=np.array([n], dtype=np.int64),
        current_target=1,
        counts_total=counts_total,
        pending_total=n,
        target_context=x,
        target_outer=np.outer(x, x),
        target_q=quad_form_inv(cov, x),
    )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestCholeskyAgainstLoop:
    @pytest.mark.parametrize("d", DIMS)
    def test_factor_and_solves_agree(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            scale = np.abs(cov).max()
            np.testing.assert_allclose(cholesky(cov), ref_cholesky(cov), rtol=1e-10, atol=1e-12 * scale)
            np.testing.assert_allclose(solve(cov, resp), ref_solve(cov, resp), rtol=1e-8, atol=1e-10)
            y = contexts[0] - contexts[1]
            assert quad_form_inv(cov, y) == pytest.approx(ref_quad_form_inv(cov, y), rel=1e-9)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
            np.zeros((3, 3)),
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            -np.eye(2),
            np.diag([1.0, 5e-15]),  # LAPACK accepts it; pivot <= 1e-14 * trace
            np.diag([1.0, 1e-14, 1.0]),  # pivot below 1e-14 * trace = 2e-14
            np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) + 1e-17 * np.eye(3),  # rank one
        ],
        ids=["singular", "zero", "indefinite", "negative", "tiny-pivot", "tiny-pivot-3d", "rank-one"],
    )
    def test_not_positive_definite_cases_agree(self, a):
        with pytest.raises(NotPositiveDefiniteError):
            ref_cholesky(a)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(a)

    def test_pivot_just_above_threshold_accepted_by_both(self):
        a = np.diag([1.0, 3e-14])
        np.testing.assert_allclose(cholesky(a), ref_cholesky(a), rtol=1e-12)

    def test_asymmetric_is_a_plain_value_error_in_both(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        for fn in (ref_cholesky, cholesky):
            with pytest.raises(ValueError) as info:
                fn(a)
            assert type(info.value) is ValueError


# ---------------------------------------------------------------------------
# Linear layers
# ---------------------------------------------------------------------------


class TestClosedFormTrigger:
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_logdet_form(self, d):
        rng = np.random.default_rng(200 + d)
        checked = fired = 0
        for _ in range(40):
            cov, _resp, contexts = snapshot(rng, d)
            x = contexts[int(rng.integers(len(contexts)))]
            n = int(rng.integers(0, 30))
            agent = agent_at(cov, x, 10**6, n)
            nq = n * agent.target_q
            gammas = [float(rng.uniform(0.001, 2.0))]
            if n:
                assert nq > 0.01  # keeps the logdet margin at 1e-9 far above its rounding
                gammas += [nq * (1 - 1e-9), nq * (1 + 1e-9)]
            for g1 in gammas:
                got = lin.check_trigger_hybrid(agent, g1, 1e9)
                assert got == ref_trigger(agent, g1, 1e9), (n, nq, g1)
                checked += 1
                fired += got
        assert 0 < fired < checked

    def test_threshold_neighbours_split(self):
        rng = np.random.default_rng(7)
        cov, _resp, contexts = snapshot(rng, 5)
        agent = agent_at(cov, contexts[0], 10**6, 3)
        nq = 3 * agent.target_q
        assert lin.check_trigger_hybrid(agent, nq * (1 - 1e-9), 1e9)
        assert not lin.check_trigger_hybrid(agent, nq * (1 + 1e-9), 1e9)

    def test_count_rule_unchanged(self):
        rng = np.random.default_rng(8)
        cov, _resp, contexts = snapshot(rng, 2)
        for total, n, g2 in [(100, 1, Fraction(1, 200)), (100, 1, Fraction(1, 50)), (7, 7, 1.0), (7, 8, 1.0)]:
            agent = agent_at(cov, contexts[0], total, n)
            assert lin.check_trigger_hybrid(agent, 1e9, g2) == ref_trigger(agent, 1e9, g2)


class TestBatchedWidths:
    @pytest.mark.parametrize("d", DIMS)
    def test_widths_match_per_arm_quad_form(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(30):
            cov, _resp, contexts = snapshot(rng, d)
            lower = cholesky(cov)
            i = int(rng.integers(len(contexts)))
            want = [math.sqrt(quad_form_inv(cov, contexts[i] - x)) for x in contexts]
            np.testing.assert_allclose(lin.pair_widths(lower, contexts, i), want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("d", DIMS)
    def test_pair_and_stop_scores_match_loop(self, d):
        rng = np.random.default_rng(400 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            c = float(rng.uniform(0.0, 3.0))
            server = lin.LinServerState(cov, resp, np.ones(len(contexts), dtype=np.int64), len(contexts))
            i, j, b = lin.stopping_linear(server, contexts, d, 0.05, 0.3, 1.0, 0.01, 0.01, 10, c_override=c)
            ri, rj, rb = ref_stopping(cov, resp, contexts, c)
            assert (i, j) == (ri, rj)
            assert b == pytest.approx(rb, rel=1e-9, abs=1e-12)
            theta = ref_solve(cov, resp)
            assert lin.select_pair_linear(theta, contexts, cov, c) == (ri, rj)

    def test_duplicate_challengers_tie_to_the_lower_index(self):
        rng = np.random.default_rng(9)
        cov, resp, contexts = snapshot(rng, 5, k_arms=8)
        contexts[6] = contexts[3]
        theta = ref_solve(cov, resp)
        i, scores = ref_scores(contexts @ theta, contexts, cov, 50.0)
        want = (i + 1, int(np.argmax(scores)) + 1)
        assert lin.select_pair_linear(theta, contexts, cov, 50.0) == want


class TestShermanMorrisonGreedy:
    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_refactorization(self, d, sense):
        rng = np.random.default_rng(500 + d)
        for _ in range(30):
            cov, _resp, contexts = snapshot(rng, d)
            a, b = rng.choice(len(contexts), size=2, replace=False)
            y = contexts[a] - contexts[b]
            assert lin.select_arm_greedy(cov, contexts, y, sense) == ref_greedy(cov, contexts, y, sense)

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_duplicate_arms_and_zero_direction(self, sense):
        rng = np.random.default_rng(10)
        cov, _resp, contexts = snapshot(rng, 5, k_arms=6)
        contexts[4] = contexts[1]
        y = contexts[0] - contexts[2]
        assert lin.select_arm_greedy(cov, contexts, y, sense) == ref_greedy(cov, contexts, y, sense)
        assert lin.select_arm_greedy(cov, contexts, np.zeros(5), sense) == 1 == ref_greedy(
            cov, contexts, np.zeros(5), sense
        )


# ---------------------------------------------------------------------------
# LP memo
# ---------------------------------------------------------------------------


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts solve_l1 calls made by the linear layer."""
    calls = []
    original = lin.solve_l1

    def counted(contexts, y):
        calls.append(1)
        return original(contexts, y)

    monkeypatch.setattr(lin, "solve_l1", counted)
    return calls


def unmemoized(monkeypatch):
    """Drop the run's LP memo at every informative-arm choice."""
    original = lin.choose_informative_arm

    def without_memo(*args, lp_memo=None, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(lin, "choose_informative_arm", without_memo)


class TestLpMemo:
    @pytest.mark.parametrize("algo", ["async", "sync"])
    def test_memoized_and_unmemoized_runs_identical(self, algo, monkeypatch, lp_calls):
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(41))
        if algo == "async":
            def go():
                return run_falinpe(inst, RunConfig(n_agents=4, seed=5, epsilon=0.05))
        else:
            def go():
                return run_synchronous(inst, SyncConfig(n_agents=4, seed=5, epsilon=0.05, episode_len=5))
        memo = go()
        memo_calls = len(lp_calls)
        unmemoized(monkeypatch)
        plain = go()
        assert plain.to_json() == memo.to_json()
        k = inst.k_arms
        assert 0 < memo_calls <= k * (k - 1)
        assert len(lp_calls) - memo_calls > memo_calls  # the memo saved calls

    def test_fallback_is_memoized_too(self, lp_calls):
        contexts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        memo = {}
        for _ in range(3):
            arm, fell_back = lin.choose_informative_arm(
                np.eye(2), np.ones(3), contexts, 1, 2, "lp", "min", lp_memo=memo
            )
            assert fell_back and arm == lin.select_arm_greedy(np.eye(2), contexts, np.zeros(2))
        assert len(lp_calls) == 1 and memo == {(1, 2): None}
