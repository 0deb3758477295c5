"""Differential tests: every fast path against the slow path it replaced.

The reference functions here and in `reference.py` are the former
implementations, kept only as oracles. For the linear layers: the loop
Cholesky and triangular solves, the log-determinant trigger, per-arm width
scoring, the greedy rule that refactors cov + x x^T for every arm, the
per-solve target choice that whitens afresh, and the loop
informative_arm_lp, on random SPD snapshots at d = 2, 5, 10; and the hybrid
rule itself against the integer trigger limit fixed at download. For both
families' message paths: the exact rational trigger, the masked MAB merge,
a stop check that computes the widths from the counts and B from numpy
scalars, and a download that recomputes the target from the snapshot. For
both families' merges: reward sums that add every pull as it happens,
merged for falinpe by a second copy of its rule (n x x^T and the sum times
x), and set-up's K one-pull merges into the empty state against the former
`init`. For whole runs: `reference.py`'s per-round loops, asynchronous and
synchronous, which draw every activation with `rng.integers` and every
reward with `sample_reward_mab` one pull at a time, or take the active
agents from a fixed sequence; they also catch a mis-folded reward sum,
which the audit takes from the driver. For famabpe's uploads: a replay of
the activations alone, with one count per agent and no reward.
"""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from fedpex import baselines, linalg, runner, stream
from fedpex import linear as lin
from fedpex import mab
from fedpex.core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    make_rng,
    sample_reward_mab,
)
from fedpex.baselines import SyncConfig, run_single_agent, run_synchronous
from fedpex.design_lp import (
    SUPPORT_TOL,
    NoSupportError,
    design_support,
    informative_arm_lp,
)
from fedpex.linalg import NotPositiveDefiniteError, back_sub, cholesky, forward_sub, quad_form_inv, solve
from fedpex.runner import (
    ActivationSchedule,
    AuditError,
    LinearFamily,
    MabFamily,
    run_falinpe,
    run_famabpe,
)
from reference import (
    assert_replayed,
    assert_same,
    combined,
    fixed,
    logged_uploads,
    ref_bonuses_mab,
    ref_breaking_index,
    ref_choose,
    ref_download,
    ref_family,
    ref_informative_arm_lp,
    ref_merge_linear,
    ref_merge_mab,
    ref_next_agent,
    ref_select_arm_greedy,
    ref_stop_check,
    ref_trigger_mab,
    replay_uploads,
    run_async,
)

DIMS = (2, 5, 10)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def ref_trigger(agent, n, x, gamma1, gamma2):
    """For an agent holding n pulls of x: the count rule, then
    logdet(cov + n x x^T) > log(1+g1) + logdet(cov)."""
    snap = agent.snapshot
    g2 = Fraction(gamma2)
    lhs = (snap.counts_total + n) * g2.denominator
    rhs = (g2.denominator + g2.numerator) * snap.counts_total
    if lhs > rhs:
        return True
    if n == 0:
        return False
    grown = ref_logdet(snap.cov + n * np.outer(x, x))
    return grown > math.log1p(float(gamma1)) + ref_logdet(snap.cov)


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


def ref_greedy(cov, contexts, y):
    vals = np.array([ref_quad_form_inv(cov + np.outer(x, x), y) for x in contexts])
    return int(np.argmin(vals)) + 1


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


def rhs_of(contexts):
    """A stop check's right-hand side buffer: the contexts and a row for resp."""
    return np.concatenate((contexts, np.zeros((1, contexts.shape[1]))))


def run_of(contexts, arm_select, gamma=Fraction(1, 100)):
    """What download_linear reads of a run, resolved as runner.LinearFamily
    resolves it, at gamma1 = gamma2 = gamma."""
    return SimpleNamespace(
        contexts=contexts,
        outers=contexts[:, :, None] * contexts[:, None, :],
        g1=float(gamma),
        limit_ratio=gamma.as_integer_ratio(),
        arm_select=arm_select,
        lp_memo={},
    )


def agent_at(cov, x, counts_total):
    """An agent whose target is x since it downloaded (cov, counts_total)."""
    snapshot = lin.LinServerState(cov, np.zeros(len(x)), np.array([counts_total], dtype=np.int64), counts_total)
    # trigger_limit -1: check_trigger_hybrid, the rule under test, does not read it
    return mab.AgentState(snapshot, 1, -1, quad_form_inv(cov, x))


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
            agent = agent_at(cov, x, 10**6)
            nq = n * agent.target_q
            gammas = [float(rng.uniform(0.001, 2.0))]
            if n:
                assert nq > 0.01  # keeps the logdet margin at 1e-9 far above its rounding
                gammas += [nq * (1 - 1e-9), nq * (1 + 1e-9)]
            for g1 in gammas:
                got = lin.check_trigger_hybrid(agent, n, g1, (10**9, 1))
                assert got == ref_trigger(agent, n, x, g1, 1e9), (n, nq, g1)
                checked += 1
                fired += got
        assert 0 < fired < checked

    def test_threshold_neighbours_split(self):
        rng = np.random.default_rng(7)
        cov, _resp, contexts = snapshot(rng, 5)
        agent = agent_at(cov, contexts[0], 10**6)
        nq = 3 * agent.target_q
        assert lin.check_trigger_hybrid(agent, 3, nq * (1 - 1e-9), (10**9, 1))
        assert not lin.check_trigger_hybrid(agent, 3, nq * (1 + 1e-9), (10**9, 1))

    def test_count_rule_unchanged(self):
        rng = np.random.default_rng(8)
        cov, _resp, contexts = snapshot(rng, 2)
        for total, n, g2 in [(100, 1, Fraction(1, 200)), (100, 1, Fraction(1, 50)), (7, 7, 1.0), (7, 8, 1.0)]:
            agent = agent_at(cov, contexts[0], total)
            got = lin.check_trigger_hybrid(agent, n, 1e9, g2.as_integer_ratio())
            assert got == ref_trigger(agent, n, contexts[0], 1e9, g2)


def limit_agrees(counts_total, q, gamma1, gamma2):
    """trigger_limit_linear against check_trigger_hybrid at every pending
    count from limit - 3 to limit + 3, both at g1 = float(gamma1) and gamma2's
    ratio (num, den) (gamma2 = 0: the forced ratio (0, 1)); returns the limit."""
    g1, ratio = float(gamma1), Fraction(gamma2).as_integer_ratio()
    limit = lin.trigger_limit_linear(counts_total, q, g1, ratio)
    agent = mab.AgentState(SimpleNamespace(counts_total=counts_total), 1, limit, q)
    for n in range(max(0, limit - 3), limit + 4):
        fired = lin.check_trigger_hybrid(agent, n, g1, ratio)
        assert fired == (n > limit), (counts_total, q, gamma1, gamma2, n)
    return limit


def count_limit(counts_total, gamma2):
    g = Fraction(gamma2)
    return g.numerator * counts_total // g.denominator


class TestTriggerLimitLinear:
    def test_random_cases(self):
        rng = np.random.default_rng(1400)
        binds = {"count": 0, "det": 0}
        for case in range(12_000):
            total = int(10 ** rng.uniform(0, 7))
            if case % 3 == 0:
                gamma2 = Fraction(1, int(rng.integers(1, 2_000)))
            elif case % 3 == 1:
                gamma2 = float(10 ** rng.uniform(-4, 0.5))
            else:
                gamma2 = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 5_000)))
            m = int(rng.integers(1, 40))
            gamma1 = Fraction(1, m * m) if case % 2 else float(10 ** rng.uniform(-4, 1))
            # the determinant limit gamma1/q lands within a factor 100 of the count limit
            q = float(gamma1) / (max(count_limit(total, gamma2), 1) * 10 ** rng.uniform(-2, 2))
            limit = limit_agrees(total, q, gamma1, gamma2)
            binds["count" if limit == count_limit(total, gamma2) else "det"] += 1
        assert min(binds.values()) > 2_000, binds

    def test_ratio_near_the_count_limit(self):
        # gamma1/q at the count limit L (within two ulps of q, where
        # fl(gamma1/q) >= L can come with fl(L q) > gamma1) or a few units off it
        rng = np.random.default_rng(1401)
        for _ in range(2_000):
            total = int(rng.integers(1, 10**6))
            gamma2 = Fraction(1, int(rng.integers(1, 100)))
            gamma1 = float(10 ** rng.uniform(-3, 1))
            limit = count_limit(total, gamma2)
            for target in (limit, limit + float(rng.uniform(-3, 3))):
                if target <= 0:
                    continue
                q = gamma1 / target
                below, above = math.nextafter(q, 0.0), math.nextafter(q, math.inf)
                for qq in (math.nextafter(below, 0.0), below, q, above, math.nextafter(above, math.inf)):
                    limit_agrees(total, qq, gamma1, gamma2)

    def test_exact_products(self):
        # gamma1 == fl(n q) keeps n quiet, one ulp below fires at n; int(gamma1/q)
        # then often needs a step down or up (the count limit is far off)
        rng = np.random.default_rng(1402)
        for _ in range(2_000):
            q = float(10 ** rng.uniform(-6, 0))
            n = int(rng.integers(1, 10**5))
            below, above = math.nextafter(n * q, 0.0), math.nextafter(n * q, math.inf)
            assert limit_agrees(10**6, q, n * q, Fraction(10**9)) >= n
            assert limit_agrees(10**6, q, below, Fraction(10**9)) < n
            limit_agrees(10**6, q, above, 1e9)
        assert limit_agrees(10**6, 0.25, 1.0, 1e9) == 4
        assert 3 * 0.1 == 0.30000000000000004
        assert limit_agrees(10**6, 0.1, 0.30000000000000004, 1e9) == 3

    def test_edge_cases(self):
        for gamma2 in (Fraction(1, 50), 0.02, 1e9):
            want = count_limit(100, gamma2)
            # a zero context: the determinant rule never fires
            assert limit_agrees(100, 0.0, 0.01, gamma2) == want
            # subnormal q: gamma1/q overflows to inf, or is finite and huge
            assert 0.01 / 5e-324 == math.inf
            assert limit_agrees(100, 5e-324, 0.01, gamma2) == want
            assert limit_agrees(100, 1e-310, 0.01, gamma2) == want
        # the count limit binds before the determinant limit, and the reverse
        assert limit_agrees(100, 1e-3, 1.0, Fraction(1, 50)) == 2
        assert limit_agrees(100, 1e-3, Fraction(1, 100), Fraction(1, 2)) == 10
        assert limit_agrees(10**6, 0.01, 0.05, 0.5) == 5
        # a count limit beyond 2^52 pulls
        assert limit_agrees(10**7, 1e-20, 1.0, 1e9) == count_limit(10**7, 1e9)

    def test_forced_ratio(self):
        # forced communication, gamma2's ratio (0, 1), fixes a limit of 0 whatever q and gamma1
        for total in (5, 100, 10**7):
            for q, gamma1 in ((0.0, 0.01), (5e-324, 0.01), (1e-3, 1.0), (0.5, 1e9), (2.0, 0.5)):
                assert limit_agrees(total, q, gamma1, 0) == 0


class TestBatchedWidths:
    @pytest.mark.parametrize("d", DIMS)
    def test_widths_match_per_arm_quad_form(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(30):
            cov, _resp, contexts = snapshot(rng, d)
            zx = forward_sub(cholesky(cov), contexts.T)
            i = int(rng.integers(len(contexts)))
            want = [math.sqrt(quad_form_inv(cov, contexts[i] - x)) for x in contexts]
            np.testing.assert_allclose(lin.pair_widths(zx, i), want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("d", DIMS)
    def test_pair_and_stop_scores_match_loop(self, d):
        rng = np.random.default_rng(400 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            c = float(rng.uniform(0.0, 3.0))
            server = lin.LinServerState(cov, resp, np.ones(len(contexts), dtype=np.int64), len(contexts))
            i, j, b, _lower = lin.stopping_linear(server, rhs_of(contexts), c)
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
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_refactorization(self, d):
        rng = np.random.default_rng(500 + d)
        for _ in range(30):
            cov, _resp, contexts = snapshot(rng, d)
            a, b = rng.choice(len(contexts), size=2, replace=False)
            y = contexts[a] - contexts[b]
            assert ref_select_arm_greedy(cov, contexts, y) == ref_greedy(cov, contexts, y)

    def test_duplicate_arms_and_zero_direction(self):
        rng = np.random.default_rng(10)
        cov, _resp, contexts = snapshot(rng, 5, k_arms=6)
        contexts[4] = contexts[1]
        y = contexts[0] - contexts[2]
        assert ref_select_arm_greedy(cov, contexts, y) == ref_greedy(cov, contexts, y)
        assert ref_select_arm_greedy(cov, contexts, np.zeros(5)) == 1 == ref_greedy(cov, contexts, np.zeros(5))


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
    """Pass a fresh LP memo in place of the run's at every informative-arm choice."""
    original = lin.choose_informative_arm

    def without_memo(*args, lp_memo, **kwargs):
        return original(*args, lp_memo={}, **kwargs)

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
        zx = forward_sub(cholesky(np.eye(2)), contexts.T)
        memo = {}
        for _ in range(3):
            arm, fell_back = lin.choose_informative_arm(np.ones(3), contexts, 1, 2, "lp", zx, memo)
            assert fell_back and arm == ref_select_arm_greedy(np.eye(2), contexts, np.zeros(2))
        assert len(lp_calls) == 1 and memo == {(1, 2): None}


class TestOneSupportDefinition:
    """informative_arm_lp, on counts as a list and as int64, and the
    download's memo path pick the loop's arm: the support is the arms with
    p_k > SUPPORT_TOL, and ties in counts_k / p_k go to the lowest index."""

    @staticmethod
    def arms(counts, p):
        p = np.asarray(p, dtype=float)
        array = np.array(counts, dtype=np.int64)
        # a memo that holds the pair's support is all the LP branch reads
        eye, memo = np.eye(len(p)), {(1, 2): design_support(p)}
        via_memo, fell_back = lin.choose_informative_arm(array, eye, 1, 2, "lp", eye, memo)
        assert not fell_back
        want = ref_informative_arm_lp(counts, p)
        assert ref_informative_arm_lp(array, p) == want
        return {informative_arm_lp(counts, p), informative_arm_lp(array, p), via_memo, want}

    def test_random_designs(self):
        rng = np.random.default_rng(1300)
        for _ in range(500):
            k = int(rng.integers(1, 12))
            p = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
            p[int(rng.integers(k))] = float(rng.uniform(0.01, 1.0))
            counts = rng.integers(0, 50, size=k).tolist()
            assert len(self.arms(counts, p)) == 1

    def test_tolerance_edge(self):
        # an arm at exactly SUPPORT_TOL is out however few its pulls; one ulp above, it is in
        above = np.nextafter(SUPPORT_TOL, np.inf)
        assert self.arms([0, 5], [SUPPORT_TOL, 0.5]) == {2}
        assert self.arms([0, 5], [above, 0.5]) == {1}
        assert self.arms([3, 0, 7], [0.5, SUPPORT_TOL, above]) == {1}

    def test_tied_ratios(self):
        assert self.arms([2, 4, 1], [0.25, 0.5, 0.125]) == {1}  # 8, 8, 8
        assert self.arms([5, 2, 1], [0.5, 0.25, 0.125]) == {2}  # 10, 8, 8
        assert self.arms([0, 0, 0], [0.0, 0.2, 0.8]) == {2}

    def test_counts_past_2_to_the_53(self):
        big = 2**53
        # big + 1 rounds to big: the ratios tie and the lower index wins
        assert self.arms([big + 1, big], [0.5, 0.5]) == {1}
        assert self.arms([big + 2, big, 2**63 - 1], [0.5, 0.5, 1.0]) == {2}
        rng = np.random.default_rng(1301)
        for _ in range(100):
            counts = rng.integers(big, 2**62, size=6).tolist()
            assert len(self.arms(counts, rng.dirichlet(np.ones(6)))) == 1

    def test_empty_support_raises(self):
        p = np.array([SUPPORT_TOL, 0.0, SUPPORT_TOL / 2])
        for counts in ([1, 2, 3], np.array([1, 2, 3], dtype=np.int64)):
            for pick in (informative_arm_lp, ref_informative_arm_lp):
                with pytest.raises(NoSupportError):
                    pick(counts, p)
        with pytest.raises(NoSupportError):
            design_support(p)


# ---------------------------------------------------------------------------
# Linear stop check reused by the download
# ---------------------------------------------------------------------------


def download(server, contexts, stop, arm_select):
    """download_linear's agent and fallback flag, under fixed trigger parameters."""
    return lin.download_linear(server, stop, run_of(contexts, arm_select))


class TestStopCheckReuse:
    @pytest.mark.parametrize("arm_select", ["lp", "greedy"])
    def test_target_equals_a_fresh_factorization(self, arm_select):
        rng = np.random.default_rng(600)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, 5)
            counts = rng.integers(1, 20, size=len(contexts))
            server = lin.LinServerState(cov, resp, counts, int(counts.sum()))
            c = float(rng.uniform(0.0, 3.0))
            stop = lin.stopping_linear(server, rhs_of(contexts), c)
            agent, got_fallback = download(server, contexts, stop, arm_select)
            # the former download: factor again, re-solve theta, re-score the pair
            i, j = lin.select_pair_linear(ref_solve(cov, resp), contexts, cov, c)
            arm, fallback = ref_choose(cov, server.counts, contexts, i, j, arm_select)
            assert (stop.i, stop.j) == (i, j)
            assert (agent.current_target, got_fallback) == (arm, fallback)
            assert agent.target_q == pytest.approx(quad_form_inv(cov, contexts[arm - 1]), rel=1e-12)

    @pytest.mark.parametrize("algo", ["async", "sync"])
    def test_one_factorization_per_server_state(self, algo, monkeypatch):
        calls = []
        original = lin.linalg.cholesky_symmetric

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(lin.linalg, "cholesky_symmetric", counted)
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(42))
        if algo == "async":
            res = run_falinpe(inst, RunConfig(n_agents=4, seed=6, epsilon=0.05))
            uploads = (res.comm_cost + 1) // 2  # the last upload stops the run
            assert len(calls) == 1 + uploads  # the initial state, then one per upload
        else:
            res = run_synchronous(inst, SyncConfig(n_agents=4, seed=6, epsilon=0.05, episode_len=5))
            syncs = res.comm_cost // (2 * 4)
            assert len(calls) == 1 + syncs  # the warm-up boundary, then one per sync
        assert res.terminated


# ---------------------------------------------------------------------------
# One forward solve per server state against the per-solve path
# ---------------------------------------------------------------------------

RTOL = 1e-12


def close(got, want, scale):
    """Agreement within RTOL of each value, or of `scale` for values near zero."""
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def stop_at(cov, resp, contexts, c, counts=None):
    counts = np.ones(len(contexts), dtype=np.int64) if counts is None else counts
    server = lin.LinServerState(cov, resp, counts, int(counts.sum()))
    d = len(resp)
    return server, lin.stopping_linear(server, rhs_of(contexts), c)


class TestOneSolvePath:
    @pytest.mark.parametrize("d", DIMS)
    def test_rewards_pair_and_b(self, d):
        rng = np.random.default_rng(700 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            lower = ref_cholesky(cov)
            want_zx = np.column_stack([ref_forward_sub(lower, x) for x in contexts])
            rewards = contexts @ ref_solve(cov, resp)
            # at c = 0, B is the reward gap of the two best arms
            for c in (0.0, float(rng.uniform(0.0, 3.0))):
                _server, stop = stop_at(cov, resp, contexts, c)
                close(stop.zx, want_zx, np.abs(want_zx).max())
                close(stop.zx.T @ ref_forward_sub(lower, resp), rewards, np.abs(rewards).max())
                ri, rj, rb = ref_stopping(cov, resp, contexts, c)
                assert (stop.i, stop.j) == (ri, rj)
                widths = [math.sqrt(ref_quad_form_inv(cov, contexts[ri - 1] - x)) for x in contexts]
                close(stop.b, rb, np.abs(rewards).max() + c * max(widths))

    @pytest.mark.parametrize("d", DIMS)
    def test_pair_widths(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            _server, stop = stop_at(cov, resp, contexts, 1.0)
            i = int(rng.integers(len(contexts)))
            want = np.array([math.sqrt(ref_quad_form_inv(cov, contexts[i] - x)) for x in contexts])
            close(lin.pair_widths(stop.zx, i), want, want.max())
            assert lin.pair_widths(stop.zx, i)[i] == 0.0

    @pytest.mark.parametrize("d", DIMS)
    def test_greedy_scores(self, d):
        rng = np.random.default_rng(900 + d)
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            _server, stop = stop_at(cov, resp, contexts, 1.0)
            zx = stop.zx
            a, b = rng.choice(len(contexts), size=2, replace=False)
            y = contexts[a] - contexts[b]
            got = lin.select_arm_greedy(zx[:, a] - zx[:, b], zx)
            assert got == ref_greedy(cov, contexts, y)
            vals = np.array([ref_quad_form_inv(cov + np.outer(x, x), y) for x in contexts])
            close(vals[got - 1], vals.min(), vals.max())
            # a zero direction scores every arm 0 and picks arm 1
            zero = lin.select_arm_greedy(zx[:, a] - zx[:, a], zx)
            assert zero == 1 == ref_greedy(cov, contexts, np.zeros(d))

    def test_duplicate_pair_falls_back_to_arm_1(self):
        rng = np.random.default_rng(11)
        cov, resp, contexts = snapshot(rng, 5, k_arms=7)
        contexts[5] = contexts[2]
        _server, stop = stop_at(cov, resp, contexts, 1.0)
        counts = np.ones(7, dtype=np.int64)
        got = lin.choose_informative_arm(counts, contexts, 3, 6, "lp", stop.zx, {})
        assert got == ref_choose(cov, counts, contexts, 3, 6, "lp") == (1, True)

    @pytest.mark.parametrize("arm_select", ["lp", "greedy"])
    @pytest.mark.parametrize("d", DIMS)
    def test_target_q(self, d, arm_select):
        rng = np.random.default_rng(1000 + d)
        for _ in range(20):
            cov, resp, contexts = snapshot(rng, d)
            counts = rng.integers(1, 20, size=len(contexts))
            server, stop = stop_at(cov, resp, contexts, float(rng.uniform(0.0, 3.0)), counts)
            agent, fallback = download(server, contexts, stop, arm_select)
            arm, q = agent.current_target, agent.target_q
            # the per-solve path: the greedy rule factors cov and solves again
            want = ref_choose(cov, server.counts, contexts, stop.i, stop.j, arm_select)
            assert (arm, fallback) == want
            assert q == pytest.approx(ref_quad_form_inv(cov, contexts[arm - 1]), rel=RTOL)


# ---------------------------------------------------------------------------
# The drivers' stop check and download against the slow composition
# ---------------------------------------------------------------------------


def crafted_linear(rng, d, k_arms):
    """Unit-norm arms below a unit best arm theta (arm 1, reward 1), except
    arm 2, whose context is zero (x^T cov^{-1} x = 0), and arm 4, which
    repeats arm 3 (tied rewards, and a zero LP direction for the pair)."""
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    contexts = rng.standard_normal((k_arms, d))
    contexts /= np.linalg.norm(contexts, axis=1)[:, None]
    contexts[0], contexts[1], contexts[3] = theta, 0.0, contexts[2]
    return LinearInstance(contexts=contexts, theta=theta, sigma=0.3)


def server_at(fam, rng, kind):
    """A server state of fam's run: ridge I plus counts_k x_k x_k^T, and a
    random resp, a zero one (every reward tied at 0), or one that puts the
    equal arms 3 and 4 far ahead, so that they are the pair."""
    contexts, d = fam.contexts, fam.instance.dim
    counts = rng.integers(1, 60, size=len(contexts))
    cov = fam.cfg.ridge * np.eye(d)
    for x, n in zip(contexts, counts.tolist()):
        cov += n * np.outer(x, x)
    if kind == "random":
        resp = float(rng.uniform(0.1, 30.0)) * rng.standard_normal(d)
    elif kind == "tied":
        resp = np.zeros(d)
    else:
        resp = 1e6 * (cov @ contexts[2])
    return lin.LinServerState(cov, resp, counts, int(counts.sum()))


class TestMessagePathAgainstSlowComposition:
    """LinearFamily's stop check and download, with the run's values resolved
    once, against ref_stop_check and ref_download: the public kernels on a
    fresh right-hand side, c_scalar and the trigger limit on Fractions, and
    the loop informative_arm_lp."""

    @pytest.mark.parametrize("arm_select", ["lp", "greedy"])
    @pytest.mark.parametrize("d,k", [(3, 5), (5, 5), (10, 20)])
    def test_bit_equal(self, d, k, arm_select):
        rng = np.random.default_rng(1200 + 10 * d + k)
        inst = crafted_linear(rng, d, k)
        configs = [
            RunConfig(n_agents=10, arm_select=arm_select),
            RunConfig(n_agents=3, delta=0.01, gamma1=0.37, gamma2=Fraction(2, 13), arm_select=arm_select),
        ]
        seen = {"fallback": 0, "tied": 0}
        for config in configs:
            fam = LinearFamily(inst, config)
            cfg, memo = fam.cfg, {}
            for n in range(60):
                kind = ("random", "tied", "lead")[n % 3]
                server = server_at(fam, rng, kind)
                stop = fam.stop(server)
                want = ref_stop_check(
                    server, fam.contexts, d, cfg.delta, inst.sigma, cfg.ridge, cfg.gamma1, cfg.gamma2, cfg.n_agents
                )
                assert (stop.i, stop.j, stop.b.hex()) == (want.i, want.j, want.b.hex())
                assert stop.zx.tobytes() == want.zx.tobytes()
                agent, fallback = fam.download(server, stop)
                ref, ref_fallback = ref_download(server, fam.contexts, want, cfg.gamma1, cfg.gamma2, arm_select, memo)
                assert (agent.current_target, fallback) == (ref.current_target, ref_fallback)
                assert (agent.target_q.hex(), agent.trigger_limit) == (ref.target_q.hex(), ref.trigger_limit)
                # the agent holds the server state itself, not a copy of its fields
                assert agent.snapshot is server and not hasattr(agent, "pending")
                seen["fallback"] += fallback
                seen["tied"] += kind == "tied" and stop.i == 1
        # the edge cases were reached, not only the common path
        assert seen["tied"] > 0
        if arm_select == "lp":
            assert seen["fallback"] > 0


class TestDriverFactorizationAssumptions:
    """The stop check factors cov without the symmetry check, which relies on
    every server covariance being bitwise symmetric; a matrix that is not
    positive definite still raises NotPositiveDefiniteError, warning-free."""

    @pytest.mark.parametrize("algo", ["lp", "greedy", "sync"])
    def test_every_server_covariance_is_bitwise_symmetric(self, algo, monkeypatch):
        symmetric = []
        original = lin.stopping_linear

        def checked(server, *args):
            symmetric.append(server.cov.tobytes() == server.cov.T.tobytes())
            return original(server, *args)

        monkeypatch.setattr(lin, "stopping_linear", checked)
        inst = gen_gap_instance_linear(5, 5, 0.3, make_rng(1300), sigma=0.3)
        if algo == "sync":
            res = run_synchronous(inst, SyncConfig(n_agents=10, seed=2, epsilon=0.05, episode_len=3))
        else:
            res = run_falinpe(inst, RunConfig(n_agents=10, seed=2, epsilon=0.05, arm_select=algo))
        assert res.terminated and len(symmetric) > 10 and all(symmetric)

    @pytest.mark.parametrize(
        "cov", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), np.full((2, 2), np.nan)],
        ids=["indefinite", "zero", "nan"],
    )
    def test_not_positive_definite_state_raises_warning_free(self, cov):
        server = lin.LinServerState(cov, np.ones(2), np.ones(2, dtype=np.int64), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                lin.stopping_linear(server, rhs_of(np.eye(2)), 1.0)


class TestGufuncsAgainstPublicCalls:
    """numpy's LAPACK gufuncs, called directly, against the public calls that
    replace them when numpy lacks the private module."""

    @pytest.mark.parametrize("d", DIMS)
    def test_bit_equal_factors_and_solves(self, d):
        rng = np.random.default_rng(1100 + d)
        for _ in range(20):
            cov, resp, contexts = snapshot(rng, d)
            lower = cholesky(cov)
            assert lower.tobytes() == np.linalg.cholesky(cov).tobytes()
            for b in (resp, contexts.T, np.concatenate((contexts, resp[None])).T):
                assert forward_sub(lower, b).tobytes() == np.linalg.solve(lower, b).tobytes()
                assert back_sub(lower, b).tobytes() == np.linalg.solve(lower.T, b).tobytes()

    def test_runs_identical_on_the_fallback(self, monkeypatch):
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(43))

        def go():
            runs = [run_falinpe(inst, RunConfig(n_agents=4, seed=7, epsilon=0.05, arm_select=sel))
                    for sel in ("lp", "greedy")]
            runs.append(run_synchronous(inst, SyncConfig(n_agents=4, seed=7, epsilon=0.05, episode_len=5)))
            return [r.to_json() for r in runs]

        fast = go()
        monkeypatch.setattr(linalg, "_cholesky_lo", np.linalg.cholesky)
        monkeypatch.setattr(linalg, "_solve", np.linalg.solve)
        assert go() == fast


# ---------------------------------------------------------------------------
# Each family's merge against per-pull adds
# ---------------------------------------------------------------------------

# buffer lengths from one pull to thousands
MERGE_LENGTHS = (1, 2, 3, 17, 1023, 1024, 1025, 2053, 5_000)

# contexts with exact zero components under a negative reward sum: the
# products reward_sum x hold -0.0, which a sum from +0.0 turns into +0.0
SIGNED_ZERO_CONTEXTS = np.array([[0.8, 0.0, -0.5], [0.0, -0.9, 0.25], [0.6, 0.0, 0.0]])
SIGNED_ZERO_THETA = np.array([-0.3, 0.5, 0.1])  # means -0.29, -0.425 and -0.18


def set_up(fam, rng):
    """The server state after set-up: one-pull merges of arms 1..K into the
    family's empty state, as the asynchronous driver makes them."""
    server = fam.empty()
    for a in range(1, fam.instance.k_arms + 1):
        server = fam.merge(server, a, 1, sample_reward_mab(fam.instance, a, rng))
    return server


def assert_same_state(got, want):
    """Every field of two server states, arrays and tuples by their dtype
    and bytes, so that a tuple state matches the array state it stands for."""
    assert type(got) is type(want)
    for name, value in vars(want).items():
        if isinstance(value, (np.ndarray, tuple)):
            got_array, value = np.asarray(getattr(got, name)), np.asarray(value)
            assert got_array.dtype == value.dtype, name
            assert got_array.tobytes() == value.tobytes(), name
        else:
            assert getattr(got, name) == value and type(getattr(got, name)) is type(value), name


class TestSetUpAgainstInit:
    """Set-up's K one-pull merges into the family's empty state give the
    bytes of every field of the state the former `init` built. An empty MAB
    estimate is -0.0, the identity of float addition, so a first merge's
    estimate is its reward to the bit, -0.0 included."""

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.3], ids=["0.0", "-0.0", "0.3"])
    @pytest.mark.parametrize("linear", [False, True], ids=["mab", "linear"])
    def test_every_field_bit_equal(self, linear, sigma, monkeypatch):
        if linear:
            # a mean x.theta is a dot product summed from +0.0, never -0.0;
            # the zero context's mean is 0.0 and the others are negative
            contexts = np.vstack((SIGNED_ZERO_CONTEXTS, np.zeros(3)))
            inst = LinearInstance(contexts=contexts, theta=SIGNED_ZERO_THETA, sigma=sigma)
            family, run = LinearFamily, run_falinpe
        else:
            inst, family, run = MabInstance(means=(0.4, -0.0, 0.0, -0.2), sigma=sigma), MabFamily, run_famabpe
        # the driver's first stop check reads the set-up state
        checked, stop = [], family.stop
        monkeypatch.setattr(family, "stop", lambda self, server: checked.append(server) or stop(self, server))
        negative_zeros = 0
        for seed in range(8):
            config = RunConfig(n_agents=3, seed=seed, max_rounds=inst.k_arms + 1)
            fam, ref = family(inst, config), ref_family(inst, config)
            # the reference's set-up, the state the former `init` built
            src = combined(ref.cfg)
            want = ref.init([src.reward(inst, a) for a in range(1, inst.k_arms + 1)])
            checked.clear()
            run(inst, config)
            assert_same_state(checked[0], want)
            assert_same_state(set_up(fam, make_rng(seed)), want)
            if not linear:
                negative_zeros += int((np.signbit(want.mean_est) & (want.mean_est == 0.0)).sum())
        if not linear and sigma == 0.0:
            assert negative_zeros > 0


def buffered(fam, rng, arm, n):
    """n rewards of `arm`, as the round loop computes them."""
    return [fam.instance.means[arm - 1] + fam.instance.sigma * z for z in rng.standard_normal(n).tolist()]


def upload(fam, server, arm, rewards):
    """The family's merge of a buffer of `arm`, as the round loop calls it."""
    return fam.merge(server, arm, len(rewards), reduce(add, rewards, 0.0))


class TestMergeAgainstPerPullAdds:
    """MabFamily.merge and LinearFamily.merge, given a buffer's reward sum
    as the round loop sums it, give the bytes of a sum that adds every pull
    as it happens, merged by each family's rule."""

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("n", MERGE_LENGTHS)
    def test_mab(self, n, sigma):
        fam = MabFamily(MabInstance(means=(0.3, -0.0, 0.0, -0.4), sigma=sigma), RunConfig(n_agents=3))
        rng = make_rng(n)
        server = set_up(fam, rng)
        for arm in range(1, 5):
            rewards = buffered(fam, rng, arm, n)
            sums, counts = np.zeros(4), np.zeros(4, dtype=np.int64)
            for reward in rewards:
                sums[arm - 1] += reward
                counts[arm - 1] += 1
            want = ref_merge_mab(server, sums, counts)
            got = upload(fam, server, arm, rewards)
            assert_same_state(got, want)
            server = got

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_mab_negative_zero_rewards(self, n):
        # -0.0 rewards onto an estimate of -0.0: a sum from +0.0 leaves +0.0
        fam = MabFamily(MabInstance(means=(0.3, -0.0), sigma=0.0), RunConfig())
        server = mab.MabServerState(np.array([0.3, -0.0]), np.ones(2, dtype=np.int64), 2, np.full(2, 2.0))
        sums = np.zeros(2)
        for reward in [-0.0] * n:
            sums[1] += reward
        want = ref_merge_mab(server, sums, np.array([0, n]))
        got = upload(fam, server, 2, [-0.0] * n)
        assert got.mean_est.tobytes() == want.mean_est.tobytes()
        assert not np.signbit(got.mean_est[1])

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("n", MERGE_LENGTHS)
    def test_linear(self, n, sigma):
        inst = LinearInstance(contexts=SIGNED_ZERO_CONTEXTS, theta=SIGNED_ZERO_THETA, sigma=sigma)
        fam = LinearFamily(inst, RunConfig(n_agents=3))
        rng = make_rng(n)
        # a response of -0.0, which no run reaches, shows that the merge adds
        # reward_sum x to resp itself: -0.0 + (-0.0) stays -0.0, where a sum
        # from +0.0 would give +0.0
        server = replace(set_up(fam, rng), resp=np.full(3, -0.0))
        negative_zeros = 0
        for arm in range(1, 4):
            x, rewards = SIGNED_ZERO_CONTEXTS[arm - 1], buffered(fam, rng, arm, n)
            reward_sum = 0.0
            for reward in rewards:
                reward_sum += reward
            product = reward_sum * x
            negative_zeros += int((np.signbit(product) & (product == 0.0)).sum())
            want = ref_merge_linear(server, SIGNED_ZERO_CONTEXTS, arm, n, reward_sum)
            got = upload(fam, server, arm, rewards)
            for name in ("cov", "resp", "counts"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.counts_total == want.counts_total
            server = got
        assert negative_zeros > 0


@pytest.fixture
def read_only_states(monkeypatch):
    """Makes every array of every server state that a merge or a family's
    empty returns read-only, and checks that its other sequences are tuples
    of Python numbers, which no holder can write; returns the type of each
    such state's counts."""
    made = []

    def read_only(fn):
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            for value in vars(state).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
                elif type(value) is not int:
                    assert type(value) is tuple and {type(v) for v in value} <= {float, int}
            made.append(type(state.counts))
            return state

        return wrapper

    monkeypatch.setattr(mab, "server_merge_mab", read_only(mab.server_merge_mab))
    monkeypatch.setattr(lin, "server_merge_linear", read_only(lin.server_merge_linear))
    for family in (MabFamily, LinearFamily):
        monkeypatch.setattr(family, "empty", read_only(family.empty))
    return made


class TestSnapshotsAreNeverWritten:
    """Agents hold the server states they downloaded by reference, so no
    driver, merge, stop check, download or audit may write one. MAB states
    up to mab.SCALAR_MAX_ARMS arms are tuples and cannot be written; the
    runs here hold both kinds."""

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_audited_async_runs(self, m, read_only_states):
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(60 + m), sigma=0.3)
        run_famabpe(mab_inst, RunConfig(n_agents=m, seed=m), audit=True)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(70 + m), sigma=0.2)
        for arm_select in ("lp", "greedy"):
            run_falinpe(lin_inst, RunConfig(n_agents=m, seed=m, epsilon=0.05, arm_select=arm_select), audit=True)
        run_single_agent(mab_inst, RunConfig(seed=m))
        wide = gen_gap_instance_mab(25, 0.3, make_rng(65 + m), sigma=0.3)
        run_famabpe(wide, RunConfig(n_agents=m, seed=m, max_rounds=1_000), audit=True)
        assert len(read_only_states) > 100
        assert read_only_states.count(tuple) > 50 and read_only_states.count(np.ndarray) > 50

    def test_synchronous_runs(self, read_only_states):
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(80), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(81), sigma=0.2)
        wide = gen_gap_instance_mab(25, 0.3, make_rng(82), sigma=0.3)
        for e in (1, 7):
            run_synchronous(mab_inst, SyncConfig(n_agents=3, seed=e, episode_len=e))
            run_synchronous(lin_inst, SyncConfig(n_agents=3, seed=e, episode_len=e, epsilon=0.05))
            run_synchronous(wide, SyncConfig(n_agents=3, seed=e, episode_len=e, max_rounds=600))
        assert len(read_only_states) > 100
        assert read_only_states.count(tuple) > 50 and read_only_states.count(np.ndarray) > 50


# ---------------------------------------------------------------------------
# Whole runs against reference.py's per-round loops; famabpe first
# ---------------------------------------------------------------------------


@pytest.fixture
def server_states(monkeypatch):
    """Logs the bytes of every server state the stop checks see, and of
    every snapshot agent_target_mab reads, so that a difference in the last
    bit of one reward sum, or in the order of the pending adds or merges,
    fails a comparison even where it changes no decision."""
    log = []

    def logged(name, original):
        def wrapper(*args, **kwargs):
            state = args[0]
            arrays = (state.cov, state.resp, state.counts) if name == "stopping_linear" else args[:2]
            log.append((name, tuple(np.asarray(a).tobytes() for a in arrays)))
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((mab, "breaking_index"), (mab, "agent_target_mab"), (lin, "stopping_linear")):
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    # the reference loops' stop checks are logged as the drivers' are, where
    # the family references look them up
    monkeypatch.setattr(reference, "ref_stop_check", logged("stopping_linear", ref_stop_check))
    monkeypatch.setattr(reference, "ref_breaking_index", logged("breaking_index", ref_breaking_index))
    return log


MAB_SHAPES = [(m, k) for m in (1, 3, 10, 100) for k in (2, 5, 50)]


class TestFamabpeAgainstArrayBuffers:
    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    @pytest.mark.parametrize("m,k", MAB_SHAPES, ids=[f"M{m}-K{k}" for m, k in MAB_SHAPES])
    def test_identical_results_and_logs(self, m, k, activation, server_states):
        inst = gen_gap_instance_mab(k, 0.3, make_rng(700 + 7 * m + k), sigma=0.3)
        cap = 200 * k + 2000  # most runs stop well before it
        base = RunConfig(n_agents=m, seed=m + k, activation=activation, max_rounds=cap)
        configs = [
            base,
            # a float gamma: its exact rational has a 2^55 denominator
            replace(base, seed=m + k + 1, epsilon=0.1, gamma=0.1),
            replace(base, seed=m + k + 2, gamma=Fraction(3, 7)),
            # stopped by the round cap
            replace(base, seed=m + k + 3, max_rounds=k + 15),
        ]
        results = [assert_same(inst, cfg, server_states, audit=m * k <= 50) for cfg in configs]
        assert not results[-1].terminated
        assert any(r.terminated for r in results)

    @pytest.mark.parametrize("m,k", [(1, 2), (1, 5), (1, 50), (3, 5), (10, 2)])
    def test_comm_every_round(self, m, k, server_states):
        inst = gen_gap_instance_mab(k, 0.4, make_rng(800 + m + k), sigma=0.3)
        cfg = RunConfig(n_agents=m, seed=k, max_rounds=20_000)
        res = assert_same(inst, cfg, server_states, comm_every_round=True)
        assert res.comm_cost == 2 * (res.tau - k) - res.terminated

    def test_signed_zero_rewards(self, server_states):
        # sigma = 0: an initial reward of -0.0 stays -0.0 in the initialized state
        inst = MabInstance(means=(0.5, -0.0, 0.0, 0.2), sigma=0.0)
        for m in (1, 3):
            assert_same(inst, RunConfig(n_agents=m, seed=m, epsilon=0.1), server_states, audit=True)

    def test_the_single_agent_baseline_runs_through_the_same_path(self):
        inst = gen_gap_instance_mab(5, 0.3, make_rng(9), sigma=0.3)
        cfg = RunConfig(seed=4, epsilon=0.05)
        want = run_async(ref_family(inst, cfg), forced=True)
        assert run_single_agent(inst, cfg).to_json() == want.to_json()


class TestFamabpeUploadsFromActivationsAlone:
    """Before its stop, a famabpe run's uploads depend only on its
    activations, gamma, K and M: the replay gives its upload log and its
    message counts without a reward or a stop check."""

    # a gap of 0.001 at sigma 1 takes millions of rounds to stop at epsilon
    # 0, so a run of it is cut at max_rounds
    TIED = MabInstance(means=(0.501, 0.5, 0.5, 0.5, 0.5), sigma=1.0)
    CUT = RunConfig(n_agents=3, seed=5, max_rounds=5_000)

    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_cut_stopped_audited_and_forced_runs(self, m, activation):
        inst = gen_gap_instance_mab(5, 0.3, make_rng(60 + m), sigma=0.3)
        base = RunConfig(n_agents=m, seed=m, activation=activation)
        runs = [
            (self.TIED, replace(base, max_rounds=20_000), {}),
            (inst, base, {}),
            (inst, replace(base, seed=m + 1), {"audit": True}),
            (inst, base, {"comm_every_round": True}),
            (self.TIED, replace(base, max_rounds=500), {"comm_every_round": True, "audit": True}),
        ]
        results = []
        for instance, cfg, kw in runs:
            log = []
            results.append(run_famabpe(instance, cfg, audit_log=log, **kw))
            assert_replayed(instance, cfg, results[-1], log, kw.get("comm_every_round", False))
        assert [r.terminated for r in results] == [False, True, True, True, False]
        assert results[0].comm_cost > 100

    def test_each_upload_one_pull_late(self, mutate_driver):
        mutate_driver("> ag.trigger_limit:", "> ag.trigger_limit + 1:")
        log = []
        res = run_famabpe(self.TIED, self.CUT, audit_log=log)
        with pytest.raises(AssertionError):
            assert_replayed(self.TIED, self.CUT, res, log)

    def test_uploader_count_not_reset(self, mutate_driver):
        mutate_driver("held[m], sums[m] = 0, 0.0", "sums[m] = 0.0")
        log = []
        # the run sends held pulls again, so its end refuses its pulls, by
        # which time its log holds every upload
        with pytest.raises(ValueError, match="pulls_per_arm must sum to tau"):
            run_famabpe(self.TIED, self.CUT, audit_log=log)
        assert logged_uploads(log) != replay_uploads(self.TIED, self.CUT, self.CUT.max_rounds)

    def test_set_up_download_limit_off_by_one(self, monkeypatch):
        download, calls = MabFamily.download, []

        def off_by_one(self, server, check):
            ag, fallback = download(self, server, check)
            calls.append(1)
            return (replace(ag, trigger_limit=ag.trigger_limit + 1) if len(calls) == 1 else ag), fallback

        monkeypatch.setattr(MabFamily, "download", off_by_one)
        log = []
        res = run_famabpe(self.TIED, self.CUT, audit_log=log)
        with pytest.raises(AssertionError):
            assert_replayed(self.TIED, self.CUT, res, log)


def mab_state(rng, k, kind):
    """A server state carrying 2/counts: random estimates and counts, or
    tied estimates, equal counts, estimates of 0.0 and -0.0, or counts near
    2^53, where int64 counts stop being exact floats."""
    counts = rng.integers(1, 10_000, size=k)
    mean = float(rng.uniform(0.01, 3.0)) * rng.standard_normal(k)
    if kind == "tied":
        mean = rng.choice([0.25, 0.5], size=k)
        mean[rng.choice(k, size=2, replace=False)] = 0.5
    elif kind == "equal":
        counts = np.full(k, counts[0])
    elif kind == "signed-zero":
        mean = rng.choice([0.0, -0.0, -0.5], size=k)
    elif kind == "near-2^53":
        counts = 2**53 + rng.integers(-3, 4, size=k)
    return mab.MabServerState(mean, counts, int(counts.sum()), 2.0 / counts)


class TestMabStopCheckAgainstSlowComposition:
    """MabFamily's stop check and download, from the carried 2/counts and the
    run's width constants, against the slow composition: the widths'
    formula from the counts, select_pair_mab, B from numpy scalars and
    select_arm_mab."""

    # sigma = -0.0, which an instance accepts, makes every width -0.0
    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.3, 2.0], ids=["0.0", "-0.0", "0.3", "2.0"])
    @pytest.mark.parametrize("k", [2, 5, 50])
    def test_bit_equal(self, k, sigma):
        rng = np.random.default_rng(1400 + k)
        inst = MabInstance(means=tuple(np.linspace(1.0, 0.0, k)), sigma=sigma)
        configs = [RunConfig(n_agents=10), RunConfig(n_agents=3, delta=0.01, gamma=Fraction(2, 13))]
        seen = {"tied-widths": 0, "j-first": 0, "negative-zero": 0}
        for config in configs:
            fam = MabFamily(inst, config)
            for n in range(100):
                server = mab_state(rng, k, ("random", "tied", "equal", "signed-zero", "near-2^53")[n % 5])
                check = fam.stop(server)
                i, j, b, bon = check
                want_bon = ref_bonuses_mab(server.counts, server.counts_total, *fam.widths)
                assert bon.tobytes() == want_bon.tobytes()
                want_i, want_j, want_b = ref_breaking_index(server.mean_est, want_bon)
                assert (i, j, b.hex()) == (want_i, want_j, want_b.hex())
                agent, fallback = fam.download(server, check)
                target = mab.select_arm_mab(want_i, want_j, want_bon)
                assert (agent.current_target, fallback) == (target, False)
                assert agent.current_target == mab.agent_target_mab(
                    server.mean_est, server.counts, server.counts_total, *fam.widths
                )
                seen["tied-widths"] += bon[i - 1] == bon[j - 1]
                seen["j-first"] += j < i
                seen["negative-zero"] += b == 0.0 and math.copysign(1.0, b) < 0
        # the edge cases were reached, not only the common path
        assert seen["tied-widths"] > 0 and seen["j-first"] > 0
        if math.copysign(1.0, sigma) < 0:
            assert seen["negative-zero"] > 0


@pytest.fixture
def mab_merges(monkeypatch):
    """Records (state, merged state) of every server_merge_mab call."""
    merges = []
    merge = mab.server_merge_mab

    def logged(server, *args):
        out = merge(server, *args)
        merges.append((server, out))
        return out

    monkeypatch.setattr(mab, "server_merge_mab", logged)
    return merges


class TestCarriedTwoOverCounts:
    """Every merged MAB state carries exactly numpy's 2.0 / counts."""

    def test_merge_chains(self, mab_merges):
        inst = gen_gap_instance_mab(5, 0.3, make_rng(90), sigma=0.3)
        wide = gen_gap_instance_mab(50, 0.3, make_rng(91), sigma=0.3)
        run_famabpe(inst, RunConfig(n_agents=3, seed=1))
        run_famabpe(wide, RunConfig(n_agents=100, seed=2, max_rounds=20_000))
        run_single_agent(inst, RunConfig(seed=3))
        for e in (1, 7):
            run_synchronous(inst, SyncConfig(n_agents=3, seed=e, episode_len=e))
        assert len(mab_merges) > 1_000
        # a synchronous run's first merges leave arms at zero counts, where 2/0 is inf
        with np.errstate(divide="ignore"):
            for _server, out in mab_merges:
                assert np.asarray(out.two_over_counts).tobytes() == (2.0 / np.asarray(out.counts)).tobytes()

    def test_counts_near_2_53(self):
        # from 2^53 on, counts round to even floats before the division
        counts = np.full(3, 2**53 - 3, dtype=np.int64)
        server = mab.MabServerState(np.zeros(3), counts, int(counts.sum()), 2.0 / counts)
        reached = set()
        for arm, n in ((1, 1), (1, 3), (2, 5), (3, 6), (1, 1), (2, 1), (3, 2), (1, 7)):
            server = mab.server_merge_mab(server, arm, n, 0.5 * n)
            assert server.two_over_counts.tobytes() == (2.0 / server.counts).tobytes()
            reached.update(server.counts.tolist())
        # 2^53 + 1 and + 3 are ties, rounded down and up to even
        assert {2**53 - 2, 2**53 + 1, 2**53 + 3, 2**53 + 5} <= reached

    def test_zero_count_sync_state_carries_inf(self, mab_merges):
        inst = gen_gap_instance_mab(8, 0.3, make_rng(92), sigma=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_synchronous(inst, SyncConfig(n_agents=3, seed=1, episode_len=7))
        first = mab_merges[0][0]
        assert first.counts_total == 0 and np.isposinf(first.two_over_counts).all()


# ---------------------------------------------------------------------------
# famabpe's message path: tuple server states in Python floats against arrays
# ---------------------------------------------------------------------------

# arm counts below, at and above the cut of mab.SCALAR_MAX_ARMS = 18
CUT_ARMS = (2, 5, 18, 19, 24, 25, 50)


def as_tuples(state):
    """The tuple representation of an array server state."""
    fields = (state.mean_est.tolist(), state.counts.tolist(), state.two_over_counts.tolist())
    mean, counts, two_over_counts = map(tuple, fields)
    return mab.MabServerState(mean, counts, state.counts_total, two_over_counts)


def state_bytes(state):
    """Every field of a server state, each tuple or array as its dtype and bytes."""
    return tuple(
        (np.asarray(v).dtype.str, np.asarray(v).tobytes()) if isinstance(v, (tuple, np.ndarray)) else v
        for v in vars(state).values()
    )


def check_bits(check):
    """A stop check's i, j, the bits of B and the bytes of the widths."""
    i, j, b, bon = check
    return i, j, float(b).hex(), np.asarray(bon).dtype.str, np.asarray(bon).tobytes()


@pytest.fixture
def forced_path(monkeypatch):
    """Runs `fn` once with every MAB server state as numpy arrays and once as
    tuples, forced through the cut; returns both outputs and both logs of
    (state bytes, stop check bits) of every stop check, each with the field
    types the run's states held."""

    def run_both(fn):
        outs = []
        stop = MabFamily.stop
        for cut in (0, 10**9):
            log, kinds = [], set()

            def logged(self, server):
                check = stop(self, server)
                kinds.add(type(server.mean_est))
                log.append((state_bytes(server), check_bits(check)))
                return check

            with monkeypatch.context() as patch:
                patch.setattr(mab, "SCALAR_MAX_ARMS", cut)
                patch.setattr(MabFamily, "stop", logged)
                outs.append((fn(), log, kinds))
        (arrays, arrays_log, arrays_kinds), (tuples, tuples_log, tuples_kinds) = outs
        assert arrays_kinds == {np.ndarray} and tuples_kinds == {tuple}
        assert tuples_log == arrays_log and arrays_log
        return arrays, tuples

    return run_both


class TestScalarAgainstArrayPath:
    """Up to mab.SCALAR_MAX_ARMS arms famabpe's server states are tuples and
    the merge, the stop check and the download run in Python floats; they
    give the array path's bits: every state's fields (dtype included), the
    stop check's pair, B and widths, the target and limit, and every run's
    RunResult and audit log. Each path is forced here by the cut or by the
    state's representation, at arm counts on both sides of the cut."""

    # sigma = -0.0 makes every width -0.0
    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.3, 2.0], ids=["0.0", "-0.0", "0.3", "2.0"])
    @pytest.mark.parametrize("k", CUT_ARMS)
    def test_message_path_bit_equal(self, k, sigma):
        rng = np.random.default_rng(2900 + k)
        inst = MabInstance(means=tuple(np.linspace(1.0, 0.0, k)), sigma=sigma)
        configs = [RunConfig(n_agents=10), RunConfig(n_agents=3, delta=0.01, gamma=Fraction(2, 13))]
        seen = {"tied-means": 0, "tied-scores": 0, "j-first": 0, "negative-zero": 0}
        for config in configs:
            fam = MabFamily(inst, config)
            for n in range(100):
                kind = ("random", "tied", "equal", "signed-zero", "near-2^53")[n % 5]
                arrays = mab_state(rng, k, kind)
                tuples = as_tuples(arrays)
                assert state_bytes(tuples) == state_bytes(arrays)
                check, scalar_check = fam.stop(arrays), fam.stop(tuples)
                assert type(scalar_check[3]) is list
                assert check_bits(scalar_check) == check_bits(check)
                agent, _ = fam.download(arrays, check)
                scalar_agent, _ = fam.download(tuples, scalar_check)
                assert (scalar_agent.current_target, scalar_agent.trigger_limit) == (
                    agent.current_target,
                    agent.trigger_limit,
                )
                # an upload of either sign of zero, or of a random sum
                arm = int(rng.integers(1, k + 1))
                pulls = int(rng.integers(1, 2_000))
                reward_sum = (0.0, -0.0, float(rng.normal(0.0, 3.0)) * pulls)[n % 3]
                merged = fam.merge(arrays, arm, pulls, reward_sum)
                scalar_merged = fam.merge(tuples, arm, pulls, reward_sum)
                assert all(type(v) is tuple for v in (scalar_merged.mean_est, scalar_merged.counts))
                assert state_bytes(scalar_merged) == state_bytes(merged)
                mean, bon = arrays.mean_est, check[3]
                seen["tied-means"] += int((mean == mean.max()).sum()) > 1
                seen["tied-scores"] += bool(bon[check[0] - 1] == bon[check[1] - 1])
                seen["j-first"] += check[1] < check[0]
                seen["negative-zero"] += check[2] == 0.0 and math.copysign(1.0, check[2]) < 0
        # the edge cases were reached, not only the common path
        assert seen["tied-means"] > 0 and seen["tied-scores"] > 0 and seen["j-first"] > 0
        if math.copysign(1.0, sigma) < 0:
            assert seen["negative-zero"] > 0

    def test_representation_is_chosen_by_the_arm_count(self):
        cut = mab.SCALAR_MAX_ARMS
        for k, kind in ((2, tuple), (cut, tuple), (cut + 1, np.ndarray), (50, np.ndarray)):
            fam = MabFamily(MabInstance(means=tuple(np.linspace(1.0, 0.0, k)), sigma=0.3), RunConfig())
            state = fam.merge(fam.empty(), 1, 1, 0.5)
            assert {type(v) for v in (state.mean_est, state.counts, state.two_over_counts)} == {kind}

    def test_signed_zero_ties(self):
        # -0.0 and 0.0 compare equal: the first of them is the maximum, for
        # the estimates and for the scores, with its own sign
        fam = MabFamily(MabInstance(means=(0.5, 0.1, 0.0), sigma=0.0), RunConfig(n_agents=2))
        for mean in ((-0.0, 0.0, -0.5), (0.0, -0.0, -0.5), (-0.5, -0.0, 0.0), (-0.0, -0.5, 0.0)):
            counts = np.array([3, 4, 5])
            arrays = mab.MabServerState(np.array(mean), counts, 12, 2.0 / counts)
            check, scalar_check = fam.stop(arrays), fam.stop(as_tuples(arrays))
            assert check_bits(scalar_check) == check_bits(check)

    def test_merges_near_2_53(self):
        # from 2^53 on, counts round to even floats before the divisions
        counts = np.full(3, 2**53 - 3, dtype=np.int64)
        arrays = mab.MabServerState(np.array([0.3, -0.0, 1.5]), counts, int(counts.sum()), 2.0 / counts)
        tuples = as_tuples(arrays)
        for arm, n in ((1, 1), (1, 3), (2, 5), (3, 6), (1, 1), (2, 1), (3, 2), (1, 7)):
            arrays = mab.server_merge_mab(arrays, arm, n, 0.7 * n)
            tuples = mab.server_merge_mab(tuples, arm, n, 0.7 * n)
            assert state_bytes(tuples) == state_bytes(arrays)

    @pytest.mark.parametrize("k", CUT_ARMS)
    def test_async_runs(self, k, forced_path):
        inst = gen_gap_instance_mab(k, 0.3, make_rng(2950 + k), sigma=0.3)
        for m, activation in ((1, "uniform-random"), (3, "round-robin"), (10, "uniform-random")):
            cfg = RunConfig(n_agents=m, seed=m + k, activation=activation, max_rounds=40 * k + 600)

            def run():
                log = []
                return run_famabpe(inst, cfg, audit=True, audit_log=log).to_json(), log

            arrays, tuples = forced_path(run)
            assert tuples == arrays

    @pytest.mark.parametrize("k", CUT_ARMS)
    def test_synchronous_and_single_agent_runs(self, k, forced_path):
        inst = gen_gap_instance_mab(k, 0.3, make_rng(2960 + k), sigma=0.3)
        sync = SyncConfig(n_agents=3, seed=k, episode_len=5, max_rounds=60 * k + 600)
        single = RunConfig(seed=k, epsilon=0.1, max_rounds=40 * k + 600)
        arrays, tuples = forced_path(lambda: (run_synchronous(inst, sync).to_json(), run_single_agent(inst, single).to_json()))
        assert tuples == arrays

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.3], ids=["0.0", "-0.0", "0.3"])
    def test_signed_zero_rewards_and_tied_means(self, sigma, forced_path):
        # arms tied at -0.0, 0.0 and 0.2: noiseless, rewards of -0.0 and 0.0
        # and zero widths, which stop a run at its first stop check; noisy,
        # long runs whose estimates start out tied
        inst = MabInstance(means=(0.5, -0.0, 0.0, 0.2, -0.0, 0.2), sigma=sigma)

        def runs():
            out = []
            for m in (1, 3):
                log = []
                cfg = RunConfig(n_agents=m, seed=m, epsilon=0.1, max_rounds=3_000)
                out.append((run_famabpe(inst, cfg, audit=True, audit_log=log).to_json(), log))
            out.append(run_synchronous(inst, SyncConfig(n_agents=4, seed=2, episode_len=3, epsilon=0.1)).to_json())
            out.append(run_single_agent(inst, RunConfig(seed=5, epsilon=0.1)).to_json())
            return out

        arrays, tuples = forced_path(runs)
        assert tuples == arrays


class TestIntegerTriggerLimit:
    # Fraction(0) is the forced ratio (0, 1)
    @pytest.mark.parametrize(
        "gamma",
        [Fraction(1, 100), Fraction(1, 3), Fraction(7, 2), Fraction(1, 10_000), 0.1, 1 / 3, 0.01, 2.5, Fraction(0)],
        ids=lambda g: repr(g),
    )
    def test_limit_and_its_successor_agree_with_the_exact_rule(self, gamma):
        g = Fraction(gamma)
        ratio = g.as_integer_ratio()
        totals = list(range(1, 2_000)) + [g.denominator * q + r for q in (1, 3, 10**6) for r in (-1, 0, 1)]
        for total in totals:
            if total < 1:
                continue
            limit = mab.trigger_limit_mab(total, ratio)
            # a stored limit of -1: the rule reads the snapshot and the ratio alone
            agent = mab.AgentState(SimpleNamespace(counts_total=total), 1, -1)
            for n in (limit, limit + 1):
                assert mab.check_trigger_mab(agent, n, ratio) == ref_trigger_mab(total, n, gamma), (total, n)
            assert not ref_trigger_mab(total, limit, gamma) and ref_trigger_mab(total, limit + 1, gamma)


# ---------------------------------------------------------------------------
# Activation and reward blocks against per-round draws
# ---------------------------------------------------------------------------

STREAM_ROUNDS = 30_000


def live_state(rng):
    """The bit generator's state as later draws read it: numpy leaves the
    last buffered half behind when it marks the buffer empty, and never
    reads it."""
    s = rng.bit_generator.state
    return s["state"], s["has_uint32"], s["uinteger"] if s["has_uint32"] else None


def per_round_stream(activation, m_agents, rng, n):
    """n rounds of Generator.integers (or the cycle) and standard_normal."""
    agents, normals = [], []
    for t in range(n):
        agents.append(ref_next_agent(activation, m_agents, t, rng))
        normals.append(rng.standard_normal())
    return agents, normals


def block_stream(schedule, rng, n, full_starts=None, request=None):
    """n rounds of blocks, each asking for the rounds left or at most
    `request` of them."""
    agents, normals = [], []
    while len(agents) < n:
        if full_starts is not None:
            full_starts.append(rng.bit_generator.state["has_uint32"])
        ask = min(n - len(agents), request or n)
        a, z = schedule.block(rng, ask)
        assert 1 <= len(a) == len(z) <= ask
        agents += a
        normals += z
    return agents, normals


def assert_same_stream(activation, m_agents, seed, n=STREAM_ROUNDS, lead=0, full_starts=None, request=None):
    """Blocks against per-round draws from the same seed, after `lead`
    Generator.integers draws on both (an odd lead leaves the buffer full)."""
    rng, ref = make_rng(seed), make_rng(seed)
    for _ in range(lead):
        assert int(rng.integers(m_agents)) == int(ref.integers(m_agents))
    schedule = ActivationSchedule(activation, m_agents)
    got = block_stream(schedule, rng, n, full_starts, request)
    want = per_round_stream(activation, m_agents, ref, n)
    assert got[0] == want[0]
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
    assert live_state(rng) == live_state(ref)
    return got


# 2^31 + 1 redraws about half its words, so nearly every round is
# irregular; 2^32 - 1 is the largest bound on numpy's 32-bit path
UNIFORM_M = [2, 3, 10, 100, 2**31 + 1, 2**32 - 1]


class TestBlockStream:
    def test_tables_take_the_fast_path(self):
        # otherwise every round would be irregular and the tests below vacuous
        _wi, ki = stream._ziggurat_tables()
        assert (ki > 0).mean() > 0.99
        schedule, rng = ActivationSchedule("uniform-random", 10), make_rng(1)
        # a block decodes a whole chunk, repairing its ~40 normals off the
        # fast path in place: 4096 words hold at most 2731 rounds
        sizes = [len(schedule.block(rng, 10**6)[0]) for _ in range(200)]
        assert max(sizes) <= 2 * stream._CHUNK // 3 + 1 and min(sizes) > 2600
        # a request of n rounds draws 2n + 8 words, which hold them all
        sizes = [len(schedule.block(rng, 21)[0]) for _ in range(200)]
        assert all(size == 21 for size in sizes)

    def test_decode_at_every_fast_path_edge(self):
        # random words hit rabs = ki[idx] with probability 2^-52, so each
        # (sign, idx) is drawn here at rabs 0, 1, ki - 1, ki and the largest
        bg = np.random.PCG64(0)
        gen = np.random.Generator(bg)
        mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, 0x5851F42D4C957F2D

        def numpy_normal(word):
            # a state whose successor has high half 0 and low half `word`
            # outputs `word` (XSL-RR rotates by the top six bits, here 0)
            state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
            state["state"] = {"state": (word - inc) * pow(mult, -1, 1 << 128) % (1 << 128), "inc": inc}
            bg.state = state
            assert int(bg.random_raw()) == word
            bg.state = state
            return gen.standard_normal(), bg.state["state"]["state"] == word

        _wi, ki = stream._ziggurat_tables()
        words = []
        for low9 in range(512):
            k = int(ki[low9])
            words += [r << 9 | low9 for r in {0, 1, max(k - 1, 0), k, (1 << 52) - 1} if r < 1 << 52]
        words = np.array(words, dtype=np.uint64)
        normals, fast = stream._decode_normals(words, stream._ziggurat_tables())
        for w, x, f in zip(words.tolist(), normals.tolist(), fast.tolist()):
            want, alone = numpy_normal(w)
            assert f == alone, hex(w)
            if f:
                assert x.hex() == want.hex(), hex(w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m_agents", UNIFORM_M)
    def test_uniform(self, m_agents, seed):
        assert_same_stream("uniform-random", m_agents, seed)

    @pytest.mark.parametrize("m_agents", UNIFORM_M)
    def test_blocks_that_start_with_a_full_buffer(self, m_agents):
        full_starts = []
        assert_same_stream("uniform-random", m_agents, 11, lead=1, full_starts=full_starts, request=101)
        # the first block, and the blocks after an odd count of rounds that
        # began on an empty buffer
        assert full_starts[0] == 1 and sum(full_starts) > 50

    @pytest.mark.parametrize("m_agents", [3, 10, 2**31 + 1])
    def test_short_requests(self, m_agents):
        # n = 1 and 2 leave no whole word triplet; n = 3 takes one after a
        # round from the buffer, or one and a half without it
        rng, ref = make_rng(5), make_rng(5)
        schedule = ActivationSchedule("uniform-random", m_agents)
        for n in [1, 2, 3, 4, 5] * 400:
            got = block_stream(schedule, rng, n)
            want = per_round_stream("uniform-random", m_agents, ref, n)
            assert got[0] == want[0]
            assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
            assert live_state(rng) == live_state(ref)

    @pytest.mark.parametrize(
        "activation,m_agents", [("round-robin", 1), ("round-robin", 3), ("round-robin", 10), ("uniform-random", 1)]
    )
    def test_round_robin_and_one_agent(self, activation, m_agents):
        assert_same_stream(activation, m_agents, 4)
        assert_same_stream(activation, m_agents, 4, n=1001)

    def test_a_new_generator_is_followed(self):
        schedule = ActivationSchedule("uniform-random", 5)
        for seed in (1, 2, 1):
            rng, ref = make_rng(seed), make_rng(seed)
            assert block_stream(schedule, rng, 50) == per_round_stream("uniform-random", 5, ref, 50)
            assert live_state(rng) == live_state(ref)

    def test_bounds_numpy_draws_otherwise_are_refused(self):
        # the config refuses them, before a driver builds any agent state
        for m_agents in (2**32, 2**40):
            with pytest.raises(ValueError):
                RunConfig(n_agents=m_agents)
        RunConfig(n_agents=2**32, activation="round-robin")  # draws nothing

    @pytest.mark.parametrize("m_agents", [3, 10])
    def test_every_round_irregular(self, m_agents, monkeypatch):
        wi, ki = stream._ziggurat_tables()
        monkeypatch.setattr(stream, "_ziggurat", (wi, np.zeros_like(ki)))
        rng = make_rng(6)
        schedule = ActivationSchedule("uniform-random", m_agents)
        # every normal is drawn by numpy on the second generator, in its block
        assert all(len(schedule.block(rng, 100)[0]) == 100 for _ in range(100))
        assert_same_stream("uniform-random", m_agents, 6)
        assert_same_stream("uniform-random", m_agents, 7, lead=1)

    def test_famabpe_with_every_round_irregular(self, monkeypatch, server_states):
        wi, ki = stream._ziggurat_tables()
        monkeypatch.setattr(stream, "_ziggurat", (wi, np.zeros_like(ki)))
        inst = gen_gap_instance_mab(5, 0.3, make_rng(3), sigma=0.3)
        assert_same(inst, RunConfig(n_agents=10, seed=3), server_states, audit=True)

    def test_failed_self_check_leaves_every_round_irregular(self, monkeypatch):
        # with a wrong multiplier the crafted words are not the ones drawn
        monkeypatch.setattr(stream, "_PCG64_MULT", stream._PCG64_MULT + 2)
        wi, ki = stream._read_ziggurat()
        assert not ki.any()
        monkeypatch.setattr(stream, "_ziggurat", (wi, ki))
        assert_same_stream("uniform-random", 10, 8, n=3000)

    @pytest.mark.parametrize("seed,lead,words_past,held", [(17, 0, 1, 0), (48, 0, 1, 1), (124, 1, 2, 0), (166, 1, 2, 1)])
    def test_slow_normal_read_past_the_chunk(self, seed, lead, words_past, held):
        # the first block's last normal is off the fast path, and numpy's draw
        # of it reads past the chunk's last word: rng takes the second
        # generator's state, with the buffered half when that round opened a word
        rng, ref = make_rng(seed), make_rng(seed)
        for _ in range(lead):
            assert int(rng.integers(10)) == int(ref.integers(10))
        probe = np.random.PCG64()
        probe.state = rng.bit_generator.state
        schedule = ActivationSchedule("uniform-random", 10)
        agents, normals = schedule.block(rng, 10**6)
        probe.random_raw(stream._CHUNK + words_past)
        assert rng.bit_generator.state["state"] == probe.state["state"]
        assert rng.bit_generator.state["has_uint32"] == held
        rest = block_stream(schedule, rng, 500)
        want = per_round_stream("uniform-random", 10, ref, len(agents) + 500)
        assert agents + rest[0] == want[0]
        assert np.array(normals + rest[1]).tobytes() == np.array(want[1]).tobytes()
        assert live_state(rng) == live_state(ref)

    def test_building_a_schedule_creates_no_bit_generator(self, monkeypatch):
        # every run builds one; the second generator comes with the first
        # normal off the fast path
        def refused(*args, **kwargs):
            raise AssertionError("a bit generator was created")

        monkeypatch.setattr(np.random, "PCG64", refused)
        for activation, m_agents in [("uniform-random", 10), ("uniform-random", 1), ("round-robin", 10)]:
            ActivationSchedule(activation, m_agents)

    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    def test_famabpe_cut_at_a_chunk_end(self, activation, server_states):
        # the run's first block asks for more rounds than a chunk holds; caps
        # at that chunk's last round, one before it and one after it (sigma 3
        # keeps B above epsilon 0 that long)
        inst = gen_gap_instance_mab(5, 0.01, make_rng(12), sigma=3.0)
        rng = make_rng(13)
        rng.standard_normal(5)  # the initialization's rewards
        last = len(ActivationSchedule(activation, 10).block(rng, 10**6)[0])
        assert last > 2600
        for cap in (5 + last - 1, 5 + last, 5 + last + 1):
            cfg = RunConfig(n_agents=10, seed=13, activation=activation, epsilon=0.0, max_rounds=cap)
            res = assert_same(inst, cfg, server_states, audit=True)
            assert res.tau == cap and not res.terminated

    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    def test_famabpe_cut_by_max_rounds_mid_block(self, activation, server_states):
        # epsilon 0 on a small gap: the round cap, not B, ends every run
        inst = gen_gap_instance_mab(5, 0.05, make_rng(12), sigma=1.0)
        for cap in (5 + 1, 5 + 2, 5 + 255, 5 + 256, 5 + 257, 5 + 3 * 256 + 101):
            cfg = RunConfig(n_agents=10, seed=cap, activation=activation, epsilon=0.0, max_rounds=cap)
            res = assert_same(inst, cfg, server_states, audit=True)
            assert res.tau == cap and not res.terminated


def crafted_state(first, later=None, buffered=None):
    """A PCG64 state whose next outputs are the word `first` and, for
    later = (j, w) with j odd or 2, the word w at output j, with `buffered`
    as its buffered 32-bit half. A state with high half h of 0 or 1 and low
    half w ^ h outputs w; the increment and the state before `first` are
    solved for with the multiplier's inverse, as stream._read_ziggurat does."""
    mult, mod = stream._PCG64_MULT, 1 << 128
    inc = 1
    if later is not None:
        j, w = later
        lead = first * pow(mult, j, mod)  # output j's state is lead + inc (1 + mult + ... + mult^(j - 1))
        if j % 2:  # a sum of an odd count of odd powers is odd, so invertible
            inc = (w - lead) * pow(sum(pow(mult, i, mod) for i in range(j)), -1, mod) % mod
        else:
            assert j == 2
            h = (lead ^ w) & 1  # keeps that state's parity that of lead, as 1 + mult is even
            inc = ((h << 64 | w ^ h) - lead) % mod // 2 * pow((1 + mult) // 2, -1, mod) % mod
    state = {"state": (first - inc) * pow(mult, -1, mod) % mod, "inc": inc}
    has_uint32 = int(buffered is not None)
    return {"bit_generator": "PCG64", "state": state, "has_uint32": has_uint32, "uinteger": buffered or 0}


def half_with_low(m_agents, low):
    """The 32-bit half w with w M = low in its low 32 bits (M odd)."""
    w = low * pow(m_agents, -1, 1 << 32) % (1 << 32)
    assert w * m_agents & 0xFFFFFFFF == low
    return w


class TestProductEdge:
    """Crafted words put a product's low 32 bits on 2^32 mod M (accepted) or
    one below it (a redraw), in a round that opens a word or takes a buffered
    half, with that round's normal on or off the ziggurat's fast path. An odd
    M makes both products reachable; at M = 3 the threshold is 1, so a half
    of 0xAAAAAAAB lands on it and a half of 0 lies below it."""

    @pytest.mark.parametrize("slow", [False, True], ids=["fast", "slow"])
    @pytest.mark.parametrize("accepted", [True, False], ids=["at", "below"])
    @pytest.mark.parametrize("where", ["opening", "state-buffer", "word-buffer"])
    @pytest.mark.parametrize("m_agents", [3, 7, 2**31 + 1])
    def test_block_against_per_round(self, m_agents, where, accepted, slow):
        schedule = ActivationSchedule("uniform-random", m_agents)
        threshold = schedule._threshold
        if m_agents == 3:
            assert threshold == 1 and half_with_low(3, 1) == 0xAAAAAAAB and half_with_low(3, 0) == 0
        half = half_with_low(m_agents, threshold if accepted else threshold - 1)
        ok = half_with_low(m_agents, threshold)  # an accepted half for the rounds beside it
        fast, slow_word = 1 << 9 | 2, ((1 << 52) - 1) << 9 | 2
        words = np.array([fast, slow_word], dtype=np.uint64)
        assert stream._decode_normals(words, stream._ziggurat_tables())[1].tolist() == [True, False]
        normal = slow_word if slow else fast
        if where == "opening":  # round 0 takes word 0's low half, its normal is word 1
            edge, state = 0, crafted_state(ok << 32 | half, (1, normal))
        elif where == "state-buffer":  # round 0 takes the state's half, its normal is word 0
            edge, state = 0, crafted_state(normal, (1, ok << 32 | ok), buffered=half)
        else:  # round 1 takes word 0's high half, its normal is word 2
            edge, state = 1, crafted_state(half << 32 | ok, (2, normal))
        rng, ref = make_rng(0), make_rng(0)
        rng.bit_generator.state = ref.bit_generator.state = state
        agents, normals = schedule.block(rng, 20)
        # the block goes on past the edge round: a redraw is decoded from the
        # halves after it, and numpy draws a slow normal on the second generator
        assert len(agents) > edge + 1
        rest = block_stream(schedule, rng, 20 - len(agents))
        want = per_round_stream("uniform-random", m_agents, ref, 20)
        assert agents + rest[0] == want[0]
        assert np.array(normals + rest[1]).tobytes() == np.array(want[1]).tobytes()
        assert live_state(rng) == live_state(ref)

    @pytest.mark.parametrize("opening", [True, False], ids=["opening", "buffered"])
    @pytest.mark.parametrize("m_agents", [3, 7])
    def test_redraw_mid_chunk(self, m_agents, opening):
        # three regular triplets take words 0-8, so round 6 opens word 9: a
        # rejected low half is redrawn from its high half; a rejected high
        # half is round 7's buffered one, redrawn from word 11's low half
        threshold = ActivationSchedule("uniform-random", m_agents)._threshold
        ok, below = half_with_low(m_agents, threshold), half_with_low(m_agents, threshold - 1)
        word = ok << 32 | below if opening else below << 32 | ok
        state = crafted_state(ok << 32 | ok, (9, word))
        rng, ref, probe = make_rng(0), make_rng(0), np.random.PCG64()
        rng.bit_generator.state = ref.bit_generator.state = probe.state = state
        schedule = ActivationSchedule("uniform-random", m_agents)
        agents, normals = schedule.block(rng, 20)
        assert len(agents) > 8
        want = per_round_stream("uniform-random", m_agents, ref, 6)
        probe.random_raw(9)
        assert live_state(ref) == live_state(np.random.Generator(probe))
        more = per_round_stream("uniform-random", m_agents, ref, 14)
        rest = block_stream(schedule, rng, 20 - len(agents))
        assert agents + rest[0] == want[0] + more[0]
        assert np.array(normals + rest[1]).tobytes() == np.array(want[1] + more[1]).tobytes()
        assert live_state(rng) == live_state(ref)


def test_import_builds_no_ziggurat_tables():
    # the benchmark's setup_s times the import; the tables are read on first use
    code = "import fedpex, fedpex.stream as s, sys; sys.exit(s._ziggurat is not None)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# falinpe, planted mutations and fixed activation sequences
# ---------------------------------------------------------------------------


class TestFalinpeAgainstPerPullDraws:
    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_identical_results(self, m, activation, server_states):
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(900 + m), sigma=0.2)
        base = RunConfig(n_agents=m, seed=m, activation=activation, epsilon=0.05, max_rounds=20_000)
        configs = [base, replace(base, arm_select="greedy", seed=m + 1), replace(base, max_rounds=40)]
        results = [assert_same(inst, cfg, server_states, audit=m == 3) for cfg in configs]
        assert results[0].terminated and not results[-1].terminated

    def test_every_download_counts_its_lp_fallback(self, monkeypatch, server_states):
        def infeasible(contexts, y):
            raise lin.InfeasibleTargetError("no LP target")

        monkeypatch.setattr(lin, "solve_l1", infeasible)
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(950), sigma=0.2)
        for m in (1, 3):
            got = assert_same(inst, RunConfig(n_agents=m, seed=m, epsilon=0.05), server_states)
            # initialization is one download that all M agents hold, each counting its fallback
            assert got.terminated and got.lp_fallbacks == m + got.n_downloads
            sync = assert_same(inst, SyncConfig(n_agents=m, seed=m, episode_len=5, epsilon=0.05), server_states)
            # one common target per download of the merged state
            assert sync.terminated and sync.lp_fallbacks == sync.n_downloads // m


# the driver's running reward sums, mis-folded: the audit takes each upload's
# (n, sum) from the driver, so only a reference that draws every reward itself
# sees these
REWARD_FOLD_MUTATIONS = {
    # the reward of every uploading round is left out of its upload's sum
    "last-reward-not-folded": (
        "sums[m] += means[ag.current_target - 1] + sigma * z",
        "sums[m] += (means[ag.current_target - 1] + sigma * z) * (held[m] <= ag.trigger_limit)",
    ),
    # an upload's sum is sent again in the uploader's next upload
    "sum-not-reset": ("held[m], sums[m] = 0, 0.0", "held[m] = 0"),
}


class TestRewardFoldMutationsFailTheReferences:
    @pytest.mark.parametrize("mutation", list(REWARD_FOLD_MUTATIONS))
    @pytest.mark.parametrize("family", ["famabpe", "falinpe"])
    def test_whole_run_comparison_fails(self, family, mutation, mutate_driver, server_states):
        mutate_driver(*REWARD_FOLD_MUTATIONS[mutation])
        if family == "famabpe":
            inst, cfg = gen_gap_instance_mab(5, 0.3, make_rng(27), sigma=0.3), RunConfig(n_agents=3, seed=8)
        else:
            inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(26), sigma=0.3)
            cfg = RunConfig(n_agents=3, seed=7, epsilon=0.05)
        with pytest.raises(AssertionError) as failed:
            assert_same(inst, cfg, server_states)
        # the comparison failed, not the driver's own checks
        assert not isinstance(failed.value, AuditError)


def fixed_schedule(sequence):
    """An ActivationSchedule for the drivers whose blocks take the active
    agents from `sequence`, repeated, and one normal per round from the run's
    rng: the stream that fixed(sequence) gives the reference."""

    class FixedSchedule:
        def __init__(self, policy, n_agents):
            self.t = 0

        def block(self, rng, n):
            count = min(n, 4096)
            agents = [sequence[(self.t + i) % len(sequence)] for i in range(count)]
            self.t += count
            return agents, rng.standard_normal(count).tolist()

    return FixedSchedule


# activation sequences of M agents, up to a round cap, that uniform and
# round-robin activation rarely make
PATTERNS = {
    # one agent does all the work while M - 1 hold set-up's download
    "one-agent": lambda m, cap: [0],
    # one agent activates once, then never again
    "once-then-never": lambda m, cap: [m - 1] + [0] * cap,
    "bursts-of-50": lambda m, cap: [a for a in range(m) for _ in range(50)],
    # two agents alternate among M
    "two-alternate": lambda m, cap: [0, 1],
}


class TestFixedActivationSequences:
    """The asynchronous drivers, their activations taken from a fixed
    sequence, equal the reference loop fed the same sequence: RunResult,
    audit log and server-state bytes, and famabpe's uploads its replay."""

    @pytest.mark.parametrize("m", [2, 10])
    @pytest.mark.parametrize("pattern", list(PATTERNS))
    def test_audited_runs_equal_the_reference(self, pattern, m, monkeypatch, server_states):
        cap = 20_000
        sequence = PATTERNS[pattern](m, cap)
        monkeypatch.setattr(runner, "ActivationSchedule", fixed_schedule(sequence))
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(1500 + m), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1510 + m), sigma=0.2)
        for inst, cfg in (
            (mab_inst, RunConfig(n_agents=m, seed=m, max_rounds=cap)),
            (lin_inst, RunConfig(n_agents=m, seed=m, epsilon=0.05, max_rounds=cap)),
        ):
            assert assert_same(inst, cfg, server_states, source=fixed(sequence), audit=True).terminated


# ---------------------------------------------------------------------------
# Synchronous baselines: the per-round loops against block-drawn episodes
# ---------------------------------------------------------------------------


# the synchronous driver, mutated: it keeps no audit, so only a reference
# that draws and folds every reward itself sees these
SYNC_MUTATIONS = {
    # an episode's reward sums are carried into the next episode's uploads
    "sums-not-reset": ("sums, held = np.zeros(m_agents), 0\n        comm", "held = 0\n        comm"),
    # the first warm-up pull is merged as a pull of the next arm
    "warm-up-pull-to-the-next-arm": ("fam.merge(server, a + 1, 1,", "fam.merge(server, (a + (r == m == 0)) % k + 1, 1,"),
}
EPISODES = (1, 3, 7, 100)
SYNC_SHAPES = [(m, k, e) for m in (1, 3, 10) for k in (2, 5, 8) for e in EPISODES]


class TestSyncAgainstPerRoundLoops:
    @pytest.mark.parametrize("m,k,e", SYNC_SHAPES, ids=[f"M{m}-K{k}-E{e}" for m, k, e in SYNC_SHAPES])
    def test_mab(self, m, k, e, server_states):
        inst = gen_gap_instance_mab(k, 0.3, make_rng(1000 + 7 * m + k), sigma=0.3)
        base = SyncConfig(n_agents=m, seed=m + k + e, episode_len=e, max_rounds=50_000)
        results = [
            assert_same(inst, base, server_states),
            assert_same(inst, replace(base, seed=base.seed + 1, epsilon=0.1), server_states),
            # noiseless: every reward is its arm's mean plus 0 * z
            assert_same(replace(inst, sigma=0.0), replace(base, epsilon=0.05), server_states),
            # cut part-way into an episode (or the warm-up)
            assert_same(inst, replace(base, max_rounds=k + m * (e + e // 2 + 2) + 1), server_states),
        ]
        assert not results[-1].terminated and any(r.terminated for r in results)

    @pytest.mark.parametrize("arm_select", ["lp", "greedy"])
    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("e", EPISODES)
    def test_linear(self, e, m, arm_select, server_states):
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1100 + m + e), sigma=0.2)
        base = SyncConfig(n_agents=m, seed=m + e, episode_len=e, arm_select=arm_select, epsilon=0.05,
                          max_rounds=20_000)
        results = [
            assert_same(inst, base, server_states),
            assert_same(replace(inst, sigma=0.0), replace(base, seed=base.seed + 1), server_states),
            assert_same(inst, replace(base, max_rounds=5 + m * (e + e // 2 + 2) + 1), server_states),
        ]
        assert not results[-1].terminated and results[0].terminated

    def test_warm_up_longer_than_an_episode(self, server_states):
        # K=8, M=1: eight warm-up rounds span two episode boundaries of E=3
        inst = gen_gap_instance_mab(8, 0.3, make_rng(1200), sigma=0.3)
        for cap in (9, 10, 14, 50_000):
            cfg = SyncConfig(n_agents=1, seed=2, episode_len=3, max_rounds=cap)
            assert_same(inst, cfg, server_states)
        lin_inst = gen_gap_instance_linear(3, 8, 0.3, make_rng(1201), sigma=0.2)
        assert_same(lin_inst, SyncConfig(n_agents=1, seed=2, episode_len=3, epsilon=0.05), server_states)

    @pytest.mark.parametrize("e", [1, 2, 3, 100])
    def test_smallest_accepted_cap(self, e, server_states):
        # M=3, K=5: the warm-up's ceil(K/M) M = 6 > K pulls are the whole run,
        # which ends at the warm-up's download before any episode
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(1400), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1401), sigma=0.2)
        for inst in (mab_inst, lin_inst):
            got = assert_same(inst, SyncConfig(n_agents=3, seed=e, episode_len=e, max_rounds=6), server_states)
            assert (got.tau, got.terminated, got.n_downloads) == (6, False, 3)
            assert got.comm_cost + got.init_comm == 6 * (2 if e == 1 else 1)

    def test_signed_zero_rewards(self, server_states):
        # sigma = 0 with means of -0.0 and 0.0: rewards are -0.0 or 0.0 by the sign of z
        inst = MabInstance(means=(0.5, -0.0, 0.0, 0.2), sigma=0.0)
        for e in (1, 3, 100):
            cfg = SyncConfig(n_agents=3, seed=e, episode_len=e, epsilon=0.1)
            assert_same(inst, cfg, server_states)

    @pytest.mark.parametrize("mutation", list(SYNC_MUTATIONS))
    @pytest.mark.parametrize("linear", [False, True], ids=["mab", "linear"])
    def test_planted_driver_mutations_fail(self, linear, mutation, mutate_driver, server_states):
        mutate_driver(*SYNC_MUTATIONS[mutation], driver=baselines.run_synchronous)
        if linear:
            inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1501), sigma=0.2)
        else:
            inst = gen_gap_instance_mab(5, 0.3, make_rng(1500), sigma=0.3)
        with pytest.raises(AssertionError) as failed:
            assert_same(inst, SyncConfig(n_agents=3, seed=4, episode_len=3, epsilon=0.05), server_states)
        assert not isinstance(failed.value, AuditError)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_blocks_shorter_than_an_episode(self, block, monkeypatch, server_states):
        monkeypatch.setattr(baselines, "MAX_BLOCK", block)
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(1300), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1301), sigma=0.2)
        for m, e in ((1, 7), (3, 100), (10, 12)):
            assert_same(mab_inst, SyncConfig(n_agents=m, seed=e, episode_len=e), server_states)
            cut = SyncConfig(n_agents=m, seed=e, episode_len=e, max_rounds=5 + 2 * m * e)
            assert_same(mab_inst, cut, server_states)
            lin_cfg = SyncConfig(n_agents=m, seed=e, episode_len=e, epsilon=0.05)
            assert_same(lin_inst, lin_cfg, server_states)
