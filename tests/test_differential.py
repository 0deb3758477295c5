"""Differential tests: every fast path against the slow path it replaced.

The reference functions below are the former implementations, kept here
only as oracles. For the linear layers: the loop Cholesky and triangular
solves, the log-determinant trigger, per-arm width scoring, the greedy
rule that refactors cov + x x^T for every arm, the per-solve target
choice that whitens afresh, and the loop informative_arm_lp, on random SPD
snapshots at d = 2, 5, 10; and the hybrid rule itself against the integer trigger limit
fixed at download. For famabpe: the driver with K-length pending arrays per
agent, the exact rational trigger, the masked server merge, a stop check
that computes the widths from the counts and B from numpy scalars, and a
download that recomputes the target from the snapshot. For both families' merges:
buffers that add every pull as it happens. For the pull path: drivers
that draw every activation with `rng.integers` and every reward with
`sample_reward_*`, one pull at a time, including the per-round synchronous
loops that the block-drawn episodes replaced.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fedpex import baselines, linalg, runner, stream
from fedpex import linear as lin
from fedpex import mab
from fedpex.core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    make_rng,
    sample_reward_linear,
    sample_reward_mab,
)
from fedpex.baselines import SyncConfig, run_single_agent, run_synchronous
from fedpex.design_lp import (
    SUPPORT_TOL,
    InfeasibleTargetError,
    NoSupportError,
    ZeroTargetError,
    design_support,
    informative_arm_lp,
)
from fedpex.linalg import NotPositiveDefiniteError, back_sub, cholesky, forward_sub, quad_form_inv, solve
from fedpex.runner import (
    MAX_BLOCK,
    ActivationSchedule,
    AuditRecord,
    LinearFamily,
    MabFamily,
    linear_comm_bound,
    mab_comm_bound,
    run_falinpe,
    run_famabpe,
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


@dataclass
class RefLinAgent:
    """A reference driver's agent: a copy of its snapshot's fields and
    buffers that add every pull as it happens."""

    cov: np.ndarray
    counts: np.ndarray
    pending_cov: np.ndarray  # sum of x x^T over the pulls not yet uploaded
    pending_resp: np.ndarray  # sum of r x over the same pulls
    current_target: int
    counts_total: int
    pending_total: int
    target_context: np.ndarray
    target_outer: np.ndarray
    target_q: float
    trigger_limit: int


def ref_trigger_hybrid(agent, gamma1, gamma2):
    """The count rule in exact rationals, or pending_total * target_q > gamma1."""
    g2 = Fraction(gamma2)
    lhs = (agent.counts_total + agent.pending_total) * g2.denominator
    if lhs > (g2.denominator + g2.numerator) * agent.counts_total:
        return True
    return agent.pending_total * agent.target_q > float(gamma1)


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


# The linear message path before a run's values were resolved once: the stop
# check and download as they were composed from the public kernels, with the
# run's Fractions passed to every call. The drivers' fast path must match
# them bit for bit.


def ref_pair(rewards, zx, c):
    """0-based best arm i, challenger j and j's score, out of place."""
    i = int(rewards.argmax())
    diff = zx[:, i, None] - zx
    scores = rewards - rewards[i] + np.sqrt((diff * diff).sum(0)) * c
    scores[i] = -np.inf
    j = int(scores.argmax())
    return i, j, float(scores[j])


def ref_stop_check(server, contexts, dim, delta, sigma, ridge, gamma1, gamma2, n_agents):
    """public cholesky and forward_sub on a fresh [X | resp], c_scalar on Fractions."""
    z = forward_sub(cholesky(server.cov), np.concatenate((contexts, server.resp[None])).T)
    zx = z[:, :-1]
    c = lin.c_scalar(server.counts_total, dim, delta, sigma, ridge, gamma1, gamma2, n_agents)
    i, j, b = ref_pair(z[:, -1] @ zx, zx, c)
    return lin.StopCheck(i + 1, j + 1, b, zx)


def ref_informative_arm_lp(counts, p):
    """The loop form of informative_arm_lp: arm (1-based) minimizing
    counts_k / p_k over the arms with p_k > SUPPORT_TOL, ties to the lowest."""
    best = -1
    best_score = np.inf
    for k, pk in enumerate(p):
        if pk > SUPPORT_TOL:
            score = counts[k] / pk
            if score < best_score:
                best_score = score
                best = k
    if best < 0:
        raise NoSupportError("selection distribution has empty support")
    return best + 1


def ref_select_arm_greedy(cov, contexts, y, sense="min"):
    """The per-solve greedy rule: factor cov and whiten y and the contexts afresh."""
    z = forward_sub(cholesky(cov), np.column_stack((y, contexts.T)))
    return lin.select_arm_greedy(z[:, 0], z[:, 1:], sense)


def ref_choose(cov, counts, contexts, i, j, arm_select, sense, zx=None, memo=None):
    """The arm from a memo of whole L1 solutions (a fresh one by default), by
    the loop informative_arm_lp; the greedy rule reads zx, or whitens afresh
    when it is not given."""
    y = contexts[i - 1] - contexts[j - 1]
    memo = {} if memo is None else memo
    if arm_select == "lp":
        if (i, j) not in memo:
            try:
                memo[(i, j)] = lin.solve_l1(contexts, y)
            except (ZeroTargetError, InfeasibleTargetError):
                memo[(i, j)] = None
        if memo[(i, j)] is not None:
            return ref_informative_arm_lp(counts, memo[(i, j)].p), False
    if zx is None:
        return ref_select_arm_greedy(cov, contexts, y, sense), arm_select == "lp"
    return lin.select_arm_greedy(zx[:, i - 1] - zx[:, j - 1], zx, sense), arm_select == "lp"


def ref_download(server, contexts, stop, gamma1, gamma2, arm_select, sense, memo):
    """A fresh x x^T and the trigger limit from float(gamma1) and gamma2's ratio."""
    i, j, _b, zx = stop
    target, fallback = ref_choose(server.cov, server.counts, contexts, i, j, arm_select, sense, zx, memo)
    z = zx[:, target - 1]
    q = float(z @ z)
    x = contexts[target - 1]
    d = len(x)
    limit = lin.trigger_limit_linear(server.counts_total, q, float(gamma1), gamma2.as_integer_ratio())
    agent = RefLinAgent(
        cov=server.cov,
        counts=server.counts,
        pending_cov=np.zeros((d, d)),
        pending_resp=np.zeros(d),
        current_target=target,
        counts_total=server.counts_total,
        pending_total=0,
        target_context=x,
        target_outer=x[:, None] * x,
        target_q=q,
        trigger_limit=limit,
    )
    return agent, fallback


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
        greedy_sense="min",
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
    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_refactorization(self, d, sense):
        rng = np.random.default_rng(500 + d)
        for _ in range(30):
            cov, _resp, contexts = snapshot(rng, d)
            a, b = rng.choice(len(contexts), size=2, replace=False)
            y = contexts[a] - contexts[b]
            assert ref_select_arm_greedy(cov, contexts, y, sense) == ref_greedy(cov, contexts, y, sense)

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_duplicate_arms_and_zero_direction(self, sense):
        rng = np.random.default_rng(10)
        cov, _resp, contexts = snapshot(rng, 5, k_arms=6)
        contexts[4] = contexts[1]
        y = contexts[0] - contexts[2]
        assert ref_select_arm_greedy(cov, contexts, y, sense) == ref_greedy(cov, contexts, y, sense)
        assert ref_select_arm_greedy(cov, contexts, np.zeros(5), sense) == 1 == ref_greedy(
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
            arm, fell_back = lin.choose_informative_arm(np.ones(3), contexts, 1, 2, "lp", "min", zx, memo)
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
        via_memo, fell_back = lin.choose_informative_arm(array, eye, 1, 2, "lp", "min", eye, memo)
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
            arm, fallback = ref_choose(cov, server.counts, contexts, i, j, arm_select, "min")
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

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("d", DIMS)
    def test_greedy_scores(self, d, sense):
        rng = np.random.default_rng(900 + d)
        pick = np.argmin if sense == "min" else np.argmax
        for _ in range(30):
            cov, resp, contexts = snapshot(rng, d)
            _server, stop = stop_at(cov, resp, contexts, 1.0)
            zx = stop.zx
            a, b = rng.choice(len(contexts), size=2, replace=False)
            y = contexts[a] - contexts[b]
            got = lin.select_arm_greedy(zx[:, a] - zx[:, b], zx, sense)
            assert got == ref_greedy(cov, contexts, y, sense)
            vals = np.array([ref_quad_form_inv(cov + np.outer(x, x), y) for x in contexts])
            close(vals[got - 1], vals[pick(vals)], vals.max())
            # a zero direction scores every arm 0 and picks arm 1
            zero = lin.select_arm_greedy(zx[:, a] - zx[:, a], zx, sense)
            assert zero == 1 == ref_greedy(cov, contexts, np.zeros(d), sense)

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_duplicate_pair_falls_back_to_arm_1(self, sense):
        rng = np.random.default_rng(11)
        cov, resp, contexts = snapshot(rng, 5, k_arms=7)
        contexts[5] = contexts[2]
        _server, stop = stop_at(cov, resp, contexts, 1.0)
        counts = np.ones(7, dtype=np.int64)
        got = lin.choose_informative_arm(counts, contexts, 3, 6, "lp", sense, stop.zx, {})
        assert got == ref_choose(cov, counts, contexts, 3, 6, "lp", sense) == (1, True)

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
            want = ref_choose(cov, server.counts, contexts, stop.i, stop.j, arm_select, "min")
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

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("arm_select", ["lp", "greedy"])
    @pytest.mark.parametrize("d,k", [(3, 5), (5, 5), (10, 20)])
    def test_bit_equal(self, d, k, arm_select, sense):
        rng = np.random.default_rng(1200 + 10 * d + k)
        inst = crafted_linear(rng, d, k)
        configs = [
            RunConfig(n_agents=10, arm_select=arm_select, greedy_sense=sense),
            RunConfig(n_agents=3, delta=0.01, gamma1=0.37, gamma2=Fraction(2, 13), arm_select=arm_select,
                      greedy_sense=sense),
        ]
        seen = {"fallback": 0, "q0": 0, "tied": 0}
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
                ref, ref_fallback = ref_download(
                    server, fam.contexts, want, cfg.gamma1, cfg.gamma2, arm_select, sense, memo
                )
                assert (agent.current_target, fallback) == (ref.current_target, ref_fallback)
                assert (agent.target_q.hex(), agent.trigger_limit) == (ref.target_q.hex(), ref.trigger_limit)
                # the agent holds the server state itself, not a copy of its fields
                assert agent.snapshot is server and not hasattr(agent, "pending")
                seen["fallback"] += fallback
                seen["q0"] += agent.target_q == 0.0
                seen["tied"] += kind == "tied" and stop.i == 1
        # the edge cases were reached, not only the common path
        assert seen["tied"] > 0
        if arm_select == "lp":
            assert seen["fallback"] > 0
        if arm_select == "greedy" and sense == "max":
            assert seen["q0"] > 0


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

# buffer lengths on both sides of one and two fold blocks
MERGE_LENGTHS = (1, 2, 3, 17, MAX_BLOCK - 1, MAX_BLOCK, MAX_BLOCK + 1, 2 * MAX_BLOCK + 5, 5_000)

# contexts with exact zero components under a negative reward: the products
# r x hold -0.0, which a sum from +0.0 turns into +0.0
SIGNED_ZERO_CONTEXTS = np.array([[0.8, 0.0, -0.5], [0.0, -0.9, 0.25], [0.6, 0.0, 0.0]])
SIGNED_ZERO_THETA = np.array([-0.3, 0.5, 0.1])  # means -0.29, -0.425 and -0.18


def buffered(fam, rng, arm, n):
    """n rewards of `arm`, as the round loop computes them."""
    return [fam.instance.means[arm - 1] + fam.instance.sigma * z for z in rng.standard_normal(n).tolist()]


class TestMergeAgainstPerPullAdds:
    """MabFamily.merge and LinearFamily.merge fold an agent's buffer into the
    bytes that per-pull adds to buffers held since the download give."""

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("n", MERGE_LENGTHS)
    def test_mab(self, n, sigma):
        fam = MabFamily(MabInstance(means=(0.3, -0.0, 0.0, -0.4), sigma=sigma), RunConfig(n_agents=3))
        rng = make_rng(n)
        server = fam.init(rng)
        for arm in range(1, 5):
            rewards = buffered(fam, rng, arm, n)
            sums, counts = np.zeros(4), np.zeros(4, dtype=np.int64)
            for reward in rewards:
                sums[arm - 1] += reward
                counts[arm - 1] += 1
            want = ref_merge_mab(server, sums, counts)
            got = fam.merge(server, mab.AgentState(server, arm, n - 1), rewards)
            assert got.mean_est.tobytes() == want.mean_est.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes() and got.counts_total == want.counts_total
            assert got.two_over_counts.tobytes() == want.two_over_counts.tobytes()
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
        got = fam.merge(server, mab.AgentState(server, 2, n - 1), [-0.0] * n)
        assert got.mean_est.tobytes() == want.mean_est.tobytes()
        assert not np.signbit(got.mean_est[1])

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("n", MERGE_LENGTHS)
    def test_linear(self, n, sigma):
        inst = LinearInstance(contexts=SIGNED_ZERO_CONTEXTS, theta=SIGNED_ZERO_THETA, sigma=sigma)
        fam = LinearFamily(inst, RunConfig(n_agents=3))
        rng = make_rng(n)
        # a response of -0.0, which no run reaches, shows a fold's start: only
        # a sum from +0.0 turns -0.0 + (products of -0.0) into +0.0
        server = replace(fam.init(rng), resp=np.full(3, -0.0))
        negative_zeros = 0
        for arm in range(1, 4):
            x, rewards = SIGNED_ZERO_CONTEXTS[arm - 1], buffered(fam, rng, arm, n)
            pending_cov, pending_resp = np.zeros((3, 3)), np.zeros(3)
            for reward in rewards:
                pending_cov += np.outer(x, x)
                product = reward * x
                negative_zeros += int((np.signbit(product) & (product == 0.0)).sum())
                pending_resp += product
            counts = server.counts.copy()
            counts[arm - 1] += n
            want = lin.server_merge_linear(server, pending_cov, pending_resp, counts, n)
            got = fam.merge(server, mab.AgentState(server, arm, n - 1), rewards)
            for name in ("cov", "resp", "counts"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.counts_total == want.counts_total
            server = got
        assert negative_zeros > 0

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_linear_across_many_blocks(self, block, monkeypatch):
        """Small blocks carry the partial sums across many block boundaries."""
        inst = LinearInstance(contexts=SIGNED_ZERO_CONTEXTS, theta=SIGNED_ZERO_THETA, sigma=0.7)
        fam = LinearFamily(inst, RunConfig(n_agents=3))
        server = fam.init(make_rng(block))
        rewards = buffered(fam, make_rng(block + 1), 2, 40)
        want = fam.merge(server, mab.AgentState(server, 2, 0), rewards)
        monkeypatch.setattr(runner, "MAX_BLOCK", block)
        got = fam.merge(server, mab.AgentState(server, 2, 0), rewards)
        assert (got.cov.tobytes(), got.resp.tobytes()) == (want.cov.tobytes(), want.resp.tobytes())

    def test_linear_fold_memory_is_one_block(self):
        # 20,000 pulls at d = 10 would be a 17.6 MB stack; one block is 0.9 MB
        inst = gen_gap_instance_linear(10, 20, 0.3, make_rng(3), sigma=0.3)
        fam = LinearFamily(inst, RunConfig(n_agents=3))
        server = fam.init(make_rng(4))
        agent, rewards = mab.AgentState(server, 5, 0), buffered(fam, make_rng(5), 5, 20_000)
        tracemalloc.start()
        try:
            fam.merge(server, agent, rewards)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@pytest.fixture
def read_only_states(monkeypatch):
    """Makes every array of every server state that a merge or a family's
    init returns read-only; returns the count of states made so."""
    made = []

    def read_only(fn):
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            for value in vars(state).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            made.append(1)
            return state

        return wrapper

    monkeypatch.setattr(mab, "server_merge_mab", read_only(mab.server_merge_mab))
    monkeypatch.setattr(lin, "server_merge_linear", read_only(lin.server_merge_linear))
    for family in (MabFamily, LinearFamily):
        monkeypatch.setattr(family, "init", read_only(family.init))
    return made


class TestSnapshotsAreNeverWritten:
    """Agents hold the server states they downloaded by reference, so no
    driver, merge, stop check, download or audit may write one."""

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_audited_async_runs(self, m, read_only_states):
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(60 + m), sigma=0.3)
        run_famabpe(mab_inst, RunConfig(n_agents=m, seed=m), audit=True)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(70 + m), sigma=0.2)
        for arm_select in ("lp", "greedy"):
            run_falinpe(lin_inst, RunConfig(n_agents=m, seed=m, epsilon=0.05, arm_select=arm_select), audit=True)
        run_single_agent(mab_inst, RunConfig(seed=m))
        assert len(read_only_states) > 100

    def test_synchronous_runs(self, read_only_states):
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(80), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(81), sigma=0.2)
        for e in (1, 7):
            run_synchronous(mab_inst, SyncConfig(n_agents=3, seed=e, episode_len=e))
            run_synchronous(lin_inst, SyncConfig(n_agents=3, seed=e, episode_len=e, epsilon=0.05))
        assert len(read_only_states) > 100


# ---------------------------------------------------------------------------
# famabpe: array buffers against the frozen-arm buffer
# ---------------------------------------------------------------------------


@dataclass
class RefMabAgent:
    mean_est: np.ndarray
    counts: np.ndarray
    pending_sums: np.ndarray
    pending_counts: np.ndarray
    current_target: int
    counts_total: int
    pending_total: int


def ref_snapshot(server, delta, sigma, gamma_m):
    k = len(server.mean_est)
    target = mab.agent_target_mab(server.mean_est, server.counts, server.counts_total, delta, sigma, gamma_m)
    return RefMabAgent(
        mean_est=server.mean_est.copy(),
        counts=server.counts.copy(),
        pending_sums=np.zeros(k),
        pending_counts=np.zeros(k, dtype=np.int64),
        current_target=target,
        counts_total=server.counts_total,
        pending_total=0,
    )


def ref_trigger_mab(counts_total, pending_total, gamma):
    """sum(counts + pending) > (1 + gamma) sum(counts) in exact rationals."""
    g = Fraction(gamma)
    return (counts_total + pending_total) * g.denominator > (g.denominator + g.numerator) * counts_total


def ref_merge_mab(server, pending_sums, pending_counts):
    new_counts = server.counts + pending_counts
    mean = server.mean_est.copy()
    touched = pending_counts > 0
    old = server.mean_est[touched] * server.counts[touched]
    mean[touched] = (old + pending_sums[touched]) / new_counts[touched]
    return mab.MabServerState(mean, new_counts, server.counts_total + int(pending_counts.sum()), 2.0 / new_counts)


def ref_bonuses_mab(counts, t_sum, delta, sigma, gamma_m):
    """The confidence widths by their formula from the counts, as bonuses_mab
    computed them before server states carried 2/counts."""
    arg = (4.0 * len(counts) / delta) * ((1.0 + gamma_m) * t_sum) ** 2
    return sigma * np.sqrt((2.0 / counts) * math.log(arg))


def ref_breaking_index(mean_est, bonuses):
    """select_pair_mab's pair, and B from four numpy-scalar operations."""
    i, j = mab.select_pair_mab(mean_est, bonuses)
    return i, j, float(mean_est[j - 1] - mean_est[i - 1] + bonuses[i - 1] + bonuses[j - 1])


def ref_next_agent(activation, m_agents, tau, k, rng):
    """The active agent of round tau > K, drawn by the Generator itself."""
    if m_agents == 1:
        return 0
    if activation == "uniform-random":
        return int(rng.integers(m_agents))
    return (tau - k - 1) % m_agents


def ref_run_famabpe(instance, config, audit_log, comm_every_round=False):
    """The famabpe driver with K-length pending arrays per agent."""
    cfg = config.resolved(instance.k_arms)
    k, m_agents, gamma = instance.k_arms, cfg.n_agents, cfg.gamma
    gamma_m = float(gamma) * m_agents
    rng = make_rng(cfg.seed)
    init_rewards = np.array([sample_reward_mab(instance, a, rng) for a in range(1, k + 1)])
    server = mab.MabServerState(init_rewards, np.ones(k, dtype=np.int64), k, np.full(k, 2.0))
    # every agent downloads the initialized state, which is stop-checked once
    ref_breaking_index(server.mean_est, ref_bonuses_mab(server.counts, k, cfg.delta, instance.sigma, gamma_m))
    agents = [ref_snapshot(server, cfg.delta, instance.sigma, gamma_m) for _ in range(m_agents)]
    pulls = np.ones(k, dtype=np.int64)
    comm = switches = downloads = 0
    tau = k
    stopped = False
    best_est = 0
    while not stopped and tau < cfg.max_rounds:
        tau += 1
        m = ref_next_agent(cfg.activation, m_agents, tau, k, rng)
        ag = agents[m]
        arm = ag.current_target
        ag.pending_sums[arm - 1] += sample_reward_mab(instance, arm, rng)
        ag.pending_counts[arm - 1] += 1
        ag.pending_total += 1
        pulls[arm - 1] += 1
        if comm_every_round or ref_trigger_mab(ag.counts_total, ag.pending_total, gamma):
            comm += 1
            server = ref_merge_mab(server, ag.pending_sums, ag.pending_counts)
            bon = ref_bonuses_mab(server.counts, server.counts_total, cfg.delta, instance.sigma, gamma_m)
            i, _j, b_value = ref_breaking_index(server.mean_est, bon)
            target = None
            if b_value <= cfg.epsilon:
                stopped = True
                best_est = i
            else:
                comm += 1
                downloads += 1
                agents[m] = ref_snapshot(server, cfg.delta, instance.sigma, gamma_m)
                target = agents[m].current_target
                switches += target != arm
            audit_log.append(AuditRecord(tau, m + 1, arm, ag.pending_total, target, stopped, b_value))
    if not stopped:
        best_est = int(np.argmax(server.mean_est)) + 1
    if stopped and not comm_every_round:
        assert comm <= mab_comm_bound(m_agents, gamma, tau)
    return RunResult(
        best_arm_est=best_est,
        best_arm_true=instance.best_arm(),
        correct=instance.gap(best_est) <= cfg.epsilon,
        tau=tau,
        comm_cost=comm,
        init_comm=k + m_agents,
        switch_cost=switches,
        pulls_per_arm=tuple(int(x) for x in pulls),
        terminated=stopped,
        n_downloads=downloads,
    )


def assert_same_famabpe(instance, config, states, audit=False, comm_every_round=False):
    ref_log, log = [], []
    want = ref_run_famabpe(instance, config, ref_log, comm_every_round)
    ref_states = stop_checks(states)
    states.clear()
    got = run_famabpe(instance, config, audit=audit, audit_log=log, comm_every_round=comm_every_round)
    assert got.to_json() == want.to_json()
    assert log == ref_log
    assert stop_checks(states) == ref_states
    assert len(ref_states) == 1 + got.comm_cost - got.n_downloads  # the initialized state and every upload's
    states.clear()
    return got


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
        results = [assert_same_famabpe(inst, cfg, server_states, audit=m * k <= 50) for cfg in configs]
        assert not results[-1].terminated
        assert any(r.terminated for r in results)

    @pytest.mark.parametrize("m,k", [(1, 2), (1, 5), (1, 50), (3, 5), (10, 2)])
    def test_comm_every_round(self, m, k, server_states):
        inst = gen_gap_instance_mab(k, 0.4, make_rng(800 + m + k), sigma=0.3)
        cfg = RunConfig(n_agents=m, seed=k, max_rounds=20_000)
        res = assert_same_famabpe(inst, cfg, server_states, comm_every_round=True)
        assert res.comm_cost == 2 * (res.tau - k) - res.terminated

    def test_signed_zero_rewards(self, server_states):
        # sigma = 0: an initial reward of -0.0 stays -0.0 in the initialized state
        inst = MabInstance(means=(0.5, -0.0, 0.0, 0.2), sigma=0.0)
        for m in (1, 3):
            assert_same_famabpe(inst, RunConfig(n_agents=m, seed=m, epsilon=0.1), server_states, audit=True)

    def test_the_single_agent_baseline_runs_through_the_same_path(self):
        inst = gen_gap_instance_mab(5, 0.3, make_rng(9), sigma=0.3)
        cfg = RunConfig(seed=4, epsilon=0.05)
        want = ref_run_famabpe(inst, cfg, [], comm_every_round=True)
        assert run_single_agent(inst, cfg).to_json() == want.to_json()


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
                assert out.two_over_counts.tobytes() == (2.0 / out.counts).tobytes()

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
        agents.append(ref_next_agent(activation, m_agents, t + 1, 0, rng))
        normals.append(rng.standard_normal())
    return agents, normals


def block_stream(schedule, rng, n, full_starts=None):
    agents, normals = [], []
    while len(agents) < n:
        if full_starts is not None:
            full_starts.append(rng.bit_generator.state["has_uint32"])
        a, z = schedule.block(rng, n - len(agents))
        assert 1 <= len(a) == len(z) <= n - len(agents)
        agents += a
        normals += z
    return agents, normals


def assert_same_stream(activation, m_agents, seed, n=STREAM_ROUNDS, lead=0, full_starts=None):
    """Blocks against per-round draws from the same seed, after `lead`
    Generator.integers draws on both (an odd lead leaves the buffer full)."""
    rng, ref = make_rng(seed), make_rng(seed)
    for _ in range(lead):
        assert int(rng.integers(m_agents)) == int(ref.integers(m_agents))
    schedule = ActivationSchedule(activation, m_agents)
    got = block_stream(schedule, rng, n, full_starts)
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
        sizes = [len(schedule.block(rng, 10**6)[0]) for _ in range(200)]
        assert max(sizes) <= 257 and sum(sizes) > 40 * len(sizes)
        # about three in four 20-round blocks hold no irregular round
        sizes = [len(schedule.block(rng, 21)[0]) for _ in range(200)]
        assert max(sizes) <= 21 and sum(size >= 20 for size in sizes) > 100

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
        assert_same_stream("uniform-random", m_agents, 11, lead=1, full_starts=full_starts)
        # the first block, and the blocks after most irregular even rounds
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

    def test_other_bit_generators_draw_per_round(self):
        rng, ref = (np.random.Generator(np.random.MT19937(3)) for _ in range(2))
        schedule = ActivationSchedule("uniform-random", 10)
        got = [schedule.block(rng, 100) for _ in range(2000)]
        assert all(len(agents) == 1 for agents, _ in got)
        want = per_round_stream("uniform-random", 10, ref, 2000)
        assert [a for agents, _ in got for a in agents] == want[0]
        assert [z for _, normals in got for z in normals] == want[1]
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    @pytest.mark.parametrize("m_agents", [3, 10])
    def test_every_round_irregular(self, m_agents, monkeypatch):
        wi, ki = stream._ziggurat_tables()
        monkeypatch.setattr(stream, "_ziggurat", (wi, np.zeros_like(ki)))
        rng = make_rng(6)
        schedule = ActivationSchedule("uniform-random", m_agents)
        assert all(len(schedule.block(rng, 100)[0]) == 1 for _ in range(100))
        assert_same_stream("uniform-random", m_agents, 6)
        assert_same_stream("uniform-random", m_agents, 7, lead=1)

    def test_famabpe_with_every_round_irregular(self, monkeypatch, server_states):
        wi, ki = stream._ziggurat_tables()
        monkeypatch.setattr(stream, "_ziggurat", (wi, np.zeros_like(ki)))
        inst = gen_gap_instance_mab(5, 0.3, make_rng(3), sigma=0.3)
        assert_same_famabpe(inst, RunConfig(n_agents=10, seed=3), server_states, audit=True)

    def test_failed_self_check_leaves_every_round_irregular(self, monkeypatch):
        # with a wrong multiplier the crafted words are not the ones drawn
        monkeypatch.setattr(stream, "_PCG64_MULT", stream._PCG64_MULT + 2)
        wi, ki = stream._read_ziggurat()
        assert not ki.any()
        monkeypatch.setattr(stream, "_ziggurat", (wi, ki))
        assert_same_stream("uniform-random", 10, 8, n=3000)

    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    def test_famabpe_cut_by_max_rounds_mid_block(self, activation, server_states):
        # epsilon 0 on a small gap: the round cap, not B, ends every run
        inst = gen_gap_instance_mab(5, 0.05, make_rng(12), sigma=1.0)
        for cap in (5 + 1, 5 + 2, 5 + 255, 5 + 256, 5 + 257, 5 + 3 * 256 + 101):
            cfg = RunConfig(n_agents=10, seed=cap, activation=activation, epsilon=0.0, max_rounds=cap)
            res = assert_same_famabpe(inst, cfg, server_states, audit=True)
            assert res.tau == cap and not res.terminated


def crafted_state(first, later=None, buffered=None):
    """A PCG64 state whose next outputs are the word `first` and, for
    later = (j, w) with j in (1, 2), the word w at output j, with `buffered`
    as its buffered 32-bit half. A state with high half h of 0 or 1 and low
    half w ^ h outputs w; the increment and the state before `first` are
    solved for with the multiplier's inverse, as stream._read_ziggurat does."""
    mult, mod = stream._PCG64_MULT, 1 << 128
    inc = 1
    if later is not None:
        j, w = later
        lead = first * pow(mult, j, mod)  # output j's state is lead + inc (1 + mult)^(j - 1)
        if j == 1:
            inc = (w - lead) % mod
        else:
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
        # a regular edge round is decoded in the block; any other ends it,
        # drawn per round
        if accepted and not slow:
            assert len(agents) > edge + 1
        else:
            assert len(agents) == edge + 1
        rest = block_stream(schedule, rng, 20 - len(agents))
        want = per_round_stream("uniform-random", m_agents, ref, 20)
        assert agents + rest[0] == want[0]
        assert np.array(normals + rest[1]).tobytes() == np.array(want[1]).tobytes()
        assert live_state(rng) == live_state(ref)


def test_import_builds_no_ziggurat_tables():
    # the benchmark's setup_s times the import; the tables are read on first use
    code = "import fedpex, fedpex.stream as s, sys; sys.exit(s._ziggurat is not None)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# falinpe: one sample_reward_linear call per pull
# ---------------------------------------------------------------------------


def ref_run_falinpe(instance, config, audit_log):
    """The falinpe driver with one activation and one reward call per pull."""
    cfg = config.resolved(instance.k_arms, instance.sigma)
    k, dim, m_agents = instance.k_arms, instance.dim, cfg.n_agents
    contexts = np.asarray(instance.contexts, dtype=float)
    rng = make_rng(cfg.seed)
    memo: dict = {}
    init_rewards = np.array([sample_reward_linear(instance, a, rng) for a in range(1, k + 1)])
    cov, resp = cfg.ridge * np.eye(dim), np.zeros(dim)
    for x, reward in zip(contexts, init_rewards):
        cov += np.outer(x, x)
        resp += reward * x
    server = lin.LinServerState(cov, resp, np.ones(k, dtype=np.int64), k)
    # every agent downloads the initialized state, which is stop-checked once
    stop = ref_stop_check(
        server, contexts, dim, cfg.delta, instance.sigma, cfg.ridge, cfg.gamma1, cfg.gamma2, m_agents
    )
    agents, fallbacks = [], 0
    for _ in range(m_agents):
        agent, fb = ref_download(
            server, contexts, stop, cfg.gamma1, cfg.gamma2, cfg.arm_select, cfg.greedy_sense, memo
        )
        agents.append(agent)
        fallbacks += int(fb)
    pulls = np.ones(k, dtype=np.int64)
    comm = switches = downloads = 0
    tau, stopped, best_est = k, False, 0
    while not stopped and tau < cfg.max_rounds:
        tau += 1
        m = ref_next_agent(cfg.activation, m_agents, tau, k, rng)
        ag = agents[m]
        arm = ag.current_target
        reward = sample_reward_linear(instance, arm, rng)
        ag.pending_cov += ag.target_outer
        ag.pending_resp += reward * ag.target_context
        ag.pending_total += 1
        pulls[arm - 1] += 1
        if ref_trigger_hybrid(ag, cfg.gamma1, cfg.gamma2):
            comm += 1
            counts = np.zeros(k, dtype=np.int64)
            counts[arm - 1] = ag.pending_total  # every pending pull was of the frozen target
            counts += server.counts
            server = lin.server_merge_linear(server, ag.pending_cov, ag.pending_resp, counts, ag.pending_total)
            stop = ref_stop_check(
                server, contexts, dim, cfg.delta, instance.sigma, cfg.ridge, cfg.gamma1, cfg.gamma2, m_agents
            )
            target = None
            if stop.b <= cfg.epsilon:
                stopped, best_est = True, stop.i
            else:
                comm += 1
                downloads += 1
                agents[m], fb = ref_download(
                    server, contexts, stop, cfg.gamma1, cfg.gamma2, cfg.arm_select, cfg.greedy_sense, memo
                )
                fallbacks += int(fb)
                target = agents[m].current_target
                switches += target != arm
            audit_log.append(AuditRecord(tau, m + 1, arm, ag.pending_total, target, stopped, stop.b))
    if not stopped:
        best_est = int(np.argmax(contexts @ lin.rls_estimate(server.cov, server.resp))) + 1
    else:
        assert comm <= linear_comm_bound(m_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, dim, tau)
    return RunResult(
        best_arm_est=best_est,
        best_arm_true=instance.best_arm(),
        correct=instance.gap(best_est) <= cfg.epsilon,
        tau=tau,
        comm_cost=comm,
        init_comm=k + m_agents,
        switch_cost=switches,
        pulls_per_arm=tuple(int(x) for x in pulls),
        terminated=stopped,
        n_downloads=downloads,
        lp_fallbacks=fallbacks,
    )


class TestFalinpeAgainstPerPullDraws:
    @pytest.mark.parametrize("activation", ["uniform-random", "round-robin"])
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_identical_results(self, m, activation, server_states):
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(900 + m), sigma=0.2)
        base = RunConfig(n_agents=m, seed=m, activation=activation, epsilon=0.05, max_rounds=20_000)
        configs = [base, replace(base, arm_select="greedy", seed=m + 1), replace(base, max_rounds=40)]
        results = []
        for cfg in configs:
            ref_log, log = [], []
            want = ref_run_falinpe(inst, cfg, ref_log)
            ref_states = server_states[:]
            server_states.clear()
            results.append(run_falinpe(inst, cfg, audit=m == 3, audit_log=log))
            assert results[-1].to_json() == want.to_json()
            assert log == ref_log
            # the bytes of every server state, not only its stop score B
            assert server_states == ref_states and ref_states
            assert len(ref_states) == 1 + want.comm_cost - want.n_downloads  # the initialized state and every upload's
            server_states.clear()
        assert results[0].terminated and not results[-1].terminated

    def test_every_download_counts_its_lp_fallback(self, monkeypatch, server_states):
        def infeasible(contexts, y):
            raise lin.InfeasibleTargetError("no LP target")

        monkeypatch.setattr(lin, "solve_l1", infeasible)
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(950), sigma=0.2)
        for m in (1, 3):
            cfg = RunConfig(n_agents=m, seed=m, epsilon=0.05)
            got = run_falinpe(inst, cfg)
            assert got.to_json() == ref_run_falinpe(inst, cfg, []).to_json()
            # initialization is one download that all M agents hold, each counting its fallback
            assert got.terminated and got.lp_fallbacks == m + got.n_downloads
            server_states.clear()
            sync = assert_same_sync(inst, SyncConfig(n_agents=m, seed=m, episode_len=5, epsilon=0.05), server_states)
            # one common target per download of the merged state
            assert sync.terminated and sync.lp_fallbacks == sync.n_downloads // m


# ---------------------------------------------------------------------------
# Synchronous baselines: the per-round loops against block-drawn episodes
# ---------------------------------------------------------------------------


def ref_run_sync_mab(instance, config):
    """The synchronous MAB loop with one sample_reward_mab call per pull."""
    cfg = config.resolved(instance.k_arms)
    k, m_agents, episode = instance.k_arms, cfg.n_agents, config.episode_len
    gamma_m = float(cfg.gamma) * m_agents
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)
    server = mab.MabServerState(np.zeros(k), np.zeros(k, dtype=np.int64), 0, np.full(k, math.inf))
    pend_sums = [np.zeros(k) for _ in range(m_agents)]
    pend_counts = [np.zeros(k, dtype=np.int64) for _ in range(m_agents)]
    targets = [None] * m_agents
    pulls = np.zeros(k, dtype=np.int64)
    tau = g = comm = init_comm = switches = downloads = 0
    stopped, best_est = False, 0
    while not stopped and tau + m_agents <= cfg.max_rounds:
        g += 1
        for m in range(m_agents):
            arm = ((g - 1) * m_agents + m) % k + 1 if g <= warmup else targets[m]
            pend_sums[m][arm - 1] += sample_reward_mab(instance, arm, rng)
            pend_counts[m][arm - 1] += 1
            pulls[arm - 1] += 1
            tau += 1
        at_sync, at_init = g % episode == 0, g == warmup
        if not (at_sync or at_init):
            continue
        for m in range(m_agents):
            for a in np.flatnonzero(pend_counts[m]):
                server = mab.server_merge_mab(server, a + 1, int(pend_counts[m][a]), float(pend_sums[m][a]))
            pend_sums[m][:] = 0.0
            pend_counts[m][:] = 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        if int(server.counts.min()) > 0:
            bon = ref_bonuses_mab(server.counts, server.counts_total, cfg.delta, instance.sigma, gamma_m)
            i, j, b = ref_breaking_index(server.mean_est, bon)
            if at_sync and g > warmup and b <= cfg.epsilon:
                stopped, best_est = True, i
                break
            new_target = mab.select_arm_mab(i, j, bon)
            for m in range(m_agents):
                downloads += 1
                switches += targets[m] is not None and targets[m] != new_target
                targets[m] = new_target
    if not stopped:
        best_est = int(np.argmax(server.mean_est)) + 1
    return sync_result(instance, cfg, best_est, tau, comm, init_comm, switches, pulls, stopped, downloads)


def ref_run_sync_linear(instance, config):
    """The synchronous linear loop with one sample_reward_linear call per pull."""
    cfg = config.resolved(instance.k_arms, instance.sigma)
    k, dim, m_agents, episode = instance.k_arms, instance.dim, cfg.n_agents, config.episode_len
    contexts = np.asarray(instance.contexts, dtype=float)
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)
    memo: dict = {}
    server = lin.LinServerState(cfg.ridge * np.eye(dim), np.zeros(dim), np.zeros(k, dtype=np.int64), 0)
    pend_cov = [np.zeros((dim, dim)) for _ in range(m_agents)]
    pend_resp = [np.zeros(dim) for _ in range(m_agents)]
    pend_counts = [np.zeros(k, dtype=np.int64) for _ in range(m_agents)]
    targets = [None] * m_agents
    pulls = np.zeros(k, dtype=np.int64)
    tau = g = comm = init_comm = switches = downloads = fallbacks = 0
    stopped, best_est = False, 0
    while not stopped and tau + m_agents <= cfg.max_rounds:
        g += 1
        for m in range(m_agents):
            arm = ((g - 1) * m_agents + m) % k + 1 if g <= warmup else targets[m]
            x = contexts[arm - 1]
            reward = sample_reward_linear(instance, arm, rng)
            pend_cov[m] += np.outer(x, x)
            pend_resp[m] += reward * x
            pend_counts[m][arm - 1] += 1
            pulls[arm - 1] += 1
            tau += 1
        at_sync, at_init = g % episode == 0, g == warmup
        if not (at_sync or at_init):
            continue
        for m in range(m_agents):
            server = lin.server_merge_linear(
                server, pend_cov[m], pend_resp[m], server.counts + pend_counts[m], int(pend_counts[m].sum())
            )
            pend_cov[m][:] = 0.0
            pend_resp[m][:] = 0.0
            pend_counts[m][:] = 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        if int(server.counts.min()) == 0:
            continue
        stop = ref_stop_check(
            server, contexts, dim, cfg.delta, instance.sigma, cfg.ridge, cfg.gamma1, cfg.gamma2, m_agents
        )
        if at_sync and g > warmup and stop.b <= cfg.epsilon:
            stopped, best_est = True, stop.i
            break
        agent, fb = ref_download(
            server, contexts, stop, cfg.gamma1, cfg.gamma2, cfg.arm_select, cfg.greedy_sense, memo
        )
        new_target = agent.current_target
        fallbacks += int(fb)
        for m in range(m_agents):
            downloads += 1
            switches += targets[m] is not None and targets[m] != new_target
            targets[m] = new_target
    if not stopped:
        best_est = int(np.argmax(contexts @ lin.rls_estimate(server.cov, server.resp))) + 1
    return sync_result(
        instance, cfg, best_est, tau, comm, init_comm, switches, pulls, stopped, downloads, fallbacks
    )


def sync_result(instance, cfg, best_est, tau, comm, init_comm, switches, pulls, stopped, downloads, fb=0):
    return RunResult(
        best_arm_est=best_est,
        best_arm_true=instance.best_arm(),
        correct=instance.gap(best_est) <= cfg.epsilon,
        tau=tau,
        comm_cost=comm,
        init_comm=init_comm,
        switch_cost=switches,
        pulls_per_arm=tuple(int(x) for x in pulls),
        terminated=stopped,
        n_downloads=downloads,
        lp_fallbacks=fb,
    )


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
            log.append((name, tuple(a.tobytes() for a in arrays)))
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((mab, "breaking_index"), (mab, "agent_target_mab"), (lin, "stopping_linear")):
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    # the reference drivers' stop checks are logged as the drivers' are
    monkeypatch.setattr(sys.modules[__name__], "ref_stop_check", logged("stopping_linear", ref_stop_check))
    monkeypatch.setattr(sys.modules[__name__], "ref_breaking_index", logged("breaking_index", ref_breaking_index))
    return log


def stop_checks(states):
    """The logged server states of the stop checks; an asynchronous run
    stop-checks the initialized state and every upload's state, and
    nothing else."""
    return [entry for entry in states if entry[0] != "agent_target_mab"]


def assert_same_sync(instance, config, states):
    ref = ref_run_sync_mab if isinstance(instance, MabInstance) else ref_run_sync_linear
    want = ref(instance, config)
    ref_states = states[:]
    states.clear()
    got = run_synchronous(instance, config)
    assert got.to_json() == want.to_json()
    assert states == ref_states and states
    states.clear()
    return got


EPISODES = (1, 3, 7, 100)
SYNC_SHAPES = [(m, k, e) for m in (1, 3, 10) for k in (2, 5, 8) for e in EPISODES]


class TestSyncAgainstPerRoundLoops:
    @pytest.mark.parametrize("m,k,e", SYNC_SHAPES, ids=[f"M{m}-K{k}-E{e}" for m, k, e in SYNC_SHAPES])
    def test_mab(self, m, k, e, server_states):
        inst = gen_gap_instance_mab(k, 0.3, make_rng(1000 + 7 * m + k), sigma=0.3)
        base = SyncConfig(n_agents=m, seed=m + k + e, episode_len=e, max_rounds=50_000)
        results = [
            assert_same_sync(inst, base, server_states),
            assert_same_sync(inst, replace(base, seed=base.seed + 1, epsilon=0.1), server_states),
            # noiseless: every reward is its arm's mean plus 0 * z
            assert_same_sync(replace(inst, sigma=0.0), replace(base, epsilon=0.05), server_states),
            # cut part-way into an episode (or the warm-up)
            assert_same_sync(inst, replace(base, max_rounds=k + m * (e + e // 2 + 2) + 1), server_states),
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
            assert_same_sync(inst, base, server_states),
            assert_same_sync(replace(inst, sigma=0.0), replace(base, seed=base.seed + 1), server_states),
            assert_same_sync(inst, replace(base, max_rounds=5 + m * (e + e // 2 + 2) + 1), server_states),
        ]
        assert not results[-1].terminated and results[0].terminated

    def test_warm_up_longer_than_an_episode(self, server_states):
        # K=8, M=1: eight warm-up rounds span two episode boundaries of E=3
        inst = gen_gap_instance_mab(8, 0.3, make_rng(1200), sigma=0.3)
        for cap in (9, 10, 14, 50_000):
            cfg = SyncConfig(n_agents=1, seed=2, episode_len=3, max_rounds=cap)
            assert_same_sync(inst, cfg, server_states)
        lin_inst = gen_gap_instance_linear(3, 8, 0.3, make_rng(1201), sigma=0.2)
        assert_same_sync(lin_inst, SyncConfig(n_agents=1, seed=2, episode_len=3, epsilon=0.05), server_states)

    def test_signed_zero_rewards(self, server_states):
        # sigma = 0 with means of -0.0 and 0.0: rewards are -0.0 or 0.0 by the sign of z
        inst = MabInstance(means=(0.5, -0.0, 0.0, 0.2), sigma=0.0)
        for e in (1, 3, 100):
            cfg = SyncConfig(n_agents=3, seed=e, episode_len=e, epsilon=0.1)
            assert_same_sync(inst, cfg, server_states)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_blocks_shorter_than_an_episode(self, block, monkeypatch, server_states):
        monkeypatch.setattr(baselines, "MAX_BLOCK", block)
        mab_inst = gen_gap_instance_mab(5, 0.3, make_rng(1300), sigma=0.3)
        lin_inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(1301), sigma=0.2)
        for m, e in ((1, 7), (3, 100), (10, 12)):
            assert_same_sync(mab_inst, SyncConfig(n_agents=m, seed=e, episode_len=e), server_states)
            cut = SyncConfig(n_agents=m, seed=e, episode_len=e, max_rounds=5 + 2 * m * e)
            assert_same_sync(mab_inst, cut, server_states)
            lin_cfg = SyncConfig(n_agents=m, seed=e, episode_len=e, epsilon=0.05)
            assert_same_sync(lin_inst, lin_cfg, server_states)
