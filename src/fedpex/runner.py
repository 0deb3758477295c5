"""Round-loop drivers for the federated algorithms plus invariant auditing
and instance-complexity diagnostics.

Every run is strictly sequential: one active agent per round, one pull per
round. Stopping is evaluated only at upload events; the final upload counts
toward comm_cost and its never-sent download does not. The deterministic
communication-cost bounds are asserted as hard postconditions of every
terminated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linear as lin
from . import mab
from .core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    Rng,
    arm_means_linear,
    make_rng,
    sample_reward_linear,
    sample_reward_mab,
)
from .design_lp import solve_l1


class ActivationSchedule:
    """Picks the single active agent for each round t >= K+1.

    uniform-random draws from the run's rng; round-robin cycles 1..M.
    With one agent the choice is vacuous and consumes no randomness, which
    keeps single-agent reward streams aligned across harnesses.

    The uniform draw replicates `int(rng.integers(M))` value for value and
    word for word: for M < 2^32 (RunConfig refuses more) numpy maps one
    `next_uint32` word w to (w M) >> 32 and redraws while the low 32 bits of
    w M fall below 2^32 mod M (Lemire's nearly-divisionless rejection).
    Calling the bit generator through its ctypes interface skips the
    Generator call.
    """

    def __init__(self, policy: str, n_agents: int):
        if policy not in ("uniform-random", "round-robin"):
            raise ValueError(f"unknown activation policy {policy!r}")
        self.policy = policy
        self.n_agents = n_agents
        self._next = 0
        self._threshold = ((1 << 32) - n_agents) % n_agents
        self._rng = None

    def next_agent(self, rng: Rng) -> int:
        """0-based index of the active agent."""
        m = self.n_agents
        if m == 1:
            return 0
        if self.policy == "round-robin":
            a = self._next
            self._next = (a + 1) % m
            return a
        if rng is not self._rng:  # holding rng keeps its state pointer valid
            iface = rng.bit_generator.ctypes
            self._rng, self._word, self._state = rng, iface.next_uint32, iface.state
        prod = self._word(self._state) * m
        if prod & 0xFFFFFFFF < m:
            while prod & 0xFFFFFFFF < self._threshold:
                prod = self._word(self._state) * m
        return prod >> 32


@dataclass(frozen=True)
class AuditRecord:
    t: int
    agent: int  # 1-based
    arm: int  # 1-based
    triggered: bool  # the agent uploaded this round
    stopped: bool
    breaking_value: float | None


class AuditError(AssertionError):
    """A runtime invariant failed; this is a bug, not a statistical event."""


def mab_comm_bound(n_agents: int, gamma, tau: int) -> float:
    """Deterministic cap 2 (M + 1/gamma) log2(tau) on MAB communication."""
    return 2.0 * (n_agents + 1.0 / float(gamma)) * math.log2(tau)


def linear_comm_bound(n_agents: int, gamma1, gamma2, ridge: float, dim: int, tau: int) -> float:
    """Deterministic cap on hybrid-trigger communication.

    2 ( (M + 1/g1) d log2(1 + tau/(ridge d)) + (M + 1/g2) log2(tau) )
    """
    first = (n_agents + 1.0 / float(gamma1)) * dim * math.log2(1.0 + tau / (ridge * dim))
    second = (n_agents + 1.0 / float(gamma2)) * math.log2(tau)
    return 2.0 * (first + second)


# ---------------------------------------------------------------------------
# FAMABPE
# ---------------------------------------------------------------------------


def _audit_mab(server, agents, true_pulls, gamma, delta, sigma, gamma_m):
    # count conservation: server + pending buffers = every pull ever made
    held = [int(c) for c in server.counts]
    for ag in agents:
        held[ag.current_target - 1] += ag.pending_total
    if held != true_pulls:
        raise AuditError(f"count conservation violated: {held} != {true_pulls}")
    num, den = gamma.numerator, gamma.denominator
    for idx, ag in enumerate(agents):
        total = ag.counts_total
        if total != int(ag.counts.sum()) or ag.trigger_limit != mab.trigger_limit_mab(total, gamma):
            raise AuditError(f"agent {idx + 1} cached totals diverged")
        # trigger negation by the exact rational rule, not by the cached limit
        if (total + ag.pending_total) * den > (den + num) * total:
            raise AuditError(f"agent {idx + 1} ended a round in a triggered state")
        want = mab.agent_target_mab(ag.mean_est, ag.counts, ag.counts_total, delta, sigma, gamma_m)
        if want != ag.current_target:
            raise AuditError(f"agent {idx + 1} target not frozen: {ag.current_target} vs {want}")
    if server.counts_total != int(server.counts.sum()):
        raise AuditError("server cached total diverged")


def run_famabpe(
    instance: MabInstance,
    config: RunConfig,
    *,
    audit: bool = False,
    audit_log: list | None = None,
    comm_every_round: bool = False,
) -> RunResult:
    """One full asynchronous federated MAB pure-exploration run.

    comm_every_round forces the upload trigger (single-agent baseline hook).
    Auditing validates conservation, trigger-negation and frozen-target
    invariants after every round and never changes the result.
    """
    cfg = config.resolved(instance.k_arms)
    k = instance.k_arms
    m_agents = cfg.n_agents
    gamma = cfg.gamma
    gamma_m = float(gamma) * m_agents
    rng = make_rng(cfg.seed)

    # initialization rounds 1..K: arm t pulled once (by agent ((t-1) mod M)+1,
    # an attribution that affects no statistic)
    init_rewards = np.array([sample_reward_mab(instance, a, rng) for a in range(1, k + 1)])
    server, agents = mab.init_states_mab(init_rewards, m_agents, cfg.delta, instance.sigma, gamma)
    pulls = [1] * k
    init_comm = k + m_agents
    comm = 0
    switches = 0
    downloads = 0
    tau = k
    next_agent = ActivationSchedule(cfg.activation, m_agents).next_agent
    # drivers pull only arms they chose: the draw is sample_reward_mab's
    # without its range check
    means, sigma, normal = instance.means, instance.sigma, rng.standard_normal
    stopped = False
    best_est = 0

    while not stopped and tau < cfg.max_rounds:
        tau += 1
        m = next_agent(rng)
        ag = agents[m]
        arm = ag.current_target
        ag.pending_sum += means[arm - 1] + sigma * normal()
        ag.pending_total += 1
        pulls[arm - 1] += 1

        triggered = comm_every_round or mab.check_trigger_mab(ag)
        b_value = None
        if triggered:
            comm += 1  # upload
            server = mab.server_merge_mab(server, arm, ag.pending_total, ag.pending_sum)
            bon = mab.bonuses_mab(server.counts, server.counts_total, cfg.delta, instance.sigma, gamma_m)
            i, j, b_value = mab.breaking_index(server.mean_est, bon)
            if b_value <= cfg.epsilon:
                stopped = True
                best_est = i
            else:
                comm += 1  # download
                downloads += 1
                agents[m] = mab.download_mab(server, bon, i, j, gamma)
                if agents[m].current_target != arm:
                    switches += 1

        if audit and not stopped:
            _audit_mab(server, agents, pulls, gamma, cfg.delta, instance.sigma, gamma_m)
        if audit_log is not None:
            audit_log.append(AuditRecord(tau, m + 1, arm, triggered, stopped, b_value))

    if not stopped:
        best_est = int(np.argmax(server.mean_est)) + 1
    # the cap governs the event-triggered protocol, not forced communication
    if stopped and not comm_every_round:
        bound = mab_comm_bound(m_agents, gamma, tau)
        if comm > bound:
            raise AuditError(f"communication bound violated: {comm} > {bound:.3f}")

    true_best = instance.best_arm()
    return RunResult(
        best_arm_est=best_est,
        best_arm_true=true_best,
        correct=instance.gap(best_est) <= cfg.epsilon,
        tau=tau,
        comm_cost=comm,
        init_comm=init_comm,
        switch_cost=switches,
        pulls_per_arm=tuple(pulls),
        terminated=stopped,
        n_downloads=downloads,
    )


# ---------------------------------------------------------------------------
# FALinPE
# ---------------------------------------------------------------------------


def _audit_linear(server, agents, global_cov, global_resp, true_pulls, cfg):
    from . import linalg

    cov_held = server.cov.copy()
    resp_held = server.resp.copy()
    counts_held = server.counts.copy()
    for ag in agents:
        cov_held = cov_held + ag.pending_cov
        resp_held = resp_held + ag.pending_resp
        counts_held = counts_held + ag.pending_counts
    if np.abs(cov_held - global_cov).max() > 1e-9:
        raise AuditError("covariance conservation violated")
    if np.abs(resp_held - global_resp).max() > 1e-9:
        raise AuditError("response conservation violated")
    if not np.array_equal(counts_held, true_pulls):
        raise AuditError("count conservation violated")
    for idx, ag in enumerate(agents):
        if ag.counts_total != int(ag.counts.sum()) or ag.pending_total != int(ag.pending_counts.sum()):
            raise AuditError(f"agent {idx + 1} cached totals diverged")
        if lin.check_trigger_hybrid(ag, cfg.gamma1, cfg.gamma2):
            raise AuditError(f"agent {idx + 1} ended a round in a triggered state")
        # the snapshot (and hence the frozen target derived from it) must not
        # have drifted since the last download; the tolerance only absorbs
        # the rounding of a second factorization of the same matrix
        q = linalg.quad_form_inv(ag.cov, ag.target_context)
        if abs(q - ag.target_q) > 1e-12 * (1.0 + q):
            raise AuditError(f"agent {idx + 1} snapshot changed between downloads")


def run_falinpe(
    instance: LinearInstance,
    config: RunConfig,
    *,
    audit: bool = False,
    audit_log: list | None = None,
    comm_every_round: bool = False,
) -> RunResult:
    """One full asynchronous federated linear pure-exploration run."""
    cfg = config.resolved(instance.k_arms, instance.sigma)
    k = instance.k_arms
    dim = instance.dim
    contexts = np.asarray(instance.contexts, dtype=float)
    m_agents = cfg.n_agents
    rng = make_rng(cfg.seed)
    lp_memo: dict = {}

    init_rewards = np.array([sample_reward_linear(instance, a, rng) for a in range(1, k + 1)])
    server, agents, fallbacks = lin.init_states_linear(
        contexts,
        init_rewards,
        cfg.ridge,
        m_agents,
        dim,
        cfg.delta,
        instance.sigma,
        cfg.gamma1,
        cfg.gamma2,
        cfg.arm_select,
        cfg.greedy_sense,
        lp_memo,
    )
    pulls = np.ones(k, dtype=np.int64)
    init_comm = k + m_agents
    comm = 0
    switches = 0
    downloads = 0
    tau = k
    next_agent = ActivationSchedule(cfg.activation, m_agents).next_agent
    # the draw is sample_reward_linear's, with each arm's mean computed once
    means, sigma, normal = arm_means_linear(instance), instance.sigma, rng.standard_normal
    stopped = False
    best_est = 0
    if audit:
        global_cov = server.cov.copy()
        global_resp = server.resp.copy()

    while not stopped and tau < cfg.max_rounds:
        tau += 1
        m = next_agent(rng)
        ag = agents[m]
        arm = ag.current_target
        reward = means[arm - 1] + sigma * normal()
        ag.pending_cov += ag.target_outer
        ag.pending_resp += reward * ag.target_context
        ag.pending_counts[arm - 1] += 1
        ag.pending_total += 1
        pulls[arm - 1] += 1
        if audit:
            global_cov += ag.target_outer
            global_resp += reward * ag.target_context

        triggered = comm_every_round or lin.check_trigger_hybrid(ag, cfg.gamma1, cfg.gamma2)
        b_value = None
        if triggered:
            comm += 1
            server = lin.server_merge_linear(server, ag.pending_cov, ag.pending_resp, ag.pending_counts)
            stop = lin.stopping_linear(
                server,
                contexts,
                dim,
                cfg.delta,
                instance.sigma,
                cfg.ridge,
                cfg.gamma1,
                cfg.gamma2,
                m_agents,
            )
            b_value = stop.b
            if b_value <= cfg.epsilon:
                stopped = True
                best_est = stop.i
            else:
                comm += 1
                downloads += 1
                agents[m], fb = lin.download_linear(
                    server, contexts, stop, cfg.arm_select, cfg.greedy_sense, lp_memo
                )
                fallbacks += int(fb)
                if agents[m].current_target != arm:
                    switches += 1

        if audit and not stopped:
            _audit_linear(server, agents, global_cov, global_resp, pulls, cfg)
        if audit_log is not None:
            audit_log.append(AuditRecord(tau, m + 1, arm, triggered, stopped, b_value))

    if not stopped:
        theta = lin.rls_estimate(server.cov, server.resp)
        best_est = int(np.argmax(contexts @ theta)) + 1
    if stopped and not comm_every_round:
        bound = linear_comm_bound(m_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, dim, tau)
        if comm > bound:
            raise AuditError(f"communication bound violated: {comm} > {bound:.3f}")

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
        lp_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# Instance-complexity diagnostics
# ---------------------------------------------------------------------------


def compute_theory_diagnostics(instance, config: RunConfig, tau: int | None = None) -> dict:
    """Problem-complexity value and the communication bound at a given tau.

    The MAB complexity sums sigma^2 / max((gap+eps)/3, eps)^2 over arms; at
    eps = 0 its best-arm term divides by zero, so the value is reported as
    +inf and flagged. The linear complexity maximizes rho(y) p_k(y) over
    ordered arm pairs per arm; identical-context pairs contribute nothing and
    every remaining pair has a positive denominator, so it stays finite even
    at eps = 0.
    """
    eps = config.epsilon
    report: dict = {"epsilon": eps}
    if isinstance(instance, MabInstance):
        cfg = config.resolved(instance.k_arms)
        gaps = [instance.gap(a) for a in range(1, instance.k_arms + 1)]
        report["type"] = "mab"
        report["per_arm_gaps"] = gaps
        terms = []
        infinite = False
        for g in gaps:
            denom = max((g + eps) / 3.0, eps)
            if denom == 0.0:
                infinite = True
                continue
            terms.append(instance.sigma**2 / denom**2)
        report["complexity"] = math.inf if infinite else float(sum(terms))
        report["epsilon_zero_flag"] = infinite
        if tau is not None:
            report["comm_bound"] = mab_comm_bound(cfg.n_agents, cfg.gamma, tau)
        return report

    cfg = config.resolved(instance.k_arms, instance.sigma)
    contexts = np.asarray(instance.contexts, dtype=float)
    k = instance.k_arms
    gaps = [instance.gap(a) for a in range(1, k + 1)]
    report["type"] = "linear"
    report["per_arm_gaps"] = gaps
    best_per_arm = np.zeros(k)
    for i in range(k):
        for j in range(k):
            y = contexts[i] - contexts[j]
            if np.abs(y).max() == 0.0:
                continue
            sol = solve_l1(contexts, y)
            denom = max((gaps[i] + eps) / 3.0, (gaps[j] + eps) / 3.0, eps)
            contrib = sol.rho * sol.p / denom**2
            best_per_arm = np.maximum(best_per_arm, contrib)
    report["complexity"] = float(best_per_arm.sum())
    report["epsilon_zero_flag"] = False
    if tau is not None:
        report["comm_bound"] = linear_comm_bound(
            cfg.n_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, instance.dim, tau
        )
    return report
