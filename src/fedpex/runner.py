"""Round-loop drivers for the federated algorithms plus invariant auditing
and instance-complexity diagnostics.

Every run is strictly sequential: one active agent per round, one pull per
round. Stopping is evaluated only at upload events; the final upload counts
toward comm_cost and its never-sent download does not. The deterministic
communication-cost bounds are asserted as hard postconditions of every
terminated run.

An agent of either family is one mab.AgentState. The round loop appends
each reward to its buffer and compares the buffer's length with its limit;
the family's merge alone turns a buffer into server statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import linalg, mab
from . import linear as lin
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
from .stream import ActivationSchedule

# The drivers draw or fold at most MAX_BLOCK pulls at once, which bounds their
# memory however long an episode or an agent's buffer is.
MAX_BLOCK = 1024


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
# Bandit families: what the drivers need of each state machine
# ---------------------------------------------------------------------------


class MabFamily:
    """famabpe's hooks for the drivers. They call the state machine through
    the `mab` module, so that a function replaced there (by a tracer or a
    test) is the one that runs."""

    linear = False

    def __init__(self, instance: MabInstance, config: RunConfig):
        self.instance, self.means = instance, instance.means
        self.cfg = cfg = config.resolved(instance.k_arms)
        # the confidence widths' arguments after the counts and their total:
        # the formula's for the audit, and resolved once for the stop checks
        self.widths = (cfg.delta, instance.sigma, float(cfg.gamma) * cfg.n_agents)
        self.width_constants = mab.width_constants(instance.k_arms, *self.widths)
        self.gamma_ratio = cfg.gamma.as_integer_ratio()

    def init(self, rng: Rng):
        """The server state after one pull of every arm; its estimates are the rewards."""
        k = self.instance.k_arms
        rewards = np.array([sample_reward_mab(self.instance, a, rng) for a in range(1, k + 1)])
        return mab.MabServerState(rewards, np.ones(k, dtype=np.int64), k, np.full(k, 2.0))

    def merge(self, server, ag):
        """`server` with the buffer's rewards added left to right (builtin sum()
        compensates float sums from Python 3.12 on, which changes the bits)."""
        return mab.server_merge_mab(server, ag.current_target, len(ag.pending), reduce(add, ag.pending, 0.0))

    def stop(self, server):
        """(i, j, B, bonuses) of a server state."""
        bon = mab.bonuses_mab(server.two_over_counts, server.counts_total, self.width_constants)
        return (*mab.breaking_index(server.mean_est, bon), bon)

    def download(self, server, check):
        """A fresh agent state for `server`, and whether its target fell back."""
        i, j, _b, bon = check
        return mab.download_mab(server, bon, i, j, self.gamma_ratio), False

    def best_arm(self, server) -> int:
        return int(np.argmax(server.mean_est)) + 1

    def comm_bound(self, tau: int) -> float:
        return mab_comm_bound(self.cfg.n_agents, self.cfg.gamma, tau)

    def audit(self, server, agents, true_pulls, m, arm, reward):
        """The invariants after a round in which agent m pulled `reward` from `arm`."""
        # count conservation: server + pending buffers = every pull ever made
        held = [int(c) for c in server.counts]
        for a in agents:
            held[a.current_target - 1] += len(a.pending)
        if held != true_pulls:
            raise AuditError(f"count conservation violated: {held} != {true_pulls}")
        if server.counts_total != int(server.counts.sum()):
            raise AuditError("server cached total diverged")
        if server.two_over_counts.tobytes() != (2.0 / server.counts).tobytes():
            raise AuditError("server's carried 2/counts diverged")
        gamma = self.cfg.gamma
        num, den = self.gamma_ratio
        for idx, a in enumerate(agents):
            snap = a.snapshot
            total = snap.counts_total
            if total != int(snap.counts.sum()) or a.trigger_limit != mab.trigger_limit_mab(total, gamma):
                raise AuditError(f"agent {idx + 1} cached totals diverged")
            # trigger negation by the exact rational rule, not by the cached limit
            if (total + len(a.pending)) * den > (den + num) * total:
                raise AuditError(f"agent {idx + 1} ended a round in a triggered state")
            want = mab.agent_target_mab(snap.mean_est, snap.counts, total, *self.widths)
            if want != a.current_target:
                raise AuditError(f"agent {idx + 1} target not frozen: {a.current_target} vs {want}")


class LinearFamily:
    """falinpe's hooks for the drivers (see MabFamily); the run's values that
    every message reads, resolved once, its LP memo and the audit's sums."""

    linear = True

    def __init__(self, instance: LinearInstance, config: RunConfig):
        # each arm's mean is computed once, as sample_reward_linear computes it
        self.instance, self.means = instance, arm_means_linear(instance)
        self.cfg = cfg = config.resolved(instance.k_arms, instance.sigma)
        self.contexts = contexts = np.asarray(instance.contexts, dtype=float)
        self.arm_select, self.greedy_sense, self.lp_memo = cfg.arm_select, cfg.greedy_sense, {}
        # each arm's x x^T, and the stop check's right-hand side [X | resp]
        self.outers = contexts[:, :, None] * contexts[:, None, :]
        self.rhs = np.concatenate((contexts, np.zeros((1, instance.dim))))
        g1, g2, m = float(cfg.gamma1), float(cfg.gamma2), cfg.n_agents
        self.g1, self.g2_ratio = g1, cfg.gamma2.as_integer_ratio()
        # the parts of c_scalar that do not depend on the sample count
        coef = math.sqrt(2.0 * g1) * m + math.sqrt(1.0 + g1 * m)
        self.radius = (math.sqrt(cfg.ridge), coef * instance.sigma, 1.0 + g2 * m, min(g1, 1.0) * cfg.ridge)
        self.radius += (2.0 / cfg.delta, instance.dim)

    def init(self, rng: Rng):
        inst, k = self.instance, self.instance.k_arms
        rewards = np.array([sample_reward_linear(inst, a, rng) for a in range(1, k + 1)])
        cov, resp = self.cfg.ridge * np.eye(inst.dim), np.zeros(inst.dim)
        for x, reward in zip(self.contexts, rewards):
            cov += np.outer(x, x)
            resp += reward * x
        # the audit's sums over every pull, and over each agent's unsent pulls,
        # and each agent's snapshot with its bytes as they were at download
        self.global_cov, self.global_resp = cov.copy(), resp.copy()
        m, d = self.cfg.n_agents, inst.dim
        self.held_cov, self.held_resp = np.zeros((m, d, d)), np.zeros((m, d))
        self.downloaded = [None] * m
        return lin.LinServerState(cov, resp, np.ones(k, dtype=np.int64), k)

    def merge(self, server, ag):
        """`server` with n x x^T and the sum of r x over the buffer added, each
        summed from zero in pull order as per-pull adds would: the rows
        [x x^T; r x] of at most MAX_BLOCK pulls at a time, carried in row 0."""
        a, pending = ag.current_target - 1, ag.pending
        n, d = len(pending), self.instance.dim
        block = np.zeros((min(n, MAX_BLOCK) + 1, d + 1, d))
        for lo in range(0, n, MAX_BLOCK):
            rewards = pending[lo : lo + MAX_BLOCK]
            rows = block[: len(rewards) + 1]
            rows[1:, :d] = self.outers[a]
            np.multiply(np.array(rewards)[:, None], self.contexts[a], out=rows[1:, d])
            np.add.accumulate(rows, axis=0, out=rows)
            block[0] = rows[-1]
        counts = server.counts.copy()
        counts[a] += n
        return lin.server_merge_linear(server, block[0, :d], block[0, d], counts, n)

    def stop(self, server):
        """The StopCheck (i, j, B, whitened contexts) of a server state, at
        c_scalar's radius for its sample count."""
        root, coef, growth, scale, log_scale, dim = self.radius
        log = math.log(log_scale * (1.0 + (growth * server.counts_total) / scale))
        return lin.stopping_linear(server, self.rhs, root + coef * math.sqrt(dim * log))

    def download(self, server, check):
        return lin.download_linear(server, check, self)

    def best_arm(self, server) -> int:
        return int(np.argmax(self.contexts @ lin.rls_estimate(server.cov, server.resp))) + 1

    def comm_bound(self, tau: int) -> float:
        cfg = self.cfg
        return linear_comm_bound(cfg.n_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, self.instance.dim, tau)

    def audit(self, server, agents, true_pulls, m, arm, reward):
        """The invariants after a round in which agent m pulled `reward` from `arm`."""
        contexts, outers = self.contexts, self.outers
        self.global_cov += outers[arm - 1]
        self.global_resp += reward * contexts[arm - 1]
        # running sums of each agent's unsent pulls keep a round's cost
        # independent of the buffer lengths; an agent that uploaded holds none
        if agents[m].pending:
            self.held_cov[m] += outers[arm - 1]
            self.held_resp[m] += reward * contexts[arm - 1]
        else:
            self.held_cov[m], self.held_resp[m] = 0.0, 0.0
        if np.abs(server.cov + np.add.reduce(self.held_cov) - self.global_cov).max() > 1e-9:
            raise AuditError("covariance conservation violated")
        if np.abs(server.resp + np.add.reduce(self.held_resp) - self.global_resp).max() > 1e-9:
            raise AuditError("response conservation violated")
        counts_held = server.counts.tolist()
        for a in agents:
            counts_held[a.current_target - 1] += len(a.pending)
        if counts_held != true_pulls:
            raise AuditError("count conservation violated")
        g1, g2 = self.cfg.gamma1, self.cfg.gamma2
        for idx, a in enumerate(agents):
            snap = a.snapshot
            if snap.counts_total != int(snap.counts.sum()):
                raise AuditError(f"agent {idx + 1} cached totals diverged")
            if a.trigger_limit != lin.trigger_limit_linear(snap.counts_total, a.target_q, g1, g2):
                raise AuditError(f"agent {idx + 1} cached trigger limit diverged")
            # trigger negation by the hybrid rule itself, not by the cached limit
            if lin.check_trigger_hybrid(a, g1, g2):
                raise AuditError(f"agent {idx + 1} ended a round in a triggered state")
            # at a download, q is checked against a second factorization (the
            # tolerance only absorbs its rounding); after it, the snapshot (and
            # hence the frozen target derived from it) must keep every byte
            seen, now = self.downloaded[idx], (snap.cov.tobytes(), snap.resp.tobytes())
            if seen is None or seen[0] is not snap:
                q = linalg.quad_form_inv(snap.cov, contexts[a.current_target - 1])
                if abs(q - a.target_q) > 1e-12 * (1.0 + q):
                    raise AuditError(f"agent {idx + 1} downloaded a q that is not its target's")
                self.downloaded[idx] = (snap, now)
            elif seen[1] != now:
                raise AuditError(f"agent {idx + 1} snapshot changed between downloads")


def bandit_family(instance, config: RunConfig) -> MabFamily | LinearFamily:
    """The family object of an instance, its config resolved against it."""
    if isinstance(instance, LinearInstance):
        return LinearFamily(instance, config)
    return MabFamily(instance, config)


# ---------------------------------------------------------------------------
# The asynchronous driver (famabpe and falinpe)
# ---------------------------------------------------------------------------


def _run_async(fam, audit: bool, audit_log: list | None, comm_every_round: bool) -> RunResult:
    """One asynchronous event-triggered run of either bandit family.

    Each round the active agent pulls its frozen target, appends the reward
    to its buffer and uploads once the buffer holds more rewards than the
    trigger limit fixed at its last download. The server merges the buffer,
    and the run stops at B <= epsilon or the agent downloads the merged
    state. The active agents and reward normals come in blocks from
    ActivationSchedule.block, equal to per-round draws.
    """
    inst, cfg = fam.instance, fam.cfg
    k, m_agents = inst.k_arms, cfg.n_agents
    rng = make_rng(cfg.seed)
    # initialization rounds 1..K: arm t pulled once (by agent ((t-1) mod M)+1,
    # an attribution that affects no statistic), then every agent downloads
    server = fam.init(rng)
    check = fam.stop(server)
    agents, fallbacks = [], 0
    for _ in range(m_agents):
        ag, fallback = fam.download(server, check)
        agents.append(ag)
        fallbacks += fallback
    pulls = [1] * k
    comm = switches = downloads = 0
    tau = k
    draw = ActivationSchedule(cfg.activation, m_agents).block
    epsilon, max_rounds = cfg.epsilon, cfg.max_rounds
    # drivers pull only arms they chose: the draw is sample_reward_*'s
    # without its range check
    means, sigma = fam.means, inst.sigma
    stopped = False

    while not stopped and tau < max_rounds:
        for m, z in zip(*draw(rng, max_rounds - tau)):
            tau += 1
            ag = agents[m]
            arm = ag.current_target
            reward = means[arm - 1] + sigma * z
            ag.pending.append(reward)
            pulls[arm - 1] += 1

            triggered = comm_every_round or len(ag.pending) > ag.trigger_limit
            b_value = None
            if triggered:
                comm += 1  # upload
                server = fam.merge(server, ag)
                check = fam.stop(server)
                b_value = check[2]
                if b_value <= epsilon:
                    stopped = True
                else:
                    comm += 1  # download
                    downloads += 1
                    agents[m], fallback = fam.download(server, check)
                    fallbacks += fallback
                    if agents[m].current_target != arm:
                        switches += 1

            if audit and not stopped:
                fam.audit(server, agents, pulls, m, arm, reward)
            if audit_log is not None:
                audit_log.append(AuditRecord(tau, m + 1, arm, triggered, stopped, b_value))
            if stopped:
                break

    # the cap governs the event-triggered protocol, not forced communication
    if stopped and not comm_every_round:
        bound = fam.comm_bound(tau)
        if comm > bound:
            raise AuditError(f"communication bound violated: {comm} > {bound:.3f}")
    final = check if stopped else None
    return run_result(fam, server, final, tau, pulls, comm, k + m_agents, switches, downloads, fallbacks)


def run_result(fam, server, final, tau, pulls, comm, init_comm, switches, downloads, fallbacks) -> RunResult:
    """The result of a run that ended at round tau on `server`: `final` is the
    stop check that stopped it, or None when the round cap cut it. A stopped
    run names the stop check's arm, a cut one the server's empirical best."""
    inst = fam.instance
    best_est = fam.best_arm(server) if final is None else final[0]
    return RunResult(
        best_arm_est=best_est,
        best_arm_true=inst.best_arm(),
        correct=inst.gap(best_est) <= fam.cfg.epsilon,
        tau=tau,
        comm_cost=comm,
        init_comm=init_comm,
        switch_cost=switches,
        pulls_per_arm=tuple(int(x) for x in pulls),
        terminated=final is not None,
        n_downloads=downloads,
        lp_fallbacks=fallbacks,
    )


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
    return _run_async(MabFamily(instance, config), audit, audit_log, comm_every_round)


def run_falinpe(
    instance: LinearInstance,
    config: RunConfig,
    *,
    audit: bool = False,
    audit_log: list | None = None,
    comm_every_round: bool = False,
) -> RunResult:
    """One full asynchronous federated linear pure-exploration run."""
    return _run_async(LinearFamily(instance, config), audit, audit_log, comm_every_round)


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
    fam = bandit_family(instance, config)
    k = instance.k_arms
    gaps = [instance.gap(a) for a in range(1, k + 1)]
    report: dict = {"epsilon": eps, "type": "linear" if fam.linear else "mab", "per_arm_gaps": gaps}
    if fam.linear:
        contexts = fam.contexts
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
    else:
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
        report["comm_bound"] = fam.comm_bound(tau)
    return report
