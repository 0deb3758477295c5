"""Round-loop drivers for the federated algorithms plus invariant auditing
and instance-complexity diagnostics.

Every run is strictly sequential: one active agent per round, one pull per
round. Stopping is evaluated only at upload events; the final upload counts
toward comm_cost and its never-sent download does not. The deterministic
communication-cost bounds are asserted as hard postconditions of every
terminated run.

An agent of either family is one mab.AgentState, what its last download
fixed; every agent holds the one state that set-up downloads. The driver
keeps each agent's buffer of unsent rewards: the round loop appends each
reward to it and compares its length with the agent's limit, and the
family's merge alone turns a buffer into server statistics. Everything
else, the audit and the audit log included, happens at uploads.
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
    """One upload: in round t the agent sent `pulls` rewards of `arm`."""

    t: int
    agent: int  # 1-based
    arm: int  # 1-based
    pulls: int  # the rewards uploaded
    target: int | None  # the 1-based arm downloaded, None when the upload stopped the run
    stopped: bool
    breaking_value: float


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
    test) is the one that runs. A family built `forced` communicates every
    round: its trigger ratio is (0, 1), so every download fixes a limit of 0."""

    linear = False

    def __init__(self, instance: MabInstance, config: RunConfig, forced: bool = False):
        self.instance = instance
        self.cfg = cfg = config.resolved(instance.k_arms)
        # the confidence widths' arguments after the counts and their total:
        # the formula's for the audit, and resolved once for the stop checks
        self.widths = (cfg.delta, instance.sigma, float(cfg.gamma) * cfg.n_agents)
        self.width_constants = mab.width_constants(instance.k_arms, *self.widths)
        # the trigger's gamma as (numerator, denominator), (0, 1) when forced
        self.forced, self.limit_ratio = forced, (0, 1) if forced else cfg.gamma.as_integer_ratio()

    def init(self, rng: Rng):
        """The server state after one pull of every arm; its estimates are the rewards."""
        k = self.instance.k_arms
        rewards = np.array([sample_reward_mab(self.instance, a, rng) for a in range(1, k + 1)])
        return mab.MabServerState(rewards, np.ones(k, dtype=np.int64), k, np.full(k, 2.0))

    def merge(self, server, ag, rewards):
        """`server` with agent `ag`'s buffered rewards added left to right
        (builtin sum() compensates float sums from Python 3.12 on, which
        changes the bits)."""
        return mab.server_merge_mab(server, ag.current_target, len(rewards), reduce(add, rewards, 0.0))

    def stop(self, server):
        """(i, j, B, bonuses) of a server state."""
        bon = mab.bonuses_mab(server.two_over_counts, server.counts_total, self.width_constants)
        return (*mab.breaking_index(server.mean_est, bon), bon)

    def download(self, server, check):
        """A fresh agent state for `server`, and whether its target fell back."""
        i, j, _b, bon = check
        return mab.download_mab(server, bon, i, j, self.limit_ratio), False

    def best_arm(self, server) -> int:
        return int(np.argmax(server.mean_est)) + 1

    def comm_bound(self, tau: int) -> float:
        return mab_comm_bound(self.cfg.n_agents, self.cfg.gamma, tau)

    # the audit's reference rules, from an agent's snapshot alone

    def rule_limit(self, ag) -> int:
        return mab.trigger_limit_mab(ag.snapshot.counts_total, self.limit_ratio)

    def rule_fires(self, ag, n: int) -> bool:
        return mab.check_trigger_mab(ag, n, self.limit_ratio)

    def rule_target(self, ag) -> bool:
        snap = ag.snapshot
        return ag.current_target == mab.agent_target_mab(snap.mean_est, snap.counts, snap.counts_total, *self.widths)


class LinearFamily:
    """falinpe's hooks for the drivers (see MabFamily); the run's values that
    every message reads, resolved once, and its LP memo."""

    linear = True

    def __init__(self, instance: LinearInstance, config: RunConfig, forced: bool = False):
        self.instance = instance
        self.cfg = cfg = config.resolved(instance.k_arms, instance.sigma)
        self.contexts = contexts = np.asarray(instance.contexts, dtype=float)
        self.arm_select, self.greedy_sense, self.lp_memo = cfg.arm_select, cfg.greedy_sense, {}
        # each arm's x x^T, and the stop check's right-hand side [X | resp]
        self.outers = contexts[:, :, None] * contexts[:, None, :]
        self.rhs = np.concatenate((contexts, np.zeros((1, instance.dim))))
        g1, g2, m = float(cfg.gamma1), float(cfg.gamma2), cfg.n_agents
        # gamma2 as (numerator, denominator), (0, 1) when forced
        self.g1, self.forced, self.limit_ratio = g1, forced, (0, 1) if forced else cfg.gamma2.as_integer_ratio()
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
        return lin.LinServerState(cov, resp, np.ones(k, dtype=np.int64), k)

    def merge(self, server, ag, rewards):
        """`server` with n x x^T and the sum of r x over agent `ag`'s buffered
        rewards added, each summed from zero in pull order as per-pull adds
        would: the rows [x x^T; r x] of at most MAX_BLOCK pulls at a time,
        carried in row 0."""
        a, n, d = ag.current_target - 1, len(rewards), self.instance.dim
        block = np.zeros((min(n, MAX_BLOCK) + 1, d + 1, d))
        for lo in range(0, n, MAX_BLOCK):
            part = rewards[lo : lo + MAX_BLOCK]
            rows = block[: len(part) + 1]
            rows[1:, :d] = self.outers[a]
            np.multiply(np.array(part)[:, None], self.contexts[a], out=rows[1:, d])
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

    def rule_limit(self, ag) -> int:
        return lin.trigger_limit_linear(ag.snapshot.counts_total, ag.target_q, self.g1, self.limit_ratio)

    def rule_fires(self, ag, n: int) -> bool:
        return lin.check_trigger_hybrid(ag, n, self.g1, self.limit_ratio)

    def rule_target(self, ag) -> bool:
        """Whether q is the target's, by a second factorization (the
        tolerance only absorbs its rounding)."""
        q = linalg.quad_form_inv(ag.snapshot.cov, self.contexts[ag.current_target - 1])
        return abs(q - ag.target_q) <= 1e-12 * (1.0 + q)


def bandit_family(instance, config: RunConfig) -> MabFamily | LinearFamily:
    """The family object of an instance, its config resolved against it."""
    if isinstance(instance, LinearInstance):
        return LinearFamily(instance, config)
    return MabFamily(instance, config)


# ---------------------------------------------------------------------------
# The audit: between messages an agent only appends rewards of its frozen
# target, so the invariants are checked at messages and at the run's end
# ---------------------------------------------------------------------------


def _state_bytes(state) -> tuple:
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(state).values())


class Audit:
    """A run's invariants, checked at every download, after every upload and
    at the run's end, once per download however many agents hold it.

    An upload runs on the uploader's old download, the server before the
    merge (the latest download's snapshot) and the merged state, so an
    upload's check reads those two downloads' records, and the end reads all."""

    def __init__(self, fam, server, agents):
        # each held download's [state, (target, snapshot bytes), agent, holders]
        # by id, the latest download, and the linear family's covariance and
        # response of every pull sent
        self.fam, self.held, self.latest = fam, {}, agents[0]
        self.sums = (server.cov.copy(), server.resp.copy()) if fam.linear else None
        for m, ag in enumerate(agents):
            self.hold(ag, m)

    def download(self, ag, m):
        """Agent m's cached total, limit and target are the rules'; returns its record."""
        snap = ag.snapshot
        if snap.counts_total != int(snap.counts.sum()) or ag.trigger_limit != self.fam.rule_limit(ag):
            raise AuditError(f"agent {m + 1} downloaded a total or trigger limit that is not the rule's")
        if not self.fam.rule_target(ag):
            raise AuditError(f"agent {m + 1} downloaded a target that is not the rule's")
        return [ag, (ag.current_target, _state_bytes(snap)), m, 0]

    def hold(self, ag, m, n=1):
        """n more agents, m among them, hold `ag` (n = -1: m lets go of it)."""
        held = self.held[id(ag)] = self.held.get(id(ag)) or self.download(ag, m)
        held[3] += n
        if not held[3]:
            del self.held[id(ag)]

    def upload(self, server, agents, buffers, ag, sent, m, tau, pulls):
        """After agent m, whose state was `ag`, uploaded the buffer `sent` in
        round tau, the server merged it and m downloaded unless the run stopped."""
        fam, n = self.fam, len(sent)
        # the rule fires at exactly this count: neither late nor early
        if n != ag.trigger_limit + 1 or not fam.rule_fires(ag, n) or fam.rule_fires(ag, n - 1):
            raise AuditError(f"agent {m + 1} uploaded {n} pulls at a trigger limit of {ag.trigger_limit}")
        if self.sums is not None:
            a, (cov, resp) = ag.current_target - 1, self.sums
            cov += n * fam.outers[a]
            resp += reduce(add, sent, 0.0) * fam.contexts[a]
        self.check(server, buffers, tau, pulls, dict.fromkeys((id(ag), id(self.latest))))
        if agents[m] is not ag:
            self.hold(ag, m, -1)
            self.hold(agents[m], m)
            self.latest = agents[m]

    def check(self, server, buffers, tau, pulls, held):
        """The server's cached values; conservation over every agent, where
        `pulls` counts the initial and the uploaded pulls of each arm and the
        buffers hold the rest of tau; and the held downloads of ids `held` as
        they were downloaded."""
        if server.counts_total != int(server.counts.sum()):
            raise AuditError("server cached total diverged")
        if server.counts.tolist() != pulls or server.counts_total + sum(map(len, buffers)) != tau:
            raise AuditError("count conservation violated")
        if self.sums is None:
            if server.two_over_counts.tobytes() != (2.0 / server.counts).tobytes():
                raise AuditError("server's carried 2/counts diverged")
        elif np.abs(server.cov - self.sums[0]).max() > 1e-9 or np.abs(server.resp - self.sums[1]).max() > 1e-9:
            raise AuditError("covariance or response conservation violated")
        for ag, seen, m, _holders in map(self.held.get, held):
            if seen != (ag.current_target, _state_bytes(ag.snapshot)):
                raise AuditError(f"agent {m + 1} target or snapshot changed between downloads")

    def end(self, server, agents, buffers, tau, pulls):
        """Everything above, once per held download; no agent over its limit."""
        self.check(server, buffers, tau, pulls, self.held)
        first = {}
        for m, (ag, buf) in enumerate(zip(agents, buffers)):
            n = len(buf)
            if n > ag.trigger_limit or self.fam.rule_fires(ag, n):
                raise AuditError(f"agent {m + 1} holds {n} pulls over its trigger limit of {ag.trigger_limit}")
            if first.setdefault(id(ag), m) == m:
                self.download(ag, m)


# ---------------------------------------------------------------------------
# The asynchronous driver (famabpe and falinpe)
# ---------------------------------------------------------------------------


def _run_async(fam, audit: bool, audit_log: list | None) -> RunResult:
    """One asynchronous event-triggered run of either bandit family.

    Each round the active agent pulls its frozen target, the driver appends
    the reward to the agent's buffer, and the agent uploads once its buffer
    holds more rewards than the trigger limit fixed at its last download (0
    for a family built forced). The server merges the buffer, and the run
    stops at B <= epsilon or the agent downloads the merged state. Set-up
    downloads the initial state once, and every agent holds that download.
    The active agents and reward normals come in blocks from
    ActivationSchedule.block, equal to per-round draws.
    Auditing, the audit log and the message and per-arm pull counters act
    only at uploads.
    """
    inst, cfg = fam.instance, fam.cfg
    k, m_agents = inst.k_arms, cfg.n_agents
    rng = make_rng(cfg.seed)
    # initialization rounds 1..K: arm t pulled once (by agent ((t-1) mod M)+1,
    # an attribution that affects no statistic), then every agent downloads
    # the initialized state: one download that all M agents hold, counted
    # once per agent as a message and by its fallback
    server = fam.init(rng)
    check = fam.stop(server)
    first, fallback = fam.download(server, check)
    agents, buffers, fallbacks = [first] * m_agents, [[] for _ in range(m_agents)], m_agents * fallback
    audit = Audit(fam, server, agents) if audit else None
    # the initial pulls and then the uploaded ones; held pulls join at the end
    pulls = [1] * k
    comm = switches = downloads = 0
    tau = k
    draw = ActivationSchedule(cfg.activation, m_agents).block
    epsilon, max_rounds = cfg.epsilon, cfg.max_rounds
    # drivers pull only arms they chose: the draw is sample_reward_*'s
    # without its range check
    means, sigma = inst.means, inst.sigma
    stopped = False

    while not stopped and tau < max_rounds:
        for m, z in zip(*draw(rng, max_rounds - tau)):
            ag, buf = agents[m], buffers[m]
            buf.append(means[ag.current_target - 1] + sigma * z)
            tau += 1
            if len(buf) > ag.trigger_limit:
                arm = ag.current_target
                comm += 1  # upload
                pulls[arm - 1] += len(buf)
                buffers[m] = []
                server = fam.merge(server, ag, buf)
                check = fam.stop(server)
                if check[2] <= epsilon:
                    stopped, target = True, None
                else:
                    comm += 1  # download
                    downloads += 1
                    agents[m], fallback = fam.download(server, check)
                    fallbacks += fallback
                    target = agents[m].current_target
                    switches += target != arm
                if audit:
                    audit.upload(server, agents, buffers, ag, buf, m, tau, pulls)
                if audit_log is not None:
                    audit_log.append(AuditRecord(tau, m + 1, arm, len(buf), target, stopped, check[2]))
                if stopped:
                    break

    if audit:
        audit.end(server, agents, buffers, tau, pulls)
    for ag, buf in zip(agents, buffers):
        pulls[ag.current_target - 1] += len(buf)
    # the cap governs the event-triggered protocol, not forced communication
    if stopped and not fam.forced:
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

    comm_every_round builds the family forced, with a trigger ratio of
    (0, 1), so each pull uploads (the single-agent baseline's hook).
    Auditing validates the conservation, trigger and frozen-target
    invariants at every message and at the run's end and never changes the
    result; audit_log receives one AuditRecord per upload.
    """
    return _run_async(MabFamily(instance, config, comm_every_round), audit, audit_log)


def run_falinpe(
    instance: LinearInstance,
    config: RunConfig,
    *,
    audit: bool = False,
    audit_log: list | None = None,
    comm_every_round: bool = False,
) -> RunResult:
    """One full asynchronous federated linear pure-exploration run."""
    return _run_async(LinearFamily(instance, config, comm_every_round), audit, audit_log)


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
        denoms = [max((g + eps) / 3.0, eps) for g in gaps]
        infinite = 0.0 in denoms
        report["complexity"] = math.inf if infinite else float(sum(instance.sigma**2 / d**2 for d in denoms))
        report["epsilon_zero_flag"] = infinite
    if tau is not None:
        report["comm_bound"] = fam.comm_bound(tau)
    return report
