"""Round-loop drivers for the federated algorithms plus invariant auditing
and instance-complexity diagnostics.

Every run is strictly sequential: one active agent per round, one pull per
round. Stopping is evaluated only at upload events; the final upload counts
toward comm_cost and its never-sent download does not. The deterministic
communication-cost bounds are asserted as hard postconditions of every
terminated run.

An agent of either family is one mab.AgentState, what its last download
fixed; every agent holds the one state that set-up downloads. An upload
is n pulls of the agent's one target, so either family's merge takes the
arm, n and the rewards' sum, and the driver keeps just those per agent:
the count of pulls it holds, which the round loop compares with the
agent's limit, and their running reward sum. Everything else, the audit
and the audit log included, happens at uploads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, mab
from . import linear as lin
from .core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    make_rng,
    sample_reward_mab,
)
from .design_lp import solve_l1
from .stream import ActivationSchedule


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
        self.cfg = cfg = config.resolved(instance.k_arms, instance.sigma, instance.means)
        # the confidence widths' arguments after the counts and their total:
        # the formula's for the audit, and resolved once for the stop checks
        self.widths = (cfg.delta, instance.sigma, float(cfg.gamma) * cfg.n_agents)
        self.width_constants = mab.width_constants(instance.k_arms, *self.widths)
        # the trigger's gamma as (numerator, denominator), (0, 1) when forced
        self.forced, self.limit_ratio = forced, (0, 1) if forced else cfg.gamma.as_integer_ratio()

    def empty(self):
        """The server state of no pulls: tuples up to mab.SCALAR_MAX_ARMS arms,
        numpy arrays above, and every merge keeps the representation. Its
        estimates are -0.0, the identity of float addition, so a first
        merge's mean (-0.0 * 0 + s) / 1 is the reward sum s bit for bit, a
        sum of -0.0 included."""
        k = self.instance.k_arms
        if k <= mab.SCALAR_MAX_ARMS:
            return mab.MabServerState((-0.0,) * k, (0,) * k, 0, (math.inf,) * k)
        return mab.MabServerState(np.full(k, -0.0), np.zeros(k, dtype=np.int64), 0, np.full(k, math.inf))

    def merge(self, server, arm, n, reward_sum):
        """`server` with an upload of n pulls of `arm` whose rewards sum to `reward_sum`."""
        return mab.server_merge_mab(server, arm, n, reward_sum)

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

    def rule_fires(self, ag, n: int) -> bool:
        return mab.check_trigger_mab(ag, n, self.limit_ratio)

    def rule_target(self, ag) -> bool:
        snap = ag.snapshot
        mean, counts = np.asarray(snap.mean_est), np.asarray(snap.counts)
        return ag.current_target == mab.agent_target_mab(mean, counts, snap.counts_total, *self.widths)


class LinearFamily:
    """falinpe's hooks for the drivers (see MabFamily); the run's values that
    every message reads, resolved once, and its LP memo."""

    linear = True

    def __init__(self, instance: LinearInstance, config: RunConfig, forced: bool = False):
        self.instance = instance
        self.cfg = cfg = config.resolved(instance.k_arms, instance.sigma)
        self.contexts = contexts = np.asarray(instance.contexts, dtype=float)
        self.arm_select, self.lp_memo = cfg.arm_select, {}
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
        # the widest score stays finite, as RunConfig.resolved checks a MAB one: a reward's reach
        # plus c times a pair width, at most 2 / sqrt(ridge) (norms <= 1, cov >= ridge I)
        root, sig, growth, scale, log_scale, dim, t = *self.radius, cfg.max_rounds
        widest = root + sig * math.sqrt(dim * math.log(log_scale * (1.0 + growth * t / scale)))
        if not 2.0 * (1.0 + 16.0 * instance.sigma + 2.0 * widest / root) < math.inf:
            raise ValueError("sigma, the ridge or gamma1 is too extreme: the linear confidence widths overflow")

    def empty(self):
        """The server state of no pulls: the ridge prior and a zero response."""
        dim, k = self.instance.dim, self.instance.k_arms
        return lin.LinServerState(self.cfg.ridge * np.eye(dim), np.zeros(dim), np.zeros(k, dtype=np.int64), 0)

    def merge(self, server, arm, n, reward_sum):
        return lin.server_merge_linear(server, arm, n, reward_sum, self.outers, self.contexts)

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
# The audit: between messages an agent only adds pulls of its frozen
# target, so the invariants are checked at messages and at the run's end
# ---------------------------------------------------------------------------


def _state_bytes(state) -> tuple:
    """A state's fields, each array or tuple as its bytes."""
    return tuple(np.asarray(v).tobytes() if isinstance(v, (np.ndarray, tuple)) else v for v in vars(state).values())


def _watched(ag) -> tuple:
    """What a download fixed: the target, the limit, q and the snapshot's bytes."""
    return ag.current_target, ag.trigger_limit, ag.target_q, _state_bytes(ag.snapshot)


class Audit:
    """A run's invariants. Each download is checked once, when it is made,
    however many agents hold it: its cached total, its limit (the exact rule
    is quiet at the limit and fires one pull later) and its target are the
    rules'. What it fixed, the target, the limit, q and the snapshot's bytes,
    is then watched: after an upload, the uploader's old download and the
    latest one, and at the run's end every download still held. So an
    upload need only carry limit + 1 pulls, and an agent end within its limit."""

    def __init__(self, fam, server, agents):
        # each agent's download record (state, watched values, agent), set-up's
        # one record shared by all M; the latest record; the per-arm count of
        # the initial and the uploaded pulls; and the linear family's
        # covariance and response, summed as its merge sums them
        self.fam, self.pulls = fam, np.asarray(server.counts).tolist()
        self.records = [self.download(agents[0], 0)] * len(agents)
        self.latest = self.records[0]
        self.sums = (server.cov.copy(), server.resp.copy()) if fam.linear else None

    def download(self, ag, m):
        """Agent m's cached total, limit and target are the rules'; returns its
        record. Past 2^52 pulls, which no run reaches, a linear limit is the
        count rule's alone, so the rule is read quiet up to 2^52."""
        snap, limit, fires = ag.snapshot, ag.trigger_limit, self.fam.rule_fires
        if snap.counts_total != int(np.sum(snap.counts)) or fires(ag, min(limit, 2**52)) or not fires(ag, limit + 1):
            raise AuditError(f"agent {m + 1} downloaded a total or trigger limit that is not the rule's")
        if not self.fam.rule_target(ag):
            raise AuditError(f"agent {m + 1} downloaded a target that is not the rule's")
        return ag, _watched(ag), m

    def upload(self, server, agents, held, ag, n, total, m, tau):
        """After agent m, whose state was `ag`, uploaded n pulls summing to
        `total` in round tau, the server merged them and m downloaded unless it stopped."""
        fam, a = self.fam, ag.current_target - 1
        if n != ag.trigger_limit + 1:
            raise AuditError(f"agent {m + 1} uploaded {n} pulls at a trigger limit of {ag.trigger_limit}")
        self.pulls[a] += n
        if self.sums is not None:
            cov, resp = self.sums
            cov += n * fam.outers[a]
            resp += total * fam.contexts[a]
        self.check(server, held, tau, {id(rec): rec for rec in (self.records[m], self.latest)})
        if agents[m] is not ag:
            self.records[m] = self.latest = self.download(agents[m], m)

    def check(self, server, held, tau, records):
        """The server's cached values; conservation over every agent, where
        the audit's own tally counts the initial and the uploaded pulls of
        each arm and the agents hold the rest of tau, and the linear sums
        are the audit's own, from the uploads' reward sums, to the bit; and
        the downloads of `records` (by id) as they were downloaded."""
        counts = np.asarray(server.counts)
        if server.counts_total != int(counts.sum()):
            raise AuditError("server cached total diverged")
        if counts.tolist() != self.pulls or server.counts_total + sum(held) != tau:
            raise AuditError("count conservation violated")
        if self.sums is None:
            if np.asarray(server.two_over_counts).tobytes() != (2.0 / counts).tobytes():
                raise AuditError("server's carried 2/counts diverged")
        elif server.cov.tobytes() != self.sums[0].tobytes() or server.resp.tobytes() != self.sums[1].tobytes():
            raise AuditError("covariance or response conservation violated")
        for ag, seen, m in records.values():
            if seen != _watched(ag):
                raise AuditError(f"agent {m + 1} target, limit, q or snapshot changed between downloads")

    def end(self, server, agents, held, tau):
        """Everything above, once per distinct record; no agent over its limit."""
        self.check(server, held, tau, {id(rec): rec for rec in self.records})
        for m, (ag, n) in enumerate(zip(agents, held)):
            if n > ag.trigger_limit:
                raise AuditError(f"agent {m + 1} holds {n} pulls over its trigger limit of {ag.trigger_limit}")


# ---------------------------------------------------------------------------
# The asynchronous driver (famabpe and falinpe)
# ---------------------------------------------------------------------------


def _run_async(fam, audit: bool, audit_log: list | None) -> RunResult:
    """One asynchronous event-triggered run of either bandit family.

    Each round the active agent m pulls its frozen target, counted in held[m]
    and its reward added to sums[m] from 0.0. Once held[m] exceeds the
    trigger limit fixed at its last download (0 for a family built forced),
    the server merges (target, held[m], sums[m]), both restart at 0, and the
    run stops at B <= epsilon or the agent downloads the merged state. Set-up
    merges one pull of every arm into the family's empty state and downloads
    the result once, and every agent holds that download.
    The active agents and reward normals come in blocks from
    ActivationSchedule.block, equal to per-round draws.
    Auditing, the audit log and the message counters act only at uploads;
    the per-arm pulls are the server's counts plus the held ones at the end.
    """
    inst, cfg = fam.instance, fam.cfg
    k, m_agents = inst.k_arms, cfg.n_agents
    rng = make_rng(cfg.seed)
    # initialization rounds 1..K: arm t pulled once (by agent ((t-1) mod M)+1,
    # an attribution that affects no statistic) and merged as a one-pull
    # upload into the empty state, then every agent downloads the initialized
    # state: one download that all M agents hold, counted once per agent as
    # a message and by its fallback
    server = fam.empty()
    for a in range(1, k + 1):
        server = fam.merge(server, a, 1, sample_reward_mab(inst, a, rng))
    check = fam.stop(server)
    first, fallback = fam.download(server, check)
    agents, held, sums, fallbacks = [first] * m_agents, [0] * m_agents, [0.0] * m_agents, m_agents * fallback
    audit = Audit(fam, server, agents) if audit else None
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
            ag = agents[m]
            held[m] += 1
            sums[m] += means[ag.current_target - 1] + sigma * z
            tau += 1
            if held[m] > ag.trigger_limit:
                arm, n, total = ag.current_target, held[m], sums[m]
                held[m], sums[m] = 0, 0.0
                comm += 1  # upload
                server = fam.merge(server, arm, n, total)
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
                    audit.upload(server, agents, held, ag, n, total, m, tau)
                if audit_log is not None:
                    audit_log.append(AuditRecord(tau, m + 1, arm, n, target, stopped, check[2]))
                if stopped:
                    break

    if audit:
        audit.end(server, agents, held, tau)
    # the initial and the uploaded pulls, then the held ones (the stopping agent's were sent)
    pulls = np.asarray(server.counts).tolist()
    for ag, n in zip(agents, held):
        pulls[ag.current_target - 1] += n
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


def _squared_ratio(s: float, d: float) -> float:
    """s^2 / d^2 for d > 0, and (s / d)^2 where a square leaves the float
    range: +inf past the largest float, 0 at s = 0."""
    try:
        return s**2 / d**2
    except (OverflowError, ZeroDivisionError):
        return (s / d) * (s / d)


def compute_theory_diagnostics(instance, config: RunConfig, tau: int | None = None) -> dict:
    """Problem-complexity value and the communication bound at a given tau.

    The MAB complexity sums sigma^2 / max((gap+eps)/3, eps)^2 over arms; at
    eps = 0 its best-arm term divides by zero, so the value is reported as
    +inf and flagged, and a term past the largest float is +inf unflagged.
    The linear complexity maximizes rho(y) p_k(y) / denominator^2 over
    ordered arm pairs per arm; identical-context pairs and the arms a pair's
    design does not weight contribute nothing, and a weighted term past the
    largest float, its squared denominator 0 included, is +inf.
    No reward is drawn, so the config is resolved without a run's checks on
    reward noise; a linear one still reads sigma for its default ridge.
    """
    eps, k = config.epsilon, instance.k_arms
    linear = isinstance(instance, LinearInstance)
    cfg = config._resolved(k, instance.sigma if linear else None, None, draws=False)
    gaps = [instance.gap(a) for a in range(1, k + 1)]
    report: dict = {"epsilon": eps, "type": "linear" if linear else "mab", "per_arm_gaps": gaps}
    if linear:
        contexts = np.asarray(instance.contexts, dtype=float)
        best_per_arm = np.zeros(k)
        for i in range(k):
            for j in range(k):
                y = contexts[i] - contexts[j]
                if np.abs(y).max() == 0.0:
                    continue
                sol = solve_l1(contexts, y)
                denom = max((gaps[i] + eps) / 3.0, (gaps[j] + eps) / 3.0, eps)
                weighted = sol.p > 0
                contrib = np.zeros(k)
                with np.errstate(divide="ignore", over="ignore"):
                    contrib[weighted] = sol.rho * sol.p[weighted] / denom**2
                best_per_arm = np.maximum(best_per_arm, contrib)
        report["complexity"] = float(best_per_arm.sum())
        report["epsilon_zero_flag"] = False
    else:
        denoms = [max((g + eps) / 3.0, eps) for g in gaps]
        infinite = 0.0 in denoms
        report["complexity"] = math.inf if infinite else float(sum(_squared_ratio(instance.sigma, d) for d in denoms))
        report["epsilon_zero_flag"] = infinite
    if tau is not None:
        if linear:
            report["comm_bound"] = linear_comm_bound(cfg.n_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, instance.dim, tau)
        else:
            report["comm_bound"] = mab_comm_bound(cfg.n_agents, cfg.gamma, tau)
    return report
