"""The reference simulator: the drivers' former per-round loops, kept as
oracles for every whole-run comparison.

One asynchronous loop (famabpe, falinpe, the single-agent baseline) and one
synchronous loop run one pull at a time. They hold every agent's unsent
pulls in K-length arrays of counts and reward sums, add each reward as it
is drawn, and share no code with the drivers. Each takes:

- a family reference, the rules: for MAB the exact rational trigger, the
  masked merge in numpy, the widths' formula from the counts, B from numpy
  scalars and a download that derives the target from the snapshot; for
  the linear family the hybrid trigger in rationals, the merge of n x x^T
  and the sum times x, the stop check composed from the public kernels and
  a download with its own LP memo;
- a source, the randomness: set-up's K rewards, each round's active agent
  and each pull's reward. `combined` reads the drivers' stream, one
  Generator that draws each round's agent and then one reward per pull;
  `fixed(sequence)` takes the agents from a pattern, with the same rewards.

`assert_same` compares a driver's run with its reference's.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from fedpex import baselines, runner
from fedpex import linear as lin
from fedpex import mab
from fedpex.baselines import SyncConfig
from fedpex.core import LinearInstance, RunResult, make_rng, sample_reward_mab
from fedpex.design_lp import SUPPORT_TOL, InfeasibleTargetError, NoSupportError, ZeroTargetError
from fedpex.linalg import cholesky, forward_sub
from fedpex.runner import AuditRecord, linear_comm_bound, mab_comm_bound


# ---------------------------------------------------------------------------
# The MAB family
# ---------------------------------------------------------------------------


def ref_trigger_mab(counts_total, pending_total, gamma):
    """sum(counts + pending) > (1 + gamma) sum(counts) in exact rationals."""
    g = gamma if type(gamma) is Fraction else Fraction(gamma)
    return (counts_total + pending_total) * g.denominator > (g.denominator + g.numerator) * counts_total


def ref_merge_mab(server, pending_sums, pending_counts):
    """The merge in numpy, from a server state of either representation;
    2/counts is inf at a zero count."""
    counts = np.asarray(server.counts)
    new_counts = counts + pending_counts
    mean = np.array(server.mean_est)
    touched = pending_counts > 0
    old = mean[touched] * counts[touched]
    mean[touched] = (old + pending_sums[touched]) / new_counts[touched]
    with np.errstate(divide="ignore"):
        two_over_counts = 2.0 / new_counts
    return mab.MabServerState(mean, new_counts, server.counts_total + int(pending_counts.sum()), two_over_counts)


def ref_bonuses_mab(counts, t_sum, delta, sigma, gamma_m):
    """The confidence widths by their formula from the counts, as bonuses_mab
    computed them before server states carried 2/counts."""
    arg = (4.0 * len(counts) / delta) * ((1.0 + gamma_m) * t_sum) ** 2
    return sigma * np.sqrt((2.0 / counts) * math.log(arg))


def ref_breaking_index(mean_est, bonuses):
    """select_pair_mab's pair, and B from four numpy-scalar operations."""
    i, j = mab.select_pair_mab(mean_est, bonuses)
    return i, j, float(mean_est[j - 1] - mean_est[i - 1] + bonuses[i - 1] + bonuses[j - 1])


class RefMab:
    """famabpe's rules for the reference loops, on numpy server states."""

    linear = False

    def __init__(self, instance, config):
        self.instance, self.cfg = instance, config.resolved(instance.k_arms)
        self.widths = (self.cfg.delta, instance.sigma, float(self.cfg.gamma) * self.cfg.n_agents)

    def empty(self):
        k = self.instance.k_arms
        return mab.MabServerState(np.zeros(k), np.zeros(k, dtype=np.int64), 0, np.full(k, math.inf))

    def init(self, rewards):
        """After one pull of every arm, as the former `init` built it: the
        estimates are the rewards themselves."""
        k = self.instance.k_arms
        return mab.MabServerState(np.array(rewards), np.ones(k, dtype=np.int64), k, np.full(k, 2.0))

    def merge(self, server, sums, counts):
        return ref_merge_mab(server, sums, counts)

    def stop(self, server):
        return ref_breaking_index(server.mean_est, ref_bonuses_mab(server.counts, server.counts_total, *self.widths))

    def download(self, server, stop):
        """A fresh agent, whose target agent_target_mab derives from the snapshot."""
        target = mab.agent_target_mab(server.mean_est, server.counts, server.counts_total, *self.widths)
        return SimpleNamespace(current_target=target, counts_total=server.counts_total), False

    def fires(self, agent, n):
        return ref_trigger_mab(agent.counts_total, n, self.cfg.gamma)

    def best(self, server):
        return int(np.argmax(server.mean_est)) + 1

    def comm_bound(self, tau):
        return mab_comm_bound(self.cfg.n_agents, self.cfg.gamma, tau)


# ---------------------------------------------------------------------------
# The linear family
# ---------------------------------------------------------------------------


def ref_trigger_hybrid(agent, n, gamma1, gamma2):
    """The count rule in exact rationals, or n * target_q > gamma1."""
    g2 = Fraction(gamma2)
    lhs = (agent.counts_total + n) * g2.denominator
    if lhs > (g2.denominator + g2.numerator) * agent.counts_total:
        return True
    return n * agent.target_q > float(gamma1)


def ref_merge_linear(server, contexts, arm, n, reward_sum):
    """The linear merge rule: n pulls of `arm`, whose context is x and whose
    rewards sum to reward_sum, add n x x^T to cov and reward_sum x to resp."""
    x = contexts[arm - 1]
    counts = server.counts.copy()
    counts[arm - 1] += n
    return lin.LinServerState(server.cov + n * np.outer(x, x), server.resp + reward_sum * x, counts,
                              server.counts_total + n)


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


def ref_select_arm_greedy(cov, contexts, y):
    """The per-solve greedy rule: factor cov and whiten y and the contexts afresh."""
    z = forward_sub(cholesky(cov), np.column_stack((y, contexts.T)))
    return lin.select_arm_greedy(z[:, 0], z[:, 1:])


def ref_choose(cov, counts, contexts, i, j, arm_select, zx=None, memo=None):
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
        return ref_select_arm_greedy(cov, contexts, y), arm_select == "lp"
    return lin.select_arm_greedy(zx[:, i - 1] - zx[:, j - 1], zx), arm_select == "lp"


def ref_download(server, contexts, stop, gamma1, gamma2, arm_select, memo):
    """A fresh agent: its target, q and the trigger limit from float(gamma1)
    and gamma2's ratio; and whether the target fell back."""
    i, j, _b, zx = stop
    target, fallback = ref_choose(server.cov, server.counts, contexts, i, j, arm_select, zx, memo)
    z = zx[:, target - 1]
    q = float(z @ z)
    limit = lin.trigger_limit_linear(server.counts_total, q, float(gamma1), gamma2.as_integer_ratio())
    agent = SimpleNamespace(current_target=target, counts_total=server.counts_total, target_q=q, trigger_limit=limit)
    return agent, fallback


class RefLinear:
    """falinpe's rules for the reference loops, with the run's LP memo."""

    linear = True

    def __init__(self, instance, config):
        self.instance, self.cfg = instance, config.resolved(instance.k_arms, instance.sigma)
        self.contexts, self.memo = np.asarray(instance.contexts, dtype=float), {}

    def empty(self):
        dim, k = self.instance.dim, self.instance.k_arms
        return lin.LinServerState(self.cfg.ridge * np.eye(dim), np.zeros(dim), np.zeros(k, dtype=np.int64), 0)

    def init(self, rewards):
        """After one pull of every arm, as the former `init` built it: the
        sums start at ridge I and 0 and add x x^T and r x in arm order."""
        dim, k = self.instance.dim, self.instance.k_arms
        cov, resp = self.cfg.ridge * np.eye(dim), np.zeros(dim)
        for x, reward in zip(self.contexts, rewards):
            cov += np.outer(x, x)
            resp += reward * x
        return lin.LinServerState(cov, resp, np.ones(k, dtype=np.int64), k)

    def merge(self, server, sums, counts):
        for a in np.flatnonzero(counts):
            server = ref_merge_linear(server, self.contexts, a + 1, int(counts[a]), float(sums[a]))
        return server

    def stop(self, server):
        cfg, inst = self.cfg, self.instance
        return ref_stop_check(server, self.contexts, inst.dim, cfg.delta, inst.sigma, cfg.ridge, cfg.gamma1,
                              cfg.gamma2, cfg.n_agents)

    def download(self, server, stop):
        cfg = self.cfg
        return ref_download(server, self.contexts, stop, cfg.gamma1, cfg.gamma2, cfg.arm_select, self.memo)

    def fires(self, agent, n):
        return ref_trigger_hybrid(agent, n, self.cfg.gamma1, self.cfg.gamma2)

    def best(self, server):
        return int(np.argmax(self.contexts @ lin.rls_estimate(server.cov, server.resp))) + 1

    def comm_bound(self, tau):
        cfg = self.cfg
        return linear_comm_bound(cfg.n_agents, cfg.gamma1, cfg.gamma2, cfg.ridge, self.instance.dim, tau)


def ref_family(instance, config):
    return RefLinear(instance, config) if isinstance(instance, LinearInstance) else RefMab(instance, config)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def ref_next_agent(activation, m_agents, t, rng):
    """The active agent of the t-th round after set-up (t from 0), drawn by
    the Generator itself."""
    if m_agents == 1:
        return 0
    if activation == "uniform-random":
        return int(rng.integers(m_agents))
    return t % m_agents


class Source:
    """A reference run's randomness, from make_rng(seed): the active agent of
    the t-th round after set-up (t from 0) is `agents(t, rng)`, and every
    reward, set-up's included, is one sample_reward_mab call."""

    def __init__(self, seed, agents):
        self.rng, self.agents = make_rng(seed), agents

    def agent(self, t):
        return self.agents(t, self.rng)

    def reward(self, instance, arm):
        return sample_reward_mab(instance, arm, self.rng)


def combined(cfg):
    """The drivers' stream: one Generator draws each round's active agent,
    then its reward."""
    return Source(cfg.seed, lambda t, rng: ref_next_agent(cfg.activation, cfg.n_agents, t, rng))


def fixed(sequence):
    """A source whose active agents are `sequence`, repeated up to the round
    cap; its rewards are combined's generator's normals, with no activation
    draws between them."""
    return lambda cfg: Source(cfg.seed, lambda t, rng: sequence[t % len(sequence)])


# ---------------------------------------------------------------------------
# The loops
# ---------------------------------------------------------------------------


def ref_result(fam, best, tau, comm, init_comm, switches, pulls, stopped, downloads, fallbacks):
    inst, pulls = fam.instance, tuple(int(x) for x in pulls)
    correct = inst.gap(best) <= fam.cfg.epsilon
    return RunResult(best, inst.best_arm(), correct, tau, comm, init_comm, switches, pulls, stopped, downloads,
                     fallbacks)


def run_async(fam, source=combined, audit_log=None, forced=False):
    """The asynchronous driver, one pull at a time. Set-up pulls every arm
    once, and every agent downloads the initialized state, which is
    stop-checked once. Each round the active agent pulls its target; once
    the family's rule fires on its pending count (every pull when forced,
    the single-agent baseline's hook), the server merges its pending arrays
    and the run stops at B <= epsilon or the agent downloads."""
    inst, cfg = fam.instance, fam.cfg
    k, m_agents = inst.k_arms, cfg.n_agents
    src = source(cfg)
    server = fam.init([src.reward(inst, a) for a in range(1, k + 1)])
    stop = fam.stop(server)
    agents, fallbacks = [], 0
    for _ in range(m_agents):
        agent, fallback = fam.download(server, stop)
        agents.append(agent)
        fallbacks += fallback
    sums, counts, held = np.zeros((m_agents, k)), np.zeros((m_agents, k), dtype=np.int64), [0] * m_agents
    pulls = np.ones(k, dtype=np.int64)
    comm = switches = downloads = 0
    tau, stopped, best = k, False, 0
    while not stopped and tau < cfg.max_rounds:
        m = src.agent(tau - k)
        tau += 1
        ag = agents[m]
        arm = ag.current_target
        sums[m, arm - 1] += src.reward(inst, arm)
        counts[m, arm - 1] += 1
        held[m] += 1
        pulls[arm - 1] += 1
        if not (forced or fam.fires(ag, held[m])):
            continue
        comm += 1
        n, server = held[m], fam.merge(server, sums[m], counts[m])
        sums[m], counts[m], held[m] = 0.0, 0, 0
        stop = fam.stop(server)
        target = None
        if stop[2] <= cfg.epsilon:
            stopped, best = True, stop[0]
        else:
            comm += 1
            downloads += 1
            agents[m], fallback = fam.download(server, stop)
            fallbacks += fallback
            target = agents[m].current_target
            switches += target != arm
        if audit_log is not None:
            audit_log.append(AuditRecord(tau, m + 1, arm, n, target, stopped, stop[2]))
    # a stopped run keeps the paper's communication bound
    assert forced or not stopped or comm <= fam.comm_bound(tau)
    best = best if stopped else fam.best(server)
    return ref_result(fam, best, tau, comm, k + m_agents, switches, pulls, stopped, downloads, fallbacks)


def run_sync(fam, source=combined):
    """The synchronous driver, one pull at a time: every global round each
    agent pulls once, the warm-up's arms round-robin and then the common
    target. At each episode boundary and at the warm-up's end every agent's
    pending arrays merge, in agent order, and once every arm has a count the
    state is stop-checked (stopping only on an episode boundary after the
    warm-up) and every agent downloads its target."""
    inst, cfg = fam.instance, fam.cfg
    k, m_agents, episode = inst.k_arms, cfg.n_agents, cfg.episode_len
    src = source(cfg)
    warmup = math.ceil(k / m_agents)
    server = fam.empty()
    sums, counts = np.zeros((m_agents, k)), np.zeros((m_agents, k), dtype=np.int64)
    pulls = np.zeros(k, dtype=np.int64)
    tau = g = comm = init_comm = switches = downloads = fallbacks = 0
    target, stopped, best = None, False, 0
    while tau + m_agents <= cfg.max_rounds:
        g += 1
        for m in range(m_agents):
            arm = ((g - 1) * m_agents + m) % k + 1 if g <= warmup else target
            sums[m, arm - 1] += src.reward(inst, arm)
            counts[m, arm - 1] += 1
            pulls[arm - 1] += 1
            tau += 1
        at_sync, at_init = g % episode == 0, g == warmup
        if not (at_sync or at_init):
            continue
        for m in range(m_agents):
            server = fam.merge(server, sums[m], counts[m])
        sums[:], counts[:] = 0.0, 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        if int(server.counts.min()) == 0:
            continue
        stop = fam.stop(server)
        if at_sync and g > warmup and stop[2] <= cfg.epsilon:
            stopped, best = True, stop[0]
            break
        agent, fallback = fam.download(server, stop)
        fallbacks += fallback
        downloads += m_agents
        switches += m_agents * (target is not None and agent.current_target != target)
        target = agent.current_target
    best = best if stopped else fam.best(server)
    return ref_result(fam, best, tau, comm, init_comm, switches, pulls, stopped, downloads, fallbacks)


# ---------------------------------------------------------------------------
# famabpe's uploads from its activations alone, and the comparator
# ---------------------------------------------------------------------------


def replay_uploads(instance, config, rounds, comm_every_round=False, source=combined):
    """famabpe's uploads (t, agent, pulls) through round `rounds`, from its
    activations alone: one count of held pulls per agent, the server total
    each agent downloaded and the server total, with ref_trigger_mab's rule
    in integers and no reward or stop check. The normals are drawn, unread,
    only to keep the activations where the source puts them."""
    cfg = config.resolved(instance.k_arms)
    k, m_agents = instance.k_arms, cfg.n_agents
    num, den = (0, 1) if comm_every_round else Fraction(cfg.gamma).as_integer_ratio()
    src = source(cfg)
    src.rng.standard_normal(k)  # set-up's K rewards
    total, downloaded, held, uploads = k, [k] * m_agents, [0] * m_agents, []
    for t in range(k + 1, rounds + 1):
        m = src.agent(t - k - 1)
        src.rng.standard_normal()
        held[m] += 1
        if (downloaded[m] + held[m]) * den > (den + num) * downloaded[m]:
            uploads.append((t, m + 1, held[m]))
            total += held[m]
            downloaded[m], held[m] = total, 0
    return uploads


def logged_uploads(log):
    return [(rec.t, rec.agent, rec.pulls) for rec in log]


def assert_replayed(instance, config, result, log, comm_every_round=False, source=combined):
    """The run's upload log is the replay's through tau, and its messages
    are its U uploads and a download after each but a stopping one."""
    uploads = replay_uploads(instance, config, result.tau, comm_every_round, source)
    assert logged_uploads(log) == uploads
    assert result.n_downloads == len(uploads) - result.terminated
    assert result.comm_cost == 2 * len(uploads) - result.terminated


def stop_checks(states):
    """The logged server states of the stop checks, without the snapshots
    that agent_target_mab reads (the audit's and the MAB reference's)."""
    return [entry for entry in states if entry[0] != "agent_target_mab"]


def assert_same(instance, config, states, source=combined, audit=False, comm_every_round=False):
    """The driver's run of `config` (a SyncConfig: the synchronous one) and
    the reference's on `source` give the same RunResult JSON, audit log and
    stop-checked server states, logged in `states`: the set-up state and
    every upload's for an asynchronous run. Returns the driver's result."""
    fam, sync = ref_family(instance, config), isinstance(config, SyncConfig)
    ref_log, log = [], []
    want = run_sync(fam, source) if sync else run_async(fam, source, ref_log, comm_every_round)
    ref_states = stop_checks(states)
    states.clear()
    if sync:
        got = baselines.run_synchronous(instance, config)
    else:
        run = runner.run_falinpe if fam.linear else runner.run_famabpe
        got = run(instance, config, audit=audit, audit_log=log, comm_every_round=comm_every_round)
    assert got.to_json() == want.to_json()
    assert log == ref_log
    # the bytes of every server state, not only its stop score B
    assert stop_checks(states) == ref_states and ref_states
    states.clear()
    if not sync:
        assert len(ref_states) == 1 + got.comm_cost - got.n_downloads
        if not fam.linear:
            assert_replayed(instance, config, got, log, comm_every_round, source)
    return got
