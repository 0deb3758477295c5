"""Reference algorithms: single-agent runs (communication every round) and
synchronous fixed-episode runs with full data sharing at sync points.

A synchronous run advances in global rounds where every agent pulls once.
The first ceil(K/M) global rounds are a warm-up that pulls arms round-robin
so each arm is observed; the warm-up ends with one initialization sync whose
2M messages are counted in init_comm. Afterwards agents pull their frozen
targets; at every episode boundary all M agents upload and download (2M
messages in comm_cost, also on the stopping boundary, which is what makes
comm_cost = 2 * tau / episode_len an exact identity), and the stopping rule
is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linear as lin
from . import mab
from .core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    make_rng,
    sample_reward_linear,
    sample_reward_mab,
)
from .runner import run_falinpe, run_famabpe


@dataclass(frozen=True)
class SyncConfig(RunConfig):
    """RunConfig plus the fixed number of global rounds between syncs."""

    episode_len: int = 100

    def __post_init__(self):
        super().__post_init__()
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")


def run_single_agent(instance, config: RunConfig) -> RunResult:
    """The federated algorithm at M=1 with communication forced every round.

    Agent and server coincide after every pull, the stopping rule is checked
    every round, and the (degenerate) communication cost is reported as-is.
    """
    cfg = replace(config, n_agents=1) if config.n_agents != 1 else config
    if isinstance(instance, MabInstance):
        return run_famabpe(instance, cfg, comm_every_round=True)
    return run_falinpe(instance, cfg, comm_every_round=True)


def run_synchronous(instance, sync_config: SyncConfig) -> RunResult:
    """Synchronous baseline with full sharing every episode_len global rounds."""
    if isinstance(instance, MabInstance):
        return _run_sync_mab(instance, sync_config)
    return _run_sync_linear(instance, sync_config)


def _run_sync_mab(instance: MabInstance, config: SyncConfig) -> RunResult:
    cfg = config.resolved(instance.k_arms)
    k = instance.k_arms
    m_agents = cfg.n_agents
    episode = config.episode_len
    gamma_m = float(cfg.gamma) * m_agents
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)

    server = mab.MabServerState(
        mean_est=np.zeros(k), counts=np.zeros(k, dtype=np.int64), counts_total=0
    )
    pend_sums = [np.zeros(k) for _ in range(m_agents)]
    pend_counts = [np.zeros(k, dtype=np.int64) for _ in range(m_agents)]
    targets: list[int | None] = [None] * m_agents
    pulls = np.zeros(k, dtype=np.int64)
    tau = 0
    g = 0
    comm = 0
    init_comm = 0
    switches = 0
    downloads = 0
    stopped = False
    best_est = 0

    while not stopped and tau + m_agents <= cfg.max_rounds:
        g += 1
        for m in range(m_agents):
            if g <= warmup:
                arm = ((g - 1) * m_agents + m) % k + 1
            else:
                arm = targets[m]
            reward = sample_reward_mab(instance, arm, rng)
            pend_sums[m][arm - 1] += reward
            pend_counts[m][arm - 1] += 1
            pulls[arm - 1] += 1
            tau += 1

        at_sync = g % episode == 0
        at_init = g == warmup
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
        # the warm-up boundary never stop-checks, even when it coincides with
        # an episode boundary; this keeps episode_len=1, M=1 pull-for-pull
        # identical to the single-agent baseline
        if at_sync and g > warmup:
            bon = mab.bonuses_mab(server.counts, server.counts_total, cfg.delta, instance.sigma, gamma_m)
            i, _j, b = mab.breaking_index(server.mean_est, bon)
            if b <= cfg.epsilon:
                stopped = True
                best_est = i
                break
        # every agent downloads the merged state and re-freezes its target
        # (undefined until every arm has a server observation)
        if int(server.counts.min()) > 0:
            new_target = mab.agent_target_mab(
                server.mean_est, server.counts, server.counts_total, cfg.delta, instance.sigma, gamma_m
            )
            for m in range(m_agents):
                downloads += 1
                if targets[m] is not None and targets[m] != new_target:
                    switches += 1
                targets[m] = new_target

    if not stopped:
        best_est = int(np.argmax(server.mean_est)) + 1
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
    )


def _run_sync_linear(instance: LinearInstance, config: SyncConfig) -> RunResult:
    cfg = config.resolved(instance.k_arms, instance.sigma)
    k = instance.k_arms
    dim = instance.dim
    contexts = np.asarray(instance.contexts, dtype=float)
    m_agents = cfg.n_agents
    episode = config.episode_len
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)
    lp_memo: dict = {}

    server = lin.LinServerState(
        cov=cfg.ridge * np.eye(dim),
        resp=np.zeros(dim),
        counts=np.zeros(k, dtype=np.int64),
        counts_total=0,
    )
    pend_cov = [np.zeros((dim, dim)) for _ in range(m_agents)]
    pend_resp = [np.zeros(dim) for _ in range(m_agents)]
    pend_counts = [np.zeros(k, dtype=np.int64) for _ in range(m_agents)]
    targets: list[int | None] = [None] * m_agents
    pulls = np.zeros(k, dtype=np.int64)
    tau = 0
    g = 0
    comm = 0
    init_comm = 0
    switches = 0
    downloads = 0
    fallbacks = 0
    stopped = False
    best_est = 0

    while not stopped and tau + m_agents <= cfg.max_rounds:
        g += 1
        for m in range(m_agents):
            if g <= warmup:
                arm = ((g - 1) * m_agents + m) % k + 1
            else:
                arm = targets[m]
            x = contexts[arm - 1]
            reward = sample_reward_linear(instance, arm, rng)
            pend_cov[m] += np.outer(x, x)
            pend_resp[m] += reward * x
            pend_counts[m][arm - 1] += 1
            pulls[arm - 1] += 1
            tau += 1

        at_sync = g % episode == 0
        at_init = g == warmup
        if not (at_sync or at_init):
            continue
        for m in range(m_agents):
            server = lin.server_merge_linear(server, pend_cov[m], pend_resp[m], pend_counts[m])
            pend_cov[m][:] = 0.0
            pend_resp[m][:] = 0.0
            pend_counts[m][:] = 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        # no target is defined until every arm has a server observation
        if int(server.counts.min()) == 0:
            continue
        stop = lin.stopping_linear(
            server, contexts, dim, cfg.delta, instance.sigma, cfg.ridge, cfg.gamma1, cfg.gamma2, m_agents
        )
        if at_sync and g > warmup and stop.b <= cfg.epsilon:
            stopped = True
            best_est = stop.i
            break
        new_target, fb, _q = lin.select_target(server, contexts, stop, cfg.arm_select, cfg.greedy_sense, lp_memo)
        fallbacks += int(fb)
        for m in range(m_agents):
            downloads += 1
            if targets[m] is not None and targets[m] != new_target:
                switches += 1
            targets[m] = new_target

    if not stopped:
        theta = lin.rls_estimate(server.cov, server.resp)
        best_est = int(np.argmax(contexts @ theta)) + 1
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
