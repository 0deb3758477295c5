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
from .core import MabInstance, RunConfig, RunResult, make_rng, sample_reward_linear, sample_reward_mab
from .runner import MAX_BLOCK, bandit_family, run_falinpe, run_famabpe, run_result


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


# After the warm-up every agent pulls the common frozen target, so the pulls
# up to the next episode boundary or the round cap are drawn as one
# (rounds, M) block of normals: the same stream, round by round and agent by
# agent, as one draw per pull. A block holds at most _MAX_BLOCK rounds, which
# bounds memory at long episodes.
_MAX_BLOCK = MAX_BLOCK


def _fold(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """start + terms[0] + terms[1] + ..., added in that order, so the result is
    bit-equal to a per-pull `+=` loop from `start`."""
    return np.add.accumulate(np.concatenate((start[None], terms)))[-1]


def run_synchronous(instance, sync_config: SyncConfig) -> RunResult:
    """Synchronous baseline with full sharing every episode_len global rounds."""
    fam = bandit_family(instance, sync_config)
    cfg, linear, means = fam.cfg, fam.linear, fam.means
    k = instance.k_arms
    m_agents = cfg.n_agents
    episode = cfg.episode_len
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)

    if linear:
        contexts, dim = fam.contexts, instance.dim
        sample = sample_reward_linear
        server = lin.LinServerState(cfg.ridge * np.eye(dim), np.zeros(dim), np.zeros(k, dtype=np.int64), 0)
        pend_cov = np.zeros((m_agents, dim, dim))
        pend_resp = np.zeros((m_agents, dim))
        buffers = (pend_cov, pend_resp)
    else:
        sample = sample_reward_mab
        server = mab.MabServerState(np.zeros(k), np.zeros(k, dtype=np.int64), 0, np.full(k, math.inf))
        pend_sums = np.zeros((m_agents, k))
        buffers = (pend_sums,)
    pend_counts = np.zeros((m_agents, k), dtype=np.int64)
    target: int | None = None  # the common frozen target of every agent
    pulls = np.zeros(k, dtype=np.int64)
    tau = g = synced = 0  # synced: the global round of the last merge
    comm = init_comm = switches = downloads = fallbacks = 0
    final = None  # the stop check that stops the run, if one does

    while tau + m_agents <= cfg.max_rounds:
        if g < warmup:
            g += 1
            for m in range(m_agents):
                arm = ((g - 1) * m_agents + m) % k + 1
                reward = sample(instance, arm, rng)
                if linear:
                    x = contexts[arm - 1]
                    pend_cov[m] += np.outer(x, x)
                    pend_resp[m] += reward * x
                else:
                    pend_sums[m, arm - 1] += reward
                pend_counts[m, arm - 1] += 1
                pulls[arm - 1] += 1
            tau += m_agents
        else:
            rounds = min(episode - g % episode, (cfg.max_rounds - tau) // m_agents, _MAX_BLOCK)
            rewards = means[target - 1] + instance.sigma * rng.standard_normal((rounds, m_agents))
            if linear:
                x = contexts[target - 1]
                # every agent's buffer has held the same x x^T terms since the last merge
                pend_cov[:] = _fold(pend_cov[0], np.broadcast_to(np.outer(x, x), (rounds, dim, dim)))
                pend_resp[:] = _fold(pend_resp, rewards[:, :, None] * x)
            else:
                pend_sums[:, target - 1] = _fold(pend_sums[:, target - 1], rewards)
            pend_counts[:, target - 1] += rounds
            pulls[target - 1] += rounds * m_agents
            tau += rounds * m_agents
            g += rounds

        at_sync = g % episode == 0
        at_init = g == warmup
        if not (at_sync or at_init):
            continue
        # every agent pulled once per global round since the last merge
        n, synced = g - synced, g
        for m in range(m_agents):
            if linear:
                server = lin.server_merge_linear(server, pend_cov[m], pend_resp[m], server.counts + pend_counts[m], n)
            else:
                for a in np.flatnonzero(pend_counts[m]):
                    server = mab.server_merge_mab(server, a + 1, int(pend_counts[m, a]), float(pend_sums[m, a]))
        for buf in (*buffers, pend_counts):
            buf[:] = 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        # no target is defined until every arm has a server observation
        if int(server.counts.min()) == 0:
            continue
        check = fam.stop(server)
        # the warm-up boundary never stops, even when it coincides with an
        # episode boundary; this keeps episode_len=1, M=1 pull-for-pull
        # identical to the single-agent baseline
        if at_sync and g > warmup and check[2] <= cfg.epsilon:
            final = check
            break
        # every agent downloads the merged state and re-freezes its target
        agent, fallback = fam.download(server, check)
        fallbacks += fallback
        downloads += m_agents
        if target is not None and target != agent.current_target:
            switches += m_agents
        target = agent.current_target

    return run_result(fam, server, final, tau, pulls, comm, init_comm, switches, downloads, fallbacks)
