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

from .core import MabInstance, RunConfig, RunResult, make_rng
from .runner import bandit_family, run_falinpe, run_famabpe, run_result

# run_synchronous draws at most MAX_BLOCK rounds at once, bounding its memory
MAX_BLOCK = 1024


@dataclass(frozen=True)
class SyncConfig(RunConfig):
    """RunConfig plus the fixed number of global rounds between syncs."""

    episode_len: int = 100

    def __post_init__(self):
        super().__post_init__()
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")

    def resolved(self, k_arms: int, sigma: float | None = None, means: tuple | None = None) -> "SyncConfig":
        """RunConfig.resolved, refusing a round cap that ends inside the
        warm-up, where no target is defined."""
        warmup = math.ceil(k_arms / self.n_agents) * self.n_agents
        if self.max_rounds < warmup:
            raise ValueError(f"max_rounds must reach the warm-up's {warmup} pulls")
        return super().resolved(k_arms, sigma, means)


def run_single_agent(instance, config: RunConfig) -> RunResult:
    """The federated algorithm at M=1 with communication forced every round.

    Agent and server coincide after every pull, the stopping rule is checked
    every round, and the (degenerate) communication cost is reported as-is.
    """
    cfg = replace(config, n_agents=1) if config.n_agents != 1 else config
    if isinstance(instance, MabInstance):
        return run_famabpe(instance, cfg, comm_every_round=True)
    return run_falinpe(instance, cfg, comm_every_round=True)


def _fold(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """start + terms[0] + terms[1] + ..., added in that order, so the result is
    bit-equal to a per-pull `+=` loop from `start`."""
    return np.add.accumulate(np.concatenate((start[None], terms)))[-1]


def run_synchronous(instance, sync_config: SyncConfig) -> RunResult:
    """Synchronous baseline with full sharing every episode_len global rounds."""
    fam = bandit_family(instance, sync_config)
    cfg, means = fam.cfg, np.asarray(instance.means)
    k = instance.k_arms
    m_agents = cfg.n_agents
    episode = cfg.episode_len
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)

    # each pending sum is folded from +0.0, so no merge receives -0.0, and
    # the empty state's -0.0 estimates merge as +0.0 ones would
    server = fam.empty()
    # each agent's reward sum and pull count per arm since the last merge
    pend_sums, pend_counts = np.zeros((m_agents, k)), np.zeros((m_agents, k), dtype=np.int64)
    target: int | None = None  # the common frozen target of every agent
    tau = g = 0
    comm = init_comm = switches = downloads = fallbacks = 0
    final = None  # the stop check that stops the run, if one does

    while tau + m_agents <= cfg.max_rounds:
        # the pulls of a step are one (rounds, M) block of normals: the same
        # stream, round by round and agent by agent, as one draw per pull
        if g < warmup:
            # one warm-up round: agent m pulls arm (g M + m) mod K, 0-based
            rounds, who = 1, np.arange(m_agents)
            arms = (g * m_agents + who) % k
        else:
            # every agent pulls the common frozen target up to the next episode
            # boundary or the round cap; at most MAX_BLOCK rounds bound memory
            # at long episodes
            rounds = min(episode - g % episode, (cfg.max_rounds - tau) // m_agents, MAX_BLOCK)
            who, arms = slice(None), target - 1
        rewards = means[arms] + instance.sigma * rng.standard_normal((rounds, m_agents))
        pend_sums[who, arms] = _fold(pend_sums[who, arms], rewards)
        pend_counts[who, arms] += rounds
        tau += rounds * m_agents
        g += rounds

        at_sync = g % episode == 0
        at_init = g == warmup
        if not (at_sync or at_init):
            continue
        # each agent uploads, for every arm it pulled, its pulls and their sum
        for m in range(m_agents):
            for a in np.flatnonzero(pend_counts[m]):
                server = fam.merge(server, a + 1, int(pend_counts[m, a]), float(pend_sums[m, a]))
        pend_sums[:] = 0
        pend_counts[:] = 0
        if at_sync:
            comm += 2 * m_agents
        else:
            init_comm += 2 * m_agents
        # no target is defined until every arm has a server observation: the
        # g M < K pulls before the warm-up's end miss an arm, its g M >= K cover all
        if g < warmup:
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

    # the merged pulls, and those a round cap cut off inside an episode
    pulls = np.asarray(server.counts) + pend_counts.sum(axis=0)
    return run_result(fam, server, final, tau, pulls, comm, init_comm, switches, downloads, fallbacks)
