"""Reference algorithms: single-agent runs (communication every round) and
synchronous fixed-episode runs with full data sharing at sync points.

A synchronous run advances in global rounds where every agent pulls once.
The first ceil(K/M) global rounds are a warm-up that pulls arms round-robin
so each arm is observed, each pull a one-pull upload; its end is one
initialization sync whose 2M messages count in init_comm, unless it is an
episode boundary. Afterwards every agent pulls the common frozen target, so
its pulls between syncs are one upload of (target, n, reward sum); at every
episode boundary all M agents upload and download (2M messages in
comm_cost, also on the stopping boundary, which is what makes comm_cost =
2 * tau / episode_len an exact identity), and the stopping rule is
evaluated.
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
    """Synchronous baseline with full sharing every episode_len global rounds:
    the warm-up is one block of one-pull uploads, and each episode is M
    uploads of (target, L, reward sum), merged in agent order."""
    fam = bandit_family(instance, sync_config)
    cfg, means, sigma = fam.cfg, np.asarray(instance.means), instance.sigma
    k, m_agents, episode = instance.k_arms, cfg.n_agents, cfg.episode_len
    rng = make_rng(cfg.seed)
    warmup = math.ceil(k / m_agents)

    # in warm-up round g agent m pulls arm (g M + m) mod K, 0-based, never an
    # arm twice; one (warmup, M) block of normals is the stream round by round
    # and agent by agent
    mu, z = means.tolist(), rng.standard_normal((warmup, m_agents)).tolist()
    server, start = fam.empty(), 0
    for end in (*range(episode, warmup, episode), warmup):
        # at each sync and at the warm-up's end, each agent uploads its pulls
        # since the last one in arm order; a sum folded from +0.0 merges no
        # -0.0, so the empty state's -0.0 estimates merge as +0.0 ones would
        for m in range(m_agents):
            for a, r in sorted(((r * m_agents + m) % k, r) for r in range(start, end)):
                server = fam.merge(server, a + 1, 1, 0.0 + (mu[a] + sigma * z[r][m]))
        start = end
    comm, init_comm = 2 * m_agents * (warmup // episode), 0 if warmup % episode == 0 else 2 * m_agents
    # the warm-up's end never stops, even on an episode boundary; this keeps
    # episode_len=1, M=1 pull-for-pull identical to the single-agent baseline
    agent, fallback = fam.download(server, fam.stop(server))
    target, downloads, fallbacks, switches = agent.current_target, m_agents, int(fallback), 0
    tau, g, final = warmup * m_agents, warmup, None  # final: the stop check that stops the run
    # each agent's reward sum of its `held` pulls of the target since the last sync
    sums, held = np.zeros(m_agents), 0

    while tau + m_agents <= cfg.max_rounds:
        # every agent pulls the target up to the next episode boundary or the
        # round cap; at most MAX_BLOCK rounds bound memory at long episodes
        rounds = min(episode - g % episode, (cfg.max_rounds - tau) // m_agents, MAX_BLOCK)
        sums = _fold(sums, means[target - 1] + sigma * rng.standard_normal((rounds, m_agents)))
        held += rounds
        tau += rounds * m_agents
        g += rounds
        if g % episode:
            continue
        for s in sums.tolist():
            server = fam.merge(server, target, held, s)
        sums, held = np.zeros(m_agents), 0
        comm += 2 * m_agents
        check = fam.stop(server)
        if check[2] <= cfg.epsilon:
            final = check
            break
        # every agent downloads the merged state and re-freezes its target
        agent, fallback = fam.download(server, check)
        fallbacks += fallback
        downloads += m_agents
        switches += m_agents * (agent.current_target != target)
        target = agent.current_target

    # the merged pulls, and those a round cap cut off inside an episode
    pulls = np.asarray(server.counts).tolist()
    pulls[target - 1] += held * m_agents
    return run_result(fam, server, final, tau, pulls, comm, init_comm, switches, downloads, fallbacks)
