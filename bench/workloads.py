"""Workload table, instance generation, output checks and result digests
for the simulator benchmark.

Every workload is a fixed input shape; the workload seed picks the
instances and the run seeds. This module imports neither numpy nor fedpex
at import time: the caller passes the imported `fedpex` package in, so the
set-up probe can time the import itself.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Algo:
    """One algorithm as the benchmark calls it through the public API."""

    label: str
    call: str  # attribute of the fedpex package
    n_agents: int
    arm_select: str = "lp"
    episode_len: int | None = None  # set for synchronous runs

    @property
    def event_triggered(self) -> bool:
        return self.call in ("run_famabpe", "run_falinpe")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "mab" or "linear"
    k_arms: int
    dim: int | None
    sigma: float
    delta: float
    epsilon: float
    gaps: tuple[float, ...]
    per_gap: int  # instances generated per gap
    algos: tuple[Algo, ...]

    def pool_size(self, tiny: bool = False) -> int:
        """Instances of one pass: the groups a stream cycles through."""
        return 1 if tiny else len(self.gaps) * self.per_gap


# The tiny scale, which the oracle digests and the self-tests run, is one
# instance at the largest gap. Its linear runs use this noise level so that
# each stops within half a second.
TINY_LINEAR_SIGMA = 0.05


@dataclass(frozen=True)
class Run:
    family: str
    algo: Algo
    instance: object
    config: object  # RunConfig, or SyncConfig for synchronous runs


# The large linear scale (d=10, K=20) is left out: its runs take 5-9 s, so
# only a handful fit in a measurement, and its spread between seeds
# exceeded the bounds.
WORKLOADS = {
    w.name: w
    for w in (
        # Long horizons at 0.1-0.2 messages per pull: per-pull work dominates.
        Workload(
            "mab_long", "mab", 5, None, 1.0, 0.05, 0.0,
            gaps=(0.2, 0.3, 0.4, 0.5), per_gap=16,
            algos=(
                Algo("famabpe", "run_famabpe", 10),
                Algo("ugapec-sync", "run_synchronous", 10, episode_len=100),
            ),
        ),
        # gamma = 1/(2MK) keeps agents in the warm phase: every pull is a
        # message, so merge, stop check and 50-arm target selection dominate.
        Workload(
            "mab_wide", "mab", 50, None, 0.3, 0.05, 0.0,
            gaps=(0.3, 0.4, 0.5), per_gap=8,
            algos=(
                Algo("famabpe", "run_famabpe", 100),
                Algo("ugapec-single", "run_single_agent", 1),
            ),
        ),
        # About 0.3 messages per pull. Traced, per-download target selection
        # takes about half of the time and the per-pull hybrid trigger about
        # a quarter.
        Workload(
            "lin_long", "linear", 5, 5, 1.0, 0.05, 0.05,
            gaps=(0.5,), per_gap=3,
            algos=(
                Algo("falinpe-lp", "run_falinpe", 10, "lp"),
                Algo("falinpe-greedy", "run_falinpe", 10, "greedy"),
                Algo("lingape-sync", "run_synchronous", 10, episode_len=100),
            ),
        ),
    )
}


# The instance builders below draw the layout that gen_gap_instance_mab and
# gen_gap_instance_linear draw, except that the gaps to the best arm are
# fixed, spread evenly over [gap, 1]. A gap then names one sample
# complexity, and the spread between seeds comes from the arm order, the
# directions, and the reward and activation draws, not from how far the
# random arms happen to fall below the best one.


def _gaps(k_arms: int, gap: float) -> list[float]:
    return [gap + (1.0 - gap) * j / (k_arms - 2) for j in range(k_arms - 1)]


def mab_instance(fedpex, k_arms: int, gap: float, sigma: float, rng):
    best = float(rng.uniform(0.5, 1.0))
    order = [int(a) for a in rng.permutation(k_arms)]
    means = [0.0] * k_arms
    means[order[0]] = best
    for arm, g in zip(order[1:], _gaps(k_arms, gap)):
        means[arm] = best - g
    return fedpex.MabInstance(means=tuple(means), sigma=sigma)


def linear_instance(fedpex, dim: int, k_arms: int, gap: float, sigma: float, rng):
    """Unit-norm contexts: the best arm is theta, arm k has reward
    1 - gap_k along theta and the rest of its norm in a random direction
    orthogonal to theta."""
    import numpy as np

    theta = rng.standard_normal(dim)
    theta /= np.linalg.norm(theta)
    order = [int(a) for a in rng.permutation(k_arms)]
    contexts = np.empty((k_arms, dim))
    contexts[order[0]] = theta
    for arm, g in zip(order[1:], _gaps(k_arms, gap)):
        ortho = rng.standard_normal(dim)
        for _ in range(2):  # two projections leave a negligible theta part
            ortho -= (ortho @ theta) * theta
        reward = 1.0 - g
        contexts[arm] = reward * theta + np.sqrt(1.0 - reward * reward) * ortho / np.linalg.norm(ortho)
    return fedpex.LinearInstance(contexts=contexts, theta=theta, sigma=sigma)


def groups(fedpex, workload: Workload, seed: int, tiny: bool = False):
    """The endless stream of run groups of `workload`, generated from `seed`.

    A group is one instance run once by every algorithm of the workload,
    all with the same run seed. The stream cycles through the workload's
    instance pool, so that its first pool_size() groups are one pass, and
    draws a fresh run seed for every group: a later pass repeats the
    instances, not the runs.
    """
    sigma = TINY_LINEAR_SIGMA if tiny and workload.family == "linear" else workload.sigma
    rng = fedpex.make_rng(seed)
    pool = []
    for gap in (max(workload.gaps),) if tiny else workload.gaps:
        for _ in range(1 if tiny else workload.per_gap):
            if workload.family == "mab":
                pool.append(mab_instance(fedpex, workload.k_arms, gap, sigma, rng))
            else:
                pool.append(linear_instance(fedpex, workload.dim, workload.k_arms, gap, sigma, rng))
    for inst in itertools.cycle(pool):
        run_seed = int(rng.integers(2**31))
        group = []
        for algo in workload.algos:
            common = dict(
                n_agents=algo.n_agents,
                delta=workload.delta,
                epsilon=workload.epsilon,
                arm_select=algo.arm_select,
                seed=run_seed,
            )
            if algo.episode_len is None:
                config = fedpex.RunConfig(**common)
            else:
                config = fedpex.SyncConfig(**common, episode_len=algo.episode_len)
            group.append(Run(workload.family, algo, inst, config))
        yield group


def first_pass(fedpex, workload: Workload, seed: int, tiny: bool = False) -> list[list[Run]]:
    """The groups of the first pass of `workload` at `seed`."""
    return list(itertools.islice(groups(fedpex, workload, seed, tiny), workload.pool_size(tiny)))


def execute(fedpex, run: Run):
    """Run through the package attribute, so a tracer's wrapper is seen."""
    return getattr(fedpex, run.algo.call)(run.instance, run.config)


def check(fedpex, run: Run, result) -> str | None:
    """Why `result` is wrong for `run`, or None when every check holds."""
    if not result.terminated:
        return f"{run.algo.label}: did not terminate (tau={result.tau})"
    inst, cfg = run.instance, run.config
    if run.algo.episode_len is not None:
        if result.comm_cost * run.algo.episode_len != 2 * result.tau:
            return f"{run.algo.label}: comm_cost {result.comm_cost} != 2*tau/episode_len ({result.tau})"
    elif run.algo.event_triggered:
        if isinstance(inst, fedpex.MabInstance):
            res = cfg.resolved(inst.k_arms)
            bound = fedpex.mab_comm_bound(res.n_agents, res.gamma, result.tau)
        else:
            res = cfg.resolved(inst.k_arms, inst.sigma)
            bound = fedpex.linear_comm_bound(
                res.n_agents, res.gamma1, res.gamma2, res.ridge, inst.dim, result.tau
            )
        if result.comm_cost > bound:
            return f"{run.algo.label}: comm_cost {result.comm_cost} above its bound {bound:.3f}"
    return None


def digest(results) -> str:
    """sha256 of the ordered RunResult.to_json() lines."""
    text = "\n".join(r.to_json() for r in results)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
