"""Environment instances, run configuration, result accounting, and the
randomness contract shared by every algorithm in the package.

Arms are 1-based in every public interface (instance JSON, results, CLI);
internal arrays are 0-based with conversion at the boundary.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

Rng = np.random.Generator

_NORM_TOL = 1e-9

# A run multiplies an estimate by a pull count, adds sums of up to 2^63 pulls
# and subtracts two estimates; means up to 2^-66 of the largest float (about
# 2.4e288) keep all of these finite, so B(t) can reach epsilon.
MAX_ABS_MEAN = 2.0**-66 * sys.float_info.max


class GenerationError(RuntimeError):
    """Instance generation could not satisfy its postconditions."""


def make_rng(seed: int) -> Rng:
    """Deterministic generator; equal seeds give bit-identical streams."""
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MabInstance:
    """Ground-truth multi-armed bandit environment.

    means[k-1] is the expected reward of arm k; rewards are observed with
    additive Normal(0, sigma^2) noise. The best arm must be a strict argmax.
    """

    means: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma", float(self.sigma))
        if len(means) < 2:
            raise ValueError("need at least 2 arms")
        if not all(math.isfinite(m) for m in means):
            raise ValueError("every mean must be finite")
        if max(map(abs, means)) > MAX_ABS_MEAN:
            raise ValueError(f"every mean must be at most {MAX_ABS_MEAN:.3g} in magnitude, or the estimates overflow")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        top = max(means)
        if sum(1 for m in means if m == top) != 1:
            raise ValueError("best arm must be a strict argmax")

    @property
    def k_arms(self) -> int:
        return len(self.means)

    def best_arm(self) -> int:
        return int(np.argmax(self.means)) + 1

    def gap(self, arm: int) -> float:
        """True gap mu(k*) - mu(arm)."""
        return self.means[self.best_arm() - 1] - self.means[arm - 1]

    def min_gap(self) -> float:
        star = self.best_arm()
        return min(self.gap(k) for k in range(1, self.k_arms + 1) if k != star)


@dataclass(frozen=True)
class LinearInstance:
    """Ground-truth linear bandit environment.

    Arm k has context contexts[k-1] in R^d with expected reward x_k . theta;
    all contexts and theta have Euclidean norm at most 1.
    """

    contexts: np.ndarray  # shape (K, d)
    theta: np.ndarray  # shape (d,)
    sigma: float

    def __post_init__(self):
        ctx = np.array(self.contexts, dtype=float)
        ctx.setflags(write=False)
        th = np.array(self.theta, dtype=float)
        th.setflags(write=False)
        object.__setattr__(self, "contexts", ctx)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "sigma", float(self.sigma))
        if ctx.ndim != 2 or ctx.shape[0] < 2:
            raise ValueError("need a (K, d) context matrix with K >= 2")
        if th.shape != (ctx.shape[1],):
            raise ValueError("theta dimension must match contexts")
        if not (np.isfinite(ctx).all() and np.isfinite(th).all()):
            raise ValueError("contexts and theta must be finite")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected below
            theta_norm, norms = np.linalg.norm(th), np.linalg.norm(ctx, axis=1)
        if theta_norm > 1 + _NORM_TOL:
            raise ValueError("theta norm must be <= 1")
        if np.any(norms > 1 + _NORM_TOL):
            raise ValueError("every context norm must be <= 1")
        rewards = ctx @ th
        top = rewards.max()
        if int(np.sum(rewards == top)) != 1:
            raise ValueError("best arm must be a strict argmax")

    @property
    def k_arms(self) -> int:
        return self.contexts.shape[0]

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]

    def rewards(self) -> np.ndarray:
        return self.contexts @ self.theta

    def best_arm(self) -> int:
        return int(np.argmax(self.rewards())) + 1

    def gap(self, arm: int) -> float:
        r = self.rewards()
        return float(r[self.best_arm() - 1] - r[arm - 1])

    def min_gap(self) -> float:
        star = self.best_arm()
        return min(self.gap(k) for k in range(1, self.k_arms + 1) if k != star)


Instance = MabInstance | LinearInstance


# ---------------------------------------------------------------------------
# Reward sampling
# ---------------------------------------------------------------------------


def sample_reward_mab(inst: MabInstance, arm: int, rng: Rng) -> float:
    """One reward draw mu(arm) + Normal(0, sigma^2). sigma=0 is exact."""
    if not 1 <= arm <= inst.k_arms:
        raise IndexError(f"arm {arm} out of range 1..{inst.k_arms}")
    return inst.means[arm - 1] + inst.sigma * rng.standard_normal()


def sample_reward_linear(inst: LinearInstance, arm: int, rng: Rng) -> float:
    """One reward draw x_arm . theta + Normal(0, sigma^2)."""
    if not 1 <= arm <= inst.k_arms:
        raise IndexError(f"arm {arm} out of range 1..{inst.k_arms}")
    mean = float(inst.contexts[arm - 1] @ inst.theta)
    return mean + inst.sigma * rng.standard_normal()


def arm_means_linear(inst: LinearInstance) -> list[float]:
    """Every arm's mean exactly as sample_reward_linear computes it (one dot
    product per row; `contexts @ theta` may round differently)."""
    return [float(x @ inst.theta) for x in inst.contexts]


# ---------------------------------------------------------------------------
# Instance generators (synthetic setup: optimal arm sampled uniformly, the
# rest placed below it so the minimum gap is guaranteed by construction)
# ---------------------------------------------------------------------------


def gen_gap_instance_mab(k_arms: int, gap: float, rng: Rng, sigma: float = 0.3) -> MabInstance:
    """MAB instance with a unique best arm and minimum gap >= gap."""
    if k_arms < 2:
        raise ValueError("k_arms must be >= 2")
    if not 0 < gap < 1:
        raise ValueError("gap must lie in (0, 1)")
    star = int(rng.integers(k_arms))
    mu_star = float(rng.uniform(gap, 1.0))
    means = [0.0] * k_arms
    means[star] = mu_star
    others = rng.uniform(0.0, mu_star - gap, size=k_arms - 1)
    j = 0
    for k in range(k_arms):
        if k != star:
            means[k] = float(others[j])
            j += 1
    return MabInstance(means=tuple(means), sigma=sigma)


def _unit_orthogonal(direction: np.ndarray, rng: Rng) -> np.ndarray:
    """Random unit vector orthogonal to `direction` (norm-1), exact to ~1e-32."""
    d = direction.shape[0]
    for _ in range(64):
        g = rng.standard_normal(d)
        # two projection passes keep the residual component negligible
        g = g - (g @ direction) * direction
        g = g - (g @ direction) * direction
        n = np.linalg.norm(g)
        if n > 1e-8:
            return g / n
    raise GenerationError("could not sample an orthogonal direction")


def gen_gap_instance_linear(
    dim: int, k_arms: int, gap: float, rng: Rng, sigma: float = 0.3, max_retries: int = 100
) -> LinearInstance:
    """Linear instance with unit-ball contexts spanning R^d and min gap >= gap."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if k_arms < max(dim, 2):
        raise ValueError("k_arms must be >= max(dim, 2) so the design spans R^d")
    if not 0 < gap < 1:
        raise ValueError("gap must lie in (0, 1)")
    for _ in range(max_retries):
        theta = rng.standard_normal(dim)
        theta = theta / np.linalg.norm(theta)
        star = int(rng.integers(k_arms))
        r_star = float(rng.uniform(gap, 1.0))
        rewards = np.empty(k_arms)
        rewards[:] = 0.0
        rewards[star] = r_star
        subs = rng.uniform(0.0, r_star - gap, size=k_arms - 1)
        j = 0
        for k in range(k_arms):
            if k != star:
                rewards[k] = subs[j]
                j += 1
        contexts = np.empty((k_arms, dim))
        for k in range(k_arms):
            r = rewards[k]
            x = r * theta
            if dim > 1:
                room = math.sqrt(max(0.0, 1.0 - r * r))
                x = x + float(rng.uniform(0.0, room)) * _unit_orthogonal(theta, rng)
            contexts[k] = x
        if np.linalg.matrix_rank(contexts) != dim:
            continue
        actual = contexts @ theta
        star_reward = actual[star]
        ok = all(star_reward - actual[k] >= gap for k in range(k_arms) if k != star)
        if not ok:
            continue
        return LinearInstance(contexts=contexts, theta=theta, sigma=sigma)
    raise GenerationError(f"no feasible instance after {max_retries} retries (gap={gap})")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    # float -> Fraction is exact (every float is rational); defaults are
    # constructed as exact small fractions so trigger comparisons are integral
    return x if type(x) is Fraction else Fraction(x)


def ridge_cap(sigma: float, gamma1, n_agents: int, delta: float) -> float:
    """Largest ridge parameter admitted by the linear confidence analysis."""
    g1 = float(gamma1)
    coef = math.sqrt(1.0 + g1 * n_agents) + math.sqrt(2.0 * g1) * n_agents
    return sigma * sigma * coef * coef * math.log(2.0 / delta)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulated run.

    gamma / gamma1 / gamma2 / ridge left as None are resolved against the
    instance at run start: gamma = 1/(2MK), gamma1 = 1/M^2, gamma2 = 1/(2MK),
    ridge = min(1, cap) where cap is `ridge_cap`.
    """

    delta: float = 0.05
    epsilon: float = 0.0
    n_agents: int = 1
    gamma: Fraction | float | None = None
    gamma1: Fraction | float | None = None
    gamma2: Fraction | float | None = None
    ridge: float | None = None
    arm_select: str = "lp"
    greedy_sense: str = "min"
    activation: str = "uniform-random"
    seed: int = 0
    max_rounds: int = 10_000_000

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 <= self.epsilon < 1:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        for name in ("gamma", "gamma1", "gamma2", "ridge"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.arm_select not in ("lp", "greedy"):
            raise ValueError("arm_select must be 'lp' or 'greedy'")
        if self.greedy_sense not in ("min", "max"):
            raise ValueError("greedy_sense must be 'min' or 'max'")
        if self.activation not in ("uniform-random", "round-robin"):
            raise ValueError("activation must be 'uniform-random' or 'round-robin'")
        if self.activation == "uniform-random" and self.n_agents >= 1 << 32:
            raise ValueError("uniform-random activation needs fewer than 2^32 agents")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolved(self, k_arms: int, sigma: float | None = None) -> "RunConfig":
        """Fill default trigger/ridge parameters for a K-arm instance.

        Defaults are recomputed from the current M and K every time, so a
        config reused across instances always gets the matching values.
        """
        if self.max_rounds <= k_arms:
            raise ValueError("max_rounds must exceed the arm count")
        m = self.n_agents
        gamma = _as_fraction(self.gamma) if self.gamma is not None else Fraction(1, 2 * m * k_arms)
        gamma1 = _as_fraction(self.gamma1) if self.gamma1 is not None else Fraction(1, m * m)
        gamma2 = _as_fraction(self.gamma2) if self.gamma2 is not None else Fraction(1, 2 * m * k_arms)
        ridge = self.ridge
        if sigma is not None:
            cap = ridge_cap(sigma, gamma1, m, self.delta)
            if ridge is None:
                ridge = min(1.0, cap) if cap > 0 else 1.0
            elif cap > 0 and ridge > cap:
                warnings.warn(
                    f"ridge={ridge} exceeds the confidence-analysis cap {cap:.6g}; "
                    "the stopping guarantee no longer applies",
                    stacklevel=2,
                )
        elif ridge is None:
            ridge = 1.0
        return replace(self, gamma=gamma, gamma1=gamma1, gamma2=gamma2, ridge=ridge)


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: identification result plus cost accounting.

    tau counts every environment interaction including the K initialization
    pulls; comm_cost counts upload/download events from round K+1 onward,
    the initialization messages are reported separately in init_comm.
    """

    best_arm_est: int
    best_arm_true: int
    correct: bool
    tau: int
    comm_cost: int
    init_comm: int
    switch_cost: int
    pulls_per_arm: tuple[int, ...]
    terminated: bool
    n_downloads: int = 0
    lp_fallbacks: int = 0

    def __post_init__(self):
        if sum(self.pulls_per_arm) != self.tau:
            raise ValueError("pulls_per_arm must sum to tau")
        if self.switch_cost > self.comm_cost:
            raise ValueError("switch_cost cannot exceed comm_cost")

    def to_dict(self) -> dict:
        d = {
            "best_arm_est": self.best_arm_est,
            "best_arm_true": self.best_arm_true,
            "correct": self.correct,
            "tau": self.tau,
            "comm_cost": self.comm_cost,
            "init_comm": self.init_comm,
            "switch_cost": self.switch_cost,
            "pulls_per_arm": list(self.pulls_per_arm),
            "terminated": self.terminated,
            "n_downloads": self.n_downloads,
            "lp_fallbacks": self.lp_fallbacks,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Instance JSON (exact field names; numbers written with 17 significant
# digits so serialization is lossless and byte-reproducible)
# ---------------------------------------------------------------------------


def _num(x: float) -> str:
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text  # "-0" parses as the integer 0


def instance_to_json(inst: Instance) -> str:
    if isinstance(inst, MabInstance):
        means = ",".join(_num(m) for m in inst.means)
        return f'{{"type":"mab","means":[{means}],"sigma":{_num(inst.sigma)}}}'
    rows = ",".join("[" + ",".join(_num(v) for v in row) + "]" for row in inst.contexts)
    theta = ",".join(_num(v) for v in inst.theta)
    return (
        f'{{"type":"linear","dim":{inst.dim},"contexts":[{rows}],'
        f'"theta":[{theta}],"sigma":{_num(inst.sigma)}}}'
    )


def _is_numbers(value, depth: int) -> bool:
    """Whether a parsed JSON value is a number (depth 0) or an array of
    depth-1 values; booleans and numeric strings are not numbers."""
    if depth == 0:
        return type(value) in (int, float)
    return type(value) is list and all(_is_numbers(v, depth - 1) for v in value)


def instance_from_json(text: str) -> Instance:
    """Parse an instance; a missing field or a malformed value is a ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    kind = obj.get("type")
    if kind not in ("mab", "linear"):
        raise ValueError(f"unknown instance type {kind!r}")
    depths = {"means": 1, "sigma": 0} if kind == "mab" else {"dim": 0, "contexts": 2, "theta": 1, "sigma": 0}
    for field, depth in depths.items():
        if field not in obj:
            raise ValueError(f"{kind} instance is missing field {field!r}")
        if not _is_numbers(obj[field], depth):
            shape = ("a number", "an array of numbers", "an array of number arrays")[depth]
            raise ValueError(f"{kind} instance field {field!r} must be {shape}")
    try:
        if kind == "mab":
            return MabInstance(means=tuple(obj["means"]), sigma=obj["sigma"])
        contexts = np.array(obj["contexts"], dtype=float)
        if contexts.ndim != 2:
            raise ValueError("contexts must be a (K, d) matrix")
        if contexts.shape[1] != obj["dim"]:
            raise ValueError("dim field does not match context width")
        return LinearInstance(contexts=contexts, theta=np.array(obj["theta"], dtype=float), sigma=obj["sigma"])
    except OverflowError as exc:
        raise ValueError(f"malformed {kind} instance: {exc}") from None


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
