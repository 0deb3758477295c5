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
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

Rng = np.random.Generator

_NORM_TOL = 1e-9
_MAX_RETRIES = 100  # the instances gen_gap_instance_linear draws before it gives up

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


class _Arms:
    """What both instance types derive from `means`: means[k-1] is the
    expected reward of arm k, the value every reward draw of it adds its
    Normal(0, sigma^2) noise to. The best arm must be a strict argmax."""

    means: tuple[float, ...]
    sigma: float

    def _settle(self, means: tuple[float, ...]) -> None:
        """Fix `means` and a float sigma, refusing a bad sigma or a tied best arm."""
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma", float(self.sigma))
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if means.count(max(means)) != 1:
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
        top = max(self.means)
        return min(top - m for m in self.means if m != top)


@dataclass(frozen=True)
class MabInstance(_Arms):
    """Ground-truth multi-armed bandit environment with the given means."""

    means: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        if len(means) < 2:
            raise ValueError("need at least 2 arms")
        if not all(math.isfinite(m) for m in means):
            raise ValueError("every mean must be finite")
        if max(map(abs, means)) > MAX_ABS_MEAN:
            raise ValueError(f"every mean must be at most {MAX_ABS_MEAN:.3g} in magnitude, or the estimates overflow")
        self._settle(means)


@dataclass(frozen=True)
class LinearInstance(_Arms):
    """Ground-truth linear bandit environment.

    Arm k has context contexts[k-1] in R^d and mean float(x_k @ theta), one
    dot product per row (a matrix-vector product may round differently); all
    contexts and theta have Euclidean norm at most 1.
    """

    contexts: np.ndarray  # shape (K, d)
    theta: np.ndarray  # shape (d,)
    sigma: float
    means: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ctx = np.array(self.contexts, dtype=float)
        ctx.setflags(write=False)
        th = np.array(self.theta, dtype=float)
        th.setflags(write=False)
        object.__setattr__(self, "contexts", ctx)
        object.__setattr__(self, "theta", th)
        if ctx.ndim != 2 or ctx.shape[0] < 2:
            raise ValueError("need a (K, d) context matrix with K >= 2")
        if th.shape != (ctx.shape[1],):
            raise ValueError("theta dimension must match contexts")
        if not (np.isfinite(ctx).all() and np.isfinite(th).all()):
            raise ValueError("contexts and theta must be finite")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected below
            theta_norm, norms = np.linalg.norm(th), np.linalg.norm(ctx, axis=1)
        if theta_norm > 1 + _NORM_TOL:
            raise ValueError("theta norm must be <= 1")
        if np.any(norms > 1 + _NORM_TOL):
            raise ValueError("every context norm must be <= 1")
        self._settle(tuple(float(x @ th) for x in ctx))

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]


Instance = MabInstance | LinearInstance


# ---------------------------------------------------------------------------
# Reward sampling
# ---------------------------------------------------------------------------


def sample_reward_mab(inst: Instance, arm: int, rng: Rng) -> float:
    """One reward draw means[arm-1] + Normal(0, sigma^2). sigma=0 is exact."""
    if not 1 <= arm <= inst.k_arms:
        raise IndexError(f"arm {arm} out of range 1..{inst.k_arms}")
    return inst.means[arm - 1] + inst.sigma * rng.standard_normal()


def sample_reward_linear(inst: LinearInstance, arm: int, rng: Rng) -> float:
    """One reward draw x_arm . theta + Normal(0, sigma^2), that is sample_reward_mab's."""
    return sample_reward_mab(inst, arm, rng)


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
    others = iter(rng.uniform(0.0, mu_star - gap, size=k_arms - 1).tolist())
    means = tuple(mu_star if k == star else next(others) for k in range(k_arms))
    return MabInstance(means=means, sigma=sigma)


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


def gen_gap_instance_linear(dim: int, k_arms: int, gap: float, rng: Rng, sigma: float = 0.3) -> LinearInstance:
    """Linear instance with unit-ball contexts spanning R^d and min gap >= gap."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if k_arms < max(dim, 2):
        raise ValueError("k_arms must be >= max(dim, 2) so the design spans R^d")
    if not 0 < gap < 1:
        raise ValueError("gap must lie in (0, 1)")
    for _ in range(_MAX_RETRIES):
        theta = rng.standard_normal(dim)
        theta = theta / np.linalg.norm(theta)
        star = int(rng.integers(k_arms))
        r_star = float(rng.uniform(gap, 1.0))
        subs = iter(rng.uniform(0.0, r_star - gap, size=k_arms - 1).tolist())
        rewards = np.array([r_star if k == star else next(subs) for k in range(k_arms)])
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
        inst = LinearInstance(contexts=contexts, theta=theta, sigma=sigma)
        if inst.best_arm() == star + 1 and inst.min_gap() >= gap:
            return inst
    raise GenerationError(f"no feasible instance after {_MAX_RETRIES} retries (gap={gap})")


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
        if self.activation not in ("uniform-random", "round-robin"):
            raise ValueError("activation must be 'uniform-random' or 'round-robin'")
        if self.activation == "uniform-random" and self.n_agents >= 1 << 32:
            raise ValueError("uniform-random activation needs fewer than 2^32 agents")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolved(self, k_arms: int, sigma: float | None = None, means: tuple | None = None) -> "RunConfig":
        """Fill default trigger/ridge parameters for a K-arm instance.

        Defaults are recomputed from the current M and K every time, so a
        config reused across instances always gets the matching values.
        sigma is the instance's noise: given alone, a linear instance's
        (whose means lie within [-1, 1]); a MAB instance gives its means
        with it. A config whose stop checks' log argument overflows within
        max_rounds samples is refused, and so is a sigma under which a
        reward sum of max_rounds pulls or a MAB stop check's score could.
        """
        return self._resolved(k_arms, sigma, means, draws=True)

    def _resolved(self, k_arms: int, sigma: float | None, means: tuple | None, draws: bool) -> "RunConfig":
        """`resolved`, whose checks on reward noise apply only if `draws`:
        a config that draws no reward still reads sigma for a linear ridge.
        The ridge-cap warning names the line that called the caller."""
        if self.max_rounds <= k_arms:
            raise ValueError("max_rounds must exceed the arm count")
        m = self.n_agents
        linear = sigma is not None and means is None
        gamma = _as_fraction(self.gamma) if self.gamma is not None else Fraction(1, 2 * m * k_arms)
        gamma1 = _as_fraction(self.gamma1) if self.gamma1 is not None else Fraction(1, m * m)
        gamma2 = _as_fraction(self.gamma2) if self.gamma2 is not None else Fraction(1, 2 * m * k_arms)
        # the ridge cap binds linear instances only; a default ridge never exceeds it
        cap = ridge_cap(sigma, gamma1, m, self.delta) if linear else 0.0
        ridge = self.ridge
        if ridge is None:
            ridge = min(1.0, cap) if cap > 0 else 1.0
        # the stop checks' log argument, in their order of operations, at the
        # most samples a run can hold (pull counts are int64); it grows with them
        t = min(self.max_rounds, 2**63)
        try:
            if linear:
                arg = 2.0 / self.delta * (1.0 + ((1.0 + float(gamma2) * m) * t) / (min(float(gamma1), 1.0) * ridge))
            else:
                arg = 4.0 * k_arms / self.delta * ((1.0 + float(gamma) * m) * t) ** 2
        except (OverflowError, ZeroDivisionError):
            arg = math.inf
        if not arg < math.inf:
            raise ValueError(
                "the confidence widths overflow within max_rounds samples: delta, the ridge or a gamma is too extreme"
            )
        if draws and sigma is not None:
            # numpy's normals stay below 14 in magnitude, so every reward lies
            # within |mean| + 16 sigma; a MAB score adds the difference of two
            # estimates to two widths, the widest at one pull and t samples
            reach = (1.0 if linear else max(map(abs, means))) + 16.0 * sigma
            width = 0.0 if linear else sigma * math.sqrt(2.0 * math.log(arg))
            if not (reach * t < math.inf and 2.0 * (reach + width) < math.inf):
                raise ValueError("sigma is too large: a reward sum of max_rounds pulls or a confidence width overflows")
        if cap > 0 and ridge > cap:
            warnings.warn(
                f"ridge={ridge} exceeds the confidence-analysis cap {cap:.6g}; "
                "the stopping guarantee no longer applies",
                stacklevel=3,
            )
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
        return {**vars(self), "pulls_per_arm": list(self.pulls_per_arm)}

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
    try:
        obj = json.loads(text)
    except RecursionError:  # arrays nested beyond the parser's depth
        raise ValueError("instance JSON nests too deeply") from None
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
