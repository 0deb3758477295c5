"""State machines for the asynchronous federated linear pure-exploration
algorithm: regularized least squares, hybrid determinant+count trigger,
ellipsoid bonuses, LP/greedy informative-arm selection, and stopping.

An agent is mab.AgentState: its downloaded server state (held by reference;
merges allocate new arrays), frozen target x and q = x^T cov^{-1} x, so the
hybrid trigger at n unsent rewards of x is the integer test
n > trigger_limit, the limit fixed at download.
Each server state is whitened once: its stop check factors cov = L L^T and
solves Z = L^{-1} [X^T | resp], and the rewards, pair widths, greedy scores
and the target's x^T cov^{-1} x (the closed-form determinant trigger) are
all read from Z. So B can differ in its last bits from an evaluation by
separate solves (see the README). The values fixed for a run (each arm's
x x^T, the trigger parameters) are resolved once, in runner.LinearFamily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .design_lp import InfeasibleTargetError, ZeroTargetError, design_support, least_sampled, solve_l1
from .mab import AgentState, check_trigger_mab, trigger_limit_mab


@dataclass
class LinServerState:
    cov: np.ndarray
    resp: np.ndarray
    counts: np.ndarray
    counts_total: int


class StopCheck(NamedTuple):
    """A server state's pair (i, j) (1-based), stopping score B and whitened
    contexts zx = L^{-1} X^T (cov = L L^T), which its downloads reuse."""

    i: int
    j: int
    b: float
    zx: np.ndarray


def rls_estimate(cov: np.ndarray, resp: np.ndarray) -> np.ndarray:
    """Ridge least-squares parameter estimate cov^{-1} resp."""
    return linalg.solve(cov, resp)


def c_scalar(
    t_sum: int,
    dim: int,
    delta: float,
    sigma: float,
    ridge: float,
    gamma1,
    gamma2,
    n_agents: int,
) -> float:
    """Confidence-ellipsoid radius scalar for a state with t_sum samples.

    sqrt(ridge) + (sqrt(2 g1) M + sqrt(1 + g1 M)) *
        sigma * sqrt( d * log( (2/delta) * (1 + (1 + g2 M) t_sum / (min(g1,1) ridge)) ) )

    Strictly increasing in t_sum; collapses to sqrt(ridge) at sigma = 0.
    """
    g1 = float(gamma1)
    g2 = float(gamma2)
    coef = math.sqrt(2.0 * g1) * n_agents + math.sqrt(1.0 + g1 * n_agents)
    inner = 1.0 + ((1.0 + g2 * n_agents) * t_sum) / (min(g1, 1.0) * ridge)
    return math.sqrt(ridge) + coef * sigma * math.sqrt(dim * math.log((2.0 / delta) * inner))


def pair_widths(zx: np.ndarray, i: int) -> np.ndarray:
    """||x_i - x_k||_{V^{-1}} for every arm k (0-based i), as the norms of the
    column differences of the whitened contexts zx = L^{-1} X^T, V = L L^T."""
    diff = zx[:, i, None] - zx
    diff *= diff
    widths = np.add.reduce(diff, 0)  # diff.sum(0) without its wrapper
    return np.sqrt(widths, out=widths)


def _pair(rewards: np.ndarray, zx: np.ndarray, c: float) -> tuple[int, int, float]:
    """0-based empirical best arm i, challenger j and j's score; `rewards`
    becomes the scores rewards - rewards[i] + widths * c, with -inf at i."""
    i = int(rewards.argmax())
    widths = pair_widths(zx, i)
    widths *= c
    rewards -= rewards[i]
    rewards += widths
    rewards[i] = -np.inf
    j = int(rewards.argmax())
    return i, j, float(rewards[j])


def select_pair_linear(theta_hat: np.ndarray, contexts: np.ndarray, cov: np.ndarray, c: float) -> tuple[int, int]:
    """Empirical best arm i and most ambiguous challenger j (1-based).

    j maximizes (x_k - x_i).theta_hat + ||x_i - x_k||_{cov^{-1}} * c over
    k != i; ties break to the lowest index.
    """
    zx = linalg.forward_sub(linalg.cholesky(cov), contexts.T)
    i, j, _score = _pair(contexts @ theta_hat, zx, c)
    return i + 1, j + 1


def select_arm_greedy(zy: np.ndarray, zx: np.ndarray) -> int:
    """Arm whose extra observation most shrinks y^T (V + x x^T)^{-1} y.

    Every arm is scored at once by Sherman-Morrison,
    y^T V^{-1} y - (x^T V^{-1} y)^2 / (1 + x^T V^{-1} x), from the whitened
    zy = L^{-1} y and zx = L^{-1} X^T (V = L L^T); the uncertainty-minimizing
    arm wins. Ties break to the lowest index; y = 0 returns arm 1.
    """
    vals = zy @ zy - (zy @ zx) ** 2 / (1.0 + (zx * zx).sum(0))
    return int(vals.argmin()) + 1


def check_trigger_hybrid(agent: AgentState, n: int, g1: float, ratio: tuple[int, int]) -> bool:
    """True when n unsent pulls move the determinant or count ratio too far.

    With n unsent pulls of the target and a snapshot of C pulls and
    covariance cov, fires iff check_trigger_mab's count rule at gamma2's
    ratio (num, den) fires, OR logdet(cov + n x x^T) > log(1+gamma1) +
    logdet(cov), which by the matrix determinant lemma is
    n x^T cov^{-1} x = n target_q > g1 = float(gamma1).
    """
    return check_trigger_mab(agent, n, ratio) or n * agent.target_q > g1


def trigger_limit_linear(counts_total: int, q: float, g1: float, ratio: tuple[int, int]) -> int:
    """Largest unsent count n that fires neither rule of check_trigger_hybrid
    for a downloaded total C and target_q = q. The count rule is quiet up to
    trigger_limit_mab's limit. Since fl(n*q) does not decrease as n grows,
    the determinant rule is quiet up to the largest n with fl(n*q) <= g1,
    found from int(g1/q) by steps of one. The count limit alone applies
    when g1/q is infinite (q = 0 included) or beyond it, or beyond 2^52
    pulls, which no run reaches."""
    limit = trigger_limit_mab(counts_total, ratio)
    det = g1 / q if q > 0.0 else math.inf
    # det >= limit + 2 leaves fl(limit*q) <= g1 through the rounding of both
    if det < min(limit, 1 << 52) + 2:
        n = int(det)
        while n * q > g1:
            n -= 1
        while (n + 1) * q <= g1:
            n += 1
        limit = min(limit, n)
    return limit


def server_merge_linear(
    server: LinServerState, arm: int, n: int, reward_sum: float, outers: np.ndarray, contexts: np.ndarray
) -> LinServerState:
    """A new server state with n pulls of `arm`, context x, whose rewards sum
    to `reward_sum`: n x x^T added to cov (`outers` holds each arm's x x^T),
    reward_sum x to resp and n to the arm's count."""
    a = arm - 1
    counts = server.counts.copy()
    counts[a] += n
    cov, resp = server.cov + n * outers[a], server.resp + reward_sum * contexts[a]
    return LinServerState(cov, resp, counts, server.counts_total + n)


def stopping_linear(server: LinServerState, rhs: np.ndarray, c: float) -> StopCheck:
    """Server-side pair (i, j), the stopping score B and the whitened contexts.

    B = (x_j - x_i).theta_ser + ||x_i - x_j||_{cov^{-1}} * c, where c is the
    state's radius scalar (c_scalar); the run stops when B <= epsilon. `rhs`
    is a (K+1) x d buffer holding the contexts in its first K rows; resp is
    written into its last, and with Z = L^{-1} rhs^T, X theta_ser is
    Z_x^T z_r. cov must be bitwise symmetric, as every merge leaves it.
    """
    rhs[-1] = server.resp
    z = linalg.forward_sub(linalg.cholesky_symmetric(server.cov), rhs.T)
    zx = z[:, :-1]
    i, j, b = _pair(z[:, -1] @ zx, zx, c)
    return StopCheck(i + 1, j + 1, b, zx)


def choose_informative_arm(
    counts: np.ndarray,
    contexts: np.ndarray,
    i: int,
    j: int,
    arm_select: str,
    zx: np.ndarray,
    lp_memo: dict,
) -> tuple[int, bool]:
    """Arm to pull for the pair (i, j) at per-arm `counts`, from the whitened
    contexts zx of the held state; returns (arm, fell_back_to_greedy).

    The LP selector falls back to the greedy rule when the direction is zero
    (duplicate contexts) or outside the span; both are impossible for
    generated instances but guarded so runs stay alive. The LP depends only
    on the contexts and (i, j), so a run passes one `lp_memo` dict that keeps
    each pair's design support on it (None for a fallback) for the rest of
    the run; the arm is informative_arm_lp's.
    """
    if arm_select == "lp":
        design = lp_memo.get((i, j), False)
        if design is False:
            design = lp_memo[(i, j)] = _design(contexts, i, j)
        if design is not None:
            return least_sampled(counts.tolist(), design) + 1, False
    return select_arm_greedy(zx[:, i - 1] - zx[:, j - 1], zx), arm_select == "lp"


def _design(contexts: np.ndarray, i: int, j: int) -> list[tuple[int, float]] | None:
    """The design support of the minimum-L1 design of x_i - x_j, or None where the LP is undefined."""
    try:
        return design_support(solve_l1(contexts, contexts[i - 1] - contexts[j - 1]).p)
    except (ZeroTargetError, InfeasibleTargetError):
        return None


def download_linear(server: LinServerState, stop: StopCheck, run) -> tuple[AgentState, bool]:
    """An agent's fresh snapshot of `server`, whose stop check is `stop`:
    trigger limit fixed, and the target (and whether it fell
    back to greedy) with its x^T cov^{-1} x read from the stop check's pair
    and whitened contexts without a solve. `run` holds the run's resolved
    values (runner.LinearFamily): contexts, g1 = float(gamma1), limit_ratio
    (gamma2's (num, den), or (0, 1) under forced communication), arm_select
    and lp_memo."""
    i, j, _b, zx = stop
    target, fallback = choose_informative_arm(
        server.counts, run.contexts, i, j, run.arm_select, zx=zx, lp_memo=run.lp_memo
    )
    z = zx[:, target - 1]
    q = float(z @ z)
    limit = trigger_limit_linear(server.counts_total, q, run.g1, run.limit_ratio)
    return AgentState(server, target, limit, q), fallback
