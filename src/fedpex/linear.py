"""State machines for the asynchronous federated linear pure-exploration
algorithm: regularized least squares, hybrid determinant+count trigger,
ellipsoid bonuses, LP/greedy informative-arm selection, and stopping.

An agent's snapshot is the (cov, resp, counts) triple last downloaded from
the server; local buffers accumulate the outer products, responses and
counts of pulls not yet uploaded. Snapshots freeze between downloads, so
the informative-arm choice and the target's quadratic form x^T V^{-1} x
(which puts the determinant trigger in closed form) happen once per
download, from the pair and the Cholesky factor of the server covariance
that the stop check of the same server state computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .design_lp import InfeasibleTargetError, ZeroTargetError, informative_arm_lp, solve_l1


@dataclass
class LinAgentState:
    cov: np.ndarray  # ridge*I + downloaded outer products, d x d SPD, frozen until the next download
    resp: np.ndarray  # downloaded response vector, length d
    counts: np.ndarray  # downloaded per-arm counts, int64
    pending_cov: np.ndarray  # outer products not yet uploaded: n x x^T for n pulls of the target x
    pending_resp: np.ndarray
    pending_counts: np.ndarray
    current_target: int  # 1-based arm pinned until the next download
    counts_total: int
    pending_total: int
    target_context: np.ndarray  # context x of current_target
    target_outer: np.ndarray  # x x^T, added to pending_cov on every pull
    target_q: float  # x^T cov^{-1} x; det(cov + n x x^T) = det(cov) (1 + n target_q)


@dataclass
class LinServerState:
    cov: np.ndarray
    resp: np.ndarray
    counts: np.ndarray
    counts_total: int


class StopCheck(NamedTuple):
    """A server state's pair (i, j) (1-based), stopping score B and Cholesky
    factor of its covariance, which a download from that state reuses."""

    i: int
    j: int
    b: float
    lower: np.ndarray


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


def pair_widths(lower: np.ndarray, contexts: np.ndarray, i: int) -> np.ndarray:
    """||x_i - x_k||_{V^{-1}} for every arm k (0-based i), V = lower lower^T,
    from one triangular solve against the d x K difference matrix."""
    z = linalg.forward_sub(lower, (contexts[i] - contexts).T)
    return np.sqrt(np.einsum("ij,ij->j", z, z))


def _pair(rewards: np.ndarray, contexts: np.ndarray, lower: np.ndarray, c: float) -> tuple[int, int, float]:
    """0-based empirical best arm i, challenger j and j's score."""
    i = int(np.argmax(rewards))
    scores = rewards - rewards[i] + pair_widths(lower, contexts, i) * c
    scores[i] = -np.inf
    j = int(np.argmax(scores))
    return i, j, float(scores[j])


def select_pair_linear(
    theta_hat: np.ndarray, contexts: np.ndarray, cov: np.ndarray, c: float, lower: np.ndarray | None = None
) -> tuple[int, int]:
    """Empirical best arm i and most ambiguous challenger j (1-based).

    j maximizes (x_k - x_i).theta_hat + ||x_i - x_k||_{cov^{-1}} * c over
    k != i; ties break to the lowest index. `lower` is the Cholesky factor
    of cov when the caller already has it.
    """
    if lower is None:
        lower = linalg.cholesky(cov)
    i, j, _score = _pair(contexts @ theta_hat, contexts, lower, c)
    return i + 1, j + 1


def select_arm_greedy(
    cov: np.ndarray, contexts: np.ndarray, y: np.ndarray, sense: str = "min", lower: np.ndarray | None = None
) -> int:
    """Arm whose extra observation most shrinks y^T (cov + x x^T)^{-1} y.

    Every arm is scored at once by Sherman-Morrison,
    y^T V^{-1} y - (x^T V^{-1} y)^2 / (1 + x^T V^{-1} x), from one triangular
    solve against [y, X^T]. sense="min" picks the uncertainty-minimizing arm;
    sense="max" keeps the literal maximizing form for comparison runs. Ties
    break to the lowest index; y = 0 returns arm 1. `lower` is the Cholesky
    factor of cov when the caller already has it.
    """
    if lower is None:
        lower = linalg.cholesky(cov)
    z = linalg.forward_sub(lower, np.column_stack((y, contexts.T)))
    zy, zx = z[:, 0], z[:, 1:]
    vals = zy @ zy - (zy @ zx) ** 2 / (1.0 + np.einsum("ij,ij->j", zx, zx))
    best = int(np.argmin(vals)) if sense == "min" else int(np.argmax(vals))
    return best + 1


def check_trigger_hybrid(agent: LinAgentState, gamma1, gamma2) -> bool:
    """True when the pending data moves the determinant or count ratio too far.

    Fires iff the count condition sum(counts+pending) > (1+gamma2) sum(counts)
    holds (in exact integer arithmetic as in the MAB trigger), OR
    logdet(cov + pending_cov) > log(1+gamma1) + logdet(cov). The target is
    frozen between downloads, so pending_cov = n x x^T and, by the matrix
    determinant lemma, the second condition is n x^T cov^{-1} x > gamma1.
    """
    g2 = gamma2 if type(gamma2) is Fraction else Fraction(gamma2)
    lhs = (agent.counts_total + agent.pending_total) * g2.denominator
    rhs = (g2.denominator + g2.numerator) * agent.counts_total
    if lhs > rhs:
        return True
    return agent.pending_total * agent.target_q > float(gamma1)


def server_merge_linear(
    server: LinServerState, pending_cov: np.ndarray, pending_resp: np.ndarray, pending_counts: np.ndarray
) -> LinServerState:
    """Fold one agent's local matrices/vector/counts into the server state."""
    return LinServerState(
        cov=server.cov + pending_cov,
        resp=server.resp + pending_resp,
        counts=server.counts + pending_counts,
        counts_total=server.counts_total + int(pending_counts.sum()),
    )


def stopping_linear(
    server: LinServerState,
    contexts: np.ndarray,
    dim: int,
    delta: float,
    sigma: float,
    ridge: float,
    gamma1,
    gamma2,
    n_agents: int,
    c_override: float | None = None,
) -> StopCheck:
    """Server-side pair (i, j), the stopping score B and the factor of cov.

    B = (x_j - x_i).theta_ser + ||x_i - x_j||_{cov^{-1}} * C_ser; the run
    stops when B <= epsilon. c_override replaces the radius scalar (test hook).
    """
    lower = linalg.cholesky(server.cov)
    theta = linalg.solve_factored(lower, server.resp)
    c = c_override
    if c is None:
        c = c_scalar(server.counts_total, dim, delta, sigma, ridge, gamma1, gamma2, n_agents)
    i, j, b = _pair(contexts @ theta, contexts, lower, c)
    return StopCheck(i + 1, j + 1, b, lower)


def choose_informative_arm(
    agent_cov: np.ndarray,
    agent_counts: np.ndarray,
    contexts: np.ndarray,
    i: int,
    j: int,
    arm_select: str,
    greedy_sense: str,
    lower: np.ndarray | None = None,
    lp_memo: dict | None = None,
) -> tuple[int, bool]:
    """Arm to pull for the pair (i, j); returns (arm, fell_back_to_greedy).

    The LP selector falls back to the greedy rule when the direction is zero
    (duplicate contexts) or outside the span; both are impossible for
    generated instances but guarded so runs stay alive. The LP depends only
    on the contexts and (i, j), so a run passes one `lp_memo` dict that keeps
    each pair's solution (None for a fallback) for the rest of the run.
    """
    y = contexts[i - 1] - contexts[j - 1]
    if arm_select == "lp":
        if lp_memo is None:
            lp_memo = {}
        if (i, j) not in lp_memo:
            try:
                lp_memo[(i, j)] = solve_l1(contexts, y)
            except (ZeroTargetError, InfeasibleTargetError):
                lp_memo[(i, j)] = None
        sol = lp_memo[(i, j)]
        if sol is not None:
            return informative_arm_lp(agent_counts, sol.p), False
        return select_arm_greedy(agent_cov, contexts, y, greedy_sense, lower), True
    return select_arm_greedy(agent_cov, contexts, y, greedy_sense, lower), False


def select_target(
    server: LinServerState,
    contexts: np.ndarray,
    stop: StopCheck,
    arm_select: str,
    greedy_sense: str,
    lp_memo: dict | None = None,
) -> tuple[int, bool, float]:
    """Target arm for a server state: (arm, fell_back_to_greedy, x^T cov^{-1} x).

    `stop` is the state's stop check; its pair and Cholesky factor serve the
    greedy scores and the target's quadratic form.
    """
    i, j, _b, lower = stop
    target, fallback = choose_informative_arm(
        server.cov, server.counts, contexts, i, j, arm_select, greedy_sense, lower=lower, lp_memo=lp_memo
    )
    return target, fallback, linalg.quad_form_inv_factored(lower, contexts[target - 1])


def _snapshot(server: LinServerState, contexts: np.ndarray, target: int, target_q: float) -> LinAgentState:
    dim = server.cov.shape[0]
    x = contexts[target - 1]
    return LinAgentState(
        cov=server.cov.copy(),
        resp=server.resp.copy(),
        counts=server.counts.copy(),
        pending_cov=np.zeros((dim, dim)),
        pending_resp=np.zeros(dim),
        pending_counts=np.zeros(len(server.counts), dtype=np.int64),
        current_target=target,
        counts_total=server.counts_total,
        pending_total=0,
        target_context=x,
        target_outer=np.outer(x, x),
        target_q=target_q,
    )


def download_linear(
    server: LinServerState,
    contexts: np.ndarray,
    stop: StopCheck,
    arm_select: str,
    greedy_sense: str,
    lp_memo: dict | None = None,
) -> tuple[LinAgentState, bool]:
    """An agent's fresh snapshot of `server`, whose stop check is `stop`:
    buffers cleared, target recomputed from the stop check's pair."""
    target, fallback, q = select_target(server, contexts, stop, arm_select, greedy_sense, lp_memo)
    return _snapshot(server, contexts, target, q), fallback


def init_states_linear(
    contexts: np.ndarray,
    init_rewards: np.ndarray,
    ridge: float,
    n_agents: int,
    dim: int,
    delta: float,
    sigma: float,
    gamma1,
    gamma2,
    arm_select: str,
    greedy_sense: str,
    lp_memo: dict | None = None,
) -> tuple[LinServerState, list[LinAgentState], int]:
    """Post-initialization states after pulling each arm once.

    Every agent downloads the same server state, so the target is chosen
    once and each agent gets its own copy of the snapshot. Returns (server,
    agents, lp_fallbacks_during_seeding), one fallback per agent.
    """
    k = len(init_rewards)
    cov = ridge * np.eye(dim)
    resp = np.zeros(dim)
    for a in range(k):
        x = contexts[a]
        cov += np.outer(x, x)
        resp += init_rewards[a] * x
    server = LinServerState(cov=cov, resp=resp, counts=np.ones(k, dtype=np.int64), counts_total=k)
    stop = stopping_linear(server, contexts, dim, delta, sigma, ridge, gamma1, gamma2, n_agents)
    target, fallback, q = select_target(server, contexts, stop, arm_select, greedy_sense, lp_memo)
    agents = [_snapshot(server, contexts, target, q) for _ in range(n_agents)]
    return server, agents, n_agents * int(fallback)
