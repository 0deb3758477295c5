"""State machines for the asynchronous federated MAB pure-exploration
algorithm: sampling rule, count-ratio upload trigger, server merge,
breaking-index stopping rule, and download synchronization.

An agent of either family is an AgentState: the server state it last
downloaded (held by reference; merges build new states and never write it),
the target derived from it, the integer trigger limit fixed at download and
the rewards of the target not yet uploaded, which it sends once it holds
more than trigger_limit of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(slots=True)
class AgentState:
    """An agent of either family between two downloads."""

    snapshot: object  # the downloaded server state, held by reference and never written
    current_target: int  # 1-based arm pulled until the next download
    trigger_limit: int  # the agent uploads once len(pending) exceeds it
    pending: list  # rewards of current_target not yet uploaded, in pull order
    target_q: float = 0.0  # linear family only: x^T cov^{-1} x of the target


@dataclass
class MabServerState:
    mean_est: np.ndarray
    counts: np.ndarray
    counts_total: int


def bonuses_mab(counts: np.ndarray, t_sum: int, delta: float, sigma: float, gamma_m: float) -> np.ndarray:
    """Confidence widths of every arm's mean estimate:

    sigma * sqrt( (2/t_k) * log( (4K/delta) * ((1+gamma_m) * t_sum)^2 ) )
    where t_k is the arm's count and t_sum the total count behind the
    estimates; gamma_m is the trigger parameter times the agent count.
    """
    n_arms = len(counts)
    arg = (4.0 * n_arms / delta) * ((1.0 + gamma_m) * t_sum) ** 2
    return sigma * np.sqrt((2.0 / counts) * math.log(arg))


def select_pair_mab(mean_est: np.ndarray, bonuses: np.ndarray) -> tuple[int, int]:
    """Empirical best arm i and most ambiguous challenger j (1-based).

    i maximizes the mean estimate; j maximizes estimated-gap-to-i plus the
    pair bonus. Ties go to the lowest arm index (np.argmax convention).
    """
    i = int(mean_est.argmax())
    # mean_est - mean_est[i] + bonuses[i] + bonuses, in that order, in place
    scores = mean_est - mean_est[i]
    scores += bonuses[i]
    scores += bonuses
    scores[i] = -np.inf
    j = int(scores.argmax())
    return i + 1, j + 1


def select_arm_mab(i: int, j: int, bonuses: np.ndarray) -> int:
    """The more uncertain of {i, j}; ties favor i."""
    return i if bonuses[i - 1] >= bonuses[j - 1] else j


def agent_target_mab(
    mean_est: np.ndarray, counts: np.ndarray, counts_total: int, delta: float, sigma: float, gamma_m: float
) -> int:
    """Arm an agent pulls under a frozen snapshot (composes the rules above)."""
    bon = bonuses_mab(counts, counts_total, delta, sigma, gamma_m)
    i, j = select_pair_mab(mean_est, bon)
    return select_arm_mab(i, j, bon)


def trigger_limit_mab(counts_total: int, gamma) -> int:
    """Largest pending count that does not trigger an upload.

    The trigger condition (C + n) > (1+gamma) C, with gamma = num/den
    exactly (floats convert exactly), is n*den > num*C, which for integer n
    is n > floor(num*C / den).
    """
    g = gamma if type(gamma) is Fraction else Fraction(gamma)
    return (g.numerator * counts_total) // g.denominator


def check_trigger_mab(agent: AgentState) -> bool:
    """True when pending local data exceeds the gamma fraction of the snapshot."""
    return len(agent.pending) > agent.trigger_limit


def server_merge_mab(server: MabServerState, arm: int, n: int, reward_sum: float) -> MabServerState:
    """Fold an agent's n pulls of `arm` with the given reward sum into a new
    server state; the old state's arrays are left as they are, and every
    other arm keeps its estimate bit-identical. An empty buffer changes
    nothing."""
    if n == 0:
        return server
    a = arm - 1
    mean = server.mean_est.copy()
    counts = server.counts.copy()
    c_old = int(counts[a])
    mean[a] = (float(mean[a]) * c_old + reward_sum) / (c_old + n)
    counts[a] = c_old + n
    return MabServerState(mean_est=mean, counts=counts, counts_total=server.counts_total + n)


def breaking_index(mean_est: np.ndarray, bonuses: np.ndarray) -> tuple[int, int, float]:
    """Candidate pair (i, j) and the stopping score B for the server state.

    B = gap_estimate(j, i) + bonus(i) + bonus(j); the run stops when B <= epsilon.
    """
    i, j = select_pair_mab(mean_est, bonuses)
    b = float(mean_est[j - 1] - mean_est[i - 1] + bonuses[i - 1] + bonuses[j - 1])
    return i, j, b


def download_mab(server: MabServerState, bonuses: np.ndarray, i: int, j: int, gamma_ratio) -> AgentState:
    """An agent's fresh state after downloading `server`: empty buffer,
    target and trigger limit fixed. `bonuses` and (i, j) are the stop
    check's for this same server state, so the target is the one
    agent_target_mab derives from the snapshot; gamma_ratio is gamma's
    numerator and denominator, from which the limit is trigger_limit_mab's."""
    num, den = gamma_ratio
    return AgentState(server, select_arm_mab(i, j, bonuses), (num * server.counts_total) // den, [])
