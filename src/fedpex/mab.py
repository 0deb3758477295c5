"""State machines for the asynchronous federated MAB pure-exploration
algorithm: sampling rule, count-ratio upload trigger, server merge,
breaking-index stopping rule, and download synchronization.

An agent of either family is an AgentState: the server state it last
downloaded (held by reference; merges build new states and never write it),
the target derived from it and the integer trigger limit fixed at download.
A download is a value that any number of agents can hold. The driver keeps
each agent's unsent rewards, which the agent uploads once it holds more
than trigger_limit of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(slots=True)
class AgentState:
    """What a download fixes for an agent of either family until its next one."""

    snapshot: object  # the downloaded server state, held by reference and never written
    current_target: int  # 1-based arm pulled until the next download
    trigger_limit: int  # the agent uploads once it holds more rewards than this
    target_q: float = 0.0  # linear family only: x^T cov^{-1} x of the target


@dataclass
class MabServerState:
    mean_est: np.ndarray
    counts: np.ndarray
    counts_total: int
    # 2.0 / counts, carried so that no stop check divides; inf at a zero count
    two_over_counts: np.ndarray


def width_constants(n_arms: int, delta: float, sigma: float, gamma_m: float) -> tuple:
    """The values of bonuses_mab that are fixed for a run: 4K/delta, 1+gamma_m,
    sigma for every arm, and a 0-d scratch array for the log term."""
    return 4.0 * n_arms / delta, 1.0 + gamma_m, np.full(n_arms, float(sigma)), np.empty(())


def bonuses_mab(two_over_counts: np.ndarray, t_sum: int, constants: tuple) -> np.ndarray:
    """Confidence widths of every arm's mean estimate:

    sigma * sqrt( (2/t_k) * log( (4K/delta) * ((1+gamma_m) * t_sum)^2 ) )
    where t_k is the arm's count and t_sum the total count behind the
    estimates; gamma_m is the trigger parameter times the agent count, and
    `constants` are width_constants'. The formula's operations run in its
    order, in place and with array operands: at these sizes a ufunc costs
    its dispatch, which is lowest so.
    """
    scale, growth, sigmas, scratch = constants
    scratch[()] = math.log(scale * (growth * t_sum) ** 2)
    bon = np.multiply(two_over_counts, scratch)
    np.sqrt(bon, out=bon)
    return np.multiply(sigmas, bon, out=bon)


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
    """Arm an agent pulls under a frozen snapshot: the slow composition of the
    width formula from the counts and the rules above, which the audit checks
    the drivers' targets against."""
    arg = (4.0 * len(counts) / delta) * ((1.0 + gamma_m) * counts_total) ** 2
    bon = sigma * np.sqrt((2.0 / counts) * math.log(arg))
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


def check_trigger_mab(agent: AgentState, n: int) -> bool:
    """True when n unsent pulls exceed the gamma fraction of the snapshot."""
    return n > agent.trigger_limit


def server_merge_mab(server: MabServerState, arm: int, n: int, reward_sum: float) -> MabServerState:
    """Fold an agent's n pulls of `arm` with the given reward sum into a new
    server state; the old state's arrays are left as they are, and every
    other arm keeps its estimate bit-identical. n is positive: nobody
    uploads an empty buffer."""
    a = arm - 1
    mean = server.mean_est.copy()
    counts = server.counts.copy()
    two_over_counts = server.two_over_counts.copy()
    c_old = counts.item(a)
    c_new = c_old + n
    mean[a] = (mean.item(a) * c_old + reward_sum) / c_new
    counts[a] = c_new
    two_over_counts[a] = 2.0 / c_new  # numpy's 2.0 / counts rounds the same
    return MabServerState(mean, counts, server.counts_total + n, two_over_counts)


def breaking_index(mean_est: np.ndarray, bonuses: np.ndarray) -> tuple[int, int, float]:
    """Candidate pair (i, j) and the stopping score B for the server state.

    B = gap_estimate(j, i) + bonus(i) + bonus(j); the run stops when B <= epsilon.
    This is select_pair_mab with 0-d views as the offsets, and B is j's score,
    which is the same sum in the same order.
    """
    i = int(mean_est.argmax())
    scores = np.subtract(mean_est, mean_est[i, ...])
    np.add(scores, bonuses[i, ...], out=scores)
    np.add(scores, bonuses, out=scores)
    scores[i] = -math.inf
    j = int(scores.argmax())
    return i + 1, j + 1, scores.item(j)


def download_mab(server: MabServerState, bonuses: np.ndarray, i: int, j: int, gamma_ratio) -> AgentState:
    """An agent's fresh state after downloading `server`: target and
    trigger limit fixed. `bonuses` and (i, j) are the stop
    check's for this same server state, so the target is the one
    agent_target_mab derives from the snapshot; gamma_ratio is gamma's
    numerator and denominator, from which the limit is trigger_limit_mab's.
    The target is select_arm_mab's, compared in Python floats."""
    num, den = gamma_ratio
    target = i if bonuses.item(i - 1) >= bonuses.item(j - 1) else j
    return AgentState(server, target, (num * server.counts_total) // den)
