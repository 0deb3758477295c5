"""State machines for the asynchronous federated MAB pure-exploration
algorithm: sampling rule, count-ratio upload trigger, server merge,
breaking-index stopping rule, and download synchronization.

An agent of either family is an AgentState: the server state it last
downloaded (held by reference; merges build new states and never write it),
the target derived from it and the integer trigger limit fixed at download.
A download is a value that any number of agents can hold. The driver keeps
each agent's count of unsent pulls and their running reward sum, and the
agent uploads both once the count exceeds trigger_limit. The trigger's
gamma is passed as its exact ratio (num, den); forced communication is (0, 1).

A server state of at most SCALAR_MAX_ARMS arms holds tuples of Python
numbers, and the merge, the stop check and the download run on it in Python
floats; a wider one holds numpy arrays. Both paths take numpy's operations
in numpy's order, so they give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class AgentState:
    """What a download fixes for an agent of either family until its next one."""

    snapshot: object  # the downloaded server state, held by reference and never written
    current_target: int  # 1-based arm pulled until the next download
    trigger_limit: int  # the agent uploads once it holds more rewards than this
    target_q: float = 0.0  # linear family only: x^T cov^{-1} x of the target


# An upload's merge, stop check and download cost less in Python floats
# than through numpy's per-call dispatch up to 18 arms, and more from 19 on
# (BENCH_29.json's table); the Python cost grows with K, numpy's hardly.
SCALAR_MAX_ARMS = 18


@dataclass
class MabServerState:
    """Tuples of Python floats and ints up to SCALAR_MAX_ARMS arms, which no
    holder can write; numpy arrays above."""

    mean_est: tuple | np.ndarray
    counts: tuple | np.ndarray
    counts_total: int
    # 2.0 / counts, carried so that no stop check divides; inf at a zero count
    two_over_counts: tuple | np.ndarray


def width_constants(n_arms: int, delta: float, sigma: float, gamma_m: float) -> tuple:
    """The values of bonuses_mab that are fixed for a run: 4K/delta, 1+gamma_m,
    sigma, sigma for every arm, and a 0-d scratch array for the log term."""
    sigma = float(sigma)
    return 4.0 * n_arms / delta, 1.0 + gamma_m, sigma, np.full(n_arms, sigma), np.empty(())


def bonuses_mab(two_over_counts: tuple | np.ndarray, t_sum: int, constants: tuple) -> list | np.ndarray:
    """Confidence widths of every arm's mean estimate:

    sigma * sqrt( (2/t_k) * log( (4K/delta) * ((1+gamma_m) * t_sum)^2 ) )
    where t_k is the arm's count and t_sum the total count behind the
    estimates; gamma_m is the trigger parameter times the agent count, and
    `constants` are width_constants'. The formula's operations run in its
    order: over a tuple in Python floats, giving a list; over an array in
    place and with array operands, as at these sizes a ufunc costs its
    dispatch, which is lowest so.
    """
    scale, growth, sigma, sigmas, scratch = constants
    log = math.log(scale * (growth * t_sum) ** 2)
    if type(two_over_counts) is tuple:
        return [sigma * math.sqrt(c * log) for c in two_over_counts]
    scratch[()] = log
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


def trigger_limit_mab(counts_total: int, ratio: tuple[int, int]) -> int:
    """Largest unsent count n at which check_trigger_mab stays quiet: with
    gamma = num/den, n*den > num*C holds for integer n exactly when
    n > floor(num*C / den)."""
    num, den = ratio
    return num * counts_total // den


def check_trigger_mab(agent: AgentState, n: int, ratio: tuple[int, int]) -> bool:
    """The count rule: n unsent pulls fire when C + n > (1+gamma) C for the
    snapshot's total C, as (C + n) den > (den + num) C; the stored limit is not read."""
    num, den = ratio
    total = agent.snapshot.counts_total
    return (total + n) * den > (den + num) * total


def server_merge_mab(server: MabServerState, arm: int, n: int, reward_sum: float) -> MabServerState:
    """Fold an agent's n pulls of `arm` with the given reward sum into a new
    server state of the same representation; the old state's fields are left
    as they are, and every other arm keeps its estimate bit-identical. n is
    positive: every upload holds at least one pull. Both representations compute
    the new values alike, in Python numbers."""
    a = arm - 1
    if type(server.counts) is tuple:
        mean, counts, two_over_counts = list(server.mean_est), list(server.counts), list(server.two_over_counts)
        c_old = counts[a]
        c_new = c_old + n
        mean[a] = (mean[a] * c_old + reward_sum) / c_new
        counts[a] = c_new
        two_over_counts[a] = 2.0 / c_new
        return MabServerState(tuple(mean), tuple(counts), server.counts_total + n, tuple(two_over_counts))
    mean = server.mean_est.copy()
    counts = server.counts.copy()
    two_over_counts = server.two_over_counts.copy()
    c_old = counts.item(a)
    c_new = c_old + n
    mean[a] = (mean.item(a) * c_old + reward_sum) / c_new
    counts[a] = c_new
    two_over_counts[a] = 2.0 / c_new  # numpy's 2.0 / counts rounds the same
    return MabServerState(mean, counts, server.counts_total + n, two_over_counts)


def breaking_index(mean_est: tuple | np.ndarray, bonuses: list | np.ndarray) -> tuple[int, int, float]:
    """Candidate pair (i, j) and the stopping score B for the server state.

    B = gap_estimate(j, i) + bonus(i) + bonus(j); the run stops when B <= epsilon.
    This is select_pair_mab with 0-d views as the offsets, and B is j's score,
    which is the same sum in the same order. Over a tuple each score is
    summed in Python floats in that order, and each argmax is `max` then
    `index`, which like np.argmax names the first of tied maxima.
    """
    if type(mean_est) is tuple:
        i = mean_est.index(max(mean_est))
        top, wide = mean_est[i], bonuses[i]
        scores = [m - top + wide + b for m, b in zip(mean_est, bonuses)]
        scores[i] = -math.inf
        b_value = max(scores)
        return i + 1, scores.index(b_value) + 1, b_value
    i = int(mean_est.argmax())
    scores = np.subtract(mean_est, mean_est[i, ...])
    np.add(scores, bonuses[i, ...], out=scores)
    np.add(scores, bonuses, out=scores)
    scores[i] = -math.inf
    j = int(scores.argmax())
    return i + 1, j + 1, scores.item(j)


def download_mab(
    server: MabServerState, bonuses: list | np.ndarray, i: int, j: int, ratio: tuple[int, int]
) -> AgentState:
    """An agent's fresh state after downloading `server`. `bonuses` and
    (i, j) are the stop check's for this same server state, so the target is
    agent_target_mab's (select_arm_mab's comparison, written out so that the
    audit's rule does not share it); the limit is trigger_limit_mab's."""
    target = i if bonuses[i - 1] >= bonuses[j - 1] else j
    return AgentState(server, target, trigger_limit_mab(server.counts_total, ratio))
