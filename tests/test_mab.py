"""MAB state-machine operations: bonus values, pair/arm selection, the
count-ratio trigger, server merges, the breaking index, and downloads."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fedpex.mab import (
    AgentState,
    MabServerState,
    agent_target_mab,
    bonuses_mab,
    breaking_index,
    check_trigger_mab,
    download_mab,
    select_arm_mab,
    select_pair_mab,
    server_merge_mab,
    trigger_limit_mab,
    width_constants,
)


def make_agent(counts, gamma, target=1):
    """An agent that downloaded a snapshot with these counts; the trigger
    takes the number of pulls of its target since then."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    snapshot = server_state(np.zeros(len(counts)), counts)
    return AgentState(snapshot, target, trigger_limit_mab(total, gamma))


def server_state(mean_est, counts):
    """A server state with these estimates and counts, carrying 2/counts."""
    counts = np.asarray(counts, dtype=np.int64)
    return MabServerState(np.asarray(mean_est, dtype=float), counts, int(counts.sum()), 2.0 / counts)


def bonuses(counts, t_sum, delta, sigma, gamma_m):
    """bonuses_mab as a run computes it, from the carried 2/counts and the
    run constants of (delta, sigma, gamma_m)."""
    counts = np.asarray(counts, dtype=np.int64)
    return bonuses_mab(2.0 / counts, t_sum, width_constants(len(counts), delta, sigma, gamma_m))


def closed_form(t_k, t_sum, n_arms, delta, sigma, gamma_m):
    """sigma * sqrt( (2/t_k) * log( (4K/delta) * ((1+gamma_m) * t_sum)^2 ) )"""
    return sigma * math.sqrt((2.0 / t_k) * math.log((4.0 * n_arms / delta) * ((1.0 + gamma_m) * t_sum) ** 2))


class TestBonus:
    def test_reference_value(self):
        # frozen from independent high-precision evaluation of the closed form:
        # argument = 400 * (1.1*5)^2 = 12100, ln = 9.40096, *2, sqrt, *0.3
        v = bonuses(np.ones(5, dtype=np.int64), 5, 0.05, 0.3, 0.1)
        assert v[0] == pytest.approx(1.3008354744875579, abs=1e-12)
        assert v[0] == pytest.approx(1.3009, abs=1e-3)

    def test_quartering_count_halves_width(self):
        lo, hi = bonuses(np.array([4, 1, 5, 5, 5]), 20, 0.05, 0.3, 0.1)[:2]
        assert lo == pytest.approx(0.5 * hi, rel=1e-12)

    def test_decreasing_in_delta(self):
        counts = np.array([3, 3, 8, 8, 8])
        values = [bonuses(counts, 30, d, 0.3, 0.1)[0] for d in (0.01, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_count_rejected(self):
        # the audit's formula divides by the counts; a stop check reads the
        # carried 2/counts, inf at a zero count, which gives an infinite width
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            agent_target_mab(np.zeros(5), np.array([0, 1, 1, 1, 2]), 5, 0.05, 0.3, 0.1)
        two_over_counts = np.array([math.inf, 2.0, 2.0, 2.0, 1.0])
        assert bonuses_mab(two_over_counts, 5, width_constants(5, 0.05, 0.3, 0.1))[0] == math.inf

    def test_vectorized_matches_scalar(self):
        counts = np.array([1, 4, 9], dtype=np.int64)
        vec = bonuses(counts, 14, 0.05, 0.3, 0.1)
        for k in range(3):
            assert vec[k] == pytest.approx(closed_form(int(counts[k]), 14, 3, 0.05, 0.3, 0.1))

    def test_strictly_positive(self):
        assert bonuses(np.array([1000, 4000]), 5000, 0.5, 0.1, 0.01)[0] > 0.0


class TestSelectPair:
    def test_two_arms(self):
        assert select_pair_mab(np.array([1.0, 0.0]), np.array([0.1, 0.1])) == (1, 2)

    def test_bonus_inflates_challenger(self):
        i, j = select_pair_mab(np.array([1.0, 0.8, 0.0]), np.array([0.0, 0.0, 0.5]))
        assert (i, j) == (1, 2)  # scores: -0.2 vs -0.5

    def test_tie_breaks_low_index(self):
        assert select_pair_mab(np.array([0.5, 0.5]), np.array([0.0, 0.0])) == (1, 2)


class TestSelectArm:
    def test_larger_bonus_wins(self):
        assert select_arm_mab(1, 2, np.array([0.3, 0.1])) == 1
        assert select_arm_mab(1, 2, np.array([0.1, 0.3])) == 2

    def test_tie_prefers_i(self):
        assert select_arm_mab(2, 1, np.array([0.2, 0.2])) == 2


class TestTrigger:
    def test_fires_above_threshold(self):
        agent = make_agent([5, 5], 0.01)
        assert check_trigger_mab(agent, 1)  # 11 > 10.1

    def test_quiet_below_threshold(self):
        agent = make_agent([100, 100], 0.01)
        assert not check_trigger_mab(agent, 1)  # 201 <= 202

    def test_strict_inequality_at_zero(self):
        agent = make_agent([10, 10], 0.5)
        assert not check_trigger_mab(agent, 0)

    def test_exact_boundary_is_quiet(self):
        # pending exactly gamma * counts must not fire (strict >)
        agent = make_agent([50, 50], Fraction(1, 100))
        assert agent.trigger_limit == 1
        assert not check_trigger_mab(agent, 1)
        assert check_trigger_mab(agent, 2)


class TestServerMerge:
    def test_consistent_mean(self):
        server = server_state([0.5], [2])
        out = server_merge_mab(server, 1, 2, 1.0)
        assert out.mean_est[0] == pytest.approx(0.5) and out.counts[0] == 4

    def test_dilution(self):
        server = server_state([1.0], [1])
        out = server_merge_mab(server, 1, 1, 0.0)
        assert out.mean_est[0] == pytest.approx(0.5) and out.counts[0] == 2

    def test_untouched_arm_bit_identical(self):
        mean = np.array([1 / 3, 0.77])
        server = server_state(mean.copy(), [3, 5])
        out = server_merge_mab(server, 1, 1, 0.9)
        assert out.mean_est[1] == mean[1]
        assert out.counts_total == 9
        # the merged state is new; a snapshot of the old one stays as it was
        assert np.array_equal(server.mean_est, mean) and list(server.counts) == [3, 5]


class TestBreakingIndex:
    def test_negative_when_separated(self):
        i, j, b = breaking_index(np.array([1.0, 0.0]), np.array([0.1, 0.1]))
        assert (i, j) == (1, 2)
        assert b == pytest.approx(-0.8)

    def test_positive_when_tied(self):
        _i, _j, b = breaking_index(np.array([0.5, 0.5]), np.array([0.2, 0.2]))
        assert b == pytest.approx(0.4)

    def test_zero_bonus_limit_stops(self):
        _i, _j, b = breaking_index(np.array([0.9, 0.4, 0.1]), np.zeros(3))
        assert b == pytest.approx(-0.5)
        assert b < 0.0  # any epsilon >= 0 stops


class TestDownload:
    @staticmethod
    def download(server, gamma=Fraction(1, 10)):
        """download_mab as the driver calls it, with the stop check's bonuses and pair."""
        bon = bonuses(server.counts, server.counts_total, 0.05, 0.3, 0.1)
        i, j, _b = breaking_index(server.mean_est, bon)
        return download_mab(server, bon, i, j, gamma.as_integer_ratio())

    def test_holds_server_and_no_buffer(self):
        server = server_state([0.9, 0.1], [7, 4])
        out = self.download(server)
        assert out.snapshot is server  # held by reference, not copied
        assert out.trigger_limit == 1  # floor(11 / 10)
        assert not hasattr(out, "pending")  # the driver keeps the unsent rewards

    def test_idempotent_target(self):
        server = server_state([0.9, 0.1], [7, 4])
        once = self.download(server)
        again = server_state(once.snapshot.mean_est, once.snapshot.counts)
        twice = self.download(again)
        assert once.current_target == twice.current_target

    def test_target_matches_selection_rules(self):
        server = server_state([0.9, 0.1, 0.5], [9, 2, 5])
        out = self.download(server)
        want = agent_target_mab(server.mean_est, server.counts, 16, 0.05, 0.3, 0.1)
        assert out.current_target == want
