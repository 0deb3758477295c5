"""Single-agent and synchronous baselines: cost identities, equivalences,
and noiseless sanity comparisons."""

import numpy as np
import pytest

from fedpex.baselines import SyncConfig, run_single_agent, run_synchronous
from fedpex.core import (
    MabInstance,
    RunConfig,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    make_rng,
)
from fedpex.runner import run_famabpe


class TestSingleAgent:
    def test_noiseless_identifies_best(self):
        inst = MabInstance(means=(0.9, 0.4, 0.1), sigma=0.0)
        res = run_single_agent(inst, RunConfig(epsilon=0.3, seed=0))
        assert res.terminated and res.correct and res.best_arm_est == 1

    def test_tau_minimal_among_noiseless_configs(self):
        # with zero noise and shared seeds, instant sharing cannot be slower
        inst = MabInstance(means=(0.8, 0.3), sigma=0.0)
        single = run_single_agent(inst, RunConfig(epsilon=0.2, seed=1))
        fed = run_famabpe(inst, RunConfig(epsilon=0.2, seed=1, n_agents=5))
        sync = run_synchronous(inst, SyncConfig(epsilon=0.2, seed=1, n_agents=5, episode_len=10))
        assert single.tau <= fed.tau
        assert single.tau <= sync.tau

    def test_server_mirrors_pulls_every_round(self):
        # forced communication flushes local buffers each round, so counts
        # at stop equal true pulls except the final unmatched upload round
        inst = gen_gap_instance_mab(3, 0.4, make_rng(2))
        res = run_single_agent(inst, RunConfig(seed=3, epsilon=0.1))
        assert res.terminated
        assert res.comm_cost == 2 * res.n_downloads + 1

    def test_deterministic(self):
        inst = gen_gap_instance_mab(4, 0.3, make_rng(4))
        a = run_single_agent(inst, RunConfig(seed=5, epsilon=0.05))
        b = run_single_agent(inst, RunConfig(seed=5, epsilon=0.05))
        assert a.to_json() == b.to_json()

    def test_linear_single_agent(self):
        inst = gen_gap_instance_linear(2, 3, 0.4, make_rng(6))
        res = run_single_agent(inst, RunConfig(seed=7, epsilon=0.1))
        assert res.terminated and res.correct


class TestSynchronous:
    def test_comm_identity_mab(self):
        # stopping happens only at episode boundaries, so the exact identity
        # comm = 2 M (global rounds / episode_len) = 2 tau / episode_len holds
        inst = gen_gap_instance_mab(5, 0.3, make_rng(10))
        cfg = SyncConfig(n_agents=10, episode_len=100, seed=0, epsilon=0.0)
        res = run_synchronous(inst, cfg)
        assert res.terminated
        assert res.tau % (10 * 100) == 0
        assert res.comm_cost * 50 == res.tau  # tau/50 with these parameters

    def test_comm_identity_other_episode(self):
        inst = gen_gap_instance_mab(4, 0.4, make_rng(11))
        cfg = SyncConfig(n_agents=3, episode_len=7, seed=1, epsilon=0.0)
        res = run_synchronous(inst, cfg)
        assert res.terminated
        assert res.comm_cost * cfg.episode_len == 2 * res.tau

    def test_comm_identity_linear(self):
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(12))
        cfg = SyncConfig(n_agents=10, episode_len=100, seed=2, epsilon=0.05)
        res = run_synchronous(inst, cfg)
        assert res.terminated
        assert res.comm_cost * 50 == res.tau

    def test_degenerate_schedule_matches_single_agent(self):
        # episode_len=1 with one agent shares after every pull: identical
        # reward stream, identical pulls, identical stopping time
        inst = gen_gap_instance_mab(5, 0.25, make_rng(13))
        single = run_single_agent(inst, RunConfig(seed=3, epsilon=0.0))
        sync = run_synchronous(inst, SyncConfig(n_agents=1, episode_len=1, seed=3, epsilon=0.0))
        assert sync.tau == single.tau
        assert sync.pulls_per_arm == single.pulls_per_arm
        assert sync.best_arm_est == single.best_arm_est

    def test_agents_share_frozen_target_within_episode(self):
        # after the warm-up sync all agents hold the same statistics, so the
        # per-arm pull counts in every full episode are multiples of M
        inst = gen_gap_instance_mab(3, 0.4, make_rng(14))
        res = run_synchronous(inst, SyncConfig(n_agents=4, episode_len=5, seed=4, epsilon=0.0))
        assert res.terminated
        post_warmup = np.array(res.pulls_per_arm, dtype=int).copy()
        # warm-up global round pulls arms round-robin: arms 1..3 then 1
        post_warmup[0] -= 2
        post_warmup[1] -= 1
        post_warmup[2] -= 1
        assert np.all(post_warmup % 4 == 0)

    def test_correct_on_noisy_instances(self):
        for seed in range(3):
            inst = gen_gap_instance_mab(5, 0.4, make_rng(20 + seed))
            res = run_synchronous(inst, SyncConfig(n_agents=5, episode_len=20, seed=seed))
            assert res.terminated and res.correct

    def test_max_rounds_cap(self):
        inst = MabInstance(means=(0.52, 0.48), sigma=0.3)
        res = run_synchronous(
            inst, SyncConfig(n_agents=4, episode_len=10, seed=5, max_rounds=1000)
        )
        assert not res.terminated and res.tau <= 1000

    def test_round_cap_inside_the_warm_up_is_refused(self):
        # ten agents on five arms warm up for one global round of ten pulls
        for inst in (gen_gap_instance_mab(5, 0.4, make_rng(30)), gen_gap_instance_linear(3, 5, 0.4, make_rng(31))):
            with pytest.raises(ValueError, match="warm-up"):
                run_synchronous(inst, SyncConfig(n_agents=10, max_rounds=9))
            res = run_synchronous(inst, SyncConfig(n_agents=10, max_rounds=10))
            assert res.tau == 10 and sum(res.pulls_per_arm) == 10 and not res.terminated

    def test_episode_len_validation(self):
        with pytest.raises(ValueError):
            SyncConfig(episode_len=0)
