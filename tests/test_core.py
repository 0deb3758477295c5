"""Instances, generators, reward sampling, config resolution, and JSON I/O."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fedpex.baselines import SyncConfig, run_single_agent, run_synchronous
from fedpex.runner import run_falinpe, run_famabpe
from fedpex.core import (
    MAX_ABS_MEAN,
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    instance_from_json,
    instance_to_json,
    make_rng,
    ridge_cap,
    sample_reward_linear,
    sample_reward_mab,
)


class TestSampling:
    def test_mab_zero_noise_exact(self):
        inst = MabInstance(means=(0.7, 0.2), sigma=0.0)
        rng = make_rng(0)
        assert sample_reward_mab(inst, 1, rng) == 0.7
        assert sample_reward_mab(inst, 2, rng) == 0.2

    def test_mab_out_of_range(self):
        inst = MabInstance(means=(0.7, 0.2), sigma=0.0)
        with pytest.raises(IndexError):
            sample_reward_mab(inst, 0, make_rng(0))
        with pytest.raises(IndexError):
            sample_reward_mab(inst, 3, make_rng(0))

    def test_mab_empirical_mean(self):
        # CLT: mean of 1e5 draws lands within 0.7 +- 0.005 (3 sigma/sqrt(n) ~ 0.0028)
        inst = MabInstance(means=(0.7, 0.2), sigma=0.3)
        rng = make_rng(123)
        draws = [sample_reward_mab(inst, 1, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.7) < 0.005

    def test_linear_zero_noise_exact(self):
        inst = LinearInstance(
            contexts=np.array([[1.0, 0.0], [0.0, 1.0]]), theta=np.array([0.5, 0.0]), sigma=0.0
        )
        rng = make_rng(0)
        assert sample_reward_linear(inst, 1, rng) == 0.5
        assert sample_reward_linear(inst, 2, rng) == 0.0

    def test_linear_empirical_mean(self):
        inst = LinearInstance(
            contexts=np.array([[1.0, 0.0], [0.0, 1.0]]), theta=np.array([0.5, 0.0]), sigma=0.3
        )
        rng = make_rng(321)
        draws = [sample_reward_linear(inst, 1, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.5) < 0.005


class TestOneMeanRule:
    """Every reader of a linear arm's mean reads `means`, one dot product per
    row, the value the reward draws add their noise to."""

    def test_means_are_per_row_dot_products(self):
        for inst in [gen_gap_instance_linear(d, k, 0.3, make_rng(s)) for d, k, s in ((5, 5, 0), (10, 20, 1))]:
            for x, mean in zip(inst.contexts, inst.means):
                assert type(mean) is float
                assert np.float64(mean).tobytes() == np.float64(float(x @ inst.theta)).tobytes()

    def test_noiseless_draws_are_the_means(self):
        given = LinearInstance(contexts=np.array([[0.6, 0.3], [0.1, -0.7], [0.5, 0.5]]), theta=np.array([0.3, 0.9]),
                               sigma=0.0)
        generated = gen_gap_instance_linear(10, 20, 0.3, make_rng(1), sigma=0.0)
        for inst in (given, generated):
            rng = make_rng(4)
            assert [sample_reward_linear(inst, a, rng) for a in range(1, inst.k_arms + 1)] == list(inst.means)

    def test_gap_and_best_arm_read_means(self):
        inst = gen_gap_instance_linear(10, 20, 0.3, make_rng(1))
        means, product = np.array(inst.means), inst.contexts @ inst.theta
        star = int(np.argmax(means)) + 1
        # the two rules round apart in some arm's gap on this instance
        assert np.any(means[star - 1] - means != product[star - 1] - product)
        assert inst.best_arm() == star
        gaps = [inst.gap(a) for a in range(1, inst.k_arms + 1)]
        assert gaps == (means[star - 1] - means).tolist()
        assert inst.min_gap() == min(g for a, g in enumerate(gaps, 1) if a != star)


class TestInstanceValidation:
    def test_mab_needs_strict_argmax(self):
        with pytest.raises(ValueError):
            MabInstance(means=(0.5, 0.5), sigma=0.1)

    def test_mab_needs_two_arms(self):
        with pytest.raises(ValueError):
            MabInstance(means=(0.5,), sigma=0.1)

    def test_linear_norm_limits(self):
        with pytest.raises(ValueError):
            LinearInstance(
                contexts=np.array([[2.0, 0.0], [0.0, 1.0]]), theta=np.array([1.0, 0.0]), sigma=0.1
            )
        with pytest.raises(ValueError):
            LinearInstance(
                contexts=np.array([[1.0, 0.0], [0.0, 1.0]]), theta=np.array([2.0, 0.0]), sigma=0.1
            )

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_mab_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MabInstance(means=(0.5, 0.2), sigma=bad)
        with pytest.raises(ValueError, match="finite"):
            MabInstance(means=(0.5, bad), sigma=0.1)

    @pytest.mark.parametrize("means", [(1e308, 0.9e308, 0.0), (1e308, -1e308), (0.0, -3e288)])
    def test_mab_rejects_means_whose_estimates_overflow(self, means):
        # these ran to the round cap: mean * count and the gaps overflowed, so B was NaN
        with pytest.raises(ValueError, match="overflow"):
            MabInstance(means=means, sigma=1.0)

    def test_mab_accepts_large_means_and_sigma(self):
        # means at the limit stop at once; a large sigma only makes a run long
        top = MAX_ABS_MEAN
        assert run_famabpe(MabInstance(means=(top, 0.9 * top, -top), sigma=1.0), RunConfig()).correct
        assert not run_famabpe(MabInstance(means=(1.0, 0.0), sigma=1e300), RunConfig(max_rounds=2_000)).terminated

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_linear_rejects_non_finite(self, bad):
        ctx = np.array([[1.0, 0.0], [0.0, 0.5]])
        theta = np.array([0.8, 0.1])
        with pytest.raises(ValueError, match="finite"):
            LinearInstance(contexts=ctx, theta=theta, sigma=bad)
        for which in ("contexts", "theta"):
            arrays = {"contexts": ctx.copy(), "theta": theta.copy()}
            arrays[which][-1] = bad
            with pytest.raises(ValueError, match="finite"):
                LinearInstance(**arrays, sigma=0.1)


class TestGenerators:
    def test_mab_gap_guarantee(self):
        inst = gen_gap_instance_mab(2, 0.5, make_rng(3))
        assert inst.min_gap() >= 0.5

    def test_mab_unique_best(self):
        for seed in range(20):
            inst = gen_gap_instance_mab(5, 0.1, make_rng(seed))
            top = max(inst.means)
            assert sum(1 for m in inst.means if m == top) == 1

    def test_mab_deterministic(self):
        a = gen_gap_instance_mab(5, 0.3, make_rng(7))
        b = gen_gap_instance_mab(5, 0.3, make_rng(7))
        assert a == b

    def test_mab_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            gen_gap_instance_mab(5, 1.0, make_rng(0))
        with pytest.raises(ValueError):
            gen_gap_instance_mab(5, 0.0, make_rng(0))

    def test_linear_gap_guarantee(self):
        inst = gen_gap_instance_linear(2, 2, 0.5, make_rng(5))
        assert inst.min_gap() >= 0.5

    def test_linear_full_rank(self):
        for seed in range(10):
            inst = gen_gap_instance_linear(5, 5, 0.2, make_rng(seed))
            assert np.linalg.matrix_rank(inst.contexts) == 5

    def test_linear_deterministic(self):
        a = gen_gap_instance_linear(2, 3, 0.3, make_rng(11))
        b = gen_gap_instance_linear(2, 3, 0.3, make_rng(11))
        assert np.array_equal(a.contexts, b.contexts) and np.array_equal(a.theta, b.theta)

    def test_linear_norms_bounded(self):
        for seed in range(20):
            inst = gen_gap_instance_linear(3, 5, 0.2, make_rng(seed))
            assert np.all(np.linalg.norm(inst.contexts, axis=1) <= 1 + 1e-12)
            assert np.linalg.norm(inst.theta) <= 1 + 1e-12

    def test_linear_one_dimensional(self):
        inst = gen_gap_instance_linear(1, 3, 0.2, make_rng(2))
        assert inst.dim == 1 and inst.min_gap() >= 0.2

    def test_linear_rejects_k_below_d(self):
        with pytest.raises(ValueError):
            gen_gap_instance_linear(5, 3, 0.2, make_rng(0))


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(delta=0.0)
        with pytest.raises(ValueError):
            RunConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            RunConfig(n_agents=0)
        with pytest.raises(ValueError):
            RunConfig(gamma=0.0)
        with pytest.raises(ValueError):
            RunConfig(arm_select="nope")

    def test_uniform_activation_agent_limit(self):
        # the uniform draw is defined for M < 2^32; the config refuses more
        # agents, so no driver allocates their states first
        RunConfig(n_agents=2**32 - 1)
        RunConfig(n_agents=2**32, activation="round-robin")
        for cls in (RunConfig, SyncConfig):
            with pytest.raises(ValueError, match="2\\^32"):
                cls(n_agents=2**32)

    def test_default_triggers_are_exact_fractions(self):
        cfg = RunConfig(n_agents=10).resolved(5)
        assert cfg.gamma == Fraction(1, 100)
        assert cfg.gamma1 == Fraction(1, 100)
        assert cfg.gamma2 == Fraction(1, 100)
        cfg = RunConfig(n_agents=3).resolved(4)
        assert cfg.gamma == Fraction(1, 24)
        assert cfg.gamma1 == Fraction(1, 9)

    def test_ridge_default_respects_cap(self):
        cfg = RunConfig(n_agents=10, delta=0.05).resolved(5, sigma=0.3)
        cap = ridge_cap(0.3, Fraction(1, 100), 10, 0.05)
        assert cfg.ridge == min(1.0, cap)
        # zero noise: cap degenerates to 0, default falls back to 1
        cfg0 = RunConfig(n_agents=10).resolved(5, sigma=0.0)
        assert cfg0.ridge == 1.0
        # sigma = 1e-160: the default ridge is subnormal and the stop checks'
        # log argument overflows, so the run is refused instead of never stopping
        inst = gen_gap_instance_linear(2, 3, 0.4, make_rng(0), sigma=1e-160)
        with pytest.raises(ValueError, match="overflow"):
            run_falinpe(inst, RunConfig(n_agents=2, max_rounds=10_000))

    @pytest.mark.parametrize(
        "fields,sigma,fits,overflows",
        [
            # 12/delta * ((1 + gamma) T)^2 passes the largest float near T = 3,300
            pytest.param({"delta": 1e-300}, None, 1_000, 10_000, id="mab"),
            # 40 * (1 + (1 + gamma2) T / ridge) passes it near T = 3.8e6
            pytest.param({"ridge": 1e-300}, 0.3, 1_000_000, 10_000_000, id="linear"),
        ],
    )
    def test_log_argument_checked_at_max_rounds(self, fields, sigma, fits, overflows):
        # the stop checks' log argument grows with the sample count: the same
        # values pass under a short round cap and are refused under a long one
        RunConfig(max_rounds=fits, **fields).resolved(3, sigma)
        with pytest.raises(ValueError, match="overflow"):
            RunConfig(max_rounds=overflows, **fields).resolved(3, sigma)

    @pytest.mark.parametrize("means", [(0.5, 0.4, 0.1), None], ids=["mab", "linear"])
    def test_reward_noise_checked_at_max_rounds(self, means):
        # a reward lies within |mean| + 16 sigma: at sigma 1e300 a sum of 10^6
        # pulls stays finite and one of 10^9 pulls may not
        RunConfig(max_rounds=10**6).resolved(3, 1e300, means)
        with pytest.raises(ValueError, match="sigma is too large"):
            RunConfig(max_rounds=10**9).resolved(3, 1e300, means)
        # one reward of sigma 1e308 overflows under any round cap
        with pytest.raises(ValueError, match="sigma is too large"):
            RunConfig(max_rounds=4).resolved(3, 1e308, means)

    def test_mab_mean_counts_toward_the_reward_bound(self):
        # the same sigma and round cap, refused once a mean is large: at 2^63
        # pulls, 16 sigma is 1.62e308 / 2^63 and the largest mean 0.22e308 / 2^63
        config = RunConfig(max_rounds=2**63)
        config.resolved(2, 1.1e288, (1.0, 0.0))
        with pytest.raises(ValueError, match="sigma is too large"):
            config.resolved(2, 1.1e288, (MAX_ABS_MEAN, 0.0))

    def test_largest_accepted_noise_runs_without_overflow(self):
        # 16 sigma * 2000 pulls passes the largest float near sigma = 5.6e303;
        # runs just inside that raise no floating-point warning (they are errors here)
        cfg = RunConfig(n_agents=2, max_rounds=2_000, seed=3)
        mab_inst = MabInstance(means=(0.5, 0.4, 0.1), sigma=5e303)
        lin_inst = gen_gap_instance_linear(2, 3, 0.3, make_rng(1), sigma=5e303)
        with pytest.raises(ValueError, match="sigma is too large"):
            run_famabpe(MabInstance(means=(0.5, 0.4, 0.1), sigma=6e303), cfg)
        for inst, run in ((mab_inst, run_famabpe), (lin_inst, run_falinpe)):
            assert run(inst, cfg, audit=True).tau == 2_000
            sync = run_synchronous(inst, SyncConfig(n_agents=2, max_rounds=2_000, seed=3, episode_len=3))
            assert sync.tau == 2_000 and run_single_agent(inst, cfg).tau == 2_000

    def test_ridge_above_cap_warns(self):
        with pytest.warns(UserWarning):
            RunConfig(n_agents=2, ridge=1e6).resolved(5, sigma=0.3)

    def test_max_rounds_must_exceed_arms(self):
        with pytest.raises(ValueError):
            RunConfig(max_rounds=5).resolved(5)

    def test_explicit_gamma_kept(self):
        cfg = RunConfig(gamma=0.25).resolved(5)
        assert float(cfg.gamma) == 0.25


class TestRunResult:
    def test_accounting_enforced(self):
        with pytest.raises(ValueError):
            RunResult(
                best_arm_est=1,
                best_arm_true=1,
                correct=True,
                tau=5,
                comm_cost=0,
                init_comm=0,
                switch_cost=0,
                pulls_per_arm=(1, 1),
                terminated=True,
            )

    def test_json_roundtrip_stable(self):
        r = RunResult(
            best_arm_est=2,
            best_arm_true=2,
            correct=True,
            tau=4,
            comm_cost=3,
            init_comm=2,
            switch_cost=1,
            pulls_per_arm=(2, 2),
            terminated=True,
        )
        assert r.to_json() == r.to_json()
        assert json.loads(r.to_json())["tau"] == 4


class TestInstanceJson:
    def test_mab_exact_fields(self):
        inst = MabInstance(means=(0.7, 0.2), sigma=0.3)
        obj = json.loads(instance_to_json(inst))
        assert set(obj) == {"type", "means", "sigma"}
        assert obj["type"] == "mab"

    def test_linear_exact_fields(self):
        inst = gen_gap_instance_linear(3, 4, 0.2, make_rng(1))
        obj = json.loads(instance_to_json(inst))
        assert set(obj) == {"type", "dim", "contexts", "theta", "sigma"}
        assert obj["dim"] == 3

    def test_roundtrip_lossless(self):
        mab = gen_gap_instance_mab(6, 0.17, make_rng(9))
        again = instance_from_json(instance_to_json(mab))
        assert again.means == mab.means and again.sigma == mab.sigma
        lin = gen_gap_instance_linear(4, 6, 0.21, make_rng(9))
        again = instance_from_json(instance_to_json(lin))
        assert np.array_equal(again.contexts, lin.contexts)
        assert np.array_equal(again.theta, lin.theta)

    def test_negative_zero_keeps_its_sign(self):
        inst = MabInstance(means=(1.0, -0.0), sigma=0.0)
        again = instance_from_json(instance_to_json(inst))
        assert math.copysign(1.0, again.means[1]) == -1.0 and again.sigma == 0.0

    def test_serialization_precision(self):
        inst = MabInstance(means=(1 / 3, 0.2), sigma=0.3)
        text = instance_to_json(inst)
        # 17 significant digits recover the double exactly
        mantissa = text.split("[")[1].split(",")[0]
        assert len(mantissa.replace("0.", "")) >= 15
        assert json.loads(text)["means"][0] == 1 / 3

    def test_byte_identical_regeneration(self):
        a = instance_to_json(gen_gap_instance_mab(5, 0.3, make_rng(4)))
        b = instance_to_json(gen_gap_instance_mab(5, 0.3, make_rng(4)))
        assert a == b

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json('{"type":"other"}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"type":"mab","sigma":0.3}',
            '{"type":"mab","means":[1.0,0.5]}',
            '{"type":"linear","contexts":[[1,0],[0,1]],"theta":[1,0],"sigma":0.1}',
            '{"type":"linear","dim":2,"contexts":[[1,0],[0,1]],"sigma":0.1}',
        ],
    )
    def test_missing_field_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="missing field"):
            instance_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"type":"linear","dim":3,"contexts":[1,0,0],"theta":[1,0,0],"sigma":0.1}',
            '{"type":"linear","dim":2,"contexts":[[1,0],[0]],"theta":[1,0],"sigma":0.1}',
            '{"type":"linear","dim":null,"contexts":[[1,0],[0,1]],"theta":[1,0],"sigma":0.1}',
            '{"type":"mab","means":3,"sigma":0.1}',
            '{"type":"mab","means":[1.0,0.5],"sigma":Infinity}',
            '{"type":"mab","means":[1.0,NaN],"sigma":0.1}',
            '[1, 2]',
            # strings and booleans are not numbers, even where float() takes them
            '{"type":"mab","means":"12","sigma":0.1}',
            '{"type":"mab","means":[1.0,0.5],"sigma":false}',
            '{"type":"mab","means":[1.0,"0.5"],"sigma":0.1}',
            '{"type":"linear","dim":"2","contexts":[[1,0],[0,1]],"theta":[1,0],"sigma":0.1}',
            '{"type":"linear","dim":2,"contexts":[[1,0],[0,1]],"theta":[true,0],"sigma":0.1}',
        ],
    )
    def test_wrong_shape_or_value_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            instance_from_json(text)
