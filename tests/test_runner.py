"""End-to-end run behavior: termination, accounting identities, determinism,
audit-mode neutrality, the audit's power, activation schedules, and the
theory diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedpex.core import (
    LinearInstance,
    MabInstance,
    RunConfig,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    make_rng,
)
from fedpex import linear as lin
from fedpex import mab, runner
from fedpex.runner import (
    ActivationSchedule,
    AuditError,
    LinearFamily,
    MabFamily,
    compute_theory_diagnostics,
    linear_comm_bound,
    mab_comm_bound,
    run_falinpe,
    run_famabpe,
)


class TestActivationSchedule:
    def test_round_robin_cycles(self):
        sched = ActivationSchedule("round-robin", 3)
        rng = make_rng(0)
        assert [sched.block(rng, 1)[0][0] for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_uniform_consumes_rng_only_when_needed(self):
        rng_a = make_rng(5)
        sched = ActivationSchedule("uniform-random", 1)
        _agents, normals = sched.block(rng_a, 1)  # one round: agent 0 and its normal
        rng_b = make_rng(5)
        assert normals == [rng_b.standard_normal()]
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_uniform_covers_agents(self):
        sched = ActivationSchedule("uniform-random", 4)
        rng = make_rng(1)
        agents = []
        while len(agents) < 400:
            agents += sched.block(rng, 400 - len(agents))[0]
        assert set(agents) == {0, 1, 2, 3}


class TestRunFamabpe:
    def test_noiseless_two_arms(self):
        inst = MabInstance(means=(1.0, 0.0), sigma=0.0)
        res = run_famabpe(inst, RunConfig(epsilon=0.5, n_agents=2, seed=0), audit=True)
        assert res.terminated and res.correct and res.best_arm_est == 1

    def test_result_accounting(self):
        inst = gen_gap_instance_mab(4, 0.3, make_rng(1))
        res = run_famabpe(inst, RunConfig(n_agents=3, seed=2), audit=True)
        assert sum(res.pulls_per_arm) == res.tau
        assert res.switch_cost <= res.comm_cost
        assert res.init_comm == 4 + 3
        # stop-at-upload leaves exactly one unmatched upload
        assert res.terminated and res.comm_cost % 2 == 1
        assert res.comm_cost == 2 * res.n_downloads + 1

    def test_comm_bound_postcondition(self):
        for seed in range(5):
            inst = gen_gap_instance_mab(5, 0.25, make_rng(seed + 50))
            cfg = RunConfig(n_agents=4, seed=seed)
            res = run_famabpe(inst, cfg)
            rc = cfg.resolved(inst.k_arms)
            assert res.comm_cost <= mab_comm_bound(4, rc.gamma, res.tau)

    def test_deterministic_and_audit_neutral(self):
        inst = gen_gap_instance_mab(5, 0.2, make_rng(3))
        cfg = RunConfig(n_agents=5, seed=11)
        a = run_famabpe(inst, cfg)
        b = run_famabpe(inst, cfg, audit=True)
        assert a.to_json() == b.to_json()

    def test_seed_changes_run(self):
        inst = gen_gap_instance_mab(5, 0.2, make_rng(3))
        a = run_famabpe(inst, RunConfig(n_agents=5, seed=11))
        b = run_famabpe(inst, RunConfig(n_agents=5, seed=12))
        assert a.to_json() != b.to_json()

    def test_max_rounds_cap(self):
        inst = MabInstance(means=(0.55, 0.45), sigma=0.3)
        res = run_famabpe(inst, RunConfig(n_agents=2, seed=0, max_rounds=200))
        assert not res.terminated and res.tau == 200
        assert sum(res.pulls_per_arm) == 200
        # without a stopping upload every upload has a matching download
        assert res.comm_cost % 2 == 0

    def test_round_robin_activation(self):
        inst = gen_gap_instance_mab(3, 0.3, make_rng(4))
        res = run_famabpe(inst, RunConfig(n_agents=3, seed=1, activation="round-robin"), audit=True)
        assert res.terminated and res.correct

    def test_audit_log_record_count(self):
        inst = gen_gap_instance_mab(3, 0.4, make_rng(5))
        log = []
        res = run_famabpe(inst, RunConfig(n_agents=2, seed=6), audit_log=log)
        # one record per upload; the stopping upload has no download
        assert res.comm_cost == 2 * len(log) - res.terminated
        assert log[-1].stopped and log[-1].target is None and log[-1].t == res.tau
        assert not any(rec.stopped for rec in log[:-1])
        assert all(rec.pulls >= 1 for rec in log)
        assert sum(rec.pulls for rec in log) <= res.tau - inst.k_arms

    def test_frozen_target_between_downloads(self):
        inst = gen_gap_instance_mab(4, 0.2, make_rng(6))
        log = []
        res = run_famabpe(inst, RunConfig(n_agents=3, seed=7), audit=True, audit_log=log)
        assert res.terminated
        assert_frozen_targets(log, res)


def assert_frozen_targets(log, res):
    """Each agent uploads the arm it downloaded last, and the downloads and
    switches of a run are those its records name."""
    downloaded = {}
    for rec in log:
        # every agent's first download is the initialized state's target
        assert rec.arm == downloaded.get(rec.agent, log[0].arm)
        downloaded[rec.agent] = rec.target
    assert res.n_downloads == sum(rec.target is not None for rec in log)
    assert res.switch_cost == sum(rec.target not in (None, rec.arm) for rec in log)


class TestRunFalinpe:
    def test_noiseless_basis(self):
        inst = LinearInstance(
            contexts=np.array([[1.0, 0.0], [0.0, 1.0]]), theta=np.array([1.0, 0.0]), sigma=0.0
        )
        res = run_falinpe(inst, RunConfig(epsilon=0.5, n_agents=2, seed=0), audit=True)
        assert res.terminated and res.correct and res.best_arm_est == 1

    def test_both_selectors_terminate(self):
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(21))
        for sel in ("lp", "greedy"):
            res = run_falinpe(inst, RunConfig(n_agents=3, seed=2, epsilon=0.05, arm_select=sel))
            assert res.terminated and res.correct

    def test_comm_bound_postcondition(self):
        inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(22))
        cfg = RunConfig(n_agents=4, seed=3, epsilon=0.05)
        res = run_falinpe(inst, cfg)
        rc = cfg.resolved(inst.k_arms, inst.sigma)
        assert res.comm_cost <= linear_comm_bound(4, rc.gamma1, rc.gamma2, rc.ridge, 3, res.tau)

    def test_deterministic_and_audit_neutral(self):
        inst = gen_gap_instance_linear(2, 3, 0.3, make_rng(23))
        cfg = RunConfig(n_agents=3, seed=4, epsilon=0.05)
        a = run_falinpe(inst, cfg)
        b = run_falinpe(inst, cfg, audit=True)
        assert a.to_json() == b.to_json()

    def test_lp_pulls_stay_in_design_support(self):
        # with the LP selector every pulled arm lies in some pair's support;
        # sanity-proxy: runs finish and never fall back on generated instances
        inst = gen_gap_instance_linear(3, 5, 0.25, make_rng(25))
        res = run_falinpe(inst, RunConfig(n_agents=3, seed=6, epsilon=0.05, arm_select="lp"))
        assert res.lp_fallbacks == 0 and res.terminated

    def test_audited_limit_past_2_52_pulls(self, monkeypatch):
        # contexts of norm 1e-9 put the determinant rule's limit g1/q past
        # 2^52 pulls, where trigger_limit_linear keeps the count rule's
        # limit; the audit reads the exact rule as quiet only up to 2^52
        inst = LinearInstance(
            contexts=np.array([[1e-9, 0.0], [0.0, 1e-9], [5e-10, 5e-10]]), theta=np.array([0.6, 0.0]), sigma=0.3
        )
        cfg = RunConfig(n_agents=2, seed=1, gamma2=1e17, max_rounds=3000, arm_select="greedy")
        download, limits = LinearFamily.download, []

        def recording(self, server, check):
            ag, fallback = download(self, server, check)
            limits.append(ag.trigger_limit)
            return ag, fallback

        monkeypatch.setattr(LinearFamily, "download", recording)
        res = run_falinpe(inst, cfg, audit=True)
        assert limits == [3 * 10**17] and res.tau == 3000 and res.comm_cost == 0
        assert res.to_json() == run_falinpe(inst, cfg).to_json()

    def test_long_audited_run_keeps_conservation(self):
        # the sums grow past 1e5 here, where a per-pull fold of x x^T and r x
        # differs from n x x^T and (sum r) x by more than 1e-9; the audit's
        # sums are the merge's own operations, so they stay equal to the bit
        inst = gen_gap_instance_linear(5, 5, 0.01, make_rng(0), sigma=1.0)
        res = run_falinpe(inst, RunConfig(n_agents=10, seed=0, epsilon=0.0, max_rounds=700_000), audit=True)
        assert res.tau == 700_000 and not res.terminated


class TestSetUpIsOneDownload:
    """Every agent holds the one download of the initialized state: set-up
    costs one download call for any M, counted here rather than timed."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        download = getattr(module, name)

        def wrapper(*args):
            calls.append(1)
            return download(*args)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    @pytest.mark.parametrize("m", [1, 10, 100_000])
    def test_mab(self, m, monkeypatch):
        calls = self.counted(monkeypatch, mab, "download_mab")
        inst = gen_gap_instance_mab(5, 0.3, make_rng(40), sigma=0.3)
        # one round past set-up: every later call is a counted download
        res = run_famabpe(inst, RunConfig(n_agents=m, seed=1, max_rounds=6))
        assert len(calls) - res.n_downloads == 1
        assert res.init_comm == 5 + m and res.lp_fallbacks == 0

    @pytest.mark.parametrize("m", [1, 10, 100_000])
    def test_linear_with_every_lp_infeasible(self, m, monkeypatch):
        def infeasible(contexts, y):
            raise lin.InfeasibleTargetError("no LP target")

        monkeypatch.setattr(lin, "solve_l1", infeasible)
        calls = self.counted(monkeypatch, lin, "download_linear")
        inst = gen_gap_instance_linear(5, 5, 0.3, make_rng(41), sigma=0.3)
        res = run_falinpe(inst, RunConfig(n_agents=m, seed=1, max_rounds=6))
        assert len(calls) - res.n_downloads == 1
        # the one set-up download falls back once for each agent that holds it
        assert res.init_comm == 5 + m and res.lp_fallbacks == m + res.n_downloads


class TestAuditCatchesWrites:
    """The audit fails a run whose snapshots or carried values go stale."""

    def test_linear_snapshot_written_between_downloads(self, monkeypatch):
        # one ulp, far inside the rounding tolerance of a second factorization,
        # into the state before each merge, which other agents may still hold
        merge = LinearFamily.merge

        def writing(self, server, arm, n, reward_sum):
            out = merge(self, server, arm, n, reward_sum)
            server.cov[0, 0] = np.nextafter(server.cov[0, 0], np.inf)
            return out

        monkeypatch.setattr(LinearFamily, "merge", writing)
        inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(26), sigma=0.3)
        with pytest.raises(AuditError, match="snapshot changed between downloads"):
            run_falinpe(inst, RunConfig(n_agents=3, seed=7, epsilon=0.05), audit=True)

    def test_mab_carried_two_over_counts(self, monkeypatch):
        merge = mab.server_merge_mab

        def stale(server, *args):
            out = merge(server, *args)
            out.two_over_counts = server.two_over_counts
            return out

        monkeypatch.setattr(mab, "server_merge_mab", stale)
        inst = gen_gap_instance_mab(5, 0.3, make_rng(27), sigma=0.3)
        with pytest.raises(AuditError, match="2/counts"):
            run_famabpe(inst, RunConfig(n_agents=3, seed=8), audit=True)


def mab_run(**kw):
    inst = gen_gap_instance_mab(5, 0.3, make_rng(27), sigma=0.3)
    return run_famabpe(inst, RunConfig(n_agents=3, seed=8), **kw)


def linear_run(**kw):
    inst = gen_gap_instance_linear(3, 5, 0.3, make_rng(26), sigma=0.3)
    return run_falinpe(inst, RunConfig(n_agents=3, seed=7, epsilon=0.05), **kw)


def write_one_ulp(state):
    """One ulp into the first entry of a server state's first array, in
    place; a tuple, which cannot be written, is replaced in the state."""
    name, value = next((n, v) for n, v in vars(state).items() if isinstance(v, (np.ndarray, tuple)))
    if isinstance(value, tuple):
        setattr(state, name, (math.nextafter(value[0], math.inf), *value[1:]))
    else:
        value.flat[0] = np.nextafter(value.flat[0], np.inf)


@pytest.fixture(params=["tuples", "arrays"])
def representation(request, monkeypatch):
    """famabpe's server states of mab_run's five arms as tuples of Python
    numbers (the default up to mab.SCALAR_MAX_ARMS arms) or as numpy arrays,
    forced by the cut; returns the sequence type of a state's fields."""
    if request.param == "arrays":
        monkeypatch.setattr(mab, "SCALAR_MAX_ARMS", 0)
        return np.ndarray
    return tuple


def mutate_uploads(monkeypatch, family, mutated):
    """Installs `mutated` as family.merge for every upload's merge. Set-up's
    K one-pull merges, the only merges into a state of fewer than K pulls,
    run the family's own merge."""
    merge = family.merge

    def patched(self, server, *upload):
        return (merge if server.counts_total < self.instance.k_arms else mutated)(self, server, *upload)

    monkeypatch.setattr(family, "merge", patched)


class TestAuditCatchesMutations:
    """Each mutation of the protocol makes an audited run raise."""

    @pytest.mark.parametrize("run", [mab_run, linear_run])
    @pytest.mark.parametrize("compare", [">= ag.trigger_limit", "> ag.trigger_limit + 1"], ids=["early", "late"])
    def test_upload_one_pull_early_or_late(self, run, compare, mutate_driver):
        mutate_driver("> ag.trigger_limit:", compare + ":")
        with pytest.raises(AuditError, match="pulls at a trigger limit of"):
            run(audit=True)

    @pytest.mark.parametrize("family,run", [(MabFamily, mab_run), (LinearFamily, linear_run)])
    def test_merge_that_drops_one_pull(self, family, run, monkeypatch):
        merge = family.merge

        def dropping(self, server, arm, n, reward_sum):
            return merge(self, server, arm, n - 1, reward_sum)

        mutate_uploads(monkeypatch, family, dropping)
        with pytest.raises(AuditError, match="count conservation"):
            run(audit=True)

    def test_linear_merge_one_ulp_off(self, monkeypatch):
        # one ulp of the reward sum, far below any absolute float tolerance
        merge = LinearFamily.merge

        def off(self, server, arm, n, reward_sum):
            return merge(self, server, arm, n, np.nextafter(reward_sum, np.inf))

        monkeypatch.setattr(LinearFamily, "merge", off)
        with pytest.raises(AuditError, match="response conservation"):
            linear_run(audit=True)

    def test_linear_merge_covariance_one_ulp_off(self, monkeypatch):
        # one ulp of the merged covariance's first entry, in a fresh array
        merge = LinearFamily.merge

        def off(self, server, arm, n, reward_sum):
            out = merge(self, server, arm, n, reward_sum)
            cov = out.cov.copy()
            cov[0, 0] = np.nextafter(cov[0, 0], np.inf)
            return replace(out, cov=cov)

        monkeypatch.setattr(LinearFamily, "merge", off)
        with pytest.raises(AuditError, match="covariance or response conservation"):
            linear_run(audit=True)

    @pytest.mark.parametrize("family,run", [(MabFamily, mab_run), (LinearFamily, linear_run)])
    def test_download_with_a_limit_off_by_one(self, family, run, monkeypatch):
        download = family.download

        def off_by_one(self, server, check):
            ag, fallback = download(self, server, check)
            return replace(ag, trigger_limit=ag.trigger_limit + 1), fallback

        monkeypatch.setattr(family, "download", off_by_one)
        with pytest.raises(AuditError, match="trigger limit that is not the rule"):
            run(audit=True)

    @pytest.mark.parametrize("family,run", [(MabFamily, mab_run), (LinearFamily, linear_run)])
    def test_download_of_another_target(self, family, run, monkeypatch):
        download = family.download

        def other(self, server, check):
            ag, fallback = download(self, server, check)
            return replace(ag, current_target=ag.current_target % self.instance.k_arms + 1), fallback

        monkeypatch.setattr(family, "download", other)
        with pytest.raises(AuditError, match="downloaded a target"):
            run(audit=True)

    @pytest.mark.parametrize("family,run", [(MabFamily, mab_run), (LinearFamily, linear_run)])
    def test_merge_that_writes_the_state_it_merges_into(self, family, run, monkeypatch):
        # the third merge writes into the server state before it, which the
        # latest download holds
        merge, calls = family.merge, []

        def writing(self, server, *upload):
            calls.append(1)
            out = merge(self, server, *upload)
            if len(calls) == 3:
                write_one_ulp(server)
            return out

        mutate_uploads(monkeypatch, family, writing)
        log = []
        with pytest.raises(AuditError, match="snapshot changed between downloads"):
            run(audit=True, audit_log=log)
        # the log takes an upload after its audit: the third upload raised
        assert len(log) == 2

    @pytest.mark.parametrize("family", [MabFamily, LinearFamily])
    def test_write_into_set_up_held_only_by_idle_agents(self, family, monkeypatch):
        if family is MabFamily:
            inst, run = gen_gap_instance_mab(5, 0.3, make_rng(40), sigma=0.3), run_famabpe
        else:
            inst, run = gen_gap_instance_linear(5, 5, 0.3, make_rng(41), sigma=0.3), run_falinpe
        config = RunConfig(n_agents=1_000, seed=1, max_rounds=200)
        # the first upload of an agent that uploaded before: no agent that
        # holds set-up's download uploads in it, and the run is cut right after
        log, seen = [], set()
        run(inst, config, audit_log=log)
        last = next(i for i, rec in enumerate(log) if rec.agent in seen or seen.add(rec.agent))
        cut, merge, merged = replace(config, max_rounds=log[last].t), family.merge, []

        def writing(self, server, *upload):
            merged.append(server)
            # the first upload merges into set-up's state, the download it was made on
            if len(merged) == last + 1:
                write_one_ulp(merged[0])
            return merge(self, server, *upload)

        mutate_uploads(monkeypatch, family, writing)
        log = []
        with pytest.raises(AuditError, match="snapshot changed between downloads"):
            run(inst, cut, audit=True, audit_log=log)
        # every upload passed its audit, so the run's end raised
        assert len(log) == last + 1 and log[-1].agent in {rec.agent for rec in log[:-1]}

    @pytest.mark.parametrize("field", ["trigger_limit", "target_q"])
    @pytest.mark.parametrize("family,run", [(MabFamily, mab_run), (LinearFamily, linear_run)])
    def test_write_into_an_idle_agents_limit_or_q(self, family, run, field, monkeypatch):
        # an upload by another agent than the one before it: the download that
        # agent made is the latest, held by an agent that is idle at this upload
        log = []
        run(audit_log=log)
        u = next(i for i in range(1, len(log)) if log[i].agent != log[i - 1].agent)
        download, merge, made, merged = family.download, family.merge, [], []

        def recording(self, server, check):
            ag, fallback = download(self, server, check)
            made.append(ag)
            return ag, fallback

        def writing(self, server, *upload):
            merged.append(server)
            if len(merged) == u + 1:
                # made[0] is set-up's download, made[u] the one after upload u - 1
                ag = made[u]
                value = getattr(ag, field)
                setattr(ag, field, value + 1 if field == "trigger_limit" else math.nextafter(value, math.inf))
            return merge(self, server, *upload)

        monkeypatch.setattr(family, "download", recording)
        mutate_uploads(monkeypatch, family, writing)
        log = []
        with pytest.raises(AuditError, match="changed between downloads"):
            run(audit=True, audit_log=log)
        # the log takes an upload after its audit: upload u raised
        assert len(log) == u

    def test_mab_merge_that_drops_one_pull_on_either_representation(self, representation, monkeypatch):
        merge, seen = MabFamily.merge, []

        def dropping(self, server, arm, n, reward_sum):
            seen.append(type(server.counts))
            return merge(self, server, arm, n - 1, reward_sum)

        mutate_uploads(monkeypatch, MabFamily, dropping)
        with pytest.raises(AuditError, match="count conservation"):
            mab_run(audit=True)
        assert seen == [representation]

    def test_mab_carried_two_over_counts_one_ulp_off_on_either_representation(self, representation, monkeypatch):
        # one ulp of the merged arm's 2/counts, in a fresh field
        merge, seen = MabFamily.merge, []

        def off(self, server, arm, n, reward_sum):
            out = merge(self, server, arm, n, reward_sum)
            seen.append(type(out.two_over_counts))
            carried = list(out.two_over_counts)
            carried[arm - 1] = math.nextafter(carried[arm - 1], math.inf)
            return replace(out, two_over_counts=tuple(carried) if seen[-1] is tuple else np.array(carried))

        mutate_uploads(monkeypatch, MabFamily, off)
        with pytest.raises(AuditError, match="2/counts"):
            mab_run(audit=True)
        assert seen == [representation]

    def test_mab_write_into_a_held_snapshot_on_either_representation(self, representation, monkeypatch):
        merge, calls = MabFamily.merge, []

        def writing(self, server, *upload):
            calls.append(type(server.mean_est))
            out = merge(self, server, *upload)
            if len(calls) == 3:
                write_one_ulp(server)
            return out

        mutate_uploads(monkeypatch, MabFamily, writing)
        with pytest.raises(AuditError, match="snapshot changed between downloads"):
            mab_run(audit=True)
        assert calls == [representation] * 3

    @pytest.mark.parametrize("run", [mab_run, linear_run])
    def test_forced_communication_audited(self, run):
        res = run(audit=True, comm_every_round=True)
        assert res.to_json() == run(comm_every_round=True).to_json()
        assert res.comm_cost == 2 * (res.tau - 5) - res.terminated


class TestAuditIsPerDownload:
    """The audit checks each download once, however many agents hold it:
    set-up is one download that all M agents hold."""

    @pytest.mark.parametrize("m", [10, 10_000])
    @pytest.mark.parametrize("family", [MabFamily, LinearFamily])
    def test_rule_target_calls_do_not_grow_with_m(self, family, m, monkeypatch):
        calls = []
        rule_target = family.rule_target

        def counted(self, ag):
            calls.append(1)
            return rule_target(self, ag)

        monkeypatch.setattr(family, "rule_target", counted)
        # one round past set-up
        config = RunConfig(n_agents=m, seed=1, max_rounds=6)
        if family is MabFamily:
            res = run_famabpe(gen_gap_instance_mab(5, 0.3, make_rng(40), sigma=0.3), config, audit=True)
        else:
            res = run_falinpe(gen_gap_instance_linear(5, 5, 0.3, make_rng(41), sigma=0.3), config, audit=True)
        # set-up's download and each counted one, each checked once, when it is made
        assert len(calls) == 1 + res.n_downloads


    @pytest.mark.parametrize("family", [MabFamily, LinearFamily])
    def test_state_bytes_calls_per_upload_do_not_grow_with_m(self, family, monkeypatch):
        calls = []
        state_bytes = runner._state_bytes

        def counted(state):
            calls.append(1)
            return state_bytes(state)

        def measured(method):
            def run(self, *args):
                before = len(calls)
                method(self, *args)
                per_call[method.__name__].append(len(calls) - before)

            return run

        monkeypatch.setattr(runner, "_state_bytes", counted)
        monkeypatch.setattr(runner.Audit, "upload", measured(runner.Audit.upload))
        monkeypatch.setattr(runner.Audit, "end", measured(runner.Audit.end))
        most = {}
        for m in (10, 1_000):
            per_call = {"upload": [], "end": []}
            config = RunConfig(n_agents=m, seed=1, max_rounds=2_000)
            if family is MabFamily:
                res = run_famabpe(gen_gap_instance_mab(5, 0.3, make_rng(40), sigma=1.0), config, audit=True)
            else:
                res = run_falinpe(gen_gap_instance_linear(5, 5, 0.3, make_rng(41), sigma=1.0), config, audit=True)
            assert len(per_call["upload"]) == res.comm_cost - res.n_downloads > 100
            most[m] = max(per_call["upload"])
        # the uploader's old download, the latest download and the new one;
        # at M = 1,000 most agents hold a download of their own at the end
        assert most[10] == most[1_000] <= 3
        assert per_call["end"][0] > 300


class TestDiagnostics:
    def test_mab_reference_value(self):
        inst = MabInstance(means=(1.0, 0.5), sigma=1.0)
        rep = compute_theory_diagnostics(inst, RunConfig(epsilon=0.1))
        # arm k*: max(0.0333, 0.1) -> 100; arm 2: max(0.2, 0.1) -> 25
        assert rep["complexity"] == pytest.approx(125.0, rel=1e-12)

    def test_mab_sigma_scaling(self):
        a = compute_theory_diagnostics(MabInstance((1.0, 0.5), 0.3), RunConfig(epsilon=0.1))
        b = compute_theory_diagnostics(MabInstance((1.0, 0.5), 0.6), RunConfig(epsilon=0.1))
        assert b["complexity"] == pytest.approx(4 * a["complexity"], rel=1e-12)

    def test_mab_epsilon_zero_is_infinite(self):
        rep = compute_theory_diagnostics(MabInstance((1.0, 0.5), 0.3), RunConfig(epsilon=0.0))
        assert math.isinf(rep["complexity"]) and rep["epsilon_zero_flag"]

    @pytest.mark.parametrize(
        "sigma,eps,want",
        [
            # the best arm's d^2 underflows to 0: its term is past the largest float
            pytest.param(0.3, 1e-200, math.inf, id="d-squared-underflows"),
            pytest.param(1e200, 0.1, math.inf, id="sigma-squared-overflows"),
            pytest.param(0.0, 1e-200, 0.0, id="sigma-0"),
            # both squares of the best arm underflow, and its ratio is 1
            pytest.param(1e-200, 1e-200, 1.0, id="both-underflow"),
        ],
    )
    def test_mab_squares_beyond_the_float_range(self, sigma, eps, want):
        # these raised ZeroDivisionError or OverflowError
        rep = compute_theory_diagnostics(MabInstance((0.5, 0.4, 0.1), sigma), RunConfig(epsilon=eps))
        assert rep["complexity"] == want and not rep["epsilon_zero_flag"]

    def test_mab_gap_squared_overflows(self):
        # the outer arms' d^2 overflows, and their terms are below the smallest float
        rep = compute_theory_diagnostics(MabInstance((1e280, 0.4, -1e280), 1e-3), RunConfig(epsilon=0.1))
        assert rep["complexity"] == pytest.approx(1e-4, rel=1e-12)

    def test_mab_in_range_values_bit_for_bit(self):
        # wherever sigma^2 / d^2 computes without an exception, the value is that quotient's
        rng = make_rng(41)
        checked = 0
        for _ in range(400):
            sigma, eps = 10.0 ** rng.uniform(-170, 170), 10.0 ** rng.uniform(-170, -0.01)
            inst = MabInstance((0.5, 0.4, 0.1), sigma)
            try:
                want = float(sum(sigma**2 / max((g + eps) / 3.0, eps) ** 2 for g in (0.0, inst.gap(2), inst.gap(3))))
            except (OverflowError, ZeroDivisionError):
                continue
            assert compute_theory_diagnostics(inst, RunConfig(epsilon=eps))["complexity"] == want
            checked += 1
        assert checked > 100

    def test_comm_bound_reference_value(self):
        # 2 (10 + 100) log2(10^4)
        assert mab_comm_bound(10, 0.01, 10_000) == pytest.approx(2923.2967235008789, abs=1e-6)
        rep = compute_theory_diagnostics(
            MabInstance((1.0, 0.5), 0.3), RunConfig(epsilon=0.1, n_agents=10, gamma=0.01), tau=10_000
        )
        assert rep["comm_bound"] == pytest.approx(2923.2967235008789, abs=1e-6)

    def test_linear_basis_instance_by_hand(self):
        # orthonormal basis contexts: y(i,j) = e_i - e_j has rho = 2 and
        # p = (1/2, 1/2) on {i, j}; every max picks the pair with the
        # smallest admissible denominator
        inst = LinearInstance(
            contexts=np.array([[1.0, 0.0], [0.0, 1.0]]),
            theta=np.array([0.8, 0.2]),
            sigma=0.3,
        )
        rep = compute_theory_diagnostics(inst, RunConfig(epsilon=0.1))
        gaps = rep["per_arm_gaps"]
        assert gaps == pytest.approx([0.0, 0.6])
        # for each arm the best ordered pair is (1,2)/(2,1): rho*p_k = 1,
        # denominator max(0.1/3, 0.7/3, 0.1)^2 = (0.7/3)^2
        want_term = 1.0 / (0.7 / 3) ** 2
        assert rep["complexity"] == pytest.approx(2 * want_term, rel=1e-9)

    def test_linear_finite_at_epsilon_zero(self):
        inst = gen_gap_instance_linear(2, 3, 0.3, make_rng(31))
        rep = compute_theory_diagnostics(inst, RunConfig(epsilon=0.0))
        assert math.isfinite(rep["complexity"]) and not rep["epsilon_zero_flag"]
