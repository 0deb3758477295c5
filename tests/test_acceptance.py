"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (visible with -s or in failure reports).

Criteria cover desk-scale reproduction targets (correctness and
communication behavior on the reference configurations), deterministic
communication bounds, the LP oracle equivalence, the design bound, state
conservation under auditing, switching behavior, the statistical confidence
guarantee, and byte-level determinism.
"""

import csv
import io
import itertools
import math
import time

import numpy as np
import pytest

from fedpex.baselines import SyncConfig, run_synchronous
from fedpex.cli import main as cli_main
from fedpex.core import (
    RunConfig,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    make_rng,
)
from fedpex.design_lp import solve_l1
from fedpex.linalg import quad_form_inv
from fedpex.runner import linear_comm_bound, mab_comm_bound, run_falinpe, run_famabpe

GAPS = (0.1, 0.2, 0.3, 0.4, 0.5)
SEEDS_PER_GAP = 10


def _report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mab_sweep():
    """Reference MAB sweep: K=5, M=10, sigma=0.3, delta=0.05, eps=0.

    Each run is audited and keeps its audit log, one record per upload.
    Neither draws randomness, so the results are those of plain runs.
    """
    t0 = time.perf_counter()
    results = {}
    for gap in GAPS:
        runs = []
        for s in range(SEEDS_PER_GAP):
            inst = gen_gap_instance_mab(5, gap, make_rng(1000 + s), sigma=0.3)
            cfg = RunConfig(n_agents=10, delta=0.05, epsilon=0.0, seed=s)
            log = []
            res = run_famabpe(inst, cfg, audit=True, audit_log=log)
            runs.append((inst, cfg, res, log))
        results[gap] = runs
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def linear_sweep():
    """Reference linear sweep: d=5, K=5, M=10, sigma=0.3, delta=0.05, eps=0.05."""
    t0 = time.perf_counter()
    results = {}
    for gap, sel in itertools.product(GAPS, ("lp", "greedy")):
        runs = []
        for s in range(SEEDS_PER_GAP):
            inst = gen_gap_instance_linear(5, 5, gap, make_rng(2000 + s), sigma=0.3)
            cfg = RunConfig(n_agents=10, delta=0.05, epsilon=0.05, seed=s, arm_select=sel)
            res = run_falinpe(inst, cfg)
            runs.append((inst, cfg, res))
        results[(gap, sel)] = runs
    return results, time.perf_counter() - t0


def test_criterion_01_mab_correctness_at_reference_scale(mab_sweep):
    results, elapsed = mab_sweep
    failures = sum(
        1 for runs in results.values() for _inst, _cfg, res, _log in runs if not res.correct
    )
    total = sum(len(r) for r in results.values())
    _report(
        1,
        "reference MAB sweep identifies the best arm",
        failures <= 2 and total == 50 and elapsed < 120.0,
        f"failures={failures}/{total}, elapsed={elapsed:.1f}s",
    )


def _replay_trigger_mab(log, k_arms: int, n_agents: int, gamma):
    """Replay every upload of the audit log against the trigger alone.

    Snapshot totals start at K. An upload of n pulls adds them to the server
    total and, unless the run stopped, the agent downloads that total as its
    new snapshot. The trigger fires at pending > gamma * snapshot (exact
    Fraction arithmetic), so every upload's n must fire it and n - 1 must
    not: an upload one pull late or early is a mismatch. Returns the number
    of mismatched uploads, the pulls uploaded, the most pulls the agents can
    hold unsent at the end (each its limit), and the messages (upload plus
    download, if any) sent in rounds t <= 1/gamma.
    """
    t_warm = math.floor(1 / gamma)
    snapshot = [k_arms] * n_agents
    server_total = k_arms
    mismatches = uploaded = warm_msgs = 0
    for rec in log:
        a = rec.agent - 1
        mismatches += not (rec.pulls > gamma * snapshot[a] >= rec.pulls - 1)
        uploaded += rec.pulls
        if rec.t <= t_warm:
            warm_msgs += 1 if rec.stopped else 2
        server_total += rec.pulls
        if not rec.stopped:
            snapshot[a] = server_total
    held_max = sum(math.floor(gamma * c) for c in snapshot)
    return mismatches, uploaded, held_max, warm_msgs


def _mab_message_floor(tau: int, n_agents: int, k_arms: int, gamma) -> int:
    """Fewest messages the famabpe protocol can send in tau rounds (see
    test_criterion_02_mab_communication_magnitude for the derivation)."""
    t_warm = math.floor(1 / gamma)
    uploads = min(tau, t_warm) - k_arms
    lo = t_warm
    while lo < tau:
        hi = min(2 * lo, tau)
        uploads += max(0, math.ceil(((hi - lo) - n_agents * gamma * hi) / (gamma * hi + 1)))
        lo = hi
    return 2 * uploads - 1


def test_criterion_02_mab_communication_magnitude(mab_sweep):
    """Every run keeps the cap, replays its trigger exactly and sends at
    least the protocol's message floor.

    famabpe counts upload and download events, and the stopping upload has
    no download, so comm_cost = 2U - terminated for U uploads. The trigger
    (pending > gamma * snapshot) bounds U from below by (tau, M, K, gamma)
    alone:

    - Warm phase. A snapshot is the server total at the end of an earlier
      round, so in round t it is at most t - 1. For t <= 1/gamma this gives
      gamma * snapshot < 1 <= pending: every round K+1 .. min(tau,
      floor(1/gamma)) uploads.
    - Later rounds. For t1 < t2, the t2 - t1 pulls of rounds (t1, t2] are
      either uploaded within (t1, t2] or still pending at t2. After a round
      no agent holds more than gamma * t2 pending pulls (it would have
      uploaded), so at most M * gamma * t2 are pending, and one upload
      carries at most gamma * t2 + 1 pulls. Hence
      U(t1, t2] >= ceil(((t2 - t1) - M * gamma * t2) / (gamma * t2 + 1)).
    - Summing over the doubling grid floor(1/gamma), 2 floor(1/gamma), ...,
      tau (the log2 grid of the cap) gives U >= U_min, so
      comm_cost >= 2 U_min - 1, in exact Fraction arithmetic.

    The floor, not a fixed band, is the magnitude check: at this sweep's tau
    its mean at gap 0.1 is already 481 messages. The report splits each
    gap's mean messages into the warm phase (rounds t <= 1/gamma) and the
    steady state.
    """
    results, _elapsed = mab_sweep
    parts = []
    for gap, runs in sorted(results.items()):
        comm = warm = floor_sum = 0
        for _inst, cfg, res, log in runs:
            gamma = cfg.resolved(5).gamma
            where = f"gap {gap}, seed {cfg.seed}"
            assert res.comm_cost <= mab_comm_bound(10, gamma, res.tau), where
            mismatches, uploaded, held_max, warm_msgs = _replay_trigger_mab(log, 5, 10, gamma)
            assert mismatches == 0, f"{where}: {mismatches} uploads differ from the replayed trigger"
            # every pull is uploaded or held, and no agent holds more than its limit
            assert 0 <= res.tau - 5 - uploaded <= held_max, where
            assert res.comm_cost == 2 * len(log) - res.terminated, where
            floor = _mab_message_floor(res.tau, 10, 5, gamma)
            assert res.comm_cost >= floor, f"{where}: {res.comm_cost} messages < floor {floor}"
            comm += res.comm_cost
            warm += warm_msgs
            floor_sum += floor
        n = len(runs)
        parts.append(
            f"gap {gap}: {comm / n:.0f} = {warm / n:.0f} warm + {(comm - warm) / n:.0f} steady, "
            f"floor {floor_sum / n:.0f}"
        )
    _report(
        2,
        "every run within the deterministic cap, its trigger replayed exactly, "
        "and its messages at or above the protocol floor",
        True,
        "; ".join(parts),
    )


def test_criterion_03_linear_correctness_and_bound(linear_sweep):
    results, elapsed = linear_sweep
    wrong = 0
    bound_violations = 0
    total = 0
    for (_gap, _sel), runs in results.items():
        for inst, cfg, res in runs:
            total += 1
            if not res.correct:
                wrong += 1
            rc = cfg.resolved(inst.k_arms, inst.sigma)
            bound = linear_comm_bound(10, rc.gamma1, rc.gamma2, rc.ridge, 5, res.tau)
            if res.comm_cost > bound:
                bound_violations += 1
    _report(
        3,
        "reference linear sweep correct under both selectors with bounded communication",
        wrong == 0 and bound_violations == 0 and total == 100 and elapsed < 600.0,
        f"wrong={wrong}, bound_violations={bound_violations}, elapsed={elapsed:.1f}s",
    )


def test_criterion_04_synchronous_cost_identity():
    checked = 0
    for seed in range(3):
        inst = gen_gap_instance_mab(5, 0.3, make_rng(3000 + seed), sigma=0.3)
        res = run_synchronous(
            inst, SyncConfig(n_agents=10, episode_len=100, seed=seed, epsilon=0.0)
        )
        assert res.terminated
        assert res.comm_cost * 50 == res.tau
        checked += 1
    lin = gen_gap_instance_linear(3, 4, 0.3, make_rng(3100), sigma=0.3)
    res = run_synchronous(lin, SyncConfig(n_agents=10, episode_len=100, seed=0, epsilon=0.05))
    assert res.terminated and res.comm_cost * 50 == res.tau
    checked += 1
    _report(4, "synchronous runs satisfy comm_cost = tau/50 exactly", True, f"{checked} runs")


def _l1_bruteforce(contexts, y, tol=1e-9):
    contexts = np.asarray(contexts, dtype=float)
    k, d = contexts.shape
    a = np.concatenate([contexts.T, -contexts.T], axis=1)
    best = np.inf
    for cols in itertools.combinations(range(2 * k), d):
        sub = a[:, cols]
        try:
            z = np.linalg.solve(sub, np.asarray(y, dtype=float))
        except np.linalg.LinAlgError:
            continue
        if np.all(z >= -tol):
            best = min(best, float(np.clip(z, 0.0, None).sum()))
    return best


def _random_case(rng, d_max=3, k_max=6):
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(max(d, 2), k_max + 1))
    contexts = rng.standard_normal((k, d))
    norms = np.linalg.norm(contexts, axis=1)
    contexts = contexts / norms[:, None] * rng.uniform(0.3, 1.0, size=(k, 1))
    w_true = rng.standard_normal(k) * (rng.random(k) < 0.7)
    y = contexts.T @ w_true
    if np.abs(y).max() < 1e-9:
        y = contexts[0].copy()
    return contexts, y


def test_criterion_05_lp_oracle_equivalence():
    rng = np.random.default_rng(5005)
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_res = 0.0
    for _ in range(500):
        contexts, y = _random_case(rng)
        sol = solve_l1(contexts, y)
        oracle = _l1_bruteforce(contexts, y)
        worst_obj = max(worst_obj, abs(sol.rho - oracle))
        residual = np.abs(contexts.T @ sol.w - y).max()
        worst_res = max(worst_res, residual / (1.0 + np.abs(y).max()))
        assert abs(sol.rho - oracle) <= 1e-6
        assert residual <= 1e-8 * (1.0 + np.abs(y).max())
    _report(
        5,
        "simplex objective matches basic-solution enumeration on 500 instances",
        True,
        f"worst objective gap {worst_obj:.2e}, worst residual {worst_res:.2e}, "
        f"elapsed {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_06_design_bound_property():
    # y'V^{-1}y <= rho(y)^2 / T(i,j): rho^2 is the optimal value of the
    # equivalent variance program min sum w_k^2/p_k, the quantity the bound
    # actually controls (the plain-rho form fails whenever rho > 1; note
    # (sum|w|)^2 = sum w^2/p at p = |w|/rho by Cauchy-Schwarz)
    rng = np.random.default_rng(6006)
    checked = 0
    worst_slack = -np.inf
    while checked < 200:
        contexts, _ = _random_case(rng)
        k, d = contexts.shape
        i, j = rng.choice(k, size=2, replace=False)
        y = contexts[i] - contexts[j]
        if np.abs(y).max() < 1e-12:
            continue
        counts = rng.integers(1, 50, size=k)
        sol = solve_l1(contexts, y)
        support = sol.p > 1e-12
        t_ij = float(np.min(counts[support] / sol.p[support]))
        v = 1e-8 * np.eye(d)
        for a in range(k):
            v += counts[a] * np.outer(contexts[a], contexts[a])
        slack = quad_form_inv(v, y) - sol.rho**2 / t_ij
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-6
        checked += 1
    _report(
        6,
        "design bound holds on 200 random count profiles",
        True,
        f"worst slack {worst_slack:.2e}",
    )


def test_criterion_07_conservation_fuzz():
    rng = np.random.default_rng(7007)
    audited = 0
    for case in range(100):
        seed = int(rng.integers(0, 2**31))
        m_agents = int(rng.integers(1, 7))
        epsilon = float(rng.choice([0.0, 0.05, 0.1]))
        activation = "round-robin" if case % 3 == 0 else "uniform-random"
        if case % 2 == 0:
            k = int(rng.integers(3, 7))
            gap = float(rng.uniform(0.2, 0.5))
            inst = gen_gap_instance_mab(k, gap, make_rng(4000 + case), sigma=0.3)
            cfg = RunConfig(
                n_agents=m_agents, epsilon=epsilon, seed=seed, max_rounds=5000,
                activation=activation,
            )
            run_famabpe(inst, cfg, audit=True)
        else:
            d = int(rng.integers(2, 4))
            k = int(rng.integers(d, 6))
            if k < 2:
                k = 2
            gap = float(rng.uniform(0.2, 0.5))
            inst = gen_gap_instance_linear(d, k, gap, make_rng(4000 + case), sigma=0.3)
            sel = "lp" if case % 4 == 1 else "greedy"
            cfg = RunConfig(
                n_agents=m_agents, epsilon=epsilon, seed=seed, max_rounds=5000,
                activation=activation, arm_select=sel,
            )
            run_falinpe(inst, cfg, audit=True)
        audited += 1
    _report(
        7,
        "conservation and trigger-negation invariants hold on 100 audited runs",
        audited == 100,
        f"{audited} runs, zero violations",
    )


def test_criterion_08_frozen_target_and_switching():
    checked = 0
    for seed in range(6):
        if seed % 2 == 0:
            inst = gen_gap_instance_mab(5, 0.25, make_rng(8000 + seed), sigma=0.3)
            log = []
            res = run_famabpe(
                inst, RunConfig(n_agents=4, seed=seed, max_rounds=20000), audit=True, audit_log=log
            )
        else:
            inst = gen_gap_instance_linear(3, 4, 0.3, make_rng(8000 + seed), sigma=0.3)
            log = []
            res = run_falinpe(
                inst,
                RunConfig(n_agents=4, seed=seed, epsilon=0.05, max_rounds=20000),
                audit=True,
                audit_log=log,
            )
        # each agent uploads the arm it downloaded last, and the run's
        # downloads and switches are those its upload records name
        downloaded = {}
        for rec in log:
            assert rec.arm == downloaded.get(rec.agent, log[0].arm)
            downloaded[rec.agent] = rec.target
        assert res.n_downloads == sum(rec.target is not None for rec in log)
        assert res.switch_cost == sum(rec.target not in (None, rec.arm) for rec in log)
        assert res.switch_cost <= res.n_downloads
        assert res.n_downloads <= res.comm_cost
        checked += 1
    _report(8, "targets frozen between downloads; switches bounded by downloads", True,
            f"{checked} audited runs")


def test_criterion_09_statistical_delta_guarantee():
    t0 = time.perf_counter()
    failures = 0
    n_runs = 200
    for s in range(n_runs):
        inst = gen_gap_instance_mab(3, 0.4, make_rng(9000 + s), sigma=0.3)
        cfg = RunConfig(n_agents=10, delta=0.2, epsilon=0.0, seed=s)
        res = run_famabpe(inst, cfg)
        if not res.correct:
            failures += 1
    rate = failures / n_runs
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "empirical failure rate within the confidence budget (delta=0.2 + slack)",
        rate <= 0.28 and elapsed < 300.0,
        f"failures={failures}/{n_runs} rate={rate:.3f}, elapsed={elapsed:.1f}s",
    )


def _csv_without_wall_clock(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "runtime_ms"
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row[:-1])
    return buf.getvalue().encode()


def test_criterion_10_determinism(tmp_path):
    # repeated runs with identical seeds: identical serialized results and
    # byte-identical CSV output (the wall-clock runtime_ms column is the one
    # field that cannot repeat and is excluded from the byte comparison)
    inst_path = tmp_path / "inst.json"
    assert cli_main(["gen", "--type", "mab", "--k", "5", "--gap", "0.3", "--sigma", "0.3",
                     "--seed", "1", "--out", str(inst_path)]) == 0
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["run", "--algo", "famabpe", "--instance", str(inst_path),
                         "--reps", "3", "--agents", "10", "--out", str(out)]) == 0
        blobs.append(_csv_without_wall_clock(out))
    csv_identical = blobs[0] == blobs[1]

    inst = gen_gap_instance_mab(5, 0.3, make_rng(1), sigma=0.3)
    cfg = RunConfig(n_agents=10, seed=42)
    result_identical = run_famabpe(inst, cfg).to_json() == run_famabpe(inst, cfg).to_json()
    lin = gen_gap_instance_linear(3, 4, 0.3, make_rng(2), sigma=0.3)
    lin_cfg = RunConfig(n_agents=5, seed=7, epsilon=0.05)
    result_identical = result_identical and (
        run_falinpe(lin, lin_cfg).to_json() == run_falinpe(lin, lin_cfg).to_json()
    )
    _report(10, "seeded reruns are byte-identical", csv_identical and result_identical)
