"""Self-tests of the benchmark, on the tiny scale of every workload.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import re
import subprocess
import sys
import types

import pytest

import run
import tracer as tracing
import workloads

fedpex = run.load_fedpex()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDED = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def tiny(name, seed=0):
    return run.flat(workloads.first_pass(fedpex, workloads.WORKLOADS[name], seed, tiny=True))


def fedpex_bindings():
    return {
        (mod_name, attr): value
        for mod_name, mod in sys.modules.items()
        if isinstance(mod, types.ModuleType) and mod_name.split(".")[0] == "fedpex"
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_two_invocations_give_the_recorded_digest(name):
    runs = tiny(name)
    first = run.run_pass(fedpex, runs)
    second = run.run_pass(fedpex, tiny(name))
    assert run.failures(fedpex, runs, first) == []
    assert run.pass_digest(first) == run.pass_digest(second)
    attempted, fails, seen = run.check_oracle(fedpex, workloads.WORKLOADS[name], RECORDED["oracle"][name])
    assert fails == []
    assert attempted == 2 * len(runs)
    assert seen["0"] == run.pass_digest(first)


def test_perturbed_result_fails_the_digest_check():
    runs = tiny("mab_long")
    results = run.run_pass(fedpex, runs)
    bumped = dataclasses.replace(results[0], comm_cost=results[0].comm_cost + 1)
    assert workloads.digest([bumped] + results[1:]) != workloads.digest(results)
    # a recorded digest the runs do not reproduce is a failure
    _, fails, _ = run.check_oracle(fedpex, workloads.WORKLOADS["mab_long"], {"0": "0" * 64})
    assert len(fails) == 1 and "digest" in fails[0]
    # so is a later pass that differs from the first
    assert len(run.failures(fedpex, runs, [bumped] + results[1:], reference=results)) == 1


def test_output_checks_flag_broken_results():
    runs = tiny("mab_long")
    results = run.run_pass(fedpex, runs)
    sync = next(i for i, r in enumerate(runs) if r.algo.episode_len)
    event = next(i for i, r in enumerate(runs) if r.algo.event_triggered)
    off_by_two = dataclasses.replace(results[sync], comm_cost=results[sync].comm_cost + 2)
    assert "episode_len" in workloads.check(fedpex, runs[sync], off_by_two)
    over = dataclasses.replace(results[event], comm_cost=10**9)
    assert "bound" in workloads.check(fedpex, runs[event], over)
    capped = dataclasses.replace(runs[event], config=dataclasses.replace(runs[event].config, max_rounds=6))
    assert "terminate" in workloads.check(fedpex, capped, workloads.execute(fedpex, capped))


@pytest.mark.parametrize("name", NAMES)
def test_tracing_restores_every_attribute_and_keeps_results(name):
    before = fedpex_bindings()
    runs = tiny(name)
    plain = run.run_pass(fedpex, runs)
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        with tracer.installed():
            assert fedpex.runner.solve_l1 is fedpex.linear.solve_l1 is not before[("fedpex.linear", "solve_l1")]
            assert fedpex.baselines.run_famabpe is not before[("fedpex.baselines", "run_famabpe")]
            traced = run.run_pass(fedpex, runs)
        stats, n_distinct = tracer.take()
        metrics = tracing.layer_metrics(stats, n_distinct, runs, traced)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert run.pass_digest(traced) == run.pass_digest(plain)
    after = fedpex_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == []
    assert counts[0] == counts[1]
    family_zero = "linear" if name.startswith("mab") else "mab"
    assert counts[0][f"{family_zero}.check_trigger.calls"] == 0
    if name.startswith("mab"):
        assert counts[0]["linalg.cholesky.calls"] == counts[0]["design_lp.solve_l1.calls"] == 0


def test_removed_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(fedpex.mab, "download_mab")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["mab.download_mab"]


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_stream_repeats_the_pool_with_fresh_run_seeds():
    workload = workloads.WORKLOADS["mab_wide"]
    pool = workload.pool_size()
    stream = workloads.groups(fedpex, workload, 3)
    first = [next(stream) for _ in range(2 * pool)]
    assert first[:pool] == workloads.first_pass(fedpex, workload, 3)
    assert first[pool][0].instance is first[0][0].instance
    assert first[pool][0].config.seed != first[0][0].config.seed


def test_metric_names_and_predictions():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    layers = json.loads((run.BENCH / "predictions.json").read_text(encoding="utf-8"))["layers"]
    for m in BENCHMARK["per_layer"]:
        assert any(m["name"] == key or m["name"].startswith(key + ".") for key in layers), m["name"]
        assert m["unit"] == tracing.unit(m["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_invocation_prints_every_metric(trace, key):
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "mab_long", "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert {"python", "numpy", "blas_threads", "nproc", "cpu"} <= set(info["env"])
