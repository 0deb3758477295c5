"""Simulator benchmark: simulated rounds per second of seeded fedpex runs.

    python3 bench/run.py --workload mab_long --seed 0 --seconds 30 --trace 0

One invocation generates the workload's instance pool from --seed, then
runs groups, each one instance of the pool run once by every algorithm of
the workload with a fresh run seed, back to back until --seconds have
elapsed and at least one pass over the pool is done: a closed loop of one
caller. Every result is checked from outside the program, the first pass is
compared with its recorded digest when --seed has one, and the recorded
digests of the oracle run sets are recomputed.

With --trace 0 the end-to-end metrics are reported: rounds_per_s is the
summed tau of every run over the wall time of the loop, and run_ms_p50 and
run_ms_tail are percentiles of the wall time of a group. With --trace 1 the
first pass is replayed, alternating untraced and traced passes, and the
per-layer metrics of the traced passes are reported instead (self times per
pass, counts of one pass).

Output: one JSON line with the environment, sample counts, digests and
failures, then, last, one JSON object {"correct", "attempted", "failed",
"metrics"}. Exit status 0 when every check holds, 1 when a run failed or a
digest differs, 2 when fedpex cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"

# BLAS is pinned to one thread so that no run uses more threads than a
# small box has cores; the variables must be set before numpy is imported.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def load_fedpex():
    """Import fedpex from this checkout's src/, never from elsewhere."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fedpex

    if not Path(fedpex.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fedpex was imported from {fedpex.__file__}, not from {src}")
    return fedpex


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (see probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(fedpex, runs) -> list:
    """Results of `runs` in order; a run that raised leaves its exception."""
    results = []
    for run in runs:
        try:
            result = workloads.execute(fedpex, run)
        except Exception as exc:  # a failed run is counted, the loop goes on
            result = exc
        results.append(result)
    return results


def failures(fedpex, runs, results, reference=None) -> list[str]:
    """One message per failed run: it raised, failed a check, or differs
    from the same run in `reference`."""
    out = []
    for i, (run, res) in enumerate(zip(runs, results)):
        if isinstance(res, Exception):
            msg = f"raised {res!r}"
        elif reference is None:
            msg = workloads.check(fedpex, run, res)
        elif isinstance(reference[i], Exception) or res.to_json() != reference[i].to_json():
            msg = "result differs from the first pass"
        else:
            msg = None
        if msg:
            out.append(f"run {i} ({run.algo.label}): {msg}")
    return out


def pass_digest(results) -> str | None:
    if any(isinstance(r, Exception) for r in results):
        return None
    return workloads.digest(results)


def flat(groups) -> list:
    return [run for group in groups for run in group]


def check_oracle(fedpex, workload, recorded: dict) -> tuple[int, list[str], dict]:
    """Recompute the tiny-scale digest at every recorded seed."""
    attempted, fails, seen = 0, [], {}
    if not recorded:
        fails.append(f"no recorded oracle digest for {workload.name}")
    for seed, want in recorded.items():
        runs = flat(workloads.first_pass(fedpex, workload, int(seed), tiny=True))
        results = run_pass(fedpex, runs)
        attempted += len(runs)
        fails += [f"oracle seed {seed}, {m}" for m in failures(fedpex, runs, results)]
        seen[seed] = got = pass_digest(results)
        if got != want:
            fails.append(f"oracle seed {seed}: digest {got} != recorded {want}")
    return attempted, fails, seen


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile of `values` that leaves at least
    ten samples beyond it, as (value, percentile, samples beyond); the
    maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def timed(fedpex, workload, seed: int, seconds: float, info: dict) -> tuple[dict, list[str], int]:
    """Run groups until `seconds` have elapsed and one pass is done."""
    pool = workload.pool_size()
    stream = workloads.groups(fedpex, workload, seed)
    done, group_s = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(done) < pool or time.perf_counter() < deadline:
        group = next(stream)
        began = time.perf_counter()
        results = run_pass(fedpex, group)
        group_s.append(time.perf_counter() - began)
        done.append((group, results))
    loop_s = time.perf_counter() - start
    fails = []
    for i, (group, results) in enumerate(done):
        fails += [f"group {i}, {m}" for m in failures(fedpex, group, results)]
    first = [r for _, results in done[:pool] for r in results]
    rounds = sum(r.tau for _, results in done for r in results if not isinstance(r, Exception))
    tail_s, tail_pct, beyond = tail(group_s)
    info.update(
        groups=len(done),
        runs_per_group=len(workload.algos),
        pool=pool,
        loop_s=loop_s,
        rounds=rounds,
        tail_pct=tail_pct,
        groups_beyond_tail=beyond,
        pass_digest=pass_digest(first),
    )
    metrics = {
        "rounds_per_s": (rounds / loop_s, "1/s"),
        "run_ms_p50": (statistics.median(group_s) * 1e3, "ms"),
        "run_ms_tail": (tail_s * 1e3, "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, fails, len(done) * len(workload.algos)


def traced(fedpex, runs, seconds: float, info: dict) -> tuple[dict, list[str], int]:
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    per_pass = []
    fails: list[str] = []
    attempted = 0
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain = run_pass(fedpex, runs)
        untraced_s += time.perf_counter() - start
        with tracer.installed():
            start = time.perf_counter()
            results = run_pass(fedpex, runs)
            traced_s += time.perf_counter() - start
        attempted += 2 * len(runs)
        stats, n_distinct = tracer.take()
        if reference is None:
            reference = plain
            fails += failures(fedpex, runs, plain)
        else:
            fails += failures(fedpex, runs, plain, reference=reference)
        fails += [f"traced {m}" for m in failures(fedpex, runs, results, reference=reference)]
        if any(isinstance(r, Exception) for r in results):
            break
        per_pass.append((stats, tracing.layer_metrics(stats, n_distinct, runs, results)))
        if time.perf_counter() >= deadline:
            break
    if not per_pass:
        return {}, fails, attempted
    first = per_pass[0][1]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.fmean(m[name] for _, m in per_pass)
        elif any(m[name] != value for _, m in per_pass):
            fails.append(f"{name} differs between traced passes")
        metrics[name] = (value, tracing.unit(name))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.wall_s"] = (traced_s / len(per_pass), "s")
    info.update(
        passes=len(per_pass),
        absent=tracer.absent,
        spans={f"{span} {fn}": rec for (span, fn), rec in sorted(per_pass[0][0].items())},
        pass_digest=pass_digest(reference),
    )
    return metrics, fails, attempted


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        fedpex = load_fedpex()
    except ImportError as exc:
        print(f"cannot import fedpex from this checkout: {exc}", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))

    attempted, fails, oracle = check_oracle(fedpex, workload, recorded["oracle"].get(workload.name, {}))

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    if args.trace:
        runs = flat(workloads.first_pass(fedpex, workload, args.seed))
        metrics, loop_fails, loop_runs = traced(fedpex, runs, args.seconds, info)
    else:
        metrics, loop_fails, loop_runs = timed(fedpex, workload, args.seed, args.seconds, info)
        metrics["setup_s"] = (measure_setup(workload.name, args.seed), "s")
    attempted += loop_runs
    fails += loop_fails
    want = recorded["pass"].get(workload.name, {}).get(str(args.seed))
    if want is not None and info.get("pass_digest") != want:
        fails.append(f"pass digest {info.get('pass_digest')} != recorded {want}")

    info.update(oracle=oracle, failed_runs=len(fails) / attempted, failures=fails[:20])
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
