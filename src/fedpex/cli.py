"""Command-line interface: instance generation, experiment execution with
seed sweeps, and theory diagnostics.

Exit codes: 0 success, 1 runtime or invariant failure, 2 usage error. The
commands raise ValueError for a usage error, and only main turns an error
into its exit code and one `error:` line.
Setting FEDPEX_AUDIT=1 audits famabpe and falinpe runs at every message and
at the run's end; the baselines run unaudited.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from .baselines import SyncConfig, run_single_agent, run_synchronous
from .core import (
    GenerationError,
    MabInstance,
    RunConfig,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    load_instance,
    make_rng,
    save_instance,
)
from .runner import AuditError, compute_theory_diagnostics, run_falinpe, run_famabpe

CSV_COLUMNS = [
    "algo",
    "instance",
    "seed",
    "tau",
    "comm_cost",
    "init_comm",
    "switch_cost",
    "correct",
    "best_arm_true",
    "best_arm_est",
    "terminated",
    "runtime_ms",
]

ALGOS = ("famabpe", "falinpe", "ugapec-single", "ugapec-sync", "lingape-single", "lingape-sync")
_MAB_ALGOS = ("famabpe", "ugapec-single", "ugapec-sync")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedpex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--type", required=True, choices=("mab", "linear"))
    gen.add_argument("--k", type=int, required=True, help="arm count")
    gen.add_argument("--d", type=int, default=None, help="context dimension (linear)")
    gen.add_argument("--gap", type=float, required=True, help="minimum reward gap")
    gen.add_argument("--sigma", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run repetitions of an algorithm, append CSV rows")
    run.add_argument("--algo", required=True, choices=ALGOS)
    run.add_argument("--instance", default=None, help="instance JSON path")
    run.add_argument("--gap-sweep", default=None, metavar="START:STOP:STEP",
                     help="generate instances over a gap range instead of --instance")
    run.add_argument("--k", type=int, default=5)
    run.add_argument("--d", type=int, default=5)
    run.add_argument("--sigma", type=float, default=0.3)
    run.add_argument("--gen-seed", type=int, default=1000, help="seed for --gap-sweep instances")
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument("--out", required=True, help="results CSV path (appended)")

    bounds = sub.add_parser("bounds", help="emit complexity diagnostics as JSON")
    bounds.add_argument("--instance", required=True)
    # a run and its bounds take the same confidence and trigger parameters
    for both in (run, bounds):
        both.add_argument("--delta", type=float, default=0.05)
        both.add_argument("--epsilon", type=float, default=0.0)
        both.add_argument("--agents", type=int, default=1, help="agent count M")
        both.add_argument("--gamma", type=float, default=None)
        both.add_argument("--gamma1", type=float, default=None)
        both.add_argument("--gamma2", type=float, default=None)
        both.add_argument("--lambda", dest="ridge", type=float, default=None)
    run.add_argument("--arm-select", choices=("lp", "greedy"), default="lp")
    run.add_argument("--greedy-sense", choices=("min", "max"), default="min")
    run.add_argument("--activation", choices=("uniform-random", "round-robin"),
                     default="uniform-random")
    run.add_argument("--episode-len", type=int, default=100, help="sync baseline episode length")
    run.add_argument("--max-rounds", type=int, default=10_000_000)
    bounds.add_argument("--tau", type=int, default=None,
                        help="evaluate the communication bound at this sample complexity")
    bounds.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return parser


def cmd_gen(args) -> int:
    rng = make_rng(args.seed)
    if args.type == "mab":
        inst = gen_gap_instance_mab(args.k, args.gap, rng, sigma=args.sigma)
    elif args.d is None:
        raise ValueError("--d is required for linear instances")
    else:
        inst = gen_gap_instance_linear(args.d, args.k, args.gap, rng, sigma=args.sigma)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: best_arm={inst.best_arm()} min_gap={inst.min_gap():.6g}")
    return 0


# the config fields of the confidence and trigger arguments that run and bounds share
_SHARED = ("delta", "epsilon", "gamma", "gamma1", "gamma2", "ridge")


def _make_config(args, seed: int):
    names = _SHARED + ("arm_select", "greedy_sense", "activation")
    base = {name: getattr(args, name) for name in names}
    base.update(n_agents=args.agents, seed=seed, max_rounds=args.max_rounds)
    if args.algo.endswith("-sync"):
        return SyncConfig(episode_len=args.episode_len, **base)
    return RunConfig(**base)


def _dispatch(algo: str, instance, config, audit: bool):
    if algo == "famabpe":
        return run_famabpe(instance, config, audit=audit)
    if algo == "falinpe":
        return run_falinpe(instance, config, audit=audit)
    if algo in ("ugapec-single", "lingape-single"):
        return run_single_agent(instance, config)
    return run_synchronous(instance, config)


_MAX_SWEEP_POINTS = 10_000


def _parse_sweep(text: str) -> list[float]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError("--gap-sweep expects START:STOP:STEP") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("--gap-sweep needs finite START, STOP and STEP")
    if step <= 0 or stop < start:
        raise ValueError("--gap-sweep requires step > 0 and stop >= start")
    span = (stop - start) / step  # the sweep has round(span) + 1 points; span may be inf
    if not span < _MAX_SWEEP_POINTS - 0.5:
        raise ValueError(f"--gap-sweep has more than {_MAX_SWEEP_POINTS} points")
    gaps = [round(start + i * step, 12) for i in range(int(round(span)) + 1)]
    if not (0.0 < gaps[0] and gaps[-1] < 1.0):  # the points increase
        raise ValueError("--gap-sweep points must lie in (0, 1)")
    return gaps


def cmd_run(args) -> int:
    is_mab_algo = args.algo in _MAB_ALGOS
    # usage errors and a bad config fail before any instance is generated
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    config = _make_config(args, args.seed_base)
    jobs: list[tuple[str, object]] = []  # (label, instance)
    if args.gap_sweep is not None:
        kind = "mab" if is_mab_algo else "linear"
        config.resolved(args.k)  # every sweep instance has --k arms
        for idx, gap in enumerate(_parse_sweep(args.gap_sweep)):
            rng = make_rng(args.gen_seed + idx)
            if is_mab_algo:
                inst = gen_gap_instance_mab(args.k, gap, rng, sigma=args.sigma)
            else:
                inst = gen_gap_instance_linear(args.d, args.k, gap, rng, sigma=args.sigma)
            jobs.append((f"{kind}(gap={gap:g},seed={args.gen_seed + idx})", inst))
    elif args.instance is not None:
        inst = load_instance(args.instance)
        if isinstance(inst, MabInstance) != is_mab_algo:
            raise ValueError(f"algo {args.algo} is incompatible with instance type")
        jobs.append((args.instance, inst))
    else:
        raise ValueError("provide --instance or --gap-sweep")
    # resolving against each instance checks max_rounds against its arm count
    for _label, inst in jobs:
        config.resolved(inst.k_arms)
    audit = os.environ.get("FEDPEX_AUDIT", "") == "1"
    new_file = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
    if not new_file:
        # rows may only follow the v1 header and a complete last line
        with open(args.out, "rb") as fh:
            header = next(csv.reader([fh.readline().decode("utf-8")]), None)
            fh.seek(-1, os.SEEK_END)
            if header != CSV_COLUMNS or fh.read(1) != b"\n":
                raise ValueError(f"{args.out} is not a v1 results CSV ending in a newline")
    rows_written = 0
    with open(args.out, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for label, inst in jobs:
            agg = {"tau": 0.0, "comm_cost": 0.0, "switch_cost": 0.0, "correct": 0.0}
            for rep in range(args.reps):
                seed = args.seed_base + rep
                config = _make_config(args, seed)
                t0 = time.perf_counter()
                try:
                    result = _dispatch(args.algo, inst, config, audit)
                except AuditError as exc:
                    print(f"invariant violation: {exc}", file=sys.stderr)
                    return 1
                ms = (time.perf_counter() - t0) * 1000.0
                # the columns between seed and runtime_ms are the result's fields
                writer.writerow([args.algo, label, seed, *(getattr(result, c) for c in CSV_COLUMNS[3:-1]), f"{ms:.3f}"])
                rows_written += 1
                for key in agg:
                    agg[key] += getattr(result, key)
            n = float(args.reps)
            print(
                f"{args.algo} {label}: mean tau={agg['tau'] / n:.1f} "
                f"comm={agg['comm_cost'] / n:.1f} switch={agg['switch_cost'] / n:.1f} "
                f"correct={agg['correct'] / n:.2f}"
            )
    print(f"appended {rows_written} rows to {args.out}")
    return 0


def cmd_bounds(args) -> int:
    # the bounds take log2(tau): a run has at least one round
    if args.tau is not None and args.tau < 1:
        raise ValueError("--tau must be >= 1")
    inst = load_instance(args.instance)
    config = RunConfig(n_agents=args.agents, **{name: getattr(args, name) for name in _SHARED})
    report = compute_theory_diagnostics(inst, config, tau=args.tau)
    report["instance"] = args.instance
    if math.isinf(report["complexity"]):
        report["complexity"] = "+inf"
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_bounds(args)
    except (AuditError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
