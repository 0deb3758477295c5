"""Outside-in span tracer for the simulator benchmark.

Wraps the public functions of each fedpex module (the layers), in every
module namespace that binds them, and records per span its call count,
self time (its duration minus the part its child spans cover), total time
and, for the upload triggers, how often it fired. Spans stay in memory and are read out
once per pass. Nothing inside the package is edited; `restore` puts every
original function back.

A call is attributed to the span that caused it: `bonuses_mab` called by a
driver loop is a stop check, while the same call inside a download is part
of target selection and is not a span of its own.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "fedpex"
DRIVERS = ("runner.loop", "baselines.sync_loop")


@dataclass(frozen=True)
class Target:
    module: str  # submodule of the package that defines the function
    function: str
    span: str
    # Parent spans under which the call opens its span; None means under any
    # parent. Under other parents, and under a span of the same name, the
    # call is part of its caller's span.
    scope: tuple[str, ...] | None = None
    counted: bool = True  # whether a call adds to the span's call count
    fires: bool = False  # whether a true return counts as a trigger firing
    distinct: bool = False  # whether the (contexts, y) arguments are recorded


TARGETS = (
    Target("runner", "run_famabpe", "runner.loop"),
    Target("runner", "run_falinpe", "runner.loop"),
    Target("baselines", "run_synchronous", "baselines.sync_loop"),
    Target("core", "sample_reward_mab", "core.sample_reward"),
    Target("core", "sample_reward_linear", "core.sample_reward"),
    Target("mab", "check_trigger_mab", "mab.check_trigger", fires=True),
    Target("mab", "server_merge_mab", "mab.server_merge"),
    Target("mab", "bonuses_mab", "mab.stop_check", scope=DRIVERS, counted=False),
    Target("mab", "breaking_index", "mab.stop_check"),
    Target("mab", "download_mab", "mab.target_select"),
    Target("mab", "agent_target_mab", "mab.target_select"),
    Target("linear", "check_trigger_hybrid", "linear.check_trigger", fires=True),
    Target("linear", "server_merge_linear", "linear.server_merge"),
    Target("linear", "stopping_linear", "linear.stop_check"),
    Target("linear", "download_linear", "linear.target_select"),
    Target("linear", "c_scalar", "linear.target_select", scope=DRIVERS, counted=False),
    Target("linear", "rls_estimate", "linear.target_select", scope=DRIVERS, counted=False),
    Target("linear", "select_pair_linear", "linear.target_select", scope=DRIVERS, counted=False),
    Target("linear", "choose_informative_arm", "linear.target_select"),
    Target("linear", "select_arm_greedy", "linear.greedy"),
    Target("linalg", "cholesky", "linalg.cholesky"),
    Target("linalg", "forward_sub", "linalg.triangular"),
    Target("linalg", "back_sub", "linalg.triangular"),
    Target("design_lp", "solve_l1", "design_lp.solve_l1", distinct=True),
)

# Per-layer metrics read from the spans, as (span, fields).
SPAN_METRICS = (
    ("core.sample_reward", ("calls", "self_s")),
    ("runner.loop", ("self_s",)),
    ("mab.check_trigger", ("calls", "self_s", "fire_ratio")),
    ("mab.server_merge", ("calls", "self_s")),
    ("mab.stop_check", ("calls", "self_s")),
    ("mab.target_select", ("calls", "self_s")),
    ("linear.check_trigger", ("calls", "self_s", "total_s", "fire_ratio")),
    ("linear.stop_check", ("calls", "self_s", "total_s")),
    ("linear.target_select", ("calls", "self_s", "total_s")),
    ("linear.greedy", ("calls", "self_s", "total_s")),
    ("linear.server_merge", ("calls", "self_s")),
    ("linalg.cholesky", ("calls", "self_s")),
    ("linalg.triangular", ("self_s",)),
    ("design_lp.solve_l1", ("calls", "self_s")),
    ("baselines.sync_loop", ("self_s",)),
)


class Tracer:
    """Installs wrappers for TARGETS into the modules of the package."""

    def __init__(self):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = [[None, 0.0]]
        self.reset()

    def reset(self) -> None:
        # (span, "module.function") -> [calls, self s, total s, fires]
        self.stats: dict[tuple[str, str], list] = {}
        self.distinct: set[bytes] = set()

    def take(self) -> tuple[dict, int]:
        """The spans and distinct LP targets recorded since the last take."""
        out = (self.stats, len(self.distinct))
        self.reset()
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        prefix = PACKAGE + "."
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        self.absent = []
        for target in TARGETS:
            mod = sys.modules.get(prefix + target.module)
            original = getattr(mod, target.function, None)
            if not callable(original):
                self.absent.append(f"{target.module}.{target.function}")
                continue
            wrapper = self._wrap(target, original)
            for ns in modules:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrap(self, target: Target, fn):
        stack = self._stack
        clock = time.perf_counter
        span = target.span
        scope = target.scope
        counted = int(target.counted)
        fires = target.fires
        key = (span, f"{target.module}.{target.function}")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == span or (scope is not None and parent[0] not in scope):
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = tracer.stats.get(key)
                if rec is None:
                    rec = tracer.stats[key] = [0, 0.0, 0.0, 0]
                rec[0] += counted
                rec[1] += elapsed - frame[1]
                rec[2] += elapsed
            if fires and result:
                rec[3] += 1
            if target.distinct:
                contexts, y = args[:2]
                tracer.distinct.add(contexts.tobytes() + y.tobytes())
            return result

        return functools.update_wrapper(wrapper, fn)


def unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_round"):
        return "1/round"
    return "ratio"


def span_totals(stats: dict) -> dict[str, list]:
    """Fold the per-function records of `stats` into one record per span."""
    totals: dict[str, list] = {}
    for (span, _fn), rec in stats.items():
        acc = totals.setdefault(span, [0, 0.0, 0.0, 0])
        for i, value in enumerate(rec):
            acc[i] += value
    return totals


def layer_metrics(stats: dict, n_distinct: int, runs, results) -> dict[str, float]:
    """Per-layer metrics of one traced pass of `runs` with `results`."""
    spans = span_totals(stats)
    out: dict[str, float] = {}
    for span, fields in SPAN_METRICS:
        calls, self_s, total_s, fired = spans.get(span, (0, 0.0, 0.0, 0))
        values = {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "fire_ratio": fired / calls if calls else 0.0,
        }
        for field in fields:
            out[f"{span}.{field}"] = values[field]
    rounds = sum(r.tau for r in results)
    kernel_calls = spans.get("linalg.cholesky", (0,))[0] + spans.get("linalg.triangular", (0,))[0]
    out["linalg.calls_per_round"] = kernel_calls / rounds
    lp_calls = out["design_lp.solve_l1.calls"]
    out["design_lp.solve_l1.distinct_ratio"] = n_distinct / lp_calls if lp_calls else 0.0
    event = [r for run, r in zip(runs, results) if run.algo.event_triggered]
    out["runner.messages_per_round"] = (
        sum(r.comm_cost for r in event) / sum(r.tau for r in event) if event else 0.0
    )
    for family in ("mab", "linear"):
        fam = [r for run, r in zip(runs, results) if run.family == family]
        downloads = sum(r.n_downloads for r in fam)
        out[f"{family}.target_select.switch_ratio"] = (
            sum(r.switch_cost for r in fam) / downloads if downloads else 0.0
        )
    return out
