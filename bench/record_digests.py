"""Record the result digests that bench/run.py checks, in digests.json.

    python3 bench/record_digests.py

For every workload and for the default seed and one held-out seed it
records the sha256 of the ordered RunResult.to_json() lines of
  - "oracle": the tiny run set (workloads.first_pass(..., tiny=True)),
    which every invocation of run.py recomputes, and
  - "pass": the first pass over the instance pool, which run.py checks
    when --seed is that seed.
Rerun it only for a change that announces new per-seed results; a refactor
must leave every digest as it is.
"""

import json
import sys

import run
import workloads

SEEDS = (0, 7919)  # the default seed and a held-out seed


def main() -> int:
    fedpex = run.load_fedpex()
    record = {"oracle": {}, "pass": {}}
    for name, workload in workloads.WORKLOADS.items():
        for kind, tiny in (("oracle", True), ("pass", False)):
            for seed in SEEDS:
                runs = run.flat(workloads.first_pass(fedpex, workload, seed, tiny=tiny))
                results = [workloads.execute(fedpex, r) for r in runs]
                for r, res in zip(runs, results):
                    problem = workloads.check(fedpex, r, res)
                    if problem:
                        raise SystemExit(f"{name} seed {seed}: {problem}")
                record[kind].setdefault(name, {})[str(seed)] = workloads.digest(results)
                print(kind, name, seed, record[kind][name][str(seed)], flush=True)
    run.DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
