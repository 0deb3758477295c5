"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing fedpex (and with it numpy) plus generating the
workload's instance pool and the configs of its first pass. run.py starts this script several times
and reports the median.

    python3 bench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed = argv[1], int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import fedpex

    workloads.first_pass(fedpex, workloads.WORKLOADS[name], seed)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
