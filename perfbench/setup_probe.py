"""Set-up time of one fresh interpreter, for the benchmark's ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the CPU seconds from interpreter start to the end of the workload's
set-up (importing extseq, plus building its inputs), scaled to the nominal
host like every benchmark time, by reference bursts run in this process
just before the imports and just after the set-up.
"""

import time

START_CPU = time.process_time()  # interpreter start-up, before this line

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from meter import burst, scale  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    before = burst()
    start = time.process_time()
    import workloads

    workloads.WORKLOADS[workload](seed, Path(__file__).resolve().parent / "out")
    cpu = START_CPU + time.process_time() - start
    print(repr(cpu * scale(before, burst())))


if __name__ == "__main__":
    main()
