"""Benchmark of qustat's CLI experiments, end to end and per module.

    python3 perfbench/run.py --workload finite-n --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout of the repository and imports the
program from its `src/` directory.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; earlier
lines starting with "perfbench" record the environment, the raw samples and
the trace.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    from qsbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qustat" / "__init__.py").is_file():
        sys.stderr.write("perfbench: the program's sources are missing: no %s\n"
                         % (SRC / "qustat" / "__init__.py"))
        return 2
    # a terminated run still stops its child processes and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # BLAS threads are pinned to the usable cores before numpy loads, here and in children
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    from qsbench import bench

    return bench.main(args, threads)


if __name__ == "__main__":
    sys.exit(main())
