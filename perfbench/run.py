"""Benchmark entry point: run one workload in a fresh worker process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridlines checkout; the package is imported from
its src/ directory, never from an installed copy.  The worker runs
single-threaded (BLAS/OpenMP thread counts pinned to 1), and its last
line of standard output, a JSON object with the keys correct, attempted,
failed and metrics, is passed through.  The exit code is the worker's,
or non-zero if there are no gridlines sources to benchmark.
"""

import time

STARTED_NS = time.monotonic_ns()  # set-up time is measured from here

import argparse  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridlines" / "__init__.py").is_file():
        print(f"perfbench: no gridlines sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--started-ns", str(STARTED_NS),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, **PINNED_ENV),
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
