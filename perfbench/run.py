"""Run one layoutedit benchmark workload and print its result.

    python3 perfbench/run.py --workload {train,edit,condition} --seed N \
        --seconds S --trace {0,1} [--quick]

The workload runs in a process of its own (perfbench/harness.py) with
the BLAS thread count pinned and QL_SEED removed from its environment.
The last stdout line is the JSON result; with --trace 1 it holds the
per-layer metrics instead of the end-to-end ones. Without a result the
exit code is not 0.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One BLAS thread: on the 2-vCPU machine the benchmark was sized on, a
# second thread doubled CPU use without making denoiser passes faster,
# and it made the timings depend more on other tenants' load.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175


def main(argv) -> int:
    start = time.monotonic()
    env = dict(os.environ)
    env.pop("QL_SEED", None)
    for var in BLAS_VARIABLES:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    cmd = [sys.executable, str(HERE / "harness.py")] + list(argv)
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"workload did not finish within {TIMEOUT_S} s\n")
        sys.stderr.write(e.stdout or "")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"workload exited with {proc.returncode} after "
                         f"{time.monotonic() - start:.1f} s\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
