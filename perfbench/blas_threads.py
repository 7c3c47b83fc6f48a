"""Wall and CPU time of the interior-disk identity suite under the BLAS
thread setting of the calling environment.

    python3 perfbench/blas_threads.py                          # default threads
    OPENBLAS_NUM_THREADS=1 python3 perfbench/blas_threads.py   # one thread

Run from the root of a checkout. The suite is dense-LAPACK bound (collocation
LU and eigh), so the two commands show what threaded OpenBLAS costs on the
machine; run.py always pins one thread.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(repeats=3):
    sys.path.insert(0, str(ROOT / "src"))
    from btriple import SuiteConfig, run_identity_suite

    config = SuiteConfig(models=({"model": "disk", "side": "interior",
                                  "k_max": 4},))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        report = run_identity_suite(config)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(f"OPENBLAS_NUM_THREADS={threads} wall {wall:.2f} s cpu {cpu:.2f} s "
              f"records {report.summary['passed']}/{report.summary['total']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
