"""Process set-up shared by the benchmark's entry points; import it before numpy."""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: the benchmark measures the single-threaded baseline.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"


def current_cpu() -> int | None:
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (OSError, AttributeError):
        return None
    return cpu if cpu >= 0 else None


def prepare() -> None:
    """Pin BLAS threads and the CPU, and put the checkout's pxlap sources first on the path.

    The process and the set-up probes it starts stay on the CPU it started
    on: the host reference (hostref.py) must time the core the operations
    run on, and the cores of the shared host drift independently.
    """
    os.environ.update(BLAS_THREADS)
    cpu = current_cpu()
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    if not (SRC / "pxlap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pxlap sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
