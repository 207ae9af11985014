"""Thread caps and the machine record that goes with every result.

cap_threads() must run before numpy is imported: BLAS and OpenMP read
their thread counts once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap every BLAS/OpenMP pool at the cores this process may run on
    (what `nproc` prints), whatever the environment held before."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread caps must be set before numpy is imported")
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def machine_info(cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": cap,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "platform": platform.platform(),
    }
