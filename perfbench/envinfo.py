"""Environment block attached to every result.

Host load is read from ``/proc/loadavg`` and the steal column of
``/proc/stat`` before and after a run, so a slow run can be traced to the
host rather than to the code. A virtual machine whose sibling hardware
threads are busy runs slower without reporting steal, so ``host_probe_s``
also times a fixed pure-Python loop. Nothing here writes anywhere.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

PROBE_ITERATIONS = 200_000


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, or None where /proc is absent."""
    try:
        with open("/proc/stat") as fh:
            cpu = fh.readline().split()
    except OSError:
        return None
    return int(cpu[8]) if cpu[0] == "cpu" and len(cpu) > 8 else None


def host_load() -> dict:
    """Load averages, steal ticks and the pure-Python probe time."""
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {"loadavg": loadavg, "steal_ticks": steal_ticks(), "host_probe_s": host_probe_s()}


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop; rises when the host is contended."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _openblas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(paths)


def _call_first(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_runtime() -> list[dict]:
    """Version string and thread count of every loaded OpenBLAS."""
    out = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        threads = _call_first(
            lib,
            [f"{p}get_num_threads{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")],
            ctypes.c_int,
        )
        config = _call_first(
            lib,
            [f"{p}get_config{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")],
            ctypes.c_char_p,
        )
        out.append(
            {
                "library": os.path.basename(path),
                "config": config.decode() if config else None,
                "threads": threads,
            }
        )
    return out


def environment() -> dict:
    """Cores, interpreter and library versions, BLAS build and threads."""
    import numpy
    import scipy

    def blas_build(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_build(numpy),
        "scipy_blas": blas_build(scipy),
        "blas_runtime": blas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
