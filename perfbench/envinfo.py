"""The environment a result was measured in, recorded beside every result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Cache sizes of CPU 0 by level, as the kernel reports them (e.g. 'L2': '2048K')."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict mode; the name is informational only
        return "unknown"


def environment(workload, seed: int, seconds: int, trace: bool) -> dict:
    from sweepdepth import costvolume

    thread_count = getattr(costvolume, "_thread_count", None)
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "working_set": workload.working_set(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "SWEEPDEPTH_THREADS": os.environ.get("SWEEPDEPTH_THREADS"),
        "sweep_threads_effective": (thread_count(workload.sweep_shape[1])
                                    if thread_count else None),
        "platform": platform.platform(),
    }
