"""Thread limits and the machine record that goes with every result."""
from __future__ import annotations

import os
import platform
from pathlib import Path

# One client runs jobs back to back, so one BLAS/OpenMP thread (at most nproc)
# keeps the closed loop steady on a small shared box.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1


def limit_threads(env) -> None:
    """Cap every BLAS/OpenMP thread variable in env; call before NumPy loads."""
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Unified/data cache sizes by level, as the kernel reports them for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far; (0, 0) where not reported.

    Steal is time the hypervisor ran something else on our virtual CPUs,
    a sign that the host, not the program, set the pace.
    """
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return 0, 0
    ticks = [int(x) for x in line.split()[1:9]]
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def machine_record() -> dict:
    """nproc, CPU model, cache sizes, thread limits and library versions."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
