"""Machine references measured in the same process as the workload, and
the record of the software and thread setup that produced the numbers.

Every number leaves here as a plain int or float, so the printed record does
not depend on how a numpy version spells its scalars.
"""

import os
import platform
import time

import numpy as np

GEMM_N = 2048
_DEFAULT_LLC = 105 * 2 ** 20


def gemm_gflops(n=GEMM_N, reps=5):
    """Best float64 n x n matmul rate over `reps` runs, in GF/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = np.empty((n, n))
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def copy_gbs(array_bytes, reps=3):
    """Best copy rate between two float64 arrays of `array_bytes` each, in
    GB/s; bytes moved are computed as one read plus one write per element."""
    src = np.ones(array_bytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best / 1e9


def llc_bytes():
    """Size of the highest-level cache cpu0 reports, or 105 MiB."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        entries = os.listdir(base)
    except OSError:
        return _DEFAULT_LLC
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, (level, int(digits) * scale))
    return best[1] or _DEFAULT_LLC


def references():
    """The roofline corners: GEMM peak and copy bandwidth, with sizes."""
    llc = llc_bytes()
    copy_bytes = 4 * llc
    return {
        "gemm_gflops": gemm_gflops(),
        "gemm_n": GEMM_N,
        "copy_gbs": copy_gbs(copy_bytes),
        "copy_array_bytes": copy_bytes,
        "llc_bytes": llc,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown", "config": "unknown"}
    return {"name": str(deps.get("name", "unknown")),
            "version": str(deps.get("version", "unknown")),
            "config": str(deps.get("openblas configuration", "unknown"))}


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MGDFIS_THREADS": os.environ.get("MGDFIS_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": int(llc_bytes()),
    }
