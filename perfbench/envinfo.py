"""Thread pinning and the environment record attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every BLAS/OpenMP thread-count variable the common numpy builds read.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(env=None) -> dict:
    """Set every thread variable to 1 in ``env`` (default: this process).

    It must run before numpy is imported: BLAS reads it once, at load.
    """
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "landau_drive").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """CPU count, BLAS library and thread setting, versions and commit."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
