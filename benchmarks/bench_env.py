"""Where the benchmarked code lives, how BLAS is pinned, and the environment block.

Standard library only: run.py and the child scripts import this before numpy,
so the BLAS thread count is fixed before OpenBLAS starts its thread pool.
"""

import glob
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

# One thread is the plain single-threaded baseline; at N = 51 the thread
# count changes the descent's results in the last digits.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PIN_METHOD = (
    "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS set by the harness "
    "before numpy is imported; inherited by every child process"
)


class CheckoutError(RuntimeError):
    """The checkout has no circulant_ilc sources to benchmark."""


def pin_blas():
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def pin_cpu():
    """Keep this process and its children on one CPU, where the speed probe runs too."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def use_checkout_src():
    """Put the checkout's src/ first on sys.path and refuse any other copy."""
    if not (SRC / "circulant_ilc" / "__init__.py").is_file():
        raise CheckoutError(f"no circulant_ilc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import circulant_ilc

    where = Path(circulant_ilc.__file__).resolve()
    if SRC not in where.parents:
        raise CheckoutError(f"imported circulant_ilc from {where}, not from {SRC}")
    return circulant_ilc


def child_env():
    """Environment for child interpreters: pinned BLAS and the checkout's src/."""
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _blas_threads_reported():
    """Thread count OpenBLAS itself reports, or None if the library is not found."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def _src_digest():
    """SHA-256 over src/ files (path and content), for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_block(seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "blas_threads_set_by": BLAS_PIN_METHOD,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }
