"""Facts about the machine and numerical stack a result was measured on."""

import ctypes
import os
import platform
from pathlib import Path

# Symbols that report the OpenBLAS thread count, by build flavour.
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module):
    """Name, version and live thread count of the BLAS ``module`` links."""
    deps = module.show_config(mode="dicts")["Build Dependencies"]
    info = deps.get("blas", {})
    libs = Path(module.__file__).resolve().parent.parent / (
        module.__name__ + ".libs")
    threads = None
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))   # already loaded: same handle
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def facts():
    import numpy
    import scipy
    return {"cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas(numpy),
            "scipy_blas": _blas(scipy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
