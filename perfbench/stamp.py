"""Machine and knob stamp carried by every benchmark result.

Run as a script (``python3 perfbench/stamp.py``) in the same
environment the program's processes get, it prints one JSON object:
CPU count, the BLAS library numpy loaded and the thread count that
library resolved, the thread environment variables as found, and the
python / numpy / scipy versions.  Results whose stamps differ measure
different machines or knobs and are never compared.

The benchmark reads the environment; it never sets a thread variable,
so a change that fixes the program's own core budget shows up.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

#: Environment knobs recorded as found (``None`` when unset).
KNOBS = ("REPRO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
         "MKL_NUM_THREADS")

#: Symbols that return an OpenBLAS build's resolved thread count.
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas_library() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS resolved, read from the library
    itself (``None`` when no OpenBLAS is mapped into the process)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
        **{name: os.environ.get(name) for name in KNOBS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    print(json.dumps(stamp(), sort_keys=True))
