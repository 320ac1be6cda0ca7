"""Cap the BLAS thread pools of a pool worker process.

Every loaded OpenBLAS starts one thread per core.  With ``W`` pool workers
on ``C`` cores that is ``W x C`` BLAS threads fighting over ``C`` cores, and
the Trotter walk's many small GEMMs lose more to the contention than they
gain from threading.  :func:`cap_blas_threads` limits each OpenBLAS in the
calling process to ``max(1, C // W)`` threads — never raising a count the
user already set lower (e.g. through ``OPENBLAS_NUM_THREADS``).

numpy and scipy each bundle their own OpenBLAS (``scipy_openblas64_`` and
``scipy_openblas`` symbol prefixes); a system build exports the plain
``openblas_*`` names.  Libraries are found in ``/proc/self/maps`` and driven
through :mod:`ctypes`, so this needs no third-party package; where no
OpenBLAS can be found (another BLAS, or no ``/proc``) the cap does nothing.
"""

from __future__ import annotations

import ctypes
import os

from repro.campaigns.costmodel import available_cores

#: (set, get) symbol pairs, tried in order on every loaded OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def loaded_openblas() -> dict[str, tuple]:
    """``{library path: (set_num_threads, get_num_threads)}`` of this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[-1]
                for fields in map(str.split, maps)
                if len(fields) >= 6
                and ".so" in fields[-1]
                and "openblas" in os.path.basename(fields[-1]).lower()
            }
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads = getattr(lib, set_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads = getattr(lib, get_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found[path] = (set_threads, get_threads)
                break
    return found


def blas_threads() -> dict[str, int]:
    """The thread count every loaded OpenBLAS reports."""
    return {path: get() for path, (_, get) in loaded_openblas().items()}


def cap_blas_threads(workers: int) -> dict[str, int]:
    """Limit every loaded OpenBLAS to ``max(1, cores // workers)`` threads.

    Only libraries already loaded are capped; pool workers call this after
    importing numpy and scipy.  Returns the resulting per-library thread
    counts (empty when no OpenBLAS is loaded, in which case nothing changes).
    """
    cap = max(1, available_cores() // max(1, workers))
    counts = {}
    for path, (set_threads, get_threads) in loaded_openblas().items():
        if get_threads() > cap:
            set_threads(cap)
        counts[path] = get_threads()
    return counts
