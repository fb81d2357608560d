"""Run the fits' linear algebra on one OpenBLAS thread.

With more threads, OpenBLAS splits LAPACK work differently, so a solve's
last bits depend on the thread count, and after each call its idle workers
busy-wait for more work. A fit pins the count to 1 for its duration. The
count is process-wide, so the state below is too: concurrent fits share one
saved value, the first to enter saves it and sets 1, the last to leave
restores it.

The `epp` command goes further: `eppscore.cli` loads numpy with
OPENBLAS_NUM_THREADS=1 unless the caller set it, so OpenBLAS never starts
its worker pool, and a fit there pins 1 to 1. Library callers keep
OpenBLAS's default pool, which is why fits still pin the count here.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager

_NAMES = (  # (get, set): scipy-openblas ILP64 wheels first, then plain builds
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_lock = threading.Lock()
_active = 0  # blocks inside single_thread() with the count pinned
_saved = 0  # the count before the first of them entered


@functools.cache
def _find_controls():
    """OpenBLAS's (get, set) thread-count functions as numpy's LAPACK module
    links them, or None on a build without them (Accelerate, MKL). Looked up
    on first use, not at import: `ctypes` and the lookup cost start-up time."""
    import ctypes

    try:
        from numpy.linalg import _umath_linalg  # private: may move

        # A handle's symbol search covers the libraries the module links.
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextmanager
def single_thread():
    """Pin OpenBLAS to one thread inside the block. Yields 1, or None when
    the library offers no thread control, in which case nothing is set."""
    global _active, _saved
    with _lock:
        controls = _find_controls()
        if controls is not None:
            if _active == 0:
                _saved = controls[0]()
                controls[1](1)
            _active += 1
    try:
        yield None if controls is None else 1
    finally:
        if controls is not None:
            with _lock:
                _active -= 1
                if _active == 0:
                    controls[1](_saved)
