"""Single-threaded BLAS for the per-window kernels.

Every product on the hot path is p x p or p x d with p in the tens to
low hundreds. At that size OpenBLAS's worker threads cost more in
wake-up and hand-off than they save: with two threads a localization
run spends most of its wall time in thread synchronization. numpy and
scipy each bundle their own OpenBLAS, so both pools are pinned.
"""
from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import contextmanager


def _pool(module_name: str, suffix: str):
    """(get, set) thread-count entry points of one bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module_name).__file__)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@functools.cache
def _pools() -> tuple:
    found = (
        _pool("numpy._core._multiarray_umath", "64_"),
        _pool("scipy.linalg._fblas", ""),
    )
    return tuple(p for p in found if p is not None)


# The thread counts are process-wide, while a caller may run the pinned
# entry points on several of its own Python threads at once. The first
# block to enter saves and pins, the last to leave restores; the lock
# keeps a leaving block from unpinning a running one.
_lock = threading.Lock()
_depth = 0
_saved: list = []


@contextmanager
def single_threaded():
    """Pin every bundled OpenBLAS pool to one thread, then restore it.

    Blocks may nest and may overlap across Python threads; the previous
    counts come back when the last one exits. Where no pool exposes its
    thread controls, this does nothing.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in _pools()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, n in _saved:
                    set_(n)
