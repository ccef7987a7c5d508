"""Single-threaded BLAS for the per-window kernels, and scipy's on demand.

Every product on the hot path is p x p or p x d with p in the tens to
low hundreds. At that size OpenBLAS's worker threads cost more in
wake-up and hand-off than they save: with two threads a localization
run spends most of its wall time in thread synchronization. numpy and
scipy each bundle their own OpenBLAS, so both pools are pinned.

The screen and ``simulate`` need numpy alone, so nothing here loads
scipy until an engine asks for it through :func:`scipy_blas_lapack`.
That loads only scipy's two compiled BLAS and LAPACK wrapper modules,
never the ``scipy.linalg`` package, whose import pulls in hundreds of
modules the engines do not use. This is the one module that knows
scipy. Its pool is pinned from then on: by the next block to enter, or
at once when the first load falls inside an open block.
"""
from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

#: the extension module that links scipy's bundled OpenBLAS
_SCIPY_BLAS = "scipy.linalg._fblas"


@functools.cache
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


def _pools() -> tuple:
    """The loaded pools with thread controls: numpy's, then scipy's once loaded."""
    found = [_pool("numpy._core._multiarray_umath", "64_")]
    if _SCIPY_BLAS in sys.modules:
        found.append(_pool(_SCIPY_BLAS, ""))
    return tuple(p for p in found if p is not None)


# The thread counts are process-wide, while a caller may run the pinned
# entry points on several of its own Python threads at once. The first
# block to enter saves and pins, the last to leave restores; the lock
# keeps a leaving block from unpinning a running one.
_lock = threading.Lock()
_depth = 0
_saved: list = []  # (set, count before the pin) of each pinned pool


def _pin_unsaved():
    """Save and pin each loaded pool that the open blocks have not pinned yet."""
    for get, set_ in _pools():
        if all(set_ is not pinned for pinned, _ in _saved):
            _saved.append((set_, get()))
            set_(1)


@contextmanager
def single_threaded():
    """Pin every loaded bundled OpenBLAS pool to one thread, then restore it.

    Blocks may nest and may overlap across Python threads; the previous
    counts come back when the last one exits. Where no pool exposes its
    thread controls, this does nothing.
    """
    global _depth
    with _lock:
        if _depth == 0:
            _pin_unsaved()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, n in _saved:
                    set_(n)
                _saved.clear()


def _extension(name: str, directory: Path):
    """The compiled module ``name`` from its file in ``directory``.

    A module already in ``sys.modules`` is reused; a new one is
    registered there, so a later ``import scipy.linalg`` re-exports this
    same module instead of loading a second copy.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [str(directory)])
    if spec is None:
        stem = name.rpartition(".")[2]
        suffixes = ",".join(importlib.machinery.EXTENSION_SUFFIXES)
        raise ImportError(f"{name}: no file {stem}{{{suffixes}}} in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.cache
def scipy_blas_lapack():
    """(fblas, flapack): scipy's compiled BLAS and LAPACK wrappers.

    Loaded on the first call from their files in scipy's ``linalg``
    directory. These are the f2py modules that ``scipy.linalg.blas`` and
    ``scipy.linalg.lapack`` re-export, so ``fblas.dger`` is
    ``scipy.linalg.blas.dger``; the ``scipy.linalg`` package itself is
    not imported. A missing file raises :class:`ImportError` naming it.
    A first call inside an open :func:`single_threaded` block pins
    scipy's pool at once, and the last block to exit restores it.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    directory = Path(spec.submodule_search_locations[0], "linalg")
    with _lock:
        modules = tuple(_extension(name, directory)
                        for name in (_SCIPY_BLAS, "scipy.linalg._flapack"))
        if _depth:
            _pin_unsaved()
    return modules
