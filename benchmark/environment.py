"""The environment block of a benchmark result, as a fisherwatch process sees it.

    PYTHONPATH=src python3 benchmark/environment.py

prints it as one JSON object. The end-to-end run starts this script with
the same environment as the CLI processes it times, so the OpenBLAS
thread counts are those a fresh ``fisherwatch`` process starts with; the
traced run, which drives the CLI in its own process, imports it instead.
"""
from __future__ import annotations

import json
import os
import platform

import numpy
import scipy

from fisherwatch import blas


def openblas_threads() -> list:
    """Thread count of each bundled OpenBLAS pool that fisherwatch.blas pins.

    numpy's pool comes first, then scipy's; a pool without thread
    controls is left out, as it is by the pin.
    """
    return [get() for get, _ in blas._pools()]


def environment() -> dict:
    found = {}
    for label, show in (("numpy", numpy.show_config), ("scipy", scipy.show_config)):
        try:
            dep = show(mode="dicts")["Build Dependencies"]["blas"]
            found[label] = f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, AttributeError):
            found[label] = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": found,
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FISHERWATCH_THREADS": os.environ.get("FISHERWATCH_THREADS"),
    }


if __name__ == "__main__":
    print(json.dumps(environment()))
