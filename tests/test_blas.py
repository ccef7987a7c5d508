import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fisherwatch
from fisherwatch import blas
from fisherwatch.detect import METHODS


def counts():
    return [get() for get, _ in blas._pools()]


@pytest.fixture
def two_threads():
    """Start every pool at two threads, whatever the machine default."""
    before = counts()
    for _, set_ in blas._pools():
        set_(2)
    yield
    for (_, set_), n in zip(blas._pools(), before):
        set_(n)


def test_pins_and_restores(two_threads):
    with blas.single_threaded():
        assert counts() == [1] * len(blas._pools())
        with blas.single_threaded():
            pass
        assert counts() == [1] * len(blas._pools())
    assert counts() == [2] * len(blas._pools())


def test_restores_after_exception(two_threads):
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            raise RuntimeError
    assert counts() == [2] * len(blas._pools())


def test_overlapping_threads_stay_pinned(two_threads):
    # One thread leaving its block must not unpin another still inside,
    # and the last one out must restore the original count.
    unpinned = []

    def worker():
        for _ in range(2000):
            with blas.single_threaded():
                if counts() != [1] * len(blas._pools()):
                    unpinned.append(counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert unpinned == []
    assert counts() == [2] * len(blas._pools())


# Run in a fresh interpreter, so scipy is not loaded when localize enters
# its block: numpy's pool starts at two threads, and so does scipy's, the
# moment its BLAS module loads. The spies read both pools inside the engine:
# at each top-eigenvalue solve (mp) or each Fisher state (dele, deht).
PINNED_SCRIPT = """
import importlib.abc, importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from fisherwatch import blas, io, spectral
from fisherwatch.core import DetectionConfig
from fisherwatch.detect import localize
from fisherwatch.simgen import generate

class StartAtTwo(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name != blas._SCIPY_BLAS:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module
        def exec_and_start_at_two(module):
            exec_module(module)
            blas._pool(name, "")[1](2)
        spec.loader.exec_module = exec_and_start_at_two
        return spec

def counts():
    return [get() for get, _ in blas._pools()]

X, _ = generate(io.parse_scenario(json.loads(sys.argv[3])))
inside = []
method = sys.argv[2]
if method == "mp":
    # on its first call, the engine's loader wraps the LAPACK routine that
    # the engine then fetches from the freshly loaded scipy.linalg
    load = spectral.scipy_linalg
    def load_and_spy():
        linalg = load()
        dsyevx = linalg.lapack.dsyevx
        def spy(*args, **kwargs):
            inside.append(counts())
            return dsyevx(*args, **kwargs)
        linalg.lapack.dsyevx = spy
        spectral.scipy_linalg = load
        return linalg
    spectral.scipy_linalg = load_and_spy
else:
    states = spectral._fisher_states
    def spy(*args):
        for state in states(*args):
            inside.append(counts())
            yield state
    spectral._fisher_states = spy

assert "scipy" not in sys.modules
for _, set_ in blas._pools():
    set_(2)
sys.meta_path.insert(0, StartAtTwo())
localize(X, DetectionConfig(), method=method)
print(json.dumps({"inside": inside, "after": counts()}))
"""


@pytest.mark.parametrize("method", METHODS)
def test_engine_pins_scipy_pool_that_loads_inside_the_block(method):
    scenario = {
        "p": 20, "T": 1200, "seed": 4,
        "events": [{"tau": 600, "kind": "scale-subset", "channels": list(range(1, 9)),
                    "factor": 3.0}],
    }
    src = Path(fisherwatch.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", PINNED_SCRIPT, str(src), method, json.dumps(scenario)],
        capture_output=True, text=True, check=True,
    )
    seen = json.loads(out.stdout)
    assert seen["inside"] and all(c == [1, 1] for c in seen["inside"]), seen["inside"][:3]
    assert seen["after"] == [2, 2]
