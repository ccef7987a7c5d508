import ast
import json
import os
import re
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
# moment the loader brings in its BLAS module. The spies read both pools
# inside the engine: at each top-eigenvalue solve (mp) or each Fisher
# state (dele, deht). The engines may run in forked scan workers, so each
# reading is appended, with its process id, as one line of a file.
PINNED_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from fisherwatch import blas, io, spectral
from fisherwatch.core import DetectionConfig
from fisherwatch.detect import localize
from fisherwatch.simgen import generate

extension = blas._extension
def extension_starting_at_two(name, directory):
    module = extension(name, directory)
    if name == blas._SCIPY_BLAS:
        blas._pool(name, "")[1](2)
    return module

def counts():
    return [get() for get, _ in blas._pools()]

def record():
    with open(sys.argv[4], "a") as log:
        log.write(json.dumps({"pid": os.getpid(), "counts": counts()}) + "\\n")

X, _ = generate(io.parse_scenario(json.loads(sys.argv[3])))
method = sys.argv[2]
if method == "mp":
    # on its first call, the engine's loader wraps the LAPACK routine that
    # the engine then fetches from the freshly loaded module
    load = spectral.scipy_blas_lapack
    def load_and_spy():
        fblas, flapack = load()
        dsyevx = flapack.dsyevx
        def spy(*args, **kwargs):
            record()
            return dsyevx(*args, **kwargs)
        flapack.dsyevx = spy
        spectral.scipy_blas_lapack = load
        return fblas, flapack
    spectral.scipy_blas_lapack = load_and_spy
else:
    states = spectral._fisher_states
    def spy(*args):
        for state in states(*args):
            record()
            yield state
    spectral._fisher_states = spy

assert not any(m.startswith("scipy") for m in sys.modules)
for _, set_ in blas._pools():
    set_(2)
blas._extension = extension_starting_at_two
localize(X, DetectionConfig(), method=method)
print(json.dumps({"pid": os.getpid(), "after": counts()}))
"""


@pytest.mark.parametrize("method", METHODS)
def test_engine_pins_scipy_pool_that_loads_inside_the_block(method, tmp_path):
    # the record screens two intervals of 81 windows: two scan jobs
    scenario = {
        "p": 20, "T": 1200, "seed": 4,
        "events": [{"tau": 600, "kind": "scale-subset", "channels": list(range(1, 9)),
                    "factor": 3.0}],
    }
    src = Path(fisherwatch.__file__).resolve().parents[1]
    log = tmp_path / "inside.jsonl"
    out = subprocess.run(
        [sys.executable, "-c", PINNED_SCRIPT, str(src), method, json.dumps(scenario),
         str(log)],
        capture_output=True, text=True, check=True,
    )
    seen = json.loads(out.stdout)
    inside = [json.loads(line) for line in log.read_text().splitlines()]
    assert inside and all(c["counts"] == [1, 1] for c in inside), inside[:3]
    assert seen["after"] == [2, 2]
    if len(os.sched_getaffinity(0)) >= 2:
        assert any(c["pid"] != seen["pid"] for c in inside)


# The loader's modules must be the ones scipy.linalg re-exports, or a
# later import of scipy.linalg would load a second copy of each.
SAME_MODULES_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fisherwatch.blas import scipy_blas_lapack
fblas, flapack = scipy_blas_lapack()
before = sorted(m for m in sys.modules if m.startswith("scipy"))
import scipy.linalg
routines = [(fblas, scipy.linalg.blas, name) for name in ("dger", "dgemv", "ddot")]
routines += [(flapack, scipy.linalg.lapack, name)
             for name in ("dpotri", "dstev", "dsyevx", "dsygvd")]
copies = [name for loaded, package, name in routines
          if getattr(loaded, name) is not getattr(package, name)]
print(json.dumps({"before": before, "copies": copies}))
"""


def test_later_scipy_linalg_import_reuses_the_loaded_modules():
    src = Path(fisherwatch.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", SAME_MODULES_SCRIPT, str(src)],
        capture_output=True, text=True, check=True,
    )
    seen = json.loads(out.stdout)
    assert seen["before"] == ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert seen["copies"] == []


def test_missing_extension_file_names_it(tmp_path):
    name = "scipy.linalg._fblas_missing"
    with pytest.raises(ImportError, match=rf"^{re.escape(name)}: no file _fblas_missing\{{"):
        blas._extension(name, tmp_path)


def scipy_imports(path):
    """The scipy modules that the import statements of ``path`` name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def test_only_blas_knows_scipy_and_never_imports_scipy_linalg():
    package = Path(fisherwatch.__file__).parent
    found = {str(path.relative_to(package)): scipy_imports(path)
             for path in package.rglob("*.py")}
    assert "blas.py" in found
    assert {name: mods for name, mods in found.items() if mods and name != "blas.py"} == {}
    assert [m for m in found["blas.py"]
            if m == "scipy.linalg" or m.startswith("scipy.linalg.")] == []
