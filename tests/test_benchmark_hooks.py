"""The traced benchmark run (benchmark/traced.py) wraps program names by attribute.

A rename under src/ would make its ``setattr`` patch a name nothing calls,
or fail outright, so each name it patches must still exist.
"""
import importlib.util
from pathlib import Path

from fisherwatch import detect

TRACED = Path(__file__).resolve().parents[1] / "benchmark" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("benchmark_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    traced = load_traced()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in traced.traced_functions()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
    assert set(detect._SCANS) == set(traced.METHODS)
    assert all(callable(f) for f in detect._SCANS.values())
