"""The traced benchmark run (benchmark/traced.py) wraps program names by attribute.

A rename under src/ would make its ``setattr`` patch a name nothing calls,
or fail outright, so each name it patches must still exist, and the
kernels it times apart must still take the arguments it passes.
"""
import importlib.util
from pathlib import Path

import numpy as np

from fisherwatch import detect
from fisherwatch.core import DetectionConfig, validate_config

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


def test_traced_kernels_run():
    traced = load_traced()
    p, T = 5, 60
    X = np.random.default_rng(0).standard_normal((p, T))
    cfg = validate_config(DetectionConfig(), p)
    times = traced.kernel_microseconds(X, list(range(T - cfg.d + 1)), cfg, seed=0)
    kernels = ("normalize_rows", "sample_covariance", "fisher_trace_sq_dev",
               "fisher_eigenvalues", "window_spectrum")
    assert set(times) == {f"spectral.{k}_us" for k in kernels}
    assert all(t > 0 for t in times.values())


class Counter:
    def __init__(self):
        self.ops = []

    def record(self, op, ok, message=""):
        self.ops.append((op, ok, message))


def test_traced_run_completes(tmp_path):
    # the whole traced path, so a change to what it calls (detect_report's
    # signature, the kappa field) fails here before the benchmark runs
    traced = load_traced()
    # p=20: at p <= 12 the default probe d1 = max(p - 10, 2) is 2 columns
    # wide and seldom completes a run, so no detection would be serialized
    doc = {"p": 20, "T": 720, "seed": 0, "noise_sigma": 1e-4,
           "events": [{"tau": 360, "kind": "scale-subset", "channels": list(range(1, 9)),
                       "factor": 5.0}]}
    counter = Counter()
    metrics, _, extra = traced.run(tmp_path, TRACED.parents[1] / "src", doc, seed=0,
                                   seconds=0, counter=counter)
    assert [op for op in counter.ops if not op[1]] == []
    assert extra["localize_reports_identical"] is True
    assert all(metrics[f"detect.detections_{m}"] >= 1 for m in traced.METHODS)
    # zero where the program calls a writer or scan that the tracer never
    # patched, such as a name bound at import
    assert metrics["io.write_artifacts_s"] > 0
    assert all(metrics[f"detect.scan_{m}_s"] > 0 for m in traced.METHODS)
