"""The traced run: per-layer metrics from spans recorded around calls into fisherwatch.

The run drives the real command line in-process (``fisherwatch.cli.main``)
on the workload's record: ``simulate`` a few times, then whole rounds of
``screen`` and one ``detect`` per method. For the length of each call the
functions that one layer calls in the next (see :func:`traced_functions`)
are replaced by wrappers that record a span, and the originals are put
back afterwards, so no program file changes. Spans are kept in memory and
written out with the run's record.

The per-window kernels, the CLT closed form and the BLAS pin run thousands
of times per call, and a span around each would cost as much as the work.
They are timed apart instead: the kernels on a seeded sample of the
workload's own windows, the other two in a loop.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

METHODS = ("dele", "deht", "mp")
#: simulate calls per run; the set-up metrics are their medians
SETUP_REPEATS = 3
#: fresh interpreters started to time ``import fisherwatch.cli``
IMPORT_REPEATS = 3
#: windows sampled for the kernel timings, and calls per kernel and window
KERNEL_WINDOWS = 12
KERNEL_REPEATS = 10
#: calls of the closed form and of the BLAS pin, timed in one loop each
LOOP_CALLS = 2000


class Tracer:
    """Spans (name, trace id, start, end, parent id), held until the run ends.

    A span opened on a pool thread, where no span is open yet, gets the
    innermost span open on the main thread as its parent: that is the
    call which started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open: dict[int, list[dict]] = {}
        self._main = threading.main_thread().ident

    @contextmanager
    def span(self, name: str, trace: str):
        stack = self._open.setdefault(threading.get_ident(), [])
        outer = stack or self._open.get(self._main) or [None]
        rec = {"name": name, "trace": trace, "parent": outer[-1] and outer[-1]["id"]}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, trace: str):
        def traced(*args, **kwargs):
            with self.span(name, trace):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def instrument(self, trace: str):
        """Wrap every traced function for the length of the block."""
        from fisherwatch import detect

        targets = traced_functions()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        saved.append((detect, "_SCANS", detect._SCANS))
        for owner, attr, name in targets:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, trace))
        detect._SCANS = {m: self.wrap(f, f"detect.scan_{m}", trace)
                         for m, f in detect._SCANS.items()}
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def named(self, name: str, trace_prefix: str = "") -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and s["trace"].startswith(trace_prefix)]

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]


def traced_functions() -> list[tuple]:
    """(owner, attribute, span name) of each call that crosses a layer.

    Names bound by ``from x import y`` are patched where the caller looks
    them up: ``cli.localize`` and ``detect.screen``, not their modules.
    """
    from fisherwatch import cli, detect, io

    return [
        (cli, "cmd_simulate", "cli.simulate"),
        (cli, "cmd_screen", "cli.screen"),
        (cli, "cmd_detect", "cli.detect"),
        (cli, "generate", "simgen.generate"),
        (cli, "validate_config", "core.validate_config"),
        (cli, "screen", "screening.screen"),
        (cli, "localize", "detect.localize"),
        (detect, "screen", "screening.screen"),
        (io, "StateMatrix", "core.StateMatrix"),
        *[(io, f, f"io.{f}") for f in ("read_state_csv", "write_state_csv", "write_json",
                                       "write_screen_series", "write_detect_traces",
                                       "write_manifest")],
    ]


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def covered(spans) -> float:
    """Wall time covered by the union of the spans' intervals."""
    total, reach = 0.0, -float("inf")
    for s in sorted(spans, key=lambda s: s["start"]):
        lo = max(s["start"], reach)
        if s["end"] > lo:
            total += s["end"] - lo
        reach = max(reach, s["end"])
    return total


def median_duration(spans) -> float:
    return statistics.median(duration(s) for s in spans)


def _per_call_us(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls * 1e6


def import_seconds(src: Path, counter) -> float:
    """Median time of ``import fisherwatch.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import fisherwatch.cli; print(time.perf_counter() - t)")
    runs = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                             text=True, timeout=60)
        counter.record("import", out.returncode == 0, out.stderr.strip())
        if out.returncode == 0:
            runs.append(float(out.stdout))
    return statistics.median(runs)


def kernel_microseconds(X: np.ndarray, windows, cfg, seed: int) -> dict:
    """Median per-call time of each per-window kernel over sampled windows.

    ``windows`` are the 0-based first columns of the scanned windows.
    """
    from fisherwatch import spectral
    from fisherwatch.blas import single_threaded

    d1, d2 = cfg.d1, cfg.d2
    d = d1 + d2
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(windows, size=min(KERNEL_WINDOWS, len(windows)), replace=False)
    times = {k: [] for k in ("normalize_rows", "sample_covariance", "fisher_trace_sq_dev",
                             "fisher_eigenvalues", "window_spectrum")}
    r = KERNEL_REPEATS
    with single_threaded():  # as on the scan path
        for c0 in picks:
            cols = np.ascontiguousarray(X[:, c0 : c0 + d])
            Xn = spectral.normalize_rows(cols)
            S_ref = spectral.sample_covariance(Xn[:, :d2])
            S_probe = spectral.sample_covariance(Xn[:, d2:])
            split = spectral.WindowSplit(start=0, n1=d2, n2=d1, columns=cols)
            times["normalize_rows"].append(_per_call_us(lambda: spectral.normalize_rows(cols), r))
            times["sample_covariance"].append(
                _per_call_us(lambda: spectral.sample_covariance(Xn[:, :d2]), r))
            times["fisher_trace_sq_dev"].append(
                _per_call_us(lambda: spectral.fisher_trace_sq_dev(S_probe, S_ref), r))
            times["fisher_eigenvalues"].append(
                _per_call_us(lambda: spectral.fisher_eigenvalues(S_probe, S_ref, d1, d2), r))
            times["window_spectrum"].append(
                _per_call_us(lambda: spectral.window_spectrum(split), r))
    return {f"spectral.{k}_us": statistics.median(v) for k, v in times.items()}


def run(work: Path, src: Path, doc: dict, seed: int, seconds: float, counter) -> tuple:
    """Write the artifacts under ``work``; return (metrics, spans, extra).

    ``counter.record(op, ok, message)`` is told of every operation.
    """
    metrics = {"cli.import_s": import_seconds(src, counter)}

    from fisherwatch import blas, cli, detect, io, rmt
    from fisherwatch.core import DetectionConfig, validate_config

    tr = Tracer()

    def call(op: str, trace: str, argv: list[str]):
        with tr.instrument(trace):
            rc = cli.main(argv)
        counter.record(op, rc == 0, f"exit {rc}")

    (work / "scenario.json").write_text(json.dumps(doc))
    data = str(work / "sim" / "data.csv")
    for r in range(SETUP_REPEATS):
        call("simulate", f"setup-{r}",
             ["simulate", str(work / "scenario.json"), "--out-dir", str(work / "sim")])

    X = io.read_state_csv(data)
    cfg = validate_config(DetectionConfig(), X.p)
    untraced = {m: [] for m in METHODS}
    reports = {m: set() for m in METHODS}
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < t_end:
        call("screen", f"screen-{rounds}", ["screen", data, "--out-dir", str(work / "screen")])
        for m in METHODS:
            t0 = time.perf_counter()
            report = detect.localize(X, cfg, method=m)
            untraced[m].append(time.perf_counter() - t0)
            counter.record(f"localize {m}", True)
            call(f"detect {m}", f"{m}-{rounds}",
                 ["detect", data, "--method", m, "--out-dir", str(work / m)])
            # the untraced call and the traced CLI call must agree
            reports[m].add(json.dumps(io.detect_report(report, m), sort_keys=True))
            reports[m].add(json.dumps(json.loads((work / m / "report.json").read_text()),
                                      sort_keys=True))
        rounds += 1

    screen_rep = json.loads((work / "screen" / "report.json").read_text())
    merged = screen_rep["merged_intervals"]
    n = len(screen_rep["boundaries"])
    d = cfg.d1 + cfg.d2
    starts = [lo - 1 + k for lo, hi in merged for k in range(hi - lo + 2 - d)]
    onsets = [e["tau"] for e in doc["events"]]
    read_s = median_duration(tr.named("io.read_state_csv"))
    screen_s = median_duration(tr.named("screening.screen"))
    metrics.update({
        "simgen.generate_s": median_duration(tr.named("simgen.generate")),
        "io.write_state_csv_s": median_duration(tr.named("io.write_state_csv")),
        "io.read_state_csv_s": read_s,
        "io.read_ns_per_cell": read_s / (X.p * X.T) * 1e9,
        "io.write_artifacts_s": statistics.median(
            covered([c for c in tr.children(s) if c["name"].startswith("io.write_")])
            for s in tr.named("cli.detect")),
        "core.state_matrix_s": median_duration(tr.named("core.StateMatrix")),
        "screening.screen_s": screen_s,
        "screening.boundaries": n,
        "screening.boundary_test_us": screen_s / n * 1e6,
        "screening.rejections": sum(screen_rep["rejections"]),
        "screening.merged_intervals": len(merged),
        "screening.interval_samples": sum(hi - lo + 1 for lo, hi in merged),
        "screening.useful_interval_ratio":
            sum(any(lo <= t <= hi for t in onsets) for lo, hi in merged) / max(1, len(merged)),
        "detect.windows": len(starts),
    })

    overhead = 0.0
    for m in METHODS:
        locs = tr.named("detect.localize", f"{m}-")
        loc = median_duration(locs)
        scan = statistics.median(
            covered([c for c in tr.children(s) if c["name"] == f"detect.scan_{m}"])
            for s in locs)
        dets = json.loads((work / m / "report.json").read_text())["detections"]
        metrics.update({
            f"detect.localize_{m}_s": loc,
            f"detect.scan_{m}_s": scan,
            f"detect.window_{m}_us": scan / max(1, len(starts)) * 1e6,
            f"detect.localize_self_{m}_s": statistics.median(
                duration(s) - covered(tr.children(s)) for s in locs),
            f"detect.detections_{m}": len(dets),
            f"detect.events_localized_{m}": sum(
                any(t <= x["fault_time"] <= t + d + cfg.s + 200 for x in dets) for t in onsets),
        })
        overhead += loc - statistics.median(untraced[m])

    metrics.update(kernel_microseconds(X.values, starts or list(range(X.T - d + 1)), cfg, seed))
    consts = (X.p / (cfg.d1 - 1), X.p / (cfg.d2 - 1), cfg.kappa, cfg.beta1, cfg.beta2)
    metrics["rmt.clt_constants_us"] = _per_call_us(lambda: rmt.clt_constants(*consts), LOOP_CALLS)

    def pin():
        with blas.single_threaded():
            pass

    metrics["blas.single_threaded_us"] = _per_call_us(pin, LOOP_CALLS)
    extra = {
        "trace_overhead_s": overhead,
        "rounds": rounds,
        "untraced_localize_s": untraced,
        "localize_reports_identical": all(len(v) == 1 for v in reports.values()),
    }
    return metrics, tr.spans, extra
