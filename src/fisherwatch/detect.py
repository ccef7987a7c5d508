"""Point-by-point localization inside screened intervals.

One sliding-window scan serves three detectors, each a per-window
statistic compared with a closed-form threshold. Each reads an
O(p^2)-per-step sliding engine in :mod:`~fisherwatch.spectral` instead
of building every window.

* ``dele`` flags windows whose largest Fisher eigenvalue exceeds the
  upper support edge b of the limiting law (strict >); the eigenvalue
  comes from warm-started Lanczos on the Fisher engine's state
  (:func:`~fisherwatch.spectral.sliding_fisher_largest`), and a window
  whose flag the Lanczos residual cannot certify is computed directly;
* ``deht`` flags windows whose standardized statistic |L_k| reaches the
  Gaussian quantile threshold (closed >=, matching the rejection region);
  its traces come from the same engine
  (:func:`~fisherwatch.spectral.sliding_trace_sq_dev`);
* ``mp`` is the Marchenko-Pastur baseline on the plain sample covariance
  (strict >): the top eigenvalue of each window's correlation matrix,
  from a rank-1-updated window scatter written into one preallocated
  buffer, by a top-only bisection solve (LAPACK ``dsyevx``,
  ``range='I'``; :func:`~fisherwatch.spectral.sliding_correlation_largest`).

A fault is declared only after s consecutive flagged windows; the
declared time is the last column of the window completing the run.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .blas import single_threaded
from .core import (
    DetectionConfig,
    DetectionRecord,
    FaultReport,
    StateMatrix,
    validate_config,
)
from .rmt import (
    clt_constants,
    mp_upper_edge,
    rejection_threshold,
    statistic_value,
    support_edges,
)
from .screening import screen
from .spectral import (
    sliding_correlation_largest,
    sliding_fisher_largest,
    sliding_trace_sq_dev,
)

METHODS = ("dele", "deht", "mp")


@dataclass(frozen=True)
class DetectorTrace:
    """Per-window values of one detector over one interval."""

    detector: str
    interval: tuple[int, int]  # 1-based inclusive sample range
    values: np.ndarray  # lambda_1k, |L_k| or lambda_max, window k = 1..K
    threshold: float
    flags: np.ndarray


def run_rule(flags, s: int) -> Optional[int]:
    """Smallest 1-based index ending a run of s consecutive true flags."""
    if s < 1:
        raise ValueError(f"run length s={s} must be >= 1")
    run = 0
    for j, f in enumerate(flags, start=1):
        run = run + 1 if f else 0
        if run >= s:
            return j
    return None


def _dele(data: np.ndarray, cfg: DetectionConfig):
    """Largest Fisher eigenvalue against the support edge b."""
    p = data.shape[0]
    b = support_edges(p / (cfg.d1 - 1), p / (cfg.d2 - 1)).b
    return b, sliding_fisher_largest(data, cfg.d1, cfg.d2, b)


def _deht(data: np.ndarray, cfg: DetectionConfig):
    """|L| from the sliding trace engine; no eigendecomposition per window."""
    p = data.shape[0]
    consts = clt_constants(
        p / (cfg.d1 - 1), p / (cfg.d2 - 1), cfg.kappa, cfg.beta1, cfg.beta2
    )
    traces = sliding_trace_sq_dev(data, cfg.d1, cfg.d2)
    return rejection_threshold(cfg.alpha), np.abs(statistic_value(traces, p, consts))


def _mp(data: np.ndarray, cfg: DetectionConfig):
    """Largest eigenvalue of the whole window's correlation matrix: no split."""
    edge = mp_upper_edge(data.shape[0] / (cfg.d - 1))
    return edge, sliding_correlation_largest(data, cfg.d)


#: method -> (values_of, comparison). ``values_of(data, cfg)`` returns the
#: interval's threshold and its per-window values; a window is flagged
#: when ``comparison(value, threshold)`` holds.
_RULES = {
    "dele": (_dele, np.greater),
    "deht": (_deht, np.greater_equal),
    "mp": (_mp, np.greater),
}


@single_threaded()
def scan(
    data: np.ndarray, cfg: DetectionConfig, interval: tuple[int, int], method: str
) -> tuple[DetectorTrace, Optional[DetectionRecord]]:
    """Slide the window of ``method`` across one interval's columns.

    The threshold depends only on (p, cfg), so it is computed once per
    interval. Returns the trace and the first detection, if any.
    """
    values_of, comparison = _RULES[method]
    threshold, values = values_of(data, cfg)
    flags = comparison(values, threshold)
    trace = DetectorTrace(method, interval, values, threshold, flags)
    k_s = run_rule(flags, cfg.s)
    if k_s is None:
        return trace, None
    return trace, DetectionRecord(
        interval=interval,
        fault_time=interval[0] - 1 + k_s + cfg.d - 1,
        detector=method,
        trigger_window=k_s,
    )


#: method -> the scan that :func:`localize` calls once per interval
_SCANS = {m: functools.partial(scan, method=m) for m in METHODS}


@single_threaded()
def localize(
    X: StateMatrix,
    cfg: DetectionConfig,
    method: str = "dele",
    true_tau: Optional[int] = None,
) -> FaultReport:
    """Screen the record, then scan each merged interval with one detector.

    Intervals are scanned in order on the calling thread. Reports the
    first detection per interval; ``true_tau`` (1-based) attaches the
    detection delay in samples.
    """
    if method not in _SCANS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    cfg = validate_config(cfg, X.p)
    intervals = screen(X, cfg).merged_intervals
    scan_interval = _SCANS[method]
    traces, detections = [], []
    for lo, hi in intervals:
        trace, det = scan_interval(X.values[:, lo - 1 : hi], cfg, (lo, hi))
        traces.append(trace)
        if det is not None:
            if true_tau is not None:
                det = replace(det, delay_samples=det.fault_time - true_tau)
            detections.append(det)
    return FaultReport(
        screened_intervals=intervals,
        detections=tuple(detections),
        traces=tuple(traces),
        config=cfg,
    )
