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

Each interval's windows are scanned as jobs of BLOCK consecutive
windows, and one call runs all of its jobs in one batch: in-process
when there is one job or one CPU, otherwise on a fork-context process
pool of one worker per CPU (at most one per job), whose idle workers
take the next job in window order (see :func:`_forked`). BLOCK is a
multiple of REFRESH, so each job opens on the engines' refresh grid and
reads the values of one pass over its interval exactly: no value, flag
or error depends on the job size or the number of workers.
"""
from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .blas import scipy_blas_lapack, single_threaded
from .core import (
    DetectionConfig,
    DetectionRecord,
    FaultReport,
    StateMatrix,
    check_finite,
    validate_config,
)
from .errors import FisherwatchError, ShapeError
from .rmt import (
    clt_constants,
    mp_upper_edge,
    rejection_threshold,
    statistic_value,
    support_edges,
)
from .screening import screen
from .spectral import (
    REFRESH,
    sliding_correlation_largest,
    sliding_fisher_largest,
    sliding_trace_sq_dev,
)

METHODS = ("dele", "deht", "mp")
#: windows per scan job: a multiple of REFRESH, so that every job opens
#: on the engines' refresh grid and its size only affects speed
BLOCK = 2 * REFRESH


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


def _dele(p: int, cfg: DetectionConfig):
    """Largest Fisher eigenvalue against the support edge b."""
    b = support_edges(p / (cfg.d1 - 1), p / (cfg.d2 - 1)).b
    return b, functools.partial(sliding_fisher_largest, d1=cfg.d1, d2=cfg.d2, edge=b)


def _deht(p: int, cfg: DetectionConfig):
    """|L| from the sliding trace engine; no eigendecomposition per window."""
    consts = clt_constants(
        p / (cfg.d1 - 1), p / (cfg.d2 - 1), cfg.kappa, cfg.beta1, cfg.beta2
    )

    def values(data, first, stop):
        traces = sliding_trace_sq_dev(data, cfg.d1, cfg.d2, first, stop)
        return np.abs(statistic_value(traces, p, consts))

    return rejection_threshold(cfg.alpha), values


def _mp(p: int, cfg: DetectionConfig):
    """Largest eigenvalue of the whole window's correlation matrix: no split."""
    edge = mp_upper_edge(p / (cfg.d - 1))
    return edge, functools.partial(sliding_correlation_largest, d=cfg.d)


#: method -> (rule, comparison). ``rule(p, cfg)`` returns the threshold,
#: which depends only on (p, cfg), and ``values(data, first=, stop=)``,
#: the values of an interval's windows first..stop-1; a window is flagged
#: when ``comparison(value, threshold)`` holds.
_RULES = {
    "dele": (_dele, np.greater),
    "deht": (_deht, np.greater_equal),
    "mp": (_mp, np.greater),
}


def scan_workers() -> int:
    """The most worker processes a scan batch forks: this process's CPUs,
    or 1 while other threads run, one of which may hold a lock that a
    forked child would wait on forever."""
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


#: the job runner, set by :func:`_install` in each pool worker as it starts
_run = None


def _install(run):
    global _run
    _run = run


def _call(job):
    return _run(*job)


def _forked(run, jobs: list, workers: int) -> list:
    """``run(*job)`` of each job, from a pool of ``workers`` forked processes.

    The pool forks after BLAS is loaded and pinned. Each idle worker takes
    the next job in the order of ``jobs``, and the results come back in
    that order, so where jobs fail the error of the first failing one is
    raised; jobs not yet started are then cancelled. A worker that dies
    raises a one-line :class:`FisherwatchError`. Every worker is reaped
    before this returns or raises.
    """
    # imported here, so that only a batch pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    scipy_blas_lapack()  # loaded, and pinned in the caller's block, before forking
    # under fork, each worker inherits ``run`` with the data blocks it
    # closes over: only the jobs and their values cross between processes
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_install, initargs=(run,))
    try:
        return list(pool.map(_call, jobs))
    except BrokenProcessPool:
        raise FisherwatchError("a scan worker ended without returning its results") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _scan_intervals(
    blocks: list, cfg: DetectionConfig, method: str
) -> list[tuple[DetectorTrace, Optional[DetectionRecord]]]:
    """(trace, first detection) of each (data, interval) pair in ``blocks``.

    All jobs of the call run in one batch. Where jobs fail, the error of
    the earliest one is raised: the error a scan in window order raises.
    """
    if not blocks:
        return []
    rule, comparison = _RULES[method]
    threshold, values_of = rule(np.shape(blocks[0][0])[0], cfg)
    jobs = []  # (interval index, first window, stop), in window order
    for i, (data, _) in enumerate(blocks):
        K = np.shape(data)[1] - cfg.d + 1
        # an interval narrower than a window still gets one job, whose
        # engine raises RecordTooShortError
        jobs += [(i, first, min(first + BLOCK, K)) for first in range(0, max(K, 1), BLOCK)]

    def run(i, first, stop):
        return values_of(blocks[i][0], first=first, stop=stop)

    workers = min(scan_workers(), len(jobs))
    values = [run(*j) for j in jobs] if workers == 1 else _forked(run, jobs, workers)
    results = []
    for i, (_, interval) in enumerate(blocks):
        v = np.concatenate([v for (j, _, _), v in zip(jobs, values) if j == i])
        flags = comparison(v, threshold)
        trace = DetectorTrace(method, interval, v, threshold, flags)
        k_s = run_rule(flags, cfg.s)
        results.append((trace, None if k_s is None else DetectionRecord(
            interval=interval,
            fault_time=interval[0] - 1 + k_s + cfg.d - 1,
            detector=method,
            trigger_window=k_s,
        )))
    return results


@single_threaded()
def scan(
    data: np.ndarray, cfg: DetectionConfig, interval: tuple[int, int], method: str
) -> tuple[DetectorTrace, Optional[DetectionRecord]]:
    """Slide the window of ``method`` across the columns ``data`` of the
    1-based, inclusive ``interval`` (lo, hi).

    ``cfg`` is resolved for the data's channels once ``method`` is known.
    The threshold depends only on (p, cfg), so it is computed once per
    interval. Returns the trace and the first detection, if any. A
    non-finite entry raises the :class:`DataError` of ``StateMatrix``,
    at its sample in the record.
    """
    (lo, hi), width = interval, np.shape(data)[1]
    if lo < 1 or hi < lo or hi - lo + 1 != width:
        raise ShapeError(f"interval [{lo}, {hi}] (width {hi - lo + 1}) must start at "
                         f"sample 1 or later and match the data's width {width}")
    check_finite(data, lo)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    cfg = validate_config(cfg, np.shape(data)[0])
    return _scan_intervals([(data, interval)], cfg, method)[0]


#: method -> the batch scan that :func:`localize` calls once per call,
#: with the (data, interval) pair of every screened interval
_SCANS = {m: functools.partial(_scan_intervals, method=m) for m in METHODS}


@single_threaded()
def localize(
    X: StateMatrix,
    cfg: DetectionConfig,
    method: str = "dele",
    true_tau: Optional[int] = None,
) -> FaultReport:
    """Screen the record, then scan each merged interval with one detector.

    Once ``method`` is known, ``cfg`` is resolved by the screen, and the
    report carries the screen's config. All intervals' jobs run in one
    batch (see the module docstring). Reports the first detection per
    interval; ``true_tau`` (1-based) attaches the detection delay in samples.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    screened = screen(X, cfg)
    cfg, intervals = screened.config, screened.merged_intervals
    scanned = _SCANS[method]([(X.values[:, lo - 1 : hi], (lo, hi)) for lo, hi in intervals], cfg)
    traces, detections = [], []
    for trace, det in scanned:
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
