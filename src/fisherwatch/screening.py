"""Coarse interval screening: width-D segmentation and boundary tests.

The record is cut at t_i = i*D; each boundary gets a two-sample
covariance test between its neighbouring segments, and rejected
neighbourhoods [t_{i-1}+1, t_{i+1}] are merged into disjoint candidate
intervals. All sample indices in results are 1-based inclusive. A
:class:`ScreenResult` holds exactly the fields the screen report writes,
the config that :func:`screen` resolved among them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blas import single_threaded
from .core import DetectionConfig, StateMatrix, validate_config
from .errors import RecordTooShortError
from .rmt import clt_constants, rejection_threshold, statistic_value
from .spectral import WindowSplit, fisher_trace_sq_dev, window_covariances


@dataclass(frozen=True)
class ScreenResult:
    """The screen's outcome, field for field as ``report.json`` writes it."""

    boundaries: tuple[int, ...]  # t_i = i*D, i = 1..N
    statistics: tuple[float, ...]  # L_i, one per boundary
    threshold: float  # |L_i| >= threshold rejects boundary i
    rejections: tuple[bool, ...]  # one per boundary
    raw_intervals: tuple[tuple[int, int], ...]
    merged_intervals: tuple[tuple[int, int], ...]
    config: DetectionConfig  # resolved by validate_config for the record's p


def segment_boundaries(T: int, D: int) -> list[int]:
    """Cut points t_i = i*D for i = 1..N with N = floor(T/D) - 1.

    The implied outer points are t_0 = 0 and t_{N+1} = T, so the final
    segment may be longer than D.
    """
    if D < 2:
        raise RecordTooShortError(f"segment width D={D} too small")
    if T < 2 * D:
        raise RecordTooShortError(
            f"record of length {T} cannot hold two segments of width D={D}"
        )
    N = T // D - 1
    return [i * D for i in range(1, N + 1)]


def merge_intervals(raw) -> list[tuple[int, int]]:
    """Union of overlapping or adjacent [lo, hi] inclusive intervals, sorted.

    Adjacent intervals (hi + 1 == lo') are merged as well: adjacency comes
    from consecutive rejections and represents a single fault region.
    """
    merged: list[list[int]] = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in raw):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _boundary_test(X, lo: int, mid: int, hi: int, ctx: str, cfg: DetectionConfig) -> float:
    """The statistic L of H0: equal covariance across the boundary at column ``mid``.

    The columns [lo, hi) form one Fisher window with the earlier segment
    as reference and the later one as probe: a variance increase after
    the boundary then pushes Fisher eigenvalues above 1, where the
    squared deviation grows without bound, instead of compressing them
    into [0, 1) where it saturates.
    """
    window = WindowSplit(lo, mid - lo, hi - mid, X[:, lo:hi])
    trace = fisher_trace_sq_dev(*window_covariances(window, ctx), ctx, knob="D")
    p = X.shape[0]
    consts = clt_constants(
        p / (window.n2 - 1), p / (window.n1 - 1), cfg.kappa, cfg.beta1, cfg.beta2
    )
    return statistic_value(trace, p, consts)


@single_threaded()
def screen(X: StateMatrix, cfg: DetectionConfig) -> ScreenResult:
    """Run all boundary tests under ``cfg`` resolved for X; merge rejected neighbourhoods."""
    cfg = validate_config(cfg, X.p)
    T, D = X.T, cfg.D
    boundaries = segment_boundaries(T, D)
    threshold = rejection_threshold(cfg.alpha)
    # (lo, mid, hi) 0-based half-open column ranges per boundary
    ends = [*boundaries[1:], T]
    segments = [(mid - D, mid, hi) for mid, hi in zip(boundaries, ends)]
    statistics = tuple(
        _boundary_test(X.values, lo, mid, hi, f"boundary {i} at sample {mid}", cfg)
        for i, (lo, mid, hi) in enumerate(segments, start=1)
    )
    rejections = tuple(abs(L) >= threshold for L in statistics)
    raw = [(lo + 1, hi) for (lo, _, hi), r in zip(segments, rejections) if r]
    return ScreenResult(
        boundaries=tuple(boundaries),
        statistics=statistics,
        threshold=threshold,
        rejections=rejections,
        raw_intervals=tuple(raw),
        merged_intervals=tuple(merge_intervals(raw)),
        config=cfg,
    )
