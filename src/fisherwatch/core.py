"""Core data model: state matrix, detection configuration, fault report.

Sample indices in all public reports are 1-based (column t of the state
matrix is sampling instant t); internal numpy storage is 0-based and the
conversion happens at the report boundary.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError

DEFAULT_ALPHA = 0.01

#: (s, D-rule) profiles; D may be given as a callable of p.
PROFILES = {
    "distribution": {"s": 16, "D": lambda p: 3 * p},
    "transmission": {"s": 9, "D": lambda p: p + 24},
}


def check_finite(values: np.ndarray, first_sample: int = 1) -> None:
    """Raise :class:`DataError` at the first non-finite entry of the
    channels x samples ``values``, whose column 0 is sample ``first_sample``."""
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise DataError(
            f"non-finite entry at channel {bad[0] + 1}, sample {bad[1] + first_sample}"
        )


@dataclass(frozen=True)
class StateMatrix:
    """p channels x T sampling instants of synchronized measurements."""

    values: np.ndarray
    channel_ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ShapeError(f"state matrix must be 2-D, got ndim={v.ndim}")
        p, T = v.shape
        if p < 2 or T < 2:
            raise ShapeError(f"need at least 2 channels and 2 samples, got {p}x{T}")
        if len(self.channel_ids) != p:
            raise ShapeError(
                f"{len(self.channel_ids)} channel ids for {p} channels"
            )
        check_finite(v)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_ids", tuple(str(c) for c in self.channel_ids))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning parameters for screening and point-by-point detection.

    Unset (None) window fields are filled from the profile defaults by
    :func:`validate_config`: d1 = max(p - 10, 2), d2 = p + 10, D per
    profile but at least ceil(d / 2), plus the profile's
    consecutive-rejection count s.
    """

    D: Optional[int] = None
    d1: Optional[int] = None
    d2: Optional[int] = None
    s: Optional[int] = None
    alpha: float = DEFAULT_ALPHA
    kappa: int = 2
    beta1: float = 0.0
    beta2: float = 0.0
    profile: str = "distribution"

    @property
    def d(self) -> int:
        return self.d1 + self.d2


def _integer(value, name: str, error=ConfigError) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name}={value!r} must be an integer")
    return int(value)


def _real(cfg: DetectionConfig, name: str) -> float:
    value = getattr(cfg, name)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)):
        raise ConfigError(f"{name}={value!r} must be a finite real number")
    return float(value)


def validate_config(cfg: DetectionConfig, p: int) -> DetectionConfig:
    """Fill defaults for dimension p, check every field's type and bounds.

    Returns a copy with D, d1, d2, s and kappa as ``int`` and alpha,
    beta1 and beta2 as ``float``; validating it again gives an equal
    config. The bounds keep every aspect ratio p/(n-1) of a reference
    block below 1 and let every screened interval, at least 2D wide,
    hold one window.
    """
    if p < 2:
        raise ConfigError(f"need p >= 2 channels, got p={p}")
    if not isinstance(cfg.profile, str) or cfg.profile not in PROFILES:
        raise ConfigError(f"unknown profile {cfg.profile!r}")
    prof = PROFILES[cfg.profile]
    d1 = max(p - 10, 2) if cfg.d1 is None else _integer(cfg.d1, "d1")
    d2 = p + 10 if cfg.d2 is None else _integer(cfg.d2, "d2")
    D = max(prof["D"](p), (d1 + d2 + 1) // 2) if cfg.D is None else _integer(cfg.D, "D")
    s = prof["s"] if cfg.s is None else _integer(cfg.s, "s")
    kappa = _integer(cfg.kappa, "kappa")
    alpha, beta1, beta2 = (_real(cfg, name) for name in ("alpha", "beta1", "beta2"))

    if d2 < p + 2:
        raise ConfigError(
            f"d2={d2} must be at least p+2={p + 2} so the reference aspect ratio "
            f"p/(d2-1) stays below 1"
        )
    if d1 < 2:
        raise ConfigError(f"d1={d1} must be at least 2")
    if D < p + 2:
        raise ConfigError(
            f"segment width D={D} must be at least p+2={p + 2} so the aspect "
            f"ratio p/(D-1) stays below 1"
        )
    if d1 + d2 > 2 * D:
        raise ConfigError(
            f"window width d1+d2={d1 + d2} exceeds 2D={2 * D}, the narrowest "
            f"screened interval"
        )
    if s < 1:
        raise ConfigError(f"consecutive count s={s} must be >= 1")
    # below about 2.2e-16 the quantile level 1 - alpha/2 rounds to 1
    if not 0.0 < alpha < 1.0 or 1.0 - alpha / 2.0 == 1.0:
        raise ConfigError(f"alpha={alpha} must lie in (0, 1), with 1 - alpha/2 < 1")
    # StateMatrix holds real values; kappa = 1 is the complex-data constant
    if kappa != 2:
        raise ConfigError(f"kappa={kappa} must be 2, the constant of real data")
    # a fourth cumulant of real data is at least -2 (E x^4 >= (E x^2)^2);
    # below that nu_g can turn negative
    if min(beta1, beta2) < -2:
        raise ConfigError(
            f"beta1={beta1} and beta2={beta2} must be at least -2, "
            f"the smallest possible fourth cumulant of real data"
        )
    return replace(
        cfg, D=D, d1=d1, d2=d2, s=s, alpha=alpha, kappa=kappa, beta1=beta1, beta2=beta2
    )


@dataclass(frozen=True)
class DetectionRecord:
    """One localized change point inside a screened interval."""

    interval: tuple[int, int]
    fault_time: int
    detector: str
    trigger_window: int
    delay_samples: Optional[int] = None

    def __post_init__(self):
        lo, hi = self.interval
        if not lo <= self.fault_time <= hi:
            raise ShapeError(
                f"fault time {self.fault_time} outside interval [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class FaultReport:
    """Aggregated output of the screening + point-by-point pipeline."""

    screened_intervals: tuple[tuple[int, int], ...]
    detections: tuple[DetectionRecord, ...]
    config: DetectionConfig
    traces: tuple = ()

    def __post_init__(self):
        ivs = self.screened_intervals
        if list(ivs) != sorted(ivs):
            raise ShapeError("screened intervals must be sorted ascending")
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ivs, ivs[1:]):
            if b_lo <= a_hi:
                raise ShapeError("screened intervals must be pairwise disjoint")
