"""Closed-form random-matrix laws for the Fisher ensemble.

Limiting spectral density, CDF and support edges of the standard Fisher
matrix, the Gaussian centering/scaling constants of the linear spectral
statistic tr{(F - I)^2}, the resulting test statistic, and the
Marchenko-Pastur upper edge used by the baseline detector.

The centering/scaling constants are evaluated at the finite-sample
ratios (y_tau, y_T) rather than their limits, matching how the
centering term is indexed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class LsdParams:
    """Support geometry of the Fisher limiting spectral distribution."""

    y1: float
    y2: float
    h: float
    a: float
    b: float
    mass_at_zero: float  # 1 - 1/y1 when y1 > 1, else 0


@dataclass(frozen=True)
class CltConstants:
    """Centering and scaling of the Gaussian limit of tr{(F - I)^2}."""

    Fg: float
    mu_g: float
    nu_g: float


def _check_ratios(y1: float, y2: float):
    if y1 <= 0:
        raise ConfigError(f"first aspect ratio must be positive, got {y1}")
    if not 0.0 < y2 < 1.0:
        raise ConfigError(f"second aspect ratio must lie in (0, 1), got {y2}")


def support_edges(y1: float, y2: float) -> LsdParams:
    """Edges a, b of the continuous part of the Fisher LSD."""
    _check_ratios(y1, y2)
    h = math.sqrt(y1 + y2 - y1 * y2)
    a = (1.0 - h) ** 2 / (1.0 - y2) ** 2
    b = (1.0 + h) ** 2 / (1.0 - y2) ** 2
    mass = max(0.0, 1.0 - 1.0 / y1)
    return LsdParams(y1=y1, y2=y2, h=h, a=a, b=b, mass_at_zero=mass)


def lsd_density(x, params: LsdParams):
    """Density of the continuous part of the Fisher LSD; 0 off [a, b]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= params.a) & (x <= params.b)
    xs = np.where(inside, x, params.a)  # keep the sqrt argument legal
    num = (1.0 - params.y2) * np.sqrt(
        np.maximum((params.b - xs) * (xs - params.a), 0.0)
    )
    den = 2.0 * np.pi * xs * (params.y1 + params.y2 * xs)
    out = np.where(inside, num / den, 0.0)
    return float(out) if out.ndim == 0 else out


def lsd_cdf(x, params: LsdParams):
    """CDF of the Fisher LSD including any point mass at the origin.

    Exact antiderivative of :func:`lsd_density` (1/(x (y1 + y2 x)) in
    partial fractions, then x = (a+b)/2 - (b-a)/2 cos theta): on [a, b),
    F = mass_at_zero + (1 - y2)/(pi y1) (A(c) - A(0) - c theta/2) with
    c = y1/y2 and A(c) = sqrt((a+c)(b+c)) atan2(sqrt(b+c) sin theta,
    sqrt(a+c) (1 + cos theta)), taken through sin theta / (1 + cos theta)
    = sqrt((x-a)/(b-x)) for full precision at both edges. Elementwise on
    an array; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    a, b, c = params.a, params.b, params.y1 / params.y2
    u, v = np.sqrt(np.maximum(x - a, 0.0)), np.sqrt(np.maximum(b - x, 0.0))

    def A(k):
        ra, rb = math.sqrt(a + k), math.sqrt(b + k)
        return ra * rb * np.arctan2(rb * u, ra * v)

    theta = 2.0 * np.arctan2(u, v)
    bulk = A(c) - A(0.0) - c * theta / 2.0
    F = params.mass_at_zero + (1.0 - params.y2) / (math.pi * params.y1) * bulk
    out = np.select([x < 0.0, x < a, x < b], [0.0, params.mass_at_zero, F], 1.0)
    return float(out) if out.ndim == 0 else out


def clt_constants(
    y_tau: float,
    y_T: float,
    kappa: int = 2,
    beta1: float = 0.0,
    beta2: float = 0.0,
) -> CltConstants:
    """Centering term, mean shift and variance of the limiting Gaussian.

    kappa is 2 for real-valued data, 1 for complex; beta1/beta2 are the
    fourth-cumulant adjustments of the two populations (0 for Gaussian).
    """
    _check_ratios(y_tau, y_T)
    if kappa not in (1, 2):
        raise ConfigError(f"kappa must be 1 or 2, got {kappa}")
    y1, y2 = y_tau, y_T
    h2 = y1 + y2 - y1 * y2

    Fg = (y1 + y2 - y1 * y2 + y2**2 - y2**3) / (1.0 - y2) ** 3
    mu_g = (
        (kappa - 1) * (2.0 * h2 * y2 + h2 - 2.0 * y2**3 + 3.0 * y2**2) / (1.0 - y2) ** 4
        + beta1 * y1 / (1.0 - y2) ** 2
        + beta2
        * (-2.0 * y1 * y2**2 + 2.0 * y1 * y2 - 2.0 * y2**3 + 3.0 * y2**2 + y2)
        / (1.0 - y2) ** 3
    )
    nu_g = (
        kappa
        * (2.0 * h2**2 + 4.0 * h2 * (h2 - y2**2 + 2.0 * y2) ** 2)
        / (1.0 - y2) ** 8
        + 4.0 * (beta1 * y1 + beta2 * y2) * (h2 - y2**2 + y2) ** 2 / (1.0 - y2) ** 6
    )
    if nu_g <= 0.0:
        raise ConfigError(
            f"limiting variance is not positive (nu_g={nu_g}); check beta1/beta2"
        )
    return CltConstants(Fg=Fg, mu_g=mu_g, nu_g=nu_g)


def statistic_value(
    trace_sq_dev: float | np.ndarray, p: int, consts: CltConstants
) -> float | np.ndarray:
    """Standardized test statistic from the raw trace value, elementwise on an array."""
    return (trace_sq_dev - p * consts.Fg - consts.mu_g) / math.sqrt(consts.nu_g)


def gaussian_quantile(q: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile level must lie in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


def rejection_threshold(alpha: float) -> float:
    """Two-sided threshold U_{1-alpha/2} for |L|."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return gaussian_quantile(1.0 - alpha / 2.0)


def mp_upper_edge(y: float) -> float:
    """Upper edge (1 + sqrt(y))^2 of the Marchenko-Pastur law, unit variance."""
    if y <= 0:
        raise ConfigError(f"aspect ratio must be positive, got {y}")
    return (1.0 + math.sqrt(y)) ** 2
