"""Monte Carlo validation of the null distributions.

Draws standard Fisher matrices (two independent Gaussian samples with a
common identity covariance) and compares the empirical behaviour of the
test statistic and the eigenvalue bulk against their limiting laws.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .blas import single_threaded
from .errors import ConfigError
from .rmt import clt_constants, lsd_cdf, rejection_threshold, statistic_value, support_edges
from .spectral import fisher_eigenvalues, fisher_trace_sq_dev, sample_covariance


def _draw_covariances(rng, p, n1, n2):
    S1 = sample_covariance(rng.standard_normal((p, n1)))
    S2 = sample_covariance(rng.standard_normal((p, n2)))
    return S1, S2


@single_threaded()
def null_statistic_sample(p, n1, n2, reps, seed=0, knob="n2", kappa=2, beta1=0.0,
                          beta2=0.0) -> np.ndarray:
    """reps draws of the statistic L under equal covariances, standardized
    by the CLT constants at ``kappa``, ``beta1`` and ``beta2``.

    A singular denominator raises an error that names ``knob``, the
    setting behind n2.
    """
    rng = np.random.default_rng(seed)
    consts = clt_constants(p / (n1 - 1), p / (n2 - 1), kappa, beta1, beta2)
    out = np.empty(reps)
    for r in range(reps):
        S1, S2 = _draw_covariances(rng, p, n1, n2)
        out[r] = statistic_value(fisher_trace_sq_dev(S1, S2, knob=knob), p, consts)
    return out


def _ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample's ECDF and a law's ``cdf``."""
    F = cdf(np.sort(sample))
    n = len(F)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def null_calibration(p, n1, n2, reps, alpha=0.01, seed=0, knob="n2", kappa=2,
                     beta1=0.0, beta2=0.0) -> dict:
    """Empirical mean/sd/size of L plus a KS distance against N(0, 1)."""
    Ls = null_statistic_sample(p, n1, n2, reps, seed, knob, kappa, beta1, beta2)
    threshold = rejection_threshold(alpha)
    return {
        "statistic_mean": float(Ls.mean()),
        "statistic_sd": float(Ls.std(ddof=1)),
        "empirical_size": float(np.mean(np.abs(Ls) >= threshold)),
        "ks_statistic_vs_gaussian": _ks_distance(Ls, np.vectorize(NormalDist().cdf)),
    }


def esd_vs_lsd_ks(p, n, seed=0, knob="n") -> float:
    """KS distance between one standard Fisher ESD and the limiting CDF.

    Both blocks hold n samples. A singular denominator, or an n too
    small for the limiting law (p / (n - 1) must lie below 1), raises an
    error that names ``knob``, the setting behind n.
    """
    rng = np.random.default_rng(seed)
    S1, S2 = _draw_covariances(rng, p, n, n)
    spec = fisher_eigenvalues(S1, S2, n, n, knob=knob)
    if n < p + 2:
        raise ConfigError(f"{knob} must be at least p + 2 = {p + 2}, got {n}")
    params = support_edges(spec.y_tau, spec.y_T)
    return _ks_distance(spec.eigenvalues, lambda x: lsd_cdf(x, params))
