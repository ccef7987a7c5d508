"""Per-window linear algebra: normalization, covariances, Fisher spectra.

All functions are pure; windows can be processed concurrently without
shared state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import DegenerateChannelError, ShapeError, SingularCovarianceError

#: relative tolerance on Cholesky pivots of S2, against its largest diagonal
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class WindowSplit:
    """A contiguous column range split into two sub-samples.

    ``start`` is the 0-based column offset of the window inside its parent
    matrix; sub-sample 1 is the first n1 columns, sub-sample 2 the next n2.
    Sub-sample 1 is the reference block (Fisher denominator, so it must be
    invertible); sub-sample 2 is the probe block whose covariance goes in
    the numerator. The probe trails the reference in time, so the window
    reacts when freshly arriving columns change distribution.
    """

    start: int
    n1: int
    n2: int
    columns: np.ndarray

    def __post_init__(self):
        p = self.columns.shape[0]
        if self.n1 < p + 1:
            raise ShapeError(f"reference sub-sample needs n1 >= p+1={p + 1}, got {self.n1}")
        if self.n2 < 2:
            raise ShapeError(f"probe sub-sample needs n2 >= 2, got {self.n2}")
        if self.columns.shape[1] != self.n1 + self.n2:
            raise ShapeError("window width does not match n1 + n2")

    @property
    def first(self) -> np.ndarray:
        return self.columns[:, : self.n1]

    @property
    def second(self) -> np.ndarray:
        return self.columns[:, self.n1 :]


@dataclass(frozen=True)
class FisherSpectrum:
    """Eigenvalues of F = S1 S2^-1 plus the aspect ratios of the window."""

    eigenvalues: np.ndarray  # sorted descending, length p
    y_tau: float  # p / (n1 - 1)
    y_T: float  # p / (n2 - 1)
    trace_sq_dev: float  # sum_i (lambda_i - 1)^2 = tr{(F - I)^2}

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[0])


def normalize_rows(segment: np.ndarray, context: str = "") -> np.ndarray:
    """Rescale each row to sample mean 0 and unbiased sample variance 1.

    Each segment is normalized independently with its own row statistics.
    Raises :class:`DegenerateChannelError` (1-based row) on a constant row.
    """
    segment = np.asarray(segment, dtype=float)
    if segment.ndim != 2 or segment.shape[1] < 2:
        raise ShapeError("segment must be p x n with n >= 2")
    mu = segment.mean(axis=1, keepdims=True)
    sd = segment.std(axis=1, ddof=1, keepdims=True)
    dead = np.flatnonzero(sd[:, 0] == 0.0)
    if dead.size:
        raise DegenerateChannelError(int(dead[0]) + 1, context)
    return (segment - mu) / sd


def sample_covariance(segment: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance (divisor n-1), mean subtracted per row.

    The mean vector is recomputed and subtracted even when the input is
    already normalized: normalization uses whole-segment statistics while
    the covariance of a sub-sample needs its own mean.
    """
    segment = np.asarray(segment, dtype=float)
    if segment.ndim != 2 or segment.shape[1] < 2:
        raise ShapeError("segment must be p x n with n >= 2")
    centered = segment - segment.mean(axis=1, keepdims=True)
    S = centered @ centered.T / (segment.shape[1] - 1)
    return 0.5 * (S + S.T)


def _cholesky_spd(S2: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor of S2, with a relative pivot floor."""
    where = f" ({context})" if context else ""
    try:
        L = linalg.cholesky(S2, lower=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"second covariance not positive definite{where}; increase d2"
        ) from exc
    piv_floor = PIVOT_RTOL * float(np.max(np.diag(S2)))
    if float(np.min(np.diag(L)) ** 2) < piv_floor:
        raise SingularCovarianceError(
            f"second covariance numerically singular{where}; increase d2"
        )
    return L


def fisher_eigenvalues(
    S1: np.ndarray, S2: np.ndarray, n1: int, n2: int, context: str = ""
) -> FisherSpectrum:
    """Spectrum of the Fisher matrix F = S1 S2^-1 for one window.

    Solved as the generalized symmetric-definite problem S1 v = lambda S2 v
    (never by explicitly inverting S2; S2 can be ill-conditioned when d2
    barely exceeds p). Rank-deficient S1 is fine: the surplus eigenvalues
    are zero.
    """
    p = S1.shape[0]
    if S1.shape != (p, p) or S2.shape != (p, p):
        raise ShapeError("covariances must be square and equally sized")
    _cholesky_spd(S2, context)
    lam = linalg.eigh(S1, S2, eigvals_only=True, check_finite=False)
    lam = np.where(np.abs(lam) < 1e-12, 0.0, lam)[::-1].copy()
    return FisherSpectrum(
        eigenvalues=lam,
        y_tau=p / (n1 - 1),
        y_T=p / (n2 - 1),
        trace_sq_dev=float(np.sum((lam - 1.0) ** 2)),
    )


def fisher_trace_sq_dev(S1: np.ndarray, S2: np.ndarray, context: str = "") -> float:
    """tr{(S1 S2^-1 - I)^2} without an eigendecomposition.

    A pair of triangular solves against the Cholesky factor of S2 is
    cheaper than the full spectrum; this is the fast path of the
    statistic-based detector.
    """
    p = S1.shape[0]
    L = _cholesky_spd(S2, context)
    # F^T = S2^-1 S1 via two triangular solves
    Ft = linalg.solve_triangular(L, S1, lower=True, check_finite=False)
    Ft = linalg.solve_triangular(L.T, Ft, lower=False, check_finite=False)
    M = Ft.T - np.eye(p)
    # tr(M^2) = sum_ij M_ij M_ji
    return float(np.sum(M * M.T))


def window_covariances(
    window: WindowSplit, context: str = ""
) -> tuple[np.ndarray, np.ndarray]:
    """(S_probe, S_ref) of one window, the numerator and denominator of F.

    The whole window is normalized with shared row statistics before the
    split: separate per-block statistics would absorb a variance change
    between the blocks and hide exactly the faults being hunted.
    """
    Xn = normalize_rows(window.columns, context)
    S_ref = sample_covariance(Xn[:, : window.n1])
    S_probe = sample_covariance(Xn[:, window.n1 :])
    return S_probe, S_ref


def window_spectrum(window: WindowSplit, context: str = "") -> FisherSpectrum:
    """Spectrum of F = S_probe S_ref^-1 for one window."""
    S_probe, S_ref = window_covariances(window, context)
    return fisher_eigenvalues(S_probe, S_ref, window.n2, window.n1, context)
