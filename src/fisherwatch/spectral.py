"""Per-window linear algebra: normalization, covariances, Fisher spectra.

The per-window kernels are pure functions of one window. The sliding
engine :func:`sliding_trace_sq_dev` carries state from each window to
the next, so one interval's windows run in order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .errors import (
    DegenerateChannelError,
    RecordTooShortError,
    ShapeError,
    SingularCovarianceError,
)

#: relative tolerance on Cholesky pivots of S2, against its largest diagonal
PIVOT_RTOL = 1e-10
#: steps of the sliding engine between two direct refreshes
REFRESH = 64
#: the sliding engine refreshes a window directly instead of trusting its
#: updates when a Sherman-Morrison denominator (a determinant ratio) falls
#: below DENOMINATOR_FLOOR, when its lower bound on the smallest Cholesky
#: pivot comes within PIVOT_MARGIN of the pivot floor, or when the
#: backward error of its M exceeds RESIDUAL_TOL
DENOMINATOR_FLOOR = 1e-3
PIVOT_MARGIN = 1e3
RESIDUAL_TOL = 3e-12


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

    ``n1`` and ``n2`` count the samples behind S1 (numerator) and S2
    (denominator); a :class:`WindowSplit` counts its reference as ``n1``,
    so :func:`window_spectrum` passes ``(window.n2, window.n1)``.
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


def sliding_trace_sq_dev(data: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """tr{(F - I)^2} of every step-1 window of an interval, in O(p^2) per step.

    Window k (0-based) covers columns [k, k + d2 + d1): a leading
    reference block of width d2 and a trailing probe block of width d1.
    Each value equals ``fisher_trace_sq_dev(*window_covariances(w))`` to
    about 1e-11 relative, and a window raises the error that path
    raises, with the context ``window k+1``.

    The Fisher spectrum is invariant to a per-row rescaling shared by
    both blocks, and each block subtracts its own mean, so the interval
    is scaled once per row instead of normalizing each window. A step
    moves one column into and one out of each block, each a rank-1
    (Welford) change of its scatter. B = S_ref^-1 follows by
    Sherman-Morrison and M = B S_probe by rank-1 terms, in place; with
    r = (d2-1)/(d1-1), tr F = r tr M and tr F^2 = r^2 sum(M * M^T).

    A window is computed directly (``window_covariances``,
    ``_cholesky_spd``) every REFRESH steps, where a channel is constant
    across it, and where a guard does not trust the updates: a
    denominator below DENOMINATOR_FLOOR; 1/max_i (S_ref^-1)_ii, a lower
    bound on the smallest squared pivot, within PIVOT_MARGIN of the
    pivot floor; or a relative residual |S_ref M x - S_probe x| above
    RESIDUAL_TOL on two fixed random vectors x.
    """
    data = np.asarray(data, dtype=float)
    p, W = data.shape
    d = d1 + d2
    K = W - d + 1
    if K < 1:
        raise RecordTooShortError(
            f"interval of width {W} cannot hold one window of width {d}"
        )
    # repeats[i, t]: how many of row i's columns 1..t equal the column before
    repeats = np.zeros((p, W), dtype=np.int64)
    np.cumsum(data[:, 1:] == data[:, :-1], axis=1, out=repeats[:, 1:])
    stuck = ((repeats[:, d - 1 :] - repeats[:, :K]) == d - 1).any(axis=0)

    sd = data.std(axis=1, ddof=1)
    sd[sd == 0.0] = 1.0  # a constant row makes every window stuck
    Z = (data - data.mean(axis=1, keepdims=True)) / sd[:, None]
    r = (d2 - 1) / (d1 - 1)
    probes = np.random.default_rng(0).standard_normal((p, 2))
    ger = blas.dger

    def refresh(k: int):
        """B, M and the two block means of window k, computed directly."""
        cols = data[:, k : k + d]
        ctx = f"window {k + 1}"
        S_probe, S_ref = window_covariances(WindowSplit(k, d2, d1, cols), ctx)
        L = _cholesky_spd(S_ref, ctx)
        S_inv = linalg.cho_solve((L, True), np.eye(p), check_finite=False)
        # the normalized columns are the scaled ones times D
        D = sd / cols.std(axis=1, ddof=1)
        B = np.asfortranarray(S_inv * np.outer(D, D) / (d2 - 1))
        M = np.asfortranarray((S_inv @ S_probe) * np.outer(D, 1.0 / D) / r)
        return B, M, [Z[:, k : k + d2].mean(axis=1), Z[:, k + d2 : k + d].mean(axis=1)]

    def step(k: int, B, M, means) -> bool:
        """Slide from window k-1 to k in place; False where a guard trips."""
        # (block, column, added): the probe (1) gains column k-1+d and
        # hands column k-1+d2 to the reference (0), which drops column k-1
        for block, col, added in (
            (1, k - 1 + d, True), (1, k - 1 + d2, False),
            (0, k - 1 + d2, True), (0, k - 1, False),
        ):
            n = (d2, d1)[block] + (not added)  # columns before the move
            v = Z[:, col] - means[block]
            if added:
                means[block] += v / (n + 1)
                c = n / (n + 1)
            else:
                means[block] -= v / (n - 1)
                c = -n / (n - 1)
            w = B @ v
            if block:  # S_probe += c v v^T
                ger(c, w, v, a=M, overwrite_a=True)
                continue
            den = 1.0 + c * (v @ w)  # S_ref += c v v^T
            if not den >= DENOMINATOR_FLOOR:
                return False
            z = M.T @ v
            ger(-c / den, w, w, a=B, overwrite_a=True)
            ger(-c / den, w, z, a=M, overwrite_a=True)
        ref = Z[:, k : k + d2] - means[0][:, None]
        probe = Z[:, k + d2 : k + d] - means[1][:, None]
        # the pivot bound in normalized units: row scatters of the reference
        # and of the whole window (each up to a factor that cancels)
        ss_ref = np.einsum("ij,ij->i", ref, ref)
        ss = ss_ref + np.einsum("ij,ij->i", probe, probe)
        ss += (d1 * d2 / d) * (means[0] - means[1]) ** 2
        bound = np.max(ss_ref / ss) * np.max(B.diagonal() * ss)
        if not bound * PIVOT_RTOL * PIVOT_MARGIN < 1.0:
            return False
        SY = ref @ (ref.T @ (M @ probes))
        SX = probe @ (probe.T @ probes)
        res = np.linalg.norm(SY - SX) / (np.linalg.norm(SY) + np.linalg.norm(SX))
        return bool(res <= RESIDUAL_TOL)

    values = np.empty(K)
    B, M, means = refresh(0)
    since = 0
    for k in range(K):
        if k:
            since += 1
            if stuck[k] or since >= REFRESH or not step(k, B, M, means):
                B, M, means = refresh(k)
                since = 0
        values[k] = r * r * np.einsum("ij,ji->", M, M) - 2.0 * r * np.trace(M) + p
    return values
