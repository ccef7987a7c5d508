"""Per-window linear algebra: normalization, covariances, Fisher spectra.

The per-window kernels are pure functions of one window: the direct
path. The sliding engines carry state from each window to the next, in
O(p^2) per step, so one interval's windows run in order:

* the Fisher engine (``_fisher_states``) keeps B = R^-1 and M = R^-1 P
  of the reference and probe scatters. :func:`sliding_trace_sq_dev` reads
  tr{(F - I)^2} from M; :func:`sliding_fisher_largest` reads the top
  Fisher eigenvalue by warm-started symmetric Lanczos on H = Y^T B Y,
  with Y the centred probe block, and computes a window directly where
  the Lanczos residual cannot certify its flag;
* the window-scatter engine :func:`sliding_correlation_largest` keeps
  the whole window's scatter by rank-1 updates, writes each window's
  correlation matrix into one preallocated buffer and reads only its top
  eigenvalue, by bisection on the tridiagonal (LAPACK ``dsyevx``,
  ``range='I'``).

Each engine scans the windows [first, stop) of its interval, by default
all of them, and numbers them within the whole interval. It computes
directly window first, each window k with k % REFRESH == 0 (the grid),
and each where a channel is constant or a guard does not trust the
updates: so it raises the direct path's errors at the same windows, and
a range that opens on the grid reads the whole scan's values exactly.

The screen's kernels (:func:`fisher_trace_sq_dev` and what it calls)
run on numpy alone, so ``screen`` loads no scipy. The engines and
:func:`fisher_eigenvalues` call scipy's f2py BLAS and LAPACK wrappers
(``dger``, ``dgemv``, ``dnrm2``, ``dpotri``, ``dstev``, ``dsyevx``,
``dsygvd``) from :func:`~fisherwatch.blas.scipy_blas_lapack`, which
loads those two compiled modules, not the ``scipy.linalg`` package, on
first use and pins their pool then.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import scipy_blas_lapack
from .errors import (
    DegenerateChannelError,
    FisherwatchError,
    RecordTooShortError,
    ShapeError,
    SingularCovarianceError,
)

#: relative tolerance on Cholesky pivots of S2, against its largest diagonal
PIVOT_RTOL = 1e-10
#: the sliding engines compute window k directly wherever k % REFRESH == 0
REFRESH = 64
#: the sliding engine refreshes a window directly instead of trusting its
#: updates when a Sherman-Morrison denominator (a determinant ratio) falls
#: below DENOMINATOR_FLOOR, when its lower bound on the smallest Cholesky
#: pivot comes within PIVOT_MARGIN of the pivot floor, or when the
#: backward error of its M exceeds RESIDUAL_TOL
DENOMINATOR_FLOOR = 1e-3
PIVOT_MARGIN = 1e3
RESIDUAL_TOL = 3e-12
#: the window-scatter engine refreshes where a diagonal entry of its
#: scatter has fallen below SCATTER_DROP of its peak since the last
#: refresh, before cancellation eats the digits of the rank-1 updates
SCATTER_DROP = 1e-3
#: Lanczos for the top Fisher eigenvalue: a Ritz value has converged when
#: its residual bound is at most LANCZOS_TOL times itself, checked every
#: LANCZOS_CHECK steps; a run ends there, at a breakdown, or after d1
#: steps, when the Krylov space is all of R^d1
LANCZOS_TOL = 1e-10
LANCZOS_CHECK = 3
#: a top eigenvalue from Lanczos certifies its flag only when farther from
#: the edge than its residual bound and than FLAG_MARGIN times itself, which
#: covers the rounding of B and of Y
FLAG_MARGIN = 1e-8
#: a Lanczos vector whose norm is at most BREAKDOWN times that of its
#: projection onto the Krylov space ends the iteration
BREAKDOWN = 1e-12
#: relative size of the fixed random kick added to each warm start
WARM_KICK = 1e-3


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
    # a constant row whose mean rounds has a tiny nonzero sd
    dead = np.flatnonzero((sd[:, 0] == 0.0) | (segment == segment[:, :1]).all(axis=1))
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
    return centered @ centered.T / (segment.shape[1] - 1)


def _cholesky_spd(S2: np.ndarray, context: str = "", knob: str = "d2") -> np.ndarray:
    """Lower Cholesky factor of S2, with a relative pivot floor.

    An error names ``knob``, the setting that sizes the block behind S2:
    d2 for a scan window, D for a screen boundary.
    """
    where = f" ({context})" if context else ""
    try:
        L = np.linalg.cholesky(S2)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"second covariance not positive definite{where}; increase {knob}"
        ) from exc
    piv_floor = PIVOT_RTOL * float(np.max(np.diag(S2)))
    if float(np.min(np.diag(L)) ** 2) < piv_floor:
        raise SingularCovarianceError(
            f"second covariance numerically singular{where}; increase {knob}"
        )
    return L


def fisher_eigenvalues(
    S1: np.ndarray, S2: np.ndarray, n1: int, n2: int, context: str = "",
    knob: str = "d2",
) -> FisherSpectrum:
    """Spectrum of the Fisher matrix F = S1 S2^-1 for one window.

    Solved as the generalized symmetric-definite problem S1 v = lambda S2 v
    (never by explicitly inverting S2; S2 can be ill-conditioned when d2
    barely exceeds p). Rank-deficient S1 is fine: the surplus eigenvalues
    are zero.

    ``n1`` and ``n2`` count the samples behind S1 (numerator) and S2
    (denominator); a :class:`WindowSplit` counts its reference as ``n1``,
    so :func:`window_spectrum` passes ``(window.n2, window.n1)``. A
    singular S2 raises an error that names ``knob`` (see ``_cholesky_spd``).
    """
    p = S1.shape[0]
    if S1.shape != (p, p) or S2.shape != (p, p):
        raise ShapeError("covariances must be square and equally sized")
    _cholesky_spd(S2, context, knob)
    # the LAPACK routine that scipy.linalg.eigh(S1, S2, eigvals_only=True) calls
    lam, _, info = scipy_blas_lapack()[1].dsygvd(S1, S2, itype=1, jobz="N", uplo="L")
    if info != 0:
        where = f" ({context})" if context else ""
        raise FisherwatchError(
            f"generalized eigenvalues not found{where}: dsygvd returned info={info}"
        )
    lam = np.where(np.abs(lam) < 1e-12, 0.0, lam)[::-1].copy()
    return FisherSpectrum(
        eigenvalues=lam,
        y_tau=p / (n1 - 1),
        y_T=p / (n2 - 1),
    )


def fisher_trace_sq_dev(
    S1: np.ndarray, S2: np.ndarray, context: str = "", knob: str = "d2"
) -> float:
    """tr{(S1 S2^-1 - I)^2} without an eigendecomposition.

    One linear solve is cheaper than the full spectrum; the screen's
    boundary test and the null calibration use it. It runs on numpy
    alone. The Cholesky factor of S2 only checks its pivots: a singular
    S2 raises an error that names ``knob`` (see ``_cholesky_spd``).
    """
    p = S1.shape[0]
    _cholesky_spd(S2, context, knob)
    # M = F^T - I, with F^T = S2^-1 S1: numpy has no triangular solve, so
    # one general solve costs less than two against the factor
    M = np.linalg.solve(S2, S1) - np.eye(p)
    # tr(M^2) = sum_ij M_ij M_ji, the same for F^T as for F
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


def _scaled_interval(data, d: int, first: int = 0, stop=None):
    """(data, Z, sd, stuck): the prologue of the sliding engines.

    Z is the interval scaled once per row by its standard deviation sd.
    The Fisher spectrum and the correlation matrix of a window are
    invariant to a per-row rescaling shared by all its columns, and each
    block subtracts its own mean, so the engines work in Z instead of
    normalizing each window. stuck[k - first] marks window k (width d) of
    first..stop-1 in which some row is constant, where the direct path raises.
    """
    data = np.asarray(data, dtype=float)
    W = data.shape[1]
    if W < d:
        raise RecordTooShortError(
            f"interval of width {W} cannot hold one window of width {d}"
        )
    stop = W - d + 1 if stop is None else stop
    cols = data[:, first : stop + d - 1]  # those of windows first..stop-1
    # repeats[i, t]: how many of cols[i, 1..t] equal the column before
    repeats = np.zeros(cols.shape, dtype=np.int64)
    np.cumsum(cols[:, 1:] == cols[:, :-1], axis=1, out=repeats[:, 1:])
    stuck = ((repeats[:, d - 1 :] - repeats[:, : stop - first]) == d - 1).any(axis=0)

    sd = data.std(axis=1, ddof=1)
    sd[sd == 0.0] = 1.0  # a constant row makes every window stuck
    Z = (data - data.mean(axis=1, keepdims=True)) / sd[:, None]
    return data, Z, sd, stuck


def _fisher_states(data, d1: int, d2: int, first: int = 0, stop=None):
    """Yield (B, M, Y) for windows first..stop-1 of an interval, in O(p^2) per step.

    ``stop`` defaults to the interval's last window. Window k (0-based)
    covers columns [k, k + d2 + d1): a leading
    reference block of width d2 and a trailing probe block of width d1.
    In the scaled units Z of :func:`_scaled_interval`, R is the scatter of
    the window's centred reference block, ``Y`` the centred probe block
    (p x d1), P = Y Y^T its scatter, ``B`` = R^-1 and ``M`` = B P; with
    r = (d2-1)/(d1-1), the Fisher matrix F = S_probe S_ref^-1 has the
    eigenvalues of r M. B and M are updated in place, so read them before
    advancing. A window raises the error the direct path raises, with the
    context ``window k+1``.

    A step moves one column into and one out of each block, each a rank-1
    (Welford) change of its scatter. B = R^-1 follows by Sherman-Morrison
    and M by rank-1 terms, in place. Window ``first`` is computed directly
    (``window_covariances``, ``_cholesky_spd``), and so is each window k
    with k % REFRESH == 0, where a channel is constant across the window,
    and where a guard does not trust the updates: a denominator below
    DENOMINATOR_FLOOR; 1/max_i (S_ref^-1)_ii, a lower bound on the smallest
    squared pivot, within PIVOT_MARGIN of the pivot floor; or a relative
    residual |R M x - P x| above RESIDUAL_TOL on two fixed random vectors x.
    """
    d = d1 + d2
    data, Z, sd, stuck = _scaled_interval(data, d, first, stop)
    p = data.shape[0]
    r = (d2 - 1) / (d1 - 1)
    probes = np.random.default_rng(0).standard_normal((p, 2))
    fblas, flapack = scipy_blas_lapack()
    ger = fblas.dger

    def refresh(k: int):
        """B, M, the two block means and Y of window k, computed directly."""
        cols = data[:, k : k + d]
        ctx = f"window {k + 1}"
        S_probe, S_ref = window_covariances(WindowSplit(k, d2, d1, cols), ctx)
        L = _cholesky_spd(S_ref, ctx)
        # S_ref^-1 from its factor: potri fills the lower triangle, and the
        # pivot floor of _cholesky_spd leaves it no zero pivot to report
        S_inv = flapack.dpotri(L, lower=1)[0]
        S_inv = np.tril(S_inv) + np.tril(S_inv, -1).T
        # the normalized columns are the scaled ones times D
        D = sd / cols.std(axis=1, ddof=1)
        B = np.asfortranarray(S_inv * np.outer(D, D) / (d2 - 1))
        # M by the one solve of fisher_trace_sq_dev, so both round alike
        M = np.asfortranarray(np.linalg.solve(S_ref, S_probe) * np.outer(D, 1.0 / D) / r)
        means = [Z[:, k : k + d2].mean(axis=1), Z[:, k + d2 : k + d].mean(axis=1)]
        return B, M, means, Z[:, k + d2 : k + d] - means[1][:, None]

    def step(k: int, B, M, means):
        """Slide from window k-1 to k in place; return Y, or None where a
        guard trips."""
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
            if block:  # P += c v v^T
                ger(c, w, v, a=M, overwrite_a=True)
                continue
            den = 1.0 + c * (v @ w)  # R += c v v^T
            if not den >= DENOMINATOR_FLOOR:
                return None
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
            return None
        SY = ref @ (ref.T @ (M @ probes))
        SX = probe @ (probe.T @ probes)
        res = np.linalg.norm(SY - SX) / (np.linalg.norm(SY) + np.linalg.norm(SX))
        return probe if res <= RESIDUAL_TOL else None

    for k in range(first, first + len(stuck)):
        direct = k == first or k % REFRESH == 0 or stuck[k - first]
        Y = None if direct else step(k, B, M, means)
        if Y is None:
            B, M, means, Y = refresh(k)
        yield B, M, Y


def sliding_trace_sq_dev(
    data: np.ndarray, d1: int, d2: int, first: int = 0, stop=None
) -> np.ndarray:
    """tr{(F - I)^2} of step-1 windows first..stop-1 of an interval (by
    default every window), in O(p^2) per step.

    Window k (0-based) covers columns [k, k + d2 + d1), as in
    :func:`_fisher_states`. Each value equals
    ``fisher_trace_sq_dev(*window_covariances(w))`` to about 1e-11
    relative, and a window raises the error that path raises, with the
    context ``window k+1``. With r = (d2-1)/(d1-1), tr F = r tr M and
    tr F^2 = r^2 sum(M * M^T).
    """
    p = np.shape(data)[0]
    r = (d2 - 1) / (d1 - 1)
    return np.array([
        r * r * np.einsum("ij,ji->", M, M) - 2.0 * r * np.trace(M) + p
        for _, M, _ in _fisher_states(data, d1, d2, first, stop)
    ])


def _lanczos_top(B: np.ndarray, Y: np.ndarray, v: np.ndarray, Q, a, b):
    """Largest Ritz pair of the symmetric H = Y^T B Y (n x n, with Y p x n).

    Lanczos with full reorthogonalization (classical Gram-Schmidt, twice)
    starts from v; each step multiplies by H as Y^T (B (Y q)). B (p x p,
    Fortran order) must be symmetric. Q (n x n, Fortran order) receives the
    orthonormal Krylov basis, a and b (length n) the tridiagonal. Returns
    (theta, rho, y): the largest Ritz value, the norm of its residual
    H y - theta y, and its unit Ritz vector, at convergence, breakdown or
    step n. theta is at most the largest eigenvalue of H, and some
    eigenvalue of H lies within rho of it.
    """
    fblas, flapack = scipy_blas_lapack()
    gemv, nrm2, stev = fblas.dgemv, fblas.dnrm2, flapack.dstev
    YT = Y.T  # Fortran order, so BLAS takes it without a copy
    np.divide(v, nrm2(v), out=Q[:, 0])
    m = len(a)
    for j in range(m):
        q = Q[:, : j + 1]
        w = gemv(1.0, YT, gemv(1.0, B, gemv(1.0, YT, Q[:, j], trans=1)))
        h = gemv(1.0, q, w, trans=1)
        gemv(-1.0, q, h, beta=1.0, y=w, overwrite_y=True)
        h2 = gemv(1.0, q, w, trans=1)
        gemv(-1.0, q, h2, beta=1.0, y=w, overwrite_y=True)
        a[j] = h[j] + h2[j]
        beta = nrm2(w)
        # breakdown (H q_j lies in the Krylov space up to rounding, so that
        # space is invariant and its Ritz values are exact) or step n ends it
        done = beta <= BREAKDOWN * nrm2(h) or j + 1 == m
        if done or (j + 1) % LANCZOS_CHECK == 0:
            thetas, S, _ = stev(a[: j + 1], b[:j], compute_v=True)
            theta, s = thetas[-1], S[:, -1]
            rho = beta * abs(s[-1])
            if done or rho <= LANCZOS_TOL * theta:
                return theta, rho, q @ s
        b[j] = beta
        np.divide(w, beta, out=Q[:, j + 1])


def sliding_fisher_largest(
    data: np.ndarray, d1: int, d2: int, edge: float, first: int = 0, stop=None
) -> np.ndarray:
    """Largest eigenvalue of F of step-1 windows first..stop-1 (by default
    every window), flagged against ``edge``.

    Windows as in :func:`_fisher_states`, whose M = B Y Y^T has the nonzero
    eigenvalues of the symmetric d1 x d1 matrix H = Y^T B Y; so
    lambda_max(F) = r theta, with theta from :func:`_lanczos_top`. Window
    ``first`` and each window k with k % REFRESH == 0 start from a fixed
    random vector, and each other one from the last Ritz vector shifted by
    the column that the probe slides, plus a WARM_KICK relative kick,
    which lets a new top direction enter the Krylov space.

    The flag ``value > edge`` is certified when |r theta - edge| exceeds
    r max(rho, FLAG_MARGIN theta), the residual bound widened to cover
    the rounding of B and Y. A window that is not certified is computed
    directly by :func:`window_spectrum`, and that value is reported. So
    every flag equals the direct path's, and values agree with it within
    1e-8 relative.
    """
    d = d1 + d2
    data = np.asarray(data, dtype=float)
    r = (d2 - 1) / (d1 - 1)
    Q = np.empty((d1, d1), order="F")
    a, b = np.empty(d1), np.empty(d1)
    kick = np.random.default_rng(1).standard_normal(d1)
    kick /= np.linalg.norm(kick)
    values = []
    for k, (B, _, Y) in enumerate(_fisher_states(data, d1, d2, first, stop), first):
        # the probe drops its first column and gains a last one
        y = kick if k == first or k % REFRESH == 0 else np.append(y[1:], 0.0)
        v = y + WARM_KICK * np.linalg.norm(y) * kick
        theta, rho, y = _lanczos_top(B, Y, v, Q, a, b)
        if abs(r * theta - edge) > r * max(rho, FLAG_MARGIN * theta):
            values.append(r * theta)
        else:
            window = WindowSplit(k, d2, d1, data[:, k : k + d])
            values.append(window_spectrum(window, f"window {k + 1}").largest)
    return np.array(values)


def sliding_correlation_largest(
    data: np.ndarray, d: int, first: int = 0, stop=None
) -> np.ndarray:
    """Largest eigenvalue of the correlation matrix of step-1 windows
    first..stop-1 (by default every window).

    Window k covers columns [k, k + d). The correlation matrix is the
    covariance of the window's normalized rows, as in
    ``sample_covariance(normalize_rows(w))``, and the scatter rescaled by
    its diagonal. The scatter and mean of the scaled interval Z (see
    :func:`_scaled_interval`) follow by two rank-1 (Welford) updates per
    step. Each window's correlation matrix is written into one p x p
    buffer, and LAPACK ``dsyevx`` (``range='I'``) reduces it to a
    tridiagonal and finds only the top eigenvalue by bisection. The
    scatter is computed directly at window ``first``, at each window k
    with k % REFRESH == 0, where a channel is constant across the window
    (there ``normalize_rows`` raises the direct path's error), and where a
    diagonal entry has fallen below SCATTER_DROP of its peak since the
    last refresh. A solve that does not return one eigenvalue raises
    :class:`FisherwatchError` with the context ``window k+1``.
    """
    data, Z, _, stuck = _scaled_interval(data, d, first, stop)
    p = data.shape[0]
    fblas, flapack = scipy_blas_lapack()
    ger, syevx = fblas.dger, flapack.dsyevx

    def refresh(k: int):
        """Scatter, mean and peak diagonal of window k, computed directly."""
        normalize_rows(data[:, k : k + d], f"window {k + 1}")
        mean = Z[:, k : k + d].mean(axis=1)
        centred = Z[:, k : k + d] - mean[:, None]
        C = np.asfortranarray(centred @ centred.T)
        return C, mean, C.diagonal().copy()

    def step(k: int, C, mean, peak) -> bool:
        """Slide from window k-1 to k in place; False where a diagonal
        entry fell below SCATTER_DROP of its peak since the refresh."""
        # column k-1+d joins the d columns, then column k-1 leaves
        v = Z[:, k - 1 + d] - mean
        mean += v / (d + 1)
        ger(d / (d + 1), v, v, a=C, overwrite_a=True)
        v = Z[:, k - 1] - mean
        mean -= v / d
        ger(-(d + 1) / d, v, v, a=C, overwrite_a=True)
        np.maximum(peak, C.diagonal(), out=peak)
        return bool((C.diagonal() >= SCATTER_DROP * peak).all())

    values = np.empty(len(stuck))
    G = np.empty((p, p), order="F")  # the correlation matrix, overwritten
    for k in range(first, first + len(stuck)):
        if k == first or k % REFRESH == 0 or stuck[k - first] or not step(k, C, mean, peak):
            C, mean, peak = refresh(k)
        s = 1.0 / np.sqrt(C.diagonal())
        np.multiply(C, s[:, None], out=G)
        G *= s
        w, _, m, _, info = syevx(G, compute_v=0, range="I", il=p, iu=p, overwrite_a=1)
        if info != 0 or m != 1:
            raise FisherwatchError(
                f"top eigenvalue of the correlation matrix not found (window {k + 1}): "
                f"dsyevx returned info={info}, m={m}"
            )
        values[k - first] = w[0]
    return values
