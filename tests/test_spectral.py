import functools

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fisherwatch import spectral
from fisherwatch.blas import scipy_blas_lapack, single_threaded
from fisherwatch.errors import (
    DegenerateChannelError,
    FisherwatchError,
    RecordTooShortError,
    ShapeError,
    SingularCovarianceError,
)
from fisherwatch.rmt import mp_upper_edge, support_edges
from fisherwatch.spectral import (
    LANCZOS_CHECK,
    LANCZOS_TOL,
    REFRESH,
    WARM_KICK,
    FisherSpectrum,
    WindowSplit,
    fisher_eigenvalues,
    fisher_trace_sq_dev,
    normalize_rows,
    sample_covariance,
    sliding_correlation_largest,
    sliding_fisher_largest,
    sliding_trace_sq_dev,
    window_covariances,
    window_spectrum,
)


def random_spd(rng, p, jitter=0.1):
    A = rng.standard_normal((p, p))
    return A @ A.T / p + jitter * np.eye(p)


class TestNormalizeRows:
    def test_unit_moments_per_row(self):
        rng = np.random.default_rng(1)
        Z = normalize_rows(3.0 + 2.0 * rng.standard_normal((5, 40)))
        assert np.allclose(Z.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=1, ddof=1), 1.0, atol=1e-12)

    def test_constant_row_reported_one_based(self):
        seg = np.random.default_rng(0).standard_normal((4, 10))
        seg[2] = 7.0
        with pytest.raises(DegenerateChannelError) as err:
            normalize_rows(seg, "unit test")
        assert err.value.row == 3

    def test_constant_row_whose_mean_rounds(self):
        # ten copies of 0.3 average to a neighbour of 0.3: sd 6e-17, not 0
        seg = np.random.default_rng(0).standard_normal((4, 10))
        seg[1] = 0.3
        with pytest.raises(DegenerateChannelError) as err:
            normalize_rows(seg)
        assert err.value.row == 2

    def test_rejects_single_column(self):
        with pytest.raises(ShapeError):
            normalize_rows(np.zeros((3, 1)))

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_up_to_rescaling(self, seed):
        seg = np.random.default_rng(seed).standard_normal((4, 30))
        once = normalize_rows(seg)
        assert np.allclose(normalize_rows(once), once, atol=1e-10)


class TestSampleCovariance:
    def test_matches_elementwise_definition(self):
        rng = np.random.default_rng(2)
        seg = rng.standard_normal((4, 12))
        S = sample_covariance(seg)
        n = seg.shape[1]
        mean = seg.mean(axis=1)
        for i in range(4):
            for j in range(4):
                ref = np.sum((seg[i] - mean[i]) * (seg[j] - mean[j])) / (n - 1)
                assert S[i, j] == pytest.approx(ref, rel=1e-12)

    def test_symmetric(self):
        S = sample_covariance(np.random.default_rng(3).standard_normal((6, 20)))
        assert np.array_equal(S, S.T)
        # exactly, unaveraged, on strided views of rows scaled from 0.1 to 1e3
        for p in (2, 40, 200):
            rng = np.random.default_rng(p)
            scales = np.geomspace(0.1, 1e3, 2 * p)[:, None]
            S = sample_covariance((rng.standard_normal((2 * p, 3 * (p + 5))) * scales)[::2, ::3])
            assert np.array_equal(S, S.T), p

    def test_subtracts_residual_mean(self):
        seg = np.random.default_rng(4).standard_normal((3, 15)) + 100.0
        assert np.abs(sample_covariance(seg)).max() < 10.0


class TestWindowSplit:
    def test_blocks(self):
        cols = np.random.default_rng(5).standard_normal((3, 10))
        w = WindowSplit(start=2, n1=6, n2=4, columns=cols)
        S_probe, S_ref = window_covariances(w)
        Xn = normalize_rows(cols)  # shared by both blocks
        assert np.allclose(S_ref, np.cov(Xn[:, :6]), rtol=1e-12)
        assert np.allclose(S_probe, np.cov(Xn[:, 6:]), rtol=1e-12)

    def test_reference_block_must_exceed_p(self):
        cols = np.zeros((5, 8))
        with pytest.raises(ShapeError):
            WindowSplit(start=0, n1=4, n2=4, columns=cols)

    def test_probe_block_needs_two_columns(self):
        cols = np.zeros((3, 5))
        with pytest.raises(ShapeError):
            WindowSplit(start=0, n1=4, n2=1, columns=cols)

    def test_width_must_match(self):
        cols = np.zeros((3, 9))
        with pytest.raises(ShapeError):
            WindowSplit(start=0, n1=4, n2=4, columns=cols)


class TestFisherEigenvalues:
    def test_matches_explicit_product(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            S1, S2 = random_spd(rng, 12), random_spd(rng, 12)
            spec = fisher_eigenvalues(S1, S2, 20, 20)
            ref = np.sort(np.linalg.eigvals(S1 @ np.linalg.inv(S2)).real)[::-1]
            assert np.allclose(spec.eigenvalues, ref, rtol=1e-6, atol=1e-10)

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        S1, S2 = random_spd(rng, 15), random_spd(rng, 15)
        spec = fisher_eigenvalues(S1, S2, 30, 30)
        direct = fisher_trace_sq_dev(S1, S2)
        assert direct == pytest.approx(np.sum((spec.eigenvalues - 1.0) ** 2), rel=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        S1, S2 = random_spd(rng, 10), random_spd(rng, 10)
        base = fisher_eigenvalues(S1, S2, 20, 20).eigenvalues
        scaled = fisher_eigenvalues(3.5 * S1, S2, 20, 20).eigenvalues
        assert np.allclose(scaled, 3.5 * base, rtol=1e-9)
        common = fisher_eigenvalues(2.0 * S1, 2.0 * S2, 20, 20).eigenvalues
        assert np.allclose(common, base, rtol=1e-9)

    def test_rank_deficient_numerator_yields_zeros(self):
        rng = np.random.default_rng(9)
        p, n1 = 8, 5
        seg = rng.standard_normal((p, n1))
        S1 = sample_covariance(seg)  # rank n1 - 1
        S2 = random_spd(rng, p)
        spec = fisher_eigenvalues(S1, S2, n1, 20)
        assert np.sum(spec.eigenvalues == 0.0) == p - (n1 - 1)

    def test_singular_denominator_rejected(self):
        rng = np.random.default_rng(10)
        p = 6
        S1 = random_spd(rng, p)
        S2 = sample_covariance(rng.standard_normal((p, 4)))  # rank 3 < p
        with pytest.raises(SingularCovarianceError):
            fisher_eigenvalues(S1, S2, 10, 4)
        with pytest.raises(SingularCovarianceError):
            fisher_trace_sq_dev(S1, S2)

    def test_identity_pair_is_unit_spectrum(self):
        spec = fisher_eigenvalues(np.eye(5), np.eye(5), 10, 10)
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.sum((spec.eigenvalues - 1.0) ** 2) == pytest.approx(0.0, abs=1e-20)

    def test_aspect_ratios_recorded(self):
        spec = fisher_eigenvalues(np.eye(4), np.eye(4), 9, 17)
        assert spec.y_tau == pytest.approx(4 / 8)
        assert spec.y_T == pytest.approx(4 / 16)

    @pytest.mark.parametrize("p", [5, 40, 80, 200])
    def test_equals_scipy_eigh_bit_for_bit(self, p):
        # scipy as the oracle: eigh calls the same LAPACK routine
        rng = np.random.default_rng([21, p])
        for n in (p // 2 + 1, p + 1, 2 * p, 3 * p, 5 * p):  # S1 rank-deficient first
            S1 = sample_covariance(rng.standard_normal((p, n)))
            S2 = sample_covariance(rng.standard_normal((p, 3 * p)))
            lam = scipy.linalg.eigh(S1, S2, eigvals_only=True, check_finite=False)
            expected = np.where(np.abs(lam) < 1e-12, 0.0, lam)[::-1]
            assert np.array_equal(fisher_eigenvalues(S1, S2, n, 3 * p).eigenvalues, expected)

    @pytest.mark.parametrize("info", [1, 7])
    def test_failed_generalized_solve_raises(self, monkeypatch, info):
        lapack = scipy_blas_lapack()[1]
        dsygvd = lapack.dsygvd

        def failing(*args, **kwargs):
            w, v, _ = dsygvd(*args, **kwargs)
            return w, v, info

        monkeypatch.setattr(lapack, "dsygvd", failing)
        rng = np.random.default_rng(22)
        with pytest.raises(FisherwatchError, match=rf"\(window 3\): dsygvd returned info={info}"):
            fisher_eigenvalues(random_spd(rng, 6), random_spd(rng, 6), 10, 10, "window 3")


class TestWindowSpectrum:
    def make_window(self, rng, p=5, n1=12, n2=8):
        cols = rng.standard_normal((p, n1 + n2))
        return WindowSplit(start=0, n1=n1, n2=n2, columns=cols)

    def test_probe_in_numerator(self):
        rng = np.random.default_rng(11)
        w = self.make_window(rng)
        spec = window_spectrum(w)
        Xn = normalize_rows(w.columns)
        ref = fisher_eigenvalues(
            sample_covariance(Xn[:, w.n1:]), sample_covariance(Xn[:, :w.n1]), w.n2, w.n1
        )
        assert np.allclose(spec.eigenvalues, ref.eigenvalues)
        assert spec.y_tau == pytest.approx(5 / 7)
        assert spec.y_T == pytest.approx(5 / 11)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_invariant_under_channel_rescaling(self, seed):
        # gain errors on individual channels must not move the spectrum
        rng = np.random.default_rng(seed)
        w = self.make_window(rng)
        gains = np.exp(rng.standard_normal(5))[:, None]
        w2 = WindowSplit(start=0, n1=w.n1, n2=w.n2, columns=gains * w.columns)
        assert np.allclose(
            window_spectrum(w).eigenvalues, window_spectrum(w2).eigenvalues, rtol=1e-8
        )

    def test_variance_jump_in_probe_lifts_spectrum(self):
        rng = np.random.default_rng(12)
        p, n1, n2 = 5, 40, 20
        cols = rng.standard_normal((p, n1 + n2))
        quiet = window_spectrum(WindowSplit(start=0, n1=n1, n2=n2, columns=cols))
        cols2 = cols.copy()
        cols2[:2, n1:] *= 6.0
        loud = window_spectrum(WindowSplit(start=0, n1=n1, n2=n2, columns=cols2))
        assert loud.largest > 4.0 * quiet.largest


def direct_traces(data, d1, d2):
    """tr{(F - I)^2} of every window from the per-window kernels."""
    d = d1 + d2
    traces = []
    for k in range(data.shape[1] - d + 1):
        w, ctx = WindowSplit(k, d2, d1, data[:, k : k + d]), f"window {k + 1}"
        traces.append(fisher_trace_sq_dev(*window_covariances(w, ctx), ctx))
    return np.array(traces)


STREAMS = ("gaussian", "pmu", "scales", "jump", "ar1", "spike", "drop")


def oracle_stream(kind, p, W, rng):
    g = rng.standard_normal((p, W))
    if kind == "gaussian":
        return g
    if kind == "pmu":
        return 1.0 + 1e-4 * g
    if kind == "scales":  # channel scales 1e-3 .. 1e3
        return g * np.logspace(-3, 3, p)[:, None]
    if kind == "jump":
        g[:, W // 2 :] *= 1e3
        return g
    if kind == "drop":  # a cleared fault: every channel falls by 1e3
        g[:, : W // 2] *= 1e3
        return g
    if kind == "spike":
        # a growing component along u keeps u the top direction until a
        # strong rank-one spike along v, orthogonal to u, sets in mid-way
        u, v = np.linalg.qr(rng.standard_normal((p, 2)))[0].T
        g += np.outer(u, np.exp(4.0 * np.arange(W) / W) * rng.standard_normal(W))
        g[:, W // 2 :] += np.outer(v, 10.0 * rng.standard_normal(W - W // 2))
        return g
    # near-singular reference: AR(1) columns with coefficient 0.95
    x = g.copy()
    for t in range(1, W):
        x[:, t] += 0.95 * x[:, t - 1]
    return x


def oracle_case(p, kind):
    """(d1, d2, data): the default geometry, except d2 = p+2 for the
    near-singular case, on an interval 3*REFRESH+40 windows long."""
    d1 = max(p - 10, 2)
    d2 = p + 2 if kind == "ar1" else p + 10
    W = d1 + d2 + 3 * REFRESH + 40
    return d1, d2, oracle_stream(kind, p, W, np.random.default_rng([p, STREAMS.index(kind)]))


def exact_ints(A):
    """(N, K): an object array of Python ints with A == N / 2**K exactly."""
    ratios = [x.as_integer_ratio() for x in np.ravel(A).tolist()]
    K = max(den.bit_length() - 1 for _, den in ratios)
    N = [num << (K - den.bit_length() + 1) for num, den in ratios]
    return np.array(N, dtype=object).reshape(np.shape(A)), K


def high_precision_trace(S1, S2):
    """tr{(S2^-1 S1 - I)^2} to far below the float64 kernels' errors.

    X = S2^-1 S1 by one float64 solve is refined once by a solve against
    its residual S1 - S2 X, computed exactly in integers; the trace of
    (X - I)^2 is summed in 40-digit mpmath. On the oracle windows this
    agrees with a 40-digit mpmath solve to 4e-17 relative or better (at
    cond(S2) = 5e8); the mpmath solve costs seconds per window at p=80.
    """
    X = np.linalg.solve(S2, S1)
    (N1, K1), (N2, K2), (NX, KX) = exact_ints(S1), exact_ints(S2), exact_ints(X)
    K = max(K1, K2 + KX)
    R = N1 * (1 << (K - K1)) - N2.dot(NX) * (1 << (K - K2 - KX))
    dX = np.linalg.solve(S2, np.array([r / (1 << K) for r in R.ravel()]).reshape(R.shape))
    p = len(X)
    with mpmath.workdps(40):
        Y = [[mpmath.mpf(X[i, j]) + dX[i, j] - (i == j) for j in range(p)] for i in range(p)]
        return mpmath.fsum(Y[i][j] * Y[j][i] for i in range(p) for j in range(p))


class TestSlidingTraceSqDev:
    @pytest.mark.parametrize("kind", STREAMS)
    @pytest.mark.parametrize("p", [5, 20, 80])
    def test_matches_direct_kernels_on_every_window(self, p, kind):
        d1, d2, data = oracle_case(p, kind)
        W = data.shape[1]
        with single_threaded():  # as on the scan path
            direct = direct_traces(data, d1, d2)
            fast = sliding_trace_sq_dev(data, d1, d2)
        assert fast.shape == direct.shape == (W - d1 - d2 + 1,)
        assert np.max(np.abs(fast - direct) / np.abs(direct)) < 1e-10

    @pytest.mark.parametrize("kind", STREAMS)
    @pytest.mark.parametrize("p", [20, 80])
    def test_accurate_to_the_conditioning_of_the_reference(self, p, kind):
        # against a high-precision value rather than the direct path: each
        # relative error within 100 eps cond(S_ref); the worst ratios
        # measured are 28 for the engine (drop stream, p=20, window 233)
        # and 0.11 for the direct path
        d1, d2, data = oracle_case(p, kind)
        d = d1 + d2
        with single_threaded():
            fast = sliding_trace_sq_dev(data, d1, d2)
        # the most updates since a refresh, the middle, the last window
        for k in (REFRESH - 1, len(fast) // 2, len(fast) - 1):
            S_probe, S_ref = window_covariances(WindowSplit(k, d2, d1, data[:, k : k + d]))
            exact = high_precision_trace(S_probe, S_ref)
            bound = 100 * np.finfo(float).eps * np.linalg.cond(S_ref) * abs(exact)
            for value in (fisher_trace_sq_dev(S_probe, S_ref), fast[k]):
                assert abs(value - exact) <= bound, (k, value, exact)

    def test_too_short(self):
        with pytest.raises(RecordTooShortError):
            sliding_trace_sq_dev(np.zeros((4, 10)), 6, 9)

    @pytest.mark.parametrize("decades", [8, 12])
    def test_converging_channel_raises_at_the_direct_window(self, decades):
        # channel 2 closes in on channel 1 by `decades` orders of magnitude,
        # so the reference pivot crosses the floor without any single
        # update looking singular
        p, d1, d2, W = 20, 10, 30, 400
        rng = np.random.default_rng(decades)
        data = rng.standard_normal((p, W))
        data[1] = data[0] + 10.0 ** (-decades * np.arange(W) / W) * rng.standard_normal(W)
        with pytest.raises(SingularCovarianceError) as direct:
            direct_traces(data, d1, d2)
        with pytest.raises(SingularCovarianceError) as fast:
            sliding_trace_sq_dev(data, d1, d2)
        assert str(fast.value) == str(direct.value)

    def test_constant_row_raises_at_first_window(self):
        data = np.random.default_rng(13).standard_normal((5, 60))
        data[3] = 2.0
        with pytest.raises(DegenerateChannelError) as err:
            sliding_trace_sq_dev(data, 4, 8)
        assert err.value.row == 4
        assert "window 1" in str(err.value)


def direct_largest(data, d1, d2):
    """lambda_max(F) of every window from the per-window kernels."""
    d = d1 + d2
    return np.array([
        window_spectrum(WindowSplit(k, d2, d1, data[:, k : k + d]), f"window {k + 1}").largest
        for k in range(data.shape[1] - d + 1)
    ])


@pytest.fixture
def lanczos_runs(monkeypatch):
    """(start vector, steps, Ritz vector) of each run of _lanczos_top."""
    runs, top = [], spectral._lanczos_top

    def recording(B, Y, v, Q, a, b):
        a[:] = np.nan  # each step writes one diagonal entry
        theta, rho, y = top(B, Y, v, Q, a, b)
        runs.append((v.copy(), int(np.count_nonzero(~np.isnan(a))), y))
        return theta, rho, y

    monkeypatch.setattr(spectral, "_lanczos_top", recording)
    return runs


class TestLanczosTop:
    """Symmetric Lanczos on H = Y^T B Y, against eigvalsh of H."""

    @staticmethod
    def run(p, n, spike=1.0):
        """(theta, rho, y, H, steps) on an SPD B and a row-centred Y (p x n)
        whose first channel is scaled by ``spike``."""
        rng = np.random.default_rng([p, n])
        B = np.asfortranarray(random_spd(rng, p))
        Y = rng.standard_normal((p, n))
        Y[0] *= spike
        Y -= Y.mean(axis=1, keepdims=True)
        Q = np.empty((n, n), order="F")
        a, b = np.full(n, np.nan), np.empty(n)
        theta, rho, y = spectral._lanczos_top(B, Y, rng.standard_normal(n), Q, a, b)
        return theta, rho, y, Y.T @ B @ Y, int(np.count_nonzero(~np.isnan(a)))

    @staticmethod
    def assert_ritz_pair(theta, rho, y, H):
        top = np.linalg.eigvalsh(H)[-1]
        tol = 1e-12 * top
        assert theta <= top + tol
        assert top - theta <= rho + tol
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(H @ y - theta * y) <= rho + tol

    def test_converges_on_a_dominant_eigenvalue(self):
        theta, rho, y, H, steps = self.run(30, 25, spike=10.0)
        self.assert_ritz_pair(theta, rho, y, H)
        assert steps < 25 and steps % LANCZOS_CHECK == 0
        assert rho <= LANCZOS_TOL * theta

    def test_breaks_down_when_h_has_rank_below_n_minus_one(self, monkeypatch):
        # H has rank p = 5: the Krylov space of its range and of the null
        # direction in the start vector is invariant after p + 1 steps
        monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
        theta, rho, y, H, steps = self.run(5, 12)
        self.assert_ritz_pair(theta, rho, y, H)
        assert steps <= 5 + 1

    def test_ends_after_n_steps_when_h_has_rank_n_minus_one(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
        theta, rho, y, H, steps = self.run(20, 8)
        self.assert_ritz_pair(theta, rho, y, H)
        assert steps == 8


class TestSlidingFisherLargest:
    @pytest.fixture
    def direct_windows(self, monkeypatch):
        """0-based windows that the reader computes with window_spectrum."""
        starts = []

        def recording(window, context=""):
            starts.append(window.start)
            return window_spectrum(window, context)

        monkeypatch.setattr(spectral, "window_spectrum", recording)
        return starts

    @pytest.mark.parametrize("kind", STREAMS)
    @pytest.mark.parametrize("p", [5, 20, 80])
    def test_matches_direct_path_on_every_window(self, p, kind, direct_windows):
        d1, d2, data = oracle_case(p, kind)
        edge = support_edges(p / (d1 - 1), p / (d2 - 1)).b
        with single_threaded():  # as on the scan path
            direct = direct_largest(data, d1, d2)
            fast = sliding_fisher_largest(data, d1, d2, edge)
        assert fast.shape == direct.shape
        assert np.max(np.abs(fast - direct) / direct) < 1e-8
        assert np.array_equal(fast > edge, direct > edge)
        assert len(direct_windows) < len(fast) // 10  # Lanczos did the work

    def test_uncertified_window_takes_the_direct_path(self, direct_windows):
        p, d1, d2, k = 20, 10, 30, 77
        data = np.random.default_rng(14).standard_normal((p, 200))
        with single_threaded():
            direct = direct_largest(data, d1, d2)
            fast = sliding_fisher_largest(data, d1, d2, direct[k])
        assert direct_windows == [k]
        assert fast[k] == direct[k]
        assert not fast[k] > direct[k]  # the flag the direct path gives

    @pytest.mark.parametrize("d1", [10, 30])
    def test_runs_to_breakdown_or_n_steps_stay_certified(
        self, monkeypatch, direct_windows, lanczos_runs, d1
    ):
        # no Ritz value ever counts as converged, so every run on the d1 x d1
        # H = Y^T B Y ends after d1 steps (d1 = 10: H has rank 9 = d1 - 1)
        # or at a breakdown (d1 = 30: H has rank p = 20 < d1 - 1), and its
        # last Ritz pair must still certify
        monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
        data = np.random.default_rng(15).standard_normal((20, 60))
        edge = 25.0  # splits the d1 = 10 values, 17.0-45.4
        direct = direct_largest(data, d1, 30)
        fast = sliding_fisher_largest(data, d1, 30, edge)
        steps = {s for _, s, _ in lanczos_runs}
        if d1 == 10:
            assert steps == {d1}
        else:
            assert max(steps) < d1  # 22 steps on this record
        assert direct_windows == []
        assert np.max(np.abs(fast - direct)) < 1e-8
        assert np.array_equal(fast > edge, direct > edge)

    def test_warm_start_shifts_the_last_ritz_vector(self, lanczos_runs):
        # window k's probe is window k-1's without its first column and
        # with one more last column; the grid windows start from the kick
        d1, d2, data = oracle_case(80, "jump")
        edge = support_edges(80 / (d1 - 1), 80 / (d2 - 1)).b
        with single_threaded():
            sliding_fisher_largest(data, d1, d2, edge)
        assert len(lanczos_runs) == data.shape[1] - d1 - d2 + 1
        kick = np.random.default_rng(1).standard_normal(d1)
        kick /= np.linalg.norm(kick)
        for k, (v, _, _) in enumerate(lanczos_runs):
            y = kick if k % REFRESH == 0 else np.append(lanczos_runs[k - 1][2][1:], 0.0)
            assert np.allclose(v, y + WARM_KICK * np.linalg.norm(y) * kick,
                               rtol=0.0, atol=1e-15), k

    @pytest.mark.parametrize("p", [5, 60])
    def test_too_short(self, p):
        with pytest.raises(RecordTooShortError):
            sliding_fisher_largest(np.zeros((p, 2 * p)), p, p + 2, 1.0)


def direct_correlation_largest(data, d):
    """Top eigenvalue of every window's normalized-row covariance."""
    return np.array([
        np.linalg.eigvalsh(sample_covariance(normalize_rows(data[:, k : k + d])))[-1]
        for k in range(data.shape[1] - d + 1)
    ])


def assert_correlation_parity(data, d):
    """Every window's value within 1e-12 of the direct path, every flag equal."""
    edge = mp_upper_edge(data.shape[0] / (d - 1))
    with single_threaded():
        direct = direct_correlation_largest(data, d)
        fast = sliding_correlation_largest(data, d)
    assert fast.shape == direct.shape == (data.shape[1] - d + 1,)
    assert np.max(np.abs(fast - direct) / direct) < 1e-12
    assert np.array_equal(fast > edge, direct > edge)


def correlation_case(p, seed):
    """(d, gaussian data): the default window on 3*REFRESH+40 windows."""
    d = max(p - 10, 2) + p + 10
    return d, np.random.default_rng(seed).standard_normal((p, d + 3 * REFRESH + 39))


class TestSlidingCorrelationLargest:
    @pytest.mark.parametrize("kind", STREAMS)
    @pytest.mark.parametrize("p", [5, 20, 80])
    def test_matches_direct_path_on_every_window(self, p, kind):
        d1, d2, data = oracle_case(p, kind)
        assert_correlation_parity(data, d1 + d2)

    @pytest.mark.parametrize("p", [2, 5, 20, 80])
    def test_duplicated_channel(self, p):
        # two equal rows make every window's correlation matrix singular
        d, data = correlation_case(p, [17, p])
        data[-1] = data[0]
        assert_correlation_parity(data, d)

    @pytest.mark.parametrize("p", [4, 20, 80])
    def test_near_tied_top_eigenvalue(self, p):
        # equal-strength spikes on disjoint halves of the channels: a cosine
        # and a sine of period d, which in every window have equal energy
        # and no cross term, so the top two eigenvalues differ only through
        # the noise (about 1e-3 relative)
        d, data = correlation_case(p, [18, p])
        half = p // 2
        phase = 2.0 * np.pi * np.arange(data.shape[1]) / d
        data[:half] += 30.0 * np.cos(phase)
        data[half : 2 * half] += 30.0 * np.sin(phase)
        assert_correlation_parity(data, d)

    def test_matches_direct_path_at_p200(self):
        d1, d2, data = oracle_case(200, "spike")
        assert_correlation_parity(data, d1 + d2)

    @pytest.mark.parametrize("info, m", [(1, 1), (0, 0)])
    def test_failed_top_eigenvalue_solve_raises(self, monkeypatch, info, m):
        lapack = scipy_blas_lapack()[1]
        dsyevx, calls = lapack.dsyevx, []

        def failing_on_fifth_call(*args, **kwargs):
            calls.append(None)
            w, z, found, ifail, status = dsyevx(*args, **kwargs)
            return (w, z, m, ifail, info) if len(calls) == 5 else (w, z, found, ifail, status)

        monkeypatch.setattr(lapack, "dsyevx", failing_on_fifth_call)
        data = np.random.default_rng(20).standard_normal((6, 60))
        with pytest.raises(FisherwatchError, match=r"\(window 5\)"):
            sliding_correlation_largest(data, 20)

    def test_too_short(self):
        with pytest.raises(RecordTooShortError):
            sliding_correlation_largest(np.zeros((4, 10)), 11)

    @pytest.mark.parametrize("level", [0.25, 0.3])
    def test_constant_row_raises_at_first_stuck_window(self, level):
        data = np.random.default_rng(16).standard_normal((5, 120))
        data[2, 50:90] = level  # constant across window 51 (width 40) only
        with pytest.raises(DegenerateChannelError) as err:
            sliding_correlation_largest(data, 40)
        assert err.value.row == 3
        assert "(window 51)" in str(err.value)


def ranged_scan(method, p, kind, first=0, stop=None):
    """``method``'s engine values of the windows [first, stop) of an oracle
    case (by default every window); dele flags against the support edge."""
    d1, d2, data = oracle_case(p, kind)
    with single_threaded():  # as on the scan path
        if method == "deht":
            return sliding_trace_sq_dev(data, d1, d2, first, stop)
        if method == "dele":
            edge = support_edges(p / (d1 - 1), p / (d2 - 1)).b
            return sliding_fisher_largest(data, d1, d2, edge, first, stop)
        return sliding_correlation_largest(data, d1 + d2, first, stop)


whole_scan = functools.lru_cache(maxsize=None)(ranged_scan)


@pytest.mark.parametrize("method", ["deht", "dele", "mp"])
@pytest.mark.parametrize("first, stop", [(0, 1), (REFRESH, 2 * REFRESH),
                                         (2 * REFRESH, 3 * REFRESH + 40),
                                         (3 * REFRESH, 3 * REFRESH + 41)])
def test_window_range_reads_the_whole_scan(method, first, stop):
    # every engine refreshes on one grid of window numbers, and dele's
    # Lanczos starts afresh there, so a range that opens on the grid
    # reads the whole scan bit for bit, guards tripping or not
    for p in (5, 20, 80):
        for kind in STREAMS:
            whole = whole_scan(method, p, kind)
            assert len(whole) == 3 * REFRESH + 41
            part = ranged_scan(method, p, kind, first, stop)
            assert np.array_equal(part, whole[first:stop]), (p, kind)
