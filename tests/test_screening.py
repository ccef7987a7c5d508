import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherwatch.core import DetectionConfig, validate_config
from fisherwatch.errors import RecordTooShortError
from fisherwatch.rmt import rejection_threshold
from fisherwatch.screening import (
    merge_intervals,
    screen,
    segment_boundaries,
)
from fisherwatch.simgen import CovarianceEvent, Scenario, generate


class TestSegmentBoundaries:
    def test_paper_scale_segmentation(self):
        bounds = segment_boundaries(8000, 240)
        assert len(bounds) == 32
        assert bounds[0] == 240
        assert bounds[-1] == 7680

    def test_exact_multiple(self):
        assert segment_boundaries(600, 100) == [100, 200, 300, 400, 500]

    def test_remainder_absorbed_by_last_segment(self):
        # T = 650: five boundaries, final segment spans 500..650
        assert segment_boundaries(650, 100) == [100, 200, 300, 400, 500]

    def test_minimum_record(self):
        assert segment_boundaries(200, 100) == [100]

    def test_too_short(self):
        with pytest.raises(RecordTooShortError):
            segment_boundaries(199, 100)
        with pytest.raises(RecordTooShortError):
            segment_boundaries(100, 1)


class TestMergeIntervals:
    def test_overlap_example(self):
        assert merge_intervals([(4561, 5280), (4801, 5520)]) == [(4561, 5520)]

    def test_adjacent_merged(self):
        assert merge_intervals([(1, 10), (11, 20)]) == [(1, 20)]

    def test_disjoint_kept_sorted(self):
        assert merge_intervals([(30, 40), (1, 10)]) == [(1, 10), (30, 40)]

    def test_empty(self):
        assert merge_intervals([]) == []

    @given(
        st.lists(
            st.tuples(st.integers(1, 500), st.integers(1, 500)).map(
                lambda t: (min(t), max(t))
            ),
            max_size=15,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_properties(self, raw):
        merged = merge_intervals(raw)
        assert merged == sorted(merged)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(merged, merged[1:]):
            assert b_lo > a_hi + 1  # disjoint and non-adjacent
        covered = set()
        for lo, hi in merged:
            covered.update(range(lo, hi + 1))
        wanted = set()
        for lo, hi in raw:
            wanted.update(range(lo, hi + 1))
        assert wanted <= covered


@pytest.fixture(scope="module")
def cfg():
    return validate_config(DetectionConfig(), 20)


class TestScreen:
    def null_record(self, seed=0, p=20, T=1200):
        X, _ = generate(Scenario(p=p, T=T, seed=seed))
        return X

    def test_result_geometry(self, cfg):
        X = self.null_record()
        res = screen(X, cfg)
        assert res.boundaries == tuple(segment_boundaries(1200, cfg.D))
        assert len(res.statistics) == len(res.rejections) == len(res.boundaries)
        assert res.threshold == rejection_threshold(cfg.alpha)
        for L, reject in zip(res.statistics, res.rejections):
            assert type(reject) is bool
            assert reject == (abs(L) >= res.threshold)

    def test_result_carries_the_resolved_config(self):
        X = self.null_record()
        assert screen(X, DetectionConfig()).config == validate_config(DetectionConfig(), X.p)

    def test_raw_interval_construction(self, cfg):
        X = self.null_record(seed=3)
        res = screen(X, cfg)
        D, N = cfg.D, len(res.boundaries)
        for (lo, hi), i in zip(
            res.raw_intervals,
            [i + 1 for i, r in enumerate(res.rejections) if r],
        ):
            assert lo == (i - 1) * D + 1
            assert hi == (i + 1) * D if i < N else X.T

    def test_statistic_matches_plain_numpy(self, cfg):
        # every boundary's L recomputed without fisherwatch's kernels; T is
        # not a multiple of D, so the final segment is longer than D
        p, T, D = 20, 1230, cfg.D
        sc = Scenario(
            p=p, T=T, seed=2,
            events=(CovarianceEvent(tau=600, kind="scale-subset",
                                    channels=tuple(range(1, 9)), factor=2.0),),
        )
        X, _ = generate(sc)
        res = screen(X, cfg)
        ends = [*res.boundaries[1:], T]
        assert ends[-1] - res.boundaries[-1] > D
        for L_screen, mid, hi in zip(res.statistics, res.boundaries, ends):
            lo = mid - D
            cols = X.values[:, lo:hi]  # joint normalization of both segments
            Z = (cols - cols.mean(axis=1, keepdims=True)) / cols.std(
                axis=1, ddof=1, keepdims=True
            )
            # later segment in the numerator: F = S_later S_earlier^-1
            A = np.linalg.solve(np.cov(Z[:, : mid - lo]), np.cov(Z[:, mid - lo :]))
            M = A - np.eye(p)
            trace = np.sum(M * M.T)
            # CLT constants of g(x) = (x - 1)^2 for real Gaussian data
            # (kappa = 2, beta1 = beta2 = 0)
            y1, y2 = p / (hi - mid - 1), p / (mid - lo - 1)
            h2 = y1 + y2 - y1 * y2
            Fg = (h2 + y2**2 - y2**3) / (1 - y2) ** 3
            mu = (2 * h2 * y2 + h2 - 2 * y2**3 + 3 * y2**2) / (1 - y2) ** 4
            nu = 2 * (2 * h2**2 + 4 * h2 * (h2 - y2**2 + 2 * y2) ** 2) / (1 - y2) ** 8
            L = (trace - p * Fg - mu) / np.sqrt(nu)
            assert L_screen == pytest.approx(L, rel=1e-8), mid

    def test_captures_strong_covariance_change(self, cfg):
        tau = 600
        hits = 0
        for seed in range(10):
            sc = Scenario(
                p=20,
                T=1200,
                events=(
                    CovarianceEvent(
                        tau=tau, kind="scale-subset",
                        channels=tuple(range(1, 9)), factor=3.0,
                    ),
                ),
                seed=seed,
            )
            X, _ = generate(sc)
            res = screen(X, cfg)
            hits += any(lo <= tau <= hi for lo, hi in res.merged_intervals)
        assert hits >= 9

    def test_null_rejections_are_rare(self, cfg):
        rejected = total = 0
        for seed in range(20):
            res = screen(self.null_record(seed=100 + seed), cfg)
            rejected += sum(res.rejections)
            total += len(res.rejections)
        assert rejected / total < 0.06

    def test_record_shorter_than_two_segments(self, cfg):
        X = self.null_record(T=100)
        with pytest.raises(RecordTooShortError):
            screen(X, cfg)
