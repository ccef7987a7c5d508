from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fisherwatch import io
from fisherwatch.core import (
    PROFILES,
    DetectionConfig,
    DetectionRecord,
    FaultReport,
    StateMatrix,
    validate_config,
)
from fisherwatch.errors import ConfigError, DataError, ShapeError


class TestStateMatrix:
    def test_shape_and_accessors(self):
        X = StateMatrix(values=np.arange(12.0).reshape(3, 4), channel_ids=("a", "b", "c"))
        assert X.p == 3
        assert X.T == 4
        assert np.array_equal(X.values[1], [4.0, 5.0, 6.0, 7.0])

    def test_values_are_read_only(self):
        X = StateMatrix(values=np.zeros((2, 2)), channel_ids=("a", "b"))
        with pytest.raises(ValueError):
            X.values[0, 0] = 1.0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            StateMatrix(values=np.zeros(5), channel_ids=("a",))

    def test_rejects_too_small(self):
        with pytest.raises(ShapeError):
            StateMatrix(values=np.zeros((1, 10)), channel_ids=("a",))
        with pytest.raises(ShapeError):
            StateMatrix(values=np.zeros((3, 1)), channel_ids=("a", "b", "c"))

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ShapeError):
            StateMatrix(values=np.zeros((2, 2)), channel_ids=("a",))

    def test_rejects_non_finite_with_position(self):
        v = np.zeros((3, 4))
        v[1, 2] = np.nan
        with pytest.raises(DataError, match="channel 2, sample 3"):
            StateMatrix(values=v, channel_ids=("a", "b", "c"))


class TestValidateConfig:
    def test_distribution_defaults(self):
        cfg = validate_config(DetectionConfig(), 40)
        assert (cfg.d1, cfg.d2, cfg.D, cfg.s) == (30, 50, 120, 16)
        assert cfg.d == 80

    def test_transmission_defaults(self):
        cfg = validate_config(DetectionConfig(profile="transmission"), 80)
        assert (cfg.d1, cfg.d2, cfg.D, cfg.s) == (70, 90, 104, 9)

    def test_small_p_floor_on_d1(self):
        cfg = validate_config(DetectionConfig(), 8)
        assert cfg.d1 == 2

    def test_idempotent(self):
        # the config echoed in report.json reproduces the run
        cfg = validate_config(DetectionConfig(), 40)
        assert validate_config(io.parse_config(asdict(cfg)), 40) == cfg

    def test_revalidated_for_new_dimension(self):
        cfg = validate_config(DetectionConfig(), 40)
        cfg2 = validate_config(DetectionConfig(profile=cfg.profile), 80)
        assert cfg2.D == 240

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d2": 40},
            {"d1": 1},
            {"D": 30},
            {"s": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"kappa": 3},
            {"profile": "unknown"},
            {"D": 41},
            {"d2": 41},
            {"D": 45, "d1": 50, "d2": 50},
            {"beta1": -2.5},
            {"beta2": -50.0},
            {"kappa": 1, "beta1": -1.5},
            {"D": 60.5},
            {"d1": 30.0},
            {"s": "16"},
            {"s": 8.9},
            {"kappa": 2.7},
            {"alpha": None},
            {"alpha": "0.01"},
            {"profile": ["x"]},
            {"D": True},
            {"beta1": float("nan")},
            {"alpha": 1e-17},
            {"kappa": 1},
        ],
    )
    def test_constraint_violations(self, kwargs):
        with pytest.raises(ConfigError):
            validate_config(DetectionConfig(**kwargs), 40)

    def test_rejects_tiny_p(self):
        with pytest.raises(ConfigError):
            validate_config(DetectionConfig(), 1)

    @given(p=st.integers(min_value=2, max_value=300),
           profile=st.sampled_from(sorted(PROFILES)))
    def test_defaults_always_self_consistent(self, p, profile):
        cfg = validate_config(DetectionConfig(profile=profile), p)
        assert cfg.d2 >= p + 2
        assert cfg.d1 >= 2
        assert cfg.D >= p + 2
        assert cfg.d <= 2 * cfg.D
        assert cfg.s >= 1


class TestReports:
    def test_record_inside_interval(self):
        r = DetectionRecord(interval=(10, 50), fault_time=30, detector="dele", trigger_window=5)
        assert r.delay_samples is None

    def test_record_outside_interval_rejected(self):
        with pytest.raises(ShapeError):
            DetectionRecord(interval=(10, 50), fault_time=51, detector="dele", trigger_window=5)

    def test_report_requires_sorted_disjoint_intervals(self):
        cfg = validate_config(DetectionConfig(), 4)

        def report(*intervals):
            return FaultReport(screened_intervals=intervals, detections=(), config=cfg)

        report((1, 5), (7, 9))
        with pytest.raises(ShapeError):
            report((7, 9), (1, 5))
        with pytest.raises(ShapeError):
            report((1, 5), (5, 9))
