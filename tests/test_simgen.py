import re
import warnings

import numpy as np
import pytest

from fisherwatch.errors import ScenarioError
from fisherwatch.simgen import (
    EVENT_KINDS,
    CovarianceEvent,
    Scenario,
    generate,
    sample_spd,
)


class TestSampleSpd:
    def test_identity(self):
        assert np.array_equal(sample_spd("identity", 4), np.eye(4))

    def test_toeplitz_exact(self):
        expected = np.array(
            [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        )
        assert np.allclose(sample_spd("toeplitz", 3, {"rho": 0.5}), expected)

    def test_toeplitz_rho_domain(self):
        with pytest.raises(ScenarioError):
            sample_spd("toeplitz", 3, {"rho": 1.0})

    def test_explicit_matrix(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(sample_spd("matrix", 2, {"matrix": M}), M)

    def test_explicit_matrix_must_be_spd(self):
        with pytest.raises(ScenarioError):
            sample_spd("matrix", 2, {"matrix": np.array([[1.0, 2.0], [2.0, 1.0]])})
        with pytest.raises(ScenarioError):
            sample_spd("matrix", 2, {"matrix": np.array([[1.0, 0.1], [0.2, 1.0]])})

    def test_wrong_size(self):
        with pytest.raises(ScenarioError):
            sample_spd("matrix", 3, {"matrix": np.eye(2)})

    def test_unknown_recipe(self):
        with pytest.raises(ScenarioError):
            sample_spd("wishart", 3)


class TestEventApply:
    def test_scale_subset_on_identity(self):
        e = CovarianceEvent(tau=1, kind="scale-subset", channels=(1, 3), factor=3.0)
        out = e.apply(np.eye(3))
        assert np.allclose(np.diag(out), [9.0, 1.0, 9.0])

    def test_scale_subset_scales_cross_terms_once(self):
        cov = np.full((2, 2), 0.5) + 0.5 * np.eye(2)
        e = CovarianceEvent(tau=1, kind="scale-subset", channels=(1,), factor=2.0)
        out = e.apply(cov)
        assert out[0, 0] == pytest.approx(4.0)
        assert out[0, 1] == pytest.approx(1.0)
        assert out[1, 1] == pytest.approx(1.0)

    def test_spike_adds_rank_one(self):
        e = CovarianceEvent(tau=1, kind="spike", direction=(3.0, 4.0), strength=5.0)
        out = e.apply(np.eye(2))
        v = np.array([0.6, 0.8])
        assert np.allclose(out, np.eye(2) + 5.0 * np.outer(v, v))

    def test_full_replace(self):
        M = 2.0 * np.eye(2)
        e = CovarianceEvent(tau=1, kind="full-replace", matrix=M)
        assert np.array_equal(e.apply(np.eye(2)), M)


class TestScenarioValidation:
    def test_event_kinds_frozen(self):
        assert EVENT_KINDS == ("scale-subset", "spike", "full-replace")

    def test_tau_range(self):
        with pytest.raises(ScenarioError):
            Scenario(p=4, T=100, events=(CovarianceEvent(tau=100, kind="spike"),))
        with pytest.raises(ScenarioError):
            Scenario(p=4, T=100, events=(CovarianceEvent(tau=0, kind="spike"),))

    def test_end_after_tau(self):
        with pytest.raises(ScenarioError):
            Scenario(
                p=4, T=100,
                events=(CovarianceEvent(tau=50, kind="spike", end=50),),
            )

    def test_channels_in_range(self):
        with pytest.raises(ScenarioError):
            Scenario(
                p=4, T=100,
                events=(
                    CovarianceEvent(tau=10, kind="scale-subset", channels=(5,)),
                ),
            )

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            Scenario(p=4, T=100, events=(CovarianceEvent(tau=10, kind="ramp"),))

    def test_ar1_domain(self):
        with pytest.raises(ScenarioError):
            Scenario(p=4, T=100, ar1=1.0)

    def test_minimum_dimensions(self):
        with pytest.raises(ScenarioError):
            Scenario(p=1, T=100)

    def test_negative_seed(self):
        # numpy's own refusal named no setting
        with pytest.raises(ScenarioError, match="seed"):
            Scenario(p=4, T=100, seed=-2)

    # refused up front, naming the event and its field, rather than later
    # as a NaN covariance or a numpy broadcasting error
    @pytest.mark.parametrize("event, message", [
        pytest.param(dict(kind="spike"), "(spike): direction is missing",
                     id="spike-missing"),
        pytest.param(dict(kind="spike", direction=(1.0, 0.0)),
                     "(spike): direction must have shape (4,), got (2,)",
                     id="spike-wrong-length"),
        pytest.param(dict(kind="spike", direction=(0.0,) * 4),
                     "(spike): direction is zero", id="spike-zero"),
        pytest.param(dict(kind="spike", direction=(1.0, np.inf, 0.0, 0.0)),
                     "(spike): direction must be finite", id="spike-infinite"),
        pytest.param(dict(kind="full-replace"), "(full-replace): matrix is missing",
                     id="replace-missing"),
        pytest.param(dict(kind="full-replace", matrix=np.eye(2)),
                     "(full-replace): matrix must have shape (4, 4), got (2, 2)",
                     id="replace-wrong-shape"),
        pytest.param(dict(kind="full-replace", matrix=np.diag([1.0, 1.0, 1.0, np.inf])),
                     "(full-replace): matrix must be finite", id="replace-infinite"),
    ])
    def test_event_payload(self, event, message):
        events = (CovarianceEvent(tau=5, kind="scale-subset", channels=(1,)),
                  CovarianceEvent(tau=10, **event))
        with pytest.raises(ScenarioError, match=re.escape(f"event 2 {message}")):
            Scenario(p=4, T=100, events=events)

    def test_infinite_base_covariance(self):
        # refused by name, before generate's draw overflows with a warning
        scenario = Scenario(p=2, T=100, base_cov_kind="matrix",
                            base_cov_params={"matrix": np.diag([1.0, np.inf])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=r"^base_cov\.matrix must be finite$"):
                generate(scenario)


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        sc = Scenario(p=6, T=300, seed=42)
        X1, t1 = generate(sc)
        X2, t2 = generate(sc)
        assert np.array_equal(X1.values, X2.values)
        assert t1 == t2

    def test_seed_changes_stream(self):
        X1 = generate(Scenario(p=6, T=300, seed=1))[0]
        X2 = generate(Scenario(p=6, T=300, seed=2))[0]
        assert not np.array_equal(X1.values, X2.values)

    def test_shape_and_channel_ids(self):
        X, _ = generate(Scenario(p=5, T=64, seed=0))
        assert (X.p, X.T) == (5, 64)
        assert X.channel_ids == tuple(f"ch{i}" for i in range(1, 6))

    def test_truth_lists_events(self):
        sc = Scenario(
            p=4, T=500,
            events=(
                CovarianceEvent(tau=100, kind="spike", direction=(1, 0, 0, 0),
                                strength=2.0, end=200),
                CovarianceEvent(tau=300, kind="scale-subset", channels=(1,), factor=2.0),
            ),
            seed=0,
        )
        _, truth = generate(sc)
        assert truth["change_times"] == [100, 300]
        assert truth["cutoff_times"] == [200]
        assert truth["seed"] == 0

    def test_scale_event_moments(self):
        tau = 4000
        sc = Scenario(
            p=4, T=8000,
            events=(
                CovarianceEvent(tau=tau, kind="scale-subset", channels=(2,), factor=3.0),
            ),
            seed=7,
        )
        X, _ = generate(sc)
        pre = X.values[1, :tau].var()
        post = X.values[1, tau:].var()
        untouched = X.values[0, tau:].var()
        assert pre == pytest.approx(1.0, rel=0.1)
        assert post == pytest.approx(9.0, rel=0.1)
        assert untouched == pytest.approx(1.0, rel=0.1)

    def test_event_cutoff_restores_baseline(self):
        sc = Scenario(
            p=3, T=9000,
            events=(
                CovarianceEvent(tau=3000, kind="scale-subset", channels=(1,),
                                factor=4.0, end=6000),
            ),
            seed=9,
        )
        X, _ = generate(sc)
        assert X.values[0, 3000:6000].var() == pytest.approx(16.0, rel=0.15)
        assert X.values[0, 6000:].var() == pytest.approx(1.0, rel=0.15)

    def test_toeplitz_base_correlation(self):
        sc = Scenario(
            p=3, T=20000, base_cov_kind="toeplitz",
            base_cov_params={"rho": 0.6}, seed=3,
        )
        X, _ = generate(sc)
        corr = np.corrcoef(X.values)
        assert corr[0, 1] == pytest.approx(0.6, abs=0.03)
        assert corr[0, 2] == pytest.approx(0.36, abs=0.03)

    def test_ar1_column_memory(self):
        sc = Scenario(p=3, T=20000, ar1=0.5, noise_sigma=0.0, seed=5)
        X, _ = generate(sc)
        r = X.values[0]
        lag1 = np.corrcoef(r[:-1], r[1:])[0, 1]
        assert lag1 == pytest.approx(0.5, abs=0.05)
