import json
import os
import signal
import threading
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherwatch import detect, io
from fisherwatch.cli import main
from fisherwatch.core import DetectionConfig, StateMatrix, validate_config
from fisherwatch.detect import BLOCK, METHODS, localize, run_rule, scan
from fisherwatch.errors import (
    ConfigError,
    DataError,
    DegenerateChannelError,
    FisherwatchError,
    RecordTooShortError,
    ShapeError,
    SingularCovarianceError,
)
from fisherwatch.rmt import clt_constants
from fisherwatch.screening import screen
from fisherwatch.simgen import CovarianceEvent, Scenario, generate
from fisherwatch.spectral import (
    REFRESH,
    WindowSplit,
    fisher_trace_sq_dev,
    normalize_rows,
    sample_covariance,
    window_covariances,
    window_spectrum,
)

#: each method's flag rule: strict for the edge detectors, closed for |L|
COMPARISONS = {"dele": np.greater, "deht": np.greater_equal, "mp": np.greater}


def event_record(p=20, T=1200, tau=600, factor=3.0, n_channels=8, seed=0):
    sc = Scenario(
        p=p,
        T=T,
        events=(
            CovarianceEvent(
                tau=tau, kind="scale-subset",
                channels=tuple(range(1, n_channels + 1)), factor=factor,
            ),
        ),
        seed=seed,
    )
    return generate(sc)[0]


class TestRunRule:
    def test_first_completed_run(self):
        assert run_rule([False, True, True, True], 3) == 4

    def test_single_flag(self):
        assert run_rule([False, False, True, False], 1) == 3

    def test_no_run(self):
        assert run_rule([True, False, True, False, True], 2) is None

    def test_empty(self):
        assert run_rule([], 1) is None

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            run_rule([True], 0)

    @given(st.lists(st.booleans(), max_size=40), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_run_semantics(self, flags, s):
        k = run_rule(flags, s)
        if k is None:
            run = best = 0
            for f in flags:
                run = run + 1 if f else 0
                best = max(best, run)
            assert best < s
        else:
            assert all(flags[k - s:k])
            assert run_rule(flags[: k - 1], s) is None

    def test_monotone_in_s(self):
        rng = np.random.default_rng(0)
        flags = list(rng.random(60) < 0.5)
        found = [run_rule(flags, s) is not None for s in (1, 2, 4, 8)]
        assert found == sorted(found, reverse=True)


@pytest.fixture(scope="module")
def cfg():
    return validate_config(DetectionConfig(s=8), 20)


@pytest.fixture(scope="module")
def scanned(cfg):
    X = event_record(seed=4)
    interval = (541, 720)
    data = X.values[:, interval[0] - 1 : interval[1]]
    return {name: scan(data, cfg, interval, name) for name in METHODS}


class TestScans:
    def test_traces_cover_all_windows(self, cfg, scanned):
        for name, (trace, _) in scanned.items():
            assert trace.detector == name
            assert len(trace.values) == 180 - cfg.d + 1
            assert len(trace.flags) == len(trace.values)

    def test_flags_match_thresholds(self, scanned):
        for name, compare in COMPARISONS.items():
            tr, _ = scanned[name]
            assert np.array_equal(tr.flags, compare(tr.values, tr.threshold)), name

    def test_detection_consistent_with_run_rule(self, cfg, scanned):
        for trace, det in scanned.values():
            k = run_rule(trace.flags, cfg.s)
            if det is None:
                assert k is None
            else:
                assert det.trigger_window == k
                assert det.fault_time == trace.interval[0] - 1 + k + cfg.d - 1

    def test_fisher_detectors_localize_the_change(self, cfg, scanned):
        tau = 600
        for name in ("dele", "deht"):
            _, det = scanned[name]
            assert det is not None, name
            assert tau < det.fault_time <= tau + cfg.d + cfg.s + 100

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            scan(event_record().values[:, :400], DetectionConfig(), (1, 400), "nope")

    def test_invalid_config_refused(self):
        with pytest.raises(ConfigError):
            scan(event_record().values[:, :400], DetectionConfig(d2=5), (1, 400), "deht")

    @pytest.mark.parametrize(
        "interval, message",
        [
            # 361 values of a 400-column block would go out as 100 samples'
            ((901, 1000), r"\(width 100\).* width 400"),
            ((0, 399), r"\[0, 399\] \(width 400\)"),
            ((1000, 901), r"\(width -98\).* width 400"),
        ],
    )
    def test_interval_must_match_the_data_block(self, interval, message):
        data = event_record(T=1300, tau=1118).values[:, 900:1300]
        with pytest.raises(ShapeError, match=message):
            scan(data, DetectionConfig(), interval, "deht")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_entry_refused(self, method, bad):
        # deht used to scan on to NaN values, dele and mp to a LAPACK error
        data = event_record(p=10, T=300, tau=250, factor=4.0, seed=5).values[:, 100:].copy()
        data[3, 50] = bad
        with pytest.raises(DataError) as err:
            scan(data, DetectionConfig(), (101, 300), method)
        assert str(err.value) == "non-finite entry at channel 4, sample 151"

    @pytest.mark.parametrize("method", METHODS)
    def test_default_config_is_resolved(self, method):
        data = event_record(seed=4).values[:, :400]
        trace, det = scan(data, DetectionConfig(), (1, 400), method)
        resolved = scan(data, validate_config(DetectionConfig(), 20), (1, 400), method)
        assert np.array_equal(trace.values, resolved[0].values)
        assert det == resolved[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_interval_narrower_than_one_window(self, cfg, method):
        data = np.random.default_rng(7).standard_normal((20, cfg.d - 1))
        with pytest.raises(RecordTooShortError):
            scan(data, cfg, (1, cfg.d - 1), method)

    @pytest.mark.parametrize("method", METHODS)
    def test_values_match_plain_numpy(self, cfg, method):
        # every value the scan reports, recomputed without fisherwatch's
        # kernels: sampled windows plus the s windows up to each trigger
        p, interval = 20, (541, 720)
        data = event_record(seed=6).values[:, interval[0] - 1 : interval[1]]
        trace, det = scan(data, cfg, interval, method)
        y1, y2 = p / (cfg.d1 - 1), p / (cfg.d2 - 1)
        h = np.sqrt(y1 + y2 - y1 * y2)
        threshold = {
            "dele": (1 + h) ** 2 / (1 - y2) ** 2,
            "deht": NormalDist().inv_cdf(1 - cfg.alpha / 2),
            "mp": (1 + np.sqrt(p / (cfg.d - 1))) ** 2,
        }[method]
        assert trace.threshold == pytest.approx(threshold, rel=1e-12)

        consts = clt_constants(y1, y2, cfg.kappa, cfg.beta1, cfg.beta2)
        rng = np.random.default_rng(0)
        ks = set(rng.choice(len(trace.values), size=12, replace=False).tolist())
        if det is not None:  # 0-based indices of the s windows up to the trigger
            ks.update(range(det.trigger_window - cfg.s, det.trigger_window))
        for k in sorted(ks):
            cols = data[:, k : k + cfg.d]
            Xn = (cols - cols.mean(axis=1, keepdims=True)) / cols.std(
                axis=1, ddof=1, keepdims=True
            )
            if method == "mp":
                ref = np.linalg.eigvalsh(np.cov(Xn))[-1]
            else:
                S_ref, S_probe = np.cov(Xn[:, : cfg.d2]), np.cov(Xn[:, cfg.d2 :])
                lam = np.linalg.eigvals(np.linalg.solve(S_ref, S_probe)).real
                if method == "dele":
                    ref = lam.max()
                else:
                    L = (np.sum((lam - 1) ** 2) - p * consts.Fg - consts.mu_g) / np.sqrt(
                        consts.nu_g
                    )
                    ref = abs(L)
            assert trace.values[k] == pytest.approx(ref, rel=1e-8), k


#: each method's per-window value on the direct path
DIRECT = {
    "dele": lambda w, ctx: window_spectrum(w, ctx).largest,
    "deht": lambda w, ctx: fisher_trace_sq_dev(*window_covariances(w, ctx), ctx),
    "mp": lambda w, ctx: np.linalg.eigvalsh(
        sample_covariance(normalize_rows(w.columns, ctx))
    )[-1],
}


class TestStuckChannel:
    """Each engine raises where and what its direct path raises."""

    def stuck_interval(self, first, last):
        # channel 5 reads 0.25 at samples first..last (1-based) and varies
        # elsewhere in the interval [901, 1300]
        values = generate(Scenario(p=20, T=2000, seed=3))[0].values.copy()
        values[4, first - 1 : last] = 0.25
        return values[:, 900:1300]

    def direct_path(self, data, cfg, method):
        """The first error of the direct path, or its values if none."""
        values = []
        for k in range(data.shape[1] - cfg.d + 1):
            w = WindowSplit(k, cfg.d2, cfg.d1, data[:, k : k + cfg.d])
            try:
                values.append(DIRECT[method](w, f"window {k + 1}"))
            except FisherwatchError as exc:
                return exc
        return np.array(values)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "first, last, error",
        [
            # stuck across whole windows (width d = 40)
            (1001, 1150, DegenerateChannelError),
            # stuck across the reference block (d2 = 30) of some windows
            # only: the Fisher detectors' denominator is singular there,
            # while mp's whole-window covariance is not
            (1001, 1035, SingularCovarianceError),
        ],
    )
    def test_same_error_as_direct_path(self, first, last, error, method):
        cfg = validate_config(DetectionConfig(), 20)
        data = self.stuck_interval(first, last)
        expected = self.direct_path(data, cfg, method)
        if method == "mp" and error is SingularCovarianceError:
            trace, _ = scan(data, cfg, (901, 1300), method)
            assert isinstance(expected, np.ndarray)
            assert np.max(np.abs(trace.values - expected) / expected) < 1e-12
            return
        assert type(expected) is error
        with pytest.raises(error) as err:
            scan(data, cfg, (901, 1300), method)
        assert err.value.code == expected.code
        assert str(err.value) == str(expected)
        assert f"(window {first - 900})" in str(expected)
        if error is DegenerateChannelError:
            assert err.value.row == expected.row == 5


class TestLocalize:
    def test_unknown_method(self):
        X = event_record()
        with pytest.raises(ValueError):
            localize(X, DetectionConfig(), method="svm")

    def test_end_to_end_detection_with_delay(self):
        X = event_record(seed=4)
        cfg = DetectionConfig(s=8)
        report = localize(X, cfg, method="dele", true_tau=600)
        assert any(lo <= 600 <= hi for lo, hi in report.screened_intervals)
        assert report.detections
        det = report.detections[0]
        assert det.detector == "dele"
        assert det.delay_samples == det.fault_time - 600
        assert det.interval in report.screened_intervals

    def test_methods_exported(self):
        assert METHODS == ("dele", "deht", "mp")

    def test_quiet_record_yields_no_detections(self):
        X = generate(Scenario(p=20, T=1200, seed=11))[0]
        report = localize(X, DetectionConfig(), method="deht")
        assert not report.detections
        assert len(report.traces) == len(report.screened_intervals)

    def test_traces_returned_per_interval(self):
        X = event_record(seed=4)
        report = localize(X, DetectionConfig(s=8), method="mp")
        assert len(report.traces) == len(report.screened_intervals)
        assert report.config.s == 8


def multi_interval_record(stuck=None):
    """p=20 record that screens intervals of 261, 81 and 81 windows: five
    scan jobs. ``stuck`` = (first, last) holds channel 5 at 0.25 there."""
    events = tuple(
        CovarianceEvent(tau=tau, kind="scale-subset", channels=tuple(range(1, 9)),
                        factor=factor)
        for tau, factor in ((500, 3.0), (560, 1.0), (620, 3.0))
    )
    X = generate(Scenario(p=20, T=2000, events=events, seed=1))[0]
    if stuck is None:
        return X
    values = X.values.copy()
    values[4, stuck[0] - 1 : stuck[1]] = 0.25
    return StateMatrix(values=values, channel_ids=X.channel_ids)


@pytest.fixture
def forks(monkeypatch):
    """Force ``n`` scan workers with ``forks.workers(n)``; ``forks.pids``
    lists the children forked since."""
    real_fork = os.fork

    class Forks:
        pids = []

        @staticmethod
        def workers(n):
            monkeypatch.setattr(detect, "scan_workers", lambda: n)
            Forks.pids.clear()

    def fork():
        pid = real_fork()
        if pid:
            Forks.pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return Forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestScanJobs:
    def test_record_screens_several_multi_job_intervals(self):
        X = multi_interval_record()
        cfg = validate_config(DetectionConfig(), X.p)
        widths = [hi - lo + 2 - cfg.d for lo, hi in screen(X, cfg).merged_intervals]
        assert widths == [261, 81, 81] and widths[0] > 2 * BLOCK

    @pytest.mark.parametrize("method", METHODS)
    def test_artifacts_do_not_depend_on_worker_count(self, tmp_path, forks, method):
        data = tmp_path / "data.csv"
        io.write_state_csv(data, multi_interval_record())
        outputs = []
        for n in (1, 2):
            forks.workers(n)
            out = tmp_path / f"workers-{n}"
            assert main(["detect", str(data), "--method", method, "--out-dir", str(out)]) == 0
            assert len(forks.pids) == (0 if n == 1 else 2)
            outputs.append([(out / f).read_bytes() for f in ("report.json", "traces.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_artifacts_do_not_depend_on_job_size(self, tmp_path, monkeypatch, method):
        # every channel jumps 1e3 in scale inside the screened interval of
        # 201 windows, where the engines' guards trip: four jobs at
        # BLOCK = REFRESH, one at 4 * REFRESH
        data = tmp_path / "data.csv"
        io.write_state_csv(data, event_record(factor=1e3, n_channels=20, seed=2))
        outputs = []
        for block in (REFRESH, 2 * REFRESH, 4 * REFRESH):
            monkeypatch.setattr(detect, "BLOCK", block)
            out = tmp_path / f"block-{block}"
            assert main(["detect", str(data), "--method", method, "--out-dir", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("report.json", "traces.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("method", METHODS)
    def test_no_child_outlives_localize(self, forks, method):
        forks.workers(2)
        localize(multi_interval_record(), DetectionConfig(), method=method)
        assert len(forks.pids) == 2
        assert_no_child_left()
        forks.workers(2)
        # stuck across windows 185..193 of the first interval: its second job
        with pytest.raises(DegenerateChannelError, match=r"\(window 185\)$") as err:
            localize(multi_interval_record(stuck=(605, 655)), DetectionConfig(), method=method)
        assert err.value.row == 5
        assert len(forks.pids) == 2
        assert_no_child_left()

    def test_no_fork_while_other_threads_run(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert detect.scan_workers() == 2
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert detect.scan_workers() == 1
            localize(multi_interval_record(), DetectionConfig(), method="deht")
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert forks.pids == []

    @pytest.mark.parametrize("method", METHODS)
    def test_earliest_failing_job_raises(self, forks, method):
        # channels 5 and 7 stuck in the second and third jobs of a
        # 361-window interval: a scan in window order meets channel 7 first
        cfg = validate_config(DetectionConfig(), 20)
        values = generate(Scenario(p=20, T=2000, seed=3))[0].values[:, 900:1300].copy()
        values[4, 300:360] = 0.25
        values[6, 160:220] = 0.25
        errors = []
        for n in (1, 2):
            forks.workers(n)
            with pytest.raises(DegenerateChannelError) as err:
                scan(values, cfg, (901, 1300), method)
            errors.append(str(err.value))
            assert err.value.row == 7
            assert len(forks.pids) == (0 if n == 1 else 2)
        assert errors[0] == errors[1] == (
            "channel 7 has zero sample variance (window 161)")
        assert_no_child_left()

    @staticmethod
    def log_jobs(monkeypatch, log, X, method, job=None):
        """Wrap ``method``'s values so that each job appends (pid, lo, first)
        to ``log`` before it runs ``job(lo, first)``, if given; lo is the
        1-based first sample of the job's interval in ``X``."""
        rule, comparison = detect._RULES[method]

        def logged_rule(p, cfg):
            threshold, values = rule(p, cfg)

            def logged(data, first, stop):
                lo = 1 + int(np.flatnonzero((X.values == data[:, :1]).all(axis=0))[0])
                with open(log, "a") as f:
                    f.write(json.dumps([os.getpid(), lo, first]) + "\n")
                if job is not None:
                    job(lo, first)
                return values(data, first=first, stop=stop)

            return threshold, logged

        monkeypatch.setitem(detect._RULES, method, (logged_rule, comparison))

    @staticmethod
    def expected_jobs(X):
        cfg = validate_config(DetectionConfig(), X.p)
        return sorted((lo, first) for lo, hi in screen(X, cfg).merged_intervals
                      for first in range(0, hi - lo + 2 - cfg.d, BLOCK))

    @pytest.mark.parametrize("method", METHODS)
    def test_every_job_runs_once_in_a_worker(self, tmp_path, forks, monkeypatch, method):
        X, log = multi_interval_record(), tmp_path / "jobs.jsonl"
        jobs = self.expected_jobs(X)
        assert len(jobs) == 5
        self.log_jobs(monkeypatch, log, X, method)
        forks.workers(2)
        localize(X, DetectionConfig(), method=method)
        assert_no_child_left()
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted((lo, first) for _, lo, first in entries) == jobs
        # forks.pids holds only children, never the calling process
        assert {pid for pid, _, _ in entries} <= set(forks.pids)

    def test_stuck_record_runs_each_job_at_most_once(self, tmp_path, forks, monkeypatch):
        # channel 5 stuck across windows 11..21 of the first interval fails
        # its first job, the earliest of five
        X, log = multi_interval_record(stuck=(431, 480)), tmp_path / "jobs.jsonl"
        self.log_jobs(monkeypatch, log, X, "deht")
        forks.workers(2)
        with pytest.raises(DegenerateChannelError, match=r"\(window 11\)$"):
            localize(X, DetectionConfig(), method="deht")
        assert_no_child_left()
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        ran, jobs = [(lo, first) for _, lo, first in entries], self.expected_jobs(X)
        assert len(ran) == len(set(ran)) and set(ran) <= set(jobs) and min(jobs) in ran
        assert {pid for pid, _, _ in entries} <= set(forks.pids)

    def test_worker_that_dies_is_reported(self, tmp_path, forks, monkeypatch):
        X, parent = multi_interval_record(), os.getpid()

        def die(lo, first):
            if first == BLOCK and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        self.log_jobs(monkeypatch, tmp_path / "jobs.jsonl", X, "deht", job=die)
        forks.workers(2)
        with pytest.raises(FisherwatchError, match=r"^a scan worker ended without "
                                                   r"returning its results$"):
            localize(X, DetectionConfig(), method="deht")
        assert len(forks.pids) == 2
        assert_no_child_left()


@st.composite
def config_and_record(draw):
    """A config drawn around its validity bounds, with a record to run it on."""
    p = draw(st.integers(3, 10))
    cfg = DetectionConfig(
        D=draw(st.none() | st.integers(p, 4 * p)),
        d1=draw(st.none() | st.integers(1, 3 * p)),
        d2=draw(st.none() | st.integers(p, 3 * p)),
        s=draw(st.none() | st.integers(1, 8)),
        alpha=draw(st.sampled_from([0.01, 0.05, 0.2])),
        beta1=draw(st.floats(-2.0, 5.0)),
        beta2=draw(st.floats(-2.0, 5.0)),
        profile=draw(st.sampled_from(["distribution", "transmission"])),
    )
    return p, cfg, draw(st.integers(0, 2**32 - 1))


@given(config_and_record())
@settings(max_examples=40, deadline=None)
def test_validated_configs_run_to_completion(case):
    # a config may only be refused by validate_config, never mid-run
    p, cfg, seed = case
    try:
        cfg = validate_config(cfg, p)
    except ConfigError:
        return
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2 * cfg.D, 6 * cfg.D + 1))
    values = rng.standard_normal((p, T))
    tau = int(rng.integers(cfg.D // 2, T - cfg.D // 2))
    channels = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    values[channels, tau:] *= rng.uniform(3.0, 10.0)
    X = StateMatrix(values=values, channel_ids=tuple(f"ch{i}" for i in range(p)))
    screen(X, cfg)
    for method in METHODS:
        localize(X, cfg, method=method)
