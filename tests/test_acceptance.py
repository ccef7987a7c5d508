"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints ``[criterion N] PASS|FAIL`` with the measured numbers
and then asserts at the stated tolerance. Monte Carlo criteria use fixed
seed sequences so verdicts are reproducible run to run.
"""
import json
import math
import statistics
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy import integrate, special

from fisherwatch import io
from fisherwatch.blas import single_threaded
from fisherwatch.cli import main
from fisherwatch.core import DetectionConfig, validate_config
from fisherwatch.detect import localize, run_rule, scan
from fisherwatch.rmt import clt_constants, gaussian_quantile, lsd_density, support_edges
from fisherwatch.screening import screen, segment_boundaries
from fisherwatch.simgen import CovarianceEvent, Scenario, generate
from fisherwatch.spectral import fisher_eigenvalues, fisher_trace_sq_dev, sample_covariance
from fisherwatch.validate import esd_vs_lsd_ks, null_calibration

SEED = 12345


def verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_null_calibration():
    c = null_calibration(80, 240, 240, 2000, alpha=0.01, seed=SEED)
    ok = (
        0.005 <= c["empirical_size"] <= 0.02
        and -0.1 <= c["statistic_mean"] <= 0.1
        and 0.9 <= c["statistic_sd"] <= 1.1
    )
    verdict(
        1, ok,
        f"size={c['empirical_size']:.4f} (want [0.005, 0.02]), "
        f"mean={c['statistic_mean']:.4f} (want [-0.1, 0.1]), "
        f"sd={c['statistic_sd']:.4f} (want [0.9, 1.1])",
    )


def test_criterion_02_spectral_law():
    ks = esd_vs_lsd_ks(200, 1000, seed=SEED)
    worst = 0.0
    for y1 in (0.2, 0.5, 0.9, 1.5, 3.0):
        for y2 in (0.1, 0.35, 0.6, 0.85):
            params = support_edges(y1, y2)
            a, b = params.a, params.b

            def integrand(t):
                x = a + (b - a) * math.sin(t) ** 2
                return lsd_density(x, params) * (b - a) * 2 * math.sin(t) * math.cos(t)

            mass, _ = integrate.quad(integrand, 0, math.pi / 2, epsabs=1e-10, limit=300)
            worst = max(worst, abs(params.mass_at_zero + mass - 1.0))
    ok = ks < 0.05 and worst < 1e-6
    verdict(
        2, ok,
        f"KS(ESD, LSD)={ks:.4f} (want < 0.05), "
        f"max |integral density - 1|={worst:.2e} over 20 grid points (want < 1e-6)",
    )


# Tracy-Widom F1 by Bornemann's (2010) Nystrom discretization of the
# Fredholm determinant F1(s) = det(I - K_s) on L2(0, inf), with kernel
# K_s(x, y) = Ai((x + y)/2 + s) / 2. The Airy decay makes [0, 16] enough.
_x, _w = np.polynomial.legendre.leggauss(80)
TW_NODES, TW_SQRT_WEIGHTS = 8.0 * (_x + 1.0), np.sqrt(8.0 * _w)

# (s, F1(s)): the 95% and 99% points of TW1
TW1_TABLE = ((0.9793, 0.95), (2.0234, 0.99))


def tracy_widom_f1(s):
    x, w = TW_NODES, TW_SQRT_WEIGHTS
    K = 0.5 * special.airy((x[:, None] + x[None, :]) / 2 + s)[0]
    return float(np.linalg.det(np.eye(x.size) - w[:, None] * K * w[None, :]))


def fisher_edge_exceedance(p, n1, n2, c):
    """Johnstone's (2008) TW1 approximation of P(lambda_1 > c) under H0.

    lambda_1 is the top eigenvalue of S1 S2^-1 for independent centred
    sample covariances with m = n1 - 1 and n = n2 - 1 degrees of freedom,
    so lambda_1 m / n is the odds of the top Jacobi root theta_1, and
    logit theta_1 ~ mu + sigma W with W ~ TW1.
    """
    m, n = n1 - 1, n2 - 1
    N = m + n - 1
    gamma = 2 * math.asin(math.sqrt((min(p, m) - 0.5) / N))
    phi = 2 * math.asin(math.sqrt((max(p, m) - 0.5) / N))
    mu = 2 * math.log(math.tan((phi + gamma) / 2))
    sigma = (
        16 / (N**2 * math.sin(phi + gamma) ** 2 * math.sin(phi) * math.sin(gamma))
    ) ** (1 / 3)
    return 1 - tracy_widom_f1((math.log(c * m / n) - mu) / sigma)


@single_threaded()
def edge_exceedance(p, n1, n2, reps, seed=0, slack=1.05) -> dict:
    """How often the top eigenvalue escapes the support edge b under H0."""
    rng = np.random.default_rng(seed)
    b = support_edges(p / (n1 - 1), p / (n2 - 1)).b
    above = above_slack = 0
    for _ in range(reps):
        S1 = sample_covariance(rng.standard_normal((p, n1)))
        S2 = sample_covariance(rng.standard_normal((p, n2)))
        l1 = fisher_eigenvalues(S1, S2, n1, n2, knob="n2").largest
        above += l1 > b
        above_slack += l1 > slack * b
    return {
        "edge": b,
        "rate_above_edge": above / reps,
        "rate_above_slack_edge": above_slack / reps,
        "slack": slack,
    }


def test_criterion_03_edge_exceedance():
    # The top null eigenvalue fluctuates around b on the Tracy-Widom scale,
    # so P(lambda_1 > b) tends to 1 - F1(0) ~ 0.17, not to 0: each empirical
    # rate must match its TW1 prediction within 3 binomial standard errors.
    # The p=80 geometry is the paper-scale null; the DELE default window
    # (p=40, probe 30, reference 50) also separates n from n-1 degrees of
    # freedom, i.e. checks that each sample covariance subtracts its mean.
    tw_err = max(abs(tracy_widom_f1(s) - F) for s, F in TW1_TABLE)
    ok = tw_err < 1e-5
    details = [f"max |F1 - table| at s=0.9793/2.0234: {tw_err:.1e} (want < 1e-5)"]
    for p, n1, n2, reps in ((80, 240, 240, 1000), (40, 30, 50, 2000)):
        r = edge_exceedance(p, n1, n2, reps, seed=SEED, slack=1.05)
        b = support_edges(p / (n1 - 1), p / (n2 - 1)).b
        ok = ok and r["edge"] == b
        rates = []
        for key, c, label in (
            ("rate_above_edge", b, "b"),
            ("rate_above_slack_edge", 1.05 * b, "1.05b"),
        ):
            q = fisher_edge_exceedance(p, n1, n2, c)
            se = math.sqrt(q * (1 - q) / reps)
            ok = ok and abs(r[key] - q) <= 3 * se
            rates.append(f"P(>{label})={r[key]:.4f} vs TW1 {q:.4f} +/- {3 * se:.4f}")
        details.append(
            f"p={p}, n1={n1}, n2={n2}, {reps} draws, edge {r['edge']:.4f} "
            f"(want {b:.4f}): " + ", ".join(rates)
        )
    verdict(3, ok, "; ".join(details))


def test_criterion_04_false_detection_rate():
    p, T, runs = 40, 4000, 200
    cfg = validate_config(DetectionConfig(s=16, D=3 * p), p)
    counts = {4: 0, 8: 0, 16: 0}
    for i in range(runs):
        X, _ = generate(Scenario(p=p, T=T, seed=20_000 + i))
        report = localize(X, cfg, method="dele")
        for s in counts:
            if any(run_rule(tr.flags, s) is not None for tr in report.traces):
                counts[s] += 1
    rates = {s: c / runs for s, c in counts.items()}
    ok = rates[16] < 0.05 and rates[4] >= rates[8] >= rates[16]
    verdict(
        4, ok,
        f"false-detection rate at s=16: {rates[16]:.3f} (want < 0.05); "
        f"rates over s=4/8/16: {rates[4]:.3f}/{rates[8]:.3f}/{rates[16]:.3f} "
        f"(want non-increasing)",
    )


@pytest.fixture(scope="module")
def power_study():
    p, T, tau, runs = 40, 4000, 2000, 200
    cfg = validate_config(DetectionConfig(), p)
    lo_ok, hi_ok = tau, tau + cfg.d + cfg.s + 200
    hits = {"screen": 0, "dele": 0, "deht": 0}
    for i in range(runs):
        sc = Scenario(
            p=p, T=T,
            events=(
                CovarianceEvent(tau=tau, kind="scale-subset",
                                channels=tuple(range(1, 9)), factor=3.0),
            ),
            seed=30_000 + i,
        )
        X, _ = generate(sc)
        res = screen(X, cfg)
        hits["screen"] += any(lo <= tau <= hi for lo, hi in res.merged_intervals)
        for name in ("dele", "deht"):
            for lo, hi in res.merged_intervals:
                _, det = scan(X.values[:, lo - 1:hi], cfg, (lo, hi), name)
                if det is not None and lo_ok <= det.fault_time <= hi_ok:
                    hits[name] += 1
                    break
    return {k: v / runs for k, v in hits.items()}, (lo_ok, hi_ok)


def test_criterion_05a_screening_power(power_study):
    rates, _ = power_study
    verdict(
        "5a", rates["screen"] >= 0.95,
        f"screening captured tau in a merged interval in {rates['screen']:.1%} "
        f"of 200 runs (want >= 95%)",
    )


def test_criterion_05b_dele_localization(power_study):
    rates, window = power_study
    verdict(
        "5b", rates["dele"] >= 0.95,
        f"DELE fault_time in {list(window)} in {rates['dele']:.1%} of 200 runs "
        f"(want >= 95%); the s=16 run breaks on eigenvalue dips while the "
        f"window straddles the change",
    )


def test_criterion_05c_deht_localization(power_study):
    rates, window = power_study
    verdict(
        "5c", rates["deht"] >= 0.95,
        f"DEHT fault_time in {list(window)} in {rates['deht']:.1%} of 200 runs "
        f"(want >= 95%); same consecutive-run shortfall as DELE",
    )


def test_criterion_06_segment_arithmetic():
    n = len(segment_boundaries(8000, 240))
    verdict(6, n == 32, f"T=8000, D=240 gives N={n} boundary tests (want exactly 32)")


def test_criterion_07_oracle_equivalences():
    rng = np.random.default_rng(SEED)
    p = 20
    worst_eig = worst_trace = 0.0
    for _ in range(100):
        A = rng.standard_normal((p, p))
        B = rng.standard_normal((p, p))
        S1 = A @ A.T / p + 0.1 * np.eye(p)
        S2 = B @ B.T / p + 0.1 * np.eye(p)
        spec = fisher_eigenvalues(S1, S2, 2 * p, 2 * p)
        ref = np.sort(np.linalg.eigvals(S1 @ np.linalg.inv(S2)).real)[::-1]
        worst_eig = max(worst_eig, float(np.max(np.abs(spec.eigenvalues - ref) / ref)))
        direct = fisher_trace_sq_dev(S1, S2)
        from_eigenvalues = float(np.sum((spec.eigenvalues - 1.0) ** 2))
        rel = abs(direct - from_eigenvalues) / from_eigenvalues
        worst_trace = max(worst_trace, rel)
    q = gaussian_quantile(0.995)
    ok = worst_eig < 1e-6 and worst_trace < 1e-8 and abs(q - 2.5758293) < 1e-6
    verdict(
        7, ok,
        f"max eigenvalue mismatch {worst_eig:.2e} (want < 1e-6), "
        f"max trace mismatch {worst_trace:.2e} (want < 1e-8), "
        f"U(0.995)={q:.9f} (want 2.5758293 +/- 1e-6)",
    )


def test_criterion_08_closed_form_spot_values():
    # 40-digit mpmath evaluation of the closed forms, frozen
    mu_ref = 0.3901844231062338
    nu_ref = 0.8453326793462387
    c = clt_constants(0.1, 0.1, kappa=2, beta1=0.0, beta2=0.0)
    worst_mu1 = max(
        abs(clt_constants(y1, y2, kappa=1).mu_g)
        for y1 in np.linspace(0.05, 2.0, 10)
        for y2 in np.linspace(0.05, 0.95, 10)
    )
    ok = (
        abs(c.mu_g - mu_ref) < 1e-6
        and abs(c.nu_g - nu_ref) < 1e-6
        and worst_mu1 == 0.0
    )
    verdict(
        8, ok,
        f"mu_g={c.mu_g:.10f} (oracle {mu_ref:.10f}), "
        f"nu_g={c.nu_g:.10f} (oracle {nu_ref:.10f}), "
        f"max |mu_g(kappa=1, beta=0)| on 100-point grid = {worst_mu1}",
    )


def test_criterion_09_determinism_and_interfaces(tmp_path):
    scenario = {
        "p": 20, "T": 1200,
        "events": [{"tau": 600, "kind": "scale-subset",
                    "channels": [1, 2, 3, 4, 5, 6, 7, 8], "factor": 3.0}],
        "seed": 4,
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", str(spath), "--out-dir", str(out)]) == 0
        assert main(["screen", str(out / "data.csv"),
                     "--out-dir", str(out / "screen")]) == 0
    identical = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in ("data.csv", "manifest.json", "screen/report.json",
                    "screen/series.csv", "screen/manifest.json")
    )
    report = json.loads((outs[0] / "screen" / "report.json").read_text())
    schema = json.loads(
        (resources.files("fisherwatch") / "schemas" / "report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)
    X = io.read_state_csv(outs[0] / "data.csv")
    ref, _ = generate(io.parse_scenario(scenario))
    round_trip = np.array_equal(X.values, ref.values)
    ok = identical and round_trip
    verdict(
        9, ok,
        f"byte-identical reruns={identical}, schema valid=True, "
        f"CSV round-trip exact={round_trip}",
    )


def test_criterion_10_relative_speed():
    sc = Scenario(
        p=80, T=8000,
        events=(
            CovarianceEvent(tau=5000, kind="scale-subset",
                            channels=tuple(range(1, 9)), factor=3.0),
        ),
        seed=SEED,
    )
    X, _ = generate(sc)
    cfg = validate_config(DetectionConfig(), 80)
    times = {}
    for method in ("dele", "deht"):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            localize(X, cfg, method=method)
            runs.append(time.perf_counter() - t0)
        times[method] = statistics.median(runs)
    ok = times["deht"] <= times["dele"]
    verdict(
        10, ok,
        f"median wall time over 5 runs: DEHT {times['deht']:.3f}s vs "
        f"DELE {times['dele']:.3f}s (want DEHT <= DELE)",
    )
