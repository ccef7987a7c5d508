"""Checks of fisherwatch's artifacts against computations made apart from it.

Nothing here imports fisherwatch. The record is parsed with the csv
module, covariances come from ``np.cov``, Fisher spectra from a plain
numpy Cholesky whitening, the closed forms (support edge b, the CLT
centring and scaling of tr{(F - I)^2}, the Marchenko-Pastur edge) are
written out again here, and the Gaussian quantile comes from the
standard library. Each check has a name; a failure is recorded as
(name, message), so the self-test can tell which check caught a
corruption.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path
from statistics import NormalDist

import numpy as np

#: tolerance of a recomputed statistic against the reported one,
#: relative to max(1, |value|)
VALUE_RTOL = 1e-6
#: a flag or rejection within this relative distance of its threshold
#: may go either way (the two computations round differently)
EDGE_RTOL = 1e-6
#: recomputed thresholds agree to rounding
THRESHOLD_RTOL = 1e-12
#: per-channel, per-regime sample variance: largest |z| accepted
VARIANCE_Z = 6.0
#: windows drawn per interval, besides the first, the last and the s
#: windows up to each trigger
SAMPLE_WINDOWS = 8
#: detector -> (strict comparison?) for "flag = value > thr" vs ">="
STRICT = {"dele": True, "deht": False, "mp": True}


class Failures:
    """Named check failures, a few messages kept per name."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.messages: list[str] = []

    def fail(self, name: str, message: str):
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.counts[name] <= 3:
            self.messages.append(f"{name}: {message}")

    def names(self) -> set[str]:
        return set(self.counts)

    def __bool__(self):
        return bool(self.counts)


# ---------------------------------------------------------------------------
# closed forms (real Gaussian data: kappa = 2, beta1 = beta2 = 0)

def fisher_upper_edge(y1: float, y2: float) -> float:
    """b = (1 + h)^2 / (1 - y2)^2, h^2 = y1 + y2 - y1 y2."""
    h = math.sqrt(y1 + y2 - y1 * y2)
    return (1.0 + h) ** 2 / (1.0 - y2) ** 2


def trace_statistic(trace: float, p: int, y1: float, y2: float, kappa: int) -> float:
    """(tr{(F-I)^2} - p F(g) - mu(g)) / sqrt(nu(g)) for g(x) = (x - 1)^2."""
    h2 = y1 + y2 - y1 * y2
    Fg = (h2 + y2**2 - y2**3) / (1.0 - y2) ** 3
    mu = (kappa - 1) * (2 * h2 * y2 + h2 - 2 * y2**3 + 3 * y2**2) / (1.0 - y2) ** 4
    nu = kappa * (2 * h2**2 + 4 * h2 * (h2 - y2**2 + 2 * y2) ** 2) / (1.0 - y2) ** 8
    return (trace - p * Fg - mu) / math.sqrt(nu)


def gaussian_threshold(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def mp_edge(y: float) -> float:
    return (1.0 + math.sqrt(y)) ** 2


def thresholds(p: int, cfg: dict) -> dict:
    d1, d2 = cfg["d1"], cfg["d2"]
    return {
        "dele": fisher_upper_edge(p / (d1 - 1), p / (d2 - 1)),
        "deht": gaussian_threshold(cfg["alpha"]),
        "mp": mp_edge(p / (d1 + d2 - 1)),
    }


# ---------------------------------------------------------------------------
# per-window statistics, plain numpy

def trace_sq_dev(numerator: np.ndarray, denominator: np.ndarray) -> float:
    """tr{(S_num S_den^-1 - I)^2} from two p x n blocks of raw columns."""
    A = np.linalg.solve(np.cov(denominator), np.cov(numerator))
    M = A - np.eye(A.shape[0])
    return float(np.sum(M * M.T))


def window_value(method: str, window: np.ndarray, cfg: dict) -> float:
    p = window.shape[0]
    d1, d2 = cfg["d1"], cfg["d2"]
    ref, probe = window[:, :d2], window[:, d2:]
    if method == "dele":
        C = np.linalg.cholesky(np.cov(ref))
        B = np.linalg.solve(C, np.linalg.solve(C, np.cov(probe)).T)
        return float(np.linalg.eigvalsh(0.5 * (B + B.T))[-1])
    if method == "deht":
        trace = trace_sq_dev(probe, ref)
        return abs(trace_statistic(trace, p, p / (d1 - 1), p / (d2 - 1), cfg["kappa"]))
    if method == "mp":
        return float(np.linalg.eigvalsh(np.corrcoef(window))[-1])
    raise ValueError(method)


def first_run_end(flags, s: int):
    """1-based index of the window that completes the first run of s flags."""
    run = 0
    for j, f in enumerate(flags, start=1):
        run = run + 1 if f else 0
        if run == s:
            return j
    return None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _flag_ok(flag: bool, value: float, threshold: float, strict: bool) -> bool:
    if abs(value - threshold) <= EDGE_RTOL * max(1.0, abs(threshold)):
        return True
    return flag == (value > threshold if strict else value >= threshold)


# ---------------------------------------------------------------------------
# files

def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_record(path):
    """(header, channel ids, p x T values) of a channel-per-row CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r[0] for r in rows[1:]], np.array([r[1:] for r in rows[1:]], dtype=float)


def _check_manifest(out: Path, inputs: dict, artifacts, failures: Failures):
    """The manifest's input checksums are ``inputs``; its artifact ones match the files."""
    man = json.loads((out / "manifest.json").read_text())
    if man.get("inputs") != inputs:
        failures.fail("manifest", f"{out.name}: input checksums {man.get('inputs')} != {inputs}")
    for name in artifacts:
        if man.get("artifacts", {}).get(name) != sha256(out / name):
            failures.fail("manifest", f"{out.name}: checksum of {name} does not match")


def _check_schema(report: dict, schema: dict, where: str, failures: Failures):
    import jsonschema

    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        failures.fail("schema", f"{where}: {exc.message}")


def _check_config(report: dict, cfg: dict, where: str, failures: Failures):
    if report.get("config") != cfg:
        failures.fail("config", f"{where}: config {report.get('config')} != {cfg}")


# ---------------------------------------------------------------------------
# the three artifact sets

def check_record(sim: Path, doc: dict, failures: Failures) -> np.ndarray:
    """Shape, ids, ground truth and per-regime variances of the simulated record."""
    header, ids, X = read_record(sim / "data.csv")
    p, T = doc["p"], doc["T"]
    if X.shape != (p, T) or header != ["channel"] + [str(t) for t in range(1, T + 1)]:
        failures.fail("record-shape", f"record is {X.shape}, want {(p, T)}")
        return X
    if ids != [f"ch{i}" for i in range(1, p + 1)]:
        failures.fail("record-shape", "channel ids are not ch1..chp")
    truth = json.loads((sim / "truth.json").read_text())
    events = doc["events"]
    if (truth.get("change_times") != [e["tau"] for e in events]
            or truth.get("cutoff_times") != [e["end"] for e in events if "end" in e]
            or truth.get("seed") != doc["seed"]):
        failures.fail("record-truth", f"truth.json {truth} does not match the scenario")
    _check_manifest(sim, {"scenario.json": sha256(sim.parent / "scenario.json")},
                    ["data.csv", "truth.json"], failures)

    cuts = sorted({0, T} | {e["tau"] for e in events} | {e["end"] for e in events if "end" in e})
    sigma2 = doc["noise_sigma"] ** 2
    for lo, hi in zip(cuts, cuts[1:]):  # regime = samples lo+1 .. hi
        var = np.ones(p)
        for e in events:  # composed in order, as in the scenario
            if e["tau"] < lo + 1 and ("end" not in e or lo + 1 <= e["end"]):
                if e["kind"] == "scale-subset":
                    var[[c - 1 for c in e["channels"]]] *= e["factor"] ** 2
                else:  # spike: + strength * v v^T, v of unit length
                    v = np.asarray(e["direction"], dtype=float)
                    var += e["strength"] * (v / np.linalg.norm(v)) ** 2
        var += sigma2
        n = hi - lo
        z = (X[:, lo:hi].var(axis=1, ddof=1) - var) / (var * math.sqrt(2.0 / (n - 1)))
        worst = int(np.argmax(np.abs(z)))
        if abs(z[worst]) > VARIANCE_Z:
            failures.fail("record-variance",
                          f"samples {lo + 1}..{hi}, channel {worst + 1}: z = {z[worst]:.2f}")
    return X


def check_screen(out: Path, X: np.ndarray, doc: dict, cfg: dict, schema: dict,
                 failures: Failures) -> dict:
    """Every boundary test, the rejections and the merged intervals."""
    rep = json.loads((out / "report.json").read_text())
    _check_schema(rep, schema, "screen", failures)
    _check_config(rep, cfg, "screen", failures)
    _check_manifest(out, {"data.csv": sha256(out.parent / "sim" / "data.csv")},
                    ["report.json", "series.csv"], failures)
    p, T = X.shape
    D = cfg["D"]
    N = T // D - 1
    if rep.get("boundaries") != [i * D for i in range(1, N + 1)]:
        failures.fail("screen-boundaries", f"boundaries are not i*{D}, i = 1..{N}")
        return rep
    U = gaussian_threshold(cfg["alpha"])
    if not _close(rep["threshold"], U, THRESHOLD_RTOL):
        failures.fail("threshold", f"screen threshold {rep['threshold']} != {U}")
    for i, (L, rej) in enumerate(zip(rep["statistics"], rep["rejections"]), start=1):
        lo, mid, hi = (i - 1) * D, i * D, (i + 1) * D if i < N else T
        trace = trace_sq_dev(X[:, mid:hi], X[:, lo:mid])
        L_ref = trace_statistic(trace, p, p / (hi - mid - 1), p / (mid - lo - 1), cfg["kappa"])
        if not _close(L, L_ref, VALUE_RTOL):
            failures.fail("screen-statistic", f"boundary {i}: L = {L}, recomputed {L_ref}")
        if not _flag_ok(rej, abs(L_ref), U, strict=False):
            failures.fail("rejection", f"boundary {i}: |L| = {abs(L_ref):.4f}, reject = {rej}")

    raw = [[(i - 1) * D + 1, (i + 1) * D if i < N else T]
           for i, rej in enumerate(rep["rejections"], start=1) if rej]
    if rep.get("raw_intervals") != raw:
        failures.fail("merged-union", "raw intervals are not the rejected neighbourhoods")
    covered = np.zeros(T + 2, dtype=bool)
    for a, b in raw:
        covered[a : b + 1] = True
    edges = np.flatnonzero(np.diff(covered.astype(np.int8)))
    union = [[int(a) + 1, int(b)] for a, b in zip(edges[::2], edges[1::2])]
    if rep["merged_intervals"] != union:
        failures.fail("merged-union",
                      f"merged {rep['merged_intervals']} != union of neighbourhoods {union}")
    for e in doc["events"]:
        if not any(lo <= e["tau"] <= hi for lo, hi in rep["merged_intervals"]):
            failures.fail("onset-screened", f"onset {e['tau']} lies in no merged interval")

    with open(out / "series.csv", newline="") as fh:
        series = list(csv.reader(fh))[1:]
    expect = [[str(i), str(t), repr(L), repr(rep["threshold"]), str(int(r))]
              for i, (t, L, r) in enumerate(
                  zip(rep["boundaries"], rep["statistics"], rep["rejections"]), start=1)]
    if series != expect:
        failures.fail("screen-series", "series.csv disagrees with report.json")
    return rep


def read_traces(path: Path) -> dict:
    """interval id -> (k list, values, thresholds, flags)."""
    traces: dict[int, list] = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            t = traces.setdefault(int(row[0]), [[], [], [], []])
            t[0].append(int(row[1]))
            t[1].append(float(row[2]))
            t[2].append(float(row[3]))
            t[3].append(row[4] == "1")
    return traces


def check_detect(out: Path, method: str, X: np.ndarray, merged, cfg: dict,
                 schema: dict, seed: int, failures: Failures):
    """Traces against recomputed windows and thresholds, and the run rule."""
    rep = json.loads((out / "report.json").read_text())
    where = f"detect {method}"
    _check_schema(rep, schema, where, failures)
    _check_config(rep, cfg, where, failures)
    _check_manifest(out, {"data.csv": sha256(out.parent / "sim" / "data.csv")},
                    ["report.json", "traces.csv"], failures)
    if rep.get("method") != method or rep.get("screened_intervals") != merged:
        failures.fail("detect-intervals", f"{where}: intervals differ from screen's")
        return
    p = X.shape[0]
    d, s = cfg["d1"] + cfg["d2"], cfg["s"]
    thr = thresholds(p, cfg)[method]
    traces = read_traces(out / "traces.csv")
    if sorted(traces) != list(range(1, len(merged) + 1)):
        failures.fail("trace-shape", f"{where}: trace ids {sorted(traces)}")
        return
    expected = []
    rng = np.random.default_rng([seed, list(STRICT).index(method)])
    for j, (lo, hi) in enumerate(merged, start=1):
        ks, values, thrs, flags = traces[j]
        K = hi - lo + 1 - d + 1
        if ks != list(range(1, K + 1)):
            failures.fail("trace-shape", f"{where} interval {j}: {len(ks)} windows, want {K}")
            continue
        if any(not _close(t, thr, THRESHOLD_RTOL) for t in thrs):
            failures.fail("threshold", f"{where} interval {j}: threshold {thrs[0]} != {thr}")
        for k, (v, f) in enumerate(zip(values, flags), start=1):
            if not _flag_ok(f, v, thr, STRICT[method]):
                failures.fail("flag", f"{where} interval {j} window {k}: {v} vs {thr}, flag {f}")
        k_s = first_run_end(flags, s)
        sample = {1, K} | {int(k) for k in rng.integers(1, K + 1, SAMPLE_WINDOWS)}
        if k_s is not None:
            sample |= set(range(k_s - s + 1, k_s + 1))
            expected.append({"interval": [lo, hi], "fault_time": lo - 1 + k_s + d - 1,
                             "trigger_window": k_s})
        for k in sorted(sample):
            c0 = lo - 1 + k - 1
            ref = window_value(method, X[:, c0 : c0 + d], cfg)
            if not _close(values[k - 1], ref, VALUE_RTOL):
                failures.fail("window-value",
                              f"{where} interval {j} window {k}: {values[k - 1]} != {ref}")
    got = [{key: det.get(key) for key in ("interval", "fault_time", "trigger_window")}
           for det in rep["detections"]]
    if got != expected or any(det.get("detector") != method for det in rep["detections"]):
        failures.fail("fault-time", f"{where}: detections {got}, want {expected}")


def check_all(work: Path, doc: dict, cfg: dict, methods, schema: dict, seed: int,
              failures: Failures) -> np.ndarray:
    """Record, screen and every detector's artifacts under ``work``."""
    X = check_record(work / "sim", doc, failures)
    if failures.names() & {"record-shape"}:
        return X
    rep = check_screen(work / "screen", X, doc, cfg, schema, failures)
    for m in methods:
        check_detect(work / m, m, X, rep.get("merged_intervals"), cfg, schema, seed, failures)
    return X


# ---------------------------------------------------------------------------
# self-test: each corruption must be caught by the check named for it

def _rehash(out: Path):
    """Rewrite the manifest checksums, so only the targeted check can object."""
    path = out / "manifest.json"
    man = json.loads(path.read_text())
    man["artifacts"] = {name: sha256(out / name) for name in man["artifacts"]}
    path.write_text(json.dumps(man, indent=2, sort_keys=True) + "\n")


def _rewrite_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def self_test(work: Path, X: np.ndarray, cfg: dict, methods, schema: dict,
              seed: int) -> dict:
    """Corrupt copies of real artifacts; return {corruption: caught?}."""
    bad = work / "selftest"
    shutil.rmtree(bad, ignore_errors=True)
    bad.mkdir()
    shutil.copytree(work / "sim", bad / "sim")
    merged = json.loads((work / "screen" / "report.json").read_text())["merged_intervals"]
    reports = {m: json.loads((work / m / "report.json").read_text()) for m in methods}
    # prefer a method with a detection, so the trigger window and fault_time exist
    method = next((m for m in methods if reports[m]["detections"]), methods[0])
    caught = {}

    # 1. one trace value perturbed: the trigger window's, else the first
    out = bad / "trace-value"
    shutil.copytree(work / method, out)
    dets = reports[method]["detections"]
    j = merged.index(dets[0]["interval"]) + 1 if dets else 1
    k = dets[0]["trigger_window"] if dets else 1
    rows = (out / "traces.csv").read_text().splitlines()
    i = next(n for n, r in enumerate(rows[1:], start=1) if r.startswith(f"{j},{k},"))
    cells = rows[i].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-3) + 1e-3)
    rows[i] = ",".join(cells)
    (out / "traces.csv").write_text("\r\n".join(rows) + "\r\n")
    _rehash(out)
    f = Failures()
    check_detect(out, method, X, merged, cfg, schema, seed, f)
    caught["trace value perturbed"] = "window-value" in f.names()

    # 2. one fault_time shifted (with no detection anywhere, one is added)
    out = bad / "fault-time"
    shutil.copytree(work / method, out)

    def shift(rep):
        if rep["detections"]:
            rep["detections"][0]["fault_time"] += 1
        else:
            lo, hi = merged[0]
            rep["detections"].append({"interval": [lo, hi], "fault_time": hi,
                                      "detector": method, "trigger_window": 1,
                                      "delay_samples": None})

    _rewrite_json(out / "report.json", shift)
    _rehash(out)
    f = Failures()
    check_detect(out, method, X, merged, cfg, schema, seed, f)
    caught["fault_time shifted"] = "fault-time" in f.names()

    # 3. one rejection flipped: the boundary farthest from the threshold
    out = bad / "screen"
    shutil.copytree(work / "screen", out)

    def flip(rep):
        i = int(np.argmax(np.abs(np.abs(rep["statistics"]) - rep["threshold"])))
        rep["rejections"][i] = not rep["rejections"][i]

    _rewrite_json(out / "report.json", flip)
    _rehash(out)
    f = Failures()
    doc = {"events": []}  # onsets are not the point here
    check_screen(out, X, doc, cfg, schema, f)
    caught["rejection flipped"] = "rejection" in f.names()
    shutil.rmtree(bad, ignore_errors=True)
    return caught
