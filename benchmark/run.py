"""Benchmark of the fisherwatch `screen` and `detect` CLI on seeded PMU-like records.

    python3 benchmark/run.py --workload quiet-p40 --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times fresh CLI processes (the end-to-end metrics);
``--trace 1`` drives the CLI in-process with spans around each layer
(the per-layer metrics). ``--workload all`` runs every workload in turn.
Either way every artifact is checked against computations made apart
from the program (check.py), and the checker's self-test must catch
three planted corruptions. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. A full record of
the run (environment, every sample, spans, check messages) is written
to .bench_results/ at the root of the checkout. The exit code is 1 when
a result is not correct or an operation failed, and 2 when the checkout
holds no fisherwatch source.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import check
import traced
from workloads import WORKLOADS, default_config, scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SCHEMA = SRC / "fisherwatch" / "schemas" / "report.schema.json"

METHODS = traced.METHODS
#: rounds (screen + three detects) per run, at least, so each metric is a median
MIN_ROUNDS = 2
#: a run starts no CLI process later than this after it began
DEADLINE_S = 165.0

#: the metrics each kind of run must print, with their units
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_env() -> dict:
    """The environment of a CLI process: the caller's, with the checkout's
    src/ on PYTHONPATH in place of an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_environment(trace: int) -> dict:
    """The environment block, read where the measured work runs.

    End-to-end runs time fresh CLI processes, so a fresh interpreter with
    their environment reads it; the traced run measures this process.
    """
    if trace:
        import environment

        return environment.environment()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("environment.py"))],
                          env=cli_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    return json.loads(proc.stdout)


class Counter:
    """Operations attempted and failed in one run, with the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: str, ok: bool, message: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{op}: {message}")


def run_cli(argv, work: Path, timeout: float):
    """Run one `fisherwatch` command in a fresh interpreter.

    Returns (wall seconds, peak RSS in MB from wait4, exit code, stderr).
    """
    env = cli_env()
    with open(work / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fisherwatch.cli", *argv], cwd=work,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, usage.ru_maxrss * 1024 / 1e6, proc.returncode, err.read().strip()


def end_to_end(doc: dict, seconds: float, work: Path, counter: Counter, log: dict) -> dict:
    """Time simulate, then whole rounds of screen and the three detects.

    A metric whose every call failed is None; ``log["failed_out"]`` names
    those operations, whose artifacts cannot be checked.
    """
    deadline = time.perf_counter() + DEADLINE_S
    (work / "scenario.json").write_text(json.dumps(doc))
    samples = {op: [] for op in ("simulate", "screen", *METHODS)}
    rss, differing = [], set()
    first: dict[str, tuple] = {}

    def call(op, argv, out, artifacts):
        left = deadline - time.perf_counter()
        if left <= 0:
            raise TimeoutError(f"run exceeded {DEADLINE_S:.0f} s before {op}")
        wall, mb, rc, err = run_cli(argv, work, left)
        rss.append(mb)
        counter.record(op, rc == 0, f"exit {rc}: {err}")
        if rc != 0:
            return
        samples[op].append(wall)
        digest = tuple(check.sha256(work / out / a) for a in artifacts)
        if first.setdefault(op, digest) != digest:
            differing.add(op)

    for _ in range(traced.SETUP_REPEATS):
        call("simulate", ["simulate", "scenario.json", "--out-dir", "sim"], "sim",
             ("data.csv", "truth.json", "manifest.json"))
    t0 = time.perf_counter()
    rounds = 0
    while samples["simulate"] and (rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds):
        call("screen", ["screen", "sim/data.csv", "--out-dir", "screen"], "screen",
             ("report.json", "series.csv", "manifest.json"))
        for m in METHODS:
            call(m, ["detect", "sim/data.csv", "--method", m, "--out-dir", m], m,
                 ("report.json", "traces.csv", "manifest.json"))
        rounds += 1
    log.update(samples=samples, rounds=rounds, nondeterministic=sorted(differing),
               peak_rss_mb_each=rss, failed_out=[op for op, s in samples.items() if not s])
    median = {op: statistics.median(s) if s else None for op, s in samples.items()}
    return {
        "setup_s": median["simulate"],
        "screen_s": median["screen"],
        **{f"detect_{m}_s": median[m] for m in METHODS},
        "peak_rss_mb": max(rss),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    doc = scenario(name, seed)
    cfg = default_config(doc["p"])
    schema = json.loads(SCHEMA.read_text())
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counter = Counter()
    log: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                 "scenario": doc, "environment": read_environment(trace)}
    metrics: dict = {}
    failures = check.Failures()
    caught: dict = {}
    try:
        if trace:
            import environment
            from fisherwatch.blas import single_threaded

            metrics, spans, extra = traced.run(work, SRC, doc, seed, seconds, counter)
            with single_threaded():
                log["environment"]["openblas_threads_pinned"] = environment.openblas_threads()
            log["environment"]["trace_overhead_s"] = extra.pop("trace_overhead_s")
            log.update(spans=spans, **extra)
            deterministic = extra["localize_reports_identical"]
        else:
            metrics = end_to_end(doc, seconds, work, counter, log)
            deterministic = not log["nondeterministic"]
        if not deterministic:
            failures.fail("determinism", "repeated runs gave different artifacts")
        missing = log.get("failed_out", [])
        for op in missing:
            failures.fail("operation", f"no {op} call succeeded, so its artifacts are unchecked")
        if not {"simulate", "screen"} & set(missing):
            X = check.check_all(work, doc, cfg, [m for m in METHODS if m not in missing],
                                schema, seed, failures)
            if not missing:
                caught = check.self_test(work, X, cfg, METHODS, schema, seed)
    except Exception as exc:
        # a crash on broken artifacts fails this workload, not the others
        traceback.print_exc()
        failures.fail("run", f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log.update(errors=counter.errors, checks_failed=failures.messages, self_test=caught)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    if metrics and set(metrics) != set(declared):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}")
    correct = not failures and bool(caught) and all(caught.values())
    result = {"correct": correct, "attempted": counter.attempted, "failed": counter.failed,
              "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in declared.items()}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**log, "result": result}, indent=1, default=float))
    for msg in counter.errors:
        print(f"{name}: operation failed: {msg}")
    for msg in failures.messages:
        print(f"{name}: check failed: {msg}")
    for corruption, ok in caught.items():
        print(f"{name}: self-test: {corruption}: {'caught' if ok else 'NOT caught'}")
    for k, v in result["metrics"].items():
        value = "not measured" if v["value"] is None else f"{v['value']:.6g} {v['unit']}"
        print(f"{name}: {k} = {value}")
    print(f"{name}: operations attempted = {counter.attempted}, failed = {counter.failed}")
    print(json.dumps({"environment": log["environment"]}))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fisherwatch" / "cli.py").is_file():
        print(f"benchmark: no fisherwatch source under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))
        import fisherwatch

        if Path(fisherwatch.__file__).resolve().parent != (SRC / "fisherwatch").resolve():
            print(f"benchmark: imported fisherwatch from {fisherwatch.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and not final["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
