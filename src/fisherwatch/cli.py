"""Command-line interface.

Exit codes: 0 success, 2 input/config error, 3 data-shape error. On
failure stderr carries a single machine-parsable line ``<code>: <why>``.
Each command computes first and then writes through :func:`_publish`, so
all output files are written after computation completes and the manifest
covers exactly them. ``screen`` and ``detect`` leave resolving the config
to the library call, which returns it with its result.
"""
from __future__ import annotations

import argparse
import statistics as pystats
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import io
from .core import DetectionConfig, validate_config
from .detect import METHODS, localize, scan_workers
from .errors import ConfigError, FisherwatchError, ShapeError
from .screening import screen
from .simgen import generate
from .validate import esd_vs_lsd_ks, null_calibration

DEFAULT_SEED = 12345
MIN_REPS = 100

EXIT_INPUT = 2
EXIT_SHAPE = 3


def _load_config(args):
    return io.parse_config(io.load_json(args.config)) if args.config else DetectionConfig()


def _publish(args, subcommand: str, inputs, artifacts: dict, **manifest) -> int:
    """Write ``artifacts[name](path)`` for each name in order under
    ``--out-dir``, then the manifest over exactly those files."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in artifacts.items():
        write(out / name)
    io.write_manifest(out, subcommand, inputs, [out / name for name in artifacts], **manifest)
    return 0


def cmd_simulate(args) -> int:
    doc = io.load_json(args.scenario)
    scenario = io.parse_scenario(doc)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    X, truth = generate(scenario)
    truth = {"schema_version": io.SCHEMA_VERSION, **truth}
    return _publish(args, "simulate", [args.scenario], {
        "data.csv": lambda path: io.write_state_csv(path, X),
        "truth.json": lambda path: io.write_json(path, truth),
    }, seed=scenario.seed, config=doc)


def cmd_screen(args) -> int:
    X = io.read_state_csv(args.data, transpose=args.transpose)
    result = screen(X, _load_config(args))
    return _publish(args, "screen", [args.data], {
        "report.json": lambda path: io.write_json(path, io.screen_report(result)),
        "series.csv": lambda path: io.write_screen_series(path, result),
    }, config=asdict(result.config))


def cmd_detect(args) -> int:
    X = io.read_state_csv(args.data, transpose=args.transpose)
    report = localize(X, _load_config(args), method=args.method, true_tau=args.true_tau)
    return _publish(args, "detect", [args.data], {
        "report.json": lambda path: io.write_json(path, io.detect_report(report, args.method)),
        "traces.csv": lambda path: io.write_detect_traces(path, report),
    }, config=asdict(report.config))


def cmd_validate_null(args) -> int:
    if args.reps < MIN_REPS:
        raise ConfigError(f"need at least {MIN_REPS} replications, got {args.reps}")
    for flag, value, least in (("--p", args.p, 2), ("--n1", args.n1, 2),
                               ("--n2", args.n2, 2), ("--esd-p", args.esd_p, 1),
                               ("--esd-n", args.esd_n, 2), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    if args.n2 < args.p + 2:  # the aspect ratio p / (n2 - 1) must lie below 1
        raise ConfigError(f"--n2 must be at least --p + 2 = {args.p + 2}, got {args.n2}")
    cfg = validate_config(_load_config(args), args.p)
    # the ESD draw is the quicker one, so its size errors come first
    ks_esd = esd_vs_lsd_ks(args.esd_p, args.esd_n, seed=args.seed, knob="--esd-n")
    calib = null_calibration(
        args.p, args.n1, args.n2, args.reps, alpha=cfg.alpha, seed=args.seed,
        knob="--n2", kappa=cfg.kappa, beta1=cfg.beta1, beta2=cfg.beta2,
    )
    doc = {
        "schema_version": io.SCHEMA_VERSION,
        "reps": args.reps,
        "p": args.p,
        "n1": args.n1,
        "n2": args.n2,
        "esd_p": args.esd_p,
        "esd_n": args.esd_n,
        "alpha": cfg.alpha,
        "seed": args.seed,
        "ks_esd_vs_lsd": ks_esd,
        **calib,
    }
    return _publish(args, "validate-null", [args.config] if args.config else [], {
        "calibration.json": lambda path: io.write_json(path, doc),
    }, seed=args.seed, config=asdict(cfg))


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    X = io.read_state_csv(args.data, transpose=args.transpose)
    cfg = validate_config(_load_config(args), X.p)
    timings = {}
    for method in METHODS:
        runs = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            localize(X, cfg, method=method)
            runs.append(time.perf_counter() - t0)
        timings[method] = {
            "median_seconds": pystats.median(runs),
            "runs_seconds": runs,
        }
    doc = {
        "schema_version": io.SCHEMA_VERSION,
        "repeats": args.repeats,
        "workers": scan_workers(),
        "timings": timings,
    }
    return _publish(args, "bench", [args.data], {
        "timings.json": lambda path: io.write_json(path, doc),
    }, config=asdict(cfg))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fisherwatch",
        description="Covariance change-point detection via Fisher matrix spectra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic stream from a scenario")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.set_defaults(func=cmd_simulate)

    def data_cmd(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("data", help="channel-per-row CSV")
        p.add_argument("--config", help="detection config JSON")
        p.add_argument("--out-dir", required=True)
        p.add_argument("--transpose", action="store_true",
                       help="input CSV is sample-per-row")
        return p

    scr = data_cmd("screen", "screen candidate fault intervals")
    scr.set_defaults(func=cmd_screen)

    det = data_cmd("detect", "screen then localize change points")
    det.add_argument("--method", choices=METHODS, default="dele")
    det.add_argument("--true-tau", type=int, default=None,
                     help="known change time, for delay reporting")
    det.set_defaults(func=cmd_detect)

    val = sub.add_parser("validate-null", help="Monte Carlo null calibration")
    val.add_argument("--config", help="detection config JSON")
    val.add_argument("--reps", type=int, default=2000)
    val.add_argument("--p", type=int, default=80)
    val.add_argument("--n1", type=int, default=240)
    val.add_argument("--n2", type=int, default=240)
    val.add_argument("--esd-p", type=int, default=200)
    val.add_argument("--esd-n", type=int, default=1000)
    val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    val.add_argument("--out-dir", required=True)
    val.set_defaults(func=cmd_validate_null)

    ben = data_cmd("bench", "time the three detectors on one input")
    ben.add_argument("--repeats", type=int, default=5)
    ben.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShapeError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (FisherwatchError, OSError, ValueError) as exc:
        code = getattr(exc, "code", "input-error")
        print(f"{code}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
