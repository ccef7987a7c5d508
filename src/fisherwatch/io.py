"""File formats: CSV streams, JSON configs/scenarios/reports, manifests.

CSV orientation is rows = channels (column 1 the channel id, optional
header row of sample indices); JSON documents are written with sorted
keys so identical runs produce identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, fields
from io import StringIO
from pathlib import Path
from typing import Optional

import numpy as np

from .core import DetectionConfig, FaultReport, StateMatrix, _integer
from .errors import ConfigError, DataError, ScenarioError
from .screening import ScreenResult
from .simgen import CovarianceEvent, Scenario

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# CSV

def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted where needed."""
    buf = StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_state_csv(path, X: StateMatrix):
    """The bytes ``csv.writer`` would write. A float's repr never needs
    quoting, so only the ids go through csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["channel", *map(str, range(1, X.T + 1))]) + "\r\n")
        for cid, row in zip(X.channel_ids, X.values):
            fh.write(f"{_csv_cell(cid)},{','.join(map(repr, row.tolist()))}\r\n")


def _data_cells(rec) -> Optional[np.ndarray]:
    """The cells after the id as floats; None if there are none or one is not a number."""
    try:
        return np.array(rec[1:], dtype=float) if len(rec) > 1 else None
    except ValueError:
        return None


def read_state_csv(path, transpose: bool = False) -> StateMatrix:
    """Parse a channel-per-row CSV; ``transpose`` accepts column-major exports."""
    try:
        # utf-8-sig drops the BOM that a "CSV UTF-8" export starts with
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [(rec[0], _data_cells(rec)) for rec in csv.reader(fh) if rec]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    # header row: non-numeric data cells, or a label in the id column
    # (sample indices in a header parse as floats, so check both)
    header_labels = {"", "channel", "sample", "time", "index"}
    if rows[0][0].strip().lower() in header_labels or rows[0][1] is None:
        rows = rows[1:]
    if not rows or any(cells is None for _, cells in rows):
        raise DataError(f"{path}: not a numeric channel-per-row CSV")
    ids = [cid for cid, _ in rows]
    try:
        values = np.vstack([cells for _, cells in rows])
    except ValueError as exc:
        raise DataError(f"{path}: ragged or non-numeric rows") from exc
    if transpose:
        values = values.T
        ids = [f"ch{i + 1}" for i in range(values.shape[0])]
    return StateMatrix(values=values, channel_ids=tuple(ids))


# ---------------------------------------------------------------------------
# JSON configs and scenarios

def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(doc, what: str, keys: set, error=ScenarioError) -> dict:
    """``doc``, refused by ``error`` unless it is a JSON object that sets only ``keys``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - keys
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    return doc


def parse_config(doc) -> DetectionConfig:
    """The config a JSON document sets; its values are checked by validate_config."""
    keys = {f.name for f in fields(DetectionConfig)}
    return DetectionConfig(**_object(doc, "config", keys, ConfigError))


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; a ragged or non-numeric one is refused by ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must be a rectangular array of numbers") from exc


#: the keys a scenario document may set: at its top level, in base_cov and in each event
SCENARIO_KEYS = {"p", "T", "base_cov", "events", "noise_sigma", "seed", "ar1"}
BASE_COV_KEYS = {"kind", "rho", "matrix"}
EVENT_KEYS = {f.name for f in fields(CovarianceEvent)}


def _scenario_integer(name: str):
    """A converter that refuses anything but a JSON integer for ``name``."""
    return lambda value: _integer(value, name, ScenarioError)


def _event(i: int, doc) -> CovarianceEvent:
    """Event i (1-based) of a scenario document; a key it leaves out keeps
    its field's default, and so does null where that default is None."""
    e = _object(doc, f"event {i}", EVENT_KEYS)
    convert = {
        "tau": _scenario_integer(f"event {i}: tau"),
        "kind": lambda kind: kind,
        "channels": lambda cs: tuple(map(_scenario_integer(f"event {i}: channels"), cs)),
        "factor": float,
        "direction": lambda v: tuple(float(x) for x in v),
        "strength": float,
        "matrix": lambda m: _float_array(m, f"event {i} ({e['kind']}): matrix"),
        "end": _scenario_integer(f"event {i}: end"),
    }
    optional = {"direction", "matrix", "end"}
    return CovarianceEvent(**{
        k: None if v is None and k in optional else convert[k](v) for k, v in e.items()
    })


def parse_scenario(doc) -> Scenario:
    """The scenario a JSON document sets; a key it leaves out keeps its field's default."""
    doc = _object(doc, "scenario", SCENARIO_KEYS)
    base = _object(doc.get("base_cov", {}), "base_cov", BASE_COV_KEYS)
    try:
        events = tuple(_event(i, e) for i, e in enumerate(doc.get("events", []), 1))
        convert = {"p": _scenario_integer("p"), "T": _scenario_integer("T"),
                   "noise_sigma": float, "seed": _scenario_integer("seed"), "ar1": float}
        kwargs = {k: convert[k](v) for k, v in doc.items() if k in convert}
        if "kind" in base:
            kwargs["base_cov_kind"] = base["kind"]
        params = {k: v for k, v in base.items() if k != "kind"}
        if "matrix" in params:
            params["matrix"] = _float_array(params["matrix"], "base_cov.matrix")
        return Scenario(**kwargs, base_cov_params=params, events=events)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports

def screen_report(result: ScreenResult) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "screen", **asdict(result)}


def detect_report(report: FaultReport, method: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "detect",
        "method": method,
        "screened_intervals": report.screened_intervals,
        "detections": [asdict(d) for d in report.detections],
        "config": asdict(report.config),
    }


def write_screen_series(path, result: ScreenResult):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["boundary_index", "t_i", "L_i", "threshold", "reject"])
        rows = zip(result.boundaries, result.statistics, result.rejections)
        for i, (t, L, reject) in enumerate(rows, start=1):
            w.writerow([i, t, repr(L), repr(result.threshold), int(reject)])


def write_detect_traces(path, report: FaultReport):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval_id", "k", "value", "threshold", "flag"])
        for j, trace in enumerate(report.traces, start=1):
            for k, (v, f) in enumerate(zip(trace.values, trace.flags), start=1):
                w.writerow([j, k, repr(float(v)), repr(trace.threshold), int(f)])


def write_json(path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Manifest

def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, subcommand: str, inputs, artifacts, seed=None, config=None):
    """Record input/output checksums; identical inputs give identical bytes."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "seed": seed,
        "config": config or {},
        "inputs": {Path(p).name: sha256_of(p) for p in inputs},
        "artifacts": {Path(p).name: sha256_of(p) for p in artifacts},
    }
    path = Path(out_dir) / "manifest.json"
    write_json(path, doc)
    return path
