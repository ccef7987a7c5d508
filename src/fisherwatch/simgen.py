"""Seeded synthetic measurement streams with injected covariance changes.

Columns are drawn independently (the theory assumes i.i.d. sampling);
an optional AR(1) knob exists for robustness experiments only. Events
compose left-to-right and multiply their effects on the covariance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import StateMatrix
from .errors import ScenarioError

SPD_MIN_EIG = 1e-10
DEFAULT_NOISE_SIGMA = 1e-4

EVENT_KINDS = ("scale-subset", "spike", "full-replace")


def sample_spd(kind: str, p: int, params: Optional[dict] = None) -> np.ndarray:
    """Build a symmetric positive definite p x p matrix by recipe.

    Recipes: ``identity``; ``toeplitz`` with entry rho^|i-j|, |rho| < 1;
    ``matrix`` with an explicit SPD matrix under params["matrix"].
    """
    params = params or {}
    if kind == "identity":
        return np.eye(p)
    if kind == "toeplitz":
        rho = float(params.get("rho", 0.0))
        if not -1.0 < rho < 1.0:
            raise ScenarioError(f"toeplitz rho={rho} must lie in (-1, 1)")
        idx = np.arange(p)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    if kind == "matrix":
        M = np.asarray(params.get("matrix"), dtype=float)
        if M.shape != (p, p):
            raise ScenarioError(f"explicit covariance must be {p}x{p}, got {M.shape}")
        _check_spd(M, "base_cov.matrix")
        return M
    raise ScenarioError(f"unknown covariance recipe {kind!r}")


def _check_spd(M: np.ndarray, name: str):
    """Refuse the covariance ``name`` unless finite, symmetric and positive definite."""
    if not np.all(np.isfinite(M)):
        raise ScenarioError(f"{name} must be finite")
    if not np.allclose(M, M.T, atol=1e-12):
        raise ScenarioError(f"{name} is not symmetric")
    min_eig = float(np.linalg.eigvalsh(M)[0])
    if min_eig <= SPD_MIN_EIG:
        raise ScenarioError(f"{name} is not positive definite (min eig {min_eig:.3e})")


@dataclass(frozen=True)
class CovarianceEvent:
    """One change of the column covariance, active for samples t > tau.

    ``end`` (inclusive, optional) cuts the event off again, mirroring
    faults that are cleared after some time.
    """

    tau: int
    kind: str
    channels: tuple[int, ...] = ()  # 1-based, for scale-subset
    factor: float = 1.0
    direction: Optional[tuple[float, ...]] = None  # for spike
    strength: float = 0.0
    matrix: Optional[np.ndarray] = None  # for full-replace
    end: Optional[int] = None

    def apply(self, cov: np.ndarray) -> np.ndarray:
        p = cov.shape[0]
        if self.kind == "scale-subset":
            scale = np.ones(p)
            scale[[c - 1 for c in self.channels]] = self.factor
            return cov * np.outer(scale, scale)
        if self.kind == "spike":
            v = np.asarray(self.direction, dtype=float)
            v = v / np.linalg.norm(v)
            return cov + self.strength * np.outer(v, v)
        if self.kind == "full-replace":
            return np.asarray(self.matrix, dtype=float)
        raise ScenarioError(f"unknown event kind {self.kind!r}")


def _check_payload(i: int, event: CovarianceEvent, name: str, shape: tuple):
    """Refuse event i's field ``name`` when missing, not of ``shape`` or not finite."""
    value = getattr(event, name)
    if value is None:
        raise ScenarioError(f"event {i} ({event.kind}): {name} is missing")
    if np.shape(value) != shape:
        raise ScenarioError(
            f"event {i} ({event.kind}): {name} must have shape {shape}, "
            f"got {np.shape(value)}"
        )
    if not np.all(np.isfinite(value)):
        raise ScenarioError(f"event {i} ({event.kind}): {name} must be finite")


@dataclass(frozen=True)
class Scenario:
    p: int
    T: int
    base_cov_kind: str = "identity"
    base_cov_params: dict = field(default_factory=dict)
    events: tuple[CovarianceEvent, ...] = ()
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    seed: int = 0
    ar1: float = 0.0  # column correlation, stress testing only

    def __post_init__(self):
        if self.p < 2 or self.T < 2:
            raise ScenarioError(f"need p >= 2 and T >= 2, got p={self.p}, T={self.T}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be non-negative, got {self.seed}")
        for i, e in enumerate(self.events, 1):
            if not 1 <= e.tau < self.T:
                raise ScenarioError(f"event time {e.tau} outside [1, T-1]")
            if e.end is not None and not e.tau < e.end <= self.T:
                raise ScenarioError(f"event cutoff {e.end} must lie in ({e.tau}, T]")
            if e.kind not in EVENT_KINDS:
                raise ScenarioError(f"unknown event kind {e.kind!r}")
            if e.kind == "scale-subset" and any(
                not 1 <= c <= self.p for c in e.channels
            ):
                raise ScenarioError("scale-subset channels must lie in [1, p]")
            if e.kind == "spike":
                _check_payload(i, e, "direction", (self.p,))
                if not np.any(e.direction):
                    raise ScenarioError(f"event {i} (spike): direction is zero")
            if e.kind == "full-replace":
                _check_payload(i, e, "matrix", (self.p, self.p))
        if not -1.0 < self.ar1 < 1.0:
            raise ScenarioError(f"ar1={self.ar1} must lie in (-1, 1)")


def _cov_at(scenario: Scenario, t: int) -> np.ndarray:
    """Column covariance at 1-based sample t, all active events composed."""
    cov = sample_spd(scenario.base_cov_kind, scenario.p, scenario.base_cov_params)
    for e in scenario.events:
        if t > e.tau and (e.end is None or t <= e.end):
            cov = e.apply(cov)
    return cov


def generate(scenario: Scenario) -> tuple[StateMatrix, dict]:
    """Draw the stream and return it with its ground truth.

    Bit-reproducible for a fixed scenario (one RNG stream, consumed in
    time order). Ground truth lists the events' change times.
    """
    p, T = scenario.p, scenario.T
    rng = np.random.default_rng(scenario.seed)

    cuts = {0, T}
    for e in scenario.events:
        cuts.add(e.tau)
        if e.end is not None:
            cuts.add(e.end)
    cuts = sorted(c for c in cuts if 0 <= c <= T)

    X = np.empty((p, T))
    prev_col = None
    for lo, hi in zip(cuts, cuts[1:]):  # regime covers samples lo+1 .. hi
        cov = _cov_at(scenario, lo + 1)
        _check_spd(cov, f"covariance of samples {lo + 1}-{hi}")
        chol = np.linalg.cholesky(cov)
        block = chol @ rng.standard_normal((p, hi - lo))
        if scenario.ar1 != 0.0:
            innov = np.sqrt(1.0 - scenario.ar1**2)
            for j in range(block.shape[1]):
                if prev_col is not None:
                    block[:, j] = scenario.ar1 * prev_col + innov * block[:, j]
                prev_col = block[:, j]
        X[:, lo:hi] = block
    if scenario.noise_sigma:
        X += scenario.noise_sigma * rng.standard_normal((p, T))

    truth = {
        "change_times": [e.tau for e in scenario.events],
        "cutoff_times": [e.end for e in scenario.events if e.end is not None],
        "seed": scenario.seed,
    }
    matrix = StateMatrix(
        values=X, channel_ids=tuple(f"ch{i + 1}" for i in range(p))
    )
    return matrix, truth
