"""Covariance change-point detection via Fisher matrix spectral statistics."""

from .core import (
    DetectionConfig,
    DetectionRecord,
    FaultReport,
    StateMatrix,
    validate_config,
)
from .detect import DetectorTrace, localize, run_rule, scan
from .rmt import (
    CltConstants,
    LsdParams,
    clt_constants,
    gaussian_quantile,
    lsd_cdf,
    lsd_density,
    mp_upper_edge,
    support_edges,
)
from .screening import ScreenResult, merge_intervals, screen, segment_boundaries
from .simgen import CovarianceEvent, Scenario, generate, sample_spd
from .spectral import (
    FisherSpectrum,
    WindowSplit,
    fisher_eigenvalues,
    fisher_trace_sq_dev,
    normalize_rows,
    sample_covariance,
    sliding_correlation_largest,
    sliding_fisher_largest,
    sliding_trace_sq_dev,
)

__version__ = "0.1.0"

__all__ = [
    "DetectionConfig",
    "DetectionRecord",
    "FaultReport",
    "StateMatrix",
    "validate_config",
    "DetectorTrace",
    "localize",
    "run_rule",
    "scan",
    "CltConstants",
    "LsdParams",
    "clt_constants",
    "gaussian_quantile",
    "lsd_cdf",
    "lsd_density",
    "mp_upper_edge",
    "support_edges",
    "ScreenResult",
    "merge_intervals",
    "screen",
    "segment_boundaries",
    "CovarianceEvent",
    "Scenario",
    "generate",
    "sample_spd",
    "FisherSpectrum",
    "WindowSplit",
    "fisher_eigenvalues",
    "fisher_trace_sq_dev",
    "normalize_rows",
    "sample_covariance",
    "sliding_correlation_largest",
    "sliding_fisher_largest",
    "sliding_trace_sq_dev",
]
