"""Spectral solver and strong-convergence benchmark for the stochastic
Allen-Cahn equation on (0, 1) with additive space-time white noise.

Space is discretized by Galerkin projection onto the sine eigenbasis of the
Dirichlet Laplacian; time by an explicit exponential integrator that keeps
the semigroup and the stochastic convolution exact and tames the cubic
drift so steps stay bounded.  The experiments module couples coarse paths
to a fine reference through shared keyed noise and measures the strong
error across resolution ladders.
"""

from .errors import AlignmentError, BlowupError, ResolutionError
from .experiments import (
    ErrorPoint,
    ErrorReport,
    MomentDiagnostics,
    RunConfig,
    coupled_terminal,
    fit_slope,
    moment_diagnostics,
    resolution_pair,
    sample_squared_errors,
    strong_error_study,
)
from .model import ModelParams, nonlinearity_galerkin, tamed_drift
from .noise import (
    NoiseGrid,
    NoiseKey,
    NoiseRealization,
    increment_variance,
    sample_fine_increment,
)
from .reporting import emit_csv, emit_loglog_plot, load_error_csv
from .spectral import (
    GridField,
    SpectralField,
    analyze,
    dealias_grid_size,
    eigenvalue,
    grid_points,
    project,
    synthesize,
)
from .stepper import BLOWUP_THRESHOLD, simulate_path

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BLOWUP_THRESHOLD",
    "BlowupError",
    "ErrorPoint",
    "ErrorReport",
    "GridField",
    "ModelParams",
    "MomentDiagnostics",
    "NoiseGrid",
    "NoiseKey",
    "NoiseRealization",
    "ResolutionError",
    "RunConfig",
    "SpectralField",
    "analyze",
    "coupled_terminal",
    "dealias_grid_size",
    "eigenvalue",
    "emit_csv",
    "emit_loglog_plot",
    "fit_slope",
    "grid_points",
    "increment_variance",
    "load_error_csv",
    "moment_diagnostics",
    "nonlinearity_galerkin",
    "project",
    "resolution_pair",
    "sample_fine_increment",
    "sample_squared_errors",
    "simulate_path",
    "strong_error_study",
    "synthesize",
    "tamed_drift",
]
