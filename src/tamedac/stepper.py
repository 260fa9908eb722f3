"""Tamed accelerated exponential Euler stepping in coefficient space.

One step of the full discretization advances every mode i by

    c_i'  =  exp(-lambda_i tau) c_i  +  phi_i(tau) d_i  +  noise_i,

where d is the tamed Galerkin drift of the current field and noise_i is the
exact stochastic convolution increment for the step (zero in deterministic
mode).  The linear part and the noise are treated exactly; only the drift
is frozen over the step, and its taming keeps the update bounded even
though the cubic grows super-linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import BlowupError
from .model import ModelParams, _drift_raw, _tamed_drift_raw, _resolve_grid
from .spectral import (
    SpectralField,
    phi_factors,
    project,
    semigroup_factors,
)

# Any coefficient beyond this magnitude aborts the path: taming makes the
# threshold unreachable, so crossing it signals a bug or an intentionally
# untamed run.
BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class SchemeState:
    """Current field of a running discretization, with its step position."""

    field: SpectralField
    step_index: int
    tau: float

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class PathResult:
    """Terminal field of a simulated path and any requested snapshots."""

    terminal: SpectralField
    snapshots: dict[int, SpectralField] = field(default_factory=dict)


def _advance(coeffs, decay, weights, drift, noise_row, step_index, sample_index):
    out = decay * coeffs + weights * drift
    if noise_row is not None:
        out += noise_row
    if np.max(np.abs(out)) > BLOWUP_THRESHOLD:
        raise BlowupError(
            f"coefficient magnitude exceeded {BLOWUP_THRESHOLD:g} at step {step_index}",
            step_index=step_index, sample_index=sample_index,
        )
    return out


def step(state: SchemeState, params: ModelParams, noise_increments,
         *, tamed: bool = True, grid_size: int | None = None) -> SchemeState:
    """Advance one step given per-mode noise increments (zeros for none)."""
    n = state.field.n_modes
    noise = np.asarray(noise_increments, dtype=np.float64)
    if noise.shape != (n,):
        raise ValueError(f"noise_increments must have length {n}, got shape {noise.shape}")
    grid = _resolve_grid(params, n, grid_size)
    coeffs = state.field.coeffs
    if tamed:
        drift = _tamed_drift_raw(params, coeffs, state.tau, grid)
    else:
        drift = _drift_raw(params, coeffs, grid)
    out = _advance(coeffs, semigroup_factors(n, state.tau), phi_factors(n, state.tau),
                   drift, noise, state.step_index, None)
    return SchemeState(field=SpectralField(out), step_index=state.step_index + 1,
                       tau=state.tau)


def simulate_path(params: ModelParams, n_modes: int, n_steps: int,
                  increments: np.ndarray | None = None, *,
                  tamed: bool = True, record_steps: Iterable[int] = (),
                  grid_size: int | None = None, check_bounds: bool = False,
                  sample_index: int | None = None,
                  observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
                  ) -> PathResult:
    """Run the discretization from the projected initial data to the horizon.

    Parameters
    ----------
    params:
        Drift polynomial, horizon and initial data.
    n_modes, n_steps:
        Resolution (N, M); the step size is horizon_T / n_steps.
    increments:
        Per-step, per-mode stochastic convolution increments of shape
        (n_steps, n_modes), or None for the deterministic (noise-off) mode.
    tamed:
        Disable only to demonstrate divergence of the untamed scheme.
    record_steps:
        Completed-step indices (0 = initial data) to snapshot.
    check_bounds:
        Assert the tamed-increment bound ||phi . d|| < phi_1 / tau each step.
    observer:
        Called as observer(step_index, coeffs, drift) after every step;
        intended for diagnostics, not for mutating the state.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if increments is not None:
        increments = np.asarray(increments, dtype=np.float64)
        if increments.shape != (n_steps, n_modes):
            raise ValueError(
                f"increments must have shape {(n_steps, n_modes)}, got {increments.shape}"
            )
    tau = params.horizon_T / n_steps
    grid = _resolve_grid(params, n_modes, grid_size)
    decay = semigroup_factors(n_modes, tau)
    weights = phi_factors(n_modes, tau)
    wanted = set(record_steps)

    coeffs = project(params.initial_data, n_modes).coeffs.copy()
    snapshots: dict[int, SpectralField] = {}
    if 0 in wanted:
        snapshots[0] = SpectralField(coeffs)
    for m in range(n_steps):
        if tamed:
            drift = _tamed_drift_raw(params, coeffs, tau, grid)
        else:
            drift = _drift_raw(params, coeffs, grid)
        if check_bounds and tamed:
            bound = weights[0] / tau
            assert np.linalg.norm(weights * drift) <= bound * (1.0 + 1e-12), \
                "tamed drift increment exceeded its bound"
        coeffs = _advance(coeffs, decay, weights, drift, increments[m] if
                          increments is not None else None, m, sample_index)
        if observer is not None:
            observer(m + 1, coeffs, drift)
        if m + 1 in wanted:
            snapshots[m + 1] = SpectralField(coeffs)
    return PathResult(terminal=SpectralField(coeffs), snapshots=snapshots)
