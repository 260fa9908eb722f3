"""Reaction term of the solver: cubic double-well drift and its taming.

The drift is the Nemytskii operator of the polynomial
f(v) = a3 v^3 + a2 v^2 + a1 v + a0 with a3 < 0.  Its Galerkin projection is
computed pseudospectrally: synthesize on a dealiased grid, apply f
pointwise, project back.  For a2 = a0 = 0 the result is the exact
projection (up to roundoff) because the cube of an N-mode sine polynomial
is itself a sine polynomial of degree at most 3N, whose modes 1..N a DST-I
on K >= 2N points recovers without aliasing; such drifts default to the
exact grid of :func:`dealias_grid_size`.  A nonzero a2 or a0 adds even
content whose sine projection is only quadrature-accurate on any grid;
those drifts default to 4N - 1 points, where that quadrature error is
several times smaller than on the exact grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError
from .spectral import (
    SQRT2,
    SpectralField,
    _analyze_raw,
    _synthesize_raw,
    dealias_grid_size,
)

# Grid amplitudes beyond this are cubed in rescaled arithmetic.  The cube of
# the limit (1e120) keeps both the cubic and the sum of squares inside its
# L2 norm (1e240) far from float64 overflow.
_SCALE_LIMIT = 1e40
# Projected drifts whose largest coefficient stays below this have a sum of
# squares below N * 1e280, so their plain L2 norm cannot overflow.
_NORM_LIMIT = 1e140


@dataclass(frozen=True)
class ModelParams:
    """Polynomial drift coefficients, time horizon and initial data."""

    a3: float
    a2: float
    a1: float
    a0: float
    horizon_T: float
    initial_data: SpectralField

    def __post_init__(self):
        for name in ("a3", "a2", "a1", "a0", "horizon_T"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.a3 >= 0:
            raise ValueError(f"a3 must be negative (one-sided dissipativity), got {self.a3}")
        if self.horizon_T <= 0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")

    @classmethod
    def cubic_double_well(cls, horizon_T: float = 1.0) -> "ModelParams":
        """The standard benchmark problem f(v) = v - v^3 with u(0, x) = sin(pi x)."""
        return cls(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=horizon_T,
                   initial_data=SpectralField([1.0 / SQRT2]))


def eval_poly(params: ModelParams, v):
    """Evaluate f pointwise; accepts scalars or arrays."""
    return ((params.a3 * v + params.a2) * v + params.a1) * v + params.a0


def _drift_raw(params: ModelParams, coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    values = _synthesize_raw(coeffs, grid_size)
    out = _analyze_raw(eval_poly(params, values), coeffs.shape[0])
    if not np.all(np.isfinite(out)):
        raise BlowupError("drift projection produced non-finite coefficients")
    return out


def _resolve_grid(params: ModelParams, n_modes: int, grid_size: int | None) -> int:
    if grid_size is None:
        if params.a2 == 0 and params.a0 == 0:
            return dealias_grid_size(n_modes)
        return 4 * n_modes - 1
    if grid_size < 2 * n_modes:
        raise ValueError(
            f"dealiasing grid must have at least {2 * n_modes} points, got {grid_size}"
        )
    return grid_size


def nonlinearity_galerkin(params: ModelParams, fld: SpectralField,
                          grid_size: int | None = None) -> SpectralField:
    """Galerkin projection of the drift onto the field's modes."""
    return SpectralField(
        _drift_raw(params, fld.coeffs, _resolve_grid(params, fld.n_modes, grid_size))
    )


def _tamed_drift_raw(params: ModelParams, coeffs: np.ndarray, tau: float,
                     grid_size: int) -> np.ndarray:
    values = _synthesize_raw(coeffs, grid_size)
    peak = float(np.max(np.abs(values)))
    if peak <= _SCALE_LIMIT:
        inv_cube, q = 1.0, eval_poly(params, values)
    else:
        # With s = peak / limit and w = v / s the quantity q = f(v) / s^3
        # stays representable.  Powers of s are formed by division so that
        # a huge s underflows to zero instead of raising.
        scale = peak / _SCALE_LIMIT
        w = values / scale
        q = ((params.a3 * w + params.a2 / scale) * w + params.a1 / scale / scale) * w \
            + params.a0 / scale / scale / scale
        inv_cube = 1.0 / scale / scale / scale
    q_n = _analyze_raw(q, coeffs.shape[0])
    q_peak = float(np.max(np.abs(q_n)))
    if not math.isfinite(q_peak):
        raise BlowupError("drift projection produced non-finite coefficients")
    # F = s^3 q_N, so F / (1 + tau ||F||) = q_N / (s^-3 + tau ||q_N||) exactly.
    if q_peak <= _NORM_LIMIT:
        return q_n / (inv_cube + tau * np.linalg.norm(q_n))
    # Large drift coefficients can make q_N finite but ||q_N||^2 overflow;
    # dividing numerator and denominator by max |q_N| keeps both in range.
    unit = q_n / q_peak
    return unit / (inv_cube / q_peak + tau * np.linalg.norm(unit))


def tamed_drift(params: ModelParams, fld: SpectralField, tau: float,
                grid_size: int | None = None) -> SpectralField:
    """Projected drift damped by 1 / (1 + tau ||F_N||).

    The output L2 norm is at most min(||F_N||, 1 / tau), which keeps a
    single explicit step bounded no matter how large the input field is.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return SpectralField(
        _tamed_drift_raw(params, fld.coeffs, tau,
                         _resolve_grid(params, fld.n_modes, grid_size))
    )
