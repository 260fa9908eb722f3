"""Sine eigenbasis of the Dirichlet Laplacian on (0, 1).

The basis functions are e_i(x) = sqrt(2) sin(i pi x) with eigenvalues
lambda_i = pi^2 i^2.  Fields are represented either by their coefficients
against this orthonormal basis (:class:`SpectralField`) or by their values
on the uniform interior grid x_k = k / (K + 1) (:class:`GridField`).  The
forward and inverse transforms between the two are type-I discrete sine
transforms; the quadrature weight 1 / (K + 1) makes :func:`analyze` exact
for any sine polynomial of degree at most K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .errors import ResolutionError

SQRT2 = np.sqrt(2.0)


def _as_readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficients c_1..c_N of a function in the orthonormal sine basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_readonly_vector(self.coeffs, "coeffs"))

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def zeros(cls, n_modes: int) -> "SpectralField":
        if n_modes < 1:
            raise ValueError("n_modes must be positive")
        return cls(np.zeros(n_modes))


@dataclass(frozen=True, eq=False)
class GridField:
    """Function values at the interior points x_k = k / (K + 1), k = 1..K."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_vector(self.values, "values"))

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]


def grid_points(grid_size: int) -> np.ndarray:
    """Interior grid x_k = k / (K + 1) for k = 1..K."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    return np.arange(1, grid_size + 1) / (grid_size + 1.0)


def eigenvalue(i: int) -> float:
    """Dirichlet Laplacian eigenvalue pi^2 i^2 of mode i >= 1."""
    if i < 1:
        raise ValueError(f"mode index must be >= 1, got {i}")
    return np.pi ** 2 * float(i) ** 2


def eigenvalues(n_modes: int) -> np.ndarray:
    """Vector (lambda_1, ..., lambda_N)."""
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    i = np.arange(1, n_modes + 1, dtype=np.float64)
    return np.pi ** 2 * i ** 2


def semigroup_factor(i: int, t: float) -> float:
    """Heat semigroup weight exp(-lambda_i t) of mode i at time t >= 0."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return float(np.exp(-eigenvalue(i) * t))


def semigroup_factors(n_modes: int, t: float) -> np.ndarray:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return np.exp(-eigenvalues(n_modes) * t)


def phi_factor(i: int, tau: float) -> float:
    """Exponential-integrator drift weight (1 - exp(-lambda_i tau)) / lambda_i.

    Evaluated as tau * (1 - e^{-x}) / x with x = lambda_i tau so that the
    x -> 0 limit returns tau to full precision instead of cancelling.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = eigenvalue(i) * tau
    return float(tau * (-np.expm1(-x) / x))


def phi_factors(n_modes: int, tau: float) -> np.ndarray:
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = eigenvalues(n_modes) * tau
    return tau * (-np.expm1(-x) / x)


def _synthesize_raw(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    buf = np.zeros(grid_size)
    buf[: coeffs.shape[0]] = coeffs
    buf /= SQRT2
    return dst(buf, type=1)


def _analyze_raw(values: np.ndarray, n_modes: int) -> np.ndarray:
    spec = dst(values, type=1)[:n_modes]
    spec /= SQRT2 * (values.shape[0] + 1)
    return spec


def synthesize(fld: SpectralField, grid_size: int) -> GridField:
    """Evaluate the field on the interior grid of size K >= n_modes.

    values[k] = sum_i c_i sqrt(2) sin(i pi x_k).
    """
    if grid_size < fld.n_modes:
        raise ResolutionError(
            f"grid of size {grid_size} cannot resolve {fld.n_modes} modes"
        )
    return GridField(_synthesize_raw(fld.coeffs, grid_size))


def analyze(grid: GridField, n_modes: int) -> SpectralField:
    """Project grid values onto the first N modes by discrete quadrature.

    c_i = (1 / (K + 1)) sum_k values[k] sqrt(2) sin(i pi x_k), exact for
    sine polynomials of degree at most K.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    if n_modes > grid.grid_size:
        raise ResolutionError(
            f"cannot extract {n_modes} modes from a grid of size {grid.grid_size}"
        )
    return SpectralField(_analyze_raw(grid.values, n_modes))


def project(fld: SpectralField, n_target: int) -> SpectralField:
    """Truncate or zero-pad to the first n_target modes; idempotent."""
    if n_target < 1:
        raise ValueError("n_target must be positive")
    n = fld.n_modes
    if n_target == n:
        return fld
    if n_target < n:
        return SpectralField(fld.coeffs[:n_target])
    out = np.zeros(n_target)
    out[:n] = fld.coeffs
    return SpectralField(out)


def l2_norm(fld: SpectralField) -> float:
    """L2(0,1) norm via the Parseval identity."""
    return float(np.linalg.norm(fld.coeffs))


def sobolev_norm(fld: SpectralField, gamma: float) -> float:
    """Fractional Sobolev norm sqrt(sum lambda_i^gamma c_i^2); gamma = 0 is L2."""
    lam = eigenvalues(fld.n_modes)
    return float(np.sqrt(np.sum(lam ** gamma * fld.coeffs ** 2)))


def sup_norm_estimate(fld: SpectralField, grid_size: int | None = None) -> float:
    """Max of |values| over an oversampled synthesis grid.

    A lower bound on the true sup norm that converges as the grid grows;
    the default grid (4 points per mode) resolves every oscillation of the
    highest mode.  This is a diagnostic, not a proof-grade norm.
    """
    if grid_size is None:
        grid_size = 4 * fld.n_modes
    elif grid_size < 4 * fld.n_modes:
        raise ResolutionError(
            f"sup norm estimate needs grid_size >= {4 * fld.n_modes}, got {grid_size}"
        )
    return float(np.max(np.abs(_synthesize_raw(fld.coeffs, grid_size))))


def dealias_grid_size(n_modes: int) -> int:
    """Grid size on which the cubic of an N-mode field projects exactly.

    The cube of an N-mode sine polynomial reaches mode 3N, and a DST-I on K
    points folds mode m onto 2 (K + 1) - m, so modes 1..N stay exact if and
    only if K + 1 > 2 N (the sine-basis form of Orszag's anti-aliasing rule).
    K = 5 ceil(N / 2) - 1 meets that bound with an FFT length
    2 (K + 1) = 5 * 2 ceil(N / 2), which is smooth for dyadic mode counts;
    K = 2 N itself can give an FFT length with a large prime factor.
    """
    return 5 * ((n_modes + 1) // 2) - 1
