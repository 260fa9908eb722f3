"""Sine eigenbasis of the Dirichlet Laplacian on (0, 1).

The basis functions are e_i(x) = sqrt(2) sin(i pi x) with eigenvalues
lambda_i = pi^2 i^2.  Fields are represented either by their coefficients
against this orthonormal basis (:class:`SpectralField`) or by their values
on the uniform interior grid x_k = k / (K + 1) (:class:`GridField`).  The
forward and inverse transforms between the two are type-I discrete sine
transforms; the quadrature weight 1 / (K + 1) makes :func:`analyze` exact
for any sine polynomial of degree at most K.  The raw transform helpers
act along the last axis, so a block of fields, one per row, is transformed
in one call.  The drift's quadrature (``model``) uses the midpoint grid
x_k = (k - 1/2) / K instead, where synthesis is a DST-III and analysis a
DST-II, both real FFTs of length K rather than the DST-I's 2 (K + 1).

The DSTs and the fast FFT lengths (``good_size``) come from scipy's pocketfft
extension, loaded straight from its file under scipy's install directory
(found without importing scipy), so that importing this module does not run
the ``scipy.fft`` package, whose array-API and special-function imports take
most of the command line's start-up time.
The module is loaded under its own dotted name but not entered in
``sys.modules``; a later ``import scipy.fft`` reuses the same initialised
extension.  There is no other route: if the file is not there, the import
fails with an ``ImportError`` naming the directory searched.  The direct call
also skips the argument handling of the public ``scipy.fft.dst`` (same bits,
13.7 vs 2.6 us for 8 rows of 9 points on a 2-vCPU Xeon).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .errors import ResolutionError, _integer, _real

SQRT2 = np.sqrt(2.0)


def _as_readonly_vector(values, name: str) -> np.ndarray:
    """A checked, read-only float64 copy of `values`."""
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
        return cls(np.zeros(_integer("n_modes", n_modes, 1)))


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
    grid_size = _integer("grid_size", grid_size, 1)
    return np.arange(1, grid_size + 1) / (grid_size + 1.0)


def eigenvalues(n_modes: int) -> np.ndarray:
    """Vector (lambda_1, ..., lambda_N)."""
    i = np.arange(1, _integer("n_modes", n_modes, 1) + 1, dtype=np.float64)
    return np.pi ** 2 * i ** 2


def eigenvalue(i: int) -> float:
    """Dirichlet Laplacian eigenvalue pi^2 i^2 of mode i >= 1, as in eigenvalues."""
    return np.pi ** 2 * float(_integer("mode_index", i, 1) ** 2)


def semigroup_factors(n_modes: int, t: float) -> np.ndarray:
    """Heat semigroup weights exp(-lambda_i t) of modes 1..N at time t >= 0."""
    return _decays(_real("t", t, "nonnegative"), eigenvalues(n_modes))


def _decays(times: float | np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """exp(-t lambda) for every time t (rows) and eigenvalue lambda (columns)."""
    with np.errstate(over="ignore"):  # where t lambda overflows, 0 is the limit
        weights = np.multiply.outer(-times, lam)
        return np.exp(weights, out=weights)


def phi_factors(n_modes: int, tau: float) -> np.ndarray:
    """Exponential-integrator drift weights (1 - exp(-lambda_i tau)) / lambda_i.

    Evaluated as tau * (1 - e^{-x}) / x with x = lambda_i tau so that the
    x -> 0 limit returns tau to full precision instead of cancelling.
    """
    return _phi(eigenvalues(n_modes), tau)


def _phi(lam, tau: float):
    """(1 - e^{-lambda tau}) / lambda of a float or array lambda, as in phi_factors."""
    tau = _real("tau", tau, "positive")
    with np.errstate(over="ignore"):  # where x overflows, its limit 1 / lambda
        x = lam * tau
    return np.where(x < np.inf, tau * (-np.expm1(-x) / x), 1.0 / lam)


def _load_pocketfft(scipy_dir: str):
    """scipy's pocketfft extension module under `scipy_dir`."""
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "fft", "_pocketfft", "pypocketfft" + suffix)
        if os.path.isfile(path):
            spec = spec_from_file_location("scipy.fft._pocketfft.pypocketfft", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("scipy's pocketfft extension fft/_pocketfft/pypocketfft<suffix>"
                      f" is not under {scipy_dir!r}")


_scipy = find_spec("scipy")
_pocketfft = _load_pocketfft(_scipy.submodule_search_locations[0] if _scipy else "<no scipy>")
_pocketfft_dst, _good_size = _pocketfft.dst, _pocketfft.good_size


def _dst(x: np.ndarray, kind: int, overwrite: bool = False) -> np.ndarray:
    """The DST of type 1, 2 or 3 of a float64 array along its last axis; with
    `overwrite`, written into `x`, which is returned."""
    return _pocketfft_dst(x, kind, (-1,), 0, x if overwrite else None, 1)


def _synthesize_raw(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Interior grid values of every row, by a DST-I of the zero-padded c / sqrt(2)."""
    work = np.zeros(coeffs.shape[:-1] + (grid_size,))
    np.divide(coeffs, SQRT2, out=work[..., : coeffs.shape[-1]])
    return _dst(work, 1)


def synthesize(fld: SpectralField, grid_size: int) -> GridField:
    """Evaluate the field on the interior grid of size K >= n_modes.

    values[k] = sum_i c_i sqrt(2) sin(i pi x_k).
    """
    if _integer("grid_size", grid_size, 1) < fld.n_modes:
        raise ResolutionError(
            f"grid of size {grid_size} cannot resolve {fld.n_modes} modes"
        )
    return GridField(_synthesize_raw(fld.coeffs, grid_size))


def analyze(grid: GridField, n_modes: int) -> SpectralField:
    """Project grid values onto the first N modes by discrete quadrature.

    c_i = (1 / (K + 1)) sum_k values[k] sqrt(2) sin(i pi x_k), exact for
    sine polynomials of degree at most K.
    """
    if _integer("n_modes", n_modes, 1) > grid.grid_size:
        raise ResolutionError(
            f"cannot extract {n_modes} modes from a grid of size {grid.grid_size}"
        )
    spec = _dst(grid.values, 1)[:n_modes]
    spec /= SQRT2 * (grid.grid_size + 1)
    return SpectralField(spec)


def project(fld: SpectralField, n_target: int) -> SpectralField:
    """Truncate or zero-pad to the first n_target modes; idempotent."""
    n_target = _integer("n_target", n_target, 1)
    n = fld.n_modes
    if n_target == n:
        return fld
    if n_target < n:
        return SpectralField(fld.coeffs[:n_target])
    out = np.zeros(n_target)
    out[:n] = fld.coeffs
    return SpectralField(out)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row as a 1-d dot product, shape (..., 1).

    Every entry equals np.linalg.norm of that row bit for bit, whatever the
    other rows hold; a batched einsum would differ in the last bits.
    """
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0])


def _sup_norms(coeffs: np.ndarray) -> np.ndarray:
    """Max of |values| of every row of `coeffs` (shape (..., N)) over the
    synthesis grid of 4N points.

    A lower bound on the true sup norm; the grid resolves every oscillation
    of the highest mode.  This is a diagnostic, not a proof-grade norm.
    """
    return np.abs(_synthesize_raw(coeffs, 4 * coeffs.shape[-1])).max(axis=-1)


def _fft_length(least: int) -> int:
    """Smallest 2^a 3^b 5^c >= least for a grid of n_modes: pocketfft's
    real-FFT ``good_size``, which refuses a length past its largest FFT."""
    try:
        return _good_size(least, True)
    except (ValueError, OverflowError):  # OverflowError: least >= 2^63, beyond a C ssize_t
        raise ValueError(f"n_modes must leave a grid pocketfft can transform,"
                         f" got one of {least} points or more") from None


def dealias_grid_size(n_modes: int) -> int:
    """Midpoint grid size K on which the drift's cubic projects exactly.

    The cube of an N-mode sine polynomial reaches mode 3N.  On the midpoint
    grid x_k = (k - 1/2) / K, mode 2K - m takes the values of mode m, so
    modes 1..N stay exact if and only if 2K - N > 3N, that is K > 2N (the
    sine-basis form of Orszag's anti-aliasing rule).  K is the smallest
    5-smooth size above 2N, so the DST-II and DST-III of that length run as
    fast real FFTs (2160 at N = 1024); pocketfft has none past N ~ 8.4e17.
    """
    return _fft_length(2 * _integer("n_modes", n_modes, 1) + 1)
