"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own evaluation paths:
the cubic expansion works with the product-to-sum identity for sines, the
quadrature helpers sum grid values directly, and the slope oracle goes
through numpy's polynomial fit.
"""

import numpy as np


def cubic_sine_expansion(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of (sum c_i e_i)^3 on modes 1..3N, e_i = sqrt(2) sin(i pi x).

    Uses sin A sin B sin C =
    (1/4) [sin(C+A-B) + sin(C-A+B) - sin(C+A+B) - sin(C-A-B)]
    together with sin(m pi x) = sign(m) e_|m| / sqrt(2); the sqrt(2) powers
    collapse to a weight of c_a c_b c_c / 2 per summand.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    idx = np.arange(1, n + 1)
    b, c = np.meshgrid(idx, idx, indexing="ij")
    bc = 0.5 * np.outer(coeffs, coeffs).ravel()
    out = np.zeros(3 * n + 1)
    # One slice of the triple sum per index a keeps memory at O(N^2).
    for a, ca in zip(idx, coeffs):
        w = ca * bc
        for modes, sign in ((c + a - b, 1.0), (c - a + b, 1.0),
                            (c + a + b, -1.0), (c - a - b, -1.0)):
            m = modes.ravel()
            out += np.bincount(np.abs(m), weights=sign * np.sign(m) * w,
                               minlength=3 * n + 1)
    return out[1:]


def odd_drift_expansion(coeffs: np.ndarray, a3: float, a1: float) -> np.ndarray:
    """Exact Galerkin drift for f(v) = a3 v^3 + a1 v, truncated to N modes."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    full = a3 * cubic_sine_expansion(coeffs)
    full[: coeffs.shape[0]] += a1 * coeffs
    return full[: coeffs.shape[0]]


def tamed_odd_drift(direction: np.ndarray, amplitude: float, a3: float, a1: float,
                    tau: float) -> np.ndarray:
    """Exact F_N / (1 + tau ||F_N||) for the field amplitude * direction.

    With F_N = A^3 G and G = a3 C(d) + a1 d / A^2, where C is the cubic
    expansion truncated to N modes, the tamed drift equals
    G / (A^-3 + tau ||G||), which stays finite for any finite amplitude.
    """
    direction = np.asarray(direction, dtype=np.float64)
    n = direction.shape[0]
    inv = 1.0 / amplitude
    g = a3 * cubic_sine_expansion(direction)[:n] + a1 * direction * inv * inv
    return g / (inv * inv * inv + tau * np.linalg.norm(g))


def quadrature_inner(u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2(0,1) inner product of interior grid values."""
    u = np.asarray(u, dtype=np.float64)
    return float(np.dot(u, v) / (u.shape[0] + 1))


def quadrature_norm(u: np.ndarray) -> float:
    return float(np.sqrt(quadrature_inner(u, u)))


def polyfit_slope(resolutions, errors) -> float:
    """Slope of log2(error) against log2(1/resolution) via numpy's polyfit."""
    x = -np.log2(np.asarray(resolutions, dtype=np.float64))
    y = np.log2(np.asarray(errors, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])
