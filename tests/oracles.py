"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own evaluation paths:
the cubic expansion works with the product-to-sum identity for sines, the
quadrature helpers sum grid values directly, the coarse noise increments
are summed mode by mode with scalar weights (or, to check the library's
sums bit for bit, as every product of a given weight table in time order,
whose rows come from one np.exp over the outer product of ages and
eigenvalues),
the slope oracle goes through numpy's polynomial fit, the keyed normals
come from a fresh Philox generator per draw, the moments of the
Ornstein-Uhlenbeck tail are plain sums of the mode variances they are given,
those of a linear drift's temporal error are sums over the scalar
recursion of each mode, and those of the one-mode Galerkin system's
invariant law are quadratures of its closed-form density.
"""

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.integrate import quad


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


def even_drift_projection(coeffs: np.ndarray, a2: float, a0: float) -> np.ndarray:
    """Exact Galerkin projection of a2 v^2 + a0 onto modes 1..N, v = sum c_i e_i.

    2 sin A sin B = cos(A - B) - cos(A + B) writes v^2 as a cosine series
    sum_m d_m cos(m pi x), m = 0..2N, and the integral of cos(m pi x) e_i(x)
    over (0, 1) is 2 sqrt(2) i / (pi (i^2 - m^2)) for odd i + m, else 0.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    idx = np.arange(1, n + 1)
    a, b = np.meshgrid(idx, idx, indexing="ij")
    w = np.outer(coeffs, coeffs).ravel()
    cosine = a2 * (np.bincount(np.abs(a - b).ravel(), weights=w, minlength=2 * n + 1)
                   - np.bincount((a + b).ravel(), weights=w, minlength=2 * n + 1))
    cosine[0] += a0
    i, m = idx[:, None], np.arange(2 * n + 1)[None, :]
    odd = (i + m) % 2 == 1
    weights = np.where(odd, 2 * math.sqrt(2) * i / (math.pi * np.where(odd, i * i - m * m, 1)),
                       0.0)
    return weights @ cosine


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


def split_interval_increments(fine: np.ndarray, n_modes: int, n_steps: int,
                              tau_fine: float) -> np.ndarray:
    """Coarse convolution increments from fine ones, shape (n_steps, n_modes).

    Mode i of coarse step m sums the R = m_fine / n_steps fine increments
    of its interval as exp(-lambda_i tau_f (R - 1 - k)) fine[m R + k, i],
    k = 0..R-1, with lambda_i = (pi i)^2 and each weight taken from
    math.exp.
    """
    fine = np.asarray(fine, dtype=np.float64)
    sub = fine.shape[0] // n_steps
    out = np.empty((n_steps, n_modes))
    for i in range(1, n_modes + 1):
        lam = (math.pi * i) ** 2
        weights = np.array([math.exp(-lam * tau_fine * (sub - 1 - k)) for k in range(sub)])
        out[:, i - 1] = fine[:, i - 1].reshape(n_steps, sub) @ weights
    return out


def convolution_weights(lam: float | np.ndarray, n_sub: int, tau_fine: float) -> np.ndarray:
    """Weights exp(-lambda tau_f (R - 1 - j)) of the split-interval identity.

    Row j is substep j of an interval of R = n_sub, at age R - 1 - j, and
    column i is eigenvalue lambda_i.  In float64 a weight is exactly 0.0
    once lambda tau_f (R - 1 - j) exceeds about 745; where the product
    overflows, 0 is the limit.
    """
    ages = np.arange(n_sub - 1, -1, -1, dtype=np.float64) * tau_fine
    with np.errstate(over="ignore"):
        return np.exp(-np.multiply.outer(ages, lam))


def dense_time_sums(weights: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Coarse increments as the dense split-interval sum, shape (M, ..., N).

    `weights` holds the R weight rows of a coarse interval, shape (R, N), and
    `fine` the fine increments, shape (M R, ..., N).  Coarse step m is
    ((w_0 f_{mR} + w_1 f_{mR+1}) + ...) + w_{R-1} f_{mR+R-1}: every product
    is formed, zero or not, and added in time order.
    """
    sub = len(weights)
    out = []
    for first in range(0, len(fine), sub):
        acc = weights[0] * fine[first]
        for k in range(1, sub):
            acc = acc + weights[k] * fine[first + k]
        out.append(acc)
    return np.stack(out)


def ou_tail_moments(variances: np.ndarray, n_modes: int) -> tuple[float, float]:
    """Mean and variance of sum_{i > N} v_i Z_i^2, Z_i independent standard normals.

    `variances` holds v_1 .. v_ref.  Each v_i Z_i^2 has mean v_i and
    variance 2 v_i^2, so the tail over modes N + 1 .. ref has mean sum v_i
    and variance 2 sum v_i^2, both exact.
    """
    tail = np.asarray(variances, dtype=np.float64)[n_modes:]
    return float(tail.sum()), float(2.0 * (tail * tail).sum())


def philox_normals(master_seed: int, sample_index: int, fine_step_index: int,
                   count: int) -> np.ndarray:
    """The keyed normals of one fine step, drawn from a fresh generator.

    Philox with key words (seed, sample) starts at counter (0, step, 0, 0):
    the key is the one 128-bit integer with the seed in its low word, and
    the step sits in the second 64-bit word of the 256-bit counter.
    """
    bit_gen = Philox(key=(int(sample_index) << 64) | int(master_seed),
                     counter=int(fine_step_index) << 64)
    return Generator(bit_gen).standard_normal(count)


def linear_drift_error_moments(c0: np.ndarray, a1: float, horizon: float, ref: int,
                               n_steps: int) -> tuple[float, float]:
    """Mean and variance of ||Y_c - Y_ref||^2 at the horizon for f(v) = a1 v, untamed.

    Both paths keep modes 1..ref from the coefficients `c0`; the reference
    takes ref steps on the fine increments L_{i,k}, independent N(0, v_i)
    with v_i = (1 - exp(-2 lambda_i tau_f)) / (2 lambda_i), and the coarse
    path M = n_steps steps on their split-interval sums.  A step of size tau
    multiplies mode i by A = exp(-lambda_i tau) + phi_i(tau) a1 and adds its
    increment, so mode i of Y_c - Y_ref is Gaussian with mean
    mu_i = (A_c^M - A_f^ref) c0_i and variance s_i^2 = v_i sum_k (g^c_{i,k} -
    g^ref_{i,k})^2, where g^ref_{i,k} = A_f^(ref - 1 - k) and g^c_{i,k} =
    A_c^(M - 1 - j) exp(-lambda_i tau_f a) for fine step k at age a in coarse
    step j.  The modes are independent: the mean is sum mu_i^2 + s_i^2 and
    the variance sum 2 s_i^4 + 4 mu_i^2 s_i^2, both exact.
    """
    c0 = np.pad(np.asarray(c0, dtype=np.float64), (0, ref - len(c0)))
    lam = (math.pi * np.arange(1, ref + 1)) ** 2
    tau_f, tau_c, sub = horizon / ref, horizon / n_steps, ref // n_steps

    def amplification(tau):
        return np.exp(-lam * tau) - np.expm1(-lam * tau) / lam * a1

    a_f, a_c = amplification(tau_f), amplification(tau_c)
    k = np.arange(ref)
    g_ref = a_f[:, None] ** (ref - 1 - k)
    ages = sub - 1 - k % sub
    g_c = a_c[:, None] ** (n_steps - 1 - k // sub) * np.exp(-np.outer(lam, ages) * tau_f)
    s2 = -np.expm1(-2.0 * lam * tau_f) / (2.0 * lam) * ((g_c - g_ref) ** 2).sum(axis=1)
    mu2 = ((a_c ** n_steps - a_f ** ref) * c0) ** 2
    return float((mu2 + s2).sum()), float((2.0 * s2 * s2 + 4.0 * mu2 * s2).sum())


def galerkin_invariant_moments(a3: float, a1: float) -> tuple[float, float]:
    """E c^2 and E c^4 under the invariant law of the one-mode Galerkin system.

    With u = c sqrt(2) sin(pi x) and f(v) = a3 v^3 + a1 v, the projection of
    f(u) onto the mode is a1 c + (3/2) a3 c^3, since the integral of
    (sqrt(2) sin(pi x))^4 over [0, 1] is 3/2.  So dc = (-pi^2 c + a1 c +
    (3/2) a3 c^3) dt + dW is the gradient SDE of the potential V(c) =
    (pi^2 - a1) c^2 / 2 - (3/8) a3 c^4, whose invariant density is
    proportional to exp(-2 V(c)) = exp(-(pi^2 - a1) c^2 + (3/4) a3 c^4).
    Its moments are quadratures over the real line.
    """
    def density(c: float) -> float:
        return math.exp(-(math.pi ** 2 - a1) * c * c + 0.75 * a3 * c ** 4)

    mass = quad(density, -math.inf, math.inf)[0]
    return tuple(quad(lambda c: c ** k * density(c), -math.inf, math.inf)[0] / mass
                 for k in (2, 4))
