"""Reaction term of the solver: cubic double-well drift and its taming.

The drift is the Nemytskii operator of the polynomial
f(v) = a3 v^3 + a2 v^2 + a1 v + a0 with a3 < 0.  Its Galerkin projection is
computed pseudospectrally on the midpoint grid x_k = (k - 1/2) / K:
synthesize by a DST-III, apply f pointwise, project back by a DST-II, each
a real FFT of length K.  For a2 = a0 = 0 the result is the exact
projection (up to roundoff) because the cube of an N-mode sine polynomial
is itself a sine polynomial of degree at most 3N, and on K > 2N midpoints
no mode up to 3N folds onto modes 1..N; such drifts default to the exact
grid of :func:`dealias_grid_size`.  A nonzero a2 or a0 adds even content
whose sine projection is only quadrature-accurate on any grid; those
drifts default to the smallest 5-smooth K >= 4N, where that quadrature
error is several times smaller than on the exact grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import BlowupError, ResolutionError, _integer, _real
from .spectral import SQRT2, SpectralField, _dst, _fft_length, dealias_grid_size

# Grid values of f below this bound every analysed coefficient by sqrt(2) 1e120,
# which keeps the DST-II and the sum of squares in an L2 norm far from float64
# overflow.  A tamed segment whose bound on |f| reaches it is scaled first.
_F_LIMIT = 1e120
# Below this step size, tau ||q_N|| stays finite for every N < 1e50.
_TAU_LIMIT = 1e160


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
        # a3 < 0 makes the drift one-sided dissipative, as the scheme's error bounds assume.
        for name, sign in (("a3", "negative"), ("a2", ""), ("a1", ""), ("a0", ""),
                           ("horizon_T", "positive")):
            object.__setattr__(self, name, _real(name, getattr(self, name), sign))

    @classmethod
    def cubic_double_well(cls, horizon_T: float = 1.0) -> "ModelParams":
        """The standard benchmark problem f(v) = v - v^3 with u(0, x) = sin(pi x)."""
        return cls(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=horizon_T,
                   initial_data=SpectralField([1.0 / SQRT2]))


def eval_poly(params: ModelParams, v, c=1.0, s=1.0):
    """Evaluate f(s v) / (c s^3) pointwise by Horner's rule, in one new array;
    v, c and s may be scalars or arrays of one shape.

    The terms run on the coefficients a_k / (c s^(3-k)), so a scale that
    bounds v and the a_k bounds every term; the default c = s = 1.0 divides
    exactly and evaluates f itself.  A zero a2 or a0 (the double well's) is
    not added: x + 0.0 is x but for the sign of a zero."""
    q = v * (params.a3 / c)
    if params.a2:
        q += params.a2 / c / s
    q *= v
    q += params.a1 / c / s / s
    q *= v
    if params.a0:
        q += params.a0 / c / s / s / s
    return q


class _Segments:
    """Column layout of a block of (N_j, K_j) resolution segments, and the drift's
    workspace for `rows` of them: synthesis inputs, the analysed drift and its norms.
    Segment j is sampled on the K_j midpoints x_k = (k - 1/2) / K_j.

    A drift computation uses the workspace only within the call and returns
    a new array, so blocks of one layout that one caller steps in turn can
    share one instance.  Its owner is whoever built it: a path block keeps
    its own for its life, a study's stepping loop lends one to all its
    blocks of a layout for that one run, and a drift of a single field
    builds one for that call.
    """

    def __init__(self, pairs: Sequence[tuple[int, int]], rows: tuple[int, ...] = ()):
        self.modes, self.sizes = (tuple(v) for v in zip(*pairs))
        self.starts, grid_starts = ([0, *accumulate(v)][:-1] for v in (self.modes, self.sizes))
        self.cols = tuple(slice(a, a + n) for a, n in zip(self.starts, self.modes))
        self.grids = tuple(slice(a, a + k) for a, k in zip(grid_starts, self.sizes))
        work = np.zeros(rows + (sum(self.sizes),))
        pads = [work[..., grid] for grid in self.grids]
        # Each segment's zero-padded synthesis input, with its first N_j columns.
        self.pads = [(cols, pad[..., :n], pad) for cols, n, pad in zip(self.cols, self.modes, pads)]
        self.divisor = self.spread(SQRT2 * np.array(self.sizes, dtype=np.float64))
        self.drift = np.empty(rows + (sum(self.modes),))
        self.norms = np.empty(rows + (len(self.modes),))
        self.products = [(self.drift[..., None, c], self.drift[..., c, None],
                          self.norms[..., j, None, None]) for j, c in enumerate(self.cols)]
        if len(self.modes) > 1:
            # Drift column c of segment j is entry c - starts[j] of its analysed grid.
            self.gather = np.arange(sum(self.modes)) + self.spread(
                np.subtract(grid_starts, self.starts))

    def spread(self, x: np.ndarray) -> np.ndarray:
        """Per-segment values (..., J) over their segments' columns."""
        return x if len(self.modes) == 1 else np.repeat(x, self.modes, axis=-1)

    def synthesized(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of every segment of `coeffs` on its midpoint grid, side by side in a
        new array: the DST-III of its zero-padded c / sqrt(2)."""
        values = []
        for cols, head, pad in self.pads:
            np.divide(coeffs[..., cols], SQRT2, out=head)
            values.append(_dst(pad, 3))
        return values[0] if len(values) == 1 else np.concatenate(values, axis=-1)

    def analysed(self, q: np.ndarray) -> np.ndarray:
        """Each segment's first N_j analysed modes of the midpoint values `q` (which
        it overwrites), in the drift buffer: its DST-II divided by sqrt(2) K_j."""
        if len(self.modes) == 1:
            q = _dst(q, 2, True)[..., : self.modes[0]]
        else:
            for grid in self.grids:
                _dst(q[..., grid], 2, True)
            q = np.take(q, self.gather, axis=-1, out=self.drift, mode="clip")
        return np.divide(q, self.divisor, out=self.drift)

    def row_norms(self) -> np.ndarray:
        """L2 norm of each segment of the drift buffer, (..., J), as spectral's
        `_row_norms` gives it."""
        for row, col, out in self.products:
            np.matmul(row, col, out=out)
        return np.sqrt(self.norms, out=self.norms)


def _check(ok: np.ndarray, modes: tuple[int, ...], what: str) -> None:
    """Raise BlowupError unless `ok` (..., J) holds, naming the first failing
    segment's N and, in a block (one field per row), its lowest such row."""
    if not ok.all():
        j = int(np.flatnonzero(~ok.reshape(-1, len(modes)).all(axis=0))[0])
        row = int(np.flatnonzero(~ok[..., j])[0]) if ok.ndim > 1 else None
        raise BlowupError(f"{what} for N={modes[j]}", sample_index=row)


def _resolve_grid(params: ModelParams, n_modes: int, grid_size: int | None) -> int:
    if grid_size is None:
        if params.a2 == 0 and params.a0 == 0:
            return dealias_grid_size(n_modes)
        return _fft_length(4 * n_modes)
    if _integer("grid_size", grid_size, 1) <= 2 * n_modes:
        raise ResolutionError(
            f"dealiasing grid must have at least {2 * n_modes + 1} points, got {grid_size}"
        )
    return grid_size


def _f_bound(params: ModelParams, v):
    """max |f| on [-v, v]; a Python float overflows to inf without a warning."""
    return ((-params.a3 * v + abs(params.a2)) * v + abs(params.a1)) * v + abs(params.a0)


def _drift_raw(params: ModelParams, coeffs: np.ndarray, seg: _Segments,
               tau: float | None = None, *, peak: float | None = None) -> np.ndarray:
    """Projected drift F_N of every row of `coeffs`, in a new array.

    `seg` lays out the columns of `coeffs`, shape (..., sum N_j), and holds
    the workspace for its rows; each segment of a row is computed on its own
    grid as if it were alone.  With a step size `tau`, the tamed drift
    F_N / (1 + tau ||F_N||) of each segment instead.  No grid value of a
    segment exceeds sqrt(2) N_j m, m the largest |coefficient| of the
    segment.  A tamed segment whose bound on |f| there reaches _F_LIMIT
    synthesizes its coefficients divided by s = max(1, m), so that its grid
    values w stay within sqrt(2) N_j, and :func:`eval_poly` evaluates
    f(s w) / (c s^3) with c = max(1, max |a_k|); every other segment takes
    the same operations with c = s = 1 exactly, and the untamed drift is
    never scaled.  A bound `peak` on every |coefficient|, if the caller
    knows one, saves the scan of the coefficients and does not change the
    result.
    """
    # The block-wide bound decides the common case in a few calls; a NaN fails
    # each < and so takes the checked branch.  Roundoff in the synthesis stays
    # far inside the bound's margin.
    peak = np.abs(coeffs).max() if peak is None else peak
    bounded = _f_bound(params, float(peak) * float(SQRT2 * max(seg.modes) * (1 + 1e-9))) < _F_LIMIT
    if bounded or tau is None:
        inv_scale, q = 1.0, eval_poly(params, seg.synthesized(coeffs))
    else:
        m = np.maximum.reduceat(np.abs(coeffs), seg.starts, axis=-1)
        with np.errstate(over="ignore"):  # the same bound, per segment and row
            big = ~(_f_bound(params, m * (SQRT2 * np.array(seg.modes) * (1 + 1e-9))) < _F_LIMIT)
        c = np.where(big, max(1.0, *map(abs, (params.a3, params.a2, params.a1, params.a0))), 1.0)
        s = np.where(big, np.maximum(m, 1.0), 1.0)
        inv_scale = 1.0 / c / s / s / s  # by division: a huge c s^3 underflows, not overflows
        w = seg.synthesized(coeffs / seg.spread(s))
        q = eval_poly(params, w, *(np.repeat(x, seg.sizes, axis=-1) for x in (c, s)))
    q_n = seg.analysed(q)
    if not bounded:
        _check(np.isfinite(np.maximum.reduceat(np.abs(q_n), seg.starts, axis=-1)), seg.modes,
               "drift projection produced non-finite coefficients")
    if tau is None:
        return q_n.copy()  # the buffer is reused by the next call
    # F = c s^3 q_N, so F / (1 + tau ||F||) = q_N / (1 / (c s^3) + tau ||q_N||) exactly.
    norms = seg.row_norms()
    if tau < _TAU_LIMIT:
        return np.divide(q_n, seg.spread(norms * tau + inv_scale))
    # Where tau ||q_N|| overflows, numerator and denominator are divided by tau.
    with np.errstate(over="ignore"):
        denom = norms * tau + inv_scale
    over = denom == np.inf
    denom[over] = (norms + inv_scale / tau)[over]
    return np.divide(q_n, seg.spread(denom)) / seg.spread(np.where(over, tau, 1.0))


def nonlinearity_galerkin(params: ModelParams, fld: SpectralField,
                          grid_size: int | None = None) -> SpectralField:
    """Galerkin projection of the drift onto the field's modes."""
    seg = _Segments([(fld.n_modes, _resolve_grid(params, fld.n_modes, grid_size))])
    return SpectralField(_drift_raw(params, fld.coeffs, seg))


def tamed_drift(params: ModelParams, fld: SpectralField, tau: float,
                grid_size: int | None = None) -> SpectralField:
    """Projected drift damped by 1 / (1 + tau ||F_N||).

    The output L2 norm is at most min(||F_N||, 1 / tau), which keeps a
    single explicit step bounded no matter how large the input field is.
    """
    seg = _Segments([(fld.n_modes, _resolve_grid(params, fld.n_modes, grid_size))])
    return SpectralField(_drift_raw(params, fld.coeffs, seg, _real("tau", tau, "positive")))
