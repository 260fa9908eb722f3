"""Exact sampling of mode-wise stochastic convolution increments.

Each eigenmode of the cylindrical Wiener process contributes an independent
Gaussian increment over a step [t, t + tau] with variance
(1 - exp(-2 lambda_i tau)) / (2 lambda_i).  Variates come from
counter-keyed Philox streams, so a value is a pure function of
(master_seed, sample_index, fine_step_index, mode_index): no state is
shared, any draw can be reproduced in isolation, and coarse and fine
resolutions can consume the same underlying randomness without storing it.
:func:`step_normals` is the one draw, the normals of one fine step;
:class:`IncrementStream` scales them into increments a chunk of fine steps
at a time, and :attr:`NoiseRealization.fine_matrix` is one such chunk.

Coarse increments are derived from fine ones exactly: splitting
[t_a, t_b] into fine substeps,

    conv[t_a, t_b] = sum_k exp(-lambda (t_b - t_{k+1})) * conv[t_k, t_{k+1}],

an identity of the integral, not an approximation.  :class:`Coarsener` is
the one implementation of that sum, with one feeding method: it takes the
fine increments of any run of consecutive fine steps, in time order,
weighs the run's rows in each coarse interval in one operation and adds
them onto the interval's running sum one after another.  Every command
draws its noise in runs of a few steps (:class:`IncrementStream`);
:meth:`NoiseRealization.increments` feeds a materialized matrix as one
run.  A sum is the same sequence of additions however its substeps are
split into runs, so both routes give the same values bit for bit.

Most weights of a fine grid are exact zeros: exp(-lambda_i (t_b - t_{k+1}))
is 0.0 in float64 once its exponent passes about 745, which at M = N = 1024
holds for every mode above 278 at every age of one fine step or more.
:class:`Coarsener` computes and multiplies only the nonzero prefix of each
weight row, a run of rows at a time on the run's first use.  A skipped
product is an exact +-0, which leaves a nonzero partial sum as it was,
and every sum ends with its last fine increment at weight exp(0) = 1, so
the coarse increments are those of the full sum bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .errors import AlignmentError, ResolutionError, _integer, _real
from .spectral import _decays, _phi, eigenvalue, eigenvalues


@dataclass(frozen=True)
class NoiseKey:
    """Address of one standard normal variate in the keyed noise space."""

    master_seed: int
    sample_index: int
    mode_index: int
    fine_step_index: int

    def __post_init__(self):
        for name, low in (("master_seed", 0), ("sample_index", 0), ("mode_index", 1),
                          ("fine_step_index", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))


@dataclass(frozen=True)
class NoiseGrid:
    """Finest resolution at which increments are sampled."""

    n_modes: int
    m_fine: int
    tau_fine: float

    def __post_init__(self):
        for name in ("n_modes", "m_fine"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "tau_fine", _real("tau_fine", self.tau_fine, "positive"))

    @classmethod
    def for_horizon(cls, horizon: float, m_fine: int, n_modes: int) -> "NoiseGrid":
        return cls(n_modes=n_modes, m_fine=m_fine,
                   tau_fine=_real("horizon", horizon, "positive") / _integer("m_fine", m_fine, 1))


def increment_variances(n_modes: int, tau: float) -> np.ndarray:
    """Variances (1 - exp(-2 lambda_i tau)) / (2 lambda_i) of modes 1..N.

    Written as tau * (1 - e^{-x}) / x with x = 2 lambda_i tau, which is
    stable for x -> 0 and bounded by min(tau, 1 / (2 lambda_i)).
    """
    return _phi(2.0 * eigenvalues(n_modes), tau)


@lru_cache(maxsize=256, typed=True)  # typed: 2.0 and True must not hit the entries of 2 and 1
def increment_variance(mode_index: int, tau: float) -> float:
    """Variance of one increment of mode `mode_index` over a step tau, in O(1)."""
    return float(_phi(2.0 * eigenvalue(mode_index), tau))


class NormalStream:
    """The Philox generator of the uint64 key (master_seed, sample_index), and
    a fresh generator's state whose step word :func:`step_normals` sets."""

    def __init__(self, master_seed: int, sample_index: int):
        self.bit_gen = Philox(key=np.array([master_seed, sample_index], dtype=np.uint64))
        self.generator = Generator(self.bit_gen)
        # Held in lists for a faster setter; only counter[1], the step word, changes.
        fresh = self.bit_gen.state
        self.counter = fresh["state"]["counter"].tolist()
        self.state = {**fresh, "buffer": fresh["buffer"].tolist(),
                      "state": {"counter": self.counter, "key": fresh["state"]["key"].tolist()}}


def step_normals(stream: NormalStream, fine_step_index: int, count: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """First `count` standard normals of fine step `fine_step_index` of the
    key of `stream`, written to `out` if given: the one keyed draw.

    The normals of fine step m are the output of Philox started at counter
    (0, m, 0, 0), so steps live in disjoint counter blocks.  The stream's
    generator is set to that counter with an empty buffer, the state of a
    fresh generator, at a fraction of a fresh generator's set-up cost.  The
    first k values do not depend on how many are requested, so mode i
    always maps to entry i - 1 regardless of the resolution in use.
    """
    stream.counter[1] = fine_step_index
    stream.bit_gen.state = stream.state
    return stream.generator.standard_normal(count, out=out)


class IncrementStream:
    """Fine increments of a block of samples, a chunk of fine steps at a time.

    Row r of ``chunk(first, count)[k]`` equals row first + k of the ``fine_matrix`` of
    sample ``sample_indices[r]`` bit for bit, without materializing that matrix.
    """

    def __init__(self, grid: NoiseGrid, master_seed: int, sample_indices):
        self.grid = grid
        self._sigma = np.sqrt(increment_variances(grid.n_modes, grid.tau_fine))
        self._streams = [NormalStream(master_seed, s) for s in sample_indices]
        self._buffer = np.empty((0, len(self._streams), grid.n_modes))

    def chunk(self, first: int, count: int) -> np.ndarray:
        """Increments over fine steps first .. first + count - 1, shape
        (count, S, n_modes), in a buffer that the next draw overwrites."""
        m_fine = self.grid.m_fine
        if first < 0 or first + count > m_fine:
            raise ValueError(
                f"step {first if first < 0 else max(first, m_fine)} outside grid with {m_fine} steps"
            )
        if len(self._buffer) < count:
            self._buffer = np.empty((count,) + self._buffer.shape[1:])
        out = self._buffer[:count]
        for step, rows in enumerate(out, first):
            for row, stream in zip(rows, self._streams):
                step_normals(stream, step, self.grid.n_modes, out=row)
        out *= self._sigma
        return out


class Coarsener:
    """Exact coarse increments of an (n_modes, n_steps) path from fine ones.

    Feed the fine increments of every fine step in time order through
    :meth:`push_chunk`, a run of consecutive steps at a time.  A run may
    start and stop anywhere inside a coarse interval and span any number of
    them; the call returns the increments of each interval the run closes,
    the substeps summed in time order.  A run that would pass the grid's
    last fine step is refused before any state changes.

    Only the nonzero weights are stored and multiplied.  A weight
    exp(-lambda_i tau_f a) falls with the mode i and the age a, so the
    nonzero weights of substep k are the first w_k of its row, and no
    aged row is wider than the age-1 row, whose eigenvalues are all that
    is kept at construction.  The rows of a run in one interval multiply
    and sum their first w columns, w that of their youngest aged row, and
    an interval closes by adding its running sum onto its last fine
    increment, whose weight is exp(0) = 1.  The skipped products are exact
    zeros, so the values are those of the full sum bit for bit whenever
    that last increment is nonzero.

    The weights of a run's aged rows are computed on its first use and
    kept by (first substep, rows), a slab only as wide as its youngest row.
    A study feeds runs aligned to its chunk, so each rung keeps one slab
    per chunk of an interval, about a quarter of the rectangular table at
    the temporal study's ages, where a row of age a is about 1 / sqrt(a)
    as wide as the age-1 row.
    """

    def __init__(self, grid: NoiseGrid, n_modes: int, n_steps: int):
        self.n_modes = n_modes
        self.substeps = _substeps(grid, n_modes, n_steps)
        # tau_f times the age of each substep of an interval, oldest first.
        self._ages = np.arange(self.substeps - 1, -1, -1, dtype=np.float64) * grid.tau_fine
        # No aged row is wider than the age-1 row: lambda_1 .. lambda_w, w its width.
        self._lam = np.empty(0)
        if self.substeps > 1:
            lam = eigenvalues(n_modes)
            self._lam = lam[: _nonzero_width(_decays(self._ages[-2], lam))].copy()
        self._slabs = {}  # the weights of a run's aged rows, by (first substep, rows)
        self._m_fine = grid.m_fine
        self._next = 0  # the fine step the next run must start at
        self._acc = None  # the running sum of the interval, over its first columns

    def push_chunk(self, first: int, fine: np.ndarray) -> np.ndarray | list[np.ndarray]:
        """Take the fine increments (C, ..., >= n_modes) of the C >= 1 fine
        steps from `first` on; return the increments of each coarse interval
        they close, in time order: at one substep per interval, the C rows
        themselves as a view."""
        if first != self._next:
            raise ValueError(f"expected fine step {self._next}, got {first}")
        if first + len(fine) > self._m_fine:
            raise ValueError(f"step {self._m_fine} outside grid with {self._m_fine} steps")
        self._next = (first + len(fine)) % self._m_fine  # a full pass starts the next at 0
        if self.substeps == 1:
            return fine[..., : self.n_modes]  # each one weight is exp(0) = 1 exactly
        closed = []
        j = first % self.substeps
        while len(fine):
            count = min(len(fine), self.substeps - j)  # the rows in this interval
            closes = j + count == self.substeps
            aged = count - closes  # the rows before the interval's last
            if aged:
                weights = self._slab(j, aged)
                width = weights.shape[-1]
                part = weights.reshape((aged,) + (1,) * (fine.ndim - 2) + (width,)) \
                    * fine[:aged, ..., :width]
                if j:
                    part[0, ..., : self._acc.shape[-1]] += self._acc
                self._acc = _time_sum(part)
            if closes:
                out = fine[count - 1, ..., : self.n_modes].copy()
                out[..., : self._acc.shape[-1]] += self._acc
                closed.append(out)
            fine, j = fine[count:], 0
        return closed

    def _slab(self, j: int, aged: int) -> np.ndarray:
        """Weights exp(-lambda tau_f a) of substeps j .. j + aged - 1 at their
        ages a, shape (aged, width), computed on first use and kept: every
        row cut to the nonzero width of the youngest, which is the widest."""
        slab = self._slabs.get((j, aged))
        if slab is None:
            width = _nonzero_width(_decays(self._ages[j + aged - 1], self._lam))
            slab = self._slabs[j, aged] = _decays(self._ages[j : j + aged], self._lam[:width])
        return slab


def _time_sum(part: np.ndarray) -> np.ndarray:
    """The rows of `part` summed in time order, ((p0 + p1) + p2) + ...

    np.add.reduce over the leading axis adds whole rows in that order, but
    rows of one element it sums pairwise, so those are accumulated instead.
    """
    if part[0].size == 1:
        return np.add.accumulate(part, axis=0)[-1]
    return np.add.reduce(part, axis=0)


def sample_fine_increment(key: NoiseKey, grid: NoiseGrid) -> float:
    """One stochastic convolution increment over a fine step; bit repeatable."""
    if key.mode_index > grid.n_modes:
        raise ResolutionError(
            f"mode {key.mode_index} outside grid with {grid.n_modes} modes"
        )
    if key.fine_step_index >= grid.m_fine:
        raise ValueError(
            f"step {key.fine_step_index} outside grid with {grid.m_fine} steps"
        )
    stream = _normal_stream(key.master_seed, key.sample_index, threading.get_ident())
    z = step_normals(stream, key.fine_step_index, key.mode_index)[-1]
    return float(np.sqrt(increment_variance(key.mode_index, grid.tau_fine)) * z)


@lru_cache(maxsize=8)
def _normal_stream(master_seed: int, sample_index: int, thread: int) -> NormalStream:
    """The NormalStream of (seed, sample) in one thread, kept for sample_fine_increment."""
    return NormalStream(master_seed, sample_index)


def _nonzero_width(row: np.ndarray) -> int:
    """The index of the last nonzero entry of `row` plus 1; 0 if there is none."""
    nonzero = np.flatnonzero(row)
    return int(nonzero[-1]) + 1 if len(nonzero) else 0


class NoiseRealization:
    """All fine increments of one Monte Carlo sample, plus exact coarsening.

    The full (m_fine, n_modes) increment matrix is the sample's
    :class:`IncrementStream` drawn as one chunk of every fine step,
    materialized lazily and reused by every resolution that shares the
    sample: the per-sample reference route.  Every command and
    ``coupled_terminal`` draw from the same stream a few fine steps at a
    time instead; both coarsen through :class:`Coarsener`, so both give the
    same paths bit for bit.
    """

    def __init__(self, grid: NoiseGrid, master_seed: int, sample_index: int):
        self.grid = grid
        self.master_seed = _integer("master_seed", master_seed)
        self.sample_index = _integer("sample_index", sample_index)

    @cached_property
    def fine_matrix(self) -> np.ndarray:
        """Increments at the finest resolution, shape (m_fine, n_modes): one
        chunk of every fine step of this sample's :class:`IncrementStream`."""
        g = self.grid
        return IncrementStream(g, self.master_seed, [self.sample_index]).chunk(0, g.m_fine)[:, 0]

    def increments(self, n_modes: int, n_steps: int) -> np.ndarray:
        """Increment matrix for a path at (n_modes, n_steps), shape (M, N)."""
        return np.array(Coarsener(self.grid, n_modes, n_steps).push_chunk(0, self.fine_matrix))


def _substeps(grid: NoiseGrid, n_modes: int, n_steps: int) -> int:
    """Fine steps per coarse step of an (n_modes, n_steps) path on `grid`."""
    if n_modes > grid.n_modes:
        raise ResolutionError(
            f"requested {n_modes} modes from a grid carrying {grid.n_modes}"
        )
    if grid.m_fine % _integer("n_steps", n_steps, 1) != 0:
        raise AlignmentError(
            f"step count {n_steps} does not divide the fine count {grid.m_fine}"
        )
    return grid.m_fine // n_steps
