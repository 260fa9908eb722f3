"""Monte Carlo measurement of strong convergence against a fine reference.

The reference solution is the same discretization run at the reference
resolution (N_ref = M_ref); every coarser path is driven by the identical
underlying noise, truncated in modes and aggregated in time, so the sample
distance || Y_coarse - Y_ref || measures the strong error pathwise.  Errors
are root-mean-square over samples in the L2 norm, computed in coefficient
space after zero-padding (Parseval makes this the function-space norm).

Samples are computed in blocks: one loop over the fine steps draws the
block's fine increments a chunk of steps at a time and feeds each chunk to
one path block per step count, which steps as soon as its coarse interval
closes.  The reference and the rungs that share its step size (every rung
of the spatial study) are segments of one block; each other rung is a
block of its own.  No noise matrix is ever materialized, and every
sample's errors are the same bit for bit whichever block it is computed
in.  :func:`coupled_terminal` and the moment diagnostics run their paths
in the same blocks on the same streamed noise.

A study with more than one worker splits its samples into contiguous
shares: the first is computed in the calling process, each other one in a
child made by os.fork that pickles its rows back through a pipe.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from itertools import groupby
from typing import BinaryIO, Sequence

import numpy as np

from .errors import BlowupError, _integer, _real
from .model import ModelParams
from .noise import Coarsener, IncrementStream, NoiseGrid, NoiseRealization
from .spectral import _row_norms, _sup_norms
from .stepper import PathBlock

MODES = ("joint", "spatial", "temporal")
# Samples per block.  A block shares each step's per-call overhead among its
# rows: on one core at ref 1024 the time per sample falls by 38-56% from 1
# to 8 rows and changes by -13% to +7% from 8 to 16.  A parallel study
# splits its samples into shares first, each computed in such blocks.
_BLOCK_SAMPLES = 8
# Most fine steps drawn and coarsened at once.  A chunk shares the per-call
# overhead of coarsening among its steps; 8 keeps the chunk of a block at
# ref 1024 at 512 kB.
_CHUNK_STEPS = 8


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one convergence study."""

    mode: str
    resolutions: tuple[int, ...]
    ref_resolution: int
    samples: int
    master_seed: int
    horizon_T: float
    params: ModelParams

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        res = tuple(_integer("resolutions", r, 1) for r in self.resolutions)
        object.__setattr__(self, "resolutions", res)
        for name, low in (("ref_resolution", 1), ("samples", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if not res:
            raise ValueError("resolutions must be non-empty")
        if list(res) != sorted(set(res)):
            raise ValueError("resolutions must be strictly ascending")
        for r in res:
            if self.ref_resolution % r != 0:
                raise ValueError(
                    f"resolution {r} does not divide ref_resolution {self.ref_resolution}"
                )
        if self.ref_resolution <= res[-1]:
            raise ValueError("ref_resolution must exceed every study resolution")
        horizon = _real("horizon_T", self.horizon_T, "positive")
        _real("horizon_T / ref_resolution", horizon / self.ref_resolution, "positive")
        if abs(horizon - self.params.horizon_T) > 1e-12 * horizon:
            raise ValueError("horizon_T must match params.horizon_T")
        # The step sizes read params.horizon_T, so the noise grid reads it too.
        object.__setattr__(self, "horizon_T", self.params.horizon_T)


@dataclass(frozen=True)
class ErrorPoint:
    resolution: int
    rms_error: float
    mc_std_error: float


@dataclass(frozen=True)
class ErrorReport:
    """Per-resolution strong errors with the fitted convergence slope."""

    mode: str
    samples: int
    ref_resolution: int
    points: tuple[ErrorPoint, ...]
    fitted_slope: float
    fit_residual: float


def resolution_pair(mode: str, resolution: int, ref_resolution: int) -> tuple[int, int]:
    """(n_modes, n_steps) of the coarse path for one study resolution."""
    resolution = _integer("resolution", resolution, 1)
    ref_resolution = _integer("ref_resolution", ref_resolution, 1)
    if mode == "joint":
        return resolution, resolution
    if mode == "spatial":
        return resolution, ref_resolution
    if mode == "temporal":
        return ref_resolution, resolution
    raise ValueError(f"unknown mode {mode!r}")


def _coupled_terminals(params: ModelParams, grid: NoiseGrid, master_seed: int,
                       samples: range, pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """Terminal coefficients, shape (len(samples), N_j), of each (N_j, M_j) pair
    on the samples' noise, streamed on `grid`; consecutive pairs that share a
    step count are segments of one block.

    The noise is drawn in chunks of fine steps that lie inside one coarse
    interval of every block.  In a chunk the blocks at the fine step size
    step first, one fine step at a time, and then each other block whose
    interval the chunk closes: with the reference first in `pairs`, the
    order of a loop over single fine steps, so a blowup names the same
    sample and step.
    """
    noise = IncrementStream(grid, master_seed, samples)
    blocks = []
    for n_steps, group in groupby(pairs, key=lambda pair: pair[1]):
        modes = [n for n, _ in group]
        blocks.append((Coarsener(grid, max(modes), n_steps),
                       PathBlock.at_initial_data(params, modes, n_steps, samples)))
    every = [block for block in blocks if block[0].substeps == 1]
    coarse = [block for block in blocks if block[0].substeps > 1]
    chunk = math.gcd(grid.m_fine, _CHUNK_STEPS, *(c.substeps for c, _ in coarse))
    for first in range(0, grid.m_fine, chunk):
        fine = noise.chunk(first, chunk)
        for m, row in enumerate(fine, first):
            for coarsener, path in every:
                path.step(coarsener.push(m, row))
        for coarsener, path in coarse:
            increments = coarsener.push_chunk(first, fine)
            if increments is not None:
                path.step(increments)
    return [part for _, path in blocks for part in path.parts()]


def coupled_terminal(params: ModelParams, realization: NoiseRealization,
                     n_modes: int, n_steps: int) -> np.ndarray:
    """Terminal coefficients of a path driven by the shared noise realization,
    stepped on the study's engine without building the increment matrix."""
    s = realization.sample_index
    return _coupled_terminals(params, realization.grid, realization.master_seed,
                              range(s, s + 1), [(n_modes, n_steps)])[0][0]


def _block_squared_errors(config: RunConfig, samples: range) -> np.ndarray:
    """Squared coupled errors of a block of samples, shape (len(samples), rungs)."""
    ref = config.ref_resolution
    grid = NoiseGrid.for_horizon(config.horizon_T, m_fine=ref, n_modes=ref)
    pairs = [(ref, ref)] + [resolution_pair(config.mode, r, ref) for r in config.resolutions]
    reference, *rungs = _coupled_terminals(config.params, grid, config.master_seed,
                                           samples, pairs)
    out = np.empty((len(samples), len(rungs)))
    for j, rung in enumerate(rungs):
        diff = reference.copy()
        diff[:, : rung.shape[1]] -= rung
        out[:, j] = [row @ row for row in diff]
    return out


def sample_squared_errors(config: RunConfig, sample_index: int) -> np.ndarray:
    """Squared coupled errors of one sample, one entry per study resolution."""
    s = _integer("sample_index", sample_index)
    return _block_squared_errors(config, range(s, s + 1))[0]


def _study_block(config: RunConfig, first: int, count: int) -> np.ndarray:
    """Squared errors of samples first .. first + count - 1.

    A block that blows up is rerun one sample at a time, so a blowup is
    reported for the lowest-indexed sample that blows up.
    """
    try:
        return _block_squared_errors(config, range(first, first + count))
    except BlowupError as exc:
        if count > 1:
            return np.concatenate([_study_block(config, s, 1) for s in range(first, first + count)])
        raise BlowupError(f"sample {first} blew up: {exc}",
                          step_index=exc.step_index, sample_index=first) from exc


def _share_rows(config: RunConfig, first: int, count: int) -> np.ndarray:
    """Squared errors of samples first .. first + count - 1, computed in
    blocks of at most _BLOCK_SAMPLES; stops at the first block that fails."""
    return np.concatenate([_study_block(config, s, min(_BLOCK_SAMPLES, first + count - s))
                           for s in range(first, first + count, _BLOCK_SAMPLES)])


def _fork_share(config: RunConfig, first: int, count: int) -> tuple[int, BinaryIO]:
    """Start a child process that computes one share of a study.

    The child pickles its rows, or its first exception, into a pipe and
    leaves by os._exit, with status 0 only once the whole report is
    written.  Returns the child's pid and the pipe's read end.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        try:
            report = pickle.dumps(_share_rows(config, first, count))
        except BaseException as exc:
            report = pickle.dumps(exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(report)
        status = 0
    finally:
        os._exit(status)


def _study_rows(config: RunConfig, threads: int) -> np.ndarray:
    """Squared errors of every sample of a study, in ascending sample order.

    The samples are split into min(threads, samples) contiguous shares, as
    equal as possible.  Share 0 runs in this process and each other share
    in a child forked for it; without os.fork there is one share.  The
    failure of the lowest-indexed failing share is raised.  If this process
    fails or is interrupted, every child is killed and reaped first.
    """
    workers = min(threads, config.samples) if hasattr(os, "fork") else 1
    size, extra = divmod(config.samples, workers)
    firsts = [k * size + min(k, extra) for k in range(workers + 1)]
    shares = [(first, end - first) for first, end in zip(firsts, firsts[1:])]
    children: dict[int, BinaryIO] = {}  # every child not yet reaped
    try:
        for first, count in shares[1:]:
            pid, pipe = _fork_share(config, first, count)
            children[pid] = pipe
        rows = [_share_rows(config, *shares[0])]
        for (first, count), pid in zip(shares[1:], list(children)):
            report = children[pid].read()
            children[pid].close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                ending = f"exit status {status}" if status >= 0 else f"signal {-status}"
                raise RuntimeError(f"the process computing samples {first} .. "
                                   f"{first + count - 1} ended with {ending} "
                                   "before reporting its rows")
            share = pickle.loads(report)
            if isinstance(share, BaseException):
                raise share
            rows.append(share)
    except BaseException:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, 9)  # SIGKILL
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        raise
    return np.concatenate(rows)


def strong_error_study(config: RunConfig, threads: int = 1) -> ErrorReport:
    """Estimate strong errors across the resolution ladder.

    Samples are split into at most `threads` contiguous shares, each
    computed in blocks: share 0 in this process, each other share in a
    forked child (see :func:`_study_rows`), so a serial study forks
    nothing.  A sample's errors do not depend on its block or share, and
    they are always reduced in ascending sample order, so the report does
    not depend on the degree of parallelism.  No study imports
    :mod:`multiprocessing`, and none leaves a child process behind.
    """
    threads = _integer("threads", threads, 1)
    squared = _study_rows(config, threads)

    mean_sq = squared.mean(axis=0)
    rms = np.sqrt(mean_sq)
    if config.samples > 1:
        se_mean = squared.std(axis=0, ddof=1) / np.sqrt(config.samples)
    else:
        se_mean = np.zeros_like(mean_sq)
    # Delta method: d sqrt(m) / d m = 1 / (2 sqrt(m)).
    se_rms = np.divide(se_mean, 2.0 * rms, out=np.zeros_like(rms), where=rms > 0)

    points = tuple(
        ErrorPoint(resolution=r, rms_error=float(rms[j]), mc_std_error=float(se_rms[j]))
        for j, r in enumerate(config.resolutions)
    )
    slope, residual = fit_slope([(p.resolution, p.rms_error) for p in points])
    return ErrorReport(mode=config.mode, samples=config.samples,
                       ref_resolution=config.ref_resolution, points=points,
                       fitted_slope=slope, fit_residual=residual)


def fit_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log2(error) against log2(1 / resolution).

    Returns (slope, rms_residual); a positive slope means the error decays
    with the resolution.
    """
    if len(points) < 2:
        raise ValueError("slope fit needs at least two points")
    res = np.array([p[0] for p in points], dtype=np.float64)
    err = np.array([p[1] for p in points], dtype=np.float64)
    if not (np.all(res > 0) and np.all(err > 0) and np.isfinite([res, err]).all()):
        raise ValueError(f"resolutions and errors must be positive and finite, got {list(points)}")
    if len(set(res)) < 2:
        raise ValueError("slope fit needs at least two distinct resolutions")
    x = -np.log2(res)
    y = np.log2(err)
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    residual = float(np.sqrt(np.mean((dy - slope * dx) ** 2)))
    return slope, residual


@dataclass(frozen=True)
class MomentDiagnostics:
    """Path-norm statistics of one (n_modes, n_steps) configuration."""

    resolution: int
    n_steps: int
    tau: float
    samples: int
    sup_max: float
    sup_mean: float
    sup_p99: float
    l2_max: float
    l2_mean: float
    l2_p99: float
    max_drift_norm: float
    blowups: int
    all_finite: bool


def _norm_block(config: RunConfig, n_modes: int, n_steps: int, samples: range,
                tamed: bool, with_noise: bool) -> tuple[np.ndarray, int]:
    """Sup, L2 and drift norms after every step of a block of paths.

    Returns the norms, shape (3, observations) in sample-major order, and
    the number of paths that blew up.  A block that blows up is rerun one
    sample at a time, and a blown-up path keeps the steps it completed.
    """
    path = PathBlock.at_initial_data(config.params, n_modes, n_steps, samples, tamed=tamed)
    # The noise grid is the path's own resolution, so no coarsening is needed.
    grid = NoiseGrid.for_horizon(config.horizon_T, n_steps, n_modes)
    noise = IncrementStream(grid, config.master_seed, samples) if with_noise else None
    norms = []
    blowups = 0
    try:
        for m in range(n_steps):
            drift = path.step(None if noise is None else noise.at(m))
            norms.append((_sup_norms(path.coeffs), _row_norms(path.coeffs)[:, 0],
                          _row_norms(drift)[:, 0]))
    except BlowupError:
        if len(samples) > 1:
            rows = [_norm_block(config, n_modes, n_steps, samples[i:i + 1], tamed, with_noise)
                    for i in range(len(samples))]
            return np.concatenate([r for r, _ in rows], axis=1), sum(b for _, b in rows)
        blowups = 1
    by_step = np.array(norms).reshape(-1, 3, len(samples))
    return by_step.transpose(1, 2, 0).reshape(3, -1), blowups


def moment_diagnostics(config: RunConfig, n_steps: int | None = None, *,
                       tamed: bool = True, with_noise: bool = True,
                       ) -> tuple[MomentDiagnostics, ...]:
    """Record sup-norm and L2 statistics over samples and steps.

    Runs one joint-style path per sample at every study resolution
    (n_steps overrides the step count, e.g. to probe large step sizes),
    in blocks of samples.  Blown-up paths are counted rather than
    propagated, so an untamed run reports how many samples diverged.
    """
    if n_steps is not None:
        n_steps = _integer("n_steps", n_steps, 1)
    reports = []
    samples = range(config.samples)
    for r in config.resolutions:
        steps = n_steps if n_steps is not None else r
        blocks = [_norm_block(config, r, steps, samples[i:i + _BLOCK_SAMPLES], tamed, with_noise)
                  for i in samples[::_BLOCK_SAMPLES]]
        norms = np.concatenate([b for b, _ in blocks], axis=1)
        sup, l2, drift = norms if norms.size else np.zeros((3, 1))
        reports.append(MomentDiagnostics(
            resolution=r, n_steps=steps, tau=config.horizon_T / steps, samples=config.samples,
            sup_max=float(sup.max()), sup_mean=float(sup.mean()),
            sup_p99=float(np.percentile(sup, 99)),
            l2_max=float(l2.max()), l2_mean=float(l2.mean()),
            l2_p99=float(np.percentile(l2, 99)),
            max_drift_norm=float(drift.max()), blowups=sum(b for _, b in blocks),
            all_finite=bool(np.all(np.isfinite(sup)) and np.all(np.isfinite(l2))),
        ))
    return tuple(reports)
