"""Tamed accelerated exponential Euler stepping in coefficient space.

One step of the full discretization advances every mode i by

    c_i'  =  exp(-lambda_i tau) c_i  +  phi_i(tau) d_i  +  noise_i,

where d is the tamed Galerkin drift of the current field and noise_i is the
exact stochastic convolution increment for the step (zero in deterministic
mode).  The linear part and the noise are treated exactly; only the drift
is frozen over the step, and its taming keeps the update bounded even
though the cubic grows super-linearly.

:class:`PathBlock` is the one stepping kernel: it advances a block of
paths at one step size, one row per Monte Carlo sample, and each step
returns the drift it used.  A row may hold several resolution segments side
by side, such as a reference path and the coarser paths that step with it;
the transforms, taming norm and rescaling act per segment, the rest once
per block.  Rows and segments never interact, so every segment of a row
equals a one-row, one-segment run bit for bit; :func:`simulate_path` is
that case, and a single step is a path with n_steps = 1 (horizon_T = tau).
Each block builds its drift workspace once and keeps it for its life.  A
step writes the workspace only within the call and returns a new drift,
so blocks with the same segments and rows that one caller steps in turn
may share one (:meth:`PathBlock.share_workspace`) without changing a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowupError, _integer
from .model import ModelParams, _check, _drift_raw, _resolve_grid, _Segments
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
class PathResult:
    """Terminal field of a simulated path."""

    terminal: SpectralField


class PathBlock:
    """Paths at one step size advanced together, one row of coefficients each.

    `coeffs` has shape (S, sum(segments)): each row holds one resolution
    segment of `segments[j]` modes after another (by default a single
    segment), and every segment steps on its own grid as if it were alone.
    `sample_indices` (one per row, or None) labels the rows in blowup errors.
    A step computes the drift in the block's own workspace, built with the
    block, or in the one it took by :meth:`share_workspace`.
    """

    def __init__(self, params: ModelParams, coeffs: np.ndarray, tau: float,
                 sample_indices: Sequence[int | None] | None = None, *,
                 tamed: bool = True, segments: Sequence[int] | None = None):
        self.params = params
        self.coeffs = coeffs
        self.tau = tau
        self.step_index = 0
        modes = tuple(segments or (coeffs.shape[-1],))
        self._samples = sample_indices
        # The drift's step size: None turns taming off.
        self._taming = tau if tamed else None
        # The segments' (N_j, K_j) and the row shape: what a shared workspace must fit.
        self._layout = (tuple((n, _resolve_grid(params, n, None)) for n in modes),
                        coeffs.shape[:-1])
        self._segments = _Segments(*self._layout)
        # Segment j takes the first N_j columns of a step's increments.
        self._noise_cols = (None if len(modes) == 1
                            else np.concatenate([np.arange(n) for n in modes]))
        # The coefficients a step has checked, with their largest magnitude.
        self._checked = (None, None)
        self._decay = np.concatenate([semigroup_factors(n, tau) for n in modes])
        self.weights = np.concatenate([phi_factors(n, tau) for n in modes])

    @classmethod
    def at_initial_data(cls, params: ModelParams, n_modes: int | Sequence[int], n_steps: int,
                        sample_indices: Sequence[int | None], **options) -> "PathBlock":
        """One row per sample at the projected initial data, with tau = T / n_steps
        and one segment per mode count."""
        modes = [_integer("n_modes", n, 1) for n in np.atleast_1d(n_modes)]
        initial = np.concatenate([project(params.initial_data, n).coeffs for n in modes])
        return cls(params, np.repeat(initial[None, :], len(sample_indices), axis=0),
                   params.horizon_T / _integer("n_steps", n_steps, 1), sample_indices,
                   segments=modes, **options)

    def share_workspace(self, workspaces: dict) -> None:
        """Step in the drift workspace that `workspaces` holds for this block's
        layout, or enter this block's own there.

        Only blocks that are stepped one at a time, never at once, may
        share a dict: it is the caller's, for as long as it steps them.
        """
        self._segments = workspaces.setdefault(self._layout, self._segments)

    def parts(self) -> list[np.ndarray]:
        """The coefficients of every segment, views of shape (S, N_j)."""
        return [self.coeffs[:, cols] for cols in self._segments.cols]

    def step(self, noise: np.ndarray | None = None) -> np.ndarray:
        """Advance every row by one step and return the drift it used.

        `noise` holds the rows' increments for this step (zero if None); a
        segment of N_j modes takes its first N_j columns.
        """
        checked, peak = self._checked
        segments = self._segments
        try:
            drift = _drift_raw(self.params, self.coeffs, segments, self._taming,
                               peak=peak if checked is self.coeffs else None)
            out = self._decay * self.coeffs + self.weights * drift
            if noise is not None:
                cols = self._noise_cols
                out += noise if cols is None else noise.take(cols, axis=-1)
            peak = np.abs(out).max()
            # Written as a negated <= so that a NaN coefficient fails too.
            if not (peak <= BLOWUP_THRESHOLD):
                _check(np.maximum.reduceat(np.abs(out), segments.starts, axis=-1)
                       <= BLOWUP_THRESHOLD, segments.modes,
                       f"coefficient magnitude exceeded {BLOWUP_THRESHOLD:g}")
        except BlowupError as exc:
            row = exc.sample_index
            sample = None if self._samples is None or row is None else self._samples[row]
            raise BlowupError(f"{exc} at step {self.step_index} (tau={self.tau:.6g})",
                              step_index=self.step_index, sample_index=sample) from None
        self.coeffs = out
        self._checked = (out, float(peak))
        self.step_index += 1
        return drift


def simulate_path(params: ModelParams, n_modes: int, n_steps: int,
                  increments: np.ndarray | None = None, *,
                  sample_index: int | None = None) -> PathResult:
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
    """
    block = PathBlock.at_initial_data(params, n_modes, n_steps, (sample_index,))
    if increments is not None:
        increments = np.asarray(increments, dtype=np.float64)
        if increments.shape != (n_steps, n_modes):
            raise ValueError(
                f"increments must have shape {(n_steps, n_modes)}, got {increments.shape}"
            )
    for m in range(n_steps):
        block.step(None if increments is None else increments[m])
    return PathResult(terminal=SpectralField(block.coeffs[0]))
