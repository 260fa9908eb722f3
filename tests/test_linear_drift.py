"""Temporal studies against the closed form of a linear drift.

At f(v) = a3 v^3 + a1 v with a3 = -1e-300 the cubic is negligible against
every coefficient, and without taming the drift is a1 times the field, so
each mode of a path of M steps of size tau is the scalar recursion
y' = A y + increment with A = exp(-lambda tau) + phi(tau) a1.  Coarse and
reference terminals are then linear in the shared fine increments, and the
squared distance of a temporal rung to the reference has an exact mean and
variance (:func:`oracles.linear_drift_error_moments`).
"""

import math

import pytest

from tamedac import ModelParams, NoiseGrid, SpectralField, project
from tamedac.experiments import _coupled_terminals

from oracles import linear_drift_error_moments

REF, SAMPLES, SEED = 256, 512, 3
LADDER = (8, 16, 32, 64, 128)


@pytest.mark.parametrize("a1", [1.0, -4.0])
def test_mean_square_error_is_the_closed_form(a1):
    # Each rung's mean square error over 512 samples lies within 4 exact
    # standard errors, sqrt(variance / samples), of the closed-form mean.
    params = ModelParams(a3=-1e-300, a2=0.0, a1=a1, a0=0.0, horizon_T=1.0,
                         initial_data=SpectralField([1.0 / math.sqrt(2.0)]))
    grid = NoiseGrid.for_horizon(1.0, REF, REF)
    pairs = [(REF, REF)] + [(REF, m) for m in LADDER]
    reference, *rungs = _coupled_terminals(params, grid, SEED, range(SAMPLES), pairs,
                                           tamed=False)
    c0 = project(params.initial_data, REF).coeffs
    for n_steps, rung in zip(LADDER, rungs):
        squared = ((rung - reference) ** 2).sum(axis=1)
        mean, variance = linear_drift_error_moments(c0, a1, 1.0, REF, n_steps)
        z = (squared.mean() - mean) / math.sqrt(variance / SAMPLES)
        assert abs(z) <= 4.0, (n_steps, z)
