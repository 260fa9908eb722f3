"""The untamed engine against the invariant law of the one-mode Galerkin system.

At N = 1 the Galerkin system of the SPDE is a gradient SDE, so its invariant
law has a closed-form density (:func:`oracles.galerkin_invariant_moments`),
computed without the scheme.  At a1 = 8 the linear part pi^2 - a1 = 1.87 is
small, so the law is sensitive to the cubic's projection and to the noise
variance: a cubic projected with factor 3 instead of 3/2 moves E c^2 by
-15%, a dropped cubic by +40% and a doubled noise variance by +69%.  At
T = 4 a path has long forgotten its initial data, so the terminal
coefficients of independent samples are draws from the law, up to the
scheme's weak bias, about -3% at tau = 4/512 untamed.  The tamed step's bias
there is about three times that.
"""

import math

import pytest

from tamedac import ModelParams, NoiseGrid, SpectralField
from tamedac.experiments import _coupled_terminals

from oracles import galerkin_invariant_moments

A1, HORIZON, STEPS, SAMPLES, SEED = 8.0, 4.0, 512, 4000, 1


def test_untamed_moments_are_the_invariant_law():
    # E c^2 and E c^4 over 4,000 samples each lie within 4 sample standard
    # errors of the law's.
    params = ModelParams(a3=-1.0, a2=0.0, a1=A1, a0=0.0, horizon_T=HORIZON,
                         initial_data=SpectralField([1.0 / math.sqrt(2.0)]))
    grid = NoiseGrid.for_horizon(HORIZON, STEPS, 1)
    (terminal,) = _coupled_terminals(params, grid, SEED, range(SAMPLES), [(1, STEPS)],
                                     tamed=False)
    for k, moment in zip((2, 4), galerkin_invariant_moments(params.a3, A1)):
        powers = terminal[:, 0] ** k
        z = (powers.mean() - moment) / (powers.std(ddof=1) / math.sqrt(SAMPLES))
        assert abs(z) <= 4.0, (k, z)


@pytest.mark.parametrize("a1, second", [(8.0, 0.190833), (1.0, 0.054870)])
def test_oracle_second_moment(a1, second):
    assert galerkin_invariant_moments(-1.0, a1)[0] == pytest.approx(second, abs=5e-7)


@pytest.mark.parametrize("a1", [8.0, 1.0, -4.0])
def test_oracle_without_the_cubic_is_gaussian(a1):
    # At a3 = -1e-300 the law is N(0, 1 / (2 (pi^2 - a1))), whose fourth
    # moment is 3 times the square of its second.
    variance = 1.0 / (2.0 * (math.pi ** 2 - a1))
    second, fourth = galerkin_invariant_moments(-1e-300, a1)
    assert second == pytest.approx(variance, rel=1e-9)
    assert fourth == pytest.approx(3.0 * variance ** 2, rel=1e-9)
