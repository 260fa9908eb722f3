"""Strong-error studies against the closed form of their linear limit.

At f(v) = a3 v^3 with a3 = -1e-300 the drift is negligible against every
coefficient, so each mode of a path is an Ornstein-Uhlenbeck process that
the scheme integrates exactly: decay exp(-lambda tau) and the exact
stochastic convolution.  From u0 = sin(pi x), mode i > 1 of the reference
at T is the convolution alone, a centred Gaussian of variance
v_i(T) = (1 - exp(-2 lambda_i T)) / (2 lambda_i), independent across modes.
A spatial or joint rung at N modes equals the reference's first N modes up
to roundoff, so its squared error is sum_{i > N} v_i Z_i^2, with an exact
mean and variance; a temporal rung keeps every mode, and its error is
roundoff.
"""

import math

import pytest

from tamedac import ModelParams, RunConfig, SpectralField, strong_error_study
from tamedac.noise import increment_variances

from oracles import ou_tail_moments

LINEAR = ModelParams(a3=-1e-300, a2=0.0, a1=0.0, a0=0.0, horizon_T=1.0,
                     initial_data=SpectralField([1.0 / math.sqrt(2.0)]))
REF, SAMPLES = 256, 64
LADDER = (4, 8, 16, 32, 64)


def linear_study(mode: str):
    return strong_error_study(RunConfig(mode=mode, resolutions=LADDER, ref_resolution=REF,
                                        samples=SAMPLES, master_seed=3, horizon_T=1.0,
                                        params=LINEAR))


@pytest.mark.parametrize("mode", ["spatial", "joint"])
def test_mean_square_error_is_the_ou_tail(mode):
    # Each rung's mean square error lies within 4 exact standard errors,
    # sqrt(2 sum v_i^2 / samples), of the tail mean sum v_i.
    variances = increment_variances(REF, LINEAR.horizon_T)
    for point in linear_study(mode).points:
        mean, variance = ou_tail_moments(variances, point.resolution)
        z = (point.rms_error ** 2 - mean) / math.sqrt(variance / SAMPLES)
        assert abs(z) <= 4.0, (point.resolution, z)


def test_temporal_error_is_roundoff():
    rms = [point.rms_error for point in linear_study("temporal").points]
    assert max(rms) <= 1e-14, rms
