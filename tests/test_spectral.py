import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamedac import (
    GridField,
    SpectralField,
    analyze,
    dealias_grid_size,
    eigenvalue,
    eigenvalues,
    grid_points,
    l2_norm,
    phi_factor,
    phi_factors,
    project,
    semigroup_factor,
    semigroup_factors,
    sobolev_norm,
    sup_norm_estimate,
    synthesize,
)
from tamedac.errors import ResolutionError

from oracles import quadrature_norm

PI_SQ = 9.869604401089358
EXP_NEG_PI_SQ = 5.172318620381231e-05   # exp(-pi^2)
PHI_MODE1_TAU1 = 0.10131594298788985    # (1 - exp(-pi^2)) / pi^2
TWO_PI = 6.283185307179586


def random_field(n_modes: int, seed: int, scale: float = 1.0) -> SpectralField:
    rng = np.random.default_rng(seed)
    return SpectralField(scale * rng.standard_normal(n_modes))


class TestEigenvalue:
    def test_mode_one_is_pi_squared(self):
        assert eigenvalue(1) == pytest.approx(PI_SQ, rel=1e-15)

    def test_quadratic_scaling(self):
        assert eigenvalue(10) == pytest.approx(100 * eigenvalue(1), rel=1e-15)

    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_invalid_index(self, bad):
        with pytest.raises(ValueError):
            eigenvalue(bad)

    def test_vector_matches_scalar(self):
        lam = eigenvalues(7)
        assert lam.shape == (7,)
        for i in range(1, 8):
            assert lam[i - 1] == eigenvalue(i)
        assert np.all(np.diff(lam) > 0)


class TestSemigroupFactor:
    def test_identity_at_time_zero(self):
        assert semigroup_factor(1, 0.0) == 1.0
        assert semigroup_factor(123, 0.0) == 1.0

    def test_mode_one_unit_time(self):
        assert semigroup_factor(1, 1.0) == pytest.approx(EXP_NEG_PI_SQ, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup_factor(1, -0.1)

    def test_monotone_in_time_and_mode(self):
        assert semigroup_factor(1, 0.1) > semigroup_factor(1, 0.2)
        assert semigroup_factor(1, 0.1) > semigroup_factor(2, 0.1)

    def test_graceful_underflow(self):
        assert semigroup_factor(100, 100.0) == 0.0

    @given(
        i=st.integers(min_value=1, max_value=64),
        s=st.floats(min_value=0.0, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_semigroup_law(self, i, s, t):
        combined = semigroup_factor(i, s + t)
        split = semigroup_factor(i, s) * semigroup_factor(i, t)
        assert split == pytest.approx(combined, rel=1e-14, abs=1e-300)


class TestPhiFactor:
    def test_mode_one_unit_tau(self):
        assert phi_factor(1, 1.0) == pytest.approx(PHI_MODE1_TAU1, rel=1e-14)

    def test_small_argument_limit_returns_tau(self):
        tau = 1e-12 / PI_SQ   # lambda_1 tau = 1e-12
        assert phi_factor(1, tau) == pytest.approx(tau, rel=1e-12)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            phi_factor(1, 0.0)
        with pytest.raises(ValueError):
            phi_factor(1, -1.0)

    @given(
        i=st.integers(min_value=1, max_value=4096),
        tau=st.floats(min_value=1e-12, max_value=10.0),
    )
    def test_bounds_and_partition_identity(self, i, tau):
        phi = phi_factor(i, tau)
        assert 0.0 < phi < tau
        # phi lambda + exp(-lambda tau) telescopes to 1 exactly.
        assert phi * eigenvalue(i) + semigroup_factor(i, tau) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_vector_matches_scalar(self):
        tau = 0.037
        vec = phi_factors(5, tau)
        for i in range(1, 6):
            assert vec[i - 1] == pytest.approx(phi_factor(i, tau), rel=1e-15)


class TestTransforms:
    def test_synthesize_first_mode_on_three_points(self):
        fld = SpectralField([1.0 / np.sqrt(2.0)])   # u(x) = sin(pi x)
        grid = synthesize(fld, 3)
        x = grid_points(3)
        assert grid.values == pytest.approx(np.sin(np.pi * x), rel=1e-14)
        assert grid.values[1] == pytest.approx(1.0, rel=1e-14)

    def test_synthesize_zero_field(self):
        assert np.all(synthesize(SpectralField.zeros(4), 16).values == 0.0)

    def test_synthesize_rejects_coarse_grid(self):
        with pytest.raises(ResolutionError):
            synthesize(SpectralField.zeros(8), 7)

    def test_analyze_recovers_pure_mode(self):
        fld = SpectralField([0.0, 1.0, 0.0])
        coeffs = analyze(synthesize(fld, 12), 3).coeffs
        assert coeffs == pytest.approx([0.0, 1.0, 0.0], abs=1e-13)

    def test_analyze_sine_cubed(self):
        # sin^3(t) = (3 sin t - sin 3t) / 4, so the coefficients against the
        # orthonormal basis are (3/(4 sqrt 2), 0, -1/(4 sqrt 2), 0).
        x = grid_points(12)
        grid = GridField(np.sin(np.pi * x) ** 3)
        coeffs = analyze(grid, 4).coeffs
        expected = [0.5303300858899106, 0.0, -0.17677669529663687, 0.0]
        assert coeffs == pytest.approx(expected, abs=1e-14)

    def test_analyze_zero_grid(self):
        assert np.all(analyze(GridField(np.zeros(9)), 4).coeffs == 0.0)

    def test_analyze_rejects_too_many_modes(self):
        with pytest.raises(ResolutionError):
            analyze(GridField(np.zeros(6)), 7)

    @given(
        n=st.integers(min_value=1, max_value=48),
        extra=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_is_identity(self, n, extra, seed):
        fld = random_field(n, seed)
        back = analyze(synthesize(fld, n + extra), n)
        assert back.coeffs == pytest.approx(fld.coeffs, rel=1e-12, abs=1e-12)


class TestProject:
    def test_truncation(self):
        assert project(SpectralField([1.0, 1.0, 1.0]), 2).coeffs == pytest.approx([1.0, 1.0])

    def test_zero_padding(self):
        out = project(SpectralField([2.0]), 3)
        assert out.coeffs == pytest.approx([2.0, 0.0, 0.0])

    def test_idempotent(self):
        fld = random_field(9, seed=5)
        once = project(fld, 4)
        twice = project(once, 4)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_dropped_tail_norm(self):
        fld = random_field(12, seed=6)
        kept = project(fld, 5)
        tail = fld.coeffs[5:]
        gap = np.sqrt(l2_norm(fld) ** 2 - l2_norm(kept) ** 2)
        assert gap == pytest.approx(np.linalg.norm(tail), rel=1e-12)
        assert l2_norm(kept) <= l2_norm(fld)


class TestNorms:
    def test_pythagorean(self):
        assert l2_norm(SpectralField([3.0, 4.0])) == pytest.approx(5.0, rel=1e-15)

    def test_zero_field(self):
        assert l2_norm(SpectralField.zeros(3)) == 0.0

    @pytest.mark.parametrize("n", [1, 5, 17, 64])
    def test_parseval_against_grid_quadrature(self, n):
        fld = random_field(n, seed=100 + n)
        grid = synthesize(fld, 4 * n)
        assert quadrature_norm(grid.values) == pytest.approx(l2_norm(fld), rel=1e-10)

    def test_sobolev_gamma_zero_is_l2(self):
        fld = random_field(6, seed=7)
        assert sobolev_norm(fld, 0.0) == pytest.approx(l2_norm(fld), rel=1e-14)

    def test_sobolev_single_mode_scaling(self):
        assert sobolev_norm(SpectralField([1.5]), 2.0) == pytest.approx(
            PI_SQ * 1.5, rel=1e-13
        )
        fld = SpectralField([0.0, -0.5])
        assert sobolev_norm(fld, 1.0) == pytest.approx(TWO_PI * 0.5, rel=1e-13)


class TestSupNormEstimate:
    def test_first_mode_peak(self):
        fld = SpectralField([1.0])
        # Grid of 399 points contains x = 1/2 where sqrt(2) sin(pi x) peaks.
        assert sup_norm_estimate(fld, 399) == pytest.approx(np.sqrt(2.0), rel=1e-13)
        assert sup_norm_estimate(fld) <= np.sqrt(2.0)

    def test_zero_field(self):
        assert sup_norm_estimate(SpectralField.zeros(5)) == 0.0

    def test_monotone_under_grid_refinement(self):
        fld = random_field(6, seed=11)
        k = 4 * fld.n_modes
        values = []
        for _ in range(4):
            values.append(sup_norm_estimate(fld, k))
            k = 2 * k + 1   # nested: old points are a subset of the new grid
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_undersampled_grid(self):
        with pytest.raises(ResolutionError):
            sup_norm_estimate(SpectralField.zeros(8), 31)


class TestFieldTypes:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpectralField([1.0, np.nan])
        with pytest.raises(ValueError):
            GridField([np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectralField([])

    def test_coeffs_are_immutable(self):
        fld = SpectralField([1.0, 2.0])
        with pytest.raises(ValueError):
            fld.coeffs[0] = 9.0

    def test_input_copy_is_defensive(self):
        src = np.array([1.0, 2.0])
        fld = SpectralField(src)
        src[0] = 9.0
        assert fld.coeffs[0] == 1.0


def test_dealias_grid_size():
    # Exact for the cubic (K + 1 > 2N) with a smooth FFT length 2 (K + 1).
    for n in range(1, 2049):
        k = dealias_grid_size(n)
        assert k + 1 > 2 * n
        assert 2 * (k + 1) == 5 * 2 * -(-n // 2)
    assert dealias_grid_size(16) == 39
    assert dealias_grid_size(1) == 4
    assert dealias_grid_size(3) == 9
