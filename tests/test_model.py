import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamedac import (
    GridField,
    ModelParams,
    SpectralField,
    analyze,
    dealias_grid_size,
    nonlinearity_galerkin,
    simulate_path,
    synthesize,
    tamed_drift,
)
from tamedac.model import _drift_raw, _Segments, eval_poly
from tamedac.spectral import SQRT2, _dst, phi_factors, semigroup_factors

from oracles import (
    even_drift_projection,
    odd_drift_expansion,
    quadrature_inner,
    tamed_odd_drift,
)

INV_SQRT2 = 0.7071067811865476
QUARTER_INV_SQRT2 = 0.17677669529663687   # 1 / (4 sqrt 2)


class TestModelParams:
    def test_rejects_nonnegative_cubic_coefficient(self):
        with pytest.raises(ValueError):
            ModelParams(a3=0.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                        initial_data=SpectralField([1.0]))
        with pytest.raises(ValueError):
            ModelParams(a3=0.5, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                        initial_data=SpectralField([1.0]))

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=0.0,
                        initial_data=SpectralField([1.0]))

    def test_double_well_defaults(self, double_well):
        assert (double_well.a3, double_well.a2, double_well.a1, double_well.a0) == (
            -1.0, 0.0, 1.0, 0.0)
        assert double_well.initial_data.coeffs == pytest.approx([INV_SQRT2])


class TestEvalPoly:
    @pytest.mark.parametrize("v,expected", [(0.0, 0.0), (1.0, 0.0), (2.0, -6.0)])
    def test_double_well_values(self, double_well, v, expected):
        assert eval_poly(double_well, v) == pytest.approx(expected, abs=1e-15)

    def test_vectorized(self, double_well):
        v = np.array([0.0, 1.0, 2.0])
        assert eval_poly(double_well, v) == pytest.approx([0.0, 0.0, -6.0])

    def test_general_coefficients(self):
        params = ModelParams(a3=-2.0, a2=3.0, a1=-1.0, a0=0.5, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        assert eval_poly(params, 2.0) == pytest.approx(-2 * 8 + 3 * 4 - 2 + 0.5)


class TestNonlinearityGalerkin:
    def test_triple_angle_identity(self, double_well):
        # u = sin(pi x): u - u^3 = (sin(pi x) + sin(3 pi x)) / 4.
        fld = SpectralField([INV_SQRT2, 0.0, 0.0, 0.0])
        out = nonlinearity_galerkin(double_well, fld)
        expected = [QUARTER_INV_SQRT2, 0.0, QUARTER_INV_SQRT2, 0.0]
        assert out.coeffs == pytest.approx(expected, abs=1e-14)

    def test_truncation_drops_third_mode(self, double_well):
        fld = SpectralField([INV_SQRT2, 0.0])
        out = nonlinearity_galerkin(double_well, fld)
        assert out.coeffs == pytest.approx([QUARTER_INV_SQRT2, 0.0], abs=1e-14)

    def test_zero_field_fixed_point(self, double_well):
        out = nonlinearity_galerkin(double_well, SpectralField.zeros(6))
        assert np.all(out.coeffs == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_for_odd_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 33))
        coeffs = rng.standard_normal(n) * 0.8
        a3 = -float(rng.uniform(0.2, 3.0))
        a1 = float(rng.uniform(-2.0, 2.0))
        params = ModelParams(a3=a3, a2=0.0, a1=a1, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        out = nonlinearity_galerkin(params, SpectralField(coeffs), grid_size=4 * n)
        assert out.coeffs == pytest.approx(
            odd_drift_expansion(coeffs, a3, a1), rel=1e-11, abs=1e-11
        )

    def test_even_content_residual_shrinks_with_grid(self):
        # A quadratic term adds even content whose sine projection is only
        # quadrature-accurate; the residual must fall quickly as K grows.
        rng = np.random.default_rng(3)
        n = 16
        fld = SpectralField(rng.standard_normal(n) * 0.3)
        params = ModelParams(a3=-1.0, a2=0.8, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        ref = nonlinearity_galerkin(params, fld, grid_size=64 * n).coeffs
        res = [
            np.linalg.norm(nonlinearity_galerkin(params, fld, grid_size=k).coeffs - ref)
            for k in (3 * n, 6 * n, 12 * n)
        ]
        assert res[1] < res[0] / 3
        assert res[2] < res[1] / 3

    def test_rejects_aliasing_grid(self, double_well):
        with pytest.raises(ValueError):
            nonlinearity_galerkin(double_well, SpectralField.zeros(8), grid_size=15)


def midpoint_drift(params, coeffs, k):
    """The drift's quadrature on K midpoints from the raw DSTs: a DST-III of
    the zero-padded c / sqrt(2), f pointwise, a DST-II divided by sqrt(2) K."""
    n = coeffs.shape[-1]
    pad = np.zeros(coeffs.shape[:-1] + (k,))
    pad[..., :n] = coeffs / SQRT2
    return _dst(eval_poly(params, _dst(pad, 3)), 2)[..., :n] / (SQRT2 * k)


class TestDealiasingBound:
    """On K midpoints, modes 1..N of the cubic are exact iff K > 2N."""

    @staticmethod
    def odd_problem(seed):
        rng = np.random.default_rng(seed)
        a3, a1 = -float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2.0, 2.0))
        params = ModelParams(a3=a3, a2=0.0, a1=a1, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        return params, rng

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64, 127, 256])
    def test_exact_at_bound_and_default_grid(self, n):
        params, rng = self.odd_problem(n)
        coeffs = rng.standard_normal(n) * 0.8
        expected = odd_drift_expansion(coeffs, params.a3, params.a1)
        scale = np.max(np.abs(expected))
        for grid_size in (2 * n + 1, None):
            out = nonlinearity_galerkin(params, SpectralField(coeffs), grid_size=grid_size)
            assert np.max(np.abs(out.coeffs - expected)) <= 1e-11 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_aliases_below_bound(self, n):
        # At K = 2N mode 3N folds onto mode 2K - 3N = N, so a nonzero top
        # mode corrupts the projection; the library refuses that grid.  One
        # midpoint more makes the same quadrature exact.
        params, rng = self.odd_problem(100 + n)
        coeffs = rng.standard_normal(n) * 0.8
        coeffs[-1] = 1.0
        k = 2 * n
        expected = odd_drift_expansion(coeffs, params.a3, params.a1)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(midpoint_drift(params, coeffs, k) - expected)) > 1e-6
        assert np.max(np.abs(midpoint_drift(params, coeffs, k + 1) - expected)) <= 1e-11 * scale
        with pytest.raises(ValueError, match=f"at least {k + 1} points, got {k}"):
            nonlinearity_galerkin(params, SpectralField(coeffs), grid_size=k)


def test_even_content_keeps_wide_grid():
    # Drifts with a2 or a0 nonzero default to the smallest 5-smooth K >= 4N
    # (64 at N = 16), bit for bit.
    params = ModelParams(a3=-1.0, a2=0.8, a1=1.0, a0=0.3, horizon_T=1.0,
                         initial_data=SpectralField([0.5, -0.2, 0.1]))
    n = 16
    k = 64
    fld = SpectralField(np.random.default_rng(4).standard_normal(n) * 0.5)
    assert (nonlinearity_galerkin(params, fld).coeffs.tobytes()
            == nonlinearity_galerkin(params, fld, grid_size=k).coeffs.tobytes())
    assert (tamed_drift(params, fld, 0.01).coeffs.tobytes()
            == tamed_drift(params, fld, 0.01, grid_size=k).coeffs.tobytes())
    # A step of a path uses the same wide grid.
    tau = 1.0 / 16
    noise = np.random.default_rng(5).standard_normal((1, n)) * 0.05
    one_step = ModelParams(a3=-1.0, a2=0.8, a1=1.0, a0=0.3, horizon_T=tau,
                           initial_data=fld)
    stepped = simulate_path(one_step, n, 1, noise).terminal.coeffs
    explicit = (semigroup_factors(n, tau) * fld.coeffs
                + phi_factors(n, tau) * tamed_drift(params, fld, tau, grid_size=k).coeffs)
    explicit += noise[0]
    assert stepped.tobytes() == explicit.tobytes()



@pytest.mark.parametrize("n", [16, 128])
def test_even_content_default_grid_beats_interior_quadrature(n):
    # Against the exact projection, the default midpoint grid's quadrature
    # error is well below that of the interior-grid DST-I rule on 4N - 1
    # points, the default for such drifts before the midpoint grid.
    params = ModelParams(a3=-1.0, a2=0.8, a1=1.0, a0=0.3, horizon_T=1.0,
                         initial_data=SpectralField([1.0]))
    coeffs = np.random.default_rng(n).standard_normal(n) / np.arange(1, n + 1)
    exact = (odd_drift_expansion(coeffs, params.a3, params.a1)
             + even_drift_projection(coeffs, params.a2, params.a0))
    fld = SpectralField(coeffs)
    midpoint = nonlinearity_galerkin(params, fld).coeffs
    values = synthesize(fld, 4 * n - 1).values
    interior = analyze(GridField(eval_poly(params, values)), n).coeffs
    assert np.linalg.norm(midpoint - exact) <= 0.6 * np.linalg.norm(interior - exact)

class TestTamedDrift:
    def test_zero_drift_passes_through(self, double_well):
        out = tamed_drift(double_well, SpectralField.zeros(4), tau=0.5)
        assert np.all(out.coeffs == 0.0)

    def test_matches_direct_formula(self, double_well):
        fld = SpectralField(np.random.default_rng(1).standard_normal(8))
        tau = 0.2
        untamed = nonlinearity_galerkin(double_well, fld)
        expected = untamed.coeffs / (1.0 + tau * np.linalg.norm(untamed.coeffs))
        out = tamed_drift(double_well, fld, tau)
        assert out.coeffs == pytest.approx(expected, rel=1e-13)

    def test_unit_norm_drift_halved(self):
        # A nearly linear drift with f(v) ~ v maps the first basis function to
        # itself, so ||F|| = 1 and tau = 1 halves the output.
        params = ModelParams(a3=-1e-300, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        out = tamed_drift(params, SpectralField([1.0, 0.0]), tau=1.0)
        assert out.coeffs == pytest.approx([0.5, 0.0], rel=1e-12)
        assert np.linalg.norm(out.coeffs) == pytest.approx(0.5, rel=1e-12)

    @given(magnitude=st.floats(min_value=-3.0, max_value=150.0),
           tau=st.sampled_from([1e-4, 1e-2, 0.25, 1.0]))
    def test_norm_bounded_by_inverse_tau(self, magnitude, tau):
        # The output must be the taming formula itself, not merely something
        # below the bound: an all-zero vector satisfies ||out|| <= 1 / tau.
        params = ModelParams.cubic_double_well()
        amplitude = 10.0 ** magnitude
        fld = SpectralField([amplitude, -amplitude / 3, 1.0])
        out = tamed_drift(params, fld, tau)
        norm = np.linalg.norm(out.coeffs)
        expected = tamed_odd_drift([1.0, -1.0 / 3, 1.0 / amplitude], amplitude,
                                   params.a3, params.a1, tau)
        assert np.all(np.isfinite(out.coeffs))
        assert norm <= (1.0 / tau) * (1.0 + 1e-12)
        assert np.linalg.norm(out.coeffs - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_huge_field_no_overflow(self, double_well):
        # Far beyond the blowup threshold tau ||F_N|| dominates, so the tamed
        # drift saturates at norm 1 / tau along the direction of F_N.
        direction = odd_drift_expansion(np.array([1.0, 1.0, -1.0]), double_well.a3, 0.0)
        direction /= np.linalg.norm(direction)
        for amplitude in (1e60, 1e150, 1e300, 1.7e308):
            fld = SpectralField([amplitude, amplitude, -amplitude])
            for tau in (1e-3, 0.01, 0.25, 1.0):
                out = tamed_drift(double_well, fld, tau)
                assert np.all(np.isfinite(out.coeffs))
                norm = np.linalg.norm(out.coeffs)
                assert norm == pytest.approx(1.0 / tau, rel=1e-9)
                assert out.coeffs @ direction == pytest.approx(norm, rel=1e-12)
        # The grid values of this field overflow float64; its scale does not.
        out = 1e200 * tamed_drift(double_well, fld, 1e200).coeffs
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(out - direction) <= 1e-12

    @pytest.mark.parametrize("a3", [-1e200, -1e300])
    def test_huge_coefficient_saturates(self, a3):
        # ||q_N||^2 overflows here although the projected drift is finite;
        # the tamed drift must still saturate along the cubic's direction.
        params = ModelParams(a3=a3, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        coeffs = np.array([1.0, 1.0, -1.0])
        direction = odd_drift_expansion(coeffs, -1.0, 0.0)
        direction /= np.linalg.norm(direction)
        for tau in (1e-3, 0.01, 1.0):
            out = tamed_drift(params, SpectralField(coeffs), tau)
            norm = np.linalg.norm(out.coeffs)
            assert norm == pytest.approx(1.0 / tau, rel=1e-9)
            assert out.coeffs @ direction == pytest.approx(norm, rel=1e-12)
        out = tamed_drift(params, SpectralField([1.0]), 0.01)
        assert out.coeffs == pytest.approx([-100.0], rel=1e-9)

    def test_huge_coefficient_and_field_saturate(self):
        # |a3| * |v|^3 is far beyond float64 here; the per-row scale must
        # fold |a3| in so that the rescaled cubic stays representable.
        params = ModelParams(a3=-1e200, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        direction = odd_drift_expansion(np.array([1.0]), -1.0, 0.0)
        direction /= np.linalg.norm(direction)
        for tau in (1e-3, 0.01, 1.0):
            out = tamed_drift(params, SpectralField([1e50]), tau)
            norm = np.linalg.norm(out.coeffs)
            assert norm == pytest.approx(1.0 / tau, rel=1e-9)
            assert out.coeffs @ direction == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("tau", [1e200, 1e299])
    def test_step_size_beyond_the_norm_range(self, tau):
        # tau ||q_N|| overflows for the first field although its tamed drift,
        # of norm about 1 / tau, is representable; the second field's stays
        # finite and keeps the plain formula bit for bit, alone or in a block.
        params = ModelParams(a3=-1e120, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        coeffs = np.array([1.0, 1.0, -1.0])
        direction = odd_drift_expansion(coeffs, -1.0, 0.0)
        direction /= np.linalg.norm(direction)
        out = tamed_drift(params, SpectralField(coeffs), tau)
        norm = np.linalg.norm(out.coeffs)
        assert norm == pytest.approx(1.0 / tau, rel=1e-9)
        assert out.coeffs @ direction == pytest.approx(norm, rel=1e-12)
        small = SpectralField([1e-200, 0.0, 0.0])
        f_n = nonlinearity_galerkin(params, small).coeffs
        plain = f_n / (1.0 + tau * np.linalg.norm(f_n))
        assert tamed_drift(params, small, tau).coeffs.tobytes() == plain.tobytes()
        block = _drift_raw(params, np.stack([coeffs, small.coeffs]),
                           _Segments([(3, dealias_grid_size(3))], (2,)), tau)
        assert block.tobytes() == np.stack([out.coeffs, plain]).tobytes()

    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e200])
    @pytest.mark.parametrize("name, value", [
        ("a1", 1e306), ("a1", 1.7e308), ("a2", 1e306), ("a2", 1.7e308),
        ("a0", 1e306), ("a0", 1.7e308), ("a3", -1.7e308),
    ])
    def test_huge_coefficient_of_any_term_saturates(self, double_well, name, value, tau):
        # Unscaled, this one term overflows the analysis DST on a field of
        # moderate size; the tamed drift must saturate at norm 1 / tau along
        # the untamed drift of that term alone.
        fld = SpectralField(np.random.default_rng(8).standard_normal(16))
        term = dict(a3=-1e-300, a2=0.0, a1=0.0, a0=0.0)
        term[name] = math.copysign(1.0, value)
        direction = nonlinearity_galerkin(replace(double_well, **term), fld, 64).coeffs
        direction = direction / np.linalg.norm(direction)
        out = tau * tamed_drift(replace(double_well, **{name: value}), fld, tau, 64).coeffs
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(out / np.linalg.norm(out) - direction) <= 1e-12

    @pytest.mark.parametrize("tau", [1e-3, 1e200])
    def test_scaled_segment_leaves_its_block_alone(self, tau):
        # Only row 1's N = 4 segment reaches the limit on |f| and is scaled;
        # every segment of every row equals its drift alone, bit for bit.
        params = ModelParams(a3=-1.0, a2=0.0, a1=1e306, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        modes = (16, 4, 8)
        rows = 1e-305 * np.random.default_rng(12).standard_normal((3, sum(modes)))
        rows[1, 16:20] *= 1e305
        block = _drift_raw(params, rows, _Segments([(n, dealias_grid_size(n)) for n in modes],
                                                   (3,)), tau)
        assert np.linalg.norm(tau * block[1, 16:20]) == pytest.approx(1.0, rel=1e-12)
        edges = np.cumsum((0,) + modes)
        for row, got in zip(rows, block):
            for a, b in zip(edges, edges[1:]):
                alone = tamed_drift(params, SpectralField(row[a:b]), tau).coeffs
                assert got[a:b].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("a3,huge", [(-1.0, 1e60), (-1e200, 1e50)])
    def test_block_rows_do_not_depend_on_each_other(self, a3, huge):
        # One row that needs rescaling must leave the ordinary rows of its
        # block exactly as they are when computed alone.
        params = ModelParams(a3=a3, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        rows = np.random.default_rng(3).standard_normal((5, 128))
        rows[2] *= huge
        block = _drift_raw(params, rows, _Segments([(128, dealias_grid_size(128))], (5,)), 0.01)
        for row, got in zip(rows, block):
            alone = tamed_drift(params, SpectralField(row), 0.01).coeffs
            assert got.tobytes() == alone.tobytes()
        # Rows below the rescaling limits are the plain formula with the 1-d
        # norm of today's single-field drift, bit for bit.
        for r in (0, 1, 3, 4) if a3 == -1.0 else ():
            f_n = nonlinearity_galerkin(params, SpectralField(rows[r])).coeffs
            plain = f_n / (1.0 + 0.01 * np.linalg.norm(f_n))
            assert block[r].tobytes() == plain.tobytes()

    @pytest.mark.parametrize("amplitude", [1.0, 1e41, 1e60])
    def test_untamed_drift_is_never_rescaled(self, amplitude):
        # Without a step size the drift is the plain pseudospectral F_N,
        # also beyond the amplitude where the tamed drift rescales.
        params = ModelParams(a3=-1.0, a2=0.5, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([1.0]))
        rows = np.random.default_rng(6).standard_normal((3, 16)) * amplitude
        k = 64
        plain = midpoint_drift(params, rows, k)
        assert _drift_raw(params, rows, _Segments([(16, k)], (3,))).tobytes() == plain.tobytes()

    def test_moderate_field_strictly_below_bound(self, double_well):
        out = tamed_drift(double_well, SpectralField([3.0, -2.0]), tau=0.5)
        assert np.linalg.norm(out.coeffs) < 2.0

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_invalid_tau_rejected(self, double_well, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            tamed_drift(double_well, SpectralField([1.0]), tau)


class TestOneSidedCondition:
    @pytest.mark.parametrize("seed", range(5))
    def test_grid_level_monotonicity_bound(self, seed):
        rng = np.random.default_rng(200 + seed)
        a3 = -float(rng.uniform(0.3, 2.0))
        a2 = float(rng.uniform(-1.5, 1.5))
        a1 = float(rng.uniform(-1.0, 2.0))
        params = ModelParams(a3=a3, a2=a2, a1=a1, a0=float(rng.uniform(-1, 1)),
                             horizon_T=1.0, initial_data=SpectralField([1.0]))
        bound = a1 + a2 ** 2 / (-a3) + 1.0
        u = rng.standard_normal(64) * 2.0
        v = rng.standard_normal(64) * 2.0
        lhs = quadrature_inner(u - v, eval_poly(params, u) - eval_poly(params, v))
        rhs = bound * quadrature_inner(u - v, u - v)
        assert lhs <= rhs + 1e-12


def test_galerkin_drift_agrees_with_pointwise_cubic(double_well):
    # Spot check through the full pipeline: synthesize, apply f on the grid,
    # and compare against the library's projected drift rendered on the grid.
    fld = SpectralField(np.random.default_rng(9).standard_normal(5) * 0.4)
    k = 4 * fld.n_modes
    grid = synthesize(fld, k)
    pointwise = eval_poly(double_well, grid.values)
    projected = synthesize(nonlinearity_galerkin(double_well, fld, grid_size=k), k)
    # The projection only keeps the first 5 of up to 15 modes, so compare the
    # retained part: re-projecting the pointwise values must agree exactly.
    from tamedac import GridField, analyze
    direct = analyze(GridField(pointwise), fld.n_modes)
    retained = analyze(GridField(projected.values), fld.n_modes)
    assert retained.coeffs == pytest.approx(direct.coeffs, rel=1e-11, abs=1e-12)
