import sys
import threading

import numpy as np
import pytest
from scipy.fft import dst

from tamedac import (
    ModelParams,
    NoiseGrid,
    NoiseRealization,
    SpectralField,
    nonlinearity_galerkin,
    simulate_path,
    tamed_drift,
)
from tamedac import model, spectral
from tamedac.errors import BlowupError
from tamedac.model import _F_LIMIT
from tamedac.noise import IncrementStream
from tamedac.spectral import phi_factors, semigroup_factors
from tamedac.stepper import PathBlock

from oracles import odd_drift_expansion, tamed_odd_drift

INV_SQRT2 = 0.7071067811865476
SQRT2 = 1.4142135623730951

# One tamed step from u = sin(pi x) with tau = 0.01 and N = 4, evaluated in
# 40-digit arithmetic from the closed per-mode form
#   exp(-lam_i tau) c_i + phi_i(tau) F_i / (1 + tau ||F||),   ||F|| = 1/4.
ONE_STEP_EXPECTED = [0.6423306449467035, 0.0, 0.0011685341951981713, 0.0]

# exp(1 - pi^2) / sqrt(2): exact terminal mode-1 value of the linear problem
# dc/dt = (1 - lam_1) c started from 1/sqrt(2).
LINEAR_TERMINAL = 9.941793863997341e-05


def nearly_linear_params() -> ModelParams:
    # a3 must stay negative; 1e-300 keeps the cubic term below resolvable size.
    return ModelParams(a3=-1e-300, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                       initial_data=SpectralField([INV_SQRT2]))


def one_step(params: ModelParams, initial, tau: float, noise=None) -> np.ndarray:
    """Coefficients after one step of size tau from `initial`.

    A single step is a one-step path whose horizon is the step size.
    """
    start = ModelParams(a3=params.a3, a2=params.a2, a1=params.a1, a0=params.a0,
                        horizon_T=tau, initial_data=SpectralField(initial))
    inc = None if noise is None else np.asarray(noise)[None, :]
    return simulate_path(start, len(initial), 1, inc).terminal.coeffs


class TestStep:
    def test_zero_field_is_fixed_point(self, double_well):
        out = one_step(double_well, np.zeros(4), 0.1, np.zeros(4))
        assert np.all(out == 0.0)

    def test_one_step_closed_form(self, double_well):
        out = one_step(double_well, [INV_SQRT2, 0.0, 0.0, 0.0], 0.01, np.zeros(4))
        assert out == pytest.approx(ONE_STEP_EXPECTED, rel=1e-12, abs=1e-18)

    def test_noise_increment_is_added_verbatim(self, double_well):
        noise = np.array([0.5, -0.25, 0.125])
        out = one_step(double_well, np.zeros(3), 0.1, noise)
        assert out == pytest.approx(noise)

    def test_rejects_wrong_noise_length(self, double_well):
        with pytest.raises(ValueError):
            one_step(double_well, np.zeros(3), 0.1, np.zeros(4))

    def test_state_validation(self, double_well):
        # A step needs a positive size: a zero horizon or no steps is rejected.
        with pytest.raises(ValueError):
            one_step(double_well, [1.0], 0.0)
        with pytest.raises(ValueError):
            simulate_path(double_well, 1, 0)


class TestSimulatePath:
    def test_single_step_path_equals_step(self, double_well):
        # One step is exp(-lam tau) c + phi(tau) d with d the tamed drift.
        tau = 0.01
        initial = SpectralField([INV_SQRT2, 0, 0, 0])
        path = simulate_path(ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=tau,
                                         initial_data=SpectralField([INV_SQRT2])),
                             n_modes=4, n_steps=1)
        direct = (semigroup_factors(4, tau) * initial.coeffs
                  + phi_factors(4, tau) * tamed_drift(double_well, initial, tau).coeffs)
        assert np.array_equal(path.terminal.coeffs, direct)

    def test_nearly_linear_mode_matches_exact_solution(self):
        # Deterministic run of an effectively linear drift: the terminal
        # mode-1 coefficient must track exp((1 - lam_1) T) / sqrt(2).  The
        # frozen-drift weight overshoots by about 2.6e-7 per step, which
        # compounds to ~1.1e-3 at M = 4096 and halves when M doubles.
        terminal = {}
        for m in (4096, 8192):
            out = simulate_path(nearly_linear_params(), n_modes=4, n_steps=m)
            terminal[m] = out.terminal.coeffs[0]
        err_4096 = abs(terminal[4096] - LINEAR_TERMINAL) / LINEAR_TERMINAL
        err_8192 = abs(terminal[8192] - LINEAR_TERMINAL) / LINEAR_TERMINAL
        assert err_4096 < 1.25e-3
        assert err_8192 < 0.62 * err_4096

    def test_deterministic_self_convergence(self, double_well):
        coarse = simulate_path(double_well, 64, 4096).terminal
        fine = simulate_path(double_well, 64, 8192).terminal
        gap = np.linalg.norm(coarse.coeffs - fine.coeffs)
        assert gap <= 1e-4

    def test_coupled_paths_converge_with_step_refinement(self, double_well):
        grid = NoiseGrid.for_horizon(1.0, 256, 16)
        gaps = []
        for m_coarse in (32, 64, 128):
            distances = []
            for s in range(5):
                realization = NoiseRealization(grid, 77, s)
                fine = simulate_path(double_well, 16, 256,
                                     realization.increments(16, 256)).terminal
                coarse = simulate_path(double_well, 16, m_coarse,
                                       realization.increments(16, m_coarse)).terminal
                distances.append(np.linalg.norm(fine.coeffs - coarse.coeffs))
            gaps.append(np.mean(distances))
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_tamed_increment_bound_checked(self, double_well):
        # Taming bounds every step's drift increment: ||phi . d|| <= phi_1 / tau.
        tau = 1.0 / 8
        weights = phi_factors(16, tau)
        bound = weights[0] / tau * (1.0 + 1e-12)
        grid = NoiseGrid.for_horizon(1.0, 8, 16)
        inc = np.stack([NoiseRealization(grid, 5, s).increments(16, 8) for s in range(10)])
        block = PathBlock.at_initial_data(double_well, 16, 8, range(10))
        increments = [np.linalg.norm(weights * block.step(inc[:, m]), axis=-1)
                      for m in range(8)]
        assert np.size(increments) == 80
        assert np.max(increments) <= bound

    def test_increment_shape_validated(self, double_well):
        with pytest.raises(ValueError):
            simulate_path(double_well, 4, 8, np.zeros((7, 4)))


class TestBlowup:
    def test_untamed_large_state_diverges(self, double_well):
        params = ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([50.0]))
        block = PathBlock.at_initial_data(params, 64, 4, (3,), tamed=False)
        with pytest.raises(BlowupError) as info:
            for _ in range(4):
                block.step()
        assert info.value.sample_index == 3
        assert info.value.step_index is not None

    def test_nan_increment_is_a_blowup_at_its_step(self, double_well):
        # NaN compares False against the threshold; the guard must still
        # stop the path at the step that produced it.
        inc = np.zeros((4, 4))
        inc[-1, 2] = np.nan
        with pytest.raises(BlowupError) as info:
            simulate_path(double_well, 4, 4, inc, sample_index=5)
        assert info.value.step_index == 3
        assert info.value.sample_index == 5

    def test_taming_prevents_the_same_divergence(self):
        params = ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([50.0]))
        out = simulate_path(params, 64, 4)
        assert np.all(np.isfinite(out.terminal.coeffs))


def stepped_block(params, n_modes, n_steps, seed, samples):
    """A block of `samples` paths stepped on the streamed noise of its own grid,
    and the block's coefficients after every step (index 0 = initial data)."""
    noise = IncrementStream(NoiseGrid.for_horizon(1.0, n_steps, n_modes), seed, range(samples))
    block = PathBlock.at_initial_data(params, n_modes, n_steps, range(samples))
    states = [block.coeffs]
    for m in range(n_steps):
        block.step(noise.chunk(m, 1)[0])
        states.append(block.coeffs)
    return states


class TestModeStatistics:
    def test_stationary_variance_of_decoupled_modes(self):
        # With the drift switched off each mode is an exact autoregression
        # whose terminal variance is (1 - exp(-2 lam T)) / (2 lam), which at
        # T = 1 is 1 / (2 lam) up to 5e-9 relative.
        params = ModelParams(a3=-1e-300, a2=0.0, a1=0.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([0.0]))
        n_modes = 4
        terminals = stepped_block(params, n_modes, 64, 99, 1200)[-1]
        observed = terminals.var(axis=0)
        lam = np.pi ** 2 * np.arange(1, n_modes + 1) ** 2
        assert observed == pytest.approx(1.0 / (2 * lam), rel=0.10)

    def test_temporal_increment_scaling(self, double_well):
        # RMS of || Y_{t+d} - Y_t || across samples grows like a small power
        # of d; the fitted exponent stays in the subdiffusive window.
        n_steps, samples = 512, 128
        base = 256
        offsets = [1, 2, 4, 8]
        states = stepped_block(double_well, 64, n_steps, 123, samples)
        rms = np.array([np.sqrt(np.sum((states[base + k] - states[base]) ** 2) / samples)
                        for k in offsets])
        slope = np.polyfit(np.log2(np.array(offsets) / n_steps), np.log2(rms), 1)[0]
        assert 0.2 <= slope <= 0.6


def params_with(a3=-1.0, a2=0.0, a1=1.0, a0=0.0) -> ModelParams:
    return ModelParams(a3=a3, a2=a2, a1=a1, a0=a0, horizon_T=1.0,
                       initial_data=SpectralField([INV_SQRT2]))


def run_block(params, rows, tau, noises, tamed=True, segments=None):
    """Coefficients before every step and after the last, and the drift each
    step returned.

    Also checks that nothing a step returned or was given changes later.
    """
    block = PathBlock(params, np.array(rows, dtype=np.float64), tau, tamed=tamed,
                      segments=segments)
    states, drifts, kept = [], [], []
    for noise in noises:
        states.append(block.coeffs)
        drifts.append(block.step(noise))
        kept += [(a, a.copy()) for a in (block.coeffs, drifts[-1], noise)]
    for a, copy in kept:
        assert a.tobytes() == copy.tobytes()
    return states + [block.coeffs], drifts


class TestLeanStep:
    """Every step equals the one-row runs of its rows and the stand-alone drift."""

    def check(self, params, rows, tau, noises, tamed=True, odd=True):
        states, drifts = run_block(params, rows, tau, noises, tamed)
        for r in range(len(rows)):
            alone = run_block(params, rows[r:r + 1], tau, [n[r:r + 1] for n in noises], tamed)
            for k, (state, drift) in enumerate(zip(states, drifts)):
                assert state[r].tobytes() == alone[0][k][0].tobytes()
                assert drift[r].tobytes() == alone[1][k][0].tobytes()
                # The drift of a single field takes no block workspace and no bound.
                fld = SpectralField(state[r])
                exact = (tamed_drift(params, fld, tau) if tamed
                         else nonlinearity_galerkin(params, fld)).coeffs
                assert drift[r].tobytes() == exact.tobytes()
                if not odd:
                    continue
                amplitude = np.abs(state[r]).max()
                oracle = (tamed_odd_drift(state[r] / amplitude, amplitude, params.a3,
                                          params.a1, tau) if tamed
                          else odd_drift_expansion(state[r], params.a3, params.a1))
                assert np.linalg.norm(drift[r] - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @staticmethod
    def noises(rng, steps, shape, scale=1e-2):
        return [scale * rng.standard_normal(shape) for _ in range(steps)]

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    def test_double_well(self, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = 0.5 * rng.standard_normal((n_rows, 16))
        self.check(params_with(), rows, 1 / 64, self.noises(rng, 5, rows.shape))

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    def test_even_content(self, n_rows):
        rng = np.random.default_rng(10 + n_rows)
        rows = 0.5 * rng.standard_normal((n_rows, 16))
        self.check(params_with(a2=0.8, a0=0.3), rows, 1 / 64,
                   self.noises(rng, 5, rows.shape), odd=False)

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    def test_untamed(self, n_rows):
        rng = np.random.default_rng(20 + n_rows)
        rows = 0.5 * rng.standard_normal((n_rows, 16))
        self.check(params_with(), rows, 1 / 256, self.noises(rng, 5, rows.shape),
                   tamed=False)

    @pytest.mark.parametrize("a3, huge", [(-1.0, 1e11), (-1e120, 1e6)])
    @pytest.mark.parametrize("n_rows", [3, 8])
    def test_one_huge_row(self, n_rows, a3, huge):
        # The huge row needs the rescaled cubic (a3 = -1e120 puts the grid
        # limit near 1) or at least a block bound that proves nothing.
        rng = np.random.default_rng(30 + n_rows)
        rows = 1e-3 * rng.standard_normal((n_rows, 16))
        rows[1] *= huge * 1e3
        self.check(params_with(a3=a3), rows, 1 / 64, self.noises(rng, 4, rows.shape))

    @pytest.mark.parametrize("a0", [1e150, 1e160])
    def test_drift_beyond_the_norm_limit(self, a0):
        # A constant term this large puts every drift coefficient beyond the
        # plain-norm limit, so each row's norm is taken in units of its peak.
        rng = np.random.default_rng(35)
        rows = 0.5 * rng.standard_normal((3, 16))
        self.check(params_with(a0=a0), rows, 1 / 64, self.noises(rng, 4, rows.shape), odd=False)

    def check_steered(self, params, target):
        """Steer a first step to `target` by its noise, then check three more.

        The second step is the first to take a bound on the coefficients.
        """
        rng = np.random.default_rng(target.shape[-1])
        rows = 0.1 * rng.standard_normal(target.shape)
        probe = PathBlock(params, rows.copy(), 1 / 64)
        probe.step()
        noises = [target - probe.coeffs] + self.noises(rng, 3, rows.shape)
        states, _ = run_block(params, rows, 1 / 64, noises)
        assert np.abs(states[1]) == pytest.approx(np.abs(target), rel=1e-12)
        self.check(params, rows, 1 / 64, noises, odd=params.a2 == 0)

    @pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9])
    @pytest.mark.parametrize("n_modes, a2, a0", [(1, 0.8, 0.3), (8, 0.0, 0.0)])
    def test_peak_at_the_rescaling_bound(self, side, n_modes, a2, a0):
        # Rows peak at limit / (sqrt(2) N) * side, where the bound on the grid
        # values meets the rescaling limit.  With one mode and even content
        # the grid has the point x = 1/2, where that bound is attained.
        params = params_with(a3=-1e120, a2=a2, a0=a0)
        limit = (_F_LIMIT / abs(params.a3)) ** (1.0 / 3.0)
        signs = np.sign(np.random.default_rng(n_modes).standard_normal((3, n_modes)))
        self.check_steered(params, signs * limit / (SQRT2 * n_modes)
                           * np.array([[side], [1 - 1e-9], [1 + 1e-9]]))

    def test_bound_on_grid_values_has_its_sqrt2(self):
        # Two equal modes reach sqrt(2) * 1.54 max|c| on the grid (x = 2/5 or
        # 3/5), beyond N max|c|: these rows need rescaling although their
        # peak is below limit / N.
        params = params_with(a3=-1e120)
        limit = (_F_LIMIT / abs(params.a3)) ** (1.0 / 3.0)
        self.check_steered(params, 0.48 * limit * np.array([[1.0, 1.0], [-1.0, 1.0]]))

    def test_coefficients_replaced_between_steps(self):
        # A bound from an earlier step must not outlive the coefficients
        # it was computed for.
        # The zero field's bound 0 would let the new rows skip rescaling.
        params = params_with(a3=-1e120)
        block = PathBlock(params, np.zeros((2, 16)), 1 / 64)
        block.step()
        rows = 1e3 * np.random.default_rng(4).standard_normal((2, 16))
        block.coeffs = rows
        drift = block.step()
        for row, got in zip(rows, drift):
            assert got.tobytes() == tamed_drift(params, SpectralField(row), 1 / 64).coeffs.tobytes()



class TestSegments:
    """Each segment of a multi-resolution block equals its one-resolution block."""

    MODES = (16, 4, 8)

    def check(self, params, parts, tau, noises, tamed=True):
        """Step `parts` (one (S, N_j) array per segment) as one block and alone.

        Every step's noise has max N_j columns; segment j takes the first N_j.
        """
        modes = [part.shape[-1] for part in parts]
        states, drifts = run_block(params, np.concatenate(parts, axis=-1), tau, noises,
                                   tamed, segments=modes)
        edges = np.cumsum([0] + modes)
        for j, part in enumerate(parts):
            cols = slice(edges[j], edges[j + 1])
            alone = run_block(params, part, tau, [n[:, :modes[j]] for n in noises], tamed)
            for got, want in zip(states + drifts, alone[0] + alone[1]):
                assert got[:, cols].tobytes() == want.tobytes()

    def parts(self, rng, n_rows, scale=0.5, modes=MODES):
        return [scale * rng.standard_normal((n_rows, n)) for n in modes]

    @staticmethod
    def noises(rng, steps, n_rows, n_modes, scale=1e-2):
        return [scale * rng.standard_normal((n_rows, n_modes)) for _ in range(steps)]

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    def test_double_well(self, n_rows):
        rng = np.random.default_rng(40 + n_rows)
        self.check(params_with(), self.parts(rng, n_rows), 1 / 64,
                   self.noises(rng, 5, n_rows, 16))

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_even_content(self, n_rows):
        rng = np.random.default_rng(50 + n_rows)
        self.check(params_with(a2=0.8, a0=0.3), self.parts(rng, n_rows), 1 / 64,
                   self.noises(rng, 5, n_rows, 16))

    def test_untamed(self):
        rng = np.random.default_rng(60)
        self.check(params_with(), self.parts(rng, 3), 1 / 256, self.noises(rng, 5, 3, 16),
                   tamed=False)

    @pytest.mark.parametrize("a3, huge", [(-1.0, 1e11), (-1e120, 1e6)])
    def test_one_huge_row_in_one_segment(self, a3, huge):
        # Row 1 of the N = 4 segment alone needs the rescaled cubic (or, at
        # a3 = -1, a block bound that proves nothing); the other segments of
        # that row, and every other row, must be computed as if alone.
        rng = np.random.default_rng(70)
        parts = self.parts(rng, 3, scale=1e-3)
        parts[1][1] *= huge * 1e3
        self.check(params_with(a3=a3), parts, 1 / 64, self.noises(rng, 4, 3, 16))

    def test_drift_beyond_the_norm_limit(self):
        rng = np.random.default_rng(75)
        self.check(params_with(a0=1e160), self.parts(rng, 3), 1 / 64,
                   self.noises(rng, 4, 3, 16))

    @pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9])
    def test_peak_at_the_rescaling_bound(self, side):
        # A first step steers the N = 8 segment to peaks limit / (sqrt(2) 8)
        # * side, where the block's bound on the grid values meets the
        # rescaling limit; the other segments take the first columns of the
        # same increments.  Later steps take the bound from the step before.
        params = params_with(a3=-1e120)
        limit = (_F_LIMIT / abs(params.a3)) ** (1.0 / 3.0)
        rng = np.random.default_rng(80)
        modes = (8, 1, 4)
        parts = self.parts(rng, 3, scale=0.1, modes=modes)
        probe = PathBlock(params, np.concatenate(parts, axis=-1), 1 / 64, segments=modes)
        probe.step()
        target = (np.sign(rng.standard_normal((3, 8))) * limit / (SQRT2 * 8)
                  * np.array([[side], [1 - 1e-9], [1 + 1e-9]]))
        noises = [target - probe.parts()[0]] + self.noises(rng, 3, 3, 8)
        self.check(params, parts, 1 / 64, noises)

    @pytest.mark.parametrize("column, n_named", [(10, 16), (2, 16)])
    def test_nan_increment_in_one_segment(self, column, n_named):
        # A NaN in column 10 reaches only the N = 16 segment; one in column
        # 2 reaches every segment, and the first in column order is named.
        rng = np.random.default_rng(90)
        parts = self.parts(rng, 3)
        noises = self.noises(rng, 4, 3, 16)
        noises[2][1, column] = np.nan
        block = PathBlock(params_with(), np.concatenate(parts, axis=-1), 1 / 64,
                          (5, 6, 7), segments=self.MODES)
        with pytest.raises(BlowupError) as info:
            for noise in noises:
                block.step(noise)
        assert (info.value.step_index, info.value.sample_index) == (2, 6)
        assert f"N={n_named} " in str(info.value)
        for part in parts:
            n = part.shape[-1]
            alone = PathBlock(params_with(), part, 1 / 64, (5, 6, 7))
            if n <= column:
                for noise in noises:
                    alone.step(noise[:, :n])
                continue
            with pytest.raises(BlowupError) as single:
                for noise in noises:
                    alone.step(noise[:, :n])
            assert (single.value.step_index, single.value.sample_index) == (2, 6)


class TestSharedWorkspace:
    """Blocks of one layout may share one drift workspace while one caller
    steps them, and every step of each equals its run alone bit for bit."""

    MODES = (256, 32, 64)
    STEPS = 6

    def runs(self, seed, blocks=2):
        """Rows of MODES for `blocks` blocks, their noises, and their runs alone."""
        rng = np.random.default_rng(seed)
        rows = [0.5 * rng.standard_normal((4, sum(self.MODES))) for _ in range(blocks)]
        noises = [[1e-2 * rng.standard_normal((4, 256)) for _ in range(self.STEPS)]
                  for _ in rows]
        alone = [run_block(params_with(), r, 1 / 64, n, segments=self.MODES)
                 for r, n in zip(rows, noises)]
        return rows, noises, alone

    def test_alternating_blocks_equal_their_runs_alone(self):
        # The two blocks share one workspace and step in turn, with a block
        # of another layout stepping between them, so each step finds the
        # workspace as a step of the other block left it.
        rows, noises, alone = self.runs(110)
        blocks = [PathBlock(params_with(), r.copy(), 1 / 64, segments=self.MODES) for r in rows]
        between = PathBlock(params_with(), np.full((4, 256), 0.3), 1 / 64)
        own = blocks[0]._segments
        workspaces = {}
        for block in blocks + [between]:
            block.share_workspace(workspaces)
        assert blocks[0]._segments is blocks[1]._segments is own
        assert between._segments is not blocks[0]._segments
        assert len(workspaces) == 2
        for k in range(self.STEPS):
            for block, noise, (states, drifts) in zip(blocks, noises, alone):
                drift = block.step(noise[k])
                between.step()
                assert drift.tobytes() == drifts[k].tobytes()
                assert block.coeffs.tobytes() == states[k + 1].tobytes()

    def test_blocks_stepped_at_once_in_threads_equal_the_serial_run(self):
        # Four blocks of one layout, built in this thread, each stepped in a
        # thread of its own (more threads than cores) with a short switch
        # interval; every step starts in all threads at once.
        rows, noises, alone = self.runs(120, blocks=4)
        blocks = [PathBlock(params_with(), r.copy(), 1 / 64, segments=self.MODES) for r in rows]
        start = threading.Barrier(len(blocks), timeout=60)
        stepped = [None] * len(blocks)

        def run(i):
            out = []
            for noise in noises[i]:
                start.wait()
                out.append((blocks[i].step(noise), blocks[i].coeffs))
            stepped[i] = out, blocks[i]._segments

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(blocks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        workspaces = [segments for _, segments in stepped]
        assert len({id(w) for w in workspaces}) == len(blocks)  # one per thread
        for (out, _), (states, drifts) in zip(stepped, alone):
            for k, (drift, coeffs) in enumerate(out):
                assert drift.tobytes() == drifts[k].tobytes()
                assert coeffs.tobytes() == states[k + 1].tobytes()


class TestDstRoutes:
    """A block steps to the same bits on another route to the DSTs."""

    @pytest.mark.parametrize("modes", [
        pytest.param((256, 4, 8, 16, 32, 64, 128), id="fallback"),
        pytest.param((256,), id="fallback-one-segment")])
    def test_fallback_route_steps_a_block_bit_for_bit(self, modes, monkeypatch):
        # The public scipy.fft.dst, written into x when asked: the analysis
        # relies on the in-place DST-II, not on its result.
        calls = []

        def route(x, kind, overwrite=False):
            calls.append((kind, overwrite))
            out = dst(x, type=kind, axis=-1)
            if overwrite:
                x[...] = out
                return x
            return out

        rng = np.random.default_rng(100)
        rows = 0.5 * rng.standard_normal((3, sum(modes)))
        noises = [1e-2 * rng.standard_normal((3, modes[0])) for _ in range(4)]
        direct = run_block(params_with(), rows, 1 / 64, noises, segments=modes)
        for module in (spectral, model):
            monkeypatch.setattr(module, "_dst", route)
        fallback = run_block(params_with(), rows, 1 / 64, noises, segments=modes)
        # Every step synthesizes each segment by a DST-III and analyses it
        # by an in-place DST-II.
        assert calls.count((3, False)) == calls.count((2, True)) == 4 * len(modes)
        assert len(calls) == 8 * len(modes)
        for got, want in zip(fallback[0] + fallback[1], direct[0] + direct[1]):
            assert got.tobytes() == want.tobytes()
