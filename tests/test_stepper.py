import numpy as np
import pytest

from tamedac import (
    ModelParams,
    NoiseGrid,
    NoiseRealization,
    SpectralField,
    l2_norm,
    phi_factors,
    semigroup_factors,
    simulate_path,
    tamed_drift,
)
from tamedac.errors import BlowupError
from tamedac.stepper import PathBlock

INV_SQRT2 = 0.7071067811865476

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

    def test_snapshots_recorded(self, double_well):
        path = simulate_path(double_well, 8, 4, record_steps={0, 2, 4})
        assert sorted(path.snapshots) == [0, 2, 4]
        assert path.snapshots[0].coeffs[0] == pytest.approx(INV_SQRT2)
        assert np.array_equal(path.snapshots[4].coeffs, path.terminal.coeffs)

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


class TestModeStatistics:
    def test_stationary_variance_of_decoupled_modes(self):
        # With the drift switched off each mode is an exact autoregression
        # whose terminal variance is (1 - exp(-2 lam T)) / (2 lam), which at
        # T = 1 is 1 / (2 lam) up to 5e-9 relative.
        params = ModelParams(a3=-1e-300, a2=0.0, a1=0.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([0.0]))
        n_modes, n_steps, samples = 4, 64, 1200
        grid = NoiseGrid.for_horizon(1.0, n_steps, n_modes)
        terminals = np.empty((samples, n_modes))
        for s in range(samples):
            inc = NoiseRealization(grid, 99, s).increments(n_modes, n_steps)
            terminals[s] = simulate_path(params, n_modes, n_steps, inc).terminal.coeffs
        observed = terminals.var(axis=0)
        lam = np.pi ** 2 * np.arange(1, n_modes + 1) ** 2
        assert observed == pytest.approx(1.0 / (2 * lam), rel=0.10)

    def test_temporal_increment_scaling(self, double_well):
        # RMS of || Y_{t+d} - Y_t || across samples grows like a small power
        # of d; the fitted exponent stays in the subdiffusive window.
        n_modes, n_steps, samples = 64, 512, 128
        base = 256
        offsets = [1, 2, 4, 8]
        record = {base} | {base + k for k in offsets}
        grid = NoiseGrid.for_horizon(1.0, n_steps, n_modes)
        sq = np.zeros(len(offsets))
        for s in range(samples):
            inc = NoiseRealization(grid, 123, s).increments(n_modes, n_steps)
            snaps = simulate_path(double_well, n_modes, n_steps, inc,
                                  record_steps=record).snapshots
            for j, k in enumerate(offsets):
                diff = snaps[base + k].coeffs - snaps[base].coeffs
                sq[j] += diff @ diff
        rms = np.sqrt(sq / samples)
        slope = np.polyfit(np.log2(np.array(offsets) / n_steps), np.log2(rms), 1)[0]
        assert 0.2 <= slope <= 0.6
