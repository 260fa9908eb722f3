import os
import signal
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

import tamedac.experiments as experiments
import tamedac.stepper as stepper

from tamedac import (
    ModelParams,
    MomentDiagnostics,
    NoiseGrid,
    NoiseRealization,
    RunConfig,
    SpectralField,
    coupled_terminal,
    emit_csv,
    fit_slope,
    moment_diagnostics,
    resolution_pair,
    sample_squared_errors,
    simulate_path,
    strong_error_study,
)
from tamedac.errors import BlowupError
from tamedac.experiments import _study_block
from tamedac.spectral import _sup_norms
from tamedac.stepper import PathBlock

from oracles import polyfit_slope

# Frozen regression targets for the default double-well problem with M = N,
# used here only to pin down the slope-fitting arithmetic.
REFERENCE_ERRORS = (
    (4, 0.106381), (8, 0.077172), (16, 0.055174),
    (32, 0.039209), (64, 0.027624), (128, 0.019225),
)
REFERENCE_SLOPE = 0.4937198428411175
REFERENCE_RESIDUAL = 0.017159787528196798


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of the children that os.fork makes during the test."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids: list[int]) -> None:
    # Per pid rather than os.waitpid(-1, ...): a spawn-context pool elsewhere
    # in the suite leaves multiprocessing's resource tracker as a live child.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def small_config(double_well, **overrides) -> RunConfig:
    base = dict(mode="joint", resolutions=(4, 8, 16), ref_resolution=64,
                samples=8, master_seed=7, horizon_T=1.0, params=double_well)
    base.update(overrides)
    return RunConfig(**base)


def per_sample_moments(config: RunConfig, n_steps=None, *, tamed=True,
                       with_noise=True) -> tuple[MomentDiagnostics, ...]:
    """moment_diagnostics one sample at a time, on each sample's noise matrix."""
    reports = []
    for r in config.resolutions:
        steps = n_steps or r
        grid = NoiseGrid.for_horizon(config.horizon_T, steps, r)
        sup, l2, drift_norms, blowups = [], [], [0.0], 0
        for s in range(config.samples):
            inc = NoiseRealization(grid, config.master_seed, s).increments(r, steps)
            path = PathBlock.at_initial_data(config.params, r, steps, (s,), tamed=tamed)
            try:
                for m in range(steps):
                    drift = path.step(inc[m] if with_noise else None)[0]
                    sup.append(_sup_norms(path.coeffs[0]))
                    l2.append(np.linalg.norm(path.coeffs[0]))
                    drift_norms.append(np.linalg.norm(drift))
            except BlowupError:
                blowups += 1
        sup, l2 = np.array(sup or [0.0]), np.array(l2 or [0.0])
        reports.append(MomentDiagnostics(
            resolution=r, n_steps=steps, tau=config.horizon_T / steps,
            samples=config.samples, sup_max=float(sup.max()),
            sup_mean=float(sup.mean()), sup_p99=float(np.percentile(sup, 99)),
            l2_max=float(l2.max()), l2_mean=float(l2.mean()),
            l2_p99=float(np.percentile(l2, 99)), max_drift_norm=float(max(drift_norms)),
            blowups=blowups,
            all_finite=bool(np.all(np.isfinite(sup)) and np.all(np.isfinite(l2))),
        ))
    return tuple(reports)


class TestRunConfig:
    def test_happy_path(self, double_well):
        config = small_config(double_well)
        assert config.resolutions == (4, 8, 16)

    def test_rejects_nondyadic_reference(self, double_well):
        with pytest.raises(ValueError):
            small_config(double_well, ref_resolution=100, resolutions=(4, 8))

    def test_rejects_reference_not_above_ladder(self, double_well):
        with pytest.raises(ValueError):
            small_config(double_well, resolutions=(4, 64))

    def test_rejects_unsorted_resolutions(self, double_well):
        with pytest.raises(ValueError):
            small_config(double_well, resolutions=(8, 4))

    def test_rejects_bad_samples_and_mode(self, double_well):
        with pytest.raises(ValueError):
            small_config(double_well, samples=0)
        with pytest.raises(ValueError):
            small_config(double_well, mode="sideways")

    def test_rejects_mismatched_horizon(self, double_well):
        with pytest.raises(ValueError):
            small_config(double_well, horizon_T=2.0)

    def test_one_horizon_within_the_tolerance(self, double_well):
        # A config horizon within 1e-12 of the params' horizon is accepted;
        # the noise grid and the step sizes must then read the same value.
        horizon = 1.0 + 5e-13
        params = replace(double_well, horizon_T=horizon)
        reports = [strong_error_study(small_config(params, resolutions=(4, 8), ref_resolution=16,
                                                   samples=3, master_seed=1, horizon_T=h))
                   for h in (1.0, horizon)]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_horizon(self, double_well, horizon):
        with pytest.raises(ValueError, match="horizon_T must be positive and finite"):
            small_config(double_well, horizon_T=horizon)

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 0.5), ("master_seed", 7.0), ("samples", 8.5), ("samples", np.float64(8)),
        ("ref_resolution", 64.0), ("resolutions", (4, 8.5, 16)), ("resolutions", (4.0, 8, 16)),
    ])
    def test_rejects_non_integers(self, double_well, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(double_well, **{field: value})

    def test_numpy_integers_are_accepted(self, double_well):
        config = small_config(double_well, resolutions=np.array([4, 8, 16]),
                              ref_resolution=np.int64(64), samples=np.int32(8),
                              master_seed=np.uint64(7))
        assert config == small_config(double_well)


class TestResolutionPair:
    def test_joint(self):
        assert resolution_pair("joint", 8, 64) == (8, 8)

    def test_spatial(self):
        assert resolution_pair("spatial", 8, 64) == (8, 64)

    def test_temporal(self):
        assert resolution_pair("temporal", 8, 64) == (64, 8)


def matrix_route_errors(config: RunConfig, sample_index: int) -> np.ndarray:
    """Squared errors of one sample rebuilt on its noise matrix, one path at a time."""
    ref = config.ref_resolution
    grid = NoiseGrid.for_horizon(config.horizon_T, m_fine=ref, n_modes=ref)
    realization = NoiseRealization(grid, config.master_seed, sample_index)

    def terminal(n_modes, n_steps):
        inc = realization.increments(n_modes, n_steps)
        return simulate_path(config.params, n_modes, n_steps, inc,
                             sample_index=sample_index).terminal.coeffs

    reference = terminal(ref, ref)
    out = np.empty(len(config.resolutions))
    for j, r in enumerate(config.resolutions):
        n_modes, n_steps = resolution_pair(config.mode, r, ref)
        diff = reference.copy()
        diff[:n_modes] -= terminal(n_modes, n_steps)
        out[j] = float(diff @ diff)
    return out


class TestCoupling:
    @pytest.mark.parametrize("ref, n_modes, n_steps", [
        (64, 64, 64), (64, 8, 8), (64, 64, 8), (64, 8, 64), (256, 256, 256), (128, 16, 32),
    ])
    @pytest.mark.parametrize("sample", [0, 5])
    def test_coupled_terminal_equals_matrix_route(self, double_well, ref, n_modes, n_steps,
                                                  sample):
        realization = NoiseRealization(NoiseGrid.for_horizon(1.0, ref, ref), 3, sample)
        engine = coupled_terminal(double_well, realization, n_modes, n_steps)
        inc = realization.increments(n_modes, n_steps)
        matrix = simulate_path(double_well, n_modes, n_steps, inc,
                               sample_index=sample).terminal.coeffs
        assert engine.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("mode, resolutions, ref, chunk", [
        ("joint", (3, 4), 12, 1),          # substep counts 4 and 3: gcd 1
        ("temporal", (3, 4), 12, 1),
        ("temporal", (8, 16), 256, 8),     # substep counts 32 and 16: gcd above the cap
        ("spatial", (4, 8), 64, 8),        # every rung at the reference step size
    ])
    def test_chunked_terminals_equal_matrix_route(self, double_well, monkeypatch, mode,
                                                  resolutions, ref, chunk):
        counts = set()
        draw = experiments.IncrementStream.chunk

        def recorded(stream, first, count):
            counts.add(count)
            return draw(stream, first, count)

        monkeypatch.setattr(experiments.IncrementStream, "chunk", recorded)
        grid = NoiseGrid.for_horizon(1.0, ref, ref)
        pairs = [(ref, ref)] + [resolution_pair(mode, r, ref) for r in resolutions]
        samples = range(2, 5)
        engine = experiments._coupled_terminals(double_well, grid, 3, samples, pairs)
        assert counts == {chunk}
        for row, s in enumerate(samples):
            realization = NoiseRealization(grid, 3, s)
            for (n_modes, n_steps), terminals in zip(pairs, engine):
                inc = realization.increments(n_modes, n_steps)
                matrix = simulate_path(double_well, n_modes, n_steps, inc,
                                       sample_index=s).terminal.coeffs
                assert terminals[row].tobytes() == matrix.tobytes()

    def test_coupled_terminal_builds_no_noise_matrix(self, double_well):
        # The (1024, 1024) increment matrix alone would take 8.4 MB.
        realization = NoiseRealization(NoiseGrid.for_horizon(1.0, 1024, 1024), 3, 0)
        tracemalloc.start()
        try:
            coupled_terminal(double_well, realization, 1024, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("mode", ["joint", "spatial", "temporal"])
    def test_study_errors_equal_matrix_route(self, double_well, mode):
        resolutions = (8, 16, 32) if mode == "temporal" else (4, 8, 16)
        config = small_config(double_well, mode=mode, resolutions=resolutions, samples=3)
        for s in range(config.samples):
            assert sample_squared_errors(config, s).tobytes() == \
                matrix_route_errors(config, s).tobytes()

    def test_path_at_reference_resolution_is_bit_identical(self, double_well):
        grid = NoiseGrid.for_horizon(1.0, 64, 64)
        realization = NoiseRealization(grid, 3, 0)
        ref = coupled_terminal(double_well, realization, 64, 64)
        again = coupled_terminal(double_well, realization, 64, 64)
        assert np.array_equal(ref, again)
        fresh = coupled_terminal(double_well, NoiseRealization(grid, 3, 0), 64, 64)
        assert np.array_equal(ref, fresh)

    def test_sample_errors_deterministic(self, double_well):
        config = small_config(double_well)
        first = sample_squared_errors(config, 0)
        second = sample_squared_errors(config, 0)
        assert np.array_equal(first, second)
        assert np.all(first > 0)

    def test_distinct_samples_differ(self, double_well):
        config = small_config(double_well)
        assert not np.array_equal(sample_squared_errors(config, 0),
                                  sample_squared_errors(config, 1))


class TestStrongErrorStudy:
    def test_report_shape_and_determinism(self, double_well):
        config = small_config(double_well)
        report = strong_error_study(config)
        assert [p.resolution for p in report.points] == [4, 8, 16]
        assert all(p.rms_error > 0 for p in report.points)
        assert all(p.mc_std_error > 0 for p in report.points)
        assert report.samples == 8
        assert strong_error_study(config) == report

    def test_single_sample_report_is_deterministic(self, double_well):
        config = small_config(double_well, samples=1)
        report = strong_error_study(config)
        assert report == strong_error_study(config)
        assert all(p.mc_std_error == 0.0 for p in report.points)

    def test_errors_decrease_across_ladder(self, double_well):
        config = small_config(double_well, resolutions=(4, 8, 16, 32),
                              ref_resolution=256, samples=200)
        report = strong_error_study(config)
        errs = [p.rms_error for p in report.points]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 0.3 <= report.fitted_slope <= 0.7

    def test_blowup_aborts_with_sample_context(self, double_well, monkeypatch):
        # With the threshold lowered, sample 1 blows up at the reference
        # path's first step and sample 0 only at step 43, so the first row
        # of a block to blow up is not the lowest-indexed sample that does.
        # The study's worker processes are forked and inherit the patch.
        monkeypatch.setattr(stepper, "BLOWUP_THRESHOLD", 0.41)
        config = small_config(double_well)
        oracle = {}
        for s in range(config.samples):
            try:
                sample_squared_errors(config, s)
            except BlowupError as exc:
                oracle[s] = exc.step_index
        assert min(oracle) == 0 and oracle[0] > oracle[1]
        for threads in (1, 2):
            with pytest.raises(BlowupError) as info:
                strong_error_study(config, threads=threads)
            assert info.value.sample_index == 0
            assert info.value.step_index == oracle[0]
            assert str(info.value).startswith("sample 0 blew up")

    def test_spatial_blowup_names_the_oracle_sample_and_step(self, double_well, monkeypatch):
        # The reference and the rungs run as one block of segments here; the
        # study still names the per-sample oracle's sample, step and segment.
        monkeypatch.setattr(stepper, "BLOWUP_THRESHOLD", 0.41)
        config = small_config(double_well, mode="spatial")
        oracle = {}
        for s in range(config.samples):
            try:
                sample_squared_errors(config, s)
            except BlowupError as exc:
                oracle[s] = exc
        assert min(oracle) == 0 and oracle[0].step_index > oracle[1].step_index
        assert "for N=64 " in str(oracle[0])
        for threads in (1, 2):
            with pytest.raises(BlowupError) as info:
                strong_error_study(config, threads=threads)
            assert (info.value.sample_index, info.value.step_index) == (0, oracle[0].step_index)
            assert str(info.value) == f"sample 0 blew up: {oracle[0]}"

    def test_forks_one_child_per_share_after_the_first(self, double_well, forked):
        for samples, threads, children in ((2, 4, 1), (1, 4, 0), (8, 3, 2), (8, 1, 0)):
            config = small_config(double_well, samples=samples)
            serial = strong_error_study(config)
            forked.clear()
            assert strong_error_study(config, threads=threads) == serial
            assert len(forked) == children
            assert_reaped(forked)

    def test_without_fork_a_parallel_study_runs_serially(self, double_well, monkeypatch,
                                                          tmp_path):
        config = small_config(double_well, samples=5)
        serial = strong_error_study(config)
        monkeypatch.delattr(os, "fork")
        report = strong_error_study(config, threads=2)
        emit_csv(serial, str(tmp_path / "serial.csv"))
        emit_csv(report, str(tmp_path / "threads2.csv"))
        assert (tmp_path / "threads2.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_nonpositive_threads(self, double_well, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            strong_error_study(small_config(double_well), threads=threads)


class TestShares:
    """Failures in a parallel study's shares, and the children they leave.

    The tests patch experiments._study_block, which forked children inherit.
    """

    def test_blowup_in_a_child_share_names_its_sample_and_step(self, double_well,
                                                                monkeypatch, forked):
        config = small_config(double_well)  # shares 0 .. 3 and 4 .. 7
        real = experiments._study_block
        parent = os.getpid()

        def block(config, first, count):
            if os.getpid() != parent:
                stepper.BLOWUP_THRESHOLD = 0.41
            return real(config, first, count)

        oracle = {}
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "BLOWUP_THRESHOLD", 0.41)
            for s in range(4, 8):
                try:
                    sample_squared_errors(config, s)
                except BlowupError as exc:
                    oracle[s] = exc.step_index
        # Share 0 does not blow up at the default threshold.
        strong_error_study(replace(config, samples=4))
        monkeypatch.setattr(experiments, "_study_block", block)
        with pytest.raises(BlowupError) as info:
            strong_error_study(config, threads=2)
        first = min(oracle)
        assert (info.value.sample_index, info.value.step_index) == (first, oracle[first])
        assert str(info.value).startswith(f"sample {first} blew up")
        assert len(forked) == 1
        assert_reaped(forked)

    def test_lowest_failing_share_is_raised(self, double_well, monkeypatch, forked):
        def block(config, first, count):
            if first == 0:
                return np.zeros((count, len(config.resolutions)))
            # Share 2 fails first in time (share 1 sleeps); share 1 is still
            # the one raised.
            time.sleep(0.5 if first == 2 else 0.0)
            raise BlowupError(f"share at {first}", step_index=10 * first, sample_index=first)

        monkeypatch.setattr(experiments, "_study_block", block)
        with pytest.raises(BlowupError) as info:
            strong_error_study(small_config(double_well, samples=6), threads=3)
        assert (info.value.sample_index, info.value.step_index) == (2, 20)
        assert str(info.value) == "share at 2"
        assert len(forked) == 2
        assert_reaped(forked)

    @pytest.mark.parametrize("die, ending", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
    ])
    def test_child_that_dies_without_a_report_names_its_status(self, double_well, monkeypatch,
                                                               forked, die, ending):
        def block(config, first, count):
            if first > 0:
                die()
            return np.zeros((count, len(config.resolutions)))

        monkeypatch.setattr(experiments, "_study_block", block)
        with pytest.raises(RuntimeError, match=f"samples 4 .. 7 ended with {ending} "):
            strong_error_study(small_config(double_well), threads=2)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_interrupted_parent_kills_its_children(self, double_well, monkeypatch, forked):
        def block(config, first, count):
            time.sleep(0.2 if first == 0 else 30.0)
            if first == 0:
                raise KeyboardInterrupt
            return np.zeros((count, len(config.resolutions)))

        monkeypatch.setattr(experiments, "_study_block", block)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            strong_error_study(small_config(double_well), threads=2)
        assert time.monotonic() - start < 5.0
        assert len(forked) == 1
        assert_reaped(forked)


class TestBlocks:
    """A sample's errors do not depend on the block that computes them."""

    @pytest.mark.parametrize("mode", ["joint", "spatial", "temporal"])
    def test_rows_do_not_depend_on_the_block(self, double_well, mode):
        resolutions = (4, 8, 16) if mode != "temporal" else (8, 16, 32)
        config = small_config(double_well, mode=mode, resolutions=resolutions, samples=7)
        expected = np.stack([sample_squared_errors(config, s) for s in range(7)])
        for size in (1, 2, 3, 7):
            rows = np.concatenate([
                _study_block(config, first, min(size, 7 - first))
                for first in range(0, 7, size)])
            assert rows.tobytes() == expected.tobytes()
        # The shares of a 2-worker study, each computed in a fresh interpreter.
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
            rows = np.concatenate(list(pool.map(_study_block, [config] * 2, (0, 4), (4, 3))))
        assert rows.tobytes() == expected.tobytes()
        report = strong_error_study(config, threads=2)
        rms = np.array([p.rms_error for p in report.points])
        assert rms.tobytes() == np.sqrt(expected.mean(axis=0)).tobytes()

    @pytest.mark.parametrize("mode", ["joint", "spatial", "temporal"])
    def test_sample_memory_stays_small(self, double_well, mode):
        # The study streams its noise: no (M, N) increment matrix, which at
        # ref 1024 alone would take 8.4 MB.
        resolutions = (8, 16, 32, 64, 128, 256) if mode == "temporal" \
            else (4, 8, 16, 32, 64, 128)
        config = small_config(double_well, mode=mode, resolutions=resolutions,
                              ref_resolution=1024)
        tracemalloc.start()
        try:
            sample_squared_errors(config, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestFitSlope:
    def test_exact_half_order_data(self):
        points = [(n, 3.7 * n ** -0.5) for n in (4, 8, 16, 32, 64)]
        slope, residual = fit_slope(points)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_reference_table(self):
        slope, residual = fit_slope(REFERENCE_ERRORS)
        assert slope == pytest.approx(REFERENCE_SLOPE, abs=1e-12)
        assert residual == pytest.approx(REFERENCE_RESIDUAL, abs=1e-12)
        # Cross-check against an independently implemented least squares.
        assert slope == pytest.approx(
            polyfit_slope(*zip(*REFERENCE_ERRORS)), abs=1e-10
        )

    def test_flat_data_has_zero_slope(self):
        slope, residual = fit_slope([(4, 0.25), (8, 0.25)])
        assert slope == 0.0
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_slope([(4, 0.1)])
        with pytest.raises(ValueError):
            fit_slope([(4, 0.1), (8, 0.0)])
        for points in ([(4, np.nan), (8, 0.1)], [(4, np.inf), (8, 0.1)],
                       [(np.inf, 0.2), (8, 0.1)], [(np.nan, 0.2), (8, 0.1)],
                       [(4, 0.2), (4, 0.1)], [(4, 0.2), (4, 0.1), (4, 0.05)]):
            with pytest.raises(ValueError):
                fit_slope(points)


class TestMomentDiagnostics:
    def test_zero_problem_has_zero_moments(self):
        params = ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([0.0]))
        config = RunConfig(mode="joint", resolutions=(8,), ref_resolution=16,
                           samples=3, master_seed=0, horizon_T=1.0, params=params)
        (report,) = moment_diagnostics(config, with_noise=False)
        assert report.sup_max == 0.0
        assert report.l2_max == 0.0
        assert report.max_drift_norm == 0.0
        assert report.blowups == 0
        assert report.all_finite

    def test_default_problem_statistics_are_finite(self, double_well):
        config = RunConfig(mode="joint", resolutions=(64,), ref_resolution=128,
                           samples=20, master_seed=1, horizon_T=1.0,
                           params=double_well)
        (report,) = moment_diagnostics(config, n_steps=16)
        assert report.blowups == 0
        assert report.all_finite
        assert 0 < report.l2_mean < report.l2_max < 1e3
        assert report.max_drift_norm <= 1.0 / report.tau * (1 + 1e-12)

    def test_untamed_divergence_is_detected(self):
        params = ModelParams(a3=-1.0, a2=0.0, a1=1.0, a0=0.0, horizon_T=1.0,
                             initial_data=SpectralField([50.0]))
        config = RunConfig(mode="joint", resolutions=(64,), ref_resolution=128,
                           samples=5, master_seed=2, horizon_T=1.0, params=params)
        (report,) = moment_diagnostics(config, n_steps=4, tamed=False)
        assert report.blowups == 5
        assert report == per_sample_moments(config, n_steps=4, tamed=False)[0]

    # 1, 8 and 11 samples: a partial block, one full block, and one of each.
    @pytest.mark.parametrize("samples", [1, 8, 11])
    @pytest.mark.parametrize("options", [{}, {"n_steps": 4}, {"with_noise": False}],
                             ids=["default", "n_steps", "no_noise"])
    def test_blocks_equal_per_sample_paths(self, double_well, samples, options):
        config = small_config(double_well, resolutions=(8, 16), ref_resolution=32,
                              samples=samples, master_seed=3)
        assert moment_diagnostics(config, **options) == per_sample_moments(config, **options)

    def test_mixed_blowups_equal_per_sample_paths(self, double_well, monkeypatch):
        # With the threshold lowered, some samples of a block blow up and
        # others finish; the blown-up ones keep the steps they completed.
        monkeypatch.setattr(stepper, "BLOWUP_THRESHOLD", 0.6)
        config = small_config(double_well, resolutions=(8, 16), ref_resolution=32,
                              samples=11, master_seed=1)
        oracle = per_sample_moments(config)
        assert all(0 < d.blowups < config.samples for d in oracle)
        assert moment_diagnostics(config) == oracle

    def test_rejects_nonpositive_step_count(self, double_well):
        config = small_config(double_well, samples=1)
        for n_steps in (0, -3):
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                moment_diagnostics(config, n_steps=n_steps)


def test_parallel_study_reproduces_serial_report(double_well):
    config = small_config(double_well, samples=6)
    assert strong_error_study(config, threads=2) == strong_error_study(config, threads=1)
