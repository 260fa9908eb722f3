import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tamedac import (
    NoiseGrid,
    NoiseKey,
    NoiseRealization,
    eigenvalue,
    increment_variance,
    sample_fine_increment,
)
from tamedac.errors import AlignmentError, ResolutionError
from tamedac.experiments import resolution_pair
from tamedac.noise import (
    Coarsener,
    IncrementStream,
    NormalStream,
    increment_variances,
    step_normals,
)
from tamedac.spectral import eigenvalues
from tamedac.stepper import PathBlock

from oracles import (
    convolution_weights,
    dense_time_sums,
    philox_normals,
    split_interval_increments,
)

# The resolution ladders of the benchmark workloads, at reference 1024.
BENCHMARK_LADDERS = {
    "joint": (4, 8, 16, 32, 64, 128),
    "spatial": (4, 8, 16, 32, 64, 128),
    "temporal": (8, 16, 32, 64, 128, 256),
}

VAR_MODE1_TAU1 = 0.05066059168563721   # (1 - exp(-2 pi^2)) / (2 pi^2)


def oracle_increments(grid: NoiseGrid, seed: int, sample: int, step: int) -> np.ndarray:
    """The fine increments of one step from a fresh generator, scaled by sigma."""
    sigma = np.sqrt(increment_variances(grid.n_modes, grid.tau_fine))
    return philox_normals(seed, sample, step, grid.n_modes) * sigma


class TestIncrementVariance:
    def test_mode_one_unit_tau(self):
        assert increment_variance(1, 1.0) == pytest.approx(VAR_MODE1_TAU1, rel=1e-14)

    def test_small_argument_limit(self):
        tau = 1e-14
        assert increment_variance(1, tau) == pytest.approx(tau, rel=1e-9)

    @pytest.mark.parametrize("i", [1, 3, 17, 256])
    @pytest.mark.parametrize("tau", [1e-8, 1 / 2048, 0.25, 4.0])
    def test_upper_bounds(self, i, tau):
        v = increment_variance(i, tau)
        assert 0.0 < v <= min(tau, 1.0 / (2 * eigenvalue(i))) * (1 + 1e-14)

    @pytest.mark.parametrize("variance", [increment_variance, increment_variances],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_invalid_tau_rejected(self, variance, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            variance(2, tau)

    @pytest.mark.parametrize("i", [1, 2, 5, 17, 64, 256])
    @pytest.mark.parametrize("tau", [1.0, 1 / 16, 1 / 2048, 1e-9])
    def test_split_interval_identity(self, i, tau):
        # Ito isometry over the halves: v(tau) = e^{-lam tau} v(tau/2) + v(tau/2).
        lam = eigenvalue(i)
        whole = increment_variance(i, tau)
        half = increment_variance(i, tau / 2)
        assert np.exp(-lam * tau) * half + half == pytest.approx(whole, rel=1e-14)

    def test_scalar_is_the_vector_entry_bit_for_bit(self):
        # increment_variance and eigenvalue take O(1) work per mode; they
        # must still return the entries of their vector forms exactly.
        assert [eigenvalue(i) for i in range(1, 4097)] == eigenvalues(4096).tolist()
        for tau in (2.0, 1.0, 0.3, 1 / 16, 1 / 64, 1 / 256, 1 / 1024, 1 / 2048,
                    1e-4, 1e-6, 1e-9, 1e-12):
            got = [increment_variance(i, tau) for i in range(1, 4097)]
            assert got == increment_variances(4096, tau).tolist()

    @pytest.mark.parametrize("horizon", [1e306, 1e308])
    def test_overflowing_argument_takes_the_limit(self, horizon):
        # At 1e308, 2 lambda_i tau overflows for every mode of an 8-step path.
        tau = horizon / 8
        lam = eigenvalues(8)
        variances = increment_variances(8, tau)
        assert variances == pytest.approx(1 / (2 * lam), rel=1e-15)
        assert [increment_variance(i, tau) for i in range(1, 9)] == variances.tolist()
        # Of two substeps, only the younger one's increment survives.
        assert np.array_equal(convolution_weights(lam, 2, tau / 2), [[0.0] * 8, [1.0] * 8])

    def test_vector_matches_scalar(self):
        tau = 1 / 64
        vec = increment_variances(6, tau)
        for i in range(1, 7):
            assert vec[i - 1] == pytest.approx(increment_variance(i, tau), rel=1e-15)


class TestKeyedSampling:
    def grid(self, n_modes=8, m_fine=16, tau=1 / 16):
        return NoiseGrid(n_modes=n_modes, m_fine=m_fine, tau_fine=tau)

    def test_same_key_same_value(self):
        key = NoiseKey(master_seed=42, sample_index=3, mode_index=2, fine_step_index=7)
        grid = self.grid()
        assert sample_fine_increment(key, grid) == sample_fine_increment(key, grid)

    def test_distinct_keys_differ(self):
        grid = self.grid()
        base = NoiseKey(1, 0, 1, 0)
        others = [NoiseKey(2, 0, 1, 0), NoiseKey(1, 1, 1, 0),
                  NoiseKey(1, 0, 2, 0), NoiseKey(1, 0, 1, 1)]
        v0 = sample_fine_increment(base, grid)
        for key in others:
            assert sample_fine_increment(key, grid) != v0

    def test_equals_a_fresh_generator_in_any_order(self):
        # Keyed draws reuse a generator per (seed, sample): switching keys
        # and going back in steps must leave every value as a fresh
        # generator gives it.
        grid = NoiseGrid(n_modes=40, m_fine=50, tau_fine=1 / 50)
        sigma = np.sqrt(increment_variances(40, 1 / 50))
        rng = np.random.default_rng(8)
        for seed, sample, mode, step in rng.integers([0, 0, 1, 0], [3, 3, 41, 50], (200, 4)):
            key = NoiseKey(int(seed), int(sample), int(mode), int(step))
            z = philox_normals(key.master_seed, key.sample_index, key.fine_step_index, int(mode))
            assert sample_fine_increment(key, grid) == float(sigma[mode - 1] * z[-1])

    def test_threads_draw_the_same_values(self):
        # Threads on the same keys at once, switching as often as possible,
        # must not disturb each other's generators.
        grid = NoiseGrid(n_modes=16, m_fine=64, tau_fine=1 / 64)
        keys = [NoiseKey(seed, 0, 1 + k % 16, k) for seed in (1, 2) for k in range(64)]
        expected = [sample_fine_increment(key, grid) for key in keys]
        results = {}

        def draw(shift):
            order = keys[shift:] + keys[:shift]
            results[shift] = [sample_fine_increment(key, grid) for key in order * 20]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=draw, args=(shift,)) for shift in (0, 1, 2, 3)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for shift, got in results.items():
            assert got == (expected[shift:] + expected[:shift]) * 20

    def test_mode_value_independent_of_how_many_are_drawn(self):
        stream = NormalStream(9, 4)
        few = step_normals(stream, 11, 3)
        many = step_normals(stream, 11, 64)
        assert np.array_equal(few, many[:3])

    def test_key_validation(self):
        with pytest.raises(ValueError):
            NoiseKey(-1, 0, 1, 0)
        with pytest.raises(ValueError):
            NoiseKey(0, 0, 0, 0)
        with pytest.raises(ValueError):
            NoiseKey(0, 0, 1, -1)

    @pytest.mark.parametrize("field, index", [("master_seed", 0), ("sample_index", 1),
                                              ("mode_index", 2), ("fine_step_index", 3)])
    @pytest.mark.parametrize("value", [0.5, 1.0, 1.9, np.float64(2.0), "1", None], ids=repr)
    def test_key_rejects_non_integers(self, field, index, value):
        # A float would otherwise alias the variate of its integer part.
        args = [0, 0, 1, 0]
        args[index] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            NoiseKey(*args)

    @pytest.mark.parametrize("field, index", [("master_seed", 0), ("sample_index", 1)])
    @pytest.mark.parametrize("value", [0.7, 3.0, np.float32(1.0), -1, 2 ** 64], ids=repr)
    def test_realization_rejects_non_indices(self, field, index, value):
        args = [0, 0]
        args[index] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            NoiseRealization(self.grid(n_modes=4, m_fine=8), *args)

    @pytest.mark.parametrize("integer", [int, np.int32, np.int64, np.uint64])
    def test_integer_types_give_the_same_key(self, integer):
        key = NoiseKey(integer(3), integer(1), integer(2), integer(5))
        assert key == NoiseKey(3, 1, 2, 5)
        assert all(type(v) is int for v in vars(key).values())
        realization = NoiseRealization(self.grid(n_modes=4, m_fine=8), integer(3), integer(1))
        assert (realization.master_seed, realization.sample_index) == (3, 1)

    def test_out_of_range_key_rejected(self):
        grid = self.grid(n_modes=4, m_fine=8)
        with pytest.raises(ValueError):
            sample_fine_increment(NoiseKey(0, 0, 5, 0), grid)
        with pytest.raises(ValueError):
            sample_fine_increment(NoiseKey(0, 0, 1, 8), grid)

    def test_sample_statistics(self):
        # 1e5 keyed draws at (i=1, tau=1/2048): zero mean within 4 sigma and
        # variance within 5 percent of the closed form.
        tau = 1 / 2048
        grid = NoiseGrid(n_modes=1, m_fine=100_000, tau_fine=tau)
        draws = np.array([
            sample_fine_increment(NoiseKey(7, 0, 1, k), grid)
            for k in range(100_000)
        ])
        target = increment_variance(1, tau)
        sigma = np.sqrt(target)
        assert abs(draws.mean()) <= 4 * sigma / np.sqrt(draws.size)
        assert draws.var() == pytest.approx(target, rel=0.05)

    def test_independence_across_modes_and_steps(self):
        grid = NoiseGrid(n_modes=4, m_fine=20_000, tau_fine=1e-3)
        z = NoiseRealization(grid, master_seed=5, sample_index=0).fine_matrix
        z = z / z.std(axis=0)
        threshold = 4 / np.sqrt(z.shape[0])
        for a in range(4):
            for b in range(a + 1, 4):
                assert abs(np.mean(z[:, a] * z[:, b])) < threshold
        for a in range(4):
            assert abs(np.mean(z[:-1, a] * z[1:, a])) < threshold


class TestStreamedNoise:
    @given(seed=st.integers(0, 2 ** 64 - 1), sample=st.integers(0, 2 ** 64 - 1),
           steps=st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=4),
           count=st.integers(1, 300), partial=st.integers(0, 9))
    @example(seed=2 ** 63 + 1, sample=0, steps=[0], count=4, partial=0)
    @example(seed=2 ** 64 - 1, sample=0, steps=[0], count=4, partial=0)
    @example(seed=0, sample=2 ** 64 - 1, steps=[2 ** 63], count=4, partial=0)
    def test_stream_equals_step_normals(self, seed, sample, steps, count, partial):
        # The reused generator is left mid-buffer by a partial draw before
        # every step; the reset must still land on a fresh generator's values,
        # returned or written into `out`.
        stream = NormalStream(seed, sample)
        for step in steps:
            expected = philox_normals(seed, sample, step, count).tobytes()
            step_normals(stream, step + 1, partial + 1)
            assert step_normals(stream, step, count).tobytes() == expected
            step_normals(stream, step + 1, partial + 1)
            out = np.full(count, np.nan)
            assert step_normals(stream, step, count, out=out) is out
            assert out.tobytes() == expected

    @pytest.mark.parametrize("key, other", [
        ((2 ** 63 + 1, 0), (2 ** 63 + 2, 0)),
        ((2 ** 64 - 1, 0), (0, 0)),
        ((0, 2 ** 63 + 1), (0, 2 ** 63 + 2)),
        ((0, 2 ** 64 - 1), (0, 0)),
    ])
    def test_keys_past_two_to_the_63_keep_their_own_streams(self, key, other):
        # Every seed and sample index in [0, 2^64) keys its own stream, with
        # no float64 rounding of the key on the way into Philox.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.array_equal(step_normals(NormalStream(*key), 0, 8),
                                      step_normals(NormalStream(*other), 0, 8))

    def test_stream_rows_equal_fine_matrix(self):
        grid = NoiseGrid(n_modes=5, m_fine=6, tau_fine=1 / 6)
        stream = IncrementStream(grid, 17, [4, 2])
        for m in range(grid.m_fine):
            rows = stream.chunk(m, 1)[0]
            for row, s in zip(rows, (4, 2)):
                assert row.tobytes() == oracle_increments(grid, 17, s, m).tobytes()
                assert row.tobytes() == NoiseRealization(grid, 17, s).fine_matrix[m].tobytes()


class TestAggregation:
    def test_single_substep_is_identity(self):
        grid = NoiseGrid(n_modes=2, m_fine=8, tau_fine=1 / 8)
        fine = sample_fine_increment(NoiseKey(3, 1, 2, 5), grid)
        coarse = NoiseRealization(grid, master_seed=3, sample_index=1).increments(2, 8)
        assert coarse[5, 1] == pytest.approx(fine, rel=1e-15)

    def test_one_substep_coarsener_passes_fine_through(self, double_well):
        # At the fine step size the one weight is exp(0) = 1: push_chunk
        # returns the first n modes of the fine increments themselves, as a
        # view, and stepping a path with them leaves the fine increments as
        # they were.
        grid = NoiseGrid(n_modes=12, m_fine=4, tau_fine=1 / 4)
        stream = IncrementStream(grid, 3, [0, 1])
        coarsener = Coarsener(grid, 8, 4)
        path = PathBlock.at_initial_data(double_well, 8, 4, [0, 1])
        for m in range(4):
            fine = stream.chunk(m, 1)[0]
            kept = fine.copy()
            coarse, = coarsener.push_chunk(m, fine[None])
            assert np.shares_memory(coarse, fine)
            assert coarse.tobytes() == fine[:, :8].tobytes()
            path.step(coarse)
            assert fine.tobytes() == kept.tobytes()

    def test_two_substep_weights(self):
        # Unit fine increments make the aggregate e^{-lam tau_f} + 1.
        tau_f = 1 / 4
        coarsener = Coarsener(NoiseGrid(n_modes=3, m_fine=2, tau_fine=tau_f), 3, 1)
        assert coarsener.push_chunk(0, np.ones((1, 3))) == []
        expected = np.exp(-eigenvalue(3) * tau_f) + 1.0
        coarse, = coarsener.push_chunk(1, np.ones((1, 3)))
        assert coarse[2] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("i", [1, 4, 32])
    @pytest.mark.parametrize("n_sub", [2, 8, 64])
    def test_aggregated_variance_identity(self, i, n_sub):
        # Substituting the fine variances into the weighted sum reproduces the
        # coarse variance exactly.
        tau_f = 1 / 1024
        w = convolution_weights(eigenvalue(i), n_sub, tau_f)
        fine_var = increment_variance(i, tau_f)
        agg_var = float(np.sum(w ** 2) * fine_var)
        assert agg_var == pytest.approx(
            increment_variance(i, n_sub * tau_f), rel=1e-14
        )

    def test_aggregated_variance_statistical(self):
        # About 1e5 draws of an 8-substep aggregate: 1024 modes of 98
        # samples, each mode standardized by its coarse standard deviation.
        # A plain sum of the fine increments would read about 8.
        n_modes, n_samples, n_sub, tau_f = 1024, 98, 8, 1 / 64
        grid = NoiseGrid(n_modes=n_modes, m_fine=n_sub, tau_fine=tau_f)
        draws = np.stack([NoiseRealization(grid, 11, s).increments(n_modes, 1)[0]
                          for s in range(n_samples)])
        draws /= np.sqrt(increment_variances(n_modes, n_sub * tau_f))
        assert draws.size >= 100_000
        assert draws.var() == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("mode", sorted(BENCHMARK_LADDERS))
    def test_increments_match_split_interval_oracle(self, mode):
        # Both routes into Coarsener, the matrix one of a single sample and
        # the stream of a block of samples, against the per-mode sum.
        ref = 1024
        grid = NoiseGrid.for_horizon(1.0, ref, ref)
        samples = (0, 1)
        pairs = [resolution_pair(mode, r, ref) for r in BENCHMARK_LADDERS[mode]]
        coarseners = [Coarsener(grid, *pair) for pair in pairs]
        streamed = [[] for _ in pairs]
        stream = IncrementStream(grid, 9, samples)
        for m in range(ref):
            fine = stream.chunk(m, 1)[0]
            for coarsener, out in zip(coarseners, streamed):
                out += [coarse.copy() for coarse in coarsener.push_chunk(m, fine[None])]
        for row, s in enumerate(samples):
            realization = NoiseRealization(grid, 9, s)
            for pair, out in zip(pairs, streamed):
                expected = split_interval_increments(realization.fine_matrix, *pair,
                                                     grid.tau_fine)
                scale = np.linalg.norm(expected, axis=0)
                for got in (realization.increments(*pair),
                            np.stack([coarse[row] for coarse in out])):
                    assert got.shape == expected.shape
                    assert np.all(np.linalg.norm(got - expected, axis=0) <= 1e-13 * scale)


class TestChunks:
    """Chunks of fine steps give the values of one fine step at a time."""

    @pytest.mark.parametrize("rows", [(), (1,), (3,)])
    @pytest.mark.parametrize("n_modes", [1, 5])
    @pytest.mark.parametrize("sizes", [
        (1,) * 16, (2,) * 8, (8, 8), (1, 2, 8, 1, 4), (3, 8, 2, 2, 1),
    ])
    def test_chunk_sum_equals_per_step_loop(self, rows, n_modes, sizes):
        # Fine shapes (C, N) and (C, S, N), chunks of 1, 2 and 8 steps, some
        # of them starting mid-interval; 16 substeps per coarse interval.
        grid = NoiseGrid(n_modes=6, m_fine=32, tau_fine=1 / 32)
        coarsener = Coarsener(grid, n_modes, 2)
        rng = np.random.default_rng(5)
        fine = rng.standard_normal((32,) + rows + (6,)) * 10.0 ** rng.integers(-6, 6, 6)
        weights = convolution_weights(eigenvalues(n_modes), 16, grid.tau_fine)
        got = []
        first = 0
        for size in sizes * 2:
            out = coarsener.push_chunk(first, fine[first:first + size])
            first += size
            assert len(out) == (first % 16 == 0)
            got += [coarse.tobytes() for coarse in out]
        expected = [row.tobytes() for row in dense_time_sums(weights, fine[..., :n_modes])]
        assert got == expected

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_chunk_rows_equal_fine_matrix(self, count):
        grid = NoiseGrid(n_modes=5, m_fine=16, tau_fine=1 / 16)
        stream = IncrementStream(grid, 17, [4, 2])
        for first in range(0, grid.m_fine, count):
            chunk = stream.chunk(first, count)
            assert chunk.shape == (count, 2, 5)
            for m, rows in enumerate(chunk, first):
                for row, s in zip(rows, (4, 2)):
                    assert row.tobytes() == oracle_increments(grid, 17, s, m).tobytes()

    @pytest.mark.parametrize("first, count, step", [(8, 1, 8), (-1, 1, -1), (6, 4, 8),
                                                    (11, 2, 11)])
    def test_stream_rejects_steps_outside_the_grid(self, first, count, step):
        stream = IncrementStream(NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.1), 0, [0])
        with pytest.raises(ValueError, match=f"^step {step} outside grid with 8 steps$"):
            stream.chunk(first, count)

    def test_coarsener_refuses_a_first_push_mid_interval(self):
        coarsener = Coarsener(NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.1), 4, 2)
        with pytest.raises(ValueError, match="expected fine step 0, got 1"):
            coarsener.push_chunk(1, np.ones((1, 4)))

    @pytest.mark.parametrize("n_steps", [8, 2])
    def test_coarsener_refuses_a_run_past_the_grid(self, n_steps):
        # As IncrementStream.chunk refuses such a run, at 1 and 4 substeps,
        # and before any state changes: the pass then goes on as if the
        # refused runs had never come, mid-interval too.
        grid = NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.1)
        realization = NoiseRealization(grid, 2, 0)
        fine = realization.fine_matrix
        coarsener = Coarsener(grid, 4, n_steps)
        with pytest.raises(ValueError, match="^step 8 outside grid with 8 steps$"):
            coarsener.push_chunk(0, np.ones((12, 4)))
        got = [coarse.tobytes() for coarse in coarsener.push_chunk(0, fine[:6])]
        with pytest.raises(ValueError, match="^step 8 outside grid with 8 steps$"):
            coarsener.push_chunk(6, np.ones((4, 4)))
        got += [coarse.tobytes() for coarse in coarsener.push_chunk(6, fine[6:])]
        assert got == [row.tobytes() for row in realization.increments(4, n_steps)]

    def test_coarsener_refuses_a_skipped_step(self):
        coarsener = Coarsener(NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.1), 4, 2)
        assert coarsener.push_chunk(0, np.ones((1, 4))) == []
        with pytest.raises(ValueError, match="expected fine step 1, got 3"):
            coarsener.push_chunk(3, np.ones((1, 4)))

    @pytest.mark.parametrize("rows", [(), (3,)])
    @pytest.mark.parametrize("sub", [1, 4, 6, 24])
    @pytest.mark.parametrize("run", [1, 3, 5, 8, "interval-and-part", "whole"])
    def test_runs_may_cross_intervals(self, rows, sub, run):
        # Runs of a fixed length from step 0 on, the last one cut at the end
        # of the 48-step grid: runs that start and stop mid-interval and
        # close none, one or several intervals, a whole interval plus half
        # of the next, and the whole fine matrix at once.  Modes 1..40 at
        # horizon 1, so the older weight rows of the top modes are zero.
        grid = NoiseGrid.for_horizon(1.0, 48, 48)
        size = {"interval-and-part": sub + max(1, sub // 2), "whole": 48}.get(run, run)
        rng = np.random.default_rng(3)
        fine = rng.standard_normal((48,) + rows + (48,)) * 10.0 ** rng.integers(-6, 6, 48)
        weights = convolution_weights(eigenvalues(40), sub, grid.tau_fine)
        expected = [row.tobytes() for row in dense_time_sums(weights, fine[..., :40])]
        coarsener = Coarsener(grid, 40, 48 // sub)
        got = []
        for first in range(0, 48, size):
            out = coarsener.push_chunk(first, fine[first:first + size])
            assert len(out) == min(first + size, 48) // sub - first // sub
            if sub == 1:
                assert np.shares_memory(out, fine)
            got += [coarse.tobytes() for coarse in out]
        assert got == expected

    def test_coarsener_starts_again_after_a_full_pass(self):
        grid = NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.1)
        fine = NoiseRealization(grid, 2, 0).fine_matrix
        coarsener = Coarsener(grid, 4, 2)
        passes = [[coarsener.push_chunk(m, fine[m:m + 4]) for m in (0, 4)] for _ in range(2)]
        assert np.array_equal(passes[0], passes[1])
        with pytest.raises(ValueError, match="expected fine step 0, got 4"):
            coarsener.push_chunk(4, fine[4:])


# Horizons of a 24-step fine grid at which no aged split-interval weight of
# 1024 modes underflows to 0.0, some do (with subnormals at the edge), all
# but those of the first 4 modes do (older rows 3, 2, 1 and 0 modes wide),
# or all do.
ZERO_WEIGHT_HORIZONS = {"no-zero": 1e-5, "some-zero": 1.0, "few-nonzero": 96.0,
                        "all-zero": 3e3}


def pushed_in_runs(coarsener: Coarsener, fine: np.ndarray, size: int) -> list[bytes]:
    """The coarse increments of a whole pass, fed in runs of `size` fine
    steps, the last one cut at the end of the pass."""
    return [coarse.tobytes() for first in range(0, len(fine), size)
            for coarse in coarsener.push_chunk(first, fine[first:first + size])]


class TestZeroWeights:
    """Coarsener skips the weights that underflow to 0.0, bit for bit."""

    def test_horizons_give_full_partial_and_empty_rows(self):
        def oldest_and_age_1(horizon):
            weights = convolution_weights(eigenvalues(1024), 24, horizon / 24)
            return weights[0], weights[-2]

        oldest, _ = oldest_and_age_1(ZERO_WEIGHT_HORIZONS["no-zero"])
        assert np.all(oldest > 0)
        oldest, age_1 = oldest_and_age_1(ZERO_WEIGHT_HORIZONS["some-zero"])
        assert 0 < np.count_nonzero(oldest) < np.count_nonzero(age_1) < 1024
        assert np.any((age_1 > 0) & (age_1 < np.finfo(np.float64).tiny))  # subnormal
        oldest, age_1 = oldest_and_age_1(ZERO_WEIGHT_HORIZONS["few-nonzero"])
        assert (np.count_nonzero(oldest), np.count_nonzero(age_1)) == (0, 4)
        _, age_1 = oldest_and_age_1(ZERO_WEIGHT_HORIZONS["all-zero"])
        assert not np.any(age_1)

    @pytest.mark.parametrize("rows", [(), (1,), (3,)])
    @pytest.mark.parametrize("horizon", ZERO_WEIGHT_HORIZONS.values(), ids=ZERO_WEIGHT_HORIZONS)
    def test_equals_dense_time_sum(self, horizon, rows):
        # Fine shapes (C, N), (C, 1, N) and (C, 3, N), magnitudes from 1e-300
        # on, so products of subnormal weights also underflow; runs of 1, 2,
        # 3, 4 and 8 steps, some across interval ends, and whole intervals,
        # 24 to 1 substeps an interval.
        grid = NoiseGrid.for_horizon(horizon, 24, 1024)
        rng = np.random.default_rng(11)
        fine = rng.standard_normal((24,) + rows + (1024,)) * 10.0 ** rng.integers(-300, 8, 1024)
        for n_modes in (1, 2, 41, 42, 43, 100, 1024):
            for n_steps in (1, 2, 3, 8, 24):
                sub = 24 // n_steps
                weights = convolution_weights(eigenvalues(n_modes), sub, grid.tau_fine)
                expected = [row.tobytes()
                            for row in dense_time_sums(weights, fine[..., :n_modes])]
                coarsener = Coarsener(grid, n_modes, n_steps)
                for size in (1, 2, 3, 4, 8, sub):
                    assert pushed_in_runs(coarsener, fine, size) == expected, \
                        (n_modes, n_steps, size)

    def test_temporal_ladder_keeps_only_nonzero_weights(self):
        # The dense (substeps, 1024) weight tables of the six rungs would take
        # 2.06 MB, that of the 128-substep rung alone 1.05 MB.  A full pass in
        # chunks of 4, as the study feeds them, keeps one slab of weights per
        # chunk of an interval, each as wide as its youngest row: 0.14 MB.
        ref = 1024
        grid = NoiseGrid.for_horizon(1.0, ref, ref)
        pairs = [resolution_pair("temporal", r, ref) for r in BENCHMARK_LADDERS["temporal"]]
        fine = np.random.default_rng(2).standard_normal((4, ref))
        tracemalloc.start()
        try:
            coarseners = [Coarsener(grid, *pair) for pair in pairs]
            kept, peak = tracemalloc.get_traced_memory()
            for first in range(0, ref, 4):
                for coarsener in coarseners:
                    coarsener.push_chunk(first, fine)
            kept_after_pass, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.substeps for c in coarseners] == [128, 64, 32, 16, 8, 4]
        assert kept <= 0.6e6
        assert peak < 1e6
        assert kept_after_pass <= 0.3e6


class TestNoiseRealization:
    def test_identity_at_fine_resolution(self):
        grid = NoiseGrid(n_modes=4, m_fine=8, tau_fine=1 / 8)
        realization = NoiseRealization(grid, 13, 2)
        assert np.array_equal(realization.increments(4, 8), realization.fine_matrix)

    def test_mode_truncation_is_prefix(self):
        grid = NoiseGrid(n_modes=6, m_fine=4, tau_fine=1 / 4)
        realization = NoiseRealization(grid, 13, 2)
        assert np.array_equal(
            realization.increments(2, 4), realization.fine_matrix[:, :2]
        )

    def test_rejects_nondivisor_steps(self):
        grid = NoiseGrid(n_modes=2, m_fine=8, tau_fine=1 / 8)
        with pytest.raises(AlignmentError):
            NoiseRealization(grid, 0, 0).increments(2, 3)

    def test_rejects_too_many_modes(self):
        grid = NoiseGrid(n_modes=2, m_fine=8, tau_fine=1 / 8)
        with pytest.raises(ResolutionError):
            NoiseRealization(grid, 0, 0).increments(3, 8)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            NoiseGrid(n_modes=0, m_fine=4, tau_fine=0.1)
        with pytest.raises(ValueError):
            NoiseGrid(n_modes=1, m_fine=4, tau_fine=0.0)
        grid = NoiseGrid.for_horizon(2.0, 8, 3)
        assert grid.tau_fine == pytest.approx(0.25)
        assert grid.tau_fine * grid.m_fine == pytest.approx(2.0, rel=1e-12)
