import json
import os
import subprocess
import sys
from bisect import bisect_left
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.fft import dst

import tamedac
from tamedac import (
    GridField,
    ModelParams,
    SpectralField,
    analyze,
    dealias_grid_size,
    eigenvalue,
    grid_points,
    project,
    synthesize,
)
from tamedac.errors import ResolutionError
from tamedac.model import _resolve_grid
from tamedac.spectral import (
    _dst,
    _load_pocketfft,
    _row_norms,
    _sup_norms,
    eigenvalues,
    phi_factors,
    semigroup_factors,
)

from oracles import quadrature_norm

PI_SQ = 9.869604401089358
EXP_NEG_PI_SQ = 5.172318620381231e-05   # exp(-pi^2)
PHI_MODE1_TAU1 = 0.10131594298788985    # (1 - exp(-pi^2)) / pi^2
# Step sizes every step-size check must reject (t = 0 is a valid time).
BAD_STEPS = [np.nan, np.inf, -np.inf, 0.0, -1.0]


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
        assert np.all(semigroup_factors(123, 0.0) == 1.0)

    def test_mode_one_unit_time(self):
        assert semigroup_factors(1, 1.0)[0] == pytest.approx(EXP_NEG_PI_SQ, rel=1e-14)

    @pytest.mark.parametrize("t", BAD_STEPS)
    def test_only_finite_nonnegative_time_accepted(self, t):
        if t == 0:
            assert np.all(semigroup_factors(3, t) == 1.0)
        else:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                semigroup_factors(3, t)

    def test_monotone_in_time_and_mode(self):
        assert np.all(semigroup_factors(8, 0.1) > semigroup_factors(8, 0.2))
        assert np.all(np.diff(semigroup_factors(8, 0.1)) < 0)

    def test_graceful_underflow(self):
        assert np.all(semigroup_factors(100, 100.0) == 0.0)

    @pytest.mark.parametrize("n", [1, 7, 64, 1024])
    @pytest.mark.parametrize("t", [0.0, 5e-324, 1e300])
    def test_equals_exp_bit_for_bit(self, n, t):
        # The guarded exponential the coarsener shares: exp(-lambda_i t) itself,
        # with an overflowing lambda_i t taken to its limit 0.
        with np.errstate(over="ignore"):
            expected = np.exp(-eigenvalues(n) * t)
        assert semigroup_factors(n, t).tobytes() == expected.tobytes()

    @given(
        i=st.integers(min_value=1, max_value=64),
        s=st.floats(min_value=0.0, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_semigroup_law(self, i, s, t):
        combined = semigroup_factors(i, s + t)[-1]
        split = semigroup_factors(i, s)[-1] * semigroup_factors(i, t)[-1]
        assert split == pytest.approx(combined, rel=1e-14, abs=1e-300)


class TestPhiFactor:
    def test_mode_one_unit_tau(self):
        assert phi_factors(1, 1.0)[0] == pytest.approx(PHI_MODE1_TAU1, rel=1e-14)

    def test_small_argument_limit_returns_tau(self):
        tau = 1e-12 / PI_SQ   # lambda_1 tau = 1e-12
        assert phi_factors(1, tau)[0] == pytest.approx(tau, rel=1e-12)

    @pytest.mark.parametrize("tau", BAD_STEPS)
    def test_invalid_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            phi_factors(3, tau)

    @given(
        i=st.integers(min_value=1, max_value=4096),
        tau=st.floats(min_value=1e-12, max_value=10.0),
    )
    def test_bounds_and_partition_identity(self, i, tau):
        phi = phi_factors(i, tau)[-1]
        assert 0.0 < phi < tau
        # phi lambda + exp(-lambda tau) telescopes to 1 exactly.
        assert phi * eigenvalue(i) + semigroup_factors(i, tau)[-1] == pytest.approx(
            1.0, abs=1e-15
        )


    @pytest.mark.parametrize("horizon", [1e306, 1e308])
    def test_overflowing_argument_takes_the_limit(self, horizon):
        # One step of an 8-step path: at 1e308, lambda_i tau overflows for
        # modes 2..8, and (1 - e^{-x}) / lambda must still come out 1 / lambda.
        tau = horizon / 8
        assert np.array_equal(semigroup_factors(8, tau), np.zeros(8))
        assert phi_factors(8, tau) == pytest.approx(1 / eigenvalues(8), rel=1e-15)


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


def run_fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports this tamedac."""
    src = str(Path(tamedac.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


DST_SIZES = [1, 2, 9, 39, 319, 2559]
# Midpoint grids of the drift: dealias_grid_size(n) for n = 1, 16, 128, 1024,
# the even-content grid of n = 16, and a size with a large prime factor.
MIDPOINT_SIZES = [3, 36, 64, 270, 2160, 2 * 1031]


class TestDst1:
    def test_extension_is_loaded_directly(self):
        assert callable(_load_pocketfft(find_spec("scipy").submodule_search_locations[0]).dst)

    def test_missing_extension_fails_naming_the_directory(self, tmp_path):
        with pytest.raises(ImportError) as info:
            _load_pocketfft(str(tmp_path))
        assert repr(str(tmp_path)) in str(info.value)

    def test_missing_scipy_fails_at_import(self):
        out = run_fresh(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "try:\n"
            "    import tamedac\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        assert out.startswith("ImportError scipy's pocketfft extension")
        assert "'<no scipy>'" in out

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("k", DST_SIZES)
    def test_equals_public_scipy_dst(self, k, rows):
        x = np.random.default_rng(k).standard_normal((rows, k))
        expected = dst(x, type=1)
        assert np.array_equal(_dst(x, 1), expected)
        assert _dst(x, 1, overwrite=True) is x
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("kind", [2, 3])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("k", MIDPOINT_SIZES)
    def test_midpoint_types_on_every_route(self, k, rows, kind):
        # The drift's DST-II and DST-III, in place or not, give the public
        # scipy.fft.dst bit for bit; in place, into the array passed.
        x = np.random.default_rng(k + rows + kind).standard_normal((rows, k))
        expected = dst(x, type=kind)
        assert np.array_equal(_dst(x, kind), expected)
        work = x.copy()
        assert _dst(work, kind, True) is work
        assert np.array_equal(work, expected)

    def test_converge_never_imports_scipy_fft(self):
        out = run_fresh(
            "import json, sys\n"
            "import tamedac.cli\n"
            "unwanted = ('scipy.fft', 'scipy.special')\n"
            "after_import = [m for m in unwanted if m in sys.modules]\n"
            "code = tamedac.cli.main(['converge', '--resolutions', '4,8', '--ref', '16',\n"
            "                         '--samples', '2'])\n"
            "print(json.dumps([code, after_import, [m for m in unwanted if m in sys.modules]]))\n"
        )
        assert json.loads(out.splitlines()[-1]) == [0, [], []]

    def test_studies_never_import_the_process_pool(self, tmp_path):
        out = run_fresh(
            "import json, os, sys\n"
            "import tamedac.cli\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "unwanted = ('multiprocessing', 'concurrent.futures.process')\n"
            "def loaded():\n"
            "    return [m for m in unwanted if m in sys.modules]\n"
            "seen = [loaded()]\n"
            "study = ['converge', '--resolutions', '4,8', '--ref', '16', '--samples', '4']\n"
            "codes = [tamedac.cli.main(study + ['--out', 'serial.csv'])]\n"
            "seen.append(loaded())\n"
            "codes.append(tamedac.cli.main(['simulate', '--resolutions', '8', '--steps', '16',\n"
            "                               '--out', 's.csv']))\n"
            "codes.append(tamedac.cli.main(['diagnose', '--resolutions', '8', '--samples', '2',\n"
            "                               '--out', 'd.csv']))\n"
            "seen.append(loaded())\n"
            "codes.append(tamedac.cli.main(study + ['--threads', '2', '--out', 'forked.csv']))\n"
            "print(json.dumps([codes, seen, bool(loaded())]))\n"
        )
        assert json.loads(out.splitlines()[-1]) == [[0, 0, 0, 0], [[], [], []], False]
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_scipy_fft_imports_after_tamedac(self):
        out = run_fresh(
            "import numpy as np\n"
            "from tamedac.spectral import _dst\n"
            "import scipy.fft\n"
            "x = np.random.default_rng(5).standard_normal((3, 39))\n"
            "print(np.array_equal(scipy.fft.dst(x, type=1), _dst(x, 1)),\n"
            "      np.allclose(scipy.fft.idst(scipy.fft.dst(x, type=1), type=1), x))\n"
        )
        assert out.split() == ["True", "True"]


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
        gap = np.sqrt(np.linalg.norm(fld.coeffs) ** 2 - np.linalg.norm(kept.coeffs) ** 2)
        assert gap == pytest.approx(np.linalg.norm(tail), rel=1e-12)
        assert np.linalg.norm(kept.coeffs) <= np.linalg.norm(fld.coeffs)


class TestNorms:
    def test_pythagorean(self):
        assert _row_norms(np.array([3.0, 4.0]))[0] == pytest.approx(5.0, rel=1e-15)

    def test_zero_field(self):
        assert _row_norms(np.zeros(3))[0] == 0.0

    @pytest.mark.parametrize("n", [1, 5, 17, 64])
    def test_parseval_against_grid_quadrature(self, n):
        fld = random_field(n, seed=100 + n)
        grid = synthesize(fld, 4 * n)
        assert quadrature_norm(grid.values) == pytest.approx(_row_norms(fld.coeffs)[0], rel=1e-10)

    @pytest.mark.parametrize("n", [1, 5, 17, 64])
    def test_rows_of_a_block_equal_single_field_norms(self, n):
        block = np.stack([random_field(n, seed=s, scale=10.0 ** s).coeffs for s in range(5)])
        for row, l2, sup in zip(block, _row_norms(block)[:, 0], _sup_norms(block)):
            assert l2 == np.linalg.norm(row)
            assert sup == _sup_norms(row)


class TestSupNormEstimate:
    def test_first_mode_peak(self):
        assert _sup_norms(np.array([1.0])) <= np.sqrt(2.0)
        # Padded to 100 modes, the first mode is sampled on x_k = k / 401,
        # whose point nearest 1/2 is pi / 802 away from the peak sqrt(2).
        padded = np.eye(1, 100)[0]
        assert _sup_norms(padded) == pytest.approx(np.sqrt(2.0) * np.cos(np.pi / 802), rel=1e-13)

    def test_zero_field(self):
        assert _sup_norms(np.zeros(5)) == 0.0


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


def five_smooth(k: int) -> bool:
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_dealias_grid_size():
    # The smallest 5-smooth midpoint grid on which the cubic is exact (K > 2N).
    for n in range(1, 2049):
        k = dealias_grid_size(n)
        assert k > 2 * n and five_smooth(k)
        assert not any(five_smooth(j) for j in range(2 * n + 1, k))
    assert dealias_grid_size(1024) == 2160
    assert dealias_grid_size(16) == 36
    assert dealias_grid_size(1) == 3
    assert dealias_grid_size(3) == 8


# Every 5-smooth number up to 2^42, ascending: the oracle of the grid sizes
# below for every N up to 2^40.
FIVE_SMOOTH = sorted(2 ** a * 3 ** b * 5 ** c for a in range(43) for b in range(27)
                     for c in range(19) if 2 ** a * 3 ** b * 5 ** c <= 2 ** 42)
EVEN_DRIFT = ModelParams(a3=-1.0, a2=0.8, a1=1.0, a0=0.3, horizon_T=1.0,
                         initial_data=SpectralField([0.5]))


@given(n=st.integers(1, 2 ** 40))
@example(n=2 ** 40)
def test_grid_sizes_are_the_least_five_smooth(n):
    # The exact grid: least 5-smooth K > 2N; the even drift's: least K >= 4N.
    assert dealias_grid_size(n) == FIVE_SMOOTH[bisect_left(FIVE_SMOOTH, 2 * n + 1)]
    assert _resolve_grid(EVEN_DRIFT, n, None) == FIVE_SMOOTH[bisect_left(FIVE_SMOOTH, 4 * n)]


@pytest.mark.parametrize("n", [2 ** 61, 2 ** 62, 2 ** 64 - 1])
def test_grid_past_the_largest_fft_names_n_modes(n):
    # pocketfft refuses lengths above about 1.68e18, and past 2^63 a length
    # does not fit its C argument; both are a ValueError naming the field.
    for grid in (lambda: dealias_grid_size(n), lambda: _resolve_grid(EVEN_DRIFT, n, None)):
        with pytest.raises(ValueError, match="^n_modes must "):
            grid()
