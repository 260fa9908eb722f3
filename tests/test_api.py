"""The public surface of the package and the hygiene of its imports.

Standard library only: the names are read from the sources with ``ast``.
"""

import ast
import inspect
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tamedac
from tamedac import (
    GridField,
    ModelParams,
    NoiseGrid,
    NoiseKey,
    NoiseRealization,
    ResolutionError,
    RunConfig,
    SpectralField,
)
from tamedac.noise import Coarsener, increment_variances
from tamedac.spectral import eigenvalues, phi_factors, semigroup_factors
from tamedac.stepper import PathBlock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tamedac"

PUBLIC_NAMES = {
    "AlignmentError", "BLOWUP_THRESHOLD", "BlowupError", "ErrorPoint", "ErrorReport",
    "GridField", "ModelParams", "MomentDiagnostics", "NoiseGrid", "NoiseKey",
    "NoiseRealization", "ResolutionError", "RunConfig", "SpectralField",
    "analyze", "coupled_terminal", "dealias_grid_size", "eigenvalue",
    "emit_csv", "emit_loglog_plot", "fit_slope", "grid_points",
    "increment_variance", "load_error_csv",
    "moment_diagnostics", "nonlinearity_galerkin", "project",
    "resolution_pair", "sample_fine_increment", "sample_squared_errors",
    "simulate_path", "strong_error_study", "synthesize", "tamed_drift",
}


# Parameter names of the entry points whose options are counted: adding an
# option means editing this table.
PARAMETERS = {
    tamedac.simulate_path: ["params", "n_modes", "n_steps", "increments", "sample_index"],
    tamedac.stepper.PathResult: ["terminal"],
    PathBlock.__init__: ["self", "params", "coeffs", "tau", "sample_indices", "tamed",
                         "segments"],
    tamedac.moment_diagnostics: ["config", "n_steps", "tamed", "with_noise"],
    tamedac.strong_error_study: ["config", "threads"],
}


PARAMS = ModelParams.cubic_double_well()
FIELD = SpectralField([1.0])
GRID = NoiseGrid(n_modes=4, m_fine=8, tau_fine=0.125)
CONFIG = RunConfig(mode="joint", resolutions=(2, 4), ref_resolution=8, samples=1,
                   master_seed=0, horizon_T=1.0, params=PARAMS)

# Every public count, index and grid size: (entry point, field, call with the value v).
COUNTS = [
    ("SpectralField.zeros", "n_modes", lambda v: SpectralField.zeros(v)),
    ("grid_points", "grid_size", lambda v: tamedac.grid_points(v)),
    ("eigenvalues", "n_modes", lambda v: eigenvalues(v)),
    ("eigenvalue", "mode_index", lambda v: tamedac.eigenvalue(v)),
    ("increment_variance", "mode_index", lambda v: tamedac.increment_variance(v, 0.1)),
    ("analyze", "n_modes", lambda v: tamedac.analyze(GridField(np.zeros(8)), v)),
    ("project", "n_target", lambda v: tamedac.project(FIELD, v)),
    ("synthesize", "grid_size", lambda v: tamedac.synthesize(FIELD, v)),
    ("dealias_grid_size", "n_modes", lambda v: tamedac.dealias_grid_size(v)),
    ("nonlinearity_galerkin", "grid_size",
     lambda v: tamedac.nonlinearity_galerkin(PARAMS, FIELD, v)),
    ("tamed_drift", "grid_size", lambda v: tamedac.tamed_drift(PARAMS, FIELD, 0.1, v)),
    ("NoiseGrid", "n_modes", lambda v: NoiseGrid(v, 8, 0.125)),
    ("NoiseGrid", "m_fine", lambda v: NoiseGrid(4, v, 0.125)),
    ("NoiseGrid.for_horizon", "n_modes", lambda v: NoiseGrid.for_horizon(1.0, 8, v)),
    ("NoiseGrid.for_horizon", "m_fine", lambda v: NoiseGrid.for_horizon(1.0, v, 4)),
    ("Coarsener", "n_steps", lambda v: Coarsener(GRID, 4, v)),
    ("increments", "n_steps", lambda v: NoiseRealization(GRID, 0, 0).increments(4, v)),
    ("at_initial_data", "n_modes", lambda v: PathBlock.at_initial_data(PARAMS, v, 4, (0,))),
    ("at_initial_data", "n_steps", lambda v: PathBlock.at_initial_data(PARAMS, 4, v, (0,))),
    ("simulate_path", "n_modes", lambda v: tamedac.simulate_path(PARAMS, v, 4)),
    ("simulate_path", "n_steps", lambda v: tamedac.simulate_path(PARAMS, 4, v)),
    ("coupled_terminal", "n_modes",
     lambda v: tamedac.coupled_terminal(PARAMS, NoiseRealization(GRID, 0, 0), v, 8)),
    ("coupled_terminal", "n_steps",
     lambda v: tamedac.coupled_terminal(PARAMS, NoiseRealization(GRID, 0, 0), 4, v)),
    ("moment_diagnostics", "n_steps", lambda v: tamedac.moment_diagnostics(CONFIG, n_steps=v)),
    ("strong_error_study", "threads", lambda v: tamedac.strong_error_study(CONFIG, threads=v)),
    ("resolution_pair", "resolution", lambda v: tamedac.resolution_pair("joint", v, 8)),
    ("resolution_pair", "ref_resolution", lambda v: tamedac.resolution_pair("joint", 4, v)),
]
# Every public step size and horizon, in the same form; only t may be 0.
STEP_SIZES = [
    ("phi_factors", "tau", lambda v: phi_factors(4, v)),
    ("increment_variances", "tau", lambda v: increment_variances(4, v)),
    ("increment_variance", "tau", lambda v: tamedac.increment_variance(1, v)),
    ("tamed_drift", "tau", lambda v: tamedac.tamed_drift(PARAMS, FIELD, v)),
    ("semigroup_factors", "t", lambda v: semigroup_factors(4, v)),
    ("NoiseGrid", "tau_fine", lambda v: NoiseGrid(4, 8, v)),
    ("NoiseGrid.for_horizon", "horizon", lambda v: NoiseGrid.for_horizon(v, 8, 4)),
    ("ModelParams", "horizon_T", lambda v: replace(PARAMS, horizon_T=v)),
    ("RunConfig", "horizon_T", lambda v: replace(CONFIG, horizon_T=v)),
]
# The drift coefficients: every one finite, a3 also negative.
COEFFICIENTS = [("ModelParams", name, lambda v, name=name: replace(PARAMS, **{name: v}))
                for name in ("a3", "a2", "a1", "a0")]
BOUNDARY_CASES = (
    [(*entry, v) for entry in COUNTS for v in (2.5, 4.0, True, 0, -1)]
    + [(*entry, v) for entry in STEP_SIZES for v in (np.nan, np.inf, -np.inf, 0.0, -1.0)
       if not (entry[1] == "t" and v == 0)]
    + [(*entry, v) for entry in COEFFICIENTS
       for v in (np.nan, np.inf, -np.inf, True, "x", 10 ** 400,
                 *((0.0, 1.0) if entry[1] == "a3" else ()))]
)


@pytest.mark.parametrize("entry, field, call, value", BOUNDARY_CASES,
                         ids=[f"{entry}-{field}-{value!r:.20}"
                              for entry, field, _, value in BOUNDARY_CASES])
def test_out_of_contract_arguments_name_their_field(entry, field, call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be "):
        call(value)


def test_drift_coefficients_are_stored_as_floats():
    params = replace(PARAMS, a3=Fraction(-1), a1=np.float32(1.5))
    assert type(params.a3) is type(params.a1) is float
    assert (params.a3, params.a1) == (-1.0, 1.5)


def test_run_config_rejects_a_finest_step_that_underflows():
    with pytest.raises(ValueError, match=r"^horizon_T / ref_resolution must be positive"):
        replace(CONFIG, horizon_T=5e-324, params=replace(PARAMS, horizon_T=5e-324))


# Every site where a grid is too small for the modes asked of it.
TOO_FEW_POINTS = {
    "synthesize": lambda: tamedac.synthesize(SpectralField.zeros(8), 4),
    "analyze": lambda: tamedac.analyze(GridField(np.zeros(4)), 8),
    "Coarsener": lambda: Coarsener(GRID, 8, 8),
    "nonlinearity_galerkin": lambda: tamedac.nonlinearity_galerkin(
        PARAMS, SpectralField.zeros(8), 10),
    "sample_fine_increment": lambda: tamedac.sample_fine_increment(NoiseKey(0, 0, 5, 0), GRID),
}


@pytest.mark.parametrize("site", TOO_FEW_POINTS)
def test_grid_too_small_raises_resolution_error(site):
    with pytest.raises(ResolutionError):
        TOO_FEW_POINTS[site]()


@pytest.mark.parametrize("value", [2.5, 4.0, True, -1])
def test_sample_index_is_checked(value):
    with pytest.raises(ValueError, match="^sample_index must be an integer"):
        tamedac.sample_squared_errors(CONFIG, value)


def names_imported_from_package(path: Path, submodules: bool = False) -> set[str]:
    """Names a script takes from ``from tamedac import ...`` and, if
    `submodules`, from ``from tamedac.<module> import ...`` too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module is not None
            and (node.module == "tamedac"
                 or submodules and node.module.startswith("tamedac."))
            for alias in node.names}


def names_read(path: Path) -> set[str]:
    """Names a module loads, bare or as an attribute."""
    return names_loaded(ast.parse(path.read_text(encoding="utf-8")))


def names_loaded(tree: ast.AST) -> set[str]:
    """Names a syntax tree loads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unused_imports(path: Path) -> set[str]:
    """Names a module imports but never refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_public_names_are_pinned():
    assert len(tamedac.__all__) == len(set(tamedac.__all__))
    assert set(tamedac.__all__) == PUBLIC_NAMES
    for name in tamedac.__all__:
        assert getattr(tamedac, name) is not None


@pytest.mark.parametrize("function", PARAMETERS, ids=lambda f: f.__qualname__)
def test_parameters_are_pinned(function):
    assert list(inspect.signature(function).parameters) == PARAMETERS[function]


@pytest.mark.parametrize("script", ["tests/test_acceptance.py", "perfbench/traced.py"])
def test_imported_names_are_exported(script):
    wanted = names_imported_from_package(ROOT / script)
    assert wanted
    assert wanted <= set(tamedac.__all__)


def test_every_public_name_has_a_reader():
    # A public name is read by the package itself, or imported by the
    # acceptance tests or the benchmark's traced run; the unit tests alone
    # do not keep a name public.
    readers = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            readers |= names_read(path)
    for script in ("tests/test_acceptance.py", "perfbench/traced.py"):
        readers |= names_imported_from_package(ROOT / script, submodules=True)
    assert set(tamedac.__all__) - readers == set()


def module_level_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The functions, classes and constants a module defines at its top
    level, each with the statement that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, node) for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name))
    return defined


def test_every_module_level_name_has_a_reader():
    # A name the package defines is read by the package outside its own
    # definition, or is public; the tests alone do not keep one.  Dunder
    # names (__all__, __version__) are read by the import system and tools.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    statements = [(node, names_loaded(node)) for tree in trees.values() for node in tree.body]
    unread = {f"{module}::{name}" for module, tree in trees.items()
              for name, definition in module_level_names(tree).items()
              if not name.startswith("__") and name not in tamedac.__all__
              and not any(name in read for node, read in statements if node is not definition)}
    assert unread == set()


# Package modules by file name, test modules by their path from the root.
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in (ROOT / "tests").glob("*.py")})


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module]) == set()
