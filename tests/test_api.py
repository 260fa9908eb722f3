"""The public surface of the package and the hygiene of its imports.

Standard library only: the names are read from the sources with ``ast``.
"""

import ast
import inspect
from pathlib import Path

import pytest

import tamedac
from tamedac.stepper import PathBlock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tamedac"

PUBLIC_NAMES = {
    "AlignmentError", "BLOWUP_THRESHOLD", "BlowupError", "ErrorPoint", "ErrorReport",
    "GridField", "ModelParams", "MomentDiagnostics", "NoiseGrid", "NoiseKey",
    "NoiseRealization", "ResolutionError", "RunConfig", "SpectralField",
    "analyze", "coupled_terminal", "dealias_grid_size", "eigenvalue",
    "emit_csv", "emit_loglog_plot", "fit_slope", "grid_points",
    "increment_variance", "l2_norm", "load_error_csv",
    "moment_diagnostics", "nonlinearity_galerkin", "project",
    "resolution_pair", "sample_fine_increment", "sample_squared_errors",
    "simulate_path", "strong_error_study", "sup_norm_estimate", "synthesize", "tamed_drift",
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


def names_imported_from_package(path: Path) -> set[str]:
    """Names a script takes from ``from tamedac import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tamedac"
            for alias in node.names}


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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / module) == set()
