"""The package's layers, read from its source with ``ast``.

Only ``model`` knows the spin-phonon product space: its layout, the chain
pairing and the interaction picture.  The spin-sector modules import
neither ``model`` nor the integrator, and ``model`` builds on the spin
algebra alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dickesim"
SPIN_SECTOR = ("observables", "certification", "measurement", "dark_state")


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(module):
    """The package modules that ``module`` imports anywhere in its code,
    lazy imports inside functions included."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if node.level == 0:
                if path.split(".")[0] != "dickesim":
                    continue  # another package
                path = path.removeprefix("dickesim").lstrip(".")
            if path:
                names.add(path.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dickesim."))
    return names


def _identifiers(module):
    """Every variable, argument, attribute and keyword name in ``module``."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def test_the_import_reader_sees_each_form():
    # ``from .model import ...``, ``from . import ...`` and a lazy import
    # inside a function
    assert {"model", "observables", "dark_state"} <= _package_imports("evolution")
    assert {"evolution", "model", "cli"} <= _package_imports("repro")


@pytest.mark.parametrize("module", SPIN_SECTOR)
def test_spin_sector_modules_import_neither_model_nor_evolution(module):
    assert not _package_imports(module) & {"model", "evolution"}


def test_model_imports_only_spin_algebra_and_errors():
    assert _package_imports("model") <= {"spin_algebra", "errors"}


def test_observables_names_no_phonon_truncation():
    assert "n_max" not in _identifiers("observables")


def test_only_model_expands_the_full_hamiltonian():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert [module for module in modules if "expand" in _identifiers(module)] == ["model"]
