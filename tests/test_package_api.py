"""The public API surface: everything advertised must import and exist."""

import ast
import importlib
import pathlib

import pytest

SUBPACKAGES = [
    "repro.core",
    "repro.data",
    "repro.nn",
    "repro.secagg",
    "repro.sim",
    "repro.system",
    "repro.harness",
    "repro.obs",
    "repro.utils",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} must declare __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} is advertised but missing"


def test_top_level_exports_resolve():
    import repro

    for symbol in repro.__all__:
        assert hasattr(repro, symbol)
    assert repro.__version__


def test_headline_workflow_symbols_are_top_level():
    import repro

    for symbol in ("FederatedSimulation", "TaskConfig", "TrainingMode",
                   "LSTMLanguageModel", "DevicePopulation"):
        assert symbol in repro.__all__


@pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
def test_every_public_item_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} missing module docstring"
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{name}.{symbol} missing docstring"


CORE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
ABOVE_CORE = ("repro.secagg", "repro.system", "repro.harness", "repro.api", "repro.obs")


@pytest.mark.parametrize("path", sorted(CORE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_core_imports_nothing_above_it(path):
    """``repro.core`` is the bottom layer: no module in it may import a
    layer built on top of it — function-local imports included."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.module, node.lineno))
    offenders = [
        f"{path.name}:{lineno} imports {name}"
        for name, lineno in imported
        if any(name == top or name.startswith(top + ".") for top in ABOVE_CORE)
    ]
    assert offenders == []
