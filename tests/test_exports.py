"""Every exported name resolves, in the package and in each submodule,
and so does every holonewt module and name that perfbench relies on."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import holonewt

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(holonewt.__path__))


def unresolved(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_package_exports_resolve():
    assert unresolved(holonewt) == []


def test_submodules_are_found():
    assert {"linalg", "network", "newton", "steplength", "training"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"holonewt.{name}")
    assert unresolved(module) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_modules():
    """The module keys of the tracer's TARGETS, read from its source."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py assigns no TARGETS")


def perfbench_imports():
    """(module, name) for each `from holonewt... import name` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "holonewt":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("name", traced_modules())
def test_traced_module_imports(name):
    """A module the traced benchmark pass wraps still exists; its
    attributes may be gone, which the tracer lists as absent."""
    importlib.import_module(name)


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    # the reader sees the imports at all
    assert ("holonewt.network", "NetworkTopology") in imports
    for module, name in imports:
        parent = importlib.import_module(module)
        if not hasattr(parent, name):
            importlib.import_module(f"{module}.{name}")
