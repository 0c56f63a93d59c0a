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


def traced_targets():
    """The tracer's TARGETS, module -> {attribute: span name}, read from its source."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no TARGETS")


def traced_modules():
    """The module keys of the tracer's TARGETS."""
    return sorted(traced_targets())


# the modules whose every traced attribute must resolve; holonewt.training
# still names functions the single backward layer step replaced
PINNED_TRACED = ("holonewt.newton", "holonewt.gradient", "holonewt.fdcheck", "holonewt.cli")


def pinned_traced_names():
    """(module, attribute) for each name the tracer wraps in PINNED_TRACED."""
    targets = traced_targets()
    return [(module, name) for module in PINNED_TRACED for name in sorted(targets[module])]


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


@pytest.mark.parametrize("module, name", pinned_traced_names())
def test_traced_names_resolve(module, name):
    """A renamed oracle or update would read as an absent span, and its
    per-layer metric as 0."""
    assert callable(getattr(importlib.import_module(module), name, None))


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    # the reader sees the imports at all
    assert ("holonewt.network", "NetworkTopology") in imports
    for module, name in imports:
        parent = importlib.import_module(module)
        if not hasattr(parent, name):
            importlib.import_module(f"{module}.{name}")


# the names bound in holonewt.training that the traced pass wraps for
# its per-layer metrics; a renamed one would read as an absent span, and
# its metric as 0
TRAINING_TRACED = [
    "train",
    "forward",
    "error_from_trace",
    "init_weights",
    "cogradient_conj",
    "newton_update",
    "pseudo_newton_update",
    "one_step_mu",
    "apply_update",
]


@pytest.mark.parametrize("name", TRAINING_TRACED)
def test_traced_training_names_resolve(name):
    from holonewt import training

    assert callable(getattr(training, name, None))
