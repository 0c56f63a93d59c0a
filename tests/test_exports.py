"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

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
