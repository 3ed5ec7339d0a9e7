"""The public surface: every exported name resolves, and removed options
stay removed."""

import importlib
import inspect
import pkgutil

import pytest

import rayfields
from rayfields.scenegen import sample_observations

MODULES = sorted(m.name for m in pkgutil.iter_modules(rayfields.__path__) if not m.name.startswith("_"))


def test_modules_found():
    assert {"compose", "estimlab", "scenegen", "transport"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rayfields.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_exports_resolve():
    missing = [export for export in rayfields.__all__ if not hasattr(rayfields, export)]
    assert missing == []


def test_sample_observations_options():
    params = inspect.signature(sample_observations).parameters
    assert list(params) == ["scene", "grid", "seed", "n_panels", "depth_offset", "censored"]
