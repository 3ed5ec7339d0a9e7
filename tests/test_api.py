"""The public surface: every exported name resolves, removed options stay
removed, and every field kind agrees with its layout."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import rayfields
from rayfields import fields, fitting
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


# Each kind's constructor, pinned: positional construction depends on the
# names, order, types and default of the fields its layout declares.
SIGNATURES = {
    "gaussian_blob": "(center: 'np.ndarray', scale: 'np.ndarray', amplitude: 'float', color: 'np.ndarray', "
                     "sigma_max: 'float | None' = 10.0) -> None",
    "soft_sphere": "(center: 'np.ndarray', radius: 'float', softness: 'float', amplitude: 'float', "
                   "color: 'np.ndarray', sigma_max: 'float | None' = 10.0) -> None",
    "soft_box": "(center: 'np.ndarray', half_size: 'np.ndarray', softness: 'float', amplitude: 'float', "
                "color: 'np.ndarray', sigma_max: 'float | None' = 10.0) -> None",
    "ground_plane": "(softness: 'float', amplitude: 'float', color_a: 'np.ndarray', color_b: 'np.ndarray', "
                    "checker_size: 'float', dome_radius: 'float', dome_color: 'np.ndarray', "
                    "sigma_max: 'float | None' = 10.0) -> None",
}


@pytest.mark.parametrize("cls", fields.FIELD_KINDS.values(), ids=lambda cls: cls.kind)
def test_field_kind_follows_its_layout(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls.kind]
    names = [f.name for f in dataclasses.fields(cls) if f.name != "sigma_max"]
    assert [name for name, _, _ in cls.layout] == names
    assert {domain for _, _, domain in cls.layout} <= set(fields._DOMAINS)
    domain_of = [domain for _, size, domain in cls.layout for _ in range(size)]
    assert fields.field_from_params(cls.kind, [1.0] * len(domain_of)).n_params == len(domain_of)
    starts = [sum(size for _, size, _ in cls.layout[:i]) for i in range(len(cls.layout))]
    color_starts = [at for at, (_, size, domain) in zip(starts, cls.layout) if domain == "unit" and size == 3]
    assert color_starts and cls.color_offsets == tuple(color_starts)
    assert all(type(at) is int for at in cls.color_offsets)
    assert len(set(cls.density_params)) == len(cls.density_params)
    assert set(cls.density_params) <= set(range(len(domain_of)))
    assert all(domain_of[i] != "unit" for i in cls.density_params)


def test_domain_table_is_in_fields_only():
    # fitting reads its box from the scene's layout; it holds no table of its own.
    assert not hasattr(fitting, "_DOMAINS") and all(v is not fields._DOMAINS for v in vars(fitting).values())
    assert not hasattr(fitting, "_MIN_WIDTH")
    # Every projection box lies inside its constructor rule, so a projected
    # parameter vector always builds a field.
    for test, _, (lo, hi) in fields._DOMAINS.values():
        assert lo < hi
        assert test is None or all(test(v) for v in (lo, hi) if math.isfinite(v))
