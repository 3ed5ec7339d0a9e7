"""Every number a constructor or config takes is checked, never coerced.

A str, a bool, None, a complex number or a ragged nested list in place of
any one numeric argument raises TypeError, and so does a float where an
integer is wanted.  Python integers, NumPy integers and float32 values are
accepted, and reals are stored as Python floats or float64 arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayfields as rf
from rayfields.fields import FIELD_KINDS
from rayfields.losses import RgbdSample
from rayfields.scenegen import SceneGenConfig
from rayfields.transport import RaySamples

_RAY = dict(origin=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0), t_far=5.0)
_BLOB = rf.GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=5, color=(1, 0, 1))

# (constructor, valid keyword arguments).  Every real is a whole number, so
# it converts to an integer, a NumPy integer or a float32 exactly.
CASES = [(cls, {**{name: 1.0 if size == 1 else (1.0,) * size for name, size, _ in cls.layout}, "sigma_max": 10.0})
         for cls in FIELD_KINDS.values()] + [
    (rf.PiecewiseConstantRayField, dict(axis_origin=(0.0, 0.0, 0.0), axis_direction=(1.0, 0.0, 0.0),
                                        breakpoints=(0.0, 1.0, 2.0), sigmas=(1.0, 2.0),
                                        colors=((1.0, 0.0, 1.0), (0.0, 1.0, 0.0)), sigma_max=10.0)),
    (rf.Ray, _RAY),
    (rf.Camera, dict(position=(4.0, 0.0, 2.0), look_at=(0.0, 0.0, 1.0), width=8, height=8, vertical_fov=1.0,
                     up=(0.0, 0.0, 1.0))),
    (rf.CompositeScene, dict(components=(_BLOB,), t_far=40.0)),
    (RgbdSample, dict(ray=rf.Ray(**_RAY), color=(1.0, 0.0, 1.0), depth=1.0)),
    (RaySamples, dict(t=(1.0, 2.0), sigma=(1.0, 0.0), color=((1.0, 0.0, 1.0), (0.0, 1.0, 0.0)), delta=(1.0, 1.0))),
    (rf.QuadratureConfig, dict(n_coarse=8, n_fine=4, seed=0)),
    (rf.LossConfig, dict(sigma_c=1.0, delta=0.0, k_o_max=0.0, ramp_start=5, ramp_end=10, n_free_samples=1)),
    (rf.FitConfig, dict(iterations=10, batch_size=8, learning_rate=1.0, decay_every=5, decay_factor=1.0,
                        grad_clip_norm=1.0, skip_norm=1000.0, seed=0)),
    (SceneGenConfig, dict(n_objects_min=1, n_objects_max=2, placement_halfwidth=3.0, min_separation_factor=1.0,
                          max_attempts=5, max_restarts=5, size_min=1.0, size_max=2.0, resolution=8,
                          checker_size=0.0)),
]
_IDS = [cls.__name__ for cls, _ in CASES]


def _is_real(value) -> bool:
    return isinstance(value, float) or (isinstance(value, tuple) and all(map(_is_real, value)))


def _reals(kwargs) -> list[str]:
    return [name for name, value in kwargs.items() if _is_real(value)]


def _integers(kwargs) -> list[str]:
    return [name for name, value in kwargs.items() if type(value) is int]


def _each(value, f):
    """``value`` with ``f`` applied to every number in it, nesting kept."""
    return tuple(_each(v, f) for v in value) if isinstance(value, tuple) else f(value)


NON_NUMBERS = st.sampled_from(["1", "1.0", True, False, np.bool_(True), None, 1 + 0j, [1.0, [1.0]], [[1.0], 1.0]])


@pytest.mark.parametrize("cls, kwargs", CASES, ids=_IDS)
def test_valid_arguments_build(cls, kwargs):
    cls(**kwargs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_non_number_is_rejected_never_coerced(data):
    cls, kwargs = data.draw(st.sampled_from(CASES))
    name = data.draw(st.sampled_from(_reals(kwargs) + _integers(kwargs)))
    good = kwargs[name]
    bad = [NON_NUMBERS.filter(lambda v: v is not None) if name == "sigma_max" else NON_NUMBERS]  # None: no cap
    if isinstance(good, tuple):  # entry by entry: strings, bools, None
        bad.append(st.sampled_from([_each(good, str), _each(good, bool), _each(good, lambda v: None)]))
    if type(good) is int:
        bad.append(st.sampled_from([float(good), good + 0.5, np.float64(good)]))
    with pytest.raises(TypeError):
        cls(**{**kwargs, name: data.draw(st.one_of(bad))})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integers_and_numpy_numbers_are_stored_as_python_floats(data):
    cls, kwargs = data.draw(st.sampled_from([case for case in CASES if _reals(case[1])]))
    reals, integers = _reals(kwargs), _integers(kwargs)
    changed = {}
    for name in data.draw(st.lists(st.sampled_from(reals), min_size=1, unique=True)):
        kind = data.draw(st.sampled_from([int, np.int64, np.float32]))
        if isinstance(kwargs[name], float) or data.draw(st.booleans()):
            changed[name] = _each(kwargs[name], kind)
        else:
            changed[name] = np.array(kwargs[name], dtype=kind)
    for name in data.draw(st.lists(st.sampled_from(integers), unique=True)) if integers else ():
        changed[name] = data.draw(st.sampled_from([np.int64, np.int32, np.uint16]))(kwargs[name])
    built = cls(**{**kwargs, **changed})
    for name in reals:
        got, want = getattr(built, name), kwargs[name]
        if isinstance(want, float):
            assert type(got) is float and got == want
        else:
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.tolist() == np.array(want).tolist()
    for name in integers:
        assert getattr(built, name) == kwargs[name]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: rf.GaussianBlobField(center=("1", "0", "0"), scale=(1, 1, 1), amplitude="5",
                                              color=(True, False, True), sigma_max="10"), id="blob-strings-bools"),
    pytest.param(lambda: rf.GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=True, color=(1, 0, 1)),
                 id="blob-bool-amplitude"),
    pytest.param(lambda: rf.LossConfig(sigma_c=True), id="loss-bool-sigma_c"),
    pytest.param(lambda: rf.LossConfig(n_free_samples=1.5), id="loss-fractional-n_free_samples"),
    pytest.param(lambda: rf.LossConfig(ramp_start=1.5, ramp_end=2.5), id="loss-fractional-ramp"),
    pytest.param(lambda: rf.FitConfig(learning_rate=True), id="fit-bool-learning_rate"),
    pytest.param(lambda: SceneGenConfig(n_objects_min=1.5, n_objects_max=2), id="scenegen-fractional-n_objects_min"),
    pytest.param(lambda: SceneGenConfig(max_attempts=2.5), id="scenegen-fractional-max_attempts"),
    pytest.param(lambda: SceneGenConfig(resolution=8.5), id="scenegen-fractional-resolution"),
])
def test_values_that_used_to_be_coerced(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("kwargs, words", [
    ({"ramp_start": -1}, "ramp_start must be >= 0, got -1"),
    ({"ramp_end": -1, "ramp_start": -2}, "ramp_start must be >= 0, got -2"),
    ({"n_free_samples": 0}, "n_free_samples must be >= 1, got 0"),
])
def test_loss_config_counts_have_a_floor(kwargs, words):
    with pytest.raises(ValueError, match=f"^{words}$"):
        rf.LossConfig(**kwargs)


@pytest.mark.parametrize("name", ["n_objects_min", "n_objects_max", "max_attempts", "max_restarts", "resolution"])
def test_scene_gen_counts_have_a_floor(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
        SceneGenConfig(**{name: 0})
