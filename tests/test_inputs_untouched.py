"""No public batch call writes into its caller's arrays.

The kernels and the compositor overwrite temporaries they allocated
themselves; a caller's points, ray samples, ray grids and sample batches
are read only.  Each call here runs once on read-only inputs (it must
succeed, with the same bits as on writable copies) and once on writable
inputs, which must hold the same bytes afterwards.
"""

import numpy as np
import pytest

import rayfields as rf
from rayfields.compose import composite_eval
from rayfields.losses import RgbdBatch
from rayfields.transport import RaySamples, quadrature_render


def _scene(n: int) -> rf.CompositeScene:
    """n components cycling sphere, ground, blob and box."""
    kinds = [
        rf.SoftSphereField(center=(0.2, -0.1, 0.5), radius=0.5, softness=0.05, amplitude=9.0, color=(0.9, 0.2, 0.1)),
        rf.GroundPlaneField(softness=0.05, amplitude=9.0, color_a=(0.6, 0.6, 0.6), color_b=(0.3, 0.3, 0.3),
                            checker_size=0.5, dome_radius=6.0, dome_color=(0.5, 0.6, 0.7)),
        rf.GaussianBlobField(center=(-0.6, 0.5, 0.6), scale=(0.4, 0.3, 0.5), amplitude=7.0, color=(0.1, 0.8, 0.3)),
        rf.SoftBoxField(center=(0.7, 0.6, 0.4), half_size=(0.3, 0.4, 0.4), softness=0.04, amplitude=8.0,
                        color=(0.2, 0.3, 0.9)),
    ]
    return rf.CompositeScene(tuple(kinds[i % 4] for i in range(n)), t_far=12.0)


SCENES = [pytest.param(_scene(n), id=f"n{n}") for n in (1, 2, 5)]
QUAD = rf.QuadratureConfig(n_coarse=16, n_fine=32, seed=3)


def _points() -> np.ndarray:
    pts = np.random.default_rng(8).uniform((-2.0, -2.0, -0.3), (2.0, 2.0, 2.0), (60, 3))
    pts[-1] = (40.0, 40.0, 40.0)  # past the dome
    return pts


def _grid(n_rays: int) -> rf.RayGrid:
    camera = rf.Camera(position=(4.0, 1.0, 2.0), look_at=(0.0, 0.0, 0.4), width=n_rays, height=1)
    return rf.pinhole_rays(camera, 12.0)


def _readonly(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _flat(value) -> list[bytes]:
    """Every array and scalar of a call's result, as bytes."""
    if isinstance(value, np.ndarray):
        return [value.tobytes()]
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _flat(v)]
    if isinstance(value, dict):
        return [b for k in sorted(value) for b in _flat(value[k])]
    if hasattr(value, "__dataclass_fields__"):
        return [b for name in value.__dataclass_fields__ for b in _flat(getattr(value, name))]
    return [np.asarray(value).tobytes()]


def _check(call, make_inputs, inputs_of):
    """``call(*make_inputs())`` on read-only inputs equals the call on
    writable inputs, and leaves writable inputs as they were."""
    frozen = make_inputs()
    _readonly(*inputs_of(*frozen))
    got = call(*frozen)
    live = make_inputs()
    before = [a.copy() for a in inputs_of(*live)]
    want = call(*live)
    assert _flat(got) == _flat(want)
    for old, new in zip(before, inputs_of(*live)):
        assert old.tobytes() == new.tobytes()


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("layout", ["c", "channel_major"])
@pytest.mark.parametrize("query", ["evaluate", "density", "density_components", "evaluate_components"])
def test_point_queries(scene, layout, query):
    def make():
        pts = _points()
        return (pts if layout == "c" else np.ascontiguousarray(pts.T).T,)

    _check(lambda pts: getattr(scene, query)(pts), make, lambda pts: [pts])
    _check(lambda pts: [getattr(scene, query)(p) for p in pts], make, lambda pts: [pts])


@pytest.mark.parametrize("scene", SCENES)
def test_field_point_queries(scene):
    for comp in scene.components:
        for query in ("evaluate", "density"):
            _check(lambda pts: getattr(comp, query)(pts), lambda: (_points(),), lambda pts: [pts])


@pytest.mark.parametrize("scene", SCENES)
def test_composite_eval(scene):
    _check(lambda pts: [composite_eval(scene, p) for p in pts], lambda: (_points(),), lambda pts: [pts])


def test_quadrature_render():
    def make():
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(0.0, 5.0, 40))
        delta = np.diff(np.concatenate([[0.0], (t[1:] + t[:-1]) / 2, [5.0]]))
        return (RaySamples(t, rng.uniform(0.0, 3.0, 40), rng.uniform(0.0, 1.0, (40, 3)), delta),)

    _check(quadrature_render, make, lambda s: [s.t, s.sigma, s.color, s.delta])


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("n_rays", [1, 2, 7])
def test_render_ray_grid(scene, n_rays):
    _check(lambda grid: rf.render_ray_grid(scene, grid, QUAD), lambda: (_grid(n_rays),),
           lambda g: [g.origins, g.directions, g.t_fars])


@pytest.mark.parametrize("scene", SCENES)
def test_sample_observations(scene):
    def call(grid):
        samples = rf.sample_observations(scene, grid, seed=2, n_panels=64, censored="boundary")
        return [(s.ray.origin, s.ray.direction, s.ray.t_far, s.color, s.depth) for s in samples]

    _check(call, lambda: (_grid(9),), lambda g: [g.origins, g.directions, g.t_fars])


def _observations(scene):
    return rf.sample_observations(scene, _grid(9), seed=5, n_panels=64, censored="boundary")


def _sample_arrays(samples):
    return [a for s in samples for a in (s.ray.origin, s.ray.direction, s.color)]


def _packed(scene):
    return (RgbdBatch.from_samples(_observations(scene)),)


@pytest.mark.parametrize("scene", SCENES)
def test_total_loss(scene):
    config = rf.LossConfig()
    _check(lambda samples: rf.total_loss(scene, samples, 3, config, 11), lambda: (_observations(scene),),
           _sample_arrays)
    _check(lambda arrays: rf.total_loss(scene, arrays, 3, config, 11), lambda: _packed(scene),
           lambda a: [a.packed])


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("iteration", [3, 100_000], ids=["k_o_zero", "k_o_max"])
def test_loss_gradient(scene, iteration):
    config = rf.LossConfig()
    _check(lambda samples: rf.loss_gradient(scene, samples, iteration, config, 11), lambda: (_observations(scene),),
           _sample_arrays)
    _check(lambda arrays: rf.loss_gradient(scene, arrays, iteration, config, 11), lambda: _packed(scene),
           lambda a: [a.packed])


@pytest.mark.parametrize("scene", SCENES)
def test_fit(scene):
    """The dataset's arrays and the initial scene's parameter arrays are
    read only, through steps taken with the overlap weight off and on."""
    config = rf.FitConfig(iterations=4, batch_size=8, seed=2, learning_rate=0.02,
                          loss=rf.LossConfig(ramp_start=0, ramp_end=2))

    def make():
        return _observations(scene), scene.with_params(scene.params())

    def inputs(samples, start):
        return _sample_arrays(samples) + [v for c in start.components for v in vars(c).values()
                                          if isinstance(v, np.ndarray)]

    def call(samples, start):
        report = rf.fit(start, samples, config)
        assert report.final_scene.params().tobytes() == report.final_params.tobytes()
        return report.trace, report.final_params, report.skipped_steps

    _check(call, make, inputs)
