"""Supervised rays as one checked ``RgbdBatch``.

Every producer of supervised rays (``sample_observations``,
``surface_samples``, ``samples_from_views`` and the CLI's fit data load)
returns an ``RgbdBatch``, checked once, as arrays, when it is built.  These
tests hold it to the checked constructors: each element equals the sample
that ``Ray`` and ``RgbdSample`` build from the same row, errors keep their
type, message and first-bad-row order, the unit-length tolerance is decided
as ``Ray`` decides it, ulp by ulp, and neither a clean grid nor reading its
elements runs a per-object check.  The batch's rows are read-only, and
``fit`` on a batch equals ``fit`` on its list of samples without restacking.
"""

import math

import numpy as np
import pytest

import rayfields as rf
from rayfields import cli, images
from rayfields.geometry import _UNIT_TOL, Camera, Ray, RayGrid, pinhole_rays, rig_views
from rayfields.losses import RgbdBatch, RgbdSample
from rayfields.scenedoc import load_scene
from rayfields.scenegen import (GroundTruth, ground_truth_maps, render_dataset, sample_observations,
                                samples_from_views, surface_samples)
from rayfields.transport import QuadratureConfig

from references import reference_sample_observations


def _scene():
    blob = rf.GaussianBlobField(center=(0.0, 0.0, 0.6), scale=(0.5, 0.5, 0.5), amplitude=10.0,
                                color=(0.8, 0.1, 0.1))
    box = rf.SoftBoxField(center=(0.6, -0.7, 0.4), half_size=(0.3, 0.3, 0.4), softness=0.04, amplitude=8.0,
                          color=(0.1, 0.7, 0.2))
    ground = rf.GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.62,) * 3, color_b=(0.52,) * 3,
                                 checker_size=0.5, dome_radius=30.0, dome_color=(0.55, 0.6, 0.68))
    return rf.CompositeScene((blob, box, ground), t_far=40.0)


def _camera(size=16):
    return Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=size, height=size)


def _checked(grid: RayGrid, depths: np.ndarray, colors_of, keep=True) -> list:
    """The supervised rays of a grid as the checked constructors build them,
    one row at a time (the rows with a finite depth inside (0, t_far) that
    ``keep`` allows; ``colors_of(rows)`` gives their colors)."""
    rows = np.flatnonzero(np.isfinite(depths) & (depths > 0.0) & (depths < grid.t_fars) & keep)
    colors = colors_of(rows)
    return [RgbdSample(ray=grid.ray(int(i)), color=colors[j], depth=float(depths[i])) for j, i in enumerate(rows)]


def _checked_views(cameras, rgbs, depths, t_far, masks=None) -> list:
    out = []
    for v, camera in enumerate(cameras):
        flat = rgbs[v].reshape(-1, 3)
        keep = True if masks is None else masks[v].ravel() > 0
        out += _checked(pinhole_rays(camera, t_far), depths[v].ravel(), lambda rows: flat[rows], keep)
    return out


def _same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (3,)
    assert got.tobytes() == want.tobytes()


def _assert_same_samples(batch, want: list) -> None:
    """``batch`` is an ``RgbdBatch`` whose elements, by iteration and by
    index, equal the checked samples ``want`` by value, dtype and type."""
    assert type(batch) is RgbdBatch and type(want) is list and len(batch) == len(want) > 0
    assert not batch.packed.flags.writeable
    for index, (a, b) in enumerate(zip(batch, want)):
        for got in (a, batch[index], batch[index - len(batch)]):
            assert type(got) is type(b) is RgbdSample and type(got.ray) is type(b.ray) is Ray
            assert type(got.depth) is type(b.depth) is float and got.depth == b.depth
            assert type(got.ray.t_far) is type(b.ray.t_far) is float and got.ray.t_far == b.ray.t_far
            _same_array(got.ray.origin, b.ray.origin)
            _same_array(got.ray.direction, b.ray.direction)
            _same_array(got.color, b.color)
    with pytest.raises(IndexError):
        batch[len(batch)]


def _generated(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["generate", "--out", str(data), "--scene-seed", "2", "--resolution", "12", "--views", "2",
            "--n-coarse", "16", "--n-fine", "16"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    return data, load_scene(data / "scene.json")


class TestSameAsCheckedConstructors:
    def test_sample_observations(self):
        scene = _scene()
        grid = pinhole_rays(_camera(), scene.t_far)
        for censored in ("drop", "boundary"):
            got = sample_observations(scene, grid, seed=3, n_panels=256, censored=censored)
            _assert_same_samples(got, reference_sample_observations(scene, grid, 3, 256, 0.0, censored))

    def test_surface_samples(self):
        scene = _scene()
        grid = pinhole_rays(_camera(), scene.t_far)
        depths = ground_truth_maps(scene, grid)[0].ravel()
        want = _checked(grid, depths, lambda rows: scene.evaluate(grid.origins[rows] + depths[rows, None]
                                                                  * grid.directions[rows])[1])
        _assert_same_samples(surface_samples(scene, grid), want)

    def test_samples_from_views(self):
        scene = _scene()
        views = render_dataset(scene, rig_views(_camera(10)), None, QuadratureConfig(n_coarse=16, n_fine=16, seed=3))
        parts = ([v.camera for v in views], [v.rgb for v in views], [v.depth for v in views], scene.t_far)
        _assert_same_samples(samples_from_views(views, scene.t_far), _checked_views(*parts))
        _assert_same_samples(samples_from_views(views, scene.t_far, foreground_only=True),
                             _checked_views(*parts, [v.mask for v in views]))

    def test_samples_from_no_views(self):
        batch = samples_from_views([], 10.0)
        assert type(batch) is RgbdBatch and len(batch) == 0 and list(batch) == []

    def test_cli_fit_data_load(self, tmp_path, capsys):
        data, doc = _generated(tmp_path, capsys)
        cameras = rig_views(doc.camera)[:2]
        rgbs = [images.read_ppm(str(data / f"view_{v}.ppm")) for v in range(2)]
        depths = [images.read_pfm(str(data / f"view_{v}_depth.pfm")) for v in range(2)]
        got = cli._load_samples(str(data), doc.camera, doc.scene.t_far)
        _assert_same_samples(got, _checked_views(cameras, rgbs, depths, doc.scene.t_far))


def _grid(directions, origins=None, t_far=5.0) -> RayGrid:
    directions = np.array(directions, dtype=np.float64)
    n = directions.shape[0]
    origins = np.zeros((n, 3)) if origins is None else np.array(origins, dtype=np.float64)
    return RayGrid(origins, directions, np.full(n, t_far), (n, 1))


def _batch(grid: RayGrid, colors=None) -> RgbdBatch:
    """The batch of a grid whose every row is kept at depth 1."""
    n = len(grid)
    colors = np.full((n, 3), 0.5) if colors is None else np.asarray(colors, dtype=np.float64)
    return RgbdBatch(grid.origins, grid.directions, grid.t_fars, np.ones(n), colors)


def _error(call) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call()
    return caught.type, str(caught.value)


def _checked_error(grid: RayGrid, colors=None) -> tuple[type, str]:
    n = len(grid)
    colors = np.full((n, 3), 0.5) if colors is None else np.asarray(colors, dtype=np.float64)
    return _error(lambda: _checked(grid, np.ones(n), lambda rows: colors[rows]))


class TestSameErrors:
    """Each error is the checked constructors' own, raised for the first bad
    row in row order as a row-by-row build raises it."""

    def _same(self, grid, message):
        assert _error(lambda: _batch(grid)) == _checked_error(grid) == (ValueError, message)

    def test_non_unit_direction_row(self):
        self._same(_grid([(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)]), "ray direction must be unit length")

    def test_nan_direction_row(self):
        self._same(_grid([(1.0, 0.0, 0.0), (0.0, math.nan, 1.0), (0.0, 0.0, 1.0)]), "direction must be finite")

    def test_non_finite_origin_row(self):
        origins = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)]
        self._same(_grid([(1.0, 0.0, 0.0)] * 3, origins=origins), "origin must be finite")

    def test_short_direction_rows(self):
        self._same(_grid([(1.0, 0.0)] * 2), "direction must have shape (3,), got (2,)")

    def test_infinite_t_far_row(self):
        self._same(_grid([(1.0, 0.0, 0.0)] * 2, t_far=math.inf), "t_far must be finite")

    def test_string_colors(self):
        grid = _grid([(1.0, 0.0, 0.0)] * 2)
        colors = np.full((2, 3), "0.5")
        error = _error(lambda: RgbdBatch(grid.origins, grid.directions, grid.t_fars, np.ones(2), colors))
        assert error == (TypeError, "observed color must hold integers or floats, got dtype <U3")

    def test_first_bad_row_decides(self):
        colors = np.full((3, 3), 0.5)
        colors[1, 0] = math.nan
        for grid, message in ((_grid([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 3.0, 0.0)]),
                               "observed color must be finite"),
                              (_grid([(0.0, 3.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),
                               "ray direction must be unit length")):
            assert _error(lambda: _batch(grid, colors)) == _checked_error(grid, colors) == (ValueError, message)

    def test_depth_outside_the_ray(self):
        grid = _grid([(1.0, 0.0, 0.0)] * 3)
        for depths, words in (([1.0, 5.0, 1.0], "lie strictly inside (0, t_far)"),
                              ([1.0, 1.0, -0.0], "lie strictly inside (0, t_far)"), ([math.nan, 1.0, 1.0], "be finite")):
            error = _error(lambda: RgbdBatch(grid.origins, grid.directions, grid.t_fars, depths, np.ones((3, 3))))
            assert error == (ValueError, f"observed depth must {words}")

    def test_sample_observations_on_non_unit_direction_row(self):
        t_far = 4.0
        field = rf.PiecewiseConstantRayField.on_ray(Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t_far), [0.0, t_far],
                                                    [2.0], [(0.3, 0.6, 0.9)])
        scene = rf.CompositeScene((field,), t_far=t_far)
        directions = np.tile([1.0, 0.0, 0.0], (8, 1))
        directions[5] = (1.0 + 1e-6, 0.0, 0.0)
        grid = _grid(directions, t_far=t_far)
        got = _error(lambda: sample_observations(scene, grid, seed=1, n_panels=64, censored="boundary"))
        want = _error(lambda: reference_sample_observations(scene, grid, 1, 64, 0.0, "boundary"))
        assert got == want == (ValueError, "ray direction must be unit length")

    def test_surface_samples_on_non_unit_direction_rows(self):
        scene = _scene()
        grid = pinhole_rays(_camera(8), scene.t_far)
        directions = grid.directions.copy()
        depths = ground_truth_maps(scene, grid)[0].ravel()
        directions[np.flatnonzero(np.isfinite(depths))[[4, 9]]] *= 1.0 + 1e-6
        bad = RayGrid(grid.origins, directions, grid.t_fars, grid.shape)
        depths = ground_truth_maps(scene, bad)[0].ravel()
        want = _error(lambda: _checked(bad, depths, lambda rows: np.full((len(rows), 3), 0.5)))
        assert _error(lambda: surface_samples(scene, bad)) == want == (ValueError, "ray direction must be unit length")

    def test_view_with_nan_pixel(self):
        scene = _scene()
        camera = _camera(8)
        grid = pinhole_rays(camera, scene.t_far)
        depth, mask = ground_truth_maps(scene, grid)
        rgb = np.full((8, 8, 3), 0.25)
        pixels = np.flatnonzero(np.isfinite(depth.ravel()))
        rgb.reshape(-1, 3)[pixels[3], 1] = math.nan
        rgb.reshape(-1, 3)[pixels[7], 0] = math.inf
        views = [GroundTruth(camera=camera, rgb=np.full((8, 8, 3), 0.5), depth=depth, mask=mask),
                 GroundTruth(camera=camera, rgb=rgb, depth=depth, mask=mask)]
        want = _error(lambda: _checked_views([camera] * 2, [v.rgb for v in views], [depth] * 2, scene.t_far))
        assert _error(lambda: samples_from_views(views, scene.t_far)) == want
        assert want == (ValueError, "observed color must be finite")


def _near_tolerance_directions() -> list[np.ndarray]:
    """Directions whose norm steps ulp by ulp across 1 - _UNIT_TOL and 1 + _UNIT_TOL."""
    unit = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    out = []
    for edge in (1.0 - _UNIT_TOL, 1.0 + _UNIT_TOL):
        scale = edge
        for _ in range(80):
            scale = np.nextafter(scale, -np.inf)
        for _ in range(160):
            out.append(unit * scale)
            scale = np.nextafter(scale, np.inf)
    return out


def test_unit_tolerance_edge_matches_ray():
    """The verdict on each near-edge direction is ``Ray``'s, for the batch
    constructor and through ``sample_observations`` (boundary censoring keeps
    every row)."""
    scene = rf.CompositeScene((rf.GaussianBlobField(center=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0), amplitude=2.0,
                                                    color=(0.2, 0.4, 0.6)),), t_far=5.0)
    directions = _near_tolerance_directions()
    verdicts = []
    for d in directions:
        try:
            ray = Ray(np.zeros(3), d, 5.0)
        except ValueError as exc:
            verdicts.append(False)
            assert _error(lambda: _batch(_grid([d]))) == (ValueError, str(exc))
            assert _error(lambda: sample_observations(scene, _grid([d]), seed=1, n_panels=16,
                                                      censored="boundary")) == (ValueError, str(exc))
        else:
            verdicts.append(True)
            (sample,) = _batch(_grid([d]))
            assert sample.ray.direction.tobytes() == ray.direction.tobytes()
            (sample,) = sample_observations(scene, _grid([d]), seed=1, n_panels=16, censored="boundary")
            assert sample.ray.direction.tobytes() == ray.direction.tobytes()
    assert any(verdicts) and not all(verdicts)
    accepted = [d for d, ok in zip(directions, verdicts) if ok]
    assert [s.ray.direction.tobytes() for s in _batch(_grid(accepted))] == [d.tobytes() for d in accepted]


@pytest.fixture
def post_init_calls(monkeypatch):
    """Counts of ``Ray`` and ``RgbdSample`` checks run while the test runs."""
    calls = {"ray": 0, "sample": 0}

    def counting(cls, key):
        check = cls.__post_init__

        def post_init(self):
            calls[key] += 1
            check(self)

        return post_init

    monkeypatch.setattr(Ray, "__post_init__", counting(Ray, "ray"))
    monkeypatch.setattr(RgbdSample, "__post_init__", counting(RgbdSample, "sample"))
    return calls


def test_clean_grid_runs_no_per_ray_check(post_init_calls, tmp_path, capsys):
    scene = _scene()
    grid = pinhole_rays(_camera(16), scene.t_far)
    views = render_dataset(scene, rig_views(_camera(8)), None, QuadratureConfig(n_coarse=16, n_fine=16, seed=3))
    data, doc = _generated(tmp_path, capsys)
    batches = [sample_observations(scene, grid, seed=11, n_panels=128), surface_samples(scene, grid),
               samples_from_views(views, scene.t_far), cli._load_samples(str(data), doc.camera, doc.scene.t_far)]
    elements = [[batch[0], batch[-1], *batch] for batch in batches]
    assert all(len(batch) > 100 for batch in batches) and sum(map(len, elements)) > 400
    assert post_init_calls == {"ray": 0, "sample": 0}
    Ray(np.zeros(3), (1.0, 0.0, 0.0), 1.0)  # the counter does count checked constructions
    assert post_init_calls["ray"] == 1


def test_rows_are_read_only():
    scene = _scene()
    batch = sample_observations(scene, pinhole_rays(_camera(8), scene.t_far), seed=2, n_panels=64)
    sample = batch[0]
    for array in (batch.packed, batch.origins, batch.t_obs, batch[1:4].packed, batch[np.array([0, 2])].packed,
                  sample.ray.origin, sample.ray.direction, sample.color):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_fit_on_a_batch_equals_fit_on_its_samples(monkeypatch):
    scene = _scene()
    batch = sample_observations(scene, pinhole_rays(_camera(12), scene.t_far), seed=4, n_panels=128)
    start = scene.with_params(scene.params() + 0.01)
    config = rf.FitConfig(iterations=6, batch_size=32, seed=2, loss=rf.LossConfig(ramp_start=1, ramp_end=4))
    listed = rf.fit(start, list(batch), config)
    loss_from_list = rf.total_loss(scene, list(batch), 3, config.loss, 5)
    gradient_from_list = rf.loss_gradient(scene, list(batch), 3, config.loss, 5)

    def no_restack(*_args):
        raise AssertionError("a batch was stacked again")

    monkeypatch.setattr(RgbdBatch, "from_samples", no_restack)
    packed = rf.fit(start, batch, config)
    assert packed.trace == listed.trace
    assert packed.final_params.tobytes() == listed.final_params.tobytes()
    assert rf.total_loss(scene, batch, 3, config.loss, 5) == loss_from_list
    assert rf.loss_gradient(scene, batch, 3, config.loss, 5).tobytes() == gradient_from_list.tobytes()
    with pytest.raises(AssertionError, match="stacked again"):
        rf.fit(start, list(batch), config)
