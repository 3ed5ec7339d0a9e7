"""Supervised rays built from one array check.

Every producer of supervised rays (``sample_observations``,
``surface_samples``, ``samples_from_views`` and the CLI's fit data load)
goes through ``scenegen._grid_samples``, which checks the kept rows once as
arrays and then builds each ``Ray`` and ``RgbdSample`` without its
per-object checks.  These tests hold it to the checked constructors: the
same attributes down to the buffers they view, the same errors in the same
order, the same verdict at the edge of the unit-length tolerance, and no
per-object check on a clean grid.
"""

import math

import numpy as np
import pytest

import rayfields as rf
from rayfields import cli, scenegen
from rayfields.geometry import _UNIT_TOL, Camera, Ray, RayGrid, pinhole_rays, rig_views
from rayfields.losses import RgbdSample
from rayfields.scenedoc import load_scene
from rayfields.scenegen import GroundTruth, render_dataset, sample_observations, samples_from_views, surface_samples
from rayfields.transport import QuadratureConfig


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


def _checked(monkeypatch, produce):
    """What ``produce()`` returns when every sample goes through the checked constructors."""
    with monkeypatch.context() as patch:
        patch.setattr(scenegen, "_rows_pass", lambda *args: False)
        return produce()


def _offset(view: np.ndarray) -> int:
    return view.__array_interface__["data"][0] - view.base.__array_interface__["data"][0]


def _same_array(got: np.ndarray, want: np.ndarray, owner: np.ndarray | None) -> None:
    """Same values, dtype, shape, strides and flags, and a view of the same
    buffer at the same place (``owner`` when both view one known array)."""
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes() and got.flags.writeable == want.flags.writeable
    assert (got.base is None) == (want.base is None)
    if owner is not None:
        assert got.base is owner and want.base is owner
    elif got.base is not None:
        assert got.base.shape == want.base.shape and _offset(got) == _offset(want)


def _assert_same_samples(got, want, grid: RayGrid | None = None) -> None:
    assert type(got) is type(want) is list and len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert type(a) is RgbdSample and type(a.ray) is Ray
        assert type(a.depth) is type(b.depth) is float and a.depth == b.depth
        assert type(a.ray.t_far) is type(b.ray.t_far) is float and a.ray.t_far == b.ray.t_far
        _same_array(a.ray.origin, b.ray.origin, None if grid is None else grid.origins)
        _same_array(a.ray.direction, b.ray.direction, None if grid is None else grid.directions)
        _same_array(a.color, b.color, None)


class TestSameAsCheckedConstructors:
    def test_sample_observations(self, monkeypatch):
        scene = _scene()
        grid = pinhole_rays(_camera(), scene.t_far)
        for censored in ("drop", "boundary"):
            got = sample_observations(scene, grid, seed=3, n_panels=256, censored=censored)
            want = _checked(monkeypatch, lambda: sample_observations(scene, grid, seed=3, n_panels=256,
                                                                     censored=censored))
            _assert_same_samples(got, want, grid)

    def test_surface_samples(self, monkeypatch):
        scene = _scene()
        grid = pinhole_rays(_camera(), scene.t_far)
        _assert_same_samples(surface_samples(scene, grid), _checked(monkeypatch, lambda: surface_samples(scene, grid)),
                             grid)

    def test_samples_from_views(self, monkeypatch):
        scene = _scene()
        views = render_dataset(scene, rig_views(_camera(10)), None, QuadratureConfig(n_coarse=16, n_fine=16, seed=3))
        for foreground_only in (False, True):
            got = samples_from_views(views, scene.t_far, foreground_only)
            want = _checked(monkeypatch, lambda: samples_from_views(views, scene.t_far, foreground_only))
            _assert_same_samples(got, want)

    def test_cli_fit_data_load(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        argv = ["generate", "--out", str(data), "--scene-seed", "2", "--resolution", "12", "--views", "2",
                "--n-coarse", "16", "--n-fine", "16"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        doc = load_scene(data / "scene.json")
        got = cli._load_samples(str(data), doc.camera, doc.scene.t_far)
        want = _checked(monkeypatch, lambda: cli._load_samples(str(data), doc.camera, doc.scene.t_far))
        _assert_same_samples(got, want)


def _grid(directions, origins=None, t_far=5.0) -> RayGrid:
    directions = np.array(directions, dtype=np.float64)
    n = directions.shape[0]
    origins = np.zeros((n, 3)) if origins is None else np.array(origins, dtype=np.float64)
    return RayGrid(origins, directions, np.full(n, t_far), (n, 1))


def _samples(grid: RayGrid, colors=None):
    """``_grid_samples`` of a grid whose every row is kept at depth 1."""
    n = len(grid)
    colors = np.full((n, 3), 0.5) if colors is None else np.asarray(colors, dtype=np.float64)
    return scenegen._grid_samples(grid, np.ones(n), lambda rows: colors[rows])


def _error(call) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call()
    return caught.type, str(caught.value)


class TestSameErrors:
    """Each message is the checked constructors' own, raised for the first
    bad row in row order as the per-ray path raises it."""

    def test_non_unit_direction_row(self):
        grid = _grid([(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)])
        assert _error(lambda: _samples(grid)) == (ValueError, "ray direction must be unit length")

    def test_nan_direction_row(self):
        grid = _grid([(1.0, 0.0, 0.0), (0.0, math.nan, 1.0), (0.0, 0.0, 1.0)])
        assert _error(lambda: _samples(grid)) == (ValueError, "direction must be finite")

    def test_non_finite_origin_row(self):
        grid = _grid([(1.0, 0.0, 0.0)] * 3, origins=[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)])
        assert _error(lambda: _samples(grid)) == (ValueError, "origin must be finite")

    def test_first_bad_row_decides(self):
        colors = np.full((3, 3), 0.5)
        colors[1, 0] = math.nan
        late_direction = _grid([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 3.0, 0.0)])
        early_direction = _grid([(0.0, 3.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        assert _error(lambda: _samples(late_direction, colors)) == (ValueError,
                                                                    "observed color must be a finite 3-vector")
        assert _error(lambda: _samples(early_direction, colors)) == (ValueError, "ray direction must be unit length")

    def test_sample_observations_on_non_unit_direction_row(self):
        t_far = 4.0
        field = rf.PiecewiseConstantRayField.on_ray(Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t_far), [0.0, t_far],
                                                    [2.0], [(0.3, 0.6, 0.9)])
        scene = rf.CompositeScene((field,), t_far=t_far)
        directions = np.tile([1.0, 0.0, 0.0], (8, 1))
        directions[5] = (1.0 + 1e-6, 0.0, 0.0)
        grid = _grid(directions, t_far=t_far)
        error = _error(lambda: sample_observations(scene, grid, seed=1, n_panels=64, censored="boundary"))
        assert error == (ValueError, "ray direction must be unit length")

    def test_view_with_nan_pixel(self):
        scene = _scene()
        camera = _camera(8)
        grid = pinhole_rays(camera, scene.t_far)
        depth, mask = scenegen.ground_truth_maps(scene, grid)
        rgb = np.full((8, 8, 3), 0.25)
        pixel = np.flatnonzero(np.isfinite(depth.ravel()))[3]
        rgb.reshape(-1, 3)[pixel, 1] = math.nan
        view = GroundTruth(camera=camera, rgb=rgb, depth=depth, mask=mask)
        error = _error(lambda: samples_from_views([view], scene.t_far))
        assert error == (ValueError, "observed color must be a finite 3-vector")


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
    directions = _near_tolerance_directions()
    verdicts = []
    for d in directions:
        try:
            ray = Ray(np.zeros(3), d, 5.0)
        except ValueError as exc:
            verdicts.append(False)
            assert _error(lambda: _samples(_grid([d]))) == (ValueError, str(exc))
        else:
            verdicts.append(True)
            (sample,) = _samples(_grid([d]))
            assert sample.ray.direction.tobytes() == ray.direction.tobytes()
    assert any(verdicts) and not all(verdicts)
    accepted = [d for d, ok in zip(directions, verdicts) if ok]
    grid = _grid(accepted)
    assert [s.ray.direction.tobytes() for s in _samples(grid)] == [d.tobytes() for d in accepted]


def test_clean_grid_runs_no_per_ray_check(monkeypatch):
    calls = {"ray": 0, "sample": 0}

    def counting(cls, key):
        check = cls.__post_init__

        def post_init(self):
            calls[key] += 1
            check(self)

        return post_init

    monkeypatch.setattr(Ray, "__post_init__", counting(Ray, "ray"))
    monkeypatch.setattr(RgbdSample, "__post_init__", counting(RgbdSample, "sample"))
    scene = _scene()
    grid = pinhole_rays(_camera(16), scene.t_far)
    samples = sample_observations(scene, grid, seed=11, n_panels=128)
    assert len(samples) > 100
    assert calls == {"ray": 0, "sample": 0}
    Ray(np.zeros(3), (1.0, 0.0, 0.0), 1.0)  # the counter does count checked constructions
    assert calls["ray"] == 1
