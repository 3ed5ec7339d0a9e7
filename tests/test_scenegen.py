"""Tests for random scene generation, analytic surfaces, and supervision maps.

The analytic surface distances are cross-checked against a numeric root
finder on the density profile: the surface is where density first reaches
half its peak, so bisecting sigma(t) - A/2 along the ray must agree with the
closed-form intersection.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayfields as rf
from rayfields import _threads, scenegen
from rayfields.geometry import Camera, pinhole_rays, rig_views
from rayfields.scenegen import (
    HALF_MAX_RADIUS,
    PALETTE,
    GroundTruth,
    PlacementError,
    SceneGenConfig,
    default_camera,
    ground_truth_maps,
    render_dataset,
    sample_observations,
    sample_scene,
    samples_from_views,
    surface_distance,
    surface_samples,
)
from rayfields.transport import QuadratureConfig

from references import GRIDS, SCENES, reference_sample_observations


def bisect_half_max(field, origin, direction, t_hi, n_scan=20_000):
    """First t where density crosses half the field's amplitude."""
    ts = np.linspace(1e-6, t_hi, n_scan)
    pts = origin[None, :] + ts[:, None] * direction[None, :]
    sig, _ = field.evaluate(pts)
    half = field.amplitude / 2.0
    above = sig >= half
    if not above.any():
        return np.inf
    k = int(np.argmax(above))
    if k == 0:
        return ts[0]
    lo, hi = ts[k - 1], ts[k]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s, _ = field.evaluate(origin + mid * direction)
        if s >= half:
            hi = mid
        else:
            lo = mid
    return hi


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_objects_min": 0},
            {"n_objects_min": 3, "n_objects_max": 2},
            {"size_min": 0.0},
            {"size_min": 0.8, "size_max": 0.5},
            {"placement_halfwidth": 0.0},
            {"max_attempts": 0},
            {"max_restarts": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SceneGenConfig(**kwargs)

    def test_default_camera_uses_resolution(self):
        cam = default_camera(SceneGenConfig(resolution=48))
        assert cam.width == 48 and cam.height == 48

    def test_half_max_radius_value(self):
        assert HALF_MAX_RADIUS == pytest.approx(math.sqrt(2.0 * math.log(2.0)), abs=1e-15)


class TestSampleScene:
    def test_structure_and_metadata(self):
        config = SceneGenConfig()
        scene, meta = sample_scene(config, np.random.default_rng(0))
        assert isinstance(scene.components[-1], rf.GroundPlaneField)
        assert len(meta) == scene.n - 1
        assert config.n_objects_min <= len(meta) <= config.n_objects_max
        for i, m in enumerate(meta):
            assert m["name"] == f"object_{i + 1}"
            assert m["kind"] in config.kinds
            assert config.size_min <= m["size"] <= config.size_max
            assert tuple(m["color"]) in PALETTE
            assert np.all(np.abs(m["xy"]) <= config.placement_halfwidth)
            assert "field" not in m

    def test_separation_rule(self):
        config = SceneGenConfig(n_objects_min=4, n_objects_max=4)
        for seed in range(6):
            _, meta = sample_scene(config, np.random.default_rng(seed))
            for i in range(len(meta)):
                for j in range(i + 1, len(meta)):
                    gap = np.hypot(*(meta[i]["xy"] - meta[j]["xy"]))
                    min_gap = config.min_separation_factor * (
                        meta[i]["radius"] + meta[j]["radius"]
                    )
                    assert gap >= min_gap

    def test_bottom_flush(self):
        config = SceneGenConfig(n_objects_min=3, n_objects_max=3)
        scene, meta = sample_scene(config, np.random.default_rng(2))
        for comp, m in zip(scene.components[:-1], meta):
            assert comp.center[2] == pytest.approx(m["size"])

    def test_deterministic_for_seed(self):
        config = SceneGenConfig()
        scene_a, meta_a = sample_scene(config, np.random.default_rng(7))
        scene_b, meta_b = sample_scene(config, np.random.default_rng(7))
        assert np.array_equal(scene_a.params(), scene_b.params())
        assert len(meta_a) == len(meta_b)
        for ma, mb in zip(meta_a, meta_b):
            assert ma["kind"] == mb["kind"]
            assert np.array_equal(ma["xy"], mb["xy"])

    def test_impossible_layout_raises(self):
        config = SceneGenConfig(
            n_objects_min=3,
            n_objects_max=3,
            placement_halfwidth=0.2,
            size_min=0.7,
            size_max=0.75,
            max_attempts=6,
            max_restarts=3,
        )
        with pytest.raises(PlacementError):
            sample_scene(config, np.random.default_rng(0))

    def test_box_uses_diagonal_bounding_radius(self):
        config = SceneGenConfig(kinds=("soft_box",), n_objects_min=2, n_objects_max=2)
        _, meta = sample_scene(config, np.random.default_rng(1))
        for m in meta:
            assert m["radius"] == pytest.approx(m["size"] * math.sqrt(2.0))

    @pytest.mark.parametrize("kind", ["ground_plane", "teapot"])
    def test_unplaceable_kind_rejected(self, kind):
        # A field kind without a footprint is as unknown as a name that is no kind.
        with pytest.raises(ValueError, match="unknown object kind"):
            sample_scene(SceneGenConfig(kinds=(kind,)), np.random.default_rng(0))

    @pytest.mark.parametrize("kinds, message", [
        ((), "at least one object kind"),
        ("soft_box", "not the string 'soft_box'"),
        (("gaussian_blob", "teapot"), "unknown object kind 'teapot'"),
        (("soft_sphere", "ground_plane"), "unknown object kind 'ground_plane'"),
    ], ids=["empty", "bare string", "unknown name", "no footprint"])
    def test_config_checks_kinds(self, kinds, message):
        # Rejected by the config itself, before any draw could miss the bad name.
        with pytest.raises(ValueError, match=message):
            SceneGenConfig(kinds=kinds)


class TestSurfaceDistance:
    def test_blob_head_on(self):
        blob = rf.GaussianBlobField(
            center=(0, 0, 1), scale=(0.4, 0.4, 0.3), amplitude=10.0, color=(1, 0, 0), sigma_max=10.0
        )
        t = surface_distance(blob, np.array([[-5.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == pytest.approx(5.0 - HALF_MAX_RADIUS * 0.4, rel=1e-12)

    def test_blob_density_at_surface_is_half_peak(self):
        blob = rf.GaussianBlobField(
            center=(0.3, -0.2, 0.8), scale=(0.5, 0.35, 0.4), amplitude=10.0, color=(1, 0, 0), sigma_max=10.0
        )
        origin = np.array([-4.0, 1.0, 1.6])
        direction = np.array([4.3, -1.2, -0.8])
        direction /= np.linalg.norm(direction)
        t = surface_distance(blob, origin[None], direction[None])[0]
        assert np.isfinite(t)
        sig, _ = blob.evaluate(origin + t * direction)
        assert sig == pytest.approx(5.0, rel=1e-9)

    # Per kind: a field and the point its rays are aimed at.  The box's rays
    # enter through the interior of its -x face; the ground's meet the plane,
    # which sits at exactly half the amplitude.
    NUMERIC_ROOT_CASES = {
        "gaussian_blob": (rf.GaussianBlobField(center=(0.2, 0.1, 0.7), scale=(0.45, 0.5, 0.35), amplitude=10.0,
                                               color=(1, 0, 0), sigma_max=10.0), (0.2, 0.1, 0.7)),
        "soft_sphere": (rf.SoftSphereField(center=(0.2, 0.1, 0.7), radius=0.6, softness=0.03, amplitude=10.0,
                                           color=(1, 0, 0), sigma_max=10.0), (0.2, 0.1, 0.7)),
        "soft_box": (rf.SoftBoxField(center=(0.2, 0.1, 0.7), half_size=(0.5, 0.5, 0.5), softness=0.03,
                                     amplitude=10.0, color=(1, 0, 0), sigma_max=10.0), (0.2, 0.1, 0.7)),
        "ground_plane": (rf.GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.6,) * 3, color_b=(0.5,) * 3,
                                             checker_size=0.0, dome_radius=30.0, dome_color=(0.5, 0.6, 0.7),
                                             sigma_max=10.0), (0.2, 0.1, 0.0)),
    }

    @pytest.mark.parametrize("kind", sorted(NUMERIC_ROOT_CASES))
    def test_matches_numeric_root(self, kind):
        field, aim = self.NUMERIC_ROOT_CASES[kind]
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(20):
            origin = np.array([-4.0, 0.0, 1.0]) + rng.normal(0, 0.3, 3)
            direction = np.array(aim) - origin + rng.normal(0, 0.1, 3)
            direction /= np.linalg.norm(direction)
            analytic = surface_distance(field, origin[None], direction[None])[0]
            numeric = bisect_half_max(field, origin, direction, 12.0)
            if np.isfinite(analytic):
                checked += 1
                # A soft edge's numeric half-max sits within a softness width
                # of the geometric surface; the blob's and the plane's are exact.
                tol = 1e-6 if kind in ("gaussian_blob", "ground_plane") else 5e-2
                assert analytic == pytest.approx(numeric, abs=tol)
            else:
                assert numeric == np.inf or numeric > 11.0
        assert checked >= 10

    def test_miss_returns_inf(self):
        blob = rf.GaussianBlobField(
            center=(0, 0, 1), scale=(0.3, 0.3, 0.3), amplitude=10.0, color=(1, 0, 0), sigma_max=10.0
        )
        t = surface_distance(blob, np.array([[-5.0, 4.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == np.inf

    def test_behind_origin_returns_inf(self):
        blob = rf.GaussianBlobField(
            center=(0, 0, 1), scale=(0.3, 0.3, 0.3), amplitude=10.0, color=(1, 0, 0), sigma_max=10.0
        )
        t = surface_distance(blob, np.array([[5.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == np.inf

    def test_box_face_and_exit(self):
        box = rf.SoftBoxField(
            center=(0, 0, 1), half_size=(0.5, 0.5, 0.5), softness=0.03, amplitude=10.0,
            color=(0, 1, 0), sigma_max=10.0,
        )
        outside = surface_distance(box, np.array([[-5.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert outside[0] == pytest.approx(4.5, rel=1e-12)
        inside = surface_distance(box, np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert inside[0] == pytest.approx(0.5, rel=1e-12)

    def test_box_parallel_rays(self):
        box = rf.SoftBoxField(
            center=(0, 0, 1), half_size=(0.5, 0.5, 0.5), softness=0.03, amplitude=10.0,
            color=(0, 1, 0), sigma_max=10.0,
        )
        inside_slab = surface_distance(box, np.array([[-5.0, 0.2, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert inside_slab[0] == pytest.approx(4.5, rel=1e-12)
        outside_slab = surface_distance(box, np.array([[-5.0, 2.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert outside_slab[0] == np.inf

    def test_ground_plane_and_dome(self):
        ground = rf.GroundPlaneField(
            softness=0.05, amplitude=10.0, color_a=(0.6,) * 3, color_b=(0.5,) * 3,
            checker_size=0.0, dome_radius=30.0, dome_color=(0.5, 0.6, 0.7), sigma_max=10.0,
        )
        down = surface_distance(ground, np.array([[0.0, 0.0, 5.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert down[0] == pytest.approx(5.0, rel=1e-12)
        up = surface_distance(ground, np.array([[0.0, 0.0, 5.0]]), np.array([[0.0, 0.0, 1.0]]))
        assert up[0] == pytest.approx(25.0, rel=1e-12)
        level = surface_distance(ground, np.array([[0.0, 0.0, 5.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert level[0] == pytest.approx(np.sqrt(30.0**2 - 25.0), rel=1e-12)

    def test_unsupported_kind(self):
        from rayfields.fields import PiecewiseConstantRayField

        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
            breakpoints=[0.0, 1.0], sigmas=[1.0], colors=[(1, 1, 1)],
        )
        for field in (field, rf.merged_field(one_blob_scene())):
            with pytest.raises(TypeError, match=f"no analytic surface for field kind '{field.kind}'"):
                surface_distance(field, np.zeros((1, 3)), np.ones((1, 3)))


def one_blob_scene():
    blob = rf.GaussianBlobField(
        center=(0.0, 0.0, 0.6), scale=(0.5, 0.5, 0.5), amplitude=10.0,
        color=(0.8, 0.1, 0.1), sigma_max=10.0,
    )
    ground = rf.GroundPlaneField(
        softness=0.05, amplitude=10.0, color_a=(0.62,) * 3, color_b=(0.52,) * 3,
        checker_size=0.0, dome_radius=30.0, dome_color=(0.55, 0.6, 0.68), sigma_max=10.0,
    )
    return rf.CompositeScene((blob, ground), t_far=40.0)


class TestGroundTruthMaps:
    def test_labels_and_depth(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=24, height=24)
        grid = pinhole_rays(cam, scene.t_far)
        depth, labels = ground_truth_maps(scene, grid)
        assert depth.shape == (24, 24) and labels.shape == (24, 24)
        assert set(np.unique(labels)) <= {0, 1}
        assert (labels == 1).sum() > 5
        assert np.all(np.isfinite(depth))  # every ray meets ground or dome
        # The blob sits in front of the background along its pixels.
        blob_px = labels == 1
        assert depth[blob_px].max() < depth[~blob_px].min() + 30.0

    def test_depth_at_blob_pixels_matches_component(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=24, height=24)
        grid = pinhole_rays(cam, scene.t_far)
        depth, labels = ground_truth_maps(scene, grid)
        flat_depth = depth.ravel()
        flat_labels = labels.ravel()
        blob_hits = surface_distance(scene.components[0], grid.origins, grid.directions)
        idx = np.flatnonzero(flat_labels == 1)
        assert np.allclose(flat_depth[idx], blob_hits[idx], rtol=1e-12)

    def test_hits_beyond_cutoff_dropped(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=8, height=8)
        grid = pinhole_rays(cam, 3.0)  # everything is farther than 3 units
        depth, labels = ground_truth_maps(scene, grid)
        assert np.all(np.isinf(depth))
        assert np.all(labels == 0)


class TestRenderDataset:
    def test_three_views(self):
        scene = one_blob_scene()
        rig = rig_views(Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=12, height=12))
        quad = QuadratureConfig(n_coarse=32, n_fine=32, seed=9)
        views = render_dataset(scene, rig, resolution=10, quad=quad)
        assert len(views) == 3
        for view in views:
            assert isinstance(view, GroundTruth)
            assert view.rgb.shape == (10, 10, 3)
            assert view.depth.shape == (10, 10)
            assert view.mask.shape == (10, 10)
            assert view.camera.width == 10

    def test_deterministic(self):
        scene = one_blob_scene()
        rig = rig_views(Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=8, height=8))
        quad = QuadratureConfig(n_coarse=32, n_fine=32, seed=9)
        a = render_dataset(scene, rig, None, quad)
        b = render_dataset(scene, rig, None, quad)
        for va, vb in zip(a, b):
            assert np.array_equal(va.rgb, vb.rgb)
            assert np.array_equal(va.depth, vb.depth)
            assert np.array_equal(va.mask, vb.mask)


class TestSurfaceSamples:
    def test_depths_valid_and_colors_match_scene(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=16, height=16)
        grid = pinhole_rays(cam, scene.t_far)
        samples = surface_samples(scene, grid)
        depth, _ = ground_truth_maps(scene, grid)
        n_valid = int((np.isfinite(depth.ravel()) & (depth.ravel() < grid.t_fars)).sum())
        assert len(samples) == n_valid
        for s in samples[:: max(1, len(samples) // 20)]:
            assert 0.0 < s.depth < s.ray.t_far
            point = s.ray.origin + s.depth * s.ray.direction
            _, color = scene.evaluate(point)
            assert np.allclose(s.color, color, atol=1e-12)

    def test_high_blob_pixels_carry_pure_blob_color(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=24, height=24)
        grid = pinhole_rays(cam, scene.t_far)
        samples = surface_samples(scene, grid)
        pure = 0
        for s in samples:
            point = s.ray.origin + s.depth * s.ray.direction
            if np.hypot(point[0], point[1]) < 0.3 and point[2] > 0.5:
                assert np.allclose(s.color, scene.components[0].color, atol=1e-6)
                pure += 1
        assert pure > 0


def _parallel_x_grid(n_rays: int, t_far: float) -> rf.geometry.RayGrid:
    return rf.geometry.RayGrid(
        origins=np.zeros((n_rays, 3)),
        directions=np.tile(np.array([[1.0, 0.0, 0.0]]), (n_rays, 1)),
        t_fars=np.full(n_rays, t_far),
        shape=(n_rays, 1),
    )


def _sample_bytes(samples) -> list:
    return [(s.depth, s.color.tobytes(), s.ray.origin.tobytes(), s.ray.direction.tobytes(), s.ray.t_far)
            for s in samples]


class TestSampleObservations:
    def constant_scene(self, sigma=0.5, t_far=4.0):
        ray = rf.geometry.Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t_far)
        field = rf.PiecewiseConstantRayField.on_ray(
            ray, [0.0, t_far], [sigma], [(0.3, 0.6, 0.9)])
        return rf.CompositeScene((field,), t_far=t_far)

    def test_constant_density_draws_truncated_exponential(self):
        sigma, t_far, n = 0.5, 4.0, 4096
        scene = self.constant_scene(sigma, t_far)
        grid = _parallel_x_grid(n, t_far)
        samples = sample_observations(scene, grid, seed=5, n_panels=512)
        survive = np.exp(-sigma * t_far)
        censored = 1.0 - len(samples) / n
        assert abs(censored - survive) <= 4.0 * np.sqrt(survive * (1 - survive) / n)
        depths = np.sort([s.depth for s in samples])
        cdf = (1.0 - np.exp(-sigma * depths)) / (1.0 - survive)
        empirical = np.arange(1, depths.size + 1) / depths.size
        assert np.max(np.abs(cdf - empirical)) <= 0.035

    def test_band_masses_match_closed_form_and_gap_is_empty(self):
        t_far, n = 4.0, 4096
        ray = rf.geometry.Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t_far)
        field = rf.PiecewiseConstantRayField.on_ray(
            ray, [0.0, 1.0, 3.0, 4.0], [2.0, 0.0, 1.0],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        scene = rf.CompositeScene((field,), t_far=t_far)
        # 512 panels over [0, 4] put edges exactly on the breakpoints
        samples = sample_observations(scene, _parallel_x_grid(n, t_far), seed=6, n_panels=512)
        depths = np.array([s.depth for s in samples])
        assert not np.any((depths > 1.001) & (depths < 2.999))
        for a, b in ((0.0, 1.0), (3.0, 4.0)):
            want = rf.transport.piecewise_interval_probability(field, a, b)
            got = np.mean((depths >= a) & (depths <= b)) * len(samples) / n
            assert abs(got - want) <= 4.0 * np.sqrt(want * (1 - want) / n)

    def test_boundary_mode_reports_cutoff_for_censored_rays(self):
        sigma, t_far, n = 0.5, 4.0, 2048
        scene = self.constant_scene(sigma, t_far)
        grid = _parallel_x_grid(n, t_far)
        dropped = sample_observations(scene, grid, seed=12, n_panels=256)
        full = sample_observations(scene, grid, seed=12, n_panels=256, censored="boundary")
        assert len(full) == n
        cut = t_far - 1e-6
        assert sum(s.depth == cut for s in full) == n - len(dropped)
        interior = [s.depth for s in full if s.depth != cut]
        assert interior == [s.depth for s in dropped]
        with pytest.raises(ValueError):
            sample_observations(scene, grid, seed=12, censored="nope")

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        scene = self.constant_scene()
        grid = _parallel_x_grid(256, 4.0)
        monkeypatch.setattr(scenegen, "block_rows", lambda _points: 256)
        a = sample_observations(scene, grid, seed=9, n_panels=128)
        monkeypatch.setattr(scenegen, "block_rows", lambda _points: 7)
        b = sample_observations(scene, grid, seed=9, n_panels=128)
        c = sample_observations(scene, grid, seed=10, n_panels=128)
        assert [s.depth for s in a] == [s.depth for s in b]
        assert [s.depth for s in a] != [s.depth for s in c]

    @pytest.mark.parametrize("n_panels", [2.5, 64.0, "64", True])
    def test_non_integer_panel_count_is_rejected(self, n_panels):
        with pytest.raises(TypeError, match="n_panels must be an integer"):
            sample_observations(self.constant_scene(), _parallel_x_grid(4, 4.0), seed=1, n_panels=n_panels)

    @pytest.mark.parametrize("n_panels", [1, 0, -3])
    def test_panel_count_below_two_is_rejected(self, n_panels):
        with pytest.raises(ValueError, match="n_panels must be >= 2"):
            sample_observations(self.constant_scene(), _parallel_x_grid(4, 4.0), seed=1, n_panels=n_panels)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_depth_offset_is_rejected(self, offset):
        with pytest.raises(ValueError, match="depth_offset must be finite"):
            sample_observations(self.constant_scene(), _parallel_x_grid(4, 4.0), seed=1, depth_offset=offset)

    @settings(max_examples=100, deadline=None)
    @given(SCENES, GRIDS, st.integers(0, 2**31), st.integers(2, 300), st.floats(-0.5, 0.5),
           st.sampled_from(["drop", "boundary"]))
    def test_bit_identical_to_reference_loop(self, scene, grid, seed, n_panels, offset, censored):
        def flat(samples):
            return [(s.depth, s.color.tobytes(), s.ray.origin.tobytes(), s.ray.direction.tobytes(),
                     s.ray.t_far) for s in samples]

        got = sample_observations(scene, grid, seed, n_panels, offset, censored)
        want = reference_sample_observations(scene, grid, seed, n_panels, offset, censored)
        assert flat(got) == flat(want)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_march_over_many_windows_matches_reference(self, monkeypatch, threads):
        """The windowed march against the whole-ray reference loop, byte for
        byte: 67 panels march in nine windows (eight of 8 panels, one of 3),
        in blocks of 1, 3 and 40 rays, for both censoring modes, a negative
        offset and a grid of no rays.  A thin fog fills every window, so
        each window carries a nonzero optical depth into the next."""
        blob = rf.GaussianBlobField(center=(0.0, 0.0, 0.6), scale=(0.5, 0.5, 0.5), amplitude=10.0,
                                    color=(0.8, 0.1, 0.1), sigma_max=10.0)
        fog = rf.GaussianBlobField(center=(0.0, 0.0, 0.0), scale=(20.0, 20.0, 20.0), amplitude=0.1,
                                   color=(0.5, 0.5, 0.5))
        scene = rf.CompositeScene((blob, fog), t_far=8.0)
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=10, height=10)
        grid = pinhole_rays(cam, scene.t_far)
        n_panels, window, seed = 67, 8, 0
        # The seed's draws cover the march: rays that escape past all nine
        # windows, rays that land in the ninth, and rays that land in the
        # last panel of a window.
        targets = -np.log1p(-np.random.default_rng(np.random.SeedSequence((seed, 17))).random(len(grid)))
        cum = rf.transport._panels(scene, grid.origins, grid.directions, grid.t_fars, n_panels)[2]
        landed = targets < cum[:, -1]
        panel = (cum[:, :-1] <= targets[:, None]).sum(axis=1) - 1
        assert 0 < landed.sum() < len(grid)
        assert np.any(landed & (panel >= 8 * window))
        assert np.any(landed & (panel % window == window - 1))

        monkeypatch.setenv("OBSURF_THREADS", threads)
        for rays in (1, 3, 40):
            monkeypatch.setattr(_threads, "BLOCK_POINTS", rays * window)
            for g in (grid, _parallel_x_grid(0, 4.0)):
                for offset, censored in ((0.0, "drop"), (0.0, "boundary"), (-0.3, "drop"), (-0.3, "boundary")):
                    got = sample_observations(scene, g, seed, n_panels, offset, censored)
                    want = reference_sample_observations(scene, g, seed, n_panels, offset, censored)
                    assert _sample_bytes(got) == _sample_bytes(want), (rays, len(g), offset, censored)

    def test_depth_offset_shifts_reports(self):
        scene = self.constant_scene()
        grid = _parallel_x_grid(512, 4.0)
        plain = np.sort([s.depth for s in sample_observations(scene, grid, seed=3, n_panels=128)])
        moved = np.sort([s.depth for s in sample_observations(
            scene, grid, seed=3, n_panels=128, depth_offset=-0.1)])
        expected = np.sort(plain[plain > 0.1] - 0.1)
        assert np.array_equal(moved, expected)

    def test_colors_are_scene_colors_at_drawn_points(self):
        scene = one_blob_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=12, height=12)
        grid = pinhole_rays(cam, scene.t_far)
        samples = sample_observations(scene, grid, seed=4, n_panels=512)
        assert samples, "expected at least one uncensored ray"
        for s in samples[:: max(1, len(samples) // 10)]:
            point = s.ray.origin + s.depth * s.ray.direction
            _, color = scene.evaluate(point)
            assert np.allclose(s.color, color, atol=1e-12)


class TestSamplesFromViews:
    def test_flattening_and_foreground_filter(self):
        scene = one_blob_scene()
        rig = rig_views(Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=12, height=12))
        quad = QuadratureConfig(n_coarse=32, n_fine=32, seed=3)
        views = render_dataset(scene, rig, None, quad)
        full = samples_from_views(views, scene.t_far)
        fg = samples_from_views(views, scene.t_far, foreground_only=True)
        n_fg = sum(int((v.mask > 0).sum()) for v in views)
        assert len(fg) <= n_fg
        assert 0 < len(fg) < len(full)
        grid = pinhole_rays(views[0].camera, scene.t_far)
        first = full[0]
        assert any(np.allclose(first.ray.origin, grid.origins[i]) for i in range(4))
