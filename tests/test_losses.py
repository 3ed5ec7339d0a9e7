"""Tests for the RGB-D likelihood terms, proposals, and the overlap penalty.

Frozen oracles
--------------
Zero-error Gaussian color NLL (normalization only), computed independently as
3 * (0.5*ln(2*pi) + ln(sigma_c)):

    sigma_c = 0.2  ->  -2.0714981376882827
    sigma_c = 1.0  ->   2.7568155996140185

Constant-density ray (sigma = 0.5 everywhere, observed depth t): the one-draw
uniform-proposal depth NLL is exactly -ln(0.5) + 0.5*t because the free-space
integrand t*sigma(U*t) is constant in the draw.
"""

import numpy as np
import pytest

import rayfields as rf
from rayfields.fields import LOG_DENSITY_FLOOR, PiecewiseConstantRayField
from rayfields.geometry import Ray
from rayfields.losses import (
    IMPORTANCE_SPLIT,
    LossConfig,
    RgbdSample,
    color_nll,
    depth_nll_draws,
    depth_nll_importance,
    depth_nll_uniform,
    k_o_schedule,
    overlap_loss,
    total_loss,
)
from rayfields.fitting import loss_gradient

ZERO_ERR_NLL_02 = -2.0714981376882827
ZERO_ERR_NLL_10 = 2.7568155996140185


def constant_ray_field(sigma: float, t_far: float, color=(0.3, 0.6, 0.9)):
    return PiecewiseConstantRayField(
        axis_origin=(0.0, 0.0, 0.0),
        axis_direction=(1.0, 0.0, 0.0),
        breakpoints=[0.0, t_far],
        sigmas=[sigma],
        colors=[color],
    )


def x_ray(t_far: float = 10.0) -> Ray:
    return Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t_far)


def make_sample(depth: float, color=(0.3, 0.6, 0.9), t_far: float = 10.0) -> RgbdSample:
    return RgbdSample(ray=x_ray(t_far), color=np.asarray(color, dtype=float), depth=depth)


class TestRgbdSample:
    def test_stores_fields(self):
        s = make_sample(4.0)
        assert s.depth == 4.0
        assert s.color.shape == (3,)

    @pytest.mark.parametrize("depth", [0.0, -1.0, 10.0, 11.0])
    def test_depth_outside_open_interval_rejected(self, depth):
        with pytest.raises(ValueError):
            make_sample(depth)

    def test_bad_color_rejected(self):
        with pytest.raises(ValueError):
            RgbdSample(ray=x_ray(), color=np.array([0.1, 0.2]), depth=4.0)
        with pytest.raises(ValueError):
            RgbdSample(ray=x_ray(), color=np.array([0.1, np.nan, 0.2]), depth=4.0)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.sigma_c == 0.2
        assert cfg.delta == 0.07
        assert cfg.k_o_max == 0.05
        assert (cfg.ramp_start, cfg.ramp_end) == (50_000, 100_000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_c": 0.0},
            {"sigma_c": -1.0},
            {"delta": -0.01},
            {"k_o_max": -0.1},
            {"ramp_start": 10, "ramp_end": 5},
            {"n_free_samples": 0},
            {"sigma_c": np.nan},
            {"sigma_c": np.inf},
            {"delta": np.nan},
            {"delta": np.inf},
            {"k_o_max": np.nan},
            {"k_o_max": np.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)


class TestColorNll:
    def test_zero_error_matches_frozen_constant(self):
        # Spatially constant color equal to the observation: only the
        # Gaussian normalization remains, whatever the jitter draw.
        color = (0.3, 0.6, 0.9)
        field = constant_ray_field(0.5, 10.0, color=color)
        sample = make_sample(4.0, color=color)
        value = color_nll(field, sample, rng=0, config=LossConfig(sigma_c=0.2))
        assert value == pytest.approx(ZERO_ERR_NLL_02, abs=1e-12)

    def test_zero_error_unit_sigma(self):
        color = (0.3, 0.6, 0.9)
        field = constant_ray_field(0.5, 10.0, color=color)
        sample = make_sample(4.0, color=color)
        value = color_nll(field, sample, rng=0, config=LossConfig(sigma_c=1.0))
        assert value == pytest.approx(ZERO_ERR_NLL_10, abs=1e-12)

    def test_known_error_vector(self):
        # err = (0.1, 0.2, 0.3): |err|^2 = 0.14; 0.14 / (2 * 0.2^2) = 1.75.
        field = constant_ray_field(0.5, 10.0, color=(0.3, 0.6, 0.9))
        sample = make_sample(4.0, color=(0.4, 0.8, 1.2))
        value = color_nll(field, sample, rng=0, config=LossConfig(sigma_c=0.2))
        assert value == pytest.approx(ZERO_ERR_NLL_02 + 1.75, abs=1e-12)

    def test_larger_error_scores_worse(self):
        field = constant_ray_field(0.5, 10.0, color=(0.3, 0.6, 0.9))
        near = make_sample(4.0, color=(0.35, 0.6, 0.9))
        far = make_sample(4.0, color=(0.9, 0.1, 0.2))
        cfg = LossConfig()
        assert color_nll(field, near, 0, cfg) < color_nll(field, far, 0, cfg)


class TestDepthNllUniform:
    def test_constant_field_exact(self):
        # sigma constant => t * sigma(U t) is draw-independent, so the one-draw
        # estimate equals -ln(sigma) + sigma * t exactly.
        sigma, t = 0.5, 7.0
        field = constant_ray_field(sigma, 10.0)
        sample = make_sample(t)
        cfg = LossConfig(delta=0.0)
        for seed in range(5):
            value = depth_nll_uniform(field, sample, seed, cfg)
            assert value == pytest.approx(-np.log(sigma) + sigma * t, rel=1e-12)

    def test_unbiased_on_two_band_field(self):
        # sigma = 2 on [0, 3), 0.25 on [3, 10); depth 8 =>
        # integral = 2*3 + 0.25*5 = 7.25, surface density 0.25.
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, 3.0, 10.0],
            sigmas=[2.0, 0.25],
            colors=[(1, 1, 1), (0.2, 0.2, 0.2)],
        )
        sample = make_sample(8.0)
        cfg = LossConfig(delta=0.0)
        draws = depth_nll_draws(field, sample, np.random.default_rng(7), cfg, n_draws=20_000)
        expected = -np.log(0.25) + 7.25
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_floor_when_surface_density_zero(self):
        # Observed depth in a vacuum stretch: the log term hits the density
        # floor instead of diverging.
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, 1.0, 10.0],
            sigmas=[1.0, 0.0],
            colors=[(1, 1, 1), (0, 0, 0)],
        )
        sample = make_sample(5.0)
        value = depth_nll_uniform(field, sample, 0, LossConfig(delta=0.0))
        assert np.isfinite(value)
        assert value >= -np.log(LOG_DENSITY_FLOOR) - 1e-9


class TestDepthNllImportance:
    def test_unbiased_on_constant_field(self):
        sigma, t = 0.5, 7.0
        field = constant_ray_field(sigma, 10.0)
        sample = make_sample(t)
        cfg = LossConfig(delta=0.0)
        draws = depth_nll_draws(
            field, sample, np.random.default_rng(3), cfg, n_draws=40_000, proposal="importance"
        )
        expected = -np.log(sigma) + sigma * t
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_mixture_split_visible_through_indicator_band(self):
        # Density 1 only on the final 2% of the ray: head draws contribute 0,
        # tail draws contribute sigma/q = 0.04 t.  The positive fraction
        # reveals the 50/50 mixture and the mean stays unbiased (0.02 t).
        t = 8.0
        lo = IMPORTANCE_SPLIT * t
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, lo, 1.2 * t],
            sigmas=[0.0, 1.0],
            colors=[(0, 0, 0), (1, 1, 1)],
        )
        sample = make_sample(t, t_far=10.0)
        cfg = LossConfig(delta=0.0)
        n = 40_000
        draws = depth_nll_draws(
            field, sample, np.random.default_rng(11), cfg, n_draws=n, proposal="importance"
        )
        # Surface point t sits inside the band, so -log sigma_surf = 0 and the
        # draw values are exactly 0 or 0.04 t.
        inner = draws
        positive = inner > 1e-12
        assert np.allclose(inner[positive], 0.04 * t, rtol=1e-12)
        frac = positive.mean()
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / n)
        se = inner.std(ddof=1) / np.sqrt(n)
        assert abs(inner.mean() - 0.02 * t) <= 3.0 * se

    def test_variance_beats_uniform_on_spike_field(self):
        # Density concentrated near the surface: the uniform proposal rarely
        # sees it, the near-surface mixture hits it half the time.
        t = 8.0
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, IMPORTANCE_SPLIT * t, 1.2 * t],
            sigmas=[0.0, 50.0],
            colors=[(0, 0, 0), (1, 1, 1)],
        )
        sample = make_sample(t, t_far=10.0)
        cfg = LossConfig(delta=0.0)
        n = 20_000
        uni = depth_nll_draws(field, sample, np.random.default_rng(21), cfg, n, "uniform")
        imp = depth_nll_draws(field, sample, np.random.default_rng(22), cfg, n, "importance")
        assert imp.var(ddof=1) <= uni.var(ddof=1) / 2.0
        # Both remain unbiased for the same quantity.
        expected = -np.log(50.0) + 50.0 * 0.02 * t
        assert abs(imp.mean() - expected) <= 3.0 * imp.std(ddof=1) / np.sqrt(n)
        assert abs(uni.mean() - expected) <= 3.0 * uni.std(ddof=1) / np.sqrt(n)

    def test_positions_clamped_away_from_zero(self):
        # A field that is huge only below the clamp would reveal draws at 0;
        # the proposals never sample below the minimum-depth clamp.
        t = 8.0
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, 1e-5, 10.0],
            sigmas=[1e12, 0.5],
            colors=[(1, 1, 1), (0, 0, 0)],
        )
        sample = make_sample(t)
        draws = depth_nll_draws(
            field, sample, np.random.default_rng(5), LossConfig(delta=0.0), 2_000, "uniform"
        )
        # 1e-4 clamp keeps every draw out of the [0, 1e-5) spike.
        assert draws.max() < 1e6

    def test_unknown_proposal_rejected(self):
        field = constant_ray_field(0.5, 10.0)
        with pytest.raises(ValueError):
            depth_nll_draws(field, make_sample(4.0), 0, LossConfig(), 1, "antithetic")

    def test_multiple_free_samples_reduce_variance(self):
        t = 8.0
        field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, 4.0, 10.0],
            sigmas=[3.0, 0.5],
            colors=[(1, 1, 1), (0, 0, 0)],
        )
        sample = make_sample(t)
        one = depth_nll_draws(
            field, sample, np.random.default_rng(9), LossConfig(delta=0.0), 8_000, "uniform"
        )
        four = depth_nll_draws(
            field,
            sample,
            np.random.default_rng(9),
            LossConfig(delta=0.0, n_free_samples=4),
            8_000,
            "uniform",
        )
        assert four.var(ddof=1) < one.var(ddof=1)

    def test_single_draw_wrappers_reproducible(self):
        field = constant_ray_field(0.5, 10.0)
        sample = make_sample(4.0)
        cfg = LossConfig()
        assert depth_nll_uniform(field, sample, 42, cfg) == depth_nll_uniform(field, sample, 42, cfg)
        assert depth_nll_importance(field, sample, 42, cfg) == depth_nll_importance(
            field, sample, 42, cfg
        )


class TestOverlapLoss:
    def test_sum_minus_max(self):
        blob_a = rf.GaussianBlobField(
            center=(0, 0, 0), scale=(1, 1, 1), amplitude=4.0, color=(1, 0, 0)
        )
        blob_b = rf.GaussianBlobField(
            center=(0.5, 0, 0), scale=(1, 1, 1), amplitude=2.0, color=(0, 0, 1)
        )
        scene = rf.CompositeScene((blob_a, blob_b), t_far=40.0)
        point = np.array([0.25, 0.0, 0.0])
        sig_a, _ = blob_a.evaluate(point)
        sig_b, _ = blob_b.evaluate(point)
        expected = float(sig_a + sig_b - max(sig_a, sig_b))
        assert overlap_loss(scene, point) == pytest.approx(expected, rel=1e-12)

    def test_single_component_zero(self):
        blob = rf.GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=4.0, color=(1, 0, 0))
        scene = rf.CompositeScene((blob,), t_far=40.0)
        assert overlap_loss(scene, (0.0, 0.0, 0.0)) == 0.0

    def test_bad_point_rejected(self):
        blob = rf.GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=4.0, color=(1, 0, 0))
        scene = rf.CompositeScene((blob, blob), t_far=40.0)
        with pytest.raises(ValueError):
            overlap_loss(scene, (0.0, np.inf, 0.0))
        with pytest.raises(ValueError):
            overlap_loss(scene, (0.0, 0.0))


class TestKoSchedule:
    def test_default_ramp(self):
        cfg = LossConfig()
        assert k_o_schedule(0, cfg) == 0.0
        assert k_o_schedule(50_000, cfg) == 0.0
        assert k_o_schedule(60_000, cfg) == pytest.approx(0.01, abs=1e-15)
        assert k_o_schedule(75_000, cfg) == pytest.approx(0.025, abs=1e-15)
        assert k_o_schedule(100_000, cfg) == 0.05
        assert k_o_schedule(1_000_000, cfg) == 0.05

    def test_monotone_over_ramp(self):
        cfg = LossConfig(ramp_start=100, ramp_end=200, k_o_max=0.3)
        values = [k_o_schedule(i, cfg) for i in range(0, 300, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == 0.3

    def test_step_when_ramp_degenerate(self):
        cfg = LossConfig(ramp_start=100, ramp_end=100, k_o_max=0.2)
        assert k_o_schedule(99, cfg) == 0.0
        assert k_o_schedule(100, cfg) == 0.2
        assert k_o_schedule(101, cfg) == 0.2


class TestTotalLoss:
    def make_scene_and_batch(self, n=16):
        scene = rf.CompositeScene(
            (
                rf.GaussianBlobField(
                    center=(-0.5, 0, 0.5), scale=(0.5, 0.5, 0.4), amplitude=8.0, color=(0.8, 0.2, 0.2)
                ),
                rf.GaussianBlobField(
                    center=(0.6, 0.2, 0.4), scale=(0.4, 0.4, 0.4), amplitude=8.0, color=(0.2, 0.3, 0.8)
                ),
            ),
            t_far=40.0,
        )
        rng = np.random.default_rng(123)
        batch = []
        for _ in range(n):
            origin = rng.uniform(-1, 1, 3) + np.array([0.0, 0.0, 3.0])
            direction = np.array([0.0, 0.0, -1.0])
            batch.append(
                RgbdSample(
                    ray=Ray(origin, direction, 40.0),
                    color=rng.uniform(0, 1, 3),
                    depth=float(rng.uniform(1.0, 5.0)),
                )
            )
        return scene, batch

    def test_breakdown_sums_exactly(self):
        scene, batch = self.make_scene_and_batch()
        cfg = LossConfig(ramp_start=0, ramp_end=0, k_o_max=0.05)
        total, bd = total_loss(scene, batch, iteration=10, config=cfg, rng=0)
        assert total == bd["total"]
        assert bd["total"] == bd["depth_nll"] + bd["color_nll"] + bd["overlap_weighted"]
        assert bd["overlap_weighted"] == bd["k_o"] * bd["overlap"]
        assert bd["k_o"] == k_o_schedule(10, cfg)

    def test_seed_reproducibility(self):
        scene, batch = self.make_scene_and_batch()
        cfg = LossConfig()
        a = total_loss(scene, batch, 0, cfg, rng=7)
        b = total_loss(scene, batch, 0, cfg, rng=7)
        c = total_loss(scene, batch, 0, cfg, rng=8)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[0] != c[0]

    def test_overlap_term_off_before_ramp(self):
        scene, batch = self.make_scene_and_batch()
        cfg = LossConfig(ramp_start=1000, ramp_end=2000)
        _, bd = total_loss(scene, batch, iteration=0, config=cfg, rng=0)
        assert bd["k_o"] == 0.0
        assert bd["overlap_weighted"] == 0.0
        assert bd["overlap"] > 0.0

    def test_empty_batch_rejected(self):
        scene, _ = self.make_scene_and_batch()
        with pytest.raises(ValueError):
            total_loss(scene, [], 0, LossConfig(), 0)

    def test_perfect_scene_scores_better_than_perturbed(self):
        # Supervision drawn from the scene itself should beat a shifted copy.
        scene, _ = self.make_scene_and_batch()
        from rayfields.scenegen import surface_samples
        from rayfields.geometry import Camera, pinhole_rays

        cam = Camera(position=(3.5, 0.0, 2.0), look_at=(0.0, 0.0, 0.4), width=24, height=24)
        grid = pinhole_rays(cam, t_far=40.0)
        batch = surface_samples(scene, grid)
        params = scene.params()
        shifted = scene.with_params(params + 0.15)
        cfg = LossConfig()
        good, _ = total_loss(scene, batch, 0, cfg, rng=3)
        bad, _ = total_loss(shifted, batch, 0, cfg, rng=3)
        assert good < bad


class TestDominantTieRule:
    """Where components tie at a surface point, the first of them is the
    dominant one (argmax's first-index rule), so the overlap term reaches
    only the others."""

    def test_first_of_tied_components_is_dominant(self):
        blob = rf.GaussianBlobField(center=(0.0, 0.0, 0.5), scale=(0.5, 0.5, 0.4), amplitude=6.0,
                                    color=(0.8, 0.2, 0.2))
        scene = rf.CompositeScene((blob, blob), t_far=40.0)  # every ray ties
        _, batch = TestTotalLoss().make_scene_and_batch()
        on = LossConfig(k_o_max=0.05, ramp_start=0, ramp_end=0)
        off = LossConfig(k_o_max=0.0, ramp_start=0, ramp_end=0)
        assert k_o_schedule(0, on) == 0.05 and k_o_schedule(0, off) == 0.0
        diff = loss_gradient(scene, batch, 0, on, rng=4) - loss_gradient(scene, batch, 0, off, rng=4)
        density = list(blob.density_params)
        first, second = diff[: blob.n_params], diff[blob.n_params :]
        assert np.all(first[density] == 0.0)
        assert np.all(second[density] != 0.0)
