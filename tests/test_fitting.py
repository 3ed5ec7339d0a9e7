"""Tests for the gradient fitter: analytic gradients, reproducibility,
projection, divergence detection, and the learning-rate/skip machinery."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayfields as rf
from rayfields import losses
from rayfields.fields import Field, PiecewiseConstantRayField, UnsupportedGradient
from rayfields.fitting import FitConfig, FitDivergence, finite_diff_gradient, fit, loss_gradient
from rayfields.geometry import Camera, Ray, pinhole_rays
from rayfields.compose import NEUTRAL_COLOR
from rayfields.fields import LOG_DENSITY_FLOOR
from rayfields.losses import (
    LossConfig,
    RgbdSample,
    RgbdBatch,
    _color_nll_values,
    _draw_free_importance,
    _draw_jitter,
    k_o_schedule,
    total_loss,
)
from rayfields.scenegen import surface_samples

from references import (SCENES, ReferenceBatch, color_source, reference_color_jacobian, reference_density_grad,
                        reference_fit, reference_loss_eval, stack_colors, stacked_mix)


def two_blob_scene() -> rf.CompositeScene:
    return rf.CompositeScene(
        (
            rf.GaussianBlobField(
                center=(-0.8, -0.2, 0.5),
                scale=(0.5, 0.5, 0.45),
                amplitude=8.0,
                color=(0.75, 0.25, 0.2),
                sigma_max=10.0,
            ),
            rf.GaussianBlobField(
                center=(0.8, 0.3, 0.5),
                scale=(0.45, 0.45, 0.4),
                amplitude=8.0,
                color=(0.2, 0.35, 0.75),
                sigma_max=10.0,
            ),
            rf.GroundPlaneField(
                softness=0.05,
                amplitude=10.0,
                color_a=(0.62, 0.62, 0.62),
                color_b=(0.52, 0.52, 0.52),
                checker_size=0.0,
                dome_radius=30.0,
                dome_color=(0.55, 0.6, 0.68),
                sigma_max=10.0,
            ),
        ),
        t_far=40.0,
    )


def scene_samples(scene, side=20):
    cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=side, height=side)
    return surface_samples(scene, pinhole_rays(cam, scene.t_far))


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.learning_rate == 4e-4
        assert cfg.decay_every == 100_000
        assert cfg.decay_factor == 0.5
        assert cfg.grad_clip_norm == 1.0
        assert cfg.skip_norm == 1000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"decay_every": 0},
            {"decay_factor": 0.0},
            {"decay_factor": 1.5},
            {"grad_clip_norm": 0.0},
            {"skip_norm": -1.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"grad_clip_norm": math.nan},
            {"grad_clip_norm": math.inf},
            {"skip_norm": math.nan},
            {"skip_norm": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,error", [
        ({"iterations": 10.0}, TypeError), ({"batch_size": 64.5}, TypeError), ({"decay_every": True}, TypeError),
        ({"seed": 0.0}, TypeError), ({"seed": True}, TypeError), ({"seed": "1"}, TypeError),
        ({"seed": -1}, ValueError), ({"seed": np.int64(-2)}, ValueError),
    ])
    def test_rejects_bad_counts_and_seeds(self, kwargs, error):
        with pytest.raises(error, match=next(iter(kwargs))):
            FitConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = FitConfig(iterations=np.int64(3), batch_size=np.int32(8), decay_every=np.int16(2), seed=np.uint8(7))
        assert (cfg.iterations, cfg.batch_size, cfg.decay_every, cfg.seed) == (3, 8, 2, 7)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        scene = two_blob_scene()
        batch = scene_samples(scene, side=8)[:24]
        # Ramp fully on so the overlap gradient participates too.
        cfg = LossConfig(ramp_start=0, ramp_end=0, k_o_max=0.05)
        seed = 31
        analytic = loss_gradient(scene, batch, iteration=5, config=cfg, rng=seed)
        numeric = finite_diff_gradient(scene, batch, iteration=5, config=cfg, seed=seed)
        # checker_size switches a discrete pattern, so its derivative is zero
        # almost everywhere while a central difference at 0 straddles the
        # switch-on jump; compare every genuinely smooth parameter.
        smooth = np.ones(analytic.shape[0], dtype=bool)
        offset = 0
        for comp in scene.components:
            if comp.kind == "ground_plane":
                smooth[offset + 8] = False
            offset += comp.n_params
        assert np.all(analytic[~smooth] == 0.0)
        denom = max(np.linalg.norm(analytic[smooth]), np.linalg.norm(numeric[smooth]))
        assert np.linalg.norm(analytic[smooth] - numeric[smooth]) / denom < 1e-4

    def test_gradient_shape_matches_params(self):
        scene = two_blob_scene()
        batch = scene_samples(scene, side=6)[:8]
        grad = loss_gradient(scene, batch, 0, LossConfig(), rng=0)
        assert grad.shape == scene.params().shape

    def test_gradient_reproducible_for_integer_seed(self):
        scene = two_blob_scene()
        batch = scene_samples(scene, side=6)[:8]
        a = loss_gradient(scene, batch, 0, LossConfig(), rng=17)
        b = loss_gradient(scene, batch, 0, LossConfig(), rng=17)
        assert np.array_equal(a, b)

    def test_kind_without_gradients_rejected(self):
        ray_field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0),
            axis_direction=(1, 0, 0),
            breakpoints=[0.0, 10.0],
            sigmas=[1.0],
            colors=[(1, 1, 1)],
        )
        scene = rf.CompositeScene((ray_field,), t_far=10.0)
        sample = RgbdSample(ray=Ray((0, 0, 0), (1, 0, 0), 10.0), color=np.ones(3), depth=4.0)
        with pytest.raises(UnsupportedGradient):
            loss_gradient(scene, [sample], 0, LossConfig(), rng=0)


def reference_evaluate_with_grad(field, pts):
    """Capped density, clipped color and the dense (N, P) density and
    (N, 3, P) color Jacobians of a field, from the reference kernels alone."""
    sigma, d_sigma = reference_density_grad(field, pts)
    if field.sigma_max is not None:
        d_sigma *= (sigma < field.sigma_max)[:, None]
        sigma = np.minimum(sigma, field.sigma_max)
    color, d_color = reference_color_jacobian(field, pts)
    return sigma, color, d_sigma, d_color


def dense_reference_loss(scene, batch, iteration, config, seed):
    """Total loss and gradient assembled from dense Jacobians: every
    component's reference density and color Jacobians at every point, a
    (B, 3, P) d(c_pred) per component contracted with the color error, then a
    mean over ray rows.  It shares no field kernel with the package."""
    arrays = RgbdBatch.from_samples(batch)
    rng = np.random.default_rng(seed)
    b, n_comp, f = len(arrays), scene.n, config.n_free_samples
    eps = _draw_jitter(rng, b, config.delta)
    pos, q = _draw_free_importance(rng, arrays.t_obs, f)
    surf = arrays.origins + (arrays.t_obs + eps)[:, None] * arrays.directions
    free = (arrays.origins[:, None, :] + pos[:, :, None] * arrays.directions[:, None, :]).reshape(-1, 3)
    stacked = np.concatenate([surf, free], axis=0)

    sig_surf = np.empty((b, n_comp))
    col_surf = np.empty((b, n_comp, 3))
    sig_free = np.empty((b, f, n_comp))
    grads = []
    for i, comp in enumerate(scene.components):
        s, c, ds, dc = reference_evaluate_with_grad(comp, stacked)
        grads.append((ds[:b], dc[:b], ds[b:].reshape(b, f, -1)))
        sig_surf[:, i] = s[:b]
        col_surf[:, i] = c[:b]
        sig_free[:, :, i] = s[b:].reshape(b, f)

    sig_tot_surf = sig_surf.sum(axis=1)
    log_live = sig_tot_surf > LOG_DENSITY_FLOOR
    depth = -np.log(np.maximum(sig_tot_surf, LOG_DENSITY_FLOOR)) + (sig_free.sum(axis=2) / q).mean(axis=1)
    color_live = sig_tot_surf > 0.0
    safe_tot = np.where(color_live, sig_tot_surf, 1.0)
    c_pred = (sig_surf[:, :, None] * col_surf).sum(axis=1) / safe_tot[:, None]
    c_pred[~color_live] = NEUTRAL_COLOR
    color = _color_nll_values((c_pred - arrays.colors).T, config.sigma_c)
    dominant = np.argmax(sig_surf, axis=1)
    overlap = sig_tot_surf - sig_surf[np.arange(b), dominant]
    k_o = k_o_schedule(iteration, config)
    total = float(depth.mean()) + float(color.mean()) + k_o * float(overlap.mean())

    err = (c_pred - arrays.colors) / config.sigma_c**2 * color_live[:, None]
    inv_tot = np.where(color_live, 1.0 / safe_tot, 0.0)
    d_log = np.where(log_live, 1.0 / np.maximum(sig_tot_surf, LOG_DENSITY_FLOOR), 0.0)
    parts = []
    for i, (ds_surf, dc_surf, ds_free) in enumerate(grads):
        g_depth = -d_log[:, None] * ds_surf + (ds_free / q[:, :, None]).mean(axis=1)
        dc_pred = (
            sig_surf[:, i, None, None] * dc_surf
            + (col_surf[:, i] - c_pred)[:, :, None] * ds_surf[:, None, :]
        ) * inv_tot[:, None, None]
        g_color = np.einsum("bc,bcp->bp", err, dc_pred)
        g_overlap = ds_surf * (dominant != i)[:, None]
        parts.append((g_depth + g_color + k_o * g_overlap).mean(axis=0))
    return total, np.concatenate(parts)


def aimed_samples(targets, rng):
    """One supervised ray per target point, arriving from a random upper
    direction 3 units away, with the observed depth at the target."""
    samples = []
    for point in np.asarray(targets, dtype=float):
        up = rng.normal(size=3)
        up[2] = abs(up[2]) + 0.5
        up /= np.linalg.norm(up)
        ray = Ray(point + 3.0 * up, -up, 40.0)
        samples.append(RgbdSample(ray=ray, color=rng.uniform(0, 1, 3), depth=3.0))
    return samples


def all_kinds_case():
    """Every gradient kind; a blob past the density cap; colors at and past
    the clip edges; ground rays on both checker colors and on the dome;
    air rays whose total surface density is below LOG_DENSITY_FLOOR."""
    scene = rf.CompositeScene(
        (
            rf.GaussianBlobField(center=(-0.8, -0.3, 0.5), scale=(0.5, 0.4, 0.45), amplitude=14.0,
                                 color=(1.0, 0.0, 1.2), sigma_max=10.0),
            rf.SoftSphereField(center=(0.7, 0.4, 0.5), radius=0.45, softness=0.1, amplitude=8.0,
                               color=(0.2, 0.9, -0.1)),
            rf.SoftBoxField(center=(0.1, -0.9, 0.35), half_size=(0.3, 0.3, 0.35), softness=0.05,
                            amplitude=9.0, color=(0.5, 1.0, 0.25)),
            rf.GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.6, 0.6, 0.6),
                                color_b=(0.4, 0.0, 1.3), checker_size=0.5, dome_radius=8.0,
                                dome_color=(0.55, 0.6, 1.0)),
        ),
        t_far=40.0,
    )
    rng = np.random.default_rng(11)
    objects = [(-0.8, -0.3, 0.5), (-0.8, -0.3, 0.9), (0.7, 0.4, 0.5), (0.7, 0.4, 0.95),
               (0.1, -0.9, 0.35), (0.1, -0.9, 0.7)]
    ground = np.column_stack([rng.uniform(-3, 3, (24, 2)), np.full(24, -0.05)])
    dome = rng.normal(size=(8, 3))
    dome[:, 2] = np.abs(dome[:, 2]) + 0.3
    dome *= 8.0 / np.linalg.norm(dome, axis=1, keepdims=True)
    air = [(0.0, 0.0, 4.0), (0.5, -0.5, 4.2), (-1.0, 0.5, 4.5)]
    return scene, aimed_samples(np.concatenate([objects, ground, dome, air]), rng)


def empty_rays_case():
    """Blobs only: rays whose surface densities are exactly zero, rays below
    LOG_DENSITY_FLOOR, and rays through the blob cores."""
    scene = rf.CompositeScene(
        (
            rf.GaussianBlobField(center=(0, 0, 0), scale=(0.2, 0.2, 0.2), amplitude=5.0,
                                 color=(0.9, 0.1, 0.1)),
            rf.GaussianBlobField(center=(0.15, 0, 0), scale=(0.2, 0.25, 0.2), amplitude=4.0,
                                 color=(0.1, 0.2, 0.9)),
        ),
        t_far=40.0,
    )
    rng = np.random.default_rng(12)
    targets = [(0, 0, 0), (0.1, 0.05, 0), (0.2, 0, 0.05), (20, 0, 0), (-15, 9, 3), (0, 30, 0),
               (1.9, 0, 0), (0, -1.9, 0.3), (0, 0, 1.95)]
    return scene, aimed_samples(targets, rng)


def fit_mix_case():
    """The object mix of a fit benchmark scene, three blobs, three spheres and
    two boxes, plus the ground; the first blob has no density cap and the
    first sphere's core is past it.  Rays aim at every object's core and
    top, at both checker colors, at the dome and into the air."""
    objects = (
        rf.GaussianBlobField(center=(-1.2, -0.8, 0.5), scale=(0.4, 0.35, 0.4), amplitude=7.0,
                             color=(0.8, 0.2, 0.1), sigma_max=None),
        rf.GaussianBlobField(center=(-0.2, 1.1, 0.45), scale=(0.3, 0.4, 0.35), amplitude=9.0,
                             color=(0.1, 0.7, 0.3)),
        rf.GaussianBlobField(center=(1.3, -0.9, 0.55), scale=(0.45, 0.3, 0.4), amplitude=6.0,
                             color=(1.0, 0.5, -0.2)),
        rf.SoftSphereField(center=(0.9, 0.9, 0.4), radius=0.35, softness=0.06, amplitude=16.0,
                           color=(0.3, 0.3, 0.9)),
        rf.SoftSphereField(center=(-1.1, 0.6, 0.35), radius=0.3, softness=0.05, amplitude=8.0,
                           color=(0.9, 0.9, 0.1)),
        rf.SoftSphereField(center=(0.2, -0.2, 0.3), radius=0.3, softness=0.08, amplitude=7.0,
                           color=(0.0, 1.0, 0.6)),
        rf.SoftBoxField(center=(0.4, -1.4, 0.3), half_size=(0.3, 0.25, 0.3), softness=0.04, amplitude=9.0,
                        color=(0.6, 0.3, 0.9)),
        rf.SoftBoxField(center=(-0.3, 0.3, 0.35), half_size=(0.2, 0.3, 0.35), softness=0.05, amplitude=8.0,
                        color=(1.2, 0.4, 0.4)),
    )
    ground = rf.GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.6, 0.6, 0.6), color_b=(0.3, 0.3, 0.35),
                                 checker_size=0.5, dome_radius=8.0, dome_color=(0.5, 0.6, 0.8))
    scene = rf.CompositeScene(objects + (ground,), t_far=40.0)
    rng = np.random.default_rng(13)
    centers = np.array([o.center for o in objects])
    tops = centers + (0.0, 0.0, 0.3)
    floor = np.column_stack([rng.uniform(-3, 3, (20, 2)), np.full(20, -0.05)])
    dome = rng.normal(size=(6, 3))
    dome[:, 2] = np.abs(dome[:, 2]) + 0.3
    dome *= 8.0 / np.linalg.norm(dome, axis=1, keepdims=True)
    air = [(0.0, 0.0, 4.0), (1.0, -0.5, 4.2)]
    return scene, aimed_samples(np.concatenate([centers, tops, floor, dome, air]), rng)


class TestGradientAssembly:
    """loss_gradient against dense_reference_loss, case by case."""

    CONFIGS = {
        "default": (LossConfig(), 0),
        "free3_overlap": (LossConfig(n_free_samples=3, ramp_start=0, ramp_end=0, k_o_max=0.05), 4),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("case", [all_kinds_case, empty_rays_case, fit_mix_case], ids=lambda c: c.__name__)
    def test_matches_dense_reference(self, case, config):
        scene, batch = case()
        cfg, iteration = self.CONFIGS[config]
        for seed in (0, 1, 2):
            ref_total, ref_grad = dense_reference_loss(scene, batch, iteration, cfg, seed)
            total, _ = total_loss(scene, batch, iteration, cfg, rng=seed)
            grad = loss_gradient(scene, batch, iteration, cfg, rng=seed)
            assert total == ref_total
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_cases_reach_every_regime(self):
        scene, batch = all_kinds_case()
        arrays = RgbdBatch.from_samples(batch)
        surf = arrays.origins + arrays.t_obs[:, None] * arrays.directions
        sigmas = scene.density_components(surf)
        assert np.any(sigmas[:, 0] == 10.0)  # the blob core sits at the cap
        assert sigmas.sum(axis=1).min() < LOG_DENSITY_FLOOR
        _, offsets = color_source(scene.components[3], surf)
        assert set(np.unique(offsets)) == {2, 5, 10}
        scene, batch = empty_rays_case()
        arrays = RgbdBatch.from_samples(batch)
        totals = scene.density(arrays.origins + arrays.t_obs[:, None] * arrays.directions)
        assert np.any(totals == 0.0)
        assert np.any((totals > 0.0) & (totals < LOG_DENSITY_FLOOR))
        assert np.any(totals > 1.0)
        scene, batch = fit_mix_case()
        arrays = RgbdBatch.from_samples(batch)
        surf = arrays.origins + arrays.t_obs[:, None] * arrays.directions
        sigmas = scene.density_components(surf)
        assert set(np.unique(color_source(scene.components[8], surf)[1])) == {2, 5, 10}
        assert scene.components[0].sigma_max is None
        assert np.any(sigmas[:, 3] == scene.components[3].sigma_max)  # the sphere core sits at the cap
        assert np.all(sigmas[:, :8].max(axis=0) > 1.0)  # every object is hit

    def test_checker_size_gradient_is_zero(self):
        scene, batch = all_kinds_case()
        grad = loss_gradient(scene, batch, 0, LossConfig(), rng=3)
        checker = sum(c.n_params for c in scene.components[:3]) + 8
        assert grad[checker] == 0.0
        # color_b = (0.4, 0.0, 1.3): red and green (at the clip edge) are
        # live, blue lies past the clip and has no gradient.
        assert grad[checker - 3] != 0.0 and grad[checker - 2] != 0.0 and grad[checker - 1] == 0.0


def nine_components_case():
    """all_kinds_case's rays through nine components: its four plus five
    overlapping objects, two of them with colors past the clip edges."""
    scene, batch = all_kinds_case()
    extra = (
        rf.GaussianBlobField(center=(-0.6, -0.3, 0.6), scale=(0.3, 0.3, 0.3), amplitude=6.0, color=(-0.2, 0.4, 0.9)),
        rf.SoftSphereField(center=(0.6, 0.3, 0.5), radius=0.3, softness=0.05, amplitude=12.0, color=(0.1, 0.1, 0.1)),
        rf.SoftBoxField(center=(0.0, -0.8, 0.3), half_size=(0.2, 0.4, 0.2), softness=0.03, amplitude=4.0,
                        color=(1.3, 0.5, 0.0)),
        rf.GaussianBlobField(center=(0.0, 0.0, 0.2), scale=(2.0, 2.0, 0.3), amplitude=0.5, color=(0.7, 0.7, 0.2)),
        rf.GaussianBlobField(center=(0.0, 0.0, 4.0), scale=(0.5, 0.5, 0.5), amplitude=0.0, color=(0.5, 0.5, 0.5)),
    )
    return rf.CompositeScene(scene.components[:3] + extra + scene.components[3:], t_far=scene.t_far), batch


def lone_component_case():
    scene, batch = empty_rays_case()
    return rf.CompositeScene(scene.components[:1], t_far=scene.t_far), batch


class TestStackedMixLoss:
    """total_loss and loss_gradient equal the same loss with its colors mixed
    from a stacked (N, n, 3) array, bit for bit."""

    @pytest.mark.parametrize("config", sorted(TestGradientAssembly.CONFIGS))
    @pytest.mark.parametrize("case", [lone_component_case, empty_rays_case, all_kinds_case, nine_components_case],
                             ids=lambda c: c.__name__)
    def test_bit_identical(self, case, config, monkeypatch):
        scene, batch = case()
        cfg, iteration = TestGradientAssembly.CONFIGS[config]

        def results():
            return [(total_loss(scene, batch, iteration, cfg, rng=seed),
                     loss_gradient(scene, batch, iteration, cfg, rng=seed).tobytes()) for seed in (0, 1)]

        got = results()
        monkeypatch.setattr(losses, "_mix", lambda sigmas, colors: (lambda total, color: (total, color.T))(
            *stacked_mix(np.ascontiguousarray(sigmas.T), stack_colors(colors, sigmas.shape[1]))))
        assert got == results()


class TestFit:
    def perturbed(self, scene, seed=5):
        rng = np.random.default_rng(seed)
        params = scene.params()
        return scene.with_params(params + rng.normal(0, 0.02, params.shape))

    def test_reproducible_and_seed_sensitive(self):
        target = two_blob_scene()
        data = scene_samples(target, side=12)
        init = self.perturbed(target)
        cfg = FitConfig(iterations=40, batch_size=64, seed=9)
        rep_a = fit(init, data, cfg)
        rep_b = fit(init, data, cfg)
        rep_c = fit(init, data, FitConfig(iterations=40, batch_size=64, seed=10))
        assert np.array_equal(rep_a.final_params, rep_b.final_params)
        assert [e["total"] for e in rep_a.trace] == [e["total"] for e in rep_b.trace]
        assert not np.array_equal(rep_a.final_params, rep_c.final_params)

    def test_loss_decreases_on_easy_problem(self):
        target = two_blob_scene()
        data = scene_samples(target, side=16)
        init = self.perturbed(target, seed=2)
        rep = fit(init, data, FitConfig(iterations=400, batch_size=128, seed=3))
        head = np.mean([e["total"] for e in rep.trace[:25]])
        tail = np.mean([e["total"] for e in rep.trace[-25:]])
        assert tail < head

    def test_trace_contents(self):
        target = two_blob_scene()
        data = scene_samples(target, side=8)
        rep = fit(self.perturbed(target), data, FitConfig(iterations=7, batch_size=32, seed=1))
        assert len(rep.trace) == 7
        assert [e["iteration"] for e in rep.trace] == list(range(7))
        for entry in rep.trace:
            for key in ("depth_nll", "color_nll", "overlap", "total", "grad_norm", "learning_rate", "skipped"):
                assert key in entry
        assert rep.wall_clock_s > 0
        assert rep.seed == 1

    def test_learning_rate_decays_stepwise(self):
        target = two_blob_scene()
        data = scene_samples(target, side=8)
        cfg = FitConfig(iterations=25, batch_size=32, seed=1, decay_every=10, decay_factor=0.5)
        rep = fit(self.perturbed(target), data, cfg)
        lrs = [e["learning_rate"] for e in rep.trace]
        assert lrs[0] == pytest.approx(4e-4)
        assert lrs[9] == pytest.approx(4e-4)
        assert lrs[10] == pytest.approx(2e-4)
        assert lrs[20] == pytest.approx(1e-4)

    def test_skip_threshold_freezes_params(self):
        target = two_blob_scene()
        data = scene_samples(target, side=8)
        init = self.perturbed(target)
        cfg = FitConfig(iterations=10, batch_size=32, seed=1, skip_norm=1e-12)
        rep = fit(init, data, cfg)
        assert rep.skipped_steps == 10
        assert all(e["skipped"] for e in rep.trace)
        assert np.array_equal(rep.final_params, init.params())

    def test_projection_keeps_params_in_domain(self):
        target = two_blob_scene()
        data = scene_samples(target, side=10)
        # Start colors at the boundary so steps would otherwise leave [0, 1].
        init_fields = []
        for comp in target.components[:2]:
            init_fields.append(
                rf.GaussianBlobField(
                    center=comp.center,
                    scale=comp.scale,
                    amplitude=comp.amplitude,
                    color=(0.0, 1.0, 0.0),
                    sigma_max=comp.sigma_max,
                )
            )
        init_fields.append(target.components[2])
        init = rf.CompositeScene(tuple(init_fields), t_far=target.t_far)
        rep = fit(init, data, FitConfig(iterations=120, batch_size=64, seed=4))
        for comp in rep.final_scene.components[:2]:
            assert np.all(comp.color >= 0.0) and np.all(comp.color <= 1.0)
            assert np.all(comp.scale >= 1e-3)
            assert comp.amplitude >= 0.0

    def test_divergent_loss_raises(self):
        # An uncapped blob with astronomical amplitude overflows the depth
        # term straight to infinity.
        blob = rf.GaussianBlobField(
            center=(0.0, 0.0, 0.0),
            scale=(50.0, 50.0, 50.0),
            amplitude=1e308,
            color=(0.5, 0.5, 0.5),
            sigma_max=None,
        )
        scene = rf.CompositeScene((blob,), t_far=40.0)
        sample = RgbdSample(ray=Ray((0, 0, 5.0), (0, 0, -1.0), 40.0), color=np.full(3, 0.5), depth=5.0)
        with pytest.raises(FitDivergence) as err, pytest.warns(RuntimeWarning, match="overflow"):
            fit(scene, [sample] * 8, FitConfig(iterations=3, batch_size=8, seed=0))
        assert err.value.iteration == 0
        assert err.value.term in {"depth_nll", "total"}

    def test_batch_larger_than_dataset_ok(self):
        target = two_blob_scene()
        data = scene_samples(target, side=5)
        rep = fit(self.perturbed(target), data, FitConfig(iterations=3, batch_size=4096, seed=0))
        assert len(rep.trace) == 3


def checker_off_case():
    """all_kinds_case with the ground plane's checker turned off."""
    scene, batch = all_kinds_case()
    ground = dataclasses.replace(scene.components[3], checker_size=0.0)
    return rf.CompositeScene(scene.components[:3] + (ground,), t_far=scene.t_far), batch


def scene_attributes(scene):
    """Every attribute of every component, as (kind, name, type, bytes)."""
    return [(type(c).__name__, name, type(value), np.asarray(value).tobytes())
            for c in scene.components for name, value in sorted(vars(c).items())]


class TestFitFixedPoint:
    """fit equals the loop that rebuilds its scene through with_params every
    step, gathers four arrays per batch and weights each component's
    gradient in its own pass (tests/references.py), bit for bit."""

    # Three free-space samples, a k_o ramp across the run, a clip norm most
    # steps exceed and a skip norm a few steps exceed.
    CONFIG = FitConfig(iterations=30, batch_size=32, seed=4, learning_rate=0.02, grad_clip_norm=5.0,
                       skip_norm=30.0, loss=LossConfig(n_free_samples=3, ramp_start=5, ramp_end=20))

    @pytest.mark.parametrize("case", [all_kinds_case, checker_off_case], ids=lambda c: c.__name__)
    def test_matches_reference_loop(self, case):
        scene, batch = case()
        rep = fit(scene, batch, self.CONFIG)
        trace, ref_scene, ref_params, ref_skipped = reference_fit(scene, batch, self.CONFIG)
        assert rep.final_params.tobytes() == ref_params.tobytes()
        assert rep.trace == trace
        assert scene_attributes(rep.final_scene) == scene_attributes(ref_scene)
        assert rep.skipped_steps == ref_skipped
        # The run reaches every regime it is meant to cover.
        assert 0 < rep.skipped_steps < self.CONFIG.iterations
        assert any(e["grad_norm"] > self.CONFIG.grad_clip_norm and not e["skipped"] for e in rep.trace)
        k_o = [e["k_o"] for e in rep.trace]
        assert k_o[0] == 0.0 and 0.0 < k_o[10] < self.CONFIG.loss.k_o_max and k_o[-1] == self.CONFIG.loss.k_o_max
        assert not np.array_equal(rep.final_params, scene.params())

    @pytest.mark.parametrize("skip_norm", [1000.0, 1e-9], ids=["steps", "all_skipped"])
    def test_final_scene_is_the_checked_scene(self, skip_norm):
        """The reported scene is the one the loop built last: its kinds,
        attribute types and bytes, and its params(), are those of the
        checked ``with_params`` of the final parameters."""
        scene, batch = all_kinds_case()
        rep = fit(scene, batch, FitConfig(iterations=6, batch_size=16, seed=1, learning_rate=0.02,
                                          skip_norm=skip_norm))
        assert rep.skipped_steps == (6 if skip_norm < 1.0 else 0)
        checked = scene.with_params(rep.final_params)
        assert scene_attributes(rep.final_scene) == scene_attributes(checked)
        assert rep.final_scene.params().tobytes() == rep.final_params.tobytes()
        assert type(rep.final_scene.t_far) is float and rep.final_scene.t_far == scene.t_far

    def test_accepted_fit_runs_no_field_constructor_check(self, monkeypatch):
        """Each step of a fit whose vectors are all accepted rebuilds the
        scene through CompositeScene.with_params, which checks the vector
        once, whole: no component runs its own constructor checks."""
        scene, batch = all_kinds_case()
        rebuilds, field_checks = [], []
        with_params, post_init = rf.CompositeScene.with_params, Field.__post_init__

        def counting_rebuild(self, vector):
            rebuilds.append(1)
            return with_params(self, vector)

        def counting_check(self):
            field_checks.append(1)
            post_init(self)

        monkeypatch.setattr(rf.CompositeScene, "with_params", counting_rebuild)
        monkeypatch.setattr(Field, "__post_init__", counting_check)
        rep = fit(scene, batch, FitConfig(iterations=12, batch_size=16, seed=2, learning_rate=0.02))
        assert rep.skipped_steps == 0
        assert len(rebuilds) == 12
        assert field_checks == []

    @pytest.mark.parametrize("config", sorted(TestGradientAssembly.CONFIGS))
    @pytest.mark.parametrize("case", [lone_component_case, empty_rays_case, all_kinds_case, fit_mix_case,
                                      nine_components_case], ids=lambda c: c.__name__)
    def test_packed_batch_matches_four_arrays(self, case, config):
        scene, batch = case()
        cfg, iteration = TestGradientAssembly.CONFIGS[config]
        packed, four = RgbdBatch.from_samples(batch), ReferenceBatch.from_samples(batch)
        idx = np.random.default_rng(3).choice(len(batch), size=len(batch) - 2, replace=False)
        for got, want in ((packed, four), (packed[idx], four.take(idx))):
            for name in ("origins", "directions", "t_obs", "colors"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert len(got) == len(want)
        for seed in (0, 1):
            total, breakdown = total_loss(scene, packed, iteration, cfg, rng=seed)
            grad = loss_gradient(scene, packed, iteration, cfg, rng=seed)
            ref_total, ref_breakdown, _ = reference_loss_eval(scene, four, iteration, cfg, seed, False)
            _, _, ref_grad = reference_loss_eval(scene, four, iteration, cfg, seed, True)
            assert (total, breakdown) == (ref_total, ref_breakdown)
            assert grad.tobytes() == ref_grad.tobytes()


# Values each slot is set to: non-finite, zero of both signs and the least
# subnormals of both signs, so every domain rule is met and missed.
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]


def _outcome(build, scene, vector):
    """The attributes (``scene_attributes``) of the scene ``build(scene,
    vector)`` returns, or the type and message of the error it raises."""
    try:
        return scene_attributes(build(scene, vector))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _checked_components(scene, vector):
    """The scene built from ``vector`` component by component, each by its
    checked constructor (``dataclasses.replace``, so ``__post_init__`` runs;
    a kind without a layout by its own ``with_params``)."""
    ends = np.cumsum([c.n_params for c in scene.components]).tolist()
    comps = [dataclasses.replace(c, **c._groups(vector[end - c.n_params : end])) if c.layout
             else c.with_params(vector[end - c.n_params : end]) for c, end in zip(scene.components, ends)]
    return rf.CompositeScene(tuple(comps), scene.t_far)


class TestRebuildCheck:
    """CompositeScene.with_params, which checks a vector once, whole,
    accepts exactly the vectors every component's checked constructor
    accepts and builds the same attributes (types and bytes) from them; for
    any other vector it raises the first failing constructor's error type
    and message."""

    def test_every_slot_of_every_kind(self):
        scene, _ = all_kinds_case()
        base = scene.params()
        accepted = 0
        for at in range(base.shape[0]):
            for value in EDGE_VALUES:
                vector = base.copy()
                vector[at] = value
                want = _outcome(_checked_components, scene, vector)
                assert _outcome(rf.CompositeScene.with_params, scene, vector) == want, (at, value)
                accepted += isinstance(want, list)
        assert 0 < accepted < base.shape[0] * len(EDGE_VALUES)

    @settings(max_examples=150, deadline=None)
    @given(SCENES, st.data())
    def test_random_vectors(self, scene, data):
        vector = scene.params()
        entries = st.sampled_from(EDGE_VALUES) | st.floats(-1e3, 1e3)
        for at in data.draw(st.lists(st.integers(0, vector.shape[0] - 1), max_size=4)):
            vector[at] = data.draw(entries)
        assert _outcome(rf.CompositeScene.with_params, scene, vector) == _outcome(_checked_components, scene, vector)

    def test_kind_without_layout_uses_with_params(self):
        """A scene holding a kind without a layout, alone or after a blob,
        is rebuilt component by component: accepted, and rejected by the blob
        (a NaN) or by the piecewise kind (a negative density)."""
        ray = Ray((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 10.0)
        piecewise = PiecewiseConstantRayField.on_ray(ray, [0.0, 1.0, 2.0], [0.5, 1.0], [[0.1, 0.2, 0.3]] * 2)
        blob = two_blob_scene().components[0]
        for scene in (rf.CompositeScene((piecewise,), t_far=10.0), rf.CompositeScene((blob, piecewise), t_far=10.0)):
            base = scene.params()
            nan_first = base.copy()
            nan_first[0] = math.nan
            for vector in (base + 0.25, nan_first, np.full(base.shape, -1.0)):
                want = _outcome(_checked_components, scene, vector)
                assert _outcome(rf.CompositeScene.with_params, scene, vector) == want
            assert isinstance(_outcome(rf.CompositeScene.with_params, scene, base + 0.25), list)
            with pytest.raises(ValueError):
                scene.with_params(np.full(base.shape, -1.0))

    def test_wrong_shape_rejected(self):
        scene, _ = all_kinds_case()
        size = scene.params().shape[0]
        for shape in ((size - 1,), (size + 1,), (1, size), ()):
            with pytest.raises(ValueError, match=re.escape(f"expected {size} parameters, got shape {shape}")):
                scene.with_params(np.zeros(shape))
