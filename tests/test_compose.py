import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields.compose import (
    EMPTY_SEGMENT,
    NEUTRAL_COLOR,
    CompositeScene,
    component_marginal,
    composite_eval,
    composite_render,
    joint_depth_component_pdf,
    merged_field,
    mixture_render_constant,
    render_ray_grid,
    segment_ray,
    _mix,
)
from rayfields import transport
from rayfields.fields import GaussianBlobField, SoftSphereField
from rayfields.geometry import Camera, Ray, pinhole_rays
from rayfields.transport import QuadratureConfig, hierarchical_render

from references import FIELDS, POINTS, stack_colors, stacked_mix


def _two_blob_scene(t_far=12.0):
    a = GaussianBlobField(center=(4.0, 0.0, 0.0), scale=(0.5, 0.5, 0.5),
                          amplitude=8.0, color=(1.0, 0.0, 0.0))
    b = GaussianBlobField(center=(8.0, 0.0, 0.0), scale=(0.5, 0.5, 0.5),
                          amplitude=8.0, color=(0.0, 0.0, 1.0))
    return CompositeScene((a, b), t_far=t_far)


X_RAY = Ray((0, 0, 0), (1, 0, 0), 12.0)


class TestCompositeEvaluate:
    def test_densities_add(self):
        scene = _two_blob_scene()
        pts = np.random.default_rng(0).uniform(0, 12, (50, 3)) * [1, 0.1, 0.1]
        total, _ = scene.evaluate(pts)
        parts, _ = scene.evaluate_components(pts)
        assert np.allclose(total, parts.sum(axis=1))

    def test_color_is_density_weighted(self):
        a = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=3.0,
                              color=(1.0, 0.0, 0.0), sigma_max=None)
        b = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=1.0,
                              color=(0.0, 0.0, 1.0), sigma_max=None)
        scene = CompositeScene((a, b), t_far=5.0)
        _, color = scene.evaluate((0.0, 0.0, 0.0))
        assert np.allclose(color, (0.75, 0.0, 0.25))

    def test_neutral_color_in_vacuum(self):
        # Far enough out that the Gaussian tails underflow to exactly zero.
        scene = _two_blob_scene()
        _, color = scene.evaluate((0.0, 50.0, 50.0))
        assert np.allclose(color, (0.5, 0.5, 0.5))

    def test_composite_eval_struct(self):
        scene = _two_blob_scene()
        cp = composite_eval(scene, (4.0, 0.0, 0.0))
        assert cp.sigma == pytest.approx(cp.sigmas.sum())
        assert cp.sigmas.shape == (2,)
        assert cp.color_defined
        vacuum = composite_eval(scene, (0.0, 50.0, 50.0))
        assert not vacuum.color_defined

    def test_single_component_scene_is_transparent_wrapper(self):
        a = _two_blob_scene().components[0]
        scene = CompositeScene((a,), t_far=12.0)
        pts = np.random.default_rng(1).uniform(0, 10, (20, 3))
        s1, c1 = scene.evaluate(pts)
        s2, c2 = a.evaluate(pts)
        assert np.array_equal(s1, s2) and np.array_equal(c1, c2)

    def test_params_concatenate(self):
        scene = _two_blob_scene()
        v = scene.params()
        assert v.shape == (20,)
        moved = v.copy()
        moved[0] += 1.0
        scene2 = scene.with_params(moved)
        assert scene2.components[0].center[0] == scene.components[0].center[0] + 1.0
        assert np.array_equal(scene2.components[1].params(), scene.components[1].params())


class TestDensity:
    """The density-only path equals the density of the full evaluation."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_evaluate(self, n):
        sphere = SoftSphereField(center=(6.0, 0.2, 0.0), radius=0.8, softness=0.05,
                                 amplitude=20.0, color=(0.1, 0.9, 0.2))
        scene = CompositeScene((*_two_blob_scene().components, sphere)[:n], t_far=12.0)
        pts = np.random.default_rng(3).uniform(0, 12, (400, 3)) * [1, 0.1, 0.1]
        pts[-1] = (0.0, 50.0, 50.0)  # vacuum: every density underflows to zero
        for view in (scene, merged_field(scene)):
            assert view.density(pts).tobytes() == view.evaluate(pts)[0].tobytes()
            for i in (0, 17, 399):
                single = view.density(pts[i])
                assert type(single) is float and single == view.evaluate(pts[i])[0]
        parts = scene.density_components(pts)
        assert parts.tobytes() == scene.evaluate_components(pts)[0].tobytes()
        assert np.array_equal(scene.density_components(pts[17]), parts[17])


@st.composite
def _mix_inputs(draw):
    """Densities (N, n), zero on some rows, and n clipped colors, each a
    (3,) row or (N, 3); -0.0 channels included."""
    n_points = draw(st.integers(1, 50))
    n = draw(st.sampled_from([1, 2, 5, 9]))
    density = st.one_of(st.just(0.0), st.floats(0.0, 30.0))
    sigmas = draw(arrays(np.float64, (n_points, n), elements=density))
    channel = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
    colors = [draw(arrays(np.float64, draw(st.sampled_from([(3,), (n_points, 3)])), elements=channel))
              for _ in range(n)]
    return sigmas, colors


class TestMixReference:
    """The per-component mixer equals mixing a stacked (N, n, 3) array."""

    @settings(max_examples=300, deadline=None)
    @given(_mix_inputs())
    def test_mix_matches_stacked_reference(self, inputs):
        sigmas, colors = inputs
        total, color = _mix(sigmas, colors)
        ref_total, ref_color = stacked_mix(sigmas, stack_colors(colors, sigmas.shape[0]))
        assert total.tobytes() == ref_total.tobytes()
        assert color.tobytes() == ref_color.tobytes()
        assert color.flags.c_contiguous

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 5, 9]).flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)), POINTS)
    def test_scene_matches_stacked_evaluation(self, fields, pts):
        scene = CompositeScene(tuple(fields))
        parts = [f.evaluate(pts) for f in fields]
        sigmas = np.column_stack([s for s, _ in parts])
        colors = np.stack([c for _, c in parts], axis=1)
        if scene.n == 1:
            ref_total, ref_color = sigmas[:, 0], colors[:, 0]
        else:
            ref_total, ref_color = stacked_mix(sigmas, colors.copy())
        total, color, per_comp = scene.evaluate_with_components(pts)
        assert total.tobytes() == ref_total.tobytes()
        assert color.tobytes() == ref_color.tobytes()
        assert per_comp.tobytes() == sigmas.tobytes()
        total, color = scene.evaluate(pts)
        assert total.tobytes() == ref_total.tobytes() and color.tobytes() == ref_color.tobytes()
        got_sigmas, got_colors = scene.evaluate_components(pts)
        assert got_sigmas.tobytes() == sigmas.tobytes() and got_colors.tobytes() == colors.tobytes()
        assert scene.density(pts).tobytes() == ref_total.tobytes()
        point_total, point_color = stacked_mix(sigmas[:1], colors[:1].copy())
        point = composite_eval(scene, pts[0])
        assert point.sigma == point_total[0] and point.sigmas.tobytes() == sigmas[0].tobytes()
        assert point.color.tobytes() == point_color[0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(1e-6, 30.0))),
        arrays(np.float64, (n, 3), elements=st.floats(-1.0, 2.0)))))
    def test_mixture_render_constant_matches_weighted_sum(self, inputs):
        sigmas, colors = inputs
        if sigmas.sum() == 0.0:
            with pytest.raises(ValueError):
                mixture_render_constant(sigmas, colors)
            return
        expected = (sigmas[:, None] * colors).sum(axis=0) / sigmas.sum()
        assert mixture_render_constant(sigmas, colors).tobytes() == expected.tobytes()

    def test_vacuum_points_get_neutral_color(self):
        scene = CompositeScene((*_two_blob_scene().components,
                                GaussianBlobField(center=(0, 30, 0), scale=(1, 1, 1), amplitude=0.0,
                                                  color=(0.3, 0.3, 0.3))))
        pts = np.array([[0.0, 50.0, 50.0], [4.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        sigmas = scene.density_components(pts)
        assert sigmas[0].sum() == 0.0 and sigmas[2].sum() == 0.0
        total, color = scene.evaluate(pts)
        assert np.array_equal(color[[0, 2]], [NEUTRAL_COLOR, NEUTRAL_COLOR])
        assert total[1] > 0.0 and np.allclose(color[1], [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

    def test_composite_eval_takes_one_point(self):
        with pytest.raises(ValueError):
            composite_eval(_two_blob_scene(), np.zeros((2, 3)))


class TestMergedEquivalence:
    """Rendering the sum-field must equal rendering the composite, bit for bit."""

    def test_render_identical(self):
        scene = _two_blob_scene()
        quad = QuadratureConfig(n_coarse=48, n_fine=96, seed=9)
        merged = hierarchical_render(merged_field(scene), X_RAY, quad)
        comp = composite_render(scene, X_RAY, quad)
        assert np.array_equal(merged.color, comp.render.color)
        assert np.array_equal(merged.weights, comp.render.weights)
        assert merged.depth == comp.render.depth
        assert merged.transmittance_far == comp.render.transmittance_far

    def test_merged_field_is_read_only(self):
        m = merged_field(_two_blob_scene())
        with pytest.raises(TypeError):
            m.with_params(m.params())


class TestMarginals:
    def test_marginals_sum_to_alpha(self):
        scene = _two_blob_scene()
        quad = QuadratureConfig(n_coarse=128, n_fine=256, seed=2)
        marginal, residual = component_marginal(scene, X_RAY, quad)
        res = composite_render(scene, X_RAY, quad)
        assert marginal.shape == (2,)
        assert marginal.sum() == pytest.approx(res.render.alpha, rel=1e-12)
        assert residual == pytest.approx(res.render.transmittance_far, rel=1e-12)

    def test_front_component_dominates(self):
        scene = _two_blob_scene()
        quad = QuadratureConfig(n_coarse=128, n_fine=256, seed=2)
        marginal, _ = component_marginal(scene, X_RAY, quad)
        # The first blob is in front and nearly opaque: it absorbs the ray.
        assert marginal[0] > 0.95
        assert marginal[1] < 0.05
        assert segment_ray(scene, X_RAY, quad) == 0

    def test_joint_pdf_splits_the_depth_density(self):
        scene = _two_blob_scene()
        quad = QuadratureConfig(n_coarse=512, n_fine=0, seed=0, stratified=False)
        t = 4.1
        joint = joint_depth_component_pdf(scene, X_RAY, t, quad)
        assert joint.shape == (2,)
        sigmas, _ = scene.evaluate_components(np.array([[t, 0.0, 0.0]]))
        share = sigmas[0] / sigmas.sum()
        assert np.allclose(joint / joint.sum(), share, rtol=1e-9)

    def test_empty_ray_segments_as_empty(self):
        scene = _two_blob_scene()
        miss = Ray((0, 5, 0), (1, 0, 0), 12.0)
        quad = QuadratureConfig(n_coarse=32, n_fine=32, seed=0)
        assert segment_ray(scene, miss, quad) == EMPTY_SEGMENT


class TestMixtureRenderConstant:
    def test_density_share_mixture(self):
        color = mixture_render_constant([1.0, 3.0], [(1, 0, 0), (0, 1, 0)])
        assert np.allclose(color, (0.25, 0.75, 0.0))

    def test_all_zero_densities_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            mixture_render_constant([0.0, 0.0], [(1, 0, 0), (0, 1, 0)])


class TestRenderGrid:
    def _setup(self):
        scene = _two_blob_scene()
        cam = Camera(position=(0.0, 0.0, 0.0), look_at=(6.0, 0.0, 0.0),
                     width=8, height=8, vertical_fov=1.2)
        grid = pinhole_rays(cam, scene.t_far, clip_z=None)
        return scene, grid

    def test_matches_per_ray_renders(self):
        scene, grid = self._setup()
        quad = QuadratureConfig(n_coarse=24, n_fine=48, seed=5)
        view = render_ray_grid(scene, grid, quad)
        assert view.color.shape == (8, 8, 3)
        assert view.marginals.shape == (8, 8, 2)
        # Spot-check two pixels against a whole-grid single-pass render by
        # extracting the same draws is not possible per ray; instead check
        # self-consistency: labels match the argmax of marginals.
        flat_labels = view.labels.ravel()
        flat_marg = view.marginals.reshape(-1, 2)
        live = flat_marg.sum(axis=1) > 1e-6
        assert np.array_equal(flat_labels[live], np.argmax(flat_marg[live], axis=1))
        assert np.all(flat_labels[~live] == EMPTY_SEGMENT)

    def test_thread_count_cannot_change_bits(self, monkeypatch):
        scene, grid = self._setup()
        quad = QuadratureConfig(n_coarse=16, n_fine=32, seed=11)
        monkeypatch.setenv("OBSURF_THREADS", "1")
        one = render_ray_grid(scene, grid, quad)
        monkeypatch.setenv("OBSURF_THREADS", "7")
        many = render_ray_grid(scene, grid, quad)
        assert np.array_equal(one.color, many.color)
        assert np.array_equal(one.depth_raw, many.depth_raw)
        assert np.array_equal(one.marginals, many.marginals)
        assert np.array_equal(one.labels, many.labels)

    def test_marginals_match_per_component_reevaluation(self, monkeypatch):
        # 30x30 rays over 7 workers: two 512-row chunks.  The reference
        # re-evaluates every component at the fine samples of one unchunked
        # batch made from the same draws.
        scene = _two_blob_scene()
        cam = Camera(position=(0.0, 0.0, 0.0), look_at=(6.0, 0.0, 0.0),
                     width=30, height=30, vertical_fov=0.4)
        grid = pinhole_rays(cam, scene.t_far, clip_z=None)
        quad = QuadratureConfig(n_coarse=24, n_fine=48, seed=4)
        monkeypatch.setenv("OBSURF_THREADS", "7")
        view = render_ray_grid(scene, grid, quad)

        draws = transport._draw_uniforms(np.random.default_rng(quad.seed), len(grid), quad)
        batch = transport._render_batch(scene, grid.origins, grid.directions, grid.t_fars,
                                        quad, rng=None, draws=draws)
        t = batch["t"]
        pts = (grid.origins[:, None, :] + t[:, :, None] * grid.directions[:, None, :]).reshape(-1, 3)
        sig_tot = scene.evaluate(pts)[0].reshape(t.shape)
        weights, _, _ = transport._composite_weights(
            sig_tot, transport._ownership_deltas(t, grid.t_fars))
        share = np.zeros(t.shape + (scene.n,))
        for i, comp in enumerate(scene.components):
            share[:, :, i] = comp.evaluate(pts)[0].reshape(t.shape)
        live = sig_tot > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(live[:, :, None], share / np.where(live, sig_tot, 1.0)[:, :, None], 0.0)
        expected = (weights[:, :, None] * frac).sum(axis=1)
        assert expected.sum(axis=1).max() > 0.5  # some rays hit a blob
        assert view.marginals.reshape(-1, scene.n).tobytes() == expected.tobytes()

    def test_depth_nan_only_on_empty(self):
        scene, grid = self._setup()
        view = render_ray_grid(scene, grid, QuadratureConfig(seed=0))
        nan_mask = np.isnan(view.depth)
        assert np.array_equal(nan_mask, view.empty)
        assert np.all(np.isfinite(view.depth_raw))


class TestSceneValidation:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            CompositeScene(())

    def test_rejects_non_fields(self):
        with pytest.raises(TypeError):
            CompositeScene(("not a field",))
