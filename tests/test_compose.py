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
    _marginals_from_batch,
    _mix,
    _total,
)
from rayfields import compose, transport
from rayfields.fields import (Field, GaussianBlobField, GroundPlaneField, PiecewiseConstantRayField, SoftBoxField,
                              SoftSphereField)
from rayfields.geometry import Camera, Ray, RayGrid, pinhole_rays
from rayfields.transport import EMPTY_WEIGHT_EPS, QuadratureConfig, hierarchical_render

from references import (FIELDS, POINTS, RAYS, reference_color_sum, reference_marginals, reference_mix,
                        reference_render_batch, reference_total, stack_colors, stacked_mix)


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

    @pytest.mark.parametrize("kind", ["gaussian_blob", "soft_sphere", "soft_box", "ground_plane"])
    def test_lone_component_point_color_is_evaluate_color(self, kind):
        """On 1-component scenes ``composite_eval`` reports the color
        ``evaluate`` does (the component's own, not (s * c) / s), and the
        flagged neutral gray where the density is 0."""
        rng = np.random.default_rng(40)
        mixed_differs = vacuum = checked = 0
        for _ in range(100):
            center = (*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 1.0))
            color = tuple(rng.uniform(-0.2, 1.2, 3))
            amplitude = float(rng.choice([0.0, rng.uniform(0.5, 12.0)], p=[0.05, 0.95]))
            field = {
                "gaussian_blob": lambda: GaussianBlobField(center=center, scale=tuple(rng.uniform(0.2, 0.7, 3)),
                                                           amplitude=amplitude, color=color),
                "soft_sphere": lambda: SoftSphereField(center=center, radius=float(rng.uniform(0.2, 0.6)),
                                                       softness=0.05, amplitude=amplitude, color=color),
                "soft_box": lambda: SoftBoxField(center=center, half_size=tuple(rng.uniform(0.2, 0.5, 3)),
                                                 softness=0.04, amplitude=amplitude, color=color),
                "ground_plane": lambda: GroundPlaneField(softness=0.05, amplitude=amplitude, color_a=color,
                                                         color_b=tuple(rng.uniform(0.0, 1.0, 3)),
                                                         checker_size=0.5, dome_radius=100.0,
                                                         dome_color=(0.5, 0.6, 0.7)),
            }[kind]()
            scene = CompositeScene((field,))
            # Near the object, then one point whose density underflows to 0.
            pts = np.concatenate([rng.uniform((-2.0, -2.0, -0.3), (2.0, 2.0, 2.0), (11, 3)), [(0.0, 0.0, 60.0)]])
            for p in pts:
                point = composite_eval(scene, p)
                sigma, color = scene.evaluate(p)
                assert point.sigma == sigma and point.color_defined == (sigma > 0.0)
                if point.color_defined:
                    assert point.color.tobytes() == color.tobytes()
                    sigmas, colors = scene._components(p[None, :])
                    mixed_differs += _mix(sigmas, colors)[1][:, 0].tobytes() != color.tobytes()
                else:
                    assert point.color.tobytes() == NEUTRAL_COLOR.tobytes()
                    vacuum += 1
                checked += 1
        assert checked >= 1000 and vacuum >= 100 and mixed_differs > 0

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
        total, color_rows = _mix(np.ascontiguousarray(sigmas.T), colors)
        color = color_rows.T
        ref_total, ref_color = stacked_mix(sigmas, stack_colors(colors, sigmas.shape[0]))
        assert total.tobytes() == ref_total.tobytes()
        assert color.tobytes() == ref_color.tobytes()
        assert color_rows.flags.c_contiguous

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
        total, color = scene.evaluate(pts)
        assert total.tobytes() == ref_total.tobytes() and color.tobytes() == ref_color.tobytes()
        got_sigmas, got_colors = scene.evaluate_components(pts)
        assert got_sigmas.tobytes() == sigmas.tobytes() and got_colors.tobytes() == colors.tobytes()
        assert scene.density(pts).tobytes() == ref_total.tobytes()
        point_total, point_color = stacked_mix(sigmas[:1], colors[:1].copy())
        if scene.n == 1 and point_total[0] > 0.0:  # a lone component's color is its own, as in evaluate
            point_color = colors[:1, 0]
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

    @pytest.mark.parametrize("quad", [
        QuadratureConfig(n_coarse=24, n_fine=48, seed=5),
        QuadratureConfig(n_coarse=16, n_fine=0, seed=2),
        QuadratureConfig(n_coarse=8, n_fine=8, seed=1, stratified=False),
    ], ids=["hierarchical", "coarse-only", "unstratified"])
    @pytest.mark.parametrize("look_at", [(4.0, 0.0, 0.0), (8.0, 0.4, 0.0), (6.0, 6.0, 0.0)],
                             ids=["front", "edge", "miss"])
    def test_one_pixel_grid_equals_single_ray_calls(self, quad, look_at):
        """A 1x1 view and the four single-ray calls are one path, bit for bit."""
        scene = _two_blob_scene()
        cam = Camera(position=(0.0, 0.0, 0.0), look_at=look_at, width=1, height=1)
        grid = pinhole_rays(cam, scene.t_far, clip_z=None)
        ray = grid.ray(0)
        view = render_ray_grid(scene, grid, quad)
        single = hierarchical_render(scene, ray, quad)
        comp = composite_render(scene, ray, quad)
        marginal, residual = component_marginal(scene, ray, quad)

        def bits(value):
            return np.asarray(value).tobytes()

        for name in ("color", "depth", "depth_raw", "alpha", "empty"):
            assert bits(getattr(view, name)[0, 0]) == bits(getattr(single, name)), name
        assert {k: bits(v) for k, v in vars(comp.render).items()} == {k: bits(v) for k, v in vars(single).items()}
        assert bits(view.marginals[0, 0]) == bits(comp.marginal) == bits(marginal)
        assert bits(view.residual[0, 0]) == bits(comp.residual) == bits(residual)
        assert view.labels[0, 0] == comp.label == segment_ray(scene, ray, quad)

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
                                        quad, draws)
        t = _transpose(batch["t"])
        pts = (grid.origins[:, None, :] + t[:, :, None] * grid.directions[:, None, :]).reshape(-1, 3)
        sig_tot = scene.evaluate(pts)[0].reshape(t.shape)
        weights, _, _ = transport._composite_weights(
            _transpose(sig_tot), transport._ownership_deltas(batch["t"], grid.t_fars))
        weights = _transpose(weights)
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


# Component counts for the component-major references: below, at and past
# NumPy's 8-lane pairwise threshold.
COMPONENT_COUNTS = [1, 2, 5, 8, 9, 16]

# Densities with exact zeros of both signs and values from tiny to capped.
DENSITIES = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-300, 1e-6), st.floats(0.0, 30.0))
CHANNELS = st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def _row_mix_inputs(draw):
    """Densities (N, n), zero on some rows, and n clipped colors, each a
    (3,) row or (N, 3) (per point, as the ground's)."""
    n_points = draw(st.integers(1, 40))
    n = draw(st.sampled_from(COMPONENT_COUNTS))
    sigmas = draw(arrays(np.float64, (n_points, n), elements=DENSITIES))
    sigmas[draw(arrays(np.bool_, n_points))] = 0.0
    colors = [draw(arrays(np.float64, draw(st.sampled_from([(3,), (n_points, 3)])), elements=CHANNELS))
              for _ in range(n)]
    return sigmas, colors


@st.composite
def _sample_rows(draw):
    """Rows of samples: depths, widths, per-component densities (N, S, n)
    with some all-zero samples and rays, and their total (N, S) as scenes
    form it (a lone component's density is the total)."""
    n_rays = draw(st.integers(1, 6))
    n_samples = draw(st.integers(1, 40))
    n = draw(st.sampled_from(COMPONENT_COUNTS))
    sigmas = draw(arrays(np.float64, (n_rays, n_samples, n), elements=DENSITIES))
    sigmas[draw(arrays(np.bool_, (n_rays, n_samples)))] = 0.0
    sigmas[draw(arrays(np.bool_, n_rays))] = 0.0
    delta = draw(arrays(np.float64, (n_rays, n_samples), elements=st.floats(1e-3, 2.0)))
    t = np.cumsum(delta, axis=1)
    sigma = sigmas[:, :, 0] if n == 1 else reference_total(sigmas.reshape(-1, n)).reshape(t.shape)
    return t, delta, sigmas, sigma


def _transpose(a):
    """A C-ordered transpose: rows (N, S) to the samples-major (S, N) arrays
    of the render batch, and back."""
    return np.ascontiguousarray(a.T)


def _expected_color(weights, colors):
    """Composited color (N, 3) from weights (N, S) and colors (N, S, 3) by
    the reference color sum, 0 on empty rays."""
    wsum = weights.sum(axis=1)
    empty = wsum <= EMPTY_WEIGHT_EPS
    color = reference_color_sum(weights, colors) / np.where(empty, 1.0, wsum)[:, None]
    color[empty] = 0.0
    return color


class TestComponentMajorReferences:
    """The component-major (n, N) and channel-major (3, N) batch equals the
    points-major reductions it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COMPONENT_COUNTS).flatmap(
        lambda n: arrays(np.float64, st.tuples(st.integers(1, 40), st.just(n)), elements=DENSITIES)))
    def test_total_matches_short_axis_sum(self, sigmas):
        expected = reference_total(sigmas).tobytes()
        assert _total(np.ascontiguousarray(sigmas.T)).tobytes() == expected
        padded = np.zeros((sigmas.shape[1], sigmas.shape[0] + 3))
        padded[:, 3:] = sigmas.T
        assert _total(padded[:, 3:]).tobytes() == expected  # rows of a wider block, as the loss passes

    @pytest.mark.parametrize("n", [*range(1, 25), 127, 128, 129, 136, 200, 300])
    def test_total_matches_at_every_width(self, n):
        rng = np.random.default_rng(n)
        sigmas = rng.random((64, n)) * 10.0 ** rng.uniform(-4, 4, (64, n))
        sigmas[rng.random((64, n)) < 0.2] = 0.0
        assert _total(np.ascontiguousarray(sigmas.T)).tobytes() == reference_total(sigmas).tobytes()

    @pytest.mark.parametrize("columns", [1, 2, 3, 32_768])
    def test_total_of_8_to_40_rows_leaves_them_untouched(self, columns):
        """Below 16 rows the pairwise lanes are the first eight rows themselves."""
        rng = np.random.default_rng(columns)
        for n in range(8, 41):
            sigmas = rng.random((columns, n)) * 10.0 ** rng.uniform(-4, 4, (columns, n))
            sigmas[rng.random((columns, n)) < 0.2] = 0.0
            rows = np.ascontiguousarray(sigmas.T)
            before = rows.copy()
            assert _total(rows).tobytes() == reference_total(sigmas).tobytes()
            assert rows.tobytes() == before.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_row_mix_inputs())
    def test_mix_matches_reference(self, inputs):
        sigmas, colors = inputs
        total, color = _mix(np.ascontiguousarray(sigmas.T), colors)
        ref_total, ref_color = reference_mix(sigmas, colors)
        assert total.tobytes() == ref_total.tobytes()
        assert np.ascontiguousarray(color.T).tobytes() == ref_color.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_sample_rows(), st.booleans(), st.data())
    def test_composite_color_matches_reference(self, rows, per_point, data):
        t, delta, _, sigma = rows
        shape = t.shape + (3,)
        if per_point:
            colors = data.draw(arrays(np.float64, shape, elements=CHANNELS))
        else:
            colors = np.broadcast_to(data.draw(arrays(np.float64, 3, elements=CHANNELS)), shape)
        batch = transport._composite(_transpose(t), _transpose(sigma),
                                     np.ascontiguousarray(colors.transpose(2, 1, 0)), _transpose(delta))
        expected = _expected_color(_transpose(batch["weights"]), colors)
        assert np.ascontiguousarray(batch["color"]).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_sample_rows())
    def test_marginals_match_reference(self, rows):
        t, delta, sigmas, sigma = rows
        weights, t_far_T, _ = transport._composite_weights(_transpose(sigma), _transpose(delta))
        batch = {"sigmas": np.ascontiguousarray(sigmas.transpose(2, 1, 0)), "sigma": _transpose(sigma),
                 "weights": weights, "transmittance_far": t_far_T}
        marginal, residual = _marginals_from_batch(batch)
        assert marginal.flags.c_contiguous
        assert marginal.tobytes() == reference_marginals(sigmas, sigma, _transpose(weights)).tobytes()
        assert residual is t_far_T

    @pytest.mark.parametrize("n", COMPONENT_COUNTS)
    def test_marginals_match_reference_on_long_rows(self, n):
        # 192 samples of varied densities: the order of the sum over samples shows.
        rng = np.random.default_rng(n)
        sigmas = rng.random((3, 192, n)) * 10.0 ** rng.uniform(-3, 1, (3, 192, n))
        sigmas[:, rng.random(192) < 0.3] = 0.0
        delta = rng.uniform(0.01, 0.1, (3, 192))
        sigma = sigmas[:, :, 0] if n == 1 else reference_total(sigmas.reshape(-1, n)).reshape(3, 192)
        weights, t_far_T, _ = transport._composite_weights(_transpose(sigma), _transpose(delta))
        batch = {"sigmas": np.ascontiguousarray(sigmas.transpose(2, 1, 0)), "sigma": _transpose(sigma),
                 "weights": weights, "transmittance_far": t_far_T}
        marginal, _ = _marginals_from_batch(batch)
        assert marginal.tobytes() == reference_marginals(sigmas, sigma, _transpose(weights)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(COMPONENT_COUNTS).flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)),
           st.lists(RAYS, min_size=1, max_size=8), st.integers(0, 2**16))
    def test_render_blocks_match_reference(self, fields, rays, seed):
        """Rendered colors and masses, in blocks of 2 rows and in 1-row calls,
        equal the references applied to one unblocked batch whose samples
        are re-evaluated through the public points-major calls."""
        scene = CompositeScene(tuple(fields))
        grid = RayGrid(origins=np.array([r.origin for r in rays]), directions=np.array([r.direction for r in rays]),
                       t_fars=np.array([r.t_far for r in rays]), shape=(len(rays), 1))
        quad = QuadratureConfig(n_coarse=8, n_fine=8, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compose, "block_rows", lambda row_points: 2)
            view = render_ray_grid(scene, grid, quad)

        batch = transport._render_batch(scene, grid.origins, grid.directions, grid.t_fars, quad,
                                        transport._draw_uniforms(np.random.default_rng(seed), len(grid), quad))
        t = _transpose(batch["t"])
        pts = (grid.origins[:, None, :] + t[:, :, None] * grid.directions[:, None, :]).reshape(-1, 3)
        sigma, color = scene.evaluate(pts)
        sigmas = scene.density_components(pts).reshape(t.shape + (scene.n,))
        expected_color = _expected_color(_transpose(batch["weights"]), color.reshape(t.shape + (3,)))
        expected_marginals = reference_marginals(sigmas, sigma.reshape(t.shape), _transpose(batch["weights"]))
        assert view.color.reshape(-1, 3).tobytes() == expected_color.tobytes()
        assert view.marginals.reshape(-1, scene.n).tobytes() == expected_marginals.tobytes()

        ray = grid.ray(0)
        one = transport._render_ray(scene, ray, quad)
        one_t = _transpose(one["t"])
        one_pts = ray.origin + one_t[0][:, None] * ray.direction
        one_sigma = scene.evaluate(one_pts)[0][None, :]
        one_sigmas = scene.density_components(one_pts)[None, :, :]
        expected_one = reference_marginals(one_sigmas, one_sigma, _transpose(one["weights"]))[0]
        marginal, _ = component_marginal(scene, ray, quad)
        assert marginal.tobytes() == expected_one.tobytes()


SMALL_QUADRATURES = st.builds(QuadratureConfig, n_coarse=st.one_of(st.integers(2, 7), st.integers(8, 70)),
                              n_fine=st.one_of(st.just(0), st.integers(1, 8), st.integers(60, 140)),
                              seed=st.integers(0, 2**16), stratified=st.booleans())


class TestSamplesMajorRender:
    """Whole-image renders in 1-row and 2-row blocks, and the single-ray
    calls, equal the row-major batch with per-row ``searchsorted`` that the
    samples-major batch replaced (``reference_render_batch``), bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(COMPONENT_COUNTS).flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)),
           st.lists(RAYS, min_size=1, max_size=7), SMALL_QUADRATURES, st.sampled_from([1, 2]))
    def test_small_blocks_and_single_rays_match_row_major_batch(self, fields, rays, quad, rows_per_block):
        scene = CompositeScene(tuple(fields))
        grid = RayGrid(origins=np.array([r.origin for r in rays]), directions=np.array([r.direction for r in rays]),
                       t_fars=np.array([r.t_far for r in rays]), shape=(1, len(rays)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compose, "block_rows", lambda row_points: rows_per_block)
            view = render_ray_grid(scene, grid, quad)
        draws = transport._draw_uniforms(np.random.default_rng(quad.seed), len(grid), quad)
        expected = reference_render_batch(scene, grid.origins, grid.directions, grid.t_fars, quad, draws)
        for name, key in [("color", "color"), ("depth", "depth"), ("depth_raw", "depth_raw"), ("alpha", "alpha"),
                          ("marginals", "marginals"), ("residual", "transmittance_far"), ("empty", "empty")]:
            assert getattr(view, name).reshape(expected[key].shape).tobytes() == expected[key].tobytes(), name
        assert view.labels.ravel().tobytes() == compose._labels(expected["marginals"]).tobytes()

        ray = rays[0]
        one = reference_render_batch(scene, ray.origin[None, :], ray.direction[None, :], np.array([ray.t_far]),
                                     quad, transport._draw_uniforms(np.random.default_rng(quad.seed), 1, quad))
        render = hierarchical_render(scene, ray, quad)
        for key in ("color", "weights", "t", "transmittance_far", "alpha", "depth", "depth_raw", "empty"):
            assert np.asarray(getattr(render, key)).tobytes() == np.asarray(one[key][0]).tobytes(), key
        both = composite_render(scene, ray, quad)
        assert both.marginal.tobytes() == one["marginals"][0].tobytes() and both.render.color.tobytes() == \
            render.color.tobytes()
        marginal, residual = component_marginal(scene, ray, quad)
        assert marginal.tobytes() == one["marginals"][0].tobytes() and residual == one["transmittance_far"][0]
        assert segment_ray(scene, ray, quad) == compose._labels(one["marginals"])[0]


def _layout_fields():
    return (
        GaussianBlobField(center=(0.3, -0.2, 0.8), scale=(0.5, 0.7, 0.4), amplitude=6.0, color=(0.8, 0.3, 0.2)),
        SoftSphereField(center=(-0.5, 0.4, 0.6), radius=0.6, softness=0.05, amplitude=8.0, color=(0.2, 0.6, 0.3)),
        SoftBoxField(center=(0.2, 0.6, 0.5), half_size=(0.5, 0.4, 0.5), softness=0.04, amplitude=9.0,
                     color=(0.3, 0.3, 0.9)),
        GroundPlaneField(softness=0.05, amplitude=9.0, color_a=(0.6, 0.6, 0.6), color_b=(0.5, 0.5, 0.5),
                         checker_size=0.5, dome_radius=3.0, dome_color=(0.5, 0.6, 0.7)),
    )


class TestPublicLayout:
    """Public outputs keep their shape, C order and bits whatever the
    memory layout of the points passed in."""

    @staticmethod
    def _layouts(pts):
        return {"C": np.ascontiguousarray(pts), "F": np.asfortranarray(pts),
                "transposed view": np.ascontiguousarray(pts.T).T}

    @staticmethod
    def _same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_scene_outputs(self, n):
        fields = _layout_fields()
        scene = CompositeScene(tuple(fields[i % 4] for i in range(n)))
        pts = np.random.default_rng(n).uniform(-4, 4, (61, 3))
        ref = {"evaluate": scene.evaluate(pts), "components": scene.evaluate_components(pts),
               "density_components": (scene.density_components(pts),), "density": (scene.density(pts),)}
        assert ref["components"][1].shape == (61, n, 3) and ref["density_components"][0].shape == (61, n)
        for points in self._layouts(pts).values():
            got = {"evaluate": scene.evaluate(points), "components": scene.evaluate_components(points),
                   "density_components": (scene.density_components(points),), "density": (scene.density(points),)}
            for name, outputs in ref.items():
                for g, w in zip(got[name], outputs):
                    self._same(g, w)
        point = composite_eval(scene, pts[4])
        self._same(point.sigmas, scene.density_components(pts[4]))
        self._same(point.color, scene.evaluate(pts[4])[1])

    def test_field_outputs(self):
        piecewise = PiecewiseConstantRayField(axis_origin=(0.1, -0.3, 0.2), axis_direction=(0.3, 0.9, -0.2),
                                              breakpoints=[0.0, 0.7, 1.9, 3.0], sigmas=[0.5, 4.0, 0.0],
                                              colors=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        pts = np.random.default_rng(7).uniform(-4, 4, (61, 3))
        for field in (*_layout_fields(), piecewise):
            ref = field.evaluate(pts) + (field.density(pts),)
            for points in self._layouts(pts).values():
                for g, w in zip(field.evaluate(points) + (field.density(points),), ref):
                    self._same(g, w)


def _kind_scene(n):
    """A scene of n components cycling blob, sphere, box and ground, the
    objects scattered about the origin."""
    rng = np.random.default_rng(300 + n)
    comps = []
    for i in range(n):
        field = _layout_fields()[i % 4]
        if not isinstance(field, GroundPlaneField):
            params = field.params()
            params[:3] += rng.uniform(-0.6, 0.6, 3)
            field = field.with_params(params)
        comps.append(field)
    return CompositeScene(tuple(comps), t_far=12.0)


SEGMENT_QUADRATURES = {
    "stratified": QuadratureConfig(n_coarse=16, n_fine=32, seed=3),
    "unstratified": QuadratureConfig(n_coarse=9, n_fine=11, seed=8, stratified=False),
    "coarse-only": QuadratureConfig(n_coarse=12, n_fine=0, seed=5),
}


def _segment_rays():
    """Nine rays from inside the ground's dome: objects, ground and dome."""
    cam = Camera(position=(2.2, 0.3, 1.4), look_at=(0.0, 0.0, 0.3), width=3, height=3, vertical_fov=1.2)
    grid = pinhole_rays(cam, 12.0, clip_z=None)
    return [grid.ray(i) for i in range(len(grid))]


def _segment_evaluators():
    """(id, evaluator): scenes and their merged fields of every component
    count, then each field kind alone."""
    out = []
    for n in COMPONENT_COUNTS:
        scene = _kind_scene(n)
        out += [(f"scene{n}", scene), (f"merged{n}", merged_field(scene))]
    return out + [(f"lone-{field.kind}", field) for field in _layout_fields()]


class TestDensityOnlySegmentation:
    """``segment_ray`` and ``component_marginal`` run a density-only pass that
    stops at the weights; they equal ``composite_render``'s label, masses
    and residual bit for bit, and never reach color code."""

    @pytest.mark.parametrize("quad", SEGMENT_QUADRATURES.values(), ids=SEGMENT_QUADRATURES.keys())
    @pytest.mark.parametrize("evaluator", [pytest.param(e, id=name) for name, e in _segment_evaluators()])
    def test_equals_composite_render(self, evaluator, quad):
        for ray in _segment_rays():
            full = composite_render(evaluator, ray, quad)
            marginal, residual = component_marginal(evaluator, ray, quad)
            assert marginal.tobytes() == full.marginal.tobytes()
            assert np.float64(residual).tobytes() == np.float64(full.residual).tobytes()
            assert segment_ray(evaluator, ray, quad) == full.label

    def test_cases_reach_every_outcome(self):
        # Empty rays, the first component and later ones, unabsorbed light and opaque rays.
        quad = SEGMENT_QUADRATURES["stratified"]
        runs = [composite_render(evaluator, ray, quad) for _, evaluator in _segment_evaluators()
                for ray in _segment_rays()]
        labels = {run.label for run in runs}
        assert {EMPTY_SEGMENT, 0} <= labels and max(labels) > 1
        assert min(run.residual for run in runs) < 1e-3 and max(run.residual for run in runs) > 0.999

    def test_density_only_batch_keys(self):
        ray = _segment_rays()[4]
        quad = SEGMENT_QUADRATURES["stratified"]
        full = transport._render_ray(_kind_scene(5), ray, quad)
        lean = transport._render_ray(_kind_scene(5), ray, quad, colors=False)
        assert sorted(lean) == ["sigma", "sigmas", "t", "transmittance_far", "weights"]
        for key, value in lean.items():
            assert value.tobytes() == full[key].tobytes(), key

    @pytest.mark.parametrize("quad", SEGMENT_QUADRATURES.values(), ids=SEGMENT_QUADRATURES.keys())
    def test_no_color_work(self, monkeypatch, quad):
        cases = [(evaluator, ray) for _, evaluator in _segment_evaluators() for ray in _segment_rays()[::2]]
        expected = [composite_render(evaluator, ray, quad) for evaluator, ray in cases]

        def color_work(*args, **kwargs):
            raise AssertionError("segmentation reached color code")

        monkeypatch.setattr(compose, "_mix", color_work)
        monkeypatch.setattr(transport, "_composite", color_work)
        monkeypatch.setattr(Field, "_density_color", color_work)
        monkeypatch.setattr(GroundPlaneField, "_palette", color_work)
        with pytest.raises(AssertionError, match="color code"):
            composite_render(*cases[0], quad)
        for (evaluator, ray), full in zip(cases, expected):
            marginal, residual = component_marginal(evaluator, ray, quad)
            assert marginal.tobytes() == full.marginal.tobytes() and residual == full.residual
            assert segment_ray(evaluator, ray, quad) == full.label
