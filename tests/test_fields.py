import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields.fields import (
    DEFAULT_SIGMA_MAX,
    FIELD_KINDS,
    GaussianBlobField,
    GroundPlaneField,
    PiecewiseConstantRayField,
    SoftBoxField,
    SoftSphereField,
    UnsupportedGradient,
    field_from_params,
    _sigmoid,
    positional_encoding,
)

from references import FIELDS, GROUNDS, POINTS, masked_sigmoid, reference_density_grad

def _example_fields():
    return [
        GaussianBlobField(center=(0.3, -0.2, 0.8), scale=(0.5, 0.7, 0.4),
                          amplitude=6.0, color=(0.8, 0.3, 0.2)),
        SoftSphereField(center=(-0.5, 0.4, 0.6), radius=0.6, softness=0.05,
                        amplitude=8.0, color=(0.2, 0.6, 0.3)),
        SoftBoxField(center=(0.2, 0.6, 0.5), half_size=(0.5, 0.4, 0.5),
                     softness=0.04, amplitude=9.0, color=(0.3, 0.3, 0.9)),
        # amplitude below the density cap: deep below the plane the sigmoid
        # saturates, and an at-cap amplitude would leave every such point
        # straddling the clamp under finite-difference probes
        GroundPlaneField(softness=0.05, amplitude=9.0, color_a=(0.6, 0.6, 0.6),
                         color_b=(0.5, 0.5, 0.5), checker_size=1.0,
                         dome_radius=30.0, dome_color=(0.5, 0.6, 0.7)),
    ]


class TestEvaluateContract:
    @pytest.mark.parametrize("field", _example_fields(), ids=lambda f: f.kind)
    def test_batch_and_single_agree(self, field):
        pts = np.random.default_rng(1).uniform(-2, 2, (40, 3))
        sig, col = field.evaluate(pts)
        assert sig.shape == (40,) and col.shape == (40, 3)
        s0, c0 = field.evaluate(pts[7])
        assert s0 == sig[7]
        assert np.array_equal(c0, col[7])

    @pytest.mark.parametrize("field", _example_fields(), ids=lambda f: f.kind)
    def test_density_capped_and_colors_clipped(self, field):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, (300, 3))
        pts[:50] = rng.uniform(-0.2, 0.2, (50, 3))  # include interior points
        sig, col = field.evaluate(pts)
        assert np.all(sig >= 0.0)
        assert np.all(sig <= field.sigma_max + 1e-12)
        assert np.all(col >= 0.0) and np.all(col <= 1.0)

    @pytest.mark.parametrize("field", _example_fields(), ids=lambda f: f.kind)
    def test_param_roundtrip(self, field):
        vec = field.params()
        rebuilt = field.with_params(vec)
        pts = np.random.default_rng(3).uniform(-2, 2, (20, 3))
        s1, c1 = field.evaluate(pts)
        s2, c2 = rebuilt.evaluate(pts)
        assert np.array_equal(s1, s2) and np.array_equal(c1, c2)
        assert field.n_params == vec.shape[0]

    @pytest.mark.parametrize("kind", sorted(FIELD_KINDS))
    def test_registry_roundtrip(self, kind):
        field = next(f for f in _example_fields() if f.kind == kind)
        rebuilt = field_from_params(kind, field.params(), sigma_max=field.sigma_max)
        pts = np.random.default_rng(4).uniform(-2, 2, (10, 3))
        assert np.array_equal(field.evaluate(pts)[0], rebuilt.evaluate(pts)[0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown field kind"):
            field_from_params("mystery", [0.0])


def _density_fields():
    """Every kind, plus one field whose amplitude exceeds its density cap."""
    return _example_fields() + [
        GaussianBlobField(center=(0.0, 0.0, 0.5), scale=(0.6, 0.6, 0.6),
                          amplitude=25.0, color=(0.4, 0.4, 0.4)),
        PiecewiseConstantRayField(axis_origin=(-2, 0, 0), axis_direction=(1, 0.2, 0),
                                  breakpoints=[0.0, 1.0, 2.5, 4.0], sigmas=[0.5, 0.0, 3.0],
                                  colors=[(1, 0, 0), (0, 0, 0), (0.2, 0.3, 0.4)]),
    ]


class TestDensity:
    @pytest.mark.parametrize("field", _density_fields(), ids=lambda f: f.kind)
    def test_bit_identical_to_evaluate(self, field):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (500, 3))
        pts[:100] = rng.uniform(-0.3, 0.3, (100, 3)) + (0.0, 0.0, 0.5)
        sigma = field.density(pts)
        assert sigma.dtype == np.float64 and sigma.shape == (500,)
        assert sigma.tobytes() == field.evaluate(pts)[0].tobytes()
        for i in (0, 7, 250):
            single = field.density(pts[i])
            assert type(single) is float
            assert single == field.evaluate(pts[i])[0]


class TestGaussianBlob:
    def test_peak_and_falloff(self):
        f = GaussianBlobField(center=(1, 2, 3), scale=(0.5, 0.5, 0.5),
                              amplitude=4.0, color=(1, 0, 0), sigma_max=None)
        s_center, _ = f.evaluate((1.0, 2.0, 3.0))
        assert math.isclose(s_center, 4.0)
        # One scale unit away along x: amplitude * exp(-1/2).
        s_one, _ = f.evaluate((1.5, 2.0, 3.0))
        assert math.isclose(s_one, 4.0 * math.exp(-0.5), rel_tol=1e-12)

    def test_half_maximum_radius(self):
        f = GaussianBlobField(center=(0, 0, 0), scale=(0.5, 0.5, 0.5),
                              amplitude=8.0, color=(1, 1, 1), sigma_max=None)
        r = 0.5 * math.sqrt(2 * math.log(2))
        s, _ = f.evaluate((r, 0.0, 0.0))
        assert math.isclose(s, 4.0, rel_tol=1e-12)

    def test_cap_applies(self):
        f = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=50.0,
                              color=(1, 1, 1), sigma_max=10.0)
        s, _ = f.evaluate((0.0, 0.0, 0.0))
        assert s == 10.0


class TestSoftSphere:
    def test_half_density_at_surface(self):
        f = SoftSphereField(center=(0, 0, 0), radius=0.8, softness=0.05,
                            amplitude=6.0, color=(1, 1, 1), sigma_max=None)
        s, _ = f.evaluate((0.8, 0.0, 0.0))
        assert math.isclose(s, 3.0, rel_tol=1e-12)
        s_in, _ = f.evaluate((0.0, 0.1, 0.0))
        s_out, _ = f.evaluate((2.0, 0.0, 0.0))
        assert s_in > 5.9 and s_out < 1e-6


class TestSoftBox:
    def test_half_density_at_face_center(self):
        f = SoftBoxField(center=(0, 0, 0), half_size=(0.5, 0.5, 0.5), softness=0.02,
                         amplitude=8.0, color=(1, 1, 1), sigma_max=None)
        s_face, _ = f.evaluate((0.5, 0.0, 0.0))
        # One sigmoid per axis: x sits at its edge (1/2), y and z deep inside (~1).
        assert math.isclose(s_face, 4.0, rel_tol=1e-6)
        s_in, _ = f.evaluate((0.0, 0.0, 0.0))
        s_out, _ = f.evaluate((1.0, 1.0, 1.0))
        assert s_in > 7.99 and s_out < 1e-6


class TestGroundPlane:
    def _field(self, checker=1.0):
        return GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.9, 0.1, 0.1),
                                color_b=(0.1, 0.1, 0.9), checker_size=checker,
                                dome_radius=30.0, dome_color=(0.2, 0.8, 0.2))

    def test_plane_transition(self):
        f = self._field()
        s_below, _ = f.evaluate((0.0, 0.0, -0.5))
        s_at, _ = f.evaluate((0.0, 0.0, 0.0))
        s_above, _ = f.evaluate((0.0, 0.0, 1.0))
        assert s_below > 9.9
        assert math.isclose(s_at, 5.0, rel_tol=1e-8)
        assert s_above < 1e-6

    def test_checker_colors_alternate(self):
        f = self._field(checker=1.0)
        _, c00 = f.evaluate((0.25, 0.25, -0.2))
        _, c10 = f.evaluate((1.25, 0.25, -0.2))
        _, c11 = f.evaluate((1.25, 1.25, -0.2))
        assert np.allclose(c00, (0.9, 0.1, 0.1))
        assert np.allclose(c10, (0.1, 0.1, 0.9))
        assert np.allclose(c11, (0.9, 0.1, 0.1))

    def test_uniform_when_checker_disabled(self):
        f = GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(0.6, 0.6, 0.6),
                             color_b=(0.3, 0.3, 0.3), checker_size=0.0,
                             dome_radius=30.0, dome_color=(0.2, 0.8, 0.2))
        _, c1 = f.evaluate((0.3, 0.4, -0.2))
        _, c2 = f.evaluate((5.3, -7.4, -0.2))
        assert np.allclose(c1, (0.6, 0.6, 0.6)) and np.allclose(c2, (0.6, 0.6, 0.6))

    def test_dome_encloses(self):
        f = self._field()
        s_dome, c_dome = f.evaluate((31.0, 0.0, 5.0))
        assert s_dome > 9.9
        assert np.allclose(c_dome, (0.2, 0.8, 0.2))
        s_inside, _ = f.evaluate((10.0, 0.0, 5.0))
        assert s_inside < 1e-6

    def test_dome_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="dome_radius"):
            GroundPlaneField(softness=0.05, amplitude=10.0, color_a=(1, 1, 1),
                             color_b=(0, 0, 0), checker_size=0.0,
                             dome_radius=0.0, dome_color=(0, 0, 0))


class TestPiecewiseConstant:
    def _field(self):
        return PiecewiseConstantRayField(
            axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
            breakpoints=[0.0, 1.0, 2.0, 4.0],
            sigmas=[0.5, 0.0, 2.0],
            colors=[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        )

    def test_interval_lookup(self):
        f = self._field()
        s, c = f.evaluate((0.5, 0.0, 0.0))
        assert s == 0.5 and np.array_equal(c, (1, 0, 0))
        s, c = f.evaluate((3.9, 5.0, -2.0))  # off-axis points project onto the axis
        assert s == 2.0 and np.array_equal(c, (0, 0, 1))
        s, _ = f.evaluate((4.0, 0.0, 0.0))  # half-open: the end is outside
        assert s == 0.0
        s, _ = f.evaluate((-0.1, 0.0, 0.0))
        assert s == 0.0

    def test_no_cap_on_this_kind(self):
        f = PiecewiseConstantRayField(axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
                                      breakpoints=[0.0, 1.0], sigmas=[100.0],
                                      colors=[(1, 1, 1)])
        s, _ = f.evaluate((0.5, 0, 0))
        assert s == 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseConstantRayField((0, 0, 0), (1, 0, 0), [0.0, 0.0], [1.0], [(1, 1, 1)])
        with pytest.raises(ValueError, match="start at 0"):
            PiecewiseConstantRayField((0, 0, 0), (1, 0, 0), [1.0, 2.0], [1.0], [(1, 1, 1)])
        with pytest.raises(ValueError, match="non-negative"):
            PiecewiseConstantRayField((0, 0, 0), (1, 0, 0), [0.0, 1.0], [-1.0], [(1, 1, 1)])

    def test_gradients_unsupported(self):
        with pytest.raises(UnsupportedGradient):
            self._field().evaluate_with_grad(np.zeros((2, 3)))


class TestFieldGradients:
    """Analytic parameter derivatives against central finite differences."""

    @pytest.mark.parametrize("field", _example_fields(), ids=lambda f: f.kind)
    def test_matches_finite_differences(self, field):
        rng = np.random.default_rng(5)
        pts = np.concatenate([
            rng.uniform(-1.2, 1.2, (25, 3)),
            rng.uniform(-0.3, 0.3, (10, 3)),
        ])
        sig, col, d_sig, d_col = field.evaluate_with_grad(pts)
        base = field.params()
        h = 1e-6
        for j in range(base.shape[0]):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            sp, cp = field.with_params(plus).evaluate(pts)
            sm, cm = field.with_params(minus).evaluate(pts)
            fd_sig = (sp - sm) / (2 * h)
            fd_col = (cp - cm) / (2 * h)
            # Skip points that straddle the density cap or color clip for
            # this parameter (the subgradient there is one-sided).
            interior = np.abs(fd_sig - d_sig[:, j]) < np.maximum(1e-4, 1e-3 * np.abs(fd_sig))
            frac = interior.mean()
            assert frac > 0.9, f"param {j}: only {frac:.0%} of points match"
            col_ok = np.abs(fd_col - d_col[:, :, j]) < 1e-4
            assert col_ok.mean() > 0.9

    def test_sigma_cap_masks_gradient(self):
        f = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=20.0,
                              color=(0.5, 0.5, 0.5), sigma_max=10.0)
        sig, _, d_sig, _ = f.evaluate_with_grad(np.zeros((1, 3)))
        assert sig[0] == 10.0
        assert np.array_equal(d_sig[0], np.zeros(f.n_params))


def _old_color_jacobian(field, pts):
    """d(color)/d(params) (N, 3, P) built the way each kind used to build it:
    an identity block at the color slots of a constant-color kind, one-hot
    blocks per surface (color_a, color_b, dome) for the ground plane, both
    masked to the channels whose unclipped color lies in [0, 1]."""
    n, p = pts.shape[0], field.n_params
    d_color = np.zeros((n, 3, p))
    if isinstance(field, GroundPlaneField):
        s_plane, _, s_dome, _ = field._parts(pts)
        checker_b = np.zeros(n, dtype=bool)
        if field.checker_size > 0:
            cells = np.floor(pts[:, 0] / field.checker_size) + np.floor(pts[:, 1] / field.checker_size)
            checker_b = (cells.astype(np.int64) % 2) != 0
        on_dome = s_dome > s_plane
        color = np.where(on_dome[:, None], field.dome_color,
                         np.where(checker_b[:, None], field.color_b, field.color_a))
        for ch in range(3):
            d_color[~on_dome & ~checker_b, ch, 2 + ch] = 1.0
            d_color[~on_dome & checker_b, ch, 5 + ch] = 1.0
            d_color[on_dome, ch, 10 + ch] = 1.0
    else:
        offset = {"gaussian_blob": 7, "soft_sphere": 6, "soft_box": 8}[field.kind]
        color = np.broadcast_to(field.color, (n, 3))
        for ch in range(3):
            d_color[:, ch, offset + ch] = 1.0
    inside = (color >= 0.0) & (color <= 1.0)
    return d_color * inside[:, :, None]


class TestColorJacobian:
    """evaluate_with_grad builds d(color) from each kind's color slots; it must
    equal the per-kind blocks bit for bit, clip edges and checker cells included."""

    FIELDS = [
        GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=5.0, color=(1.0, 0.0, 1.2)),
        SoftSphereField(center=(0, 0, 0), radius=1.0, softness=0.1, amplitude=5.0, color=(-0.1, 0.5, 1.0)),
        SoftBoxField(center=(0, 0, 0), half_size=(1, 1, 1), softness=0.1, amplitude=5.0, color=(0.3, 2.0, 0.0)),
        GroundPlaneField(softness=0.2, amplitude=9.0, color_a=(0.0, 1.0, 0.5), color_b=(1.5, -0.2, 0.3),
                         checker_size=0.6, dome_radius=2.0, dome_color=(0.2, 1.0, 7.0)),
        GroundPlaneField(softness=0.2, amplitude=9.0, color_a=(0.6, 0.6, 0.6), color_b=(1.5, -0.2, 0.3),
                         checker_size=0.0, dome_radius=2.0, dome_color=(0.5, 0.6, 0.7)),
    ]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
    def test_equals_old_per_kind_blocks(self, field):
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, (300, 3))
        _, _, _, d_color = field.evaluate_with_grad(pts)
        assert np.array_equal(d_color, _old_color_jacobian(field, pts))
        _, _, _, single = field.evaluate_with_grad(pts[7])
        assert np.array_equal(single, _old_color_jacobian(field, pts[7:8])[0])

    def test_ground_plane_points_reach_every_surface(self):
        ground = self.FIELDS[3]
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, (300, 3))
        _, offsets = ground._color_source(pts)
        assert set(np.unique(offsets)) == {2, 5, 10}


# Arguments at ±0, near where exp overflows (709.78) and underflows to 0
# (745.13), and far past both.
EDGE_Z = [0.0, -0.0, 709.0, -709.0, 709.8, -709.8, 745.0, -745.0, 745.2, -745.2,
          1e300, -1e300, 5e-324, -5e-324, np.inf, -np.inf]


class TestKernelReferences:
    """The kernels equal the masked sigmoid and the np.sum / np.linalg.norm /
    np.prod row reductions they replaced, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_Z))))
    @example(np.array(EDGE_Z))
    def test_sigmoid_matches_masked_reference(self, z):
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        grid = np.resize(z, (len(z), 3))  # the box evaluates (3, N) rows at once
        assert _sigmoid(grid).tobytes() == masked_sigmoid(grid).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(FIELDS, POINTS)
    def test_density_and_gradient_match_row_reductions(self, field, pts):
        ref_raw, ref_grad = reference_density_grad(field, pts)
        assert field._raw_density(pts).tobytes() == ref_raw.tobytes()
        raw, grad = field._raw_density_grad(pts)
        assert raw.tobytes() == ref_raw.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        sigma = ref_raw if field.sigma_max is None else np.minimum(ref_raw, field.sigma_max)
        assert field.density(pts).tobytes() == sigma.tobytes()
        assert field.evaluate(pts)[0].tobytes() == sigma.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(FIELDS, POINTS)
    def test_colors_clipped_per_point(self, field, pts):
        if isinstance(field, GroundPlaneField):
            color, _ = field._color_source(pts)
        else:
            color = np.broadcast_to(field.color, pts.shape)
        _, evaluated = field.evaluate(pts)
        assert evaluated.shape == pts.shape and evaluated.flags.writeable
        assert evaluated.tobytes() == np.clip(color, 0.0, 1.0).tobytes()
        _, single = field.evaluate(pts[0])
        assert single.tobytes() == evaluated[0].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(GROUNDS.filter(lambda g: g.checker_size > 0 and g.dome_radius < 20))
    def test_ground_points_reach_checker_and_dome(self, ground):
        rng = np.random.default_rng(0)
        plane = np.column_stack([rng.uniform(-5, 5, (200, 2)), np.full(200, -0.01)])
        far = rng.normal(size=(50, 3))
        far *= 40.0 / np.linalg.norm(far, axis=1, keepdims=True)
        pts = np.concatenate([plane, far])
        _, offsets = ground._color_source(pts)
        assert set(np.unique(offsets)) == {2, 5, 10}
        ref_raw, ref_grad = reference_density_grad(ground, pts)
        raw, grad = ground._raw_density_grad(pts)
        assert raw.tobytes() == ref_raw.tobytes() and grad.tobytes() == ref_grad.tobytes()


class TestPositionalEncoding:
    def test_frozen_example(self):
        # x = 0.25 at frequencies pi and 2*pi:
        # [sin(pi/4), cos(pi/4), sin(pi/2), cos(pi/2)]
        enc = positional_encoding(0.25, n_frequencies=2, k_lowest=0)
        expected = [math.sqrt(0.5), math.sqrt(0.5), 1.0, math.cos(math.pi / 2)]
        assert np.allclose(enc, expected, atol=1e-15)

    def test_shape_and_layout(self):
        x = np.random.default_rng(6).uniform(-1, 1, (5, 3))
        enc = positional_encoding(x, n_frequencies=4, k_lowest=-1)
        assert enc.shape == (5, 2 * 3 * 4)
        # Frequency-major: the first 6 columns use f = 2**-1 * pi.
        f0 = (2.0 ** -1) * math.pi
        assert np.allclose(enc[:, 0], np.sin(f0 * x[:, 0]))
        assert np.allclose(enc[:, 1], np.cos(f0 * x[:, 0]))
        assert np.allclose(enc[:, 2], np.sin(f0 * x[:, 1]))

    def test_octave_spacing_doubles(self):
        x = np.array([0.3])
        enc = positional_encoding(x, n_frequencies=3, k_lowest=0)
        # sin components at pi*x, 2pi*x, 4pi*x
        assert math.isclose(enc[1 * 2], math.sin(2 * math.pi * 0.3), rel_tol=1e-12)
        assert math.isclose(enc[2 * 2], math.sin(4 * math.pi * 0.3), rel_tol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            positional_encoding(0.5, n_frequencies=0, k_lowest=0)
