import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields._threads import BLOCK_POINTS
from rayfields.compose import CompositeScene, composite_eval, merged_field
from rayfields.fields import (
    _DOMAINS,
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
)
from rayfields.fitting import loss_gradient
from rayfields.geometry import Ray
from rayfields.losses import LossConfig, RgbdSample
from rayfields.scenedoc import doc_to_scene, dumps_canonical, scene_to_doc

from references import (FIELDS, GROUNDS, POINTS, color_source, masked_sigmoid, reference_density_grad,
                        reference_piecewise_raw)


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


def _scalar_params():
    """(field, name) for every scalar parameter of every kind, sigma_max
    included."""
    return [
        pytest.param(field, f.name, id=f"{field.kind}-{f.name}")
        for field in _density_fields()[:4] + _density_fields()[-1:]
        for f in dataclasses.fields(field)
        if f.name == "sigma_max" or isinstance(getattr(field, f.name), float)
    ]


class TestScalarValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, name", _scalar_params())
    def test_non_finite_scalar_rejected(self, field, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(field, **{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field, name", [p for p in _scalar_params() if p.values[1] == "sigma_max"])
    def test_non_positive_cap_rejected(self, field, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(field, **{name: value})

    def test_non_positive_cap_rejected_from_params(self):
        sphere = _example_fields()[1]
        with pytest.raises(ValueError, match="sigma_max"):
            field_from_params("soft_sphere", sphere.params(), sigma_max=-2)

    def test_every_scalar_is_covered(self):
        names = {(p.values[0].kind, p.values[1]) for p in _scalar_params()}
        assert {("soft_sphere", "radius"), ("ground_plane", "checker_size"),
                ("ground_plane", "dome_radius"), ("gaussian_blob", "amplitude"),
                ("soft_box", "softness"), ("piecewise_constant_ray", "sigma_max")} <= names
        assert len(names) == 15


def _group_values(domain: str, size: int, inside: bool = True):
    """``size`` finite values in [-100, 100] that pass (or, with ``inside``
    false, fail) the constructor rule of ``domain`` in the domain table."""
    test = _DOMAINS[domain][0]
    value = st.floats(-100.0, 100.0)
    if test is not None:
        value = value.filter(lambda v: bool(test(v)) == inside)
    return st.lists(value, min_size=size, max_size=size)


@st.composite
def _in_domain_fields(draw):
    """A field of a registered kind built from a vector drawn group by group
    from its layout's domains, with the vector and the cap."""
    kind = draw(st.sampled_from(sorted(FIELD_KINDS)))
    vector = np.array([v for _, size, domain in FIELD_KINDS[kind].layout
                       for v in draw(_group_values(domain, size))])
    sigma_max = draw(st.none() | st.floats(0.0, 1e3, exclude_min=True))
    return field_from_params(kind, vector, sigma_max=sigma_max), vector


class TestLayoutIsTheSpec:
    """The layout and the domain table alone say which vectors build a field."""

    @settings(max_examples=80, deadline=None)
    @given(_in_domain_fields())
    def test_params_round_trip_bit_for_bit(self, drawn):
        field, vector = drawn
        assert field.params().tobytes() == vector.tobytes()
        assert field.with_params(vector).params().tobytes() == vector.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(_in_domain_fields(), st.floats(1e-3, 1e3))
    def test_scene_document_dump_load_dump(self, drawn, t_far):
        field, _ = drawn
        text = dumps_canonical(scene_to_doc(CompositeScene((field,), t_far=t_far)))
        loaded = doc_to_scene(json.loads(text))
        assert loaded.scene.components[0].sigma_max == field.sigma_max
        assert dumps_canonical(scene_to_doc(loaded.scene)) == text

    @settings(max_examples=120, deadline=None)
    @given(_in_domain_fields(), st.data())
    def test_group_outside_its_rule_is_named(self, drawn, data):
        field, _ = drawn
        name, size, domain = data.draw(st.sampled_from(field.layout))
        bad = st.sampled_from([math.nan, math.inf, -math.inf])
        if _DOMAINS[domain][0] is not None:
            bad = bad | _group_values(domain, 1, inside=False).map(lambda v: v[0])
        group = np.atleast_1d(getattr(field, name)).copy()
        group[data.draw(st.integers(0, size - 1))] = data.draw(bad)
        with pytest.raises(ValueError, match=rf"^{name} must"):
            dataclasses.replace(field, **{name: group[0] if size == 1 else group})


class TestParamVectorErrors:
    """A parameter vector is checked for its shape as a whole and for
    finiteness group by group, so an error names the bad group."""

    @settings(max_examples=120, deadline=None)
    @given(_in_domain_fields(), st.data())
    def test_non_finite_entry_names_its_group(self, drawn, data):
        field, vector = drawn
        at = data.draw(st.integers(0, vector.shape[0] - 1))
        vector = vector.copy()
        vector[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        starts = np.cumsum([0] + [size for _, size, _ in field.layout])
        name = field.layout[np.searchsorted(starts, at, side="right") - 1][0]
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            field.with_params(vector)
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            field_from_params(field.kind, vector, sigma_max=field.sigma_max)

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()])
    def test_wrong_shape_is_rejected(self, shape):
        blob = _example_fields()[0]
        with pytest.raises(ValueError, match=r"^params must have shape \(10,\)"):
            blob.with_params(np.zeros(shape))


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

    def test_negative_zero_amplitude_keeps_its_sign(self):
        # An amplitude of -0.0 passes the non-negative rule and gives -0.0
        # densities: a 1-component scene, its merged view and the lone field
        # each return the same signed zero from density and evaluate.
        blob = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=-0.0, color=(1, 0, 0))
        scene = CompositeScene((blob,))
        pts = np.zeros((2, 3))
        for query in (scene, merged_field(scene), blob):
            sigma = query.density(pts)
            assert sigma.tobytes() == query.evaluate(pts)[0].tobytes() == np.full(2, -0.0).tobytes()
            single = query.density(pts[0])
            assert math.copysign(1.0, single) == math.copysign(1.0, query.evaluate(pts[0])[0]) == -1.0
        assert math.copysign(1.0, composite_eval(scene, pts[0]).sigma) == -1.0


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


@st.composite
def _piecewise_cases(draw):
    """A piecewise field and depths before 0, on each breakpoint, one ulp
    either side of it, inside each interval and past the end.  An axis along
    x from the origin makes every depth exact, so points land on the
    breakpoints themselves."""
    m = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(1e-3, 5.0), min_size=m, max_size=m))
    breakpoints = np.concatenate([[0.0], np.cumsum(widths)])
    values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 50.0))
    sigmas = draw(st.lists(values, min_size=m, max_size=m))
    colors = draw(arrays(np.float64, (m, 3), elements=st.one_of(st.just(-0.0), st.floats(-1.0, 2.0))))
    origin, direction = draw(st.sampled_from([((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
                                              ((0.3, -1.2, 0.7), (0.2, -0.9, 0.4))]))
    field = PiecewiseConstantRayField(origin, direction, breakpoints, sigmas, colors)
    t = np.concatenate([[-1.0, -5e-324], breakpoints, np.nextafter(breakpoints, -np.inf),
                        np.nextafter(breakpoints, np.inf), breakpoints[:-1] + np.diff(breakpoints) / 2,
                        [breakpoints[-1] + 1.0, 1e6]])
    return field, field.axis_origin + t[:, None] * field.axis_direction


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

    @pytest.mark.parametrize("sigma, color", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_intervals_rejected(self, sigma, color):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseConstantRayField((0, 0, 0), (1, 0, 0), [0.0, 1.0, 2.0], [0.5, sigma],
                                      [(1, 1, 1), (color, 0, 0)])

    @settings(max_examples=300, deadline=None)
    @given(_piecewise_cases())
    def test_lookup_matches_masked_reference(self, case):
        field, pts = case
        for points in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
            sigma, color = reference_piecewise_raw(field, points)
            assert field._raw_density(points).tobytes() == sigma.tobytes()
            raw_sigma, raw_color = field._raw(points)
            assert raw_sigma.tobytes() == sigma.tobytes() and raw_color.tobytes() == color.tobytes()

    def test_gradients_unsupported(self):
        with pytest.raises(UnsupportedGradient):
            self._field()._raw_density_rows(np.zeros((2, 3)))
        with pytest.raises(UnsupportedGradient):
            self._field()._grad_sources(np.zeros((2, 3)), 2)


class TestFieldGradients:
    """Analytic parameter derivatives against central finite differences."""

    @pytest.mark.parametrize("field", _example_fields(), ids=lambda f: f.kind)
    def test_matches_finite_differences(self, field):
        rng = np.random.default_rng(5)
        pts = np.concatenate([
            rng.uniform(-1.2, 1.2, (25, 3)),
            rng.uniform(-0.3, 0.3, (10, 3)),
        ])
        # The capped density's derivative: each density row, zeroed where the
        # cap binds (as the loss does), and exactly 0 for every other parameter.
        raw, rows = field._raw_density_rows(pts)
        d_sig = np.zeros((pts.shape[0], field.n_params))
        d_sig[:, list(field.density_params)] = rows.T * (raw < field.sigma_max)[:, None]
        # The color's derivative: 1 in each channel's parameter slot where the
        # unclipped color lies in [0, 1], else 0.
        color, offset = color_source(field, pts)
        d_col = np.zeros((pts.shape[0], 3, field.n_params))
        slots = np.broadcast_to(np.asarray(offset)[..., None] + np.arange(3), (pts.shape[0], 3))
        d_col[np.arange(pts.shape[0])[:, None], np.arange(3), slots] = (color >= 0.0) & (color <= 1.0)
        base = field.params()
        h = 1e-6
        for j in range(base.shape[0]):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            fp, fm = field.with_params(plus), field.with_params(minus)
            fd_sig = (fp.density(pts) - fm.density(pts)) / (2 * h)
            fd_col = (fp.evaluate(pts)[1] - fm.evaluate(pts)[1]) / (2 * h)
            # Skip points that straddle the density cap or color clip for
            # this parameter (the subgradient there is one-sided).
            interior = np.abs(fd_sig - d_sig[:, j]) < np.maximum(1e-4, 1e-3 * np.abs(fd_sig))
            frac = interior.mean()
            assert frac > 0.9, f"param {j}: only {frac:.0%} of points match"
            col_ok = np.abs(fd_col - d_col[:, :, j]) < 1e-4
            assert col_ok.mean() > 0.9

    def test_sigma_cap_masks_gradient(self):
        # The ray starts at the blob's centre and its observed depth is 0.01,
        # so every surface and free-space point has a raw density near 20,
        # past the cap of 10.
        f = GaussianBlobField(center=(0, 0, 0), scale=(1, 1, 1), amplitude=20.0,
                              color=(0.5, 0.5, 0.5), sigma_max=10.0)
        sample = RgbdSample(ray=Ray((0, 0, 0), (1, 0, 0), 10.0), color=np.full(3, 0.4), depth=0.01)
        scene = CompositeScene((f,), t_far=10.0)
        assert np.all(f.density(np.zeros((1, 3))) == 10.0)
        grad = loss_gradient(scene, [sample] * 4, 0, LossConfig(n_free_samples=3), rng=0)
        assert np.array_equal(grad[list(f.density_params)], np.zeros(len(f.density_params)))


class TestColorJacobian:
    """The ground plane's colors come from all three of its color groups."""

    GROUND = GroundPlaneField(softness=0.2, amplitude=9.0, color_a=(0.0, 1.0, 0.5), color_b=(1.5, -0.2, 0.3),
                              checker_size=0.6, dome_radius=2.0, dome_color=(0.2, 1.0, 7.0))

    def test_ground_plane_points_reach_every_surface(self):
        ground = self.GROUND
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, (300, 3))
        _, offsets = color_source(ground, pts)
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
        raw, rows = field._raw_density_rows(pts)
        assert raw.tobytes() == ref_raw.tobytes()
        assert rows.flags.c_contiguous
        assert rows.tobytes() == np.ascontiguousarray(ref_grad[:, field.density_params].T).tobytes()
        # density_params is complete: every other column is exactly 0.
        others = np.delete(ref_grad, field.density_params, axis=1)
        assert np.all(others == 0.0)
        sigma = ref_raw if field.sigma_max is None else np.minimum(ref_raw, field.sigma_max)
        assert field.density(pts).tobytes() == sigma.tobytes()
        assert field.evaluate(pts)[0].tobytes() == sigma.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(FIELDS, POINTS)
    def test_colors_clipped_per_point(self, field, pts):
        if isinstance(field, GroundPlaneField):
            color, _ = color_source(field, pts)
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
        # Plane points stay inside the dome radius, where the plane, not the
        # dome, gives the color whatever the softness.
        xy = rng.uniform(-0.7, 0.7, (200, 2)) * ground.dome_radius
        plane = np.column_stack([xy, np.full(200, -0.01)])
        far = rng.normal(size=(50, 3))
        far *= 40.0 / np.linalg.norm(far, axis=1, keepdims=True)
        pts = np.concatenate([plane, far])
        _, offsets = color_source(ground, pts)
        assert set(np.unique(offsets)) == {2, 5, 10}
        ref_raw, ref_grad = reference_density_grad(ground, pts)
        raw, rows = ground._raw_density_rows(pts)
        assert raw.tobytes() == ref_raw.tobytes()
        assert rows.tobytes() == np.ascontiguousarray(ref_grad[:, ground.density_params].T).tobytes()


@st.composite
def _piecewise_fields(draw):
    m = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(1e-2, 20.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.0, 50.0), min_size=m, max_size=m))
    colors = draw(arrays(np.float64, (m, 3), elements=st.floats(-1.0, 2.0)))
    origin = draw(st.tuples(*[st.floats(-2, 2)] * 3))
    direction = draw(st.sampled_from([(1.0, 0.0, 0.0), (0.2, -0.9, 0.4), (-0.5, 0.5, 0.7)]))
    sigma_max = draw(st.one_of(st.none(), st.floats(0.5, 20.0)))
    return PiecewiseConstantRayField(origin, direction, np.concatenate([[0.0], np.cumsum(widths)]), sigmas, colors,
                                     sigma_max=sigma_max)


@st.composite
def _block_points(draw):
    """(N, 3) points, N from 1 to one full render block, spread from the
    objects' scale out to past every dome, from a drawn seed."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, BLOCK_POINTS), st.just(BLOCK_POINTS)))
    spread = draw(st.sampled_from([1.0, 3.0, 60.0]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-spread, spread, (n, 3))


class TestKernelContract:
    """Every density a kind computes is one value: ``_density`` with and
    without a destination row, ``_density_color``, and the capped ``_raw``
    and ``_raw_density_rows``, bit for bit, on C-ordered points and on
    (N, 3) views of channel-major rows.  No kernel writes its points."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(FIELDS, _piecewise_fields()), _block_points(), st.booleans())
    def test_density_paths_agree(self, field, pts, channel_major):
        if channel_major:
            pts = np.ascontiguousarray(pts.T).T
        before = pts.copy()
        want = field._density(pts)
        rows = np.full((3, pts.shape[0]), np.nan)
        row = rows[1]
        assert field._density(pts, out=row) is row
        assert row.tobytes() == want.tobytes() and np.isnan(rows[[0, 2]]).all()
        density, _ = field._density_color(pts)
        assert density.tobytes() == want.tobytes()
        row = rows[2]
        assert field._density_color(pts, out=row)[0] is row
        assert row.tobytes() == want.tobytes()
        assert field._cap(field._raw(pts)[0]).tobytes() == want.tobytes()
        if not isinstance(field, PiecewiseConstantRayField):
            assert field._cap(field._raw_density_rows(pts)[0]).tobytes() == want.tobytes()
        assert pts.tobytes() == before.tobytes()

