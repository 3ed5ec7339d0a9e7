import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields.compose import CompositeScene, _marginals_from_batch
from rayfields.fields import GaussianBlobField, PiecewiseConstantRayField
from rayfields.geometry import Ray
from rayfields.transport import (
    QuadratureConfig,
    RaySamples,
    analytic_piecewise,
    depth_cdf,
    depth_pdf,
    expected_depth,
    hierarchical_render,
    piecewise_interval_probability,
    probability_balance,
    quadrature_render,
    stratified_samples,
    transmittance,
    transmittance_grid,
)
from rayfields.transport import (EMPTY_WEIGHT_EPS, _draw_uniforms, _fine_positions, _render_batch, _seeded_draws,
                                 _sum_samples, _total)

from references import (FIELDS, RAYS, SCENES, reference_fine_positions, reference_probability_balance,
                        reference_quadrature_render, reference_render_batch, reference_transmittance,
                        reference_transmittance_grid)

X_RAY = Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 10.0)


def _constant_field(sigma, color=(1.0, 1.0, 1.0)):
    return PiecewiseConstantRayField(
        axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
        breakpoints=[0.0, 1e9], sigmas=[sigma], colors=[color],
    )


def _two_band_field():
    return PiecewiseConstantRayField(
        axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
        breakpoints=[0.0, 2.0, 3.0, 6.0, 10.0],
        sigmas=[0.0, 1.5, 0.0, 0.8],
        colors=[(0, 0, 0), (1.0, 0.2, 0.1), (0, 0, 0), (0.1, 0.2, 1.0)],
    )


class TestTransmittance:
    def test_constant_density_closed_form(self):
        # Survival through density 0.5 over length 2 is exp(-1).
        field = _constant_field(0.5)
        quad = QuadratureConfig(n_coarse=16, n_fine=0)
        assert math.isclose(transmittance(field, X_RAY, 2.0, quad), math.exp(-1.0), rel_tol=1e-12)
        assert transmittance(field, X_RAY, 0.0, quad) == 1.0

    def test_piecewise_matches_analytic(self):
        field = _two_band_field()
        quad = QuadratureConfig(n_coarse=4096, n_fine=0)
        for t in (1.0, 2.5, 4.0, 9.0):
            exact = analytic_piecewise(field, t).transmittance
            assert math.isclose(transmittance(field, X_RAY, t, quad), exact, rel_tol=5e-3)

    def test_grid_is_monotone_nonincreasing(self):
        field = GaussianBlobField(center=(5.0, 0.3, 0.0), scale=(0.8, 0.8, 0.8),
                                  amplitude=7.0, color=(1, 1, 1))
        ts = np.linspace(0.0, 10.0, 257)
        vals = transmittance_grid(field, X_RAY, ts)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_grid_agrees_with_spot_values(self):
        field = _two_band_field()
        ts = np.array([1.0, 2.5, 4.0, 9.0])
        grid_vals = transmittance_grid(field, X_RAY, ts, n_panels=1 << 16)
        for t, got in zip(ts, grid_vals):
            assert math.isclose(got, analytic_piecewise(field, t).transmittance, rel_tol=1e-3)

    def test_out_of_range_rejected(self):
        field = _constant_field(1.0)
        with pytest.raises(ValueError):
            transmittance(field, X_RAY, 11.0, QuadratureConfig())
        with pytest.raises(ValueError):
            transmittance_grid(field, X_RAY, [-1.0])

    @pytest.mark.parametrize("n_panels,error", [(0, ValueError), (-3, ValueError), (True, TypeError),
                                                (8.0, TypeError), ("8", TypeError)])
    def test_panel_counts_are_checked(self, n_panels, error):
        """A panel count is an integer >= 1: no empty grid, no NumPy error, no bool read as 1."""
        blob = GaussianBlobField(center=(4.0, 0.0, 0.0), scale=(0.7, 0.7, 0.7), amplitude=3.0, color=(1, 1, 1))
        with pytest.raises(error, match="^n_panels must be"):
            transmittance_grid(blob, X_RAY, [2.0, 5.0], n_panels=n_panels)
        with pytest.raises(error, match="^n_panels must be"):
            probability_balance(blob, X_RAY, n_panels=n_panels)


class TestDepthDistribution:
    def test_pdf_is_density_times_survival(self):
        field = _two_band_field()
        quad = QuadratureConfig(n_coarse=2048, n_fine=0)
        t = 2.5
        exact = analytic_piecewise(field, t)
        assert math.isclose(depth_pdf(field, X_RAY, t, quad), exact.pdf, rel_tol=5e-3)
        assert math.isclose(depth_cdf(field, X_RAY, t, quad),
                            1.0 - exact.transmittance, rel_tol=5e-3)

    def test_cdf_derivative_is_pdf(self):
        field = GaussianBlobField(center=(4.0, 0.0, 0.0), scale=(0.7, 0.7, 0.7),
                                  amplitude=3.0, color=(1, 1, 1))
        quad = QuadratureConfig(n_coarse=4096, n_fine=0)
        t, h = 3.6, 1e-3
        fd = (depth_cdf(field, X_RAY, t + h, quad) - depth_cdf(field, X_RAY, t - h, quad)) / (2 * h)
        assert math.isclose(fd, depth_pdf(field, X_RAY, t, quad), rel_tol=1e-3)

    def test_probability_balance_sums_to_one(self):
        # Integral of the depth density plus survival at the cutoff is exactly
        # the total probability, for both transparent and opaque rays.
        cases = [
            _constant_field(0.05),       # mostly survives
            _constant_field(2.0),        # almost surely absorbed
            _two_band_field(),
        ]
        for field in cases:
            integral, t_far = probability_balance(field, X_RAY, n_panels=4096)
            assert abs(integral + t_far - 1.0) < 1e-3

    def test_interval_probability_closed_form(self):
        field = _two_band_field()
        # P(depth in [2, 3]) = T(2) - T(3) = 1 - exp(-1.5).
        p = piecewise_interval_probability(field, 2.0, 3.0)
        assert math.isclose(p, 1.0 - math.exp(-1.5), rel_tol=1e-12)
        assert piecewise_interval_probability(field, 0.0, 2.0) == 0.0


class TestStratifiedSamples:
    def test_one_sample_per_bin(self):
        rng = np.random.default_rng(0)
        t = stratified_samples(50, 100.0, rng)
        assert t.shape == (50,)
        bins = np.floor(t / 2.0).astype(int)
        assert np.array_equal(bins, np.arange(50))
        assert np.all(np.diff(t) > 0)

    def test_marginal_is_uniform(self):
        # Pooled over trials, each bin's sample is U(bin); a chi-squared test
        # on decile occupancy within one bin should not reject.
        rng = np.random.default_rng(7)
        first_bin = np.array([stratified_samples(4, 8.0, rng)[0] for _ in range(2000)])
        counts, _ = np.histogram(first_bin, bins=10, range=(0.0, 2.0))
        chi2 = ((counts - 200.0) ** 2 / 200.0).sum()
        assert chi2 < 27.88  # 0.1% critical value, 9 dof

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            stratified_samples(0, 1.0, rng)
        with pytest.raises(ValueError):
            stratified_samples(4, 0.0, rng)

    @pytest.mark.parametrize("k,error", [(-2, ValueError), (True, TypeError), (4.0, TypeError), (None, TypeError)])
    def test_count_is_an_integer(self, k, error):
        with pytest.raises(error, match="^k must be"):
            stratified_samples(k, 1.0, np.random.default_rng(0))


class TestQuadratureRender:
    def test_ownership_widths_cover_the_ray(self):
        field = _two_band_field()
        t = np.array([1.0, 2.0, 4.0, 7.0])
        samples = RaySamples.from_field(field, X_RAY, t)
        assert math.isclose(samples.delta.sum(), X_RAY.t_far, rel_tol=1e-12)
        assert np.allclose(samples.delta, [1.5, 1.5, 2.5, 4.5])

    def test_opaque_constant_ray_color(self):
        field = _constant_field(5.0, color=(0.3, 0.6, 0.9))
        t = np.linspace(0.05, 9.95, 200)
        res = quadrature_render(RaySamples.from_field(field, X_RAY, t))
        assert np.allclose(res.color, (0.3, 0.6, 0.9))
        assert res.alpha > 1.0 - 1e-12
        assert not res.empty

    def test_vacuum_ray_is_empty(self):
        field = _constant_field(0.0)
        t = np.linspace(0.1, 9.9, 32)
        res = quadrature_render(RaySamples.from_field(field, X_RAY, t))
        assert res.empty
        assert math.isnan(res.depth)
        assert res.depth_raw == 0.0
        assert res.transmittance_far == 1.0

    def test_weights_sum_to_alpha(self):
        field = _two_band_field()
        t = np.linspace(0.05, 9.95, 400)
        res = quadrature_render(RaySamples.from_field(field, X_RAY, t))
        assert math.isclose(res.weights.sum(), res.alpha, rel_tol=1e-12)
        assert math.isclose(res.alpha, 1.0 - res.transmittance_far, rel_tol=1e-12)

    def test_two_band_color_split(self):
        # With dense samples the composited color approaches the exact
        # per-band absorption shares.
        field = _two_band_field()
        t = np.linspace(0.001, 9.999, 20000)
        res = quadrature_render(RaySamples.from_field(field, X_RAY, t))
        exact = analytic_piecewise(field, 10.0)
        renorm = exact.color / (1.0 - exact.transmittance)
        assert np.allclose(res.color, renorm, atol=2e-3)


class TestHierarchicalRender:
    def test_deterministic_given_seed(self):
        field = GaussianBlobField(center=(5, 0, 0), scale=(0.6, 0.6, 0.6),
                                  amplitude=8.0, color=(0.9, 0.5, 0.1))
        quad = QuadratureConfig(n_coarse=32, n_fine=64, seed=123)
        a = hierarchical_render(field, X_RAY, quad)
        b = hierarchical_render(field, X_RAY, quad)
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.t, b.t)
        assert a.depth == b.depth

    def test_fine_samples_concentrate_where_density_is(self):
        field = GaussianBlobField(center=(5, 0, 0), scale=(0.3, 0.3, 0.3),
                                  amplitude=9.0, color=(1, 1, 1))
        quad = QuadratureConfig(n_coarse=32, n_fine=128, seed=0)
        res = hierarchical_render(field, X_RAY, quad)
        fine_near = np.sum(np.abs(res.t - 5.0) < 1.0)
        # 160 total samples; without importance only ~32 would land there.
        assert fine_near > 80

    def test_color_and_depth_against_analytic(self):
        field = _two_band_field()
        quad = QuadratureConfig(n_coarse=4096, n_fine=4096, seed=3)
        res = hierarchical_render(field, X_RAY, quad)
        exact = analytic_piecewise(field, 10.0)
        renorm = exact.color / (1.0 - exact.transmittance)
        assert np.allclose(res.color, renorm, atol=2e-3)
        assert math.isclose(res.transmittance_far, exact.transmittance, rel_tol=2e-2)
        assert expected_depth(field, X_RAY, quad) == res.depth

    def test_unstratified_midpoints(self):
        field = _constant_field(0.3)
        quad = QuadratureConfig(n_coarse=8, n_fine=0, seed=0, stratified=False)
        res = hierarchical_render(field, X_RAY, quad)
        assert np.allclose(res.t, (np.arange(8) + 0.5) / 8 * 10.0)


SEEDED_QUADRATURES = [QuadratureConfig(n_coarse=16, n_fine=32, seed=41),
                      QuadratureConfig(n_coarse=9, n_fine=11, seed=42, stratified=False),
                      QuadratureConfig(n_coarse=12, n_fine=0, seed=43)]


class TestSeededDraws:
    """Single-ray calls without a generator reuse their quadrature's draws."""

    @pytest.mark.parametrize("quad", SEEDED_QUADRATURES, ids=["stratified", "unstratified", "coarse-only"])
    def test_equal_fresh_draws(self, quad):
        fresh = _draw_uniforms(np.random.default_rng(quad.seed), 1, quad)
        for _ in range(2):  # the first call fills the cache, the second reads it
            cached = _seeded_draws(quad)
            assert [u is None for u in cached] == [u is None for u in fresh]
            for got, want in zip(cached, fresh):
                if want is not None:
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_draws_are_read_only(self):
        for u in _seeded_draws(SEEDED_QUADRATURES[0]):
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                u += 1.0

    def test_seed_changes_draws(self):
        quad = SEEDED_QUADRATURES[0]
        other = QuadratureConfig(n_coarse=quad.n_coarse, n_fine=quad.n_fine, seed=quad.seed + 1)
        for a, b in zip(_seeded_draws(quad), _seeded_draws(other)):
            assert a.tobytes() != b.tobytes()

    def test_seeded_render_equals_fresh_generator(self):
        field = GaussianBlobField(center=(5, 0, 0), scale=(0.6, 0.6, 0.6), amplitude=8.0, color=(0.9, 0.5, 0.1))
        for quad in SEEDED_QUADRATURES:
            seeded = hierarchical_render(field, X_RAY, quad)
            fresh = hierarchical_render(field, X_RAY, quad, rng=np.random.default_rng(quad.seed))
            for key, value in vars(seeded).items():
                assert np.asarray(value).tobytes() == np.asarray(getattr(fresh, key)).tobytes(), key

    def test_explicit_generator_still_advances(self):
        field = GaussianBlobField(center=(5, 0, 0), scale=(0.6, 0.6, 0.6), amplitude=8.0, color=(0.9, 0.5, 0.1))
        quad = SEEDED_QUADRATURES[0]
        g = np.random.default_rng(quad.seed)
        first = hierarchical_render(field, X_RAY, quad, rng=g)
        second = hierarchical_render(field, X_RAY, quad, rng=g)
        assert first.t.tobytes() != second.t.tobytes()
        expected = np.random.default_rng(quad.seed)
        expected.random(quad.n_coarse + quad.n_fine)
        expected.random(quad.n_coarse + quad.n_fine)
        assert g.random() == expected.random()


def _boundary_draws(tiny, offset, n=4096, k=64, f=32):
    """Coarse weights with every third bin at ``tiny`` relative weight, and
    fine uniforms placed ``offset`` above bin edges of the CDF."""
    weights = np.ones((n, k))
    weights[:, ::3] = tiny
    cdf = np.cumsum(weights, axis=1)
    cdf /= cdf[:, -1:]
    edges = np.random.default_rng(0).integers(0, k - 1, (n, f))
    return weights, np.take_along_axis(cdf, edges, axis=1) + offset


def _transpose(a):
    """A C-ordered transpose: rows (N, S) to the samples-major (S, N) arrays
    of the render batch, and back."""
    return np.ascontiguousarray(a.T)


class TestFinePositions:
    def test_chunking_cannot_change_draws(self):
        weights, u = _boundary_draws(1e-13, 0.0)
        t_fars = np.full(weights.shape[0], 40.0)
        whole = _fine_positions(_transpose(weights), t_fars, u)
        chunked = np.concatenate([
            _fine_positions(_transpose(weights[lo:lo + 512]), t_fars[lo:lo + 512], u[lo:lo + 512])
            for lo in range(0, weights.shape[0], 512)
        ])
        assert np.array_equal(whole, chunked)

    def test_draws_stay_inside_the_ray(self):
        weights, u = _boundary_draws(0.0, 1e-15)
        t_fars = np.linspace(1.0, 40.0, weights.shape[0])
        t = _fine_positions(_transpose(weights), t_fars, u)
        assert np.all(t >= 0.0)
        assert np.all(t <= t_fars[:, None])


# Sample counts on each side of NumPy's pairwise-sum boundaries: below 8 a
# contiguous axis is summed left to right, up to 128 in one block of eight
# lanes, and above 128 in halves.
SAMPLE_COUNTS = st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 300))
ZERO_OR_WEIGHT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-300, 1e-12), st.floats(0.0, 1.0))


@st.composite
def _coarse_rows(draw):
    """Coarse weight rows (N, k) with zero-weight and flat stretches and
    empty rows, ray cutoffs, and fine uniforms (N, f) that include draws
    exactly on, and one ulp either side of, the rows' CDF values."""
    n = draw(st.integers(1, 300))
    k = draw(SAMPLE_COUNTS)
    f = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.random((n, k)) * 10.0 ** rng.uniform(-14, 0, (n, 1))
    for lo, hi in rng.integers(0, k + 1, (rng.integers(0, 4), 2)):
        weights[:, min(lo, hi):max(lo, hi)] = 0.0 if rng.random() < 0.5 else 1e-300
    weights[rng.random(n) < 0.2] = 0.0
    weights[:, :min(k, 4)] = draw(arrays(np.float64, min(k, 4), elements=ZERO_OR_WEIGHT))
    u = rng.random((n, f))
    cdf = np.cumsum(np.where((weights.sum(axis=1) > EMPTY_WEIGHT_EPS)[:, None], weights, 1.0), axis=1)
    cdf /= cdf[:, -1:]
    on = rng.random((n, f)) < 0.5
    hits = np.take_along_axis(cdf, rng.integers(0, k, (n, f)), axis=1)
    hits = np.nextafter(hits, rng.choice([-np.inf, np.inf], (n, f))) if rng.random() < 0.3 else hits
    u[on] = hits[on]
    u.flat[rng.integers(0, u.size, 3)] = draw(st.sampled_from([0.0, 1.0 - 1e-12, 1.0]))
    return weights, rng.uniform(0.5, 40.0, n), u


def _scene_rays(draw_seed, n_rays):
    """Origins, unit directions and cutoffs of ``n_rays`` random rays."""
    rng = np.random.default_rng(draw_seed)
    dirs = rng.normal(size=(n_rays, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return rng.uniform(-4, 4, (n_rays, 3)), dirs, rng.uniform(0.5, 40.0, n_rays)


QUADRATURES = st.builds(QuadratureConfig,
                        n_coarse=st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 150)),
                        n_fine=st.one_of(st.just(0), st.integers(1, 8), st.integers(100, 140)),
                        seed=st.integers(0, 2**16), stratified=st.booleans())


def _batch_as_rows(batch):
    """A samples-major render batch with its (S, N) arrays as rows (N, S)."""
    rows = dict(batch)
    for key in ("t", "weights", "sigma"):
        rows[key] = _transpose(batch[key])
    rows["sigmas"] = np.ascontiguousarray(batch["sigmas"].transpose(0, 2, 1))
    return rows


class TestSamplesMajorReferences:
    """The samples-major render batch and its branchless fine-bin search
    equal the row-major batch with per-row ``searchsorted`` that they
    replaced (tests/references.py), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_coarse_rows())
    def test_fine_positions_match_per_row_search(self, rows):
        weights, t_fars, u = rows
        got = _fine_positions(_transpose(weights), t_fars, u)
        assert got.tobytes() == reference_fine_positions(weights, t_fars, u).tobytes()

    def test_every_block_size_matches_per_row_search(self):
        weights, u = _boundary_draws(1e-13, 0.0, n=300)
        u[::7] = np.random.default_rng(1).random((43, u.shape[1]))
        weights[::5] = 0.0
        t_fars = np.linspace(0.5, 40.0, 300)
        for n in range(1, 301):
            got = _fine_positions(_transpose(weights[:n]), t_fars[:n], u[:n])
            assert got.tobytes() == reference_fine_positions(weights[:n], t_fars[:n], u[:n]).tobytes(), n

    @settings(max_examples=300, deadline=None)
    @given(SAMPLE_COUNTS.flatmap(lambda s: st.tuples(st.just(s), st.integers(1, 40))).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.one_of(ZERO_OR_WEIGHT, st.floats(-1.0, 0.0)))))
    def test_sample_sums_match_row_sums(self, terms):
        rows = np.ascontiguousarray(terms.T)
        assert _total(terms).tobytes() == rows.sum(axis=1).tobytes()
        stack = np.stack([terms, 0.5 * terms, -terms])
        expected = np.ascontiguousarray(stack.transpose(0, 2, 1)).cumsum(axis=-1)[..., -1] + 0.0
        assert _sum_samples(stack).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 5, 8, 9, 16]).flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)),
           st.integers(1, 300), st.integers(0, 2**32 - 1), QUADRATURES)
    def test_render_batch_matches_row_major_batch(self, fields, n_rays, seed, quad):
        scene = CompositeScene(tuple(fields))
        origins, dirs, t_fars = _scene_rays(seed, n_rays)
        draws = _draw_uniforms(np.random.default_rng(quad.seed), n_rays, quad)
        batch = _render_batch(scene, origins, dirs, t_fars, quad, draws)
        marginals, _ = _marginals_from_batch(batch)
        rows = _batch_as_rows(batch)
        expected = reference_render_batch(scene, origins, dirs, t_fars, quad, draws)
        assert marginals.tobytes() == expected.pop("marginals").tobytes()
        assert rows.keys() == expected.keys()
        for key, value in expected.items():
            assert rows[key].shape == value.shape and rows[key].tobytes() == value.tobytes(), key


class TestRaySamplesValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RaySamples(t=[2.0, 1.0], sigma=[1.0, 1.0],
                       color=[(1, 1, 1), (1, 1, 1)], delta=[1.0, 1.0])

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            RaySamples(t=[1.0, 2.0], sigma=[-1.0, 1.0],
                       color=[(1, 1, 1), (1, 1, 1)], delta=[1.0, 1.0])

    def test_quadrature_config_bounds(self):
        with pytest.raises(ValueError):
            QuadratureConfig(n_coarse=1)
        with pytest.raises(ValueError):
            QuadratureConfig(n_fine=-1)

    @pytest.mark.parametrize("kwargs,error", [
        ({"n_coarse": 64.0}, TypeError), ({"n_fine": 3.5}, TypeError), ({"n_coarse": True}, TypeError),
        ({"n_fine": "8"}, TypeError), ({"seed": 1.0}, TypeError), ({"seed": False}, TypeError),
        ({"seed": -1}, ValueError), ({"seed": np.int64(-3)}, ValueError),
    ])
    def test_quadrature_config_rejects_bad_counts_and_seeds(self, kwargs, error):
        with pytest.raises(error, match=next(iter(kwargs))):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, np.int64(1), 1.0, None])
    def test_quadrature_config_rejects_non_bool_stratified(self, value):
        with pytest.raises(TypeError, match="stratified"):
            QuadratureConfig(n_coarse=8, n_fine=0, stratified=value)

    def test_quadrature_config_accepts_numpy_bools(self):
        ray = Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 15.0)
        quad = QuadratureConfig(n_coarse=3, n_fine=0, stratified=np.bool_(False))
        assert hierarchical_render(_constant_field(0.5), ray, quad).t.tolist() == [2.5, 7.5, 12.5]

    def test_quadrature_config_accepts_numpy_integers(self):
        quad = QuadratureConfig(n_coarse=np.int32(8), n_fine=np.int64(0), seed=np.uint64(2**63))
        assert hierarchical_render(_constant_field(0.5), X_RAY, quad).t.shape == (8,)


@pytest.mark.parametrize("t", [1.0, [], [[1.0]]])
def test_ray_samples_need_one_dimensional_depths(t):
    with pytest.raises(ValueError, match="t must be a non-empty 1-D array"):
        RaySamples(t=t, sigma=[1.0], color=[(1, 1, 1)], delta=[1.0])


def _render_bytes(result):
    return {k: np.asarray(v).tobytes() for k, v in vars(result).items()}


def _ray_samples(k):
    """RaySamples of k samples: positive depth steps, densities with exact
    zeros, colors, positive widths."""
    positive = st.floats(1e-3, 2.0, allow_nan=False)
    return st.builds(
        lambda steps, sigma, color, delta: RaySamples(np.cumsum(steps), sigma, color, delta),
        arrays(np.float64, k, elements=positive),
        arrays(np.float64, k, elements=st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
        arrays(np.float64, (k, 3), elements=st.floats(0.0, 1.0)),
        arrays(np.float64, k, elements=positive),
    )


def _assert_survival_close(new, ref):
    """Within 1e-12 relative, scaled by the optical depth above 1: exp(-tau)
    carries the rounding of tau, which grows with tau.  Below 1e-300 only
    the absolute difference counts."""
    new, ref = np.asarray(new, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    tau = np.maximum(1.0, -np.log(np.maximum(ref, 1e-300)))
    assert np.all(np.abs(new - ref) <= 1e-12 * tau * np.abs(ref) + 1e-300), (new, ref)


class TestOnePathReferences:
    """The one-row compositor and the shared panel primitive against the
    single-ray versions they replaced (tests/references.py)."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(_ray_samples))
    def test_quadrature_render_bit_identical(self, samples):
        assert _render_bytes(quadrature_render(samples)) == _render_bytes(reference_quadrature_render(samples))

    @settings(max_examples=100, deadline=None)
    @given(SCENES, RAYS, st.integers(2, 300), st.floats(0.0, 1.0))
    def test_panel_estimates_match(self, scene, ray, n_panels, frac):
        quad = QuadratureConfig(n_coarse=n_panels)
        t = frac * ray.t_far
        _assert_survival_close(transmittance(scene, ray, t, quad), reference_transmittance(scene, ray, t, quad))
        ts = np.array([0.0, frac, 0.5, 1.0]) * ray.t_far
        _assert_survival_close(transmittance_grid(scene, ray, ts, n_panels),
                               reference_transmittance_grid(scene, ray, ts, n_panels))
        integral, survival = probability_balance(scene, ray, n_panels)
        ref_integral, ref_survival = reference_probability_balance(scene, ray, n_panels)
        assert abs(integral - ref_integral) <= 1e-12 * abs(ref_integral)
        _assert_survival_close(survival, ref_survival)
