import math

import numpy as np
import pytest

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
from rayfields.transport import _fine_positions

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


def _boundary_draws(tiny, offset, n=4096, k=64, f=32):
    """Coarse weights with every third bin at ``tiny`` relative weight, and
    fine uniforms placed ``offset`` above bin edges of the CDF."""
    weights = np.ones((n, k))
    weights[:, ::3] = tiny
    cdf = np.cumsum(weights, axis=1)
    cdf /= cdf[:, -1:]
    edges = np.random.default_rng(0).integers(0, k - 1, (n, f))
    return weights, np.take_along_axis(cdf, edges, axis=1) + offset


class TestFinePositions:
    def test_chunking_cannot_change_draws(self):
        weights, u = _boundary_draws(1e-13, 0.0)
        t_fars = np.full(weights.shape[0], 40.0)
        whole = _fine_positions(weights, t_fars, u)
        chunked = np.concatenate([
            _fine_positions(weights[lo:lo + 512], t_fars[lo:lo + 512], u[lo:lo + 512])
            for lo in range(0, weights.shape[0], 512)
        ])
        assert np.array_equal(whole, chunked)

    def test_draws_stay_inside_the_ray(self):
        weights, u = _boundary_draws(0.0, 1e-15)
        t_fars = np.linspace(1.0, 40.0, weights.shape[0])
        t = _fine_positions(weights, t_fars, u)
        assert np.all(t >= 0.0)
        assert np.all(t <= t_fars[:, None])


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
