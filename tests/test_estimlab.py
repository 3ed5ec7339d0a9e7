"""Tests for the stratified-bias demo and its closed-form miss probability.

Closed-form anchors, computed by hand:

* k = 50 equal bins on [0, 100]: the slab [50, 51] covers half of the single
  bin [50, 52], so the miss probability is exactly 1/2.
* k = 100: the slab fills bin [50, 51] completely, so the miss probability
  is 0.
* A slab [49, 51] straddling two bins at k = 50 misses with probability
  (1/2) * (1/2) = 1/4.
* The renormalized slab color is 1 up to exp(-100) ~ 4e-44: the backdrop is
  black, so absorbed rays carry color 1 whenever the slab absorbs.
"""

import numpy as np
import pytest

from rayfields.estimlab import (
    slab_demo_field,
    slab_demo_ray,
    stratified_bias_demo,
    stratified_miss_probability,
)


class TestMissProbability:
    def test_half_bin_overlap(self):
        assert stratified_miss_probability(50, 100.0, 50.0, 51.0) == pytest.approx(0.5, abs=1e-15)

    def test_full_bin_overlap(self):
        assert stratified_miss_probability(100, 100.0, 50.0, 51.0) == pytest.approx(0.0, abs=1e-15)

    def test_straddling_two_bins(self):
        assert stratified_miss_probability(50, 100.0, 49.0, 51.0) == pytest.approx(0.25, abs=1e-15)

    def test_interval_wider_than_domain(self):
        assert stratified_miss_probability(10, 100.0, -5.0, 200.0) == 0.0

    def test_agrees_with_simulation(self):
        from rayfields.transport import stratified_samples

        k, lo, hi = 50, 50.0, 51.0
        rng = np.random.default_rng(8)
        n = 4000
        misses = 0
        for _ in range(n):
            ts = stratified_samples(k, 100.0, rng)
            misses += not np.any((ts >= lo) & (ts <= hi))
        p = stratified_miss_probability(k, 100.0, lo, hi)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(misses / n - p) <= 4 * se


class TestSlabDemo:
    def test_field_layout(self):
        field = slab_demo_field()
        ray = slab_demo_ray()
        assert ray.t_far == 100.0
        sig, col = field.evaluate(np.array([[50.5, 0, 0], [70.0, 0, 0], [90.0, 0, 0]]))
        assert sig.tolist() == [100.0, 0.0, 10.0]
        assert col[0].tolist() == [1.0, 1.0, 1.0]
        assert col[2].tolist() == [0.0, 0.0, 0.0]

    def test_demo_reproduces_the_factor_two_bias(self):
        demo = stratified_bias_demo(k=50, n_trials=400, seed=0)
        assert demo["analytic_miss_probability"] == pytest.approx(0.5, abs=1e-15)
        assert demo["analytic_color"] == pytest.approx(1.0, abs=1e-12)
        # Miss rate matches its closed form within sampling error.
        se = demo["miss_rate_std_error"]
        assert abs(demo["miss_rate"] - 0.5) <= 4.0 * se
        # Hits score ~1, misses score 0 (black backdrop), so the mean tracks
        # the hit rate and the estimator is biased low by a factor ~2.
        assert abs(demo["empirical_mean"] - (1.0 - demo["miss_rate"])) < 0.02
        assert demo["bias"] < -0.4
        assert demo["bias"] == pytest.approx(demo["empirical_mean"] - demo["analytic_color"])

    def test_hierarchical_round_does_not_repair_it(self):
        demo = stratified_bias_demo(k=50, n_trials=300, seed=1, hierarchical=True)
        # Fine samples follow the coarse weights, which carry no slab signal
        # whenever the coarse pass missed, so the miss rate stays ~1/2.
        assert abs(demo["miss_rate"] - 0.5) <= 5.0 * demo["miss_rate_std_error"]
        assert demo["bias"] < -0.3
        assert demo["hierarchical"] is True

    def test_reproducible(self):
        a = stratified_bias_demo(k=50, n_trials=50, seed=7)
        b = stratified_bias_demo(k=50, n_trials=50, seed=7)
        assert a == b

    def test_result_keys(self):
        demo = stratified_bias_demo(k=10, n_trials=20, seed=0)
        assert set(demo) == {
            "k",
            "n_trials",
            "hierarchical",
            "analytic_color",
            "empirical_mean",
            "std_error",
            "bias",
            "miss_rate",
            "miss_rate_std_error",
            "analytic_miss_probability",
        }
