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
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfields import _threads, estimlab
from rayfields.estimlab import (
    slab_demo_field,
    slab_demo_ray,
    stratified_bias_demo,
    stratified_miss_probability,
)

from references import reference_bias_demo


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

    @pytest.mark.parametrize("n_trials", [1, 0, -3])
    def test_rejects_fewer_than_two_trials(self, n_trials):
        with pytest.raises(ValueError, match="n_trials must be >= 2"):
            stratified_bias_demo(k=10, n_trials=n_trials)

    @pytest.mark.parametrize("n_trials", [2.5, 10.0, "10", True, None])
    def test_rejects_a_non_integer_trial_count(self, n_trials):
        with pytest.raises(TypeError, match="n_trials must be an integer"):
            stratified_bias_demo(k=10, n_trials=n_trials)

    def test_accepts_numpy_integer_trial_counts(self):
        expected = stratified_bias_demo(k=10, n_trials=5, seed=3)
        assert stratified_bias_demo(k=10, n_trials=np.int64(5), seed=3) == expected


class _TiedUniforms:
    """Stands in for a trial's generator: alternating draws of the largest
    uniform below 1 and 0, so that bins 1 and 2 share an edge depth."""

    def __init__(self, seed=None):
        pass

    def random(self, size):
        return np.resize([1.0 - 2.0**-53, 0.0], size).astype(np.float64)


class _FarUniforms:
    """Stands in for a trial's generator: draws of 0, except 4 in the last
    bin, whose depth then lies past t_far and leaves that bin a negative
    width while the depths still increase."""

    def __init__(self, seed=None):
        pass

    def random(self, size):
        u = np.zeros(size)
        u[..., -1] = 4.0
        return u


class TestPlainSampleChecks:
    """The plain demo keeps the checks that explicit samples had: strictly
    increasing depths, densities >= 0 and widths > 0, and finite densities."""

    def test_tied_depths_are_rejected(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _TiedUniforms)
        with pytest.raises(ValueError, match="strictly increasing"):
            stratified_bias_demo(k=8, n_trials=3)

    def test_non_positive_widths_are_rejected(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _FarUniforms)
        for demo in (stratified_bias_demo, reference_bias_demo):
            with pytest.raises(ValueError, match="widths > 0"):
                demo(k=8, n_trials=3, seed=0, hierarchical=False)

    @pytest.mark.parametrize("sigma,message", [(-1.0, "densities must be >= 0"), (np.nan, "sigma must be finite")])
    def test_bad_densities_are_rejected(self, monkeypatch, sigma, message):
        field = slab_demo_field()
        object.__setattr__(field, "sigmas", np.array([0.0, 100.0, sigma, 10.0]))
        monkeypatch.setattr(estimlab, "slab_demo_field", lambda: field)
        with pytest.raises(ValueError, match=message):
            stratified_bias_demo(k=8, n_trials=3)


def _bits(demo: dict) -> dict:
    return {key: (type(value), repr(value)) for key, value in demo.items()}


class TestBatchedDemoReference:
    """Trials as rows of one batched render give the per-trial loop's dict
    bit for bit, whatever the block size and worker count."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 130), hierarchical=st.booleans(), block=st.integers(1, 40),
           full_blocks=st.integers(0, 3), last=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_trial_loop(self, threads, k, hierarchical, block, full_blocks, last, seed):
        n_trials = max(2, full_blocks * block + last)  # the last block holds 1 or 2 rows
        row_points = 2 * k if hierarchical else k
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(_threads.THREADS_ENV_VAR, threads)
            mp.setattr(_threads, "BLOCK_POINTS", block * row_points)
            got = stratified_bias_demo(k=k, n_trials=n_trials, seed=seed, hierarchical=hierarchical)
        assert _bits(got) == _bits(reference_bias_demo(k, n_trials, seed, hierarchical))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("k,n_trials,hierarchical", [
        (130, 127, True), (130, 128, True),  # 126-row blocks
        (100, 328, False), (100, 329, False),  # 327-row blocks
        (10_000, 50, False),  # criterion 1's dense case: 3-row blocks, the last of 2
    ])
    def test_matches_per_trial_loop_at_the_real_block_size(self, monkeypatch, threads, k, n_trials, hierarchical):
        monkeypatch.setenv(_threads.THREADS_ENV_VAR, threads)
        got = stratified_bias_demo(k=k, n_trials=n_trials, seed=2028, hierarchical=hierarchical)
        assert _bits(got) == _bits(reference_bias_demo(k, n_trials, 2028, hierarchical))
