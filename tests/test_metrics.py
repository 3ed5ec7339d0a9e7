"""Tests for the segmentation/reconstruction metrics.

The ARI oracle here is an independent implementation built from explicit
pair counting: for every pair of pixels, classify it as together-in-both,
together-in-one, or apart-in-both, then apply the pair-count form

    ari = 2 (n11 n00 - n10 n01) / ((n11 + n10)(n10 + n00) + (n11 + n01)(n01 + n00))

with the degenerate 0/0 case scored 1 for identical partitions and 0
otherwise.  The oracle is checked exhaustively against every pair of
partitions of small sets (restricted growth strings), so any disagreement
with the production implementation pins down a real defect.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfields.metrics import ari, mse


def pair_mask(labels) -> int:
    """Upper-triangle co-membership as a bitmask over pixel pairs."""
    labels = list(labels)
    n = len(labels)
    mask = 0
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def ari_pair_oracle(pred, truth) -> float:
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    total = n * (n - 1) // 2
    p = pair_mask(pred)
    t = pair_mask(truth)
    full = (1 << total) - 1
    n11 = (p & t).bit_count()
    n10 = (p & ~t & full).bit_count()
    n01 = (~p & t & full).bit_count()
    n00 = total - n11 - n10 - n01
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if p == t else 0.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def partitions_rgs(n: int, max_blocks: int):
    """All partitions of range(n) into at most max_blocks blocks, encoded as
    restricted growth strings."""

    def grow(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(min(used + 1, max_blocks)):
            yield from grow(prefix + [label], max(used, label + 1) if label == used else used)

    yield from grow([0], 1) if n else iter(())


class TestAriAgainstPairOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_partitions(self, n):
        parts = list(partitions_rgs(n, max_blocks=3))
        for p in parts:
            for t in parts:
                expected = ari_pair_oracle(p, t)
                got = ari(np.array(p), np.array(t))
                assert got == pytest.approx(expected, abs=1e-12), (p, t)

    def test_exhaustive_n6(self):
        parts = list(partitions_rgs(6, max_blocks=3))
        for p in parts:
            for t in parts:
                assert ari(np.array(p), np.array(t)) == pytest.approx(
                    ari_pair_oracle(p, t), abs=1e-12
                )

    def test_random_larger_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(7, 12))
            p = rng.integers(0, 4, n)
            t = rng.integers(0, 4, n)
            assert ari(p, t) == pytest.approx(ari_pair_oracle(p, t), abs=1e-12)


class TestAriProperties:
    def test_identical_is_one(self):
        labels = np.array([[0, 1, 1], [2, 2, 0]])
        assert ari(labels, labels) == 1.0

    def test_label_permutation_invariant(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        remap = np.array([7, -2, 100])
        assert ari(remap[pred], truth) == pytest.approx(ari(pred, truth), abs=1e-15)
        assert ari(remap[truth], truth) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 4, 40)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)

    def test_random_labels_score_near_zero(self):
        rng = np.random.default_rng(11)
        values = [
            ari(rng.integers(0, 3, 100), rng.integers(0, 3, 100)) for _ in range(200)
        ]
        assert abs(float(np.mean(values))) <= 0.05

    def test_degenerate_single_cluster(self):
        ones = np.ones(10, dtype=int)
        assert ari(ones, ones * 5) == 1.0
        split = ones.copy()
        split[:5] = 0
        # One map single-cluster, one split: chance correction stays defined.
        assert ari(split, ones) == 0.0

    def test_all_singletons_identical(self):
        a = np.arange(8)
        assert ari(a, a[::-1] + 100) == 1.0

    def test_singletons_vs_one_cluster(self):
        assert ari(np.arange(6), np.zeros(6, dtype=int)) == 0.0

    def test_foreground_restriction(self):
        truth = np.array([0, 0, 0, 1, 1, 2, 2])
        pred = np.array([5, 6, 5, 1, 1, 2, 2])  # background split, fg perfect
        assert ari(pred, truth, restrict_to_fg=True) == 1.0
        assert ari(pred, truth) < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ari(np.zeros((3, 3)), np.zeros((3, 4)))

    def test_too_few_pixels_rejected(self):
        with pytest.raises(ValueError):
            ari(np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            ari(np.array([0, 1, 1]), np.array([0, 0, 0]), restrict_to_fg=True)

    def test_2d_maps_match_flat(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 3, (8, 8))
        b = rng.integers(0, 3, (8, 8))
        assert ari(a, b) == ari(a.ravel(), b.ravel())


class TestMse:
    def test_hand_value(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        b = np.array([[1.0, 1.0], [0.0, 3.0]])
        # Squared diffs 1, 0, 4, 0 -> mean 1.25.
        assert mse(a, b) == pytest.approx(1.25)

    def test_identical_zero(self):
        x = np.random.default_rng(2).random((5, 5, 3))
        assert mse(x, x) == 0.0

    def test_mask_selects_pixels(self):
        a = np.zeros((2, 2, 3))
        b = np.ones((2, 2, 3))
        mask = np.array([[True, False], [False, False]])
        assert mse(a, b, mask) == pytest.approx(1.0)
        b2 = b.copy()
        b2[0, 0] = 0.0
        assert mse(a, b2, mask) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((3, 3), dtype=bool))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


def exact_pair_ari(pred, truth) -> float:
    """ARI from explicit pair counts in exact rational arithmetic, rounded
    once; labels compare with ``==``, so any dtype works."""
    pred, truth = list(pred), list(truth)
    n11 = n10 = n01 = n00 = 0
    for i, j in itertools.combinations(range(len(pred)), 2):
        together = (pred[i] == pred[j], truth[i] == truth[j])
        n11 += together == (True, True)
        n10 += together == (True, False)
        n01 += together == (False, True)
        n00 += together == (False, False)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if n10 == n01 == 0 else 0.0
    return float(Fraction(2 * (n11 * n00 - n10 * n01), denom))


# Label maps of every kind ari takes: small integers of several widths with
# negative labels, integers near the int64 and uint64 limits (ranked, not
# offset), floats (with -0.0 and 0.0 as one label) and booleans.
LABELS = st.sampled_from([
    (np.int8, st.integers(-128, 127)),
    (np.int32, st.integers(-4, 4)),
    (np.int64, st.integers(-3, 3)),
    (np.int64, st.sampled_from([-2**63, -2**63 + 1, 0, 2**63 - 2, 2**63 - 1])),
    (np.uint8, st.integers(0, 5)),
    (np.uint64, st.sampled_from([0, 1, 2**63, 2**64 - 1])),
    (np.float64, st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.25])),
    (np.bool_, st.booleans()),
])


@st.composite
def label_maps(draw, n):
    dtype, values = draw(LABELS)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)


class TestAriLabelKinds:
    """ari equals the exact pair-count value, bit for bit, on every label
    kind, whether the contingency table counts offsets or ranks."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 14).flatmap(lambda n: st.tuples(label_maps(n), label_maps(n))), st.booleans())
    def test_matches_exact_pair_counts(self, maps, restrict_to_fg):
        pred, truth = maps
        if restrict_to_fg:
            keep = truth > 0
            if keep.sum() < 2:
                with pytest.raises(ValueError):
                    ari(pred, truth, restrict_to_fg=True)
                return
            expected = exact_pair_ari(pred[keep], truth[keep])
        else:
            expected = exact_pair_ari(pred, truth)
        assert ari(pred, truth, restrict_to_fg=restrict_to_fg) == expected

    @pytest.mark.parametrize("pred, truth", [
        (np.full(5, 7), np.full(5, -2)),
        (np.full(4, 2**63 - 1), np.full(4, 0.5)),
        (np.ones(3, dtype=bool), np.zeros(3, dtype=np.uint8)),
        (np.arange(5), np.arange(5)[::-1] * 3 - 4),
        (np.array([-2**63, 0, 2**63 - 1]), np.array([0.5, -1.0, 2.0])),
        (np.array([True, False]), np.array([3, 4], dtype=np.int8)),
    ])
    def test_degenerate_denominators(self, pred, truth):
        # Both maps one cluster, or both all singletons: 0/0, scored 1.
        assert ari(pred, truth) == 1.0 == exact_pair_ari(pred, truth)
