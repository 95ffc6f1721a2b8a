import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dynstack.metrics import accuracy, binned_accuracy, paired_comparison
from dynstack.simulation import auc

from oracles import brute_force_auc


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_exact_half_probability_predicts_class_zero(self):
        # strict > 0.5: 0.5 maps to 0, so all-ones truth scores 0
        assert accuracy(np.array([0.5, 0.5]), np.array([1, 1])) == 0.0

    def test_hand_count(self):
        assert accuracy(np.array([0.9, 0.2, 0.6]), np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_multiclass_hard_labels(self):
        assert accuracy(np.array([2, 1, 0, 2]), np.array([2, 0, 0, 1])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1.0]), np.array([1, 0]))


class TestBinnedAccuracy:
    def test_single_bin_equals_overall(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0, 1, 50)
        truth = rng.integers(0, 2, 50)
        vals = rng.normal(0, 1, 50)
        b = binned_accuracy(pred, truth, vals, bins=1)
        assert len(b.counts) == 1
        assert b.correct[0] / b.counts[0] == pytest.approx(accuracy(pred, truth))

    def test_integer_bins_by_degree(self):
        # degree-1 nodes all correct, degree-2 nodes half correct
        pred = np.array([1, 1, 1, 0])
        truth = np.array([1, 1, 0, 0])
        deg = np.array([1.0, 1.0, 2.0, 2.0])
        b = binned_accuracy(pred, truth, deg, integer_bins=True)
        assert len(b.counts) == 2
        np.testing.assert_allclose(b.correct / b.counts, [1.0, 0.5])
        np.testing.assert_array_equal(b.counts, [2, 2])

    def test_interior_edge_goes_right(self):
        # range [0, 2] with 2 bins: edge at 1.0 belongs to the right bin
        pred = np.array([1, 1, 1])
        truth = np.array([1, 1, 0])
        vals = np.array([0.0, 1.0, 2.0])
        b = binned_accuracy(pred, truth, vals, bins=2)
        np.testing.assert_array_equal(b.counts, [1, 2])
        np.testing.assert_allclose(b.correct / b.counts, [1.0, 0.5])

    def test_empty_bins_have_zero_count(self):
        pred = np.array([1, 1])
        truth = np.array([1, 1])
        vals = np.array([0.0, 10.0])
        b = binned_accuracy(pred, truth, vals, bins=5)
        assert (b.counts[1:4] == 0).all() and (b.correct[1:4] == 0).all()
        assert b.counts.sum() == 2

    def test_weighted_mean_equals_overall(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(5, 300))
            pred = rng.uniform(0, 1, n)
            truth = rng.integers(0, 2, n)
            vals = rng.normal(0, 2, n)
            b = binned_accuracy(pred, truth, vals, bins=int(rng.integers(1, 30)))
            ok = b.counts > 0
            weighted = (b.correct[ok] / b.counts[ok] * b.counts[ok]).sum() / b.counts.sum()
            assert weighted == pytest.approx(accuracy(pred, truth), abs=1e-12)

    def test_every_value_lands_in_one_bin(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 1, 500)
        b = binned_accuracy(
            rng.integers(0, 2, 500), rng.integers(0, 2, 500), vals, bins=100
        )
        assert b.counts.sum() == 500

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            binned_accuracy(np.array([1]), np.array([1]), np.array([0.0]), bins=0)

    def test_fixed_range_shares_edges(self):
        pred = np.array([1, 1])
        truth = np.array([1, 0])
        b = binned_accuracy(pred, truth, np.array([0.2, 0.8]), bins=4, value_range=(0.0, 1.0))
        np.testing.assert_allclose(b.bin_lo, [0.0, 0.25, 0.5, 0.75])


class TestPairedComparison:
    def test_identical_vectors(self):
        r = paired_comparison(np.full(10, 0.8), np.full(10, 0.8))
        assert r.mean_diff == 0.0 and r.p_value == 0.5 and r.degenerate

    def test_constant_positive_difference(self):
        a = np.full(100, 0.81)
        r = paired_comparison(a, a - 0.01)
        assert r.mean_diff == pytest.approx(0.01)
        assert r.p_value < 1e-12 and r.degenerate

    def test_hand_t_statistic(self):
        d = np.array([0.01, -0.01, 0.02, 0.00])
        a = np.full(4, 0.9)
        r = paired_comparison(a + d, a)
        assert r.mean_diff == pytest.approx(0.005)
        t = d.mean() / (d.std(ddof=1) / np.sqrt(4))
        assert r.p_value == pytest.approx(float(stats.t.sf(t, df=3)))
        assert not r.degenerate

    def test_p_value_is_scipy_t_survival_function_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 10, 50):
            a, b = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
            d = a - b
            t = d.mean() / (d.std(ddof=1) / np.sqrt(n))
            assert paired_comparison(a, b).p_value == float(stats.t.sf(t, df=n - 1))

    def test_antisymmetric_mean(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(0.5, 1.0, 20), rng.uniform(0.5, 1.0, 20)
        assert paired_comparison(a, b).mean_diff == pytest.approx(
            -paired_comparison(b, a).mean_diff
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_comparison(np.ones(3), np.ones(4))

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            paired_comparison(np.ones(1), np.ones(1))


class TestAucByCounting:
    """``simulation.auc`` counts pairs; its exact half-integer sums make it
    equal to the all-pairs oracle bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 0.25, 1.0, -3.0, 1e300, np.inf, -np.inf, np.nan]),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=40,
        ).filter(lambda pairs: len({label for _, label in pairs}) == 2)
    )
    def test_equals_brute_force_bit_for_bit(self, pairs):
        scores, labels = np.array(pairs).T
        value = auc(scores, labels)
        if np.isnan(scores).any():
            assert np.isnan(value)
        else:
            assert value == brute_force_auc(scores, labels)
