"""Classification readout (``bench._predict``) and the accuracy/mAP metrics."""

import math

import numpy as np
import pytest

from astmerge import ConfigError, HeadWeights, ShapeError, accuracy, mean_average_precision
from astmerge.bench import _predict
from astmerge.head import argmax_in_positives, average_precision, one_hot, softmax, targets

from oracles import ap_reference, map_reference


def head(d, c, seed=0):
    rng = np.random.default_rng(seed)
    return HeadWeights(
        linear=rng.standard_normal((d, c)).astype(np.float32),
        bias=rng.standard_normal(c).astype(np.float32),
    )


class TestClassify:
    def test_zero_logits_single_label_uniform(self):
        w = HeadWeights(linear=np.zeros((3, 4), np.float32), bias=np.zeros(4, np.float32))
        _, probs = _predict(w, "single-label", np.zeros(3, np.float32))
        np.testing.assert_allclose(probs, 0.25, atol=1e-7)

    def test_zero_logits_multi_label_half(self):
        w = HeadWeights(linear=np.zeros((3, 4), np.float32), bias=np.zeros(4, np.float32))
        _, probs = _predict(w, "multi-label", np.zeros(3, np.float32))
        np.testing.assert_allclose(probs, 0.5, atol=1e-7)

    def test_ln2_closed_form(self):
        w = HeadWeights(
            linear=np.zeros((1, 2), np.float32),
            bias=np.array([math.log(2.0), 0.0], np.float32),
        )
        _, probs = _predict(w, "single-label", np.zeros(1, np.float32))
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], atol=1e-6)

    def test_softmax_sums_to_one_at_large_logits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.uniform(-30, 30, size=7)
            assert abs(softmax(z).sum() - 1.0) <= 1e-6

    def test_softmax_stable_at_extreme_logits(self):
        z = np.array([800.0, -800.0, 0.0])
        p = softmax(z)
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-6


class TestOneHot:
    def test_rows_are_float64_indicators(self):
        t = one_hot(np.array([2, 0, 2]), 3)
        assert t.dtype == np.float64
        np.testing.assert_array_equal(t, [[0, 0, 1], [1, 0, 0], [0, 0, 1]])
        assert one_hot(np.zeros(0, np.int64), 3).shape == (0, 3)

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0], [[0, 1, 0]]])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ShapeError):
            one_hot(np.array(labels), 3)

    def test_targets_encode_indices_and_pass_label_matrices(self):
        matrix = np.array([[1, 0, 1], [0, 0, 0]], np.int8)
        np.testing.assert_array_equal(targets(np.array([1, 0]), 3), one_hot(np.array([1, 0]), 3))
        got = targets(matrix, 3)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, matrix)


class TestAccuracy:
    def test_all_correct(self):
        probs = np.eye(4)
        assert accuracy(probs, np.arange(4)) == 1.0

    def test_none_correct(self):
        probs = np.eye(4)
        assert accuracy(probs, (np.arange(4) + 1) % 4) == 0.0

    def test_three_of_four(self):
        probs = np.eye(4)
        labels = np.array([0, 1, 2, 0])
        assert accuracy(probs, labels) == 0.75

    def test_argmax_tie_lowest_class(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, np.array([0])) == 1.0
        assert accuracy(probs, np.array([1])) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.random((20, 5))
        labels = rng.integers(0, 5, size=20)
        base = accuracy(probs, labels)
        for _ in range(5):
            perm = rng.permutation(20)
            assert accuracy(probs[perm], labels[perm]) == base

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestAveragePrecision:
    def test_hand_case(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_perfect_ranking(self):
        scores = np.array([[0.9], [0.8], [0.2], [0.1]])
        labels = np.array([[1], [1], [0], [0]])
        assert mean_average_precision(scores, labels) == 1.0

    def test_all_positive_is_one(self):
        rng = np.random.default_rng(3)
        scores = rng.random(10)
        assert average_precision(scores, np.ones(10)) == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.3).astype(int)
        labels[0] = 1
        base = average_precision(scores, labels)
        assert average_precision(3 * scores + 7, labels) == pytest.approx(base)
        assert average_precision(np.exp(scores), labels) == pytest.approx(base)

    def test_zero_positive_classes_excluded(self):
        scores = np.array([[0.8, 0.3], [0.2, 0.6]])
        labels = np.array([[1, 0], [0, 0]])
        assert mean_average_precision(scores, labels) == pytest.approx(1.0)

    def test_no_positives_anywhere_rejected(self):
        with pytest.raises(ConfigError):
            mean_average_precision(np.ones((2, 2)), np.zeros((2, 2)))

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            c = int(rng.integers(1, 7))
            scores = np.round(rng.random((n, c)), 2)  # rounding forces ties
            labels = (rng.random((n, c)) < 0.4).astype(int)
            if not labels.any():
                labels[0, 0] = 1
            got = mean_average_precision(scores, labels)
            assert got == pytest.approx(map_reference(scores, labels), abs=1e-9)


class TestArgmaxInPositives:
    def test_counts_top_hit_rate(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.7]])
        labels = np.array([[1, 0], [1, 0]])
        assert argmax_in_positives(scores, labels) == 0.5
