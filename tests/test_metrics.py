"""Imbalance-aware metrics against direct-formula oracles."""

import numpy as np
import pytest

from ummlearn.errors import DimensionError, LabelError
from ummlearn.metrics import (
    ConfusionCounts,
    bca,
    g_mean,
    iba,
    precision_recall_f1,
)


def counts_from(y_true, y_pred, n_classes):
    return ConfusionCounts.from_predictions(np.array(y_true), np.array(y_pred), n_classes)


class TestConfusionCounts:
    def test_totals_consistent(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 4, 50)
        p = rng.integers(0, 4, 50)
        c = counts_from(t, p, 4)
        for k in range(4):
            assert c.tp[k] + c.fp[k] + c.fn[k] + c.tn[k] == 50

    def test_matches_per_class_loop(self):
        # the confusion-matrix counts equal three masked sums per class,
        # with class 5 absent from both arrays
        rng = np.random.default_rng(11)
        for n in (1, 7, 50, 400):
            t = rng.choice([0, 1, 2, 3, 4, 6], n)
            p = rng.choice([0, 1, 2, 3, 4, 6], n)
            c = ConfusionCounts.from_predictions(t, p, 7)
            for name, expected in (
                ("tp", [np.sum((t == k) & (p == k)) for k in range(7)]),
                ("fp", [np.sum((t != k) & (p == k)) for k in range(7)]),
                ("fn", [np.sum((t == k) & (p != k)) for k in range(7)]),
            ):
                got = getattr(c, name)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64))
            assert c.tp[5] == c.fp[5] == c.fn[5] == 0 and c.tn[5] == n

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            counts_from([], [], 2)

    @pytest.mark.parametrize("y_true, y_pred", [([0, 1], [0]), ([[0, 1]], [[0, 1]]), (0, 0)])
    def test_shapes_rejected(self, y_true, y_pred):
        with pytest.raises(DimensionError):
            counts_from(y_true, y_pred, 2)

    @pytest.mark.parametrize("y_true, y_pred", [([0, 2], [0, 1]), ([0, 1], [0, -1])])
    def test_labels_out_of_range(self, y_true, y_pred):
        with pytest.raises(LabelError):
            counts_from(y_true, y_pred, 2)


class TestBca:
    def test_perfect(self):
        c = counts_from([0, 1, 0, 1], [0, 1, 0, 1], 2)
        assert bca(c) == pytest.approx(1.0)

    def test_constant_predictor_on_imbalanced(self):
        y_true = [1] * 1 + [0] * 99
        y_pred = [1] * 100
        c = counts_from(y_true, y_pred, 2)
        assert bca(c) == pytest.approx(0.5)

    def test_constant_predictor_any_ratio(self):
        for n_pos in (5, 20, 50):
            y_true = [1] * n_pos + [0] * (100 - n_pos)
            c = counts_from(y_true, [1] * 100, 2)
            assert bca(c) == pytest.approx(0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.integers(0, 3, 60)
            p = rng.integers(0, 3, 60)
            if len(set(t.tolist())) < 3:
                continue
            c = counts_from(t, p, 3)
            direct = np.mean(
                [
                    0.5 * c.tp[k] / (c.tp[k] + c.fn[k]) + 0.5 * c.tn[k] / (c.tn[k] + c.fp[k])
                    for k in range(3)
                ]
            )
            assert bca(c) == pytest.approx(direct, abs=1e-12)

    def test_undefined_without_positives(self):
        c = counts_from([0, 0, 0], [0, 1, 0], 2)
        assert np.isnan(bca(c))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 3, 90)
        p = rng.integers(0, 3, 90)
        perm = np.array([2, 0, 1])
        base = bca(counts_from(t, p, 3))
        swapped = bca(counts_from(perm[t], perm[p], 3))
        assert swapped == pytest.approx(base, abs=1e-12)


class TestPrecisionRecallF1:
    def test_perfect(self):
        res = precision_recall_f1(counts_from([0, 1, 2], [0, 1, 2], 3))
        np.testing.assert_allclose(res.precision, 1.0)
        np.testing.assert_allclose(res.recall, 1.0)
        np.testing.assert_allclose(res.f1, 1.0)

    def test_never_predicted_class_zero_precision(self):
        res = precision_recall_f1(counts_from([0, 1], [0, 0], 2))
        assert res.precision[1] == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        t = rng.integers(0, 4, 80)
        p = rng.integers(0, 4, 80)
        c = counts_from(t, p, 4)
        res = precision_recall_f1(c)
        for k in range(4):
            prec = c.tp[k] / (c.tp[k] + c.fp[k]) if c.tp[k] + c.fp[k] else 0.0
            rec = c.tp[k] / (c.tp[k] + c.fn[k]) if c.tp[k] + c.fn[k] else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert res.precision[k] == pytest.approx(prec, abs=1e-12)
            assert res.recall[k] == pytest.approx(rec, abs=1e-12)
            assert res.f1[k] == pytest.approx(f1, abs=1e-12)


class TestGMean:
    def test_all_recalled(self):
        assert g_mean(counts_from([0, 1], [0, 1], 2)) == pytest.approx(1.0)

    def test_zero_if_any_class_missed(self):
        assert g_mean(counts_from([0, 1, 1], [0, 0, 0], 2)) == 0.0

    def test_binary_half_half(self):
        # recalls (0.5, 0.5) -> 0.5
        c = counts_from([0, 0, 1, 1], [0, 1, 1, 0], 2)
        assert g_mean(c) == pytest.approx(0.5)


class TestIba:
    def test_balanced_recalls_squared(self):
        # both class recalls = 0.5 -> dominance 0 -> 0.25
        c = counts_from([0, 0, 1, 1], [0, 1, 1, 0], 2)
        assert iba(c) == pytest.approx(0.25)

    def test_zero_when_one_class_never_recalled(self):
        c = counts_from([0, 1, 1], [0, 0, 0], 2)
        assert iba(c) == pytest.approx(0.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        t = rng.integers(0, 2, 60)
        p = rng.integers(0, 2, 60)
        c = counts_from(t, p, 2)
        direct = []
        for k in range(2):
            tpr = c.tp[k] / (c.tp[k] + c.fn[k])
            tnr = c.tn[k] / (c.tn[k] + c.fp[k])
            direct.append((1 + 0.1 * (tpr - tnr)) * tpr * tnr)
        assert iba(c) == pytest.approx(np.mean(direct), abs=1e-12)

