"""Margin-loss family: values, reductions, properties, gradient checks."""

import math

import numpy as np
import pytest

from helpers import random_batch_instance, random_classifier_instance
from ummlearn.errors import DegenerateNormError, DimensionError, LabelError, ParameterError
from ummlearn.gradcheck import check, loss_problem
from ummlearn.margin_loss import (
    ClassifierState,
    _psi,
    _variant_i,
    _variant_ii,
    angular_margin_loss,
    class_margin_from_uncertainty,
    large_margin_softmax_loss,
    softmax_loss,
    uncertainty_weighted_margin_loss,
)
from ummlearn.numerics import M_MAX

# Precomputed on a 100001-point uniform grid over [0, pi] before the
# implementation: max |variant_i(cos t, 2) - (1 - 2 t / pi)|.
TRIANGLE_DEVIATION_ORACLE = 0.2829540921741458


class TestSoftmaxLoss:
    def test_equal_logits_two_classes(self):
        state = ClassifierState(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = np.array([[1.0, 1.0]])
        res = softmax_loss(state, f, [0])
        assert res.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_correct_class(self):
        # logits (10, -10, -10) via orthogonal unit rows
        state = ClassifierState(np.eye(3))
        f = np.array([[10.0, -10.0, -10.0]])
        res = softmax_loss(state, f, [0])
        assert res.value == pytest.approx(0.0, abs=1e-4)

    def test_label_out_of_range(self):
        state = ClassifierState(np.eye(2))
        with pytest.raises(LabelError):
            softmax_loss(state, np.ones((1, 2)), [5])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            state, f, y = random_classifier_instance(rng)
            report = check(*loss_problem(softmax_loss, state, f[None], [y]))
            assert report.passed, str(report)


class TestPsi:
    def test_alpha_zero(self):
        for m in range(1, M_MAX + 1):
            assert _psi(np.cos(0.0), m)[0] == pytest.approx(1.0, abs=1e-12)

    def test_alpha_pi_frozen(self):
        # last-segment evaluation gives -(2m - 1); verified against the
        # left limit below
        for m in range(1, M_MAX + 1):
            assert _psi(np.cos(math.pi), m)[0] == pytest.approx(-(2 * m - 1), abs=1e-9)
            assert _psi(np.cos(math.pi - 1e-9), m)[0] == pytest.approx(-(2 * m - 1), abs=1e-6)

    def test_m1_reduces_to_cos(self):
        rng = np.random.default_rng(4)
        for a in rng.uniform(0, math.pi, 50):
            assert _psi(np.cos(a), 1)[0] == pytest.approx(math.cos(a), abs=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, math.pi, 10_000)
        for m in range(1, M_MAX + 1):
            vals = _psi(np.cos(grid), m)[0]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_segment_continuity(self):
        eps = 1e-10
        for m in range(2, M_MAX + 1):
            for r in range(1, m):
                edge = r * math.pi / m
                left = _psi(np.cos(edge - eps), m)[0]
                right = _psi(np.cos(edge + eps), m)[0]
                assert abs(left - right) < 1e-9


class TestClassMargin:
    def test_zero(self):
        assert class_margin_from_uncertainty(0.0) == 1

    def test_floor_of_three(self):
        assert class_margin_from_uncertainty(6.0) == 3

    def test_clamped(self):
        assert class_margin_from_uncertainty(100.0) == M_MAX

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            class_margin_from_uncertainty(-1.0)

    @pytest.mark.parametrize("margins", [[2.5, 1], [np.nan, 1], [np.inf, 1], [0, 1], [M_MAX + 1, 1]])
    def test_state_rejects_non_integer_or_out_of_range(self, margins):
        with pytest.raises(ParameterError, match="margins"):
            ClassifierState(np.eye(2), margins)

    @pytest.mark.parametrize(
        "weights, margins, uncertainty",
        [(np.ones((1, 2)), None, None), (np.eye(2), [1, 1, 1], None), (np.eye(2), None, [0.1])],
        ids=["one-class", "margin-count", "uncertainty-count"],
    )
    def test_state_shapes(self, weights, margins, uncertainty):
        with pytest.raises(DimensionError):
            ClassifierState(weights, margins, uncertainty)

    def test_state_rejects_negative_uncertainty(self):
        with pytest.raises(ParameterError, match="class_uncertainty"):
            ClassifierState(np.eye(2), class_uncertainty=[0.5, -0.1])

    def test_state_keeps_integer_margins(self):
        state = ClassifierState(np.eye(2), np.array([2.0, M_MAX]))
        assert state.margins.dtype == np.int64 and state.margins.tolist() == [2, M_MAX]


class TestLargeMarginSoftmax:
    def test_m1_equals_softmax(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            state, f, y = random_classifier_instance(rng)
            plain = softmax_loss(state, f[None], [y])
            lm = large_margin_softmax_loss(state, f[None], [y], 1)
            assert lm.value == pytest.approx(plain.value, abs=1e-12)
            np.testing.assert_allclose(lm.grad_weights, plain.grad_weights, atol=1e-10)
            np.testing.assert_allclose(lm.grad_feature, plain.grad_feature, atol=1e-10)

    def test_aligned_feature_uses_full_norm_product(self):
        # f parallel to w_y: psi(0) = 1, so the true-class logit is the
        # norm product and the loss sits below the rival-driven level
        w = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        state = ClassifierState(w)
        f = np.array([[3.0, 0.0]])
        res = large_margin_softmax_loss(state, f, [0], 3)
        plain = softmax_loss(state, f, [0])
        assert res.value == pytest.approx(plain.value, abs=1e-6)

    def test_penalizes_true_class(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state, f, y = random_classifier_instance(rng)
            plain = softmax_loss(state, f[None], [y])
            for m in (2, 3, 4):
                lm = large_margin_softmax_loss(state, f[None], [y], m)
                assert lm.value >= plain.value - 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_gradients_match_finite_differences(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(30):
            state, f, y = random_classifier_instance(rng, margin=m)
            loss = lambda s, v, yy: large_margin_softmax_loss(s, v, yy, m)
            report = check(*loss_problem(loss, state, f[None], [y]))
            assert report.passed, str(report)

    def test_degenerate_feature_norm(self):
        # a numerically zero feature takes the plain softmax loss
        state = ClassifierState(np.eye(2))
        res = large_margin_softmax_loss(state, np.zeros((1, 2)), [0], 2)
        plain = softmax_loss(state, np.zeros((1, 2)), [0])
        assert res.value == plain.value
        np.testing.assert_array_equal(res.grad_weights, plain.grad_weights)
        np.testing.assert_array_equal(res.grad_feature, plain.grad_feature)

    def test_degenerate_weight_norm(self):
        state = ClassifierState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateNormError):
            large_margin_softmax_loss(state, np.ones((1, 2)), [0], 2)

    def test_margin_out_of_range(self):
        state = ClassifierState(np.eye(2))
        with pytest.raises(ParameterError):
            large_margin_softmax_loss(state, np.ones((1, 2)), [0], 9)

    @pytest.mark.parametrize("blend", [0.0, 1.5])
    def test_blend_out_of_range(self, blend):
        with pytest.raises(ParameterError, match="blend"):
            large_margin_softmax_loss(ClassifierState(np.eye(2)), np.ones((1, 2)), [0], 2, blend=blend)


class TestUncertaintyWeightedLoss:
    def test_ccdf_one_m1_equals_softmax(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            state, f, y = random_classifier_instance(rng)
            plain = softmax_loss(state, f[None], [y])
            uw = uncertainty_weighted_margin_loss(state, f[None], [y], 1, 1.0)
            assert uw.value == pytest.approx(plain.value, abs=1e-12)

    def test_ccdf_one_equals_large_margin(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state, f, y = random_classifier_instance(rng, margin=3)
            lm = large_margin_softmax_loss(state, f[None], [y], 3)
            uw = uncertainty_weighted_margin_loss(state, f[None], [y], 3, 1.0)
            assert uw.value == pytest.approx(lm.value, abs=1e-12)
            np.testing.assert_allclose(uw.grad_weights, lm.grad_weights, atol=1e-12)

    def test_ccdf_zero_m1_zeroes_true_logit(self):
        state = ClassifierState(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = np.array([[2.0, 1.0]])
        uw = uncertainty_weighted_margin_loss(state, f, [0], 1, 0.0)
        # true-class contribution is exp(0); rival logit is w_1 . f = 1
        expected = -math.log(1.0 / (1.0 + math.exp(1.0)))
        assert uw.value == pytest.approx(expected, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            state, f, y = random_classifier_instance(rng, margin=2)
            loss = lambda s, v, yy: uncertainty_weighted_margin_loss(s, v, yy, 2, 0.5)
            report = check(*loss_problem(loss, state, f[None], [y]))
            assert report.passed, str(report)

    def test_ccdf_out_of_range(self):
        state = ClassifierState(np.eye(2))
        with pytest.raises(ParameterError):
            uncertainty_weighted_margin_loss(state, np.ones((1, 2)), [0], 1, 1.5)


class TestAngularVariants:
    def test_variant_i_zero(self):
        assert _variant_i(0.0, 2.0)[0] == 0.0

    def test_variant_i_at_one_frozen(self):
        # direct substitution: sqrt((1+2)/(2*(1+0))) = sqrt(3/2)
        assert _variant_i(1.0, 2.0)[0] == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_variant_i_odd(self):
        rng = np.random.default_rng(15)
        for x in rng.uniform(0, 1, 50):
            for a in (0.5, 2.0, 3.0):
                assert _variant_i(-x, a)[0] == pytest.approx(-_variant_i(x, a)[0], abs=1e-15)

    def test_variant_i_triangle_deviation_frozen(self):
        theta = np.linspace(0.0, math.pi, 100_001)
        tri = 1.0 - 2.0 * theta / math.pi
        dev = np.max(np.abs(_variant_i(np.cos(theta), 2.0)[0] - tri))
        assert dev == pytest.approx(TRIANGLE_DEVIATION_ORACLE, abs=1e-9)

    # the slope of variant ii, unused here, is 0/0 at c = -1
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_variant_ii_endpoints_frozen(self):
        assert _variant_ii(-1.0, 3.0)[0] == pytest.approx(-1.0, abs=1e-12)
        assert _variant_ii(1.0, 3.0)[0] == pytest.approx(-math.cos(3.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_variant_ii_monotone_grid_scan(self):
        grid = np.linspace(-1.0, 1.0, 20_001)
        vals = _variant_ii(grid, 3.0)[0]
        assert np.all(np.diff(vals) > 0)


class TestAngularMarginLoss:
    def test_unknown_variant(self):
        with pytest.raises(ParameterError, match="variant"):
            angular_margin_loss(ClassifierState(np.eye(2)), np.ones((1, 2)), [0], variant="iii")

    @pytest.mark.parametrize("variant", ["i", "ii"])
    def test_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(31 if variant == "i" else 32)
        for _ in range(25):
            state, f, y = random_classifier_instance(rng)
            loss = lambda s, v, yy: angular_margin_loss(s, v, yy, variant=variant)
            report = check(*loss_problem(loss, state, f[None], [y]))
            assert report.passed, str(report)


SELECTORS = {
    "softmax": lambda s, f, y, m, q: softmax_loss(s, f, y),
    "large-margin": lambda s, f, y, m, q: large_margin_softmax_loss(s, f, y, m, blend=0.15),
    "uncertainty-weighted": lambda s, f, y, m, q: uncertainty_weighted_margin_loss(
        s, f, y, m, q, blend=0.15
    ),
    "angular-i": lambda s, f, y, m, q: angular_margin_loss(s, f, y, "i"),
    "angular-ii": lambda s, f, y, m, q: angular_margin_loss(s, f, y, "ii"),
}


class TestBatchKernel:
    """A B-row batch against its B one-row calls, and the gradient oracle on a whole batch."""

    def mixed_batch(self):
        rng = np.random.default_rng(61)
        state = ClassifierState(0.7 * rng.standard_normal((4, 6)))
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        feats = rng.standard_normal((8, 6))
        feats[2] = 0.0  # softmax fallback
        feats[5] = 2.5 * state.weights[labels[5]]  # cosine clipped at +1
        w5 = state.weights[labels[5]]
        assert w5 @ feats[5] / (np.linalg.norm(w5) * np.linalg.norm(feats[5])) > 1.0 - 1e-12
        margins = np.array([1, 2, 3, 4, 5, 6, 3, 2])
        ccdfs = rng.uniform(0.0, 1.0, 8)
        return state, feats, labels, margins, ccdfs

    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    def test_batch_equals_mean_of_rows(self, selector):
        loss = SELECTORS[selector]
        state, feats, labels, margins, ccdfs = self.mixed_batch()
        n = labels.size
        whole = loss(state, feats, labels, margins, ccdfs)
        rows = [
            loss(state, feats[i : i + 1], labels[i : i + 1], margins[i], ccdfs[i])
            for i in range(n)
        ]
        assert whole.value == pytest.approx(np.mean([r.value for r in rows]), abs=1e-12)
        np.testing.assert_allclose(
            whole.grad_weights, np.mean([r.grad_weights for r in rows], axis=0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            whole.grad_feature * n, np.concatenate([r.grad_feature for r in rows]), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    def test_whole_batch_gradcheck(self, selector):
        loss = SELECTORS[selector]
        rng = np.random.default_rng(62)
        margins = np.array([1, 2, 3, 2, 1])
        ccdfs = rng.uniform(0.0, 1.0, margins.size)
        state, feats, labels = random_batch_instance(rng, margins)
        batch_loss = lambda s, f, y: loss(s, f, y, margins, ccdfs)
        report = check(*loss_problem(batch_loss, state, feats, labels))
        assert report.passed, str(report)

    @pytest.mark.parametrize("blend", [0.15, 0.6])
    def test_blend_mixes_softmax_and_margin_rows(self, blend):
        # each row's loss is (1 - blend) softmax + blend margin; a zero-feature row is softmax alone
        state, feats, labels, margins, _ = self.mixed_batch()
        for i in range(labels.size):
            row = (state, feats[i : i + 1], labels[i : i + 1])
            mixed = large_margin_softmax_loss(*row, margins[i], blend=blend)
            margin = large_margin_softmax_loss(*row, margins[i], blend=1.0)
            soft = softmax_loss(*row)
            for part in ("value", "grad_weights", "grad_feature"):
                want = (1.0 - blend) * getattr(soft, part) + blend * getattr(margin, part)
                np.testing.assert_allclose(getattr(mixed, part), want, rtol=0, atol=1e-12)

    def test_per_row_shapes_checked(self):
        state, feats, labels, margins, ccdfs = self.mixed_batch()
        with pytest.raises(DimensionError):
            large_margin_softmax_loss(state, feats, labels, margins[:3])
        with pytest.raises(DimensionError):
            uncertainty_weighted_margin_loss(state, feats, labels, 2, ccdfs[:3])
        with pytest.raises(DimensionError):
            softmax_loss(state, feats[0], labels[:1])
        with pytest.raises(DimensionError):  # a label count that does not match the rows
            softmax_loss(state, feats, labels[:3])
