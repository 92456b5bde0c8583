"""The finite-difference oracle itself."""

import numpy as np
import pytest

from ummlearn.gradcheck import GradReport, central_difference, check, relative_errors
from ummlearn.margin_loss import ClassifierState, softmax_loss


class TestCentralDifference:
    def test_quadratic(self):
        grad = central_difference(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant(self):
        grad = central_difference(lambda x: 4.2, np.zeros(5))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_softmax_loss_oracle_self_consistency(self):
        # two step sizes must agree on a smooth loss
        rng = np.random.default_rng(51)
        state = ClassifierState(rng.standard_normal((3, 4)))
        f = rng.standard_normal(4)

        def value(x):
            return softmax_loss(ClassifierState(x[:12].reshape(3, 4)), x[None, 12:], [1]).value

        x0 = np.concatenate([state.weights.ravel(), f])
        g5 = central_difference(value, x0, h=1e-5)
        g6 = central_difference(value, x0, h=1e-6)
        assert np.max(np.abs(g5 - g6)) < 1e-5

        res = softmax_loss(state, f[None], [1])
        analytic = np.concatenate([res.grad_weights.ravel(), res.grad_feature.ravel()])
        assert relative_errors(analytic, g5).max() < 1e-4


class TestRelativeErrors:
    def test_definition(self):
        errs = relative_errors([1.0, 0.0], [1.0 + 1e-6, 1e-9])
        assert errs[0] == pytest.approx(1e-6 / (1.0 + 1e-6))
        # tiny values measured against the 1e-8 floor
        assert errs[1] == pytest.approx(1e-9 / 1e-8)


class TestCheck:
    def test_linear_exact(self):
        w = np.array([2.0, -3.0, 0.5])
        report = check(lambda x: float(w @ x), w, np.array([1.0, 1.0, 1.0]))
        assert isinstance(report, GradReport)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_failure_detected(self):
        report = check(lambda x: float(x[0] ** 2), np.array([0.0]), np.array([3.0]))
        assert not report.passed

    def test_report_reproducible(self):
        rng = np.random.default_rng(52)
        w = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        a = check(lambda x: float(w @ x), w, x0)
        b = check(lambda x: float(w @ x), w, x0)
        assert a == b

    def test_str_contains_verdict(self):
        report = check(lambda x: float(x[0]), np.array([1.0]), np.array([0.0]))
        assert "PASS" in str(report)
