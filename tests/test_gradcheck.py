"""The finite-difference oracle itself."""

import numpy as np
import pytest

from ummlearn.cli import main
from ummlearn.errors import DimensionError
from ummlearn.gradcheck import (
    NOISE_FACTOR,
    STEP,
    GradReport,
    central_difference,
    check,
    relative_errors,
    selector_problems,
)
from ummlearn.margin_loss import ClassifierState, softmax_loss
from ummlearn.network import LOSS_CHOICES


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

    def test_shapes_checked(self):
        with pytest.raises(DimensionError):
            central_difference(lambda x: 0.0, np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            relative_errors(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionError):
            check(lambda x: 0.0, np.zeros(3), np.zeros(2))

    def test_error_below_the_noise_of_the_scale_passes(self):
        # f(x) = 1e-6 x at S = 1e3: a slope off by half the noise term c eps S / h passes,
        # off by twice that fails
        noise = NOISE_FACTOR * np.finfo(np.float64).eps * 1e3 / STEP
        for off, passed in ((0.5 * noise, True), (2.0 * noise, False)):
            analytic = np.array([1e-6 + off])
            report = check(lambda x: float(x[0]) * 1e-6, analytic, np.array([0.0]), scale=1e3)
            assert report.passed is passed


def mutants(name, analytic):
    """The analytic gradient of a ``selector_problems`` instance with one defect each:
    the largest entry x1.001, the weight (or whole) gradient dropped, the sign of the row
    that holds the largest entry flipped."""
    width = 6 if name == "" else 3  # classifier rows are 6-D, cluster rows 3-D
    big = int(np.argmax(np.abs(analytic)))
    scaled, dropped, flipped = analytic.copy(), analytic.copy(), analytic.copy()
    scaled[big] *= 1.001
    dropped[: 4 * width if name == "" else analytic.size] = 0.0  # the 4 x 6 weights, or all
    row = slice(big - big % width, big - big % width + width)
    flipped[row] = -flipped[row]
    return {"x1.001": scaled, "dropped": dropped, "flipped": flipped}


@pytest.mark.parametrize("seed", [20, 44, 84])
@pytest.mark.parametrize("loss", LOSS_CHOICES)
def test_oracle_passes_true_gradients_and_fails_mutants(loss, seed, capsys):
    # instances with true gradient entries below the central-difference noise
    assert main(["gradcheck", "--loss", loss, "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for name, (fn, analytic, x, *scale) in selector_problems(loss, seed):
        for mutant, grad in mutants(name, analytic).items():
            assert not check(fn, grad, x, *scale).passed, (name, mutant)
