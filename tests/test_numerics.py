"""Numeric kernel tests with independent oracles."""

import math

import numpy as np
import pytest

from ummlearn.errors import DimensionError, DomainError, ParameterError
from ummlearn.numerics import M_MAX, chebyshev, cos_m_theta, log_sum_exp_rows
from ummlearn.uncertainty import misclassification_ccdf


def erf_maclaurin(x: float, terms: int = 60) -> float:
    """Independent oracle: erf by its Maclaurin series.

    erf(x) = 2/sqrt(pi) sum_n (-1)^n x^(2n+1) / (n! (2n+1)); converges to
    well below 1e-12 on |x| <= 3 with 60 terms.
    """
    total = 0.0
    for n in range(terms):
        total += (-1.0) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestErf:
    """The erf inside misclassification_ccdf: at variance 1/2 it is 0.5 (1 + erf(mu))."""

    def test_zero(self):
        assert misclassification_ccdf(0.0, 0.5) == 0.5

    def test_saturation(self):
        assert misclassification_ccdf(10.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_one_frozen(self):
        # computed from the Maclaurin oracle before implementation
        expected = 0.5 * (1.0 + 0.8427007929497149)
        assert misclassification_ccdf(1.0, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_matches_maclaurin_series(self):
        xs = np.linspace(-3.0, 3.0, 61)
        vals = misclassification_ccdf(xs, np.full(xs.shape, 0.5))
        for x, v in zip(xs, vals):
            assert v == pytest.approx(0.5 * (1.0 + erf_maclaurin(float(x))), abs=1e-12)

    def test_odd_symmetry_and_monotone(self):
        xs = np.linspace(-5.0, 5.0, 201)
        vals = misclassification_ccdf(xs, 0.5)
        for x, v in zip(xs, vals):
            assert misclassification_ccdf(float(-x), 0.5) == pytest.approx(1.0 - v, abs=1e-15)
            assert 0.0 < v < 1.0 or abs(x) > 5  # |erf| < 1 on finite reals
        assert np.all(np.diff(vals) > 0)


class TestCosMTheta:
    def test_identity_m1(self):
        for x in np.linspace(-1, 1, 21):
            assert cos_m_theta(float(x), 1) == float(x)

    def test_double_angle_frozen(self):
        # cos(2 arccos 0.5) = cos(2 pi / 3) = -0.5
        assert cos_m_theta(0.5, 2) == pytest.approx(-0.5, abs=1e-12)

    def test_alpha_zero_all_m(self):
        for m in range(1, M_MAX + 1):
            assert cos_m_theta(1.0, m) == pytest.approx(1.0, abs=1e-12)

    def test_chebyshev_equals_trig(self):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.0, math.pi, 1000)
        worst = max(
            np.max(np.abs(cos_m_theta(np.cos(alphas), m) - np.cos(m * alphas)))
            for m in range(1, M_MAX + 1)
        )
        assert worst < 1e-9

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for m in range(1, M_MAX + 1):
            for x in np.linspace(-0.95, 0.95, 21):
                _, der = chebyshev(float(x), m)
                num = (cos_m_theta(float(x) + h, m) - cos_m_theta(float(x) - h, m)) / (2 * h)
                assert der == pytest.approx(num, abs=1e-5)

    def test_m_out_of_range(self):
        with pytest.raises(ParameterError):
            cos_m_theta(0.5, 0)
        with pytest.raises(ParameterError):
            cos_m_theta(0.5, M_MAX + 1)

    def test_cos_out_of_domain(self):
        with pytest.raises(DomainError):
            cos_m_theta(1.5, 2)


class TestStableLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp_rows(np.zeros((1, 2)))[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_no_overflow(self):
        assert log_sum_exp_rows(np.array([[1000.0, 1000.0]]))[0] == pytest.approx(
            1000.0 + math.log(2.0), abs=1e-12
        )

    def test_matches_naive_at_small_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(-3, 3, rng.integers(1, 12))
            naive = math.log(sum(math.exp(float(x)) for x in v))
            assert log_sum_exp_rows(v[None, :])[0] == pytest.approx(naive, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((1, 8))
        base = log_sum_exp_rows(v)[0]
        for c in (-100.0, -1.0, 0.5, 250.0):
            assert log_sum_exp_rows(v + c)[0] == pytest.approx(base + c, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(DimensionError):
            log_sum_exp_rows(np.empty((1, 0)))

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((6, 5)) * 10
        rows = log_sum_exp_rows(mat)
        for i in range(6):
            naive = math.log(sum(math.exp(float(x)) for x in mat[i]))
            assert rows[i] == pytest.approx(naive, abs=1e-12)
