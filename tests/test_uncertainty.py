"""Dropout-ensemble moments and misclassification probability."""

import numpy as np
import pytest

from helpers import normal_cdf_simpson
from ummlearn.data import gaussian_blobs, longtail_blob_specs, two_class_blob_specs
from ummlearn.errors import ConfigurationError, DimensionError, ParameterError
from ummlearn.margin_loss import ClassifierState
from ummlearn.network import MlpModel, RunConfig, ensemble_class_uncertainty
from ummlearn.seeding import stream_rng, stream_seed
from ummlearn.uncertainty import (
    class_uncertainty,
    dropout_masks,
    error_moments,
    misclassification_ccdf,
    rival_class,
    sample_dropout_masks,
    sample_feature_moments,
)


class TestEnsembleConfig:
    """The ``ensemble.*`` keys of the run config."""

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.ensemble_passes == 10
        assert cfg.ensemble_dropout == 0.5
        assert cfg.ensemble_tau == 100.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError, match="ensemble.passes"):
            RunConfig(ensemble_passes=0)
        with pytest.raises(ConfigurationError, match="ensemble.dropout"):
            RunConfig(ensemble_dropout=1.0)
        with pytest.raises(ConfigurationError, match="ensemble.tau"):
            RunConfig(ensemble_tau=0.0)


def old_layer_draws(rng, keep, widths, rows=()):
    """The per-layer 0/1 draws that masks were made of, scaled by 1/keep."""
    return [(rng.random(rows + (w,)) < keep).astype(np.float64) / keep for w in widths]


class TestDropoutMasks:
    @pytest.mark.parametrize("rows", [(), (1,), (17,)])
    @pytest.mark.parametrize("keep", [0.3, 0.5, 1 - 1e-9])
    def test_equals_per_layer_draws_and_stream_state(self, rows, keep):
        widths = [7, 1, 32]
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            got = dropout_masks(rng, keep, widths, rows)
            want = old_layer_draws(ref, keep, widths, rows)
            assert [m.shape for m in got] == [rows + (w,) for w in widths]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_holds_zero_or_inverse_keep(self):
        (m,) = dropout_masks(np.random.default_rng(3), 0.3, [1000], (4,))
        assert set(np.unique(m)) == {0.0, 1 / 0.3}


class TestSampleDropoutMasks:
    def test_keep_probability_near_one(self):
        keep = 1 - 1e-9
        masks = sample_dropout_masks(3, keep, [50, 30], rng_seed=1)
        for pass_masks in masks:
            for m in pass_masks:
                np.testing.assert_array_equal(m, np.full_like(m, 1 / keep))

    def test_equals_per_layer_draws(self):
        masks = sample_dropout_masks(4, 0.5, [10, 20], rng_seed=99)
        rng = np.random.default_rng(99)
        for pass_masks in masks:
            for got, want in zip(pass_masks, old_layer_draws(rng, 0.5, [10, 20])):
                assert got.tobytes() == want.tobytes()

    def test_deterministic_per_seed(self):
        a = sample_dropout_masks(4, 0.5, [10, 20], rng_seed=99)
        b = sample_dropout_masks(4, 0.5, [10, 20], rng_seed=99)
        for pa, pb in zip(a, b):
            for ma, mb in zip(pa, pb):
                np.testing.assert_array_equal(ma, mb)

    def test_empirical_keep_fraction(self):
        masks = sample_dropout_masks(2, 0.5, [100_000], rng_seed=7)
        frac = (masks[0][0] > 0).mean()
        assert abs(frac - 0.5) < 0.01

    def test_bad_widths(self):
        with pytest.raises(ParameterError):
            sample_dropout_masks(10, 0.5, [0], rng_seed=0)


def own_class_uncertainty(stack, tau):
    """Each column's variance across the passes of an (N, C) stack, plus 1/tau.

    A column is one class's output, so entry k is the uncertainty of a
    sample whose own class is k, as ``ensemble_class_uncertainty`` takes it.
    """
    return sample_feature_moments(stack)[1] + 1.0 / tau


class TestMcUncertainty:
    def test_identical_outputs_floor_only(self):
        stack = np.tile([0.3, -0.7], (4, 1))
        np.testing.assert_allclose(own_class_uncertainty(stack, 100.0), [0.01, 0.01], atol=1e-15)

    def test_hand_second_moment(self):
        u = own_class_uncertainty(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(u, [2.0, 1.0])

    def test_floor_on_diagonal_and_psd(self):
        # the own-class entries are the covariance diagonal: a variance, so
        # never negative, and the floor holds with no slack
        rng = np.random.default_rng(13)
        tau = 100.0
        for _ in range(20):
            stack = rng.standard_normal((10, 5))
            u = own_class_uncertainty(stack, tau)
            assert np.all(u >= 1.0 / tau)
            np.testing.assert_allclose(u - 1.0 / tau, np.var(stack, axis=0), atol=1e-12)

    def test_true_class_scalar(self):
        stack = np.array([[1.0, 0.0], [-1.0, 0.0]])
        u = class_uncertainty(own_class_uncertainty(stack, 1.0)[[0]], [0], 2)
        assert u[0] == pytest.approx(2.0)

    def test_single_pass_rejected(self):
        with pytest.raises(ConfigurationError, match="ensemble.passes"):
            RunConfig(ensemble_passes=1)
        with pytest.raises(ConfigurationError):
            sample_feature_moments(np.zeros((1, 2)))


class TestClassUncertainty:
    def test_floor_everywhere(self):
        values = [own_class_uncertainty(np.zeros((3, 2)), 100.0)[0] for _ in range(4)]
        u = class_uncertainty(values, [0, 0, 1, 1], 2)
        np.testing.assert_allclose(u, [0.01, 0.01])

    def test_higher_variance_class_larger(self):
        u = class_uncertainty([0.1, 0.1, 0.5, 0.5], [0, 0, 1, 1], 2)
        assert u[1] > u[0]

    def test_sample_order_invariant(self):
        rng = np.random.default_rng(17)
        covs = [rng.uniform(0.0, 1.0, 3) for _ in range(12)]
        labels = rng.integers(0, 3, 12)
        values = np.array([c[k] for c, k in zip(covs, labels)])
        base = class_uncertainty(values, labels, 3)
        perm = rng.permutation(12)
        out = class_uncertainty(values[perm], labels[perm], 3)
        np.testing.assert_array_equal(out, base)

    def test_empty_class_gets_global_mean(self):
        u = class_uncertainty([0.2, 0.4], [0, 0], 3)
        assert u[1] == pytest.approx(np.mean([0.2, 0.4]))
        assert u[2] == pytest.approx(np.mean([0.2, 0.4]))

    @pytest.mark.parametrize(
        "values, labels", [([[0.2, 0.4]], [0, 1]), ([0.2, 0.4], [0]), ([], [])],
        ids=["2-D values", "label count", "empty"],
    )
    def test_shapes_rejected(self, values, labels):
        with pytest.raises(DimensionError):
            class_uncertainty(np.array(values), np.array(labels, dtype=np.int64), 2)


class TestSampleFeatureMoments:
    def test_identical_features_zero_variance(self):
        stack = np.tile([1.0, -2.0], (6, 1))
        mu, sigma = sample_feature_moments(stack)
        np.testing.assert_allclose(mu, [1.0, -2.0])
        np.testing.assert_allclose(sigma, [0.0, 0.0])

    def test_hand_biased_variance(self):
        mu, sigma = sample_feature_moments(np.array([[0.0], [2.0]]))
        assert mu[0] == pytest.approx(1.0)
        assert sigma[0] == pytest.approx(1.0)  # biased (1/N) estimator

    def test_matches_naive(self):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((9, 4))
        mu, sigma = sample_feature_moments(stack)
        for j in range(4):
            col = stack[:, j]
            m = sum(col) / 9
            v = sum((x - m) ** 2 for x in col) / 9
            assert mu[j] == pytest.approx(m, abs=1e-12)
            assert sigma[j] == pytest.approx(v, abs=1e-12)

    def test_single_pass_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_feature_moments(np.ones((1, 2)))

    def test_rank_rejected(self):
        with pytest.raises(DimensionError):
            sample_feature_moments(np.ones(4))


class TestErrorMoments:
    def test_zero_difference(self):
        w = np.array([1.0, 2.0])
        mu_e, var_e = error_moments(w, w, np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        assert mu_e == 0.0
        assert var_e == 0.0

    def test_unit_quadratic_form(self):
        w_j = np.array([1.0, 0.0])
        w_y = np.array([0.0, 0.0])
        mu_e, var_e = error_moments(w_j, w_y, np.zeros(2), np.ones(2))
        assert var_e == pytest.approx(1.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            w_j, w_y, mu_f = rng.standard_normal((3, 5))
            sigma_f = rng.uniform(0.0, 2.0, 5)
            mu_e, var_e = error_moments(w_j, w_y, mu_f, sigma_f)
            d = w_j - w_y
            naive_mu = sum(d[i] * mu_f[i] for i in range(5))
            naive_var = sum(d[i] * sigma_f[i] * d[i] for i in range(5))
            assert mu_e == pytest.approx(naive_mu, abs=1e-12)
            assert var_e == pytest.approx(naive_var, abs=1e-12)

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionError):
            error_moments(np.ones(2), np.ones(2), np.ones(3), np.ones(2))


class TestMisclassificationCcdf:
    def test_centered(self):
        assert misclassification_ccdf(0.0, 1.0) == pytest.approx(0.5)

    def test_saturated_low(self):
        assert misclassification_ccdf(-10.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_case_matches_normal_cdf_oracle(self):
        # Phi(1) by Simpson integration of the standard normal density
        oracle = normal_cdf_simpson(1.0)
        assert misclassification_ccdf(1.0, 1.0) == pytest.approx(oracle, abs=1e-9)
        assert misclassification_ccdf(1.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_monotone_in_mean(self):
        vals = [misclassification_ccdf(m, 2.0) for m in np.linspace(-5, 5, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_variance_step(self):
        assert misclassification_ccdf(0.5, 0.0) == 1.0
        assert misclassification_ccdf(-0.5, 0.0) == 0.0
        assert misclassification_ccdf(0.0, 0.0) == 0.5

    def test_step_limit(self):
        for mu in (-0.3, 0.4):
            seq = [misclassification_ccdf(mu, v) for v in (1e-2, 1e-6, 1e-12)]
            target = 1.0 if mu > 0 else 0.0
            assert abs(seq[-1] - target) < 1e-9

    def test_negative_variance(self):
        with pytest.raises(ParameterError):
            misclassification_ccdf(0.0, -1.0)


class TestRivalClass:
    def test_binary_other(self):
        state = ClassifierState(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert rival_class(state, np.array([1.0, 0.0]), 0) == 1

    def test_argmax_rival(self):
        state = ClassifierState(np.diag([5.0, 1.0, 3.0]))
        mu = np.ones(3)
        assert rival_class(state, mu, 0) == 2

    def test_tie_lowest_index(self):
        state = ClassifierState(np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]))
        assert rival_class(state, np.array([1.0, 1.0]), 0) == 1

    @pytest.mark.parametrize("mu_f, y", [(np.ones((2, 3)), [0, 1]), (np.ones((2, 2)), [0])])
    def test_shapes_rejected(self, mu_f, y):
        with pytest.raises(DimensionError):
            rival_class(ClassifierState(np.eye(2)), mu_f, np.array(y))


class TestBatchAxis:
    def test_batch_matches_single_samples(self):
        # a leading batch axis gives exactly the per-sample results, including
        # the zero-variance step of a sample whose passes all agree
        rng = np.random.default_rng(29)
        state = ClassifierState(rng.standard_normal((5, 4)))
        stacks = rng.standard_normal((6, 10, 4))
        stacks[5] = [0.5, -0.25, 1.0, 0.75]  # dyadic, so the variance is exactly 0
        labels = rng.integers(0, 5, 6)
        mu, sigma = sample_feature_moments(stacks)
        rivals = rival_class(state, mu, labels)
        mu_e, var_e = error_moments(state.weights[rivals], state.weights[labels], mu, sigma)
        ccdf = misclassification_ccdf(mu_e, var_e)
        assert var_e[5] == 0.0 and ccdf[5] in (0.0, 0.5, 1.0)
        for i in range(6):
            mu_i, sigma_i = sample_feature_moments(stacks[i])
            np.testing.assert_array_equal(mu[i], mu_i)
            np.testing.assert_array_equal(sigma[i], sigma_i)
            j = rival_class(state, mu_i, int(labels[i]))
            assert rivals[i] == j
            m_i, v_i = error_moments(state.weights[j], state.weights[labels[i]], mu_i, sigma_i)
            assert (mu_e[i], var_e[i]) == (m_i, v_i)
            assert ccdf[i] == misclassification_ccdf(m_i, v_i)


class TestNoDropoutLimit:
    def test_keep_prob_one_gives_floor_covariance(self):
        # p -> 1: every ensemble member is the deterministic network, so each
        # sample's own-class variance collapses to the precision floor
        ds = gaussian_blobs(two_class_blob_specs(10, 10), seed=stream_seed(3, "data"))
        model = MlpModel.init(2, (8, 8), 2, stream_rng(3, "init"))
        cfg = RunConfig(ensemble_passes=6, ensemble_dropout=1 - 1e-9, ensemble_tau=100.0)
        u = ensemble_class_uncertainty(model, ds, cfg, mask_seed=4)
        np.testing.assert_allclose(u, np.full(2, 1.0 / 100.0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_class_uncertainty_floor_exact(self, seed):
        # a two-pass variance is never negative, so 1/tau bounds every class
        # uncertainty with no slack, even where all the passes agree
        ds = gaussian_blobs(longtail_blob_specs(), seed=stream_seed(seed, "data-train"))
        model = MlpModel.init(2, (32, 32), 10, stream_rng(seed, "init"))
        cfg = RunConfig(ensemble_passes=10, ensemble_dropout=1 - 1e-9)
        u = ensemble_class_uncertainty(model, ds, cfg, mask_seed=7)
        assert np.all(u >= 1.0 / cfg.ensemble_tau)
