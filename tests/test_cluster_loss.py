"""Clustering/center-separation losses: hand values, invariances, gradients."""

import numpy as np
import pytest

from ummlearn.cluster_loss import (
    ClusterState,
    _hybrid_batch,
    clustering_loss,
    diversity_regularizer,
    hybrid_loss,
    inter_class_margin_loss,
    update_centers,
)
from ummlearn.errors import ConfigurationError, DimensionError, ParameterError
from ummlearn.gradcheck import check, cluster_instance


# The loops that the array code replaced, verbatim: they pin the rounding order.
def reference_update_centers(state: ClusterState, features, labels) -> np.ndarray:
    feats, labs = np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    centers = state.centers.copy()
    for k in range(state.n_classes):
        rows = feats[labs == k]
        n_k = rows.shape[0]
        if n_k == 0:
            continue
        order = np.lexsort(rows.T[::-1])
        row_sum = rows[order].sum(axis=0)
        delta = (n_k * centers[k] - row_sum) / (1.0 + n_k)
        centers[k] = centers[k] - state.alpha * delta
    return centers


def reference_pairwise(state: ClusterState):
    c = state.centers
    iu, ju = np.triu_indices(state.n_classes, k=1)
    d = np.linalg.norm(c[iu] - c[ju], axis=1)
    return iu, ju, d


def reference_diversity_regularizer(state: ClusterState):
    iu, ju, d = reference_pairwise(state)
    mu = float(d.mean())
    value = float(np.mean((d - mu) ** 2))
    grad = np.zeros_like(state.centers)
    n_pairs = d.size
    coeff = 2.0 / n_pairs * (d - mu)
    for p in range(n_pairs):
        if d[p] == 0.0:
            continue  # subgradient 0 at coincident centers
        unit = (state.centers[iu[p]] - state.centers[ju[p]]) / d[p]
        grad[iu[p]] += coeff[p] * unit
        grad[ju[p]] -= coeff[p] * unit
    return value, grad


def reference_inter_class_margin_loss(state: ClusterState):
    iu, ju, d = reference_pairwise(state)
    reg_value, grad = reference_diversity_regularizer(state)
    grad = grad.copy()
    value = reg_value
    for p in range(d.size):
        gap = state.lam - d[p]
        if gap <= 0.0:
            continue
        value += gap
        if d[p] == 0.0:
            continue  # subgradient 0 at coincident centers
        unit = (state.centers[iu[p]] - state.centers[ju[p]]) / d[p]
        grad[iu[p]] -= unit
        grad[ju[p]] += unit
    return float(value), grad


def seeded_center_states(seed, count=200):
    """Seeded (state, features, labels) with a coincident center pair and a class
    absent from the batch in every instance; dims from 2, where each class sum
    adds its rows one by one (numpy sums a one-column array pairwise)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_classes = int(rng.integers(3, 11))
        dim = int(rng.choice([2, 3, 8, 32]))
        batch = int(rng.choice([1, 7, 32, 64]))
        centers = float(rng.choice([0.5, 3.0, 10.0])) * rng.standard_normal((n_classes, dim))
        centers[rng.integers(1, n_classes)] = centers[0]
        feats = 3.0 * rng.standard_normal((batch, dim))
        labels = rng.integers(0, n_classes - 1, batch)
        yield ClusterState(centers, lam=float(rng.choice([1.0, 5.0, 10.0]))), feats, labels


class TestClusterState:
    def test_coupled_constructor_ties_gamma(self):
        state = ClusterState(np.zeros((3, 2)), lam=10.0, s=4.0)
        assert state.gamma == 10.0 / 4.0

    def test_s_must_exceed_two(self):
        with pytest.raises(ParameterError):
            ClusterState(np.zeros((3, 2)), lam=1.0, s=2.0)

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            ClusterState(np.zeros((2, 2)), alpha=0.0)

    def test_lam_positive(self):
        with pytest.raises(ParameterError, match="lam"):
            ClusterState(np.zeros((2, 2)), lam=0.0)


class TestClusteringLoss:
    def test_zero_when_features_at_centers(self):
        state = ClusterState(np.array([[1.0, 2.0], [3.0, 4.0]]))
        feats = state.centers[[0, 1, 0]]
        value, grad = clustering_loss(state, feats, [0, 1, 0])
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(feats))

    def test_hand_value_three_four(self):
        # half squared distance 12.5 less the slack gamma = 2 / 4
        state = ClusterState(np.array([[0.0, 0.0], [9.0, 9.0]]), lam=2.0, s=4.0)
        value, grad = clustering_loss(state, np.array([[3.0, 4.0]]), [0])
        assert value == pytest.approx(12.0)
        np.testing.assert_allclose(grad, [[3.0, 4.0]])

    def test_margin_absorbs_distance(self):
        state = ClusterState(np.array([[0.0, 0.0], [9.0, 9.0]]), lam=52.0, s=4.0)
        value, grad = clustering_loss(state, np.array([[3.0, 4.0]]), [0])
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_center_loss_limit(self):
        # gamma = lam / s -> 0 as s grows; deviation from the plain
        # half-squared-distance sum is bounded by batch_size * gamma
        rng = np.random.default_rng(33)
        state0 = ClusterState(rng.standard_normal((4, 3)), lam=0.1, s=1e9)
        feats = rng.standard_normal((8, 3))
        labels = rng.integers(0, 4, 8)
        value, _ = clustering_loss(state0, feats, labels)
        center_loss = 0.5 * np.sum((feats - state0.centers[labels]) ** 2)
        assert value == pytest.approx(center_loss, abs=1e-9)

    def test_deviation_bounded_by_batch_gamma(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            state = ClusterState(2.0 * rng.standard_normal((4, 3)), lam=2.0, s=4.0)
            feats = 2.0 * rng.standard_normal((6, 3))
            labels = rng.integers(0, 4, 6)
            value, _ = clustering_loss(state, feats, labels)
            center_loss = 0.5 * np.sum((feats - state.centers[labels]) ** 2)
            assert 0.0 <= center_loss - value <= feats.shape[0] * state.gamma + 1e-12

    def test_dimension_mismatch(self):
        state = ClusterState(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            clustering_loss(state, np.zeros((3, 2)), [0, 1])

    def test_feature_width_must_match_centers(self):
        with pytest.raises(DimensionError, match="center dimension"):
            clustering_loss(ClusterState(np.zeros((2, 2))), np.zeros((2, 3)), [0, 1])

    @pytest.mark.parametrize("fn", [clustering_loss, update_centers])
    def test_empty_batch_rejected(self, fn):
        with pytest.raises(DimensionError):
            fn(ClusterState(np.zeros((2, 2))), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            state, feats, labels = cluster_instance(rng)
            _, grad = clustering_loss(state, feats, labels)
            value = lambda x: clustering_loss(state, x.reshape(feats.shape), labels)[0]
            report = check(value, grad, feats.ravel())
            assert report.passed, str(report)


class TestUpdateCenters:
    def test_absent_class_untouched(self):
        state = ClusterState(np.array([[1.0, 1.0], [5.0, 5.0]]), alpha=1.0)
        new = update_centers(state, np.array([[0.0, 0.0]]), [0])
        np.testing.assert_array_equal(new[1], [5.0, 5.0])

    def test_single_sample_halfway(self):
        state = ClusterState(np.array([[2.0, 0.0], [9.0, 9.0]]), alpha=1.0)
        r = np.array([[0.0, 4.0]])
        new = update_centers(state, r, [0])
        np.testing.assert_allclose(new[0], (state.centers[0] + r[0]) / 2.0)

    def test_samples_at_center_no_move(self):
        state = ClusterState(np.array([[1.0, 2.0], [0.0, 0.0]]))
        feats = np.array([[1.0, 2.0], [1.0, 2.0]])
        new = update_centers(state, feats, [0, 0])
        np.testing.assert_array_equal(new, state.centers)

    def test_input_state_not_mutated(self):
        state = ClusterState(np.array([[1.0, 1.0], [2.0, 2.0]]))
        before = state.centers.copy()
        update_centers(state, np.array([[0.0, 0.0]]), [0])
        np.testing.assert_array_equal(state.centers, before)

    def test_permutation_invariant_bit_exact(self):
        rng = np.random.default_rng(36)
        state = ClusterState(rng.standard_normal((3, 4)))
        feats = rng.standard_normal((12, 4))
        labels = rng.integers(0, 3, 12)
        ref = update_centers(state, feats, labels)
        for _ in range(5):
            perm = rng.permutation(12)
            out = update_centers(state, feats[perm], labels[perm])
            np.testing.assert_array_equal(out, ref)


class TestDiversityRegularizer:
    def test_two_centers_always_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            state = ClusterState(rng.standard_normal((2, 3)))
            value, grad = diversity_regularizer(state)
            assert value == 0.0
            np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_equilateral_zero(self):
        h = np.sqrt(3.0) / 2.0
        state = ClusterState(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]]))
        value, _ = diversity_regularizer(state)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_collinear_hand_value(self):
        state = ClusterState(np.array([[0.0], [1.0], [3.0]]))
        value, _ = diversity_regularizer(state)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_translation_rotation_invariance(self):
        rng = np.random.default_rng(38)
        centers = rng.standard_normal((5, 2))
        base, _ = diversity_regularizer(ClusterState(centers))
        shift = centers + np.array([3.0, -7.0])
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rotated = centers @ rot.T
        assert diversity_regularizer(ClusterState(shift))[0] == pytest.approx(base, abs=1e-9)
        assert diversity_regularizer(ClusterState(rotated))[0] == pytest.approx(base, abs=1e-9)

    def test_single_center_rejected(self):
        with pytest.raises(ConfigurationError):
            diversity_regularizer(ClusterState(np.zeros((1, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            centers = 2.0 * rng.standard_normal((4, 3))
            state = ClusterState(centers)
            _, grad = diversity_regularizer(state)
            value = lambda x: diversity_regularizer(ClusterState(x.reshape(4, 3)))[0]
            report = check(value, grad, centers.ravel())
            assert report.passed, str(report)


class TestInterClassMarginLoss:
    def test_zero_when_separated_and_equidistant(self):
        h = np.sqrt(3.0) / 2.0
        centers = 10.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        state = ClusterState(centers, lam=5.0, s=4.0)
        value, grad = inter_class_margin_loss(state)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_single_hinge_hand_value(self):
        lam = 4.0
        centers = np.array([[0.0, 0.0], [lam / 2.0, 0.0]])
        state = ClusterState(centers, lam=lam, s=4.0)
        value, _ = inter_class_margin_loss(state)
        assert value == pytest.approx(lam / 2.0, abs=1e-12)  # R = 0 for C = 2

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 20:
            centers = 2.0 * rng.standard_normal((4, 3))
            state = ClusterState(centers, lam=2.0, s=4.0)
            iu, ju = np.triu_indices(4, k=1)
            dists = np.linalg.norm(centers[iu] - centers[ju], axis=1)
            if np.any(np.abs(2.0 - dists) < 1e-3):
                continue
            _, grad = inter_class_margin_loss(state)
            value = lambda x: inter_class_margin_loss(
                ClusterState(x.reshape(4, 3), lam=2.0, s=4.0)
            )[0]
            report = check(value, grad, centers.ravel())
            assert report.passed, str(report)
            checked += 1

    def test_coincident_centers_zero_subgradient(self):
        centers = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        state = ClusterState(centers, lam=2.0, s=4.0)
        value, grad = inter_class_margin_loss(state)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))
        ref_value, ref_grad = reference_inter_class_margin_loss(state)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)


class TestHybridLoss:
    def test_zero_constituents(self):
        h = np.sqrt(3.0) / 2.0
        centers = 10.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        state = ClusterState(centers, lam=5.0, s=4.0)
        feats = state.centers[[0, 1, 2]]
        value, gf, gc = hybrid_loss(state, feats, [0, 1, 2])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            state = ClusterState(2.0 * rng.standard_normal((4, 3)), lam=2.0, s=4.0)
            feats = 2.0 * rng.standard_normal((6, 3))
            labels = rng.integers(0, 4, 6)
            total, _, _ = hybrid_loss(state, feats, labels)
            cl, _ = clustering_loss(state, feats, labels)
            mm, _ = inter_class_margin_loss(state)
            assert total == pytest.approx(cl + mm, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        # grad_features: full hybrid value under feature perturbation;
        # grad_centers: the center-separation part it represents (the
        # clustering term treats centers as constants by contract)
        rng = np.random.default_rng(42)
        for _ in range(15):
            state, feats, labels = cluster_instance(rng)
            _, gf, gc = hybrid_loss(state, feats, labels)
            value_f = lambda x: hybrid_loss(state, x.reshape(feats.shape), labels)[0]
            value_c = lambda x: inter_class_margin_loss(
                ClusterState(x.reshape(state.centers.shape), lam=state.lam, s=state.s)
            )[0]
            for report in (
                check(value_f, gf, feats.ravel()),
                check(value_c, gc, state.centers.ravel()),
            ):
                assert report.passed, str(report)


class TestLoopRounding:
    """The array code reproduces the per-pair and per-class loops bit for bit."""

    def test_diversity_regularizer(self):
        for state, _, _ in seeded_center_states(43):
            value, grad = diversity_regularizer(state)
            ref_value, ref_grad = reference_diversity_regularizer(state)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)

    def test_inter_class_margin_loss(self):
        for state, _, _ in seeded_center_states(44):
            value, grad = inter_class_margin_loss(state)
            ref_value, ref_grad = reference_inter_class_margin_loss(state)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)

    def test_update_centers(self):
        for state, feats, labels in seeded_center_states(45):
            out = update_centers(state, feats, labels)
            ref = reference_update_centers(state, feats, labels)
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))

    def test_hybrid_batch_kernel(self):
        # the training loop's kernel: hybrid_loss, then update_centers less step * grad_centers
        rng = np.random.default_rng(46)
        apart = [  # no active pair: every center distance exceeds lam
            (ClusterState(10.0 * rng.standard_normal((n, 4)), lam=0.5), rng.standard_normal((9, 4)), labels)
            for n in (2, 3, 7)
            for labels in [rng.integers(0, n, 9)]
        ]
        assert all(reference_pairwise(state)[2].min() > state.lam for state, _, _ in apart)
        for state, feats, labels in [*seeded_center_states(47, count=60), *apart]:
            cl_value, cl_grad = clustering_loss(state, feats, labels)
            mm_value, mm_grad = reference_inter_class_margin_loss(state)
            want = reference_update_centers(state, feats, labels) - 0.37 * mm_grad
            value, grad = _hybrid_batch(state, feats, labels, 0.37)
            assert value == cl_value + mm_value
            assert grad.tobytes() == cl_grad.tobytes()
            assert state.centers.tobytes() == want.tobytes()
