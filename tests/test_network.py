"""Forward/backward, SGD, the curriculum trainer, and model persistence."""

import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import flatten_params, mlp_softmax_problem
from ummlearn.data import Dataset, gaussian_blobs, two_class_blob_specs
from ummlearn.errors import ConfigurationError, DimensionError, TrainingDivergenceError
from ummlearn.gradcheck import check
from ummlearn.margin_loss import softmax_loss, uncertainty_weighted_margin_loss
from ummlearn.network import (
    LOSS_CHOICES,
    PHASE_CLASS_MARGIN,
    PHASE_SOFTMAX,
    Gradients,
    MlpModel,
    RunConfig,
    _batch_ccdfs,
    backward,
    ensemble_class_uncertainty,
    evaluate,
    forward,
    load_model,
    save_model,
    sgd_step,
    train,
    train_runs,
)
from ummlearn.seeding import stream_rng, stream_seed
from ummlearn.uncertainty import (
    class_uncertainty,
    error_moments,
    misclassification_ccdf,
    rival_class,
    sample_dropout_masks,
    sample_feature_moments,
)


def small_model(seed=0, hidden=(8, 8), d=2, c=3):
    return MlpModel.init(d, hidden, c, stream_rng(seed, "init"))


def reference_chain(model, x, masks=None):
    """The pass arithmetic written out: (pre-activations, activations, feature, logits)."""
    h, pres, acts = x, [], []
    for layer, (w, b) in enumerate(zip(model.hidden_weights, model.hidden_biases)):
        pres.append(h @ w.T + b)
        h = np.maximum(pres[-1], 0)
        if masks is not None:
            h = h * masks[layer]
        acts.append(h)
    return pres, acts, h, h @ model.classifier.weights.T


class TestForward:
    def test_zero_weights_zero_logits(self):
        model = small_model()
        for w in model.hidden_weights:
            w[:] = 0.0
        model.classifier.weights[:] = 0.0
        cache = forward(model, np.ones(2))
        np.testing.assert_array_equal(cache.feature @ model.classifier.weights.T, np.zeros((1, 3)))

    def test_no_dropout_equals_keep_prob_one_limit(self):
        model = small_model()
        x = np.array([0.3, -0.7])
        plain = forward(model, x).feature @ model.classifier.weights.T
        keep = 1 - 1e-9
        masks = [np.ones(8) / keep, np.ones(8) / keep]
        masked = forward(model, x, masks).feature @ model.classifier.weights.T
        np.testing.assert_allclose(masked, plain, atol=1e-6)

    def test_matches_bruteforce_matrix_chain(self):
        rng = np.random.default_rng(3)
        model = small_model(3)
        x = rng.standard_normal((5, 2))
        cache = forward(model, x)
        h = x
        for w, b in zip(model.hidden_weights, model.hidden_biases):
            h = np.maximum(h @ w.T + b, 0.0)
        expected = h @ model.classifier.weights.T
        np.testing.assert_allclose(cache.feature @ model.classifier.weights.T, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            forward(small_model(), np.ones(5))

    def test_one_mask_per_hidden_layer(self):
        with pytest.raises(DimensionError, match="mask"):
            forward(small_model(), np.ones((2, 2)), [np.ones(8)])

    @pytest.mark.parametrize("d, hidden, c", [(0, (8,), 3), (2, (8, 0), 3), (2, (8,), 1)])
    def test_invalid_architecture(self, d, hidden, c):
        with pytest.raises(ConfigurationError, match="architecture"):
            MlpModel.init(d, hidden, c, stream_rng(0, "init"))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = small_model()
        cache = forward(model, np.ones((4, 2)))
        grads = backward(model, cache, np.zeros((4, 8)))
        for g in grads.hidden_weights + grads.hidden_biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_end_to_end_gradcheck_2_8_8_3(self):
        model = small_model(7)
        rng = np.random.default_rng(8)
        xb = rng.standard_normal((4, 2))
        yb = rng.integers(0, 3, 4)
        report = check(*mlp_softmax_problem(model, xb, yb))
        assert report.passed, str(report)

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (4, 2)])
    def test_grad_feature_must_match_the_feature(self, shape):
        model = small_model()
        with pytest.raises(DimensionError):
            backward(model, forward(model, np.ones((4, 2))), np.zeros(shape))

    def test_batch_linearity(self):
        model = small_model(11)
        rng = np.random.default_rng(12)
        xb = rng.standard_normal((3, 2))
        g_up = rng.standard_normal((3, 8))
        full = backward(model, forward(model, xb), g_up)
        summed = [np.zeros_like(w) for w in model.hidden_weights]
        for i in range(3):
            gi = backward(model, forward(model, xb[i : i + 1]), g_up[i : i + 1])
            for acc, g in zip(summed, gi.hidden_weights):
                acc += g
        for a, b in zip(full.hidden_weights, summed):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestPassKernel:
    """``forward`` and ``backward`` against the layer arithmetic written out, bit for bit."""

    @staticmethod
    def random_case(seed, hidden):
        rng = np.random.default_rng([seed, 13])
        d, c, n = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 50))
        model = MlpModel.init(d, hidden, c, rng)
        for b in model.hidden_biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        return model, 2.0 * rng.standard_normal((n, d)), rng

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("masking", ["none", "per-sample", "shared"])
    def test_forward_matches_chain(self, seed, masking):
        model, x, rng = self.random_case(seed, (7, 5, 3))
        keep = float(rng.uniform(0.2, 0.9))
        shapes = {"none": None, "per-sample": (x.shape[0],), "shared": ()}[masking]
        masks = None if shapes is None else [
            (rng.random(shapes + (w,)) < keep) / keep for w in model.layer_widths
        ]
        cache = forward(model, x, masks)
        _, acts, feature, _ = reference_chain(model, x, masks)
        for got, want in zip(cache.act + [cache.feature], acts + [feature]):
            assert got.tobytes() == want.tobytes()

    def test_forward_without_hidden_layers(self):
        model, x, _ = self.random_case(0, ())
        for cache in (forward(model, x), forward(model, x, [])):
            assert cache.act == [] and cache.feature.tobytes() == x.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_matches_pre_activation_reference(self, seed):
        model, x, rng = self.random_case(seed, (9, 6))
        keep = 0.5
        masks = [(rng.random((x.shape[0], w)) < keep) / keep for w in model.layer_widths]
        pres, acts, feature, _ = reference_chain(model, x, masks)
        # dropped units whose pre-activation is positive: only the mask zeroes them
        assert any(((m == 0) & (p > 0)).any() for m, p in zip(masks, pres))
        upstream = rng.standard_normal(feature.shape)
        delta, want_w, want_b = upstream, [], []
        for layer in reversed(range(len(pres))):
            delta = delta * masks[layer]
            delta = delta * (pres[layer] > 0.0)
            inputs = acts[layer - 1] if layer > 0 else x
            want_w.insert(0, delta.T @ inputs)
            want_b.insert(0, delta.sum(axis=0))
            delta = delta @ model.hidden_weights[layer]
        grads = backward(model, forward(model, x, masks), upstream)
        for got, want in zip(grads.hidden_weights + grads.hidden_biases, want_w + want_b):
            assert got.tobytes() == want.tobytes()


class TestSgdStep:
    def _zero_grads(self, model):
        return Gradients(
            [np.zeros_like(w) for w in model.hidden_weights],
            [np.zeros_like(b) for b in model.hidden_biases],
            np.zeros_like(model.classifier.weights),
        )

    def test_zero_grads_zero_decay_unchanged(self):
        model = small_model()
        before = flatten_params(model)
        sgd_step(model, self._zero_grads(model), 0.1, 0.0)
        np.testing.assert_array_equal(flatten_params(model), before)

    def test_decay_shrinks_weights(self):
        model = small_model()
        before = model.classifier.weights.copy()
        sgd_step(model, self._zero_grads(model), 0.1, 0.5)
        np.testing.assert_allclose(model.classifier.weights, before * (1 - 0.1 * 0.5))

    def test_hand_update_two_by_two(self):
        model = MlpModel([], [], __import__("ummlearn.margin_loss", fromlist=["ClassifierState"]).ClassifierState(np.array([[1.0, 2.0], [3.0, 4.0]])))
        grads = Gradients([], [], np.array([[0.5, 0.0], [0.0, -1.0]]))
        sgd_step(model, grads, 0.1, 0.0)
        np.testing.assert_allclose(
            model.classifier.weights, [[1.0 - 0.05, 2.0], [3.0, 4.0 + 0.1]]
        )


class TestEvaluate:
    def test_all_zero_logits_predict_class_zero(self):
        model = small_model()
        model.classifier.weights[:] = 0.0
        ds = Dataset.from_arrays(np.ones((4, 2)), np.array([1, 2, 0, 1]), n_classes=3)
        np.testing.assert_array_equal(evaluate(model, ds), np.zeros(4, dtype=np.int64))

    def test_matches_bruteforce_argmax(self):
        model = small_model(5)
        rng = np.random.default_rng(6)
        ds = Dataset.from_arrays(rng.standard_normal((20, 2)), rng.integers(0, 3, 20), 3)
        preds = evaluate(model, ds)
        logits = forward(model, ds.features).feature @ model.classifier.weights.T
        expected = [int(np.argmax(row)) for row in logits]
        np.testing.assert_array_equal(preds, expected)


def binary_sets(seed):
    tr = gaussian_blobs(two_class_blob_specs(120, 12), seed=stream_seed(seed, "data-train"))
    te = gaussian_blobs(
        [replace(spec, count=60) for spec in two_class_blob_specs()],
        seed=stream_seed(seed, "data-test"),
    )
    return tr, te


class TestTrain:
    def test_smoke_all_losses_finite(self):
        tr, te = binary_sets(0)
        for loss in ("softmax", "large-margin", "uncertainty-weighted", "hybrid-cluster", "angular-i", "angular-ii"):
            model = MlpModel.init(2, (8, 8), 2, stream_rng(0, "init"))
            cfg = RunConfig(
                train_loss=loss, train_epochs_softmax=3, train_epochs_umm=2, train_epochs_sum=1, seed=0
            )
            model, records = train(model, tr, cfg, eval_dataset=te)
            assert all(np.isfinite(r.loss) for r in records)
            assert len(records) == 6

    def test_deterministic_same_seed(self):
        tr, te = binary_sets(1)
        weights = []
        for _ in range(2):
            model = MlpModel.init(2, (8, 8), 2, stream_rng(1, "init"))
            cfg = RunConfig(
                train_loss="uncertainty-weighted",
                train_epochs_softmax=3,
                train_epochs_umm=2,
                train_epochs_sum=2,
                seed=1,
            )
            model, _ = train(model, tr, cfg, eval_dataset=te)
            weights.append(np.concatenate([w.ravel() for w in model.hidden_weights]
                                          + [model.classifier.weights.ravel()]))
        np.testing.assert_array_equal(weights[0], weights[1])

    def test_curriculum_degenerates_bit_identical(self):
        # zero margin/sample epochs: any selector trains exactly like softmax
        tr, te = binary_sets(2)
        finals = {}
        for loss in ("softmax", "uncertainty-weighted"):
            model = MlpModel.init(2, (8, 8), 2, stream_rng(2, "init"))
            cfg = RunConfig(
                train_loss=loss, train_epochs_softmax=4, train_epochs_umm=0, train_epochs_sum=0, seed=2
            )
            model, _ = train(model, tr, cfg, eval_dataset=te)
            finals[loss] = np.concatenate(
                [w.ravel() for w in model.hidden_weights] + [model.classifier.weights.ravel()]
            )
        np.testing.assert_array_equal(finals["softmax"], finals["uncertainty-weighted"])

    @pytest.mark.parametrize("hidden, epochs_softmax", [((8, 8), 3), ((8, 8), 0), ((), 3)])
    def test_shared_prefixes_bit_identical_to_plain(self, hidden, epochs_softmax, monkeypatch):
        # every selector, then the last one with one phase-1 field changed,
        # then with only later-phase epochs changed, all in one train_runs
        # call: each run equals its plain run bit for bit, and a run trains
        # its own phase 1 only when no earlier run of the call matches its
        # truncated phase-1 config. The last such run trains the caller's
        # model itself; a second call, on other data, shares nothing.
        import ummlearn.network

        losses = [loss for loss in LOSS_CHOICES if hidden or loss != "uncertainty-weighted"]
        last = {"train_loss": losses[-1]}
        phase_1_changes = [
            {"seed": 1}, {"ensemble_dropout": 0.3}, {"train_lr": 0.04}, {"train_weight_decay": 0.0},
            {"train_batch_size": 17}, {"train_epochs_softmax": epochs_softmax + 1},
        ]
        runs = (  # (config overrides, trains its own phase 1)
            [({"train_loss": loss}, i == 0) for i, loss in enumerate(losses)]
            + [(last | change, True) for change in phase_1_changes]
            + [(last | {"train_epochs_umm": 1}, False), (last | {"train_epochs_sum": 0}, False)]
        )
        base = RunConfig(
            model_hidden=hidden, train_epochs_softmax=epochs_softmax,
            train_epochs_umm=2, train_epochs_sum=2, seed=0,
        )
        plain_phase, phases = ummlearn.network._run_phase, []

        def run_phase(state, phase, *args):
            phases.append(phase)
            plain_phase(state, phase, *args)

        monkeypatch.setattr(ummlearn.network, "_run_phase", run_phase)
        for data_seed, call in ((0, runs), (1, [(last, True)])):
            tr, te = binary_sets(data_seed)
            cfgs = [replace(base, **overrides) for overrides, _ in call]
            plains = [pickle.dumps(train(small_model(hidden=hidden, c=2), tr, cfg, te)) for cfg in cfgs]
            phases.clear()
            model = small_model(hidden=hidden, c=2)
            trained_in_place = []
            for (overrides, own_phase_1), plain, run in zip(call, plains, train_runs(model, tr, cfgs, te)):
                assert pickle.dumps(run) == plain, overrides
                assert (PHASE_SOFTMAX in phases) == own_phase_1, overrides
                trained_in_place.append(run[0] is model)
                phases.clear()
            last_own = max(i for i, (_, own) in enumerate(call) if own)
            assert trained_in_place == [i == last_own for i in range(len(call))]

    @pytest.mark.parametrize(
        "runs, copied",
        [
            ([{"train_loss": "softmax"}], []),
            ([{"train_loss": "softmax"}, {"train_loss": "hybrid-cluster"}], [PHASE_SOFTMAX]),
            (
                [
                    {"train_loss": "uncertainty-weighted", "train_epochs_sum": 0},
                    {"train_loss": "uncertainty-weighted"},
                ],
                [PHASE_CLASS_MARGIN],
            ),
            (  # the sweep's default losses: phase 1 is copied again for the run after umm
                [
                    {"train_loss": "softmax"},
                    {"train_loss": "uncertainty-weighted", "train_epochs_sum": 0},
                    {"train_loss": "uncertainty-weighted"},
                    {"train_loss": "hybrid-cluster"},
                ],
                [PHASE_SOFTMAX, PHASE_SOFTMAX, PHASE_CLASS_MARGIN],
            ),
            (  # without phase-2 epochs the phase-2 key is the phase-1 key: kept once
                [
                    {"train_loss": "softmax", "train_epochs_umm": 0},
                    {"train_loss": "hybrid-cluster", "train_epochs_umm": 0},
                ],
                [PHASE_SOFTMAX],
            ),
            ([{"seed": 0}, {"seed": 1}], ["model"]),  # no shared phase 1: the initial model
        ],
        ids=["one-run", "softmax-hybrid", "umm-umm-sum", "sweep-default", "no-phase-2", "two-seeds"],
    )
    def test_state_copied_only_for_a_later_run(self, runs, copied, monkeypatch):
        import copy

        import ummlearn.network

        seen = []

        def deepcopy(obj):
            seen.append(getattr(obj, "phase", "model"))
            return copy.deepcopy(obj)

        monkeypatch.setattr(ummlearn.network, "copy", SimpleNamespace(deepcopy=deepcopy))
        tr, te = binary_sets(0)
        base = RunConfig(model_hidden=(8, 8), train_epochs_softmax=1, train_epochs_umm=1, train_epochs_sum=1)
        for _ in train_runs(small_model(c=2), tr, [replace(base, **overrides) for overrides in runs], te):
            pass
        assert seen == copied

    def test_margin_phase_with_zero_uncertainty_matches_softmax_losses(self):
        # forced-zero uncertainties give unit margins: per-sample margin loss
        # values equal the softmax loss values
        rng = np.random.default_rng(4)
        model = small_model(4)
        from ummlearn.margin_loss import large_margin_softmax_loss

        feats = rng.standard_normal((10, 2))
        for i in range(10):
            cache = forward(model, feats[i])
            f = cache.feature[0]
            if np.linalg.norm(f) < 1e-10:
                continue
            y = int(rng.integers(0, 3))
            lm = large_margin_softmax_loss(model.classifier, f[None], [y], 1)
            sm = softmax_loss(model.classifier, f[None], [y])
            assert lm.value == pytest.approx(sm.value, abs=1e-12)

    def test_phase3_weights_fall_as_the_ccdf_rises(self, monkeypatch):
        # the final phase scales each sample's true-class term by P(correct) = 1 - CCDF
        import ummlearn.network as network

        seen = []

        def rising_ccdfs(model, xb, yb, cfg, rng):
            return np.linspace(0.05, 0.95, yb.size)

        def recording_loss(state, features, labels, m, ccdf, blend=1.0):
            seen.append(np.asarray(ccdf))
            return uncertainty_weighted_margin_loss(state, features, labels, m, ccdf, blend=blend)

        monkeypatch.setattr(network, "_batch_ccdfs", rising_ccdfs)
        monkeypatch.setattr(network, "uncertainty_weighted_margin_loss", recording_loss)
        tr, _ = binary_sets(0)
        cfg = RunConfig(train_loss="uncertainty-weighted", train_epochs_softmax=1, train_epochs_umm=0,
                        train_epochs_sum=1, model_hidden=(8, 8), seed=0)
        train(small_model(c=2), tr, cfg)
        assert len(seen) == -(-tr.n_samples // cfg.train_batch_size)
        for weights in seen:
            expected = 1.0 - np.linspace(0.05, 0.95, weights.size)
            np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-15)
            assert np.all(np.diff(weights) < 0)

    def test_empty_dataset_rejected(self):
        # built field by field: Dataset.from_arrays rejects an empty table itself
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64), np.zeros(3))
        with pytest.raises(DimensionError, match="training dataset is empty"):
            train(small_model(), ds, RunConfig())

    def test_class_count_mismatch_rejected(self):
        tr, _ = binary_sets(0)
        with pytest.raises(DimensionError, match="class count"):
            train(small_model(c=3), tr, RunConfig())

    def test_divergence_guard(self):
        tr, _ = binary_sets(3)
        model = MlpModel.init(2, (8, 8), 2, stream_rng(3, "init"))
        cfg = RunConfig(train_loss="softmax", train_epochs_softmax=30, train_lr=50.0, seed=3)
        with pytest.raises(TrainingDivergenceError) as info:
            train(model, tr, cfg)
        assert info.value.epoch >= 0

    def test_hidden_widths_held_as_a_tuple(self):
        # a config keys shared training states, so a list of widths must not leave it unhashable
        cfg = RunConfig(model_hidden=[8, 8])
        assert cfg.model_hidden == (8, 8) and hash(cfg) == hash(RunConfig(model_hidden=(8, 8)))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="train.loss"):
            RunConfig(train_loss="nope")
        with pytest.raises(ConfigurationError, match="train.lr must be positive"):
            RunConfig(train_lr=0.0)
        with pytest.raises(ConfigurationError, match="train.margin"):
            RunConfig(train_margin=9)


class TestDropoutPlumbing:
    def test_ensemble_masks_shared_across_batch(self):
        model = small_model(9)
        masks = sample_dropout_masks(2, 0.5, model.layer_widths, rng_seed=5)
        x = np.ones((6, 2))
        logits = forward(model, x, masks[0]).feature @ model.classifier.weights.T
        # one sub-network per pass: identical inputs give identical rows
        np.testing.assert_allclose(logits, np.tile(logits[0], (6, 1)))


class TestEnsembleAgainstForward:
    """The buffer-sharing ensemble passes equal the pass arithmetic written out, bit for bit."""

    @staticmethod
    def random_case(seed):
        rng = np.random.default_rng([seed, 12])
        d, c = int(rng.integers(1, 9)), int(rng.integers(2, 8))
        widths = [int(w) for w in rng.integers(1, 97, size=rng.integers(1, 4))]
        model = MlpModel.init(d, widths, c, rng)
        for b in model.hidden_biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        n = int(rng.integers(1, 3001)) if seed % 8 == 0 else int(rng.integers(1, 41))
        x = 3.0 * rng.standard_normal((n, d))
        y = rng.integers(0, c, n)
        cfg = RunConfig(
            ensemble_passes=int(rng.integers(2, 13)), ensemble_dropout=float(rng.uniform(0.2, 0.9))
        )
        return model, x, y, cfg, int(rng.integers(2**63))

    @staticmethod
    def reference_passes(model, x, cfg, seed):
        """(feature, logits) of each pass."""
        masks = sample_dropout_masks(cfg.ensemble_passes, cfg.ensemble_dropout, model.layer_widths, seed)
        return [reference_chain(model, x, m)[2:] for m in masks]

    @pytest.mark.parametrize("seed", range(24))
    def test_class_uncertainty(self, seed):
        model, x, y, cfg, mask_seed = self.random_case(seed)
        ds = Dataset.from_arrays(x, y, model.n_classes)
        own = []
        for _, logits in self.reference_passes(model, x, cfg, mask_seed):
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            own.append(e[np.arange(y.size), y] / e.sum(axis=1))
        _, variance = sample_feature_moments(np.stack(own))
        expected = class_uncertainty(variance + 1.0 / cfg.ensemble_tau, y, model.n_classes)
        got = ensemble_class_uncertainty(model, ds, cfg, mask_seed)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(24))
    def test_batch_ccdfs(self, seed):
        model, x, y, cfg, rng_seed = self.random_case(seed)
        mask_seed = int(np.random.default_rng(rng_seed).integers(0, 2**63))
        passes = self.reference_passes(model, x, cfg, mask_seed)
        mu_f, sigma_f = sample_feature_moments(np.stack([f for f, _ in passes], axis=1))
        state = model.classifier
        rivals = rival_class(state, mu_f, y)
        mu_e, var_e = error_moments(state.weights[rivals], state.weights[y], mu_f, sigma_f)
        expected = misclassification_ccdf(mu_e, var_e)
        got = _batch_ccdfs(model, x, y, cfg, np.random.default_rng(rng_seed))
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = small_model(13)
        model.classifier.margins[:] = [1, 2, 3]
        model.classifier.class_uncertainty[:] = [0.1, 0.2, 0.3]
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.hidden_weights, back.hidden_weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.hidden_biases, back.hidden_biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.classifier.weights, back.classifier.weights)
        np.testing.assert_array_equal(model.classifier.margins, back.classifier.margins)
        np.testing.assert_array_equal(
            model.classifier.class_uncertainty, back.classifier.class_uncertainty
        )
