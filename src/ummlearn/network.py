"""Small dense feed-forward classifier with dropout, manual backprop, and the
progressive three-phase trainer.

Architecture: input -> [linear + relu + dropout] per hidden layer -> bias-free
linear classifier whose rows are the class-representative vectors.

Training phases:
  1. plain softmax;
  2. class-level margins, derived at the phase boundary from a
     dropout-ensemble uncertainty estimate over the training set (only for
     the ``uncertainty-weighted`` selector);
  3. additionally, per-sample misclassification probabilities computed from
     ensemble feature moments re-weight the margin term each batch.

Selectors other than ``uncertainty-weighted`` use phase 1 for softmax
warm-up and keep their own loss through phases 2 and 3 (``hybrid-cluster``
initializes centers from per-class feature means at the phase boundary).

``train`` runs the phases in turn on one ``TrainState``: the model, the
three random streams (``shuffle``, ``dropout``, ``ensemble``), the cluster
centers and the epoch records. A phase reads nothing from earlier phases but
that state, so a deep copy taken at a phase boundary resumes bit-identically.
The state at a boundary is the final state of the run truncated there: its
phase-1 state is that of the same run with ``train.loss=softmax`` and no
later epochs, its phase-2 state that of the run without phase-3 epochs.
``train_runs`` trains several configs from one initial model on one data
set, so within one call that truncated config alone keys the state: runs
that differ only in their loss train phase 1 once. A state is kept only
while a later run of the call resumes from it; nothing outlives the call.
"""

from __future__ import annotations

import copy
import math
import os
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from .cluster_loss import ClusterState, hybrid_loss, update_centers
from .data import Dataset
from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .margin_loss import (
    ClassifierState,
    angular_margin_loss,
    class_margin_from_uncertainty,
    large_margin_softmax_loss,
    softmax_loss,
    uncertainty_weighted_margin_loss,
)
from .numerics import M_MAX
from .seeding import stream_rng
from .uncertainty import (
    class_uncertainty,
    dropout_masks,
    error_moments,
    misclassification_ccdf,
    rival_class,
    sample_dropout_masks,
    sample_feature_moments,
)

LOSS_CHOICES = (
    "softmax",
    "large-margin",
    "uncertainty-weighted",
    "hybrid-cluster",
    "angular-i",
    "angular-ii",
)

# A batch loss above this counts as divergence.
MAX_LOSS = 1e6

PHASE_SOFTMAX = 1
PHASE_CLASS_MARGIN = 2
PHASE_SAMPLE_WEIGHT = 3


@dataclass
class MlpModel:
    """Hidden layers (with biases) plus the bias-free classifier head."""

    hidden_weights: list[np.ndarray]
    hidden_biases: list[np.ndarray]
    classifier: ClassifierState

    @classmethod
    def init(
        cls, input_dim: int, hidden_widths, n_classes: int, rng: np.random.Generator
    ) -> "MlpModel":
        """Fan-in-scaled uniform initialization, deterministic per generator."""
        widths = [int(w) for w in hidden_widths]
        if input_dim < 1 or n_classes < 2 or any(w < 1 for w in widths):
            raise ConfigurationError("invalid architecture sizes")
        weights, biases = [], []
        fan_in = input_dim
        for w in widths:
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(w, fan_in)))
            biases.append(np.zeros(w))
            fan_in = w
        bound = 1.0 / np.sqrt(fan_in)
        head = rng.uniform(-bound, bound, size=(n_classes, fan_in))
        return cls(weights, biases, ClassifierState(head))

    @property
    def layer_widths(self) -> list[int]:
        return [w.shape[0] for w in self.hidden_weights]

    @property
    def input_dim(self) -> int:
        if self.hidden_weights:
            return self.hidden_weights[0].shape[1]
        return self.classifier.feature_dim

    @property
    def feature_dim(self) -> int:
        return self.classifier.feature_dim

    @property
    def n_classes(self) -> int:
        return self.classifier.n_classes


@dataclass
class ForwardCache:
    x: np.ndarray
    act: list[np.ndarray]
    masks: list[np.ndarray] | None
    feature: np.ndarray


@dataclass
class Gradients:
    hidden_weights: list[np.ndarray]
    hidden_biases: list[np.ndarray]
    classifier_weights: np.ndarray


def _input_matrix(model: MlpModel, x) -> np.ndarray:
    """``x`` as a float64 (B, input_dim) matrix; one 1-D row becomes a batch of one."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise DimensionError(
            f"input dimension {arr.shape} does not match model input {model.input_dim}"
        )
    return arr


def _pass(model: MlpModel, x: np.ndarray, masks, hidden) -> np.ndarray:
    """One pass over ``x`` into the caller's buffers; returns the penultimate feature.

    ``hidden`` holds one (B, width) buffer per hidden layer. Each hidden layer
    is matmul, ``+= b``, ReLU and, with ``masks``, inverted dropout:
    ``*= mask``, where a mask holds 0 or 1/keep-probability (see
    ``uncertainty.dropout_masks``), one row per sample (B, width) or one row
    for all samples (width,).
    """
    h = x
    for layer, (w, b, buf) in enumerate(zip(model.hidden_weights, model.hidden_biases, hidden)):
        np.matmul(h, w.T, out=buf)
        buf += b
        np.maximum(buf, 0.0, out=buf)
        if masks is not None:
            buf *= masks[layer]
        h = buf
    return h


def forward(model: MlpModel, x, masks=None) -> ForwardCache:
    """Run the hidden stack up to the penultimate feature, with optional dropout ``masks``."""
    arr = _input_matrix(model, x)
    if masks is not None and len(masks) != len(model.hidden_weights):
        raise DimensionError("one dropout mask per hidden layer is required")
    act = [np.empty((arr.shape[0], w)) for w in model.layer_widths]
    feature = _pass(model, arr, masks, act)
    return ForwardCache(
        x=arr, act=act, masks=list(masks) if masks is not None else None, feature=feature
    )


def _passes(model: MlpModel, x, masks_per_pass):
    """Yield (feature, logits) of one inference pass over ``x`` per mask collection.

    Each entry of ``masks_per_pass`` is one mask per hidden layer, shared by
    every row, or ``None`` for a dropout-free pass. Every pass writes into
    the same buffers, allocated once per call: a caller that keeps a pass's
    arrays past the next pass must copy them.
    """
    x = _input_matrix(model, x)
    hidden = [np.empty((x.shape[0], w)) for w in model.layer_widths]
    logits = np.empty((x.shape[0], model.n_classes))
    for masks in masks_per_pass:
        feature = _pass(model, x, masks, hidden)
        np.matmul(feature, model.classifier.weights.T, out=logits)
        yield feature, logits


def backward(model: MlpModel, cache: ForwardCache, grad_feature, grad_classifier=None) -> Gradients:
    """Exact reverse-mode gradients for the hidden stack.

    ``grad_feature`` is dLoss/d(penultimate feature), already carrying any
    batch averaging; ``grad_classifier`` is passed through untouched.
    """
    delta = np.asarray(grad_feature, dtype=np.float64)
    if delta.ndim == 1:
        delta = delta[None, :]
    if delta.shape != cache.feature.shape:
        raise DimensionError("grad_feature must match the cached feature shape")
    n_hidden = len(model.hidden_weights)
    g_w = [None] * n_hidden
    g_b = [None] * n_hidden
    for layer in range(n_hidden - 1, -1, -1):
        if cache.masks is not None:
            delta = delta * cache.masks[layer]
        # act > 0 exactly where pre > 0 on kept units (mask 1/keep > 0), and
        # delta is already +-0 on dropped ones
        delta = delta * (cache.act[layer] > 0.0)
        inputs = cache.act[layer - 1] if layer > 0 else cache.x
        g_w[layer] = delta.T @ inputs
        g_b[layer] = delta.sum(axis=0)
        delta = delta @ model.hidden_weights[layer]
    if grad_classifier is None:
        grad_classifier = np.zeros_like(model.classifier.weights)
    return Gradients(hidden_weights=g_w, hidden_biases=g_b, classifier_weights=grad_classifier)


def sgd_step(model: MlpModel, grads: Gradients, lr: float, weight_decay: float) -> MlpModel:
    """In-place update w <- w - lr (grad + weight_decay w); biases are not decayed."""
    for w, g in zip(model.hidden_weights, grads.hidden_weights):
        w -= lr * (g + weight_decay * w)
    for b, g in zip(model.hidden_biases, grads.hidden_biases):
        b -= lr * g
    model.classifier.weights -= lr * (grads.classifier_weights + weight_decay * model.classifier.weights)
    return model


def evaluate(model: MlpModel, dataset: Dataset) -> np.ndarray:
    """Dropout-free argmax predictions; ties resolve to the lowest class index."""
    _, logits = next(_passes(model, dataset.features, [None]))
    return np.argmax(logits, axis=1).astype(np.int64)


@dataclass(frozen=True)
class RunConfig:
    """One run's configuration: data, model, trainer, ensemble, clusters, seed.

    Every field is one flat config key: the first underscore becomes the
    section dot (``train_lr`` is ``train.lr``). ``train`` reads the ``train``,
    ``ensemble`` and ``cluster`` sections and the seed. Every value is
    checked here, so a bad one fails before anything runs or is written.
    """

    data_kind: str = "binary"  # binary | longtail | csv
    data_dim: int = 2
    data_std: float = 1.0
    data_classes: int = 10
    data_base_count: int = 1000
    data_decay: float = 0.5
    data_radius: float = 5.0
    data_majority: int = 500
    data_minority: int = 50
    data_separation: float = 3.0
    data_test_count: int = 200
    data_path: str = ""
    model_hidden: tuple = (32, 32)
    train_loss: str = "softmax"
    train_epochs_softmax: int = 20
    train_epochs_umm: int = 15
    train_epochs_sum: int = 10
    train_lr: float = 0.05
    train_weight_decay: float = 1e-4
    train_batch_size: int = 32
    train_margin: int = 3
    train_uncertainty_scale: float = 1.0
    train_margin_blend: float = 0.15
    ensemble_passes: int = 10
    ensemble_dropout: float = 0.5
    ensemble_tau: float = 100.0
    cluster_lambda: float = 10.0
    cluster_s: float = 4.0
    cluster_alpha: float = 0.5
    cluster_weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "model_hidden", tuple(self.model_hidden))  # hashable, as a key
        if self.data_kind not in ("binary", "longtail", "csv"):
            raise ConfigurationError(f"unknown data.kind {self.data_kind!r}")
        if self.data_kind == "csv" and not os.path.isfile(self.data_path):
            raise ConfigurationError(
                f"data.kind=csv requires data.path to name a file, got {self.data_path!r}"
            )
        if self.train_loss not in LOSS_CHOICES:
            raise ConfigurationError(f"unknown train.loss {self.train_loss!r}")
        floats = [(name, v) for name, v in vars(self).items() if isinstance(v, float)]
        finite = [(name, math.isfinite(v), "be finite") for name, v in floats]
        for name, ok, rule in finite + [
            ("data_dim", self.data_dim >= 1, "be positive"),
            ("data_std", self.data_std > 0, "be positive"),
            ("data_classes", self.data_classes >= 2, "be at least 2"),
            ("data_majority", self.data_majority >= 1, "be positive"),
            ("data_minority", self.data_minority >= 1, "be positive"),
            ("data_test_count", self.data_test_count >= 1, "be positive"),
            ("model_hidden", all(w >= 1 for w in self.model_hidden), "list positive widths"),
            (
                "model_hidden",
                bool(self.model_hidden) or self.train_loss != "uncertainty-weighted",
                "name a layer for the dropout ensemble of train.loss=uncertainty-weighted",
            ),
            ("train_epochs_softmax", self.train_epochs_softmax >= 0, "be nonnegative"),
            ("train_epochs_umm", self.train_epochs_umm >= 0, "be nonnegative"),
            ("train_epochs_sum", self.train_epochs_sum >= 0, "be nonnegative"),
            ("train_lr", self.train_lr > 0, "be positive"),
            ("train_weight_decay", self.train_weight_decay >= 0, "be nonnegative"),
            ("train_batch_size", self.train_batch_size >= 1, "be positive"),
            ("train_margin", 1 <= self.train_margin <= M_MAX, f"lie in [1, {M_MAX}]"),
            ("train_uncertainty_scale", self.train_uncertainty_scale > 0, "be positive"),
            ("train_margin_blend", 0 < self.train_margin_blend <= 1, "lie in (0, 1]"),
            ("ensemble_passes", self.ensemble_passes >= 2, "be at least 2"),
            ("ensemble_dropout", 0 < self.ensemble_dropout < 1, "lie in (0, 1)"),
            ("ensemble_tau", self.ensemble_tau > 0, "be positive"),
            ("cluster_lambda", self.cluster_lambda > 0, "be positive"),
            ("cluster_s", self.cluster_s > 2, "exceed 2"),
            ("cluster_alpha", 0 < self.cluster_alpha <= 1, "lie in (0, 1]"),
            ("cluster_weight", self.cluster_weight >= 0, "be nonnegative"),
        ]:
            if not ok:
                key = name.replace("_", ".", 1)
                raise ConfigurationError(f"{key} must {rule}, got {getattr(self, name)!r}")


@dataclass
class EpochRecord:
    epoch: int
    phase: int
    loss: float
    accuracy: float
    bca: float
    g_mean: float
    recalls: np.ndarray


@dataclass
class TrainState:
    """Everything training carries from one phase into the next.

    ``phase`` is the last phase run (0 before the first); ``cluster`` holds
    the hybrid-cluster centers once phase 2 has started them; ``records``
    holds one record per epoch run, so its length is the next epoch's index.
    """

    model: MlpModel
    shuffle: np.random.Generator
    dropout: np.random.Generator
    ensemble: np.random.Generator
    cluster: ClusterState | None = None
    phase: int = 0
    records: list[EpochRecord] = field(default_factory=list)


def _own_class_probability(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's softmax probability of its own class, with max subtraction.

    Exponentiates in place: ``logits`` is overwritten.
    """
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    return logits[np.arange(labels.size), labels] / logits.sum(axis=1)


def ensemble_class_uncertainty(
    model: MlpModel, dataset: Dataset, cfg: RunConfig, mask_seed: int
) -> np.ndarray:
    """Per-class uncertainty from the dropout ensemble that ``cfg.ensemble_*`` describe.

    Each of the ``ensemble.passes`` passes applies one sampled sub-network,
    with keep-probability ``ensemble.dropout``, to every input. The ensemble
    outputs are the predictive probabilities (softmax of the logits). A
    sample's uncertainty is the variance across passes of its own-class
    probability plus the 1/``ensemble.tau`` floor: it vanishes, down to the
    floor, for samples the model is consistently sure about and peaks where
    sub-networks disagree, which is what makes the per-class average track
    class rarity.
    """
    labels = dataset.labels
    own = np.empty((cfg.ensemble_passes, labels.size))
    for row, (_, logits) in zip(own, _ensemble_passes(model, dataset.features, cfg, mask_seed)):
        row[:] = _own_class_probability(logits, labels)
    _, variance = sample_feature_moments(own)
    return class_uncertainty(variance + 1.0 / cfg.ensemble_tau, labels, dataset.n_classes)


def _ensemble_passes(model: MlpModel, x: np.ndarray, cfg: RunConfig, seed: int):
    """Yield (feature, logits) of each dropout sub-network over ``x``, one at a time.

    The passes share their buffers (see ``_passes``), so the ensemble holds
    one pass's activations at a time, however many passes it makes.
    """
    widths = model.layer_widths
    if not widths:
        raise ConfigurationError("dropout ensembles need at least one hidden layer")
    masks = sample_dropout_masks(cfg.ensemble_passes, cfg.ensemble_dropout, widths, seed)
    return _passes(model, x, masks)


def _refresh_margins(model: MlpModel, dataset: Dataset, cfg: RunConfig, rng: np.random.Generator) -> None:
    # A class uncertainty is a probability variance plus 1/tau, at most
    # 0.25 + 1/tau, while the map max(1, floor(0.5 u)) first exceeds 1 at
    # u = 4: at the default gain of 1 every margin is 1 (the m = 1 loss), and
    # train.uncertainty_scale is the gain that reaches the larger margins.
    seed = int(rng.integers(0, 2**63))
    u = ensemble_class_uncertainty(model, dataset, cfg, seed)
    model.classifier.class_uncertainty = u
    model.classifier.margins = np.array(
        [class_margin_from_uncertainty(cfg.train_uncertainty_scale * float(v)) for v in u],
        dtype=np.int64,
    )


def _init_cluster_state(model: MlpModel, dataset: Dataset, cfg: RunConfig) -> ClusterState:
    """Centers at the per-class means of the dropout-free features."""
    feats = forward(model, dataset.features).feature
    centers = np.empty((dataset.n_classes, model.feature_dim))
    global_mean = feats.mean(axis=0)
    for k in range(dataset.n_classes):
        rows = feats[dataset.labels == k]
        centers[k] = rows.mean(axis=0) if rows.shape[0] else global_mean
    return ClusterState(centers, lam=cfg.cluster_lambda, s=cfg.cluster_s, alpha=cfg.cluster_alpha)


def _batch_ccdfs(
    model: MlpModel, xb: np.ndarray, yb: np.ndarray, cfg: RunConfig, rng: np.random.Generator
) -> np.ndarray:
    """Per-sample misclassification probabilities from ensemble feature moments."""
    passes = _ensemble_passes(model, xb, cfg, int(rng.integers(0, 2**63)))
    feats = np.empty((xb.shape[0], cfg.ensemble_passes, model.feature_dim))
    for p, (feature, _) in enumerate(passes):
        feats[:, p] = feature  # a copy: the next pass overwrites the shared buffer
    state = model.classifier
    mu_f, sigma_f = sample_feature_moments(feats)
    rivals = rival_class(state, mu_f, yb)
    mu_e, var_e = error_moments(state.weights[rivals], state.weights[yb], mu_f, sigma_f)
    return misclassification_ccdf(mu_e, var_e)


def _sample_weights(ccdfs: np.ndarray) -> np.ndarray:
    """Per-sample true-class weight for the final phase: P(correct) = 1 - CCDF.

    Confident samples keep their full margin term (weight 1); samples likely
    to be misclassified get a down-scaled true-class term, i.e. a stricter
    effective margin, which matches the stated behavior of the re-weighting
    (stricter penalty for more uncertain samples) and leaves the loss equal
    to the plain softmax in the zero-uncertainty, unit-margin limit.
    """
    return 1.0 - ccdfs


def _epoch_record(
    model: MlpModel, dataset: Dataset, epoch: int, phase: int, mean_loss: float
) -> EpochRecord:
    preds = evaluate(model, dataset)
    counts = metrics_mod.ConfusionCounts.from_predictions(dataset.labels, preds, dataset.n_classes)
    accuracy = float(np.mean(preds == dataset.labels))
    return EpochRecord(
        epoch=epoch,
        phase=phase,
        loss=mean_loss,
        accuracy=accuracy,
        bca=metrics_mod.bca(counts),
        g_mean=metrics_mod.g_mean(counts),
        recalls=metrics_mod.precision_recall_f1(counts).recall,
    )


def train(
    model: MlpModel, dataset: Dataset, cfg: RunConfig, eval_dataset: Dataset | None = None
) -> tuple[MlpModel, list[EpochRecord]]:
    """Train ``model`` in place through the curriculum; returns (model, log). See ``train_runs``."""
    return next(train_runs(model, dataset, [cfg], eval_dataset))


def train_runs(model: MlpModel, dataset: Dataset, cfgs, eval_dataset: Dataset | None = None):
    """Yield (model, log) of one run per config of ``cfgs``, in order, each from the initial ``model``.

    Fully deterministic per (seed, config, dataset): every random draw comes
    from a named stream under cfg.seed. Raises TrainingDivergenceError when
    a batch loss is non-finite or exceeds ``MAX_LOSS``. A run resumes from
    the deepest phase boundary that an earlier run of the call reached with
    its key (see the module docstring), bit-identically. A state is copied
    only for a later run that resumes from it; the initial model likewise,
    and the last run that trains its own phase 1 trains ``model`` itself.
    """
    if dataset.n_samples == 0:
        raise DimensionError("training dataset is empty")
    if dataset.n_classes != model.n_classes:
        raise DimensionError("dataset class count does not match the model")
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    cfgs = list(cfgs)
    keys = [
        {
            PHASE_SOFTMAX: replace(cfg, train_loss="softmax", train_epochs_umm=0, train_epochs_sum=0),
            PHASE_CLASS_MARGIN: replace(cfg, train_epochs_sum=0),
        }
        for cfg in cfgs
    ]
    starts, reached = [], set()  # the key each run resumes from; None: the initial model
    for run_keys in keys:
        starts.append(next((key for key in reversed(run_keys.values()) if key in reached), None))
        reached.update(run_keys.values())

    kept = {}  # boundary states that a later run resumes from
    for i, cfg in enumerate(cfgs):
        start, later = starts[i], starts[i + 1 :]
        if start is None:
            streams = (stream_rng(cfg.seed, name) for name in ("shuffle", "dropout", "ensemble"))
            state = TrainState(copy.deepcopy(model) if None in later else model, *streams)
        else:
            state = copy.deepcopy(kept[start]) if start in later else kept.pop(start)
        epochs = (cfg.train_epochs_softmax, cfg.train_epochs_umm, cfg.train_epochs_sum)
        for phase in range(state.phase + 1, PHASE_SAMPLE_WEIGHT + 1):
            _run_phase(state, phase, epochs[phase - 1], dataset, cfg, eval_ds)
            key = keys[i].get(phase)
            # a softmax run without phase-2 epochs reaches its phase-1 key twice
            if key is not None and key in later and key not in kept:
                kept[key] = copy.deepcopy(state)
        yield state.model, state.records


def _run_phase(
    state: TrainState, phase: int, n_epochs: int, dataset: Dataset, cfg: RunConfig, eval_ds: Dataset
) -> None:
    """Advance ``state`` through ``n_epochs`` epochs of ``phase``, in place."""
    model = state.model
    if phase >= PHASE_CLASS_MARGIN and n_epochs:
        # refresh at the phase boundary only: re-measuring while the margins
        # are already active feeds the flicker they cause back into
        # ever-larger margins
        if cfg.train_loss == "uncertainty-weighted":
            _refresh_margins(model, dataset, cfg, state.ensemble)
        if cfg.train_loss == "hybrid-cluster" and state.cluster is None:
            state.cluster = _init_cluster_state(model, dataset, cfg)
    n = dataset.n_samples
    for _ in range(n_epochs):
        order = state.shuffle.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.train_batch_size):
            idx = order[start : start + cfg.train_batch_size]
            xb = dataset.features[idx]
            yb = dataset.labels[idx]
            # per-sample masks, standard SGD dropout
            masks = dropout_masks(state.dropout, cfg.ensemble_dropout, model.layer_widths, (idx.size,))
            cache = forward(model, xb, masks)
            value, grad_feature, grad_classifier = _batch_loss(state, cache, xb, yb, cfg, phase)
            if not np.isfinite(value) or value > MAX_LOSS:
                raise TrainingDivergenceError(f"loss {value!r} diverged", len(state.records))
            grads = backward(model, cache, grad_feature, grad_classifier)
            sgd_step(model, grads, cfg.train_lr, cfg.train_weight_decay)
            loss_sum += value * idx.size
        state.records.append(_epoch_record(model, eval_ds, len(state.records), phase, loss_sum / n))
    state.phase = phase


def _batch_loss(
    state: TrainState, cache: ForwardCache, xb: np.ndarray, yb: np.ndarray, cfg: RunConfig, phase: int
):
    """Loss value and gradients for one batch under the phase/selector rules.

    For ``hybrid-cluster`` this also takes the batch's center step, in place
    on ``state.cluster``: the damped moving average, then the gradient step
    on the center-separation terms.
    """
    clf, feats = state.model.classifier, cache.feature
    loss, blend = cfg.train_loss, cfg.train_margin_blend
    if phase == PHASE_SOFTMAX or loss in ("softmax", "hybrid-cluster"):
        res = softmax_loss(clf, feats, yb)
    elif loss == "large-margin":
        res = large_margin_softmax_loss(clf, feats, yb, cfg.train_margin, blend=blend)
    elif loss == "uncertainty-weighted" and phase == PHASE_CLASS_MARGIN:
        res = large_margin_softmax_loss(clf, feats, yb, clf.margins[yb], blend=blend)
    elif loss == "uncertainty-weighted":
        weights = _sample_weights(_batch_ccdfs(state.model, xb, yb, cfg, state.ensemble))
        res = uncertainty_weighted_margin_loss(clf, feats, yb, clf.margins[yb], weights, blend=blend)
    else:  # angular-i or angular-ii; RunConfig admits no other selector
        res = angular_margin_loss(clf, feats, yb, variant=loss.removeprefix("angular-"))
    value, grad_feature = res.value, res.grad_feature

    cluster = state.cluster
    if cluster is not None:  # hybrid-cluster, from phase 2 on
        scale = cfg.cluster_weight / feats.shape[0]
        cl_value, cl_grad, grad_centers = hybrid_loss(cluster, feats, yb)
        value += scale * cl_value
        grad_feature = grad_feature + scale * cl_grad
        cluster.centers = update_centers(cluster, feats, yb)
        cluster.centers -= cfg.train_lr * scale * grad_centers
    return value, grad_feature, res.grad_weights


def save_model(model: MlpModel, path) -> None:
    """Persist all parameters as an .npz archive; ``path`` may be a binary file handle."""
    arrays = {
        "n_hidden": np.array(len(model.hidden_weights), dtype=np.int64),
        "classifier_weights": model.classifier.weights,
        "margins": model.classifier.margins,
        "class_uncertainty": model.classifier.class_uncertainty,
    }
    for i, (w, b) in enumerate(zip(model.hidden_weights, model.hidden_biases)):
        arrays[f"hidden_w{i}"] = w
        arrays[f"hidden_b{i}"] = b
    np.savez(path, **arrays)


def load_model(path) -> MlpModel:
    """Inverse of ``save_model``.

    A file that is not an .npz archive, lacks an array, stores an ``n_hidden``
    that is not a nonnegative integer, a hidden layer with no units or with
    non-numeric or non-finite weights or biases, or shapes that do not chain from the input
    through the hidden layers into the classifier raises
    ``ConfigurationError`` naming the file and the array.
    """
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # not .npy, .npz or a complete zip
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigurationError(f"{path} is not an .npz model archive")

    def array(name: str, ndim: int) -> np.ndarray:
        if name not in archive.files:
            raise ConfigurationError(f"{path} has no array {name}")
        arr = np.array(archive[name])
        if arr.ndim != ndim:
            raise ConfigurationError(f"{path}: {name} has shape {arr.shape}, expected {ndim}-D")
        return arr

    with archive:
        n_hidden = array("n_hidden", 0)
        if n_hidden.dtype.kind not in "iu" or n_hidden < 0:
            raise ConfigurationError(f"{path}: n_hidden is {n_hidden}, not a nonnegative integer")
        weights = [array(f"hidden_w{i}", 2) for i in range(n_hidden)]
        biases = [array(f"hidden_b{i}", 1) for i in range(n_hidden)]
        head = array("classifier_weights", 2)
        margins = array("margins", 1)
        uncertainty = array("class_uncertainty", 1)
    fan_in = weights[0].shape[1] if weights else head.shape[1]
    expected = []  # (name, stored shape, shape that chains)
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape[0] == 0:
            raise ConfigurationError(f"{path}: hidden_w{i} has shape {w.shape}, a layer with no units")
        for name, arr in ((f"hidden_w{i}", w), (f"hidden_b{i}", b)):
            if arr.dtype.kind not in "fiu" or not np.isfinite(arr).all():
                raise ConfigurationError(f"{path}: {name} has non-numeric or non-finite entries")
        expected += [
            (f"hidden_w{i}", w.shape, (w.shape[0], fan_in)),
            (f"hidden_b{i}", b.shape, w.shape[:1]),
        ]
        fan_in = w.shape[0]
    c = head.shape[0]
    expected += [
        ("classifier_weights", head.shape, (c, fan_in)),
        ("margins", margins.shape, (c,)),
        ("class_uncertainty", uncertainty.shape, (c,)),
    ]
    for name, shape, want in expected:
        if shape != want:
            raise ConfigurationError(f"{path}: {name} has shape {shape}, expected {want}")
    try:
        state = ClassifierState(head, margins, uncertainty)
    except ValueError as exc:  # too few classes, non-finite weights, margins out of range
        raise ConfigurationError(f"{path}: {exc}") from None
    return MlpModel(weights, biases, state)
