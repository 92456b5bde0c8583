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
from .cluster_loss import ClusterState, _hybrid_batch
from .data import Dataset
from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .margin_loss import (
    _VARIANTS,
    ClassifierState,
    _psi,
    _softmax,
    _true_class_loss,
    class_margin_from_uncertainty,
)
from .numerics import M_MAX, as_labels, as_matrix, as_vector
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
    """Hidden layers (with biases) plus the bias-free classifier head.

    Construction checks the architecture rule: finite float64 layers
    ``hidden_w{i}`` and ``hidden_b{i}`` (named as the archive names them),
    one bias vector per weight matrix, no empty axis, each layer's fan-in
    equal to the previous width and the head's columns equal to the last
    width. A violation raises a ``ValueError`` that names the array.
    """

    hidden_weights: list[np.ndarray]
    hidden_biases: list[np.ndarray]
    classifier: ClassifierState

    def __post_init__(self):
        if len(self.hidden_biases) != len(self.hidden_weights):
            raise DimensionError("one bias vector per hidden weight matrix is required")
        self.hidden_weights = [as_matrix(w, f"hidden_w{i}") for i, w in enumerate(self.hidden_weights)]
        self.hidden_biases = [as_vector(b, f"hidden_b{i}") for i, b in enumerate(self.hidden_biases)]
        widths, head = [self.input_dim, *self.layer_widths], self.classifier.weights.shape
        # (name, shape, the shape that chains from the input through the layers)
        shapes = [
            (f"hidden_w{i}", w.shape, (w.shape[0], widths[i])) for i, w in enumerate(self.hidden_weights)
        ]
        shapes += [(f"hidden_b{i}", b.shape, (widths[i + 1],)) for i, b in enumerate(self.hidden_biases)]
        for name, shape, want in shapes + [("classifier_weights", head, (head[0], widths[-1]))]:
            if 0 in shape:
                raise DimensionError(f"{name} has shape {shape}, an empty axis")
            if shape != want:
                raise DimensionError(f"{name} has shape {shape}, expected {want}")

    @classmethod
    def init(
        cls, input_dim: int, hidden_widths, n_classes: int, rng: np.random.Generator
    ) -> "MlpModel":
        """Fan-in-scaled uniform initialization, deterministic per generator."""
        dims = [input_dim, *hidden_widths]
        weights = [np.zeros((w, fan_in)) for fan_in, w in zip(dims, dims[1:])]
        biases = [np.zeros(w) for w in dims[1:]]
        model = cls(weights, biases, ClassifierState(np.zeros((n_classes, dims[-1]))))
        for w in [*model.hidden_weights, model.classifier.weights]:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
        return model

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
    return _forward(model, arr, list(masks) if masks is not None else None)


def _forward(model: MlpModel, x: np.ndarray, masks) -> ForwardCache:
    act = [np.empty((x.shape[0], w)) for w in model.layer_widths]
    return ForwardCache(x=x, act=act, masks=masks, feature=_pass(model, x, masks, act))


def _buffers(model: MlpModel, n_rows: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Uninitialized hidden-layer and logit buffers for passes over ``n_rows`` rows."""
    return [np.empty((n_rows, w)) for w in model.layer_widths], np.empty((n_rows, model.n_classes))


def backward(model: MlpModel, cache: ForwardCache, grad_feature, grad_classifier=None) -> Gradients:
    """Exact reverse-mode gradients for the hidden stack.

    ``grad_feature`` is dLoss/d(penultimate feature), already carrying any
    batch averaging; ``grad_classifier`` is passed through untouched.
    """
    delta = np.asarray(grad_feature, dtype=np.float64)
    if delta.shape != cache.feature.shape:
        raise DimensionError("grad_feature must match the cached feature shape")
    if grad_classifier is None:
        grad_classifier = np.zeros_like(model.classifier.weights)
    return _backward(model, cache, delta, grad_classifier)


def _backward(model: MlpModel, cache: ForwardCache, delta: np.ndarray, grad_classifier) -> Gradients:
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
        if layer:  # the gradient of the input itself is not needed
            delta = delta @ model.hidden_weights[layer]
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
    x = _input_matrix(model, dataset.features)
    return _predict(model, x, *_buffers(model, x.shape[0]))


def _predict(model: MlpModel, x: np.ndarray, hidden, logits) -> np.ndarray:
    """``evaluate`` on the checked ``x``, through the caller's ``_buffers``."""
    np.matmul(_pass(model, x, None, hidden), model.classifier.weights.T, out=logits)
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
    labels, x = dataset.labels, _input_matrix(model, dataset.features)
    own = np.empty((cfg.ensemble_passes, labels.size))
    for row, (_, logits) in zip(own, _ensemble_passes(model, x, cfg, mask_seed)):
        row[:] = _own_class_probability(logits, labels)
    _, variance = sample_feature_moments(own)
    return class_uncertainty(variance + 1.0 / cfg.ensemble_tau, labels, dataset.n_classes)


def _ensemble_passes(model: MlpModel, x: np.ndarray, cfg: RunConfig, seed: int):
    """Yield (feature, logits) of each dropout sub-network over the checked ``x``, one at a time.

    The passes share their buffers, allocated once per call: the ensemble holds one
    pass's activations at a time, and a caller that keeps them past the next pass copies them.
    """
    widths = model.layer_widths
    if not widths:
        raise ConfigurationError("dropout ensembles need at least one hidden layer")
    hidden, logits = _buffers(model, x.shape[0])
    for masks in sample_dropout_masks(cfg.ensemble_passes, cfg.ensemble_dropout, widths, seed):
        feature = _pass(model, x, masks, hidden)
        np.matmul(feature, model.classifier.weights.T, out=logits)
        yield feature, logits


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
    model: MlpModel, dataset: Dataset, buffers, epoch: int, phase: int, mean_loss: float
) -> EpochRecord:
    preds = _predict(model, dataset.features, *buffers)
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
    # the only checks of the run: a Dataset built field by field skips from_arrays
    labels = as_labels(dataset.labels, (dataset.n_samples,), model.n_classes)
    dataset = replace(dataset, features=_input_matrix(model, dataset.features), labels=labels)
    eval_ds = replace(eval_ds, features=_input_matrix(model, eval_ds.features))
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
    """Advance ``state`` through ``n_epochs`` epochs of ``phase``, in place, by unchecked kernels."""
    model = state.model
    if phase >= PHASE_CLASS_MARGIN and n_epochs:
        # refresh at the phase boundary only: re-measuring while the margins
        # are already active feeds the flicker they cause back into
        # ever-larger margins
        if cfg.train_loss == "uncertainty-weighted":
            _refresh_margins(model, dataset, cfg, state.ensemble)
        if cfg.train_loss == "hybrid-cluster" and state.cluster is None:
            state.cluster = _init_cluster_state(model, dataset, cfg)
    n, eval_buffers = dataset.n_samples, _buffers(model, eval_ds.n_samples)
    for _ in range(n_epochs):
        order = state.shuffle.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.train_batch_size):
            idx = order[start : start + cfg.train_batch_size]
            xb = dataset.features[idx]
            yb = dataset.labels[idx]
            # per-sample masks, standard SGD dropout
            masks = dropout_masks(state.dropout, cfg.ensemble_dropout, model.layer_widths, (idx.size,))
            cache = _forward(model, xb, masks)
            value, grad_feature, grad_classifier = _batch_loss(state, cache, yb, cfg, phase)
            if not np.isfinite(value) or value > MAX_LOSS:
                raise TrainingDivergenceError(f"loss {value!r} diverged", len(state.records))
            grads = _backward(model, cache, grad_feature, grad_classifier)
            sgd_step(model, grads, cfg.train_lr, cfg.train_weight_decay)
            loss_sum += value * idx.size
        record = _epoch_record(model, eval_ds, eval_buffers, len(state.records), phase, loss_sum / n)
        state.records.append(record)
    state.phase = phase


def _batch_loss(state: TrainState, cache: ForwardCache, yb: np.ndarray, cfg: RunConfig, phase: int):
    """Loss value and gradients for one checked batch under the phase/selector rules.

    For ``hybrid-cluster`` this also takes the batch's center step, in place
    on ``state.cluster``: the damped moving average, then the gradient step
    on the center-separation terms.
    """
    clf, feats = state.model.classifier, cache.feature
    loss = cfg.train_loss
    if phase == PHASE_SOFTMAX or loss in ("softmax", "hybrid-cluster"):
        res = _softmax(clf, feats, yb)
    elif loss in ("angular-i", "angular-ii"):
        res = _true_class_loss(clf, feats, yb, _VARIANTS[loss.removeprefix("angular-")])
    else:  # large-margin or uncertainty-weighted; RunConfig admits no other selector
        m = cfg.train_margin if loss == "large-margin" else clf.margins[yb]
        weight = 1.0
        if loss == "uncertainty-weighted" and phase == PHASE_SAMPLE_WEIGHT:
            weight = _sample_weights(_batch_ccdfs(state.model, cache.x, yb, cfg, state.ensemble))
        res = _true_class_loss(clf, feats, yb, lambda c: _psi(c, m), weight, cfg.train_margin_blend)
    value, grad_feature = res.value, res.grad_feature

    if state.cluster is not None:  # hybrid-cluster, from phase 2 on
        scale = cfg.cluster_weight / feats.shape[0]
        cl_value, cl_grad = _hybrid_batch(state.cluster, feats, yb, cfg.train_lr * scale)
        value += scale * cl_value
        grad_feature = grad_feature + scale * cl_grad
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
    """Inverse of ``save_model``: read the archive, then build the model through its rules.

    The archive holds the integer scalar ``n_hidden`` >= 0, the 2-D ``hidden_w{i}``
    and 1-D ``hidden_b{i}`` for i < ``n_hidden``, the 2-D ``classifier_weights``
    and the 1-D ``margins`` and ``class_uncertainty``, all numeric. A file that is
    not an .npz archive, an array that is missing, unreadable (pickled or damaged),
    of another rank or of a non-numeric dtype, or arrays that break the rules of
    ``MlpModel`` and ``ClassifierState`` raise ``ConfigurationError`` naming the
    file and the array.
    """
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # not .npy, .npz or a complete zip
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigurationError(f"{path} is not an .npz model archive")

    def array(name: str, ndim: int) -> np.ndarray:
        try:
            arr = archive[name]
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:  # missing, pickled, or damaged
            raise ConfigurationError(f"{path}: cannot read array {name}: {exc}") from None
        if arr.ndim != ndim:
            raise ConfigurationError(f"{path}: {name} has shape {arr.shape}, expected {ndim}-D")
        if arr.dtype.kind not in "fiu":
            raise ConfigurationError(f"{path}: {name} has dtype {arr.dtype}, not a numeric one")
        return arr

    with archive:
        n_hidden = array("n_hidden", 0)
        if n_hidden.dtype.kind not in "iu" or n_hidden < 0:
            raise ConfigurationError(f"{path}: n_hidden is {n_hidden}, not a nonnegative integer")
        weights = [array(f"hidden_w{i}", 2) for i in range(n_hidden)]
        biases = [array(f"hidden_b{i}", 1) for i in range(n_hidden)]
        classifier = (array("classifier_weights", 2), array("margins", 1), array("class_uncertainty", 1))
    try:
        return MlpModel(weights, biases, ClassifierState(*classifier))
    except ValueError as exc:  # the rules of MlpModel and ClassifierState
        raise ConfigurationError(f"{path}: {exc}") from None
