"""Dropout-ensemble predictive moments and misclassification probabilities.

An N-member ensemble is formed by running the same network under N
independent Bernoulli keep-masks. A sample's uncertainty is the variance
across the passes of its own-class output, plus the precision floor; the
class uncertainty averages it over each class. At the sample level, features
are modeled as a diagonal Gaussian whose moments feed a closed-form
misclassification probability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, LabelError, ParameterError
from .margin_loss import ClassifierState

logger = logging.getLogger(__name__)

_erf = np.vectorize(math.erf, otypes=[np.float64])


@dataclass(frozen=True)
class EnsembleConfig:
    """Monte-Carlo dropout ensemble parameters.

    dropout_rate is the keep-probability: each unit stays active with this
    probability and kept activations are scaled by its inverse, so the
    rate -> 1 limit is the deterministic network. precision is tau; its
    inverse is the variance floor added to every sample's own-class variance.
    A variance needs at least two passes.
    """

    n_passes: int = 10
    dropout_rate: float = 0.5
    precision: float = 100.0

    def __post_init__(self):
        if self.n_passes < 2:
            raise ConfigurationError(f"n_passes must be at least 2, got {self.n_passes!r}")
        if not 0.0 < self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must lie in (0, 1), got {self.dropout_rate!r}"
            )
        if self.precision <= 0:
            raise ConfigurationError(f"precision must be positive, got {self.precision!r}")


def sample_dropout_masks(
    cfg: EnsembleConfig, layer_widths, rng_seed: int
) -> list[list[np.ndarray]]:
    """N independent mask collections, one 0/1 float vector per layer.

    Each unit is kept independently with probability ``cfg.dropout_rate``;
    the draw is fully determined by ``rng_seed``.
    """
    widths = [int(w) for w in layer_widths]
    if any(w <= 0 for w in widths):
        raise ParameterError(f"layer widths must be positive, got {widths!r}")
    rng = np.random.default_rng(rng_seed)
    p = cfg.dropout_rate
    return [
        [(rng.random(w) < p).astype(np.float64) for w in widths]
        for _ in range(cfg.n_passes)
    ]


def class_uncertainty(values, labels, n_classes: int) -> np.ndarray:
    """Per-class mean of each sample's own-class uncertainty ``values`` (B,).

    Classes with no samples receive the global mean and are logged. Values
    are summed in sorted order so the result is independent of sample order.
    """
    own = np.asarray(values, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.int64)
    if own.ndim != 1 or labs.shape != own.shape:
        raise DimensionError("values and labels must be 1-D with one entry per sample")
    if labs.size and (labs.min() < 0 or labs.max() >= n_classes):
        raise LabelError("label out of range")
    global_mean = float(np.sort(own).mean()) if own.size else 0.0
    result = np.empty(n_classes, dtype=np.float64)
    for k in range(n_classes):
        vals = own[labs == k]
        if vals.size == 0:
            logger.warning("class %d has no samples; using the global mean uncertainty", k)
            result[k] = global_mean
        else:
            result[k] = np.sort(vals).mean()
    return result


def sample_feature_moments(feature_stack) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and biased (1/N) variance of N stacked feature vectors.

    ``feature_stack`` is (N, d), or (B, N, d) for a batch of samples; the
    moments are (d,) or (B, d).
    """
    stack = np.asarray(feature_stack, dtype=np.float64)
    if stack.ndim not in (2, 3):
        raise DimensionError(f"feature_stack must be (N, d) or (B, N, d), got shape {stack.shape}")
    if stack.shape[-2] < 2:
        raise ConfigurationError("feature moments need at least two ensemble passes")
    mu = stack.mean(axis=-2)
    sigma = np.mean((stack - mu[..., None, :]) ** 2, axis=-2)
    return mu, sigma


def error_moments(w_j, w_y, mu_f, sigma_f) -> tuple[np.ndarray, np.ndarray]:
    """Moments of the error variable (w_j - w_y) . f for a diagonal Gaussian f.

    All four inputs are (d,), or (B, d) with one row per sample.
    """
    w_j, w_y, mu_f, sigma_f = (np.asarray(v, dtype=np.float64) for v in (w_j, w_y, mu_f, sigma_f))
    if not w_j.shape == w_y.shape == mu_f.shape == sigma_f.shape or w_j.ndim not in (1, 2):
        raise DimensionError("error_moments requires equal-shape (d,) or (B, d) inputs")
    diff = w_j - w_y
    mu_e = (diff[..., None, :] @ mu_f[..., :, None])[..., 0, 0]  # one dot product per row
    var_e = np.sum(diff * diff * sigma_f, axis=-1)
    return mu_e[()], var_e[()]


def misclassification_ccdf(mu_e, var_e):
    """P(error > 0) = 0.5 (1 + erf(mu_E / sqrt(2 sigma_E^2))), elementwise.

    A zero variance degenerates to the pointwise limit: a step at mu_E = 0
    with value 0.5 at the step itself. ``math.erf`` is applied per element:
    it is correctly rounded, and numpy has no erf.
    """
    mu_e = np.asarray(mu_e, dtype=np.float64)
    var_e = np.asarray(var_e, dtype=np.float64)
    if np.any(var_e < 0):
        raise ParameterError(f"variance must be nonnegative, got {var_e!r}")
    erfs = _erf(mu_e / np.sqrt(2.0 * np.where(var_e > 0, var_e, 1.0)))
    step = np.where(mu_e > 0, 1.0, np.where(mu_e < 0, 0.0, 0.5))
    return np.where(var_e > 0, 0.5 * (1.0 + erfs), step)[()]


def rival_class(state: ClassifierState, mu_f, y):
    """Strongest rival argmax_{j != y} w_j . mu_f, ties broken by lowest index.

    ``mu_f`` is (d,) with an integer ``y``, or (B, d) with one label per row.
    """
    mu_f = np.asarray(mu_f, dtype=np.float64)
    y = np.asarray(y)
    if mu_f.shape[:-1] != y.shape or mu_f.shape[-1:] != (state.feature_dim,):
        raise DimensionError("rival_class needs one label per mean feature row")
    if np.any(y < 0) or np.any(y >= state.n_classes):
        raise LabelError(f"label {y} out of range")
    scores = mu_f @ state.weights.T
    np.put_along_axis(scores, y[..., None], -np.inf, axis=-1)
    return np.argmax(scores, axis=-1)[()]
