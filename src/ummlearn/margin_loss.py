"""Softmax-family losses with angular margins and exact analytic gradients.

The classifier is a bias-free linear layer whose rows act as
class-representative vectors. Every loss takes a batch, ``features`` (B, d)
and integer ``labels`` (B,), and returns the batch-mean value together with
the gradients for the weight rows and for every feature row, so the losses
can sit on top of any feature extractor.

The margin losses replace the true-class logit ``w_y . f`` with
``||w_y|| ||f|| psi(alpha_y)`` where ``psi`` is a piecewise angular
transform built from cos(m*alpha); cos(m*alpha) itself is evaluated as a
Chebyshev polynomial in cos(alpha) so the whole expression stays
differentiable in both ``w`` and ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateNormError, DimensionError, ParameterError
from .numerics import M_MAX, DenseMatrix, as_labels, as_matrix, as_vector, chebyshev, log_sum_exp_rows

# Keep cos(alpha) strictly inside (-1, 1); at the poles the angular
# factorization has unbounded derivatives.
_COS_CLIP = 1.0 - 1e-12
# A weight row shorter than this signals degenerate training and raises; a
# feature row shorter than this takes the plain softmax loss.
NORM_FLOOR = 1e-10


@dataclass
class ClassifierState:
    """Class-representative vectors with per-class margins and uncertainties.

    weights: (C, d) matrix, row j is the representative vector of class j.
    margins: per-class integer margins in [1, M_MAX].
    class_uncertainty: per-class nonnegative uncertainty scalars.
    """

    weights: DenseMatrix
    margins: np.ndarray | None = None
    class_uncertainty: np.ndarray | None = None

    def __post_init__(self):
        self.weights = as_matrix(self.weights, "weights")
        c = self.weights.shape[0]
        if c < 2:
            raise DimensionError("a classifier needs at least two classes")
        if self.margins is None:
            self.margins = np.ones(c, dtype=np.int64)
        else:
            margins = np.asarray(self.margins, dtype=np.float64)
            if margins.shape != (c,):
                raise DimensionError("margins must have one entry per class")
            if not np.all((margins >= 1) & (margins <= M_MAX) & (margins == np.floor(margins))):
                raise ParameterError(f"margins must be integers in [1, {M_MAX}]")
            self.margins = margins.astype(np.int64)
        if self.class_uncertainty is None:
            self.class_uncertainty = np.zeros(c, dtype=np.float64)
        else:
            self.class_uncertainty = as_vector(self.class_uncertainty, "class_uncertainty")
            if self.class_uncertainty.shape != (c,):
                raise DimensionError("class_uncertainty must have one entry per class")
            if np.any(self.class_uncertainty < 0):
                raise ParameterError("class_uncertainty must be nonnegative")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class LossResult:
    """Batch-mean loss value with gradients for the classifier weights (C, d)
    and for the feature rows (B, d); row i of ``grad_feature`` already carries
    the 1/B of the mean."""

    value: float
    grad_weights: DenseMatrix
    grad_feature: DenseMatrix


def _check_batch(state: ClassifierState, features, labels) -> tuple[DenseMatrix, np.ndarray]:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != state.feature_dim:
        raise DimensionError(
            f"features must have shape (B, {state.feature_dim}), got {feats.shape}"
        )
    return feats, as_labels(labels, feats.shape[:1], state.n_classes)


def _per_row(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape not in ((), (n,)):
        raise DimensionError(f"{name} must be a scalar or one entry per row, got shape {arr.shape}")
    return arr


def _softmax_rows(logits: DenseMatrix, labs: np.ndarray) -> tuple[np.ndarray, DenseMatrix]:
    """Per-row softmax cross-entropy and its logit gradient p - onehot(y)."""
    rows = np.arange(labs.size)
    lse = log_sum_exp_rows(logits)
    resid = np.exp(logits - lse[:, None])
    resid[rows, labs] -= 1.0
    return lse - logits[rows, labs], resid


def softmax_loss(state: ClassifierState, features, labels) -> LossResult:
    """Batch-mean cross-entropy of the bias-free softmax over the logits ``w_j . f``."""
    feats, labs = _check_batch(state, features, labels)
    w = state.weights
    values, resid = _softmax_rows(feats @ w.T, labs)
    resid /= labs.size
    return LossResult(float(np.mean(values)), resid.T @ feats, resid @ w)


def _psi(c: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """psi as a function of c = cos(alpha): ((-1)^r T_m(c) - 2r, its d/dc).

    psi(alpha) = (-1)^r cos(m*alpha) - 2r is the piecewise angular margin
    transform. The segment index r = floor(m*alpha/pi) comes from arccos(c)
    and is clamped to m-1 at alpha = pi, so the endpoint stays inside the
    last segment. For m = 1 this is exactly cos(alpha).
    """
    t_val, t_der = chebyshev(c, m)  # also checks m
    r = np.minimum(np.floor(m * np.arccos(c) / np.pi), m - 1)
    sign = 1.0 - 2.0 * (r % 2)
    return sign * t_val - 2.0 * r, sign * t_der


def class_margin_from_uncertainty(u: float) -> int:
    """Integer margin max(1, floor(0.5 u)), clamped to M_MAX."""
    if not math.isfinite(u) or u < 0:
        raise ParameterError(f"uncertainty must be finite and nonnegative, got {u!r}")
    return min(max(1, int(math.floor(0.5 * u))), M_MAX)


def _true_class_loss(
    state: ClassifierState,
    feats: DenseMatrix,
    labs: np.ndarray,
    transform: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    weight=1.0,
    blend: float = 1.0,
) -> LossResult:
    """Batch-mean softmax loss whose true-class logits are ||w_y|| ||f|| weight T(cos alpha_y).

    ``transform`` maps the clipped cosines, one per row, to (T(c), T'(c));
    ``weight`` (scalar or one per row) scales the transform and is treated as
    a constant for gradients. Rival logits stay the plain dot products, since
    ||w_j|| ||f|| cos(alpha_j) = w_j . f.

    Each row's loss is (1 - blend) softmax + blend margin: the standard
    stabilizer for margin-enforcing softmax variants, which otherwise escape
    infeasible angular demands by collapsing the class vector norms. A row
    whose feature is numerically zero (relu plus dropout can produce one)
    takes the plain softmax loss: the angular factorization is undefined
    there, and every margin loss tends to softmax as the feature norm
    vanishes.
    """
    if not 0.0 < blend <= 1.0:
        raise ParameterError(f"blend must lie in (0, 1], got {blend!r}")
    w = state.weights
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms < NORM_FLOOR):
        j = int(np.argmin(norms))
        raise DegenerateNormError(f"weight row {j} has numerically zero norm")
    n = labs.size
    rows = np.arange(n)
    b = np.linalg.norm(feats, axis=1)
    live = b >= NORM_FLOOR
    b[~live] = 1.0  # a finite stand-in; these rows get no margin share below
    beta = np.where(live, blend, 0.0)
    a = norms[labs]
    ab = a * b
    wy = w[labs]

    logits = feats @ w.T
    soft_values, soft_resid = _softmax_rows(logits, labs)

    c_raw = logits[rows, labs] / ab
    c = np.clip(c_raw, -_COS_CLIP, _COS_CLIP)
    t_val, t_der = transform(c)
    t_val, t_der = weight * t_val, weight * t_der
    z_true = ab * t_val
    mod_logits = logits.copy()
    mod_logits[rows, labs] = z_true
    lse = log_sum_exp_rows(mod_logits)
    p = np.exp(mod_logits - lse[:, None])
    resid = p[rows, labs] - 1.0
    p[rows, labs] = 0.0  # the true row's gradient is resid * dz/dw_y, added below

    dz_dwy = (b * t_val / a)[:, None] * wy
    dz_df = (a * t_val / b)[:, None] * feats
    # c = (w_y . f) / (||w_y|| ||f||); inside the clip band c is constant,
    # matching the flat clamped region
    slope = np.where(np.abs(c_raw) > _COS_CLIP, 0.0, ab * t_der)[:, None]
    dz_dwy = dz_dwy + slope * (feats / ab[:, None] - (c / (a * a))[:, None] * wy)
    dz_df = dz_df + slope * (wy / ab[:, None] - (c / (b * b))[:, None] * feats)

    value = float(np.mean((1.0 - beta) * soft_values + beta * (lse - z_true)))
    logit_grad = ((1.0 - beta)[:, None] * soft_resid + beta[:, None] * p) / n
    true_coef = (beta * resid / n)[:, None]
    grad_w = logit_grad.T @ feats
    np.add.at(grad_w, labs, true_coef * dz_dwy)
    grad_f = logit_grad @ w + true_coef * dz_df
    return LossResult(value, grad_w, grad_f)


def large_margin_softmax_loss(
    state: ClassifierState, features, labels, m, blend: float = 1.0
) -> LossResult:
    """Margin-enforcing softmax: the true class must win by the angular factor m.

    ``m`` is an integer in [1, M_MAX], one for the batch or one per row.
    """
    feats, labs = _check_batch(state, features, labels)
    m = _per_row(m, labs.size, "margin")
    return _true_class_loss(state, feats, labs, lambda c: _psi(c, m), blend=blend)


def uncertainty_weighted_margin_loss(
    state: ClassifierState, features, labels, m, ccdf, blend: float = 1.0
) -> LossResult:
    """Margin softmax with the true-class term scaled by a per-row weight in [0, 1].

    ``ccdf`` (one for the batch or one per row) multiplies the full bracketed
    transform (including the -2r offset) and is treated as a constant for
    gradients. The trainer's final phase passes each sample's probability of
    being classified correctly, 1 - CCDF under its Gaussian feature model
    (``network._sample_weights``). At ccdf = 1 this is exactly
    ``large_margin_softmax_loss``.
    """
    feats, labs = _check_batch(state, features, labels)
    m = _per_row(m, labs.size, "margin")
    ccdf = _per_row(ccdf, labs.size, "ccdf").astype(np.float64)
    if not np.all((0.0 <= ccdf) & (ccdf <= 1.0)):
        raise ParameterError(f"ccdf must lie in [0, 1], got {ccdf!r}")
    return _true_class_loss(
        state, feats, labs, lambda c: _psi(c, m), weight=ccdf, blend=blend
    )


def _variant_i(c, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled cosine sqrt((1+a)/(a(1+(1-c^2)a))) * c and its d/dc; a = 2
    tracks the normalized triangle wave in the angle."""
    d = a * (1.0 + (1.0 - c * c) * a)
    k = np.sqrt((1.0 + a) / d)
    return k * c, k * (1.0 + a * a * c * c / d)


def _variant_ii(c, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle remap -cos(a sqrt((1+c)/2)) and its d/dc; a = 3 emphasizes
    misaligned pairs."""
    u = np.sqrt((1.0 + c) / 2.0)  # >= sqrt(5e-13) after cos clipping
    return -np.cos(a * u), a * np.sin(a * u) / (4.0 * u)


# angular-loss variant -> (transform of cos(alpha), its fixed shape parameter a)
_VARIANTS = {"i": (_variant_i, 2.0), "ii": (_variant_ii, 3.0)}


def angular_margin_loss(state: ClassifierState, features, labels, variant: str = "i") -> LossResult:
    """Softmax loss with the true-class cosine remapped by an angular variant."""
    if variant not in _VARIANTS:
        raise ParameterError(f"unknown angular variant {variant!r}")
    transform, a = _VARIANTS[variant]
    feats, labs = _check_batch(state, features, labels)
    return _true_class_loss(state, feats, labs, lambda c: transform(c, a))
