"""Shared test utilities: oracles, random-instance factories and MLP parameter vectors."""

import copy
import math

import numpy as np

from ummlearn.margin_loss import ClassifierState, softmax_loss
from ummlearn.network import backward, forward


def spearman(a, b) -> float:
    """Rank correlation without ties handling (inputs are generic floats)."""
    ra = np.argsort(np.argsort(np.asarray(a))).astype(float)
    rb = np.argsort(np.argsort(np.asarray(b))).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def normal_cdf_simpson(x: float, lo: float = -12.0, n: int = 40001) -> float:
    """Standard normal CDF by Simpson integration of the density."""
    t = np.linspace(lo, x, n)
    pdf = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    h = (x - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * pdf))


def fd_friendly(state, f, y, margin=None) -> bool:
    """Whether row (f, y) sits in the finite-difference-friendly regime:
    moderate logits (no saturated coordinates below the noise floor), the
    true-class cosine away from the arccos poles, and, when a margin is
    given, the angle away from psi segment boundaries."""
    logits = state.weights @ f
    if np.max(logits) - np.min(logits) > 9.0:
        return False
    w_y = state.weights[y]
    cos = float(w_y @ f / (np.linalg.norm(w_y) * np.linalg.norm(f)))
    if abs(cos) > 0.9:
        return False
    if margin is None:
        return True
    alpha = math.acos(max(-1.0, min(1.0, cos)))
    return min(abs(alpha - r * math.pi / margin) for r in range(margin + 1)) > 1e-2


def random_classifier_instance(rng, n_classes=4, dim=6, margin=None, away_from_psi_kinks=True):
    """Random (state, feature, label) with the row in the fd_friendly regime."""
    while True:
        state = ClassifierState(0.7 * rng.standard_normal((n_classes, dim)))
        f = rng.standard_normal(dim)
        y = int(rng.integers(0, n_classes))
        if fd_friendly(state, f, y, margin if away_from_psi_kinks else None):
            return state, f, y


def random_batch_instance(rng, margins, n_classes=4, dim=6):
    """One random state plus one fd_friendly row per entry of ``margins``."""
    state = ClassifierState(0.7 * rng.standard_normal((n_classes, dim)))
    feats, labels = [], []
    for m in margins:
        while True:
            f = rng.standard_normal(dim)
            y = int(rng.integers(0, n_classes))
            if fd_friendly(state, f, y, int(m)):
                break
        feats.append(f)
        labels.append(y)
    return state, np.array(feats), np.array(labels)


def flatten_params(model):
    """An MLP's hidden weights, hidden biases and classifier weights as one flat vector."""
    parts = [w.ravel() for w in model.hidden_weights]
    parts += [b.ravel() for b in model.hidden_biases]
    parts.append(model.classifier.weights.ravel())
    return np.concatenate(parts)


def unflatten_params(model, x):
    """A copy of ``model`` holding the flat parameters ``x`` in ``flatten_params`` order."""
    out = copy.deepcopy(model)
    pos = 0
    for i, w in enumerate(out.hidden_weights):
        out.hidden_weights[i] = x[pos : pos + w.size].reshape(w.shape)
        pos += w.size
    for i, b in enumerate(out.hidden_biases):
        out.hidden_biases[i] = x[pos : pos + b.size].reshape(b.shape)
        pos += b.size
    w = out.classifier.weights
    out.classifier.weights = x[pos : pos + w.size].reshape(w.shape)
    return out


def mlp_softmax_problem(model, xb, yb):
    """(value_fn, analytic, x0) of the softmax-head batch loss over every MLP parameter."""

    def value(x):
        m = unflatten_params(model, x)
        return softmax_loss(m.classifier, forward(m, xb).feature, yb).value

    cache = forward(model, xb)
    res = softmax_loss(model.classifier, cache.feature, yb)
    grads = backward(model, cache, res.grad_feature, res.grad_weights)
    analytic = np.concatenate(
        [g.ravel() for g in grads.hidden_weights]
        + [g.ravel() for g in grads.hidden_biases]
        + [grads.classifier_weights.ravel()]
    )
    return value, analytic, flatten_params(model)
