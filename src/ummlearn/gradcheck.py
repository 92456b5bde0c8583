"""Central finite-difference oracle for verifying analytic gradients, and the
instances that the ``gradcheck`` command and the tests check with it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cluster_loss import ClusterState, hybrid_loss, inter_class_margin_loss
from .errors import ConfigurationError, DimensionError
from .margin_loss import (
    ClassifierState,
    angular_margin_loss,
    large_margin_softmax_loss,
    softmax_loss,
    uncertainty_weighted_margin_loss,
)
from .seeding import stream_rng

# The classifier losses of ``selector_problems``, with their margins.
_CLASSIFIER_LOSSES = {
    "softmax": softmax_loss,
    "large-margin": lambda s, f, y: large_margin_softmax_loss(s, f, y, 3),
    "uncertainty-weighted": lambda s, f, y: uncertainty_weighted_margin_loss(s, f, y, 2, 0.5),
    "angular-i": lambda s, f, y: angular_margin_loss(s, f, y, variant="i"),
    "angular-ii": lambda s, f, y: angular_margin_loss(s, f, y, variant="ii"),
}


@dataclass
class GradReport:
    """Worst-coordinate comparison between analytic and numeric gradients."""

    max_rel_error: float
    argmax_index: int
    analytic: float
    numeric: float
    tolerance: float
    passed: bool
    n_checked: int

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} max_rel_error={self.max_rel_error:.3e} at coord {self.argmax_index} "
            f"(analytic={self.analytic:.6e}, numeric={self.numeric:.6e}, "
            f"tol={self.tolerance:.1e}, checked={self.n_checked})"
        )


def central_difference(scalar_fn: Callable[[np.ndarray], float], params, h: float = 1e-5) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / (2h) per coordinate."""
    x = np.asarray(params, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError("central_difference expects a flat parameter vector")
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (scalar_fn(x + step) - scalar_fn(x - step)) / (2.0 * h)
    return grad


def relative_errors(analytic, numeric) -> np.ndarray:
    """|a - n| / max(|a|, |n|, 1e-8), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise DimensionError("gradient shapes disagree")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return np.abs(a - n) / denom


def check(scalar_fn: Callable, analytic_grad, params, tolerance: float = 1e-4) -> GradReport:
    """Compare an analytic gradient against central differences, coordinate by coordinate."""
    x = np.asarray(params, dtype=np.float64)
    a = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if a.shape != x.shape:
        raise DimensionError("analytic gradient must match the parameter vector")
    numeric = central_difference(scalar_fn, x)
    errs = relative_errors(a, numeric)
    idx = int(np.argmax(errs))
    worst = float(errs[idx])
    return GradReport(
        max_rel_error=worst,
        argmax_index=idx,
        analytic=float(a[idx]),
        numeric=float(numeric[idx]),
        tolerance=tolerance,
        passed=bool(worst < tolerance),
        n_checked=x.size,
    )


def loss_problem(loss, state: ClassifierState, features, labels) -> tuple:
    """The ``check`` arguments of a batch loss over the weights, row-major, then the features.

    ``loss(state, features, labels)`` returns a ``LossResult``."""
    feats = np.asarray(features, dtype=np.float64)
    w_shape, n_w = state.weights.shape, state.weights.size

    def value(x):
        state_x = ClassifierState(x[:n_w].reshape(w_shape))
        return loss(state_x, x[n_w:].reshape(feats.shape), labels).value

    res = loss(state, feats, labels)
    analytic = np.concatenate([res.grad_weights.ravel(), res.grad_feature.ravel()])
    return value, analytic, np.concatenate([state.weights.ravel(), feats.ravel()])


def cluster_instance(rng: np.random.Generator):
    """(state, features, labels): 4 coupled centers in 3-D and a batch of 6, redrawn
    until every hinge argument lies over 1e-3 from its kink, which central differences straddle."""
    n_classes, dim, batch, lam = 4, 3, 6, 2.0
    iu, ju = np.triu_indices(n_classes, k=1)
    while True:
        centers = 2.0 * rng.standard_normal((n_classes, dim))
        feats = 2.0 * rng.standard_normal((batch, dim))
        labels = rng.integers(0, n_classes, batch)
        state = ClusterState.coupled(centers, lam=lam, s=4.0)
        half = 0.5 * np.sum((feats - centers[labels]) ** 2, axis=1)
        dists = np.linalg.norm(centers[iu] - centers[ju], axis=1)
        if np.all(np.abs(half - state.gamma) > 1e-3) and np.all(np.abs(lam - dists) > 1e-3):
            return state, feats, labels


def selector_problems(selector: str, seed: int) -> list[tuple[str, tuple]]:
    """(name, ``check`` arguments) of one loss selector, drawn from the ``gradcheck`` stream.

    A classifier loss is one check, named "", on 4 classes in 6-D and a batch of one.
    ``hybrid-cluster`` draws a ``cluster_instance`` after those draws and checks the hybrid
    loss ("features") and the center-separation term of its center gradient ("centers")."""
    rng = stream_rng(seed, "gradcheck")
    state = ClassifierState(rng.standard_normal((4, 6)))
    f = rng.standard_normal(6)
    y = np.array([rng.integers(0, 4)])
    if selector in _CLASSIFIER_LOSSES:
        return [("", loss_problem(_CLASSIFIER_LOSSES[selector], state, f[None, :], y))]
    if selector != "hybrid-cluster":
        raise ConfigurationError(f"gradcheck does not support loss {selector!r}")
    cluster, feats, labels = cluster_instance(rng)
    _, grad_feats, grad_centers = hybrid_loss(cluster, feats, labels)

    def features_value(x):
        return hybrid_loss(cluster, x.reshape(feats.shape), labels)[0]

    def centers_value(x):
        centers = x.reshape(cluster.centers.shape)
        coupled = ClusterState.coupled(centers, lam=cluster.lam, s=cluster.s)
        return inter_class_margin_loss(coupled)[0]

    return [
        ("features", (features_value, grad_feats.ravel(), feats.ravel())),
        ("centers", (centers_value, grad_centers.ravel(), cluster.centers.ravel())),
    ]
