"""Hybrid clustering objective: margin-slack attraction to class centers,
hinge separation between centers, and a diversity regularizer that drives
the pairwise center distances toward their mean.

Centers are not trained by these gradients alone; ``update_centers`` applies
the damped per-class moving-average rule and is called once per batch.

Rounding contract: the pair terms add to the hinge value and to each center
gradient row one pair j < k at a time, in ``np.triu_indices`` order, and
``update_centers`` adds each class's rows one at a time, sorted
lexicographically: bit for bit the result of plain loops over pairs and classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, LabelError, ParameterError
from .numerics import DenseMatrix, as_matrix


@dataclass
class ClusterState:
    """Per-class centers plus the coupled margin geometry.

    gamma is the slack inside which a sample-to-center distance is free;
    lam is the required separation between centers; s couples them as
    gamma = lam / s (s > 2); alpha damps the center updates.
    """

    centers: DenseMatrix
    gamma: float = 2.5
    lam: float = 10.0
    s: float = 4.0
    alpha: float = 0.5

    def __post_init__(self):
        self.centers = as_matrix(self.centers, "centers")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma!r}")
        if self.lam <= 0:
            raise ParameterError(f"lam must be positive, got {self.lam!r}")
        if self.s <= 2:
            raise ParameterError(f"s must exceed 2, got {self.s!r}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha!r}")

    @classmethod
    def coupled(cls, centers, lam: float = 10.0, s: float = 4.0, alpha: float = 0.5) -> "ClusterState":
        """Construct with gamma tied to the separation margin: gamma = lam / s."""
        if s <= 2:
            raise ParameterError(f"s must exceed 2, got {s!r}")
        return cls(centers=centers, gamma=lam / s, lam=lam, s=s, alpha=alpha)

    @property
    def n_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _check_batch(state: ClusterState, features, labels) -> tuple[np.ndarray, np.ndarray]:
    feats = as_matrix(features, "features")
    labs = np.asarray(labels, dtype=np.int64)
    if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
        raise DimensionError("labels must be 1-D with one entry per feature row")
    if feats.shape[1] != state.dim:
        raise DimensionError(
            f"feature dimension {feats.shape[1]} does not match center dimension {state.dim}"
        )
    if labs.size and (labs.min() < 0 or labs.max() >= state.n_classes):
        raise LabelError("label out of range for the configured centers")
    return feats, labs


def clustering_loss(state: ClusterState, features, labels) -> tuple[float, DenseMatrix]:
    """Hinge-slack attraction sum_i max(0, 0.5 ||r_i - c_{y_i}||^2 - gamma).

    Returns the value and the gradient w.r.t. each feature row; centers are
    treated as constants here.
    """
    feats, labs = _check_batch(state, features, labels)
    diff = feats - state.centers[labs]
    half_sq = 0.5 * np.sum(diff * diff, axis=1)
    active = half_sq > state.gamma
    value = float(np.sum(half_sq[active] - state.gamma))
    grad = np.where(active[:, None], diff, 0.0)
    return value, grad


def update_centers(state: ClusterState, features, labels) -> DenseMatrix:
    """The new centers after the damped per-class pull c_k <- c_k - alpha * delta_k.

    delta_k averages (c_k - r_i) over the class-k rows with a +1 damping
    term; classes absent from the batch keep their centers. Class rows are
    summed one by one in lexicographic order so batch shuffling cannot change
    the rounding. ``state`` is not changed.
    """
    feats, labs = _check_batch(state, features, labels)
    order = np.lexsort((*feats.T[::-1], labs))
    row_sum = np.zeros_like(state.centers)
    np.add.at(row_sum, labs[order], feats[order])
    n = np.bincount(labs, minlength=state.n_classes)
    present = n > 0
    n, c = n[present, None], state.centers[present]
    centers = state.centers.copy()
    centers[present] = c - state.alpha * ((n * c - row_sum[present]) / (1.0 + n))
    return centers


def _pairwise(state: ClusterState) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs j < k in ``triu_indices`` order: j, k, the distances d and the unit
    vectors (c_j - c_k) / d, zero where d == 0 (subgradient at coincident centers)."""
    if state.n_classes < 2:
        raise ConfigurationError("pairwise center losses need at least two centers")
    iu, ju = np.triu_indices(state.n_classes, k=1)
    diff = state.centers[iu] - state.centers[ju]
    d = np.linalg.norm(diff, axis=1)
    unit = diff / np.where(d == 0.0, 1.0, d)[:, None]
    unit[d == 0.0] = 0.0
    return iu, ju, d, unit


def _push_apart(grad: DenseMatrix, iu, ju, v) -> None:
    """grad[j] += v_p and grad[k] -= v_p for each pair p = (j, k). In ``triu``
    order every pair (i, r) precedes every pair (r, k), so scattering the ``ju``
    terms and then the ``iu`` terms adds to each row in pair order."""
    np.add.at(grad, ju, -v)
    np.add.at(grad, iu, v)


def _diversity(state: ClusterState, pairs) -> tuple[float, DenseMatrix]:
    iu, ju, d, unit = pairs
    mu = float(d.mean())
    value = float(np.mean((d - mu) ** 2))
    grad = np.zeros_like(state.centers)
    _push_apart(grad, iu, ju, (2.0 / d.size * (d - mu))[:, None] * unit)
    return value, grad


def diversity_regularizer(state: ClusterState) -> tuple[float, DenseMatrix]:
    """Variance of the pairwise center distances, E[(d_jk - mu)^2] over j < k."""
    return _diversity(state, _pairwise(state))


def inter_class_margin_loss(state: ClusterState) -> tuple[float, DenseMatrix]:
    """Hinge separation sum_{j<k} max(0, lam - d(c_j, c_k)) plus the diversity term."""
    iu, ju, d, unit = pairs = _pairwise(state)
    reg_value, grad = _diversity(state, pairs)
    gap = state.lam - d
    active = gap > 0.0
    # cumsum adds the gaps one by one in pair order; np.sum would add pairwise
    value = np.cumsum(np.concatenate(([reg_value], gap[active])))[-1]
    _push_apart(grad, iu[active], ju[active], -unit[active])
    return float(value), grad


def hybrid_loss(state: ClusterState, features, labels) -> tuple[float, DenseMatrix, DenseMatrix]:
    """Clustering attraction plus center separation, with both gradients."""
    cl_value, grad_features = clustering_loss(state, features, labels)
    mm_value, grad_centers = inter_class_margin_loss(state)
    return cl_value + mm_value, grad_features, grad_centers
