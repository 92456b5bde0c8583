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
from functools import cache

import numpy as np

from .errors import ConfigurationError, DimensionError, ParameterError
from .numerics import DenseMatrix, as_labels, as_matrix


@dataclass
class ClusterState:
    """Per-class centers plus the coupled margin geometry.

    lam is the required separation between centers; s (> 2) couples the
    slack ``gamma`` to it; alpha damps the center updates.
    """

    centers: DenseMatrix
    lam: float = 10.0
    s: float = 4.0
    alpha: float = 0.5

    def __post_init__(self):
        self.centers = as_matrix(self.centers, "centers")
        if self.lam <= 0:
            raise ParameterError(f"lam must be positive, got {self.lam!r}")
        if self.s <= 2:
            raise ParameterError(f"s must exceed 2, got {self.s!r}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha!r}")

    @property
    def gamma(self) -> float:
        """The slack inside which a sample-to-center distance is free: lam / s."""
        return self.lam / self.s

    @property
    def n_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _check_batch(state: ClusterState, features, labels) -> tuple[np.ndarray, np.ndarray]:
    feats = as_matrix(features, "features")
    if feats.shape[1] != state.dim:
        raise DimensionError(
            f"feature dimension {feats.shape[1]} does not match center dimension {state.dim}"
        )
    return feats, as_labels(labels, feats.shape[:1], state.n_classes)


def clustering_loss(state: ClusterState, features, labels) -> tuple[float, DenseMatrix]:
    """Hinge-slack attraction sum_i max(0, 0.5 ||r_i - c_{y_i}||^2 - gamma).

    Returns the value and the gradient w.r.t. each feature row; centers are
    treated as constants here.
    """
    return _clustering(state, *_check_batch(state, features, labels))


def _clustering(state: ClusterState, feats: DenseMatrix, labs: np.ndarray) -> tuple[float, DenseMatrix]:
    diff = feats - state.centers[labs]
    half_sq = 0.5 * (diff * diff).sum(axis=1)
    active = half_sq > state.gamma
    value = float((half_sq[active] - state.gamma).sum())
    grad = np.where(active[:, None], diff, 0.0)
    return value, grad


def update_centers(state: ClusterState, features, labels) -> DenseMatrix:
    """The new centers after the damped per-class pull c_k <- c_k - alpha * delta_k.

    delta_k averages (c_k - r_i) over the class-k rows with a +1 damping
    term; classes absent from the batch keep their centers. Class rows are
    summed one by one in lexicographic order so batch shuffling cannot change
    the rounding. ``state`` is not changed.
    """
    return _update_centers(state, *_check_batch(state, features, labels))


def _update_centers(state: ClusterState, feats: DenseMatrix, labs: np.ndarray) -> DenseMatrix:
    order = np.lexsort((*feats.T[::-1], labs))
    # np.bincount adds its weights in input order, as np.add.at does
    flat = (labs[order, None] * state.dim + np.arange(state.dim)).ravel()
    row_sum = np.bincount(flat, feats[order].ravel(), state.centers.size).reshape(state.centers.shape)
    n, c = np.bincount(labs, minlength=state.n_classes)[:, None], state.centers
    return np.where(n > 0, c - state.alpha * ((n * c - row_sum) / (1.0 + n)), c)


@cache
def _pair_layout(n_classes: int, dim: int):
    """Pairs (iu, ju) of ``np.triu_indices(n_classes, k=1)`` and the flat indices of
    the rows ju and iu of a (n_classes, dim) array; read-only, as they are shared."""
    iu, ju = np.triu_indices(n_classes, k=1)
    sides = tuple((rows[:, None] * dim + np.arange(dim)).ravel() for rows in (ju, iu))
    for arr in (iu, ju, *sides):
        arr.flags.writeable = False
    return iu, ju, sides


def _pairwise(state: ClusterState):
    """The flat row indices of ``_pair_layout``; for the pairs j < k in ``triu_indices`` order,
    the distances d and the unit vectors (c_j - c_k) / d, zero where d == 0 (a subgradient)."""
    if state.n_classes < 2:
        raise ConfigurationError("pairwise center losses need at least two centers")
    iu, ju, sides = _pair_layout(state.n_classes, state.dim)
    diff = state.centers[iu] - state.centers[ju]
    d = np.sqrt((diff * diff).sum(axis=1))  # np.linalg.norm's arithmetic, without its dispatch
    unit = diff / np.where(d == 0.0, 1.0, d)[:, None]
    unit[d == 0.0] = 0.0
    return sides, d, unit


def _push_apart(state: ClusterState, sides, *terms) -> DenseMatrix:
    """The center gradient: grad[j] += v_p and grad[k] -= v_p for each pair p = (j, k) of each
    (pairs, dim) term v, in one scatter. In ``triu`` order every pair (i, r) precedes every pair
    (r, k), so a term's ``ju`` part, then its ``iu`` part, adds to each row in pair order.
    ``np.bincount`` adds in order from +0.0, as ``np.add.at`` does: a zero term is a no-op."""
    flat_ju, flat_iu = sides
    index, values = zip(*[side for v in terms for side in ((flat_ju, -v), (flat_iu, v))])
    grad = np.bincount(np.concatenate(index), np.concatenate(values).ravel(), state.centers.size)
    return grad.reshape(state.centers.shape)


def _diversity(d: np.ndarray) -> tuple[float, np.ndarray]:
    """The variance of the pair distances ``d`` and its derivative in each distance."""
    mu = float(d.sum() / d.size)  # np.mean's arithmetic, without its dispatch
    return float(((d - mu) ** 2).sum() / d.size), 2.0 / d.size * (d - mu)


def diversity_regularizer(state: ClusterState) -> tuple[float, DenseMatrix]:
    """Variance of the pairwise center distances, E[(d_jk - mu)^2] over j < k."""
    sides, d, unit = _pairwise(state)
    value, slope = _diversity(d)
    return value, _push_apart(state, sides, slope[:, None] * unit)


def inter_class_margin_loss(state: ClusterState) -> tuple[float, DenseMatrix]:
    """Hinge separation sum_{j<k} max(0, lam - d(c_j, c_k)) plus the diversity term."""
    sides, d, unit = _pairwise(state)
    reg_value, slope = _diversity(d)
    gap = state.lam - d
    active = gap > 0.0
    # cumsum adds the gaps one by one in pair order; np.sum would add pairwise
    value = np.cumsum(np.concatenate(([reg_value], gap[active])))[-1]
    # an inactive pair's hinge term is zero, a no-op in the scatter
    grad = _push_apart(state, sides, slope[:, None] * unit, np.where(active[:, None], -unit, 0.0))
    return float(value), grad


def hybrid_loss(state: ClusterState, features, labels) -> tuple[float, DenseMatrix, DenseMatrix]:
    """Clustering attraction plus center separation, with both gradients."""
    return _hybrid(state, *_check_batch(state, features, labels))


def _hybrid(state: ClusterState, feats: DenseMatrix, labs: np.ndarray):
    cl_value, grad_features = _clustering(state, feats, labs)
    mm_value, grad_centers = inter_class_margin_loss(state)
    return cl_value + mm_value, grad_features, grad_centers


def _hybrid_batch(state: ClusterState, feats: DenseMatrix, labs: np.ndarray, step: float):
    """One training batch on checked inputs: the value and feature gradient of ``hybrid_loss``,
    then the center step: the pull of ``update_centers`` less ``step`` times the center gradient."""
    value, grad_features, grad_centers = _hybrid(state, feats, labs)
    state.centers = _update_centers(state, feats, labs) - step * grad_centers
    return value, grad_features
