"""Synthetic imbalanced datasets, CSV ingestion, and the boundary-bias demo."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, DimensionError, ParameterError
from .numerics import DenseMatrix, as_labels, as_matrix
from .seeding import stream_rng, stream_seed


@dataclass(frozen=True)
class BlobSpec:
    """One isotropic Gaussian class: mean vector, std, sample count."""

    mean: tuple
    std: float
    count: int

    def __post_init__(self):
        if self.std <= 0:
            raise ParameterError(f"std must be positive, got {self.std!r}")
        if self.count < 0:
            raise ParameterError(f"count must be nonnegative, got {self.count!r}")


@dataclass
class Dataset:
    """Feature matrix with integer labels, per-class counts and frequencies."""

    features: DenseMatrix
    labels: np.ndarray
    class_counts: np.ndarray
    class_frequencies: np.ndarray

    @classmethod
    def from_arrays(cls, features, labels, n_classes: int | None = None) -> "Dataset":
        feats = as_matrix(features, "features")
        labs = as_labels(labels, feats.shape[:1], n_classes)
        # without n_classes, the classes run up to the largest label
        counts = np.bincount(labs, minlength=n_classes or 0).astype(np.int64)
        freqs = counts / counts.sum()
        return cls(features=feats, labels=labs, class_counts=counts, class_frequencies=freqs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_counts.shape[0]


def gaussian_blobs(specs, seed: int = 0) -> Dataset:
    """Sample one isotropic Gaussian blob per spec; class k = position k.

    Deterministic per (seed, class index).
    """
    specs = list(specs)
    if not specs:
        raise DimensionError("at least one blob spec is required")
    dim = len(specs[0].mean)
    rows = []
    labels = []
    for k, spec in enumerate(specs):
        if len(spec.mean) != dim:
            raise DimensionError("all blob means must share one dimension")
        rng = np.random.default_rng(stream_seed(seed, f"blob-{k}"))
        samples = np.asarray(spec.mean, dtype=np.float64) + spec.std * rng.standard_normal(
            (spec.count, dim)
        )
        rows.append(samples)
        labels.append(np.full(spec.count, k, dtype=np.int64))
    return Dataset.from_arrays(np.vstack(rows), np.concatenate(labels), n_classes=len(specs))


def imbalance_subsample(ds: Dataset, drop_fraction: float, class_subset, seed: int = 0) -> Dataset:
    """Randomly drop ``drop_fraction`` of the samples for the listed classes.

    Listed classes retain ceil((1 - drop_fraction) * count) samples chosen
    uniformly without replacement; the others are untouched. Retained rows
    keep their original order, so the result is stable per seed. The class
    indices of ``class_subset`` follow the label rule of ``numerics.as_labels``.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ParameterError(f"drop_fraction must lie in [0, 1), got {drop_fraction!r}")
    subset = np.unique(as_labels(class_subset, np.shape(class_subset), ds.n_classes))
    keep = np.ones(ds.n_samples, dtype=bool)
    for k in subset:
        idx = np.flatnonzero(ds.labels == k)
        n_keep = math.ceil((1.0 - drop_fraction) * idx.size)
        rng = np.random.default_rng(stream_seed(seed, f"subsample-{k}"))
        chosen = rng.choice(idx.size, size=n_keep, replace=False)
        dropped = np.setdiff1d(np.arange(idx.size), chosen)
        keep[idx[dropped]] = False
    return Dataset.from_arrays(ds.features[keep], ds.labels[keep], n_classes=ds.n_classes)


def longtail_blob_specs(
    n_classes: int = 10,
    base_count: int = 1000,
    decay: float = 0.5,
    dim: int = 2,
    radius: float = 5.0,
    std: float = 1.0,
) -> list[BlobSpec]:
    """Default long-tail benchmark: class k has max(1, round(base * decay^k))
    samples, means equally spaced on a circle (first two coordinates)."""
    specs = []
    for k in range(n_classes):
        angle = 2.0 * math.pi * k / n_classes
        mean = [radius * math.cos(angle), radius * math.sin(angle)] + [0.0] * (dim - 2)
        count = max(1, int(round(base_count * decay**k)))
        specs.append(BlobSpec(mean=tuple(mean[:dim]), std=std, count=count))
    return specs


def two_class_blob_specs(
    majority_count: int = 500,
    minority_count: int = 50,
    separation: float = 3.0,
    dim: int = 2,
    std: float = 1.0,
) -> list[BlobSpec]:
    """Majority/minority pair of blobs ``separation`` apart along the first axis."""
    half = separation / 2.0
    maj = [-half] + [0.0] * (dim - 1)
    mino = [half] + [0.0] * (dim - 1)
    return [
        BlobSpec(mean=tuple(maj), std=std, count=majority_count),
        BlobSpec(mean=tuple(mino), std=std, count=minority_count),
    ]


def save_csv(ds: Dataset, path) -> None:
    """Write ``f0,...,f{d-1},label`` rows with round-trip-exact float text."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(ds.dim)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [str(int(lab))])


def load_csv(path, n_classes: int | None = None) -> Dataset:
    """Read a dataset written by ``save_csv``; strict header and row checks.

    The rows are read by one vectorized parse. A file that parse cannot read,
    or whose values fail a row check, is read again row by row, which raises
    the ``CsvFormatError`` naming the first faulty line: both paths accept the
    same files and give the same dataset.

    ``n_classes`` is the class count of the model that scores the file: the
    dataset gets one class per model class, and a label beyond them raises
    ``CsvFormatError`` before any per-class table is sized. Without it, as
    for training, the labels must name at least two classes and cover every
    class from 0 to the largest; otherwise ``CsvFormatError`` names the file.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty dataset file") from None
        dim = len(header) - 1
        if dim < 1 or header != [f"f{i}" for i in range(dim)] + ["label"]:
            raise CsvFormatError("header must be f0,...,f{d-1},label", line=1)
        features, labels = _parse_table(path, dim) or _parse_rows(reader, dim)
    if n_classes is None:
        present = np.unique(labels)  # sorted and nonnegative: dense iff it ends at size - 1
        if present.size < 2:
            raise CsvFormatError(f"{path} has rows of class {present[0]} only: training needs two")
        if present[-1] != present.size - 1:
            missing = int(np.flatnonzero(present != np.arange(present.size))[0])
            raise CsvFormatError(
                f"{path} has no row of class {missing} but has label {present[-1]}: "
                "training labels must cover every class from 0 to the largest"
            )
    elif labels.max() >= n_classes:
        raise CsvFormatError(f"{path} has label {labels.max()}, the model has {n_classes} classes")
    return Dataset.from_arrays(features, labels, n_classes)


def _parse_table(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) of the rows below the header, or None to parse row by row.

    One ``np.loadtxt`` pass reads float64 features and an int64 label per
    row. It takes no quoting, comments or underscores and skips only empty
    lines, so it accepts a subset of what the row loop accepts, with the
    same correctly rounded values; a warning (such as numpy's deprecated
    integer-via-float label parse, or "input contained no data") counts as
    a rejection, and so does any value that fails a row check.
    """
    row = np.dtype([("features", np.float64, (dim,)), ("label", np.int64)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=row, delimiter=",", comments=None, skiprows=1, ndmin=1, encoding="utf-8"
            )
    except (ValueError, Warning):
        return None
    features, labels = table["features"], table["label"]
    if labels.size == 0 or not np.isfinite(features).all() or labels.min() < 0:
        return None
    return features, np.ascontiguousarray(labels)


def _parse_rows(reader, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of the reader's rows after the header, checked one at a time."""
    rows = []
    labels = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise CsvFormatError(f"expected {dim + 1} fields, got {len(row)}", line=lineno)
        try:
            values = [float(v) for v in row[:-1]]
        except ValueError:
            raise CsvFormatError("malformed feature value", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise CsvFormatError("non-finite feature value", line=lineno)
        rows.append(values)
        try:
            lab = int(row[-1])
        except ValueError:
            raise CsvFormatError(f"malformed label {row[-1]!r}", line=lineno) from None
        if not 0 <= lab <= np.iinfo(np.int64).max:
            raise CsvFormatError(f"label {lab} out of range", line=lineno)
        labels.append(lab)
    if not rows:
        raise CsvFormatError("dataset file has no data rows")
    return np.asarray(rows), np.asarray(labels)


# ---------------------------------------------------------------------------
# Boundary-bias demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryBiasReport:
    """Learned vs optimal 1-D decision thresholds under class imbalance."""

    learned_threshold: float
    optimal_threshold: float
    bayes_threshold: float
    displaced_toward_minority: bool
    balanced_error_learned: float
    balanced_error_optimal: float
    majority_mean: float
    minority_mean: float
    majority_count: int
    minority_count: int


def balanced_gaussian_error(threshold: float, mean_a: float, mean_b: float) -> float:
    """Equal-prior test error of the rule 'class A below threshold, B above'
    for two unit-variance Gaussians."""

    def cdf(x: float, mu: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mu) / math.sqrt(2.0)))

    return 0.5 * (1.0 - cdf(threshold, mean_a)) + 0.5 * cdf(threshold, mean_b)


def boundary_bias_demo(imbalance_ratio: float, seed: int = 0) -> BoundaryBiasReport:
    """Train a bias-free 2-class linear softmax on imbalanced 1-D Gaussians.

    The input is augmented with a constant feature so the linear classifier
    can place an offset threshold. 1000 majority samples sit at -1 and
    round(1000 / imbalance_ratio) minority samples at +1, both with unit
    variance; the classifier takes 3000 full-batch gradient steps of size
    0.5. The learned threshold is compared against the equal-prior optimal
    midpoint and both are scored by their balanced test error (closed-form
    Gaussian tails).
    """
    if not 1.0 <= imbalance_ratio < math.inf:
        raise ParameterError(f"imbalance_ratio must be finite and >= 1, got {imbalance_ratio!r}")
    mean_maj, mean_min, majority_count = -1.0, 1.0, 1000
    minority_count = max(1, int(round(majority_count / imbalance_ratio)))
    rng = stream_rng(seed, "bias-demo")
    x_maj = mean_maj + rng.standard_normal(majority_count)
    x_min = mean_min + rng.standard_normal(minority_count)
    x = np.concatenate([x_maj, x_min])
    y = np.concatenate(
        [np.zeros(majority_count, dtype=np.int64), np.ones(minority_count, dtype=np.int64)]
    )
    features = np.column_stack([x, np.ones_like(x)])
    onehot = np.zeros((x.size, 2))
    onehot[np.arange(x.size), y] = 1.0

    w = 0.01 * stream_rng(seed, "bias-demo-init").standard_normal((2, 2))
    n = float(x.size)
    for _ in range(3000):
        logits = features @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        ez = np.exp(logits)
        p = ez / ez.sum(axis=1, keepdims=True)
        grad = (p - onehot).T @ features / n
        w -= 0.5 * grad

    dw = w[0] - w[1]
    learned = -dw[1] / dw[0]
    optimal = 0.5 * (mean_maj + mean_min)
    tau_maj = majority_count / n
    tau_min = minority_count / n
    bayes = optimal + math.log(tau_maj / tau_min) / (mean_min - mean_maj)
    return BoundaryBiasReport(
        learned_threshold=float(learned),
        optimal_threshold=float(optimal),
        bayes_threshold=float(bayes),
        displaced_toward_minority=bool((learned - optimal) * (mean_min - optimal) > 0),
        balanced_error_learned=balanced_gaussian_error(learned, mean_maj, mean_min),
        balanced_error_optimal=balanced_gaussian_error(optimal, mean_maj, mean_min),
        majority_mean=mean_maj,
        minority_mean=mean_min,
        majority_count=majority_count,
        minority_count=minority_count,
    )
