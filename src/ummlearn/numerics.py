"""Dense float64 containers and the numeric kernels shared by every loss.

All numeric data in this library flows through plain float64 ndarrays: a
``DenseVector`` is a 1-D array, a ``DenseMatrix`` a row-major 2-D array.
The helpers here validate shape and finiteness at construction boundaries
so the hot loss/gradient paths can assume clean inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

DenseVector = np.ndarray
DenseMatrix = np.ndarray

# Angular margins above the tested range are rejected (losses) or clamped
# (margins derived from uncertainty); this also bounds the degree of the
# Chebyshev polynomials used for cos(m*alpha).
M_MAX = 6


def as_vector(data, name: str = "vector") -> DenseVector:
    """Coerce ``data`` to a finite 1-D float64 array."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(data, name: str = "matrix") -> DenseMatrix:
    """Coerce ``data`` to a finite row-major 2-D float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def chebyshev(x, m) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev polynomial T_m(x) and its derivative T_m'(x).

    Elementwise in ``x`` and in the integer degree ``m`` (a scalar or one
    per element, 1 <= m <= M_MAX). Uses the three-term recurrence
    T_0 = 1, T_1 = x, T_k = 2 x T_{k-1} - T_{k-2}, differentiated alongside.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m)
    if m.dtype.kind not in "iu" or np.any(m < 1) or np.any(m > M_MAX):
        raise ParameterError(f"m must be an integer in [1, {M_MAX}], got {m!r}")
    t, d = [np.ones_like(x), x], [np.zeros_like(x), np.ones_like(x)]
    for _ in range(int(m.max()) - 1):
        t.append(2.0 * x * t[-1] - t[-2])
        d.append(2.0 * t[-2] + 2.0 * x * d[-1] - d[-2])
    return np.choose(m, t), np.choose(m, d)


def cos_m_theta(cos_alpha, m):
    """cos(m * arccos(cos_alpha)) evaluated as the Chebyshev polynomial T_m.

    Polynomial evaluation keeps the expression differentiable in
    ``cos_alpha`` everywhere, unlike the arccos route. Elementwise; a scalar
    input gives a scalar.
    """
    c = np.asarray(cos_alpha, dtype=np.float64)
    if not np.all(np.abs(c) <= 1.0):
        raise DomainError(f"cos_alpha must lie in [-1, 1], got {cos_alpha!r}")
    return chebyshev(c, m)[0][()]


def log_sum_exp_rows(values: DenseMatrix) -> DenseVector:
    """Row-wise log(sum_j exp(v_ij)), with max subtraction so large logits never overflow."""
    if values.ndim != 2 or values.shape[1] == 0:
        raise DimensionError(f"log_sum_exp_rows needs nonempty rows, got shape {values.shape}")
    m = np.max(values, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(values - m), axis=1, keepdims=True)))[:, 0]
