"""Exact k-nearest-neighbor classification with majority voting.

Search is brute force over the stored training matrix: at the scale this
pipeline runs (tens of thousands of rows), exactness is worth more than an
approximate index. Tie rules are fixed: equal distances order by lower
stored index; an exact vote tie classifies as malicious.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KOutOfRange


@dataclass
class KnnModel:
    stored_features: np.ndarray  # n x d
    stored_labels: np.ndarray  # n ints in {0, 1}
    default_k: int = 5

    def __post_init__(self):
        n = self.stored_features.shape[0]
        if len(self.stored_labels) != n:
            raise ValueError("features and labels must align")
        if not 1 <= self.default_k <= n:
            raise KOutOfRange(f"default_k {self.default_k} outside [1, {n}]")


def _checked(model: KnnModel, X: np.ndarray, k: int | None) -> tuple[np.ndarray, int]:
    """The queries as a float matrix and k, both checked against the stored rows."""
    if k is None:
        k = model.default_k
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = model.stored_features.shape
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"query width {X.shape[1:]} != stored width {d}")
    if not 1 <= k <= n:
        raise KOutOfRange(f"k {k} outside [1, {n}]")
    return X, k


def _one_row(x: np.ndarray) -> np.ndarray:
    q = np.asarray(x, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionMismatch(f"query must be one vector, got shape {q.shape}")
    return q[None, :]


def _nearest(model: KnnModel, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances from q to every stored row, and the k nearest indices."""
    diff = model.stored_features - q
    sq = (diff * diff).sum(axis=1)
    return sq, _k_smallest_indices(sq, k)


def _k_smallest_indices(sq_dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, ties resolved by lower index.

    Equivalent to a full stable argsort prefix, but only partitions around
    the k-th value.
    """
    if k == len(sq_dist):
        cand = np.arange(len(sq_dist))
    else:
        kth = np.partition(sq_dist, k - 1)[k - 1]
        cand = np.flatnonzero(sq_dist <= kth)
    order = np.argsort(sq_dist[cand], kind="stable")
    return cand[order[:k]]


def k_nearest(model: KnnModel, x: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The k nearest stored rows as (index, euclidean distance), ascending."""
    X, k = _checked(model, _one_row(x), k)
    sq, idx = _nearest(model, X[0], k)
    return [(int(i), float(np.sqrt(sq[i]))) for i in idx]


def predict_knn(model: KnnModel, x: np.ndarray, k: int | None = None) -> tuple[int, float]:
    """Majority vote over the k nearest neighbors; a one-row predict_knn_batch.

    Returns (label, confidence) where confidence is the malicious-vote
    fraction; a 50/50 vote classifies as malicious.
    """
    confidence = float(predict_knn_batch(model, _one_row(x), k)[0])
    return (1 if confidence >= 0.5 else 0), confidence


def predict_knn_batch(model: KnnModel, X: np.ndarray, k: int | None = None) -> np.ndarray:
    """Malicious-vote confidence for each query row."""
    X, k = _checked(model, X, k)
    out = np.empty(X.shape[0], dtype=np.float64)
    for i, q in enumerate(X):
        _, idx = _nearest(model, q, k)
        out[i] = float(model.stored_labels[idx].sum()) / k
    return out
