"""Exact k-nearest-neighbor classification with majority voting.

Search is exact, over distinct rows: identical stored rows (equal bytes)
form one group with a row count and its ascending stored indices, identical
query rows are scored once, and each distinct query is compared with each
distinct stored row. Distinct queries are taken in blocks: their distance
rows form one matrix, and the k nearest rows of every query in the block are
selected together by one sort. A partition finds the groups no farther than
each query's k-th nearest group, each such group gives its k lowest-indexed
rows, and one sort by (query, distance, stored index) puts each query's k
nearest rows first: predict_knn_batch counts their votes, and k_nearest
returns them for one query. At the scale this pipeline runs (tens of
thousands of rows), exactness is worth more than an approximate index. Tie
rules are fixed: equal distances order by lower stored index; an exact vote
tie classifies as malicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, KOutOfRange
from .pipeline import SCORING_CUT, distinct_rows, one_row


@dataclass
class KnnModel:
    stored_features: np.ndarray[Any, np.dtype[np.float64]]  # n x d
    stored_labels: np.ndarray  # n ints in {0, 1}; no dtype, so a stored 0.5 fails the check below
    default_k: int = 5

    def __post_init__(self):
        if self.stored_features.ndim != 2 or self.stored_features.shape[1] == 0:
            raise DimensionMismatch(
                f"stored features must be a matrix of at least one column, "
                f"not of shape {self.stored_features.shape}"
            )
        n = self.stored_features.shape[0]
        if np.shape(self.stored_labels) != (n,):
            raise DimensionMismatch("features and labels must align")
        if not np.isin(self.stored_labels, (0, 1)).all():
            raise ValueError("stored labels must be 0 or 1")
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


def k_nearest(model: KnnModel, x: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The k nearest stored rows as (index, euclidean distance), ascending; none
    when fewer than k rows are at a non-NaN distance."""
    X, k = _checked(model, one_row(x), k)
    stored = _StoredGroups.of(model)
    _, rows, sq = stored.nearest(stored.squared_distances(X), k)
    return [(int(i), float(np.sqrt(d))) for i, d in zip(rows, sq)]


def predict_knn(model: KnnModel, x: np.ndarray, k: int | None = None) -> tuple[int, float]:
    """Majority vote over the k nearest neighbors; a one-row predict_knn_batch.

    Returns (label, confidence) where confidence is the malicious-vote
    fraction; a 50/50 vote classifies as malicious.
    """
    confidence = float(predict_knn_batch(model, one_row(x), k)[0])
    return int(confidence >= SCORING_CUT), confidence


# Distinct queries whose distance rows are selected together; bounds the
# (block, distinct stored rows) distance matrix and the candidate arrays.
_QUERY_BLOCK = 64


@dataclass(frozen=True)
class _StoredGroups:
    """The stored rows grouped by exact bytes."""

    features: np.ndarray  # one row per group, C-contiguous
    counts: np.ndarray  # rows per group
    rows: np.ndarray  # stored row indices by group, ascending within each group
    starts: np.ndarray  # each group's first position in rows
    labels: np.ndarray  # each stored row's label

    @classmethod
    def of(cls, model: KnnModel) -> _StoredGroups:
        first, group = distinct_rows(model.stored_features)
        counts = np.bincount(group, minlength=len(first))
        return cls(
            features=model.stored_features[first],
            counts=counts,
            rows=np.argsort(group, kind="stable"),
            starts=np.cumsum(counts) - counts,
            labels=model.stored_labels,
        )

    def squared_distances(self, Q: np.ndarray) -> np.ndarray:
        """Squared distances from each query row to each group, one row per query.

        Each row is the difference, its square, and a sum over the columns of a
        C-contiguous (groups, d) buffer, so a row's distance has the same bits in
        any block and for any number of queries.
        """
        buf = np.empty(self.features.shape)
        out = np.empty((len(Q), len(buf)))
        for i, q in enumerate(Q):
            np.subtract(self.features, q, out=buf)
            np.square(buf, out=buf)
            buf.sum(axis=1, out=out[i])
        return out

    def nearest(self, D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k stored rows nearest to each query as (query, stored row, squared distance).

        D holds one query's squared group distances per row. The result is ordered
        by query, then distance, then lower stored index. A NaN distance sorts
        last, so a query with fewer than k rows at a non-NaN distance gets none.
        """
        b, u = D.shape
        # Each group holds at least one row, so the k nearest rows lie in groups
        # no farther than the k-th nearest group; with a NaN k-th group, in any
        # group at a non-NaN distance.
        bound = np.inf
        if k < u:
            bound = np.partition(D, k - 1, axis=1)[:, k - 1 : k]
            bound[np.isnan(bound)] = np.inf
        qi, gi = np.nonzero(D <= bound)
        # A group's rows share one distance, so only its k lowest-indexed rows can be selected.
        take = np.minimum(self.counts[gi], k)
        pos = np.arange(take.sum()) + np.repeat(self.starts[gi] - np.cumsum(take) + take, take)
        qi, dist, row = np.repeat(qi, take), np.repeat(D[qi, gi], take), self.rows[pos]
        order = np.lexsort((row, dist, qi))
        span = np.bincount(qi, minlength=b)
        by_query = qi[order]
        rank = np.arange(len(qi)) - (np.cumsum(span) - span)[by_query]
        keep = order[(rank < k) & (span[by_query] >= k)]
        return qi[keep], row[keep], dist[keep]


def predict_knn_batch(model: KnnModel, X: np.ndarray, k: int | None = None) -> np.ndarray:
    """Malicious-vote confidence for each query row; each distinct row is scored once."""
    X, k = _checked(model, X, k)
    stored = _StoredGroups.of(model)
    first, group = distinct_rows(X)
    Q = X[first]
    votes = np.empty(len(Q), dtype=np.int64)
    for lo in range(0, len(Q), _QUERY_BLOCK):
        block = Q[lo : lo + _QUERY_BLOCK]
        qi, row, _ = stored.nearest(stored.squared_distances(block), k)
        votes[lo : lo + len(block)] = np.bincount(qi[stored.labels[row] == 1],
                                                  minlength=len(block))
    return votes[group] / k
