"""Exact k-nearest-neighbor classification with majority voting.

Search is exact, over distinct rows: identical stored rows (equal bytes)
form one group with a row count and its ascending stored indices, and
identical query rows are scored once. Distinct queries are taken in blocks.
One matrix product per block screens every (query, group) pair with the norm
expansion ||q||^2 + ||s||^2 - 2 q.s; a pair is a candidate if its screen is
within a bound on the screen's rounding error of the query's k-th smallest
screen, which keeps every group within the k-th exact distance. Only the
candidates get the exact squared distance (difference, square, row sum, the
same arithmetic for every pair), so the screen changes no bit of a result.
Each candidate group gives its k lowest-indexed rows, and one sort by (query,
distance, stored index) puts each query's k nearest rows first:
predict_knn_batch counts their votes, and k_nearest returns them for one
query. With k at least the group count, or a NaN, infinite or huge value in
the stored rows, every pair of the block is a candidate; a query holding
such a value gets every group, and the other queries of its block keep the
screen. At the scale this pipeline runs (tens of thousands of rows),
exactness is worth more than an approximate index. Tie rules are fixed:
equal distances order by lower stored index; an exact vote tie classifies as
malicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, KOutOfRange, UnknownLabel
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
        labels = np.asarray(self.stored_labels)
        unknown = labels[~np.isin(labels, (0, 1))]
        if unknown.size:
            raise UnknownLabel(unknown[0].item(), "is not a k-NN label: stored labels must be 0 or 1")
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
    _, rows, sq = stored.nearest(X, k)
    return [(int(i), float(np.sqrt(d))) for i, d in zip(rows, sq)]


def predict_knn(model: KnnModel, x: np.ndarray, k: int | None = None) -> tuple[int, float]:
    """Majority vote over the k nearest neighbors; a one-row predict_knn_batch.

    Returns (label, confidence) where confidence is the malicious-vote
    fraction; a 50/50 vote classifies as malicious.
    """
    confidence = float(predict_knn_batch(model, one_row(x), k)[0])
    return int(confidence >= SCORING_CUT), confidence


# Distinct queries screened and selected together; bounds the (block, distinct
# stored rows) screen matrix and the candidate arrays.
_QUERY_BLOCK = 64

# Stored and query values are screened only when finite and no larger than this
# in magnitude, so no square, product or sum of squares can overflow.
_SCREEN_CAP = 2.0**400


def _screenable(A: np.ndarray, axis: int | None = None) -> np.ndarray:
    return np.all(np.abs(A) <= _SCREEN_CAP, axis=axis)  # False at a NaN


@dataclass(frozen=True)
class _StoredGroups:
    """The stored rows grouped by exact bytes."""

    features: np.ndarray  # one row per group, C-contiguous
    counts: np.ndarray  # rows per group
    rows: np.ndarray  # stored row indices by group, ascending within each group
    starts: np.ndarray  # each group's first position in rows
    labels: np.ndarray  # each stored row's label
    norms: np.ndarray | None  # each group's squared norm; None if a stored value is not screenable

    @classmethod
    def of(cls, model: KnnModel) -> _StoredGroups:
        first, group = distinct_rows(model.stored_features)
        counts = np.bincount(group, minlength=len(first))
        features = model.stored_features[first]
        return cls(
            features=features,
            counts=counts,
            rows=np.argsort(group, kind="stable"),
            starts=np.cumsum(counts) - counts,
            labels=model.stored_labels,
            norms=np.square(features).sum(axis=1) if _screenable(features) else None,
        )

    def candidates(self, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(query, group) pairs that hold every group within each query's k-th
        nearest group distance.

        The screen is ||q||^2 + ||s||^2 - 2 q.s, one matrix product for all pairs.
        A pair is kept if its screen is within the slack of the query's k-th
        smallest screen. A query holding a value that is not screenable keeps
        every pair; with k at least the group count, or a stored value that is
        not screenable, every query does.
        """
        b, u = len(Q), len(self.features)
        if k >= u or self.norms is None:
            return np.divmod(np.arange(b * u), u)
        screenable = _screenable(Q, axis=1)
        if not screenable.all():
            some, rest = np.flatnonzero(screenable), np.flatnonzero(~screenable)
            qi, gi = self.candidates(Q[some], k)
            return (np.concatenate((some[qi], np.repeat(rest, u))),
                    np.concatenate((gi, np.tile(np.arange(u), len(rest)))))
        norms = np.square(Q).sum(axis=1)
        screen = np.matmul(Q, self.features.T, out=np.empty((b, u)))
        screen *= -2.0
        screen += self.norms
        screen += norms[:, None]
        # Slack. Higham (2002, section 3.1): a sum of n products, in any order
        # and with or without FMA, is within gamma_n = n u / (1 - n u) of the
        # sum of their magnitudes, u = eps / 2. Let N = ||q||^2 + ||s||^2; the
        # true distance T is at most 2N.
        # - The exact kernel rounds a difference, squares it and adds d terms:
        #   within gamma_(d+2) T <= 2 gamma_(d+2) N of T.
        # - The screen's two norms are within gamma_d N together, 2 q.s within
        #   2 gamma_d sum |q_j s_j| <= gamma_d N, and its two sums round partial
        #   sums below 3N: within (2 gamma_d + 3u) N of T.
        # So delta = |screen - exact| <= (4d + 7) u N, to first order. Gradual
        # underflow adds at most half the smallest subnormal per product, and
        # there are 5d of them (q.s counted twice).
        # Some k groups have screens at most the k-th screen, so the k-th exact
        # distance is at most that + delta, and a group within it has a screen
        # within 2 delta of the k-th screen. The slack below is twice 2 delta
        # for N = ||q||^2 + max ||s||^2, covering the second-order terms and
        # the roundings of the slack and of its sum with the k-th screen.
        d = Q.shape[1]
        fp = np.finfo(np.float64)
        slack = 16 * (d + 3) * (fp.eps * (norms + self.norms.max()) + fp.smallest_subnormal)
        kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
        return np.nonzero(screen <= (kth + slack)[:, None])

    def pair_distances(self, Q: np.ndarray, qi: np.ndarray, gi: np.ndarray) -> np.ndarray:
        """Squared distance from query Q[qi] to group gi, for each pair.

        Each is the difference, its square and a sum over the columns of a
        C-contiguous (pairs, d) buffer, so a pair's distance has the same bits
        in any block and among any other pairs. The buffer holds at most as
        many values as the block's screen matrix.
        """
        out = np.empty(len(qi))
        step = max(1, len(Q) * len(self.features) // Q.shape[1])
        for lo in range(0, len(qi), step):
            buf = self.features[gi[lo : lo + step]]
            buf -= Q[qi[lo : lo + step]]
            np.square(buf, out=buf)
            buf.sum(axis=1, out=out[lo : lo + step])
        return out

    def nearest(self, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k stored rows nearest to each query row as (query, stored row, squared distance).

        The result is ordered by query, then distance, then lower stored index.
        A query with fewer than k rows at a non-NaN distance gets none.
        """
        qi, gi = self.candidates(Q, k)
        dist = self.pair_distances(Q, qi, gi)
        kept = ~np.isnan(dist)
        qi, gi, dist = qi[kept], gi[kept], dist[kept]
        # Each group holds at least one row, so the candidates hold each query's
        # k nearest rows; a group's rows share one distance, so only its k
        # lowest-indexed rows can be selected.
        take = np.minimum(self.counts[gi], k)
        pos = np.arange(take.sum()) + np.repeat(self.starts[gi] - np.cumsum(take) + take, take)
        qi, dist, row = np.repeat(qi, take), np.repeat(dist, take), self.rows[pos]
        order = np.lexsort((row, dist, qi))
        span = np.bincount(qi, minlength=len(Q))
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
        qi, row, _ = stored.nearest(block, k)
        votes[lo : lo + len(block)] = np.bincount(qi[stored.labels[row] == 1],
                                                  minlength=len(block))
    return votes[group] / k
