"""CART trees and the three ensembles built on them.

Shared conventions, fixed so models serialize and replay bit-exactly:
  - candidate thresholds are midpoints of consecutive distinct sorted values,
    or the upper value where the midpoint rounds onto the lower one or overflows;
  - routing is x[feature] < threshold -> left, ties go right;
  - split ties break on (lower feature index, then lower threshold);
  - splits whose gain is not strictly positive are rejected.

Split search is presorted (exact greedy, Chen & Guestrin 2016, sec. 4.1).
Second-order (boosting) trees argsort each column stably once per boosting
run, since every round sees the same X, and a split partitions every
feature's order and sorted values into its children with a row mask, which
keeps relative order. Node row sets are always ascending, so a node's order
for feature f, a stable partition of one stable per-column argsort, equals
a fresh stable argsort of the node's rows by f: ties stay in row order and
every gain is summed exactly as a per-node sort would sum it. Only a cut
between two distinct sorted values can win, so the gain formula is
evaluated at those boundaries alone, on prefix sums gathered there. The
grower also returns each training row's leaf value, which boosting adds to
its scores in place of routing the training matrix through the new tree.

Gini trees (the random forest, grow_tree on labels, best_split "gini") work
on weighted distinct rows. The training rows are grouped by their bytes and
the distinct rows' columns are presorted once; a tree then holds, per
distinct row, how many of its rows fall there and how many of those are
positive. A gini gain at a boundary between two values depends only on the
integer prefix counts, so every gain, midpoint threshold and leaf value
pos / n is the same float a row-by-row search computes.

Random forest trees draw a bootstrap sample and per-node feature subsets
from a per-tree generator seeded seed + tree_index, so the ensemble is
independent of training order. A subset is the rng.choice(d, size=m,
replace=False) that the generator's 32-bit words give, rebuilt without
choice's per-call cost: Floyd's sample (Bentley & Floyd 1987), then a
Fisher-Yates shuffle, each bounded draw by Lemire's method (Lemire 2019).
The forest grows _LOCKSTEP_TREES trees at a time in lockstep: each step
takes from every tree the next node of its own preorder stack, so each
generator draws in the order a recursive build draws, and scores all those
nodes in one batched numpy search. Boosting uses no sampling at all.

Each split search makes one prefix pass. Second-order trees gather and
cumsum one complex vector grad + 1j * hess, whose real and imaginary parts
numpy adds separately, so both prefixes are the sums two float passes give;
the gain formula then reads .real and .imag. Gini trees gather and cumsum
one packed int64, count << 32 | positives, and unpack the differences.

Most nodes hold a few hundred rows or fewer, so numpy's fixed cost per call
dominates their growth: every per-node step calls the ndarray method or ufunc
itself (a.take, a.compress, a.nonzero(), np.add.accumulate), skipping the
Python frame of wrappers such as np.take; no element's arithmetic changes.

Each tree grows straight into five typed columns (feature, threshold, left,
right, value) in preorder, from explicit stacks; an ensemble concatenates
them once into the node arrays of TreeArrays (scikit-learn's Tree layout).
Prediction routes every row through every tree one depth level per numpy
step, as QuickScorer (Lucchese et al. 2015) routes over flat arrays.
TreeNode and model.trees are read-only views over the arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import BoostParams, ForestParams, XgbParams
from .errors import (DimensionMismatch, EmptyInput, MalformedModel, SingleClassTrainingSet,
                     TooFewRows)
from .pipeline import SCORING_CUT, Dataset, distinct_rows, one_row

LEAF_DENOM_FLOOR = 1e-12  # guards Newton leaf values when hessians vanish
# Elements per pass of a second-order split search ((feature, row) pairs, or
# one whole column when a column is longer) and (tree, row) pairs per routing
# pass: each temporary stays within 256 KiB, about one core's L2 cache.
_SCORE_BLOCK = 1 << 14
_LOCKSTEP_TREES = 25  # forest trees grown together, one node of each per batched split search
# (node, feature, distinct row) elements per batched gini search, or one node
# when a node has more: each per-element int64 or float64 temporary stays
# within 32 KiB, one core's L1 data cache.
_GINI_BLOCK = 1 << 12
_COUNT = 1 << 32  # a packed gini tally is count * _COUNT + positives


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """Trees as parallel node arrays; tree t starts at node roots[t].

    Node i either splits, sending x to left[i] if x[feature[i]] <
    threshold[i] and to right[i] otherwise, or is a leaf with output
    value[i] whose children are i itself, so a row routed on from a leaf
    stays there. A leaf stores feature 0 and threshold 0.0, a split value
    0.0. Each tree's nodes are numbered in preorder.

    Building one checks all routing relies on but the input width (_check_width):
    one length, links inside the arrays, feature 0 at every leaf, and a walk from
    the roots through both children of every split that reaches every node once.
    """

    feature: np.ndarray[Any, np.dtype[np.intp]]
    threshold: np.ndarray[Any, np.dtype[np.float64]]
    left: np.ndarray[Any, np.dtype[np.intp]]
    right: np.ndarray[Any, np.dtype[np.intp]]
    value: np.ndarray[Any, np.dtype[np.float64]]
    roots: np.ndarray[Any, np.dtype[np.intp]]

    def __post_init__(self):
        shapes = {name: array.shape for name, array in vars(self).items()}
        node_shapes = {shape for name, shape in shapes.items() if name != "roots"}
        if any(len(shape) != 1 for shape in shapes.values()) or len(node_shapes) != 1:
            raise DimensionMismatch(f"the tree lists have shapes {shapes}, not one length")
        n = len(self.value)
        for name in ("left", "right", "roots"):
            index = getattr(self, name)
            outside = index[(index < 0) | (index >= n)]
            if outside.size:
                raise MalformedModel(f"a tree {name} index is {outside[0]}, outside [0, {n})")
        nodes = np.arange(n)
        split = (self.left != nodes) | (self.right != nodes)
        leaf_features = self.feature[~split & (self.feature != 0)]
        if leaf_features.size:
            raise MalformedModel(f"a tree leaf stores feature {leaf_features[0]}, not 0")
        seen = np.zeros(n, dtype=np.intp)
        level = self.roots
        while level.size:  # each step reaches new nodes or raises
            np.add.at(seen, level, 1)
            if (seen[level] > 1).any():
                raise MalformedModel(f"tree node {level[seen[level] > 1][0]} is reached twice")
            level = level[split[level]]
            level = np.concatenate([self.left[level], self.right[level]])
        if not seen.all():
            raise MalformedModel(f"{n - np.count_nonzero(seen)} tree nodes are not reachable")


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Read-only view of node index of arrays; None where a leaf or a split has no such value."""

    arrays: TreeArrays
    index: int

    @property
    def is_leaf(self) -> bool:
        return bool(self.arrays.left[self.index] == self.index)

    def _get(self, name: str, of_leaf: bool = False):
        return None if self.is_leaf != of_leaf else getattr(self.arrays, name)[self.index].item()

    def _child(self, name: str) -> TreeNode | None:
        if self.is_leaf:
            return None
        return TreeNode(self.arrays, int(getattr(self.arrays, name)[self.index]))

    value = property(lambda self: self._get("value", of_leaf=True))
    feature_index = property(lambda self: self._get("feature"))
    threshold = property(lambda self: self._get("threshold"))
    left = property(lambda self: self._child("left"))
    right = property(lambda self: self._child("right"))


class _Tree:
    """One growing tree: the fields of TreeArrays as typed columns, nodes in preorder."""

    def __init__(self):
        self.feature, self.left, self.right = array("q"), array("q"), array("q")
        self.threshold, self.value = array("d"), array("d")

    def add(self, parent: int | None, value: float = 0.0) -> int:
        """Append a leaf as parent's first free child: the left subtree is added first."""
        node = len(self.value)
        if parent is not None:
            (self.left if self.left[parent] == parent else self.right)[parent] = node
        self.feature.append(0)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.value.append(value)
        return node

    def split(self, node: int, decision: SplitDecision) -> None:
        """Turn leaf node into decision's split; its children are added next."""
        self.feature[node] = decision.feature_index
        self.threshold[node] = decision.threshold
        self.value[node] = 0.0


def _stack(trees: list[_Tree]) -> TreeArrays:
    """The trees as one TreeArrays: one concatenate per field, links offset to each root."""
    sizes = np.array([len(tree.value) for tree in trees], dtype=np.intp)
    roots = np.cumsum(sizes) - sizes
    offsets = np.repeat(roots, sizes)

    def field(name: str, dtype) -> np.ndarray:
        return np.frombuffer(bytearray().join(getattr(tree, name) for tree in trees), dtype=dtype)

    return TreeArrays(field("feature", np.intp), field("threshold", np.float64),
                      field("left", np.intp) + offsets, field("right", np.intp) + offsets,
                      field("value", np.float64), roots)


def _root_views(model) -> list[TreeNode]:
    """model.trees: a view of each tree's root."""
    return [TreeNode(model.arrays, root) for root in model.arrays.roots.tolist()]


@dataclass(frozen=True)
class SplitDecision:
    feature_index: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class TreeParams:
    max_depth: int


@dataclass
class GradientTargets:
    """Per-row statistics driving a boosted regression tree.

    grad/hess feed the split gain; leaf values are the Newton step
    -sum(grad) / (sum(leaf_hess) + lam) over leaf members.
    """

    grad: np.ndarray
    hess: np.ndarray
    leaf_hess: np.ndarray
    lam: float = 0.0
    gamma: float = 0.0


def gini(class_counts: tuple[int, int]) -> float:
    """Binary Gini impurity 1 - p0^2 - p1^2."""
    c0, c1 = class_counts
    total = c0 + c1
    if total == 0:
        raise EmptyInput("Gini impurity of zero samples is undefined")
    p0 = c0 / total
    p1 = c1 / total
    return 1.0 - p0 * p0 - p1 * p1


def second_order_gain(
    g_left: float, h_left: float, g_right: float, h_right: float,
    lam: float, gamma: float,
) -> float:
    """Regularized gain of a candidate split from first/second-order sums."""
    g_total = g_left + g_right
    h_total = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - g_total * g_total / (h_total + lam)
    ) - gamma


def _candidates(candidate_features, d: int) -> np.ndarray:
    """Candidate feature indices in ascending order, each checked against [0, d)."""
    cands = sorted(int(f) for f in candidate_features)
    for f in cands:
        if not 0 <= f < d:
            raise DimensionMismatch(f"candidate feature {f} is outside [0, {d})")
    return np.array(cands, dtype=np.intp)


def _check_training(features: np.ndarray) -> None:
    """Raise unless features, a tree trainer's matrix, has a row and a column."""
    n, d = features.shape
    if n == 0:
        raise EmptyInput("cannot train a tree on zero rows")
    if d == 0:
        raise DimensionMismatch("cannot train a tree on zero feature columns")


def _presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """features' columns as contiguous rows, their stable argsorts and their sorted values."""
    cols = np.ascontiguousarray(features.T)
    orders = np.argsort(cols, axis=1, kind="stable")
    return cols, orders, np.take_along_axis(cols, orders, axis=1)


def _grad_hess(grad, hess) -> np.ndarray:
    """grad + 1j * hess, set part by part so -0.0, infinities and NaN keep their bits."""
    gh = np.empty(len(grad), dtype=np.complex128)
    gh.real, gh.imag = grad, hess
    return gh


def _midpoint(low: float, high: float) -> float:
    """(low + high) / 2, or high where that rounds onto low or overflows: low < it <= high."""
    mid = (low + high) / 2.0
    return high if mid <= low or mid > high else mid


def _split_sorted(
    cands: np.ndarray,
    orders: np.ndarray,
    values: np.ndarray,
    gh: np.ndarray,
    lam: float,
    gamma: float,
) -> SplitDecision | None:
    """Best second-order split of one node over all candidate features at once.

    Row r of orders lists the node's rows sorted stably by feature cands[r],
    and row r of values holds that feature's values in that order; gh is
    _grad_hess(grad, hess), indexed by row. Only a boundary between two
    distinct values can win, so gains are computed at those boundaries
    alone, _SCORE_BLOCK elements at a time. cumsum(axis=1) adds sequentially
    and complex sums add real and imaginary parts apart, so each row's
    prefixes equal one-feature cumsums of grad and hess, and the gain
    formula, evaluated in place in its usual order, sees the same operands
    as a dense search, bit for bit. The winner
    is picked from each feature's maximum in ascending feature order with a
    strict >, so the earliest of equal gains wins and a NaN gain, once best,
    is never displaced (a feature's maximum is NaN when any of its gains is,
    as argmax picks the first NaN); within the winning feature, argmax picks
    the position.
    """
    n = values.shape[1]
    best = None
    step = max(1, _SCORE_BLOCK // n)
    for start in range(0, len(cands), step):
        vals = values[start:start + step]
        valid = np.zeros(vals.shape, dtype=bool)
        np.not_equal(vals[:, :-1], vals[:, 1:], out=valid[:, :-1])
        at = valid.ravel().nonzero()[0]  # flat (row, position) of each boundary
        if not at.size:
            continue
        bounds = at.searchsorted(np.arange(0, vals.size + 1, n))
        starts, ends = bounds[:-1], bounds[1:]
        counts = ends - starts

        prefix = gh[orders[start:start + step]]
        np.add.accumulate(prefix, axis=1, out=prefix)
        total = prefix[:, -1]
        left = prefix.take(at)
        right = total.repeat(counts)
        right -= left
        # 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma
        gains = left.real * left.real
        gains /= left.imag + lam
        right_gain = right.real * right.real
        right_gain /= right.imag + lam
        gains += right_gain
        gains -= (total.real * total.real / (total.imag + lam)).repeat(counts)
        gains *= 0.5
        gains -= gamma

        scored = counts.nonzero()[0]
        winner = None
        for r, gain in zip(scored.tolist(), np.maximum.reduceat(gains, starts[scored]).tolist()):
            if gain <= 0.0:
                continue
            if best is None or gain > best[0]:
                best, winner = (gain, start + r), r
        if winner is not None:
            first = starts[winner] + gains[starts[winner]:ends[winner]].argmax()
            pos = int(at[first]) - winner * n
    if best is None:
        return None
    gain, r = best
    threshold = _midpoint(*values[r, pos:pos + 2].tolist())
    return SplitDecision(feature_index=int(cands[r]), threshold=threshold, gain=gain)


def _distinct_presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_presort of the distinct rows of features, and each row's distinct row.

    The orders are int32: node blocks of distinct-row ids are the gini
    grower's largest state.
    """
    first, group = distinct_rows(features)
    cols, orders, _ = _presort(features[first])
    return cols, orders.astype(np.int32), group


def _tally(group: np.ndarray, labels: np.ndarray, size: int) -> np.ndarray:
    """Per distinct row, count * _COUNT + positives: how many rows fall there, and
    how many of those are positive. Sums and differences of tallies stay exact
    and unpack with a shift and a mask while a node holds fewer than 2**31 rows."""
    counts = np.bincount(group, minlength=size)
    positives = np.bincount(group, weights=labels, minlength=size).astype(np.int64)
    return counts * _COUNT + positives


def _gini_splits(
    cols: np.ndarray, tally: np.ndarray, nodes: list[tuple]
) -> list[SplitDecision | None]:
    """Best gini split of each node, or None, in one batched search.

    cols (d, U) holds the distinct rows' columns; tally[t, u] packs how many
    of tree t's rows are distinct row u and how many of those are positive
    (see _tally), so one cumsum gives both prefix counts. A node is
    (t, block, cands, n, pos): block holds the keys t * U + u of its distinct
    rows u sorted by feature 0, then by feature 1, and so on (d runs of equal
    length), cands its candidate features in any order, n and pos its row and
    positive counts.

    Each (node, candidate) pair is one segment of flat arrays. A boundary
    between two distinct values cuts the node where the row-by-row search
    cuts it after the last row of the lower value, with the same integer
    prefix counts, so the gain formula below gives the same floats, and the
    threshold is the same midpoint. Gains are computed only at such
    boundaries. The winner is the first maximum in (feature, position)
    order, kept only if positive: the per-feature rule of _split_sorted,
    since gini gains are never NaN.
    """
    d, U = cols.shape
    tree_ids, blocks, cands, n, pos = zip(*nodes)
    k = np.array([len(block) for block in blocks]) // d
    seg_node = np.arange(len(nodes)).repeat([len(c) for c in cands])
    seg_feat = np.concatenate(cands) + seg_node * d
    seg_feat.sort()  # each node's candidates in ascending order
    seg_feat -= seg_node * d
    seg_len = k[seg_node]
    ends = seg_len.cumsum()
    starts = ends - seg_len
    seg_of = np.arange(len(seg_len)).repeat(seg_len)
    shift = ((d * k).cumsum() - d * k)[seg_node] + seg_feat * seg_len - starts
    keys = np.concatenate(blocks)[np.arange(ends[-1]) + shift[seg_of]]
    to_value = (seg_feat - np.array(tree_ids)[seg_node]) * U
    values = cols.ravel()[keys + to_value[seg_of]]
    row = tally.ravel()[keys]
    cum = row.cumsum()

    boundary = np.empty(len(values), dtype=bool)
    np.not_equal(values[:-1], values[1:], out=boundary[:-1])
    boundary[ends - 1] = False
    at = boundary.nonzero()[0]
    seg = seg_of[at]
    node = seg_node[seg]
    left_tally = cum[at] - (cum[starts] - row[starts])[seg]
    left_pos = (left_tally & (_COUNT - 1)).astype(np.float64)
    left_n = (left_tally >> 32).astype(np.float64)
    total_n = np.array(n, dtype=np.float64)
    total_pos = np.array(pos, dtype=np.float64)
    p0 = (total_n - total_pos) / total_n
    p1 = total_pos / total_n
    parent = (1.0 - p0 * p0 - p1 * p1)[node]
    total_n, total_pos = total_n[node], total_pos[node]
    p1l = left_pos / left_n
    p0l = (left_n - left_pos) / left_n
    gl = 1.0 - p0l * p0l - p1l * p1l
    right_n = total_n - left_n
    right_pos = total_pos - left_pos
    p1r = right_pos / right_n
    p0r = (right_n - right_pos) / right_n
    gr = 1.0 - p0r * p0r - p1r * p1r
    gains = parent - (left_n / total_n) * gl - (right_n / total_n) * gr

    bounds = node.searchsorted(np.arange(len(nodes) + 1))  # node ascends: one run per node
    scored = (bounds[:-1] < bounds[1:]).nonzero()[0]
    best = np.maximum.reduceat(gains, bounds[scored])
    hits = (gains == best.repeat(bounds[scored + 1] - bounds[scored])).nonzero()[0]
    won = best > 0.0
    best, won = best[won], scored[won]
    first = hits[node[hits].searchsorted(won)]  # each won node's first maximum
    cut = at[first]
    decisions: list[SplitDecision | None] = [None] * len(nodes)
    for i, feature, low, high, gain in zip(won.tolist(), seg_feat[seg[first]].tolist(),
                                           values[cut].tolist(), values[cut + 1].tolist(),
                                           best.tolist()):
        decisions[i] = SplitDecision(feature_index=feature, threshold=_midpoint(low, high),
                                     gain=gain)
    return decisions


def _batches(items: list, costs: list[int], budget: int):
    """Consecutive runs of items whose costs sum to at most budget, or single items."""
    batch, size = [], 0
    for item, cost in zip(items, costs):
        if batch and size + cost > budget:
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += cost
    yield batch


def _grow_gini(
    cols: np.ndarray,
    orders: np.ndarray,
    tally: np.ndarray,
    params: TreeParams,
    samplers: list,
) -> list[_Tree]:
    """Grow one gini tree per row of tally, all in lockstep.

    cols and orders are _distinct_presort's; tally is as in _gini_splits.
    samplers[t] is None (every feature) or yields tree t's candidate
    features for each node, in any order. Each tree keeps its own
    preorder stack: a step pops, per tree, leaves until the next node that
    needs a split search and draws its candidates, so every sampler is
    drawn from in the order a recursive build draws. One _gini_splits call
    per _GINI_BLOCK elements then scores the popped nodes of all trees, and
    their blocks are partitioned with one compress per side.
    """
    d, U = cols.shape
    every_feature = np.arange(d)
    goes_left = np.zeros(tally.size, dtype=bool)  # per (tree, distinct row)
    trees = [_Tree() for _ in range(len(tally))]
    stacks = []
    for t in range(len(tally)):
        n, pos = divmod(int(tally[t].sum()), _COUNT)
        stacks.append([(None, orders[(tally[t] > 0)[orders]] + t * U, n, pos, 0)])

    while True:
        todo = []
        for t, stack in enumerate(stacks):
            while stack:
                parent, block, n, pos, depth = stack.pop()
                node = trees[t].add(parent, pos / n)
                if depth < params.max_depth and 0 < pos < n:
                    sampler = samplers[t]
                    cands = every_feature if sampler is None else next(sampler)
                    todo.append((t, block, cands, n, pos, node, depth))
                    break
        if not todo:
            return trees
        costs = [len(item[2]) * len(item[1]) // d for item in todo]
        for batch in _batches(todo, costs, _GINI_BLOCK):
            decisions = _gini_splits(cols, tally, [item[:5] for item in batch])
            split = [(item, s) for item, s in zip(batch, decisions) if s is not None]
            if not split:
                continue
            t = np.array([item[0] for item, _ in split])
            k = np.array([len(item[1]) for item, _ in split]) // d
            feature = np.array([s.feature_index for _, s in split])
            blocks = np.concatenate([item[1] for item, _ in split])
            starts = k.cumsum() - k
            row_starts = (d * k).cumsum() - d * k + feature * k  # each split feature's run
            keys = blocks[np.arange(starts[-1] + k[-1]) + (row_starts - starts).repeat(k)]
            threshold = np.array([s.threshold for _, s in split]).repeat(k)
            left = cols.ravel()[keys + ((feature - t) * U).repeat(k)] < threshold
            goes_left[keys] = left
            k_left = np.add.reduceat(left, starts, dtype=np.int64)
            left_tally = np.add.reduceat(tally.ravel()[keys] * left, starts)
            to_left = goes_left[blocks]
            lefts, rights = blocks.compress(to_left), blocks.compress(~to_left)
            left_ends = (d * k_left.cumsum()).tolist()
            right_ends = (d * (k - k_left).cumsum()).tolist()
            for ((t, _, _, n, pos, node, depth), s), l0, l1, r0, r1, nl, pl in zip(
                split, [0] + left_ends, left_ends, [0] + right_ends, right_ends,
                (left_tally >> 32).tolist(), (left_tally & (_COUNT - 1)).tolist(),
            ):
                trees[t].split(node, s)
                stacks[t] += [
                    (node, rights[r0:r1], n - nl, pos - pl, depth + 1),
                    (node, lefts[l0:l1], nl, pl, depth + 1),
                ]


def best_split(
    features: np.ndarray,
    targets: np.ndarray,
    candidate_features,
    criterion: str = "gini",
    *,
    hessians: np.ndarray | None = None,
    lam: float = 0.0,
    gamma: float = 0.0,
) -> SplitDecision | None:
    """Best (feature, midpoint) split over the candidates, or None.

    For "gini", targets are binary labels. For "second_order", targets are
    per-row gradients and hessians must be given. Returns None when no
    candidate achieves strictly positive gain.
    """
    if criterion not in ("gini", "second_order"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "second_order" and hessians is None:
        raise ValueError("second_order criterion requires hessians")
    cands = _candidates(candidate_features, features.shape[1])
    n = features.shape[0]
    if n < 2:
        raise TooFewRows(f"cannot split {n} row(s)")
    if not cands.size:
        return None

    if criterion == "gini":
        cols, orders, group = _distinct_presort(features)
        tally = _tally(group, targets, cols.shape[1])
        node = (0, orders.ravel(), cands, n, int(tally.sum()) % _COUNT)
        return _gini_splits(cols, tally[None], [node])[0]
    _, orders, values = _presort(features[:, cands])
    return _split_sorted(cands, orders, values, _grad_hess(targets, hessians), lam, gamma)


def _leaf_value(targets: GradientTargets, idx: np.ndarray) -> float:
    g = float(targets.grad[idx].sum())
    denom = float(targets.leaf_hess[idx].sum()) + targets.lam
    return -g / max(denom, LEAF_DENOM_FLOOR)


def grow_tree(features: np.ndarray, targets, params: TreeParams) -> TreeNode:
    """Grow a tree until pure, depth-limited, or gain-starved; returns a view of its root.

    targets: binary labels (criterion "gini") or GradientTargets
    ("second_order"). Every node considers every feature.
    """
    _check_training(features)
    if isinstance(targets, GradientTargets):
        return TreeNode(_stack([_grow(*_presort(features), targets, params)[0]]), 0)
    cols, orders, group = _distinct_presort(features)
    tally = _tally(group, targets, cols.shape[1])
    return TreeNode(_stack(_grow_gini(cols, orders, tally[None], params, [None])), 0)


def _grow(
    cols: np.ndarray,
    orders: np.ndarray,
    values: np.ndarray,
    targets: GradientTargets,
    params: TreeParams,
) -> tuple[_Tree, np.ndarray]:
    """A second-order grow_tree on the columns, orders and sorted values of features (see _presort).

    Every node scores every feature; children at max_depth become leaves
    without a search, so their orders are never partitioned. Also returns
    each training row's leaf value, which is the tree's prediction for that
    row: rows are routed by the same < test on the same values that
    prediction applies.
    """
    d, n = cols.shape
    every_feature = np.arange(d)
    in_left = np.zeros(n, dtype=bool)
    out = np.empty(n, dtype=np.float64)
    gh = _grad_hess(targets.grad, targets.hess)
    tree = _Tree()
    # (parent, rows, orders, values, depth). The right child is pushed first, so the left
    # subtree grows first and a pending right sibling per level is the only
    # extra order held.
    stack = [(None, np.arange(n), orders, values, 0)]
    while stack:
        parent, idx, orders, values, depth = stack.pop()
        split = None
        if depth < params.max_depth and len(idx) >= 2:
            split = _split_sorted(every_feature, orders, values, gh, targets.lam, targets.gamma)
        if split is None:
            out[idx] = value = _leaf_value(targets, idx)
            tree.add(parent, value)
            continue
        node = tree.add(parent)
        tree.split(node, split)
        go_left = cols[split.feature_index].take(idx) < split.threshold
        right = left = (None, None)
        if depth + 1 < params.max_depth:
            in_left[idx] = go_left
            left_rows = in_left.take(orders).ravel()
            right, left = ([a.take(rows).reshape(d, -1) for a in (orders, values)]
                           for rows in ((~left_rows).nonzero()[0], left_rows.nonzero()[0]))
        stack += [
            (node, idx.compress(~go_left), *right, depth + 1),
            (node, idx.compress(go_left), *left, depth + 1),
        ]
    return tree, out


def _check_width(arrays: TreeArrays, d: int) -> None:
    """Raise unless every node of arrays that is not its own left and right
    child names one of d features; leaves are not checked."""
    nodes = np.arange(arrays.left.size)
    feature = arrays.feature[(arrays.left != nodes) | (arrays.right != nodes)]
    outside = feature[(feature < 0) | (feature >= d)]
    if outside.size:
        raise DimensionMismatch(f"a tree feature index is {outside[0]}, outside [0, {d})")


def _tree_outputs(arrays: TreeArrays, X: np.ndarray,
                  roots: np.ndarray | None = None) -> np.ndarray:
    """The output of each tree of arrays, or of those rooted at roots, for each
    row of X: shape (trees, rows).

    The caller has run _check_width on X's width. Every row descends in
    every tree one depth level per step; boundary values (x == threshold)
    go right. A row at a leaf stays there, so routing ends at the first step
    in which no row moves.
    """
    X = np.atleast_2d(X)
    n, d = X.shape
    if d == 0:  # only leaves remain; they read column 0 and ignore it
        X = np.zeros((n, 1))
        d = 1
    flat = X.ravel()
    row_start = np.arange(n) * d
    kids = np.stack([arrays.right, arrays.left], axis=1).ravel()  # node i goes to kids[2i + go_left]
    node = np.repeat((arrays.roots if roots is None else roots)[:, None], n, axis=1)
    while True:
        go_left = flat.take(row_start + arrays.feature.take(node)) < arrays.threshold.take(node)
        child = kids.take(2 * node + go_left)
        if np.array_equal(child, node):
            return arrays.value.take(node)
        node = child


def _tree_sum(arrays: TreeArrays, X: np.ndarray, start: float, scale: float) -> np.ndarray:
    """start + scale * (output of tree 0) + scale * (output of tree 1) + ... for
    each row of X, added tree by tree in order. Rows are routed in blocks of
    about _SCORE_BLOCK (tree, row) pairs, so memory grows with rows alone."""
    X = np.atleast_2d(X)
    _check_width(arrays, X.shape[1])
    total = np.full(X.shape[0], start, dtype=np.float64)
    step = max(1, _SCORE_BLOCK // max(1, len(arrays.roots)))
    for lo in range(0, X.shape[0], step):
        acc = total[lo:lo + step]
        for out in _tree_outputs(arrays, X[lo:lo + step]):
            acc += scale * out
    return total


def predict_tree(tree: TreeNode, x: np.ndarray) -> float:
    """Route one input through the tree rooted at the view tree; boundary values go right.

    Every split node of tree.arrays, in this tree or any other tree of the
    model, must name a feature of x, or DimensionMismatch is raised.
    """
    X = one_row(x)
    _check_width(tree.arrays, X.shape[1])
    return float(_tree_outputs(tree.arrays, X, np.array([tree.index]))[0, 0])


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass
class ForestModel:
    arrays: TreeArrays
    n_trees: int
    m_features: int
    bootstrap: bool
    seed: int

    trees = property(_root_views)

    def __post_init__(self):
        roots = len(self.arrays.roots)
        if not roots:  # its mean over no trees would be NaN
            raise MalformedModel("the forest has no trees")
        if self.n_trees != roots:
            raise MalformedModel(f"n_trees is {self.n_trees}, not {roots}")


def _feature_subsets(rng: np.random.Generator, d: int, m: int):
    """Yield each next rng.choice(d, size=m, replace=False) as a list, for 0 < m < d."""
    def fetch():  # the words numpy's bounded draws take, in order
        while True:
            yield from rng.integers(0, 1 << 32, size=64, dtype=np.uint32).tolist()
    words, cut = fetch(), [0] + [(1 << 32) % span for span in range(1, d + 1)]

    def below(span: int) -> int:  # Lemire: (word * span) >> 32, redrawn below 2**32 % span
        product = next(words) * span
        while product & 0xFFFFFFFF < cut[span]:
            product = next(words) * span
        return product >> 32

    while True:
        if d > 10000 and m > d // 50:  # numpy shuffles the last m of range(d)
            picks, stop = list(range(d)), max(d - m, 1)
        else:  # Floyd's sample, then numpy shuffles all of it
            picks, seen, stop = [], set(), 1
            for j in range(d - m, d):
                picks.append(j if (pick := below(j + 1)) in seen else pick)
                seen.add(picks[-1])
        for i in range(len(picks) - 1, stop - 1, -1):  # Fisher-Yates from the end
            j = below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        yield picks[-m:]


def train_random_forest(train: Dataset, params: ForestParams | None = None) -> ForestModel:
    """Bagged CART ensemble; tree t draws everything from seed + t."""
    if params is None:
        params = ForestParams()
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.int64)
    _check_training(X)
    n, d = X.shape
    m = min(params.m_features or math.ceil(math.sqrt(d)), d)  # m_features is None or >= 1
    tree_params = TreeParams(max_depth=params.max_depth)

    cols, orders, group = _distinct_presort(X)
    size = cols.shape[1]
    trees = []
    for first in range(0, params.n_trees, _LOCKSTEP_TREES):
        members = range(first, min(first + _LOCKSTEP_TREES, params.n_trees))
        tally = np.empty((len(members), size), dtype=np.int64)
        samplers = []
        for i, t in enumerate(members):
            rng = np.random.default_rng(params.seed + t)
            rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
            tally[i] = _tally(group[rows], y[rows], size)
            samplers.append(_feature_subsets(rng, d, m) if m < d else None)
        trees += _grow_gini(cols, orders, tally, tree_params, samplers)
    return ForestModel(
        arrays=_stack(trees), n_trees=params.n_trees, m_features=m,
        bootstrap=params.bootstrap, seed=params.seed,
    )


def predict_forest(model: ForestModel, x: np.ndarray) -> tuple[int, float]:
    """Mean leaf fraction across trees; label 1 iff confidence >= SCORING_CUT."""
    confidence = float(predict_forest_batch(model, one_row(x))[0])
    return int(confidence >= SCORING_CUT), confidence


def predict_forest_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    return _tree_sum(model.arrays, X, 0.0, 1.0) / len(model.arrays.roots)


# ---------------------------------------------------------------------------
# Boosting (shared prediction pipeline: sigmoid(init + lr * sum of trees))
# ---------------------------------------------------------------------------

@dataclass
class BoostedModel:
    variant: str  # gradient_boosting | xgboost_style
    init_score: float
    arrays: TreeArrays
    learning_rate: float
    lam: float = 0.0
    gamma: float = 0.0

    trees = property(_root_views)

    def __post_init__(self):
        if self.variant not in ("gradient_boosting", "xgboost_style"):
            raise MalformedModel(f"unknown boosting variant {self.variant!r}")


def _base_rate_log_odds(y: np.ndarray) -> float:
    p = float(np.mean(y))
    if p <= 0.0 or p >= 1.0:
        raise SingleClassTrainingSet("boosting needs both classes present")
    return math.log(p / (1.0 - p))


def _boost(
    train: Dataset, *, variant: str, n_rounds: int, learning_rate: float,
    max_depth: int, newton_splits: bool,
    lam: float = 0.0, gamma: float = 0.0,
) -> BoostedModel:
    """The boosting loop shared by both variants.

    Each round fits a second-order tree to the log-loss gradients. Leaf
    values are the Newton step -sum(grad) / (sum(p(1-p)) + lam); split gains
    use the hessians p(1-p) when newton_splits, else unit hessians (a
    least-squares fit to the residuals). No sampling: training is a pure
    function of (data, params).
    """
    from .neural import sigmoid

    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.float64)
    _check_training(X)
    init_score = _base_rate_log_odds(y)
    tree_params = TreeParams(max_depth=max_depth)
    ones = np.ones(X.shape[0], dtype=np.float64)
    presorted = _presort(X)

    scores = np.full(X.shape[0], init_score, dtype=np.float64)
    trees = []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        h = p * (1.0 - p)
        targets = GradientTargets(
            grad=p - y, hess=h if newton_splits else ones, leaf_hess=h, lam=lam, gamma=gamma
        )
        tree, out = _grow(*presorted, targets, tree_params)
        trees.append(tree)
        scores += learning_rate * out
    return BoostedModel(
        variant=variant, init_score=init_score, arrays=_stack(trees),
        learning_rate=learning_rate, lam=lam, gamma=gamma,
    )


def train_gradient_boosting(train: Dataset, params: BoostParams | None = None) -> BoostedModel:
    """First-order boosting: least-squares trees on log-loss residuals."""
    if params is None:
        params = BoostParams()
    return _boost(
        train, variant="gradient_boosting", n_rounds=params.n_rounds,
        learning_rate=params.learning_rate, max_depth=params.max_depth, newton_splits=False,
    )


def train_xgb(train: Dataset, params: XgbParams | None = None) -> BoostedModel:
    """Second-order boosting with L2 leaf regularization and gain penalty."""
    if params is None:
        params = XgbParams()
    return _boost(
        train, variant="xgboost_style", n_rounds=params.n_rounds,
        learning_rate=params.eta, max_depth=params.max_depth, newton_splits=True,
        lam=params.lam, gamma=params.gamma,
    )


def predict_boosted(model: BoostedModel, x: np.ndarray) -> tuple[int, float]:
    """sigmoid(init + lr * sum of tree outputs); label 1 iff >= SCORING_CUT."""
    confidence = float(predict_boosted_batch(model, one_row(x))[0])
    return int(confidence >= SCORING_CUT), confidence


def predict_boosted_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    from .neural import sigmoid

    return sigmoid(_tree_sum(model.arrays, X, model.init_score, model.learning_rate))
