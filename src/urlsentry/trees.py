"""CART trees and the three ensembles built on them.

Shared conventions, fixed so models serialize and replay bit-exactly:
  - candidate thresholds are midpoints of consecutive distinct sorted values;
  - routing is x[feature] < threshold -> left, ties go right;
  - split ties break on (lower feature index, then lower threshold);
  - splits whose gain is not strictly positive are rejected.

Split search is presorted (exact greedy, Chen & Guestrin 2016, sec. 4.1):
each column is stably argsorted once per tree (once per boosting run, since
every round sees the same X), and a split partitions every feature's order
into its children with a row mask, which keeps relative order. Node row sets
are always ascending, so a node's order for feature f, a stable partition of
one stable per-column argsort, equals a fresh stable argsort of the node's
rows by f: ties stay in row order and every gain is summed exactly as a
per-node sort would sum it.

Random forest trees draw a bootstrap sample and per-node feature subsets
from a per-tree generator seeded seed + tree_index, so the ensemble is
independent of training order. Boosting uses no sampling at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyNode, SingleClassTrainingSet, TooFewRows
from .neural import sigmoid
from .pipeline import Dataset

LEAF_DENOM_FLOOR = 1e-12  # guards Newton leaf values when hessians vanish
_SCORE_BLOCK = 1 << 16  # elements scored per pass: temporaries stay within 512 KiB or one column


@dataclass
class TreeNode:
    value: float | None = None
    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class SplitDecision:
    feature_index: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class TreeParams:
    max_depth: int
    min_samples_leaf: int = 1


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
        raise EmptyNode("Gini impurity of zero samples is undefined")
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


def _presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of features as contiguous rows, and the stable argsort of each."""
    cols = np.ascontiguousarray(features.T)
    return cols, np.argsort(cols, axis=1, kind="stable")


def _split_sorted(
    cands: np.ndarray,
    orders: np.ndarray,
    values: np.ndarray,
    targets: np.ndarray,
    hessians: np.ndarray | None,
    lam: float,
    gamma: float,
    min_samples_leaf: int,
) -> SplitDecision | None:
    """Best split of one node over all candidate features at once.

    Row r of orders lists the node's rows sorted stably by feature cands[r],
    and row r of values holds that feature's values in that order; targets
    and hessians are indexed by row. Gini on binary labels when hessians is
    None, else the second-order gain. Features with no admissible split are
    dropped, and the rest are scored _SCORE_BLOCK elements at a time. The
    winner is picked feature by feature in ascending order with a strict >,
    so the earliest of equal gains wins and a NaN gain, once best, is never
    displaced.
    """
    n = values.shape[1]
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    valid = values[:, :-1] != values[:, 1:]
    valid &= (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    splittable = valid.any(axis=1)
    if not splittable.all():
        cands, orders, values, valid = (
            a[splittable] for a in (cands, orders, values, valid)
        )

    best = None
    step = max(1, _SCORE_BLOCK // n)
    for start in range(0, len(cands), step):
        block = slice(start, start + step)
        gains = _gains(orders[block], targets, hessians, lam, gamma, left_n, right_n)
        gains = np.where(valid[block], gains, -np.inf)
        for r, pos in enumerate(np.argmax(gains, axis=1).tolist()):
            gain = float(gains[r, pos])
            if gain <= 0.0:
                continue
            if best is None or gain > best[0]:
                best = (gain, start + r, pos)
    if best is None:
        return None
    gain, r, pos = best
    threshold = float((values[r, pos] + values[r, pos + 1]) / 2.0)
    return SplitDecision(feature_index=int(cands[r]), threshold=threshold, gain=gain)


def _gains(
    orders: np.ndarray,
    targets: np.ndarray,
    hessians: np.ndarray | None,
    lam: float,
    gamma: float,
    left_n: np.ndarray,
    right_n: np.ndarray,
) -> np.ndarray:
    """Gain of splitting after each position of each row of orders.

    cumsum(axis=1) adds sequentially, so each row equals a one-feature
    cumsum, and every gain, bit for bit.
    """
    n = orders.shape[1]
    if hessians is None:
        pos_prefix = np.cumsum(targets[orders].astype(np.int64), axis=1)
        total_pos = int(pos_prefix[0, -1])
        parent = gini((n - total_pos, total_pos))
        left_pos = pos_prefix[:, :-1].astype(np.float64)
        p1l = left_pos / left_n
        p0l = (left_n - left_pos) / left_n
        gl = 1.0 - p0l * p0l - p1l * p1l
        right_pos = total_pos - left_pos
        p1r = right_pos / right_n
        p0r = (right_n - right_pos) / right_n
        gr = 1.0 - p0r * p0r - p1r * p1r
        return parent - (left_n / n) * gl - (right_n / n) * gr
    g_prefix = np.cumsum(targets[orders], axis=1)
    h_prefix = np.cumsum(hessians[orders], axis=1)
    g_total = g_prefix[:, -1:]
    h_total = h_prefix[:, -1:]
    gl_s, hl_s = g_prefix[:, :-1], h_prefix[:, :-1]
    gr_s, hr_s = g_total - gl_s, h_total - hl_s
    return 0.5 * (
        gl_s * gl_s / (hl_s + lam)
        + gr_s * gr_s / (hr_s + lam)
        - g_total * g_total / (h_total + lam)
    ) - gamma


def best_split(
    features: np.ndarray,
    targets: np.ndarray,
    candidate_features,
    criterion: str = "gini",
    *,
    hessians: np.ndarray | None = None,
    lam: float = 0.0,
    gamma: float = 0.0,
    min_samples_leaf: int = 1,
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

    cols = features.T[cands]
    orders = np.argsort(cols, axis=1, kind="stable")
    return _split_sorted(
        cands, orders, np.take_along_axis(cols, orders, axis=1), targets,
        None if criterion == "gini" else hessians, lam, gamma, min_samples_leaf,
    )


def _leaf_value(targets, idx: np.ndarray) -> float:
    if isinstance(targets, GradientTargets):
        g = float(np.sum(targets.grad[idx]))
        denom = float(np.sum(targets.leaf_hess[idx])) + targets.lam
        return -g / max(denom, LEAF_DENOM_FLOOR)
    return float(np.sum(targets[idx])) / len(idx)


def grow_tree(
    features: np.ndarray,
    targets,
    params: TreeParams,
    feature_sampler=None,
) -> TreeNode:
    """Recursively grow a tree until pure, depth-limited, or gain-starved.

    targets: binary labels (criterion "gini") or GradientTargets
    ("second_order"). feature_sampler, when given, returns the candidate
    feature indices for one node; None considers every feature.
    """
    return _grow(*_presort(features), targets, params, feature_sampler)


def _grow(
    cols: np.ndarray,
    orders: np.ndarray,
    targets,
    params: TreeParams,
    feature_sampler=None,
) -> TreeNode:
    """grow_tree on the presorted columns and orders of features (see _presort)."""
    d, n = cols.shape
    boosted = isinstance(targets, GradientTargets)
    every_feature = np.arange(d)
    in_left = np.zeros(n, dtype=bool)

    def node_split(orders: np.ndarray) -> SplitDecision | None:
        if feature_sampler is None:
            cands = every_feature
        else:
            cands = _candidates(feature_sampler(), d)
            orders = orders[cands]
        values = cols[cands[:, None], orders]
        if boosted:
            return _split_sorted(
                cands, orders, values, targets.grad, targets.hess,
                targets.lam, targets.gamma, params.min_samples_leaf,
            )
        return _split_sorted(
            cands, orders, values, targets, None, 0.0, 0.0, params.min_samples_leaf
        )

    def build(idx: np.ndarray, orders: np.ndarray, depth: int) -> TreeNode:
        leaf = TreeNode(value=_leaf_value(targets, idx))
        if depth >= params.max_depth or len(idx) < 2:
            return leaf
        if not boosted:
            labels = targets[idx]
            if labels.min() == labels.max():
                return leaf

        split = node_split(orders)
        if split is None:
            return leaf

        go_left = cols[split.feature_index, idx] < split.threshold
        in_left[idx] = go_left
        left_rows = in_left[orders].ravel()
        # Popped one at a time, so a pending sibling is the only extra order held.
        children = [
            np.compress(~left_rows, orders).reshape(d, -1),
            np.compress(left_rows, orders).reshape(d, -1),
        ]
        del orders, left_rows
        return TreeNode(
            feature_index=split.feature_index,
            threshold=split.threshold,
            left=build(idx[go_left], children.pop(), depth + 1),
            right=build(idx[~go_left], children.pop(), depth + 1),
        )

    return build(np.arange(n), orders, 0)


def predict_tree(tree: TreeNode, x: np.ndarray) -> float:
    """Route one input to its leaf; boundary values (x == threshold) go right."""
    node = tree
    while not node.is_leaf:
        if not 0 <= node.feature_index < len(x):
            raise DimensionMismatch(
                f"tree expects feature {node.feature_index}, input has {len(x)}"
            )
        node = node.left if x[node.feature_index] < node.threshold else node.right
    return node.value


def predict_tree_batch(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    out = np.empty(X.shape[0], dtype=np.float64)

    def route(node: TreeNode, idx: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.value
            return
        if not 0 <= node.feature_index < X.shape[1]:
            raise DimensionMismatch(
                f"tree expects feature {node.feature_index}, input has {X.shape[1]}"
            )
        go_left = X[idx, node.feature_index] < node.threshold
        route(node.left, idx[go_left])
        route(node.right, idx[~go_left])

    route(tree, np.arange(X.shape[0]))
    return out


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    m_features: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    min_samples_leaf: int = 1
    seed: int = 0


@dataclass
class ForestModel:
    trees: list[TreeNode]
    n_trees: int
    m_features: int
    bootstrap: bool
    seed: int


def train_random_forest(train: Dataset, params: ForestParams | None = None) -> ForestModel:
    """Bagged CART ensemble; tree t draws everything from seed + t."""
    if params is None:
        params = ForestParams()
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.int64)
    n, d = X.shape
    m = params.m_features if params.m_features is not None else math.ceil(math.sqrt(d))
    m = min(m, d)
    tree_params = TreeParams(max_depth=params.max_depth, min_samples_leaf=params.min_samples_leaf)

    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(params.seed + t)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        sampler = None
        if m < d:
            sampler = lambda rng=rng: np.sort(rng.choice(d, size=m, replace=False))
        trees.append(grow_tree(X[rows], y[rows], tree_params, sampler))
    return ForestModel(
        trees=trees, n_trees=params.n_trees, m_features=m,
        bootstrap=params.bootstrap, seed=params.seed,
    )


def predict_forest(model: ForestModel, x: np.ndarray) -> tuple[int, float]:
    """Mean leaf fraction across trees; label 1 iff confidence >= 0.5."""
    confidence = float(predict_forest_batch(model, x)[0])
    return (1 if confidence >= 0.5 else 0), confidence


def predict_forest_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += predict_tree_batch(tree, X)
    return acc / len(model.trees)


# ---------------------------------------------------------------------------
# Boosting (shared prediction pipeline: sigmoid(init + lr * sum of trees))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class XgbParams:
    n_rounds: int = 100
    eta: float = 0.3
    max_depth: int = 6
    lam: float = 1.0
    gamma: float = 0.0
    min_samples_leaf: int = 1


@dataclass
class BoostedModel:
    variant: str  # gradient_boosting | xgboost_style
    init_score: float
    trees: list[TreeNode]
    learning_rate: float
    lam: float = 0.0
    gamma: float = 0.0


def _base_rate_log_odds(y: np.ndarray) -> float:
    p = float(np.mean(y))
    if p <= 0.0 or p >= 1.0:
        raise SingleClassTrainingSet("boosting needs both classes present")
    return math.log(p / (1.0 - p))


def _boost(
    train: Dataset, *, variant: str, n_rounds: int, learning_rate: float,
    max_depth: int, min_samples_leaf: int, newton_splits: bool,
    lam: float = 0.0, gamma: float = 0.0,
) -> BoostedModel:
    """The boosting loop shared by both variants.

    Each round fits a second-order tree to the log-loss gradients. Leaf
    values are the Newton step -sum(grad) / (sum(p(1-p)) + lam); split gains
    use the hessians p(1-p) when newton_splits, else unit hessians (a
    least-squares fit to the residuals). No sampling: training is a pure
    function of (data, params).
    """
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.float64)
    init_score = _base_rate_log_odds(y)
    tree_params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    ones = np.ones(X.shape[0], dtype=np.float64)
    cols, orders = _presort(X)

    scores = np.full(X.shape[0], init_score, dtype=np.float64)
    trees = []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        h = p * (1.0 - p)
        targets = GradientTargets(
            grad=p - y, hess=h if newton_splits else ones, leaf_hess=h, lam=lam, gamma=gamma
        )
        tree = _grow(cols, orders, targets, tree_params)
        trees.append(tree)
        scores += learning_rate * predict_tree_batch(tree, X)
    return BoostedModel(
        variant=variant, init_score=init_score, trees=trees,
        learning_rate=learning_rate, lam=lam, gamma=gamma,
    )


def train_gradient_boosting(train: Dataset, params: BoostParams | None = None) -> BoostedModel:
    """First-order boosting: least-squares trees on log-loss residuals."""
    if params is None:
        params = BoostParams()
    return _boost(
        train, variant="gradient_boosting", n_rounds=params.n_rounds,
        learning_rate=params.learning_rate, max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf, newton_splits=False,
    )


def train_xgb(train: Dataset, params: XgbParams | None = None) -> BoostedModel:
    """Second-order boosting with L2 leaf regularization and gain penalty."""
    if params is None:
        params = XgbParams()
    return _boost(
        train, variant="xgboost_style", n_rounds=params.n_rounds,
        learning_rate=params.eta, max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf, newton_splits=True,
        lam=params.lam, gamma=params.gamma,
    )


def predict_boosted(model: BoostedModel, x: np.ndarray) -> tuple[int, float]:
    """sigmoid(init + lr * sum of tree outputs); label 1 iff >= 0.5."""
    confidence = float(predict_boosted_batch(model, x)[0])
    return (1 if confidence >= 0.5 else 0), confidence


def predict_boosted_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    scores = np.full(X.shape[0], model.init_score, dtype=np.float64)
    for tree in model.trees:
        scores += model.learning_rate * predict_tree_batch(tree, X)
    return sigmoid(scores)
