import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsentry import sample_dataset_path, trees
from urlsentry.config import PipelineConfig
from urlsentry.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    SingleClassTrainingSet,
    TooFewRows,
)
from urlsentry.features import FeatureSpec
from urlsentry.neural import sigmoid
from urlsentry.pipeline import Dataset, distinct_rows
from urlsentry.runner import fit_preprocessor, load_labeled_dataset
from urlsentry.trees import (
    BoostedModel,
    BoostParams,
    ForestParams,
    GradientTargets,
    TreeNode,
    TreeParams,
    XgbParams,
    best_split,
    gini,
    grow_tree,
    predict_boosted,
    predict_forest,
    predict_tree,
    second_order_gain,
    train_gradient_boosting,
    train_random_forest,
    train_xgb,
)


def midpoint(low, high):
    """The threshold between sorted values low < high: their midpoint, or high
    where the midpoint rounds onto low or overflows, so low goes left and high right."""
    mid = float((low + high) / 2.0)
    return float(high) if mid <= low or mid > high else mid


def exhaustive_best_split(features, targets, criterion="gini",
                          hessians=None, lam=0.0, gamma=0.0):
    """Loop over every (feature, midpoint) pair; ties keep the earliest."""
    n, d = features.shape
    best = None
    for f in range(d):
        idx = sorted(range(n), key=lambda i: (features[i, f], i))
        vals = [features[i, f] for i in idx]
        if criterion == "second_order":
            g_total = 0.0
            h_total = 0.0
            for i in idx:
                g_total += float(targets[i])
                h_total += float(hessians[i])
        g_left = 0.0
        h_left = 0.0
        pos_left = 0
        for pos in range(n - 1):
            i = idx[pos]
            if criterion == "second_order":
                g_left += float(targets[i])
                h_left += float(hessians[i])
            else:
                pos_left += int(targets[i])
            if vals[pos] == vals[pos + 1]:
                continue
            n_left = pos + 1
            n_right = n - n_left
            if criterion == "gini":
                total_pos = int(sum(int(targets[j]) for j in idx))
                parent = gini((n - total_pos, total_pos))
                gini_l = gini((n_left - pos_left, pos_left))
                pos_right = total_pos - pos_left
                gini_r = gini((n_right - pos_right, pos_right))
                gain = parent - (n_left / n) * gini_l - (n_right / n) * gini_r
            else:
                gain = second_order_gain(
                    g_left, h_left, g_total - g_left, h_total - h_left, lam, gamma
                )
            if gain <= 0.0:
                continue
            if best is None or gain > best[0]:
                best = (gain, f, midpoint(vals[pos], vals[pos + 1]))
    return best


@dataclass
class Node:
    """A tree node as nested objects: the reference form of a tree."""

    value: float | None = None
    feature_index: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def reference_predict_tree_batch(tree, X):
    """Route the rows of X recursively, node by node: the reference router."""
    X = np.atleast_2d(X)
    out = np.empty(X.shape[0], dtype=np.float64)

    def route(node, idx):
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


def flat(*roots) -> trees.TreeArrays:
    """TreeArrays holding the given trees (Nodes or views), each numbered in preorder."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node) -> int:
        i = len(value)
        feature.append(0 if node.is_leaf else node.feature_index)
        threshold.append(0.0 if node.is_leaf else node.threshold)
        value.append(node.value if node.is_leaf else 0.0)
        left.append(i)
        right.append(i)
        if not node.is_leaf:
            left[i] = add(node.left)
            right[i] = add(node.right)
        return i

    starts = [add(root) for root in roots]
    index = lambda values: np.array(values, dtype=np.intp)
    return trees.TreeArrays(index(feature), np.array(threshold, dtype=np.float64), index(left),
                            index(right), np.array(value, dtype=np.float64), index(starts))


def stump(feature_index):
    """A split at 0.5 on feature_index into leaves 0.0 and 1.0, as a view."""
    return TreeNode(flat(Node(feature_index=feature_index, threshold=0.5,
                              left=Node(value=0.0), right=Node(value=1.0))), 0)


def dyadic_second_order_dataset(rng, n, d):
    """Dyadic-rational values so float sums are exact in any order."""
    features = rng.integers(0, 9, size=(n, d)).astype(np.float64) / 8.0
    grads = rng.integers(-64, 65, size=n).astype(np.float64) / 16.0
    hess = rng.integers(1, 65, size=n).astype(np.float64) / 16.0
    return features, grads, hess


class TestGini:
    def test_symmetric_max(self):
        assert gini((2, 2)) == 0.5

    def test_pure_node(self):
        assert gini((4, 0)) == 0.0

    def test_three_one(self):
        assert gini((3, 1)) == pytest.approx(0.375, abs=1e-15)  # 1 - 9/16 - 1/16

    def test_empty_node(self):
        with pytest.raises(EmptyInput):
            gini((0, 0))


class TestSecondOrderGain:
    def test_worked_value(self):
        gain = second_order_gain(2.0, 2.0, -2.0, 2.0, lam=1.0, gamma=0.0)
        assert gain == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_gamma_subtracts(self):
        base = second_order_gain(2.0, 2.0, -2.0, 2.0, lam=1.0, gamma=0.0)
        assert second_order_gain(2.0, 2.0, -2.0, 2.0, lam=1.0, gamma=0.5) == base - 0.5


class TestBestSplit:
    def test_one_dimensional_perfect_split(self):
        features = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        split = best_split(features, labels, [0], "gini")
        assert split.feature_index == 0
        assert split.threshold == 0.5
        assert split.gain == pytest.approx(0.5, abs=1e-15)

    def test_pure_labels_no_split(self):
        features = np.array([[0.0], [1.0], [2.0]])
        assert best_split(features, np.array([1, 1, 1]), [0], "gini") is None

    def test_identical_gain_prefers_lower_feature(self):
        col = np.array([0.0, 0.0, 1.0, 1.0])
        features = np.column_stack([col, col])  # duplicated feature
        labels = np.array([0, 0, 1, 1])
        split = best_split(features, labels, [1, 0], "gini")
        assert split.feature_index == 0

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            best_split(np.array([[1.0]]), np.array([1]), [0], "gini")

    @pytest.mark.parametrize("criterion", ["gini", "second_order"])
    def test_no_candidates_no_split(self, criterion):
        features = np.array([[0.0], [1.0], [2.0]])
        targets = np.array([0, 1, 1]) if criterion == "gini" else np.array([0.5, -0.5, -0.5])
        assert best_split(features, targets, [], criterion, hessians=np.ones(3)) is None

    @pytest.mark.parametrize("candidates", [[-2], [0, 2], [-1, 0]])
    def test_candidate_outside_columns_rejected(self, candidates):
        features = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            best_split(features, np.array([0, 1]), candidates)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda X, y: best_split(X, y, [1], "entropy"), id="unknown-criterion"),
        pytest.param(lambda X, y: best_split(X, y, [1], "second_order"), id="no-hessians"),
    ])
    def test_bad_arguments_rejected_even_without_a_split(self, call):
        features = np.array([[0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])  # column 1 is constant
        with pytest.raises(ValueError):
            call(features, np.array([0, 1, 1]))

    def test_matches_exhaustive_enumeration_gini(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 5))
            features = rng.normal(size=(n, d))
            if trial % 3 == 0 and d >= 2:
                features[:, 1] = features[:, 0]  # engineered tie
            labels = rng.integers(0, 2, size=n)
            got = best_split(features, labels, range(d), "gini")
            want = exhaustive_best_split(features, labels, "gini")
            if want is None:
                assert got is None
            else:
                assert (got.gain, got.feature_index, got.threshold) == want

    def test_matches_exhaustive_enumeration_second_order(self):
        rng = np.random.default_rng(4)
        for trial in range(15):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 5))
            features, grads, hess = dyadic_second_order_dataset(rng, n, d)
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            gamma = float(rng.choice([0.0, 0.25]))
            got = best_split(features, grads, range(d), "second_order",
                             hessians=hess, lam=lam, gamma=gamma)
            want = exhaustive_best_split(features, grads, "second_order",
                                         hessians=hess, lam=lam, gamma=gamma)
            if want is None:
                assert got is None
            else:
                assert (got.gain, got.feature_index, got.threshold) == want


class TestGrowTree:
    def test_pure_input_single_leaf(self):
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([1, 1]), TreeParams(max_depth=3))
        assert tree.is_leaf and tree.value == 1.0

    def test_depth_zero_overall_fraction(self):
        tree = grow_tree(
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([0, 1, 1, 1]),
            TreeParams(max_depth=0),
        )
        assert tree.is_leaf and tree.value == 0.75

    def test_two_point_separable(self):
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]), TreeParams(max_depth=2))
        assert not tree.is_leaf
        assert tree.threshold == 0.5
        assert tree.left.value == 0.0 and tree.right.value == 1.0

    @pytest.mark.parametrize("low, high", [(1.0, np.nextafter(1.0, 2.0)), (-0.0, 5e-324),
                                           (1e308, 1.5e308)])
    def test_a_midpoint_on_the_lower_value_gives_way_to_the_upper(self, low, high):
        # (low + high) / 2 rounds onto low (or overflows), so a split there would send
        # the low rows right with the high ones; the upper value parts them instead
        mid = (low + high) / 2.0
        assert mid <= low or mid > high
        X = np.array([[low], [high], [low], [high]])
        y = np.array([0, 1, 0, 1])
        hess = np.ones(4)
        targets = GradientTargets(grad=y - 0.5, hess=hess, leaf_hess=hess, lam=1.0)
        gini_tree = grow_tree(X, y, TreeParams(max_depth=3))
        tree = grow_tree(X, targets, TreeParams(max_depth=3))
        assert (gini_tree.threshold, gini_tree.left.value, gini_tree.right.value) == (high, 0.0, 1.0)
        assert tree.threshold == high and tree.left.is_leaf and tree.right.is_leaf
        assert tree.left.value > 0.0 > tree.right.value

    def test_depth_bound_honored(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(200, 4))
        labels = rng.integers(0, 2, size=200)
        for max_depth in (1, 2, 4):
            tree = grow_tree(features, labels, TreeParams(max_depth=max_depth))

            def depth(node):
                if node.is_leaf:
                    return 0
                return 1 + max(depth(node.left), depth(node.right))

            assert depth(tree) <= max_depth


class TestPredictTree:
    def test_single_leaf_constant(self):
        leaf = TreeNode(flat(Node(value=0.25)), 0)
        assert predict_tree(leaf, np.array([9.0, -3.0])) == 0.25

    def test_routes_like_grow_example(self):
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]), TreeParams(max_depth=2))
        assert predict_tree(tree, np.array([0.0])) == 0.0
        assert predict_tree(tree, np.array([1.0])) == 1.0

    def test_boundary_routes_right(self):
        assert predict_tree(stump(0), np.array([0.5])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict_tree(stump(3), np.array([1.0]))

    def test_a_matrix_is_not_one_input(self):
        with pytest.raises(DimensionMismatch, match="one vector"):
            predict_tree(stump(2), np.zeros((3, 3)))

    def test_negative_feature_rejected(self):
        tree = stump(-1)
        with pytest.raises(DimensionMismatch):
            predict_tree(tree, np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            trees._tree_sum(tree.arrays, np.array([[1.0, 0.0]]), 0.0, 1.0)

    def test_a_leaf_reads_no_feature(self):
        leaf = TreeNode(flat(Node(value=0.25)), 0)
        assert predict_tree(leaf, np.array([])) == 0.25

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(50, 3))
        labels = rng.integers(0, 2, size=50)
        tree = grow_tree(features, labels, TreeParams(max_depth=4))
        queries = rng.normal(size=(20, 3))
        batch = trees._tree_outputs(tree.arrays, queries)[0]
        for i in range(20):
            assert batch[i] == predict_tree(tree, queries[i])


class TestRandomForest:
    def test_degenerate_forest_equals_cart(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(60, 4))
        labels = rng.integers(0, 2, size=60)
        ds = Dataset(features, labels, [f"u{i}" for i in range(60)])
        forest = train_random_forest(
            ds, ForestParams(n_trees=1, bootstrap=False, m_features=4, max_depth=6, seed=0)
        )
        cart = grow_tree(features, labels, TreeParams(max_depth=6))
        for _ in range(200):
            x = rng.normal(size=4)
            assert predict_forest(forest, x)[1] == predict_tree(cart, x)

    def test_same_seed_identical(self, toy_dataset):
        params = ForestParams(n_trees=5, max_depth=3, seed=42)
        f1 = train_random_forest(toy_dataset, params)
        f2 = train_random_forest(toy_dataset, params)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(loc=2.5, size=2)
            assert predict_forest(f1, x) == predict_forest(f2, x)

    def test_separable_toy_full_accuracy(self, toy_dataset):
        forest = train_random_forest(toy_dataset, ForestParams(n_trees=20, seed=0))
        for x, y in zip(toy_dataset.features, toy_dataset.labels):
            assert predict_forest(forest, x)[0] == y

    def test_all_unanimous_trees(self):
        model = trees.ForestModel(
            arrays=flat(Node(value=1.0), Node(value=1.0)),
            n_trees=2, m_features=1, bootstrap=False, seed=0,
        )
        assert predict_forest(model, np.array([0.0])) == (1, 1.0)

    def test_mean_tie_is_malicious(self):
        model = trees.ForestModel(
            arrays=flat(Node(value=0.2), Node(value=0.8)),
            n_trees=2, m_features=1, bootstrap=False, seed=0,
        )
        assert predict_forest(model, np.array([0.0])) == (1, 0.5)

    def test_confidence_equals_hand_average(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(40, 3))
        labels = rng.integers(0, 2, size=40)
        ds = Dataset(features, labels, [f"u{i}" for i in range(40)])
        forest = train_random_forest(ds, ForestParams(n_trees=7, max_depth=3, seed=1))
        x = rng.normal(size=3)
        hand = np.mean([predict_tree(t, x) for t in forest.trees])
        assert predict_forest(forest, x)[1] == hand

    def test_single_class_tolerated(self):
        ds = Dataset(np.ones((5, 2)), np.ones(5, dtype=int), [f"u{i}" for i in range(5)])
        forest = train_random_forest(ds, ForestParams(n_trees=3, seed=0))
        assert predict_forest(forest, np.ones(2)) == (1, 1.0)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, toy_dataset, n_trees):
        with pytest.raises(ConfigError, match=f"at least one tree, got n_trees={n_trees}"):
            train_random_forest(toy_dataset, ForestParams(n_trees=n_trees))

    @pytest.mark.parametrize("m_features", [0, -2])
    def test_no_features_rejected(self, toy_dataset, m_features):
        with pytest.raises(ConfigError, match=f"got m_features={m_features}"):
            train_random_forest(toy_dataset, ForestParams(m_features=m_features))


class TestParamsChecks:
    @pytest.mark.parametrize("params, settings, message", [
        (ForestParams, {"n_trees": 0}, "a forest needs at least one tree, got n_trees=0"),
        (ForestParams, {"m_features": 0}, "a node needs at least one feature, got m_features=0"),
        (ForestParams, {"max_depth": -1}, "max_depth must be at least 0, got -1"),
        (BoostParams, {"n_rounds": -1}, "n_rounds must be at least 0, got -1"),
        (BoostParams, {"max_depth": -2}, "max_depth must be at least 0, got -2"),
        (BoostParams, {"learning_rate": float("inf")},
         "learning_rate must be finite and > 0, got inf"),
        (BoostParams, {"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
        (XgbParams, {"n_rounds": -3}, "n_rounds must be at least 0, got -3"),
        (XgbParams, {"max_depth": -1}, "max_depth must be at least 0, got -1"),
        (XgbParams, {"eta": float("nan")}, "eta must be finite and > 0, got nan"),
        (XgbParams, {"eta": -0.3}, "eta must be finite and > 0, got -0.3"),
        (XgbParams, {"lam": -1.0}, "lam must be finite and >= 0, got -1.0"),
        (XgbParams, {"lam": float("inf")}, "lam must be finite and >= 0, got inf"),
        (XgbParams, {"gamma": float("nan")}, "gamma must be finite and >= 0, got nan"),
        (XgbParams, {"gamma": -0.5}, "gamma must be finite and >= 0, got -0.5"),
    ])
    def test_unusable_settings_rejected(self, params, settings, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            params(**settings)

    def test_zero_rounds_depth_and_regularization_accepted(self):
        assert XgbParams(n_rounds=0, max_depth=0, lam=0.0, gamma=0.0).n_rounds == 0
        assert BoostParams(n_rounds=0, max_depth=0).max_depth == 0
        assert ForestParams(max_depth=0).max_depth == 0


class TestFeatureSampler:
    """_feature_subsets draws what rng.choice(d, size=m, replace=False) draws, bit for bit."""

    @pytest.mark.parametrize("d, m", [
        (8, 1), (8, 7), (8, 3), (2, 1),
        (FeatureSpec().dim, math.ceil(math.sqrt(FeatureSpec().dim))),
    ])
    def test_equals_choice_after_a_bootstrap(self, d, m):
        # 60 draws of m > 1 take more than 64 words, so each run refills its words;
        # an odd bootstrap size leaves half of a 64-bit output for the first word
        for seed in range(200):
            n = 37 + seed
            expected, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected.integers(0, n, size=n)
            rng.integers(0, n, size=n)
            subsets = trees._feature_subsets(rng, d, m)
            for _ in range(60):
                assert next(subsets) == expected.choice(d, size=m, replace=False).tolist()

    @pytest.mark.parametrize("seed", [34, 135, 180, 359])
    def test_equals_choice_where_a_word_is_rejected(self, seed):
        # choice(10000, size=5000) redraws a word below 2**32 % span on these seeds
        expected = np.random.default_rng(seed).choice(10000, size=5000, replace=False)
        assert next(trees._feature_subsets(np.random.default_rng(seed), 10000, 5000)) == (
            expected.tolist())

    @pytest.mark.parametrize("m", [300, 401, 19999])
    def test_equals_choice_past_ten_thousand_features(self, m):
        # numpy shuffles the tail of range(d) where d > 10000 and m > d // 50
        for seed in range(3):
            expected, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            subsets = trees._feature_subsets(rng, 20000, m)
            for _ in range(2):
                assert next(subsets) == expected.choice(20000, size=m, replace=False).tolist()


def log_loss(probs, labels):
    p = np.clip(probs, 1e-15, 1 - 1e-15)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))


class TestGradientBoosting:
    def test_balanced_labels_zero_init(self, toy_dataset):
        model = train_gradient_boosting(toy_dataset, BoostParams(n_rounds=1))
        assert model.init_score == 0.0

    def test_training_reduces_log_loss(self, toy_dataset):
        y = toy_dataset.labels.astype(float)
        model = train_gradient_boosting(toy_dataset, BoostParams(n_rounds=10))
        baseline = log_loss(np.full(len(y), sigmoid(np.array(model.init_score))), y)
        trained = log_loss(
            trees.predict_boosted_batch(model, toy_dataset.features), y
        )
        assert trained < baseline

    def test_zero_rounds_is_base_rate(self):
        ds = Dataset(
            np.arange(8, dtype=float).reshape(-1, 1),
            np.array([0, 0, 0, 0, 0, 0, 1, 1]),
            [f"u{i}" for i in range(8)],
        )
        model = train_gradient_boosting(ds, BoostParams(n_rounds=0))
        expected = float(sigmoid(np.array(np.log(0.25 / 0.75))))
        for x in ds.features:
            assert predict_boosted(model, x)[1] == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        ds = Dataset(np.ones((4, 1)), np.ones(4, dtype=int), list("abcd"))
        with pytest.raises(SingleClassTrainingSet):
            train_gradient_boosting(ds, BoostParams(n_rounds=1))

    def test_deterministic(self, toy_dataset):
        p = BoostParams(n_rounds=5)
        m1 = train_gradient_boosting(toy_dataset, p)
        m2 = train_gradient_boosting(toy_dataset, p)
        x = np.array([2.0, 2.0])
        assert predict_boosted(m1, x) == predict_boosted(m2, x)


class TestXgb:
    def test_leaf_weight_zero_when_gradients_cancel(self):
        targets = GradientTargets(
            grad=np.array([1.0, -1.0]),
            hess=np.array([1.0, 1.0]),
            leaf_hess=np.array([1.0, 1.0]),
            lam=1.0,
        )
        leaf = grow_tree(np.array([[0.0], [0.0]]), targets,
                         TreeParams(max_depth=0))
        assert leaf.value == 0.0

    def test_huge_gamma_forces_stump(self, toy_dataset):
        model = train_xgb(toy_dataset, XgbParams(n_rounds=1, gamma=1e9))
        assert len(model.trees) == 1
        assert model.trees[0].is_leaf

    def test_training_reduces_log_loss(self, toy_dataset):
        y = toy_dataset.labels.astype(float)
        model = train_xgb(toy_dataset, XgbParams(n_rounds=10))
        baseline = log_loss(np.full(len(y), sigmoid(np.array(model.init_score))), y)
        trained = log_loss(trees.predict_boosted_batch(model, toy_dataset.features), y)
        assert trained < baseline

    def test_deterministic(self, toy_dataset):
        p = XgbParams(n_rounds=5)
        m1 = train_xgb(toy_dataset, p)
        m2 = train_xgb(toy_dataset, p)
        x = np.array([3.0, 3.0])
        assert predict_boosted(m1, x) == predict_boosted(m2, x)


class TestPredictBoosted:
    def test_zero_trees_zero_init_is_malicious_half(self):
        model = BoostedModel(variant="gradient_boosting", init_score=0.0,
                             arrays=flat(), learning_rate=0.1)
        assert predict_boosted(model, np.array([1.0])) == (1, 0.5)

    def test_matches_hand_summed_trees(self, toy_dataset):
        model = train_xgb(toy_dataset, XgbParams(n_rounds=5))
        x = np.array([1.0, 4.0])
        hand_score = model.init_score + model.learning_rate * sum(
            predict_tree(t, x) for t in model.trees
        )
        assert abs(predict_boosted(model, x)[1] - float(sigmoid(np.array(hand_score)))) < 1e-12

    def test_positive_tree_never_decreases_confidence(self, toy_dataset):
        model = train_xgb(toy_dataset, XgbParams(n_rounds=3))
        x = np.array([2.0, 2.0])
        before = predict_boosted(model, x)[1]
        extended = BoostedModel(
            variant=model.variant, init_score=model.init_score,
            arrays=flat(*model.trees, Node(value=0.7)),
            learning_rate=model.learning_rate, lam=model.lam, gamma=model.gamma,
        )
        assert predict_boosted(extended, x)[1] >= before


# ---------------------------------------------------------------------------
# Whole models against a per-node-argsort reference
# ---------------------------------------------------------------------------

def reference_best_split(features, targets, candidate_features, criterion="gini", *,
                         hessians=None, lam=0.0, gamma=0.0):
    """Split search that argsorts every candidate column afresh at every node."""
    n = features.shape[0]
    best = None
    for f in sorted(int(f) for f in candidate_features):
        col = features[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]

        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        valid = sorted_col[:-1] != sorted_col[1:]
        if not valid.any():
            continue

        if criterion == "gini":
            ys = targets[order].astype(np.int64)
            pos_prefix = np.cumsum(ys)
            total_pos = int(pos_prefix[-1])
            parent = gini((n - total_pos, total_pos))
            left_pos = pos_prefix[:-1].astype(np.float64)
            p1l = left_pos / left_n
            p0l = (left_n - left_pos) / left_n
            gl = 1.0 - p0l * p0l - p1l * p1l
            right_pos = total_pos - left_pos
            p1r = right_pos / right_n
            p0r = (right_n - right_pos) / right_n
            gr = 1.0 - p0r * p0r - p1r * p1r
            gains = parent - (left_n / n) * gl - (right_n / n) * gr
        else:
            g_prefix = np.cumsum(targets[order])
            h_prefix = np.cumsum(hessians[order])
            g_total = g_prefix[-1]
            h_total = h_prefix[-1]
            gl_s, hl_s = g_prefix[:-1], h_prefix[:-1]
            gr_s, hr_s = g_total - gl_s, h_total - hl_s
            gains = 0.5 * (
                gl_s * gl_s / (hl_s + lam)
                + gr_s * gr_s / (hr_s + lam)
                - g_total * g_total / (h_total + lam)
            ) - gamma

        gains = np.where(valid, gains, -np.inf)
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain <= 0.0:
            continue
        if best is None or gain > best.gain:
            threshold = midpoint(sorted_col[pos], sorted_col[pos + 1])
            best = trees.SplitDecision(feature_index=f, threshold=threshold, gain=gain)
    return best


def reference_grow_tree(features, targets, params, feature_sampler=None):
    """Recursive CART growth calling reference_best_split on each node's rows."""
    d = features.shape[1]

    def build(idx, depth):
        if isinstance(targets, GradientTargets):
            leaf = Node(value=trees._leaf_value(targets, idx))
        else:
            leaf = Node(value=float(np.sum(targets[idx])) / len(idx))
        if depth >= params.max_depth or len(idx) < 2:
            return leaf
        if not isinstance(targets, GradientTargets):
            labels = targets[idx]
            if labels.min() == labels.max():
                return leaf
        candidates = np.arange(d) if feature_sampler is None else feature_sampler()
        if isinstance(targets, GradientTargets):
            split = reference_best_split(
                features[idx], targets.grad[idx], candidates, "second_order",
                hessians=targets.hess[idx], lam=targets.lam, gamma=targets.gamma,
            )
        else:
            split = reference_best_split(features[idx], targets[idx], candidates, "gini")
        if split is None:
            return leaf
        go_left = features[idx, split.feature_index] < split.threshold
        return Node(
            feature_index=split.feature_index,
            threshold=split.threshold,
            left=build(idx[go_left], depth + 1),
            right=build(idx[~go_left], depth + 1),
        )

    return build(np.arange(features.shape[0]), 0)


def reference_boost(X, y, n_rounds, learning_rate, max_depth, newton_splits, lam=0.0, gamma=0.0):
    y = y.astype(np.float64)
    params = TreeParams(max_depth=max_depth)
    scores = np.full(len(y), math.log(np.mean(y) / (1.0 - np.mean(y))))
    grown = []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        h = p * (1.0 - p)
        targets = GradientTargets(grad=p - y, hess=h if newton_splits else np.ones(len(y)),
                                  leaf_hess=h, lam=lam, gamma=gamma)
        tree = reference_grow_tree(X, targets, params)
        grown.append(tree)
        scores += learning_rate * reference_predict_tree_batch(tree, X)
    return grown


def reference_forest(X, y, params):
    n, d = X.shape
    m = min(params.m_features, d)
    tree_params = TreeParams(max_depth=params.max_depth)
    grown = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(params.seed + t)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        sampler = None
        if m < d:
            sampler = lambda rng=rng: np.sort(rng.choice(d, size=m, replace=False))
        grown.append(reference_grow_tree(X[rows], y[rows], tree_params, sampler))
    return grown


def nodes(tree):
    """Pre-order (feature, threshold, value) of every node."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append((node.feature_index, node.threshold, node.value))
        if not node.is_leaf:
            stack += (node.right, node.left)
    return out


@st.composite
def tie_heavy_data(draw, min_rows=2):
    """Integer-grid features (many ties), optional constant column and duplicated rows."""
    n = draw(st.integers(min_rows, 48))
    d = draw(st.integers(1, 4))
    grid = draw(st.integers(1, 5))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(0, grid).map(float)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    constant = draw(st.none() | st.integers(0, d - 1))
    if constant is not None:
        X[:, constant] = 1.0
    if draw(st.booleans()):
        rows = draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))
        X, y = X[rows], y[rows]
    return X, y


@st.composite
def continuous_data(draw, min_rows=2):
    """Continuous columns up to the latent width, 8, holding -0.0 beside 0.0,
    subnormal values and adjacent floats: 1.0 and the next float, whose midpoint
    rounds onto 1.0, and that float and the one after it, whose midpoint rounds
    onto the upper one."""
    n = draw(st.integers(min_rows, 48))
    d = draw(st.integers(1, 8))
    up = np.nextafter(1.0, 2.0)
    special = st.sampled_from([-0.0, 0.0, -5e-324, 5e-324, 1e-323, 1.5e-323,
                               1.0, up, np.nextafter(up, 2.0)])
    elements = st.floats(-4.0, 4.0, allow_nan=False, width=64) | special
    X = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return X, y


MODEL_SETTINGS = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestPresortedMatchesReference:
    @MODEL_SETTINGS
    @given(tie_heavy_data(), st.integers(0, 6))
    def test_grow_tree_gini(self, data, max_depth):
        X, y = data
        params = TreeParams(max_depth=max_depth)
        assert nodes(grow_tree(X, y, params)) == nodes(reference_grow_tree(X, y, params))

    @MODEL_SETTINGS
    @given(tie_heavy_data(), st.integers(0, 5),
           st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.01]), st.data())
    def test_grow_tree_second_order(self, data, max_depth, lam, gamma, draw):
        X, _ = data
        n = X.shape[0]
        floats = st.floats(-1.0, 1.0, allow_nan=False, width=64)
        grad = draw.draw(hnp.arrays(np.float64, n, elements=floats))
        hess = draw.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.1, 0.25, 0.7])))
        targets = GradientTargets(grad=grad, hess=hess, leaf_hess=hess, lam=lam, gamma=gamma)
        params = TreeParams(max_depth=max_depth)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = grow_tree(X, targets, params)
            want = reference_grow_tree(X, targets, params)
        assert nodes(got) == nodes(want)

    def test_nan_gains_split_like_reference(self):
        # zero hessians with lam=0 make every gain 0/0 or inf - inf: NaN
        rng = np.random.default_rng(10)
        X = rng.integers(0, 4, size=(30, 3)).astype(np.float64)
        grad = rng.normal(size=30)
        targets = GradientTargets(grad=grad, hess=np.zeros(30), leaf_hess=np.zeros(30))
        params = TreeParams(max_depth=4)
        with np.errstate(divide="ignore", invalid="ignore"):
            split = best_split(X, grad, range(3), "second_order", hessians=np.zeros(30))
            got = grow_tree(X, targets, params)
            want = reference_grow_tree(X, targets, params)
        assert math.isnan(split.gain)
        assert not got.is_leaf
        assert nodes(got) == nodes(want)

    @MODEL_SETTINGS
    @given(tie_heavy_data(min_rows=4), st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.05]))
    def test_boosting(self, data, lam, gamma):
        X, y = data
        assume(0 < y.sum() < len(y))
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        xgb = train_xgb(ds, XgbParams(n_rounds=3, max_depth=3, lam=lam, gamma=gamma))
        want = reference_boost(X, y, 3, 0.3, 3, True, lam, gamma)
        assert [nodes(t) for t in xgb.trees] == [nodes(t) for t in want]
        gb = train_gradient_boosting(ds, BoostParams(n_rounds=3, max_depth=2))
        want = reference_boost(X, y, 3, 0.1, 2, False)
        assert [nodes(t) for t in gb.trees] == [nodes(t) for t in want]

    @MODEL_SETTINGS
    @given(tie_heavy_data(), st.integers(1, 4), st.booleans(), st.integers(0, 1000))
    def test_random_forest(self, data, m_features, bootstrap, seed):
        X, y = data
        params = ForestParams(n_trees=3, max_depth=6, m_features=m_features,
                              bootstrap=bootstrap, seed=seed)
        forest = train_random_forest(Dataset(X, y, [f"u{i}" for i in range(len(y))]), params)
        want = reference_forest(X, y, params)
        assert [nodes(t) for t in forest.trees] == [nodes(t) for t in want]

    @MODEL_SETTINGS
    @given(continuous_data(), st.integers(0, 5), st.sampled_from([0.0, 1.0]), st.data())
    def test_grow_tree_second_order_on_continuous_columns(self, data, max_depth, lam, draw):
        X, _ = data
        n = X.shape[0]
        grad = draw.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0, width=64)))
        hess = draw.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.1, 0.25, 0.7])))
        targets = GradientTargets(grad=grad, hess=hess, leaf_hess=hess, lam=lam)
        params = TreeParams(max_depth=max_depth)
        assert nodes(grow_tree(X, targets, params)) == nodes(reference_grow_tree(X, targets, params))

    @MODEL_SETTINGS
    @given(continuous_data(min_rows=4), st.sampled_from([0.0, 1.0]))
    def test_boosting_on_continuous_columns(self, data, lam):
        X, y = data
        assume(0 < y.sum() < len(y))
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        xgb = train_xgb(ds, XgbParams(n_rounds=3, max_depth=4, lam=lam))
        want = reference_boost(X, y, 3, 0.3, 4, True, lam)
        assert [nodes(t) for t in xgb.trees] == [nodes(t) for t in want]
        gb = train_gradient_boosting(ds, BoostParams(n_rounds=3, max_depth=3))
        want = reference_boost(X, y, 3, 0.1, 3, False)
        assert [nodes(t) for t in gb.trees] == [nodes(t) for t in want]

    @MODEL_SETTINGS
    @given(continuous_data(), st.integers(1, 8), st.booleans(), st.integers(0, 1000))
    def test_random_forest_on_continuous_columns(self, data, m_features, bootstrap, seed):
        X, y = data
        params = ForestParams(n_trees=3, max_depth=6, m_features=m_features,
                              bootstrap=bootstrap, seed=seed)
        forest = train_random_forest(Dataset(X, y, [f"u{i}" for i in range(len(y))]), params)
        want = reference_forest(X, y, params)
        assert [nodes(t) for t in forest.trees] == [nodes(t) for t in want]


class TestFlatTrees:
    """The node arrays and their level-wise router against nested trees routed recursively."""

    @MODEL_SETTINGS
    @given(tie_heavy_data(min_rows=4), st.integers(1, 4), st.booleans(), st.integers(0, 1000))
    def test_router_matches_the_reference_router(self, data, m_features, bootstrap, seed):
        X, y = data
        params = ForestParams(n_trees=3, max_depth=6, m_features=m_features,
                              bootstrap=bootstrap, seed=seed)
        want = reference_forest(X, y, params)
        queries = np.vstack([X, X + 0.5, -X])  # grid thresholds are midpoints: ties go right
        got = trees._tree_outputs(flat(*want), queries)
        routed = [reference_predict_tree_batch(tree, queries) for tree in want]
        assert got.tobytes() == np.stack(routed).tobytes()

    @MODEL_SETTINGS
    @given(tie_heavy_data(min_rows=4))
    def test_ensembles_add_the_reference_outputs_in_tree_order(self, data):
        X, y = data
        assume(0 < y.sum() < len(y))
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        queries = np.vstack([X, X + 0.5])
        forest = train_random_forest(ds, ForestParams(n_trees=6, max_depth=4, seed=2))
        acc = np.zeros(len(queries))
        for tree in forest.trees:
            acc += reference_predict_tree_batch(tree, queries)
        assert trees.predict_forest_batch(forest, queries).tobytes() == (acc / 6).tobytes()
        xgb = train_xgb(ds, XgbParams(n_rounds=5, max_depth=3))
        scores = np.full(len(queries), xgb.init_score)
        for tree in xgb.trees:
            scores += xgb.learning_rate * reference_predict_tree_batch(tree, queries)
        assert trees.predict_boosted_batch(xgb, queries).tobytes() == sigmoid(scores).tobytes()

    @pytest.mark.parametrize("block", [1, 20, trees._SCORE_BLOCK])
    def test_rows_are_routed_in_blocks_with_the_same_bits(self, block):
        rng = np.random.default_rng(13)
        ds = Dataset(rng.normal(size=(120, 4)), rng.integers(0, 2, size=120),
                     [f"u{i}" for i in range(120)])
        queries = rng.normal(size=(50, 4))
        forest = train_random_forest(ds, ForestParams(n_trees=6, max_depth=5, seed=3))
        xgb = train_xgb(ds, XgbParams(n_rounds=5, max_depth=3))
        acc = np.zeros(len(queries))
        for tree in forest.trees:
            acc += reference_predict_tree_batch(tree, queries)
        scores = np.full(len(queries), xgb.init_score)
        for tree in xgb.trees:
            scores += xgb.learning_rate * reference_predict_tree_batch(tree, queries)
        routed = []

        def recording_outputs(arrays, X):
            routed.append(len(arrays.roots) * len(X))
            return outputs(arrays, X)

        outputs = trees._tree_outputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_SCORE_BLOCK", block)
            patch.setattr(trees, "_tree_outputs", recording_outputs)
            assert trees.predict_forest_batch(forest, queries).tobytes() == (acc / 6).tobytes()
            assert trees.predict_boosted_batch(xgb, queries).tobytes() == sigmoid(scores).tobytes()
        assert max(routed) <= max(block, 6)

    def test_models_number_their_nodes_in_preorder(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(size=(200, 4)), rng.integers(0, 2, size=200),
                     [f"u{i}" for i in range(200)])
        for model in (train_random_forest(ds, ForestParams(n_trees=5, max_depth=5, seed=1)),
                      train_xgb(ds, XgbParams(n_rounds=4)),
                      train_gradient_boosting(ds, BoostParams(n_rounds=4))):
            want = flat(*model.trees)
            for name in ("feature", "threshold", "left", "right", "value", "roots"):
                got = getattr(model.arrays, name)
                assert got.dtype == getattr(want, name).dtype
                assert np.array_equal(got, getattr(want, name))


@st.composite
def distinct_float_data(draw, min_rows=2):
    """Continuous features with no repeated value: every sorted position is a boundary."""
    n = draw(st.integers(min_rows, 48))
    d = draw(st.integers(1, 4))
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False, width=64)
    X = draw(hnp.arrays(np.float64, (n, d), elements=floats, unique=True))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return X, y


def nan_then_finite_columns():
    """Column 0 has only finite positive gains; column 1's first boundary is 0/0.

    Row 0 has zero gradient and hessian, so with lam=0 a left side holding
    row 0 alone scores 0 / 0 = NaN. Column 0 sorts it into the middle,
    column 1 sorts it first.
    """
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    grad = np.array([0.0, 1.0, -1.0, 1.0])
    hess = np.array([0.0, 1.0, 1.0, 1.0])
    return X, grad, hess


class TestBoundaryOnlySecondOrderSearch:
    def split_pair(self, X, grad, hess, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore"):
            got = best_split(X, grad, range(X.shape[1]), "second_order", hessians=hess, **kwargs)
            want = reference_best_split(X, grad, range(X.shape[1]), "second_order",
                                        hessians=hess, **kwargs)
        return got, want

    def test_nan_feature_after_a_finite_winner_loses(self):
        X, grad, hess = nan_then_finite_columns()
        got, want = self.split_pair(X, grad, hess)
        assert math.isfinite(got.gain) and got.gain > 0.0
        assert (got.feature_index, got.threshold, got.gain) == (0, 0.5, want.gain)
        assert (want.feature_index, want.threshold) == (0, 0.5)

    def test_nan_feature_first_wins(self):
        X, grad, hess = nan_then_finite_columns()
        got, want = self.split_pair(X[:, ::-1].copy(), grad, hess)
        assert math.isnan(got.gain) and math.isnan(want.gain)
        assert (got.feature_index, got.threshold) == (want.feature_index, want.threshold) == (0, 0.5)

    def test_nan_and_finite_features_grow_like_reference(self):
        X, grad, hess = nan_then_finite_columns()
        params = TreeParams(max_depth=3)
        for cols in (X, X[:, ::-1].copy()):
            targets = GradientTargets(grad=grad, hess=hess, leaf_hess=hess)
            with np.errstate(divide="ignore", invalid="ignore"):
                got = grow_tree(cols, targets, params)
                want = reference_grow_tree(cols, targets, params)
            assert nodes(got) == nodes(want)

    @MODEL_SETTINGS
    @given(distinct_float_data(), st.integers(0, 5),
           st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.01]), st.data())
    def test_grow_tree_second_order_all_distinct(self, data, max_depth, lam, gamma, draw):
        X, _ = data
        n = X.shape[0]
        grad = draw.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0, width=64)))
        hess = draw.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.1, 0.25])))
        targets = GradientTargets(grad=grad, hess=hess, leaf_hess=hess, lam=lam, gamma=gamma)
        params = TreeParams(max_depth=max_depth)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = grow_tree(X, targets, params)
            want = reference_grow_tree(X, targets, params)
        assert nodes(got) == nodes(want)

    @MODEL_SETTINGS
    @given(distinct_float_data(min_rows=4))
    def test_boosting_all_distinct(self, data):
        X, y = data
        assume(0 < y.sum() < len(y))
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        xgb = train_xgb(ds, XgbParams(n_rounds=3, max_depth=3))
        want = reference_boost(X, y, 3, 0.3, 3, True, 1.0)
        assert [nodes(t) for t in xgb.trees] == [nodes(t) for t in want]
        gb = train_gradient_boosting(ds, BoostParams(n_rounds=3, max_depth=2))
        want = reference_boost(X, y, 3, 0.1, 2, False)
        assert [nodes(t) for t in gb.trees] == [nodes(t) for t in want]

    @MODEL_SETTINGS
    @given(tie_heavy_data(min_rows=4) | distinct_float_data(min_rows=4))
    def test_grower_outputs_are_the_tree_predictions(self, data):
        X, y = data
        assume(0 < y.sum() < len(y))
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        grown = []
        grow = trees._grow

        def recording_grow(*args, **kwargs):
            grown.append(grow(*args, **kwargs))
            return grown[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_grow", recording_grow)
            train_xgb(ds, XgbParams(n_rounds=4, max_depth=4))
            train_gradient_boosting(ds, BoostParams(n_rounds=4))
        assert len(grown) == 8
        for tree, out in grown:
            assert out.tobytes() == trees._tree_outputs(trees._stack([tree]), X)[0].tobytes()


# ---------------------------------------------------------------------------
# Gini trees over weighted distinct rows, grown in lockstep
# ---------------------------------------------------------------------------

@st.composite
def duplicate_heavy_data(draw, min_rows=2):
    """Few distinct rows, each drawn many times; -0.0 and 0.0 share columns."""
    d = draw(st.integers(1, 4))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                           elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
    n = draw(st.integers(min_rows, 60))
    rows = draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return pool[rows], y


def signed_zero_grid(rng, n, d):
    """Integer-grid rows with duplicates, where zeros come in both signs."""
    X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    X[(X == 0) & (rng.random((n, d)) < 0.5)] = -0.0
    return X[rng.integers(0, n, size=n)], rng.integers(0, 2, size=n)


class TestLockstepGini:
    @MODEL_SETTINGS
    @given(duplicate_heavy_data(), st.integers(1, 4), st.booleans(), st.integers(0, 6),
           st.integers(0, 1000))
    def test_random_forest_on_duplicates(self, data, m_features, bootstrap, max_depth, seed):
        X, y = data
        params = ForestParams(n_trees=4, max_depth=max_depth, m_features=m_features,
                              bootstrap=bootstrap, seed=seed)
        forest = train_random_forest(Dataset(X, y, [f"u{i}" for i in range(len(y))]), params)
        want = reference_forest(X, y, params)
        assert [nodes(t) for t in forest.trees] == [nodes(t) for t in want]

    @MODEL_SETTINGS
    @given(duplicate_heavy_data(), st.integers(0, 6))
    def test_grow_tree_on_duplicates(self, data, max_depth):
        X, y = data
        params = TreeParams(max_depth=max_depth)
        assert nodes(grow_tree(X, y, params)) == nodes(reference_grow_tree(X, y, params))

    @MODEL_SETTINGS
    @given(duplicate_heavy_data())
    def test_best_split_matches_exhaustive_on_duplicates(self, data):
        X, y = data
        got = best_split(X, y, range(X.shape[1]), "gini")
        want = exhaustive_best_split(X, y, "gini")
        if want is None:
            assert got is None
        else:
            assert (got.gain, got.feature_index, got.threshold) == want

    @pytest.mark.parametrize("group, block", [(1, 1), (3, 1), (2, 64), (1000, 10**9)])
    def test_group_and_batch_sizes_do_not_change_the_forest(self, monkeypatch, group, block):
        X, y = signed_zero_grid(np.random.default_rng(11), 150, 5)
        ds = Dataset(X, y, [f"u{i}" for i in range(len(y))])
        params = ForestParams(n_trees=7, max_depth=8, m_features=2, seed=3)
        want = [nodes(t) for t in train_random_forest(ds, params).trees]
        assert want == [nodes(t) for t in reference_forest(X, y, params)]
        monkeypatch.setattr(trees, "_LOCKSTEP_TREES", group)
        monkeypatch.setattr(trees, "_GINI_BLOCK", block)
        assert [nodes(t) for t in train_random_forest(ds, params).trees] == want


# ---------------------------------------------------------------------------
# The fused second-order prefix pass and its blocks
# ---------------------------------------------------------------------------

def split_bits(split):
    """A SplitDecision as exact bits. A NaN gain is only NaN: IEEE 754 fixes no
    sign or payload for 0 / 0, and numpy's scalar and array loops differ there."""
    if split is None:
        return None
    gain = "nan" if math.isnan(split.gain) else np.float64(split.gain).tobytes()
    return split.feature_index, np.float64(split.threshold).tobytes(), gain


@st.composite
def with_special_floats(draw, base):
    """An array from base with up to three entries set to -0.0, 0.0, +-inf or NaN."""
    arr = draw(base)
    for i in draw(st.lists(st.integers(0, len(arr) - 1), max_size=3)):
        arr[i] = draw(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    return arr


class TestFusedSecondOrderPass:
    @settings(MODEL_SETTINGS, max_examples=200)
    @given(tie_heavy_data() | distinct_float_data(),
           st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.01]), st.data())
    def test_best_split_matches_reference_bits(self, data, lam, gamma, draw):
        X, _ = data
        n = X.shape[0]
        grad = draw.draw(with_special_floats(
            hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0, width=64))))
        hess = draw.draw(st.just(np.ones(n)) | with_special_floats(
            hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0, width=64))))
        kwargs = dict(hessians=hess, lam=lam, gamma=gamma)
        with np.errstate(all="ignore"):
            got = best_split(X, grad, range(X.shape[1]), "second_order", **kwargs)
            want = reference_best_split(X, grad, range(X.shape[1]), "second_order", **kwargs)
        assert split_bits(got) == split_bits(want)

    @pytest.mark.parametrize("block", [1, 20, 10**9])
    def test_split_search_blocks_do_not_change_the_models(self, monkeypatch, block):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(160, 6))
        X[:, :3] = np.round(X[:, :3] * 2)  # tied columns next to continuous ones
        y = rng.integers(0, 2, size=160)
        ds = Dataset(X, y, [f"u{i}" for i in range(160)])

        def arrays():
            models = (
                train_xgb(ds, XgbParams(n_rounds=4, max_depth=4)),
                train_gradient_boosting(ds, BoostParams(n_rounds=4, max_depth=3)),
            )
            return [[(field.dtype.str, field.tobytes()) for field in vars(m.arrays).values()]
                    for m in models]

        want = arrays()
        monkeypatch.setattr(trees, "_SCORE_BLOCK", block)
        assert arrays() == want


# ---------------------------------------------------------------------------
# Parity at the benchmark's shape
# ---------------------------------------------------------------------------

def test_latent_sample_models_match_the_references():
    """XGB, GB and a forest on the latent features of the bundled sample: 600
    rows, many of them duplicates, so nodes hold hundreds of rows and boundaries."""
    dataset, _ = load_labeled_dataset(sample_dataset_path())
    config = PipelineConfig(feature_mode="latent")
    X = fit_preprocessor(dataset.features, config).transform(dataset.features)
    y = dataset.labels
    ds = Dataset(X, y, dataset.urls)
    assert X.shape == (600, 8) and len(distinct_rows(X)[0]) < 500
    xgb = train_xgb(ds, XgbParams(n_rounds=3, max_depth=6))
    assert [nodes(t) for t in xgb.trees] == [nodes(t) for t in reference_boost(X, y, 3, 0.3, 6, True, 1.0)]
    gb = train_gradient_boosting(ds, BoostParams(n_rounds=3))
    assert [nodes(t) for t in gb.trees] == [nodes(t) for t in reference_boost(X, y, 3, 0.1, 3, False)]
    params = ForestParams(n_trees=5, m_features=3)
    forest = train_random_forest(ds, params)
    assert [nodes(t) for t in forest.trees] == [nodes(t) for t in reference_forest(X, y, params)]
