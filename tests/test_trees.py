import numpy as np
import pytest

from urlsentry import trees
from urlsentry.errors import DimensionMismatch, EmptyNode, SingleClassTrainingSet, TooFewRows
from urlsentry.neural import sigmoid
from urlsentry.pipeline import Dataset
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
    predict_tree_batch,
    second_order_gain,
    train_gradient_boosting,
    train_random_forest,
    train_xgb,
)


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
                best = (gain, f, (vals[pos] + vals[pos + 1]) / 2.0)
    return best


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
        with pytest.raises(EmptyNode):
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
        leaf = TreeNode(value=0.25)
        assert predict_tree(leaf, np.array([9.0, -3.0])) == 0.25

    def test_routes_like_grow_example(self):
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]), TreeParams(max_depth=2))
        assert predict_tree(tree, np.array([0.0])) == 0.0
        assert predict_tree(tree, np.array([1.0])) == 1.0

    def test_boundary_routes_right(self):
        tree = TreeNode(feature_index=0, threshold=0.5,
                        left=TreeNode(value=0.0), right=TreeNode(value=1.0))
        assert predict_tree(tree, np.array([0.5])) == 1.0

    def test_dimension_mismatch(self):
        tree = TreeNode(feature_index=3, threshold=0.5,
                        left=TreeNode(value=0.0), right=TreeNode(value=1.0))
        with pytest.raises(DimensionMismatch):
            predict_tree(tree, np.array([1.0]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(50, 3))
        labels = rng.integers(0, 2, size=50)
        tree = grow_tree(features, labels, TreeParams(max_depth=4))
        queries = rng.normal(size=(20, 3))
        batch = predict_tree_batch(tree, queries)
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
            trees=[TreeNode(value=1.0), TreeNode(value=1.0)],
            n_trees=2, m_features=1, bootstrap=False, seed=0,
        )
        assert predict_forest(model, np.array([0.0])) == (1, 1.0)

    def test_mean_tie_is_malicious(self):
        model = trees.ForestModel(
            trees=[TreeNode(value=0.2), TreeNode(value=0.8)],
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
                             trees=[], learning_rate=0.1)
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
            trees=model.trees + [TreeNode(value=0.7)],
            learning_rate=model.learning_rate, lam=model.lam, gamma=model.gamma,
        )
        assert predict_boosted(extended, x)[1] >= before
