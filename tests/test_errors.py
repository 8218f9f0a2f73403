"""One exception class per failed condition, whichever entry point meets it.

No rows to fit or score is EmptyInput; shapes that disagree (a width that
is not the one a model or spec needs, a tree trainer given no column, or
paired sequences of different lengths) are DimensionMismatch.
"""

import numpy as np
import pytest

from conftest import random_urls, separable_dataset
from urlsentry import neural, trees
from urlsentry.artifact import transform_features
from urlsentry.config import BoostParams, ForestParams, PipelineConfig, TrainConfig, XgbParams
from urlsentry.errors import DimensionMismatch, EmptyInput
from urlsentry.evaluation import (
    ConfusionMatrix,
    compare_classifiers,
    compute_metrics,
    confusion_matrix,
)
from urlsentry.features import FeatureSpec, featurize_many
from urlsentry.knn import KnnModel, predict_knn_batch
from urlsentry.pipeline import Dataset, bound_outliers, fit_scaler
from urlsentry.runner import train_artifact


def dataset(features: np.ndarray, labels) -> Dataset:
    return Dataset(features, np.asarray(labels, dtype=np.int64),
                   [f"u{i}" for i in range(len(features))])


NO_ROWS = dataset(np.zeros((0, FeatureSpec().dim)), [])
NO_COLUMNS = dataset(np.zeros((6, 0)), [0, 1, 0, 1, 0, 1])


def second_order_targets(n: int) -> trees.GradientTargets:
    grad = np.linspace(-1.0, 1.0, n)
    return trees.GradientTargets(grad=grad, hess=np.ones(n), leaf_hess=np.ones(n))


def tree_trainers(ds: Dataset) -> dict:
    """Every tree trainer on ds, by name."""
    X, y = ds.features, ds.labels
    return {
        "grow_tree-gini": lambda: trees.grow_tree(X, y, trees.TreeParams(max_depth=3)),
        "grow_tree-second_order": lambda: trees.grow_tree(
            X, second_order_targets(len(y)), trees.TreeParams(max_depth=3)),
        "train_random_forest": lambda: trees.train_random_forest(ds, ForestParams(n_trees=2)),
        "train_gradient_boosting": lambda: trees.train_gradient_boosting(
            ds, BoostParams(n_rounds=2)),
        "train_xgb": lambda: trees.train_xgb(ds, XgbParams(n_rounds=2)),
    }


NO_ROW_CALLS = {
    "fit_scaler": lambda: fit_scaler(np.zeros((0, 3))),
    "bound_outliers": lambda: bound_outliers(np.zeros((0, 3))),
    "train_mlp": lambda: neural.train_mlp(NO_ROWS, TrainConfig(epochs=1)),
    "train_autoencoder": lambda: neural.train_autoencoder(
        np.zeros((0, 3)), TrainConfig(epochs=1, hidden_sizes=(2,))),
    "compute_metrics": lambda: compute_metrics(ConfusionMatrix(0, 0, 0, 0)),
    "confusion_matrix": lambda: confusion_matrix([], []),
    "gini": lambda: trees.gini((0, 0)),
    "train_artifact": lambda: train_artifact(NO_ROWS, PipelineConfig()),
    "compare_classifiers": lambda: compare_classifiers(NO_ROWS, NO_ROWS, PipelineConfig()),
    **tree_trainers(NO_ROWS),
}


@pytest.mark.parametrize("call", NO_ROW_CALLS.values(), ids=NO_ROW_CALLS)
def test_no_rows_is_empty_input(call):
    with pytest.raises(EmptyInput):
        call()


def knn_artifact():
    urls = random_urls(12, seed=4)
    features = featurize_many(urls, FeatureSpec())
    ds = Dataset(features, np.arange(12) % 2, urls)
    return train_artifact(ds, PipelineConfig(classifier="knn", feature_mode="raw", knn_k=1))


def mlp():
    return neural.train_mlp(separable_dataset(), TrainConfig(epochs=1))


def fitted_tree():
    toy = separable_dataset()
    return trees.grow_tree(toy.features, toy.labels, trees.TreeParams(max_depth=2))


WIDTH_CALLS = {
    "transform_features": lambda: transform_features(
        knn_artifact(), np.zeros((2, FeatureSpec().dim - 1))),
    "confusion_matrix": lambda: confusion_matrix([1, 0], [1]),
    "Dataset": lambda: Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), ["a", "b", "c"]),
    **tree_trainers(NO_COLUMNS),
    "forward": lambda: neural.forward(mlp(), np.zeros((2, 3))),
    "train_autoencoder": lambda: neural.train_autoencoder(np.zeros(5)),
    "KnnModel": lambda: KnnModel(np.zeros((3, 2)), np.array([0, 1])),
    "predict_knn_batch": lambda: predict_knn_batch(
        KnnModel(np.zeros((3, 2)), np.array([0, 1, 0]), 1), np.zeros((2, 3))),
    "predict_tree": lambda: trees.predict_tree(fitted_tree(), np.zeros(0)),
}


@pytest.mark.parametrize("call", WIDTH_CALLS.values(), ids=WIDTH_CALLS)
def test_shapes_that_disagree_are_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()
