"""End-to-end orchestration shared by the CLI commands.

Pipeline order, fixed for train and inference alike:
featurize -> winsorize (train bounds) -> min-max scale (to those bounds)
-> optional autoencoder latents -> classifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .artifact import (
    CLASSIFIERS,
    ModelArtifact,
    Preprocessor,
    predict_feature_matrix,
    predict_urls,
)
from .config import PipelineConfig, check_threshold
from .errors import EmptyInput
from .evaluation import (
    SCORING_CUT,
    ComparisonTable,
    ConfusionMatrix,
    MetricsReport,
    compare_classifiers,
    compute_metrics,
    confusion_matrix,
)
from .features import FeatureSpec, featurize_many
from .pipeline import (
    CleanReport,
    Dataset,
    SplitConfig,
    # apply_bounds, apply_scaler and fit_scaler have no caller here;
    # perfbench/inproc.py traces these bindings
    apply_bounds,
    apply_scaler,
    bound_outliers,
    clean,
    fit_scaler,
    load_csv,
    map_labels,
    stratified_split,
    stratified_subsample,
)


# Training and comparison subsample larger datasets to this many rows (stratified).
MAX_ROWS = 50_000


@dataclass(frozen=True)
class Verdict:
    url: str
    confidence: float  # malicious probability
    label: str  # "safe" | "flagged"


def _flag_rule(threshold: float):
    """The rule flagging a confidence: confidence >= threshold, a threshold in [0, 1]."""
    check_threshold(threshold)
    return lambda confidence: confidence >= threshold


def filter_predictions(
    verdict_inputs: list[tuple[str, float]], threshold: float
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Partition (url, confidence) pairs into (safe, flagged) by threshold.

    flagged holds confidence >= threshold; both lists keep input order.
    """
    flags = _flag_rule(threshold)
    safe, flagged = [], []
    for item in verdict_inputs:
        (flagged if flags(item[1]) else safe).append(item)
    return safe, flagged


def make_verdicts(artifact: ModelArtifact, urls: list[str], threshold: float) -> list[Verdict]:
    flags = _flag_rule(threshold)
    confidences = predict_urls(artifact, urls)
    return [
        Verdict(url=u, confidence=c, label="flagged" if f else "safe")
        for u, c, f in zip(urls, confidences.tolist(), flags(confidences).tolist())
    ]


def dataset_fingerprint(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_labeled_dataset(
    path: str, *, spec: FeatureSpec | None = None
) -> tuple[Dataset, CleanReport]:
    """CSV -> cleaned, labeled, featurized Dataset."""
    if spec is None:
        spec = FeatureSpec()
    records = load_csv(path)
    records, report = clean(records)
    urls, labels = map_labels(records)
    features = featurize_many(urls, spec)
    return Dataset(features=features, labels=labels, urls=urls), report


def fit_preprocessor(features: np.ndarray, config: PipelineConfig) -> Preprocessor:
    """Fit winsorizing bounds and, in latent mode, the autoencoder."""
    bounds, _ = bound_outliers(features)
    preprocessor = Preprocessor(bounds=bounds)
    if config.feature_mode != "latent":
        return preprocessor
    from . import neural  # only latent mode needs the network code

    autoencoder = neural.train_autoencoder(
        preprocessor.transform(features), replace(config.autoencoder, seed=config.seed)
    )
    return replace(preprocessor, autoencoder=autoencoder)


def train_artifact(
    dataset: Dataset, config: PipelineConfig, fingerprint: str = ""
) -> ModelArtifact:
    """Fit preprocessing on the full dataset and train one classifier."""
    if dataset.n_rows == 0:
        raise EmptyInput("cannot train on an empty dataset")
    ds = stratified_subsample(dataset, MAX_ROWS, config.seed)
    preprocessor = fit_preprocessor(ds.features, config)
    work = Dataset(features=preprocessor.transform(ds.features), labels=ds.labels, urls=ds.urls)
    return ModelArtifact(
        feature_spec=FeatureSpec(),
        preprocessor=preprocessor,
        classifier_kind=config.classifier,
        classifier=CLASSIFIERS[config.classifier].train(work, config),
        seed=config.seed,
        dataset_fingerprint=fingerprint,
    )


def run_compare(
    dataset: Dataset, config: PipelineConfig
) -> tuple[ComparisonTable, dict[str, ConfusionMatrix]]:
    """Subsample, split, preprocess, and run the five-way comparison."""
    ds = stratified_subsample(dataset, MAX_ROWS, config.seed)
    split = SplitConfig(seed=config.seed)
    train, test = stratified_split(ds, split)
    preprocessor = fit_preprocessor(train.features, config)
    return compare_classifiers(
        Dataset(preprocessor.transform(train.features), train.labels, train.urls),
        Dataset(preprocessor.transform(test.features), test.labels, test.urls),
        config,
        split_descriptor=(
            f"{int((1 - split.test_fraction) * 100)}/{int(split.test_fraction * 100)} "
            f"stratified, {ds.n_rows} rows, features={config.feature_mode}"
        ),
    )


def evaluate_artifact(
    artifact: ModelArtifact, dataset: Dataset
) -> tuple[ConfusionMatrix, MetricsReport]:
    """Score an artifact on labeled data at the cut compare_classifiers uses."""
    confidences = predict_feature_matrix(artifact, dataset.features)
    cm = confusion_matrix(confidences >= SCORING_CUT, dataset.labels)
    return cm, compute_metrics(cm)
