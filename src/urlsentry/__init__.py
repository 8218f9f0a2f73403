"""urlsentry: lexical malicious-URL detection library and CLI.

Pipeline: URL featurization -> cleaning/scaling/outlier bounding ->
optional autoencoder latents -> one of five classifiers (MLP, k-NN,
second-order boosting, gradient boosting, random forest) -> confidence
filtering into safe/flagged URL lists.

The public names below are imported from their modules on first access
(PEP 562), so importing one module (say urlsentry.cli) does not import
the others, and a k-NN predict never imports the tree and network code.
"""

from importlib import import_module, resources

# module -> the public names it provides
_EXPORTS = {
    "artifact": "ModelArtifact load_model predict_urls save_model",
    "config": "PipelineConfig TrainConfig ForestParams BoostParams XgbParams",
    "errors": "UrlSentryError",
    "evaluation": "ComparisonTable ConfusionMatrix MetricsReport compare_classifiers "
                  "compute_metrics confusion_matrix",
    "features": "FeatureSpec UrlParts extract_features feature_names parse_url",
    "knn": "KnnModel k_nearest predict_knn",
    "neural": "AutoencoderModel MlpModel encode predict_proba_mlp train_autoencoder train_mlp",
    "pipeline": "Dataset RawRecord Scaler SplitConfig apply_scaler bound_outliers clean "
                "fit_scaler load_csv map_labels stratified_split",
    "runner": "Verdict evaluate_artifact filter_predictions load_labeled_dataset make_verdicts "
              "run_compare train_artifact",
    "trees": "BoostedModel ForestModel TreeNode best_split gini grow_tree predict_boosted "
             "predict_forest predict_tree train_gradient_boosting train_random_forest train_xgb",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SOURCE, "sample_dataset_path"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def sample_dataset_path() -> str:
    """Path to the bundled labeled sample CSV used by tests and docs."""
    return str(resources.files("urlsentry").joinpath("data/sample_urls.csv"))
