"""Versioned on-disk model bundles and the classifier registry.

An artifact is a single JSON document carrying the feature spec, fitted
preprocessing (outlier bounds, the scaler they imply, optional autoencoder),
and one classifier. All floats serialize at full round-trip precision and the
payload is covered by a SHA-256 checksum; the creation timestamp lives
outside the checksum so re-running the same training reproduces the payload
byte for byte.

CLASSIFIERS is the one place a classifier kind is defined: its display
name, how it trains, predicts, (de)serializes and is checked after loading.
Every kind list and dispatch in the package derives from it.

The tree and network modules are imported on first use, so loading and
running a raw k-NN artifact never imports them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from importlib import import_module
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import CorruptArtifact, FeatureSpecMismatch, KOutOfRange, UnsupportedVersion
from .features import FeatureSpec, featurize_many
from .knn import KnnModel, predict_knn_batch
from .pipeline import Dataset, OutlierBounds, Scaler, apply_bounds, apply_scaler

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .neural import AutoencoderModel, LayerParams, MlpModel
    from .trees import BoostedModel, ForestModel, TreeNode

FORMAT_VERSION = 1

# Batch predictors of the tree and network code, bound here on first access
# (PEP 562) and called as attributes of this module, so that rebinding one
# (e.g. for tracing) takes effect.
_DEFERRED = {
    "encode": "neural",
    "predict_proba_mlp_batch": "neural",
    "predict_boosted_batch": "trees",
    "predict_forest_batch": "trees",
}
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    defining = _import(_DEFERRED[name])
    # The function as defined: a wrapper installed on the defining module's
    # binding (marked by __wrapped__, as functools.wraps marks it) belongs to
    # that binding, as it would if this module had imported the name eagerly.
    function = inspect.unwrap(getattr(defining, name))
    globals()[name] = function
    return function


def _import(name: str):
    """The package's `neural` or `trees` module, imported on first use."""
    return import_module(f"{__package__}.{name}")


@dataclass(frozen=True)
class Preprocessor:
    """Preprocessing fitted on training rows: winsorize, scale, optionally encode.

    Min-max scaling uses the bounds: they are the winsorized columns' min and max.
    """

    bounds: OutlierBounds
    autoencoder: AutoencoderModel | None = None

    def transform(self, features: np.ndarray) -> np.ndarray:
        scaler = Scaler(col_min=self.bounds.lower, col_max=self.bounds.upper)
        X = apply_scaler(scaler, apply_bounds(self.bounds, features))
        if self.autoencoder is not None:
            X = _module.encode(self.autoencoder, X)
        return np.atleast_2d(X)


@dataclass
class ModelArtifact:
    feature_spec: FeatureSpec
    preprocessor: Preprocessor
    classifier_kind: str
    classifier: object
    seed: int
    dataset_fingerprint: str
    format_version: int = FORMAT_VERSION
    created_at: str = ""

    @property
    def feature_mode(self) -> str:
        return "raw" if self.preprocessor.autoencoder is None else "autoencoder_latent"


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _layer_to_dict(layer: LayerParams) -> dict:
    return {
        "weights": layer.weights.tolist(),
        "biases": layer.biases.tolist(),
        "activation": layer.activation,
    }


def _layer_from_dict(d: dict) -> LayerParams:
    from .neural import ACTIVATIONS, LayerParams

    if d["activation"] not in ACTIVATIONS:
        raise CorruptArtifact(f"unknown activation {d['activation']!r}")
    return LayerParams(
        weights=np.asarray(d["weights"], dtype=np.float64),
        biases=np.asarray(d["biases"], dtype=np.float64),
        activation=d["activation"],
    )


def _tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature_index,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _trees_from_dicts(dicts: list[dict]) -> list[TreeNode]:
    from .trees import TreeNode

    def build(d: dict) -> TreeNode:
        if "value" in d:
            return TreeNode(value=float(d["value"]))
        return TreeNode(
            feature_index=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=build(d["left"]),
            right=build(d["right"]),
        )

    return [build(d) for d in dicts]


def _autoencoder_to_dict(model: AutoencoderModel | None) -> dict | None:
    if model is None:
        return None
    return {
        "latent_dim": model.latent_dim,
        "encoder": [_layer_to_dict(l) for l in model.encoder_layers],
        "decoder": [_layer_to_dict(l) for l in model.decoder_layers],
    }


def _autoencoder_from_dict(d: dict | None) -> AutoencoderModel | None:
    if d is None:
        return None
    from .neural import AutoencoderModel

    return AutoencoderModel(
        encoder_layers=[_layer_from_dict(l) for l in d["encoder"]],
        decoder_layers=[_layer_from_dict(l) for l in d["decoder"]],
        latent_dim=int(d["latent_dim"]),
    )


# ---------------------------------------------------------------------------
# Checks of a loaded model against the width of its transformed input
# ---------------------------------------------------------------------------

def _check_finite(name: str, array: np.ndarray) -> None:
    bad = array[~np.isfinite(array)]
    if bad.size:
        raise CorruptArtifact(f"{name} holds {bad[0]}, not finite")


def _check_layers(name: str, layers: list[LayerParams], width_in: int, width_out: int) -> None:
    """Reject a layer stack whose widths do not chain from width_in to width_out,
    or that holds a non-finite weight or bias."""
    if not layers:
        raise CorruptArtifact(f"the {name} has no layers")
    width = width_in
    for i, layer in enumerate(layers):
        if layer.weights.ndim != 2 or layer.weights.shape[1] != width:
            raise CorruptArtifact(
                f"{name} layer {i} has weights of shape {layer.weights.shape}, "
                f"its input is {width} wide"
            )
        width = layer.weights.shape[0]
        if layer.biases.shape != (width,):
            raise CorruptArtifact(
                f"{name} layer {i} has biases of shape {layer.biases.shape}, "
                f"its output is {width} wide"
            )
        _check_finite(f"{name} layer {i} weights", layer.weights)
        _check_finite(f"{name} layer {i} biases", layer.biases)
    if width != width_out:
        raise CorruptArtifact(f"the {name} outputs {width} values, {width_out} expected")


def _check_knn(model: KnnModel, width: int) -> None:
    stored = model.stored_features.shape[1]
    if stored != width:
        raise CorruptArtifact(f"kNN rows are {stored} wide, the transformed input is {width}")
    _check_finite("the kNN rows", model.stored_features)


def _check_trees(model: BoostedModel | ForestModel, width: int) -> None:
    """Reject trees training cannot produce: a split outside the input, a non-finite number."""
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if not math.isfinite(node.value):
                raise CorruptArtifact(f"a leaf value is {node.value}, not finite")
            continue
        if not 0 <= node.feature_index < width:
            raise CorruptArtifact(
                f"a tree splits on feature {node.feature_index}, outside [0, {width})"
            )
        if not math.isfinite(node.threshold):
            raise CorruptArtifact(f"a split threshold is {node.threshold}, not finite")
        stack += (node.left, node.right)


def _check_boosted(model: BoostedModel, width: int) -> None:
    for name in ("init_score", "learning_rate"):
        value = getattr(model, name)
        if not math.isfinite(value):
            raise CorruptArtifact(f"{name} is {value}, not finite")
    _check_trees(model, width)


# ---------------------------------------------------------------------------
# Classifier registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierKind:
    """Everything the package knows about one classifier kind.

    train and predict look their trainers and batch predictors up when
    called, so rebinding a module attribute (e.g. for tracing) takes effect.
    """

    display_name: str
    train: Callable[[Dataset, PipelineConfig], object]
    predict: Callable[[object, np.ndarray], np.ndarray]  # malicious probability per row
    to_dict: Callable[[object], dict]
    from_dict: Callable[[dict], object]
    check: Callable[[object, int], None]  # raises CorruptArtifact; int: input width


def _knn_to_dict(model: KnnModel) -> dict:
    return {
        "features": model.stored_features.tolist(),
        "labels": model.stored_labels.tolist(),
        "default_k": model.default_k,
    }


def _knn_from_dict(d: dict) -> KnnModel:
    return KnnModel(
        stored_features=np.asarray(d["features"], dtype=np.float64),
        stored_labels=np.asarray(d["labels"]),
        default_k=int(d["default_k"]),
    )


def _mlp_from_dict(d: dict) -> MlpModel:
    from .neural import MlpModel

    return MlpModel(layers=[_layer_from_dict(l) for l in d["layers"]])


def _ensemble_to_dict(model: BoostedModel | ForestModel) -> dict:
    """Every dataclass field under its own name, with the trees as nested dicts."""
    return {**vars(model), "trees": [_tree_to_dict(t) for t in model.trees]}


def _boosted_from_dict(d: dict) -> BoostedModel:
    from .trees import BoostedModel

    return BoostedModel(
        variant=d["variant"],
        init_score=float(d["init_score"]),
        trees=_trees_from_dicts(d["trees"]),
        learning_rate=float(d["learning_rate"]),
        lam=float(d["lam"]),
        gamma=float(d["gamma"]),
    )


def _forest_from_dict(d: dict) -> ForestModel:
    from .trees import ForestModel

    return ForestModel(
        trees=_trees_from_dicts(d["trees"]),
        n_trees=int(d["n_trees"]),
        m_features=int(d["m_features"]),
        bootstrap=bool(d["bootstrap"]),
        seed=int(d["seed"]),
    )


# Insertion order is the comparison row order (serials 1-5).
CLASSIFIERS: dict[str, ClassifierKind] = {
    "mlp": ClassifierKind(
        "MLP",
        train=lambda ds, config: _import("neural").train_mlp(
            ds, replace(config.mlp, seed=config.seed)
        ),
        predict=lambda model, X: _module.predict_proba_mlp_batch(model, X),
        to_dict=lambda model: {"layers": [_layer_to_dict(l) for l in model.layers]},
        from_dict=_mlp_from_dict,
        check=lambda model, width: _check_layers("MLP", model.layers, width, 1),
    ),
    "knn": ClassifierKind(
        "K-NN",
        train=lambda ds, config: KnnModel(ds.features, ds.labels, min(config.knn_k, ds.n_rows)),
        predict=lambda model, X: predict_knn_batch(model, X),
        to_dict=_knn_to_dict,
        from_dict=_knn_from_dict,
        check=_check_knn,
    ),
    "xgb": ClassifierKind(
        "XGB",
        train=lambda ds, config: _import("trees").train_xgb(ds, config.xgb),
        predict=lambda model, X: _module.predict_boosted_batch(model, X),
        to_dict=_ensemble_to_dict,
        from_dict=_boosted_from_dict,
        check=_check_boosted,
    ),
    "gb": ClassifierKind(
        "Gradient Boosting",
        train=lambda ds, config: _import("trees").train_gradient_boosting(ds, config.gb),
        predict=lambda model, X: _module.predict_boosted_batch(model, X),
        to_dict=_ensemble_to_dict,
        from_dict=_boosted_from_dict,
        check=_check_boosted,
    ),
    "rf": ClassifierKind(
        "Random Forest",
        train=lambda ds, config: _import("trees").train_random_forest(
            ds, replace(config.forest, seed=config.seed)
        ),
        predict=lambda model, X: _module.predict_forest_batch(model, X),
        to_dict=_ensemble_to_dict,
        from_dict=_forest_from_dict,
        check=_check_trees,
    ),
}

CLASSIFIER_KINDS = tuple(CLASSIFIERS)


# ---------------------------------------------------------------------------
# Prediction through an artifact
# ---------------------------------------------------------------------------

def transform_features(artifact: ModelArtifact, features: np.ndarray) -> np.ndarray:
    """Apply the artifact's fitted preprocessing (and encoder) to raw features."""
    if features.shape[1] != artifact.feature_spec.dim:
        raise FeatureSpecMismatch(
            f"artifact expects {artifact.feature_spec.dim} features, "
            f"data has {features.shape[1]}"
        )
    return artifact.preprocessor.transform(features)


def predict_feature_matrix(artifact: ModelArtifact, features: np.ndarray) -> np.ndarray:
    """Malicious-probability for each row of an unscaled feature matrix."""
    X = transform_features(artifact, features)
    return CLASSIFIERS[artifact.classifier_kind].predict(artifact.classifier, X)


def predict_urls(artifact: ModelArtifact, urls: list[str]) -> np.ndarray:
    """Malicious-probability for each URL string."""
    features = featurize_many(urls, artifact.feature_spec)
    return predict_feature_matrix(artifact, features)


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def _payload(artifact: ModelArtifact) -> dict:
    pre = artifact.preprocessor
    lower, upper = pre.bounds.lower.tolist(), pre.bounds.upper.tolist()
    return {
        "feature_spec": {"keywords": list(artifact.feature_spec.keywords)},
        "bounds": {"lower": lower, "upper": upper},
        "scaler": {"min": lower, "max": upper},  # the bounds again, as format 1 stores
        "feature_mode": artifact.feature_mode,
        "autoencoder": _autoencoder_to_dict(pre.autoencoder),
        "classifier_kind": artifact.classifier_kind,
        "classifier": CLASSIFIERS[artifact.classifier_kind].to_dict(artifact.classifier),
        "seed": artifact.seed,
        "dataset_fingerprint": artifact.dataset_fingerprint,
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_model(artifact: ModelArtifact, path: str) -> None:
    """Write the artifact as checksummed JSON; numeric values lose no precision."""
    payload = _payload(artifact)
    document = {
        "format_version": FORMAT_VERSION,
        "created_at": artifact.created_at or datetime.now(timezone.utc).isoformat(),
        "checksum": _sha256(_canonical(payload)),
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, sort_keys=True)
        fh.write("\n")


# save_model's layout: HEADER + ', "payload": ' + payload text + '}\n', where
# HEADER is json.dumps of the three header keys without its closing brace.
_HEADER_KEYS = ["checksum", "created_at", "format_version"]
_PAYLOAD_KEY = ', "payload": '


def _read_document(path: str) -> tuple[object, str | None]:
    """The parsed document and, if the file has save_model's layout, its payload text.

    A file in that layout is parsed in two parts, the header and the payload
    text; as each part must be one whole JSON value, the two give exactly
    what parsing the whole file gives. Any other file is parsed whole.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head, key, rest = text.partition(_PAYLOAD_KEY)
    if key and rest.endswith("}\n"):
        try:
            header = json.loads(head + "}")
            if list(header) == _HEADER_KEYS and json.dumps(header, sort_keys=True) == head + "}":
                payload_text = rest[:-2]
                return {**header, "payload": json.loads(payload_text)}, payload_text
        except json.JSONDecodeError:
            pass  # not the layout after all: parse the whole file
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        raise CorruptArtifact(f"artifact is not valid JSON: {exc}") from exc


def _checksum_matches(payload: object, payload_text: str | None, stored: str) -> bool:
    """Whether the stored checksum is the SHA-256 of the payload's canonical text.

    When the stored payload text holds no backslash and no string containing
    ", " or ": ", every ", " and ": " in it is a separator. Taking the space
    out of those separators does not change what the text parses to, so if
    the text so compacted hashes to the checksum, the parsed payload is the
    one whose canonical text was checksummed. Otherwise, or if it does not
    match (keys out of order, other number forms or whitespace), the parsed
    payload is re-dumped in canonical form and hashed.
    """
    if payload_text is not None and "\\" not in payload_text:
        strings = '"'.join(payload_text.split('"')[1::2])
        if ", " not in strings and ": " not in strings:
            compact = payload_text.replace(", ", ",").replace(": ", ":")
            if _sha256(compact) == stored:
                return True
    return _sha256(_canonical(payload)) == stored


def load_model(path: str) -> ModelArtifact:
    """Load and verify an artifact; predictions match the saved model exactly."""
    document, payload_text = _read_document(path)
    if not isinstance(document, dict):
        raise CorruptArtifact(f"artifact is a JSON {type(document).__name__}, not an object")

    version = document.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise CorruptArtifact(f"format_version is {version!r}, not a positive integer")
    if version > FORMAT_VERSION:
        raise UnsupportedVersion(found=version, supported=FORMAT_VERSION)

    payload = document.get("payload")
    stored = document.get("checksum")
    if payload is None or stored is None:
        raise CorruptArtifact("artifact lacks payload or checksum")
    if not _checksum_matches(payload, payload_text, stored):
        raise CorruptArtifact("checksum mismatch: artifact bytes were altered")

    try:
        kind = payload["classifier_kind"]  # an unknown kind is a KeyError too
        arrays = {
            f"{section}.{name}": np.asarray(payload[section][name], dtype=np.float64)
            for section, names in (("bounds", ("lower", "upper")), ("scaler", ("min", "max")))
            for name in names
        }
        artifact = ModelArtifact(
            feature_spec=FeatureSpec(keywords=tuple(payload["feature_spec"]["keywords"])),
            preprocessor=Preprocessor(
                bounds=OutlierBounds(lower=arrays["bounds.lower"], upper=arrays["bounds.upper"]),
                autoencoder=_autoencoder_from_dict(payload["autoencoder"]),
            ),
            classifier_kind=kind,
            classifier=CLASSIFIERS[kind].from_dict(payload["classifier"]),
            seed=int(payload["seed"]),
            dataset_fingerprint=payload["dataset_fingerprint"],
            format_version=version,
            created_at=document.get("created_at", ""),
        )
        feature_mode = payload["feature_mode"]
    except (KeyError, TypeError, ValueError, KOutOfRange) as exc:
        raise CorruptArtifact(f"artifact payload is structurally invalid: {exc}") from exc
    if feature_mode != artifact.feature_mode:
        raise CorruptArtifact(
            f"feature_mode {feature_mode!r} disagrees with the autoencoder, "
            f"which implies {artifact.feature_mode!r}"
        )
    dim = artifact.feature_spec.dim
    for name, array in arrays.items():
        if array.shape != (dim,):
            raise CorruptArtifact(
                f"{name} has shape {array.shape}, the feature spec needs ({dim},)"
            )
        _check_finite(name, array)
    if not (
        np.array_equal(arrays["scaler.min"], arrays["bounds.lower"])
        and np.array_equal(arrays["scaler.max"], arrays["bounds.upper"])
    ):
        raise CorruptArtifact("the scaler differs from the bounds that determine it")
    autoencoder = artifact.preprocessor.autoencoder
    width = dim
    if autoencoder is not None:
        width = autoencoder.latent_dim
        _check_layers("encoder", autoencoder.encoder_layers, dim, width)
    CLASSIFIERS[artifact.classifier_kind].check(artifact.classifier, width)
    return artifact
