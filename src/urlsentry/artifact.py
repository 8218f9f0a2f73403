"""Versioned on-disk model bundles and the classifier registry.

An artifact is a single JSON document carrying the feature spec, fitted
preprocessing (outlier bounds, optional autoencoder), and one classifier.
Every part is stored as its dataclass fields by name, an array as nested
lists (a tree ensemble as the flat node lists of its TreeArrays), and
_STORED_AS keeps the older payload keys of five fields. Loading rebuilds
each field as its declared type, so a model's stored form is its class
declaration. All floats serialize at full round-trip precision. The payload
is stored as canonical JSON text and its checksum is the SHA-256 of that
text as stored, so loading hashes the bytes it then parses; the creation
timestamp lives outside the checksum so re-running the same training
reproduces the payload byte for byte.

CLASSIFIERS is the one place a classifier kind is defined: its display
name, how it trains and predicts, its model class and how that is checked
after loading. Every kind list and dispatch in the package derives from it.

The tree and network modules are imported on first use, so loading and
running a raw k-NN artifact never imports them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import reprlib
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from functools import cache
from importlib import import_module
from itertools import chain
from typing import TYPE_CHECKING, Callable, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    ConfigError,
    CorruptArtifact,
    DimensionMismatch,
    KOutOfRange,
    UnknownLabel,
    UnsupportedVersion,
)
from .features import FeatureSpec, featurize_many
from .knn import KnnModel, predict_knn_batch
from .pipeline import Dataset, OutlierBounds, Scaler, apply_bounds, apply_scaler, write_text

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .neural import AutoencoderModel, LayerParams
    from .trees import BoostedModel, ForestModel

FORMAT_VERSION = 3

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
    created_at: str = ""


# ---------------------------------------------------------------------------
# The payload codec: a model is stored as its dataclass fields
# ---------------------------------------------------------------------------

# Payload keys of the fields stored under a name of their own.
_STORED_AS = {
    "stored_features": "features",
    "stored_labels": "labels",
    "encoder_layers": "encoder",
    "decoder_layers": "decoder",
    "arrays": "trees",
}


def _encode(value):
    """value as JSON data: a dataclass as its fields by key, an array as nested lists."""
    if is_dataclass(value):
        return {_STORED_AS.get(f.name, f.name): _encode(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


@cache
def _declared(cls: type) -> tuple[tuple[str, str, object], ...]:
    """(field name, payload key, declared type) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, _STORED_AS.get(f.name, f.name), hints[f.name]) for f in fields(cls))


def _decode(kind, value, where: str = "the payload"):
    """value, as json.loads read it, rebuilt as the declared type kind.

    A scalar is read only as its declared type, except that an int may stand
    for a float. An array is read only if it holds no true or false and numpy
    gives it a numeric dtype, an integer one where its annotation declares
    one. Every float, in an array or alone, must be finite. Anything else
    raises CorruptArtifact naming where in the payload it is.
    """
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is np.ndarray:
        dtype = np.dtype(get_args(args[1])[0]) if args else None
        array = np.asarray(value)
        integers = dtype is not None and dtype.kind == "i"
        allowed, what = ("i", "integers") if integers else ("iuf", "numbers")
        if array.size and array.dtype.kind not in allowed:  # an empty list reads as float
            raise CorruptArtifact(f"{where} holds {array.dtype} values, not {what}")
        items = value  # numpy reads [1, true] as integers and [0.5, true] as floats
        for _ in range(array.ndim - 1):
            items = chain.from_iterable(items)
        if array.ndim and bool in set(map(type, items)):
            raise CorruptArtifact(f"{where} holds true or false, not {what}")
        if array.dtype.kind == "f" and not (finite := np.isfinite(array)).all():
            raise CorruptArtifact(f"{where} holds {array[~finite][0]}, not finite")
        return array if dtype is None else array.astype(dtype, copy=False)
    if is_dataclass(kind) and type(value) is dict:
        return kind(**{name: _decode(hint, value[key], f"{where}.{key}")
                       for name, key, hint in _declared(kind)})
    if origin in (list, tuple) and type(value) is list:
        items = [_decode(args[0], item, f"{where}[{i}]") for i, item in enumerate(value)]
        return origin(items)
    if type(value) is kind or (kind is float and type(value) is int):
        value = kind(value)
        if kind is float and not np.isfinite(value):
            raise CorruptArtifact(f"{where} is {value}, not finite")
        return value
    raise CorruptArtifact(f"{where} is {reprlib.repr(value)}, not {origin.__name__}")


# ---------------------------------------------------------------------------
# Checks of a loaded model against the width of its transformed input
# ---------------------------------------------------------------------------

def _check_layers(name: str, layers: list[LayerParams], width_in: int, width_out: int) -> None:
    """Reject a layer stack whose widths do not chain from width_in to width_out,
    or that holds an unknown activation."""
    if not layers:
        raise CorruptArtifact(f"the {name} has no layers")
    activations = _import("neural").ACTIVATIONS
    width = width_in
    for i, layer in enumerate(layers):
        if layer.activation not in activations:
            raise CorruptArtifact(f"unknown activation {layer.activation!r}")
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
    if width != width_out:
        raise CorruptArtifact(f"the {name} outputs {width} values, {width_out} expected")


def _check_knn(model: KnnModel, width: int) -> None:
    stored = model.stored_features.shape[1]
    if stored != width:
        raise CorruptArtifact(f"kNN rows are {stored} wide, the transformed input is {width}")


def _check_trees(model: BoostedModel | ForestModel, width: int) -> None:
    """Reject node arrays training cannot produce, and any that routing could loop on.

    Besides the shapes and ranges, the walk from the roots, through both
    children of every node that is not its own left and right child, must
    reach every node exactly once: so no node has two parents or none, and
    no cycle is reachable.
    """
    a = model.arrays
    shapes = {name: array.shape for name, array in vars(a).items()}
    node_shapes = {shape for name, shape in shapes.items() if name != "roots"}
    if any(len(shape) != 1 for shape in shapes.values()) or len(node_shapes) != 1:
        raise CorruptArtifact(f"the tree lists have shapes {shapes}, not one length")
    n = len(a.value)
    for name, index, bound in (("feature", a.feature, width), ("left", a.left, n),
                               ("right", a.right, n), ("roots", a.roots, n)):
        outside = index[(index < 0) | (index >= bound)]
        if outside.size:
            raise CorruptArtifact(f"a tree {name} index is {outside[0]}, outside [0, {bound})")
    nodes = np.arange(n)
    split = (a.left != nodes) | (a.right != nodes)
    seen = np.zeros(n, dtype=np.intp)
    level = a.roots
    while level.size:  # each step reaches new nodes or raises
        np.add.at(seen, level, 1)
        if (seen[level] > 1).any():
            raise CorruptArtifact(f"tree node {level[seen[level] > 1][0]} is reached twice")
        level = level[split[level]]
        level = np.concatenate([a.left[level], a.right[level]])
    if not seen.all():
        raise CorruptArtifact(f"{n - np.count_nonzero(seen)} tree nodes are not reachable")


def _check_forest(model: ForestModel, width: int) -> None:
    _check_trees(model, width)
    if not model.arrays.roots.size:  # its mean over no trees would be NaN
        raise CorruptArtifact("the forest has no trees")
    if model.n_trees != len(model.arrays.roots):
        raise CorruptArtifact(f"n_trees is {model.n_trees}, not {len(model.arrays.roots)}")


def _check_boosted(model: BoostedModel, width: int, variant: str) -> None:
    if model.variant != variant:
        raise CorruptArtifact(f"variant is {model.variant!r}, not {variant!r}")
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
    model: Callable[[], type]  # the model class, imported when called
    check: Callable[[object, int], None]  # raises CorruptArtifact; int: input width


# Insertion order is the comparison row order (serials 1-5).
CLASSIFIERS: dict[str, ClassifierKind] = {
    "mlp": ClassifierKind(
        "MLP",
        train=lambda ds, config: _import("neural").train_mlp(
            ds, replace(config.mlp, seed=config.seed)
        ),
        predict=lambda model, X: _module.predict_proba_mlp_batch(model, X),
        model=lambda: _import("neural").MlpModel,
        check=lambda model, width: _check_layers("MLP", model.layers, width, 1),
    ),
    "knn": ClassifierKind(
        "K-NN",
        train=lambda ds, config: KnnModel(ds.features, ds.labels, min(config.knn_k, ds.n_rows)),
        predict=lambda model, X: predict_knn_batch(model, X),
        model=lambda: KnnModel,
        check=_check_knn,
    ),
    "xgb": ClassifierKind(
        "XGB",
        train=lambda ds, config: _import("trees").train_xgb(ds, config.xgb),
        predict=lambda model, X: _module.predict_boosted_batch(model, X),
        model=lambda: _import("trees").BoostedModel,
        check=lambda model, width: _check_boosted(model, width, "xgboost_style"),
    ),
    "gb": ClassifierKind(
        "Gradient Boosting",
        train=lambda ds, config: _import("trees").train_gradient_boosting(ds, config.gb),
        predict=lambda model, X: _module.predict_boosted_batch(model, X),
        model=lambda: _import("trees").BoostedModel,
        check=lambda model, width: _check_boosted(model, width, "gradient_boosting"),
    ),
    "rf": ClassifierKind(
        "Random Forest",
        train=lambda ds, config: _import("trees").train_random_forest(
            ds, replace(config.forest, seed=config.seed)
        ),
        predict=lambda model, X: _module.predict_forest_batch(model, X),
        model=lambda: _import("trees").ForestModel,
        check=_check_forest,
    ),
}

CLASSIFIER_KINDS = tuple(CLASSIFIERS)


# ---------------------------------------------------------------------------
# Prediction through an artifact
# ---------------------------------------------------------------------------

def transform_features(artifact: ModelArtifact, features: np.ndarray) -> np.ndarray:
    """Apply the artifact's fitted preprocessing (and encoder) to raw features."""
    if features.shape[1] != artifact.feature_spec.dim:
        raise DimensionMismatch(
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
    """The artifact's fields but created_at, with the preprocessor's in its place."""
    payload = _encode(artifact)
    del payload["created_at"]
    return {**payload.pop("preprocessor"), **payload}


def _canonical(value: dict) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# save_model's layout: the canonical header without its closing brace, then
# _PAYLOAD_KEY, the canonical payload text, "}" and a newline. The checksum
# is the SHA-256 of the payload text exactly as stored. A later format keeps
# this header, so that this reader reports it as UnsupportedVersion.
_HEADER_KEYS = ["checksum", "created_at", "format_version"]
_PAYLOAD_KEY = ',"payload":'


def save_model(artifact: ModelArtifact, path: str) -> None:
    """Write the artifact as checksummed JSON; numeric values lose no precision."""
    payload_text = _canonical(_payload(artifact))
    header = {
        "checksum": _sha256(payload_text),
        "created_at": artifact.created_at or datetime.now(timezone.utc).isoformat(),
        "format_version": FORMAT_VERSION,
    }
    write_text(path, _canonical(header)[:-1] + _PAYLOAD_KEY + payload_text + "}\n")


def _read(path: str) -> tuple[dict, str]:
    """The header and the payload text of a file in save_model's layout."""
    with open(path, "r", encoding="utf-8", newline="") as fh:  # no newline translation
        text = fh.read()
    head, key, rest = text.partition(_PAYLOAD_KEY)
    try:
        header = json.loads(head + "}")  # an object, if it parses: it ends in "}"
    except (ValueError, RecursionError):
        header = {}
    if not (key and rest.endswith("}\n")
            and list(header) == _HEADER_KEYS and _canonical(header) == head + "}"):
        raise CorruptArtifact(
            f"artifact is not in the format {FORMAT_VERSION} layout that save_model writes "
            "(a format 1 or reformatted file): retrain the model"
        )
    return header, rest[:-2]


def load_model(path: str) -> ModelArtifact:
    """Load and verify an artifact; predictions match the saved model exactly."""
    header, payload_text = _read(path)
    version = header["format_version"]
    if type(version) is not int or version < FORMAT_VERSION:  # a bool is not an int here
        raise CorruptArtifact(f"format_version is {version!r}, not {FORMAT_VERSION}: "
                              "retrain the model")
    if version > FORMAT_VERSION:
        raise UnsupportedVersion(found=version, supported=FORMAT_VERSION)
    if _sha256(payload_text) != header["checksum"]:
        raise CorruptArtifact("checksum mismatch: artifact bytes were altered")

    try:
        payload = json.loads(payload_text)  # exactly the text that was hashed
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise CorruptArtifact(f"artifact payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptArtifact(f"artifact payload is a JSON {type(payload).__name__}, "
                              "not an object")
    try:
        kind = payload["classifier_kind"]  # an unknown kind is a KeyError too
        encoded = payload["autoencoder"]
        autoencoder = None if encoded is None else _decode(
            _import("neural").AutoencoderModel, encoded, "autoencoder"
        )
        bounds = _decode(OutlierBounds, payload["bounds"], "bounds")
        artifact = ModelArtifact(
            feature_spec=_decode(FeatureSpec, payload["feature_spec"], "feature_spec"),
            preprocessor=Preprocessor(bounds, autoencoder),
            classifier_kind=kind,
            classifier=_decode(CLASSIFIERS[kind].model(), payload["classifier"], "classifier"),
            seed=_decode(int, payload["seed"], "seed"),
            dataset_fingerprint=_decode(str, payload["dataset_fingerprint"],
                                        "dataset_fingerprint"),
            created_at=_decode(str, header["created_at"], "created_at"),
        )
    # OverflowError: an integer too large for a float where a float field is read
    except (KeyError, TypeError, ValueError, OverflowError, KOutOfRange, DimensionMismatch,
            UnknownLabel, ConfigError) as exc:
        raise CorruptArtifact(f"artifact payload is structurally invalid: {exc}") from exc
    dim = artifact.feature_spec.dim
    for name in ("lower", "upper"):
        array = getattr(bounds, name)
        if array.shape != (dim,):
            raise CorruptArtifact(
                f"bounds.{name} has shape {array.shape}, the feature spec needs ({dim},)"
            )
    width = dim
    if autoencoder is not None:
        width = autoencoder.latent_dim
        _check_layers("encoder", autoencoder.encoder_layers, dim, width)
        _check_layers("decoder", autoencoder.decoder_layers, width, dim)
    CLASSIFIERS[artifact.classifier_kind].check(artifact.classifier, width)
    return artifact
