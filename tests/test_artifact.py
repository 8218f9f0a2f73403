import json
import re
import string
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsentry import artifact as artifact_module
from urlsentry.artifact import (
    CLASSIFIER_KINDS,
    load_model,
    predict_feature_matrix,
    predict_urls,
    save_model,
    transform_features,
)
from urlsentry.config import PipelineConfig
from urlsentry.errors import CorruptArtifact, DimensionMismatch, UnsupportedVersion
from urlsentry.features import FeatureSpec, featurize_many
from urlsentry.knn import KnnModel
from urlsentry.neural import ACTIVATIONS, LayerParams, TrainConfig
from urlsentry.pipeline import Dataset, OutlierBounds
from urlsentry.runner import load_labeled_dataset, train_artifact
from urlsentry.trees import (
    BoostParams,
    ForestParams,
    TreeArrays,
    XgbParams,
    predict_boosted,
    predict_forest,
)

from conftest import canonical, random_urls, read_artifact, rewrite_payload, write_artifact


def small_config(kind: str, feature_mode: str = "latent") -> PipelineConfig:
    cfg = PipelineConfig(
        feature_mode=feature_mode,
        classifier=kind,
        seed=7,
        knn_k=3,
        mlp=TrainConfig(epochs=5),
        autoencoder=TrainConfig(epochs=5, hidden_sizes=(6,)),
        forest=ForestParams(n_trees=5, max_depth=4),
        gb=BoostParams(n_rounds=5),
        xgb=XgbParams(n_rounds=5),
    )
    return cfg


@pytest.fixture(scope="module")
def training_data(sample_csv):
    dataset, _ = load_labeled_dataset(sample_csv)
    return dataset


@pytest.mark.parametrize("kind", ["mlp", "knn", "xgb", "gb", "rf"])
@pytest.mark.parametrize("feature_mode", ["raw", "latent"])
def test_round_trip_identical_predictions(kind, feature_mode, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config(kind, feature_mode))
    path = tmp_path / f"{kind}-{feature_mode}.json"
    save_model(artifact, str(path))
    loaded = load_model(str(path))

    urls = random_urls(200, seed=17)
    before = predict_urls(artifact, urls)
    after = predict_urls(loaded, urls)
    assert np.array_equal(before, after)


def test_tampered_payload_detected(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("gb"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))

    header, payload_text = read_artifact(path)
    payload = json.loads(payload_text)
    payload["seed"] = payload["seed"] + 1
    write_artifact(path, canonical(payload), checksum=header["checksum"])
    with pytest.raises(CorruptArtifact, match="checksum mismatch"):
        load_model(str(path))


def test_tampered_single_byte_detected(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))

    raw = bytearray(path.read_bytes())
    # flip one digit inside the payload section
    marker = raw.find(b'"payload"')
    for i in range(marker, len(raw)):
        if raw[i : i + 1].isdigit():
            raw[i] = ord("4") if raw[i] != ord("4") else ord("5")
            break
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifact):
        load_model(str(path))


def test_future_version_rejected(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("rf"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))

    write_artifact(path, read_artifact(path)[1], format_version=99)
    with pytest.raises(UnsupportedVersion):
        load_model(str(path))


def test_not_json_is_corrupt(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json{{{")
    with pytest.raises(CorruptArtifact):
        load_model(str(path))


def test_feature_spec_mismatch(training_data):
    artifact = train_artifact(training_data, small_config("knn"))
    wrong_width = np.ones((3, artifact.feature_spec.dim + 2))
    with pytest.raises(DimensionMismatch):
        predict_feature_matrix(artifact, wrong_width)


def test_payload_bytes_reproducible(training_data, tmp_path):
    cfg = small_config("xgb")
    a1 = train_artifact(training_data, cfg)
    a2 = train_artifact(training_data, cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a1, str(p1))
    save_model(a2, str(p2))
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("created_at")
    d2.pop("created_at")
    assert d1 == d2


def test_predictions_via_feature_matrix_match_urls_path(training_data):
    artifact = train_artifact(training_data, small_config("mlp"))
    urls = random_urls(50, seed=19)
    features = featurize_many(urls, artifact.feature_spec)
    assert np.array_equal(
        predict_urls(artifact, urls), predict_feature_matrix(artifact, features)
    )


@pytest.mark.parametrize(
    "trained_mode, key, value",
    [("raw", "classifier_kind", "svm")],
)
def test_inconsistent_payload_rejected(trained_mode, key, value, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("xgb", trained_mode))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload.update({key: value}))
    with pytest.raises(CorruptArtifact, match=value):
        load_model(str(path))


@pytest.mark.parametrize("section, name", [("bounds", "lower"), ("bounds", "upper")])
def test_short_preprocessing_array_rejected(section, name, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("xgb", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload[section][name].pop())
    with pytest.raises(CorruptArtifact, match=f"{section}.{name} has shape \\(17,\\)"):
        load_model(str(path))


@pytest.mark.parametrize("kind, layers", [
    ("mlp", lambda payload: payload["classifier"]["layers"]),
    ("knn", lambda payload: payload["autoencoder"]["encoder"]),
    ("knn", lambda payload: payload["autoencoder"]["decoder"]),
], ids=["mlp", "autoencoder", "decoder"])
def test_unknown_activation_rejected(kind, layers, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config(kind, "latent"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: layers(payload)[0].update(activation="tanh"))
    with pytest.raises(CorruptArtifact, match="unknown activation 'tanh'"):
        load_model(str(path))


@pytest.mark.parametrize("label", [2, -1, 0.5])
def test_knn_label_outside_zero_one_rejected(label, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload["classifier"]["labels"].__setitem__(0, label))
    with pytest.raises(CorruptArtifact, match="labels must be 0 or 1"):
        load_model(str(path))


def test_colliding_feature_names_rejected(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload["feature_spec"].update(keywords=["login", "LOGIN"]))
    with pytest.raises(CorruptArtifact, match="feature names must be unique"):
        load_model(str(path))


def test_knn_labels_not_one_per_row_rejected(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload["classifier"]["labels"].pop())
    with pytest.raises(CorruptArtifact, match="must align"):
        load_model(str(path))


@pytest.mark.parametrize("default_k", [lambda n: 0, lambda n: n + 1], ids=["zero", "rows+1"])
def test_knn_default_k_outside_stored_rows_rejected(default_k, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    n = training_data.n_rows
    k = default_k(n)
    rewrite_payload(path, lambda payload: payload["classifier"].update(default_k=k))
    with pytest.raises(CorruptArtifact, match=f"default_k {k} outside \\[1, {n}\\]"):
        load_model(str(path))


@pytest.mark.parametrize("feature_mode, change", [
    ("raw", lambda row: row.pop()),
    ("latent", lambda row: row.append(0.0)),
], ids=["raw-one-short", "latent-one-wide"])
def test_knn_width_checked_against_transformed_width(feature_mode, change, training_data,
                                                     tmp_path):
    artifact = train_artifact(training_data, small_config("knn", feature_mode))
    width = artifact.classifier.stored_features.shape[1]
    path = tmp_path / "model.json"
    save_model(artifact, str(path))

    def reshape(payload):
        for row in payload["classifier"]["features"]:
            change(row)

    rewrite_payload(path, reshape)
    stored = width - 1 if feature_mode == "raw" else width + 1
    with pytest.raises(CorruptArtifact, match=f"kNN rows are {stored} wide, "
                                              f"the transformed input is {width}"):
        load_model(str(path))


@pytest.mark.parametrize("bound, value", [
    ("lower", float("-inf")),
    ("upper", float("inf")),
    ("lower", float("nan")),
])
def test_non_finite_preprocessing_entry_rejected(bound, value, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload["bounds"][bound].__setitem__(0, value))
    with pytest.raises(CorruptArtifact, match=f"bounds.{bound} holds {value}, not finite"):
        load_model(str(path))


@pytest.mark.parametrize("feature_mode", ["raw", "latent"])
@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_non_finite_knn_row_rejected(feature_mode, value, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("knn", feature_mode))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: payload["classifier"]["features"][3].__setitem__(1, value))
    with pytest.raises(CorruptArtifact, match=f"classifier.features holds {value}, not finite"):
        load_model(str(path))


def stored_floats(value, field: str = "", where: tuple = ()):
    """(field, where, in_array) for floats of a payload: the field as load_model names
    it, the keys and indices that reach the float, and whether the field is an array.
    Every float scalar, and the first, middle and last float of every array."""
    if type(value) is float:
        yield field, where, False
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from stored_floats(item, f"{field}.{key}" if field else key, where + (key,))
    elif isinstance(value, list) and value and all(isinstance(item, dict) for item in value):
        for i, item in enumerate(value):
            yield from stored_floats(item, f"{field}[{i}]", where + (i,))
    elif isinstance(value, list):
        entries = [at for at, item in array_entries(value, where) if type(item) is float]
        if entries:
            for at in dict.fromkeys([entries[0], entries[len(entries) // 2], entries[-1]]):
                yield field, at, True


def array_entries(value, where: tuple):
    if not isinstance(value, list):
        yield where, value
        return
    for i, item in enumerate(value):
        yield from array_entries(item, where + (i,))


def set_at(payload, where: tuple, value) -> None:
    for key in where[:-1]:
        payload = payload[key]
    payload[where[-1]] = value


@pytest.mark.parametrize("kind", ["mlp", "knn", "xgb", "gb", "rf"])
@pytest.mark.parametrize("feature_mode", ["raw", "latent"])
def test_every_stored_float_must_be_finite(kind, feature_mode, training_data, tmp_path):
    """A NaN or infinity anywhere in the payload is rejected, named by its field."""
    path = tmp_path / "model.json"
    save_model(train_artifact(training_data, small_config(kind, feature_mode)), str(path))
    header, text = read_artifact(path)
    cases = list(stored_floats(json.loads(text)))
    fields_seen = {field for field, _, _ in cases}
    assert {"bounds.lower", "bounds.upper"} <= fields_seen
    if kind in ("xgb", "gb"):
        assert {"classifier.init_score", "classifier.learning_rate", "classifier.lam",
                "classifier.gamma", "classifier.trees.threshold"} <= fields_seen
    for field, where, in_array in cases:
        for value in (float("nan"), float("inf"), float("-inf")):
            payload = json.loads(text)
            set_at(payload, where, value)
            write_artifact(path, canonical(payload), created_at=header["created_at"])
            message = f"{field} {'holds' if in_array else 'is'} {value}, not finite"
            with pytest.raises(CorruptArtifact, match=f"^{re.escape(message)}$"):
                load_model(str(path))


def drop_last_column(layer: dict) -> None:
    for row in layer["weights"]:
        row.pop()


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda ae: drop_last_column(ae["encoder"][0]),
                 "encoder layer 0 has weights of shape \\(6, 17\\), its input is 18 wide",
                 id="first-layer-one-short"),
    pytest.param(lambda ae: ae["encoder"][0]["biases"].pop(),
                 "encoder layer 0 has biases of shape \\(5,\\), its output is 6 wide",
                 id="biases-one-short"),
    pytest.param(lambda ae: ae.update(latent_dim=5),
                 "the encoder outputs 6 values, 5 expected", id="latent-dim-off"),
    pytest.param(lambda ae: ae["encoder"].clear(), "the encoder has no layers", id="no-layers"),
])
def test_encoder_widths_must_chain(mutate, message, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("xgb", "latent"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: mutate(payload["autoencoder"]))
    with pytest.raises(CorruptArtifact, match=message):
        load_model(str(path))


@pytest.mark.parametrize("feature_mode, width", [("raw", 18), ("latent", 6)])
def test_mlp_first_layer_checked_against_transformed_width(feature_mode, width, training_data,
                                                           tmp_path):
    artifact = train_artifact(training_data, small_config("mlp", feature_mode))
    hidden = artifact.classifier.layers[0].weights.shape[0]
    path = tmp_path / "model.json"
    save_model(artifact, str(path))

    def widen(payload):
        for row in payload["classifier"]["layers"][0]["weights"]:
            row.append(0.0)

    rewrite_payload(path, widen)
    with pytest.raises(CorruptArtifact, match=f"MLP layer 0 has weights of shape "
                                              f"\\({hidden}, {width + 1}\\), "
                                              f"its input is {width} wide"):
        load_model(str(path))


@pytest.mark.parametrize("kind, feature_mode, mutate, message", [
    pytest.param("mlp", "raw",
                 lambda p: p["classifier"]["layers"][0]["weights"][0].__setitem__(0, float("nan")),
                 "classifier.layers\\[0\\].weights holds nan, not finite", id="mlp-weight"),
    pytest.param("mlp", "latent",
                 lambda p: p["classifier"]["layers"][-1]["biases"].__setitem__(0, float("inf")),
                 "classifier.layers\\[1\\].biases holds inf, not finite", id="mlp-bias"),
    pytest.param("xgb", "latent",
                 lambda p: p["autoencoder"]["encoder"][0]["weights"][2].__setitem__(1, float("-inf")),
                 "autoencoder.encoder\\[0\\].weights holds -inf, not finite", id="encoder-weight"),
])
def test_non_finite_network_parameter_rejected(kind, feature_mode, mutate, message,
                                               training_data, tmp_path):
    artifact = train_artifact(training_data, small_config(kind, feature_mode))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, mutate)
    with pytest.raises(CorruptArtifact, match=message):
        load_model(str(path))


def root_split(trees: dict, tree: int = 0) -> int:
    """The root of one tree in the saved node lists, which must be a split."""
    root = trees["roots"][tree]
    assert trees["left"][root] != root, "the root of the tree is a leaf"
    return root


def first_leaf(trees: dict) -> int:
    return next(i for i, child in enumerate(trees["left"]) if child == i)


def set_entry(trees: dict, name: str, index: int, value) -> None:
    trees[name][index] = value


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda c: set_entry(c["trees"], "feature", root_split(c["trees"]), -13),
                 "feature index is -13, outside \\[0, 18\\)", id="negative-feature"),
    pytest.param(lambda c: set_entry(c["trees"], "feature", root_split(c["trees"]), 18),
                 "feature index is 18, outside \\[0, 18\\)", id="feature-past-width"),
    pytest.param(lambda c: set_entry(c["trees"], "threshold", root_split(c["trees"], -1),
                                     float("nan")),
                 "classifier.trees.threshold holds nan", id="nan-threshold"),
    pytest.param(lambda c: set_entry(c["trees"], "value", first_leaf(c["trees"]), float("inf")),
                 "classifier.trees.value holds inf", id="inf-leaf"),
    pytest.param(lambda c: c.update(init_score=float("nan")),
                 "init_score is nan", id="nan-init-score"),
    pytest.param(lambda c: c.update(learning_rate=float("-inf")),
                 "learning_rate is -inf", id="inf-learning-rate"),
    pytest.param(lambda c: set_entry(c["trees"], "threshold", root_split(c["trees"]),
                                     str(c["trees"]["threshold"][root_split(c["trees"])])),
                 "classifier.trees.threshold holds <U\\d+ values, not numbers",
                 id="threshold-as-string"),
])
def test_invalid_tree_rejected(mutate, message, training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("xgb", "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, lambda payload: mutate(payload["classifier"]))
    with pytest.raises(CorruptArtifact, match=message):
        load_model(str(path))


@pytest.mark.parametrize("kind, mutate, message", [
    pytest.param("knn", lambda p: p["feature_spec"]["keywords"].__setitem__(0, 1),
                 "feature_spec.keywords\\[0\\] is 1, not str", id="keyword-not-a-string"),
    pytest.param("knn", lambda p: p["classifier"]["features"][2].__setitem__(
                     1, str(p["classifier"]["features"][2][1])),
                 "classifier.features holds <U\\d+ values, not numbers", id="knn-row-as-string"),
    pytest.param("knn", lambda p: p.update(seed="42"), "seed is '42', not int",
                 id="seed-as-string"),
    pytest.param("knn", lambda p: p["classifier"].update(default_k=5.7),
                 "classifier.default_k is 5.7, not int", id="fractional-default-k"),
    pytest.param("rf", lambda p: p["classifier"].update(bootstrap="false"),
                 "classifier.bootstrap is 'false', not bool", id="bootstrap-as-string"),
    pytest.param("knn", lambda p: p.update(dataset_fingerprint=7),
                 "dataset_fingerprint is 7, not str", id="fingerprint-not-a-string"),
    pytest.param("rf", lambda p: p["classifier"].update(n_trees=True),
                 "classifier.n_trees is True, not int", id="tree-count-as-bool"),
    pytest.param("rf", lambda p: p["classifier"]["trees"].update(roots=[True]),
                 "classifier.trees.roots holds bool values, not integers", id="roots-as-bools"),
    pytest.param("knn", lambda p: p["bounds"]["lower"].__setitem__(0, None),
                 "bounds.lower holds object values, not numbers", id="null-bound"),
    pytest.param("knn", lambda p: p["classifier"].update(labels={"0": 1}),
                 "classifier.labels holds object values, not numbers", id="labels-as-object"),
    pytest.param("knn", lambda p: p.update(bounds=[]), "bounds is \\[\\], not OutlierBounds",
                 id="bounds-as-list"),
    pytest.param("knn", lambda p: p["feature_spec"].update(keywords="login"),
                 "feature_spec.keywords is 'login', not tuple", id="keywords-as-string"),
])
def test_value_not_of_its_declared_type_rejected(kind, mutate, message, training_data,
                                                 tmp_path):
    """Each payload value is read only as its field's declared type."""
    artifact = train_artifact(training_data, small_config(kind, "raw"))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    rewrite_payload(path, mutate)
    with pytest.raises(CorruptArtifact, match=message):
        load_model(str(path))


@pytest.mark.parametrize("kind", ["mlp", "knn", "xgb", "gb", "rf"])
@pytest.mark.parametrize("feature_mode", ["raw", "latent"])
def test_saving_a_loaded_artifact_writes_the_same_bytes(kind, feature_mode, training_data,
                                                        tmp_path):
    """The codec reads back exactly what it wrote, created_at included."""
    path, copy = tmp_path / "model.json", tmp_path / "copy.json"
    save_model(train_artifact(training_data, small_config(kind, feature_mode)), str(path))
    save_model(load_model(str(path)), str(copy))
    assert copy.read_bytes() == path.read_bytes()


# Every finite float, with the extremes of the format always in reach.
FINITE = (st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308])
          | st.floats(allow_nan=False, allow_infinity=False))
INDICES = st.integers(np.iinfo(np.intp).min, np.iinfo(np.intp).max)


def float_array(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


@st.composite
def preorder_trees(draw):
    """A TreeArrays of one to four trees of random shapes, each numbered in preorder,
    with arbitrary split features and finite thresholds and values."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth: int) -> int:
        node = len(value)
        split = depth < 3 and draw(st.booleans())
        feature.append(draw(INDICES) if split else 0)
        threshold.append(draw(FINITE) if split else 0.0)
        value.append(0.0 if split else draw(FINITE))
        left.append(node)
        right.append(node)
        if split:
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    roots = [grow(0) for _ in range(draw(st.integers(1, 4)))]
    index = lambda values: np.array(values, dtype=np.intp)
    return TreeArrays(index(feature), np.array(threshold), index(left), index(right),
                      np.array(value), index(roots))


@st.composite
def stored_models(draw):
    """A TreeArrays, KnnModel, LayerParams or OutlierBounds of arbitrary finite contents,
    trees of random preorder shapes."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["trees", "knn", "layer", "bounds"]))
    if kind == "trees":
        return draw(preorder_trees())
    if kind == "knn":
        return KnnModel(draw(float_array((n, d))),
                        draw(hnp.arrays(np.intp, n, elements=st.integers(0, 1))),
                        draw(st.integers(1, n)))
    if kind == "layer":
        return LayerParams(draw(float_array((n, d))), draw(float_array(n)),
                           draw(st.sampled_from(sorted(ACTIVATIONS))))
    return OutlierBounds(draw(float_array(d)), draw(float_array(d)))


@settings(deadline=None)
@given(model=stored_models())
def test_stored_fields_survive_the_codec_bit_for_bit(model):
    text = artifact_module._canonical(artifact_module._encode(model))
    decoded = artifact_module._decode(type(model), json.loads(text))
    for field in fields(model):
        want, got = getattr(model, field.name), getattr(decoded, field.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


def rebuilt(value):
    """value built again from its own fields, and so are the models and lists it holds."""
    if is_dataclass(value):
        return type(value)(**{f.name: rebuilt(getattr(value, f.name)) for f in fields(value)})
    if isinstance(value, list):
        return [rebuilt(item) for item in value]
    return value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n_rows=st.integers(12, 60))
def test_every_trained_model_rebuilds_and_survives_the_codec(seed, n_rows, tmp_path_factory):
    """Each model class accepts every model training gives, built again from its
    fields or loaded from its file, and both save to the bytes it saved to."""
    urls = random_urls(n_rows, seed=seed)
    labels = np.random.default_rng(seed).permutation(np.arange(n_rows) % 2)
    dataset = Dataset(featurize_many(urls, FeatureSpec()), labels, urls)
    path = tmp_path_factory.mktemp("models")
    for kind in CLASSIFIER_KINDS:
        for feature_mode in ("raw", "latent"):
            artifact = replace(train_artifact(dataset, small_config(kind, feature_mode)),
                               created_at="2026-01-01T00:00:00+00:00")
            save_model(artifact, str(path / "trained.json"))
            save_model(rebuilt(artifact), str(path / "rebuilt.json"))
            save_model(load_model(str(path / "trained.json")), str(path / "loaded.json"))
            saved = (path / "trained.json").read_bytes()
            assert (path / "rebuilt.json").read_bytes() == saved, (kind, feature_mode)
            assert (path / "loaded.json").read_bytes() == saved, (kind, feature_mode)


def test_latent_tree_feature_checked_against_latent_width(training_data, tmp_path):
    artifact = train_artifact(training_data, small_config("rf", "latent"))
    width = artifact.preprocessor.autoencoder.latent_dim
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    def set_root_feature(payload, feature):
        trees = payload["classifier"]["trees"]
        set_entry(trees, "feature", root_split(trees), feature)

    rewrite_payload(path, lambda payload: set_root_feature(payload, width - 1))
    load_model(str(path))
    rewrite_payload(path, lambda payload: set_root_feature(payload, width))
    with pytest.raises(CorruptArtifact, match=f"outside \\[0, {width}\\)"):
        load_model(str(path))


@pytest.mark.parametrize(
    "kind, predict_one", [("xgb", predict_boosted), ("gb", predict_boosted), ("rf", predict_forest)]
)
def test_scalar_and_batch_confidences_identical(kind, predict_one, training_data):
    # ten trees/rounds: enough that a differently ordered float sum would show
    cfg = replace(
        small_config(kind),
        forest=ForestParams(n_trees=10, max_depth=4),
        gb=BoostParams(n_rounds=10),
        xgb=XgbParams(n_rounds=10),
    )
    artifact = train_artifact(training_data, cfg)
    X = transform_features(artifact, training_data.features)
    batch = predict_feature_matrix(artifact, training_data.features)
    scalar = [predict_one(artifact.classifier, x)[1] for x in X]
    assert [float(b) for b in batch] == scalar


# ---------------------------------------------------------------------------
# Reading the file: its layout, format_version, and the checksum of the stored text
# ---------------------------------------------------------------------------

LAYOUT = "not in the format 3 layout"


def test_payload_key_after_an_empty_header_is_not_json(training_data, tmp_path):
    path = saved_knn(training_data, tmp_path)
    path.write_text('{,"payload":' + read_artifact(path)[1] + "}\n")
    with pytest.raises(CorruptArtifact, match=LAYOUT):
        load_model(str(path))


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_non_object_document_is_corrupt(text, tmp_path):
    path = tmp_path / "model.json"
    write_artifact(path, text)
    with pytest.raises(CorruptArtifact, match="not an object"):
        load_model(str(path))


@pytest.mark.parametrize("version", [
    0, -3, True, False, 1.0, "1", None, pytest.param(1, id="format-1"),
    pytest.param(2, id="format-2"),
])
def test_format_version_outside_one_to_current_is_corrupt(version, training_data, tmp_path):
    path = saved_knn(training_data, tmp_path)
    write_artifact(path, read_artifact(path)[1], format_version=version)  # outside the checksum
    with pytest.raises(CorruptArtifact, match="format_version"):
        load_model(str(path))


@pytest.mark.parametrize("created_at", [5, None, ["2026-01-01"]])
def test_created_at_not_a_string_is_corrupt(created_at, training_data, tmp_path):
    path = saved_knn(training_data, tmp_path)
    write_artifact(path, read_artifact(path)[1], created_at=created_at)  # outside the checksum
    with pytest.raises(CorruptArtifact, match="created_at is"):
        load_model(str(path))


def forbid_payload_redump(monkeypatch) -> None:
    """Fail if load_model serializes the payload again (it dumps only the header)."""
    original = artifact_module._canonical

    def canonical_header(value):
        assert "classifier" not in value, "the payload was re-serialized to check its checksum"
        return original(value)

    monkeypatch.setattr(artifact_module, "_canonical", canonical_header)


@pytest.mark.parametrize("kind", ["mlp", "knn", "xgb", "gb", "rf"])
@pytest.mark.parametrize("feature_mode", ["raw", "latent"])
def test_saved_file_is_checked_on_its_text(kind, feature_mode, training_data, tmp_path,
                                           monkeypatch):
    artifact = train_artifact(training_data, small_config(kind, feature_mode))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    forbid_payload_redump(monkeypatch)
    loaded = load_model(str(path))
    urls = random_urls(40, seed=5)
    assert np.array_equal(predict_urls(loaded, urls), predict_urls(artifact, urls))


def saved_knn(training_data, tmp_path, keywords=None):
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    if keywords is not None:  # same count, so every width stays as trained
        artifact = replace(artifact, feature_spec=FeatureSpec(keywords=keywords))
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    return path


def payload_keys_reversed(text: str, doc: dict) -> str:
    head, key, _ = text.partition(',"payload":')
    payload = dict(reversed(doc["payload"].items()))
    return head + key + json.dumps(payload, separators=(",", ":")) + "}\n"


@pytest.mark.parametrize("rewrite, message", [
    pytest.param(lambda text, doc: json.dumps(doc, sort_keys=True, indent=2) + "\n", LAYOUT,
                 id="indent-2"),
    pytest.param(lambda text, doc: json.dumps(doc, sort_keys=True) + "\n", LAYOUT, id="spaced"),
    pytest.param(lambda text, doc: json.dumps(dict(reversed(doc.items()))) + "\n", LAYOUT,
                 id="top-level-keys-out-of-order"),
    pytest.param(lambda text, doc: text[:-1], LAYOUT, id="no-trailing-newline"),
    pytest.param(lambda text, doc: text[:-1] + "\r\n", LAYOUT, id="crlf"),
    pytest.param(lambda text, doc: text[:-1] + "\r", LAYOUT, id="cr-newline"),
    pytest.param(lambda text, doc: text.replace('"checksum":', '"checksum": ', 1), LAYOUT,
                 id="header-spacing"),
    pytest.param(lambda text, doc: canonical(doc), LAYOUT, id="compact"),
    # the header is intact, so the reordered payload text is hashed as stored
    pytest.param(payload_keys_reversed, "checksum mismatch", id="payload-keys-out-of-order"),
])
def test_reformatted_file_is_rejected(rewrite, message, training_data, tmp_path):
    """The same document in any other text must be saved again by save_model."""
    path = saved_knn(training_data, tmp_path)
    text = path.read_text()
    path.write_bytes(rewrite(text, json.loads(text)).encode("utf-8"))  # no newline translation
    with pytest.raises(CorruptArtifact, match=message):
        load_model(str(path))


@pytest.mark.parametrize("keyword", ["free, now", "key: value", 'quo"te', "café"])
def test_payload_strings_load_from_the_stored_text(keyword, training_data, tmp_path,
                                                   monkeypatch):
    keywords = ("login", "secure", "account", "verify", "bank", keyword)
    path = saved_knn(training_data, tmp_path, keywords)
    forbid_payload_redump(monkeypatch)
    assert load_model(str(path)).feature_spec.keywords == keywords


def edit_number(payload_text: str) -> str:
    i = payload_text.index('"features":[[') + len('"features":[[')
    digit = payload_text[i]
    assert digit.isdigit()
    return payload_text[:i] + ("7" if digit != "7" else "8") + payload_text[i + 1:]


def edit_string(payload_text: str) -> str:
    i = payload_text.index('"keywords":["login"') + len('"keywords":["')
    return payload_text[:i] + "x" + payload_text[i + 1:]


def second_payload(payload_text: str) -> str:
    return payload_text + ',"payload":' + edit_number(payload_text)


@pytest.mark.parametrize("edit", [edit_number, edit_string, second_payload])
def test_edited_payload_text_rejected(edit, training_data, tmp_path):
    path = saved_knn(training_data, tmp_path)
    header, payload_text = read_artifact(path)
    write_artifact(path, edit(payload_text), checksum=header["checksum"])
    with pytest.raises(CorruptArtifact):
        load_model(str(path))


@pytest.fixture(scope="module")
def saved_raw_knn(training_data, tmp_path_factory):
    """A small raw k-NN artifact, the bytes save_model wrote for it, and a path to rewrite."""
    artifact = train_artifact(training_data, small_config("knn", "raw"))
    path = tmp_path_factory.mktemp("artifact") / "model.json"
    save_model(artifact, str(path))
    return artifact, path.read_bytes(), path


PROPERTY_URLS = random_urls(40, seed=31)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_byte_outside_created_at_is_covered(saved_raw_knn, data):
    """Changing any one byte of a saved file makes it fail to load, except inside
    the created_at value, which no prediction depends on.

    Offsets are drawn over the whole file and, as often, among the bytes that
    are not letters or digits (JSON syntax and whitespace); one replacement in
    two is whitespace, which is what a reformatting changes.
    """
    artifact, saved, path = saved_raw_knn
    text = saved.decode("ascii")
    syntax = [i for i, c in enumerate(text) if not c.isalnum()]
    offset = data.draw(st.integers(0, len(saved) - 1) | st.sampled_from(syntax), label="offset")
    char = data.draw((st.sampled_from(string.whitespace) | st.sampled_from(string.printable))
                     .filter(lambda c: c != text[offset]), label="char")
    key = text.index('"created_at":') + len('"created_at":')
    start = text.index('"', key) + 1
    end = text.index('"', start)

    path.write_bytes(saved[:offset] + char.encode("ascii") + saved[offset + 1:])
    try:
        loaded = load_model(str(path))
    except (CorruptArtifact, UnsupportedVersion):
        return
    assert start <= offset < end, f"the file loads with byte {offset} changed to {char!r}"
    assert np.array_equal(predict_urls(loaded, PROPERTY_URLS),
                          predict_urls(artifact, PROPERTY_URLS))
