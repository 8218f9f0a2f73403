import csv
import dataclasses
import hashlib
import json
import re
import signal
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from urlsentry.artifact import predict_urls, save_model
from urlsentry.cli import main
from urlsentry.config import (
    ForestParams,
    PipelineConfig,
    XgbParams,
    build_config,
    parse_config_file,
)
from urlsentry.errors import ConfigError, DimensionMismatch, ThresholdOutOfRange
from urlsentry.evaluation import render_bar_chart
from urlsentry.features import FeatureSpec, featurize_many
from urlsentry.neural import TrainConfig
from urlsentry.pipeline import Dataset
from urlsentry.runner import (
    evaluate_artifact,
    filter_predictions,
    load_labeled_dataset,
    make_verdicts,
    train_artifact,
)

from conftest import canonical, read_artifact, rewrite_payload, write_artifact


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["url", "type"])
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def tiny_csv(tmp_path):
    """Small labeled set with lexically distinct URLs (no feature collisions)."""
    rows = [
        ("https://www.meadow.org/articles/history.html", "benign"),
        ("https://copperfield.com/guides", "benign"),
        ("http://willowgarden.net/recipes/bread.html", "benign"),
        ("https://libraryarchive.edu/events/2024", "benign"),
        ("https://summitpress.io/reviews/cameras.html", "benign"),
        ("http://juniperatlas.org/wiki", "benign"),
        ("http://secure-payvault.tk/login?session=77812", "phishing"),
        ("http://203.0.113.9/verify/confirm.php?user=4413&token=99120", "phishing"),
        ("http://bankmail.login-harbor.gq/account/update.php", "phishing"),
        ("http://www.quarrytimber.com/index.php?option=12&task=34&id=56", "defacement"),
        ("http://198.51.100.7/setup22.exe", "malware"),
        ("http://free-codec91.xyz/download/player.exe?free=1", "malware"),
    ]
    path = write_rows(tmp_path / "tiny.csv", rows)
    feats = featurize_many([r[0] for r in rows], FeatureSpec())
    assert len(np.unique(feats, axis=0)) == len(rows), "feature collision in fixture"
    return path


class TestCmdTrain:
    def test_happy_path(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "train", "--data", tiny_csv, "--out", str(out),
            "--classifier", "knn", "--seed", "5",
        ])
        assert code == 0
        assert (out / "model.json").exists()
        printed = capsys.readouterr().out
        assert "rows used: 12" in printed
        assert "seed: 5" in printed

    def test_unknown_label_exits_one(self, tmp_path, capsys):
        path = write_rows(tmp_path / "bad.csv", [("http://a.com", "weird_label")])
        code = main(["train", "--data", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "UnknownLabel" in capsys.readouterr().err

    def test_same_seed_identical_artifacts_modulo_timestamp(self, tiny_csv, tmp_path):
        for name in ("a", "b"):
            code = main([
                "train", "--data", tiny_csv, "--out", str(tmp_path / name),
                "--classifier", "gb", "--seed", "3",
            ])
            assert code == 0
        d1 = json.loads((tmp_path / "a" / "model.json").read_text())
        d2 = json.loads((tmp_path / "b" / "model.json").read_text())
        d1.pop("created_at")
        d2.pop("created_at")
        assert d1 == d2

    def test_missing_data_flag(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 1

    def test_non_utf8_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"url,type\nhttp://caf\xe9.com/menu,benign\n")
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "UnicodeDecodeError" in capsys.readouterr().err

    def test_missing_column_keeps_its_type(self, tmp_path, capsys):
        path = tmp_path / "no_type.csv"
        path.write_text("url,label\nhttp://a.com,benign\n")
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: MissingColumn: ")

    def test_model_flag_leaves_only_the_model(self, tiny_csv, tmp_path, monkeypatch):
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["train", "--data", tiny_csv, "--classifier", "knn", "--model", "m.json"]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["m.json"]


def minus_inf_lower_bound(payload):
    payload["bounds"]["lower"][0] = float("-inf")


def nest_tree_lists(payload_text: str) -> str:
    """Replace every node list of the trees by a list nested as deep as the recursion limit."""
    depth = sys.getrecursionlimit()
    payload = json.loads(payload_text)
    trees = payload["classifier"]["trees"]
    for name in trees:
        trees[name] = "deep"
    return canonical(payload).replace('"deep"', "[" * depth + "0" + "]" * depth)


def nested(trees: dict, node: int) -> dict:
    """A node of the saved node lists and its subtree as nested objects, as format 2 stored them."""
    if trees["left"][node] == node:
        return {"value": trees["value"][node]}
    return {
        "feature": trees["feature"][node],
        "left": nested(trees, trees["left"][node]),
        "right": nested(trees, trees["right"][node]),
        "threshold": trees["threshold"][node],
    }


def corrupt(trees: dict, case: str) -> None:
    """Rewrite one entry of a saved ensemble's node lists, or append nodes, as case says."""
    n = len(trees["value"])
    root = next(r for r in trees["roots"] if trees["left"][r] != r)  # the first split root
    left = trees["left"][root]
    leaf = next(i for i, child in enumerate(trees["left"]) if child == i)
    edits = {
        "child-past-the-end": ("left", root, n),
        "negative-child": ("right", root, -1),
        "root-past-the-end": ("roots", 0, n),
        "negative-root": ("roots", -1, -1),
        "two-parents": ("right", root, left),
        "cycle": ("left", left, root),
        "split-is-its-own-left-child": ("left", root, root),
        "feature-equal-to-width": ("feature", root, 18),
        "feature-minus-one": ("feature", root, -1),
        "nan-threshold": ("threshold", root, float("nan")),
        "inf-threshold": ("threshold", root, float("inf")),
        "401-digit-threshold": ("threshold", root, 10**400),
        "nan-leaf-value": ("value", leaf, float("nan")),
        "inf-leaf-value": ("value", leaf, float("-inf")),
        "fractional-child": ("left", root, left + 0.5),
        "float-root": ("roots", 0, float(trees["roots"][0])),
        "string-feature": ("feature", root, "0"),
        "string-threshold": ("threshold", root, str(trees["threshold"][root])),
        "null-child": ("right", root, None),
    }
    # appended rows: (feature, threshold, left, right, value)
    appended = {
        "unreachable-leaf": [(0, 0.0, n, n, 0.5)],
        # two splits that are each other's left child, each with a leaf: one parent apiece
        "detached-cycle": [(0, 0.5, n + 1, n + 2, 0.0), (0, 0.5, n, n + 3, 0.0),
                           (0, 0.0, n + 2, n + 2, 0.5), (0, 0.0, n + 3, n + 3, 0.5)],
    }
    if case == "unequal-lengths":
        trees["threshold"].pop()
    elif case == "two-dimensional-children":
        trees["left"] = [trees["left"]]
    elif case in appended:
        for row in appended[case]:
            for name, entry in zip(("feature", "threshold", "left", "right", "value"), row):
                trees[name].append(entry)
    else:
        name, index, value = edits[case]
        trees[name][index] = value


TREE_LIST_CASES = [
    "child-past-the-end", "negative-child", "root-past-the-end", "negative-root", "two-parents",
    "cycle", "split-is-its-own-left-child", "detached-cycle", "unreachable-leaf",
    "feature-equal-to-width", "feature-minus-one",
    "nan-threshold", "inf-threshold", "401-digit-threshold", "nan-leaf-value", "inf-leaf-value",
    "unequal-lengths", "two-dimensional-children", "fractional-child", "float-root",
    "string-feature", "null-child",
    "string-threshold",
]


@contextmanager
def deadline(seconds: int):
    """Raise in the body once it has run for seconds, so that a loop fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def first_root_left_child_as_true(payload):
    trees = payload["classifier"]["trees"]
    root = trees["roots"][0]
    assert trees["left"][root] == 1, "the first root is not a split"  # preorder numbering
    trees["left"][root] = True


def first_root_threshold_as_false(payload):
    trees = payload["classifier"]["trees"]
    trees["threshold"][trees["roots"][0]] = False


BAD_METADATA_CASES = [
    pytest.param("rf", first_root_left_child_as_true,
                 "classifier.trees.left holds true or false, not integers", id="rf-left-true"),
    pytest.param("xgb", first_root_left_child_as_true,
                 "classifier.trees.left holds true or false, not integers", id="xgb-left-true"),
    pytest.param("xgb", first_root_threshold_as_false,
                 "classifier.trees.threshold holds true or false, not numbers",
                 id="xgb-threshold-false"),
    pytest.param("knn", lambda payload: payload["classifier"]["features"][0].__setitem__(0, False),
                 "classifier.features holds true or false, not numbers", id="knn-row-false"),
    pytest.param("rf", lambda payload: payload["classifier"].update(n_trees=7),
                 "n_trees is 7, not 3", id="rf-n-trees"),
    pytest.param("rf", lambda payload: payload["classifier"].update(
                     n_trees=0, trees={name: [] for name in payload["classifier"]["trees"]}),
                 "the forest has no trees", id="rf-no-trees"),
    pytest.param("rf", lambda payload: payload["classifier"]["trees"].update(roots=0),
                 "the tree lists have shapes", id="rf-roots-not-a-list"),
    pytest.param("xgb", lambda payload: payload["classifier"].update(lam=float("nan")),
                 "classifier.lam is nan, not finite", id="xgb-lam-nan"),
    pytest.param("gb", lambda payload: payload["classifier"].update(gamma=float("inf")),
                 "classifier.gamma is inf, not finite", id="gb-gamma-inf"),
    pytest.param("xgb", lambda payload: payload["classifier"].update(variant="gradient_boosting"),
                 "variant is 'gradient_boosting', not 'xgboost_style'", id="xgb-variant"),
    pytest.param("gb", lambda payload: payload["classifier"].update(variant="xgboost_style"),
                 "variant is 'xgboost_style', not 'gradient_boosting'", id="gb-variant"),
]


class TestCmdPredict:
    @pytest.mark.parametrize("kind, mutate, message", BAD_METADATA_CASES)
    def test_stored_value_training_cannot_write_exits_one(self, kind, mutate, message,
                                                          tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier=kind, feature_mode="raw", seed=1,
                             forest=ForestParams(n_trees=3), xgb=XgbParams(n_rounds=3))
        model = tmp_path / f"{kind}.json"
        save_model(train_artifact(load_labeled_dataset(tiny_csv)[0], cfg), str(model))
        assert main(["predict", "--model", str(model), "--out", str(tmp_path / "ok"),
                     "https://example.org/docs"]) == 0
        rewrite_payload(model, mutate)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert f"error: CorruptArtifact: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def make_knn_artifact(self, tiny_csv, tmp_path, k=1):
        cfg = PipelineConfig(
            classifier="knn", knn_k=k, seed=1,
            autoencoder=TrainConfig(epochs=5, hidden_sizes=(6,)),
        )
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        path = tmp_path / "knn.json"
        save_model(artifact, str(path))
        return str(path)

    def test_training_row_self_match_flagged(self, tiny_csv, tmp_path, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path, k=1)
        url = "http://secure-payvault.tk/login?session=77812"
        code = main(["predict", "--model", model, "--out", str(tmp_path / "o"), url])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith(url)][0]
        assert line.split("\t") == [url, "1.000000", "flagged"]

    def test_empty_input_file(self, tmp_path, tiny_csv, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("\n\n")
        code = main(["predict", "--model", model, "--data", str(urls_file)])
        assert code == 1
        assert "no URLs" in capsys.readouterr().err

    def test_non_utf8_url_list_exits_one(self, tmp_path, tiny_csv, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_bytes(b"http://caf\xe9.com/menu\n")
        code = main(["predict", "--model", model, "--data", str(urls_file),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "UnicodeDecodeError" in capsys.readouterr().err

    def test_url_argument_that_is_not_utf8_exits_one(self, tiny_csv, tmp_path, capsys):
        # the shell passes the byte 0xff of http://a\xff.com/x as the lone surrogate U+DCFF
        model = self.make_knn_artifact(tiny_csv, tmp_path)
        out = tmp_path / "o"
        code = main(["predict", "--model", model, "--out", str(out),
                     "http://ok.com/", "http://a\udcff.com/x"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: UsageError: argument 2: URL is not valid UTF-8\n"
        assert not out.exists()

    def test_partition_conservation_and_safe_list(self, tiny_csv, tmp_path, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path, k=3)
        urls_file = tmp_path / "urls.txt"
        inputs = [
            "https://www.meadow.org/articles/history.html",
            "",  # skipped with a warning
            "http://free-codec91.xyz/download/player.exe?free=1",
            "https://unseen-site.org/reading",
        ]
        urls_file.write_text("\n".join(inputs) + "\n")
        out = tmp_path / "o"
        code = main(["predict", "--model", model, "--data", str(urls_file),
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        verdict_lines = [l for l in captured.out.splitlines() if "\t" in l]
        assert len(verdict_lines) == 3  # empty line dropped, rest processed
        safe = (out / "safe_urls.txt").read_text().splitlines()
        flagged = [l.split("\t")[0] for l in verdict_lines if l.endswith("flagged")]
        assert len(safe) + len(flagged) == 3
        assert "warning" in captured.err

    def test_empty_url_warnings_name_argument_and_file_line(self, tiny_csv, tmp_path, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("https://www.meadow.org/articles/history.html\n\n")
        code = main(["predict", "--model", model, "--data", str(urls_file),
                     "--out", str(tmp_path / "o"), "https://unseen-site.org/reading", " "])
        assert code == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning")]
        assert warnings == [
            "warning: argument 2: empty URL skipped",
            f"warning: {urls_file} line 2: empty URL skipped",
        ]

    def test_url_list_byte_order_mark_is_dropped(self, tiny_csv, tmp_path, capsys):
        model = self.make_knn_artifact(tiny_csv, tmp_path)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_bytes(b"\xef\xbb\xbfhttp://a.com/x\nhttp://a.com/x\n")
        out = tmp_path / "o"
        assert main(["predict", "--model", model, "--data", str(urls_file),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()[:2]
        assert lines[0] == lines[1] and lines[0].startswith("http://a.com/x\t")
        assert "\ufeff" not in "\n".join(lines)
        safe = (out / "safe_urls.txt").read_bytes()
        assert b"\xef\xbb\xbf" not in safe
        assert safe.decode().splitlines() == [
            line.split("\t")[0] for line in lines if line.endswith("safe")
        ]

        urls_file.write_bytes(b"\xef\xbb\xbf\nhttp://a.com/x\n")
        assert main(["predict", "--model", model, "--data", str(urls_file),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == (
            f"warning: {urls_file} line 1: empty URL skipped"
        )

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("section, name", [("bounds", "upper")])
    def test_short_preprocessing_array_exits_one(
        self, command, section, name, tiny_csv, tmp_path, capsys
    ):
        model = tmp_path / "knn.json"
        self.make_knn_artifact(tiny_csv, tmp_path)
        rewrite_payload(model, lambda payload: payload[section][name].pop())
        data = (["--data", tiny_csv] if command == "evaluate"
                else ["--out", str(tmp_path / "o"), "https://example.org/docs"])
        code = main([command, "--model", str(model), *data])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err


    def test_knn_label_outside_zero_one_exits_one(self, tiny_csv, tmp_path, capsys):
        model = tmp_path / "knn.json"
        self.make_knn_artifact(tiny_csv, tmp_path)
        rewrite_payload(model, lambda payload: payload["classifier"]["labels"].__setitem__(0, 2))
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        pytest.param(minus_inf_lower_bound, id="lower-bound-minus-inf"),
        pytest.param(lambda payload: payload["classifier"]["features"][0].__setitem__(0, float("nan")),
                     id="knn-row-nan"),
        pytest.param(
            lambda payload: payload["classifier"]["features"][0].__setitem__(0, 10**400),
            id="knn-row-401-digit-integer",
        ),
        pytest.param(lambda payload: payload["feature_spec"]["keywords"].__setitem__(0, 1),
                     id="keyword-not-a-string"),
        pytest.param(lambda payload: payload["classifier"]["features"][0].__setitem__(
                         0, str(payload["classifier"]["features"][0][0])),
                     id="knn-row-as-string"),
        pytest.param(lambda payload: payload.update(seed="42"), id="seed-as-string"),
        pytest.param(lambda payload: payload["classifier"].update(default_k=5.7),
                     id="fractional-default-k"),
        pytest.param(lambda payload: payload.update(dataset_fingerprint=7),
                     id="fingerprint-not-a-string"),
    ])
    def test_non_finite_number_exits_one(self, mutate, tiny_csv, tmp_path, capsys):
        model = tmp_path / "knn.json"
        self.make_knn_artifact(tiny_csv, tmp_path)
        rewrite_payload(model, mutate)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "http://login-update.tk/verify?acct=1"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err
        assert not (tmp_path / "o" / "safe_urls.txt").exists()

    @pytest.mark.parametrize("field, value", [("feature", -13), ("threshold", float("nan"))])
    def test_invalid_tree_exits_one(self, field, value, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="xgb", feature_mode="raw", seed=1)
        dataset, _ = load_labeled_dataset(tiny_csv)
        model = tmp_path / "xgb.json"
        save_model(train_artifact(dataset, cfg), str(model))

        def edit_first_root(payload):
            trees = payload["classifier"]["trees"]
            trees[field][trees["roots"][0]] = value

        rewrite_payload(model, edit_first_root)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    @pytest.mark.parametrize("case", TREE_LIST_CASES)
    @pytest.mark.parametrize("kind", ["rf", "xgb"])
    def test_corrupt_tree_lists_exit_one(self, kind, case, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier=kind, feature_mode="raw", seed=1,
                             forest=ForestParams(n_trees=3), xgb=XgbParams(n_rounds=3))
        dataset, _ = load_labeled_dataset(tiny_csv)
        model = tmp_path / f"{kind}.json"
        save_model(train_artifact(dataset, cfg), str(model))
        rewrite_payload(model, lambda payload: corrupt(payload["classifier"]["trees"], case))
        with deadline(60):
            code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                         "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    def test_unknown_activation_exits_one(self, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="mlp", feature_mode="raw", seed=1,
                             mlp=TrainConfig(epochs=2))
        dataset, _ = load_labeled_dataset(tiny_csv)
        model = tmp_path / "mlp.json"
        save_model(train_artifact(dataset, cfg), str(model))
        rewrite_payload(
            model, lambda payload: payload["classifier"]["layers"][0].update(activation="tanh")
        )
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact: unknown activation 'tanh'" in capsys.readouterr().err


    def test_non_finite_mlp_weight_exits_one(self, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="mlp", feature_mode="raw", seed=1,
                             mlp=TrainConfig(epochs=2))
        dataset, _ = load_labeled_dataset(tiny_csv)
        model = tmp_path / "mlp.json"
        save_model(train_artifact(dataset, cfg), str(model))
        rewrite_payload(
            model,
            lambda payload: payload["classifier"]["layers"][0]["weights"][0].__setitem__(
                0, float("nan")
            ),
        )
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "http://login-update.tk/verify?acct=1"])
        assert code == 1
        assert "CorruptArtifact: classifier.layers[0].weights holds nan" in capsys.readouterr().err
        assert not (tmp_path / "o" / "safe_urls.txt").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
    def test_non_object_artifact_exits_one(self, text, tmp_path, capsys):
        model = tmp_path / "model.json"
        write_artifact(model, text)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, -3, True, pytest.param(1, id="format-1"),
                                         pytest.param(2, id="format-2")])
    def test_format_version_outside_one_to_current_exits_one(
        self, version, tiny_csv, tmp_path, capsys
    ):
        model = tmp_path / "knn.json"
        self.make_knn_artifact(tiny_csv, tmp_path)
        write_artifact(model, read_artifact(model)[1], format_version=version)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact: format_version" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [pytest.param(1, id="format-1-knn"),
                                         pytest.param(2, id="format-2-rf")])
    def test_format_1_artifact_exits_one_asking_to_retrain(self, version, tiny_csv, tmp_path,
                                                           capsys):
        """A file as an earlier format wrote it. Format 1: one json.dump of the
        whole document with the bounds stored again as the scaler and the
        feature mode spelled out. Format 2: the current layout with each tree
        stored as nested objects."""
        if version == 1:
            model = tmp_path / "knn.json"
            self.make_knn_artifact(tiny_csv, tmp_path)
        else:
            cfg = PipelineConfig(classifier="rf", feature_mode="raw", seed=1)
            dataset, _ = load_labeled_dataset(tiny_csv)
            model = tmp_path / "rf.json"
            save_model(train_artifact(dataset, cfg), str(model))
        header, payload_text = read_artifact(model)
        payload = json.loads(payload_text)
        if version == 1:
            payload["scaler"] = {"min": payload["bounds"]["lower"],
                                 "max": payload["bounds"]["upper"]}
            payload["feature_mode"] = "autoencoder_latent"
            checksum = hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()
            document = {**header, "checksum": checksum, "format_version": 1, "payload": payload}
            model.write_text(json.dumps(document, sort_keys=True) + "\n")
        else:
            trees = payload["classifier"]["trees"]
            payload["classifier"]["trees"] = [nested(trees, root) for root in trees["roots"]]
            write_artifact(model, canonical(payload), created_at=header["created_at"],
                           format_version=2)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "retrain the model" in capsys.readouterr().err

    @pytest.mark.parametrize("rewrite", [
        pytest.param(lambda text: re.sub(r'"seed":\d+', '"seed":' + "9" * 5000, text, count=1),
                     id="5000-digit-seed"),
        pytest.param(lambda text: "[" * 200_000, id="200000-brackets"),
        pytest.param(nest_tree_lists, id="tree-nested-to-the-recursion-limit"),
    ])
    def test_json_python_cannot_read_exits_one(self, rewrite, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="xgb", feature_mode="raw", seed=1)
        dataset, _ = load_labeled_dataset(tiny_csv)
        model = tmp_path / "xgb.json"
        save_model(train_artifact(dataset, cfg), str(model))
        write_artifact(model, rewrite(read_artifact(model)[1]))
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err


class TestCmdEvaluate:
    def test_self_evaluation_k1_perfect(self, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(
            classifier="knn", knn_k=1, seed=1, feature_mode="raw",
        )
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        model_path = tmp_path / "m.json"
        save_model(artifact, str(model_path))

        code = main(["evaluate", "--model", str(model_path), "--data", tiny_csv])
        assert code == 0
        printed = capsys.readouterr().out
        match = re.search(r"accuracy\s+= (\S+)", printed)
        assert match and float(match.group(1)) == 1.0

    def test_printed_metrics_recompute_from_printed_cells(self, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="rf", seed=2,
                             autoencoder=TrainConfig(epochs=5, hidden_sizes=(6,)))
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        model_path = tmp_path / "m.json"
        save_model(artifact, str(model_path))

        assert main(["evaluate", "--model", str(model_path), "--data", tiny_csv]) == 0
        printed = capsys.readouterr().out
        cells = re.search(
            r"truth=benign\s+(\d+)\s+(\d+)\s+truth=malicious\s+(\d+)\s+(\d+)",
            printed,
        )
        tn, fp, fn, tp = (int(g) for g in cells.groups())
        recall = float(re.search(r"recall\s+= (\S+)", printed).group(1))
        fpr = float(re.search(r"false_positive_rate = (\S+)", printed).group(1))
        assert abs(recall - (tp / (tp + fn) if tp + fn else 0.0)) < 1e-12
        assert abs(fpr - (fp / (fp + tn) if fp + tn else 0.0)) < 1e-12

    def test_feature_spec_mismatch(self, tiny_csv):
        cfg = PipelineConfig(classifier="knn", knn_k=1, feature_mode="raw")
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        wide_spec = FeatureSpec(keywords=FeatureSpec().keywords + ("aa", "bb"))
        wide = Dataset(
            featurize_many(dataset.urls, wide_spec), dataset.labels, dataset.urls
        )
        with pytest.raises(DimensionMismatch):
            evaluate_artifact(artifact, wide)


class TestCmdCompareAndReport:
    def test_compare_emits_three_files(self, tiny_csv, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--data", tiny_csv, "--out", str(out), "--seed", "11",
        ])
        assert code == 0
        csv_text = (out / "comparison.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "classifier,accuracy"
        assert len(lines) == 6
        for line in lines[1:]:
            acc = float(line.split(",")[1])
            assert 0.0 <= acc <= 1.0
        assert (out / "accuracy_chart.svg").exists()
        report = (out / "report.txt").read_text()
        assert "recall" in report and "false_positive_rate" in report

    def test_report_from_csv(self, tiny_csv, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--data", tiny_csv, "--out", str(out)]) == 0
        out2 = tmp_path / "rep"
        code = main([
            "report", "--data", str(out / "comparison.csv"), "--out", str(out2),
        ])
        assert code == 0
        assert (out2 / "accuracy_chart.svg").exists()

    @pytest.mark.parametrize(
        "row", ["MLP,not-a-number", "MLP", "MLP,nan", "MLP,inf", "MLP,1.5", "MLP,-0.1",
                "MLP,0.5,junk", ",0.7"],
        ids=["non_numeric", "one_column", "nan", "inf", "above_one", "below_zero",
             "extra_field", "empty_name"],
    )
    def test_report_malformed_row_exits_one(self, tmp_path, capsys, row):
        path = tmp_path / "comparison.csv"
        path.write_text(f"classifier,accuracy\nK-NN,0.5\n{row}\n")
        code = main(["report", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow")
        assert "line 3" in err


    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_chart_file_is_the_rendered_text(self, command, tiny_csv, tmp_path, monkeypatch):
        assert main(["compare", "--data", tiny_csv, "--out", str(tmp_path / "cmp")]) == 0
        rendered = []
        monkeypatch.setattr("urlsentry.cli.render_bar_chart",
                            lambda table: rendered.append(render_bar_chart(table)) or rendered[-1])
        data = tiny_csv if command == "compare" else str(tmp_path / "cmp" / "comparison.csv")
        assert main([command, "--data", data, "--out", str(tmp_path / "o")]) == 0
        assert len(rendered) == 1
        assert (tmp_path / "o" / "accuracy_chart.svg").read_bytes() == rendered[0].encode("utf-8")


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 9\nthreshold = 0.8\nfeatures = raw\n")
        values = parse_config_file(str(cfg_file))
        cfg = build_config(values, {"seed": 13})
        assert cfg.seed == 13  # flag wins
        assert cfg.threshold == 0.8
        assert cfg.feature_mode == "raw"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mystery = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg_file))

    def test_unknown_key_via_cli_exits_one(self, tmp_path, tiny_csv, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mystery = 1\n")
        code = main(["train", "--data", tiny_csv, "--config", str(cfg_file)])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_directory_as_config_exits_one(self, tmp_path, tiny_csv, capsys):
        code = main(["train", "--data", tiny_csv, "--config", str(tmp_path)])
        assert code == 1
        assert "IsADirectoryError" in capsys.readouterr().err

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            build_config({}, {"threshold": 1.5})

    def test_comments_and_blanks_ok(self, tmp_path):
        cfg_file = tmp_path / "ok.cfg"
        cfg_file.write_text("# comment\n\nseed = 4  # trailing\n")
        assert parse_config_file(str(cfg_file)) == {"seed": "4"}


# The flags each subcommand reads; every other flag is a usage error.
FLAGS_READ = {
    "train": {"--data", "--config", "--model", "--seed", "--out", "--features", "--classifier"},
    "compare": {"--data", "--config", "--seed", "--out", "--features"},
    "evaluate": {"--data", "--config", "--model"},
    "predict": {"--data", "--config", "--model", "--threshold", "--out"},
    "report": {"--data", "--config", "--out"},
}


class TestConfigIsCheckedWhenBuilt:
    @pytest.mark.parametrize("settings", [
        {"threshold": 1.5}, {"classifier": "bogus"}, {"feature_mode": "bogus"}, {"seed": -1},
    ], ids=lambda settings: next(iter(settings)))
    def test_an_invalid_setting_fails_construction(self, settings):
        with pytest.raises(ConfigError):
            PipelineConfig(**settings)

    @pytest.mark.parametrize("settings", [
        {"mlp": TrainConfig(seed=7)},
        {"autoencoder": TrainConfig(hidden_sizes=(8,), seed=7)},
        {"forest": ForestParams(seed=3)},
    ], ids=lambda settings: next(iter(settings)))
    def test_a_sub_config_seed_fails_construction(self, settings):
        # training would replace it with seed, so it could never take effect
        with pytest.raises(ConfigError, match="seed is the one run seed"):
            PipelineConfig(**settings)

    def test_replace_checks_the_threshold(self):
        with pytest.raises(ThresholdOutOfRange):
            dataclasses.replace(PipelineConfig(), threshold=2.0)

    def test_config_is_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.threshold = 2.0

    def test_predict_threshold_out_of_range_names_its_error_once(self, tmp_path, capsys):
        argv = ["predict", "--model", str(tmp_path / "m.json"), "--threshold", "1.5",
                "https://example.org/docs"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ThresholdOutOfRange: threshold must be in [0, 1], got 1.5")
        assert err.count("ThresholdOutOfRange") == 1

    def test_config_file_with_a_byte_order_mark(self, tmp_path, tiny_csv, capsys):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        argv = ["train", "--data", tiny_csv, "--config", str(cfg_file), "--features", "raw",
                "--classifier", "knn", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert "seed: 3\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, header", [("train", "url,type"),
                                             ("report", "classifier,accuracy")])
def test_a_row_over_the_csv_field_limit_exits_one(command, header, tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(f"{header}\nhttp://a.com/{'a' * 200_000},benign\n", encoding="utf-8")
    assert main([command, "--data", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: MalformedRow: malformed CSV row at line 2")


class TestCommandLine:
    @pytest.mark.parametrize("command", FLAGS_READ)
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z]+", text)) == FLAGS_READ[command] | {"--help"}
        assert not re.search(r"\ball\b", text)

    @pytest.mark.parametrize("argv", [
        ["train", "--threshold", "0.3"],
        ["compare", "--classifier", "knn"],
        ["evaluate", "--out", "o"],
        ["predict", "--seed", "1", "https://example.org/docs"],
        ["report", "--model", "m.json"],
    ], ids=lambda argv: argv[0])
    def test_flag_not_read_exits_one(self, argv, tiny_csv, tmp_path, capsys):
        assert argv[1] not in FLAGS_READ[argv[0]]
        assert main([*argv, "--data", tiny_csv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: UsageError:")
        assert f"unrecognized arguments: {argv[1]}" in err

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "abc"],
        ["compare", "--seed", "-1"],
        ["predict", "--threshold", "abc", "https://example.org/docs"],
        ["compare", "--features", "bogus"],
        ["train", "--classifier", "all"],
    ], ids=lambda argv: "=".join(argv[1:3]))
    def test_bad_flag_value_exits_one(self, argv, tiny_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([*argv, "--data", tiny_csv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ConfigError:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["train", "--bogus", "1"], ["predict", "--threshold"],
    ], ids=["empty", "unknown-command", "unknown-flag", "missing-value"])
    def test_unparsable_command_line_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: UsageError:")

    @pytest.mark.parametrize("argv, missing", [
        (["train"], "--data"),
        (["compare"], "--data"),
        (["report"], "--data"),
        (["evaluate", "--model", "m.json"], "--data"),
        (["evaluate", "--data", "d.csv"], "--model"),
        (["evaluate"], "--model and --data"),
        (["predict", "https://example.org/docs"], "--model"),
    ], ids=["train", "compare", "report", "evaluate-no-data", "evaluate-no-model",
            "evaluate-neither", "predict"])
    def test_missing_setting_exits_one_naming_its_flag(self, argv, missing, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: UrlSentryError: {argv[0]} requires {missing}\n"
        )

    @pytest.mark.parametrize("command", ["train", "compare", "evaluate"])
    def test_unknown_label_named_once(self, command, tiny_csv, tmp_path, capsys):
        bad = write_rows(tmp_path / "bad.csv", [("http://a.com", "weird")])
        argv = [command, "--data", bad]
        if command == "evaluate":
            model = tmp_path / "model.json"
            assert main(["train", "--data", tiny_csv, "--model", str(model),
                         "--out", str(tmp_path / "o"), "--classifier", "knn"]) == 0
            argv += ["--model", str(model)]
        else:
            argv += ["--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: UnknownLabel: 'weird'")
        assert err.count("UnknownLabel") == 1

    def test_train_defaults_to_random_forest(self, tiny_csv, tmp_path, capsys):
        argv = ["train", "--data", tiny_csv, "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "default")]) == 0
        default = capsys.readouterr()
        assert main([*argv, "--classifier", "rf", "--out", str(tmp_path / "rf")]) == 0
        checksums = [
            json.loads((tmp_path / name / "model.json").read_text())["checksum"]
            for name in ("default", "rf")
        ]
        assert checksums[0] == checksums[1]
        assert "trained classifier=rf" in default.out
        assert default.err == ""

    def test_config_file_takes_every_key_for_every_command(self, tmp_path):
        scores = tmp_path / "comparison.csv"
        scores.write_text("classifier,accuracy\nK-NN,0.5\n")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"data = {scores}\nout = {tmp_path / 'o'}\nmodel = unused.json\nseed = 3\n"
            "threshold = 0.3\nfeatures = raw\nclassifier = knn\n"
        )
        assert main(["report", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "o" / "accuracy_chart.svg").exists()


class TestFilterPredictions:
    def test_basic_partition(self):
        safe, flagged = filter_predictions([("a", 0.9), ("b", 0.2)], 0.5)
        assert flagged == [("a", 0.9)]
        assert safe == [("b", 0.2)]

    def test_threshold_zero_flags_everything(self):
        safe, flagged = filter_predictions([("a", 0.0), ("b", 1.0)], 0.0)
        assert safe == [] and len(flagged) == 2

    def test_raising_threshold_shrinks_flagged(self):
        rng = np.random.default_rng(0)
        items = [(f"u{i}", float(c)) for i, c in enumerate(rng.uniform(size=100))]
        _, low = filter_predictions(items, 0.3)
        _, high = filter_predictions(items, 0.7)
        assert set(high).issubset(set(low))

    def test_out_of_range_threshold(self):
        with pytest.raises(ThresholdOutOfRange):
            filter_predictions([("a", 0.5)], 1.2)

    @pytest.mark.parametrize("threshold", [-0.1, 1.2, float("nan")])
    def test_verdicts_check_the_threshold_before_predicting(self, threshold):
        with pytest.raises(ThresholdOutOfRange, match="threshold must be in"):
            make_verdicts(None, ["http://a.com"], threshold)  # no artifact is read

    def test_verdicts_flag_as_the_filter_does(self, tiny_csv, tmp_path):
        cfg = PipelineConfig(classifier="knn", feature_mode="raw", seed=1)
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        urls = list(dataset.urls)
        for threshold in (0.0, 0.5, 1.0):
            verdicts = make_verdicts(artifact, urls, threshold)
            _, flagged = filter_predictions([(v.url, v.confidence) for v in verdicts], threshold)
            assert [v.url for v in verdicts if v.label == "flagged"] == [u for u, _ in flagged]

    def test_verdict_confidences_are_the_predicted_floats(self, tiny_csv):
        cfg = PipelineConfig(classifier="knn", feature_mode="raw", seed=1)
        dataset, _ = load_labeled_dataset(tiny_csv)
        artifact = train_artifact(dataset, cfg)
        urls = list(dataset.urls) + ["http://login-update.tk/verify?acct=1"]
        confidences = predict_urls(artifact, urls)
        for threshold in (0.4, 0.6):  # k is 5, so both are reachable vote shares
            verdicts = make_verdicts(artifact, urls, threshold)
            assert all(type(v.confidence) is float for v in verdicts)
            assert [v.confidence for v in verdicts] == [float(c) for c in confidences]
            assert threshold in confidences
            assert [v.label for v in verdicts] == [
                "flagged" if c >= threshold else "safe" for c in confidences.tolist()]
