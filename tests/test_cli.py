import csv
import hashlib
import json
import re
import sys

import numpy as np
import pytest

from urlsentry.artifact import save_model
from urlsentry.cli import main
from urlsentry.config import PipelineConfig, build_config, parse_config_file
from urlsentry.errors import ConfigError, FeatureSpecMismatch, ThresholdOutOfRange
from urlsentry.features import FeatureSpec, featurize_many
from urlsentry.neural import TrainConfig
from urlsentry.pipeline import Dataset
from urlsentry.runner import (
    evaluate_artifact,
    filter_predictions,
    load_labeled_dataset,
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


def minus_inf_lower_bound(payload):
    payload["bounds"]["lower"][0] = float("-inf")


def nest_first_tree(payload_text: str) -> str:
    """Replace the first tree by one nested as many levels deep as the recursion limit."""
    depth = sys.getrecursionlimit()
    payload = json.loads(payload_text)
    payload["classifier"]["trees"][0] = "deep"
    deep = ('{"feature":0,"left":' * depth + '{"value":0.0}'
            + ',"right":{"value":0.0},"threshold":0.5}' * depth)
    return canonical(payload).replace('"deep"', deep, 1)


class TestCmdPredict:
    def make_knn_artifact(self, tiny_csv, tmp_path, k=1):
        cfg = PipelineConfig(
            classifier="knn", knn_k=k, seed=1,
            autoencoder=TrainConfig(epochs=5, hidden_sizes=(6,)),
        )
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
        model = tmp_path / "xgb.json"
        save_model(train_artifact(dataset, cfg), str(model))
        rewrite_payload(
            model, lambda payload: payload["classifier"]["trees"][0].update({field: value})
        )
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    def test_unknown_activation_exits_one(self, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="mlp", feature_mode="raw", seed=1,
                             mlp=TrainConfig(epochs=2))
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        assert "CorruptArtifact: MLP layer 0 weights holds nan" in capsys.readouterr().err
        assert not (tmp_path / "o" / "safe_urls.txt").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
    def test_non_object_artifact_exits_one(self, text, tmp_path, capsys):
        model = tmp_path / "model.json"
        write_artifact(model, text)
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "CorruptArtifact" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, -3, True, pytest.param(1, id="format-1")])
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

    def test_format_1_artifact_exits_one_asking_to_retrain(self, tiny_csv, tmp_path, capsys):
        """A file as format 1 wrote it: one json.dump of the whole document with
        the bounds stored again as the scaler and the feature mode spelled out."""
        model = tmp_path / "knn.json"
        self.make_knn_artifact(tiny_csv, tmp_path)
        header, payload_text = read_artifact(model)
        payload = json.loads(payload_text)
        payload["scaler"] = {"min": payload["bounds"]["lower"], "max": payload["bounds"]["upper"]}
        payload["feature_mode"] = "autoencoder_latent"
        checksum = hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()
        document = {**header, "checksum": checksum, "format_version": 1, "payload": payload}
        model.write_text(json.dumps(document, sort_keys=True) + "\n")
        code = main(["predict", "--model", str(model), "--out", str(tmp_path / "o"),
                     "https://example.org/docs"])
        assert code == 1
        assert "retrain the model" in capsys.readouterr().err

    @pytest.mark.parametrize("rewrite", [
        pytest.param(lambda text: re.sub(r'"seed":\d+', '"seed":' + "9" * 5000, text, count=1),
                     id="5000-digit-seed"),
        pytest.param(lambda text: "[" * 200_000, id="200000-brackets"),
        pytest.param(nest_first_tree, id="tree-nested-to-the-recursion-limit"),
    ])
    def test_json_python_cannot_read_exits_one(self, rewrite, tiny_csv, tmp_path, capsys):
        cfg = PipelineConfig(classifier="xgb", feature_mode="raw", seed=1)
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
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
        dataset, _ = load_labeled_dataset(tiny_csv, cfg)
        artifact = train_artifact(dataset, cfg)
        wide_spec = FeatureSpec(keywords=FeatureSpec().keywords + ("aa", "bb"))
        wide = Dataset(
            featurize_many(dataset.urls, wide_spec), dataset.labels, dataset.urls
        )
        with pytest.raises(FeatureSpecMismatch):
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
        "row", ["MLP,not-a-number", "MLP"], ids=["non_numeric", "one_column"]
    )
    def test_report_malformed_row_exits_one(self, tmp_path, capsys, row):
        path = tmp_path / "comparison.csv"
        path.write_text(f"classifier,accuracy\nK-NN,0.5\n{row}\n")
        code = main(["report", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow")
        assert "line 3" in err


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
