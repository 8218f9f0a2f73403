"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 1 needs the external Kaggle dataset (see README for
acquisition); it is skipped with instructions when the file is absent.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from urlsentry import neural, trees
from urlsentry.artifact import load_model, predict_urls, save_model, transform_features
from urlsentry.cli import main
from urlsentry.config import PipelineConfig
from urlsentry.features import featurize_many
from urlsentry.knn import KnnModel, predict_knn, predict_knn_batch
from urlsentry.neural import TrainConfig
from urlsentry.pipeline import Dataset, apply_scaler, bound_outliers, fit_scaler
from urlsentry.runner import filter_predictions, load_labeled_dataset, run_compare, train_artifact
from urlsentry.trees import (
    BoostParams,
    ForestParams,
    TreeParams,
    XgbParams,
    grow_tree,
    predict_forest,
    predict_tree,
    second_order_gain,
    train_gradient_boosting,
    train_random_forest,
    train_xgb,
)

from conftest import random_urls
from test_neural import finite_difference_grads, max_relative_error
from test_trees import dyadic_second_order_dataset, exhaustive_best_split

REFERENCE_ACCURACY = {
    "MLP": 0.977717,
    "K-NN": 0.991086,
    "XGB": 0.929417,
    "Gradient Boosting": 0.960714,
    "Random Forest": 0.955222,
}
TOLERANCE = 0.05

DATASET_ENV = "URLSENTRY_DATASET"
DATASET_CANDIDATES = (
    os.path.join(os.path.dirname(__file__), "..", "data", "malicious_phishing.csv"),
    "data/malicious_phishing.csv",
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL {description}")
        raise
    print(f"[criterion {num:>2}] PASS {description}")


def find_external_dataset() -> str | None:
    candidates = [os.environ.get(DATASET_ENV)] + list(DATASET_CANDIDATES)
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def test_criterion_1_reference_accuracy_band():
    path = find_external_dataset()
    if path is None:
        pytest.skip(
            "external dataset not present; place malicious_phishing.csv under "
            f"data/ or set ${DATASET_ENV} (see README for acquisition steps)"
        )
    with criterion(1, "reference accuracy band on external dataset"):
        config = PipelineConfig()  # 80/20 stratified, seed 42, latent, <=50k rows
        start = time.monotonic()
        dataset, _ = load_labeled_dataset(path)
        table, _ = run_compare(dataset, config)
        elapsed = time.monotonic() - start

        measured = dict(table.rows)
        lines = "\n".join(f"  {k:<20} {v:.6f} (target {REFERENCE_ACCURACY[k]:.6f})"
                          for k, v in measured.items())
        print(f"measured comparison table ({elapsed:.1f}s):\n{lines}")
        assert elapsed < 900, f"compare took {elapsed:.0f}s (budget 900s)"
        for name, acc in measured.items():
            assert acc >= 0.90, f"{name} accuracy {acc:.6f} < 0.90\n{lines}"
        assert measured["K-NN"] >= 0.95, f"K-NN {measured['K-NN']:.6f} < 0.95\n{lines}"
        for name, acc in measured.items():
            assert abs(acc - REFERENCE_ACCURACY[name]) <= TOLERANCE, (
                f"{name} accuracy {acc:.6f} outside +/-{TOLERANCE} of "
                f"{REFERENCE_ACCURACY[name]:.6f}\n{lines}"
            )


def test_criterion_1_smoke_on_bundled_sample(sample_csv):
    # Not the external-dataset criterion: a same-shape sanity run proving the
    # default pipeline separates the bundled sample well.
    with criterion(1, "(smoke) default compare on bundled sample, all >= 0.90"):
        config = PipelineConfig()
        dataset, _ = load_labeled_dataset(sample_csv)
        table, _ = run_compare(dataset, config)
        for name, acc in table.rows:
            assert acc >= 0.90, f"{name} accuracy {acc:.6f}"


def test_criterion_2_report_metrics_recomputable(sample_csv, tmp_path, capsys):
    import re

    with criterion(2, "report prints recall/FPR recomputable from cells to 1e-12"):
        config = PipelineConfig(
            classifier="knn", seed=42,
            autoencoder=TrainConfig(epochs=10, hidden_sizes=(8,)),
        )
        dataset, _ = load_labeled_dataset(sample_csv)
        artifact = train_artifact(dataset, config)
        model_path = tmp_path / "model.json"
        save_model(artifact, str(model_path))

        assert main(["evaluate", "--model", str(model_path), "--data", sample_csv]) == 0
        printed = capsys.readouterr().out
        cells = re.search(
            r"truth=benign\s+(\d+)\s+(\d+)\s+truth=malicious\s+(\d+)\s+(\d+)", printed
        )
        assert cells, "confusion grid missing from report"
        tn, fp, fn, tp = (int(g) for g in cells.groups())
        recall = float(re.search(r"recall\s+= (\S+)", printed).group(1))
        fpr = float(re.search(r"false_positive_rate = (\S+)", printed).group(1))
        assert abs(recall - (tp / (tp + fn) if tp + fn else 0.0)) < 1e-12
        assert abs(fpr - (fp / (fp + tn) if fp + tn else 0.0)) < 1e-12


def brute_force_all_pairs(features, labels, queries, k):
    """Full distance matrix + stable argsort; the independent reference."""
    diff = queries[:, None, :] - features[None, :, :]
    sq = (diff * diff).sum(axis=2)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]
    votes = labels[order].sum(axis=1) / k
    labels_out = (votes >= 0.5).astype(int)
    return labels_out, votes


def test_criterion_3_knn_oracle_equivalence():
    with criterion(3, "KNN matches all-pairs brute force on 50 datasets, k in {1,3,5}"):
        rng = np.random.default_rng(42)
        start = time.monotonic()
        for _ in range(50):
            n = int(rng.integers(6, 501))
            d = int(rng.integers(1, 19))
            features = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n)
            model = KnnModel(features, labels, default_k=1)
            n_queries = 20
            queries = np.vstack([
                rng.normal(size=(n_queries // 2, d)),
                features[rng.integers(0, n, size=n_queries // 2)],  # exact matches
            ])
            for k in (1, 3, 5):
                if k > n:
                    continue
                want_labels, want_conf = brute_force_all_pairs(features, labels, queries, k)
                for qi in range(queries.shape[0]):
                    got = predict_knn(model, queries[qi], k)
                    assert got == (int(want_labels[qi]), float(want_conf[qi]))
                assert predict_knn_batch(model, queries, k).tolist() == [
                    float(c) for c in want_conf
                ]
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"KNN oracle suite took {elapsed:.1f}s"


def test_criterion_4_split_oracle_equivalence():
    with criterion(4, "best_split matches exhaustive enumeration on 50 datasets"):
        rng = np.random.default_rng(7)
        start = time.monotonic()
        for trial in range(50):
            n = int(rng.integers(4, 101))
            d = int(rng.integers(1, 6))
            use_second_order = trial % 2 == 1
            if use_second_order:
                features, grads, hess = dyadic_second_order_dataset(rng, n, d)
                if d >= 2 and trial % 4 == 1:
                    features[:, 1] = features[:, 0]  # engineered cross-feature tie
                lam = float(rng.choice([0.0, 0.5, 1.0]))
                gamma = float(rng.choice([0.0, 0.25]))
                got = trees.best_split(features, grads, range(d), "second_order",
                                       hessians=hess, lam=lam, gamma=gamma)
                want = exhaustive_best_split(features, grads, "second_order",
                                             hessians=hess, lam=lam, gamma=gamma)
            else:
                features = rng.integers(0, 7, size=(n, d)).astype(float) / 4.0
                if d >= 2 and trial % 4 == 0:
                    features[:, 1] = features[:, 0]
                labels = rng.integers(0, 2, size=n)
                got = trees.best_split(features, labels, range(d), "gini")
                want = exhaustive_best_split(features, labels, "gini")
            if want is None:
                assert got is None
            else:
                assert (got.gain, got.feature_index, got.threshold) == want
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"split oracle suite took {elapsed:.1f}s"


def test_criterion_5_gradient_checks():
    with criterion(5, "analytic gradients match central differences on 20+ configs"):
        rng = np.random.default_rng(11)
        checked = 0
        for trial in range(22):
            d_in = int(rng.integers(2, 8))
            n = int(rng.integers(2, 7))
            if trial % 2 == 0:
                widths = [d_in] + [int(rng.integers(2, 10))
                                   for _ in range(int(rng.integers(1, 3)))] + [1]
                layers = []
                for i in range(len(widths) - 1):
                    act = "sigmoid" if i == len(widths) - 2 else str(
                        rng.choice(["relu", "sigmoid"])
                    )
                    layers.append(neural._init_layer(rng, widths[i], widths[i + 1], act))
                model = neural.MlpModel(layers)
                X = rng.normal(size=(n, d_in))
                T = rng.integers(0, 2, size=(n, 1)).astype(float)
                loss = "bce"
            else:
                latent = int(rng.integers(1, d_in + 1))
                model = neural.AutoencoderModel(
                    encoder_layers=[neural._init_layer(rng, d_in, latent, "sigmoid")],
                    decoder_layers=[neural._init_layer(rng, latent, d_in, "identity")],
                    latent_dim=latent,
                )
                X = rng.normal(size=(n, d_in))
                T = X
                loss = "mse"
            analytic = neural.gradients(model, X, T, loss)
            numeric = finite_difference_grads(model, X, T, loss, h=1e-5)
            err = max_relative_error(analytic, numeric)
            assert err < 1e-4, f"config {trial}: relative error {err:.2e}"
            checked += 1
        assert checked >= 20


def test_criterion_6_degenerate_forest_identity():
    with criterion(6, "RF(1 tree, no bootstrap, m=d) == CART on 1000 inputs"):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(120, 5))
        labels = rng.integers(0, 2, size=120)
        ds = Dataset(features, labels, [f"u{i}" for i in range(120)])
        forest = train_random_forest(
            ds, ForestParams(n_trees=1, bootstrap=False, m_features=5, max_depth=8, seed=3)
        )
        cart = grow_tree(features, labels, TreeParams(max_depth=8))
        for _ in range(1000):
            x = rng.normal(size=5)
            label, confidence = predict_forest(forest, x)
            cart_value = predict_tree(cart, x)
            assert confidence == cart_value
            assert label == (1 if cart_value >= 0.5 else 0)


def _sample_latents(sample_csv, seed=42):
    config = PipelineConfig()
    dataset, _ = load_labeled_dataset(sample_csv)
    bounds, clipped = bound_outliers(dataset.features)
    scaler = fit_scaler(clipped)
    X = apply_scaler(scaler, clipped)
    ae = neural.train_autoencoder(X, TrainConfig(epochs=30, hidden_sizes=(8,), seed=seed))
    return Dataset(neural.encode(ae, X), dataset.labels, dataset.urls)


def _log_loss(probs, y):
    p = np.clip(probs, 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def test_criterion_7_boosting_progress(sample_csv):
    with criterion(7, "both boosting variants beat the base-rate log-loss"):
        ds = _sample_latents(sample_csv)
        y = ds.labels.astype(float)
        for trainer, params in (
            (train_gradient_boosting, BoostParams()),
            (train_xgb, XgbParams()),
        ):
            model = trainer(ds, params)
            baseline = _log_loss(
                np.full(ds.n_rows, float(neural.sigmoid(np.asarray(model.init_score)))), y
            )
            final = _log_loss(trees.predict_boosted_batch(model, ds.features), y)
            assert final < baseline, (
                f"{model.variant}: final {final:.6f} vs baseline {baseline:.6f}"
            )


def test_criterion_8_xgb_gain_worked_value():
    with criterion(8, "second-order gain worked value 4/3 to 1e-12"):
        gain = second_order_gain(2.0, 2.0, -2.0, 2.0, lam=1.0, gamma=0.0)
        assert abs(gain - 4.0 / 3.0) < 1e-12


def test_criterion_9_compare_determinism(sample_csv, tmp_path):
    with criterion(9, "two identical compare runs emit byte-identical CSV and SVG"):
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main([
                "compare", "--data", sample_csv, "--out", str(out), "--seed", "42",
            ])
            assert code == 0
            outs.append(out)
        for filename in ("comparison.csv", "accuracy_chart.svg"):
            b1 = (outs[0] / filename).read_bytes()
            b2 = (outs[1] / filename).read_bytes()
            assert b1 == b2, f"{filename} differs between identical runs"


def test_criterion_10_round_trip_all_kinds(sample_csv, tmp_path):
    with criterion(10, "save/load round trip preserves predictions for all kinds"):
        dataset, _ = load_labeled_dataset(sample_csv)
        urls = random_urls(1000, seed=23)
        for kind in ("mlp", "knn", "xgb", "gb", "rf"):
            config = PipelineConfig(
                feature_mode="latent", classifier=kind, seed=5,
                mlp=TrainConfig(epochs=10),
                autoencoder=TrainConfig(epochs=10, hidden_sizes=(8,)),
                forest=ForestParams(n_trees=10, max_depth=6),
                gb=BoostParams(n_rounds=10),
                xgb=XgbParams(n_rounds=10),
            )
            artifact = train_artifact(dataset, config)
            path = tmp_path / f"{kind}.json"
            save_model(artifact, str(path))
            loaded = load_model(str(path))
            assert np.array_equal(predict_urls(artifact, urls), predict_urls(loaded, urls))
            # the autoencoder inside the artifact round-trips too
            feats = featurize_many(urls[:50], artifact.feature_spec)
            assert np.array_equal(
                transform_features(artifact, feats), transform_features(loaded, feats)
            )


def test_criterion_11_filter_properties():
    with criterion(11, "filter partition conservation + threshold monotonicity"):
        rng = np.random.default_rng(29)
        thresholds = np.linspace(0.0, 1.0, 10)
        for trial in range(1000):
            n = int(rng.integers(1, 40))
            items = [(f"u{trial}-{i}", float(c))
                     for i, c in enumerate(rng.uniform(size=n))]
            previous_flagged = None
            for t in sorted(float(t) for t in thresholds):
                safe, flagged = filter_predictions(items, t)
                assert len(safe) + len(flagged) == n
                assert sorted(safe + flagged, key=lambda p: p[0]) == sorted(
                    items, key=lambda p: p[0]
                )
                if previous_flagged is not None:
                    assert set(flagged).issubset(previous_flagged)
                previous_flagged = set(flagged)
