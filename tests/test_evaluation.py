import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlsentry.config import PipelineConfig
from urlsentry.errors import DimensionMismatch, EmptyInput
from urlsentry.evaluation import (
    CLASSIFIER_ORDER,
    ComparisonTable,
    ConfusionMatrix,
    compare_classifiers,
    comparison_csv,
    compute_metrics,
    confusion_matrix,
    render_bar_chart,
    render_comparison_report,
    render_confusion,
    render_metrics,
)
from urlsentry.neural import TrainConfig
from urlsentry.pipeline import Dataset
from urlsentry.trees import BoostParams, ForestParams, XgbParams

from conftest import separable_dataset


class TestConfusionMatrix:
    def test_four_pair_enumeration(self):
        cm = confusion_matrix([1, 0, 1, 1], [1, 0, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 0)

    def test_perfect_positive_predictions(self):
        cm = confusion_matrix([1] * 5, [1] * 5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            confusion_matrix([1, 0, 1], [1, 0, 1, 0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion_matrix([], [])

    def test_cell_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            pred = rng.integers(0, 2, size=n).tolist()
            truth = rng.integers(0, 2, size=n).tolist()
            assert confusion_matrix(pred, truth).total == n


def loop_confusion_counts(predicted, truth):
    """The per-pair loop confusion_matrix counted with before numpy, kept as the oracle."""
    tp = fp = tn = fn = 0
    for p, t in zip(predicted, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


# Each side of a pair goes in as a list, a bool array or an int array.
AS_INPUT = {
    "list": list,
    "bool": lambda values: np.asarray(values, dtype=bool),
    "int": lambda values: np.asarray(values, dtype=np.int64),
}


class TestConfusionMatrixOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_counts_equal_the_per_pair_loop(self, data):
        n = data.draw(st.integers(1, 40))
        values = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        predicted = AS_INPUT[data.draw(st.sampled_from(sorted(AS_INPUT)))](data.draw(values))
        truth = AS_INPUT[data.draw(st.sampled_from(sorted(AS_INPUT)))](data.draw(values))
        cm = confusion_matrix(predicted, truth)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == loop_confusion_counts(predicted, truth)
        assert all(type(count) is int for count in (cm.tp, cm.fp, cm.tn, cm.fn))


class TestComputeMetrics:
    def test_accuracy_three_quarters(self):
        report = compute_metrics(ConfusionMatrix(tp=2, fp=1, tn=1, fn=0))
        assert report.accuracy == 0.75

    def test_zero_false_positive_rate(self):
        report = compute_metrics(ConfusionMatrix(tp=1, fp=0, tn=100, fn=0))
        assert report.false_positive_rate == 0.0
        assert report.degenerate == ()

    def test_degenerate_recall_flagged(self):
        report = compute_metrics(ConfusionMatrix(tp=0, fp=2, tn=3, fn=0))
        assert report.recall == 0.0
        assert "recall" in report.degenerate

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_identities_recomputable(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + tn + fn == 0:
                continue
            cm = ConfusionMatrix(tp, fp, tn, fn)
            report = compute_metrics(cm)
            assert abs(report.accuracy - (tp + tn) / cm.total) < 1e-12
            if fp + tn > 0:
                assert abs(report.false_positive_rate - fp / (fp + tn)) < 1e-12
            if tp + fn > 0:
                assert abs(report.recall - tp / (tp + fn)) < 1e-12


def fast_config(seed=42):
    return PipelineConfig(
        seed=seed,
        knn_k=3,
        mlp=TrainConfig(epochs=200, batch_size=8),
        forest=ForestParams(n_trees=10, max_depth=4),
        gb=BoostParams(n_rounds=10),
        xgb=XgbParams(n_rounds=10),
    )


class TestCompareClassifiers:
    def test_row_order_matches_serials(self):
        train = separable_dataset(seed=1, n_per_class=15)
        test = separable_dataset(seed=2, n_per_class=5)
        table, matrices = compare_classifiers(train, test, fast_config())
        assert tuple(name for name, _ in table.rows) == CLASSIFIER_ORDER
        assert set(matrices) == set(CLASSIFIER_ORDER)
        assert all(0.0 <= acc <= 1.0 for _, acc in table.rows)

    def test_same_seed_identical_tables(self):
        train = separable_dataset(seed=3, n_per_class=15)
        test = separable_dataset(seed=4, n_per_class=5)
        t1, _ = compare_classifiers(train, test, fast_config())
        t2, _ = compare_classifiers(train, test, fast_config())
        assert t1.rows == t2.rows

    def test_separable_data_scores_high(self):
        train = separable_dataset(seed=5, n_per_class=15)
        test = separable_dataset(seed=6, n_per_class=5)
        table, _ = compare_classifiers(train, test, fast_config())
        for name, acc in table.rows:
            assert acc == 1.0, name

    def test_empty_partition_rejected(self):
        ds = separable_dataset(seed=7, n_per_class=5)
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), [])
        with pytest.raises(EmptyInput):
            compare_classifiers(ds, empty, fast_config())


def demo_table():
    return ComparisonTable(
        rows=[("MLP", 0.977717), ("K-NN", 0.991086), ("XGB", 0.929417),
              ("Gradient Boosting", 0.960714), ("Random Forest", 0.955222)],
        split_descriptor="80/20 stratified",
        seed=42,
    )


class TestRendering:
    def test_chart_has_one_bar_per_row(self, tmp_path):
        path = tmp_path / "chart.svg"
        path.write_text(render_bar_chart(demo_table()), encoding="utf-8", newline="\n")
        svg = path.read_text()
        assert svg.count('<rect class="bar"') == 5
        assert "0.991086" in svg

    def test_chart_empty_table_rejected(self, tmp_path):
        table = ComparisonTable(rows=[], split_descriptor="", seed=0)
        with pytest.raises(EmptyInput):
            render_bar_chart(table)

    def test_chart_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        p1.write_text(render_bar_chart(demo_table()), encoding="utf-8", newline="\n")
        p2.write_text(render_bar_chart(demo_table()), encoding="utf-8", newline="\n")
        assert p1.read_bytes() == p2.read_bytes()

    def test_confusion_grid_contents(self):
        text = render_confusion(ConfusionMatrix(tp=2, fp=1, tn=1, fn=0), "demo")
        assert "demo" in text
        lines = text.splitlines()
        assert "truth=benign" in lines[2] and " 1 " in lines[2]
        assert "truth=malicious" in lines[3]
        assert text == render_confusion(ConfusionMatrix(tp=2, fp=1, tn=1, fn=0), "demo")

    def test_confusion_single_cell(self):
        text = render_confusion(ConfusionMatrix(tp=0, fp=0, tn=7, fn=0), "only-tn")
        assert "7" in text

    def test_metrics_full_precision(self):
        report = compute_metrics(ConfusionMatrix(tp=2, fp=1, tn=4, fn=1))
        text = render_metrics(report)
        assert repr(report.recall) in text
        assert repr(report.false_positive_rate) in text

    def test_comparison_report_footer_names_best(self):
        matrices = {name: ConfusionMatrix(tp=2, fp=1, tn=1, fn=0)
                    for name, _ in demo_table().rows}
        text = render_comparison_report(demo_table(), matrices)
        assert "Best classifier by measured accuracy" in text
        assert "K-NN" in text

    def test_csv_header_and_rows(self):
        text = comparison_csv(demo_table())
        lines = text.strip().splitlines()
        assert lines[0] == "classifier,accuracy"
        assert len(lines) == 6
        assert lines[1].startswith("MLP,")
