import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsentry.errors import DimensionMismatch
from urlsentry.errors import (
    DegenerateSplit,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    UnknownLabel,
)
from urlsentry.pipeline import (
    Dataset,
    RawRecord,
    SplitConfig,
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
from urlsentry.pipeline import read_columns
from urlsentry.knn import KnnModel, predict_knn
from urlsentry.neural import TrainConfig, predict_proba_mlp, train_mlp
from urlsentry.trees import (
    BoostParams,
    ForestParams,
    TreeParams,
    grow_tree,
    predict_boosted,
    predict_forest,
    predict_tree,
    train_gradient_boosting,
    train_random_forest,
)


def write_csv(path, rows, header=("url", "type")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


class TestLoadCsv:
    def test_row_count(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [("http://a.com", "benign"),
                                              ("http://b.com", "phishing"),
                                              ("http://c.com", "malware")])
        records = load_csv(path)
        assert len(records) == 3
        assert records[0] == RawRecord("http://a.com", "benign")

    def test_missing_type_column(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", [("http://a.com",)], header=("url",))
        with pytest.raises(MissingColumn) as err:
            load_csv(path)
        assert err.value.name == "type"

    def test_quoted_comma_preserved(self, tmp_path):
        url = "http://a.com/q?list=1,2,3"
        path = write_csv(tmp_path / "c.csv", [(url, "benign")])
        records = load_csv(path)
        assert len(records) == 1
        assert records[0].url == url
        # independent reader oracle on the same file
        with open(path, newline="", encoding="utf-8") as fh:
            oracle = list(csv.DictReader(fh))
        assert oracle[0]["url"] == records[0].url

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("url,type\nhttp://a.com,benign\nonly-one-field\n")
        with pytest.raises(MalformedRow) as err:
            load_csv(str(path))
        assert err.value.line_no == 3

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/never.csv")

    def test_load_is_deterministic(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", [("http://a.com", "benign")] )
        assert load_csv(path) == load_csv(path)


def test_clean_map_load_chain_is_pure(tmp_path):
    path = write_csv(tmp_path / "chain.csv", [
        ("http://a.com", "benign"),
        ("http://a.com", "benign"),   # duplicate
        ("http://b.com", "malware"),
        ("", "benign"),               # empty url
    ])

    def run():
        kept, _ = clean(load_csv(path))
        return map_labels(kept)

    urls1, labels1 = run()
    urls2, labels2 = run()
    assert urls1 == urls2 == ["http://a.com", "http://b.com"]
    assert labels1.tolist() == labels2.tolist() == [0, 1]


class TestMapLabels:
    def test_default_mapping(self):
        records = [RawRecord("u1", "benign"), RawRecord("u2", "phishing"),
                   RawRecord("u3", "defacement"), RawRecord("u4", "malware")]
        urls, labels = map_labels(records)
        assert urls == ["u1", "u2", "u3", "u4"]
        assert labels.tolist() == [0, 1, 1, 1]

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel) as err:
            map_labels([RawRecord("u", "weird_label")])
        assert "weird_label" in str(err.value)

    def test_case_insensitive_lookup(self):
        _, labels = map_labels([RawRecord("u", "Benign")])
        assert labels.tolist() == [0]


class TestClean:
    def test_duplicate_dropped(self):
        records = [RawRecord("u", "benign"), RawRecord("u", "benign")]
        kept, report = clean(records)
        assert len(kept) == 1
        assert report.dropped_duplicates == 1

    def test_empty_url_dropped(self):
        kept, report = clean([RawRecord("", "benign")])
        assert kept == []
        assert report.dropped_empty == 1

    def test_same_url_different_labels_kept(self):
        records = [RawRecord("u", "benign"), RawRecord("u", "phishing")]
        kept, _ = clean(records)
        assert len(kept) == 2


class TestScaler:
    def test_column_endpoints_and_midpoint(self):
        col = np.array([[2.0], [4.0], [6.0]])
        scaler = fit_scaler(col)
        assert apply_scaler(scaler, col).ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        col = np.array([[7.0], [7.0]])
        scaler = fit_scaler(col)
        assert apply_scaler(scaler, col).ravel().tolist() == [0.0, 0.0]

    def test_out_of_range_unclamped(self):
        scaler = fit_scaler(np.array([[2.0], [6.0]]))
        assert apply_scaler(scaler, np.array([[8.0]]))[0, 0] == pytest.approx(1.5)

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            fit_scaler(np.empty((0, 3)))

    def test_leakage_guard(self):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(50, 4)) * 10
        scaler = fit_scaler(train)
        scaled = apply_scaler(scaler, train)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestOutlierBounds:
    def test_nearest_rank_1_to_100(self):
        col = np.arange(1, 101, dtype=float).reshape(-1, 1)
        bounds, clipped = bound_outliers(col)
        # independent sort-and-index oracle: nearest-rank = ceil(p/100*n)
        srt = sorted(col.ravel())
        import math
        assert bounds.lower[0] == srt[max(math.ceil(0.01 * 100), 1) - 1] == 1.0
        assert bounds.upper[0] == srt[max(math.ceil(0.99 * 100), 1) - 1] == 99.0
        assert clipped.min() == 1.0 and clipped.max() == 99.0

    def test_constant_column_unchanged(self):
        col = np.full((10, 1), 3.0)
        _, clipped = bound_outliers(col)
        assert np.array_equal(clipped, col)

    def test_value_above_upper_replaced(self):
        col = np.arange(1, 101, dtype=float).reshape(-1, 1)
        bounds, _ = bound_outliers(col)
        assert apply_bounds(bounds, np.array([[1000.0]]))[0, 0] == bounds.upper[0]

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            bound_outliers(np.empty((0, 2)))

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-3, 3).map(float),
    ))
    def test_clipped_columns_span_exactly_the_bounds(self, X):
        # the artifact scales with the bounds instead of a fitted scaler
        bounds, clipped = bound_outliers(X)
        scaler = fit_scaler(clipped)
        assert np.array_equal(scaler.col_min, bounds.lower)
        assert np.array_equal(scaler.col_max, bounds.upper)


def make_dataset(n_benign, n_malicious, seed=0):
    rng = np.random.default_rng(seed)
    n = n_benign + n_malicious
    return Dataset(
        features=rng.normal(size=(n, 3)),
        labels=np.array([0] * n_benign + [1] * n_malicious),
        urls=[f"u{i}" for i in range(n)],
    )


class TestStratifiedSplit:
    def test_counting_oracle(self):
        ds = make_dataset(6, 4)
        train, test = stratified_split(ds, SplitConfig(test_fraction=0.5, seed=1))
        assert int((test.labels == 0).sum()) == 3
        assert int((test.labels == 1).sum()) == 2
        assert train.n_rows + test.n_rows == 10

    def test_same_seed_identical(self):
        ds = make_dataset(20, 10)
        cfg = SplitConfig(test_fraction=0.3, seed=7)
        t1, s1 = stratified_split(ds, cfg)
        t2, s2 = stratified_split(ds, cfg)
        assert t1.urls == t2.urls and s1.urls == s2.urls

    def test_degenerate_split(self):
        ds = make_dataset(1, 1)
        with pytest.raises(DegenerateSplit):
            stratified_split(ds, SplitConfig(test_fraction=0.99, seed=0))

    def test_single_class_stratified_rejected(self):
        ds = make_dataset(5, 0)
        with pytest.raises(DegenerateSplit):
            stratified_split(ds, SplitConfig(test_fraction=0.5, seed=0))

    def test_conservation_and_stratification(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            nb = int(rng.integers(5, 60))
            nm = int(rng.integers(5, 60))
            frac = float(rng.uniform(0.15, 0.5))
            ds = make_dataset(nb, nm, seed=trial)
            train, test = stratified_split(ds, SplitConfig(test_fraction=frac, seed=trial))
            # conservation, disjoint by URL provenance
            assert sorted(train.urls + test.urls) == sorted(ds.urls)
            assert not set(train.urls) & set(test.urls)
            # stratification within 1/|test|
            full_ratio = nm / (nb + nm)
            test_ratio = float((test.labels == 1).mean())
            assert abs(test_ratio - full_ratio) <= 1.0 / test.n_rows + 1e-12


class TestStratifiedSubsample:
    def test_no_op_when_small(self):
        ds = make_dataset(5, 5)
        assert stratified_subsample(ds, 100, seed=0) is ds

    def test_caps_and_keeps_ratio(self):
        ds = make_dataset(80, 20)
        sub = stratified_subsample(ds, 50, seed=0)
        assert sub.n_rows == 50
        assert int((sub.labels == 1).sum()) == 10

    def test_never_exceeds_cap_on_half_fractions(self):
        # both classes land on .5 fractions; naive rounding would give 101
        ds = make_dataset(101, 99)
        sub = stratified_subsample(ds, 100, seed=0)
        assert sub.n_rows == 100

    def test_exact_cap_over_random_shapes(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            nb = int(rng.integers(10, 400))
            nm = int(rng.integers(10, 400))
            cap = int(rng.integers(8, nb + nm))
            sub = stratified_subsample(make_dataset(nb, nm, seed=trial), cap, seed=trial)
            assert sub.n_rows == cap
            assert len(np.unique(sub.labels)) == 2


def test_a_row_the_csv_module_cannot_read_is_a_malformed_row(tmp_path):
    path = write_csv(tmp_path / "long.csv", [("http://a.com/" + "a" * 200_000, "benign")])
    with pytest.raises(MalformedRow, match="line 2: field larger than field limit"):
        list(read_columns(path, ("url", "type")))


def reference_bounds(X):
    """The per-column loop bound_outliers replaced: sort a column, index its nearest ranks."""
    lower = np.empty(X.shape[1], dtype=np.float64)
    upper = np.empty(X.shape[1], dtype=np.float64)
    for j in range(X.shape[1]):
        col = np.sort(X[:, j])
        for out, pct in ((lower, 1.0), (upper, 99.0)):
            out[j] = float(col[max(math.ceil(pct / 100.0 * len(col)), 1) - 1])
    return lower, upper


SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=120)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=st.floats() | st.sampled_from([0.0, -0.0, np.nan])),
    hnp.arrays(np.float32, SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-(2**62), 2**62) | st.integers(-3, 3)),
))
def test_bounds_match_the_per_column_loop_bit_for_bit(X):
    bounds, clipped = bound_outliers(X)
    lower, upper = reference_bounds(X)
    assert bounds.lower.dtype == bounds.upper.dtype == np.float64
    assert bounds.lower.tobytes() == lower.tobytes()
    assert bounds.upper.tobytes() == upper.tobytes()
    assert clipped.tobytes() == np.clip(X, lower, upper).tobytes()


def reference_quotas(counts, max_rows):
    """stratified_subsample's largest-remainder quotas by its former round-by-round loops."""
    n = sum(counts)
    classes = list(range(len(counts)))
    quotas = {c: max(counts[c] * max_rows // n, 1) for c in classes}
    remainders = sorted(classes, key=lambda c: (counts[c] * max_rows) % n, reverse=True)
    deficit = max_rows - sum(quotas.values())
    while deficit > 0:
        grew = False
        for c in remainders:
            if deficit == 0:
                break
            if quotas[c] < counts[c]:
                quotas[c] += 1
                deficit -= 1
                grew = True
        if not grew:
            break
    while deficit < 0:
        c = max(classes, key=lambda c: quotas[c])
        if quotas[c] <= 1:
            break
        quotas[c] -= 1
        deficit += 1
    return [quotas[c] for c in classes]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=5).flatmap(
    lambda counts: st.tuples(st.just(counts), st.integers(1, max(1, sum(counts) - 1)))
), st.integers(0, 2**32 - 1))
def test_subsample_quotas_match_the_round_by_round_loops(counts_and_cap, seed):
    counts, cap = counts_and_cap
    labels = np.repeat(np.arange(len(counts)), counts)
    rng = np.random.default_rng(seed)
    labels = labels[rng.permutation(len(labels))]
    ds = Dataset(np.arange(len(labels), dtype=np.float64)[:, None], labels,
                 [f"u{i}" for i in range(len(labels))])
    sub = stratified_subsample(ds, cap, seed)
    if sum(counts) <= cap:
        assert sub is ds
    else:
        kept = [int((sub.labels == c).sum()) for c in range(len(counts))]
        assert kept == reference_quotas(counts, cap)


@pytest.fixture(params=["tree", "forest", "boosted", "mlp", "knn"])
def one_row_view(request, toy_dataset):
    """A one-row view of each model family, fitted on the 2-feature toy set."""
    X, y = toy_dataset.features, toy_dataset.labels
    if request.param == "tree":
        tree = grow_tree(X, y, TreeParams(max_depth=2))
        return lambda x: predict_tree(tree, x)
    if request.param == "forest":
        forest = train_random_forest(toy_dataset, ForestParams(n_trees=3, seed=0))
        return lambda x: predict_forest(forest, x)
    if request.param == "boosted":
        boosted = train_gradient_boosting(toy_dataset, BoostParams(n_rounds=3))
        return lambda x: predict_boosted(boosted, x)
    if request.param == "mlp":
        mlp = train_mlp(toy_dataset, TrainConfig(epochs=2))
        return lambda x: predict_proba_mlp(mlp, x)
    knn = KnnModel(X, y, default_k=3)
    return lambda x: predict_knn(knn, x)


@pytest.mark.parametrize("rows", [1, 3])
def test_one_row_views_reject_a_matrix(one_row_view, toy_dataset, rows):
    one_row_view(toy_dataset.features[0])  # one vector is answered
    with pytest.raises(DimensionMismatch, match="one vector"):
        one_row_view(toy_dataset.features[:rows])


def reference_split_mask(labels, test_fraction, seed):
    """stratified_split's test rows by its former per-class loop."""
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in sorted(int(c) for c in np.unique(labels)):
        cls_idx = np.flatnonzero(labels == cls)
        n_test = int(math.floor(len(cls_idx) * test_fraction + 0.5))
        perm = rng.permutation(len(cls_idx))
        test_idx.extend(int(i) for i in cls_idx[perm[:n_test]])
    test_mask = np.zeros(len(labels), dtype=bool)
    test_mask[test_idx] = True
    return test_mask


def reference_subsample_mask(labels, max_rows, seed):
    """stratified_subsample's kept rows by its former per-class loop."""
    classes = sorted(int(c) for c in np.unique(labels))
    counts = [int((labels == c).sum()) for c in classes]
    quotas = dict(zip(classes, reference_quotas(counts, max_rows)))
    rng = np.random.default_rng(seed)
    keep_mask = np.zeros(len(labels), dtype=bool)
    for cls in classes:
        cls_idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(len(cls_idx))
        keep_mask[cls_idx[perm[: quotas[cls]]]] = True
    return keep_mask


@st.composite
def shuffled_labels(draw):
    """1-5 classes with arbitrary distinct label values, 1-40 rows each, shuffled."""
    values = draw(st.lists(st.integers(-5, 9), min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 40), min_size=len(values), max_size=len(values)))
    labels = np.repeat(np.array(values), counts)
    return labels[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(labels))]


def indexed_dataset(labels):
    n = len(labels)
    return Dataset(np.zeros((n, 1)), labels, [str(i) for i in range(n)])


def rows_of(ds):
    return [int(url) for url in ds.urls]


@settings(max_examples=200, deadline=None)
@given(shuffled_labels(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_split_draw_matches_the_per_class_loop(labels, test_fraction, seed):
    ds = indexed_dataset(labels)
    mask = reference_split_mask(labels, test_fraction, seed)
    if len(np.unique(labels)) < 2 or mask.all() or not mask.any():
        with pytest.raises(DegenerateSplit):
            stratified_split(ds, SplitConfig(test_fraction=test_fraction, seed=seed))
        return
    train, test = stratified_split(ds, SplitConfig(test_fraction=test_fraction, seed=seed))
    assert rows_of(test) == np.flatnonzero(mask).tolist()
    assert rows_of(train) == np.flatnonzero(~mask).tolist()


@settings(max_examples=200, deadline=None)
@given(shuffled_labels().flatmap(
    lambda labels: st.tuples(st.just(labels), st.integers(1, max(1, len(labels) - 1)))
), st.integers(0, 2**32 - 1))
def test_subsample_draw_matches_the_per_class_loop(labels_and_cap, seed):
    labels, cap = labels_and_cap
    sub = stratified_subsample(indexed_dataset(labels), cap, seed)
    if len(labels) <= cap:
        assert sub.n_rows == len(labels)
        return
    assert rows_of(sub) == np.flatnonzero(reference_subsample_mask(labels, cap, seed)).tolist()
