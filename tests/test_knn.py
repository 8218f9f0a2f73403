import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsentry import knn
from urlsentry.errors import DimensionMismatch, KOutOfRange, UnknownLabel
from urlsentry.knn import KnnModel, k_nearest, predict_knn, predict_knn_batch


def brute_force_predict(features, labels, x, k):
    """All-pairs reference: sort by (squared distance, index), majority vote."""
    n, d = features.shape
    sq = [sum((features[i, j] - x[j]) ** 2 for j in range(d)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (sq[i], i))
    votes = [int(labels[i]) for i in order[:k]]
    confidence = sum(votes) / k
    return (1 if confidence >= 0.5 else 0), confidence


def _nearest(model, q, k):
    """Squared distances from q to every stored row, and the k nearest indices."""
    diff = model.stored_features - q
    sq = (diff * diff).sum(axis=1)
    return sq, _k_smallest_indices(sq, k)


def _k_smallest_indices(sq_dist, k):
    """Indices of the k smallest values, ties resolved by lower index.

    Partitions around the k-th value. A NaN sorts last, so when fewer than
    k values are not NaN the k-th is NaN and no index is returned.
    """
    kth = np.partition(sq_dist, k - 1)[k - 1]
    cand = np.flatnonzero(sq_dist <= kth)
    order = np.argsort(sq_dist[cand], kind="stable")
    return cand[order[:k]]


def per_query_reference(model, X, k):
    """The per-query loop predict_knn_batch replaced: each query row against every stored row."""
    out = np.empty(X.shape[0], dtype=np.float64)
    for i, q in enumerate(X):
        _, idx = _nearest(model, q, k)
        out[i] = float(model.stored_labels[idx].sum()) / k
    return out


def assert_k_nearest_matches_per_query_reference(model, queries, k):
    """k_nearest gives _nearest's indices and distance bits, the empty result included."""
    for q in queries:
        sq, idx = _nearest(model, q, k)
        got = k_nearest(model, q, k)
        assert [i for i, _ in got] == idx.tolist()
        assert np.array([d for _, d in got]).tobytes() == np.sqrt(sq[idx]).tobytes()


@st.composite
def duplicated_grid_cases(draw):
    """A model whose stored rows repeat a few grid rows, some with NaN entries,
    queries that repeat too, and a k."""
    d = draw(st.integers(1, 3))
    grid = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    pool = draw(st.lists(hnp.arrays(np.float64, d, elements=grid | st.just(np.nan)),
                         min_size=1, max_size=10))
    n = draw(st.integers(1, 40))
    picks = draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    queries = draw(st.lists(st.sampled_from(pool) | hnp.arrays(np.float64, d, elements=grid),
                            min_size=1, max_size=12))
    k = draw(st.integers(1, n))
    return KnnModel(np.array(pool)[picks], labels, default_k=1), np.array(queries), k


@st.composite
def heavy_group_cases(draw):
    """A few distinct stored rows holding many rows each, queries between them, and a k.

    Grid rows on both sides of a query lie at equal distances, so the k-th
    distance often falls in several groups at once and only some of their rows vote.
    """
    d = draw(st.integers(1, 2))
    grid = st.sampled_from([-1.0, 0.0, 1.0])
    pool = draw(st.lists(hnp.arrays(np.float64, d, elements=grid), min_size=2, max_size=4))
    n = draw(st.integers(8, 60))
    picks = draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    queries = draw(st.lists(hnp.arrays(np.float64, d, elements=grid | st.just(0.5)),
                            min_size=1, max_size=70))
    k = draw(st.integers(1, n))
    return KnnModel(np.array(pool)[picks], labels, default_k=1), np.array(queries), k


def split_tie_case():
    """Rows 0, 3, 5 at +1 and rows 1, 2, 4 at -1: from 0 with k = 4, rows 0-3 vote."""
    features = np.array([[1.0], [-1.0], [-1.0], [1.0], [-1.0], [1.0], [5.0]])
    model = KnnModel(features, np.array([1, 0, 1, 1, 0, 0, 1]), default_k=4)
    return model, np.array([[0.0], [0.0], [4.0], [1.0], [np.nan], [-3.0]]), 4


def nan_cases():
    """Stored rows with NaN entries, and queries, for the labels [1, 1, 0, 1, 1].

    In the second, the 2nd nearest distinct row is at a NaN distance, yet rows
    2 and 3 are nearer: for k = 2 they vote, 0.5.
    """
    yield np.array([[0.0], [np.nan], [1.0], [0.0], [np.nan]]), np.array([[0.0], [np.nan], [0.5]])
    yield (np.array([[np.nan, 0.0], [0.0, np.nan], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
           np.array([[0.0, 0.0]]))


def nan_rule_reference(features, labels, q, k):
    """The k nearest rows at a non-NaN distance vote, ties by lower index; with
    fewer than k such rows, none do."""
    sq = ((features - q) ** 2).sum(axis=1)
    order = sorted((d, i) for i, d in enumerate(sq.tolist()) if not np.isnan(d))
    return sum(int(labels[i]) for _, i in order[:k]) / k if len(order) >= k else 0.0


def nan_rule_cases():
    """(stored rows, labels, queries) where some query is at a NaN distance from some row."""
    for features, queries in nan_cases():
        yield features, np.array([1, 1, 0, 1, 1]), queries
    yield np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 1, 0, 1]), np.array([[np.nan]])
    yield (np.array([[0.0], [1.0], [np.nan], [3.0]]), np.array([1, 1, 0, 1]),
           np.array([[0.0], [2.5], [np.nan]]))


# Grid values reach twice the scale: SCREEN_SCALES[-2] puts the largest at the
# screen cap, SCREEN_SCALES[-1] past it.
SCREEN_SCALES = [2.0**-1074, 2.0**-1050, 1e-300, 1e-150, 1.0, 1e150,
                 knn._SCREEN_CAP / 2, knn._SCREEN_CAP]


@st.composite
def screen_cases(draw):
    """Stored rows and queries of width 1-40 on one scale, from the smallest
    subnormal to past the screen cap, and a k in {1, groups - 1, groups, rows}.

    Grid values, -0.0 among them, make rows repeat and distances tie at the k-th;
    free values make distinct rows. A row's coordinates rolled lie at a nearly
    equal distance, which the screen may round to the other side of the k-th.
    One case in four puts a NaN or an infinity in the stored rows or the queries.
    """
    d = draw(st.integers(1, 40))
    scale = draw(st.sampled_from(SCREEN_SCALES))
    value = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1 / 3, 0.7, 1.0, 2.0]) | st.floats(-2, 2)
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), d), elements=value))
    pool = np.vstack([base, np.roll(base, draw(st.integers(1, 3)), axis=1)]) * scale
    n = draw(st.integers(1, 30))
    stored = pool[draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    fresh = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d), elements=value)) * scale
    queries = np.vstack([pool, fresh])
    if draw(st.integers(0, 3)) == 0:
        rows = draw(st.sampled_from([stored, queries]))
        rows[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    model = KnnModel(stored, draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))),
                     default_k=1)
    groups = len(knn._StoredGroups.of(model).features)
    k = draw(st.sampled_from(sorted({1, groups - 1, groups, n} - {0})))
    return model, queries, k


def small_model():
    return KnnModel(
        stored_features=np.array([[0.0, 0.0], [3.0, 4.0]]),
        stored_labels=np.array([0, 1]),
        default_k=1,
    )


class TestKNearest:
    def test_exact_match_first_with_zero_distance(self):
        model = small_model()
        result = k_nearest(model, np.array([3.0, 4.0]), k=1)
        assert result == [(1, 0.0)]

    def test_three_four_five_triangle(self):
        model = small_model()
        result = k_nearest(model, np.array([0.0, 0.0]), k=2)
        assert [r[0] for r in result] == [0, 1]
        assert [r[1] for r in result] == [0.0, 5.0]

    def test_distance_tie_lower_index_first(self):
        model = KnnModel(
            stored_features=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
            stored_labels=np.array([0, 1, 1]),
            default_k=3,
        )
        result = k_nearest(model, np.array([0.0, 0.0]), k=3)
        assert [r[0] for r in result] == [0, 1, 2]  # all distance 1, index order

    @settings(max_examples=300, deadline=None)
    @given(duplicated_grid_cases())
    def test_matches_per_query_reference_on_duplicates_and_nan_rows(self, case):
        assert_k_nearest_matches_per_query_reference(*case)

    @settings(max_examples=300, deadline=None)
    @given(heavy_group_cases())
    def test_matches_per_query_reference_on_groups_split_at_the_kth_distance(self, case):
        assert_k_nearest_matches_per_query_reference(*case)

    @settings(max_examples=300, deadline=None)
    @given(screen_cases())
    def test_screened_search_matches_per_query_reference(self, case):
        model, queries, k = case
        with np.errstate(over="ignore", invalid="ignore"):
            qi, row, sq = knn._StoredGroups.of(model).nearest(queries, k)
            for i, q in enumerate(queries):
                want_sq, want = _nearest(model, q, k)
                assert row[qi == i].tolist() == want.tolist()
                assert sq[qi == i].tobytes() == want_sq[want].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(screen_cases())
    def test_candidates_hold_every_group_within_the_kth_distance(self, case):
        model, queries, k = case
        stored = knn._StoredGroups.of(model)
        with np.errstate(over="ignore", invalid="ignore"):
            qi, gi = stored.candidates(queries, k)
            for i, q in enumerate(queries):
                diff = stored.features - q
                sq = (diff * diff).sum(axis=1)
                kth = np.sort(sq)[min(k, len(sq)) - 1]  # NaN sorts last
                within = ~np.isnan(sq) if np.isnan(kth) else sq <= kth
                assert set(np.flatnonzero(within)) <= set(gi[qi == i])

    @pytest.mark.parametrize("features, query", [
        # Both rows are at one distance, but the first's screen rounds larger.
        ([[1 / 3, 1 / 3, 2.0], [1 / 3, 2.0, 1 / 3]], [1.0, 2.0, 2.0]),
        # Both distances underflow to 0, but the first's squared norm rounds up
        # to the smallest subnormal.
        ([[3 * 2.0**-539], [0.0]], [2.0**-539]),
    ], ids=["rounding", "underflow"])
    def test_slack_keeps_a_tie_the_screen_rounds_apart(self, features, query):
        # Without the slack, only the second row would be a candidate.
        model = KnnModel(np.array(features), np.array([0, 1]), default_k=1)
        assert [i for i, _ in k_nearest(model, np.array(query), 1)] == [0]

    def test_screen_keeps_few_candidates(self):
        rng = np.random.default_rng(8)
        model = KnnModel(rng.normal(size=(500, 18)), rng.integers(0, 2, size=500), default_k=5)
        queries = rng.normal(size=(64, 18))
        qi, _ = knn._StoredGroups.of(model).candidates(queries, 5)
        assert len(qi) < 10 * len(queries)
        assert predict_knn_batch(model, queries).tobytes() == \
            per_query_reference(model, queries, 5).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**401], ids=["nan", "inf", "above_cap"])
    def test_unscreenable_query_leaves_its_block_screened(self, bad):
        rng = np.random.default_rng(8)
        model = KnnModel(rng.normal(size=(500, 18)), rng.integers(0, 2, size=500), default_k=5)
        stored = knn._StoredGroups.of(model)
        queries = rng.normal(size=(64, 18))
        alone_qi, alone_gi = stored.candidates(queries, 5)
        queries[20, 3] = bad
        qi, gi = stored.candidates(queries, 5)
        for i in range(64):
            want = np.arange(500) if i == 20 else alone_gi[alone_qi == i]
            assert np.sort(gi[qi == i]).tolist() == np.sort(want).tolist()
        assert len(qi) < 500 + 10 * len(queries)
        with np.errstate(over="ignore", invalid="ignore"):
            assert predict_knn_batch(model, queries).tobytes() == \
                per_query_reference(model, queries, 5).tobytes()

    def test_k_out_of_range(self):
        model = small_model()
        with pytest.raises(KOutOfRange):
            k_nearest(model, np.array([0.0, 0.0]), k=3)
        with pytest.raises(KOutOfRange):
            k_nearest(model, np.array([0.0, 0.0]), k=0)
        with pytest.raises(KOutOfRange):
            predict_knn_batch(model, np.zeros((4, 2)), k=3)
        with pytest.raises(KOutOfRange):
            predict_knn_batch(model, np.zeros((4, 2)), k=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            k_nearest(small_model(), np.array([1.0, 2.0, 3.0]), k=1)
        with pytest.raises(DimensionMismatch):
            predict_knn_batch(small_model(), np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            predict_knn_batch(small_model(), np.zeros((4, 1, 2)))
        with pytest.raises(DimensionMismatch):
            predict_knn(small_model(), np.zeros((1, 2)))


class TestPredictKnn:
    def test_two_to_one_vote(self):
        model = KnnModel(
            stored_features=np.array([[0.0], [0.1], [0.2], [9.0]]),
            stored_labels=np.array([1, 1, 0, 0]),
            default_k=3,
        )
        label, confidence = predict_knn(model, np.array([0.0]), k=3)
        assert (label, confidence) == (1, pytest.approx(2 / 3))

    def test_k1_benign_self_match(self):
        model = small_model()
        assert predict_knn(model, np.array([0.0, 0.0]), k=1) == (0, 0.0)

    def test_vote_tie_is_malicious(self):
        model = small_model()
        label, confidence = predict_knn(model, np.array([1.5, 2.0]), k=2)
        assert (label, confidence) == (1, 0.5)

    def test_vote_confidence_coupling(self):
        rng = np.random.default_rng(0)
        model = KnnModel(
            stored_features=rng.normal(size=(40, 3)),
            stored_labels=rng.integers(0, 2, size=40),
            default_k=5,
        )
        for _ in range(50):
            x = rng.normal(size=3)
            for k in (1, 2, 3, 5):
                label, confidence = predict_knn(model, x, k)
                assert (label == 1) == (confidence >= 0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, 8))
            features = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n)
            model = KnnModel(features, labels, default_k=1)
            for k in (1, 3, 5):
                if k > n:
                    continue
                for _ in range(10):
                    x = rng.normal(size=d)
                    assert predict_knn(model, x, k) == brute_force_predict(
                        features, labels, x, k
                    )

    def test_batch_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        # a small integer grid: many stored rows share the k-th distance
        features = rng.integers(0, 3, size=(80, 3)).astype(np.float64)
        labels = rng.integers(0, 2, size=80)
        model = KnnModel(features, labels, default_k=5)
        queries = np.vstack([
            rng.integers(0, 3, size=(30, 3)).astype(np.float64),
            features[:10],  # exact matches
            rng.normal(size=(10, 3)),
        ])
        sq = ((queries[:, None, :] - features[None, :, :]) ** 2).sum(axis=2)
        kth = np.sort(sq, axis=1)[:, 4]
        assert ((sq <= kth[:, None]).sum(axis=1) > 5).sum() >= 20, "too few k-th ties"
        for k in (1, 3, 5, 80):
            want = [brute_force_predict(features, labels, q, k)[1] for q in queries]
            assert predict_knn_batch(model, queries, k).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(duplicated_grid_cases())
    def test_batch_matches_per_query_reference(self, case):
        model, queries, k = case
        got = predict_knn_batch(model, queries, k)
        assert got.tobytes() == per_query_reference(model, queries, k).tobytes()

    def test_nan_distances_match_per_query_reference(self):
        for features, queries in nan_cases():
            model = KnnModel(features, np.array([1, 1, 0, 1, 1]), default_k=1)
            for k in range(1, 6):
                got = predict_knn_batch(model, queries, k)
                assert got.tobytes() == per_query_reference(model, queries, k).tobytes()

    def test_one_nan_distance_rule_at_every_k(self):
        for features, labels, queries in nan_rule_cases():
            model = KnnModel(features, labels, default_k=1)
            for k in range(1, len(labels) + 1):
                want = [nan_rule_reference(features, labels, q, k) for q in queries]
                assert predict_knn_batch(model, queries, k).tolist() == want
                assert per_query_reference(model, queries, k).tolist() == want
                assert [predict_knn(model, q, k)[1] for q in queries] == want

    def test_no_k_nearest_when_fewer_than_k_rows_at_a_non_nan_distance(self):
        model = KnnModel(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 1, 0, 1]),
                         default_k=1)
        assert k_nearest(model, np.array([np.nan]), k=4) == []
        assert [i for i, _ in k_nearest(model, np.array([1.5]), k=4)] == [1, 2, 0, 3]
        model = KnnModel(np.array([[0.0], [np.nan], [2.0]]), np.array([1, 0, 1]), default_k=1)
        assert k_nearest(model, np.array([0.0]), k=3) == []
        assert k_nearest(model, np.array([0.0]), k=2) == [(0, 0.0), (2, 2.0)]

    @settings(max_examples=300, deadline=None)
    @given(heavy_group_cases())
    def test_partial_ties_across_groups_match_per_query_reference(self, case):
        model, queries, k = case
        got = predict_knn_batch(model, queries, k)
        assert got.tobytes() == per_query_reference(model, queries, k).tobytes()

    def test_split_tie_takes_lowest_indices_across_groups(self):
        model, queries, k = split_tie_case()
        got = predict_knn_batch(model, queries, k)
        assert got[0] == 3 / 4  # rows 0, 1, 2, 3 with labels 1, 0, 1, 1
        assert got.tobytes() == per_query_reference(model, queries, k).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7, 10**9])
    def test_query_block_size_does_not_change_votes(self, monkeypatch, block):
        monkeypatch.setattr(knn, "_QUERY_BLOCK", block)
        rng = np.random.default_rng(5)
        features = rng.integers(-1, 2, size=(90, 2)).astype(np.float64)
        model = KnnModel(features, rng.integers(0, 2, size=90), default_k=5)
        queries = np.vstack([rng.integers(-1, 2, size=(40, 2)) * 0.5, features[:9],
                             [[np.nan, 0.0]]])
        # Rows of mixed magnitudes give the queries of each block different
        # screen slacks; the NaN query gets every group, and the rest of its
        # block is screened.
        spread = 10.0 ** rng.integers(-3, 7, size=(60, 1))
        mixed = KnnModel(rng.normal(size=(60, 3)) * spread, rng.integers(0, 2, size=60),
                         default_k=5)
        mixed_queries = np.vstack([mixed.stored_features[:5],
                                   rng.normal(size=(30, 3)) * spread[:30]])
        mixed_queries[12, 1] = np.nan
        cases = [split_tie_case()] + [(model, queries, k) for k in (1, 5, 17, 89)]
        cases += [(mixed, mixed_queries, k) for k in (1, 5, 59)]
        for model, queries, k in cases:
            got = predict_knn_batch(model, queries, k)
            assert got.tobytes() == per_query_reference(model, queries, k).tobytes()
            one_by_one = [predict_knn(model, q, k)[1] for q in queries]
            assert got.tobytes() == np.array(one_by_one).tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_query_matrix_gives_empty_result(self, k):
        got = predict_knn_batch(small_model(), np.empty((0, 2)), k)
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_k1_training_consistency(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(60, 4))
        labels = rng.integers(0, 2, size=60)
        # no duplicate rows by construction (continuous draws)
        model = KnnModel(features, labels, default_k=1)
        for i in range(60):
            label, confidence = predict_knn(model, features[i], k=1)
            assert label == labels[i]
            assert confidence == float(labels[i])


class TestKnnModel:
    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1], [0.5, 1]])
    def test_labels_outside_zero_one_rejected(self, labels):
        with pytest.raises(UnknownLabel, match="is not a k-NN label: stored labels must be 0 or 1"):
            KnnModel(np.zeros((2, 1)), np.array(labels))

    @pytest.mark.parametrize("shape", [(2,), (2, 0)])
    def test_features_without_columns_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="at least one column"):
            KnnModel(np.zeros(shape), np.array([0, 1]))

    def test_labels_not_one_per_row_rejected(self):
        with pytest.raises(DimensionMismatch, match="must align"):
            KnnModel(np.zeros((2, 1)), np.array([[0], [1]]))
