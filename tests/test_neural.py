import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsentry import neural
from urlsentry.errors import (
    DimensionMismatch,
    EmptyInput,
    LatentTooLarge,
    SingleClassTrainingSet,
)
from urlsentry.neural import (
    AutoencoderModel,
    LayerParams,
    MlpModel,
    TrainConfig,
    bce_loss,
    encode,
    forward,
    gradients,
    mse_loss,
    predict_proba_mlp,
    predict_proba_mlp_batch,
    reconstruction_mse,
    train_autoencoder,
    train_mlp,
)
from urlsentry.pipeline import Dataset


def identity_layer(d):
    return LayerParams(weights=np.eye(d), biases=np.zeros(d), activation="identity")


def assert_one_row_view(scalar, batch, X):
    """scalar(X[i]) is exactly batch(X[i:i+1])[0] and agrees with row i of batch(X).

    Against a larger batch the match is to rounding only: BLAS may round a
    one-row product (matrix-vector) differently from a many-row one.
    """
    full = batch(X)
    for i, x in enumerate(X):
        one = scalar(x)
        assert np.array_equal(one, batch(X[i:i + 1])[0])
        np.testing.assert_allclose(one, full[i], rtol=1e-12, atol=0)


def finite_difference_grads(model, X, T, loss, h=1e-5):
    """Central-difference oracle over every parameter."""
    loss_fn = bce_loss if loss == "bce" else mse_loss
    out = []
    for layer in model.layers:
        pair = []
        for arr in (layer.weights, layer.biases):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp = loss_fn(forward(model, X)[0], T)
                arr[ix] = orig - h
                lm = loss_fn(forward(model, X)[0], T)
                arr[ix] = orig
                g[ix] = (lp - lm) / (2 * h)
            pair.append(g)
        out.append(tuple(pair))
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_identity_layer(self):
        model = MlpModel(layers=[identity_layer(2)])
        out, _ = forward(model, np.array([1.0, 2.0]))
        assert out.tolist() == [1.0, 2.0]

    def test_zero_sigmoid_unit(self):
        layer = LayerParams(np.zeros((1, 3)), np.zeros(1), "sigmoid")
        out, _ = forward(MlpModel([layer]), np.array([5.0, -2.0, 9.0]))
        assert out[0] == 0.5

    def test_two_layers_match_hand_composed_affine(self):
        rng = np.random.default_rng(0)
        w1, b1 = rng.normal(size=(3, 2)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(1, 3)), rng.normal(size=1)
        model = MlpModel([
            LayerParams(w1, b1, "identity"),
            LayerParams(w2, b2, "identity"),
        ])
        x = np.array([0.3, -1.2])
        out, _ = forward(model, x)
        by_hand = w2 @ (w1 @ x + b1) + b2
        assert abs(out[0] - by_hand[0]) < 1e-12

    def test_dimension_mismatch(self):
        model = MlpModel(layers=[identity_layer(2)])
        with pytest.raises(DimensionMismatch):
            forward(model, np.array([1.0, 2.0, 3.0]))


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        layers = [
            neural._init_layer(rng, 3, 4, "relu"),
            neural._init_layer(rng, 4, 1, "sigmoid"),
        ]
        model = MlpModel(layers)
        X = rng.normal(size=(5, 3))
        T = rng.integers(0, 2, size=(5, 1)).astype(float)
        analytic = gradients(model, X, T, "bce")
        numeric = finite_difference_grads(model, X, T, "bce")
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_error_mse_gives_zero_gradients(self):
        model = MlpModel(layers=[identity_layer(3)])
        X = np.random.default_rng(2).normal(size=(4, 3))
        grads = gradients(model, X, X, "mse")  # targets == outputs
        for dw, db in grads:
            assert np.all(dw == 0.0) and np.all(db == 0.0)

    def test_bce_output_delta_at_half(self):
        # zero net: p = 0.5; target 1 -> pre-activation gradient -0.5,
        # visible in the bias gradient (db = sum of deltas)
        layer = LayerParams(np.zeros((1, 2)), np.zeros(1), "sigmoid")
        model = MlpModel([layer])
        grads = gradients(model, np.array([[0.0, 0.0]]), np.array([[1.0]]), "bce")
        assert grads[0][1][0] == pytest.approx(-0.5, abs=1e-12)


class TestTrainMlp:
    def test_separable_toy_reaches_full_accuracy(self, toy_dataset):
        model = train_mlp(toy_dataset, TrainConfig(seed=0))
        probs = predict_proba_mlp_batch(model, toy_dataset.features)
        predicted = (probs >= 0.5).astype(int)
        assert np.array_equal(predicted, toy_dataset.labels)

    def test_same_seed_bit_identical(self, toy_dataset):
        cfg = TrainConfig(epochs=5, seed=9)
        m1 = train_mlp(toy_dataset, cfg)
        m2 = train_mlp(toy_dataset, cfg)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.biases, l2.biases)

    def test_zero_epochs_equals_seeded_init(self, toy_dataset):
        cfg = TrainConfig(epochs=0, seed=4)
        model = train_mlp(toy_dataset, cfg)
        rng = np.random.default_rng(4)
        expected = [
            neural._init_layer(rng, 2, 32, "relu"),
            neural._init_layer(rng, 32, 1, "sigmoid"),
        ]
        for got, want in zip(model.layers, expected):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.biases, want.biases)

    def test_single_class_rejected(self, toy_dataset):
        toy_dataset.labels[:] = 1
        with pytest.raises(SingleClassTrainingSet):
            train_mlp(toy_dataset, TrainConfig(epochs=1, seed=0))


class TestPredictProba:
    def test_zero_weight_model(self):
        layer = LayerParams(np.zeros((1, 2)), np.zeros(1), "sigmoid")
        assert predict_proba_mlp(MlpModel([layer]), np.array([3.0, 4.0])) == 0.5

    def test_sigmoid_symmetry_under_negated_head(self, toy_dataset):
        model = train_mlp(toy_dataset, TrainConfig(epochs=3, seed=1))
        x = toy_dataset.features[0]
        p = predict_proba_mlp(model, x)
        head = model.layers[-1]
        negated = MlpModel(
            model.layers[:-1]
            + [LayerParams(-head.weights, -head.biases, head.activation)]
        )
        q = predict_proba_mlp(negated, x)
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_trained_model_flags_malicious_side(self, toy_dataset):
        model = train_mlp(toy_dataset, TrainConfig(seed=0))
        held_out = np.array([4.2, 4.4])  # malicious side of x + y = 5
        assert predict_proba_mlp(model, held_out) >= 0.5

    def test_scalar_is_one_row_batch(self, toy_dataset):
        model = train_mlp(toy_dataset, TrainConfig(epochs=5, seed=3))
        X = np.vstack([toy_dataset.features, np.random.default_rng(4).normal(size=(30, 2))])
        assert_one_row_view(
            lambda x: predict_proba_mlp(model, x), lambda X: predict_proba_mlp_batch(model, X), X
        )

    def test_output_strictly_inside_unit_interval(self, toy_dataset):
        model = train_mlp(toy_dataset, TrainConfig(epochs=5, seed=2))
        for x in (np.array([1e6, 1e6]), np.array([-1e6, -1e6]), np.array([0.0, 0.0])):
            p = predict_proba_mlp(model, x)
            assert 0.0 < p < 1.0


class TestAutoencoder:
    def test_identity_construction_reconstructs_exactly(self):
        d = 4
        ae = AutoencoderModel(
            encoder_layers=[identity_layer(d)],
            decoder_layers=[identity_layer(d)],
            latent_dim=d,
        )
        X = np.random.default_rng(0).normal(size=(6, d))
        assert reconstruction_mse(ae, X) == 0.0
        assert np.array_equal(encode(ae, X[0]), X[0])

    def test_beats_column_mean_baseline(self):
        rng = np.random.default_rng(5)
        # rank-2 matrix: a 3-wide latent can beat the best constant predictor
        X = rng.uniform(size=(60, 2)) @ rng.uniform(size=(2, 6))
        ae = train_autoencoder(
            X, TrainConfig(epochs=300, learning_rate=0.2, hidden_sizes=(3,), seed=0)
        )
        baseline = float(np.mean((X - X.mean(axis=0)) ** 2))  # column-mean predictor
        assert reconstruction_mse(ae, X) < baseline

    def test_training_improves_on_seeded_init(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(40, 5))
        cfg = TrainConfig(epochs=30, hidden_sizes=(2,), seed=3)
        untrained = train_autoencoder(X, TrainConfig(epochs=0, hidden_sizes=(2,), seed=3))
        trained = train_autoencoder(X, cfg)
        assert reconstruction_mse(trained, X) < reconstruction_mse(untrained, X)

    def test_same_seed_identical(self):
        X = np.random.default_rng(7).uniform(size=(20, 4))
        cfg = TrainConfig(epochs=5, hidden_sizes=(2,), seed=11)
        a1 = train_autoencoder(X, cfg)
        a2 = train_autoencoder(X, cfg)
        for l1, l2 in zip(a1.layers, a2.layers):
            assert np.array_equal(l1.weights, l2.weights)

    def test_autoencoder_gradient_check(self):
        rng = np.random.default_rng(8)
        ae = AutoencoderModel(
            encoder_layers=[neural._init_layer(rng, 4, 2, "sigmoid")],
            decoder_layers=[neural._init_layer(rng, 2, 4, "identity")],
            latent_dim=2,
        )
        X = rng.normal(size=(5, 4))
        analytic = gradients(ae, X, X, "mse")
        numeric = finite_difference_grads(ae, X, X, "mse")
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_latent_shape_and_determinism(self):
        X = np.random.default_rng(9).uniform(size=(30, 18))
        ae = train_autoencoder(X, TrainConfig(epochs=2, hidden_sizes=(8,), seed=0))
        z = encode(ae, X[0])
        assert z.shape == (8,)
        assert np.array_equal(z, encode(ae, X[0]))
        assert_one_row_view(lambda x: encode(ae, x), lambda X: encode(ae, X), X)

    def test_latent_too_large(self):
        X = np.ones((5, 3))
        with pytest.raises(LatentTooLarge):
            train_autoencoder(X, TrainConfig(epochs=1, hidden_sizes=(4,), seed=0))

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            train_autoencoder(np.empty((0, 3)), TrainConfig(hidden_sizes=(2,)))

    def test_encode_dimension_mismatch(self):
        X = np.ones((5, 3))
        ae = train_autoencoder(X, TrainConfig(epochs=0, hidden_sizes=(2,), seed=0))
        with pytest.raises(DimensionMismatch):
            encode(ae, np.ones(4))


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The earlier neural.sigmoid: each sign's formula on a boolean-mask gather."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320, 745.2, -745.2,
                 709.8, -709.8, 1e308, -1e308, 36.8, -36.8]


class TestSigmoid:
    def assert_same_bits(self, z):
        got, want = neural.sigmoid(z), masked_sigmoid(z)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_edge_values(self):
        self.assert_same_bits(np.array(SIGMOID_EDGES))
        self.assert_same_bits(np.array(SIGMOID_EDGES).reshape(3, 5))

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-60.0, 60.0),
            st.sampled_from(SIGMOID_EDGES),
        ),
    ))
    def test_matches_masked_formula(self, z):
        self.assert_same_bits(z)

    def test_no_overflow_warning(self):
        with np.errstate(over="raise", invalid="raise"):
            out = neural.sigmoid(np.array([-1e308, -800.0, 0.0, 800.0, 1e308]))
        assert out.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


def reference_layer(rng, d_in, d_out, activation):
    bound = np.sqrt(6.0 / (d_in + d_out))
    weights = rng.uniform(-bound, bound, size=(d_out, d_in))
    return LayerParams(weights=weights, biases=np.zeros(d_out), activation=activation)


def reference_mlp_layers(rng, d, hidden_sizes):
    """train_mlp's initial layers by its former construction loop."""
    sizes = [d, *hidden_sizes, 1]
    layers = []
    for i in range(len(sizes) - 1):
        activation = "sigmoid" if i == len(sizes) - 2 else "relu"
        layers.append(reference_layer(rng, sizes[i], sizes[i + 1], activation))
    return layers


def reference_autoencoder_layers(rng, d, hidden_sizes):
    """train_autoencoder's initial encoder and decoder by their former construction loops."""
    enc_sizes = [d, *hidden_sizes]
    dec_sizes = [*hidden_sizes[::-1], d]
    encoder = [
        reference_layer(rng, enc_sizes[i], enc_sizes[i + 1], "sigmoid")
        for i in range(len(enc_sizes) - 1)
    ]
    decoder = []
    for i in range(len(dec_sizes) - 1):
        activation = "identity" if i == len(dec_sizes) - 2 else "sigmoid"
        decoder.append(reference_layer(rng, dec_sizes[i], dec_sizes[i + 1], activation))
    return encoder, decoder


def assert_same_layers(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.activation == e.activation
        assert a.weights.shape == e.weights.shape and a.weights.tobytes() == e.weights.tobytes()
        assert a.biases.shape == e.biases.shape and a.biases.tobytes() == e.biases.tobytes()


def construction_data(n=40, d=18):
    rng = np.random.default_rng(3)
    return rng.uniform(size=(n, d)), np.arange(n) % 2


@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("hidden_sizes", [(), (8,), (16, 8), (12, 6, 3)])
def test_mlp_layers_match_the_former_construction(hidden_sizes, epochs):
    X, y = construction_data()
    cfg = TrainConfig(epochs=epochs, batch_size=16, hidden_sizes=hidden_sizes, seed=5)
    model = train_mlp(Dataset(X, y, [""] * len(y)), cfg)
    rng = np.random.default_rng(cfg.seed)
    expected = MlpModel(reference_mlp_layers(rng, X.shape[1], hidden_sizes))
    neural._sgd(expected, X, y.astype(np.float64).reshape(-1, 1), cfg, "bce", rng)
    assert_same_layers(model.layers, expected.layers)


@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("hidden_sizes", [(8,), (16, 8), (12, 6, 3), (18,)])
def test_autoencoder_layers_match_the_former_construction(hidden_sizes, epochs):
    X, _ = construction_data()
    cfg = TrainConfig(epochs=epochs, batch_size=16, hidden_sizes=hidden_sizes, seed=5)
    model = train_autoencoder(X, cfg)
    rng = np.random.default_rng(cfg.seed)
    encoder, decoder = reference_autoencoder_layers(rng, X.shape[1], hidden_sizes)
    expected = AutoencoderModel(encoder, decoder, hidden_sizes[-1])
    neural._sgd(expected, X, X, cfg, "mse", rng)
    assert_same_layers(model.encoder_layers, expected.encoder_layers)
    assert_same_layers(model.decoder_layers, expected.decoder_layers)
