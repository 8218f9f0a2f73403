"""Dense feedforward networks: forward pass, backprop, mini-batch SGD.

One set of machinery serves both the binary MLP classifier (sigmoid head,
binary cross-entropy) and the autoencoder (identity head, mean squared
error). Training is plain mini-batch gradient descent, single-threaded,
and fully determined by (data, config, seed). forward(), gradients() and
_sgd share one forward and one backward loop. Numpy's cost per call outweighs
a 32-row batch's arithmetic, so _sgd views every weight in one flat buffer,
updates them all with one subtract and gathers each epoch's rows once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import DEFAULT_AUTOENCODER_CONFIG, TrainConfig
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    LatentTooLarge,
    MalformedModel,
    SingleClassTrainingSet,
)
from .pipeline import Dataset, one_row

PROB_EPS = 1e-12  # keeps probabilities strictly inside (0, 1) and logs finite


@dataclass
class LayerParams:
    weights: np.ndarray[Any, np.dtype[np.float64]]  # d_out x d_in
    biases: np.ndarray[Any, np.dtype[np.float64]]  # d_out
    activation: str  # a key of ACTIVATIONS

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DimensionMismatch(f"layer weights have shape {self.weights.shape}, not a matrix")
        if self.activation not in ACTIVATIONS:
            raise MalformedModel(f"unknown activation {self.activation!r}")


def _check_stack(name: str, layers: list[LayerParams], width_in: int | None = None,
                width_out: int | None = None) -> None:
    """Raise unless the layer stack called name has layers, each taking the width
    the one before gives and holding one bias per output (which LayerParams
    leaves to its model), from width_in values (or what its first layer takes)
    to width_out (or any number)."""
    if not layers:
        raise MalformedModel(f"the {name} has no layers")
    width = layers[0].weights.shape[1] if width_in is None else width_in
    for i, layer in enumerate(layers):
        if layer.weights.shape[1] != width:
            raise DimensionMismatch(f"{name} layer {i} has weights of shape "
                                    f"{layer.weights.shape}, its input is {width} wide")
        width = layer.weights.shape[0]
        if layer.biases.shape != (width,):
            raise DimensionMismatch(f"{name} layer {i} has biases of shape "
                                    f"{layer.biases.shape}, its output is {width} wide")
    if width_out is not None and width != width_out:
        raise DimensionMismatch(f"the {name} outputs {width} values, {width_out} expected")


@dataclass
class MlpModel:
    layers: list[LayerParams]

    def __post_init__(self):
        _check_stack("MLP", self.layers)


@dataclass
class AutoencoderModel:
    encoder_layers: list[LayerParams]
    decoder_layers: list[LayerParams]
    latent_dim: int

    def __post_init__(self):
        _check_stack("encoder", self.encoder_layers, width_out=self.latent_dim)
        _check_stack("decoder", self.decoder_layers, self.latent_dim)

    @property
    def layers(self) -> list[LayerParams]:
        return self.encoder_layers + self.decoder_layers


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below: exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# name -> (f(z), df/dz given the pre-activation z and a = f(z))
ACTIVATIONS = {
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(np.float64)),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
}


def _forward(layers: list[LayerParams], X: np.ndarray) -> dict:
    """Batch X's per-layer pre-activations ("pre") and activations ("act", from X itself)."""
    pre_acts, activations = [], [X]
    for layer in layers:
        pre_acts.append(activations[-1] @ layer.weights.T + layer.biases)
        activations.append(ACTIVATIONS[layer.activation][0](pre_acts[-1]))
    return {"pre": pre_acts, "act": activations}


def forward(model, x: np.ndarray):
    """Run a batch (or single vector) through the network.

    Returns (output, cache); the cache holds per-layer pre-activations and
    activations so gradients() can reuse them.
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    layers = model.layers
    if X.shape[1] != layers[0].weights.shape[1]:
        raise DimensionMismatch(
            f"input width {X.shape[1]} != first-layer width {layers[0].weights.shape[1]}"
        )
    cache = _forward(layers, X)
    return (cache["act"][-1] if np.asarray(x).ndim > 1 else cache["act"][-1][0]), cache


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    t = targets
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((outputs - targets) ** 2))


def _flat_views(layers: list[LayerParams]):
    """One buffer holding a copy of every layer's weights and biases, and its view pairs."""
    arrays = [a for layer in layers for a in (layer.weights, layer.biases)]
    flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, [(w.reshape(layer.weights.shape), b)
                  for layer, w, b in zip(layers, parts[::2], parts[1::2])]


def _backward(layers: list, cache: dict, T: np.ndarray, loss: str, grads: list) -> None:
    """Write the mean batch loss's gradient into each layer's (dW, db) pair of grads."""
    n = T.shape[0]
    if loss == "bce":
        # sigmoid + BCE: gradient at the pre-activation is (p - t) / n
        delta = (cache["act"][-1] - T) / n
    elif loss == "mse":
        d_out = (2.0 / (n * T.shape[1])) * (cache["act"][-1] - T)
        delta = d_out * ACTIVATIONS[layers[-1].activation][1](cache["pre"][-1], cache["act"][-1])
    else:
        raise ValueError(f"unknown loss {loss!r}")

    for i in range(len(layers) - 1, -1, -1):
        np.matmul(delta.T, cache["act"][i], out=grads[i][0])  # act[0] is the input batch
        delta.sum(axis=0, out=grads[i][1])
        if i > 0:
            delta = (delta @ layers[i].weights) * ACTIVATIONS[layers[i - 1].activation][1](
                cache["pre"][i - 1], cache["act"][i]
            )


def gradients(model, batch_x: np.ndarray, batch_target: np.ndarray, loss: str):
    """Backprop gradients of the mean batch loss for every weight and bias.

    loss is "bce" (sigmoid head) or "mse". Returns a list of (dW, db) pairs
    aligned with model.layers.
    """
    _, cache = forward(model, batch_x)
    _, grads = _flat_views(model.layers)
    _backward(model.layers, cache, np.atleast_2d(batch_target).astype(np.float64), loss, grads)
    return grads


def _init_layer(rng: np.random.Generator, d_in: int, d_out: int, activation: str) -> LayerParams:
    # fan-based uniform init keeps early activations in a sane range
    bound = np.sqrt(6.0 / (d_in + d_out))
    weights = rng.uniform(-bound, bound, size=(d_out, d_in))
    return LayerParams(weights=weights, biases=np.zeros(d_out), activation=activation)


def _layer_stack(rng: np.random.Generator, sizes: list[int], hidden: str,
                 output: str) -> list[LayerParams]:
    """Layers chaining the widths in sizes, drawn in order; only the last is output."""
    activations = [hidden] * (len(sizes) - 2) + [output]
    return [_init_layer(rng, *pair) for pair in zip(sizes, sizes[1:], activations)]


def _sgd(model, X: np.ndarray, T: np.ndarray, cfg: TrainConfig, loss: str,
         rng: np.random.Generator) -> None:
    n = X.shape[0]
    batch = min(cfg.batch_size, n)
    layers = model.layers
    params, views = _flat_views(layers)
    for layer, (w, b) in zip(layers, views):
        layer.weights, layer.biases = w, b
    grad, grads = _flat_views(layers)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        Xs = X[order]
        Ts = Xs if T is X else T[order]
        for start in range(0, n, batch):
            cache = _forward(layers, Xs[start:start + batch])
            _backward(layers, cache, Ts[start:start + batch], loss, grads)
            grad *= cfg.learning_rate
            params -= grad


def train_mlp(train: Dataset, cfg: TrainConfig | None = None) -> MlpModel:
    """Train the binary MLP classifier; deterministic given cfg.seed."""
    if cfg is None:
        cfg = TrainConfig()
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.float64).reshape(-1, 1)
    if X.shape[0] == 0:
        raise EmptyInput("training set is empty")
    if len(np.unique(train.labels)) < 2:
        raise SingleClassTrainingSet("MLP training needs both classes")

    rng = np.random.default_rng(cfg.seed)
    model = MlpModel(layers=_layer_stack(rng, [X.shape[1], *cfg.hidden_sizes, 1],
                                         "relu", "sigmoid"))
    _sgd(model, X, y, cfg, "bce", rng)
    return model


def predict_proba_mlp(model: MlpModel, x: np.ndarray) -> float:
    """Probability the input is malicious; a one-row predict_proba_mlp_batch."""
    return float(predict_proba_mlp_batch(model, one_row(x))[0])


def predict_proba_mlp_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Probability each row is malicious, strictly inside (0, 1)."""
    out, _ = forward(model, np.atleast_2d(X))
    return np.clip(out[:, 0], PROB_EPS, 1.0 - PROB_EPS)


def train_autoencoder(
    train_features: np.ndarray, cfg: TrainConfig | None = None
) -> AutoencoderModel:
    """Train a reconstruction autoencoder with MSE loss.

    cfg.hidden_sizes describes the encoder stack; its last entry is the
    latent width. Hidden layers are sigmoid, the output layer identity.
    """
    if cfg is None:
        cfg = DEFAULT_AUTOENCODER_CONFIG
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"autoencoder training needs a matrix, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyInput("autoencoder training needs a non-empty matrix")
    if not cfg.hidden_sizes:
        raise ConfigError("an autoencoder needs at least one hidden layer, got hidden_sizes=()")
    d = X.shape[1]
    latent_dim = cfg.hidden_sizes[-1]
    if latent_dim > d:
        raise LatentTooLarge(f"latent width {latent_dim} exceeds input width {d}")

    rng = np.random.default_rng(cfg.seed)
    encoder = _layer_stack(rng, [d, *cfg.hidden_sizes], "sigmoid", "sigmoid")
    decoder = _layer_stack(rng, [*cfg.hidden_sizes[::-1], d], "sigmoid", "identity")
    model = AutoencoderModel(encoder_layers=encoder, decoder_layers=decoder,
                             latent_dim=latent_dim)
    _sgd(model, X, X, cfg, "mse", rng)
    return model


def reconstruction_mse(model: AutoencoderModel, X: np.ndarray) -> float:
    out, _ = forward(model, np.atleast_2d(X))
    return mse_loss(out, np.atleast_2d(X))


def encode(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Map input(s) to the latent representation."""
    latent, _ = forward(MlpModel(model.encoder_layers), x)
    return latent
