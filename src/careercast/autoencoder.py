"""Career-shape embedding via a dense autoencoder.

A player's normalized input block (ages 22 through 28, one row per age)
is flattened age-major and squeezed through a bottleneck; the bottleneck
activations are the embedding that downstream clustering consumes.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .errors import ShapeError
from .nn import (
    BatchNorm,
    Dense,
    Dropout,
    Layer,
    ReLU,
    Sequential,
    TrainConfig,
    TrainResult,
    train_loop,
)

DEFAULT_HIDDEN = 128
DEFAULT_CODE = 64
DEFAULT_DROPOUT = 0.1


def flatten_batch(blocks: np.ndarray) -> np.ndarray:
    """Flatten a (n_players, n_ages, n_features) stack to (n_players, n_ages*n_features)."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3:
        raise ShapeError(f"expected a 3-d stack, got shape {blocks.shape}")
    return blocks.reshape(blocks.shape[0], -1)


class Autoencoder(Layer):
    """Bottleneck reconstruction net whose encoder half doubles as an embedder.

    The encoder runs input -> hidden (batch norm, dropout, relu) -> code
    (relu); the decoder mirrors it back with a linear output. ``encoder``
    and ``model`` share layer objects, so training the full net trains
    the embedder in place. Its children are the net's layers, so its
    arrays are ``model``'s, under the same names.
    """

    config = ("n_inputs", "n_hidden", "n_code", "dropout_rate")

    def __init__(
        self,
        n_inputs: int,
        n_hidden: int = DEFAULT_HIDDEN,
        n_code: int = DEFAULT_CODE,
        dropout_rate: float = DEFAULT_DROPOUT,
        rng: np.random.Generator | None = None,
    ):
        self.n_inputs = int(n_inputs)
        self.n_hidden = int(n_hidden)
        self.n_code = int(n_code)
        self.dropout_rate = float(dropout_rate)
        encoder_layers = [
            Dense(self.n_inputs, self.n_hidden, rng),
            BatchNorm(self.n_hidden),
            Dropout(self.dropout_rate),
            ReLU(),
            Dense(self.n_hidden, self.n_code, rng),
            ReLU(),
        ]
        decoder_layers = [
            Dense(self.n_code, self.n_hidden, rng),
            ReLU(),
            Dense(self.n_hidden, self.n_inputs, rng),
        ]
        self.model = Sequential(encoder_layers + decoder_layers)
        self.encoder = Sequential(encoder_layers)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Map (n, n_inputs) rows to (n, n_code) embeddings, inference mode."""
        return self.encoder.forward(np.asarray(x, dtype=float), train=False)

    def children(self):
        return self.model.children()


def ae_train(
    inputs: np.ndarray,
    seed: int = 0,
    *,
    config: TrainConfig,
) -> tuple[Autoencoder, TrainResult]:
    """Fit an autoencoder to reconstruct ``inputs`` (already flattened rows)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ShapeError(f"expected (n, n_inputs) training data, got {inputs.shape}")
    ae = Autoencoder(inputs.shape[1], rng=rngmod.substream(seed, "autoencoder.init"))
    result = train_loop(
        ae.model,
        inputs,
        inputs,
        config,
        rng=rngmod.substream(seed, "autoencoder.train"),
    )
    return ae, result
