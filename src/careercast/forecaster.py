"""Sequence model for the age 29-31 outlook.

An LSTM reads the seven normalized input rows in age order; its final
hidden state, concatenated with a one-hot career-type indicator of width
``k``, feeds a small dense head that emits the three target values at
once. The standard forecaster is the same model at ``k`` = 0: its
indicator has no columns, so the head sees the hidden state alone.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ParameterError, ShapeError
from .ingest import TARGET_AGES
from .nn import (
    LSTM,
    Dense,
    Layer,
    ReLU,
    Sequential,
    TrainConfig,
    TrainResult,
    train_loop,
)

N_HIDDEN = 64
N_OUTPUTS = len(TARGET_AGES)


class Forecaster(Layer):
    """LSTM encoder plus dense head fed the final hidden state and ``k`` one-hot columns."""

    config = ("n_features", "k")

    def __init__(self, n_features: int, k: int = 0, rng: np.random.Generator | None = None):
        if k < 0:
            raise ConfigError(f"k must be non-negative, got {k}")
        self.n_features = int(n_features)
        self.k = int(k)
        self.n_hidden = N_HIDDEN
        self.lstm = LSTM(self.n_features, self.n_hidden, rng)
        # Cluster columns start at zero: a conditioned model begins as the
        # plain forecaster and learns per-cluster corrections on top, so the
        # two variants are directly comparable under a shared seed.
        base = Dense(self.n_hidden, 32, rng)
        first = Dense(self.n_hidden + self.k, 32)
        first.weight[:, : self.n_hidden] = base.weight
        self.head = Sequential(
            [
                first,
                ReLU(),
                Dense(32, 16, rng),
                ReLU(),
                Dense(16, N_OUTPUTS, rng),
            ]
        )

    def forward(self, inputs, train: bool = False, rng=None) -> np.ndarray:
        """Forecast from a (blocks, indicators) pair, shaped (n, steps, n_features) and (n, k)."""
        if not isinstance(inputs, tuple) or len(inputs) != 2:
            raise ShapeError("a forecaster takes (blocks, indicators) input pairs")
        blocks, extras = (np.asarray(a, dtype=float) for a in inputs)
        if blocks.ndim != 3 or blocks.shape[2] != self.n_features:
            raise ShapeError(
                f"expected (n, steps, {self.n_features}) blocks, got {blocks.shape}"
            )
        if extras.shape != (blocks.shape[0], self.k):
            raise ShapeError(
                f"expected ({blocks.shape[0]}, {self.k}) cluster indicators, "
                f"got {extras.shape}"
            )
        hidden = self.lstm.forward(blocks, train=train, rng=rng)
        return self.head.forward(np.concatenate([hidden, extras], axis=1), train=train, rng=rng)

    def backward(self, grad_out: np.ndarray, input_grad=True):
        grad_hidden = self.head.backward(grad_out)
        # the one-hot block receives no gradient; peel off the LSTM part
        self.lstm.backward(grad_hidden[:, : self.n_hidden])
        return None

    def children(self):
        return [("lstm", self.lstm), ("head", self.head)]

    def predict_batch(self, blocks: np.ndarray, assignments=None) -> np.ndarray:
        """Inference on (n, steps, n_features) blocks; assignments required if k > 0."""
        return self.forward((blocks, cluster_indicators(assignments, self.k, len(blocks))))


def cluster_indicators(assignments, k: int, n: int) -> np.ndarray:
    """The (n, k) one-hot cluster input of n rows; (n, 0) for the standard model."""
    if k == 0:
        if assignments is not None:
            raise ConfigError("assignments were given but k is 0")
        return np.zeros((n, 0))
    if assignments is None:
        raise ConfigError("k > 0 requires cluster assignments for every row")
    assignments = np.asarray(assignments, dtype=int)
    if assignments.shape != (n,):
        raise ShapeError(f"expected ({n},) assignments, got shape {assignments.shape}")
    if n and (assignments.min() < 0 or assignments.max() >= k):
        raise ParameterError(
            f"assignment outside [0, {k}) found: "
            f"min {assignments.min()}, max {assignments.max()}"
        )
    return np.eye(k)[assignments]


def forecaster_train(
    blocks: np.ndarray,
    targets: np.ndarray,
    assignments=None,
    k: int = 0,
    seed: int = 0,
    config: TrainConfig | None = None,
) -> tuple[Forecaster, TrainResult]:
    """Fit a forecaster; with ``k`` > 0 each row also carries its cluster id."""
    blocks = np.asarray(blocks, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if blocks.ndim != 3:
        raise ShapeError(f"expected (n, steps, features) blocks, got {blocks.shape}")
    if targets.shape != (blocks.shape[0], N_OUTPUTS):
        raise ShapeError(
            f"expected ({blocks.shape[0]}, {N_OUTPUTS}) targets, got {targets.shape}"
        )
    model = Forecaster(
        blocks.shape[2], k=k, rng=rngmod.substream(seed, "forecaster.init")
    )
    result = train_loop(
        model,
        (blocks, cluster_indicators(assignments, k, blocks.shape[0])),
        targets,
        config if config is not None else TrainConfig(),
        rng=rngmod.substream(seed, "forecaster.train"),
    )
    return model, result
