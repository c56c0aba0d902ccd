"""Small neural-network toolkit: layers, loss, optimizer, training loop."""

from .layers import LSTM, BatchNorm, Dense, Dropout, Layer, ReLU, Sequential
from .losses import mse_loss
from .optim import Adam
from .serialize import layer_from_doc, layer_to_doc
from .training import TrainConfig, TrainResult, train_loop

__all__ = [
    "Adam",
    "BatchNorm",
    "Dense",
    "Dropout",
    "LSTM",
    "Layer",
    "ReLU",
    "Sequential",
    "TrainConfig",
    "TrainResult",
    "layer_from_doc",
    "layer_to_doc",
    "mse_loss",
    "train_loop",
]
