"""Seeded mini-batch training with validation-based early stopping."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError, SplitError
from .losses import mse_loss
from .optim import Adam

BATCH_SIZE = 32
VALIDATION_FRACTION = 0.1  # share of the samples held out for early stopping
# the fewest samples whose validation slice is not empty: round() takes 0.5 to 0
MIN_TRAIN_SAMPLES = math.floor(0.5 / VALIDATION_FRACTION) + 1


@dataclass
class TrainConfig:
    max_epochs: int = 100
    patience: int = 10

    def validate(self):
        for name in ("max_epochs", "patience"):
            value = getattr(self, name)
            if not (is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def is_int(value) -> bool:
    """An integer, but not a bool: JSON ``true`` is no count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class TrainResult:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val_loss: float = float("inf")


def _take(inputs, idx):
    if isinstance(inputs, tuple):
        return tuple(a[idx] for a in inputs)
    return inputs[idx]


def _n_samples(inputs):
    if isinstance(inputs, tuple):
        return len(inputs[0])
    return len(inputs)


def _batch_bounds(n: int) -> list[tuple[int, int]]:
    bounds = [(lo, min(lo + BATCH_SIZE, n)) for lo in range(0, n, BATCH_SIZE)]
    # A trailing batch of one breaks train-mode batchnorm; fold it into the
    # previous batch instead of dropping the sample.
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        lo, _ = bounds[-2]
        bounds[-2:] = [(lo, n)]
    return bounds


def train_loop(model, inputs, targets, config: TrainConfig, rng) -> TrainResult:
    """Train ``model`` on (inputs, targets) and restore its best weights.

    ``inputs`` is an array or a tuple of arrays sliced along axis 0 in
    parallel (every forecaster passes a (blocks, indicators) pair, whose
    indicators have zero columns for the standard model). A
    ``VALIDATION_FRACTION`` slice is held out up front, and each epoch
    reshuffles the rest into ``BATCH_SIZE`` batches of one ``Adam()`` step
    each. Training stops once validation loss has not improved for
    ``patience`` epochs or at ``max_epochs``, whichever comes first, and the
    parameters from the best validation epoch are restored. Fully
    deterministic given ``rng``, which draws the validation slice, every
    epoch's order and dropout masks.

    The model's parameters are first moved into one flat buffer, and its
    gradients created in another (see ``Layer.bind``); both stay there
    afterwards, so every Adam step, snapshot and restore is one whole-model
    array operation. Its backward skips the input gradient, which nothing reads.
    The best epoch's snapshot (one copy of the flat parameters and of each
    state array) is allocated up front and overwritten in place at each
    improving epoch.
    """
    config.validate()
    n = _n_samples(inputs)
    if n == 0:
        raise SplitError("no training data")
    targets = np.asarray(targets, dtype=float)
    if len(targets) != n:
        raise ShapeError(f"{n} inputs but {len(targets)} targets")

    # never the whole set either: round(0.1 * n) < n
    if n < MIN_TRAIN_SAMPLES:
        raise SplitError(
            f"validation slice is empty: {n} samples at fraction {VALIDATION_FRACTION}"
        )
    n_val = int(round(n * VALIDATION_FRACTION))
    order = rng.permutation(n)
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    val_inputs = _take(inputs, val_idx)
    val_targets = targets[val_idx]

    optimizer = Adam()
    params, grads = _flatten(model)
    result = TrainResult()
    live = [params, *(arr for _, arr in model.state_items())]
    best = [np.empty_like(arr) for arr in live]
    epochs_without_improvement = 0

    for epoch in range(1, config.max_epochs + 1):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        total = 0.0
        for lo, hi in _batch_bounds(train_idx.size):
            batch_idx = epoch_order[lo:hi]
            pred = model.forward(_take(inputs, batch_idx), train=True, rng=rng)
            loss, grad = mse_loss(pred, targets[batch_idx])
            model.backward(grad, input_grad=False)
            optimizer.step([params], [grads])
            total += loss * batch_idx.size
        result.train_loss.append(total / train_idx.size)

        val_pred = model.forward(val_inputs, train=False)
        val_loss, _ = mse_loss(val_pred, val_targets)
        result.val_loss.append(val_loss)
        result.stopped_epoch = epoch

        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            for dst, src in zip(best, live):
                np.copyto(dst, src)
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    if result.best_epoch:
        for dst, src in zip(live, best):
            np.copyto(dst, src)
    return result


def _flatten(model):
    """One parameter buffer and one zero-filled gradient buffer for the whole model.

    Every layer's parameters are rebound to, and its gradients created as,
    views of the two buffers in ``param_items`` order, so one optimizer step
    and one snapshot copy cover the model.
    """
    arrays = [arr for _, arr in model.param_items()]
    bounds = np.cumsum([0] + [arr.size for arr in arrays])
    params = np.empty(bounds[-1])
    grads = np.zeros(bounds[-1])
    model.bind(
        (params[lo:hi].reshape(arr.shape), grads[lo:hi].reshape(arr.shape))
        for lo, hi, arr in zip(bounds[:-1], bounds[1:], arrays)
    )
    return params, grads
