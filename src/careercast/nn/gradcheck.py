"""Finite-difference verification of every backward rule."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .losses import mse_loss
from .training import _flatten


def grad_check(
    model,
    inputs,
    targets,
    eps: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng=None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Binds the model's gradients as ``train_loop`` does, runs one train-mode
    forward/backward to collect analytic gradients, then perturbs parameter
    coordinates one at a time. Models under check must be deterministic in
    train mode, i.e. dropout layers at rate 0
    (batchnorm is fine: its train-mode output is a pure function of the
    batch). With ``max_coords_per_param`` set, a seeded subset of
    coordinates per tensor is perturbed instead of all of them, which
    keeps full-size architectures affordable; pass None to check every
    coordinate.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if max_coords_per_param is not None and rng is None:
        raise ParameterError("coordinate sampling needs a generator")

    _flatten(model)
    pred = model.forward(inputs, train=True)
    _, grad = mse_loss(pred, targets)
    model.backward(grad)
    analytic = {name: arr.copy() for name, arr in model.grad_items()}

    worst = 0.0
    for name, param in model.param_items():
        if max_coords_per_param is None or param.size <= max_coords_per_param:
            coords = np.arange(param.size)
        else:
            coords = rng.choice(param.size, size=max_coords_per_param, replace=False)
        flat = param.reshape(-1)
        for c in coords:
            original = flat[c]
            flat[c] = original + eps
            loss_plus, _ = mse_loss(model.forward(inputs, train=True), targets)
            flat[c] = original - eps
            loss_minus, _ = mse_loss(model.forward(inputs, train=True), targets)
            flat[c] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = analytic[name].reshape(-1)[c]
            err = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
