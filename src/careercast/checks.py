"""Finite-difference gradient audit across every architecture in use.

Each named configuration builds a small seeded model with random data
and compares analytic gradients against central differences. Purely
linear stacks must agree to 1e-6; everything else to 1e-4. The full-size
forecaster samples a fixed number of coordinates per tensor so the audit
stays fast.
"""

from __future__ import annotations

import numpy as np

from .autoencoder import Autoencoder
from .forecaster import Forecaster, cluster_indicators
from .nn import LSTM, BatchNorm, Dense, Dropout, ReLU, Sequential, grad_check
from .rng import substream

TIGHT = 1e-6  # purely linear stacks
LOOSE = 1e-4
SAMPLED_COORDS = 40


def _jitter_biases(model, rng) -> None:
    """Move zero-initialized biases to a generic point before auditing.

    With biases exactly zero, a sample whose relu row dies completely
    puts the next layer's pre-activation exactly on the kink, where the
    one-sided derivatives legitimately differ and finite differences
    cannot match the subgradient. Off the kink, both agree.
    """
    for name, param in model.param_items():
        if name.endswith("bias"):
            param += rng.uniform(-0.3, 0.3, size=param.shape)


def _dense_linear(rng):
    model = Sequential([Dense(5, 4, rng), Dense(4, 3, rng)])
    return model, rng.normal(size=(6, 5)), rng.normal(size=(6, 3))


def _batchnorm(rng):
    model = Sequential([Dense(6, 8, rng), BatchNorm(8), ReLU(), Dense(8, 3, rng)])
    return model, rng.normal(size=(6, 6)), rng.normal(size=(6, 3))


def _dropout_off(rng):
    model = Sequential([Dense(5, 6, rng), Dropout(0.0), Dense(6, 2, rng)])
    return model, rng.normal(size=(6, 5)), rng.normal(size=(6, 2))


def _lstm(rng):
    model = Sequential([LSTM(5, 6, rng)])
    return model, rng.normal(size=(4, 7, 5)), rng.normal(size=(4, 6))


def _autoencoder(rng):
    # dropout at rate 0: the audit needs a deterministic train-mode forward
    ae = Autoencoder(10, n_hidden=8, n_code=4, dropout_rate=0.0, rng=rng)
    x = rng.normal(size=(6, 10))
    return ae.model, x, x


def _forecaster(rng):
    model = Forecaster(4, k=3, rng=rng)
    blocks = rng.normal(size=(5, 7, 4))
    indicators = cluster_indicators(rng.integers(0, 3, size=5), 3, 5)
    return model, (blocks, indicators), rng.normal(size=(5, 3))


def _mlp(rng):
    model = Sequential(
        [Dense(9, 8, rng), ReLU(), Dense(8, 6, rng), ReLU(), Dense(6, 3, rng)]
    )
    return model, rng.normal(size=(6, 9)), rng.normal(size=(6, 3))


CONFIGS = (
    ("dense", _dense_linear, TIGHT, None),
    ("batchnorm", _batchnorm, LOOSE, None),
    ("dropout-off", _dropout_off, TIGHT, None),
    ("lstm", _lstm, LOOSE, None),
    ("autoencoder", _autoencoder, LOOSE, None),
    ("forecaster", _forecaster, LOOSE, SAMPLED_COORDS),
    ("mlp", _mlp, LOOSE, None),
)


def gradcheck_suite(n_seeds: int) -> list[dict]:
    """Run every configuration over ``n_seeds`` seeded draws.

    Returns one row per configuration with the worst relative error seen
    and whether it clears the configuration's threshold.
    """
    rows = []
    for name, build, threshold, max_coords in CONFIGS:
        worst = 0.0
        for s in range(n_seeds):
            rng = substream(0, f"gradcheck.{name}.{s}")
            model, inputs, targets = build(rng)
            _jitter_biases(model, rng)
            # eps small enough that relu kink crossings are vanishingly
            # rare, large enough to stay above float64 rounding noise
            err = grad_check(
                model,
                inputs,
                targets,
                eps=1e-6,
                max_coords_per_param=max_coords,
                rng=rng if max_coords is not None else None,
            )
            worst = max(worst, err)
        rows.append(
            {
                "name": name,
                "threshold": threshold,
                "max_error": worst,
                "ok": bool(worst < threshold),
            }
        )
    return rows
