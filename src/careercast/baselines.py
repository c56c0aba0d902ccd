"""Reference predictors the sequence model is judged against.

Covers carry-forward of the latest observed value, linear and ridge
regression in closed form, and a small dense net on the flattened
input block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import NumericError, ParameterError, ShapeError
from .ingest import TARGET_AGES
from .nn import Dense, ReLU, Sequential, TrainConfig, TrainResult, train_loop

MLP_HIDDEN = (64, 32)
# The flattened design matrix usually has more columns than there are players,
# so exact unpenalized least squares is rank-deficient by construction; this
# penalty keeps the linear baseline well-defined while staying numerically
# indistinguishable from OLS on full-rank problems.
LINEAR_LAMBDA = 1e-8
RIDGE_LAMBDA = 1.0


def last_value_predict(raw: np.ndarray, target_index: int) -> np.ndarray:
    """Carry each player's final input-age target value across all horizons.

    Reads the raw (unnormalized) (n, 7, features) block so the carried value
    is exactly the one that appeared in the source data.
    """
    if len(raw) == 0:
        raise ParameterError("no careers to predict")
    return np.repeat(raw[:, -1:, target_index], len(TARGET_AGES), axis=1)


@dataclass
class LinearModel:
    """Weights for y = x @ coef + intercept, one column per output."""

    coef: np.ndarray
    intercept: np.ndarray

    @property
    def n_inputs(self) -> int:
        return self.coef.shape[0]


def _check_xy(x: np.ndarray, y: np.ndarray):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected 2-d design matrix, got shape {x.shape}")
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ShapeError(
            f"targets {y.shape} do not align with design matrix {x.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("design matrix or targets contain non-finite values")
    return x, y


def linear_fit(x: np.ndarray, y: np.ndarray, l2: float) -> LinearModel:
    """Ridge-penalized least squares in closed form; the intercept is never penalized.

    ``l2`` must be positive: the penalty is what keeps a design with more
    columns than rows solvable.
    """
    x, y = _check_xy(x, y)
    if not l2 > 0:
        raise ParameterError(f"l2 must be positive, got {l2}")
    n, p = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    gram = xa.T @ xa
    gram[np.diag_indices(p)] += l2  # in place; the intercept's entry is gram[p, p]
    try:
        weights = np.linalg.solve(gram, xa.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are singular: {exc}") from exc
    return LinearModel(coef=weights[:p, :], intercept=weights[p, :])


def linear_predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ShapeError(
            f"expected (n, {model.n_inputs}) input, got shape {x.shape}"
        )
    return x @ model.coef + model.intercept


def mlp_baseline_train(
    x: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    *,
    config: TrainConfig,
) -> tuple[Sequential, TrainResult]:
    """Fit a dense relu net on flattened input rows."""
    x, y = _check_xy(x, y)
    init_rng = rngmod.substream(seed, "mlp.init")
    sizes = (x.shape[1],) + MLP_HIDDEN + (y.shape[1],)
    layers = []
    for i in range(len(sizes) - 1):
        layers.append(Dense(sizes[i], sizes[i + 1], init_rng))
        if i < len(sizes) - 2:
            layers.append(ReLU())
    model = Sequential(layers)
    result = train_loop(
        model, x, y, config, rng=rngmod.substream(seed, "mlp.train")
    )
    return model, result
