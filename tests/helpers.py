"""Reference computations that only the tests use, kept out of the package."""

import numpy as np

from careercast.baselines import LinearModel, _check_xy, linear_predict
from careercast.errors import ParameterError, ShapeError
from careercast.ingest import (
    INPUT_AGES,
    Dataset,
    Split,
    _split_indices,
    split_and_normalize,
)
from careercast.rng import substream
from careercast.schema import default_schema
from careercast.synth import generate_block


def penalized_objective(
    model: LinearModel, x: np.ndarray, y: np.ndarray, l2: float
) -> float:
    """Sum of squared residuals plus ``l2`` times squared non-intercept weights."""
    x, y = _check_xy(x, y)
    resid = linear_predict(model, x) - y
    return float((resid**2).sum() + l2 * (model.coef**2).sum())


def purity(assignments: np.ndarray, labels) -> float:
    """Fraction of points whose cluster's majority label matches their own."""
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape or assignments.ndim != 1:
        raise ShapeError(
            f"assignments {assignments.shape} and labels {labels.shape} "
            "must be matching 1-d arrays"
        )
    if assignments.size == 0:
        raise ParameterError("purity of an empty assignment is undefined")
    total = 0
    for c in np.unique(assignments):
        _, counts = np.unique(labels[assignments == c], return_counts=True)
        total += int(counts.max())
    return total / assignments.size


def reconstruct(ae, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return ae.model.forward(x, train=False)


def reconstruction_error(ae, x: np.ndarray) -> np.ndarray:
    """Per-row mean squared reconstruction error of autoencoder ``ae``."""
    x = np.asarray(x, dtype=float)
    recon = reconstruct(ae, x)
    return np.mean((recon - x) ** 2, axis=1)


def seeded_split(careers: Split, schema, seed: int) -> Dataset:
    """``careers`` split as ``ingest_csv`` splits its careers: one draw from the
    ``ingest.split`` substream of ``seed``, handed to ``split_and_normalize``."""
    test_idx, train_idx = _split_indices(len(careers), substream(seed, "ingest.split"))
    return split_and_normalize(careers, schema, test_idx, train_idx, seed)


def generate(specs, seed: int = 0, schema=None) -> tuple[Split, np.ndarray]:
    """``synth`` careers in raw units as one unnormalized ``Split``, plus labels.

    Normalization belongs to the ingest split. Player order matches label
    order.
    """
    if schema is None:
        schema = default_schema()
    block, ids, categories, labels = generate_block(specs, seed, schema)
    n_in = len(INPUT_AGES)  # C-contiguous copies, not strided views of the block
    raw, target = block[:, :n_in].copy(), block[:, n_in:, schema.target_index].copy()
    return Split(ids, categories, raw, target), labels
