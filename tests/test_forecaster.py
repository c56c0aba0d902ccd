"""Sequence forecaster: conditioning wiring, invariances, and training."""

import numpy as np
import pytest

from careercast.errors import ConfigError, ParameterError, ShapeError
from careercast.forecaster import Forecaster, cluster_indicators, forecaster_train
from careercast.nn import TrainConfig
from careercast.nn.serialize import layer_from_doc, layer_to_doc
from careercast.rng import substream


def seeded_blocks(seed, n=6, steps=7, features=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, steps, features))


def test_head_widths():
    plain = Forecaster(5, k=0)
    conditioned = Forecaster(5, k=3)
    assert plain.head.layers[0].weight.shape == (32, 64)
    assert conditioned.head.layers[0].weight.shape == (32, 67)
    assert conditioned.head.layers[-1].weight.shape == (3, 16)
    with pytest.raises(ConfigError):
        Forecaster(5, k=-1)


def test_cluster_columns_start_at_zero():
    model = Forecaster(4, k=3, rng=substream(0, "test.fc"))
    assert np.all(model.head.layers[0].weight[:, 64:] == 0.0)
    assert np.any(model.head.layers[0].weight[:, :64] != 0.0)


def test_conditioned_model_starts_as_the_plain_one():
    # same init stream, k=0 vs k=2: predictions must agree exactly before
    # training, so any later gap is attributable to the conditioning signal
    plain = Forecaster(4, k=0, rng=substream(1, "test.fc"))
    conditioned = Forecaster(4, k=2, rng=substream(1, "test.fc"))
    assert np.array_equal(plain.lstm.w_input, conditioned.lstm.w_input)
    assert np.array_equal(
        plain.head.layers[0].weight, conditioned.head.layers[0].weight[:, :64]
    )
    blocks = seeded_blocks(2)
    onehot = np.zeros((len(blocks), 2))
    onehot[np.arange(len(blocks)), np.arange(len(blocks)) % 2] = 1.0
    assert np.allclose(
        conditioned.forward((blocks, onehot)), plain.forward((blocks, np.zeros((6, 0)))),
        rtol=0.0, atol=1e-12,
    )


def test_cluster_swap_symmetry():
    # permuting cluster identities while permuting the matching one-hot
    # columns must leave predictions unchanged
    model = Forecaster(4, k=2, rng=substream(3, "test.fc"))
    first = model.head.layers[0]
    first.weight[:, 64:] = np.random.default_rng(4).normal(size=(32, 2)) * 0.3

    blocks = seeded_blocks(5)
    labels = np.array([0, 1, 0, 1, 1, 0])
    base = model.predict_batch(blocks, labels)

    swapped = layer_from_doc(Forecaster, layer_to_doc(model))
    w = swapped.head.layers[0].weight
    w[:, [64, 65]] = w[:, [65, 64]]
    assert np.allclose(swapped.predict_batch(blocks, 1 - labels), base, atol=1e-12)


def test_input_validation():
    model = Forecaster(4, k=2)
    blocks = seeded_blocks(8)
    with pytest.raises(ConfigError):
        model.predict_batch(blocks)  # conditioned model needs assignments
    with pytest.raises(ShapeError):
        model.forward(blocks)  # missing the one-hot half
    with pytest.raises(ShapeError):
        model.forward((blocks, np.zeros((6, 3))))  # k mismatch
    plain = Forecaster(4, k=0)
    with pytest.raises(ConfigError):
        plain.predict_batch(blocks, np.zeros(6, dtype=int))
    with pytest.raises(ShapeError):
        plain.forward((seeded_blocks(9, features=5), np.zeros((6, 0))))  # feature width
    with pytest.raises(ShapeError):
        plain.forward(blocks)  # a bare block, even at k=0
    with pytest.raises(ShapeError):
        plain.forward((blocks, np.zeros((6, 1))))  # indicator columns at k=0


def test_cluster_indicators():
    out = cluster_indicators(np.array([2, 0, 1]), 3, 3)
    assert np.array_equal(out, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float))
    empty = cluster_indicators(np.array([], dtype=int), 2, 0)
    assert empty.dtype == float and np.array_equal(empty, np.zeros((0, 2)))
    with pytest.raises(ParameterError):
        cluster_indicators(np.array([0, 3]), 3, 2)
    with pytest.raises(ParameterError):
        cluster_indicators(np.array([-1]), 2, 1)
    with pytest.raises(ShapeError):
        cluster_indicators(np.zeros((2, 2), dtype=int), 2, 2)


def test_training_reduces_loss_and_fits_constants():
    blocks = seeded_blocks(10, n=40)
    targets = np.tile(np.array([0.5, -0.3, 0.2]), (40, 1))
    model, result = forecaster_train(
        blocks, targets, seed=0, config=TrainConfig(max_epochs=400, patience=400)
    )
    assert result.train_loss[-1] < result.train_loss[0]
    assert result.train_loss[-1] < 0.05
    pred = model.predict_batch(blocks)
    assert np.abs(pred - targets).mean() < 0.3


def test_forecaster_train_validation():
    blocks = seeded_blocks(11, n=5)
    targets = np.zeros((5, 3))
    with pytest.raises(ShapeError):
        forecaster_train(blocks, np.zeros((5, 2)))
    with pytest.raises(ConfigError):
        forecaster_train(blocks, targets, k=2)  # no assignments
    with pytest.raises(ConfigError):
        forecaster_train(blocks, targets, assignments=np.zeros(5, dtype=int), k=0)
    with pytest.raises(ShapeError):
        forecaster_train(
            blocks, targets, assignments=np.zeros(3, dtype=int), k=2
        )


def test_doc_round_trip_is_prediction_exact():
    blocks = seeded_blocks(12, n=8)
    targets = np.random.default_rng(13).normal(size=(8, 3))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    model, _ = forecaster_train(
        blocks,
        targets,
        assignments=labels,
        k=3,
        seed=1,
        config=TrainConfig(max_epochs=5),
    )
    loaded = layer_from_doc(Forecaster, layer_to_doc(model))
    assert loaded.k == 3 and loaded.n_features == 4
    assert np.array_equal(
        loaded.predict_batch(blocks, labels), model.predict_batch(blocks, labels)
    )
