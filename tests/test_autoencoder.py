"""Career-shape autoencoder: layout, flattening, and embedding quality."""

import numpy as np
import pytest

from careercast.autoencoder import Autoencoder, ae_train, flatten_batch
from careercast.errors import ArtifactError, ShapeError
from careercast.nn import BatchNorm, Dense, Dropout, ReLU, TrainConfig
from careercast.nn.serialize import layer_from_doc, layer_to_doc
from careercast.rng import substream

from helpers import reconstruction_error


def low_rank_data(seed, n=120, dim=20, rank=5, noise=0.0):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(rank, dim))
    coeffs = rng.normal(size=(n, rank))
    x = coeffs @ basis + noise * rng.normal(size=(n, dim))
    x -= x.mean(axis=0)
    x /= x.std(axis=0)
    return x


def test_layer_layout():
    ae = Autoencoder(30, n_hidden=16, n_code=8)
    kinds = [type(l) for l in ae.model.layers]
    assert kinds == [Dense, BatchNorm, Dropout, ReLU, Dense, ReLU, Dense, ReLU, Dense]
    first, code, out = ae.model.layers[0], ae.model.layers[4], ae.model.layers[-1]
    assert (first.weight.shape, code.weight.shape) == ((16, 30), (8, 16))
    assert out.weight.shape == (30, 16)
    # encoder shares the same layer objects as the full net
    assert all(a is b for a, b in zip(ae.encoder.layers, ae.model.layers[:6]))


def test_flatten_is_age_major_and_invertible():
    stack = np.arange(24, dtype=float).reshape(2, 4, 3)
    flat = flatten_batch(stack)
    assert flat.shape == (2, 12)
    assert np.array_equal(flat[1], np.arange(12, 24, dtype=float))
    assert np.array_equal(flat.reshape(2, 4, 3), stack)

    with pytest.raises(ShapeError):
        flatten_batch(np.zeros((4, 3)))


def test_encode_shape_and_determinism():
    ae = Autoencoder(12, n_hidden=10, n_code=4, rng=substream(0, "test.ae"))
    x = np.random.default_rng(1).normal(size=(9, 12))
    codes = ae.encode(x)
    assert codes.shape == (9, 4)
    assert np.all(codes >= 0.0)  # relu output
    assert np.array_equal(codes, ae.encode(x))
    with pytest.raises(ShapeError):
        ae.encode(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        ae.encode(np.zeros(12))


def test_recovers_low_rank_structure():
    x = low_rank_data(0)
    ae, result = ae_train(x, seed=0, config=TrainConfig(max_epochs=200, patience=30))
    mse = float(np.mean(reconstruction_error(ae, x)))
    assert mse < 0.05
    assert result.best_val_loss < 0.1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_beats_untrained(seed):
    x = low_rank_data(seed + 10, n=80, dim=15)
    untrained = Autoencoder(15, rng=substream(seed, "autoencoder.init"))
    before = float(np.mean(reconstruction_error(untrained, x)))
    ae, _ = ae_train(x, seed=seed, config=TrainConfig(max_epochs=60))
    after = float(np.mean(reconstruction_error(ae, x)))
    assert after < before


def test_embeddings_separate_archetypes():
    # two blobs far apart in input space must stay separated in code space
    rng = np.random.default_rng(2)
    a = rng.normal(size=(40, 18)) * 0.3 + 4.0
    b = rng.normal(size=(40, 18)) * 0.3 - 4.0
    x = np.vstack([a, b])
    ae, _ = ae_train(x, seed=3, config=TrainConfig(max_epochs=80))
    codes = ae.encode(x)
    center_a, center_b = codes[:40].mean(axis=0), codes[40:].mean(axis=0)
    inter = float(np.linalg.norm(center_a - center_b))
    intra = max(
        float(np.linalg.norm(codes[:40] - center_a, axis=1).mean()),
        float(np.linalg.norm(codes[40:] - center_b, axis=1).mean()),
    )
    assert inter > intra


def test_doc_round_trip_preserves_encode():
    x = low_rank_data(4, n=60, dim=10)
    ae, _ = ae_train(x, seed=5, config=TrainConfig(max_epochs=20))
    loaded = layer_from_doc(Autoencoder, layer_to_doc(ae))
    assert np.array_equal(loaded.encode(x), ae.encode(x))
    assert loaded.n_code == ae.n_code
    bad = layer_to_doc(ae)
    # the net without its last layer
    del bad["arrays"]["8.weight"], bad["arrays"]["8.bias"]
    with pytest.raises(ArtifactError, match=r"lacks array\(s\) \['8.bias', '8.weight'\]"):
        layer_from_doc(Autoencoder, bad)
