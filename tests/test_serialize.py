"""Value-exact persistence of models and datasets, and the artifact envelope."""

import hashlib
import json

import numpy as np
import pytest

from careercast.artifacts import (
    DATASET,
    canonical_json,
    dataset_to_doc,
    envelope,
    load_chain,
    read_json,
    write_artifact,
    write_json,
)
from careercast.autoencoder import Autoencoder
from careercast.errors import ArtifactError
from careercast.forecaster import Forecaster, forecaster_train
from careercast.ingest import Split, ingest_csv, split_and_normalize
from careercast.nn import (
    LSTM,
    BatchNorm,
    Dense,
    Dropout,
    Layer,
    ReLU,
    Sequential,
    TrainConfig,
    layers,
)
from careercast.nn.serialize import LAYER_TYPES, layer_from_doc, layer_to_doc
from careercast.rng import substream
from careercast.schema import default_schema
from careercast.synth import default_specs, write_csv


def round_trip(layer, tmp_path):
    path = tmp_path / "model.json"
    write_json(path, layer_to_doc(layer))
    doc, _ = read_json(path)
    return layer_from_doc(doc)


def test_dense_round_trip_is_value_exact(tmp_path):
    layer = Dense(3, 2, substream(0, "test.ser"))
    # awkward doubles: a repeating fraction, a subnormal-adjacent tiny, -0.0
    layer.weight[0, 0] = 1.0 / 3.0
    layer.weight[0, 1] = 1e-300
    layer.bias[0] = -0.0
    loaded = round_trip(layer, tmp_path)
    assert np.array_equal(loaded.weight, layer.weight)
    assert np.array_equal(loaded.bias, layer.bias)
    assert np.signbit(loaded.bias[0])
    x = np.arange(12, dtype=float).reshape(4, 3) / 7.0
    assert np.array_equal(loaded.forward(x), layer.forward(x))


def test_batchnorm_round_trip_keeps_running_stats(tmp_path):
    layer = BatchNorm(4)
    rng = np.random.default_rng(1)
    layer.forward(rng.normal(size=(8, 4)), train=True)
    loaded = round_trip(layer, tmp_path)
    assert np.array_equal(loaded.running_mean, layer.running_mean)
    assert np.array_equal(loaded.running_var, layer.running_var)
    assert loaded.momentum == layer.momentum
    assert loaded.eps == layer.eps
    x = rng.normal(size=(5, 4))
    assert np.array_equal(loaded.forward(x, train=False), layer.forward(x, train=False))


def test_lstm_round_trip_reproduces_forward(tmp_path):
    layer = LSTM(5, 6, substream(2, "test.ser"))
    loaded = round_trip(layer, tmp_path)
    x = np.random.default_rng(3).normal(size=(3, 7, 5))
    assert np.array_equal(loaded.forward(x), layer.forward(x))


def test_nested_sequential_round_trip(tmp_path):
    model = Sequential(
        [
            Dense(4, 3, substream(4, "test.ser")),
            BatchNorm(3),
            Dropout(0.1),
            ReLU(),
            Dense(3, 2, substream(5, "test.ser")),
        ]
    )
    loaded = round_trip(model, tmp_path)
    assert [type(l).__name__ for l in loaded.layers] == [
        type(l).__name__ for l in model.layers
    ]
    assert loaded.layers[2].rate == 0.1
    x = np.random.default_rng(6).normal(size=(5, 4))
    assert np.array_equal(
        loaded.forward(x, train=False), model.forward(x, train=False)
    )


def test_every_leaf_layer_round_trips_config_params_and_state(tmp_path):
    """Each leaf class is in the type table and its document restores it exactly."""
    leaves = {
        cls
        for cls in vars(layers).values()
        if isinstance(cls, type) and issubclass(cls, Layer) and cls is not Layer
        and cls.children is Layer.children
    }
    assert leaves == set(LAYER_TYPES.values())
    examples = {
        Dense: Dense(3, 2),
        ReLU: ReLU(),
        BatchNorm: BatchNorm(4, momentum=0.75, eps=1e-3),
        Dropout: Dropout(0.25),
        LSTM: LSTM(2, 3),
    }
    rng = np.random.default_rng(8)
    for cls in leaves:
        layer = examples[cls]
        arrays = cls.params + cls.state
        for name in arrays:
            setattr(layer, name, rng.normal(size=getattr(layer, name).shape))
        loaded = round_trip(layer, tmp_path)
        assert type(loaded) is cls
        for name in cls.config:
            assert getattr(loaded, name) == getattr(layer, name), (cls, name)
        for name in arrays:
            before, after = getattr(layer, name), getattr(loaded, name)
            assert after.shape == before.shape and after.tobytes() == before.tobytes()


def test_save_is_byte_deterministic(tmp_path):
    doc = {"model": layer_to_doc(Dense(2, 2, substream(7, "test.ser"))), "note": "é"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    digest = write_json(a, doc)
    assert write_json(b, doc) == digest
    assert a.read_bytes() == b.read_bytes()
    # compact, key-sorted, newline-terminated, and hashed over exactly those bytes
    assert a.read_bytes() == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    assert read_json(a) == (doc, digest)


def test_envelope_carries_meta():
    doc = envelope("clusters", {"clusters": {"k": 2}, "seed": 3}, {DATASET: "abc"})
    assert doc == {
        "format": "careercast-artifact",
        "version": 1,
        "kind": "clusters",
        "inputs": {DATASET: "abc"},
        "clusters": {"k": 2},
        "seed": 3,
    }
    for key in ("format", "version", "kind", "inputs"):
        with pytest.raises(ArtifactError, match="header key"):
            envelope("clusters", {key: 1})


def test_read_json_errors(tmp_path):
    with pytest.raises(ArtifactError, match="missing artifact"):
        read_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ArtifactError, match="corrupt artifact"):
        read_json(bad)
    bad.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(ArtifactError, match="corrupt artifact"):
        read_json(bad)


def small_dataset(schema):
    """A seeded split of 20 careers whose second column is constant (and so dropped)."""
    rng = np.random.default_rng(11)
    draws = [
        (rng.normal(size=(7, schema.n_features)) * 10.0 / 3.0, rng.normal(size=3))
        for _ in range(20)
    ]
    raw = np.stack([block for block, _ in draws])
    raw[:, :, 1] = 12.5  # a constant middle column, so the kept-column mask matters
    careers = Split(
        player_ids=tuple(f"p{i:02d}" for i in range(20)),
        category=tuple(("star", "regular", None)[i % 3] for i in range(20)),
        raw=raw,
        target=np.stack([target for _, target in draws]),
    )
    return split_and_normalize(careers, schema, test_fraction=0.25, seed=2)


def test_load_chain_refuses_foreign_documents(small_schema, tmp_path):
    body = dataset_to_doc(small_dataset(small_schema))
    write_artifact(tmp_path, DATASET, body, {"../elsewhere.json": "0" * 64})
    with pytest.raises(ArtifactError, match="unknown artifact"):
        load_chain(tmp_path, [DATASET])
    write_json(tmp_path / DATASET, envelope("clusters", body))
    with pytest.raises(ArtifactError, match="'dataset' artifact.*rerun ingest"):
        load_chain(tmp_path, [DATASET])
    (tmp_path / DATASET).write_text("[]", encoding="utf-8")
    with pytest.raises(ArtifactError, match="not a careercast-artifact"):
        load_chain(tmp_path, [DATASET])


def test_dataset_round_trip_recomputes_inputs_bit_exactly(small_schema, tmp_path):
    ds = small_dataset(small_schema)
    assert ds.norm_stats.dropped == ("PTS",)
    write_artifact(tmp_path, DATASET, dataset_to_doc(ds, {"rows_parsed": 140}))
    doc = json.loads((tmp_path / DATASET).read_text())
    assert "input" not in doc["train"][0]
    loaded = load_chain(tmp_path, [DATASET])[DATASET].value

    assert loaded.seed == ds.seed and loaded.schema == ds.schema
    for attr in ("names", "dropped"):
        assert getattr(loaded.norm_stats, attr) == getattr(ds.norm_stats, attr)
    for attr in ("mean", "std"):
        assert getattr(loaded.norm_stats, attr).tobytes() == getattr(ds.norm_stats, attr).tobytes()
    for split in ("train", "test"):
        before, after = getattr(ds, split), getattr(loaded, split)
        assert after.player_ids == before.player_ids
        assert after.input.shape[1:] == (7, 3)
        for attr in ("input", "raw", "target"):
            assert getattr(after, attr).tobytes() == getattr(before, attr).tobytes()
        assert after.category == before.category


def test_dataset_document_bytes_are_pinned(tmp_path):
    """The dataset document of a small seeded pool hashes to a fixed SHA-256."""
    schema = default_schema()
    path = tmp_path / "pool.csv"
    write_csv(path, default_specs(n_star=3, n_regular=9), seed=5, schema=schema)
    ds, summary = ingest_csv(path, schema, seed=5)
    digest = hashlib.sha256(canonical_json(dataset_to_doc(ds, summary))).hexdigest()
    assert digest == "462c61387a16cb5d64cc017b51c656efdeede14b411de1ade8aaae8d6ebd4089"


def _trained_autoencoder():
    ae = Autoencoder(14, n_hidden=8, n_code=4, rng=substream(3, "test.pin"))
    x = np.random.default_rng(3).normal(size=(6, 14))
    ae.model.forward(x, train=True, rng=substream(4, "test.pin"))  # moves the running stats
    return ae


def _trained_forecaster(k):
    """A forecaster after three epochs on seeded data; k=0 is the standard model."""
    rng = np.random.default_rng(7)
    blocks = rng.normal(size=(12, 7, 3))
    targets = rng.normal(size=(12, 3))
    model, _ = forecaster_train(
        blocks,
        targets,
        assignments=np.arange(12) % 2 if k else None,
        k=k,
        seed=8,
        config=TrainConfig(max_epochs=3, patience=3, seed=8),
    )
    return model


@pytest.mark.parametrize(
    "build, digest",
    [
        (_trained_autoencoder, "2af4b20df4d753766b0f35abe663a3a74bb6b9c1f7ad83cfc9080304109d64cd"),
        (
            lambda: Forecaster(3, k=2, rng=substream(5, "test.pin")),
            "09b02f0c6ba50f54d34c19cbbcf812cc44e6b2bcc07fb2551df1e2053bb28bbb",
        ),
        (
            lambda: Forecaster(3, k=0, rng=substream(6, "test.pin")),
            "cefecccaf40089595afb991c417feaa64f6539016e1c81c9a31dcfd698847aca",
        ),
        (
            lambda: _trained_forecaster(2),
            "796b4c32e1a96545fc9d4e6d8bc1338f9fa7ad44c77758fc76886e5a8746e5cf",
        ),
        (
            lambda: _trained_forecaster(0),
            "6d8d6ddf7408c5e00659f6fca8507005a3a845baa7ace26ee8863a33703d5091",
        ),
    ],
    ids=[
        "autoencoder",
        "forecaster-k2",
        "forecaster-k0",
        "trained-forecaster-k2",
        "trained-forecaster-k0",
    ],
)
def test_model_document_bytes_are_pinned(build, digest):
    """Seeded model documents hash to fixed SHA-256s, so no saved model byte moves."""
    assert hashlib.sha256(canonical_json(build().to_doc())).hexdigest() == digest


def test_unknown_layer_types_are_rejected():
    with pytest.raises(ArtifactError, match="cannot serialize"):
        layer_to_doc(object())
    with pytest.raises(ArtifactError, match="unknown layer type"):
        layer_from_doc({"type": "mystery"})
