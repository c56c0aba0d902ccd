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
from careercast.nn.serialize import (
    LAYER_TYPES,
    decode_f8,
    encode_f8,
    layer_from_doc,
    layer_to_doc,
)
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


def test_f8_encoding_keeps_every_bit():
    values = np.array(
        [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 1.0 / 3.0]
    )
    for arr in (values, values.reshape(2, 4)[:, ::-1], np.zeros((0, 3))):
        back = decode_f8(encode_f8(arr), "probe")
        assert back.shape == (arr.size,) and back.dtype == np.float64
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()
        assert np.array_equal(back, arr.ravel(), equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(arr.ravel()))
        # owned and writeable, not a read-only view of the decoded bytes
        assert back.flags.owndata and back.flags.writeable
    assert encode_f8(np.zeros(0)) == ""


@pytest.mark.parametrize(
    "text, reason",
    [
        ("AAAA AAAAAAA=", "Only base64 data is allowed"),
        ("AAAAé", "contain only ASCII characters"),
        ("AAAAAAAAAA==", "buffer size must be a multiple of element size"),
        ([0.5, 1.5], "bytes-like object or ASCII string, not 'list'"),
    ],
    ids=["not-base64", "not-ascii", "partial-value", "decimal-list"],
)
def test_f8_decoding_refuses_malformed_text(text, reason):
    with pytest.raises(ArtifactError) as refusal:
        decode_f8(text, "probe")
    assert str(refusal.value).startswith("probe is not base64 of whole float64 values: ")
    assert reason in str(refusal.value)


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
        "version": 2,
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
    assert digest == "19f170b690b61746a1a8e37f6a5ee086bb1a5ee97506a8c2e2d28cd3e8e3bb29"


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
        (_trained_autoencoder, "d567dca34471f1192e70734a8fce9a3a5855dc78dee30cb54050dc17ab2f152a"),
        (
            lambda: Forecaster(3, k=2, rng=substream(5, "test.pin")),
            "749f73e314256cc94a9e36b24d6397cee940fc65a8e3199698462b96079c1cc5",
        ),
        (
            lambda: Forecaster(3, k=0, rng=substream(6, "test.pin")),
            "e375354d2bafcaae57164fe073f299413685a378565fdce212c9b026acce7ef6",
        ),
        (
            lambda: _trained_forecaster(2),
            "59de4b6a9f7447e627c3aaf62e2a7891eff2511c67b5131661adb82dca5006a0",
        ),
        (
            lambda: _trained_forecaster(0),
            "57c7682151277225d823dc0d8c204b37af9d35e35c527b0de5983b33acbc985d",
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
