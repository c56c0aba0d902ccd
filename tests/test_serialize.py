"""Value-exact persistence of models and datasets, and the artifact envelope."""

import csv
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from careercast import cli
from careercast.artifacts import (
    DATASET,
    WRITE_BATCH,
    dataset_to_doc,
    envelope,
    load_chain,
    normalize,
    read_json,
    write_artifact,
    write_json,
)
from careercast.autoencoder import Autoencoder
from careercast.errors import ArtifactError
from careercast.forecaster import Forecaster, forecaster_train
from careercast.ingest import INPUT_AGES, Split, ingest_csv
from careercast.nn import BatchNorm, Layer, TrainConfig, layers
from careercast.nn.serialize import decode_f8, encode_f8, layer_from_doc, layer_to_doc
from careercast.rng import substream
from careercast.schema import default_schema
from careercast.synth import default_specs, write_csv

from helpers import seeded_split


def round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    write_json(path, layer_to_doc(model))
    doc, _ = read_json(path)
    return layer_from_doc(type(model), doc)


def test_dense_round_trip_is_value_exact(tmp_path):
    model = Forecaster(3, k=0, rng=substream(0, "test.ser"))
    layer = model.head.layers[0]
    # awkward doubles: a repeating fraction, a subnormal-adjacent tiny, -0.0
    layer.weight[0, 0] = 1.0 / 3.0
    layer.weight[0, 1] = 1e-300
    layer.bias[0] = -0.0
    loaded = round_trip(model, tmp_path).head.layers[0]
    assert np.array_equal(loaded.weight, layer.weight)
    assert np.array_equal(loaded.bias, layer.bias)
    assert np.signbit(loaded.bias[0])
    x = np.arange(256, dtype=float).reshape(4, 64) / 7.0
    assert np.array_equal(loaded.forward(x), layer.forward(x))


def test_batchnorm_round_trip_keeps_running_stats(tmp_path):
    ae = Autoencoder(4, n_hidden=4, n_code=2, rng=substream(1, "test.ser"))
    rng = np.random.default_rng(1)
    ae.model.forward(rng.normal(size=(8, 4)), train=True, rng=rng)
    layer = ae.model.layers[1]
    loaded = round_trip(ae, tmp_path).model.layers[1]
    assert isinstance(loaded, BatchNorm)
    assert np.array_equal(loaded.running_mean, layer.running_mean)
    assert np.array_equal(loaded.running_var, layer.running_var)
    assert loaded.momentum == layer.momentum
    assert loaded.eps == layer.eps
    x = rng.normal(size=(5, 4))
    assert np.array_equal(loaded.forward(x, train=False), layer.forward(x, train=False))


def test_lstm_round_trip_reproduces_forward(tmp_path):
    model = Forecaster(5, k=0, rng=substream(2, "test.ser"))
    loaded = round_trip(model, tmp_path)
    x = np.random.default_rng(3).normal(size=(3, 7, 5))
    assert np.array_equal(loaded.lstm.forward(x), model.lstm.forward(x))


def test_nested_sequential_round_trip(tmp_path):
    ae = Autoencoder(4, n_hidden=3, n_code=2, dropout_rate=0.1, rng=substream(4, "test.ser"))
    loaded = round_trip(ae, tmp_path)
    assert [type(l).__name__ for l in loaded.model.layers] == [
        type(l).__name__ for l in ae.model.layers
    ]
    assert loaded.model.layers[2].rate == 0.1
    assert all(a is b for a, b in zip(loaded.encoder.layers, loaded.model.layers))
    x = np.random.default_rng(6).normal(size=(5, 4))
    assert np.array_equal(
        loaded.model.forward(x, train=False), ae.model.forward(x, train=False)
    )
    assert np.array_equal(loaded.encode(x), ae.encode(x))


def _leaf_types(layer):
    children = layer.children()
    if not children:
        return {type(layer)}
    return set().union(*(_leaf_types(child) for _, child in children))


def test_persisted_models_round_trip_every_array_bit_exactly(tmp_path):
    """Both persisted models, between them holding every leaf layer class, come back
    with their config values and every randomized param and running stat bit for bit."""
    models = [
        Autoencoder(14, n_hidden=8, n_code=4, dropout_rate=0.25),
        Forecaster(3, k=2),
    ]
    leaves = {
        cls
        for cls in vars(layers).values()
        if isinstance(cls, type) and issubclass(cls, Layer) and cls is not Layer
        and cls.children is Layer.children
    }
    assert set().union(*map(_leaf_types, models)) == leaves
    rng = np.random.default_rng(8)
    for model in models:
        arrays = model.param_items() + model.state_items()
        for _, arr in arrays:
            arr[...] = rng.normal(size=arr.shape)
        loaded = round_trip(model, tmp_path)
        assert type(loaded) is type(model)
        for name in model.config:
            assert getattr(loaded, name) == getattr(model, name), name
        after = loaded.param_items() + loaded.state_items()
        assert [name for name, _ in after] == [name for name, _ in arrays]
        for (name, before), (_, back) in zip(arrays, after):
            assert back.shape == before.shape and back.tobytes() == before.tobytes(), name


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
    model = Autoencoder(2, n_hidden=2, n_code=1, rng=substream(7, "test.ser"))
    doc = {"model": layer_to_doc(model), "note": "é"}
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
        "version": 4,
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
    return normalize(seeded_split(careers, schema, 2))


def test_load_chain_refuses_foreign_documents(small_schema, tmp_path):
    body = dataset_to_doc(small_dataset(small_schema), {})
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
    assert loaded.train.input is None and loaded.test.input is None  # commands normalize
    loaded = normalize(loaded)

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


def written_sha256(path, doc) -> str:
    """SHA-256 of the bytes ``write_json`` writes for ``doc``, its final newline left out."""
    write_json(path, doc)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    return hashlib.sha256(data[:-1]).hexdigest()


def test_dataset_document_bytes_are_pinned(tmp_path):
    """The dataset document of a small seeded pool hashes to a fixed SHA-256."""
    schema = default_schema()
    path = tmp_path / "pool.csv"
    write_csv(path, default_specs(n_star=3, n_regular=9), seed=5, schema=schema)
    ds, summary = ingest_csv(path, schema, seed=5)
    digest = written_sha256(tmp_path / DATASET, dataset_to_doc(ds, summary))
    assert digest == "37fac27b59c0bb8ae6660e13ffb534d44e9560f5426fb1c004794ebabf7d2c91"


def write_gappy_pool(path, seed):
    """A seeded 40-player pool with about 10% of its input-age feature cells
    blanked and one input-age row deleted for every fifth player."""
    write_csv(path, default_specs(n_star=8, n_regular=32), seed=seed)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    rng = random.Random(seed)
    players = sorted({row["player_id"] for row in rows})
    deleted = {(pid, str(rng.choice(INPUT_AGES))) for pid in players[::5]}
    kept = [row for row in rows if (row["player_id"], row["age"]) not in deleted]
    features = default_schema().names
    for row in kept:
        if int(row["age"]) in INPUT_AGES:
            for name in features:
                if rng.random() < 0.1:
                    row[name] = ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(kept)


@pytest.fixture(scope="module")
def gappy_run(tmp_path_factory):
    """A whole small pipeline, ``ingest`` through ``evaluate``, on a gappy pool."""
    out = tmp_path_factory.mktemp("gappy")
    write_gappy_pool(out / "pool.csv", seed=4)
    config = out / "config.json"
    blocks = {"autoencoder": {"max_epochs": 2}, "forecaster": {"max_epochs": 2}}
    config.write_text(json.dumps({**blocks, "k_range": [2, 3], "kmeans_restarts": 2}))
    base = ["--config", str(config), "--out", str(out), "--seed", "4"]
    for argv in (
        ["ingest", "--input", str(out / "pool.csv")], ["stage1"], ["stage2"],
        ["stage2", "--standard"], ["evaluate", "--models", "proposed", "last_value"],
    ):
        assert cli.main([*argv, *base]) == 0, argv
    return out


def test_gappy_dataset_bytes_are_pinned(gappy_run):
    """The gappy pool's dataset.json hashes to a fixed SHA-256, so neither the
    seeded split nor the train-only imputation moved."""
    digest = hashlib.sha256((gappy_run / DATASET).read_bytes()).hexdigest()
    assert digest == "8178870b5c71cc2d50d7befc7bba31f00511d366d1a341dd02b2387e066c82e9"


@pytest.mark.parametrize(
    "name",
    [DATASET, "autoencoder.json", "clusters.json", "forecaster.json",
     "forecaster_standard.json", "reports/evaluation.json"],
)
def test_write_json_writes_the_one_shot_text(gappy_run, tmp_path, name):
    """Streamed in batches or not, a pipeline document's file is its compact,
    key-sorted ``json.dumps`` text plus a newline, hashed over exactly those bytes."""
    doc = json.loads((gappy_run / name).read_text(encoding="utf-8"))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if name == DATASET:
        assert doc["summary"]["imputed_cells"]
        assert len(text) > 2 * WRITE_BATCH
    path = tmp_path / "doc.json"
    digest = write_json(path, doc)
    assert path.read_bytes() == text.encode("utf-8")
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_write_json_holds_no_whole_copy_of_the_document(tmp_path):
    """Writing a document of over 1 MB allocates less than half the file's size."""
    doc = {"players": [{"id": i, "raw": encode_f8(np.arange(336.0) + i)} for i in range(400)]}
    path = tmp_path / "big.json"
    write_json(path, doc)  # first-call set-up is not the document
    tracemalloc.start()
    try:
        write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < size / 2, (peak, size)


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
        config=TrainConfig(max_epochs=3, patience=3),
    )
    return model


# seeded models, built without reading any document
MODEL_BUILDS = {
    "autoencoder": _trained_autoencoder,
    "forecaster-k2": lambda: Forecaster(3, k=2, rng=substream(5, "test.pin")),
    "forecaster-k0": lambda: Forecaster(3, k=0, rng=substream(6, "test.pin")),
    "trained-forecaster-k2": lambda: _trained_forecaster(2),
    "trained-forecaster-k0": lambda: _trained_forecaster(0),
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("autoencoder", "044f038041217f623382a76419c92d9102c696cd54f0b77b016cfd7a165a51ad"),
        ("forecaster-k2", "9dc1bf7173eb9acac9046ddce5c2e2256045e65110daa56abf67a65764d6701f"),
        ("forecaster-k0", "e7fd4ce5ae037503e10389cc2091860a7af8bf7633f30c7b65bba5b1fde59f65"),
        (
            "trained-forecaster-k2",
            "5459251802d0ec0e8bed4b3ef13bb972cc80fd78f3ad95034eeda3f16c6c5e8a",
        ),
        (
            "trained-forecaster-k0",
            "ecc3840329007f58f8dcc66fa21235242ad961a4bd2a07f61364fb8ebecc31cf",
        ),
    ],
    ids=list(MODEL_BUILDS),
)
def test_model_array_values_are_pinned(name, digest):
    """The seeded models' array bytes, in ``param_items`` then ``state_items`` order,
    hash to fixed SHA-256s: a pin on the values that no document format enters."""
    model = MODEL_BUILDS[name]()
    net = model.model if isinstance(model, Autoencoder) else model
    sha = hashlib.sha256()
    for _, arr in net.param_items() + net.state_items():
        sha.update(arr.tobytes())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("autoencoder", "6aafdcefb1d39840f4a0408be3bf28703edb2949c98e8beb04adeea1fe41f61d"),
        ("forecaster-k2", "6d4da2856d7d52bddead2fce2206608bcd7d59b19e5faf01e1d6ccfc416a7ac2"),
        ("forecaster-k0", "e14f44ed3ab614f899364fd58c833d3dadbfa4e89f01fc7a50fea710c455613b"),
        (
            "trained-forecaster-k2",
            "e80a0e7893385b6c6d4e84bf3a16bd1bc7d086e1a53ce03ab0bc0489a7de61ee",
        ),
        (
            "trained-forecaster-k0",
            "1ba32a49a37e76fa11fe7788f357b8d3457520f701e470482a350aa8afb311d7",
        ),
    ],
    ids=list(MODEL_BUILDS),
)
def test_model_document_bytes_are_pinned(tmp_path, name, digest):
    """Seeded model documents hash to fixed SHA-256s, so no saved model byte moves."""
    doc = layer_to_doc(MODEL_BUILDS[name]())
    assert written_sha256(tmp_path / "model.json", doc) == digest
