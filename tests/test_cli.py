"""End-to-end command-line pipeline on a small synthetic pool."""

import base64
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import careercast
from careercast import artifacts
from careercast.cli import READS, _proposed, main
from careercast.config import MODEL_NAMES
from careercast.ingest import INPUT_AGES
from careercast.nn.serialize import decode_f8, encode_f8
from careercast.nn.training import _flatten
from careercast.schema import default_schema
from careercast.synth import default_specs, write_csv

from helpers import bound_pairs, generate

SMALL_CONFIG = {
    "autoencoder": {"max_epochs": 8},
    "forecaster": {"max_epochs": 8},
    "k_range": [2, 4],
    "kmeans_restarts": 4,
}

ARTIFACTS = [
    "synthetic.csv",
    "dataset.json",
    "autoencoder.json",
    "clusters.json",
    "forecaster.json",
    "forecaster_standard.json",
    "reports/comparison.csv",
    "reports/per_category.csv",
    "reports/evaluation.json",
    "reports/silhouette.csv",
]


SEASON_HEADER = ",".join(["player_id", "player_name", "season", "age", *default_schema().names])


def write_rows_csv(path, block, ages=INPUT_AGES, player_ids=None):
    """A season CSV of ``block``'s feature rows at ``ages``, one player unless
    ``player_ids`` names each row's."""
    player_ids = player_ids or ["p1"] * len(ages)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SEASON_HEADER + "\n")
        for pid, age, row in zip(player_ids, ages, block):
            fh.write(",".join([pid, "P", str(1980 + age), str(age), *map(str, row)]) + "\n")


def run_pipeline(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    base = ["--config", str(config), "--out", str(out_dir), "--seed", "0"]
    steps = [
        ["synth", *base, "--stars", "10", "--regulars", "40"],
        ["ingest", *base, "--input", str(out_dir / "synthetic.csv")],
        ["stage1", *base],
        ["stage2", *base],
        ["stage2", *base, "--standard"],
        ["evaluate", *base],
    ]
    for argv in steps:
        rc = main(argv)
        assert rc == 0, f"{argv[0]} exited {rc}"
    return base


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli") / "run"
    base = run_pipeline(out_dir)
    return out_dir, base


def test_all_artifacts_exist(pipeline):
    out_dir, _ = pipeline
    for rel in ARTIFACTS + ["run_info.json"]:
        assert (out_dir / rel).is_file(), rel
    header, *rows = (out_dir / "reports" / "comparison.csv").read_text().strip().split("\n")
    assert header == "model,train_mae,train_r2,test_mae,test_r2,n_train,n_test"
    assert [r.split(",")[0] for r in rows] == [
        "proposed", "standard_lstm", "last_value", "linear", "ridge", "mlp",
    ]
    for model in ("proposed", "last_value"):
        for suffix in ("curves_player", "curves_category", "scatter"):
            assert (out_dir / "reports" / f"{model}_{suffix}.csv").is_file()


def test_evaluation_json_structure(pipeline):
    out_dir, _ = pipeline
    doc = json.loads((out_dir / "reports" / "evaluation.json").read_text())
    models = doc["models"]
    assert set(models) == {"proposed", "standard_lstm", "last_value", "linear", "ridge", "mlp"}
    block = models["proposed"]["test"]["overall"]
    assert set(block) == {"mae", "r2", "n"}
    assert block["n"] == 10  # 50 players at the default 0.2 test fraction
    cats = models["proposed"]["test"]["per_category"]
    assert set(cats) <= {"star", "regular"}


def test_rerun_is_byte_identical(pipeline, tmp_path):
    out_dir, _ = pipeline
    again = tmp_path / "again"
    run_pipeline(again)
    for rel in ARTIFACTS:
        a = (out_dir / rel).read_bytes()
        b = (again / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"


@pytest.mark.parametrize(
    "name", ["autoencoder.json", "forecaster.json", "forecaster_standard.json"]
)
def test_model_artifacts_carry_loss_curves(pipeline, name):
    out_dir, _ = pipeline
    train = json.loads((out_dir / name).read_text())["train"]
    assert len(train["train_loss"]) == train["stopped_epoch"]
    assert len(train["val_loss"]) == train["stopped_epoch"]
    assert train["val_loss"][train["best_epoch"] - 1] == train["best_val_loss"]


def test_stage2_requires_stage1(tmp_path, capsys):
    out = tmp_path / "partial"
    out.mkdir()
    base = ["--out", str(out), "--seed", "0"]
    assert main(["synth", *base, "--stars", "3", "--regulars", "12"]) == 0
    assert main(["ingest", *base, "--input", str(out / "synthetic.csv")]) == 0
    rc = main(["stage2", *base])
    assert rc == 2
    assert "stage1" in capsys.readouterr().err


def test_tampered_dataset_is_refused(pipeline, tmp_path, capsys):
    out_dir, _ = pipeline
    copy = tmp_path / "tampered"
    shutil.copytree(out_dir, copy)
    with open(copy / "dataset.json", "a", encoding="utf-8") as fh:
        fh.write("\n")  # same JSON, different bytes, different hash
    rc = main(["stage2", "--out", str(copy), "--seed", "0"])
    assert rc == 2
    assert "hash mismatch" in capsys.readouterr().err


CHAINED = [
    "dataset.json",
    "autoencoder.json",
    "clusters.json",
    "forecaster.json",
    "forecaster_standard.json",
]


def break_link(out_dir, consumer, upstream):
    """Give ``consumer`` a wrong hash for ``upstream``; reseal everything built on it.

    Only the one link is then broken: every other recorded hash matches.
    """

    def rewrite(name, key, digest):
        doc = json.loads((out_dir / name).read_text())
        doc["inputs"][key] = digest
        new = artifacts.write_json(out_dir / name, doc)
        for other in CHAINED:
            if name in json.loads((out_dir / other).read_text())["inputs"]:
                rewrite(other, name, new)

    rewrite(consumer, upstream, "0" * 64)


@pytest.mark.parametrize(
    "consumer, upstream, commands",
    [
        ("autoencoder.json", "dataset.json", ("stage2", "evaluate", "predict")),
        ("clusters.json", "dataset.json", ("stage2", "evaluate", "predict")),
        ("clusters.json", "autoencoder.json", ("stage2", "evaluate", "predict")),
        ("forecaster.json", "dataset.json", ("evaluate", "predict")),
        ("forecaster.json", "clusters.json", ("evaluate", "predict")),
        ("forecaster_standard.json", "dataset.json", ("evaluate",)),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(v),
)
def test_every_hash_link_is_checked(pipeline, tmp_path, capsys, consumer, upstream, commands):
    out_dir, _ = pipeline
    copy = tmp_path / "link"
    shutil.copytree(out_dir, copy)
    break_link(copy, consumer, upstream)
    extra = {"predict": ["--player", "syn0000"]}
    for command in commands:
        rc = main([command, "--out", str(copy), "--seed", "0", *extra.get(command, [])])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert f"{consumer} was built from a different {upstream} (hash mismatch)" in err


def parent_format(name, doc):
    """The same artifact in the layout written before the shared envelope."""
    body = {k: v for k, v in doc.items() if k not in ("format", "version", "kind", "inputs")}
    if name == "dataset.json":
        return {"format": "careercast-dataset", "version": 1, **body}
    if name == "clusters.json":
        return {"format": "careercast-clusters", "version": 1, "meta": {}, **body}
    return {
        "format": "careercast-model",
        "version": 1,
        "kind": "career-embedder",
        "meta": {},
        "model": body["model"],
    }


@pytest.mark.parametrize("name", ["dataset.json", "autoencoder.json", "clusters.json"])
def test_parent_format_artifact_is_refused(pipeline, tmp_path, capsys, name):
    out_dir, _ = pipeline
    copy = tmp_path / "old"
    shutil.copytree(out_dir, copy)
    doc = json.loads((copy / name).read_text())
    artifacts.write_json(copy / name, parent_format(name, doc))
    rc = main(["stage2", "--out", str(copy), "--seed", "0"])
    assert rc == 2
    assert "not a careercast-artifact v4" in capsys.readouterr().err


def as_v1(node):
    """``node`` as format version 1 wrote it: every array a list of decimal floats."""
    if isinstance(node, list):
        return [as_v1(v) for v in node]
    if not isinstance(node, dict):
        return node
    node = {key: as_v1(value) for key, value in node.items()}
    if "f8" in node:
        node["data"] = decode_f8(node.pop("f8"), "f8").tolist()
    if "raw_input" in node:
        node["raw_input"] = decode_f8(node["raw_input"], "raw").reshape(7, -1).tolist()
        node["target"] = decode_f8(node["target"], "target").tolist()
    if "version" in node:
        node["version"] = 1
    return node


def as_v2(doc):
    """A forecaster document as version 2 wrote it: a tree of typed layer documents,
    each with its own constructor values beside its arrays."""
    model = doc["model"]
    arrays = model.pop("arrays")

    def layer(kind, prefix, **config):
        own = {n[len(prefix):]: a for n, a in arrays.items() if n.startswith(prefix)}
        return {"type": kind, **config, **own}

    widths = [64 + model["k"], 32, 16, 3]
    dense = [layer("dense", f"head.{2 * i}.", n_in=a, n_out=b)
             for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    relu = {"type": "relu"}
    model["lstm"] = layer("lstm", "lstm.", n_in=model["n_features"], n_hidden=64)
    model["head"] = {"type": "sequential", "layers": [dense[0], relu, dense[1], relu, dense[2]]}
    return {**doc, "version": 2}


def as_v3(doc):
    """A dataset document as version 3 wrote it: its normalization statistics
    stored beside the careers, and no imputed-cell counts in its summary."""
    stats = artifacts.dataset_from_doc(doc).norm_stats
    norm_stats = {"names": list(stats.names), "mean": stats.mean.tolist(),
                  "std": stats.std.tolist(), "dropped": list(stats.dropped)}
    summary = {k: v for k, v in doc["summary"].items() if k != "imputed_cells"}
    return {**doc, "version": 3, "norm_stats": norm_stats, "summary": summary}


@pytest.mark.parametrize(
    "name, kind, rerun, version",
    [
        ("dataset.json", "dataset", "ingest", 1),
        ("forecaster.json", "forecaster", "stage2", 1),
        ("forecaster.json", "forecaster", "stage2", 2),
        ("dataset.json", "dataset", "ingest", 3),
    ],
    ids=["dataset.json-dataset-ingest", "forecaster.json-forecaster-stage2",
         "forecaster.json-layer-tree-v2", "dataset.json-norm-stats-v3"],
)
def test_v1_artifact_is_refused(pipeline, tmp_path, capsys, name, kind, rerun, version):
    """An artifact of decimal lists, as version 1 wrote it, a model as a tree of
    typed layer documents, as version 2 wrote it, or a dataset with stored
    normalization statistics, as version 3 wrote it, is refused by its header,
    not read."""
    out_dir, _ = pipeline
    copy = tmp_path / "old"
    shutil.copytree(out_dir, copy)
    doc = json.loads((copy / name).read_text())
    if version == 1:
        doc = as_v1(doc)
        assert "f8" not in json.dumps(doc)
    elif version == 2:
        doc = as_v2(doc)
        assert [l["type"] for l in doc["model"]["head"]["layers"]][-1] == "dense"
        assert not any("." in key for key in doc["model"]["lstm"])
    else:
        doc = as_v3(doc)
        assert len(doc["norm_stats"]["mean"]) == 48
    artifacts.write_json(copy / name, doc)
    rc = main(["predict", "--out", str(copy), "--seed", "0", "--player", "syn0000"])
    assert rc == 2
    assert (
        f"{copy / name}: not a careercast-artifact v4 {kind!r} artifact (found format, "
        f"version, kind ['careercast-artifact', {version}, {kind!r}]); rerun {rerun}"
    ) in capsys.readouterr().err


def malformed(doc, case):
    """``doc`` without a body key, or with its train split or its first train
    career broken, in one way."""
    first = doc["train"][0]
    raw = decode_f8(first["raw_input"], "raw_input").reshape(7, -1)
    if case.startswith("no "):
        del doc[case[3:]]
    elif case == "empty train":
        doc["train"] = []
    elif case == "ragged row":
        first["raw_input"] = encode_f8(np.concatenate([raw[0, :-1], raw[1:].ravel()]))
    elif case == "47 columns":
        first["raw_input"] = encode_f8(raw[:, :-1])
    elif case == "6 rows":
        first["raw_input"] = encode_f8(raw[:-1])
    else:
        first["target"] = encode_f8(decode_f8(first["target"], "target")[:2])
    return doc


# each malformed case -> the refusal it must reach
MALFORMED = {
    "ragged row": "train raw_input holds [335, 336] values a player, expected (7, 48)",
    "47 columns": "train raw_input holds [329, 336] values a player, expected (7, 48)",
    "6 rows": "train raw_input holds [288, 336] values a player, expected (7, 48)",
    "2 targets": "train target holds [2, 3] values a player, expected (3,)",
    "empty train": "train split is empty; no statistics to normalize with",
    "no schema": "KeyError('schema')",
    "no seed": "KeyError('seed')",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_dataset_is_a_data_error(pipeline, tmp_path, capsys, case):
    out_dir, _ = pipeline
    copy = tmp_path / "malformed"
    shutil.copytree(out_dir, copy)
    doc = json.loads((copy / "dataset.json").read_text())
    artifacts.write_json(copy / "dataset.json", malformed(doc, case))
    rc = main(["stage1", "--config", str(copy / "config.json"), "--out", str(copy)])
    assert rc == 2
    assert f"dataset.json: corrupt artifact: {MALFORMED[case]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, reason",
    [
        ("nan centroid", "centroids contain non-finite values"),
        ("extra centroid row", "centroids have shape ({k1}, {d}), expected ({k}, d)"),
        ("fractional assignment", "train_assignments are not integral labels in [0, {k})"),
        ("assignment k", "train_assignments are not integral labels in [0, {k})"),
        ("k missing from trace", "silhouette_by_k has no score for k = {k}"),
        ("k zero", "k is 0, not an integer of at least 1"),
    ],
    ids=["nan-centroid", "extra-centroid-row", "fractional-assignment", "assignment-k",
         "k-missing-from-trace", "k-zero"],
)
def test_malformed_clusters_are_refused(pipeline, tmp_path, capsys, case, reason):
    out_dir, _ = pipeline
    copy = tmp_path / "clusters"
    shutil.copytree(out_dir, copy)
    doc = json.loads((copy / "clusters.json").read_text())
    clusters = doc["clusters"]
    k, d = clusters["k"], len(clusters["centroids"][0])
    if case == "nan centroid":
        clusters["centroids"][0][0] = float("nan")
    elif case == "extra centroid row":
        clusters["centroids"].append(clusters["centroids"][0])
    elif case == "fractional assignment":
        clusters["train_assignments"][0] = 1.5
    elif case == "assignment k":
        clusters["train_assignments"][0] = k
    elif case == "k missing from trace":
        del clusters["silhouette_by_k"][str(k)]
    else:
        clusters["k"] = 0
    # json.dumps writes NaN as the bare token Python's json reads back
    (copy / "clusters.json").write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["stage2", "--config", str(copy / "config.json"), "--out", str(copy)])
    assert rc == 2
    reason = reason.format(k=k, k1=k + 1, d=d)
    assert f"clusters.json: corrupt artifact: {reason}; rerun stage1" in capsys.readouterr().err
    assert (copy / "forecaster.json").read_bytes() == (out_dir / "forecaster.json").read_bytes()


@pytest.mark.parametrize(
    "case, warning",
    [
        ("duplicate", "duplicate season for player syn0000 age 22; keeping first row"),
        ("constant", "dropping constant train feature(s) before normalization: G"),
    ],
)
def test_ingest_warnings_reach_stderr_once(tmp_path, capsys, case, warning):
    path = tmp_path / "seasons.csv"
    write_csv(path, default_specs(n_star=3, n_regular=12), seed=0)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    if case == "duplicate":
        rows.append(dict(rows[0]))
    else:
        for row in rows:
            row["G"] = "70.0"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    assert main(["ingest", "--out", str(tmp_path / "o"), "--input", str(path)]) == 0
    err = capsys.readouterr().err
    assert err.count(warning) == 1
    assert err.count("\n") == 1


def test_evaluate_loads_only_what_the_models_need(pipeline, tmp_path):
    out_dir, _ = pipeline
    copy = tmp_path / "partial"
    shutil.copytree(out_dir, copy)
    base = ["--out", str(copy), "--seed", "0"]
    (copy / "forecaster_standard.json").unlink()
    assert main(["evaluate", *base, "--models", "proposed"]) == 0
    for name in ("forecaster.json", "clusters.json", "autoencoder.json"):
        (copy / name).unlink()
    assert main(["evaluate", *base, "--models", "last_value"]) == 0
    assert main(["evaluate", *base, "--models", "standard_lstm"]) == 2


def test_load_chain_reads_each_file_once(pipeline, monkeypatch):
    """Every file of the chain is read once; only the named ones are returned."""
    out_dir, _ = pipeline
    reads = []
    real = artifacts.read_json
    monkeypatch.setattr(artifacts, "read_json", lambda path: reads.append(path) or real(path))
    named = ["forecaster.json", "forecaster_standard.json"]
    chain = artifacts.load_chain(out_dir, named)
    assert sorted(chain) == sorted(named)
    assert sorted(os.path.basename(p) for p in reads) == sorted(CHAINED)
    for name in named:
        assert chain[name].sha256 == hashlib.sha256((out_dir / name).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv, built, checked",
    [
        (["synth", "--stars", "1", "--regulars", "1"], [], []),
        (["ingest", "--input", "{copy}/synthetic.csv"], [], []),
        (["stage1"], ["dataset.json"], []),
        (["stage2"], ["dataset.json", "clusters.json"], ["autoencoder.json"]),
        (["stage2", "--standard"], ["dataset.json"], []),
        (["evaluate"], CHAINED, []),
        (["evaluate", "--models", "standard_lstm"],
         ["dataset.json", "forecaster_standard.json"], []),
        (["predict", "--player", "syn0000"], ["dataset.json", *READS["proposed"]], []),
    ],
    ids=["synth", "ingest", "stage1", "stage2", "stage2-standard", "evaluate",
         "evaluate-standard_lstm", "predict"],
)
def test_each_command_builds_only_what_it_names(pipeline, tmp_path, monkeypatch, argv, built,
                                                checked):
    """A command decodes the artifacts it reads in the order it declares them,
    ``dataset.json`` first; every file those were built from is read and
    hash-checked once, but not decoded. ``synth`` and ``ingest`` read no artifact."""
    out_dir, _ = pipeline
    copy = tmp_path / "run"
    shutil.copytree(out_dir, copy)
    argv = [a.format(copy=copy) for a in argv]
    decoded, reads = [], []
    for name, (rerun, decode) in list(artifacts.CHAIN.items()):
        monkeypatch.setitem(artifacts.CHAIN, name, (
            rerun, lambda doc, name=name, decode=decode: decoded.append(name) or decode(doc)
        ))
    real = artifacts.read_json
    monkeypatch.setattr(
        artifacts, "read_json", lambda path: reads.append(os.path.basename(path)) or real(path)
    )
    assert main([*argv, "--out", str(copy), "--seed", "0",
                 "--config", str(copy / "config.json")]) == 0
    assert decoded == built
    assert sorted(reads) == sorted([*built, *checked])


def test_stage1_prints_cluster_sizes(pipeline, tmp_path, capsys):
    out_dir, _ = pipeline
    copy = tmp_path / "sizes"
    shutil.copytree(out_dir, copy)
    argv = ["--config", str(copy / "config.json"), "--out", str(copy), "--seed", "0"]
    assert main(["stage1", *argv]) == 0
    doc = json.loads((copy / "clusters.json").read_text())["clusters"]
    sizes = [doc["train_assignments"].count(c) for c in range(doc["k"])]
    assert f"cluster sizes: {' '.join(map(str, sizes))}" in capsys.readouterr().out


def test_corrupt_forecaster_is_refused(pipeline, tmp_path, capsys):
    out_dir, _ = pipeline
    copy = tmp_path / "corrupt"
    shutil.copytree(out_dir, copy)
    (copy / "forecaster.json").write_text("{", encoding="utf-8")
    rc = main(["evaluate", "--out", str(copy), "--models", "proposed"])
    assert rc == 2
    assert "corrupt artifact" in capsys.readouterr().err


def widen_head(arrays):
    """Give the head's first layer one more input column, with a shape to match."""
    first = arrays["head.0.weight"]
    weight = decode_f8(first["f8"], "weight").reshape(first["shape"])
    weight = np.hstack([weight, np.zeros((weight.shape[0], 1))])
    arrays["head.0.weight"] = {"shape": list(weight.shape), "f8": encode_f8(weight)}


@pytest.mark.parametrize(
    "case, reason",
    [
        ("missing config", "model document lacks config value(s) ['k']"),
        ("missing array", "model document lacks array(s) ['lstm.w_input']"),
        ("extra array", "model document has extra array(s) ['head.5.weight']"),
        ("wrong shape", "lstm.w_input has shape [256, 3] and 768 values"),
        ("head width", "head.0.weight has shape [32, 67] and 2144 values; its config "
         "builds [32, 66]"),
        ("not base64", "lstm.w_input is not base64 of whole float64 values: Only base64"),
        ("partial value", "lstm.w_input is not base64 of whole float64 values: buffer size"),
        ("wrong count", "lstm.w_input has shape [256, 48] and 12287 values; its config "
         "builds [256, 48]"),
    ],
    ids=["missing-config", "missing-array", "extra-array", "wrong-shape", "head-width", "not-base64",
         "partial-value", "wrong-count"],
)
def test_misshapen_forecaster_is_refused(pipeline, tmp_path, capsys, case, reason):
    out_dir, _ = pipeline
    copy = tmp_path / "misshapen"
    shutil.copytree(out_dir, copy)
    doc = json.loads((copy / "forecaster.json").read_text())
    arrays = doc["model"]["arrays"]
    w_input = arrays["lstm.w_input"]
    if case == "missing config":
        del doc["model"]["k"]
    elif case == "missing array":
        del arrays["lstm.w_input"]
    elif case == "extra array":
        arrays["head.5.weight"] = arrays["head.4.weight"]
    elif case == "wrong shape":
        arrays["lstm.w_input"] = {"shape": [256, 3], "f8": encode_f8(np.zeros(768))}
    elif case == "not base64":
        w_input["f8"] = "*" + w_input["f8"][1:]
    elif case == "partial value":
        data = decode_f8(w_input["f8"], "w_input").tobytes()
        w_input["f8"] = base64.b64encode(data[:-1]).decode("ascii")
    elif case == "wrong count":
        w_input["f8"] = encode_f8(decode_f8(w_input["f8"], "w_input")[:-1])
    else:
        widen_head(arrays)
    artifacts.write_json(copy / "forecaster.json", doc)
    rc = main(["predict", "--out", str(copy), "--seed", "0", "--player", "syn0000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{copy / 'forecaster.json'}: corrupt artifact: {reason}" in err


@pytest.mark.parametrize(
    "row", ["syn0000,29", "syn0000,abc,1.0", "syn0000,29,abc", "syn0000,29,nan", "syn0000,35,1.0"]
)
def test_malformed_predictions_row_is_refused(pipeline, tmp_path, capsys, row):
    out_dir, _ = pipeline
    copy = tmp_path / "rows"
    shutil.copytree(out_dir, copy)
    predictions = copy / "reports" / "predictions.csv"
    text = f"series,age,predicted\nsyn0001,29,0.5\n{row}\n"
    predictions.write_text(text, encoding="utf-8")
    rc = main(["predict", "--out", str(copy), "--seed", "0", "--player", "syn0000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{predictions}:3: expected series, integer age" in captured.err
    assert captured.out == ""  # no forecast is printed for a refused write
    assert predictions.read_text(encoding="utf-8") == text


DEEP_JSON = "[" * 200_000  # nested past the JSON decoder's recursion limit
HUGE_CELL = "1" * 200_000  # over the csv module's 131,072-character field limit


@pytest.mark.parametrize(
    "argv, name, text, code, message",
    [
        (["predict", "--player", "syn0000"], "clusters.json", DEEP_JSON, 2,
         "error: {path}: corrupt artifact"),
        (["stage1", "--config", "{path}"], "config.json", DEEP_JSON, 1,
         "config error: {path}: invalid JSON"),
        (["ingest", "--input", "{out}/synthetic.csv", "--schema", "{path}"], "schema.json",
         DEEP_JSON, 2, "error: {path}: not valid JSON"),
        (["ingest", "--input", "{path}"], "seasons.csv",
         f"{SEASON_HEADER}\np1,P,2000,22,{HUGE_CELL}\n", 2, "error: {path}:2: unreadable CSV"),
        (["predict", "--rows", "{path}"], "rows.csv",
         f"{SEASON_HEADER}\np1,P,2000,22,{HUGE_CELL}\n", 2,
         "error: {path}:2: unreadable CSV"),
        (["predict", "--player", "syn0000"], "reports/predictions.csv",
         f"series,age,predicted\nsyn0001,29,{HUGE_CELL}\n", 2,
         "error: {path}:2: unreadable CSV"),
    ],
    ids=["deep-artifact", "deep-config", "deep-schema", "huge-season-cell", "huge-rows-cell",
         "huge-predictions-cell"],
)
def test_malformed_input_file_is_refused(pipeline, tmp_path, capsys, argv, name, text, code,
                                         message):
    """A file nested too deep to decode, or with a cell too long to read, ends in
    the refusal for its kind of file, not in a traceback."""
    out_dir, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    path = copy / name
    path.write_text(text, encoding="utf-8")
    argv = [a.format(path=path, out=copy) for a in argv]
    assert main([*argv, "--out", str(copy), "--seed", "0"]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path)), err[:300]
    assert "Traceback" not in err


# each command and the files its run record maps to their hashes, by path under --out
RUN_RECORDS = [
    (["synth", "--stars", "3", "--regulars", "12"], ["synthetic.csv"]),
    (["ingest", "--input", "{out}/synthetic.csv"], ["dataset.json"]),
    (["stage1"], ["autoencoder.json", "clusters.json", "reports/silhouette.csv"]),
    (["stage2"], ["forecaster.json"]),
    (["stage2", "--standard"], ["forecaster_standard.json"]),
    (["evaluate"], [
        "reports/evaluation.json", "reports/comparison.csv", "reports/per_category.csv",
        *(f"reports/{model}_{table}.csv" for model in MODEL_NAMES
          for table in ("curves_player", "curves_category", "scatter")),
    ]),
    (["predict", "--player", "syn0000"], ["reports/predictions.csv"]),
]


def test_each_command_records_its_run(tmp_path, monkeypatch):
    """``run_info.json`` names the last command that succeeded, its seed and the
    files it wrote; ``gradcheck`` and refused commands leave the record alone."""
    monkeypatch.chdir(tmp_path)  # where a default --out would land
    out = tmp_path / "run"
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    base = ["--config", str(config), "--out", str(out), "--seed", "7"]
    for argv, written in RUN_RECORDS:
        assert main([*(a.format(out=out) for a in argv), *base]) == 0, argv
        info = json.loads((out / "run_info.json").read_text(encoding="utf-8"))
        assert set(info) == {"command", "seed", "completed_utc", "artifacts"}
        assert (info["command"], info["seed"]) == (argv[0], 7)
        assert info["artifacts"] == {f: artifacts.file_hash(out / f) for f in written}
    record = (out / "run_info.json").read_bytes()
    assert main(["gradcheck", "--seeds", "1"]) == 0
    assert main(["predict", *base]) == 1  # neither --player nor --rows
    assert main(["predict", *base, "--player", "nobody"]) == 2
    assert main(["evaluate", *base, "--models", "nonsense"]) == 1
    assert (out / "run_info.json").read_bytes() == record
    assert os.listdir(tmp_path) == ["run"]


def read_json_file(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def comparison_models():
    lines = Path("o/reports/comparison.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",")[0] for line in lines[1:]]


# flag -> (command, config key, config value, flag argument, what a run used, what
# the config value and the flag each make it use); paths are relative to the run's
# working directory, and each default differs from both values
PRECEDENCE = {
    "--seed": (
        ["synth", "--stars", "1", "--regulars", "1"], "seed", 3, "5",
        lambda: read_json_file("o/run_info.json")["seed"], (3, 5),
    ),
    "--out": (
        ["synth", "--stars", "1", "--regulars", "1"], "out_dir", "c", "f",
        lambda: [d for d in ("c", "f", "o", "out") if os.path.exists(d)], (["c"], ["f"]),
    ),
    "--input": (
        ["ingest"], "input_csv", "{pools}/a/synthetic.csv", "{pools}/b/synthetic.csv",
        lambda: read_json_file("o/dataset.json")["summary"]["players_total"], (15, 20),
    ),
    "--schema": (
        ["ingest", "--input", "{pools}/a/synthetic.csv"], "schema_json",
        "{pools}/two.json", "{pools}/three.json",
        lambda: [f["name"] for f in read_json_file("o/dataset.json")["schema"]["features"]],
        (["BPM", "PTS"], ["BPM", "PTS", "AST"]),
    ),
    "--models": (
        ["evaluate"], "models", ["last_value"], "ridge", comparison_models,
        (["last_value"], ["ridge"]),
    ),
}


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """Season CSVs of 15 (``a``) and 20 (``b``) players, ``a``'s dataset, two schemas."""
    root = tmp_path_factory.mktemp("pools")
    for name, stars, regulars in (("a", 3, 12), ("b", 4, 16)):
        argv = ["synth", "--out", str(root / name), "--stars", str(stars)]
        assert main([*argv, "--regulars", str(regulars)]) == 0
    a = str(root / "a")
    assert main(["ingest", "--out", a, "--input", f"{a}/synthetic.csv"]) == 0
    for name, features in (("two", ["BPM", "PTS"]), ("three", ["BPM", "PTS", "AST"])):
        doc = {"version": 1, "target": "BPM",
               "features": [{"name": f, "class": "counting"} for f in features]}
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


def test_a_byte_order_mark_does_not_hide_the_first_column(pools, tmp_path):
    """A season CSV saved with a UTF-8 BOM ingests as the same file without one."""
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (pools / "a" / "synthetic.csv").read_bytes())
    assert main(["ingest", "--out", str(tmp_path), "--input", str(bom)]) == 0
    expected = (pools / "a" / "dataset.json").read_bytes()
    assert (tmp_path / "dataset.json").read_bytes() == expected


def test_ids_that_need_quoting_survive_the_reports(tmp_path):
    """A player id holding a comma and a double quote is quoted in every report,
    and a later ``predict`` reads back the predictions row an earlier one wrote."""
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    base = ["--config", str(config), "--out", str(out), "--seed", "0"]
    assert main(["synth", *base, "--stars", "3", "--regulars", "12"]) == 0
    seasons = out / "synthetic.csv"
    with open(seasons, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(seasons, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *([f'Smith, "{r[0]}"', *r[1:]] for r in rows)])
    for argv in (
        ["ingest", "--input", str(seasons)], ["stage1"], ["stage2"],
        ["evaluate", "--models", "proposed", "last_value"],
    ):
        assert main([*argv, *base]) == 0, argv
    players = ['Smith, "syn0000"', 'Smith, "syn0001"']
    for player in players:
        assert main(["predict", *base, "--player", player]) == 0
    tables = {}
    for report in (out / "reports").glob("*.csv"):
        with open(report, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), report.name
        tables[report.name] = rows
    assert all(r[0].startswith('Smith, "') for r in tables["proposed_curves_player.csv"])
    assert sorted({r[0] for r in tables["predictions.csv"]}) == players


@pytest.mark.parametrize("flag", PRECEDENCE)
def test_flag_beats_config_beats_default(pools, tmp_path, monkeypatch, flag):
    command, key, from_config, from_flag, used, expected = PRECEDENCE[flag]

    def fill(value):
        return value.format(pools=pools) if isinstance(value, str) else value

    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: fill(from_config)}), encoding="utf-8")
    for label, extra in (("config", []), ("flag", [flag, fill(from_flag)])):
        work = tmp_path / label
        work.mkdir()
        monkeypatch.chdir(work)
        if command[0] == "evaluate":
            shutil.copytree(pools / "a", "o")
        out = [] if flag == "--out" else ["--out", "o"]
        argv = [*(fill(a) for a in command), "--config", str(config), *out, *extra]
        assert main(argv) == 0, label
        assert used() == expected[label == "flag"], label


@pytest.mark.parametrize(
    "argv, code, path",
    [
        (["ingest", "--input", "{tmp}/in.csv", "--schema", "{tmp}/no.json"], 2, "{tmp}/no.json"),
        (["synth", "--csv", "{tmp}/no/x.csv"], 2, "{tmp}/no/x.csv"),
        (["stage1", "--out", "{tmp}/in.csv"], 2, "{tmp}/in.csv"),
        (["ingest", "--input", "{tmp}"], 2, "{tmp}"),
        (["synth", "--config", "{tmp}"], 1, "{tmp}"),
    ],
    ids=["schema-missing", "csv-dir-missing", "out-is-a-file", "input-is-a-dir",
         "config-is-a-dir"],
)
def test_file_errors_exit_without_a_traceback(tmp_path, capsys, argv, code, path):
    """A file that cannot be read or written exits 2 naming it (1 for --config),
    and the refused command creates nothing."""
    (tmp_path / "in.csv").write_text("player_id\n", encoding="utf-8")
    argv = [a.format(tmp=tmp_path) for a in argv]
    out = [] if "--out" in argv else ["--out", str(tmp_path / "o")]
    assert main([*argv, *out]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 1 else "error: ")
    assert path.format(tmp=tmp_path) in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["in.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["predict"],
        ["predict", "--player", ""],
        ["evaluate", "--models", "nonsense"],
        ["stage1", "--config", "{tmp}/bad.json"],
    ],
    ids=["predict-no-source", "predict-empty-player", "evaluate-unknown-model", "bad-config"],
)
def test_refused_command_reads_no_artifact(tmp_path, monkeypatch, argv):
    """Flags and config are checked before any artifact is read: a refused
    command exits 1, reads nothing and creates no directory."""
    (tmp_path / "bad.json").write_text(json.dumps({"kmeans_restarts": "3"}), encoding="utf-8")
    reads = []
    real = artifacts.read_json
    monkeypatch.setattr(artifacts, "read_json", lambda path: reads.append(path) or real(path))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert reads == []
    assert os.listdir(tmp_path) == ["bad.json"]


def test_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "u")
    assert main(["ingest", "--out", out]) == 1  # no --input
    assert "config error" in capsys.readouterr().err
    assert main(["ingest", "--out", out, "--input", str(tmp_path / "missing.csv")]) == 2
    assert "not found" in capsys.readouterr().err
    assert main(["evaluate", "--out", out, "--models", "nonsense"]) == 1
    assert "unknown model" in capsys.readouterr().err
    assert main(["evaluate", "--out", out, "--models", "last_value", "last_value"]) == 1
    assert "['last_value'] listed more than once" in capsys.readouterr().err
    assert main(["definitely-not-a-command"]) == 1


@pytest.mark.parametrize(
    "config, flags, named",
    [
        (None, ["--seed", "-1"], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"k_range": ["a", 3]}, [], "k_range"),
        ({"k_range": [2.5, 3]}, [], "k_range"),
        ({"kmeans_restarts": "3"}, [], "kmeans_restarts"),
        # not config keys: the test share, the regression penalties and the
        # optimizer's step are constants of ingest, baselines and nn.optim
        ({"test_fraction": "0.2"}, [], "unknown config key(s): test_fraction"),
        ({"ridge_lambda": "1"}, [], "unknown config key(s): ridge_lambda"),
        (
            {"autoencoder": {"learning_rate": 0.01}}, [],
            "unknown key(s) ['learning_rate'] in 'autoencoder' block; "
            "allowed: ['max_epochs', 'patience']",
        ),
        ({"autoencoder": {"max_epochs": "5"}}, [], "max_epochs"),
        ({"forecaster": {"patience": True}}, [], "patience"),
        ({"forecaster": 5}, [], "forecaster"),
        ({"input_csv": 5}, [], "input_csv"),
        ({"k_range": 5}, [], "k_range"),
        ({"models": "proposed"}, [], "models"),
        ({"models": 5}, [], "models"),
        ({"models": []}, [], "models"),
    ],
    ids=[
        "seed-flag",
        "seed-key",
        "k_range-str",
        "k_range-float",
        "kmeans_restarts-str",
        "test_fraction-str",
        "ridge_lambda-str",
        "learning_rate-key",
        "max_epochs-str",
        "patience-bool",
        "block-int",
        "input_csv-int",
        "k_range-int",
        "models-str",
        "models-int",
        "models-empty",
    ],
)
def test_mistyped_config_is_a_config_error(tmp_path, capsys, config, flags, named):
    """A negative seed, a value of the wrong type, an unknown key or an empty
    model list exits 1 with a config error that names the key."""
    argv = ["synth", "--out", str(tmp_path / "o"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert named in err
    assert not (tmp_path / "o" / "synthetic.csv").exists()


def test_empty_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    schema = default_schema()
    path.write_text(
        "player_id,player_name,season,age,category," + ",".join(schema.names) + "\n",
        encoding="utf-8",
    )
    rc = main(["ingest", "--out", str(tmp_path / "o"), "--input", str(path)])
    assert rc == 2
    assert "no eligible players" in capsys.readouterr().err


def test_a_pool_too_small_to_train_is_a_data_error(tmp_path, capsys):
    """Four train players leave the fixed validation share no sample: no config
    value can change that, so ``ingest`` refuses the pool with exit 2, not 1."""
    base = ["--out", str(tmp_path), "--seed", "0"]
    assert main(["synth", *base, "--stars", "2", "--regulars", "3"]) == 0
    capsys.readouterr()
    assert main(["ingest", *base, "--input", str(tmp_path / "synthetic.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: 4 train players; training needs at least 6\n"
    assert not (tmp_path / "dataset.json").exists()


def test_six_train_players_are_the_fewest_that_train(tmp_path, capsys):
    """6 players split 5 train / 1 test and are refused; 7 split 6 / 1 and ``stage1`` runs."""

    def ingest(players):
        base = ["--out", str(tmp_path / str(players)), "--seed", "0"]
        assert main(["synth", *base, "--stars", "3", "--regulars", str(players - 3)]) == 0
        capsys.readouterr()
        csv_path = str(tmp_path / str(players) / "synthetic.csv")
        return base, main(["ingest", *base, "--input", csv_path])

    _, rc = ingest(6)
    assert rc == 2
    assert capsys.readouterr().err == "error: 5 train players; training needs at least 6\n"
    assert not (tmp_path / "6" / "dataset.json").exists()
    base, rc = ingest(7)
    assert rc == 0
    assert "(6 train / 1 test)" in capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"autoencoder": {"max_epochs": 3, "patience": 3}}))
    assert main(["stage1", *base, "--config", str(config)]) == 0


def test_predict_by_player_id(pipeline, capsys):
    out_dir, base = pipeline
    rc = main(["predict", *base, "--player", "syn0000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "age 29:" in out and "age 31:" in out

    pred_path = out_dir / "reports" / "predictions.csv"
    first = pred_path.read_bytes()
    assert main(["predict", *base, "--player", "syn0000"]) == 0
    assert pred_path.read_bytes() == first  # upsert is idempotent

    lines = first.decode().strip().split("\n")
    assert lines[0] == "series,age,predicted"
    assert sum(1 for l in lines if l.startswith("syn0000,")) == 3

    assert main(["predict", *base, "--player", "nobody"]) == 2
    assert "not found" in capsys.readouterr().err


def test_predict_requires_exactly_one_source(pipeline, capsys):
    _, base = pipeline
    assert main(["predict", *base]) == 1
    assert main(["predict", *base, "--player", "syn0000", "--rows", "x.csv"]) == 1
    for empty in ("--player=", "--rows="):
        assert main(["predict", *base, empty]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err


def test_predict_from_rows_csv(pipeline, tmp_path, capsys):
    out_dir, base = pipeline
    careers, _ = generate(default_specs(n_star=1, n_regular=1), seed=99)
    rows_path = tmp_path / "rows.csv"
    write_rows_csv(rows_path, [[repr(float(v)) for v in row] for row in careers.raw[0]])
    rc = main(["predict", *base, "--rows", str(rows_path)])
    assert rc == 0
    assert "age 30:" in capsys.readouterr().out
    table = (out_dir / "reports" / "predictions.csv").read_text()
    assert "file:rows.csv" in table


def predictions_of(path, series):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[1:] for row in csv.reader(fh) if row[0] == series]


def test_predict_rows_of_a_dataset_player_match_the_player(pipeline, tmp_path):
    """A player's own season rows, shuffled, career-long, predict what the dataset
    holds for them, bit for bit; a repeated or empty row outside ages 22-28 is
    ignored."""
    out_dir, _ = pipeline
    copy = tmp_path / "run"
    shutil.copytree(out_dir, copy)
    base = ["--out", str(copy), "--seed", "0", "--config", str(copy / "config.json")]
    with open(copy / "synthetic.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    own = [row for row in rows if row[0] == "syn0003"]
    assert len(own) == 10
    own += [own[-1], [*own[0][:3], "21", *[""] * (len(header) - 4)]]
    np.random.default_rng(0).shuffle(own)
    rows_path = tmp_path / "career.csv"
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *own])
    assert main(["predict", *base, "--player", "syn0003"]) == 0
    assert main(["predict", *base, "--rows", str(rows_path)]) == 0
    pred_path = copy / "reports" / "predictions.csv"
    by_player = predictions_of(pred_path, "syn0003")
    assert len(by_player) == 3
    assert predictions_of(pred_path, "file:career.csv") == by_player


PREDICT_TOLERANCE = 1e-9  # one-row head products may differ from whole-split ones in the last bits


def test_predict_by_player_agrees_with_evaluate(pipeline, tmp_path):
    """``predict --player`` forecasts what ``evaluate`` scored: a test player's rows
    of the per-player curves report, and a train player's row of the train-split
    forecast (which no report holds), recomputed here as ``evaluate`` computes it."""
    out_dir, _ = pipeline
    copy = tmp_path / "run"
    shutil.copytree(out_dir, copy)
    base = ["--out", str(copy), "--seed", "0", "--config", str(copy / "config.json")]
    chain = artifacts.load_chain(copy, [artifacts.DATASET, *READS["proposed"]])
    dataset = artifacts.normalize(chain[artifacts.DATASET].value)
    with open(copy / "reports" / "proposed_curves_player.csv", newline="", encoding="utf-8") as fh:
        curves = list(csv.DictReader(fh))
    test_id = dataset.test.player_ids[-1]
    train_id = dataset.train.player_ids[-1]
    expected = {
        test_id: [float(r["predicted"]) for r in curves if r["series"] == test_id],
        train_id: _proposed(chain)(dataset.train.input)[-1],
    }
    for pid, want in expected.items():
        assert main(["predict", *base, "--player", pid]) == 0
        got = [float(v) for _, v in predictions_of(copy / "reports" / "predictions.csv", pid)]
        assert len(got) == len(want) == 3
        assert np.max(np.abs(np.subtract(got, want))) <= PREDICT_TOLERANCE, pid


def test_loaded_models_hold_no_gradients_until_bound(pipeline):
    """Building what ``predict`` reads keeps each parameter once: no gradient twin
    exists until training or a gradient check binds one."""
    out_dir, _ = pipeline
    tracemalloc.start()
    try:
        chain = artifacts.load_chain(out_dir, [artifacts.DATASET, *READS["proposed"]])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    models = [chain[name].value for name in (artifacts.AUTOENCODER, artifacts.FORECASTER)]
    param_bytes = sum(arr.nbytes for model in models for _, arr in model.param_items())
    # the parameters, plus under half their size for the dataset, the state and
    # the objects; a zero twin of every parameter would double the first term
    assert kept < 1.5 * param_bytes

    def layers_of(layer):
        yield layer
        for _, child in layer.children():
            yield from layers_of(child)

    for model in models:
        assert not [n for layer in layers_of(model) for n in vars(layer) if n.startswith("grad_")]
        _, grads = _flatten(model)
        assert grads.size == sum(arr.size for _, arr in model.param_items())
        assert not grads.any()
        assert all(g.base is grads and g.shape == p.shape for p, g in bound_pairs(model))


def test_predict_names_the_schema_target(tmp_path, capsys):
    """Forecasts are printed in the unit of the schema's target, not always BPM."""
    schema = tmp_path / "schema.json"
    features = [{"name": name, "class": "counting"} for name in ("RAPM", "PTS", "AST")]
    doc = {"version": 1, "target": "RAPM", "features": features}
    schema.write_text(json.dumps(doc), encoding="utf-8")
    config = tmp_path / "config.json"
    short = {"max_epochs": 2}  # the forecast's unit is at stake here, not its accuracy
    config.write_text(json.dumps({**SMALL_CONFIG, "autoencoder": short, "forecaster": short,
                                  "schema_json": str(schema)}), encoding="utf-8")
    base = ["--out", str(tmp_path), "--seed", "0", "--config", str(config)]
    for argv in (
        ["synth", "--stars", "4", "--regulars", "12"],
        ["ingest", "--input", str(tmp_path / "synthetic.csv")], ["stage1"], ["stage2"],
    ):
        assert main([*argv, *base]) == 0, argv
    capsys.readouterr()
    assert main(["predict", *base, "--player", "syn0000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["age 29", "age 30", "age 31"]
    assert all(line.endswith(" RAPM") for line in lines), lines


def refused_rows(pipeline, rows_path, capsys):
    """The stderr of a ``predict --rows`` that must exit 2 and leave the
    predictions table as it was."""
    out_dir, base = pipeline
    predictions = out_dir / "reports" / "predictions.csv"
    before = predictions.read_bytes() if predictions.exists() else None
    rc = main(["predict", *base, "--rows", str(rows_path)])
    assert rc == 2
    assert (predictions.read_bytes() if predictions.exists() else None) == before
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "cell", ["nan", "inf", "-inf", pytest.param("", id="blank"), pytest.param("abc", id="abc")]
)
def test_predict_refuses_non_finite_rows(pipeline, tmp_path, capsys, cell):
    schema = default_schema()
    careers, _ = generate(default_specs(n_star=1, n_regular=1), seed=99)
    rows = careers.raw[0].astype(object)
    rows[3, schema.names.index("PTS")] = cell
    rows_path = tmp_path / "rows.csv"
    write_rows_csv(rows_path, rows)
    err = refused_rows(pipeline, rows_path, capsys)
    assert f"{rows_path}: age 25: column 'PTS' is missing or not a finite number" in err


@pytest.mark.parametrize(
    "ages, player_ids, message",
    [
        ((22, 23, 24, 26, 27, 28, 29, 30), None, "no row at age(s) 25"),
        ((22, 23, 24, 25, 25, 26, 27, 28), None, "age 25: more than one row"),
        (INPUT_AGES, ["p1"] * 6 + ["p2"], "more than one player_id: p1, p2"),
    ],
    ids=["missing-age", "repeated-age", "second-player"],
)
def test_predict_refuses_rows_without_one_player_row_per_input_age(
    pipeline, tmp_path, capsys, ages, player_ids, message
):
    careers, _ = generate(default_specs(n_star=1, n_regular=1), seed=99)
    block = np.concatenate([careers.raw[0], careers.raw[0]])
    rows_path = tmp_path / "rows.csv"
    write_rows_csv(rows_path, block, ages=ages, player_ids=player_ids)
    assert f"error: {rows_path}: {message}" in refused_rows(pipeline, rows_path, capsys)


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 7
    assert main(["gradcheck", "--seeds", "0"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gradcheck", "--seeds", "1", "--seed", "5"], "usage error: unrecognized arguments: --seed 5"),
        (["gradcheck", "--seed", "5"], "usage error: unrecognized arguments: --seed 5"),
        (["gradcheck", "--seeds", "1", "--config", "config.json"],
         "usage error: unrecognized arguments: --config config.json"),
        (["gradcheck", "--seeds", "1", "--out", "audit"],
         "usage error: unrecognized arguments: --out audit"),
        (["--seed", "5", "gradcheck", "--seeds", "1"],
         "usage error: argument command: invalid choice: '5' (choose from 'synth', 'ingest', "
         "'stage1', 'stage2', 'evaluate', 'predict', 'gradcheck')"),
    ],
    ids=["seed", "seed-not-seeds", "config", "out", "seed-before-command"],
)
def test_gradcheck_refuses_flags_it_would_ignore(tmp_path, capsys, argv, message):
    """The audit's seeds are fixed and it writes nothing, so these flags are refused:
    its parser has none of them (nor reads ``--seed`` as ``--seeds``), and the
    top-level parser takes no flags at all."""
    paths = {a: str(tmp_path / a) for a in ("config.json", "audit")}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    for name, path in paths.items():
        message = message.replace(name, path)
    assert captured.err == message + "\n"
    assert captured.out == "" and not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--stars", "0"], "player counts must be at least 1"),
        (["--regulars", "0"], "player counts must be at least 1"),
        (["--noise", "-1"], "noise must be non-negative, got -1.0"),
        (["--noise", "nan"], "noise must be finite, got nan"),
        (["--noise", "inf"], "noise must be finite, got inf"),
    ],
    ids=["stars", "regulars", "noise", "noise-nan", "noise-inf"],
)
def test_refused_synth_writes_nothing(tmp_path, capsys, flags, reason):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {reason}\n"
    assert not out.exists()


def test_synth_records_a_csv_outside_out_by_a_path_that_resolves(tmp_path):
    out, csv_path = tmp_path / "run", tmp_path / "elsewhere" / "pool.csv"
    csv_path.parent.mkdir()
    argv = ["synth", "--out", str(out), "--csv", str(csv_path), "--stars", "1", "--regulars", "1"]
    assert main(argv) == 0
    recorded = json.loads((out / "run_info.json").read_text(encoding="utf-8"))["artifacts"]
    ((rel, digest),) = recorded.items()
    assert rel == os.path.join("..", "elsewhere", "pool.csv")
    assert artifacts.file_hash(out / rel) == digest


@pytest.mark.parametrize("name", ["autoencoder.json", "forecaster.json", "forecaster_standard.json"])
def test_model_artifacts_store_weights_as_binary(pipeline, name):
    """A model file holds at most 11 bytes per stored value plus 16 KB.

    Base64 float64 takes 10.67 bytes a value; decimal lists take about twice that.
    """
    out_dir, _ = pipeline
    model = artifacts.load_chain(out_dir, [name])[name].value
    values = sum(arr.size for _, arr in model.param_items() + model.state_items())
    assert values > 10_000
    assert (out_dir / name).stat().st_size <= 11 * values + 16 * 1024


def test_cli_import_leaves_numpy_random_unloaded():
    """``predict`` draws nothing, so starting the CLI must not load numpy.random."""
    src = os.path.dirname(os.path.dirname(careercast.__file__))
    code = "import sys, careercast.cli; assert 'numpy.random' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_single_command_modules_unloaded():
    """synth, evaluation and checks load only in the command that runs each."""
    src = os.path.dirname(os.path.dirname(careercast.__file__))
    code = (
        "import sys, careercast.cli; "
        "print(sorted(m for m in ('synth', 'evaluation', 'checks') "
        "if 'careercast.' + m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
