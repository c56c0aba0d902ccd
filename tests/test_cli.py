"""End-to-end command-line pipeline on a small synthetic pool."""

import json
import os
import shutil

import pytest

from careercast.cli import main
from careercast.schema import default_schema
from careercast.synth import default_specs, generate

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


def test_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "u")
    assert main(["ingest", "--out", out]) == 1  # no --input
    assert "config error" in capsys.readouterr().err
    assert main(["ingest", "--out", out, "--input", str(tmp_path / "missing.csv")]) == 2
    assert "not found" in capsys.readouterr().err
    assert main(["evaluate", "--out", out, "--models", "nonsense"]) == 1
    assert "unknown model" in capsys.readouterr().err
    assert main(["definitely-not-a-command"]) == 1


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


def test_predict_from_rows_csv(pipeline, tmp_path, capsys):
    out_dir, base = pipeline
    schema = default_schema()
    seqs, _ = generate(default_specs(n_star=1, n_regular=1), seed=99)
    rows_path = tmp_path / "rows.csv"
    with open(rows_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(schema.names) + "\n")
        for row in seqs[0].raw_input:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    rc = main(["predict", *base, "--rows", str(rows_path)])
    assert rc == 0
    assert "age 30:" in capsys.readouterr().out
    table = (out_dir / "reports" / "predictions.csv").read_text()
    assert "file:rows.csv" in table


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 7
    assert main(["gradcheck", "--seeds", "0"]) == 1
