"""Leak oracle: test players never move anything fitted on the train side.

The whole chain (``ingest``, ``stage1``, ``stage2`` twice, ``evaluate``) runs
in-process twice: on a gappy pool, and on a copy in which every feature and
target cell of every test player is rewritten. The copy keeps each player's
rows, ages and blank cells, so every player stays eligible and in place and
the seeded split is the same. Every train-side body must come out identical:
the train careers, the normalization statistics (as ingest fit them and as
the loader refits them), both stage-1 artifacts, both forecasters and the
fitted linear, ridge and mlp baselines.
"""

import csv
import json

import numpy as np

from careercast import artifacts, cli
from careercast.ingest import INPUT_AGES
from careercast.schema import default_schema
from careercast.synth import default_specs, write_csv

CONFIG = {
    "autoencoder": {"max_epochs": 3},
    "forecaster": {"max_epochs": 3},
    "k_range": [2, 3],
    "kmeans_restarts": 2,
}
MODEL_FILES = (
    artifacts.AUTOENCODER, artifacts.CLUSTERS, artifacts.FORECASTER, artifacts.FORECASTER_STANDARD
)
FEATURES = default_schema().names


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def stats_key(stats):
    return stats.names, stats.dropped, stats.mean.tobytes(), stats.std.tobytes()


def run_chain(out, csv_path, monkeypatch):
    """Run the chain into ``out``; returns its train-side bodies and its test careers."""
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    base = ["--config", str(config), "--out", str(out), "--seed", "0"]
    in_process = []  # ingest's statistics, then the linear, ridge and mlp fits
    ingest_csv, linear_fit, mlp_train = cli.ingest_csv, cli.linear_fit, cli.mlp_baseline_train

    def ingest(*args, **kwargs):
        dataset, summary = ingest_csv(*args, **kwargs)
        in_process.append(stats_key(dataset.norm_stats))
        return dataset, summary

    def linear(*args, **kwargs):
        model = linear_fit(*args, **kwargs)
        in_process.append((model.coef.tobytes(), model.intercept.tobytes()))
        return model

    def mlp(*args, **kwargs):
        model, result = mlp_train(*args, **kwargs)
        in_process.append([a.tobytes() for _, a in model.param_items()])
        return model, result

    with monkeypatch.context() as m:
        m.setattr(cli, "ingest_csv", ingest)
        m.setattr(cli, "linear_fit", linear)
        m.setattr(cli, "mlp_baseline_train", mlp)
        for argv in (
            ["ingest", "--input", str(csv_path)], ["stage1"], ["stage2"],
            ["stage2", "--standard"], ["evaluate"],
        ):
            assert cli.main([*argv, *base]) == 0, argv
    assert len(in_process) == 4

    loaded = artifacts.load_chain(out, [artifacts.DATASET])[artifacts.DATASET].value
    docs = {
        name: json.loads((out / name).read_text()) for name in (artifacts.DATASET, *MODEL_FILES)
    }
    bodies = {
        name: {k: v for k, v in doc.items() if k not in artifacts.HEADER}
        for name, doc in docs.items()
    }
    return {
        "train careers": bodies.pop(artifacts.DATASET)["train"],
        "loaded norm_stats": stats_key(loaded.norm_stats),
        "in-process fits": in_process,
        **bodies,
    }, docs[artifacts.DATASET]["test"]


def test_test_players_never_move_a_train_side_fit(tmp_path, monkeypatch):
    pool = tmp_path / "pool.csv"
    write_csv(pool, default_specs(8, 32), seed=3)
    rng = np.random.default_rng(3)
    rows = read_rows(pool)
    for row in rows:  # blanks make the train-only imputation medians matter
        if int(row["age"]) in INPUT_AGES:
            for name in FEATURES:
                if rng.random() < 0.1:
                    row[name] = ""
    write_rows(pool, rows)
    fitted, test = run_chain(tmp_path / "a", pool, monkeypatch)

    test_ids = {d["player_id"] for d in test}
    for row in rows:
        if row["player_id"] in test_ids:
            for name in FEATURES:
                if row[name]:
                    row[name] = repr(float(rng.normal(40.0, 20.0)))
    rewritten = tmp_path / "rewritten.csv"
    write_rows(rewritten, rows)
    refitted, retest = run_chain(tmp_path / "b", rewritten, monkeypatch)

    assert [d["player_id"] for d in retest] == [d["player_id"] for d in test]
    assert retest != test
    for key in fitted:
        assert refitted[key] == fitted[key], f"{key} moved with the test players"
