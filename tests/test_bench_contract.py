"""What the benchmark harness relies on: the names it traces and the dataset fields it reads.

``benchmarks/spans.py`` patches functions and methods by name, and
``benchmarks/run.py`` picks predict players from ``dataset.json``. A
refactor that renames either would break traced benchmark runs only, so
this module checks both from the tier-1 suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from careercast import artifacts, forecaster
from careercast.autoencoder import Autoencoder
from careercast.cli import main
from careercast.nn import TrainConfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_bench_module(name):
    path = BENCHMARKS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"careercast_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench_module("spans")


def test_traced_names_exist():
    spans = load_spans()
    for name in spans.LAYER_MODULES:
        importlib.import_module(name)
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for module, cls, attr in spans.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        # spans.py patches vars(cls)[attr], so the method must be defined on the class itself
        assert callable(vars(owner).get(attr)), f"{module}.{cls}.{attr}"
    for module in spans.TRAIN_LOOP_CALLERS:
        assert callable(getattr(importlib.import_module(module), "train_loop", None)), module


def test_dataset_json_lists_players_under_instrumentation(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    out = tmp_path / "run"
    base = ["--out", str(out), "--seed", "0"]
    with spans.instrument(tracer):
        with tracer.command("synth"):
            assert main(["synth", *base, "--stars", "3", "--regulars", "12"]) == 0
        with tracer.command("ingest"):
            assert main(["ingest", *base, "--input", str(out / "synthetic.csv")]) == 0
    metrics = spans.layer_metrics(tracer)
    assert metrics["artifacts.write_json.bytes"] == (out / "dataset.json").stat().st_size
    assert metrics["artifacts.write_run_info.calls"] == 2  # one record per command

    doc = json.loads((out / "dataset.json").read_text())
    for split in ("train", "test"):
        assert isinstance(doc[split], list) and doc[split]
        assert all(isinstance(seq["player_id"], str) for seq in doc[split])


def test_traced_imputed_cells_match_the_dataset_summary(tmp_path):
    """``ingest.imputed_cells``, counted from the rows ``impute_missing`` returns,
    totals the per-(age, feature) counts that ``dataset.json`` records."""
    spans = load_spans()
    tracer = spans.Tracer()
    out = tmp_path / "run"
    base = ["--out", str(out), "--seed", "0"]
    assert main(["synth", *base, "--stars", "3", "--regulars", "12"]) == 0
    gappy = tmp_path / "gappy.csv"
    removed = load_bench_module("gaps").make_gaps(out / "synthetic.csv", gappy, seed=1)
    assert removed["blanked_cells"] and removed["deleted_rows"]
    with spans.instrument(tracer):
        with tracer.command("ingest"):
            assert main(["ingest", *base, "--input", str(gappy)]) == 0
    metrics = spans.layer_metrics(tracer)
    doc = json.loads((out / "dataset.json").read_text())
    counts = doc["summary"]["imputed_cells"]
    total = sum(n for at_age in counts.values() for n in at_age.values())
    assert total > removed["blanked_cells"]  # a deleted row counts each of its cells
    assert metrics["ingest.imputed_cells"] == total
    assert metrics["ingest.impute_missing.calls"] == 15


def test_model_serialization_is_traced(tmp_path):
    """Saving and loading both models runs through the two traced ``nn.serialize`` hooks."""
    spans = load_spans()
    tracer = spans.Tracer()
    out = tmp_path / "run"
    out.mkdir()
    config = out / "config.json"
    small = {"autoencoder": {"max_epochs": 2}, "forecaster": {"max_epochs": 2},
             "k_range": [2, 2], "kmeans_restarts": 1}
    config.write_text(json.dumps(small), encoding="utf-8")
    base = ["--config", str(config), "--out", str(out), "--seed", "0"]
    with spans.instrument(tracer):
        for command, *argv in (
            ["synth", "--stars", "3", "--regulars", "12"],
            ["ingest", "--input", str(out / "synthetic.csv")],
            ["stage1"],
            ["stage2"],
        ):
            with tracer.command(command):
                assert main([command, *base, *argv]) == 0
        with tracer.command("predict"):
            chain = artifacts.load_chain(out, [artifacts.AUTOENCODER, artifacts.FORECASTER])
    assert isinstance(chain[artifacts.AUTOENCODER].value, Autoencoder)
    assert isinstance(chain[artifacts.FORECASTER].value, forecaster.Forecaster)
    metrics = spans.layer_metrics(tracer)
    assert metrics["nn.serialize.layer_to_doc.calls"] == 2  # one per saved model
    assert metrics["nn.serialize.layer_from_doc.calls"] >= 2  # both named models


def test_traced_forecasters_are_told_apart_by_k():
    """The epochs hook names a forecaster by ``Forecaster.k``: k=0 is the standard model."""
    spans = load_spans()
    tracer = spans.Tracer()
    rng = np.random.default_rng(0)
    blocks = rng.normal(size=(10, 7, 3))
    targets = rng.normal(size=(10, 3))
    config = TrainConfig(max_epochs=2, patience=2)
    with spans.instrument(tracer):
        with tracer.command("stage2"):
            forecaster.forecaster_train(blocks, targets, k=0, config=config)
            forecaster.forecaster_train(
                blocks, targets, assignments=np.arange(10) % 2, k=2, config=config
            )
    metrics = spans.layer_metrics(tracer)
    assert metrics["nn.train_loop.forecaster_standard.epochs"] == 2
    assert metrics["nn.train_loop.forecaster.epochs"] == 2
