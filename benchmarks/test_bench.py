"""Self-tests of the benchmark on a tiny pool.

    python3 -m pytest benchmarks/test_bench.py -q

They check that every workload prints every metric named in BENCHMARK.json
with its unit, that the gap generator leaves targets and eligibility intact,
that the forecast-quality check fires where the LSTMs cannot learn, and that
the benchmark refuses to run without the program's sources.
"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gaps  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

# the traced pass runs in this process, so BLAS threads are pinned before numpy loads
bench.pin_threads(os.environ)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"stars": 8, "regulars": 32}  # 40 players

# the end-to-end figures each workload prints beside the gated metrics
FIGURES = {
    "pipeline-1000": {
        "setup_s": "s", "pipeline_s": "s", "ingest_s": "s", "stage1_s": "s", "stage2_s": "s",
        "stage2_standard_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB",
        "proposed_test_mae": "BPM", "standard_test_mae": "BPM", "best_baseline_test_mae": "BPM",
        "failed_share": "ratio",
    },
    "ingest-gappy-1000": {
        "setup_s": "s", "ingest_s": "s", "peak_rss_mb": "MB", "failed_share": "ratio",
        "blanked_cells": "count", "deleted_rows": "count",
    },
    "predict-200": {
        "setup_s": "s", "predict_p50_s": "s", "predict_tail_s": "s", "predict_calls": "count",
        "peak_rss_mb": "MB", "failed_share": "ratio",
    },
}


def tiny_csv(path, seed=0):
    from careercast.synth import default_specs, write_csv

    write_csv(str(path), default_specs(TINY["stars"], TINY["regulars"], 1.0), seed=seed)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_gap_generator_keeps_targets_and_eligibility(tmp_path):
    from careercast.ingest import ingest_csv
    from careercast.schema import default_schema

    clean = tiny_csv(tmp_path / "clean.csv")
    counts = gaps.make_gaps(tmp_path / "clean.csv", tmp_path / "gappy.csv", seed=3)
    with open(tmp_path / "gappy.csv", newline="", encoding="utf-8") as fh:
        gappy = list(csv.DictReader(fh))

    key = lambda r: (r["player_id"], r["age"])  # noqa: E731
    clean_by_key = {key(r): r for r in clean}
    assert len(clean) - len(gappy) == counts["deleted_rows"] > 0
    blanks = 0
    for row in gappy:
        original = clean_by_key[key(row)]
        for name in gaps.IDENTITY:
            assert row[name] == original[name]
        if int(row["age"]) in gaps.INPUT_AGES:
            blanks += sum(1 for name, value in row.items() if value == "")
        else:
            assert row == original  # target-age rows untouched
    assert blanks == counts["blanked_cells"] > 0
    deleted_ages = {int(a) for pid, a in set(clean_by_key) - {key(r) for r in gappy}}
    assert deleted_ages <= set(gaps.INPUT_AGES)

    seasons = {}
    for row in gappy:
        if int(row["age"]) in gaps.WINDOW:
            seasons[row["player_id"]] = seasons.get(row["player_id"], 0) + 1
    assert min(seasons.values()) >= gaps.MIN_SEASONS
    _, summary = ingest_csv(str(tmp_path / "gappy.csv"), default_schema())
    assert summary["players_kept"] == summary["players_total"] == sum(TINY.values())


def test_gap_generator_is_seeded(tmp_path):
    tiny_csv(tmp_path / "clean.csv")
    for name, seed in (("a.csv", 5), ("b.csv", 5), ("c.csv", 6)):
        gaps.make_gaps(tmp_path / "clean.csv", tmp_path / name, seed=seed)
    read = lambda name: (tmp_path / name).read_bytes()  # noqa: E731
    assert read("a.csv") == read("b.csv") != read("c.csv")


def test_self_time_subtracts_children():
    ms = 1_000_000
    recorded = [
        [1, 0, None, "cli.x", 0, 10 * ms],
        [1, 1, 0, "a", 1 * ms, 5 * ms],
        [1, 2, 1, "b", 2 * ms, 3 * ms],
        [1, 3, 0, "b", 6 * ms, 8 * ms],
    ]
    got = spans.self_times(recorded)
    assert got["cli.x"] == pytest.approx((0.004, 1))
    assert got["a"] == pytest.approx((0.003, 1))
    assert got["b"] == pytest.approx((0.003, 2))


def test_tail_needs_ten_samples_beyond():
    assert bench.tail(list(range(10))) == (None, None)
    assert bench.tail([float(v) for v in range(40)]) == (29.0, 75.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_pool_prints_every_metric(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    workload = dataclasses.replace(bench.WORKLOADS[name], predict_players=6, **TINY)
    line, record = bench.execute(workload, seed=4, seconds=0, trace=trace, spec=SPEC)
    bench.print_report(record)
    printed = capsys.readouterr().out

    if name == "pipeline-1000":
        # 32 training players are too few for the LSTMs to learn, so on this
        # pool the forecast-quality check must fire, and nothing else may
        assert record["problems"] and all(
            p.startswith("evaluate (pass 0): test MAE") for p in record["problems"]
        ), record["problems"]
        assert line["failed"] == 1 and not line["correct"]
    else:
        assert line["correct"], record["problems"]
        assert line["failed"] == 0
    assert line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    for figure, unit in FIGURES[name].items():
        assert f"\n{figure} " in printed and record["figures"][figure]["unit"] == unit
    if not trace:
        assert all(line["metrics"][m]["value"] > 0 for m in line["metrics"])
        return
    layer = {k: v["value"] for k, v in line["metrics"].items()}
    if name == "pipeline-1000":
        assert layer["clustering.silhouette_score.calls_per_select_k"] == 7
        assert layer["nn.train_loop.mlp.epochs"] > 0
        assert layer["nn.LSTM.backward.calls"] > 0
    elif name == "predict-200":
        assert layer["artifacts.read_json.bytes_per_predict"] > 0
        assert layer["nn.Adam.step.calls"] == 0
    else:
        assert layer["ingest.imputed_cells"] > 0
        assert layer["nn.Dense.forward.calls"] == 0
    assert list(tmp_path.glob("traces/*.spans.jsonl"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "predict-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
