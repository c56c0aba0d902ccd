"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the measured numbers behind each verdict.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from careercast.artifacts import normalize
from careercast.autoencoder import ae_train, flatten_batch
from careercast.baselines import LinearModel, last_value_predict, linear_fit
from careercast.checks import gradcheck_suite
from careercast.cli import main as cli_main
from careercast.clustering import kmeans_fit, select_k, silhouette_score
from careercast.evaluation import mae, r2
from careercast.forecaster import forecaster_train
from careercast.ingest import Split
from careercast.nn import TrainConfig
from careercast.schema import default_schema
from careercast.synth import default_specs

from helpers import generate, penalized_objective, purity, seeded_split

README = Path(__file__).resolve().parents[1] / "README.md"


def test_gradient_audit_passes_quickly():
    """Backward passes of all 7 architectures agree with finite differences."""
    t0 = time.monotonic()
    rows = gradcheck_suite(n_seeds=20)
    elapsed = time.monotonic() - t0
    assert len(rows) == 7
    for row in rows:
        limit = 1e-6 if row["name"] in ("dense", "dropout-off") else 1e-4
        assert row["threshold"] == limit
        assert row["max_error"] < limit, f"{row['name']}: {row['max_error']:.3e}"
        assert row["ok"]
    assert elapsed < 30.0, f"gradient audit took {elapsed:.1f}s"
    print(
        f"\nPASS gradient audit: 7 configs x 20 seeds, worst "
        f"{max(r['max_error'] for r in rows):.2e}, {elapsed:.1f}s"
    )


def _exhaustive_two_cluster_sse(points):
    n = len(points)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(n - 1)] + [0], dtype=bool)
        sse = sum(
            float(((side - side.mean(axis=0)) ** 2).sum())
            for side in (points[sel], points[~sel])
        )
        best = min(best, sse)
    return best


def _silhouette_direct(points, assignments):
    n = len(points)
    labels = np.unique(assignments)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = [j for j in range(n) if assignments[j] == assignments[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = float(np.mean([d[i, j] for j in same]))
        b = min(
            float(np.mean([d[i, j] for j in range(n) if assignments[j] == c]))
            for c in labels
            if c != assignments[i]
        )
        denom = max(a, b)
        scores.append((b - a) / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def test_kmeans_and_silhouette_match_brute_force():
    """50-restart k-means attains the exhaustive bipartition optimum; the
    silhouette matches a direct O(n^2) reimplementation to 1e-10."""
    worst_gap = 0.0
    worst_sil = 0.0
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        n, dim = 4 + i % 5, 1 + i % 4
        points = rng.normal(size=(n, dim))
        result = kmeans_fit(points, 2, restarts=50, seed=i)
        oracle = _exhaustive_two_cluster_sse(points)
        assert result.inertia == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        worst_gap = max(worst_gap, abs(result.inertia - oracle))
        sil_gap = abs(
            silhouette_score(points, result.assignments)
            - _silhouette_direct(points, result.assignments)
        )
        assert sil_gap < 1e-10
        worst_sil = max(worst_sil, sil_gap)
    print(
        f"\nPASS clustering oracle: 10 instances, worst SSE gap {worst_gap:.2e}, "
        f"worst silhouette gap {worst_sil:.2e}"
    )


def test_ridge_matches_ols_and_is_locally_optimal():
    """lambda=1e-8 ridge equals normal-equations OLS to 1e-8 on full-rank
    50x10 data; the closed form beats 100 random perturbations."""
    gap = 0.0
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, 10))
        y = rng.normal(size=(50, 3))
        xa = np.hstack([x, np.ones((50, 1))])
        ols_w = np.linalg.solve(xa.T @ xa, xa.T @ y)
        ridge = linear_fit(x, y, l2=1e-8)
        gap = max(
            gap,
            float(np.abs(ridge.coef - ols_w[:10]).max()),
            float(np.abs(ridge.intercept - ols_w[10]).max()),
        )
        assert gap < 1e-8

    l2 = 0.5
    model = linear_fit(x, y, l2=l2)
    best = penalized_objective(model, x, y, l2)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-4, -1)
        shaken = LinearModel(
            coef=model.coef + scale * rng.normal(size=model.coef.shape),
            intercept=model.intercept + scale * rng.normal(size=model.intercept.shape),
        )
        assert penalized_objective(shaken, x, y, l2) >= best
    print(f"\nPASS regression oracle: ridge-OLS gap {gap:.2e}, 100 perturbations beaten")


def test_metric_identities_hold():
    """Hand-checkable metric values are exact; predicting the pooled mean
    gives r2 = 0 to 1e-12."""
    assert mae([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert mae([5.0], [5.0]) == 0.0
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    rng = np.random.default_rng(11)
    actual = rng.normal(size=(60, 3))
    pooled = np.full_like(actual, actual.mean())
    zero = r2(pooled, actual)
    assert abs(zero) < 1e-12
    print(f"\nPASS metric identities: pooled-mean r2 = {zero:.2e}")


def test_cluster_conditioning_beats_standard_lstm():
    """200 synthetic players in 2 archetypes (30 star peak 6, 170 regular
    peak -1, noise 1.0): K=2 selected, purity >= 0.9, and the conditioned
    forecaster wins on test MAE in at least 8 of 10 seeds, under 5 minutes."""
    t0 = time.monotonic()
    schema = default_schema()
    careers, _ = generate(default_specs(), seed=0)
    assert len(careers) == 200

    wins = 0
    purities = []
    chosen_k = set()
    gaps = []
    for seed in range(10):
        ds = normalize(seeded_split(careers, schema, seed))
        blocks, targets = ds.train.input, ds.train.target
        test_blocks, test_targets = ds.test.input, ds.test.target

        ae, _ = ae_train(flatten_batch(blocks), seed=seed, config=TrainConfig())
        clusters = select_k(ae.encode(flatten_batch(blocks)), seed=seed)
        chosen_k.add(clusters.k)
        truth = np.array([1 if c == "star" else 0 for c in ds.train.category])
        purities.append(purity(clusters.train_assignments, truth))

        conditioned, _ = forecaster_train(
            blocks, targets, clusters.train_assignments, k=clusters.k, seed=seed,
            config=TrainConfig(),
        )
        standard, _ = forecaster_train(blocks, targets, k=0, seed=seed, config=TrainConfig())

        test_assign = clusters.assign(ae.encode(flatten_batch(test_blocks)))
        mae_cond = mae(conditioned.predict_batch(test_blocks, test_assign), test_targets)
        mae_std = mae(standard.predict_batch(test_blocks), test_targets)
        gaps.append(mae_std - mae_cond)
        wins += mae_cond < mae_std

    elapsed = time.monotonic() - t0
    assert chosen_k == {2}, f"selected K values {sorted(chosen_k)}"
    assert min(purities) >= 0.9, f"min purity {min(purities):.3f}"
    assert wins >= 8, f"conditioned model won only {wins}/10 seeds"
    assert elapsed < 300.0, f"end-to-end benchmark took {elapsed:.0f}s"
    print(
        f"\nPASS end-to-end benefit: {wins}/10 wins, K=2 on every seed, "
        f"min purity {min(purities):.3f}, mean gap {np.mean(gaps):+.4f} MAE, "
        f"{elapsed:.0f}s"
    )


def test_last_value_is_bit_exact_carry_forward():
    """The carry-forward baseline emits the raw age-28 target value
    triplicated, bit for bit, on hand-built and generated data alike."""
    awkward = 0.1 + 0.2
    raw = np.zeros((1, 7, 4))
    raw[0, -1, 2] = awkward
    split = Split(("p",), (None,), raw, np.zeros((1, 3)), input=raw * 0.5)
    pred = last_value_predict(split.raw, target_index=2)
    assert np.array_equal(pred, np.array([[awkward, awkward, awkward]]))

    schema = default_schema()
    careers, _ = generate(default_specs(n_star=3, n_regular=5), seed=1)
    pred = last_value_predict(careers.raw, schema.target_index)
    for i, raw in enumerate(careers.raw):
        assert np.array_equal(pred[i], np.array([raw[-1, schema.target_index]] * 3))
    print("\nPASS carry-forward exactness: raw age-28 value triplicated bit-exact")


def test_reference_figures_stated_as_reference_points():
    """The README quotes the full-scale reference results (1.42/0.55 vs
    1.84/0.19) and frames them as reference points, not tolerances."""
    text = README.read_text(encoding="utf-8")
    for figure in ("1.42", "0.55", "1.84", "0.19"):
        assert figure in text, f"README is missing reference figure {figure}"
    lowered = text.lower()
    assert "reference point" in lowered
    assert "not" in lowered and "tolerance" in lowered
    print("\nPASS documentation: reference figures present and framed as reference points")


def test_pipeline_artifacts_are_deterministic(tmp_path):
    """Rerunning every command with the same config and seed reproduces
    every artifact byte for byte (run_info.json, which carries a
    timestamp, is the only exception)."""

    def run(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        config = out_dir / "config.json"
        config.write_text(
            json.dumps(
                {
                    "autoencoder": {"max_epochs": 8},
                    "forecaster": {"max_epochs": 8},
                    "k_range": [2, 4],
                    "kmeans_restarts": 4,
                }
            ),
            encoding="utf-8",
        )
        base = ["--config", str(config), "--out", str(out_dir), "--seed", "3"]
        for argv in (
            ["synth", *base, "--stars", "8", "--regulars", "24"],
            ["ingest", *base, "--input", str(out_dir / "synthetic.csv")],
            ["stage1", *base],
            ["stage2", *base],
            ["stage2", *base, "--standard"],
            ["evaluate", *base],
        ):
            assert cli_main(argv) == 0, f"{argv[0]} failed"

    first, second = tmp_path / "first", tmp_path / "second"
    run(first)
    run(second)

    compared = 0
    for root, _, files in os.walk(first):
        for name in files:
            if name in ("run_info.json", "config.json"):
                continue
            a = Path(root) / name
            b = second / a.relative_to(first)
            assert b.is_file(), f"rerun did not produce {a.relative_to(first)}"
            assert a.read_bytes() == b.read_bytes(), (
                f"{a.relative_to(first)} differs between identical runs"
            )
            compared += 1
    assert compared >= 10
    print(f"\nPASS determinism: {compared} artifacts byte-identical across reruns")


# Runs one pool through ``stage2 --standard`` in-process; argv: output directory.
THREADED_PIPELINE = """
import json, sys
from pathlib import Path
from careercast.cli import main

out = Path(sys.argv[1])
out.mkdir(parents=True)
config = out / "config.json"
config.write_text(json.dumps({"autoencoder": {"max_epochs": 3}, "forecaster": {"max_epochs": 3}}))
base = ["--config", str(config), "--out", str(out), "--seed", "3"]
for argv in (
    ["synth", *base, "--stars", "8", "--regulars", "24"],
    ["ingest", *base, "--input", str(out / "synthetic.csv")],
    ["stage1", *base],
    ["stage2", *base],
    ["stage2", *base, "--standard"],
):
    assert main(argv) == 0, argv[0]
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every artifact and the silhouette report come out byte-identical at 1
    and 2 BLAS threads, as the README's Determinism paragraph states."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-c", THREADED_PIPELINE, str(tmp_path / f"t{threads}")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = ("dataset.json", "autoencoder.json", "clusters.json", "forecaster.json",
             "forecaster_standard.json", "reports/silhouette.csv")
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), (
            f"{name} differs between 1 and 2 BLAS threads"
        )
    print(f"\nPASS thread count: {len(names)} files byte-identical at 1 and 2 BLAS threads")
