"""Metrics and report assembly, anchored to hand-computed values."""

import numpy as np
import pytest

from careercast.artifacts import write_csv_table
from careercast.errors import ParameterError, ShapeError, UndefinedMetricError
from careercast.evaluation import (
    EvalReport,
    evaluate,
    export_curves,
    export_scatter,
    mae,
    r2,
)
from careercast.ingest import Split


def make_split(*players):
    """A split of (player_id, target) or (player_id, target, category) tuples."""
    players = [p if len(p) == 3 else (*p, None) for p in players]
    return Split(
        player_ids=tuple(p[0] for p in players),
        category=tuple(p[2] for p in players),
        raw=np.zeros((len(players), 7, 2)),
        target=np.array([p[1] for p in players], dtype=float).reshape(len(players), 3),
    )


def reversed_split(split):
    return Split(
        split.player_ids[::-1], split.category[::-1], split.raw[::-1], split.target[::-1]
    )


def test_mae_hand_values():
    assert mae([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(4.0 / 3.0)
    assert mae([[1.0, -1.0]], [[0.0, 1.0]]) == 1.5
    assert mae([5.0], [5.0]) == 0.0


def test_r2_hand_values():
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    # ss_res = 0.25 * 4 = 1, ss_tot = 5 -> 0.8
    actual = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    pred = actual + 0.5 * np.array([1, -1, 1, -1, 0.0])
    assert r2(pred, actual) == pytest.approx(1.0 - 1.0 / 10.0, abs=1e-12)


def test_r2_of_pooled_mean_is_zero():
    rng = np.random.default_rng(0)
    actual = rng.normal(size=(40, 3))
    pred = np.full_like(actual, actual.mean())
    assert abs(r2(pred, actual)) < 1e-12


def test_metric_errors():
    with pytest.raises(ShapeError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        mae([], [])
    with pytest.raises(UndefinedMetricError):
        r2([1.0, 2.0], [3.0, 3.0])


def test_evaluate_pools_players_and_categories():
    careers = make_split(
        ("a", [1.0, 2.0, 3.0], "star"),
        ("b", [0.0, 0.0, 6.0], "regular"),
        ("c", [2.0, 2.0, 2.0], "regular"),
        ("d", [4.0, 4.0, 4.0]),
    )
    offset = np.array([1.0, -1.0, 0.5])

    def predictor(split):
        return split.target + offset

    report = evaluate("toy", predictor, careers)
    assert report.model_name == "toy"
    expected_mae = np.abs(offset).mean()
    assert report.overall.mae == pytest.approx(expected_mae, abs=1e-12)
    assert report.overall.n == 4
    assert sorted(report.per_category) == ["regular", "star"]
    assert report.per_category["regular"].n == 2
    # every category sees the same constant offset
    assert report.per_category["star"].mae == pytest.approx(expected_mae, abs=1e-12)
    assert report.per_category["regular"].mae == pytest.approx(expected_mae, abs=1e-12)
    # pooled mae equals the weighted mean of per-category plus uncategorized
    doc = report.to_doc()
    assert doc["model"] == "toy"
    assert set(doc["per_category"]) == {"regular", "star"}


def test_evaluate_is_order_invariant():
    careers = make_split(
        ("a", [1.0, 2.0, 3.0], "star"),
        ("b", [-2.0, 0.0, 1.0], "regular"),
        ("c", [0.5, 0.5, 0.5], "star"),
    )

    def predictor(split):
        return split.target * 0.9

    forward = evaluate("m", predictor, careers)
    backward = evaluate("m", predictor, reversed_split(careers))
    assert forward.overall.mae == pytest.approx(backward.overall.mae, abs=1e-12)
    assert forward.overall.r2 == pytest.approx(backward.overall.r2, abs=1e-12)


def test_evaluate_handles_zero_variance_targets():
    careers = make_split(("a", [2.0, 2.0, 2.0]), ("b", [2.0, 2.0, 2.0]))
    report = evaluate("m", lambda s: np.full((2, 3), 2.5), careers)
    assert report.overall.r2 is None
    assert report.overall.mae == 0.5


def test_evaluate_validation():
    with pytest.raises(ParameterError):
        evaluate("m", lambda s: np.zeros((0, 3)), make_split())
    careers = make_split(("a", [1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        evaluate("m", lambda s: np.zeros((1, 2)), careers)


def test_export_curves_player_rows():
    careers = make_split(("a", [1.0, 2.0, 3.0], "star"), ("b", [4.0, 5.0, 6.0]))
    report = evaluate("m", lambda s: s.target + 1.0, careers)
    columns, rows = export_curves(report, by="player")
    assert columns == ("series", "age", "actual", "predicted")
    assert len(rows) == 6
    assert rows[0] == ("a", 29, 1.0, 2.0)
    assert rows[5] == ("b", 31, 6.0, 7.0)


def test_export_curves_category_means():
    careers = make_split(
        ("a", [1.0, 2.0, 3.0], "star"),
        ("b", [3.0, 4.0, 5.0], "star"),
        ("c", [0.0, 0.0, 0.0]),
    )
    report = evaluate("m", lambda s: s.target * 2.0, careers)
    columns, rows = export_curves(report, by="category")
    by_series = {}
    for series, age, actual, predicted in rows:
        by_series.setdefault(series, []).append((age, actual, predicted))
    assert sorted(by_series) == ["star", "uncategorized"]
    assert by_series["star"][0] == (29, 2.0, 4.0)  # mean of 1,3 and 2,6
    assert by_series["uncategorized"][2] == (31, 0.0, 0.0)
    with pytest.raises(ParameterError):
        export_curves(report, by="team")
    with pytest.raises(ParameterError):
        export_curves(EvalReport("empty", (), (), np.empty((0, 3)), np.empty((0, 3))), by="player")


def test_export_scatter():
    careers = make_split(("a", [1.0, 2.0, 3.0], "star"), ("b", [0.0, 0.0, 0.0]))
    report = evaluate("m", lambda s: s.target - 1.0, careers)
    columns, rows = export_scatter(report)
    assert columns == ("age", "actual", "predicted", "category")
    assert rows[0] == (29, 1.0, 0.0, "star")
    assert rows[3] == (29, 0.0, -1.0, "")
    assert len(rows) == 6


def test_csv_table_floats_survive_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    awkward = [0.1 + 0.2, 1.0 / 3.0, -0.0, 1e-300]
    write_csv_table(path, ("a", "b", "c", "d"), [tuple(awkward)])
    header, line = path.read_text().strip().split("\n")
    assert header == "a,b,c,d"
    values = [float(tok) for tok in line.split(",")]
    assert values == awkward
    assert line.split(",")[2] == "-0.0"
