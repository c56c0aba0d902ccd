"""Accuracy metrics and report assembly.

MAE and R-squared are pooled over every predicted player-year (three
values per player), giving one number per model. Reports also break the
same metrics out by player category and keep the per-player arrays for
the plot exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedMetricError
from .ingest import TARGET_AGES


def _paired(pred, actual):
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise ShapeError(
            f"prediction shape {pred.shape} does not match actual {actual.shape}"
        )
    if pred.size == 0:
        raise ParameterError("cannot score an empty prediction set")
    return pred, actual


def mae(pred, actual) -> float:
    """Mean absolute error over all scalar entries."""
    pred, actual = _paired(pred, actual)
    return float(np.abs(pred - actual).mean())


def r2(pred, actual) -> float:
    """1 - SS_res/SS_tot about the pooled actual mean, over all entries."""
    pred, actual = _paired(pred, actual)
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedMetricError(
            "actual values have zero variance; r2 is undefined"
        )
    ss_res = float(((pred - actual) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass
class MetricBlock:
    mae: float
    r2: float | None
    n: int

    def to_doc(self) -> dict:
        return {"mae": self.mae, "r2": self.r2, "n": self.n}


@dataclass
class EvalReport:
    """One predictor scored on one split: per-player arrays plus metric blocks."""

    model_name: str
    player_ids: tuple[str, ...]
    category: tuple[str | None, ...]
    actual: np.ndarray
    predicted: np.ndarray
    overall: MetricBlock | None = None
    per_category: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "model": self.model_name,
            "overall": self.overall.to_doc(),
            "per_category": {
                name: block.to_doc() for name, block in sorted(self.per_category.items())
            },
        }


def _block(pred: np.ndarray, actual: np.ndarray) -> MetricBlock:
    try:
        score = r2(pred, actual)
    except UndefinedMetricError:
        score = None
    return MetricBlock(mae=mae(pred, actual), r2=score, n=pred.shape[0])


def evaluate(model_name: str, predict_fn, split) -> EvalReport:
    """Score one predictor on a ``Split`` of careers.

    ``predict_fn`` maps the split to an (n, 3) prediction array.
    Zero-variance actuals leave r2 as None rather than failing the run.
    """
    n = len(split.player_ids)
    if n == 0:
        raise ParameterError("no careers to evaluate")
    pred = np.asarray(predict_fn(split), dtype=float)
    if pred.shape != (n, len(TARGET_AGES)):
        raise ShapeError(
            f"predictor returned shape {pred.shape}, expected ({n}, {len(TARGET_AGES)})"
        )
    actual = split.target
    report = EvalReport(
        model_name, split.player_ids, split.category, actual, pred, _block(pred, actual)
    )
    for cat in sorted({c for c in split.category if c is not None}):
        idx = [i for i, c in enumerate(split.category) if c == cat]
        report.per_category[cat] = _block(pred[idx], actual[idx])
    return report


def export_curves(report: EvalReport, by: str):
    """Rows for trend plots: (series, age, actual, predicted).

    Player mode emits each player's three target ages; category mode
    emits the per-age arithmetic mean over each category's players.
    """
    if not report.player_ids:
        raise ParameterError("report has no rows to export")
    columns = ("series", "age", "actual", "predicted")
    out = []
    if by == "player":
        for pid, actual, predicted in zip(report.player_ids, report.actual, report.predicted):
            for j, age in enumerate(TARGET_AGES):
                out.append((pid, age, actual[j], predicted[j]))
    elif by == "category":
        groups = {}
        for i, cat in enumerate(report.category):
            groups.setdefault(cat if cat is not None else "uncategorized", []).append(i)
        for cat in sorted(groups):
            actual = report.actual[groups[cat]].mean(axis=0)
            predicted = report.predicted[groups[cat]].mean(axis=0)
            for j, age in enumerate(TARGET_AGES):
                out.append((cat, age, actual[j], predicted[j]))
    else:
        raise ParameterError(f"unknown curve grouping {by!r}; use 'player' or 'category'")
    return columns, out


def export_scatter(report: EvalReport):
    """One row per predicted player-year: (age, actual, predicted, category)."""
    if not report.player_ids:
        raise ParameterError("report has no rows to export")
    columns = ("age", "actual", "predicted", "category")
    out = []
    for cat, actual, predicted in zip(report.category, report.actual, report.predicted):
        for j, age in enumerate(TARGET_AGES):
            out.append((age, actual[j], predicted[j], cat if cat is not None else ""))
    return columns, out
