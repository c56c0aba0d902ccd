"""Feature schema: the named season columns and how gaps in them are filled.

A schema is loaded from JSON so other datasets (or sports) can be ingested
by swapping the file. The bundled default lists the 48 per-season numeric
columns of the NBA seasonal dataset, with ``BPM`` as the prediction target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import SchemaError

RATIO_LIKE = "ratio_like"
COUNTING = "counting"
IMPUTATION_CLASSES = (RATIO_LIKE, COUNTING)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names, the target column, and per-feature imputation class."""

    names: tuple[str, ...]
    target_name: str
    imputation_class: dict[str, str]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if list(self.names).count(n) > 1})
            raise SchemaError(f"duplicate feature names: {dupes}")
        if self.names.count(self.target_name) != 1:
            raise SchemaError(
                f"target {self.target_name!r} must appear exactly once in the feature list"
            )
        missing = [n for n in self.names if n not in self.imputation_class]
        extra = [n for n in self.imputation_class if n not in self.names]
        if missing or extra:
            raise SchemaError(
                f"imputation classes must cover the feature list exactly "
                f"(missing: {missing}, extra: {extra})"
            )
        bad = {n: c for n, c in self.imputation_class.items() if c not in IMPUTATION_CLASSES}
        if bad:
            raise SchemaError(f"unknown imputation class(es): {bad}")

    @property
    def n_features(self) -> int:
        return len(self.names)

    @property
    def target_index(self) -> int:
        return self.names.index(self.target_name)

    def to_doc(self) -> dict:
        return {
            "version": 1,
            "target": self.target_name,
            "features": [
                {"name": n, "class": self.imputation_class[n]} for n in self.names
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FeatureSchema":
        try:
            features = doc["features"]
            target = doc["target"]
            names = tuple(f["name"] for f in features)
            classes = {f["name"]: f["class"] for f in features}
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc
        return cls(names=names, target_name=target, imputation_class=classes)


def load_schema(path: str) -> FeatureSchema:
    """Load a feature schema from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    return FeatureSchema.from_doc(doc)


def default_schema() -> FeatureSchema:
    """The bundled 48-column NBA season schema (target BPM)."""
    text = resources.files("careercast.data").joinpath("nba48.json").read_text("utf-8")
    return FeatureSchema.from_doc(json.loads(text))
