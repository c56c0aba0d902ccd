"""Synthetic careers with known archetype structure.

Each archetype follows a quadratic aging curve: the target peaks at
``peak_bpm`` around ``peak_age`` and falls off at rate ``curvature``.
Every other feature is an affine function of the season's target value
plus noise, with coefficients drawn once per archetype. Ground-truth
archetype labels come back alongside the careers, so clustering
quality is checkable end to end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import CATEGORIES, INPUT_AGES, TARGET_AGES, SeasonRecord, Split, build_sequences
from .rng import substream
from .schema import FeatureSchema, default_schema

ALL_AGES = tuple(range(INPUT_AGES[0], TARGET_AGES[-1] + 1))

# affine maps from the target to the other features, drawn per archetype
SLOPE_RANGE = (-1.5, 1.5)
INTERCEPT_RANGE = (-2.0, 2.0)
FEATURE_NOISE_SCALE = 0.5

# birth years chosen so every generated season lands inside the default
# ingest season bounds (age-22 season >= 1995, age-31 season <= 2021)
BIRTH_BASE = 1973
BIRTH_SPAN = 18


@dataclass(frozen=True)
class ArchetypeSpec:
    """Parameters of one synthetic career shape."""

    count: int
    peak_age: float
    peak_bpm: float
    curvature: float
    noise_std: float
    category: str

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"count must be at least 1, got {self.count}")
        if self.curvature > 0:
            raise ParameterError(
                f"curvature must be non-positive (aging curve opens downward), "
                f"got {self.curvature}"
            )
        if self.noise_std < 0:
            raise ParameterError(f"noise_std must be non-negative, got {self.noise_std}")
        if self.category not in CATEGORIES:
            raise ParameterError(
                f"category must be one of {CATEGORIES}, got {self.category!r}"
            )


def bpm_curve(spec: ArchetypeSpec, ages) -> np.ndarray:
    """Noise-free target value at each age."""
    ages = np.asarray(ages, dtype=float)
    return spec.peak_bpm + spec.curvature * (ages - spec.peak_age) ** 2


def default_specs(
    n_star: int = 30, n_regular: int = 170, noise_std: float = 1.0
) -> list[ArchetypeSpec]:
    """Two archetypes with sharply different career shapes.

    Stars hold a high plateau through the forecast ages; regulars peak
    young and decline steeply, so knowing a player's type is worth
    several BPM at ages 29-31.
    """
    return [
        ArchetypeSpec(
            count=n_star,
            peak_age=28.5,
            peak_bpm=6.0,
            curvature=-0.02,
            noise_std=noise_std,
            category="star",
        ),
        ArchetypeSpec(
            count=n_regular,
            peak_age=22.5,
            peak_bpm=-1.0,
            curvature=-0.45,
            noise_std=noise_std,
            category="regular",
        ),
    ]


def generate_records(
    specs: list[ArchetypeSpec],
    seed: int = 0,
    schema: FeatureSchema | None = None,
) -> tuple[list[SeasonRecord], np.ndarray]:
    """Season rows for every synthetic player, plus per-player archetype labels.

    Rows cover ages 22-31 with every feature present, so the generated
    pool is fully eligible for ingestion without imputation.
    """
    if not specs:
        raise ParameterError("need at least one archetype spec")
    if schema is None:
        schema = default_schema()
    other = [n for n in schema.names if n != schema.target_name]
    ages = np.array(ALL_AGES, dtype=int)

    records: list[SeasonRecord] = []
    labels: list[int] = []
    idx = 0
    for a, spec in enumerate(specs):
        crng = substream(seed, f"synth.coeffs.{a}")
        slopes = crng.uniform(*SLOPE_RANGE, size=len(other))
        intercepts = crng.uniform(*INTERCEPT_RANGE, size=len(other))
        for _ in range(spec.count):
            prng = substream(seed, f"synth.player.{idx}")
            curve = bpm_curve(spec, ages)
            if spec.noise_std > 0:
                bpm = curve + prng.normal(0.0, spec.noise_std, size=ages.size)
                feat_noise = prng.normal(
                    0.0,
                    FEATURE_NOISE_SCALE * spec.noise_std,
                    size=(ages.size, len(other)),
                )
            else:
                bpm = curve
                feat_noise = np.zeros((ages.size, len(other)))
            birth = BIRTH_BASE + idx % BIRTH_SPAN
            pid = f"syn{idx:04d}"
            for t, age in enumerate(ages):
                features = {
                    name: float(intercepts[j] + slopes[j] * bpm[t] + feat_noise[t, j])
                    for j, name in enumerate(other)
                }
                features[schema.target_name] = float(bpm[t])
                records.append(
                    SeasonRecord(
                        player_id=pid,
                        player_name=f"Synth Player {idx:04d}",
                        season_end_year=birth + int(age),
                        age=int(age),
                        features=features,
                        category=spec.category,
                    )
                )
            labels.append(a)
            idx += 1
    return records, np.array(labels, dtype=int)


def generate(
    specs: list[ArchetypeSpec],
    seed: int = 0,
    schema: FeatureSchema | None = None,
) -> tuple[Split, np.ndarray]:
    """Careers in raw units as one unnormalized ``Split``, plus archetype labels.

    Normalization belongs to the ingest split. Player order matches label
    order.
    """
    if schema is None:
        schema = default_schema()
    records, labels = generate_records(specs, seed, schema)
    per_player: dict[str, list[SeasonRecord]] = {}
    for rec in records:
        per_player.setdefault(rec.player_id, []).append(rec)
    return build_sequences(per_player, schema), labels


def write_csv(
    path: str,
    specs: list[ArchetypeSpec],
    seed: int = 0,
    schema: FeatureSchema | None = None,
) -> int:
    """Emit season rows in the ingest CSV format; returns the row count."""
    if schema is None:
        schema = default_schema()
    records, _ = generate_records(specs, seed, schema)
    header = ["player_id", "player_name", "season", "age", "category", *schema.names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            writer.writerow(
                [
                    rec.player_id,
                    rec.player_name,
                    rec.season_end_year,
                    rec.age,
                    rec.category,
                    *[repr(rec.features[n]) for n in schema.names],
                ]
            )
    return len(records)
