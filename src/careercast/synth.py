"""Synthetic careers with known archetype structure.

Each archetype follows a quadratic aging curve: the target peaks at
``peak_bpm`` around ``peak_age`` and falls off at rate ``curvature``.
Every other feature is an affine function of the season's target value
plus noise, with coefficients drawn once per archetype. ``generate_block``
builds every career as one (players, ages 22-31, features) array, which
``write_csv`` prints as ingest-format season rows. Ground-truth archetype
labels come back alongside, so clustering quality is checkable end to end.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import CAREER_AGES, CATEGORIES, MANDATORY_COLUMNS
from .rng import substream
from .schema import FeatureSchema, default_schema

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
        if not math.isfinite(self.noise_std):
            raise ParameterError(f"noise_std must be finite, got {self.noise_std}")
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


def generate_block(
    specs: list[ArchetypeSpec], seed: int, schema: FeatureSchema
) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Every synthetic career as one block, plus ids, categories and labels.

    The block has shape (players, 10, features): ages 22-31 in order and
    the schema's columns in schema order, every cell present, so the pool
    is fully eligible for ingestion without imputation. Player ``p`` is
    ``syn{p:04d}``; labels are archetype indices into ``specs``.
    """
    if not specs:
        raise ParameterError("need at least one archetype spec")
    t = schema.target_index
    other = [j for j in range(schema.n_features) if j != t]
    ages = np.array(CAREER_AGES, dtype=float)
    labels = np.repeat(np.arange(len(specs)), [s.count for s in specs])
    block = np.empty((labels.size, ages.size, schema.n_features))
    idx = 0
    for a, spec in enumerate(specs):
        crng = substream(seed, f"synth.coeffs.{a}")
        slopes = crng.uniform(*SLOPE_RANGE, size=len(other))
        intercepts = crng.uniform(*INTERCEPT_RANGE, size=len(other))
        curve = bpm_curve(spec, ages)
        for _ in range(spec.count):
            prng = substream(seed, f"synth.player.{idx}")
            bpm, feat_noise = curve, np.zeros((ages.size, len(other)))
            if spec.noise_std > 0:
                bpm = curve + prng.normal(0.0, spec.noise_std, size=ages.size)
                feat_noise = prng.normal(
                    0.0,
                    FEATURE_NOISE_SCALE * spec.noise_std,
                    size=(ages.size, len(other)),
                )
            block[idx][:, other] = intercepts + slopes * bpm[:, None] + feat_noise
            block[idx][:, t] = bpm
            idx += 1
    ids = tuple(f"syn{p:04d}" for p in range(labels.size))
    categories = tuple(specs[a].category for a in labels)
    return block, ids, categories, labels


def write_csv(
    path: str,
    specs: list[ArchetypeSpec],
    seed: int = 0,
    schema: FeatureSchema | None = None,
) -> int:
    """Emit season rows in the ingest CSV format; returns the row count.

    The header goes through ``csv.writer``, which quotes a schema name that
    needs it. Data rows are joined by hand, one player's slice of the block
    listed at a time: no field in them holds a comma, quote or newline
    (ids, names, integers, categories, float ``repr``s), so the bytes are
    those ``csv.writer`` would write, ``\\r\\n`` terminator included.
    """
    if schema is None:
        schema = default_schema()
    block, ids, categories, _ = generate_block(specs, seed, schema)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*MANDATORY_COLUMNS, "category", *schema.names])
        for p, (pid, category, career) in enumerate(zip(ids, categories, block)):
            birth = BIRTH_BASE + p % BIRTH_SPAN
            for age, row in zip(CAREER_AGES, career.tolist()):
                fh.write(
                    f"{pid},Synth Player {p:04d},{birth + age},{age},{category},"
                    f"{','.join(map(repr, row))}\r\n"
                )
    return block.shape[0] * block.shape[1]
