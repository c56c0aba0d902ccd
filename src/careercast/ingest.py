"""Season CSV ingestion.

Parses per-season rows, keeps players whose careers are complete enough to
learn from, fills input-side gaps, and splits the careers into train/test
blocks in original units with train-fit, unapplied normalization statistics;
``artifacts.normalize`` z-scores the inputs for the commands that train or
evaluate. Targets (BPM at ages 29-31) are never imputed and never
normalized; eligibility requires them to be observed.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ImputationError, IngestError, SchemaError, SplitError
from .nn.training import MIN_TRAIN_SAMPLES
from .rng import substream
from .schema import COUNTING, FeatureSchema

logger = logging.getLogger(__name__)

INPUT_AGES = tuple(range(22, 29))  # rows of a career matrix, in order
TARGET_AGES = (29, 30, 31)
CAREER_AGES = INPUT_AGES + TARGET_AGES  # the ages a career is read over, 22-31
MIN_SEASONS = 5  # season rows required inside CAREER_AGES, whatever their cells hold
CATEGORIES = ("star", "regular")
MANDATORY_COLUMNS = ("player_id", "player_name", "season", "age")

AGE_BOUNDS = (18, 45)
SEASON_BOUNDS = (1995, 2023)
TEST_FRACTION = 36.0 / 177.0  # the paper's 36 test players of 177


@dataclass(slots=True)
class SeasonRecord:
    """One player-season row: only what ingest reads after parsing.

    ``values`` is the row's view of the parsed (rows, features) matrix, in
    schema order, NaN where a cell is missing; ``imputed`` is the sorted
    tuple of column indices that imputation filled (``()`` as parsed).
    """

    player_id: str
    age: int
    category: str | None
    values: np.ndarray
    imputed: tuple[int, ...] = ()


@dataclass
class Split:
    """Careers as arrays, one player per leading index, in split order.

    ``raw`` is the (n, 7, features) block of ages 22-28 in original units,
    every schema column kept; the last-value baseline and the dataset
    artifact read it. ``input`` is what models consume: the z-scored kept
    columns, which ``artifacts.normalize`` sets (``stage1``, ``stage2`` and
    ``evaluate`` call it), and None until then. ``target`` is the (n, 3) BPM
    at ages 29-31.
    """

    player_ids: tuple[str, ...]
    category: tuple[str | None, ...]
    raw: np.ndarray
    target: np.ndarray
    input: np.ndarray | None = None

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        n = len(self.player_ids)
        if self.raw.ndim != 3 or self.raw.shape[:2] != (n, len(INPUT_AGES)):
            raise IngestError(
                f"career block must be ({n}, {len(INPUT_AGES)}, features), "
                f"got shape {self.raw.shape}"
            )
        if self.target.shape != (n, len(TARGET_AGES)):
            raise IngestError(
                f"target must be ({n}, {len(TARGET_AGES)}), got shape {self.target.shape}"
            )

    def __len__(self) -> int:
        return len(self.player_ids)


@dataclass
class NormStats:
    """Per-feature z-score statistics, fit on train inputs only."""

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    dropped: tuple[str, ...] = ()

    @classmethod
    def fit(cls, train_raw: np.ndarray, columns) -> "NormStats":
        """Mean and std of each column over every train row; zero-std columns are dropped.

        ``train_raw`` is the (n, 7, features) train block, its last axis named
        ``columns``. Ingest and the dataset loader both fit through here, so a
        loaded dataset's statistics are bit-identical to ingest's.
        """
        if len(train_raw) == 0:
            raise SplitError("train split is empty; no statistics to normalize with")
        stacked = train_raw.reshape(-1, len(columns))
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        keep = std > 0.0
        return cls(
            names=tuple(n for n, k in zip(columns, keep) if k),
            mean=mean[keep],
            std=std[keep],
            dropped=tuple(n for n, k in zip(columns, keep) if not k),
        )

    def apply(self, raw: np.ndarray, columns) -> np.ndarray:
        """Z-score the kept columns of ``raw``, whose last axis is named ``columns``."""
        kept = set(self.names)
        keep = [j for j, name in enumerate(columns) if name in kept]
        out = np.take(raw, keep, axis=-1)  # a C-ordered copy, so flattening is a view
        out -= self.mean
        out /= self.std
        return out


@dataclass
class Dataset:
    """Train/test careers plus their train-fit statistics, which ingest does not apply."""

    train: Split
    test: Split
    norm_stats: NormStats
    seed: int
    schema: FeatureSchema


def parse_season_csv(path: str, schema: FeatureSchema) -> list[SeasonRecord]:
    """Read season rows from a CSV file into one (rows, features) float matrix.

    The header must name player_id, player_name, season, age and every
    schema feature; a ``category`` column (star/regular) is optional. The
    name and season are checked but not kept; a player's rows share one
    ``str`` for the id and one for the category. A repeated header name
    reads its last column, blank lines are skipped, and a short row's absent
    cells are missing. Unparseable or non-finite numeric cells become
    missing (NaN) rather than errors; identity columns must parse. A line
    the csv module cannot read (a cell over its field size limit, say)
    raises ``IngestError`` naming the line. A leading UTF-8 byte-order mark
    is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            return _read_records(path, reader, schema)
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: unreadable CSV line: {exc}") from None


def _read_records(path: str, reader, schema: FeatureSchema) -> list[SeasonRecord]:
    """The season rows after ``reader``'s header line; see ``parse_season_csv``."""
    from array import array  # a compiled module: commands that parse no CSV never load it

    header = next(reader, None)
    if header is None:
        raise EmptyInputError(f"{path}: file is empty (no header row)")
    missing = [c for c in (*MANDATORY_COLUMNS, *schema.names) if c not in header]
    if missing:
        raise SchemaError(f"{path}: header lacks required column(s): {', '.join(missing)}")
    column = {name: j for j, name in enumerate(header)}  # a repeated name: its last column
    pid_at, _, season_at, age_at = (column[c] for c in MANDATORY_COLUMNS)
    category_at = column.get("category")
    feature_at = [column[name] for name in schema.names]

    cells = array("d")  # every feature cell, row after row; NaN where missing
    nan = math.nan
    rows = []  # (player_id, age, category) per row
    share = {}.setdefault  # one str object per distinct identity value
    for row in reader:
        if not row:
            continue
        line_no = reader.line_num
        row += [None] * (len(header) - len(row))
        pid = (row[pid_at] or "").strip()
        if not pid:
            raise IngestError(f"{path}:{line_no}: empty player_id")
        try:
            season = int(row[season_at])
            age = int(row[age_at])
        except (TypeError, ValueError):
            raise IngestError(
                f"{path}:{line_no}: season/age must be integers "
                f"(got {row[season_at]!r}, {row[age_at]!r})"
            ) from None
        if not AGE_BOUNDS[0] <= age <= AGE_BOUNDS[1]:
            raise IngestError(
                f"{path}:{line_no}: age {age} outside bounds {AGE_BOUNDS}"
            )
        if not SEASON_BOUNDS[0] <= season <= SEASON_BOUNDS[1]:
            raise IngestError(
                f"{path}:{line_no}: season {season} outside bounds {SEASON_BOUNDS}"
            )

        try:  # a blank or absent cell is NaN without a raise; float() strips whitespace
            cells.extend([float(row[j] or nan) for j in feature_at])
        except ValueError:  # unparseable text somewhere in the row: cell by cell
            for j in feature_at:
                try:
                    cells.append(float(row[j] or nan))
                except ValueError:
                    cells.append(nan)

        category = None
        if category_at is not None:
            raw = (row[category_at] or "").strip().lower()
            if raw:
                if raw not in CATEGORIES:
                    raise IngestError(
                        f"{path}:{line_no}: unknown category {raw!r} "
                        f"(expected one of {CATEGORIES})"
                    )
                category = share(raw, raw)

        rows.append((share(pid, pid), age, category))
    matrix = np.frombuffer(cells, dtype=float).reshape(len(rows), schema.n_features)
    for start in range(0, len(matrix), 4096):  # row blocks keep the mask small
        block = matrix[start : start + 4096]
        block[~np.isfinite(block)] = nan
    return [SeasonRecord(*identity, values) for identity, values in zip(rows, matrix)]


def select_eligible_players(
    records: list[SeasonRecord],
    target_index: int,
) -> tuple[dict[str, list[SeasonRecord]], dict[str, int]]:
    """Keep players with enough observed career to train and evaluate on.

    A player is eligible when they have at least MIN_SEASONS season rows at
    ages 22-31, however many of a row's cells are blank, and an observed
    target (column ``target_index``) at every target age. Retained lists
    are age-sorted. Duplicate (player, age) rows keep the first occurrence. Returns the eligible players and
    how many were dropped for each rule, as ``dropped_too_few_seasons`` and
    ``dropped_unobserved_targets``.
    """
    grouped: dict[str, dict[int, SeasonRecord]] = {}
    for rec in records:
        by_age = grouped.setdefault(rec.player_id, {})
        if rec.age in by_age:
            logger.warning(
                "duplicate season for player %s age %d; keeping first row",
                rec.player_id,
                rec.age,
            )
            continue
        by_age[rec.age] = rec

    eligible: dict[str, list[SeasonRecord]] = {}
    dropped = {"dropped_too_few_seasons": 0, "dropped_unobserved_targets": 0}
    for pid, by_age in grouped.items():
        window = [a for a in by_age if a in CAREER_AGES]
        if len(window) < MIN_SEASONS:
            dropped["dropped_too_few_seasons"] += 1
        elif any(a not in by_age or math.isnan(by_age[a].values[target_index]) for a in TARGET_AGES):
            dropped["dropped_unobserved_targets"] += 1
        else:
            eligible[pid] = sorted(by_age.values(), key=lambda r: r.age)
    return eligible, dropped


def peer_medians(peers: list[SeasonRecord], schema: FeatureSchema) -> np.ndarray:
    """Median of each feature's observed peer values at each input age.

    ``peers`` are rows as parsed, before any imputation. Row ``i`` is age
    ``INPUT_AGES[i]`` and column ``j`` is feature ``schema.names[j]``. Missing
    cells do not count; an entry is NaN where no peer observes that feature
    at that age. Each entry is one ``np.median`` of that feature's observed
    peer cells, in peer order, so the table costs one median per (age,
    feature) however gappy the pool.
    """
    at_age = {age: [] for age in INPUT_AGES}
    for r in peers:
        if r.age in at_age:
            at_age[r.age].append(r)
    medians = np.full((len(INPUT_AGES), schema.n_features), np.nan)
    for i, rows in enumerate(at_age.values()):
        if not rows:
            continue
        values = np.array([r.values for r in rows], dtype=float)
        for j, cells in enumerate(values.T):
            observed = cells[~np.isnan(cells)]
            if observed.size:
                medians[i, j] = np.median(observed)
    return medians


def impute_missing(
    seasons: list[SeasonRecord],
    schema: FeatureSchema,
    medians: np.ndarray,
) -> list[SeasonRecord]:
    """Complete the rows of every input age in place, leaving targets untouched.

    ``seasons`` are one player's rows as parsed. A wholly absent input-age
    row is first copied from the player's nearest season (the nearest
    earlier one, else the nearest later one), ratio-like columns included,
    and every copied cell counts as imputed.
    Only the cells the (observed or copied) row still lacks are then filled:
    a ratio-like cell takes the peer median for that feature at that age
    from ``medians`` (see ``peer_medians``), and a counting cell copies the
    player's nearest observed value of that feature the same way, falling
    back to the peer median if the player never observed it. Returns the
    input-age rows in age order, then the target-age rows. Applying this to
    its own output is the identity. A player without gaps returns after one
    sum per row; otherwise each season is read once as a list, and a counting
    cell walks the player's ages from the nearest earlier one down, then up.
    """
    by_age = {r.age: r for r in seasons}
    rows = [by_age.get(age) for age in INPUT_AGES]
    targets = [by_age[a] for a in TARGET_AGES if a in by_age]
    # NaN survives a sum, and finite cells can only overflow it to inf, never to NaN.
    if None not in rows and not any(math.isnan(sum(r.values.tolist())) for r in rows):
        return rows + targets

    own_ages = sorted(by_age)
    own = [by_age[age].values.tolist() for age in own_ages]  # as parsed, NaN where missing
    # Every copy is taken before any cell is filled, so it copies parsed cells only.
    for i, age in enumerate(INPUT_AGES):
        if rows[i] is None:  # copy the nearest earlier season, else the nearest later one
            if not own_ages:
                raise ImputationError(f"an empty career has no season to fill age {age} from")
            src = by_age[own_ages[max(bisect_left(own_ages, age) - 1, 0)]]
            rows[i] = SeasonRecord(
                src.player_id, age, src.category, src.values.copy(), tuple(range(len(src.values)))
            )
    for rec, medians_at_age in zip(rows, medians.tolist()):
        gaps = [j for j, v in enumerate(rec.values.tolist()) if v != v]  # NaN cells
        if not gaps:
            continue
        split = bisect_left(own_ages, rec.age)
        walk = own[:split][::-1] + own[split:]  # nearest earlier age first, then later
        for j in gaps:
            name = schema.names[j]
            value = medians_at_age[j]
            counting = schema.imputation_class[name] == COUNTING
            if counting:
                # Never observed anywhere in this career: the peer median.
                value = next((c[j] for c in walk if c[j] == c[j]), value)
            if math.isnan(value):
                lack = ("unobserved for the player and the peer pool" if counting
                        else "has no observed peer values")
                raise ImputationError(
                    f"player {rec.player_id}: feature {name!r} {lack} at age {rec.age}"
                )
            rec.values[j] = value
        rec.imputed = tuple(sorted({*rec.imputed, *gaps}))
    return rows + targets


def build_sequences(
    complete: dict[str, list[SeasonRecord]],
    schema: FeatureSchema,
) -> Split:
    """Stack each player's ``impute_missing`` rows into one unnormalized split.

    A player's rows are taken by position: the input ages, then the target
    ages, which eligibility keeps observed. The category is the first
    non-empty one in that order. Players keep their order.
    """
    raw = np.empty((len(complete), len(INPUT_AGES), schema.n_features), dtype=float)
    target = np.empty((len(complete), len(TARGET_AGES)), dtype=float)
    ti = schema.target_index
    categories = []
    for p, rows in enumerate(complete.values()):
        raw[p] = [r.values for r in rows[: len(INPUT_AGES)]]
        target[p] = [r.values[ti] for r in rows[len(INPUT_AGES) :]]
        categories.append(next((r.category for r in rows if r.category), None))
    return Split(tuple(complete), tuple(categories), raw, target)


def read_rows_block(path: str, schema: FeatureSchema) -> np.ndarray:
    """The (7, features) block of ages 22-28 from one player's season CSV.

    The file is read as ``ingest_csv`` reads one; rows at other ages are
    ignored, but every row must carry one ``player_id``, and each input age
    needs exactly one row with every cell observed.
    """
    records = parse_season_csv(path, schema)
    players = sorted({r.player_id for r in records})
    if len(players) > 1:
        raise IngestError(f"{path}: more than one player_id: {players[0]}, {players[1]}")
    by_age = {}
    for rec in records:
        if rec.age in INPUT_AGES and rec.age in by_age:
            raise IngestError(f"{path}: age {rec.age}: more than one row")
        by_age[rec.age] = rec.values
    absent = [str(age) for age in INPUT_AGES if age not in by_age]
    if absent:
        raise IngestError(f"{path}: no row at age(s) {', '.join(absent)}")
    block = np.array([by_age[age] for age in INPUT_AGES])
    missing = np.argwhere(np.isnan(block))
    if missing.size:
        i, j = missing[0]
        raise IngestError(
            f"{path}: age {INPUT_AGES[i]}: column {schema.names[j]!r} is missing "
            "or not a finite number"
        )
    return block


def _split_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Player-level split of ``n`` players drawn from a fresh ``ingest.split``
    substream ``rng``: (test indices, train indices). A ``TEST_FRACTION``
    share of the players is tested, at least one and never all."""
    if n < 2:
        raise SplitError(f"need at least 2 sequences to split, got {n}")
    order = rng.permutation(n)
    n_test = min(max(int(round(n * TEST_FRACTION)), 1), n - 1)
    return order[:n_test], order[n_test:]


def split_and_normalize(
    careers: Split, schema: FeatureSchema, test_idx: np.ndarray, train_idx: np.ndarray, seed: int
) -> Dataset:
    """Split ``careers`` at the caller's player indices, plus train-only statistics.

    ``ingest_csv`` draws (``test_idx``, ``train_idx``) once with
    ``_split_indices``; ``seed`` is only recorded. Duplicate ids and a player
    in both splits are refused. ``NormStats`` is fit on the train careers
    but not applied: each split holds ``raw`` and ``target`` only, and
    ``artifacts.normalize`` builds the z-scored ``input``. Constant train
    features are named in ``norm_stats.dropped`` with a warning (they carry
    no signal and would divide by zero); ``raw`` keeps every column.
    """
    ids = careers.player_ids
    if len(set(ids)) != len(ids):
        raise SplitError("duplicate player_id in careers; cannot guarantee a leak-free split")

    train_raw = careers.raw[train_idx]  # gathered once: the statistics and the train split
    stats = NormStats.fit(train_raw, schema.names)
    if stats.dropped:
        logger.warning(
            "dropping constant train feature(s) before normalization: %s",
            ", ".join(stats.dropped),
        )

    def part(idx, raw) -> Split:
        categories = tuple(careers.category[i] for i in idx)
        return Split(tuple(ids[i] for i in idx), categories, raw, careers.target[idx])

    train, test = part(train_idx, train_raw), part(test_idx, careers.raw[test_idx])
    overlap = set(train.player_ids) & set(test.player_ids)
    if overlap:
        raise SplitError(f"players leaked into both splits: {sorted(overlap)}")
    return Dataset(train=train, test=test, norm_stats=stats, seed=seed, schema=schema)


def ingest_csv(path: str, schema: FeatureSchema, seed: int = 0) -> tuple[Dataset, dict]:
    """Run the whole ingestion chain and return the dataset plus a summary.

    Imputation medians come from train players only: the seeded split is
    drawn once, before imputing, and ``split_and_normalize`` stores that draw.
    A train split with fewer than ``MIN_TRAIN_SAMPLES`` players, which no
    model could train on, is refused before anything is imputed.
    The summary counts players kept and dropped by reason, and under
    ``imputed_cells`` the cells filled at each age for each feature (nonzero
    counts only); the CLI prints the player counts and stores it all in the
    dataset artifact.
    """
    # Made before parsing, so numpy.random is loaded before the rows exist
    # rather than on top of them; drawn from only after eligibility.
    split_rng = substream(seed, "ingest.split")
    records = parse_season_csv(path, schema)
    eligible, dropped = select_eligible_players(records, schema.target_index)
    rows_parsed = len(records)
    del records  # from here on, ``eligible`` holds the only parsed rows

    if not eligible:
        raise IngestError("no eligible players")
    pids = list(eligible)
    test_idx, train_idx = _split_indices(len(pids), split_rng)
    if len(train_idx) < MIN_TRAIN_SAMPLES:
        raise SplitError(
            f"{len(train_idx)} train players; training needs at least {MIN_TRAIN_SAMPLES}"
        )
    medians = peer_medians([r for i in sorted(train_idx) for r in eligible[pids[i]]], schema)
    # Filled in place: the parsed matrix stays the only copy of the cells.
    complete = {pid: impute_missing(eligible.pop(pid), schema, medians) for pid in pids}
    # Counted in a generator, whose loop variables go with it: a row left bound
    # here would keep the whole parsed matrix alive.
    cells = Counter((r.age, j) for rows in complete.values() for r in rows for j in r.imputed)
    imputed: dict[str, dict[str, int]] = {}
    for (age, j), n in cells.items():
        imputed.setdefault(str(age), {})[schema.names[j]] = n
    careers = build_sequences(complete, schema)
    del complete
    dataset = split_and_normalize(careers, schema, test_idx, train_idx, seed)
    summary = {
        "rows_parsed": rows_parsed,
        "players_total": len(pids) + sum(dropped.values()),
        "players_kept": len(pids),
        **dropped,
        "train_players": len(dataset.train),
        "test_players": len(dataset.test),
        "dropped_constant_features": list(dataset.norm_stats.dropped),
        "imputed_cells": imputed,
    }
    return dataset, summary
