"""CSV parsing, eligibility, imputation, and the normalized split."""

import csv
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import careercast
from careercast import artifacts
from careercast.autoencoder import flatten_batch
from careercast.errors import (
    EmptyInputError,
    ImputationError,
    IngestError,
    SchemaError,
    SplitError,
)
from careercast.ingest import (
    INPUT_AGES,
    SeasonRecord,
    Split,
    build_sequences,
    impute_missing,
    ingest_csv,
    parse_season_csv,
    peer_medians,
    select_eligible_players,
    split_and_normalize,
)
from careercast.schema import COUNTING, FeatureSchema, default_schema
from careercast.synth import default_specs, write_csv

from conftest import SMALL_NAMES, career_rows
from helpers import seeded_split


def full_career(pid, base_bpm, category=None, missing=()):
    by_age = {age: base_bpm + 0.1 * (age - 22) for age in range(22, 32)}
    return career_rows(pid, by_age, category=category, missing=missing)


def cell(rec, schema, name):
    """The value of one feature of a season row, or None where missing."""
    value = rec.values[schema.names.index(name)]
    return None if np.isnan(value) else value


def test_parse_season_csv_cells(small_schema, write_season_csv):
    rows = career_rows("p1", {22: 1.5, 23: 2.5}, category="star")
    rows[0]["TS%"] = ""        # blank -> missing
    rows[1]["PTS"] = "junk"    # unparseable -> missing
    rows[1]["G"] = "inf"       # non-finite -> missing
    path = write_season_csv(rows)
    records = parse_season_csv(path, small_schema)
    assert len(records) == 2
    assert records[0].player_id == "p1"
    assert records[0].category == "star"
    assert cell(records[0], small_schema, "BPM") == 1.5
    assert cell(records[0], small_schema, "TS%") is None
    assert cell(records[1], small_schema, "PTS") is None
    assert cell(records[1], small_schema, "G") is None
    assert cell(records[1], small_schema, "TS%") == 0.5


def test_parse_season_csv_errors(small_schema, write_season_csv, tmp_path):
    bad_cat = career_rows("p1", {22: 0.0})
    bad_cat[0]["category"] = "bench"
    with pytest.raises(IngestError):
        parse_season_csv(write_season_csv(bad_cat, "cat.csv"), small_schema)

    bad_age = career_rows("p2", {22: 0.0})
    bad_age[0]["age"] = 99
    with pytest.raises(IngestError):
        parse_season_csv(write_season_csv(bad_age, "age.csv"), small_schema)

    bad_season = career_rows("p3", {22: 0.0})
    bad_season[0]["season"] = 1890
    with pytest.raises(IngestError):
        parse_season_csv(write_season_csv(bad_season, "season.csv"), small_schema)

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(EmptyInputError):
        parse_season_csv(str(empty), small_schema)

    headerless = tmp_path / "short.csv"
    headerless.write_text("player_id,season,age\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        parse_season_csv(str(headerless), small_schema)


def test_parse_season_csv_reads_rows_as_dictreader_does(small_schema, tmp_path):
    """Blank lines are skipped, a short row's absent cells are missing, and a
    repeated header name reads its last column."""
    path = tmp_path / "rows.csv"
    path.write_text(
        "player_id,player_name,season,age,BPM,PTS,TS%,G,BPM\n"
        "p1,P1,2000,22,1.0,10.0,0.5,70,2.5\n"
        "\n"
        "p1,P1,2001,23,1.0,11.0\n",
        encoding="utf-8",
    )
    first, short = parse_season_csv(str(path), small_schema)
    assert cell(first, small_schema, "BPM") == 2.5  # the last BPM column
    assert cell(first, small_schema, "G") == 70.0
    assert (short.age, cell(short, small_schema, "PTS")) == (23, 11.0)
    assert cell(short, small_schema, "BPM") is None  # its last BPM column is absent
    assert cell(short, small_schema, "TS%") is None
    assert cell(short, small_schema, "G") is None

    path.write_text("player_id,player_name,season,age,BPM,PTS,TS%,G\np2,P2,2000\n", "utf-8")
    message = f"{path}:2: season/age must be integers (got '2000', None)"
    with pytest.raises(IngestError, match=re.escape(message)):
        parse_season_csv(str(path), small_schema)
    # Messages name the file's line: a skipped blank line still counts.
    path.write_text("player_id,player_name,season,age,BPM,PTS,TS%,G\n\n,P3\n", "utf-8")
    with pytest.raises(IngestError, match=re.escape(f"{path}:3: empty player_id")):
        parse_season_csv(str(path), small_schema)


def float_cell(text):
    """The per-cell reading of a feature cell: ``float()``, NaN unless finite."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return math.nan
    return value if math.isfinite(value) else math.nan


@pytest.mark.parametrize("names", [SMALL_NAMES, ("BPM",)], ids=["four-features", "one-feature"])
def test_parse_season_csv_reads_each_cell_as_float_does(tmp_path, names):
    """Every cell reads as ``float_cell`` reads it, NaN bits included, whatever else
    its row holds: blank, whitespace-only, NaN and infinite spellings, padded and
    underscored numbers, junk beside numbers, and the absent cells of a short row."""
    schema = FeatureSchema(
        names=names, target_name="BPM", imputation_class=dict.fromkeys(names, "ratio_like")
    )
    spellings = [
        "   ", "nan", "-nan", "-inf", " 2.5 ", "1_000", "", "7", "1e400", "abc", "-0.0", "+3"
    ]
    rows = [
        [spellings[(i + k) % len(spellings)] for k in range(len(names))]
        for i in range(len(spellings))
    ]
    rows += [["1.5", "-2", "4e2", "0.25"][: len(names)], ["junk", "1.5", "2", "3"][: len(names)]]
    lines = [f"p1,P1,{2000 + i},30," + ",".join(cells) for i, cells in enumerate(rows)]
    lines.append(",".join(["p1", "P1", "1999", "30", *rows[-2][:-1]]))  # short: last cell absent
    path = tmp_path / "cells.csv"
    path.write_text(
        "player_id,player_name,season,age," + ",".join(names) + "\n" + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
    records = parse_season_csv(str(path), schema)
    expected = [[float_cell(text) for text in cells] for cells in rows]
    expected.append([float_cell(text) for text in rows[-2][:-1]] + [math.nan])
    got = np.array([r.values for r in records])
    assert got.tobytes() == np.array(expected).tobytes()


def test_select_eligible_players(small_schema, write_season_csv):
    rows = []
    rows += full_career("keep", 2.0)
    rows += career_rows("short", {22: 1.0, 23: 1.0, 24: 1.0, 25: 1.0})
    rows += full_career("notarget", 0.0, missing=[(30, "BPM")])
    # five season rows count, though those at 22 and 23 hold no cell at all
    blank = [(age, name) for age in (22, 23) for name in SMALL_NAMES]
    rows += career_rows("blank", {22: 0.0, 23: 0.0, 29: 1.0, 30: 1.0, 31: 1.0}, missing=blank)
    path = write_season_csv(rows)
    records = parse_season_csv(path, small_schema)
    eligible, dropped = select_eligible_players(records, small_schema.target_index)
    assert set(eligible) == {"keep", "blank"}
    assert dropped == {"dropped_too_few_seasons": 1, "dropped_unobserved_targets": 1}
    ages = [r.age for r in eligible["keep"]]
    assert ages == sorted(ages)


def test_duplicate_season_keeps_first(small_schema, write_season_csv):
    rows = full_career("dup", 1.0)
    extra = dict(rows[0])
    extra["BPM"] = 99.0
    rows.append(extra)
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    age22 = [r for r in eligible["dup"] if r.age == 22]
    assert len(age22) == 1
    assert cell(age22[0], small_schema, "BPM") == 1.0


def test_impute_ratio_like_uses_peer_median(small_schema, write_season_csv):
    rows = []
    rows += full_career("hole", 1.0, missing=[(24, "TS%")])
    for i, ts in enumerate((0.41, 0.57, 0.63)):
        peer = full_career(f"peer{i}", 0.0)
        for row in peer:
            if row["age"] == 24:
                row["TS%"] = ts
        rows += peer
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs]
    completed = impute_missing(eligible["hole"], small_schema, peer_medians(peers, small_schema))
    filled = next(r for r in completed if r.age == 24)
    ts = small_schema.names.index("TS%")
    assert filled.values[ts] == 0.57  # median of peer values at age 24
    assert ts in filled.imputed


def test_impute_counting_copies_own_nearest(small_schema, write_season_csv):
    rows = full_career("own", 1.0, missing=[(25, "PTS")])
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs]
    completed = impute_missing(eligible["own"], small_schema, peer_medians(peers, small_schema))
    filled = next(r for r in completed if r.age == 25)
    by_age = {r.age: r for r in eligible["own"]}
    # nearest observed season, earlier preferred
    assert cell(filled, small_schema, "PTS") == cell(by_age[24], small_schema, "PTS")


def test_impute_counting_walks_every_age_the_player_has(small_schema, write_season_csv):
    """A counting cell's nearest observed value may sit outside ages 22-31."""
    ages = {age: 1.0 for age in range(19, 36)}
    rows = career_rows("early", ages, missing=[(a, "PTS") for a in range(21, 34)])
    rows += career_rows("late", ages, missing=[(a, "PTS") for a in range(19, 34)])
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs]
    medians = peer_medians(peers, small_schema)
    for pid, source_age in (("early", 20), ("late", 34)):
        source = next(r for r in eligible[pid] if r.age == source_age)
        completed = impute_missing(eligible[pid], small_schema, medians)
        for rec in completed[: len(INPUT_AGES)]:
            assert cell(rec, small_schema, "PTS") == cell(source, small_schema, "PTS"), rec.age


def test_impute_copies_an_absent_row_from_any_earlier_season_first(small_schema):
    def season(age):
        return SeasonRecord("p", age, None, np.full(4, float(age)))

    medians = np.zeros((len(INPUT_AGES), small_schema.n_features))
    for ages, sources in (
        ((22, 27, 29, 30, 31), {26: 22}),  # 27 is nearer, but later
        ((27, 22, 24, 29, 30, 31), {26: 24, 23: 22}),  # input order does not matter
        ((29, 27, 30, 31), {26: 27, 22: 27, 28: 27}),
    ):
        by_age = {r.age: r for r in impute_missing([season(a) for a in ages], small_schema, medians)}
        for age, source in sources.items():
            assert by_age[age].values.tolist() == [float(source)] * 4
    with pytest.raises(ImputationError, match="^an empty career has no season to fill age 22"):
        impute_missing([], small_schema, medians)

    # A copied row's gaps are filled like a parsed row's, and a refusal names the player.
    early = season(22)
    early.values[small_schema.names.index("TS%")] = np.nan
    medians[INPUT_AGES.index(23), small_schema.names.index("TS%")] = np.nan
    message = "^player p: feature 'TS%' has no observed peer values at age 23$"
    with pytest.raises(ImputationError, match=message):
        impute_missing([early, *map(season, (29, 30, 31))], small_schema, medians)


def test_impute_creates_missing_input_age_row(small_schema, write_season_csv):
    by_age = {age: 1.0 for age in range(22, 32) if age != 25}
    rows = career_rows("gap", by_age)
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs]
    completed = impute_missing(eligible["gap"], small_schema, peer_medians(peers, small_schema))
    ages = [r.age for r in completed]
    assert ages == list(range(22, 32))
    created = next(r for r in completed if r.age == 25)
    source = next(r for r in completed if r.age == 24)
    assert np.array_equal(created.values, source.values)
    assert set(created.imputed) == set(range(small_schema.n_features))


def test_impute_is_idempotent(small_schema, write_season_csv):
    rows = full_career("idem", 2.0, missing=[(23, "TS%"), (26, "PTS")])
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs] + [
        r for r in parse_season_csv(write_season_csv(full_career("p", 0.0), "p.csv"), small_schema)
    ]
    medians = peer_medians(peers, small_schema)
    once = impute_missing(eligible["idem"], small_schema, medians)
    once_values, once_imputed = [r.values.tolist() for r in once], [r.imputed for r in once]
    twice = impute_missing(once, small_schema, medians)
    assert [r.values.tolist() for r in twice] == once_values
    assert [r.imputed for r in twice] == once_imputed


def test_build_sequences_targets_are_raw_observed_values(small_schema, write_season_csv):
    bpm = {22: 4.1, 23: 5.0, 24: 5.5, 25: 6.2, 26: 6.8, 27: 7.3, 28: 7.9,
           29: 8.80, 30: 7.10, 31: 9.00}
    rows = career_rows("great", bpm)
    records = parse_season_csv(write_season_csv(rows), small_schema)
    eligible, _ = select_eligible_players(records, small_schema.target_index)
    peers = [r for rs in eligible.values() for r in rs]
    medians = peer_medians(peers, small_schema)
    complete = {"great": impute_missing(eligible["great"], small_schema, medians)}
    careers = build_sequences(complete, small_schema)
    assert len(careers) == 1
    assert careers.player_ids == ("great",)
    assert careers.raw.shape == (1, 7, 4)
    assert careers.input is None  # only artifacts.normalize builds it
    assert np.array_equal(careers.target[0], np.array([8.80, 7.10, 9.00]))
    ti = small_schema.target_index
    assert np.array_equal(
        careers.raw[0, :, ti], np.array([4.1, 5.0, 5.5, 6.2, 6.8, 7.3, 7.9])
    )


def gappy_pool(schema, seed, cell_share=0.1, player_share=0.2):
    """40 synthetic players; blanks input-age cells and deletes input-age rows.

    ``player_share`` of the players lose one or two input-age rows, which
    leaves at least 8 seasons in ages 22-31, so every player stays eligible.
    Returns the records and one dict row per record for ``write_season_csv``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.csv")
        write_csv(path, default_specs(6, 34), seed=seed, schema=schema)
        records = parse_season_csv(path, schema)
    rng = np.random.default_rng(seed)
    deleted = set()
    for pid in sorted({r.player_id for r in records}):
        if rng.random() < player_share:
            for age in rng.choice(INPUT_AGES, size=rng.integers(1, 3), replace=False):
                deleted.add((pid, int(age)))
    kept = [r for r in records if (r.player_id, r.age) not in deleted]
    for rec in kept:
        if rec.age in INPUT_AGES:
            for j in range(schema.n_features):
                if rng.random() < cell_share:
                    rec.values[j] = np.nan
    rows = [
        {
            "player_id": r.player_id,
            "player_name": r.player_id,
            "season": 1978 + r.age,  # within the season bounds at every allowed age
            "age": r.age,
            "category": r.category,
            **features(r, schema),
        }
        for r in kept
    ]
    return kept, rows


def features(rec, schema):
    """A season row's present cells, by feature name."""
    return {n: v for n, v in zip(schema.names, rec.values.tolist()) if not math.isnan(v)}


def reference_impute(seasons, schema, peers):
    """Per-cell peer scan: each missing cell rescans every peer row.

    Returns (age, features, imputed feature names) per input age; run it
    before ``impute_missing``, which fills the rows in place.
    """
    column = {n: j for j, n in enumerate(schema.names)}

    def nearest(ages, age):
        earlier = [a for a in ages if a < age]
        later = [a for a in ages if a > age]
        return max(earlier) if earlier else (min(later) if later else None)

    def scan(name, age):
        j = column[name]
        values = [r.values[j] for r in peers if r.age == age and not math.isnan(r.values[j])]
        return float(np.median(values)) if values else None

    by_age = {r.age: r for r in seasons}
    out = []
    for age in INPUT_AGES:
        if age in by_age:
            rec = by_age[age]
            features_at, imputed = features(rec, schema), set()
        else:
            src = by_age[nearest(sorted(by_age), age)]
            features_at = features(src, schema)
            imputed = set(features_at)
        for name in schema.names:
            if name in features_at:
                continue
            value = None
            if schema.imputation_class[name] == COUNTING:
                own = nearest(sorted(a for a, r in by_age.items() if name in features(r, schema)), age)
                if own is not None:
                    value = by_age[own].values[column[name]]
            if value is None:
                value = scan(name, age)
            features_at[name] = value
            imputed.add(name)
        out.append((age, features_at, imputed))
    return out


def test_impute_matches_per_cell_peer_scan():
    schema = default_schema()
    records, _ = gappy_pool(schema, seed=11)
    column = {n: j for j, n in enumerate(schema.names)}
    for rec in records:
        if rec.player_id == "syn0001":
            rec.values[column["G"]] = np.nan  # never observed: takes the peer median
    eligible, _ = select_eligible_players(records, schema.target_index)
    assert len(eligible) == 40
    peers = [r for rs in eligible.values() for r in rs]
    medians = peer_medians(peers, schema)
    # every expectation before any imputation, which fills the peers' rows in place
    expected_of = {pid: reference_impute(rows, schema, peers) for pid, rows in eligible.items()}
    n_imputed = 0
    for pid, rows in eligible.items():
        expected = expected_of[pid]
        completed = impute_missing(rows, schema, medians)
        assert [r.age for r in completed[: len(INPUT_AGES)]] == list(INPUT_AGES)
        for rec, (age, features_at, imputed) in zip(completed, expected):
            assert rec.age == age
            assert {schema.names[j] for j in rec.imputed} == imputed
            for name in imputed:
                assert rec.values[column[name]] == features_at[name], (pid, age, name)
            n_imputed += len(imputed)
    assert n_imputed > 0.09 * 40 * len(INPUT_AGES) * schema.n_features

    # No peer observes a needed feature at that age: refuse, as the scan did.
    ratio, counting = "FG%", "G"
    assert schema.imputation_class[ratio] != COUNTING
    holder = next(rows for rows in eligible.values() if 24 in {r.age for r in rows})
    for rec in records:
        if rec.age == 24:
            rec.values[column[ratio]] = np.nan
    medians = peer_medians(peers, schema)
    assert np.isnan(medians[INPUT_AGES.index(24), schema.names.index(ratio)])
    pid = holder[0].player_id
    message = f"^player {pid}: feature '{ratio}' has no observed peer values at age 24$"
    with pytest.raises(ImputationError, match=message):
        impute_missing(holder, schema, medians)

    for rec in records:
        rec.values[column[counting]] = np.nan
    message = f"^player {pid}: feature '{counting}' unobserved for the player and the peer pool"
    with pytest.raises(ImputationError, match=message):
        impute_missing(holder, schema, peer_medians(peers, schema))


def median_oracle(peers, n_features):
    """``np.median`` over each age's and feature's observed peer cells, one at a time."""
    table = np.full((len(INPUT_AGES), n_features), np.nan)
    for i, age in enumerate(INPUT_AGES):
        for j in range(n_features):
            values = [r.values[j] for r in peers if r.age == age and not math.isnan(r.values[j])]
            if values:
                table[i, j] = np.median(np.array(values))
    return table


def random_peers(rng, n_features, draw):
    """Peers at every input age, some ages with an odd count and some even; some
    cells missing, and column 0 unobserved."""
    peers = []
    for age in (21, *INPUT_AGES):
        for k in range(int(rng.integers(1, 10))):
            values = draw(n_features)
            values[rng.random(n_features) < 0.3] = np.nan
            values[0] = np.nan
            peers.append(SeasonRecord(f"p{k}", age, None, values))
    return peers


def test_peer_medians_equal_np_median_bit_for_bit():
    rng = np.random.default_rng(5)
    counts = set()
    for _ in range(50):
        peers = random_peers(rng, 6, lambda n: rng.normal(size=n) * 10.0 ** rng.integers(-3, 4))
        schema = FeatureSchema(
            names=tuple("abcdef"), target_name="a", imputation_class=dict.fromkeys("abcdef", COUNTING)
        )
        table = peer_medians(peers, schema)
        assert table.tobytes() == median_oracle(peers, 6).tobytes()
        assert np.isnan(table[:, 0]).all()
        counts |= {sum(r.age == age for r in peers) % 2 for age in INPUT_AGES}
    assert counts == {0, 1}


def test_peer_medians_keep_np_median_signed_zero():
    """Where the middle values are zeros of either sign, the table holds np.median's zero."""
    rng = np.random.default_rng(6)
    schema = FeatureSchema(
        names=tuple("abcd"), target_name="a", imputation_class=dict.fromkeys("abcd", COUNTING)
    )
    zeros = 0
    for _ in range(200):
        peers = random_peers(rng, 4, lambda n: rng.choice([-0.0, 0.0, 0.0, -1.0, 1.0], size=n))
        table = peer_medians(peers, schema)
        assert table.tobytes() == median_oracle(peers, 4).tobytes()
        zeros += np.count_nonzero(table == 0.0)
    assert zeros > 1000


def test_ingest_computes_each_peer_median_once(write_season_csv, monkeypatch):
    """The median table takes each (age, feature) median once, however gappy the pool."""
    schema = default_schema()
    calls = []
    median = np.median

    def counting_median(*args, **kwargs):
        calls.append(1)
        return median(*args, **kwargs)

    monkeypatch.setattr(np, "median", counting_median)
    counts = []
    for share in (0.0, 0.1):
        _, rows = gappy_pool(schema, seed=12, cell_share=share, player_share=2 * share)
        calls.clear()
        ingest_csv(write_season_csv(rows, f"pool{share}.csv", schema.names), schema)
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1] <= len(INPUT_AGES) * schema.n_features


def test_ingest_draws_the_split_once(write_season_csv, monkeypatch):
    """One ``_split_indices`` draw gives both the players whose rows feed the
    imputation medians and the stored train split."""
    schema = default_schema()
    _, rows = gappy_pool(schema, seed=13)
    module = careercast.ingest
    draw, medians = module._split_indices, module.peer_medians
    draws, median_players = [], []

    def spy_draw(*args):
        draws.append(args)
        return draw(*args)

    def spy_medians(peers, schema):
        median_players.append({r.player_id for r in peers})
        return medians(peers, schema)

    monkeypatch.setattr(module, "_split_indices", spy_draw)
    monkeypatch.setattr(module, "peer_medians", spy_medians)
    dataset, summary = ingest_csv(write_season_csv(rows, "pool.csv", schema.names), schema)
    assert summary["imputed_cells"]
    assert len(draws) == 1
    assert median_players == [set(dataset.train.player_ids)]


def test_imputation_medians_ignore_test_players(small_schema, write_season_csv):
    def ingest(gap=None, test_value=None, test_ids=()):
        rows = []
        for i in range(10):
            pid = f"p{i}"
            career = full_career(pid, float(i), missing=[(24, "TS%")] if pid == gap else ())
            for row in career:
                if row["age"] == 24 and pid != gap:
                    row["TS%"] = test_value if pid in test_ids else 0.40 + 0.01 * i
            rows += career
        path = write_season_csv(rows, f"{gap}-{test_value}.csv")
        return ingest_csv(path, small_schema, seed=0)[0]

    split = ingest()
    test_ids = set(split.test.player_ids)
    gap = split.train.player_ids[0]
    low = ingest(gap, 0.0, test_ids)
    high = ingest(gap, 1.0, test_ids)
    for ds in (low, high):
        assert ds.train.player_ids == split.train.player_ids
    assert np.array_equal(low.train.raw, high.train.raw)
    train_values = [0.40 + 0.01 * int(pid[1:]) for pid in split.train.player_ids[1:]]
    filled = low.train.raw[0, INPUT_AGES.index(24), small_schema.names.index("TS%")]
    assert filled == np.median(train_values)


def make_careers(n, n_features, rng, constant_column=None):
    draws = [(rng.normal(size=(7, n_features)), rng.normal(size=3)) for _ in range(n)]
    raw = np.stack([block for block, _ in draws])
    target = np.stack([t for _, t in draws])
    if constant_column is not None:
        raw[:, :, constant_column] = 70.0
    return Split(
        player_ids=tuple(f"p{i:03d}" for i in range(n)),
        category=tuple("star" if i % 4 == 0 else "regular" for i in range(n)),
        raw=raw,
        target=target,
    )


def take(careers, idx):
    return Split(
        tuple(careers.player_ids[i] for i in idx),
        tuple(careers.category[i] for i in idx),
        careers.raw[idx],
        careers.target[idx],
    )


def test_split_normalizes_with_train_stats_only(small_schema):
    rng = np.random.default_rng(7)
    careers = make_careers(30, small_schema.n_features, rng)
    ds = artifacts.normalize(seeded_split(careers, small_schema, 3))
    assert len(ds.test) == 6
    assert len(ds.train) == 24
    assert not set(ds.train.player_ids) & set(ds.test.player_ids)

    row = {pid: i for i, pid in enumerate(careers.player_ids)}
    stacked = np.vstack([careers.raw[row[pid]] for pid in ds.train.player_ids])
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    for split in (ds.train, ds.test):
        for pid, raw, normalized, target in zip(
            split.player_ids, split.raw, split.input, split.target
        ):
            expected = (careers.raw[row[pid]] - mean) / std
            assert np.allclose(normalized, expected, atol=1e-12)
            assert np.array_equal(raw, careers.raw[row[pid]])
            assert np.array_equal(target, careers.target[row[pid]])

    again = seeded_split(careers, small_schema, 3)
    assert again.train.player_ids == ds.train.player_ids
    other = seeded_split(careers, small_schema, 4)
    assert other.test.player_ids != ds.test.player_ids


def test_split_drops_constant_features(small_schema):
    rng = np.random.default_rng(0)
    careers = make_careers(12, small_schema.n_features, rng, constant_column=3)
    ds = artifacts.normalize(seeded_split(careers, small_schema, 0))
    assert ds.norm_stats.dropped == ("G",)
    assert ds.norm_stats.names == ("BPM", "PTS", "TS%")
    assert ds.train.input.shape[1:] == (7, 3)
    assert ds.train.raw.shape[1:] == (7, 4)


def test_normalized_blocks_are_c_ordered(small_schema):
    rng = np.random.default_rng(2)
    for constant_column in (None, 3):
        careers = make_careers(12, small_schema.n_features, rng, constant_column)
        stats = seeded_split(careers, small_schema, 0).norm_stats
        block = stats.apply(careers.raw, small_schema.names)
        assert block.flags.c_contiguous
        keep = [small_schema.names.index(name) for name in stats.names]
        assert np.array_equal(block, (careers.raw[..., keep] - stats.mean) / stats.std)


def test_flattened_train_inputs_share_the_dataset_block(tmp_path):
    schema = default_schema()
    path = str(tmp_path / "pool.csv")
    write_csv(path, default_specs(3, 9), seed=5, schema=schema)
    dataset, summary = ingest_csv(path, schema)
    doc = artifacts.dataset_to_doc(dataset, summary)
    loaded = artifacts.normalize(artifacts.dataset_from_doc(doc))
    for ds in (artifacts.normalize(dataset), loaded):
        assert np.shares_memory(flatten_batch(ds.train.input), ds.train.input)


def test_split_rejects_degenerate_inputs(small_schema):
    rng = np.random.default_rng(1)
    careers = make_careers(6, small_schema.n_features, rng)
    with pytest.raises(SplitError):
        seeded_split(take(careers, [0]), small_schema, 0)
    dupes = take(careers, [0, 1, 2, 3, 4, 5, 0])
    with pytest.raises(SplitError, match="duplicate player_id"):
        seeded_split(dupes, small_schema, 0)
    with pytest.raises(SplitError, match=r"leaked into both splits: \['p001'\]"):
        split_and_normalize(careers, small_schema, np.array([0, 1]), np.array([1, 2, 3]), 0)


def test_split_rejects_wrong_shapes():
    ids, cats = ("a", "b"), ("star", None)
    Split(ids, cats, np.zeros((2, 7, 4)), np.zeros((2, 3)))
    with pytest.raises(IngestError, match="career block"):
        Split(ids, cats, np.zeros((2, 6, 4)), np.zeros((2, 3)))
    with pytest.raises(IngestError, match="career block"):
        Split(ids, cats, np.zeros((7, 4)), np.zeros((2, 3)))
    with pytest.raises(IngestError, match="career block"):
        Split(ids, cats, np.zeros((3, 7, 4)), np.zeros((2, 3)))
    with pytest.raises(IngestError, match="target"):
        Split(ids, cats, np.zeros((2, 7, 4)), np.zeros((2, 2)))
    with pytest.raises(IngestError, match="target"):
        Split(ids, cats, np.zeros((2, 7, 4)), np.zeros(6))


def test_ingest_csv_summary(small_schema, write_season_csv):
    rows = []
    for i in range(8):
        rows += full_career(f"ok{i}", float(i))
    rows += career_rows("short", {22: 1.0, 23: 1.0, 24: 1.0})
    rows += full_career("notarget", 0.0, missing=[(31, "BPM")])
    path = write_season_csv(rows)
    dataset, summary = ingest_csv(path, small_schema, seed=0)
    assert summary["players_total"] == 10
    assert summary["players_kept"] == 8
    assert summary["dropped_too_few_seasons"] == 1
    assert summary["dropped_unobserved_targets"] == 1
    assert summary["train_players"] == 6
    assert summary["test_players"] == 2
    assert summary["rows_parsed"] == len(rows)


def test_ingest_csv_counts_imputed_cells_by_age_and_feature(
    small_schema, write_season_csv, tmp_path
):
    holes = {0: [(24, "TS%"), (26, "PTS")], 1: [(24, "TS%")], 2: [(30, "PTS")]}
    rows = []
    for i in range(8):
        rows += full_career(f"p{i}", float(i), missing=holes.get(i, ()))
    rows = [r for r in rows if (r["player_id"], r["age"]) != ("p3", 25)]
    _, summary = ingest_csv(write_season_csv(rows), small_schema, seed=0)
    # target-age rows are never imputed; a deleted row counts each of its cells
    assert summary["imputed_cells"] == {
        "24": {"TS%": 2},
        "25": {"BPM": 1, "PTS": 1, "TS%": 1, "G": 1},
        "26": {"PTS": 1},
    }

    schema = default_schema()
    path = str(tmp_path / "clean.csv")
    write_csv(path, default_specs(3, 9), seed=5, schema=schema)
    assert ingest_csv(path, schema)[1]["imputed_cells"] == {}


def test_ingest_csv_no_eligible_players(small_schema, write_season_csv):
    path = write_season_csv(career_rows("only", {22: 1.0, 23: 2.0}))
    with pytest.raises(IngestError, match="no eligible players"):
        ingest_csv(path, small_schema)


def test_ingest_holds_one_copy_of_the_rows(tmp_path):
    schema = default_schema()
    path = str(tmp_path / "pool.csv")
    write_csv(path, default_specs(30, 170), seed=1, schema=schema)
    ingest_csv(path, schema)  # lazy imports and first-call caches are not rows

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parse_peak = peak(lambda: parse_season_csv(path, schema))
    assert peak(lambda: ingest_csv(path, schema)) <= 1.5 * parse_peak


def test_parsed_rows_cost_about_their_cells(tmp_path):
    """Parsing holds little beyond one float per cell: no per-row dict of boxed floats."""
    schema = default_schema()
    path = str(tmp_path / "pool.csv")
    n_rows = write_csv(path, default_specs(30, 170), seed=1, schema=schema)
    parse_season_csv(path, schema)  # lazy imports and first-call caches are not rows
    tracemalloc.start()
    try:
        parse_season_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n_rows * schema.n_features * 8


def test_parsed_rows_of_a_player_share_identity_strings(tmp_path):
    schema = default_schema()
    path = str(tmp_path / "pool.csv")
    write_csv(path, default_specs(2, 3), seed=1, schema=schema)
    by_pid = {}
    for rec in parse_season_csv(path, schema):
        by_pid.setdefault(rec.player_id, []).append(rec)
    assert len(by_pid) == 5
    for recs in by_pid.values():
        first = recs[0]
        assert len(recs) == 10
        for rec in recs:
            assert rec.player_id is first.player_id
            assert rec.category is first.category


def test_ingest_holds_only_what_it_writes(tmp_path):
    """On a seeded gappy pool, ``ingest_csv`` holds little beyond the careers it
    returns in original units: no normalized blocks and no per-row set of
    imputed cells, after it returns or at its peak.
    """
    schema = default_schema()
    path = tmp_path / "pool.csv"
    write_csv(path, default_specs(30, 170), seed=1, schema=schema)
    rng = np.random.default_rng(1)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    pid_at, age_at = header.index("player_id"), header.index("age")
    short = {pid for pid in sorted({r[pid_at] for r in rows}) if rng.random() < 0.2}
    rows = [r for r in rows if not (r[pid_at] in short and r[age_at] == "25")]  # no age 25
    for row in rows:
        if int(row[age_at]) in INPUT_AGES:
            for j in (header.index(name) for name in schema.names):
                if rng.random() < 0.1:
                    row[j] = ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    ingest_csv(path, schema)  # lazy imports and first-call caches are not careers

    tracemalloc.start()
    try:
        dataset, summary = ingest_csv(path, schema)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sum(counts.values()) for counts in summary["imputed_cells"].values()) > 5000
    assert dataset.train.input is None and dataset.test.input is None
    careers = sum(s.raw.nbytes + s.target.nbytes for s in (dataset.train, dataset.test))
    # 542 kB of careers; held 1.10x and peak 4.10x of it, against 2.09x and 5.45x
    # with normalized blocks built at ingest and imputed cells kept as frozensets.
    assert held <= 1.5 * careers
    assert peak <= 4.75 * careers


# Spies on parse_season_csv; a child process, because this one has numpy.random loaded.
IMPORT_ORDER_PROBE = """
import sys
from careercast import ingest
from careercast.schema import default_schema

parse, seen = ingest.parse_season_csv, []

def spy(*args):
    seen.append("numpy.random" in sys.modules)
    return parse(*args)

ingest.parse_season_csv = spy
assert "numpy.random" not in sys.modules, "loaded before ingest ran"
ingest.ingest_csv(sys.argv[1], default_schema())
assert seen == [True], f"numpy.random loaded when parsing began: {seen}"
"""


def test_ingest_loads_numpy_random_before_the_rows(tmp_path):
    """The split generator's import lands before the parsed rows, not on top of them."""
    path = tmp_path / "pool.csv"
    write_csv(path, default_specs(3, 9), seed=5)
    src = os.path.dirname(os.path.dirname(careercast.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER_PROBE, str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
