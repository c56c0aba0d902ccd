"""Synthetic career generator: closed-form checks and ingest compatibility."""

import csv
import hashlib
import tracemalloc

import numpy as np
import pytest

from careercast.baselines import last_value_predict
from careercast.errors import ParameterError
from careercast.ingest import (
    INPUT_AGES,
    TARGET_AGES,
    build_sequences,
    impute_missing,
    parse_season_csv,
    peer_medians,
    select_eligible_players,
)
from careercast.schema import COUNTING, FeatureSchema, default_schema
from careercast.synth import (
    ArchetypeSpec,
    bpm_curve,
    default_specs,
    generate_block,
    write_csv,
)

from helpers import generate


def small_specs(noise_std=1.0):
    return [
        ArchetypeSpec(count=3, peak_age=25.0, peak_bpm=4.0, curvature=-0.1,
                      noise_std=noise_std, category="star"),
        ArchetypeSpec(count=5, peak_age=23.0, peak_bpm=-1.0, curvature=-0.3,
                      noise_std=noise_std, category="regular"),
    ]


def test_bpm_curve_hand_value():
    spec = ArchetypeSpec(count=1, peak_age=25.0, peak_bpm=2.0, curvature=-0.5,
                         noise_std=0.0, category="star")
    assert bpm_curve(spec, [25]) == pytest.approx([2.0])
    assert bpm_curve(spec, [27])[0] == 2.0 - 0.5 * 4.0
    assert np.all(bpm_curve(spec, [23, 24, 26, 27]) < 2.0)


def test_generation_is_deterministic():
    a, labels_a = generate(small_specs(), seed=11)
    b, labels_b = generate(small_specs(), seed=11)
    assert np.array_equal(labels_a, labels_b)
    assert a.player_ids == b.player_ids
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.target, b.target)
    c, _ = generate(small_specs(), seed=12)
    assert not np.array_equal(a.raw[0], c.raw[0])


def test_counts_labels_and_categories():
    careers, labels = generate(small_specs(), seed=0)
    assert len(careers) == 8
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    assert careers.category == ("star",) * 3 + ("regular",) * 5
    assert len(set(careers.player_ids)) == 8
    assert careers.raw.shape == (8, 7, 48)
    assert careers.input is None  # only artifacts.normalize builds it


def test_noiseless_careers_follow_the_curve_exactly():
    specs = small_specs(noise_std=0.0)
    careers, labels = generate(specs, seed=3)
    schema = default_schema()
    t = schema.target_index
    input_curve = {a: bpm_curve(specs[a], np.array(INPUT_AGES, dtype=float)) for a in (0, 1)}
    target_curve = {a: bpm_curve(specs[a], np.array(TARGET_AGES, dtype=float)) for a in (0, 1)}
    for raw, target, label in zip(careers.raw, careers.target, labels):
        assert np.array_equal(raw[:, t], input_curve[label])
        assert np.array_equal(target, target_curve[label])
    # the star spec peaks at an input age, so its max sits exactly there
    assert careers.raw[0, INPUT_AGES.index(25), t] == 4.0

    # carry-forward error in closed form: |curve(29..31) - curve(28)|
    pred = last_value_predict(careers.raw, t)
    for i, label in enumerate(labels):
        expected = np.abs(target_curve[label] - input_curve[label][-1])
        assert np.array_equal(np.abs(pred[i] - careers.target[i]), expected)


def test_noiseless_players_of_one_archetype_are_identical():
    careers, _ = generate(small_specs(noise_std=0.0), seed=4)
    assert np.array_equal(careers.raw[0], careers.raw[1])
    assert np.array_equal(careers.raw[3], careers.raw[4])
    assert not np.array_equal(careers.raw[0], careers.raw[3])


def test_spec_validation():
    with pytest.raises(ParameterError):
        ArchetypeSpec(count=0, peak_age=25, peak_bpm=0, curvature=-0.1,
                      noise_std=1.0, category="star")
    with pytest.raises(ParameterError):
        ArchetypeSpec(count=1, peak_age=25, peak_bpm=0, curvature=0.1,
                      noise_std=1.0, category="star")
    for noise_std in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            ArchetypeSpec(count=1, peak_age=25, peak_bpm=0, curvature=-0.1,
                          noise_std=noise_std, category="star")
    with pytest.raises(ParameterError):
        ArchetypeSpec(count=1, peak_age=25, peak_bpm=0, curvature=-0.1,
                      noise_std=1.0, category="bench")
    with pytest.raises(ParameterError):
        generate_block([], seed=0, schema=default_schema())


def test_default_specs_shape():
    specs = default_specs()
    assert [s.count for s in specs] == [30, 170]
    assert [s.category for s in specs] == ["star", "regular"]
    assert specs[0].peak_bpm > specs[1].peak_bpm
    assert default_specs(n_star=5, n_regular=7, noise_std=0.25)[1].noise_std == 0.25


def test_records_cover_all_ages_with_full_features(tmp_path):
    schema = default_schema()
    path = tmp_path / "synthetic.csv"
    assert write_csv(path, small_specs(), seed=6, schema=schema) == 8 * 10
    block, _, _, labels = generate_block(small_specs(), seed=6, schema=schema)
    assert block.shape == (8, 10, schema.n_features)
    assert labels.shape == (8,)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "player_id", "player_name", "season", "age", "category", *schema.names
        ]
        rows = list(reader)
    assert len(rows) == 8 * 10  # ages 22..31 for every player
    by_pid = {}
    for row in rows:
        by_pid.setdefault(row["player_id"], []).append(row)
        assert all(np.isfinite(float(row[name])) for name in schema.names)
        assert row["category"] in ("star", "regular")
        assert 1973 <= int(row["season"]) - int(row["age"]) <= 1990
    assert len(by_pid) == 8
    for player_rows in by_pid.values():
        assert sorted(int(r["age"]) for r in player_rows) == list(range(22, 32))
        birth = {int(r["season"]) - int(r["age"]) for r in player_rows}
        assert len(birth) == 1  # consistent synthetic birth year


@pytest.mark.parametrize(
    "noise_std, digest",
    [
        (1.0, "eb7f6a00a25e59a6b86f8e697d29c656ffa22725e3620571818f0de9378147c4"),
        (0.0, "49b6cda1d8b8bdcaac63987ff233277613332e9238bb1ca63410e60644f4c355"),
    ],
    ids=["noise-1", "noise-0"],
)
def test_csv_bytes_are_pinned(tmp_path, noise_std, digest):
    """The season CSV, identity columns included, hashes to fixed SHA-256s."""
    path = tmp_path / "synthetic.csv"
    assert write_csv(path, default_specs(3, 9, noise_std), seed=5) == 12 * 10
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_csv_round_trip_matches_direct_generation(tmp_path):
    schema = default_schema()
    specs = small_specs()
    path = tmp_path / "synthetic.csv"
    n_rows = write_csv(path, specs, seed=9, schema=schema)
    assert n_rows == 8 * 10

    direct, _ = generate(specs, seed=9, schema=schema)
    records = parse_season_csv(path, schema)
    eligible, _ = select_eligible_players(records, schema.target_index)
    medians = peer_medians(records, schema)
    complete = {
        pid: impute_missing(rows, schema, medians) for pid, rows in eligible.items()
    }
    parsed = build_sequences(complete, schema)

    row = {pid: i for i, pid in enumerate(direct.player_ids)}
    assert sorted(row) == sorted(parsed.player_ids)
    for i, pid in enumerate(parsed.player_ids):
        ref = row[pid]
        # repr-formatted floats reparse to the identical doubles
        assert np.array_equal(parsed.raw[i], direct.raw[ref])
        assert np.array_equal(parsed.target[i], direct.target[ref])
        assert parsed.category[i] == direct.category[ref]


def test_csv_writer_holds_one_player_at_a_time(tmp_path):
    """Writing a pool peaks below twice its career block: no list of every row."""
    specs = default_specs(100, 300)
    path = tmp_path / "synthetic.csv"
    write_csv(path, specs, seed=2)  # lazy imports and first-call caches are not rows
    tracemalloc.start()
    try:
        write_csv(path, specs, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 400 * 10 * 48 * 8


def test_header_names_that_need_quoting_round_trip(tmp_path):
    names = ("PTS, per 36", 'say "BPM"', "AST")
    schema = FeatureSchema(names=names, target_name='say "BPM"',
                           imputation_class=dict.fromkeys(names, COUNTING))
    path = tmp_path / "synthetic.csv"
    assert write_csv(path, small_specs(), seed=3, schema=schema) == 8 * 10
    with open(path, newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh))[-3:] == list(names)
    records = parse_season_csv(path, schema)  # raises unless every name resolves
    block, ids, _, _ = generate_block(small_specs(), seed=3, schema=schema)
    assert [r.player_id for r in records] == [pid for pid in ids for _ in range(10)]
    parsed = np.array([r.values for r in records]).reshape(block.shape)
    assert np.array_equal(parsed.view(np.uint64), block.view(np.uint64))
