"""Seeded gap generator for the ingest-gappy workload.

Reads a season CSV (as ``careercast synth`` writes it), blanks a share of the
feature cells in input-age rows (ages 22-28) and deletes whole input-age rows
for a share of players. Target-age rows and the identity columns are never
touched, and every player keeps at least ``MIN_SEASONS`` seasons in ages
22-31, so ingest keeps exactly the players it keeps from the clean CSV.
"""

from __future__ import annotations

import csv
import random

INPUT_AGES = range(22, 29)
WINDOW = range(22, 32)  # ages that count toward eligibility
MIN_SEASONS = 5  # ingest's eligibility threshold inside WINDOW
IDENTITY = ("player_id", "player_name", "season", "age", "category")

CELL_SHARE = 0.10  # of feature cells in the surviving input-age rows
PLAYER_SHARE = 0.20  # of players who lose whole input-age rows
MAX_ROWS_PER_PLAYER = 2


def make_gaps(src, dst, seed, cell_share=CELL_SHARE, player_share=PLAYER_SHARE):
    """Write a gappy copy of ``src`` to ``dst``; returns what was removed."""
    rng = random.Random(f"gaps.{seed}")
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    pid_col = header.index("player_id")
    age_col = header.index("age")
    feature_cols = [j for j, name in enumerate(header) if name not in IDENTITY]

    by_player = {}
    for i, row in enumerate(rows):
        by_player.setdefault(row[pid_col], []).append(i)
    deleted = set()
    players = sorted(by_player)
    for pid in rng.sample(players, round(player_share * len(players))):
        indices = by_player[pid]
        window = [i for i in indices if int(rows[i][age_col]) in WINDOW]
        inputs = [i for i in indices if int(rows[i][age_col]) in INPUT_AGES]
        n = min(rng.randint(1, MAX_ROWS_PER_PLAYER), len(window) - MIN_SEASONS, len(inputs))
        if n > 0:
            deleted.update(rng.sample(inputs, n))

    kept = [i for i in range(len(rows)) if i not in deleted]
    cells = [
        (i, j) for i in kept if int(rows[i][age_col]) in INPUT_AGES for j in feature_cols
    ]
    blanked = rng.sample(cells, round(cell_share * len(cells)))
    for i, j in blanked:
        rows[i][j] = ""

    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[i] for i in kept)
    return {"blanked_cells": len(blanked), "deleted_rows": len(deleted)}
