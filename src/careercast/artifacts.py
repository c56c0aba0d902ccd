"""Artifact persistence: canonical JSON, content hashes, CSV tables.

JSON artifacts are written compact with sorted keys, so the same
document always produces the same bytes and a stable SHA-256. Anything
time-dependent goes in the ``run_info.json`` sidecar, which is excluded
from hashing and from determinism comparisons.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone

from .errors import ArtifactError
from .ingest import CareerSequence, Dataset, NormStats
from .schema import FeatureSchema

RUN_INFO = "run_info.json"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, doc) -> str:
    """Write a canonical JSON artifact; returns its content SHA-256."""
    text = canonical_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ArtifactError(f"missing artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: corrupt artifact: {exc}") from exc


def file_hash(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        raise ArtifactError(f"missing artifact: {path}") from None


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv_table(path, columns, rows) -> None:
    """Plain CSV with repr-formatted floats (17 significant digits survive)."""
    lines = [",".join(str(c) for c in columns)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run_info(out_dir, command: str, seed: int, artifact_hashes: dict) -> None:
    """Timestamped sidecar; the only artifact allowed to differ across reruns."""
    doc = {
        "command": command,
        "seed": seed,
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "artifacts": dict(sorted(artifact_hashes.items())),
    }
    with open(os.path.join(out_dir, RUN_INFO), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sequence_to_doc(seq: CareerSequence) -> dict:
    return {
        "player_id": seq.player_id,
        "input": seq.input.tolist(),
        "raw_input": seq.raw_input.tolist(),
        "target": seq.target.tolist(),
        "category": seq.category,
    }


def sequence_from_doc(doc: dict) -> CareerSequence:
    return CareerSequence(
        player_id=doc["player_id"],
        input=doc["input"],
        raw_input=doc["raw_input"],
        target=doc["target"],
        category=doc["category"],
    )


def dataset_to_doc(dataset: Dataset, summary: dict | None = None) -> dict:
    return {
        "format": "careercast-dataset",
        "version": 1,
        "seed": dataset.seed,
        "schema": dataset.schema.to_doc(),
        "norm_stats": dataset.norm_stats.to_doc(),
        "train": [sequence_to_doc(s) for s in dataset.train],
        "test": [sequence_to_doc(s) for s in dataset.test],
        "summary": summary or {},
    }


def dataset_from_doc(doc: dict) -> tuple[Dataset, dict]:
    if doc.get("format") != "careercast-dataset":
        raise ArtifactError(
            f"not a dataset artifact (format={doc.get('format')!r})"
        )
    if doc.get("version") != 1:
        raise ArtifactError(f"unsupported dataset version {doc.get('version')!r}")
    dataset = Dataset(
        train=[sequence_from_doc(d) for d in doc["train"]],
        test=[sequence_from_doc(d) for d in doc["test"]],
        norm_stats=NormStats.from_doc(doc["norm_stats"]),
        seed=int(doc["seed"]),
        schema=FeatureSchema.from_doc(doc["schema"]),
    )
    return dataset, doc.get("summary", {})
