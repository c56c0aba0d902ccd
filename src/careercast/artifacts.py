"""Artifact persistence: canonical JSON, one envelope, the hash-chained loader.

JSON artifacts are written compact with sorted keys, so the same document
always produces the same bytes and a stable SHA-256; they are encoded, written
and hashed in bounded batches rather than held whole. Weights and career rows
are bit-exact ``nn.serialize.encode_f8`` text. Every pipeline artifact is
one flat envelope: the header keys ``format``, ``version``, ``kind`` and
``inputs`` (the SHA-256 of each artifact it was built from, by file name)
sit beside the body keys. ``load_chain`` reads the artifacts a command names
plus everything they were built from, refuses the chain unless every header
and every recorded hash matches the bytes it read, and decodes only the
named documents into the objects they hold. Anything time-dependent goes in
the ``run_info.json`` sidecar, which is excluded from hashing and from
determinism comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .autoencoder import Autoencoder
from .clustering import ClusterModel
from .errors import ArtifactError, CareerCastError
from .forecaster import Forecaster
from .ingest import INPUT_AGES, TARGET_AGES, Dataset, NormStats, Split
from .nn.serialize import decode_f8, encode_f8, layer_from_doc
from .schema import FeatureSchema

RUN_INFO = "run_info.json"
FORMAT = "careercast-artifact"
VERSION = 4
HEADER = ("format", "version", "kind", "inputs")

DATASET = "dataset.json"
AUTOENCODER = "autoencoder.json"
CLUSTERS = "clusters.json"
FORECASTER = "forecaster.json"
FORECASTER_STANDARD = "forecaster_standard.json"

# artifact file -> (the command that writes it, what its document decodes to);
# its kind is the file's stem. The decoders look their functions up when called,
# so a wrapped (for example, traced) dataset_from_doc or layer_from_doc is the
# one that runs.
CHAIN = {
    DATASET: ("ingest", lambda doc: dataset_from_doc(doc)),
    AUTOENCODER: ("stage1", lambda doc: layer_from_doc(Autoencoder, doc["model"])),
    CLUSTERS: ("stage1", lambda doc: ClusterModel.from_doc(doc["clusters"])),
    FORECASTER: ("stage2", lambda doc: layer_from_doc(Forecaster, doc["model"])),
    FORECASTER_STANDARD: (
        "stage2 --standard", lambda doc: layer_from_doc(Forecaster, doc["model"])
    ),
}


class Artifact(NamedTuple):
    value: object
    sha256: str


# write_json's encoder: compact and key-sorted, so one document has one byte form
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
WRITE_BATCH = 1 << 16  # characters joined before each encode, write and hash


def write_json(path, doc) -> str:
    """Write ``doc`` as canonical JSON plus a newline; returns the file's SHA-256.

    The text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``,
    encoded, written and hashed in batches of about ``WRITE_BATCH``
    characters, so the whole document is never held as one string or bytes.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def flush(parts):
            data = "".join(parts).encode("utf-8")
            fh.write(data)
            digest.update(data)

        batch, size = [], 0
        for chunk in _ENCODER.iterencode(doc):
            batch.append(chunk)
            size += len(chunk)
            if size >= WRITE_BATCH:
                flush(batch)
                batch, size = [], 0
        flush([*batch, "\n"])
    return digest.hexdigest()


def read_json(path) -> tuple[dict, str]:
    """Parse a JSON artifact; returns it with the SHA-256 of the bytes parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ArtifactError(f"missing artifact: {path}") from None
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
        del data  # parse with one copy of the file alive, not two
        return json.loads(text), digest
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ArtifactError(f"{path}: corrupt artifact: {exc}") from exc


def file_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def envelope(kind: str, body: dict, inputs: dict | None = None) -> dict:
    """One artifact: the header keys beside ``body``'s, which must not collide."""
    clash = sorted(set(HEADER) & set(body))
    if clash:
        raise ArtifactError(f"artifact body reuses header key(s) {clash}")
    header = {"format": FORMAT, "version": VERSION, "kind": kind, "inputs": dict(inputs or {})}
    return {**header, **body}


def write_artifact(out_dir, name: str, body: dict, inputs: dict | None = None) -> str:
    """Write ``body`` in its envelope to ``out_dir/name``, making ``out_dir`` if
    it is missing; returns its SHA-256."""
    kind = os.path.splitext(name)[0]
    os.makedirs(out_dir, exist_ok=True)
    return write_json(os.path.join(out_dir, name), envelope(kind, body, inputs))


def load_chain(out_dir, names) -> dict[str, Artifact]:
    """Build ``names``, by file name, after checking everything they were built from.

    Every file of the chain is read once, hashed from the bytes parsed and
    header-checked, and its ``inputs`` are compared with the files on disk;
    only a named file is decoded (into a ``Dataset``, ``Autoencoder``,
    ``ClusterModel`` or ``Forecaster``) and returned. Each document is
    dropped before the next file is read, so only one parsed document is
    alive at a time. A missing, corrupt or foreign artifact, a named
    document that does not decode, or an ``inputs`` hash that differs from
    the file on disk, raises ``ArtifactError`` naming the file or the
    command to rerun.
    """
    digests, built = {}, {}

    def check(name):
        if name in digests:
            return digests[name]
        if name not in CHAIN:
            raise ArtifactError(f"unknown artifact {name!r} in an inputs list")
        path = os.path.join(out_dir, name)
        rerun, decode = CHAIN[name]
        try:
            doc, digest = read_json(path)
        except ArtifactError as exc:
            raise ArtifactError(f"{exc}; run the {rerun} command first") from None
        kind = os.path.splitext(name)[0]
        header = [doc.get(key) for key in HEADER[:3]] if isinstance(doc, dict) else None
        if header != [FORMAT, VERSION, kind] or not isinstance(doc.get("inputs"), dict):
            raise ArtifactError(
                f"{path}: not a {FORMAT} v{VERSION} {kind!r} artifact "
                f"(found format, version, kind {header}); rerun {rerun}"
            )
        inputs, digests[name] = doc["inputs"], digest
        if name in names:
            try:
                built[name] = Artifact(decode(doc), digest)
            except (CareerCastError, LookupError, TypeError, ValueError) as exc:
                detail = exc if isinstance(exc, CareerCastError) else repr(exc)
                raise ArtifactError(f"{path}: corrupt artifact: {detail}; rerun {rerun}") from None
        del doc  # before any upstream file is parsed
        for upstream, expected in inputs.items():
            if check(upstream) != expected:
                raise ArtifactError(
                    f"{name} was built from a different {upstream} "
                    f"(hash mismatch); rerun {rerun}"
                )
        return digest

    for name in names:
        check(name)
    return built


def write_csv_table(path, columns, rows) -> str:
    """CSV with repr-formatted floats (17 significant digits survive); returns its SHA-256.

    Cells are quoted where the csv module needs to, and None is an empty cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )
    return file_hash(path)


def write_run_info(out_dir, command: str, seed: int, artifact_hashes: dict) -> None:
    """Timestamped sidecar; the only artifact allowed to differ across reruns."""
    doc = {
        "command": command,
        "seed": seed,
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "artifacts": dict(sorted(artifact_hashes.items())),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, RUN_INFO), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_to_doc(split: Split) -> list[dict]:
    return [
        {"player_id": pid, "raw_input": encode_f8(raw), "target": encode_f8(y), "category": c}
        for pid, raw, y, c in zip(split.player_ids, split.raw, split.target, split.category)
    ]


def dataset_to_doc(dataset: Dataset, summary: dict) -> dict:
    """The dataset body; the statistics are left out and refit on load, and the
    normalized inputs are left out for ``normalize`` to build."""
    return {
        "seed": dataset.seed,
        "schema": dataset.schema.to_doc(),
        "train": _split_to_doc(dataset.train),
        "test": _split_to_doc(dataset.test),
        "summary": summary,
    }


def normalize(dataset: Dataset) -> Dataset:
    """Z-score each split's kept columns into ``input``: the one place that builds it.

    ``stage1``, ``stage2`` and ``evaluate`` call it on the dataset they load;
    ``predict`` applies ``norm_stats`` to the one block it scores instead.
    """
    for part in (dataset.train, dataset.test):
        part.input = dataset.norm_stats.apply(part.raw, dataset.schema.names)
    return dataset


def dataset_from_doc(doc: dict) -> Dataset:
    """Rebuild a dataset from its document, refitting ``norm_stats`` on the
    train ``raw_input`` blocks as ingest did; ``input`` stays None (see ``normalize``).

    A player whose ``encode_f8`` ``raw_input`` and ``target`` do not hold
    7 x features and 3 values raises ``ArtifactError``, and an empty train
    split raises ``SplitError``; ``load_chain`` refuses those and any missing
    key as a corrupt artifact.
    """
    schema = FeatureSchema.from_doc(doc["schema"])

    def split(name) -> Split:
        rows = doc[name]

        def block(key, *shape) -> np.ndarray:
            """Each player's values decoded straight into one (players, *shape) array."""
            out = np.empty((len(rows), *shape))
            flat = out.reshape(len(rows), int(np.prod(shape)))
            for d, dst in zip(rows, flat):
                values = decode_f8(d[key], f"{name} {key}")
                if values.size != dst.size:
                    sizes = sorted({decode_f8(r[key], f"{name} {key}").size for r in rows})
                    raise ArtifactError(
                        f"{name} {key} holds {sizes} values a player, expected {shape}"
                    )
                dst[...] = values
            return out

        raw = block("raw_input", len(INPUT_AGES), schema.n_features)
        target = block("target", len(TARGET_AGES))
        ids = tuple(d["player_id"] for d in rows)
        categories = tuple(d["category"] for d in rows)
        return Split(ids, categories, raw, target)

    train, test = split("train"), split("test")
    stats = NormStats.fit(train.raw, schema.names)
    return Dataset(train, test, stats, int(doc["seed"]), schema)
