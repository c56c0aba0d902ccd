"""JSON documents for layers and layer stacks.

A layer's document is its ``type`` name, its ``config`` values, and each
of its ``params`` and ``state`` arrays as its ``shape`` beside ``f8``, the
``encode_f8`` text of its values; the layer class supplies all three name
lists. A ``sequential`` document lists its layers' documents in order.
``encode_f8`` keeps every bit, so save -> load is value-exact for doubles.
The artifact envelope around a model document, which also stores career
rows with ``encode_f8``, lives in ``careercast.artifacts``.
"""

from __future__ import annotations

import base64
from itertools import zip_longest

import numpy as np

from ..errors import ArtifactError
from .layers import LSTM, BatchNorm, Dense, Dropout, ReLU, Sequential

# document ``type`` -> the leaf layer class it rebuilds
LAYER_TYPES = {
    "dense": Dense, "relu": ReLU, "batchnorm": BatchNorm, "dropout": Dropout, "lstm": LSTM
}
_TYPE_NAMES = {cls: kind for kind, cls in LAYER_TYPES.items()}


def encode_f8(arr) -> str:
    """The values of ``arr``, row-major, as base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def decode_f8(text, what: str) -> np.ndarray:
    """The flat array ``encode_f8`` wrote, as owned native float64; text that is not
    strict base64 of whole 8-byte values raises ``ArtifactError`` naming ``what``."""
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").astype(float)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{what} is not base64 of whole float64 values: {exc}") from None


def layer_to_doc(layer) -> dict:
    if isinstance(layer, Sequential):
        return {"type": "sequential", "layers": [layer_to_doc(l) for l in layer.layers]}
    kind = _TYPE_NAMES.get(type(layer))
    if kind is None:
        raise ArtifactError(f"cannot serialize layer of type {type(layer).__name__}")
    doc = {"type": kind, **{name: getattr(layer, name) for name in layer.config}}
    for name in layer.params + layer.state:
        arr = getattr(layer, name)
        doc[name] = {"shape": list(arr.shape), "f8": encode_f8(arr)}
    return doc


def layer_from_doc(doc: dict):
    """Rebuild a layer, refusing a document that lacks a config value or an
    array, or whose array shape or length differs from what its config builds."""
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "sequential":
        return Sequential([layer_from_doc(d) for d in doc["layers"]])
    cls = LAYER_TYPES.get(kind)
    if cls is None:
        raise ArtifactError(f"unknown layer type {kind!r} in model document")
    missing = [name for name in cls.config + cls.params + cls.state if name not in doc]
    if missing:
        raise ArtifactError(f"{kind} layer document lacks {missing}")
    layer = cls(*(doc[name] for name in cls.config))
    for name in cls.params + cls.state:
        arr, want = doc[name], getattr(layer, name).shape
        data = decode_f8(arr["f8"], f"{kind} {name}")
        if arr["shape"] != list(want) or data.shape != (int(np.prod(want)),):
            raise ArtifactError(
                f"{kind} {name} has shape {arr['shape']} and {data.size} values; "
                f"its config builds {list(want)}"
            )
        setattr(layer, name, data.reshape(want))
    return layer


def layout(layer, prefix: str = "") -> list[tuple[str, object]]:
    """The type of ``layer`` and of each sub-layer, and each array's name and
    shape, in order: what a model's top-level config determines."""
    items = [(prefix, type(layer).__name__)]
    items += [(prefix + n, getattr(layer, n).shape) for n in layer.params + layer.state]
    for name, child in layer.children():
        items += layout(child, f"{prefix}{name}.")
    return items


def require_layout(layer, expected: list) -> None:
    """Refuse a loaded model whose ``layout`` differs from ``expected``."""
    found = layout(layer)
    if found != expected:
        got, want = next(pair for pair in zip_longest(found, expected) if pair[0] != pair[1])
        raise ArtifactError(f"model layers differ from its config: {got} where it builds {want}")
