"""JSON documents for layers and layer stacks.

A layer's document is its ``type`` name, its ``config`` values, and each
of its ``params`` and ``state`` arrays as a flat row-major list with its
shape; the layer class supplies all three name lists. A ``sequential``
document lists its layers' documents in order. Floats are written with
Python's shortest round-trip repr, so save -> load is value-exact for
doubles. The artifact envelope around a model document lives in
``careercast.artifacts``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArtifactError
from .layers import LSTM, BatchNorm, Dense, Dropout, ReLU, Sequential

# document ``type`` -> the leaf layer class it rebuilds
LAYER_TYPES = {
    "dense": Dense, "relu": ReLU, "batchnorm": BatchNorm, "dropout": Dropout, "lstm": LSTM
}
_TYPE_NAMES = {cls: kind for kind, cls in LAYER_TYPES.items()}


def layer_to_doc(layer) -> dict:
    if isinstance(layer, Sequential):
        return {"type": "sequential", "layers": [layer_to_doc(l) for l in layer.layers]}
    kind = _TYPE_NAMES.get(type(layer))
    if kind is None:
        raise ArtifactError(f"cannot serialize layer of type {type(layer).__name__}")
    doc = {"type": kind, **{name: getattr(layer, name) for name in layer.config}}
    for name in layer.params + layer.state:
        arr = getattr(layer, name)
        doc[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    return doc


def layer_from_doc(doc: dict):
    kind = doc.get("type")
    if kind == "sequential":
        return Sequential([layer_from_doc(d) for d in doc["layers"]])
    cls = LAYER_TYPES.get(kind)
    if cls is None:
        raise ArtifactError(f"unknown layer type {kind!r} in model document")
    layer = cls(*(doc[name] for name in cls.config))
    for name in cls.params + cls.state:
        arr = doc[name]
        setattr(layer, name, np.array(arr["data"], dtype=float).reshape(arr["shape"]))
    return layer
