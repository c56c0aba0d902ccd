"""JSON documents for layers and layer stacks.

A layer becomes a dict of its hyperparameters plus flat row-major value
arrays. Floats are written with Python's shortest round-trip repr, so
save -> load is value-exact for doubles. The artifact envelope around a
model document lives in ``careercast.artifacts``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArtifactError
from .layers import LSTM, BatchNorm, Dense, Dropout, ReLU, Sequential

def array_to_doc(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}


def array_from_doc(doc: dict) -> np.ndarray:
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


def layer_to_doc(layer) -> dict:
    if isinstance(layer, Dense):
        return {
            "type": "dense",
            "n_in": layer.n_in,
            "n_out": layer.n_out,
            "weight": array_to_doc(layer.weight),
            "bias": array_to_doc(layer.bias),
        }
    if isinstance(layer, ReLU):
        return {"type": "relu"}
    if isinstance(layer, BatchNorm):
        return {
            "type": "batchnorm",
            "n": layer.n,
            "momentum": layer.momentum,
            "eps": layer.eps,
            "scale": array_to_doc(layer.scale),
            "shift": array_to_doc(layer.shift),
            "running_mean": array_to_doc(layer.running_mean),
            "running_var": array_to_doc(layer.running_var),
        }
    if isinstance(layer, Dropout):
        return {"type": "dropout", "rate": layer.rate}
    if isinstance(layer, LSTM):
        return {
            "type": "lstm",
            "n_in": layer.n_in,
            "n_hidden": layer.n_hidden,
            "w_input": array_to_doc(layer.w_input),
            "w_hidden": array_to_doc(layer.w_hidden),
            "bias": array_to_doc(layer.bias),
        }
    if isinstance(layer, Sequential):
        return {"type": "sequential", "layers": [layer_to_doc(l) for l in layer.layers]}
    raise ArtifactError(f"cannot serialize layer of type {type(layer).__name__}")


def layer_from_doc(doc: dict):
    kind = doc.get("type")
    if kind == "dense":
        layer = Dense(doc["n_in"], doc["n_out"])
        layer.weight = array_from_doc(doc["weight"])
        layer.bias = array_from_doc(doc["bias"])
        return layer
    if kind == "relu":
        return ReLU()
    if kind == "batchnorm":
        layer = BatchNorm(doc["n"], momentum=doc["momentum"], eps=doc["eps"])
        layer.scale = array_from_doc(doc["scale"])
        layer.shift = array_from_doc(doc["shift"])
        layer.running_mean = array_from_doc(doc["running_mean"])
        layer.running_var = array_from_doc(doc["running_var"])
        return layer
    if kind == "dropout":
        return Dropout(doc["rate"])
    if kind == "lstm":
        layer = LSTM(doc["n_in"], doc["n_hidden"])
        layer.w_input = array_from_doc(doc["w_input"])
        layer.w_hidden = array_from_doc(doc["w_hidden"])
        layer.bias = array_from_doc(doc["bias"])
        return layer
    if kind == "sequential":
        return Sequential([layer_from_doc(d) for d in doc["layers"]])
    raise ArtifactError(f"unknown layer type {kind!r} in model document")
