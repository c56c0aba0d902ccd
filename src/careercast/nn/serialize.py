"""JSON documents for persisted models.

A persisted model class names its constructor arguments in ``config``;
those values determine every layer and every array shape. Its document is
those ``config`` values plus one ``arrays`` map, which holds each
``param_items`` and ``state_items`` array under its dotted name (for
example ``lstm.w_input`` or ``head.0.weight``) as its ``shape`` beside
``f8``, the ``encode_f8`` text of its values. ``encode_f8`` keeps every
bit, so save -> load is value-exact for doubles. The artifact envelope
around a model document, which also stores career rows with
``encode_f8``, lives in ``careercast.artifacts``.
"""

from __future__ import annotations

import base64

import numpy as np

from ..errors import ArtifactError


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


def _arrays(model) -> dict[str, np.ndarray]:
    return dict(model.param_items() + model.state_items())


def layer_to_doc(model) -> dict:
    """``model``'s ``config`` values plus its arrays by dotted name."""
    arrays = {
        name: {"shape": list(arr.shape), "f8": encode_f8(arr)}
        for name, arr in _arrays(model).items()
    }
    return {**{name: getattr(model, name) for name in model.config}, "arrays": arrays}


def layer_from_doc(cls, doc: dict):
    """Build ``cls`` from the ``config`` values in ``doc`` and copy in its arrays.

    A missing config value, a missing or extra array name, and an array
    whose shape, value count or ``f8`` text differs from what the config
    builds raise ``ArtifactError`` naming the value or the array.
    """
    missing = [name for name in cls.config if name not in doc]
    if missing:
        raise ArtifactError(f"model document lacks config value(s) {missing}")
    model = cls(*(doc[name] for name in cls.config))
    want, found = _arrays(model), doc["arrays"]
    names = set(found)
    for label, odd in (("lacks", want.keys() - names), ("has extra", names - want.keys())):
        if odd:
            raise ArtifactError(f"model document {label} array(s) {sorted(odd)}")
    for name, arr in want.items():
        data = decode_f8(found[name]["f8"], name)
        if found[name]["shape"] != list(arr.shape) or data.size != arr.size:
            raise ArtifactError(
                f"{name} has shape {found[name]['shape']} and {data.size} values; "
                f"its config builds {list(arr.shape)}"
            )
        arr[...] = data.reshape(arr.shape)
    return model
