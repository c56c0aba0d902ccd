"""Deterministic random streams.

All randomness in the pipeline flows through PCG64 generators derived from
a (root seed, label) pair. Labels are fixed strings such as
``"autoencoder.init"`` or ``"kmeans.restart.3"``, so any step can be rerun
in isolation and reproduce its draws bit for bit, independent of what ran
before it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the generator for one named purpose under a root seed.

    The label is hashed (SHA-256) into extra entropy words so distinct
    labels give statistically independent streams for the same root seed.
    """
    if seed < 0:
        raise ValueError(f"root seed must be non-negative, got {seed}")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *words])))
