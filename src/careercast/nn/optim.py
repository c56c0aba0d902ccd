"""Adam optimizer."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError, ParameterError

BLOCK = 1 << 14  # elements per block of an update: 128 KB of each array
# Kingma & Ba 2015's suggested settings, section 2; every model trains at them
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam over an ordered list of parameter arrays, bias corrections folded.

    Its settings are the module constants: step size ``LEARNING_RATE``
    (lr), decay rates ``BETA1`` and ``BETA2``, and ``EPSILON``. Both bias
    corrections are folded into scalars, as in Kingma & Ba 2015
    (arXiv:1412.6980, section 2): with c1 = 1 - beta1^t and
    c2 = 1 - beta2^t, each step is
    ``p -= lr * sqrt(c2) / c1 * m / (sqrt(v) + epsilon * sqrt(c2))``,
    which equals the textbook ``lr * m_hat / (sqrt(v_hat) + epsilon)`` up to
    rounding and costs two fewer passes over the parameters.

    Moment slots are allocated on the first step and keyed by position, so
    the caller must pass C-contiguous parameters and their gradients in the
    same order every time. ``train_loop`` passes one flat array per list.
    Every gradient is checked finite before anything moves; then each array
    is updated in place, ``BLOCK`` elements at a time through one scratch
    block, so a step's temporaries stay in cache whatever the model's size.
    Each element sees the same operations in the same order as in one
    whole-array pass.
    """

    def __init__(self):
        self.step_count = 0
        self._slots = None
        self._scratch = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ParameterError(
                f"got {len(params)} parameters but {len(grads)} gradients"
            )
        for idx, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ParameterError(
                    f"parameter {idx} has shape {p.shape} but its gradient {g.shape}"
                )
            if not p.flags.c_contiguous:
                raise ParameterError(f"parameter {idx} is not C-contiguous")
            if not np.isfinite(g).all():
                raise NumericError(
                    f"non-finite gradient in parameter slot {idx} "
                    f"(shape {g.shape}); aborting training"
                )
        if self._slots is None:
            # first and second moment per parameter, and one block of scratch
            self._slots = [(np.zeros(p.size), np.zeros(p.size)) for p in params]
            self._scratch = np.empty(min(BLOCK, max((p.size for p in params), default=0)))

        self.step_count += 1
        root_c2 = math.sqrt(1.0 - BETA2**self.step_count)
        step_size = LEARNING_RATE * root_c2 / (1.0 - BETA1**self.step_count)
        epsilon_hat = EPSILON * root_c2
        for p, g, (m, v) in zip(params, grads, self._slots):
            p, g = p.reshape(-1), g.reshape(-1)
            for lo in range(0, p.size, BLOCK):
                hi = lo + BLOCK
                self._update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], step_size, epsilon_hat)

    def _update(self, p, g, m, v, step_size, epsilon_hat):
        s = self._scratch[: p.size]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.square(g, out=s)
        s *= 1.0 - BETA2
        v += s
        np.sqrt(v, out=s)
        s += epsilon_hat
        np.divide(m, s, out=s)
        s *= step_size
        p -= s
