"""Adam optimizer."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError, ParameterError


class Adam:
    """Adam over an ordered list of parameter arrays, bias corrections folded.

    Both bias corrections are folded into scalars, as in Kingma & Ba 2015
    (arXiv:1412.6980, section 2): with c1 = 1 - beta1^t and
    c2 = 1 - beta2^t, each step is
    ``p -= lr * sqrt(c2) / c1 * m / (sqrt(v) + epsilon * sqrt(c2))``,
    which equals the textbook ``lr * m_hat / (sqrt(v_hat) + epsilon)`` up to
    rounding and costs two fewer passes over the parameters.

    Moment slots and a scratch buffer are allocated on the first step and
    keyed by position, so the caller must pass parameters and gradients in
    the same order every time. ``train_loop`` passes one flat array per
    list, which makes a step a handful of whole-model array operations.
    Updates are applied in place.
    """

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        if learning_rate <= 0:
            raise ParameterError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._slots = None

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
            if not np.isfinite(g).all():
                raise NumericError(
                    f"non-finite gradient in parameter slot {idx} "
                    f"(shape {g.shape}); aborting training"
                )
        if self._slots is None:
            # first moment, second moment, scratch
            self._slots = [[np.zeros_like(p) for _ in range(3)] for p in params]

        self.step_count += 1
        root_c2 = math.sqrt(1.0 - self.beta2**self.step_count)
        step_size = self.learning_rate * root_c2 / (1.0 - self.beta1**self.step_count)
        epsilon_hat = self.epsilon * root_c2
        for p, g, (m, v, s) in zip(params, grads, self._slots):
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.square(g, out=s)
            s *= 1.0 - self.beta2
            v += s
            np.sqrt(v, out=s)
            s += epsilon_hat
            np.divide(m, s, out=s)
            s *= step_size
            p -= s
