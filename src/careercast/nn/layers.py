"""From-scratch layers with hand-derived backward rules.

Everything runs in float64 on plain numpy arrays. Each layer caches what
its backward pass needs during ``forward(train=True)``; parameters are
updated in place by the optimizer, so the arrays returned by
``param_items`` stay live across training steps.

Each layer class names its arrays and sub-layers once (see ``Layer``);
parameter access, binding and ``nn.serialize`` read them.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, ShapeError


class Layer:
    """Base interface: forward/backward plus named array access.

    ``params`` names the trainable attributes in a fixed order. A layer has
    no gradients until ``bind`` gives each parameter a ``grad_<name>`` twin
    (``train_loop`` and ``grad_check`` do); ``backward`` writes into those
    arrays rather than rebinding them. A caller that discards ``backward``'s
    input gradient passes ``input_grad=False``; Dense then skips it. ``state``
    names arrays that are not trained but still shape inference.
    ``children`` returns a composite's named sub-layers; every ``*_items``
    list and ``bind`` walk them after the layer's own arrays, prefixing
    each child's names with ``"<name>."``. Only a persisted model (the
    forecaster and the autoencoder) also names its constructor arguments,
    in order, in ``config``: ``nn.serialize`` rebuilds it as
    ``cls(*config values)``.
    """

    params: tuple[str, ...] = ()
    state: tuple[str, ...] = ()

    def forward(self, x, train: bool = False, rng=None):
        raise NotImplementedError

    def backward(self, grad_out, input_grad=True):
        raise NotImplementedError

    def children(self) -> list[tuple[str, "Layer"]]:
        """Named sub-layers, in the order their arrays are listed."""
        return []

    def _items(self, kind: str, attr_prefix: str = "") -> list[tuple[str, np.ndarray]]:
        items = [(name, getattr(self, attr_prefix + name)) for name in getattr(self, kind)]
        for child_name, child in self.children():
            items += [(f"{child_name}.{n}", a) for n, a in child._items(kind, attr_prefix)]
        return items

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays, in a fixed order."""
        return self._items("params")

    def grad_items(self) -> list[tuple[str, np.ndarray]]:
        """Gradients aligned one-to-one with ``param_items``, under the same names."""
        return self._items("params", "grad_")

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        """Non-trained arrays that still define inference behavior."""
        return self._items("state")

    def bind(self, views) -> None:
        """Move each parameter into the next pair of ``views``; the pair's other
        array becomes its ``grad_<name>``, which nothing else creates.

        ``views`` yields (parameter, gradient) arrays in ``param_items``
        order. Parameter values are copied in, so the layer computes exactly
        as before, but from then on it reads and writes the given arrays.
        """
        for name in self.params:
            param, grad = next(views)
            param[...] = getattr(self, name)
            setattr(self, name, param)
            setattr(self, "grad_" + name, grad)
        for _, child in self.children():
            child.bind(views)


class Dense(Layer):
    """Affine map: ``y = x @ W.T + b`` with weight shape (out, in)."""

    params = ("weight", "bias")

    def __init__(self, n_in: int, n_out: int, rng=None):
        self.n_in = n_in
        self.n_out = n_out
        limit = math.sqrt(6.0 / (n_in + n_out))
        if rng is None:
            self.weight = np.zeros((n_out, n_in))
        else:
            self.weight = rng.uniform(-limit, limit, size=(n_out, n_in))
        self.bias = np.zeros(n_out)
        self._x = None

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense layer expects (batch, {self.n_in}), got {x.shape}"
            )
        self._x = x if train else None
        return x @ self.weight.T + self.bias

    def backward(self, grad_out, input_grad=True):
        if self._x is None:
            raise ParameterError("dense backward requires a train-mode forward first")
        np.matmul(grad_out.T, self._x, out=self.grad_weight)
        np.sum(grad_out, axis=0, out=self.grad_bias)
        return grad_out @ self.weight if input_grad else None


class ReLU(Layer):
    _mask = None
    def forward(self, x, train=False, rng=None):
        mask = x > 0.0
        self._mask = mask if train else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_out, input_grad=True):
        if self._mask is None:
            raise ParameterError("relu backward requires a train-mode forward first")
        return grad_out * self._mask


class BatchNorm(Layer):
    """Batch normalization with learned scale/shift and running stats.

    Train mode normalizes by batch statistics and nudges the running
    mean/variance by ``momentum``; inference uses the running statistics
    only and is deterministic.
    """

    params = ("scale", "shift")
    state = ("running_mean", "running_var")
    momentum = 0.9
    eps = 1e-5

    def __init__(self, n: int):
        self.n = n
        self.scale = np.ones(n)
        self.shift = np.zeros(n)
        self.running_mean = np.zeros(n)
        self.running_var = np.ones(n)
        self._normed = None
        self._inv_std = None

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ShapeError(f"batchnorm expects (batch, {self.n}), got {x.shape}")
        if not train:
            self._normed = None
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            return self.scale * ((x - self.running_mean) * inv) + self.shift
        if x.shape[0] < 2:
            raise ParameterError(
                "batchnorm needs a batch of at least 2 in train mode (variance undefined)"
            )
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        np.multiply(self.running_mean, self.momentum, out=self.running_mean)
        self.running_mean += (1.0 - self.momentum) * mean
        np.multiply(self.running_var, self.momentum, out=self.running_var)
        self.running_var += (1.0 - self.momentum) * var
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._normed = (x - mean) * self._inv_std
        return self.scale * self._normed + self.shift

    def backward(self, grad_out, input_grad=True):
        if self._normed is None:
            raise ParameterError("batchnorm backward requires a train-mode forward first")
        np.sum(grad_out * self._normed, axis=0, out=self.grad_scale)
        np.sum(grad_out, axis=0, out=self.grad_shift)
        m = grad_out.shape[0]
        # d/dx of the batch-statistics normalization, in the usual
        # collapsed form over the normalized activations.
        return (self.scale * self._inv_std / m) * (
            m * grad_out
            - self.grad_shift
            - self._normed * self.grad_scale
        )


class Dropout(Layer):
    """Inverted dropout: zero with probability ``rate`` at train time and
    scale survivors by 1/(1-rate); inference is the identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ParameterError("dropout in train mode needs a generator")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) >= self.rate) / keep
        return x * self._mask

    def backward(self, grad_out, input_grad=True):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


INFER_ROWS = 128  # rows per block of an LSTM inference forward


class LSTM(Layer):
    """Single LSTM layer over (batch, steps, n_in); returns the final hidden state.

    Gate pre-activations are one affine map of [x_t, h_prev] split into
    input, forget, candidate and output blocks (in that row order). The
    backward pass unrolls through time from a gradient on the final
    hidden state. No layer emits the (batch, steps, n_in) block an LSTM
    reads, so it is always a model's first layer: backward computes the
    parameter gradients only and returns None.

    An inference forward runs ``INFER_ROWS`` rows at a time, so scoring
    every player holds one block's gates, not the whole batch's; rows are
    independent, and the block products equal the whole-batch ones bit for
    bit. A training forward runs its batch as one block.
    """

    params = ("w_input", "w_hidden", "bias")

    def __init__(self, n_in: int, n_hidden: int, rng=None):
        self.n_in = n_in
        self.n_hidden = n_hidden
        lim_x = math.sqrt(6.0 / (n_in + n_hidden))
        lim_h = math.sqrt(6.0 / (n_hidden + n_hidden))
        if rng is None:
            self.w_input = np.zeros((4 * n_hidden, n_in))
            self.w_hidden = np.zeros((4 * n_hidden, n_hidden))
        else:
            self.w_input = rng.uniform(-lim_x, lim_x, size=(4 * n_hidden, n_in))
            self.w_hidden = rng.uniform(-lim_h, lim_h, size=(4 * n_hidden, n_hidden))
        self.bias = np.zeros(4 * n_hidden)
        self.bias[n_hidden : 2 * n_hidden] = 1.0  # forget gate starts open
        self._cache = None
        self._x = None

    def step(self, x_t, h_prev, c_prev):
        """One cell update; used by forward and handy for unit checks."""
        H = self.n_hidden
        a = x_t @ self.w_input.T
        a += h_prev @ self.w_hidden.T
        a += self.bias
        g = np.tanh(a[..., 2 * H : 3 * H])
        # each sigmoid gate copies its block once (strided in-place passes are slower)
        i = np.negative(a[..., :H])
        f = np.negative(a[..., H : 2 * H])
        o = np.negative(a[..., 3 * H :])
        del a
        for s in (i, f, o):
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        return o * tanh_c, c, (i, f, g, o, tanh_c)

    def forward(self, x, train=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(
                f"lstm expects (batch, steps, {self.n_in}), got {x.shape}"
            )
        self._x, self._cache = (x, []) if train else (None, None)
        if train:
            return self._unroll(x, self._cache)
        h = np.empty((x.shape[0], self.n_hidden))
        for lo in range(0, x.shape[0], INFER_ROWS):
            h[lo : lo + INFER_ROWS] = self._unroll(x[lo : lo + INFER_ROWS])
        return h

    def _unroll(self, x, cache=None):
        """The final hidden state of rows ``x``; appends each step's state to ``cache``."""
        h = np.zeros((x.shape[0], self.n_hidden))
        c = np.zeros((x.shape[0], self.n_hidden))
        for t in range(x.shape[1]):
            h_prev, c_prev = h, c
            h, c, gates = self.step(x[:, t], h_prev, c_prev)
            if cache is not None:
                cache.append((gates, h_prev, c_prev))
        return h

    def backward(self, grad_out, input_grad=True):
        if self._cache is None:
            raise ParameterError("lstm backward requires a train-mode forward first")
        x = self._x
        self.grad_w_input.fill(0.0)
        self.grad_w_hidden.fill(0.0)
        self.grad_bias.fill(0.0)
        dh = grad_out
        dc = np.zeros_like(grad_out)
        for t in reversed(range(x.shape[1])):
            (i, f, g, o, tanh_c), h_prev, c_prev = self._cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc = dc * f  # flows to c_{t-1}
            da = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.grad_w_input += da.T @ x[:, t]
            self.grad_w_hidden += da.T @ h_prev
            self.grad_bias += da.sum(axis=0)
            if t:  # the first step's hidden gradient would flow to h_0, a constant
                dh = da @ self.w_hidden
        return None


class Sequential(Layer):
    """A straight chain of layers sharing the Layer interface."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, grad_out, input_grad=True):
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        return self.layers[0].backward(grad_out, input_grad=input_grad)

    def children(self):
        return [(str(idx), layer) for idx, layer in enumerate(self.layers)]
