"""Forward/backward behavior of the individual network layers."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from careercast.autoencoder import Autoencoder
from careercast.errors import ParameterError, ShapeError
from careercast.forecaster import Forecaster
from careercast.nn import BatchNorm, Dense, Dropout, LSTM, ReLU, Sequential, layers
from careercast.nn.training import _flatten
from careercast.rng import substream

from helpers import bound_pairs


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_dense_forward_oracle():
    layer = Dense(2, 2)
    layer.weight[:] = [[1.0, 2.0], [3.0, 4.0]]
    layer.bias[:] = [0.5, -0.5]
    out = layer.forward(np.array([[1.0, 1.0], [2.0, 0.0]]))
    assert np.array_equal(out, np.array([[3.5, 6.5], [2.5, 5.5]]))


def test_dense_backward_oracle():
    layer = Dense(2, 1)
    _flatten(layer)  # gradients exist only once bound
    layer.weight[:] = [[2.0, -1.0]]
    x = np.array([[1.0, 3.0], [0.5, -2.0]])
    layer.forward(x, train=True)
    grad_in = layer.backward(np.array([[1.0], [2.0]]))
    assert np.array_equal(layer.grad_weight, np.array([[1.0 + 1.0, 3.0 - 4.0]]))
    assert np.array_equal(layer.grad_bias, np.array([3.0]))
    assert np.array_equal(grad_in, np.array([[2.0, -1.0], [4.0, -2.0]]))


def test_dense_init_scale_and_shape():
    for seed in range(5):
        rng = substream(seed, "test.dense")
        layer = Dense(30, 20, rng)
        limit = np.sqrt(6.0 / 50.0)
        assert layer.weight.shape == (20, 30)
        assert np.all(np.abs(layer.weight) <= limit)
        assert np.array_equal(layer.bias, np.zeros(20))
    with pytest.raises(ShapeError):
        Dense(3, 2).forward(np.zeros((4, 5)))


def test_skipping_the_unread_input_gradient_keeps_parameter_gradients():
    """``input_grad=False``, as ``train_loop`` passes it, drops only the first Dense
    layer's input-gradient product; every parameter gradient keeps its bits."""
    rng = np.random.default_rng(6)
    x, grad_out = rng.normal(size=(9, 12)), rng.normal(size=(9, 12))
    runs = []
    for input_grad in (True, False):
        model = Autoencoder(12, 8, 4, 0.0, rng=substream(6, "test.input_grad")).model
        _, grads = _flatten(model)
        model.forward(x, train=True)
        returned = model.backward(grad_out, input_grad=input_grad)
        runs.append((returned, grads.tobytes()))
    (full, grads), (skipped, grads_skipped) = runs
    assert full.shape == x.shape and skipped is None
    assert grads_skipped == grads


def test_relu_forward_backward():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(layer.forward(x, train=True), np.array([[0.0, 0.0, 2.0]]))
    grad = layer.backward(np.array([[5.0, 5.0, 5.0]]))
    assert np.array_equal(grad, np.array([[0.0, 0.0, 5.0]]))


def test_dense_and_relu_backward_need_a_train_mode_forward():
    x = np.array([[-1.0, 0.0, 2.0]])
    for layer in (Dense(3, 2, substream(0, "test.dense")), ReLU()):
        with pytest.raises(ParameterError):
            layer.backward(np.ones((1, 3)))  # no forward yet
        train_out = layer.forward(x, train=True)
        assert np.array_equal(layer.forward(x), train_out)
        with pytest.raises(ParameterError):
            layer.backward(np.ones_like(train_out))


def test_batchnorm_train_matches_batch_statistics():
    rng = np.random.default_rng(0)
    layer = BatchNorm(3)
    layer.scale[:] = [2.0, 1.0, 0.5]
    layer.shift[:] = [0.0, 1.0, -1.0]
    x = rng.normal(size=(8, 3))
    out = layer.forward(x, train=True)
    expected = layer.scale * (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 1e-5)
    expected += layer.shift
    assert np.allclose(out, expected, atol=1e-12)


def test_batchnorm_running_stats_momentum():
    rng = np.random.default_rng(1)
    layer = BatchNorm(2)
    assert layer.momentum == 0.9
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(6, 2))
    layer.forward(a, train=True)
    layer.forward(b, train=True)
    mean = 0.9 * (0.9 * np.zeros(2) + 0.1 * a.mean(axis=0)) + 0.1 * b.mean(axis=0)
    var = 0.9 * (0.9 * np.ones(2) + 0.1 * a.var(axis=0)) + 0.1 * b.var(axis=0)
    assert np.allclose(layer.running_mean, mean, atol=1e-12)
    assert np.allclose(layer.running_var, var, atol=1e-12)

    x = rng.normal(size=(4, 2))
    out = layer.forward(x, train=False)
    expected = layer.scale * (x - mean) / np.sqrt(var + 1e-5) + layer.shift
    assert np.allclose(out, expected, atol=1e-12)


def test_batchnorm_rejects_singleton_train_batch():
    with pytest.raises(ParameterError):
        BatchNorm(3).forward(np.zeros((1, 3)), train=True)


def test_dropout_train_mask_and_inference_identity():
    rng = substream(0, "test.dropout")
    layer = Dropout(0.5)
    x = np.ones((200, 10))
    out = layer.forward(x, train=True, rng=rng)
    kept = out != 0.0
    assert np.array_equal(out[kept], np.full(kept.sum(), 2.0))
    assert np.array_equal(out[~kept], np.zeros((~kept).sum()))
    assert 0.3 < kept.mean() < 0.7

    grad = layer.backward(np.ones_like(x))
    assert np.array_equal(grad[kept], np.full(kept.sum(), 2.0))
    assert np.array_equal(grad[~kept], np.zeros((~kept).sum()))

    infer = layer.forward(x, train=False)
    assert np.array_equal(infer, x)
    off = Dropout(0.0).forward(x, train=True, rng=rng)
    assert np.array_equal(off, x)


def test_lstm_single_step_oracle():
    H = 2
    layer = LSTM(2, H)
    rng = np.random.default_rng(3)
    layer.w_input[:] = rng.normal(scale=0.5, size=layer.w_input.shape)
    layer.w_hidden[:] = rng.normal(scale=0.5, size=layer.w_hidden.shape)
    layer.bias[:] = rng.normal(scale=0.5, size=layer.bias.shape)
    x_t = rng.normal(size=(3, 2))
    h_prev = rng.normal(size=(3, H))
    c_prev = rng.normal(size=(3, H))

    h, c, _ = layer.step(x_t, h_prev, c_prev)
    a = x_t @ layer.w_input.T + h_prev @ layer.w_hidden.T + layer.bias
    i = sigmoid(a[:, :H])
    f = sigmoid(a[:, H : 2 * H])
    g = np.tanh(a[:, 2 * H : 3 * H])
    o = sigmoid(a[:, 3 * H :])
    c_exp = f * c_prev + i * g
    h_exp = o * np.tanh(c_exp)
    assert np.array_equal(c, c_exp)
    assert np.array_equal(h, h_exp)


def test_lstm_forget_gate_bias_starts_open():
    layer = LSTM(4, 6, substream(0, "test.lstm"))
    H = 6
    assert np.array_equal(layer.bias[H : 2 * H], np.ones(H))
    assert np.array_equal(layer.bias[:H], np.zeros(H))
    assert np.array_equal(layer.bias[2 * H :], np.zeros(2 * H))


def test_lstm_forward_shape_and_bounds():
    layer = LSTM(5, 8, substream(1, "test.lstm"))
    x = np.random.default_rng(2).normal(scale=10.0, size=(6, 7, 5))
    h = layer.forward(x)
    assert h.shape == (6, 8)
    assert np.all(np.abs(h) <= 1.0)  # |h| = |o * tanh(c)| <= 1
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((6, 5)))


def test_lstm_train_and_inference_forwards_agree():
    layer = LSTM(5, 8, substream(2, "test.lstm"))
    x = np.random.default_rng(3).normal(size=(6, 7, 5))
    assert np.array_equal(layer.forward(x, train=True), layer.forward(x))


def test_lstm_backward_needs_a_train_mode_forward():
    layer = LSTM(5, 8, substream(3, "test.lstm"))
    _flatten(layer)
    x = np.random.default_rng(4).normal(size=(6, 7, 5))
    with pytest.raises(ParameterError):
        layer.backward(np.ones((6, 8)))
    layer.forward(x, train=True)
    assert layer.backward(np.ones((6, 8))) is None  # parameter gradients only
    layer.forward(x)  # an inference forward drops the train-mode cache
    with pytest.raises(ParameterError):
        layer.backward(np.ones((6, 8)))


def test_forecaster_inference_keeps_no_per_step_state():
    """Scoring 800 careers allocates a few blocks' worth and keeps less than one."""
    model = Forecaster(48, k=2, rng=substream(4, "test.lstm"))
    rng = np.random.default_rng(5)
    blocks = rng.normal(size=(800, 7, 48))
    assignments = rng.integers(0, 2, size=800)
    tracemalloc.start()
    try:
        model.predict_batch(blocks, assignments)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * blocks.nbytes
    assert kept <= blocks.nbytes
    for layer in model.head.layers:  # no Dense input or ReLU mask outlives the call
        assert getattr(layer, "_x", None) is None and getattr(layer, "_mask", None) is None


def test_lstm_inference_in_row_blocks_equals_one_whole_batch_unroll():
    """Blocks of INFER_ROWS, twice over plus a remainder, give the bits of one
    step loop over the whole batch (forecaster shapes, 1 OpenBLAS thread)."""
    code = (
        "import numpy as np; from careercast.nn import layers; "
        "from careercast.rng import substream; "
        "lstm = layers.LSTM(48, 64, substream(6, 'test.lstm')); "
        "n = 2 * layers.INFER_ROWS + 37; "
        "x = np.random.default_rng(7).normal(size=(n, 7, 48)); "
        "h = c = np.zeros((n, 64))\n"
        "for t in range(7): h, c, _ = lstm.step(x[:, t], h, c)\n"
        "print(np.array_equal(lstm.forward(x), h))"
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(layers.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_forecaster_inference_holds_one_row_block_of_gates():
    """Scoring 2000 careers holds the head's whole-batch activations plus one
    row block's LSTM step, not (2000, 4H) gate products.

    Bound: the hidden state, the head input and the first Dense layer's two
    outputs, at most 3 n (H + k) floats together (3.26 MB here), plus one
    block's step: two (rows, 4H) products and eight (rows, H) gate and state
    arrays (1.05 MB). Measured 3.27 MB; 15.5 MB when the whole batch ran as
    one block.
    """
    n, k = 2000, 4
    model = Forecaster(48, k=k, rng=substream(8, "test.lstm"))
    rng = np.random.default_rng(9)
    blocks = rng.normal(size=(n, 7, 48))
    assignments = rng.integers(0, k, size=n)
    model.predict_batch(blocks[:10], assignments[:10])  # first-call caches are not blocks
    tracemalloc.start()
    try:
        out = model.predict_batch(blocks, assignments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    H = model.n_hidden
    whole = 3 * n * (H + k) * 8
    block = (2 * 4 * H + 8 * H) * layers.INFER_ROWS * 8
    assert peak < out.nbytes + whole + block


def test_sequential_composes_and_prefixes_names():
    rng = substream(0, "test.seq")
    d1, d2 = Dense(4, 3, rng), Dense(3, 2, rng)
    model = Sequential([d1, ReLU(), d2])
    x = np.random.default_rng(4).normal(size=(5, 4))
    manual = d2.forward(ReLU().forward(d1.forward(x)))
    assert np.allclose(model.forward(x), manual, atol=1e-15)
    forecaster_names = ["lstm.w_input", "lstm.w_hidden", "lstm.bias"] + [
        f"head.{i}.{name}" for i in (0, 2, 4) for name in ("weight", "bias")
    ]
    for composite, expected in [
        (model, ["0.weight", "0.bias", "2.weight", "2.bias"]),
        (Forecaster(3, k=2), forecaster_names),
    ]:
        # training flattens, and Adam keeps its slots, in this order
        assert [name for name, _ in composite.param_items()] == expected
        params, grads = _flatten(composite)
        # each gradient sits at its parameter's offset in the twin buffer
        pairs = bound_pairs(composite)
        assert [p.ctypes.data - params.ctypes.data for p, _ in pairs] == [
            g.ctypes.data - grads.ctypes.data for _, g in pairs
        ]
        assert all(p.shape == g.shape for p, g in pairs)
