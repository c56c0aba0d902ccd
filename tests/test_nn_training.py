"""Adam, the training loop, and early stopping."""

import math

import numpy as np
import pytest

from careercast.errors import ConfigError, NumericError, ParameterError, ShapeError, SplitError
from careercast.forecaster import Forecaster
from careercast.nn import (
    Adam,
    BatchNorm,
    Dense,
    ReLU,
    Sequential,
    TrainConfig,
    mse_loss,
    optim,
    train_loop,
)
from careercast.nn.training import VALIDATION_FRACTION
from careercast.rng import substream

from helpers import bound_pairs


def test_adam_first_step_is_learning_rate_sized():
    rng = np.random.default_rng(0)
    param = rng.normal(size=(4, 3))
    grad = rng.normal(size=(4, 3))
    grad[np.abs(grad) < 0.01] = 0.5
    before = param.copy()
    opt = Adam()
    opt.step([param], [grad])
    # bias-corrected first step: -lr * g / (|g| + tiny) ~= -lr * sign(g)
    assert np.allclose(param - before, -1e-3 * np.sign(grad), atol=1e-6)


def test_adam_zero_gradient_is_fixed_point():
    param = np.array([1.0, -2.0, 3.0])
    before = param.copy()
    opt = Adam()
    for _ in range(5):
        opt.step([param], [np.zeros(3)])
    assert np.array_equal(param, before)


def test_adam_rejects_non_finite_gradients():
    with pytest.raises(NumericError):
        Adam().step([np.zeros(2)], [np.array([1.0, np.nan])])


def textbook_adam(params, grad_fn, steps, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba 2015, Algorithm 1, one array at a time."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for p, g, m_t, v_t in zip(params, grad_fn(t), m, v):
            m_t[...] = beta1 * m_t + (1.0 - beta1) * g
            v_t[...] = beta2 * v_t + (1.0 - beta2) * g**2
            m_hat = m_t / (1.0 - beta1**t)
            v_hat = v_t / (1.0 - beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_matches_textbook_algorithm():
    rng = np.random.default_rng(6)
    shapes = [(5, 3), (7,), (2, 3, 4), (1,)]
    # magnitudes in [1, 2] keep every coordinate away from zero, so rtol is meaningful
    start = [rng.uniform(1.0, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s) for s in shapes]
    grads = [
        [rng.normal(size=s) * 10.0 ** rng.uniform(-4, 2) for s in shapes]
        for _ in range(200)
    ]
    want = [p.copy() for p in start]
    textbook_adam(want, lambda t: grads[t - 1], 200)
    got = [p.copy() for p in start]
    opt = Adam()
    for step_grads in grads:
        opt.step(got, step_grads)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


def whole_buffer_adam(p, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's folded update as whole-array passes, in Adam.step's op order."""
    m, v, s = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)
    for t, g in enumerate(grads, 1):
        root_c2 = math.sqrt(1.0 - beta2**t)
        step_size = lr * root_c2 / (1.0 - beta1**t)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.square(g, out=s)
        s *= 1.0 - beta2
        v += s
        np.sqrt(v, out=s)
        s += eps * root_c2
        np.divide(m, s, out=s)
        s *= step_size
        p -= s


def test_adam_in_blocks_equals_whole_buffer_passes():
    """More than two blocks plus a remainder, 50 steps: the same bits."""
    n = 40_001
    assert n > 2 * optim.BLOCK and n % optim.BLOCK
    rng = np.random.default_rng(11)
    start = rng.normal(size=n)
    grads = [rng.normal(size=n) * 10.0 ** rng.uniform(-4, 2) for _ in range(50)]
    want = start.copy()
    whole_buffer_adam(want, grads)
    got = start.copy()
    opt = Adam()
    for g in grads:
        opt.step([got], [g])
    assert np.array_equal(got, want)


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    with pytest.raises(ParameterError):
        Adam().step([np.zeros((4, 3)).T], [np.zeros((3, 4))])


@pytest.mark.parametrize("kind", ["dense_batchnorm", "forecaster"])
def test_train_loop_binds_every_array_to_one_buffer(kind):
    rng = np.random.default_rng(7)
    if kind == "forecaster":
        model = Forecaster(4, k=2, rng=substream(8, "test.bind"))
        onehot = np.eye(2)[rng.integers(0, 2, size=30)]
        x, y = (rng.normal(size=(30, 5, 4)), onehot), rng.normal(size=(30, 3))
    else:
        model = Sequential([
            Dense(4, 6, substream(8, "test.bind")), BatchNorm(6), ReLU(),
            Dense(6, 2, substream(9, "test.bind")),
        ])
        x, y = rng.normal(size=(30, 4)), rng.normal(size=(30, 2))
    train_loop(model, x, y, TrainConfig(max_epochs=2), rng=substream(7, "train_loop"))

    params = [arr for _, arr in model.param_items()]
    grads = [grad for _, grad in bound_pairs(model)]
    total = sum(p.size for p in params)
    for arrays in (params, grads):
        flat = arrays[0].base
        assert flat is not None and flat.shape == (total,)
        assert all(np.shares_memory(a, flat) for a in arrays)
    assert params[0].base is not grads[0].base
    assert not np.shares_memory(params[0].base, grads[0].base)

    # a later backward writes every gradient into those same arrays
    grads[0].base.fill(np.nan)
    _, grad_out = mse_loss(model.forward(x, train=True, rng=rng), y)
    model.backward(grad_out)
    assert all(a is b for (_, a), b in zip(bound_pairs(model), grads))
    assert np.isfinite(grads[0].base).all()


def make_linear_data(seed, n=64, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    w = np.array([2.0, -1.0, 0.5])
    y = x @ w[:, None] + 0.7
    return x, y


def test_training_fits_linear_data():
    x, y = make_linear_data(0)
    model = Sequential([Dense(3, 1, substream(0, "test.fit"))])
    config = TrainConfig(max_epochs=3000, patience=3000)
    result = train_loop(model, x, y, config, rng=substream(0, "test.fit.train"))
    assert result.train_loss[-1] < 1e-3
    assert result.best_epoch <= result.stopped_epoch


def test_restored_parameters_reproduce_best_val_loss():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 6))
    y = rng.normal(size=(50, 2))  # pure noise: val loss wanders, best is restored
    model = Sequential([Dense(6, 4, substream(1, "test.restore")), ReLU(), Dense(4, 2, substream(2, "test.restore"))])
    config = TrainConfig(max_epochs=40, patience=5)
    result = train_loop(model, x, y, config, rng=substream(1, "test.restore.train"))

    probe = substream(1, "test.restore.train")
    order = probe.permutation(len(x))
    val_idx = order[: int(round(len(x) * VALIDATION_FRACTION))]
    val_loss, _ = mse_loss(model.forward(x[val_idx], train=False), y[val_idx])
    assert val_loss == pytest.approx(result.best_val_loss, abs=1e-12)
    assert result.best_val_loss == min(result.val_loss)
    assert result.best_epoch == result.val_loss.index(result.best_val_loss) + 1


def test_patience_one_stops_before_budget():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 5))
    y = rng.normal(size=(40, 1))
    model = Sequential([Dense(5, 1, substream(3, "test.patience"))])
    # validation loss wobbles once it is near the optimum, well inside the budget
    config = TrainConfig(max_epochs=1000, patience=1)
    result = train_loop(model, x, y, config, rng=substream(3, "test.patience.train"))
    assert result.stopped_epoch < 1000
    assert result.best_epoch <= result.stopped_epoch
    assert result.stopped_epoch == result.best_epoch + 1


def test_training_is_deterministic():
    x, y = make_linear_data(3)

    def fit():
        model = Sequential([Dense(3, 2, substream(4, "test.det")), ReLU(), Dense(2, 1, substream(5, "test.det"))])
        train_loop(model, x, y, TrainConfig(max_epochs=15), rng=substream(4, "test.det.train"))
        return [arr.copy() for _, arr in model.param_items()]

    first, second = fit(), fit()
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_trailing_singleton_batch_is_folded():
    # 37 samples -> 4 validation, 33 training rows against BATCH_SIZE 32;
    # a naive split would feed batchnorm a 1-row batch and fail.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(37, 4))
    y = rng.normal(size=(37, 1))
    model = Sequential([Dense(4, 6, substream(6, "test.fold")), BatchNorm(6), ReLU(), Dense(6, 1, substream(7, "test.fold"))])
    result = train_loop(model, x, y, TrainConfig(max_epochs=3), rng=substream(6, "test.fold.train"))
    assert result.stopped_epoch >= 1


def test_train_loop_rejects_bad_shapes():
    x = np.zeros((10, 3))
    model = Sequential([Dense(3, 1)])
    with pytest.raises(ShapeError):
        train_loop(model, x, np.zeros((7, 1)), TrainConfig(), rng=substream(0, "test.shapes"))
    with pytest.raises(SplitError):
        train_loop(model, x[:0], np.zeros((0, 1)), TrainConfig(), rng=substream(0, "test.shapes"))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0).validate()
    TrainConfig().validate()
