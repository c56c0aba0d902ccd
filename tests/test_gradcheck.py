"""Finite-difference audits: the suite passes and actually catches bugs."""

import numpy as np
import pytest

from careercast.checks import CONFIGS, LOOSE, TIGHT, gradcheck_suite
from careercast.errors import ParameterError
from careercast.nn import Dense, Sequential, grad_check
from careercast.rng import substream


def test_suite_covers_every_architecture():
    names = [name for name, _, _, _ in CONFIGS]
    assert names == [
        "dense",
        "batchnorm",
        "dropout-off",
        "lstm",
        "autoencoder",
        "forecaster",
        "mlp",
    ]
    thresholds = {name: thr for name, _, thr, _ in CONFIGS}
    assert thresholds["dense"] == TIGHT == 1e-6
    assert thresholds["dropout-off"] == TIGHT
    assert thresholds["lstm"] == LOOSE == 1e-4


def test_suite_passes_on_a_few_seeds():
    rows = gradcheck_suite(n_seeds=3)
    assert len(rows) == 7
    for row in rows:
        assert row["ok"], f"{row['name']}: {row['max_error']:.3g}"
        assert row["max_error"] < row["threshold"]


def test_linear_stack_agrees_tightly():
    rng = substream(0, "test.gc")
    model = Sequential([Dense(4, 3, rng), Dense(3, 2, rng)])
    err = grad_check(model, rng.normal(size=(5, 4)), rng.normal(size=(5, 2)))
    assert err < 1e-6


def test_corrupted_backward_is_detected():
    class CrookedDense(Dense):
        def backward(self, grad_out, input_grad=True):
            grad_in = super().backward(grad_out, input_grad=input_grad)
            self.grad_weight *= 1.05
            return grad_in

    rng = substream(1, "test.gc")
    model = Sequential([CrookedDense(4, 3, rng)])
    err = grad_check(model, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)))
    assert err > 1e-3


def test_grad_check_parameter_errors():
    rng = substream(2, "test.gc")
    model = Sequential([Dense(2, 2, rng)])
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    with pytest.raises(ParameterError):
        grad_check(model, x, y, eps=0.0)
    with pytest.raises(ParameterError):
        grad_check(model, x, y, max_coords_per_param=2, rng=None)


def test_sampled_coordinates_still_find_errors():
    class CrookedDense(Dense):
        def backward(self, grad_out, input_grad=True):
            grad_in = super().backward(grad_out, input_grad=input_grad)
            self.grad_weight *= 1.05
            return grad_in

    rng = substream(3, "test.gc")
    model = Sequential([CrookedDense(6, 4, rng)])
    err = grad_check(
        model,
        rng.normal(size=(8, 6)),
        rng.normal(size=(8, 4)),
        max_coords_per_param=10,
        rng=rng,
    )
    assert err > 1e-3
