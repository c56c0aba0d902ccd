"""Finite-difference audits: the suite passes and actually catches bugs."""

from careercast.checks import CONFIGS, LOOSE, SAMPLED_COORDS, TIGHT, grad_check, gradcheck_suite
from careercast.forecaster import Forecaster, cluster_indicators
from careercast.nn import Dense, Sequential
from careercast.rng import substream


class CrookedDense(Dense):
    """A Dense layer whose weight gradient is 5% too large."""

    def backward(self, grad_out, input_grad=True):
        grad_in = super().backward(grad_out, input_grad=input_grad)
        self.grad_weight *= 1.05
        return grad_in


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
    rng = substream(1, "test.gc")
    model = Sequential([CrookedDense(4, 3, rng)])
    err = grad_check(model, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)))
    assert err > 1e-3


def test_sampled_coordinates_still_find_errors():
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


def test_a_wrong_gradient_past_the_first_tensor_is_caught_when_sampled():
    """The head's last weight lies deep in the flat buffers and has more
    coordinates than the cap: a 5% error there is still caught."""
    rng = substream(4, "test.gc")
    model = Forecaster(4, k=3, rng=rng)
    inputs = (rng.normal(size=(5, 7, 4)), cluster_indicators(rng.integers(0, 3, size=5), 3, 5))
    targets = rng.normal(size=(5, 3))
    last = model.head.layers[-1]
    assert model.param_items()[-2][1] is last.weight and last.weight.size > SAMPLED_COORDS

    honest = grad_check(model, inputs, targets, SAMPLED_COORDS, substream(5, "test.gc"))
    last.__class__ = CrookedDense
    crooked = grad_check(model, inputs, targets, SAMPLED_COORDS, substream(5, "test.gc"))
    assert honest < LOOSE < crooked
