"""Reference predictors: carry-forward, closed-form regression, dense net."""

import tracemalloc

import numpy as np
import pytest

from careercast.baselines import (
    LINEAR_LAMBDA,
    LinearModel,
    last_value_predict,
    linear_fit,
    linear_predict,
    mlp_baseline_train,
)
from careercast.errors import (
    NumericError,
    ParameterError,
    ShapeError,
)
from careercast.ingest import Split
from careercast.nn import Dense, ReLU, TrainConfig

from helpers import penalized_objective


def make_split(final_target_values, n_features=3, target_index=0):
    n = len(final_target_values)
    raw = np.tile(np.arange(7 * n_features, dtype=float).reshape(7, n_features), (n, 1, 1))
    raw[:, -1, target_index] = final_target_values
    return Split(
        player_ids=tuple(f"p{i}" for i in range(n)),
        category=(None,) * n,
        raw=raw,
        target=np.zeros((n, 3)),
        input=raw * 0.1,
    )


def test_last_value_is_bit_exact():
    awkward = 0.1 + 0.2  # 0.30000000000000004, survives only if untouched
    split = make_split([awkward, -7.25])
    pred = last_value_predict(split.raw, target_index=0)
    assert pred.shape == (2, 3)
    assert np.array_equal(pred[0], np.array([awkward] * 3))
    assert np.array_equal(pred[1], np.array([-7.25] * 3))


def test_last_value_reads_raw_not_normalized():
    split = make_split([4.5], target_index=1)
    pred = last_value_predict(split.raw, target_index=1)
    assert pred[0, 0] == 4.5  # not the 0.45 sitting in the normalized block
    assert split.input[0, -1, 1] == pytest.approx(0.45)


def test_last_value_rejects_empty():
    with pytest.raises(ParameterError):
        last_value_predict(np.zeros((0, 7, 3)), target_index=0)


def ols_oracle(x, y):
    """Unpenalized least squares on the intercept-augmented design: (coef, intercept)."""
    weights = np.linalg.lstsq(np.hstack([x, np.ones((len(x), 1))]), y, rcond=None)[0]
    return weights[:-1], weights[-1]


def test_linear_fit_recovers_exact_planted_weights():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 4))
    w = np.array([[1.5], [-2.0], [0.25], [3.0]])
    y = x @ w + 0.75
    model = linear_fit(x, y, l2=LINEAR_LAMBDA)
    coef, intercept = ols_oracle(x, y)
    assert np.allclose(model.coef, coef, atol=1e-9)
    assert np.allclose(model.intercept, intercept, atol=1e-9)
    assert np.allclose(model.coef, w, atol=1e-9)
    assert np.allclose(model.intercept, [0.75], atol=1e-9)
    assert np.allclose(linear_predict(model, x), y, atol=1e-9)


def test_tiny_ridge_matches_ordinary_least_squares():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 10))
    y = rng.normal(size=(50, 3))
    coef, intercept = ols_oracle(x, y)
    ridge = linear_fit(x, y, l2=1e-8)
    assert np.allclose(ridge.coef, coef, atol=1e-8)
    assert np.allclose(ridge.intercept, intercept, atol=1e-8)


def test_ridge_solution_beats_100_perturbations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 10))
    y = rng.normal(size=(50, 3))
    l2 = 1.0
    model = linear_fit(x, y, l2=l2)
    best = penalized_objective(model, x, y, l2)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-4, -1)
        shaken = LinearModel(
            coef=model.coef + scale * rng.normal(size=model.coef.shape),
            intercept=model.intercept + scale * rng.normal(size=model.intercept.shape),
        )
        assert penalized_objective(shaken, x, y, l2) >= best


@pytest.mark.parametrize("l2", [1e-8, 1.0])
def test_in_place_penalty_equals_the_eye_formula(l2):
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=(300, 40)), rng.normal(size=(300, 3))
    xa = np.hstack([x, np.ones((300, 1))])
    penalty = np.eye(41) * l2
    penalty[40, 40] = 0.0
    weights = np.linalg.solve(xa.T @ xa + penalty, xa.T @ y)
    model = linear_fit(x, y, l2=l2)
    assert np.array_equal(model.coef, weights[:40])
    assert np.array_equal(model.intercept, weights[40])


def test_ridge_fit_holds_the_design_and_about_one_gram_matrix():
    """At 797 x 336 the fit holds the design with its intercept column and
    the Gram matrix, penalized in place. Bound: that design plus 2.5 Gram
    matrices (4.42 MB). Measured 3.07 MB, the design plus 1.02 Gram
    matrices; 4.87 MB (the design plus 3.0) with a separate eye penalty
    and penalized copy."""
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=(797, 336)), rng.normal(size=(797, 3))
    linear_fit(x[:50, :5], y[:50], l2=1.0)  # first-call caches are not the fit's
    tracemalloc.start()
    try:
        linear_fit(x, y, l2=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    design, gram = 797 * 337 * 8, 337 * 337 * 8
    assert peak < design + 2.5 * gram


def test_huge_penalty_shrinks_to_the_mean():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 2)) + np.array([5.0, -3.0])
    model = linear_fit(x, y, l2=1e12)
    assert np.allclose(model.coef, 0.0, atol=1e-6)
    assert np.allclose(model.intercept, y.mean(axis=0), atol=1e-6)


def test_rank_deficiency_is_an_error_without_penalty():
    """No fit runs unpenalized; the penalty makes a duplicated column solvable."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 3))
    x = np.hstack([x, x[:, :1]])  # duplicated column
    y = rng.normal(size=(20, 1))
    with pytest.raises(ParameterError, match="l2 must be positive"):
        linear_fit(x, y, l2=0.0)
    model = linear_fit(x, y, l2=1e-6)
    assert np.all(np.isfinite(model.coef))


def test_linear_fit_input_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ShapeError):
        linear_fit(np.zeros(5), np.zeros(5), l2=1.0)
    with pytest.raises(ShapeError):
        linear_fit(x, np.zeros((4, 1)), l2=1.0)
    for l2 in (0.0, -1.0, np.nan):
        with pytest.raises(ParameterError, match="l2 must be positive"):
            linear_fit(x, np.zeros(5), l2=l2)
    bad = x.copy()
    bad[0, 0] = np.inf
    with pytest.raises(NumericError):
        linear_fit(bad, np.zeros(5), l2=1.0)
    model = linear_fit(np.eye(2), np.ones(2), l2=0.1)
    with pytest.raises(ShapeError):
        linear_predict(model, np.zeros((3, 5)))


def test_penalized_objective_hand_value():
    model = LinearModel(coef=np.array([[1.0], [2.0]]), intercept=np.array([0.5]))
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    y = np.array([[3.0], [2.0]])
    # residuals 0.5 and 0.5 -> ssr 0.5; penalty 2 * (1 + 4) = 10
    assert penalized_objective(model, x, y, 2.0) == pytest.approx(10.5, abs=1e-12)


def test_mlp_architecture_and_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 12))
    y = rng.normal(size=(60, 3))
    model, result = mlp_baseline_train(x, y, seed=0, config=TrainConfig(max_epochs=5))
    kinds = [type(l) for l in model.layers]
    assert kinds == [Dense, ReLU, Dense, ReLU, Dense]
    widths = [l.weight.shape for l in model.layers if isinstance(l, Dense)]
    assert widths == [(64, 12), (32, 64), (3, 32)]
    assert len(result.train_loss) == result.stopped_epoch

    again, _ = mlp_baseline_train(x, y, seed=0, config=TrainConfig(max_epochs=5))
    for (_, a), (_, b) in zip(model.param_items(), again.param_items()):
        assert np.array_equal(a, b)


def test_mlp_learns_a_linear_map():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 6))
    y = x[:, :2] * 0.5
    model, result = mlp_baseline_train(
        x, y, seed=1, config=TrainConfig(max_epochs=200, patience=200)
    )
    assert result.train_loss[-1] < 0.02
    assert result.train_loss[-1] < result.train_loss[0] * 0.2
