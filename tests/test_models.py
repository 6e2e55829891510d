import numpy as np
import pytest

from conftest import fd_jacobian, jacobian_mismatch, model_grid, random_params

from cavitylab import models
from cavitylab.errors import ValidationError


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_jacobian_matches_finite_differences(model_id):
    rng = np.random.Generator(np.random.Philox(101))
    x = model_grid(model_id)
    for _ in range(20):
        params = random_params(model_id, rng)
        analytic = models.jacobian_matrix(model_id, params, x)
        numeric = fd_jacobian(model_id, params, x)
        assert jacobian_mismatch(analytic, numeric) < 1e-5


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_batch_rows_equal_single_evaluations(model_id):
    # row k of a (K, n) batch with row k of a (K, P) parameter stack is the
    # 1-D evaluation bit for bit, overflowing rows included (the last row's
    # parameters are scaled to 1e200); powers of parameters round differently
    # as arrays in about 1e-3 of values, so the batch is 2000 rows deep
    rng = np.random.Generator(np.random.Philox(7))
    x = model_grid(model_id)[::25]
    p = np.array([random_params(model_id, rng) for _ in range(2000)])
    p[-1] *= 1e200
    xs = x + rng.uniform(0.0, 1e-3, (len(p), 1))
    model = models.get_model(model_id)
    with np.errstate(all="ignore"):
        fn, jac = model.fn(xs, p), model.jac(xs, p)
        for k in range(len(p)):
            assert fn[k].tobytes() == model.fn(xs[k], p[k]).tobytes()
            assert jac[k].tobytes() == model.jac(xs[k], p[k]).tobytes()


def test_linear_jacobian_exact():
    x = np.array([1.0, 2.0, -3.0])
    J = models.jacobian_matrix("linear", [2.0, 1.0], x)
    assert np.array_equal(J[:, 0], x)
    assert np.array_equal(J[:, 1], np.ones(3))


def test_exponential_decay_tau_derivative_zero_at_origin():
    J = models.jacobian_matrix("exponential_decay", [100.0, 12.0], np.array([0.0, 1.0]))
    assert J[0, 1] == 0.0
    assert J[1, 1] > 0.0


def test_unknown_model_rejected():
    with pytest.raises(ValidationError):
        models.evaluate("sigmoid", [1.0], [0.0])
    with pytest.raises(ValidationError):
        models.evaluate("linear", [1.0], [0.0])  # wrong parameter count


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_initializer_lands_near_truth(model_id):
    # start values need not be tight, but they must put LM in the right basin
    rng = np.random.Generator(np.random.Philox(17))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        start = models.initial_params(model_id, x, y)
        assert start.shape == truth.shape
        assert np.all(np.isfinite(start))


def test_g2_initializer_finds_dip():
    x = model_grid("g2_three_level")
    truth = np.array([-1.09, 0.94 / 1.09, 0.08, 0.005, 10.0, 1500.0])
    y = models.evaluate("g2_three_level", truth, x)
    start = models.initial_params("g2_three_level", x, y)
    assert abs(start[4] - 10.0) < 5.0  # t0 near the dip
    assert start[0] < 0  # dip trace: negative contrast
    assert start[2] > start[3]  # gamma1 a decade above gamma2
    assert start[5] == pytest.approx(1500.0, rel=0.1)  # plateau from the edges


def test_g2_start_curve_is_positive_over_an_empty_dip_bin():
    # an expected count of zero is off the Poisson model's domain
    x = model_grid("g2_three_level")
    truth = np.array([-1.09, 0.94 / 1.09, 0.08, 0.005, 10.0, 20.0])
    y = np.round(models.evaluate("g2_three_level", truth, x))
    y[np.argmin(y)] = 0.0
    start = models.initial_params("g2_three_level", x, y)
    assert np.min(models.evaluate("g2_three_level", start, x)) > 0
