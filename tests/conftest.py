"""Shared helpers for the test suite."""

import numpy as np

from cavitylab import models


def fd_jacobian(model_id, params, x, rel_step=1e-6):
    """Central finite-difference Jacobian, the oracle for the analytic one.

    Fourth-order central stencil with step 1e-6 * parameter scale, so the
    oracle's own truncation error stays far below the 1e-5 agreement bound
    even on steep resonance flanks.
    """
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    J = np.empty((x.size, params.size))
    for j in range(params.size):
        h = rel_step * max(abs(params[j]), 1.0)

        def f(offset):
            shifted = params.copy()
            shifted[j] += offset
            return models.evaluate(model_id, shifted, x)

        J[:, j] = (f(-2 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2 * h)) / (12.0 * h)
    return J


def jacobian_mismatch(analytic, numeric):
    """Worst elementwise relative deviation between two Jacobians.

    The denominator is floored per column at 1e-3 of the column maximum so
    that far-tail elements, where central differences are dominated by
    floating-point cancellation, are judged against the column scale.
    """
    col_scale = 1e-3 * np.max(np.maximum(np.abs(analytic), np.abs(numeric)), axis=0)
    scale = np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), col_scale[None, :]
    )
    return float(np.max(np.abs(analytic - numeric) / np.maximum(scale, 1e-300)))


# random-but-physical parameter draws per model, for property tests
def random_params(model_id, rng):
    if model_id == "lorentzian":
        return np.array(
            [rng.uniform(0.5, 50.0), rng.uniform(-5.0, 5.0),
             rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)]
        )
    if model_id == "gaussian":
        return np.array(
            [rng.uniform(0.5, 50.0), rng.uniform(-5.0, 5.0),
             rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)]
        )
    if model_id == "linear":
        return np.array([rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)])
    if model_id == "exponential_decay":
        return np.array([rng.uniform(10.0, 1000.0), rng.uniform(2.0, 40.0)])
    if model_id == "g2_three_level":
        # dip + bunching family: g2 = 1 - (d+b) e^{-g1 u} + b e^{-g2 u}
        fast_amp = rng.uniform(0.3, 0.95) + (bunching := rng.uniform(0.05, 0.5))
        gamma1 = rng.uniform(0.05, 0.5)
        return np.array(
            [-(fast_amp + bunching), fast_amp / (fast_amp + bunching), gamma1,
             gamma1 * rng.uniform(0.05, 0.3), rng.uniform(-5.0, 5.0),
             rng.uniform(100.0, 2000.0)]
        )
    if model_id == "saturation":
        return np.array([rng.uniform(50.0, 500.0), rng.uniform(0.1, 5.0)])
    if model_id == "detuned_purcell":
        return np.array(
            [rng.uniform(1.0, 20.0), rng.uniform(200.0, 3200.0),
             rng.uniform(612.0, 628.0), rng.uniform(0.0, 2.0)]
        )
    raise ValueError(model_id)


def perturb_params(model_id, truth, rng, frac=0.1):
    """Randomly perturbed start values (+-10%).

    Location parameters (line centers, t0) are perturbed by 10% of the line
    width rather than of their absolute value; 10% of a 620 nm center would
    land outside any physical scan window. For a count model the
    perturbation is halved until the start curve is positive on the model's
    grid: a negative expected count is off the Poisson model's domain.
    """
    delta = frac * rng.uniform(-1.0, 1.0, truth.size)
    start = truth * (1.0 + delta)
    if model_id in ("lorentzian", "gaussian"):
        start[1] = truth[1] + delta[1] * abs(truth[2])
    elif model_id == "detuned_purcell":
        start[2] = truth[2] + delta[2] * (truth[2] / truth[1])
    elif model_id == "g2_three_level":
        start[4] = truth[4] + delta[4] / truth[2]
    if models.get_model(model_id).noise == "poisson":
        while np.min(models.evaluate(model_id, start, model_grid(model_id))) <= 0:
            start = truth + (start - truth) / 2.0
    return start


def model_grid(model_id):
    """A sensible abscissa per model (g2 grid offset to dodge the |t-t0| kink)."""
    if model_id in ("lorentzian", "gaussian"):
        return np.linspace(-8.0, 8.0, 201)
    if model_id == "linear":
        return np.linspace(-5.0, 5.0, 51)
    if model_id == "exponential_decay":
        return np.linspace(0.0, 100.0, 201)
    if model_id == "g2_three_level":
        return np.linspace(-400.0, 400.0, 641) + 0.137
    if model_id == "saturation":
        return np.linspace(0.05, 5.0, 41)
    if model_id == "detuned_purcell":
        return np.linspace(610.0, 630.0, 801)
    raise ValueError(model_id)


def budget_values(steps):
    """Every value a budget's report steps name: each step's value and inputs."""
    values = {}
    for step in steps:
        values.update(step["inputs"])
        values[step["name"]] = step["value"]
    return values
