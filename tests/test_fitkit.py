import numpy as np
import pytest

from conftest import model_grid, perturb_params, random_params

from cavitylab import fitkit, models
from cavitylab.errors import DataError, InsufficientDataError, RankDeficiencyError, ValidationError
from cavitylab.optics import C_NM_GHZ


def _lorentzian_data(center=618.6, fwhm_nm=0.268, amplitude=1000.0, offset=20.0,
                     noise_sigma=0.0, seed=0):
    x = np.linspace(center - 4.0, center + 4.0, 801)
    y = models.evaluate("lorentzian", [amplitude, center, fwhm_nm, offset], x)
    if noise_sigma:
        rng = np.random.Generator(np.random.Philox(seed))
        y = y + rng.normal(0.0, noise_sigma, x.size)
    return x, y


def test_noiseless_exact_start_converges_immediately():
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(
        model_id="lorentzian", x=x, y=y, initial_params=[1000.0, 618.6, 0.268, 20.0]
    )
    result = fitkit.fit(problem)
    assert result.converged
    assert result.iterations <= 2
    assert result.reduced_chi2 < 1e-18


def test_lorentzian_recovery_with_noise():
    # emission-line scale: FWHM equivalent to 210 GHz at 618.6 nm
    x, y = _lorentzian_data(noise_sigma=10.0, seed=3)
    result = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y))
    assert result.converged
    center, fwhm = result.params[1], result.params[2]
    assert abs(center - 618.6) < 0.1
    fwhm_ghz = C_NM_GHZ * fwhm / center**2
    assert abs(fwhm_ghz - 210.0) < 20.0


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_noiseless_roundtrip_from_perturbed_start(model_id):
    # zero-noise data refit from a +-10% start recovers truth to 1e-8 relative
    rng = np.random.Generator(np.random.Philox(23))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        start = perturb_params(model_id, truth, rng)
        result = fitkit.fit(
            fitkit.FitProblem(model_id=model_id, x=x, y=y, initial_params=start),
            fitkit.FitOptions(max_iter=400, param_tol=1e-12),
        )
        assert result.converged
        scale = np.abs(truth) + 1e-12
        assert np.max(np.abs(result.params - truth) / scale) < 1e-8


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_objective_non_increasing(model_id):
    # noisy data from random starts: Poisson draws for count models, else
    # Gaussian noise at 5% of the curve's span
    rng = np.random.Generator(np.random.Philox(11))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        if models.get_model(model_id).noise == "poisson":
            y = rng.poisson(y).astype(float)
        else:
            y = y + rng.normal(0.0, 0.05 * np.ptp(y), x.size)
        start = perturb_params(model_id, truth, rng)
        result = fitkit.fit(
            fitkit.FitProblem(model_id=model_id, x=x, y=y, initial_params=start)
        )
        trace = np.array(result.cost_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-9 * trace[:-1] + 1e-12)


def test_objective_non_increasing_from_a_far_start():
    x, y = _lorentzian_data(noise_sigma=25.0, seed=11)
    start = [600.0, 619.5, 0.6, 0.0]  # center 3.4 line widths off
    result = fitkit.fit(
        fitkit.FitProblem(model_id="lorentzian", x=x, y=y, initial_params=start)
    )
    trace = np.array(result.cost_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[:-1] + 1e-12)


def test_poisson_fit_maximizes_the_likelihood():
    # the Poisson score sum((y - mu) / mu * dmu/dp) vanishes at the maximum;
    # least-squares fits of these counts leave it at 0.2 (unweighted) and
    # 3 (Neyman weights) in units of the Fisher sigma
    t = model_grid("exponential_decay")
    rng = np.random.Generator(np.random.Philox(4))
    y = rng.poisson(models.evaluate("exponential_decay", [500.0, 12.2], t)).astype(float)
    result = fitkit.fit(fitkit.FitProblem(model_id="exponential_decay", x=t, y=y))
    assert result.converged
    mu = models.evaluate("exponential_decay", result.params, t)
    J = models.jacobian_matrix("exponential_decay", result.params, t)
    score = J.T @ ((y - mu) / mu)
    fisher_sigma = np.sqrt(np.diag(J.T @ (J / mu[:, None])))
    assert np.all(np.abs(score) / fisher_sigma < 1e-6)


def test_fit_invariant_under_data_reordering():
    x, y = _lorentzian_data(noise_sigma=15.0, seed=7)
    rng = np.random.Generator(np.random.Philox(8))
    perm = rng.permutation(x.size)
    r1 = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y))
    r2 = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x[perm], y=y[perm]))
    assert np.allclose(r1.params, r2.params, rtol=1e-7)


def test_affine_reparameterization():
    k = 3.7
    x, y = _lorentzian_data(noise_sigma=5.0, seed=5)
    base = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y)).params
    scaled = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=k * x, y=y)).params
    assert scaled[1] == pytest.approx(k * base[1], rel=1e-6)
    assert scaled[2] == pytest.approx(k * base[2], rel=1e-4)

    t = np.linspace(0.0, 60.0, 301)
    y = models.evaluate("exponential_decay", [500.0, 12.2], t)
    tau = fitkit.fit(fitkit.FitProblem(model_id="exponential_decay", x=k * t, y=y)).params[1]
    assert tau == pytest.approx(k * 12.2, rel=1e-8)


def test_rank_deficiency_names_parameters():
    x = np.full(10, 2.0)
    y = np.linspace(0.0, 1.0, 10)
    with pytest.raises(RankDeficiencyError) as err:
        fitkit.fit(fitkit.FitProblem(model_id="linear", x=x, y=y))
    assert "slope" in str(err.value) or "intercept" in str(err.value)
    assert err.value.parameters


def test_nonfinite_data_rejected_with_index():
    y = np.ones(10)
    y[4] = np.nan
    with pytest.raises(DataError) as err:
        fitkit.FitProblem(model_id="linear", x=np.arange(10.0), y=y)
    assert err.value.index == 4


def test_problem_validation():
    with pytest.raises(InsufficientDataError):
        fitkit.FitProblem(model_id="lorentzian", x=[1.0, 2.0], y=[1.0, 2.0])
    with pytest.raises(DataError):
        fitkit.FitProblem(
            model_id="linear", x=[1.0, 2.0], y=[1.0, 2.0], weights=[1.0, -1.0]
        )
    with pytest.raises(ValidationError):
        fitkit.FitProblem(
            model_id="linear", x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0],
            initial_params=[5.0, 0.0], bounds=[(0.0, 1.0), (-1.0, 1.0)],
        )
    with pytest.raises(ValidationError, match="Poisson"):  # the likelihood sets them
        fitkit.FitProblem(
            model_id="exponential_decay", x=[0.0, 1.0, 2.0], y=[9.0, 4.0, 2.0],
            weights=[1.0, 1.0, 1.0],
        )


def test_bounds_respected():
    t = np.linspace(0.0, 60.0, 301)
    y = models.evaluate("exponential_decay", [500.0, 12.2], t)
    result = fitkit.fit(
        fitkit.FitProblem(
            model_id="exponential_decay", x=t, y=y,
            initial_params=[400.0, 8.0], bounds=[(0.0, None), (1.0, 10.0)],
        )
    )
    assert 1.0 <= result.params[1] <= 10.0


def test_bootstrap_noiseless_sigma_is_zero():
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    result = fitkit.fit(problem)
    sigma = fitkit.bootstrap_uncertainty(problem, result, n_resamples=20, seed=1)
    assert np.all(sigma <= 1e-8 * (np.abs(result.params) + 1.0))


def test_bootstrap_agrees_with_covariance():
    rng = np.random.Generator(np.random.Philox(42))
    x = np.linspace(0.0, 10.0, 120)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 0.5, x.size)
    problem = fitkit.FitProblem(model_id="linear", x=x, y=y)
    result = fitkit.fit(problem)
    boot = fitkit.bootstrap_uncertainty(problem, result, n_resamples=400, seed=2)
    assert np.all(np.abs(boot - result.sigmas) <= 0.3 * result.sigmas)


def test_bootstrap_sigma_matches_thermal_drift_precision():
    # straight-line drift-vs-temperature fit at typical tracking noise:
    # the expansion-coefficient uncertainty comes out near 3e-8 per kelvin
    rng = np.random.Generator(np.random.Philox(55))
    l_ref_nm = 3700.0
    temps = np.linspace(285.0, 295.0, 25)
    slope = 5.1e-6 * l_ref_nm
    y = slope * (temps - temps[0]) + rng.normal(0.0, 1.6e-3, temps.size)
    problem = fitkit.FitProblem(model_id="linear", x=temps, y=y)
    result = fitkit.fit(problem)
    boot = fitkit.bootstrap_uncertainty(problem, result, n_resamples=400, seed=6)
    sigma_alpha = boot[0] / l_ref_nm
    assert 0.015e-6 < sigma_alpha < 0.06e-6
    assert abs(boot[0] - result.sigmas[0]) <= 0.3 * result.sigmas[0]


def test_bootstrap_requires_convergence():
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    bad = fitkit.FitResult(
        model_id="lorentzian", params=np.zeros(4), covariance=np.eye(4),
        reduced_chi2=1.0, iterations=1, converged=False,
    )
    with pytest.raises(ValidationError):
        fitkit.bootstrap_uncertainty(problem, bad, n_resamples=10)


def test_weighted_linear_fit_matches_polyfit():
    rng = np.random.Generator(np.random.Philox(9))
    x = np.linspace(-3.0, 5.0, 40)
    y = -1.3 * x + 0.7 + rng.normal(0.0, 0.2, x.size)
    (slope, intercept), cov = fitkit.weighted_linear_fit(x, y)
    ref = np.polyfit(x, y, 1)
    assert slope == pytest.approx(ref[0], rel=1e-10)
    assert intercept == pytest.approx(ref[1], rel=1e-10)
    assert cov.shape == (2, 2)
    assert cov[0, 1] == pytest.approx(cov[1, 0])


def test_model_bounds_apply_and_clip_the_heuristic_start():
    x = np.linspace(0.1, 10.0, 50)
    y = -models.evaluate("saturation", [100.0, 2.0], x)  # heuristic i_sat < 0
    problem = fitkit.FitProblem(model_id="saturation", x=x, y=y)
    lo, hi = problem.bounds
    assert lo.tolist() == [1e-12, 1e-12] and np.all(np.isinf(hi))
    assert problem.initial_params[0] == 1e-12
    with pytest.raises(ValidationError):
        fitkit.FitProblem(model_id="saturation", x=x, y=y, initial_params=[-1.0, 2.0])
