import numpy as np
import pytest

from cavitylab import fitkit, models, photophysics, synthlab
from cavitylab.dataio import Spectrum, TimeHistogram
from cavitylab.errors import (
    FitQualityError,
    InsufficientDataError,
    NonphysicalResultError,
    ValidationError,
)
from cavitylab.photophysics import (
    debye_waller_estimate,
    decay_rate_extrapolation,
    fit_g2_histogram,
    fit_saturation,
    pulsed_lifetime_fit,
)

# (contrast, beta, gamma1, gamma2, t0, plateau), normalised to a plateau of 1
DIP_PARAMS = np.array([-1.09, 0.94 / 1.09, 0.08, 0.005, 0.0, 1.0])


def g2(t, p):
    return models.evaluate("g2_three_level", p, t)


def saturation(power, i_sat, p_sat):
    return models.evaluate("saturation", [i_sat, p_sat], power)


def test_g2_derived_refuses_outside_the_valid_region():
    derived = models.get_model("g2_three_level").derived
    with pytest.raises(FitQualityError):
        derived(np.array([0.0, 0.5, 0.1, 0.01, 0.0, 1.0]))  # zero contrast
    with pytest.raises(FitQualityError):
        derived(np.array([-1.0, 0.5, 0.01, 0.1, 0.0, 1.0]))  # rates out of order


# ---------------------------------------------------------------------------
# g2 model
# ---------------------------------------------------------------------------


def test_g2_long_delay_limit():
    assert g2(np.array([1e6, -1e6]), DIP_PARAMS) == pytest.approx([1.0, 1.0])


def test_g2_zero_delay_closed_form():
    contrast, beta, _, _, t0, _ = DIP_PARAMS
    expected = 1.0 + contrast * (2.0 * beta - 1.0)
    assert g2(np.array([t0]), DIP_PARAMS)[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.21, abs=1e-12)


def test_g2_symmetry_about_t0():
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(200):
        gamma1 = rng.uniform(0.02, 0.5)
        contrast = rng.uniform(-3.0, 3.0) or 0.5
        beta = rng.uniform(-2.0, 3.0)
        gamma2 = gamma1 * rng.uniform(0.05, 0.9)
        t0 = rng.uniform(-20.0, 20.0)
        p = np.array([contrast, beta, gamma1, gamma2, t0, 1.0])
        delta = rng.uniform(0.0, 300.0, 50)
        left = g2(t0 - delta, p)
        right = g2(t0 + delta, p)
        # t0 +- delta differ by one ulp as floats, hence the 1e-12 tolerance
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def test_g2_pure_bunching_monotone():
    p = np.array([0.8, 2.0, 0.1, 0.01, 0.0, 1.0])
    t = np.linspace(0.0, 600.0, 2000)
    y = g2(t, p)
    assert np.all(np.diff(y) <= 1e-12)
    assert y[0] == pytest.approx(1.0 + 0.8 * 3.0)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_trivial_points():
    assert saturation(0.0, 150.0, 0.37) == pytest.approx(0.0)
    assert saturation(0.37, 150.0, 0.37) == pytest.approx(75.0)


def test_saturation_monotone_and_bounded():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(200):
        i_sat, p_sat = rng.uniform(10.0, 500.0), rng.uniform(0.05, 5.0)
        power = np.sort(rng.uniform(0.0, 20.0, 60))
        rate = saturation(power, i_sat, p_sat)
        assert np.all(np.diff(rate) >= 0.0)
        assert np.all(rate < i_sat)


def test_saturation_fit_roundtrip_at_table_noise():
    spec = synthlab.preset("saturation_10k", seed=4)
    ds = synthlab.generate(spec)
    result = fit_saturation(ds.x, ds.y, sigmas=np.full(ds.x.size, spec.noise_sigma))
    assert result.converged
    i_sat, p_sat = result.params
    sigma_i, sigma_p = result.sigmas[0], result.sigmas[1]
    assert abs(i_sat - 150.0) < 3.0 * sigma_i
    assert abs(p_sat - 0.37) < 3.0 * sigma_p


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------


def test_decay_rate_extrapolation_exact_line():
    powers = np.array([0.1, 0.5, 1.0, 2.0])
    gamma1 = 0.02 * powers + 1.0 / 14.0
    tau, tau_sigma, slope, cov = decay_rate_extrapolation(np.column_stack([powers, gamma1]))
    assert tau == pytest.approx(14.0, rel=1e-10)
    assert slope == pytest.approx(0.02, rel=1e-10)


def test_decay_rate_extrapolation_power_equivariance():
    powers = np.array([0.1, 0.5, 1.0, 2.0])
    rng = np.random.Generator(np.random.Philox(3))
    gamma1 = 0.02 * powers + 1.0 / 14.0 + rng.normal(0.0, 1e-4, powers.size)
    tau1, _, slope1, _ = decay_rate_extrapolation(np.column_stack([powers, gamma1]))
    k = 5.0
    tau2, _, slope2, _ = decay_rate_extrapolation(np.column_stack([k * powers, gamma1]))
    assert tau2 == pytest.approx(tau1, rel=1e-9)
    assert slope2 == pytest.approx(slope1 / k, rel=1e-9)


def test_decay_rate_extrapolation_errors():
    with pytest.raises(InsufficientDataError):
        decay_rate_extrapolation([(0.0, 0.05)])
    with pytest.raises(NonphysicalResultError):
        decay_rate_extrapolation([(1.0, 0.05), (2.0, 0.2)])  # negative intercept


def _decay_histogram(tau=12.2, amplitude=280.0, seed=None):
    spec = synthlab.GeneratorSpec(
        model_id="exponential_decay",
        true_params=(amplitude, tau),
        grid=tuple(np.arange(0.125, 80.0, 0.25)),
        noise="none" if seed is None else "poisson",
        seed=seed or 0,
    )
    ds = synthlab.generate(spec)
    return TimeHistogram(
        bin_centers_ns=ds.x, counts=np.round(ds.y).astype(np.int64)
    )


def test_pulsed_lifetime_noiseless():
    spec = synthlab.GeneratorSpec(
        model_id="exponential_decay",
        true_params=(1e6, 12.2),
        grid=tuple(np.arange(0.125, 80.0, 0.25)),
    )
    ds = synthlab.generate(spec)
    hist = TimeHistogram(bin_centers_ns=ds.x, counts=np.round(ds.y).astype(np.int64))
    tau = pulsed_lifetime_fit(hist).params[1]
    assert tau == pytest.approx(12.2, abs=2e-3)  # limited only by count rounding


def test_pulsed_lifetime_poisson_within_paper_band():
    hits = 0
    for seed in range(20):
        ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=seed + 1))
        tau = pulsed_lifetime_fit(ds.record()).params[1]
        if abs(tau - 12.2) <= 0.3:
            hits += 1
    assert hits >= 19


def test_pulsed_lifetime_monte_carlo_coverage():
    # 3-sigma coverage of the fitted uncertainty in >= 99% of 1000 trials
    inside = 0
    for seed in range(1000):
        hist = _decay_histogram(tau=12.2, amplitude=2000.0, seed=seed + 7000)
        result = pulsed_lifetime_fit(hist)
        if abs(result.params[1] - 12.2) <= 3.0 * result.sigmas[1]:
            inside += 1
    assert inside >= 990


def test_pulsed_lifetime_errors():
    # whole histograms: a rise is refused by the decay model's start, and
    # fewer than 10 bins with counts by the input check
    rising = TimeHistogram(
        bin_centers_ns=np.arange(0.5, 30.5, 1.0),
        counts=np.arange(30) * 10 + 5,
    )
    with pytest.raises(FitQualityError):
        pulsed_lifetime_fit(rising)
    tiny = TimeHistogram(bin_centers_ns=np.arange(0.5, 8.5, 1.0), counts=[9, 8, 7, 6, 5, 4, 3, 2])
    with pytest.raises(InsufficientDataError):
        pulsed_lifetime_fit(tiny)


@pytest.mark.parametrize("name", ["lifetime_4k", "lifetime_40k", "lifetime_100k"])
def test_pulsed_lifetime_is_the_command_line_problem(name):
    # one lifetime rule: every bin, as `cavitylab fit --preset` fits it
    for seed in range(10):
        ds = synthlab.generate(synthlab.preset(name, seed=seed))
        result = pulsed_lifetime_fit(ds.record())
        cli = fitkit.fit(fitkit.FitProblem("exponential_decay", ds.x, ds.y))
        assert result.params.tobytes() == cli.params.tobytes(), seed
        assert result.covariance.tobytes() == cli.covariance.tobytes(), seed
        assert result.cost_trace == cli.cost_trace, seed
        assert result.converged, seed


# ---------------------------------------------------------------------------
# emission fractions
# ---------------------------------------------------------------------------


def _two_line_spectrum(zpl_area, psb_area):
    # narrow lines and generous windows keep the Lorentzian tail leakage
    # below the 1% assertion level
    grid = np.linspace(580.0, 760.0, 8000)
    zpl = zpl_area * _norm_lorentz(grid, 620.0, 1.0)
    psb = psb_area * _norm_lorentz(grid, 680.0, 2.0)
    return Spectrum(wavelength_nm=grid, counts=zpl + psb)


def _norm_lorentz(x, center, fwhm):
    h = fwhm / 2.0
    return (h / np.pi) / ((x - center) ** 2 + h * h)


def test_debye_waller_all_in_zpl():
    grid = np.linspace(600.0, 700.0, 1000)
    counts = np.where(np.abs(grid - 620.0) < 3.0, 100.0, 0.0)
    spectrum = Spectrum(wavelength_nm=grid, counts=counts)
    dw = debye_waller_estimate(spectrum, (610.0, 630.0), (640.0, 690.0))
    assert dw == pytest.approx(1.0)


def test_debye_waller_symmetric_split():
    spectrum = _two_line_spectrum(1000.0, 1000.0)
    dw = debye_waller_estimate(spectrum, (595.0, 645.0), (645.5, 755.0))
    assert dw == pytest.approx(0.5, abs=0.01)


def test_debye_waller_56_44_split():
    spectrum = _two_line_spectrum(560.0, 440.0)
    dw = debye_waller_estimate(spectrum, (595.0, 645.0), (645.5, 755.0))
    assert dw == pytest.approx(0.56, abs=0.01)


def test_debye_waller_background_subtraction():
    spectrum = _two_line_spectrum(560.0, 440.0)
    lifted = Spectrum(
        wavelength_nm=spectrum.wavelength_nm, counts=spectrum.counts + 7.0
    )
    dw = debye_waller_estimate(
        lifted, (595.0, 645.0), (645.5, 740.0), background_window=(745.0, 758.0)
    )
    assert dw == pytest.approx(0.56, abs=0.02)


def test_debye_waller_window_validation():
    spectrum = _two_line_spectrum(500.0, 500.0)
    with pytest.raises(ValidationError):
        debye_waller_estimate(spectrum, (595.0, 650.0), (645.0, 755.0))  # overlap
    with pytest.raises(ValidationError):
        debye_waller_estimate(spectrum, (500.0, 645.0), (646.0, 755.0))  # outside


# ---------------------------------------------------------------------------
# g2 fitting pipeline
# ---------------------------------------------------------------------------


def test_fit_g2_recovers_zero_delay_value():
    ds = synthlab.generate(synthlab.preset("g2_dip", seed=9))
    hist = ds.record()
    result, derived = fit_g2_histogram(hist)
    truth_g2 = 1.0 + ds.spec.true_params[0] * (2.0 * ds.spec.true_params[1] - 1.0)
    assert truth_g2 == pytest.approx(0.21, abs=1e-9)
    assert abs(derived["g2_at_t0"] - truth_g2) < 0.03
    assert result.params[2] > result.params[3]  # gamma1 > gamma2


def test_fit_g2_converges_on_99_of_100_seeds():
    converged = 0
    for seed in range(100):
        hist = synthlab.generate(synthlab.preset("g2_dip", seed=seed)).record()
        result, _ = fit_g2_histogram(hist)
        converged += result.converged
    assert converged >= 99


def test_fit_g2_noiseless_exact():
    spec = synthlab.preset("g2_dip", seed=0)
    ds = synthlab.generate(
        synthlab.GeneratorSpec(
            model_id="g2_three_level",
            true_params=spec.true_params,
            grid=spec.grid,
            noise="none",
        )
    )
    hist = TimeHistogram(
        bin_centers_ns=ds.x,
        counts=np.round(ds.y * 100000).astype(np.int64),
    )
    _, derived = fit_g2_histogram(hist)
    assert derived["g2_at_t0"] == pytest.approx(0.21, abs=2e-3)
