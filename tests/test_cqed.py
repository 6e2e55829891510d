import math

import numpy as np
import pytest

import conftest
from cavitylab import cqed, fitkit, models, optics, synthlab
from cavitylab.cqed import (
    CouplingRates,
    bad_emitter_purcell,
    budget_report,
    epsilon_correction,
    length_jitter_nm,
    purcell_measured,
    purcell_theoretical,
    q_from_linewidth,
    regime_classify,
    spatial_correction,
)
from cavitylab.errors import ValidationError
from cavitylab.optics import CavityGeometry

GEOM = CavityGeometry(24.0, 24.0, 3.75)


def test_purcell_measured_values():
    assert purcell_measured(21.7, 12.2) == pytest.approx(1.78, abs=0.01)
    assert purcell_measured(10.0, 10.0) == 1.0
    # D transition: 21.7/13.1 vs the rounded quote 1.67
    assert purcell_measured(21.7, 13.1) == pytest.approx(1.66, abs=0.02)


def test_purcell_measured_inhibition_allowed():
    assert purcell_measured(10.0, 20.0) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        purcell_measured(-1.0, 10.0)


def test_purcell_theoretical_value_and_linearity():
    f = purcell_theoretical(618.5, 1.0, 56400.0, 21.0)
    assert f == pytest.approx(204.1, abs=2.0)
    assert purcell_theoretical(618.5, 1.0, 2 * 56400.0, 21.0) == pytest.approx(2 * f)
    assert purcell_theoretical(618.5, 1.0, 56400.0, 42.0) == pytest.approx(f / 2)


def test_vibration_limited_value():
    # degraded quality factor with the position penalty lands in the 10 +- 2 band
    f_vib = purcell_theoretical(618.5, 1.0, 3100.0, 21.0) * 0.846
    assert f_vib == pytest.approx(9.5, abs=0.1)
    assert 8.0 < f_vib < 12.0


def test_spatial_correction_value_and_oracle():
    s = spatial_correction(GEOM)
    assert s == pytest.approx(0.846, abs=0.01)
    assert s == pytest.approx(1.0 - 3.75 / 24.0, rel=1e-12)
    # maps the ideal 204 onto the position-corrected 173
    f = purcell_theoretical(618.5, 1.0, 56400.0, 21.0)
    assert f * s == pytest.approx(173.0, abs=4.0)
    # ABCD beam-propagation oracle at L = ROC/2
    half = CavityGeometry(24.0, 24.0, 12.0)
    w0, w_l = synthlab.abcd_waist_um(12.0, 24.0, 618.5)
    assert spatial_correction(half) == pytest.approx((w0 / w_l) ** 2, rel=1e-9)


@pytest.mark.parametrize("geom", [GEOM, CavityGeometry(20.0, 30.0, 0.5, 1.5),
                                  CavityGeometry(24.0, 24.0, 19.0, 2.4)])
def test_spatial_correction_is_the_waist_over_the_mirror_spot(geom):
    # the closed form 1 - L/ROC is the squared ratio of the waist and
    # mirror-spot expressions at any wavelength and gap index
    for lam in (533.3, 618.5, 737.0):
        ratio = optics.beam_waist_um(geom, lam) / optics.mirror_spot_um(geom, lam)
        assert spatial_correction(geom) == pytest.approx(ratio**2, rel=1e-14)


def test_q_from_linewidth_is_the_figures_route_in_a_dielectric_gap():
    # nu_c = c / lambda of the vacuum wavelength in both: a gap of index 1.5
    # changes the linewidth through the FSR, not the frequency it divides
    geom = CavityGeometry(24.0, 24.0, 3.75, 1.5)
    fig = optics.cavity_figures(geom, finesse=4600.0, m_det=12, lambda_c_nm=618.5)
    assert cqed.q_from_linewidth is optics.q_from_linewidth
    assert fig["quality_factor_linewidth"] == q_from_linewidth(618.5, fig["kappa_ghz"])
    assert fig["quality_factor_linewidth"] == pytest.approx(83670.0, rel=1e-4)
    vacuum = optics.cavity_figures(GEOM, finesse=4600.0, m_det=12, lambda_c_nm=618.5)
    assert fig["kappa_ghz"] * 1.5 == pytest.approx(vacuum["kappa_ghz"], rel=1e-15)
    assert fig["quality_factor_linewidth"] == pytest.approx(
        1.5 * vacuum["quality_factor_linewidth"], rel=1e-15)


def test_spatial_correction_short_cavity_limit():
    tight = CavityGeometry(24.0, 24.0, 0.005)
    assert spatial_correction(tight) == pytest.approx(1.0, abs=1e-3)


def test_detuned_purcell_zero_detuning_and_half_width():
    # (peak, q, center, offset): a peak of f_cav * alignment^2 = 10 * 0.5
    params = [10.0 * 0.5, 3000.0, 620.0, 0.3]
    half_point = 620.0 * (1.0 + 1.0 / (2.0 * 3000.0))
    peak, value = models.evaluate("detuned_purcell", params, np.array([620.0, half_point]))
    assert peak == pytest.approx(10.0 * 0.5 + 0.3)
    assert value == pytest.approx(10.0 * 0.5 / 2.0 + 0.3, rel=1e-9)


def test_detuned_purcell_symmetric_in_reduced_detuning():
    rng = np.random.Generator(np.random.Philox(3))
    q = 2500.0
    x = rng.uniform(0.0, 5.0, 100)
    up, down = (models.evaluate("detuned_purcell", [12.0, q, 618.5, 0.0],
                                618.5 * (1.0 + sign * x / (2.0 * q))) for sign in (1, -1))
    np.testing.assert_allclose(up, down, rtol=1e-12)


def test_detuning_curve_fit_recovers_effective_linewidth():
    # lifetime-versus-detuning roundtrip: fitted Q maps back to kappa ~ 160 GHz
    q_true = q_from_linewidth(618.5, 160.0)
    lam = np.linspace(616.0, 621.0, 41)
    truth = [9.1, q_true, 618.5, 0.4]
    rng = np.random.Generator(np.random.Philox(21))
    y = models.evaluate("detuned_purcell", truth, lam) + rng.normal(0.0, 0.25, lam.size)
    result = fitkit.fit(fitkit.FitProblem(model_id="detuned_purcell", x=lam, y=y))
    kappa_fit = optics.C_NM_GHZ / 618.5 / result.params[1]
    assert kappa_fit == pytest.approx(160.0, abs=30.0)


def test_epsilon_correction_values():
    assert epsilon_correction(0.8, 0.56, 0.8) == pytest.approx(0.358, abs=0.002)
    assert epsilon_correction(1.0, 1.0, 1.0) == 1.0
    eps_d = epsilon_correction(0.8, 0.56)
    assert eps_d == pytest.approx(0.448, rel=1e-12)
    assert 1.67 / eps_d == pytest.approx(3.73, abs=0.02)
    with pytest.raises(ValidationError):
        epsilon_correction(0.8, 1.2, 0.8)


def test_q_from_linewidth_reproduces_quoted_bands():
    assert q_from_linewidth(618.5, 160.0) == pytest.approx(3100.0, abs=600.0)
    assert q_from_linewidth(620.22, 120.0) == pytest.approx(3900.0, abs=700.0)


def test_regime_classification():
    assert regime_classify(CouplingRates(0.5, 15.0, 0.01, 210.0)) == "bad_emitter"
    assert regime_classify(CouplingRates(1.0, 15.0, 0.01, 0.0)) == "bad_cavity"
    assert regime_classify(CouplingRates(0.1, 15.0, 15.0, 0.0)) == "boundary"
    assert regime_classify(CouplingRates(100.0, 15.0, 0.01, 2.0)) == "strong"


def test_regime_scale_invariance():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(100):
        g, kappa, gamma0, gamma_star = rng.uniform(0.01, 100.0, 4)
        base = regime_classify(CouplingRates(g, kappa, gamma0, gamma_star))
        k = rng.uniform(0.01, 1000.0)
        scaled = regime_classify(
            CouplingRates(k * g, k * kappa, k * gamma0, k * gamma_star)
        )
        assert base == scaled


def test_bad_emitter_purcell():
    rates = CouplingRates(1.0, 15.0, 0.01, 210.0)
    value = bad_emitter_purcell(rates)
    assert value == pytest.approx(0.019, abs=0.001)
    assert value < 1.0
    doubled = bad_emitter_purcell(CouplingRates(2.0, 15.0, 0.01, 210.0))
    assert doubled == pytest.approx(4.0 * value, rel=1e-12)
    huge_dephasing = bad_emitter_purcell(CouplingRates(1.0, 15.0, 0.01, 1e9))
    assert huge_dephasing < 1e-6
    with pytest.raises(ValidationError):
        bad_emitter_purcell(CouplingRates(1.0, 15.0, 0.01, 0.0))


def test_bad_emitter_bound_property():
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(200):
        g, kappa, gamma0 = rng.uniform(0.01, 50.0, 3)
        bound = 4.0 * g**2 * kappa / (kappa + gamma0)
        gamma_star = bound * rng.uniform(1.001, 100.0)
        value = bad_emitter_purcell(CouplingRates(g, kappa, gamma0, gamma_star))
        assert value < 1.0


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


def _paper_steps(**overrides):
    kwargs = dict(
        tau0_ns=21.7,
        tau_p_ns=12.2,
        quantum_efficiency=0.8,
        debye_waller=0.56,
        branching=0.8,
        geom=GEOM,
        lambda_c_nm=618.5,
        q_ideal=56400.0,
        kappa_exp_ghz=160.0,
    )
    kwargs.update(overrides)
    return budget_report(**kwargs)


def _paper_budget(**overrides):
    return conftest.budget_values(_paper_steps(**overrides))


def test_budget_chain_values():
    b = _paper_budget()
    assert b["f_cav_ideal"] == pytest.approx(200.7, abs=1.0)
    assert b["spatial_factor"] == pytest.approx(0.84375, rel=1e-9)
    assert b["f_cav_corrected"] == pytest.approx(b["f_cav_ideal"] * b["spatial_factor"])
    assert b["f_measured"] == pytest.approx(1.7787, abs=1e-3)
    assert b["epsilon"] == pytest.approx(0.3584, rel=1e-9)
    assert b["f_zpl"] == pytest.approx(4.963, abs=0.01)
    assert 8.0 < b["f_vib"] < 12.0
    assert b["alignment"] == pytest.approx(b["f_zpl"] / b["f_vib"], rel=1e-12)
    assert b["alignment_dipole"] == pytest.approx(math.sqrt(b["alignment"]), rel=1e-12)
    assert not b["inhibited"]


def test_budget_d_transition_chain():
    b = _paper_budget(
        tau_p_ns=13.1, branching=1.0, lambda_c_nm=620.22, kappa_exp_ghz=120.0
    )
    assert b["epsilon"] == pytest.approx(0.448, rel=1e-9)
    assert b["f_zpl"] == pytest.approx(3.70, abs=0.03)
    assert b["f_vib"] == pytest.approx(12.2, abs=0.5)  # the quoted ceiling of 12
    assert b["alignment"] == pytest.approx(0.31, abs=0.02)  # quoted 31%


def test_budget_identity_inputs():
    # tiny length makes the spatial factor ~1; Q chosen so the ideal
    # enhancement is unity, tau0 = tau_p and epsilon = 1 do the rest
    geom = CavityGeometry(24.0, 24.0, 0.01)
    w0 = optics.beam_waist_um(geom, 618.5)
    volume = math.pi * w0**2 * geom.l_eff_um / 4.0 / (0.6185**3)
    q_unit = 4.0 * math.pi**2 * volume / 3.0
    b = conftest.budget_values(budget_report(
        tau0_ns=10.0,
        tau_p_ns=10.0,
        quantum_efficiency=1.0,
        debye_waller=1.0,
        geom=geom,
        lambda_c_nm=618.5,
        q_ideal=q_unit,
        q_exp=q_unit,
    ))
    for name in (
        "f_cav_ideal", "spatial_factor", "f_cav_corrected", "f_vib",
        "f_measured", "epsilon", "f_zpl", "alignment",
    ):
        assert b[name] == pytest.approx(1.0, abs=2e-3)


def test_budget_invariants_on_random_inputs():
    rng = np.random.Generator(np.random.Philox(37))
    for _ in range(100):
        roc = rng.uniform(15.0, 40.0)
        geom = CavityGeometry(roc, roc, rng.uniform(1.0, 0.6 * roc))
        b = conftest.budget_values(budget_report(
            tau0_ns=rng.uniform(5.0, 40.0),
            tau_p_ns=rng.uniform(5.0, 40.0),
            quantum_efficiency=rng.uniform(0.2, 1.0),
            debye_waller=rng.uniform(0.2, 1.0),
            branching=rng.uniform(0.2, 1.0),
            geom=geom,
            lambda_c_nm=rng.uniform(550.0, 700.0),
            q_ideal=rng.uniform(1e3, 1e5),
            kappa_exp_ghz=rng.uniform(20.0, 500.0),
        ))
        # each step is that very operation, so the identities hold exactly
        assert b["f_cav_corrected"] == b["f_cav_ideal"] * b["spatial_factor"]
        assert b["f_zpl"] == b["f_measured"] / b["epsilon"]
        assert b["alignment"] == b["f_zpl"] / b["f_vib"]
        assert b["inhibited"] == (b["f_measured"] < 1.0)


def test_budget_requires_q_sources():
    with pytest.raises(ValidationError):
        budget_report(
            tau0_ns=21.7, tau_p_ns=12.2, quantum_efficiency=0.8, debye_waller=0.56,
            geom=GEOM, lambda_c_nm=618.5, q_ideal=56400.0,
        )
    with pytest.raises(ValidationError):
        budget_report(
            tau0_ns=21.7, tau_p_ns=12.2, quantum_efficiency=0.8, debye_waller=0.56,
            geom=GEOM, lambda_c_nm=618.5, kappa_exp_ghz=160.0,
        )


@pytest.mark.parametrize(
    "extra, names",
    [
        (dict(finesse=4700.0), ("q_ideal", "finesse")),
        (dict(m_det=12), ("q_ideal", "m_det")),
        (dict(q_exp=3000.0), ("q_exp", "kappa_exp_ghz")),
    ],
)
def test_budget_refuses_two_sources_of_one_quality_factor(extra, names):
    # the paper inputs already give q_ideal and kappa_exp_ghz
    with pytest.raises(ValidationError) as err:
        _paper_steps(**extra)
    assert all(name in str(err.value) for name in names)


def test_budget_report_steps_schema():
    steps = _paper_steps()
    assert [s["name"] for s in steps] == [
        "f_cav_ideal", "spatial_factor", "f_cav_corrected", "f_vib", "f_measured",
        "epsilon", "f_zpl", "alignment", "alignment_dipole", "f_fp",
    ]
    for step in steps:
        assert set(step) == {"name", "value", "formula_ref", "inputs"}


# ---------------------------------------------------------------------------
# vibration broadening
# ---------------------------------------------------------------------------


def _exact_voigt_fwhm(sigma_ghz, gamma_ghz):
    from scipy.optimize import brentq
    from scipy.special import voigt_profile

    half = voigt_profile(0.0, sigma_ghz, gamma_ghz) / 2.0
    hi = 10.0 * (sigma_ghz + gamma_ghz)
    return 2.0 * brentq(
        lambda nu: voigt_profile(nu, sigma_ghz, gamma_ghz) - half, 0.0, hi, xtol=1e-12 * hi
    )


@pytest.mark.parametrize("kappa_ghz", [15.0, 50.0])
def test_length_jitter_round_trips_through_exact_voigt_width(kappa_ghz):
    nu_ghz = optics.C_NM_GHZ / 618.5
    for ratio in np.geomspace(1.03, 70.0, 25):
        jitter_nm = length_jitter_nm(kappa_ghz, ratio * kappa_ghz, 618.5, 3.75)
        sigma_ghz = nu_ghz * jitter_nm / 3750.0
        width = _exact_voigt_fwhm(sigma_ghz, kappa_ghz / 2.0)
        assert width == pytest.approx(ratio * kappa_ghz, rel=3e-4)


def test_vibration_implied_jitter_documents_regime():
    # the jitter amplitude that turns a 15 GHz line into the observed
    # 160 GHz effective linewidth: about half a nanometer rms; the
    # Monte-Carlo line average broadens back to 160 GHz
    jitter = length_jitter_nm(15.0, 160.0, 618.5, 3.75)
    assert 0.2 < jitter < 1.5
    back = synthlab.vibration_broadening_sim(15.0, jitter, n_samples=100_000, seed=3)
    assert back == pytest.approx(160.0, abs=2.0)


@pytest.mark.parametrize(
    "kappa, kappa_eff",
    [(15.0, 15.0), (15.0, 10.0), (0.0, 160.0), (-15.0, 160.0), (15.0, math.nan),
     (15.0, math.inf)],
)
def test_length_jitter_refuses_no_broadening_and_bad_linewidths(kappa, kappa_eff):
    with pytest.raises(ValidationError):
        length_jitter_nm(kappa, kappa_eff, 618.5, 3.75)
