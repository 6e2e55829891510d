"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3's C-line alignment is checked against a closed form of the
budget chain computed in the test from the paper's inputs, not against the
paper's quoted 0.49. That quote is the ratio of two rounded figures, F_zpl
"4.9" over a ceiling of "10"; the full-precision chain gives
4.963 / 9.095 = 0.5457. The ceiling keeps the emitter-position penalty
(1 - L/R), the convention that also reproduces the D line's quoted ceiling
of 12 and alignment of 31%. The printed line shows both figures.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from cavitylab import cli, cqed, dataio, fitkit, models, optics, photophysics, synthlab
from cavitylab.dataio import ScanTrace, Spectrum, TemperatureLog, TimeHistogram
from cavitylab.optics import CavityGeometry

GEOM = CavityGeometry(24.0, 24.0, 3.75)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_purcell_chain():
    start = time.perf_counter()
    n_calls = 1000
    for _ in range(n_calls):
        f_cav = cqed.purcell_theoretical(618.5, 1.0, 56400.0, 21.0)
        corrected = f_cav * cqed.spatial_correction(GEOM)
    per_call_ms = (time.perf_counter() - start) / n_calls * 1000.0
    ok = (
        abs(f_cav - 205.0) <= 2.0
        and abs(corrected - 173.0) <= 4.0
        and per_call_ms < 1.0
    )
    assert report(
        1, ok,
        f"f_cav={f_cav:.2f} (205+-2), corrected={corrected:.2f} (173+-4), "
        f"{per_call_ms:.4f} ms/call (<1 ms)",
    )


def test_criterion_2_measured_purcell_arithmetic():
    f_p = cqed.purcell_measured(21.7, 12.2)
    eps = cqed.epsilon_correction(0.8, 0.56, 0.8)
    f_zpl = f_p / eps
    f_p_d = cqed.purcell_measured(21.7, 13.1)
    f_zpl_d = f_p_d / cqed.epsilon_correction(0.8, 0.56)
    ok = (
        abs(f_p - 1.78) <= 0.01
        and abs(f_zpl - 4.9) <= 0.1
        and abs(f_zpl_d - 3.72) <= 0.05
    )
    assert report(
        2, ok,
        f"F_p={f_p:.4f} (1.78+-0.01), F_zpl={f_zpl:.3f} (4.9+-0.1), "
        f"D chain={f_zpl_d:.3f} (3.72+-0.05)",
    )


def _c_budget():
    return conftest.budget_values(cqed.budget_report(
        tau0_ns=21.7, tau_p_ns=12.2, quantum_efficiency=0.8, debye_waller=0.56,
        branching=0.8, geom=GEOM, lambda_c_nm=618.5, q_ideal=56400.0,
        kappa_exp_ghz=160.0,
    ))


def _d_budget():
    return conftest.budget_values(cqed.budget_report(
        tau0_ns=21.7, tau_p_ns=13.1, quantum_efficiency=0.8, debye_waller=0.56,
        branching=1.0, geom=GEOM, lambda_c_nm=620.22, q_ideal=56400.0,
        kappa_exp_ghz=120.0,
    ))


def test_criterion_3_vibration_degraded_chain():
    b = _c_budget()
    b_d = _d_budget()
    ok = (
        abs(b["q_vib"] - 3100.0) <= 600.0
        and abs(b["f_vib"] - 10.0) <= 2.0
        and abs(b_d["q_vib"] - 3900.0) <= 700.0
        and abs(b_d["f_vib"] - 12.0) <= 2.0
    )
    assert report(
        3, ok,
        f"Q_exp={b['q_vib']:.0f} (3100+-600), F_vib={b['f_vib']:.2f} (10+-2), "
        f"D: Q={b_d['q_vib']:.0f} (3900+-700), F_vib={b_d['f_vib']:.2f} (12+-2)",
    )


def _closed_form_alignment(tau0_ns, tau_p_ns, quantum_efficiency, debye_waller,
                           branching, roc_um, l_um, lambda_nm, kappa_ghz):
    """(F_zpl, F_vib, alignment) for a plano-concave cavity with n = 1.

    w0^2 = (lambda/pi) sqrt(L (R - L)), V = pi w0^2 L / 4 in units of
    lambda^3, Q = nu / kappa, spatial factor 1 - L/R, and
    F_vib = 3/(4 pi^2) Q/V (1 - L/R).
    """
    lam_um = lambda_nm / 1000.0
    w0_sq = lam_um / math.pi * math.sqrt(l_um * (roc_um - l_um))
    volume = math.pi * w0_sq * l_um / 4.0 / lam_um**3
    q_vib = 2.99792458e8 / lambda_nm / kappa_ghz  # c in nm GHz
    f_vib = 3.0 / (4.0 * math.pi**2) * q_vib / volume * (1.0 - l_um / roc_um)
    f_zpl = tau0_ns / tau_p_ns / (quantum_efficiency * debye_waller * branching)
    return f_zpl, f_vib, f_zpl / f_vib


def test_criterion_3_alignment_band():
    """C-line alignment F_zpl / F_vib against the closed form.

    F_zpl = (21.7 / 12.2) / (0.8 * 0.56 * 0.8) = 4.963; Q = 484709 GHz /
    160 GHz = 3029, V = 21.36 lambda^3, spatial factor 1 - 3.75/24 = 0.844,
    so F_vib = 3/(4 pi^2) * 3029 / 21.36 * 0.844 = 9.095 and the alignment
    is 4.963 / 9.095 = 0.5457. The paper's 0.49 is 4.9 / 10, the same ratio
    of rounded figures; it is printed for comparison, not asserted.
    """
    b = _c_budget()
    f_zpl, f_vib, expected = _closed_form_alignment(
        21.7, 12.2, 0.8, 0.56, 0.8, roc_um=24.0, l_um=3.75, lambda_nm=618.5,
        kappa_ghz=160.0,
    )
    b_d = _d_budget()
    ok = (
        math.isclose(b["f_zpl"], f_zpl, rel_tol=1e-9)
        and math.isclose(b["f_vib"], f_vib, rel_tol=1e-9)
        and math.isclose(b["alignment"], expected, rel_tol=1e-9)
    )
    assert report(
        3, ok,
        f"alignment={b['alignment']:.4f} (closed form {expected:.4f}, rel 1e-9) = "
        f"F_zpl/F_vib = {b['f_zpl']:.3f}/{b['f_vib']:.3f}; paper quotes 0.49 = 4.9/10 "
        f"from rounded figures; without the position penalty the C line would "
        f"give {b['f_zpl'] / (b['f_vib'] / b['spatial_factor']):.4f} but the D-line "
        f"ceiling {b_d['f_vib'] / b_d['spatial_factor']:.2f} (vs {b_d['f_vib']:.2f}, "
        f"12+-2) and alignment {b_d['f_zpl'] * b_d['spatial_factor'] / b_d['f_vib']:.3f} "
        f"(vs {b_d['alignment']:.3f}, 0.31+-0.02) would miss",
    )


def test_criterion_4_mode_geometry():
    fig = optics.cavity_figures(GEOM, finesse=4700.0, m_det=12, lambda_c_nm=618.5)
    ok = (
        abs(fig["beam_waist_um"] - 1.31) <= 0.02
        and abs(fig["mode_volume_lambda3"] - 21.0) <= 1.1
    )
    assert report(
        4, ok,
        f"w0={fig['beam_waist_um']:.4f} um (1.31+-0.02), "
        f"V={fig['mode_volume_lambda3']:.3f} lambda^3 (21+-1.1)",
    )


def test_criterion_5_double_resonance_cli(tmp_path):
    start = time.perf_counter()
    code = cli.main(
        [
            "dispersion", "--lambda-exc", "533.3", "--lambda-det", "618.5",
            "--roc", "24", "--l-min", "3.6", "--l-max", "3.9",
            "--tol-nm", "25", "--out", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    data = json.loads((tmp_path / "dispersion_report.json").read_text())
    candidates = data["steps"][0]["outputs"]["candidates"]
    top = candidates[0] if candidates else {}
    ok = (
        code == 0
        and top.get("m_exc") == 14
        and top.get("m_det") == 12
        and 3.6 <= top.get("l_eff_um", 0.0) <= 3.9
        and elapsed < 1.0
    )
    assert report(
        5, ok,
        f"top candidate ({top.get('m_exc')}, {top.get('m_det')}) at "
        f"{top.get('l_eff_um', float('nan')):.4f} um, {elapsed * 1000:.0f} ms (<1 s)",
    )


def test_criterion_6_fit_roundtrips_at_paper_statistics():
    start = time.perf_counter()
    lifetime_specs = [
        ("lifetime_4k", 12.2, 0.3),
        ("lifetime_40k", 15.8, 0.3),
        ("lifetime_100k", 21.0, 1.0),
    ]
    lifetime_hits = {}
    for name, tau, band in lifetime_specs:
        hits = 0
        for seed in range(100):
            ds = synthlab.generate(synthlab.preset(name, seed=seed))
            est = photophysics.pulsed_lifetime_fit(ds.record()).params[1]
            hits += abs(est - tau) <= band
        lifetime_hits[name] = hits

    saturation_specs = [
        ("saturation_10k", 150.0, 0.37, 10.0, 0.06),
        ("saturation_40k", 180.0, 1.1, 20.0, 0.2),
        ("saturation_100k", 162.0, 2.2, 9.0, 0.2),
    ]
    saturation_hits = {}
    for name, i_sat, p_sat, sig_i, sig_p in saturation_specs:
        hits = 0
        for seed in range(100):
            ds = synthlab.generate(synthlab.preset(name, seed=seed))
            result = photophysics.fit_saturation(
                ds.x, ds.y, sigmas=np.full(ds.x.size, ds.spec.noise_sigma)
            )
            hits += (
                abs(result.params[0] - i_sat) <= 2.0 * sig_i
                and abs(result.params[1] - p_sat) <= 2.0 * sig_p
            )
        saturation_hits[name] = hits

    g2_hits = 0
    for seed in range(100):
        ds = synthlab.generate(synthlab.preset("g2_dip", seed=seed))
        _, derived = photophysics.fit_g2_histogram(ds.record())
        g2_hits += abs(derived["g2_at_t0"] - 0.21) <= 0.03

    elapsed = time.perf_counter() - start
    ok = (
        all(h >= 95 for h in lifetime_hits.values())
        and all(h >= 95 for h in saturation_hits.values())
        and g2_hits >= 95
        and elapsed < 60.0
    )
    assert report(
        6, ok,
        f"lifetimes {lifetime_hits}, saturation {saturation_hits}, "
        f"g2 {g2_hits}/100 within +-0.03, {elapsed:.1f} s (<60 s)",
    )


def test_criterion_7_finesse_pipeline():
    noiseless = synthlab.generate_scan_pair(
        finesse=1.0 / 2.17e-4, fsr_volts=1.0, noise="none"
    )
    f0, _ = optics.finesse_from_scan(noiseless)
    truth = 1.0 / 2.17e-4
    noiseless_ok = abs(f0 - truth) / truth < 0.001

    hits = 0
    for seed in range(100):
        traces = synthlab.generate_scan_pair(finesse=4600.0, seed=seed)
        f, _ = optics.finesse_from_scan(traces)
        hits += abs(f - 4600.0) <= 500.0
    ok = noiseless_ok and hits >= 95
    assert report(
        7, ok,
        f"noiseless {f0:.1f} vs {truth:.1f} "
        f"({abs(f0 - truth) / truth * 100:.4f}% error), "
        f"noisy band hits {hits}/100",
    )


def test_criterion_8_cte_pipeline():
    spectral_map, tlog = synthlab.generate_drift_map(
        alpha_per_k=5.1e-6, reference_length_um=3.7, seed=17
    )
    series = optics.drift_series(spectral_map, l_eff_um=3.7)
    _, delta_l = map(np.array, zip(*series))
    alpha, sigma, _ = optics.cte_fit(
        tlog.temperature_k, delta_l, reference_length_um=3.7
    )
    ok = abs(alpha - 5.1e-6) <= 0.1e-6
    assert report(
        8, ok,
        f"alpha={alpha:.4e} /K vs 5.1e-06 (+-1e-07), sigma={sigma:.2e}",
    )


def test_criterion_9_property_suites(tmp_path):
    rng = np.random.Generator(np.random.Philox(2024))

    # 9a: analytic Jacobians vs finite differences, every model
    worst = 0.0
    for model_id in sorted(models.MODELS):
        x = conftest.model_grid(model_id)
        for _ in range(10):
            params = conftest.random_params(model_id, rng)
            mismatch = conftest.jacobian_mismatch(
                models.jacobian_matrix(model_id, params, x),
                conftest.fd_jacobian(model_id, params, x),
            )
            worst = max(worst, mismatch)
    jac_ok = worst < 1e-5

    # 9b: dispersion oracle vs analytic resonances on a 50x50 grid
    l_grid = np.linspace(3.6, 3.9, 50)
    lam_grid = np.linspace(560.0, 680.0, 50)
    cells = synthlab.oracle_dispersion(24.0, l_grid, lam_grid)
    misses = 0
    checked = 0
    for i, l_um in enumerate(l_grid):
        g = optics.gouy_fraction(l_um, 24.0)
        for m in range(9, 16):
            lam = 2000.0 * l_um / (m + g)
            if not lam_grid[0] <= lam <= lam_grid[-1]:
                continue
            checked += 1
            j = int(np.argmin(np.abs(lam_grid - lam)))
            hood = {
                (i + di, j + dj, m) for di in (-1, 0, 1) for dj in (-1, 0, 1)
            }
            if not hood & cells:
                misses += 1
    oracle_ok = checked > 100 and misses == 0

    # 9c: g2 symmetry and saturation monotonicity on 1e4 random draws
    sym_ok = True
    for _ in range(10_000):
        params = conftest.random_params("g2_three_level", rng)
        delta = rng.uniform(0.0, 400.0)
        pair = models.evaluate(
            "g2_three_level", params, np.array([params[4] - delta, params[4] + delta])
        )
        if abs(pair[0] - pair[1]) > 1e-12 * max(abs(pair[0]), 1.0):
            sym_ok = False
            break
    mono_ok = True
    powers = np.linspace(0.0, 10.0, 25)
    for _ in range(10_000):
        params = conftest.random_params("saturation", rng)
        rates = models.evaluate("saturation", params, powers)
        if np.any(np.diff(rates) < 0.0) or np.any(rates > params[0]):
            mono_ok = False
            break

    # 9d: load/save roundtrip identity on 1e3 random records
    roundtrip_ok = True
    path = tmp_path / "record.csv"
    for k in range(1000):
        kind = k % 4
        n = int(rng.integers(5, 30))
        if kind == 0:
            record = Spectrum(
                wavelength_nm=np.sort(rng.uniform(500.0, 700.0, n)),
                counts=rng.uniform(0.0, 1e6, n),
            )
            back = dataio.save_csv(record, path) and dataio.load_csv(path, "spectrum")
            same = np.array_equal(back.wavelength_nm, record.wavelength_nm) and np.array_equal(
                back.counts, record.counts
            )
        elif kind == 1:
            axis = np.sort(rng.uniform(0.0, 3.0, n))
            record = ScanTrace(axis=axis, signal=rng.uniform(0.0, 1e5, n))
            dataio.save_csv(record, path)
            back = dataio.load_csv(path, "scan")[0]
            same = np.array_equal(back.axis, record.axis) and np.array_equal(
                back.signal, record.signal
            )
        elif kind == 2:
            width = rng.uniform(0.1, 2.0)
            record = TimeHistogram(
                bin_centers_ns=width / 2 + width * np.arange(n),
                counts=rng.integers(0, 10_000, n),
            )
            dataio.save_csv(record, path)
            back = dataio.load_csv(path, "histogram")
            same = np.allclose(
                back.bin_centers_ns, record.bin_centers_ns, rtol=0, atol=0
            ) and np.array_equal(back.counts, record.counts)
        else:
            record = TemperatureLog(
                time_s=np.sort(rng.uniform(0.0, 7200.0, n)),
                temperature_k=rng.uniform(4.0, 300.0, n),
            )
            dataio.save_csv(record, path)
            back = dataio.load_csv(path, "temperature_log")
            same = np.array_equal(back.time_s, record.time_s) and np.array_equal(
                back.temperature_k, record.temperature_k
            )
        if not same:
            roundtrip_ok = False
            break

    ok = jac_ok and oracle_ok and sym_ok and mono_ok and roundtrip_ok
    assert report(
        9, ok,
        f"jacobians worst {worst:.2e} (<1e-5), oracle misses {misses}/{checked}, "
        f"g2 symmetry {'ok' if sym_ok else 'violated'}, "
        f"saturation monotonic {'ok' if mono_ok else 'violated'}, "
        f"roundtrip {'ok' if roundtrip_ok else 'violated'}",
    )
