#!/usr/bin/env python3
"""Characterization walk-through: finesse, effective length, thermal drift.

Synthetic stand-ins for the three standard bench measurements: a piezo
length scan (finesse = resonance spacing over linewidth), a broadband
transmission spectrum (effective length from adjacent modes) and a
two-hour drift series against a temperature log (thermal-expansion
coefficient by linear fit).
"""

import numpy as np

from cavitylab import cqed, optics, synthlab

def main():
    # finesse from an up/down pair of piezo ramps at shot-noise levels
    traces = synthlab.generate_scan_pair(finesse=4600.0, seed=7)
    finesse, sigma = optics.finesse_from_scan(traces)
    print(f"finesse from {len(traces)} ramps: {finesse:.0f} +- {sigma:.0f} "
          "(generator truth 4600)")

    figures = optics.cavity_figures(
        optics.CavityGeometry(24.0, 24.0, 3.75),
        finesse=finesse, m_det=12, lambda_c_nm=618.5,
    )
    print("derived figures of merit:")
    for key, value in figures.items():
        print(f"  {key:26s} {value:12.4g}")
    print("  (both quality-factor routes reported; they differ whenever the\n"
          "   finesse and the linewidth were measured independently)")

    # effective length from two adjacent fundamental modes of a WLED spectrum
    wled = synthlab.generate_wled_map(n_frames=1, l_start_um=4.2, l_end_um=4.2, seed=1)
    l_eff = optics.effective_length_from_spectrum(wled.frames[0], roc_um=24.0)
    print(f"\neffective length from the broadband spectrum: {l_eff:.4f} um "
          "(truth 4.200)")

    # drift tracking and thermal-expansion fit over a simulated warm-up
    spectral_map, tlog = synthlab.generate_drift_map(
        alpha_per_k=5.1e-6, reference_length_um=3.7, seed=2
    )
    series = optics.drift_series(spectral_map, l_eff_um=3.7)
    _, delta_l = map(np.array, zip(*series))
    print(f"\ntracked drift over {len(series)} frames: "
          f"delta_L(end) = {delta_l[-1]:.4f} nm")
    alpha, alpha_sigma, _ = optics.cte_fit(
        tlog.temperature_k, delta_l, reference_length_um=3.7
    )
    print(f"thermal-expansion coefficient: ({alpha * 1e6:.3f} "
          f"+- {alpha_sigma * 1e6:.3f}) x 1e-6 /K (truth 5.100)")

    # how badly does mechanical jitter degrade the effective linewidth?
    implied = cqed.length_jitter_nm(15.0, 160.0, lambda_nm=618.5, l_eff_um=3.75)
    print(f"\nlength jitter that broadens a 15 GHz line to 160 GHz: "
          f"{implied:.2f} nm rms")


if __name__ == "__main__":
    main()
