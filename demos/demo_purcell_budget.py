#!/usr/bin/env python3
"""Enhancement walk-through: the full Purcell budget and regime map.

Builds the audited chain from the ideal cavity enhancement down to the
measured lifetime ratio, prints every step with its formula, classifies
the coupling regime at two temperatures, and writes the budget as a
byte-reproducible JSON report in $CAVITYLAB_OUTDIR, or in a temporary
directory when that is not set.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from cavitylab import cqed, dataio, models
from cavitylab.optics import CavityGeometry


def main():
    geom = CavityGeometry(roc_x_um=24.0, roc_y_um=24.0, l_eff_um=3.75)

    steps = cqed.budget_report(
        tau0_ns=21.7,          # free-space lifetime
        tau_p_ns=12.2,         # cavity-modified lifetime at base temperature
        quantum_efficiency=0.8,
        debye_waller=0.56,
        branching=0.8,         # fraction feeding the C line
        geom=geom,
        lambda_c_nm=618.5,
        q_ideal=56400.0,       # m_det * finesse route
        kappa_exp_ghz=160.0,   # vibration-broadened effective linewidth
    )
    budget = {step["name"]: step["value"] for step in steps}
    print("Purcell budget (C line):")
    for step in steps:
        print(f"  {step['name']:18s} {step['value']:10.4g}   {step['formula_ref']}")
    print(f"\n  the {budget['f_cav_ideal']:.0f}x ideal enhancement degrades to "
          f"{budget['f_vib']:.1f}x under vibrations; the measured "
          f"{budget['f_measured']:.2f}x becomes {budget['f_zpl']:.2f}x once "
          "restricted to the zero-phonon channel, leaving a dipole "
          f"alignment ratio of {budget['alignment']:.2f}")

    out = Path(os.environ.get("CAVITYLAB_OUTDIR") or tempfile.mkdtemp(prefix="cavitylab_demo_"))
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "purcell_budget.json"
    dataio.export_report(dataio.make_report(steps=steps), report_path)
    print(f"  full chain written to {report_path}\n")

    print("coupling regimes as the emitter line narrows with temperature:")
    for label, gamma_star in [("100 K", 210.0), ("4 K (resolution limited)", 10.0)]:
        rates = cqed.CouplingRates(
            g_ghz=1.0, kappa_ghz=15.0, gamma0_ghz=0.012, gamma_star_ghz=gamma_star
        )
        regime = cqed.regime_classify(rates)
        line = f"  {label:26s} gamma = {rates.gamma_total_ghz:6.1f} GHz -> {regime}"
        if regime == "bad_emitter":
            line += (f" (expected enhancement "
                     f"{cqed.bad_emitter_purcell(rates):.3f} < 1: the cavity "
                     "filters spectrally instead of shortening the lifetime)")
        print(line)

    print("\ndetuning response at the degraded quality factor:")
    q_exp = cqed.q_from_linewidth(618.5, 160.0)
    lams = np.array([617.5, 618.2, 618.5, 618.8, 619.5])
    # (peak, q, center, offset) of the Lorentzian in the emitter wavelength
    peak = budget["f_vib"] * budget["alignment"]
    for lam, f in zip(lams, models.evaluate("detuned_purcell", [peak, q_exp, 618.5, 0.0], lams)):
        print(f"  lambda = {lam:6.1f} nm -> enhancement {f:5.2f}")


if __name__ == "__main__":
    main()
