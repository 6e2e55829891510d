#!/usr/bin/env python3
"""Design walk-through: cavity mode dispersion and double-resonance search.

Reproduces the desk-scale design loop for a plano-concave microcavity that
must resonate simultaneously at a green excitation wavelength and at the
emitter's zero-phonon line: sweep the effective length, inspect the
fundamental-mode dispersion, and rank candidate mode-number pairs by how
closely their resonance lengths coincide. The map CSV goes to
$CAVITYLAB_OUTDIR, or to a temporary directory when that is not set.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from cavitylab import optics

ROC_UM = 24.0
LAMBDA_EXC_NM = 533.3
LAMBDA_DET_NM = 618.5


def main():
    geom = optics.CavityGeometry(roc_x_um=25.0, roc_y_um=22.0, l_eff_um=3.75)
    print("elliptical mirror reduced to scalar ROC:",
          f"{geom.roc_um:.2f} um (geometric mean)")
    print(f"simulation below uses ROC = {ROC_UM} um\n")

    print("Gouy term across the stability range (fraction of pi):")
    for l_um in (0.5, 2.0, 3.75, 8.0, 12.0, 20.0):
        print(f"  L = {l_um:5.2f} um -> {optics.gouy_fraction(l_um, ROC_UM):.4f}")

    print("\nfundamental resonances at L = 3.7 um:")
    for _, wavelength, m, _ in optics.dispersion_map(ROC_UM, [3.7], range(11, 16)):
        print(f"  m = {int(m):2d}: {wavelength:7.2f} nm  "
              f"{optics.C_NM_THZ / wavelength:7.2f} THz")

    out = Path(os.environ.get("CAVITYLAB_OUTDIR") or tempfile.mkdtemp(prefix="cavitylab_demo_"))
    out.mkdir(parents=True, exist_ok=True)
    map_path = out / "dispersion_map.csv"
    print("\ndispersion map over the length sweep 5.0 -> 3.7 um "
          f"(written to {map_path}):")
    l_grid = np.linspace(5.0, 3.7, 261)
    rows = optics.dispersion_map(ROC_UM, l_grid, range(11, 18))
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write("l_eff_um,wavelength_nm,mode_m,transverse_order\n")
        for l_um, wavelength, m, q in rows:
            fh.write(f"{l_um:.6g},{wavelength:.6g},{int(m)},{int(q)}\n")
    print(f"  {rows.shape[0]} resonance points")

    print("\ndouble-resonance candidates "
          f"({LAMBDA_EXC_NM} nm excitation, {LAMBDA_DET_NM} nm detection, "
          "L in [2, 6] um, tolerance 25 nm):")
    candidates = optics.double_resonance_search(
        LAMBDA_EXC_NM, LAMBDA_DET_NM, ROC_UM, (2.0, 6.0), 0.025
    )
    print(f"  {'m_exc':>5} {'m_det':>5} {'L (um)':>8} {'mismatch (nm)':>14}")
    for c in candidates:
        print(f"  {c.m_exc:5d} {c.m_det:5d} {c.l_eff_um:8.4f} "
              f"{c.mismatch_um * 1000.0:14.2f}")
    best_short = min(
        (c for c in candidates if c.l_eff_um < 4.0), key=lambda c: c.mismatch_um
    )
    print(f"\nshortest-cavity candidate: modes ({best_short.m_exc}, "
          f"{best_short.m_det}) at L = {best_short.l_eff_um:.3f} um -> the "
          "operating point for simultaneous excitation and detection")


if __name__ == "__main__":
    main()
