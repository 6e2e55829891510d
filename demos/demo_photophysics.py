#!/usr/bin/env python3
"""Emitter walk-through: photon statistics, saturation and lifetimes.

Each block generates a synthetic dataset at realistic counting statistics
from a named preset, runs the corresponding fitting pipeline and compares
the recovered values with the generator truth.
"""

import numpy as np

from cavitylab import photophysics, synthlab

def main():
    # second-order correlation: dip depth certifies a single emitter
    ds = synthlab.generate(synthlab.preset("g2_dip", seed=1))
    g2, derived = photophysics.fit_g2_histogram(ds.record())
    gamma1, gamma2 = g2.params[2:4]
    print("three-level g2 fit:")
    print(f"  g2(t0)   = {derived['g2_at_t0']:.3f} (truth 0.210; < 0.5 means single photons)")
    print(f"  1/gamma1 = {1.0 / gamma1:.1f} ns recovery")
    print(f"  1/gamma2 = {1.0 / gamma2:.0f} ns shelving")

    # saturation curves at three temperatures
    print("\nsaturation fits (I = i_sat * P / (p_sat + P)):")
    for name, i_true, p_true in [
        ("saturation_10k", 150.0, 0.37),
        ("saturation_40k", 180.0, 1.1),
        ("saturation_100k", 162.0, 2.2),
    ]:
        sat = synthlab.generate(synthlab.preset(name, seed=2))
        i_sat, p_sat = photophysics.fit_saturation(
            sat.x, sat.y, sigmas=np.full(sat.x.size, sat.spec.noise_sigma)
        ).params
        print(f"  {name:16s} i_sat = {i_sat:6.1f} kC/s "
              f"(truth {i_true:5.1f}), p_sat = {p_sat:5.2f} mW "
              f"(truth {p_true:4.2f})")

    # pulsed lifetimes at three temperatures
    print("\npulsed-lifetime fits (Poisson maximum likelihood):")
    for name, tau_true in [
        ("lifetime_4k", 12.2), ("lifetime_40k", 15.8), ("lifetime_100k", 21.0),
    ]:
        decay = synthlab.generate(synthlab.preset(name, seed=3))
        lifetime = photophysics.pulsed_lifetime_fit(decay.record())
        tau, sigma = lifetime.params[1], lifetime.sigmas[1]
        print(f"  {name:14s} tau = ({tau:5.2f} +- {sigma:4.2f}) ns "
              f"(truth {tau_true})")

    # decay-rate extrapolation to zero excitation power
    powers = np.array([0.2, 0.5, 1.0, 1.5, 2.5])
    rates = 0.004 * powers + 1.0 / 14.0
    rng = np.random.Generator(np.random.Philox(4))
    noisy = rates + rng.normal(0.0, 5e-4, rates.size)
    tau0, tau0_sigma, slope, _ = photophysics.decay_rate_extrapolation(
        np.column_stack([powers, noisy]), sigmas=np.full(5, 5e-4)
    )
    print(f"\nzero-power lifetime from power-dependent rates: "
          f"({tau0:.1f} +- {tau0_sigma:.1f}) ns (truth 14)")


if __name__ == "__main__":
    main()
