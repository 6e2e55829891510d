"""Emitter-side fitting pipelines.

Fits the second-order correlation of a three-level emitter, saturation
curves and pulsed-lifetime decays, extrapolates the fitted decay rate to
zero excitation power, and estimates the zero-phonon-line emission
fraction from a spectrum. The model shapes,
start values, bounds and derived outputs (g2 at zero delay) live in the
``models`` registry; the g2, saturation and lifetime pipelines return the
engine's ``FitResult`` as it is.
"""

from __future__ import annotations

import numpy as np

from . import fitkit, models
from .dataio import Spectrum, TimeHistogram
from .errors import (
    InsufficientDataError,
    NonphysicalResultError,
    ValidationError,
)

__all__ = [
    "debye_waller_estimate",
    "decay_rate_extrapolation",
    "fit_g2_histogram",
    "fit_saturation",
    "pulsed_lifetime_fit",
]


# ---------------------------------------------------------------------------
# Lifetime extraction
# ---------------------------------------------------------------------------


def decay_rate_extrapolation(points, sigmas=None):
    """Zero-power lifetime from power-dependent decay rates.

    Fits gamma1 = slope * P + 1/tau to (power, rate) pairs with the
    registered ``linear`` model and extrapolates to zero excitation power.

    Parameters
    ----------
    points : sequence of (power_mw, gamma1_per_ns)
    sigmas : per-point rate uncertainties, optional

    Returns
    -------
    (tau_ns, tau_sigma_ns, slope, covariance)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be (power, gamma1) pairs")
    powers, rates = pts[:, 0], pts[:, 1]
    if np.unique(powers).size < 2:
        raise InsufficientDataError("need at least two distinct excitation powers")
    weights = None if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float)
    result = fitkit.fit(
        fitkit.FitProblem(model_id="linear", x=powers, y=rates, weights=weights)
    )
    slope, intercept = result.params
    if intercept <= 0:
        raise NonphysicalResultError(
            f"zero-power decay rate {intercept:.4g}/ns is not positive"
        )
    tau = 1.0 / intercept
    tau_sigma = result.sigmas[1] / intercept**2
    return float(tau), float(tau_sigma), float(slope), result.covariance


def pulsed_lifetime_fit(hist: TimeHistogram) -> fitkit.FitResult:
    """Single-exponential lifetime from a pulsed-decay histogram.

    Fits the registered ``exponential_decay`` model to every bin by its
    Poisson likelihood (Cash 1979), zero- and low-count tail bins included:
    the problem that ``cavitylab fit --schema histogram --model
    exponential_decay`` builds, with the same bits. ``result.params[1]`` and
    ``result.sigmas[1]`` are tau and its sigma in ns; ``termination`` says
    whether the fit converged. The caller cuts a histogram with an
    instrument-response rise to its decaying tail; the model's start refuses
    counts that do not decay (``FitQualityError``).
    """
    if np.count_nonzero(hist.counts) < 10:
        raise InsufficientDataError("need at least 10 bins with counts")
    return fitkit.fit(
        fitkit.FitProblem(model_id="exponential_decay", x=hist.bin_centers_ns, y=hist.counts)
    )


# ---------------------------------------------------------------------------
# g2 pipeline
# ---------------------------------------------------------------------------


def fit_g2_histogram(hist: TimeHistogram) -> tuple[fitkit.FitResult, dict]:
    """Fit a coincidence histogram with the three-level correlation model.

    The raw counts are fitted by the Poisson likelihood of the registered
    ``g2_three_level`` model. Its sixth parameter, ``params[5]``, is the
    long-delay plateau in counts per bin; ``params[:5]`` (contrast, beta,
    gamma1, gamma2, t0) describe the curve normalised to that plateau,
    1 + c*(beta*exp(-gamma1*|t-t0|) + (beta-1)*exp(-gamma2*|t-t0|)), with
    the antibunching rate faster than the shelving rate (gamma1 > gamma2).
    In this sign convention a trace with an antibunching dip recovering at
    gamma1 carries a negative contrast (and, with bunching, beta in (0, 1));
    a positive contrast with beta > 1 describes pure bunching.

    Initial rates come from the width of the antibunching dip with the
    shelving rate started a decade slower; a fit that converges with the
    rates swapped is canonicalized back to gamma1 > gamma2. Returns the
    ``FitResult`` and the model's derived outputs (``g2_at_t0``), the dict
    a report step carries; a fit that lands at zero contrast or outside
    gamma1 > gamma2 > 0 raises ``FitQualityError``.
    """
    model = models.get_model("g2_three_level")
    problem = fitkit.FitProblem(model_id=model.name, x=hist.bin_centers_ns, y=hist.counts)
    result = fitkit.fit(problem)
    return result, model.derived(result.params)


def fit_saturation(power_mw, rate_kcps, sigmas=None) -> fitkit.FitResult:
    """Fit the registered ``saturation`` model, I = i_sat * P / (p_sat + P),
    to rates (kC/s) at excitation powers (mW); ``params`` is (i_sat, p_sat)."""
    weights = None if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float)
    problem = fitkit.FitProblem(model_id="saturation", x=power_mw, y=rate_kcps, weights=weights)
    return fitkit.fit(problem)


# ---------------------------------------------------------------------------
# Emission bookkeeping
# ---------------------------------------------------------------------------


def debye_waller_estimate(
    spectrum: Spectrum,
    zpl_window: tuple[float, float],
    psb_window: tuple[float, float],
    background_window: tuple[float, float] | None = None,
) -> float:
    """Fraction of emission in the zero-phonon line.

    Integrates background-subtracted counts over the ZPL window and divides
    by the total over ZPL plus phonon-sideband windows. The background is the
    mean count level in ``background_window`` (0 when not given).
    """
    wl = spectrum.wavelength_nm
    counts = spectrum.counts.astype(float)

    def window_mask(window, name):
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValidationError(f"{name} must be an interval (lo < hi)")
        if lo < wl[0] or hi > wl[-1]:
            raise ValidationError(f"{name} must lie within the spectrum support")
        return (wl >= lo) & (wl <= hi)

    zpl_mask = window_mask(zpl_window, "zpl_window")
    psb_mask = window_mask(psb_window, "psb_window")
    if np.any(zpl_mask & psb_mask):
        raise ValidationError("zpl_window and psb_window must be disjoint")

    background = 0.0
    if background_window is not None:
        bg_mask = window_mask(background_window, "background_window")
        background = float(np.mean(counts[bg_mask]))

    net = counts - background

    def integrate(mask):
        return float(np.trapezoid(net[mask], wl[mask]))

    zpl = integrate(zpl_mask)
    total = zpl + integrate(psb_mask)
    if total <= 0:
        raise ValidationError("windows contain no counts above background")
    return zpl / total
