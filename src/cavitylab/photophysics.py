"""Emitter-side models and fitting pipelines.

Covers the second-order correlation function of a three-level emitter,
saturation curves, pulsed-lifetime decays, the power dependence of the
fitted decay rate, and level-structure bookkeeping (line splitting and the
zero-phonon-line emission fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitkit, models
from .dataio import Spectrum, TimeHistogram
from .errors import (
    FitQualityError,
    InsufficientDataError,
    NonphysicalResultError,
    ValidationError,
)
from .optics import C_NM_GHZ

__all__ = [
    "EmitterSpec",
    "G2FitResult",
    "G2Params",
    "SaturationParams",
    "debye_waller_estimate",
    "decay_rate_extrapolation",
    "fit_g2_histogram",
    "fit_saturation",
    "g2_model",
    "gs_splitting_ghz",
    "pulsed_lifetime_fit",
    "saturation_model",
]


@dataclass(frozen=True)
class EmitterSpec:
    """Free-space optical properties of one emitter."""

    zpl_c_nm: float
    zpl_d_nm: float
    linewidth_c_ghz: float
    linewidth_d_ghz: float
    free_space_lifetime_ns: float
    quantum_efficiency: float
    debye_waller: float
    branching_c: float

    def __post_init__(self):
        for name in ("quantum_efficiency", "debye_waller", "branching_c"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        if self.free_space_lifetime_ns <= 0:
            raise ValidationError("free_space_lifetime_ns must be positive")
        if not self.zpl_d_nm > self.zpl_c_nm:
            raise ValidationError("the D line must be red of the C line")


@dataclass(frozen=True)
class G2Params:
    """Three-level correlation parameters.

    The model is 1 + c*(beta*exp(-gamma1*|t-t0|) + (beta-1)*exp(-gamma2*|t-t0|))
    with the antibunching rate faster than the shelving rate (gamma1 > gamma2).
    In this sign convention a trace with an antibunching dip recovering at
    gamma1 carries a negative contrast (and, with bunching, beta in (0, 1));
    a positive contrast with beta > 1 describes pure bunching.
    """

    contrast: float
    beta: float
    gamma1_per_ns: float
    gamma2_per_ns: float
    t0_ns: float = 0.0

    def __post_init__(self):
        if self.contrast == 0:
            raise ValidationError("contrast must be non-zero")
        if not self.gamma1_per_ns > self.gamma2_per_ns > 0:
            raise ValidationError("rates must satisfy gamma1 > gamma2 > 0")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.contrast, self.beta, self.gamma1_per_ns, self.gamma2_per_ns, self.t0_ns]
        )

    @property
    def g2_at_t0(self) -> float:
        return 1.0 + self.contrast * (2.0 * self.beta - 1.0)


def g2_model(t, params: G2Params):
    """Second-order correlation of a three-level emitter at delay ``t`` (ns)."""
    return models.evaluate("g2_three_level", params.as_vector(), t)


@dataclass(frozen=True)
class SaturationParams:
    """Saturation curve parameters: I = i_sat * P / (p_sat + P)."""

    i_sat_kcps: float
    p_sat_mw: float

    def __post_init__(self):
        if not (self.i_sat_kcps > 0 and self.p_sat_mw > 0):
            raise ValidationError("saturation parameters must be positive")


def saturation_model(power_mw, params: SaturationParams):
    """Detected rate (kC/s) at excitation power ``power_mw`` (mW)."""
    power = np.asarray(power_mw, dtype=float)
    if np.any(power < 0):
        raise ValidationError("power must be non-negative")
    return models.evaluate(
        "saturation", [params.i_sat_kcps, params.p_sat_mw], power
    )


# ---------------------------------------------------------------------------
# Lifetime extraction
# ---------------------------------------------------------------------------


def decay_rate_extrapolation(points, sigmas=None):
    """Zero-power lifetime from power-dependent decay rates.

    Fits gamma1 = slope * P + 1/tau to (power, rate) pairs by weighted
    linear least squares and extrapolates to zero excitation power.

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
    (slope, intercept), cov = fitkit.weighted_linear_fit(powers, rates, weights)
    if intercept <= 0:
        raise NonphysicalResultError(
            f"zero-power decay rate {intercept:.4g}/ns is not positive"
        )
    tau = 1.0 / intercept
    tau_sigma = math.sqrt(max(cov[1, 1], 0.0)) / intercept**2
    return float(tau), float(tau_sigma), float(slope), cov


def pulsed_lifetime_fit(hist: TimeHistogram, window=None):
    """Single-exponential lifetime from a pulsed-decay histogram.

    Fits ``exponential_decay`` to the bins in the window by the Poisson
    likelihood of the registered model. The default window starts one bin
    after the histogram maximum (the pulse edge) and ends at the last bin
    with at least 5 counts. A window whose count centroid does not lie
    before its mean bin time is refused: the log-likelihood is concave in
    (ln amplitude, 1/tau), so such a window has no maximum at 1/tau > 0.

    Returns
    -------
    (tau_ns, tau_sigma_ns)
    """
    t = hist.bin_centers_ns
    counts = hist.counts.astype(float)
    if window is None:
        start = int(np.argmax(counts)) + 1
        bright = np.nonzero(counts >= 5)[0]
        end = int(bright[-1]) if bright.size else t.size - 1
        window = (t[min(start, t.size - 1)], t[max(end, min(start, t.size - 1))])
    lo, hi = float(window[0]), float(window[1])
    if lo < t[0] - hist.bin_width_ns / 2 or hi > t[-1] + hist.bin_width_ns / 2:
        raise ValidationError("window must lie within the histogram support")
    mask = (t >= lo) & (t <= hi)
    tt, cc = t[mask], counts[mask]
    if np.count_nonzero(cc) < 10:
        raise InsufficientDataError("need at least 10 bins with counts in the window")
    centroid, middle = float(tt @ cc / cc.sum()), float(tt.mean())
    if centroid >= middle:
        raise FitQualityError(f"window is not decaying (count centroid {centroid:.4g} ns "
                              f">= mean bin time {middle:.4g} ns)")
    result = fitkit.fit(fitkit.FitProblem(model_id="exponential_decay", x=tt, y=cc))
    return float(result.params[1]), float(result.sigmas[1])


# ---------------------------------------------------------------------------
# g2 pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2FitResult:
    params: G2Params
    g2_at_t0: float
    plateau_counts: float
    fit: fitkit.FitResult


def _normalize_g2(t, counts, t0_est, gamma2_est):
    """Normalize by the Poissonian plateau: mean over |t - t0| > 5/gamma2."""
    far = np.abs(t - t0_est) > 5.0 / gamma2_est
    if np.count_nonzero(far) < 4:
        n_edge = max(2, t.size // 10)
        far = np.zeros(t.size, dtype=bool)
        far[:n_edge] = far[-n_edge:] = True
    plateau = float(np.mean(counts[far]))
    if plateau <= 0:
        raise ValidationError("plateau region has no counts; cannot normalize")
    return counts / plateau, plateau


def fit_g2_histogram(hist: TimeHistogram) -> G2FitResult:
    """Fit a coincidence histogram with the three-level correlation model.

    The histogram is normalized by its long-delay plateau before fitting.
    Initial rates come from the width of the antibunching dip with the
    shelving rate started a decade slower; a fit that converges with the
    rates swapped is canonicalized back to gamma1 > gamma2.
    """
    t = hist.bin_centers_ns
    counts = hist.counts.astype(float)
    p0 = models.initial_params("g2_three_level", t, counts / max(counts.max(), 1.0))
    y, plateau = _normalize_g2(t, counts, p0[4], p0[3])
    p0 = models.initial_params("g2_three_level", t, y)
    # sigma of y = sqrt(counts)/plateau, so 1/sigma scales back up by the plateau
    weights = plateau / np.sqrt(np.maximum(counts, 1.0))
    problem = fitkit.FitProblem(
        model_id="g2_three_level", x=t, y=y, weights=weights, initial_params=p0
    )
    result = fitkit.fit(problem)  # engine canonicalizes to gamma1 > gamma2
    c, beta, g1, g2, t0 = result.params
    try:
        params = G2Params(c, beta, g1, g2, t0)
    except ValidationError as exc:
        raise FitQualityError(f"fit landed outside the valid parameter region: {exc}")
    return G2FitResult(
        params=params,
        g2_at_t0=params.g2_at_t0,
        plateau_counts=plateau,
        fit=result,
    )


def fit_saturation(power_mw, rate_kcps, sigmas=None):
    """Fit a saturation curve; returns (SaturationParams, FitResult)."""
    weights = None if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float)
    problem = fitkit.FitProblem(
        model_id="saturation",
        x=np.asarray(power_mw, dtype=float),
        y=np.asarray(rate_kcps, dtype=float),
        weights=weights,
    )
    result = fitkit.fit(problem)
    return SaturationParams(float(result.params[0]), float(result.params[1])), result


# ---------------------------------------------------------------------------
# Level structure and emission bookkeeping
# ---------------------------------------------------------------------------


def gs_splitting_ghz(zpl_c_nm: float, zpl_d_nm: float) -> float:
    """Ground-state orbital splitting c*(1/lambda_C - 1/lambda_D) in GHz."""
    if zpl_d_nm < zpl_c_nm:
        raise ValidationError("expected zpl_d >= zpl_c (D red of C)")
    return C_NM_GHZ * (1.0 / zpl_c_nm - 1.0 / zpl_d_nm)


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
