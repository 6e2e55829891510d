"""Gaussian-beam mode mathematics for a plano-concave Fabry-Perot cavity.

Resonances of the empty cavity follow

    nu_m = c / (2 n L) * (m + (q + 1) * arccos(sqrt(1 - L/ROC)) / pi)

for longitudinal index m, transverse order q (0 for the fundamental) and
effective length L. Mirror field penetration is folded into L and never
modeled separately. An elliptical concave mirror is reduced to a scalar
radius of curvature, :func:`mean_roc`, which every other function takes
as a plain number. ROC = inf is the flat-mirror (plane-wave) limit: the
Gouy term vanishes and 2 L / lambda = m.

Resonance wavelengths are the in-gap values c/(n * nu); with a vacuum or
air gap (n = 1) they equal vacuum wavelengths. The figures of merit
(:func:`cavity_figures`, :func:`q_from_linewidth`, the beam sizes and the
mode volume) take the vacuum wavelength lambda: nu = c / lambda, the beam
sizes use lambda / n in the gap, and the mode volume is in units of the
vacuum lambda^3, as :func:`cavitylab.cqed.purcell_theoretical` expects.
:func:`cavity_figures` returns them all as one dict keyed by name.
Internal units: um for lengths, nm for wavelengths, THz for mode
frequencies, GHz for linewidths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fitkit, models
from .dataio import ScanTrace, SpectralMap, Spectrum
from .errors import (
    CavityLabError,
    FitQualityError,
    GeometryError,
    InsufficientDataError,
    SearchError,
    TrackingBreakError,
    ValidationError,
    check_domain,
)

__all__ = [
    "CavityGeometry",
    "DoubleResonance",
    "cavity_figures",
    "cte_fit",
    "detect_peaks",
    "dispersion_map",
    "double_resonance_search",
    "drift_series",
    "effective_length_from_adjacent_modes",
    "finesse_from_scan",
    "gouy_fraction",
    "mean_roc",
    "mode_indices",
    "mode_volume_lambda3",
    "resonance_length",
]

# speed of light in the unit systems used internally:
# nu[GHz] = C_NM_GHZ / lambda[nm]; nu[THz] = C_UM_THZ / length[um]
C_NM_GHZ = 2.99792458e8
C_NM_THZ = 2.99792458e5
C_UM_THZ = 299.792458


@dataclass(frozen=True)
class CavityGeometry:
    """Concave-mirror radii, effective length and gap index of one cavity."""

    roc_x_um: float
    roc_y_um: float
    l_eff_um: float
    refractive_index: float = 1.0

    def __post_init__(self):
        if not (self.roc_x_um > 0 and self.roc_y_um > 0):
            raise GeometryError("radii of curvature must be positive")
        if not 0 < self.l_eff_um < min(self.roc_x_um, self.roc_y_um):
            raise GeometryError(
                f"stability requires 0 < l_eff ({self.l_eff_um} um) < "
                f"min(roc_x, roc_y) ({min(self.roc_x_um, self.roc_y_um)} um)"
            )
        if not 1.0 <= self.refractive_index < math.inf:
            raise GeometryError(
                f"refractive_index must be finite and >= 1, got {self.refractive_index}"
            )

    @property
    def roc_um(self) -> float:
        """The mirror's one radius of curvature (um): see :func:`mean_roc`."""
        return mean_roc(self.roc_x_um, self.roc_y_um)


def mean_roc(roc_x_um: float, roc_y_um: float) -> float:
    """An elliptical mirror's one radius: the geometric mean sqrt(roc_x * roc_y)."""
    return math.sqrt(roc_x_um * roc_y_um)


def gouy_fraction(l_eff_um: float, roc_um: float) -> float:
    """Gouy contribution arccos(sqrt(1 - L/ROC))/pi, in [0, 1/2); refuses ROC <= 0 or NaN."""
    if not roc_um > 0:
        raise GeometryError("radius of curvature must be positive")
    if not 0 <= l_eff_um < roc_um:
        raise GeometryError(
            f"stability violated: need 0 <= L ({l_eff_um} um) < ROC ({roc_um} um)"
        )
    return math.acos(math.sqrt(1.0 - l_eff_um / roc_um)) / math.pi


def brent_root(f, a, b, xtol=2e-12, rtol=4 * math.ulp(1.0)):
    """Root of ``f`` in the sign-changing bracket [a, b] (Brent-Dekker).

    A step-for-step port of the C solver behind ``scipy.optimize.brentq``
    (Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 4),
    so it returns the same float for the same bracket and tolerances, and
    raises ``ValueError`` where it does (no sign change, a NaN value) and
    ``RuntimeError`` after its 100 iterations. It converges when the
    bracket is narrower than ``xtol + rtol * |x|``.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator (inf in C) bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                if denom:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur}")


def resonance_length(wavelength_nm: float, m: int, roc: float) -> float:
    """Length (um) at which the fundamental mode of index ``m`` resonates at
    the given wavelength (:func:`dispersion_map` tabulates higher orders).

    Solves 2 L / lambda = m + gouy(L) by bracketed root finding;
    the residual frequency error of the returned root is below 1 MHz. For
    a flat mirror (ROC = inf) the root is the closed form m * lambda / 2.
    """
    if m < 1:
        raise ValidationError("longitudinal index m must be >= 1")
    check_domain("positive and finite", wavelength_nm=wavelength_nm)
    gouy_fraction(0.0, roc)  # refuses a radius that is not positive
    if math.isinf(roc):
        return m * wavelength_nm / 2000.0

    def mismatch(l_um):
        return 2000.0 * l_um / wavelength_nm - gouy_fraction(l_um, roc) - m

    lo = 1e-9
    hi = roc * (1.0 - 1e-12)
    if mismatch(lo) > 0 or mismatch(hi) < 0:
        raise SearchError(
            f"no resonance length in (0, {roc} um) for m={m}, "
            f"lambda={wavelength_nm} nm"
        )
    l_um = brent_root(mismatch, lo, hi, xtol=1e-13, rtol=8.9e-16)
    # residual check in frequency units (1 MHz = 1e-6 THz)
    freq = C_UM_THZ / (2.0 * l_um) * (m + gouy_fraction(l_um, roc))
    target = C_NM_THZ / wavelength_nm
    if abs(freq - target) > 1e-6:
        raise SearchError("root refinement failed to reach 1 MHz residual")
    return l_um


@dataclass(frozen=True)
class DoubleResonance:
    """A simultaneous excitation/detection resonance candidate."""

    m_exc: int
    m_det: int
    l_eff_um: float
    mismatch_um: float


def mode_indices(l_range_um, lambda_range_nm) -> range:
    """Longitudinal indices of the fundamental resonances in a length and
    wavelength window.

    2 L / lambda = m + gouy(L) with 0 <= gouy < 1/2 puts every such m in
    (2000 l_lo / lambda_hi - 1/2, 2000 l_hi / lambda_lo]; the range holds
    at least one spare index on either side.
    """
    (l_lo, l_hi), (lam_lo, lam_hi) = l_range_um, lambda_range_nm
    return range(max(1, int(2000.0 * l_lo / lam_hi) - 1), int(2000.0 * l_hi / lam_lo) + 2)


def double_resonance_search(
    lambda_exc_nm: float,
    lambda_det_nm: float,
    roc: float,
    l_range_um: tuple[float, float],
    tolerance_um: float,
) -> list[DoubleResonance]:
    """All index pairs whose resonance lengths agree within ``tolerance_um``.

    Candidates are sorted by length mismatch (the physically tunable
    variable); an empty list is a valid outcome.
    """
    check_domain("positive and finite", lambda_exc_nm=lambda_exc_nm,
                 lambda_det_nm=lambda_det_nm, tolerance_um=tolerance_um)
    gouy_fraction(0.0, roc)  # refuses a radius that is not positive
    lo = max(l_range_um[0], 1e-6)
    hi = min(l_range_um[1], roc * (1 - 1e-9))
    if not lo < hi:
        raise ValidationError("l_range must be a non-empty interval inside stability")

    def lengths(wavelength):
        out = {}
        for m in mode_indices((lo, hi), (wavelength, wavelength)):
            try:
                l_um = resonance_length(wavelength, m, roc)
            except SearchError:
                continue
            if lo <= l_um <= hi:
                out[m] = l_um
        return out

    exc = lengths(lambda_exc_nm)
    det = lengths(lambda_det_nm)
    candidates = []
    for m_exc, l_exc in exc.items():
        for m_det, l_det in det.items():
            mismatch = abs(l_exc - l_det)
            if mismatch < tolerance_um:
                candidates.append(
                    DoubleResonance(
                        m_exc=m_exc,
                        m_det=m_det,
                        l_eff_um=0.5 * (l_exc + l_det),
                        mismatch_um=mismatch,
                    )
                )
    candidates.sort(key=lambda c: (c.mismatch_um, c.m_exc, c.m_det))
    return candidates


def dispersion_map(
    roc: float,
    l_grid_um,
    m_values: Sequence[int],
    transverse_orders: Sequence[int] = (0,),
) -> np.ndarray:
    """Resonance wavelengths over a length sweep.

    Returns an array with columns (l_eff_um, wavelength_nm, mode_m,
    transverse_order), ready for CSV export: one array, each column
    broadcast into it with no full-size temporary.
    """
    gouy_fraction(0.0, roc)  # refuses a radius that is not positive, also for no lengths
    l_um = np.asarray(l_grid_um, dtype=float)
    # Python floats: the same bits and errors as numpy scalars, at a third of the cost
    g = np.array([gouy_fraction(v, roc) for v in l_um.tolist()])
    q = np.asarray(transverse_orders, dtype=float)[:, None]
    m = np.asarray(m_values, dtype=float)
    # rows ordered by length, then order, then index, as (l, q, m) axes
    rows = np.empty((l_um.size, q.size, m.size, 4))
    rows[..., 0], rows[..., 2], rows[..., 3] = l_um[:, None, None], m, q
    wavelength = rows[..., 1]  # 2000 L / (m + (q + 1) g), computed in place
    np.multiply(q + 1.0, g[:, None, None], out=wavelength)
    wavelength += m
    np.divide((2000.0 * l_um)[:, None, None], wavelength, out=wavelength)
    return rows.reshape(-1, 4)


# ---------------------------------------------------------------------------
# Cavity figures of merit
# ---------------------------------------------------------------------------


def _mode_scales(geom: CavityGeometry, wavelength_nm: float) -> tuple[float, float, float]:
    """lambda / (pi n) in the gap, the mirror radius and the length (um) of
    a geometry that confines a mode: a flat (infinite) radius does not."""
    check_domain("positive and finite", wavelength_nm=wavelength_nm)
    if math.inf in (geom.roc_x_um, geom.roc_y_um):
        raise GeometryError(f"no mode is confined by radii {geom.roc_x_um}, {geom.roc_y_um} um")
    return wavelength_nm / 1000.0 / geom.refractive_index / math.pi, geom.roc_um, geom.l_eff_um


def beam_waist_um(geom: CavityGeometry, wavelength_nm: float) -> float:
    """1/e^2 intensity waist radius at the flat mirror (um)."""
    scale, roc_um, l_um = _mode_scales(geom, wavelength_nm)
    return math.sqrt(scale * math.sqrt(l_um * (roc_um - l_um)))


def mirror_spot_um(geom: CavityGeometry, wavelength_nm: float) -> float:
    """Beam radius on the curved mirror (um)."""
    scale, roc_um, l_um = _mode_scales(geom, wavelength_nm)
    return math.sqrt(scale * roc_um * math.sqrt(l_um / (roc_um - l_um)))


def mode_volume_lambda3(geom: CavityGeometry, lambda_nm: float) -> float:
    """Mode volume pi * w0^2 * L / 4 in units of the vacuum wavelength cubed."""
    check_domain("positive and finite", lambda_nm=lambda_nm)
    w0 = beam_waist_um(geom, lambda_nm)
    return math.pi * w0**2 * geom.l_eff_um / 4.0 / (lambda_nm / 1000.0) ** 3


def q_from_linewidth(lambda_c_nm: float, kappa_ghz: float) -> float:
    """Quality factor nu_c / kappa for an effective linewidth in GHz, with
    nu_c = c / lambda_c of the vacuum wavelength."""
    check_domain("positive and finite", lambda_c_nm=lambda_c_nm, kappa_ghz=kappa_ghz)
    return C_NM_GHZ / lambda_c_nm / kappa_ghz


def cavity_figures(
    geom: CavityGeometry,
    finesse: float,
    m_det: int,
    lambda_c_nm: float,
) -> dict:
    """FSR, linewidth, quality factors, beam sizes and mode volume by name.

    ``quality_factor`` follows the mode-number route m_det * finesse;
    ``quality_factor_linewidth`` is the alternative nu/kappa route. The two
    disagree whenever finesse and linewidth were measured independently, so
    both are reported, with their ratio, and never silently mixed.
    """
    check_domain("positive and finite", finesse=finesse)
    if not (1 <= m_det < math.inf and m_det == int(m_det)):
        raise ValidationError(f"m_det must be an integer >= 1, got {m_det}")
    fsr_thz = C_UM_THZ / (2.0 * geom.refractive_index * geom.l_eff_um)
    kappa_ghz = fsr_thz * 1000.0 / finesse
    q = m_det * finesse
    q_linewidth = q_from_linewidth(lambda_c_nm, kappa_ghz)
    return {
        "fsr_thz": fsr_thz,
        "finesse": finesse,
        "kappa_ghz": kappa_ghz,
        "quality_factor": q,
        "quality_factor_linewidth": q_linewidth,
        "quality_factor_ratio": q / q_linewidth,
        "beam_waist_um": beam_waist_um(geom, lambda_c_nm),
        "mirror_spot_um": mirror_spot_um(geom, lambda_c_nm),
        "mode_volume_lambda3": mode_volume_lambda3(geom, lambda_c_nm),
    }


# ---------------------------------------------------------------------------
# Peak detection and scan analysis
# ---------------------------------------------------------------------------


def detect_peaks(signal, rel_prominence: float = 0.0) -> np.ndarray:
    """Indices of local maxima whose prominence reaches the noise floor.

    The floor is five times the median absolute deviation of the signal
    around its median, which tracks the baseline for traces where peaks
    occupy a small fraction of samples. ``rel_prominence`` additionally
    drops peaks below that fraction of the strongest prominence, which
    rejects shot-noise spikes on long traces whose resonances are of
    comparable height.

    Maxima and prominences follow ``scipy.signal.find_peaks`` exactly, so
    the result equals ``find_peaks(signal, prominence=floor)`` followed by
    the relative cut. The signal must be finite, and 5 (max - min) too (the
    floor is 5 MAD). The signal is searched as a batch of one row by
    :func:`_all_peaks`, the search of every peak of every row of a map.
    """
    check_domain("non-negative and finite", rel_prominence=rel_prominence)
    y = np.asarray(signal, dtype=float)
    if y.ndim != 1:
        raise ValidationError(f"signal must be one-dimensional, got shape {y.shape}")
    return _all_peaks(y[None, :], rel_prominence)[0]


def _all_peaks(rows: np.ndarray, rel_prominence: float):
    """Flat indices, ascending, of each row's :func:`detect_peaks` in a (K, n)
    array, and each row's median (NaN for rows of no samples). Only maxima
    that can pass get a prominence: it is at most a peak's height above the
    lowest sample, and a row's largest is at least that of its highest peak
    that clears the floor (:func:`_strongest_peaks`); where a bound on the
    floor is at most min(``rel_prominence``, 1) of that, the bound stands in."""
    if not rows.size:
        return np.array([], dtype=int), np.full(len(rows), np.nan)
    if not math.isfinite(5.0 * (float(rows.max()) - float(rows.min()))):  # no warning
        raise ValidationError("signal must be finite, and 5 (max - min) must not overflow")
    _, medians, highest, lows, floors = _strongest_peaks(rows, min(rel_prominence, 1.0))
    peaks, at = _local_maxima(rows, lows, np.maximum(floors, rel_prominence * highest))
    prominences = _prominences(rows, peaks, at)
    row = peaks // rows.shape[1]
    passed = prominences >= floors[row]
    peaks, prominences, row = peaks[passed], prominences[passed], row[passed]
    largest = np.zeros(len(rows))  # a lower peak can be more prominent than the highest
    np.maximum.at(largest, row, prominences)
    return peaks[prominences >= rel_prominence * largest[row]], medians


def _peak_floors(rows: np.ndarray, levels: np.ndarray):
    """Median, lowest sample and peak floor of each row of a (K, n) array:
    the floor is 5 MAD around the median, and at least 1e-9 of the span.
    Median and MAD are ``np.median``'s bits, through :func:`models.median`.
    Where a bound on the floor is at most ``levels[k]``, it stands in and
    the MAD's sort is skipped: any x >= ``levels[k]`` passes either. The
    bound: for a the sorted row, m its median, h = n // 2 + 1, s = (n - h)
    // 2, a[s:s + h] holds the middle sample of n = 2k + 1 (s <= k <= s + k)
    and both of n = 2k (s <= k - 1, k <= s + k). Rounding is monotone, so
    a[s] <= m <= a[s + h - 1] and none of these h deviates by more than
    r = max(a[s + h - 1] - m, m - a[s]). The h smallest deviations hold the
    middle one of an odd n and both of an even n (k = h - 1), so MAD <= r,
    their mean rounded too (if r + r overflows, so does 5 r), and floor <=
    max(5 r, 1e-9 span). A NaN bound is never at most a level, nor any
    bound at most a NaN level.
    """
    a = np.sort(rows, axis=1)
    medians = models.sorted_median(rows, a)
    lows = rows.min(axis=1)
    spans = 1e-9 * (rows.max(axis=1) - lows)
    s, m = (rows.shape[1] - 1) // 4, rows.shape[1] // 2  # s = (n - h) // 2, s + h - 1 = s + m
    with np.errstate(over="ignore"):  # an inf bound or floor: no peak clears it
        floors = np.maximum(5.0 * np.maximum(a[:, s + m] - medians, medians - a[:, s]), spans)
        if (decided := floors <= levels).all():
            return medians, lows, floors
        exact = ~decided if decided.any() else slice(None)  # a mask of all rows would copy them
        del a  # the deviations reuse its memory instead of faulting in fresh pages
        deviations = rows[exact] - medians[exact, None]
        mads = models.median(np.abs(deviations, out=deviations))
        floors[exact] = np.maximum(5.0 * mads, spans[exact])
    return medians, lows, floors


def _local_maxima(rows: np.ndarray, lows: np.ndarray, steps: np.ndarray) -> tuple:
    """Flat indices of the local maxima of each row of a (K, n) array that
    stand at least ``steps`` above the row's lowest sample ``lows``, in
    scipy's sense: the middle sample (rounded down) of a run of equal
    samples whose neighbours are both lower; a row's first and last samples
    are never maxima.

    Only the samples that reach the step, ``at`` (returned too), are looked
    at: one pass over ``rows``. The threshold is lowered by a few ulps of
    the numbers that made it, so it keeps every sample whose height above
    the lowest one, as a float difference, reaches the step.
    """
    n = rows.shape[1]
    slack = 8 * np.finfo(float).eps * (np.abs(lows) + steps)
    at = np.flatnonzero(rows >= (lows + steps - slack)[:, None])
    y = rows.ravel()
    col, v = at % n, y[at]
    # equal neighbours both reach the level, so a run's samples are adjacent in ``at``
    left, right = y[np.maximum(at - 1, 0)], y[np.minimum(at + 1, y.size - 1)]
    starts = (col == 0) | (left != v)
    ends = (col == n - 1) | (right != v)
    first, last = at[starts], at[ends]
    peak = (
        (col[starts] > 0) & (left[starts] < v[starts])
        & (col[ends] < n - 1) & (right[ends] < v[ends])
    )
    return (first[peak] + last[peak]) // 2, at


def _prominences(rows: np.ndarray, peaks: np.ndarray, at: np.ndarray) -> np.ndarray:
    """scipy's prominence of each peak (flat indices into a (K, n) array):
    the peak's height above the higher of its two bases, each the lowest
    sample on its side, within its row, before the first sample higher
    than the peak.

    Each peak and every sample of its row higher than it are among ``at``,
    the samples that reach their row's step (:func:`_local_maxima`); those
    that reach the lowest peak are searched. Maxima of their values over
    spans of 1, 2, 4, ... samples find every peak's nearest higher sample
    on each side in log2 steps, and the bases are minima between.
    """
    if not peaks.size:
        return np.empty(0)
    n = rows.shape[1]
    y = rows.ravel()
    heights = y[peaks]
    at = at[y[at] >= heights.min()]
    spans = [y[at]]  # spans[k][i]: the highest of the 2**k samples at[i:i + 2**k]
    while 2 ** len(spans) <= at.size:
        half = 2 ** (len(spans) - 1)
        spans.append(np.maximum(spans[-1][:-half], spans[-1][half:]))
    # grow [lo, hi) around each peak's place in ``at`` while nothing in it is higher
    m = at.size
    lo = np.searchsorted(at, peaks)
    hi = lo + 1
    for k in reversed(range(len(spans))):
        w = 2**k
        lo = np.where((lo >= w) & (spans[k][np.maximum(lo - w, 0)] <= heights), lo - w, lo)
        hi = np.where((hi + w <= m) & (spans[k][np.minimum(hi, m - w)] <= heights), hi + w, hi)
    row_start = peaks - peaks % n
    start = np.maximum(np.where(lo > 0, at[lo - 1] + 1, 0), row_start)
    stop = np.minimum(np.where(hi < m, at[np.minimum(hi, m - 1)], y.size), row_start + n)
    return heights - _higher_bases(y, start, peaks, stop)


def _higher_bases(y: np.ndarray, start: np.ndarray, peaks: np.ndarray, stop: np.ndarray):
    """The higher of ``y[start:peaks + 1].min()`` and ``y[peaks:stop].min()``
    for each peak (start <= peaks < stop <= y.size, peaks < y.size - 1), from
    one reduceat over (start, peaks + 1, peaks, stop) for every peak."""
    last = stop == y.size  # reduceat takes no bound past the end: end one short, then fold in y[-1]
    bounds = np.column_stack([start, peaks + 1, peaks, np.where(last, y.size - 1, stop)])
    minima = np.minimum.reduceat(y, bounds.ravel()).reshape(-1, 4)
    return np.maximum(minima[:, 0], np.where(last, np.minimum(minima[:, 2], y[-1]), minima[:, 2]))


def _first_prominent(rows: np.ndarray, floors: np.ndarray, peaks: np.ndarray, at):
    """Per row of a (K, n) array, the column of the highest of ``peaks``
    (flat indices, ascending, all in ``at``) whose prominence reaches the
    row's floor, or -1, and that prominence. Candidates are tried in
    descending height, ties in sample order, so the answer is ``argmax``
    over the peaks that pass: each row's highest first, in one round; only
    the rows where it fails are ranked, and each further round tries their
    next 2, 4, ..."""
    n = rows.shape[1]
    best, prominence = np.full(rows.shape[0], -1), np.zeros(rows.shape[0])
    row, heights = peaks // n, rows.ravel()[peaks]
    top = np.full(rows.shape[0], -np.inf)
    np.maximum.at(top, row, heights)
    order = np.flatnonzero(heights == top[row])
    order = order[np.diff(row[order], prepend=-1) != 0]  # the first of a row's highest
    rank, tried = np.zeros(order.size, dtype=int), 0
    while (tries := order[(rank >= tried) & (rank <= 2 * tried) & (best[row[order]] < 0)]).size:
        trial = _prominences(rows, peaks[tries], at)
        passed = trial >= floors[row[tries]]
        tries, trial = tries[passed], trial[passed]
        first = np.diff(row[tries], prepend=-1) != 0  # each row's highest that passed
        best[row[tries[first]]] = peaks[tries[first]] % n
        prominence[row[tries[first]]] = trial[first]
        if not tried and (best < 0).any():  # rank the open rows' candidates, the failed first
            order = np.flatnonzero(best[row] < 0)
            order = order[np.lexsort((-heights[order], row[order]))]
            rank = np.arange(order.size) - np.searchsorted(row[order], row[order])
        tried = 2 * tried + 1
    return best, prominence


def _strongest_peaks(rows: np.ndarray, level: float = 1.0):
    """Column of each row's highest peak that clears its noise floor (-1 for
    none) and each row's median, for a (K, n) array: the batched form of
    ``detect_peaks(row)[argmax]``; then that peak's prominence (0 for none),
    and each row's lowest sample and floor, a bound where that is at most
    ``level`` times the prominence of a first highest sample, inside the row
    and above the next. Such a sample is the row's highest peak, its bases
    the lowest samples on either side; other rows, and those where it fails
    the floor, are searched in ranked rounds (:func:`_first_prominent`)."""
    n, y = rows.shape[1], rows.ravel()
    best = rows.argmax(axis=1)
    starts = np.arange(0, y.size, n)
    peaks = starts + best
    top = (best > 0) & (best < n - 1) & (y[peaks] > y[np.minimum(peaks + 1, y.size - 1)])
    prominences = np.full(len(rows), np.nan)
    prominences[top] = y[peaks[top]] - _higher_bases(y, starts[top], peaks[top], starts[top] + n)
    medians, lows, floors = _peak_floors(rows, level * prominences)
    rest = np.flatnonzero(~(prominences >= floors))  # their floors are exact
    if rest.size:
        others = rows if rest.size == len(rows) else rows[rest]  # a copy of every row is slow
        best[rest], prominences[rest] = _first_prominent(
            others, floors[rest], *_local_maxima(others, lows[rest], floors[rest]))
    return best, medians, prominences, lows, floors


def _fwhm_in_samples(rows: np.ndarray, peaks: np.ndarray, baselines: np.ndarray) -> np.ndarray:
    """Full width at half maximum, in samples and at least 3, of the peak at
    column ``peaks[k]`` of each row of a (K, n) array, above ``baselines[k]``:
    the distance between the nearest samples on either side, the peak
    included, that are not above half maximum, or the row's ends."""
    half = baselines + (rows[np.arange(len(rows)), peaks] - baselines) / 2.0
    left = models.nearest_not_above(rows, peaks, half, 0)
    return np.maximum(models.nearest_not_above(rows, peaks, half, rows.shape[1] - 1) - left, 3.0)


def _peak_problems(x: np.ndarray, rows: np.ndarray, peaks: np.ndarray, baselines) -> list:
    """Lorentzian fit problems, one per peak: on the samples of row k of
    ``rows`` (a (K, n) array, or one row shared by every peak) within eight
    half-maximum widths (at least 10 samples) of column ``peaks[k]``, the
    width measured above ``baselines[k]`` (or one baseline for all), the
    median of the row. Every window's Lorentzian start is taken in one call
    of the registry's start rule, the windows padded to the longest by
    their last sample; each group of equal-length windows is one stack from
    those starts (from its own, which the fit refuses, where one is not
    finite). Records are finite, so a window is refused only for fewer than
    4 samples (the Lorentzian start never raises, the model has no bounds).
    A window holds min(n, 11) samples or more, so only a 3-sample row is
    refused: every window is the whole row, raised for peak 0."""
    if not peaks.size:
        return []
    rows = np.broadcast_to(rows, (peaks.size, x.size))
    baselines = np.broadcast_to(baselines, peaks.shape)
    half_windows = np.maximum(8.0 * _fwhm_in_samples(rows, peaks, baselines), 10).astype(int)
    starts = np.maximum(peaks - half_windows, 0)
    lengths = np.minimum(peaks + half_windows + 1, x.size) - starts
    columns = starts[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    xs, ys = x[columns], rows[np.arange(peaks.size)[:, None], columns]
    p0 = models.get_model("lorentzian").init(xs, ys, lengths)
    problems = [None] * len(rows)
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        given = p0[group] if np.isfinite(p0[group]).all() else None
        stack = fitkit.FitProblem.stack(
            "lorentzian", xs[group, :length], ys[group, :length], initial_params=given)
        for k, problem in zip(group.tolist(), stack):
            problems[k] = problem
    return problems


def _resonances(fits) -> tuple[np.ndarray, np.ndarray]:
    """Ascending centers of Lorentzian fits and their |FWHM|, less each
    center within the FWHM of the one below it: the two are one resonance
    (a noisy top can hold two equal maxima)."""
    centers = np.array([f.params[1] for f in fits])
    widths = np.abs(np.array([f.params[2] for f in fits]))
    order = np.argsort(centers)
    centers, widths = centers[order], widths[order]
    distinct = np.concatenate([[True], np.diff(centers) > widths[:-1]])
    return centers[distinct], widths[distinct]


def finesse_from_scan(traces) -> tuple[float, float]:
    """Finesse as resonance spacing over linewidth, pooled over piezo ramps.

    Peaks whose fitted centers lie within one fitted FWHM of each other are
    one resonance (see :func:`_resonances`). Every ramp's peaks are found
    and their fit problems built first, so a ramp with too few peaks
    raises, in ramp order, before anything is fitted; no window of a ramp
    with two peaks is refused (see :func:`_peak_problems`). The peaks of
    all ramps are then fitted in one :func:`fitkit.fit_many` call; a failed
    fit raises, its ``problem_index`` counting the peaks of all ramps. Then
    the first ramp in order fails that has a fit stopped short of its step
    tolerance (``FitQualityError`` naming the ramp and the termination) or
    peaks that merge into fewer than two resonances.

    Parameters
    ----------
    traces : ScanTrace or sequence of ScanTrace
        Each ramp must show at least two resonances.

    Returns
    -------
    (finesse, uncertainty) : tuple of float
        Mean and sample standard deviation of the per-peak estimates. The
        ratio is invariant under affine rescaling of the scan axis and under
        multiplicative rescaling of the intensity.
    """
    if isinstance(traces, ScanTrace):
        traces = [traces]
    if not traces:
        raise InsufficientDataError("no scan traces given")
    ramps = []
    for i, trace in enumerate(traces):
        # the median that set the noise floor is the fits' baseline
        peaks, (baseline,) = _all_peaks(trace.signal[None, :], rel_prominence=0.2)
        if peaks.size < 2:
            raise InsufficientDataError(
                f"ramp {i} ({trace.sweep_direction}): found {peaks.size} peaks, need >= 2"
            )
        ramps.append(_peak_problems(trace.axis, trace.signal, peaks, baseline))
    fits = iter(fitkit.fit_many([problem for problems in ramps for problem in problems]))
    estimates = []
    for i, (trace, problems) in enumerate(zip(traces, ramps)):
        ramp_fits = list(itertools.islice(fits, len(problems)))
        for fit in ramp_fits:
            fit.require_converged(f"ramp {i} ({trace.sweep_direction}): peak fit")
        centers, widths = _resonances(ramp_fits)
        if centers.size < 2:
            raise InsufficientDataError(
                f"ramp {i} ({trace.sweep_direction}): {len(problems)} peaks merge into "
                "one resonance, need >= 2"
            )
        # each spacing over the width of the resonance below it, then above it
        spacings = np.diff(centers)
        estimates.append(np.column_stack([spacings / widths[:-1], spacings / widths[1:]]))
    estimates = np.concatenate(estimates, axis=None)
    return float(estimates.mean()), float(estimates.std(ddof=1))


# ---------------------------------------------------------------------------
# Length inference and drift tracking
# ---------------------------------------------------------------------------


def effective_length_from_adjacent_modes(
    lambda_long_nm: float,
    lambda_short_nm: float,
    roc_um: float | None = None,
) -> float:
    """Effective length (um) from two adjacent fundamental resonances.

    Uses the two-mode spacing L = lambda1*lambda2 / (2*(lambda1 - lambda2)),
    exact for same-order adjacent modes observed at one length. When
    ``roc_um`` is given, one refinement pass re-solves the full resonance
    condition for the rounded mode number of the long-wavelength peak.
    """
    check_domain("positive and finite", lambda_long_nm=lambda_long_nm,
                 lambda_short_nm=lambda_short_nm)
    if lambda_long_nm <= lambda_short_nm:
        raise ValidationError(
            f"expected lambda_long > lambda_short, got {lambda_long_nm} <= {lambda_short_nm}"
        )
    delta = lambda_long_nm - lambda_short_nm
    if delta < 1e-9 * lambda_long_nm:
        raise ValidationError("modes are degenerate; spacing-based length diverges")
    l_um = lambda_long_nm * lambda_short_nm / (2.0 * delta) / 1000.0
    if not math.isfinite(l_um):
        raise ValidationError("length estimate overflowed; modes too close")
    if roc_um is not None:
        if l_um >= roc_um:
            raise GeometryError(
                f"estimated length {l_um:.3f} um is outside stability (ROC {roc_um} um)"
            )
        m = round(2000.0 * l_um / lambda_long_nm - gouy_fraction(l_um, roc_um))
        if m >= 1:
            l_um = resonance_length(lambda_long_nm, int(m), roc_um)
    return l_um


def effective_length_from_spectrum(spectrum: Spectrum, roc_um: float | None = None) -> float:
    """Length from the two highest resonances, by counts, of a broadband
    spectrum: of the peaks :func:`detect_peaks` finds, the two highest
    samples are fitted.

    As in :func:`finesse_from_scan`, two peaks whose fitted centers lie
    within one fitted FWHM are one resonance (see :func:`_resonances`),
    which leaves too few for a spacing.
    """
    peaks, (baseline,) = _all_peaks(spectrum.counts[None, :], rel_prominence=0.0)
    if peaks.size < 2:
        raise InsufficientDataError("need two resonance peaks in the spectrum")
    strongest = peaks[np.argsort(spectrum.counts[peaks])[-2:]]
    fits = fitkit.fit_many(_peak_problems(
        spectrum.wavelength_nm, spectrum.counts, strongest, baseline))
    for fit in fits:
        fit.require_converged("spectrum: peak fit")
    centers, _ = _resonances(fits)
    if centers.size < 2:
        lo, hi = sorted(float(f.params[1]) for f in fits)
        raise InsufficientDataError(
            f"the two strongest peaks ({lo:.6g} and {hi:.6g} nm) are one resonance, "
            "need two"
        )
    lo, hi = centers.tolist()
    return effective_length_from_adjacent_modes(hi, lo, roc_um)


def drift_series(spectral_map: SpectralMap, l_eff_um: float) -> list[tuple[float, float]]:
    """Effective-length drift from tracking one resonance across a map.

    Each frame's fundamental peak is fitted with a Lorentzian; the drift is
    delta_L(t) = (lambda_res(t) - lambda_res(0)) / 2 in nm at the frame
    times of the map. One failure rule holds: a frame fails for having no
    peak, for a window its fit problem refuses, for a fit that fails or
    stops short of its step tolerance, or for a jump from the frame before
    larger than half the free spectral range of a cavity of length
    ``l_eff_um`` at frame 0's strongest pixel. The first failing frame in
    order raises TrackingBreakError carrying its index. The jump guard
    always runs, so ``l_eff_um`` must be positive and finite.
    """
    check_domain("positive and finite", l_eff_um=l_eff_um)
    wl, counts = spectral_map.wavelength_nm, spectral_map.counts_matrix()
    lam0 = float(wl[np.argmax(counts[0])])
    max_jump_nm = lam0**2 / (4.0 * l_eff_um * 1000.0)

    # every frame's peak search runs in one batch, and the frames before the
    # first one without a peak are fitted in another
    peaks, medians, *_ = _strongest_peaks(counts)
    failing = int(np.argmax(peaks < 0)) if np.any(peaks < 0) else peaks.size
    failure = InsufficientDataError("no peak found to fit")
    try:
        results = fitkit.fit_many(_peak_problems(
            wl, counts[:failing], peaks[:failing], medians[:failing]))
    except CavityLabError as exc:
        # a refused window (only frame 0 of a 3-pixel map) leaves no fits
        failing, failure, results = exc.problem_index, exc, getattr(exc, "results", [])
    centers = []
    for i, result in enumerate(results[:failing]):
        try:
            result.require_converged("fit")
        except FitQualityError as exc:
            failing, failure = i, exc
            break
        center = float(result.params[1])
        if centers and abs(center - centers[-1]) > max_jump_nm:
            raise TrackingBreakError(
                f"peak jumped {abs(center - centers[-1]):.4g} nm at frame {i} "
                f"(> half FSR {max_jump_nm:.4g} nm)",
                index=i,
            )
        centers.append(center)
    if failing < peaks.size:
        raise TrackingBreakError(
            f"peak fit failed at frame {failing}: {failure}", index=failing) from failure
    return [
        (float(t), (c - centers[0]) / 2.0) for t, c in zip(spectral_map.times_s(), centers)
    ]


def cte_fit(temperatures_k, delta_l_nm, reference_length_um: float):
    """Thermal-expansion coefficient from a drift-versus-temperature series.

    Fits delta_L(T) with a straight line; alpha = slope / reference_length.

    Returns
    -------
    (alpha_per_k, sigma_alpha, fit_result)
    """
    check_domain("positive and finite", reference_length_um=reference_length_um)
    problem = fitkit.FitProblem(
        model_id="linear",
        x=np.asarray(temperatures_k, dtype=float),
        y=np.asarray(delta_l_nm, dtype=float),
    )
    result = fitkit.fit(problem)
    scale = reference_length_um * 1000.0
    alpha = float(result.params[0]) / scale
    sigma = float(result.sigmas[0]) / scale
    return alpha, sigma, result
