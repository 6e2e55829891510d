"""Registered fit models: evaluation, analytic Jacobians and initial guesses.

Every model used anywhere in the toolkit lives here so the fit engine, the
synthetic-data generators and the pipelines all evaluate exactly the same
expressions. Parameter vectors are plain 1-D float arrays in the documented
order.

Each ``fn`` and ``jac`` also takes a batch: ``x`` of shape (K, n) with ``p``
of shape (K, P) evaluates K problems at once, row k of ``x`` with row k of
``p``. A 1-D ``p`` broadcasts over ``x`` of any shape. Every row of a batch
equals the 1-D evaluation of that row bit for bit. ``jac`` returns shape
``x.shape + (P,)``; powers of parameters are products (``s * s``) in both.
The Lorentzian's ``fn`` and ``jac`` (map generators, drift and finesse fits)
and the exponential decay's (lifetime fits and their bootstrap refits) build
their output in one array: ``fn`` takes every step of the plain expression
in it, ``jac`` writes each column into its slot once; both in the plain
expression's order, to the same bits.
Start values (``init``) take stacks only, and :func:`initial_params` lifts
a 1-D problem to a stack of one: ``x`` and ``y`` of shape (K, n) give (K, P)
start values, row k bit for bit the start of row k alone; those of
``lorentzian``, ``gaussian`` and ``detuned_purcell`` are whole-array
operations, the others are taken row by row. The Lorentzian's also takes
each row's length, of rows padded past it by repeating their last sample. ``canonical`` maps
one parameter vector, or each row of a (K, P) batch, to its canonical form.

Models
------
``lorentzian``        offset + amplitude * (w/2)^2 / ((x-center)^2 + (w/2)^2)
``gaussian``          offset + amplitude * exp(-(x-center)^2 / (2 sigma^2))
``linear``            slope * x + intercept
``exponential_decay`` amplitude * exp(-t / tau)                        (counts)
``g2_three_level``    plateau * (1 + c*(beta*exp(-g1|t-t0|)
                                    + (beta-1)*exp(-g2|t-t0|)))         (counts)
``saturation``        i_sat * P / (p_sat + P)
``detuned_purcell``   peak / (1 + (2 Q (x/x0 - 1))^2) + offset

``(counts)``: Poisson noise, fitted by the likelihood of the raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CavityLabError, FitQualityError, ValidationError

__all__ = ["MODELS", "Model", "evaluate", "initial_params", "jacobian_matrix", "param_names"]


@dataclass(frozen=True)
class Model:
    """A registered model; ``bounds`` is (lo, hi), each with one entry per parameter
    (+-inf: open), ``noise`` is "gaussian" (weighted least squares) or "poisson"
    (count likelihood). ``derived`` maps fitted parameters to the named outputs
    computed from them; it raises ``FitQualityError`` for a fit it cannot
    interpret."""

    name: str
    params: tuple[str, ...]
    fn: Callable
    jac: Callable
    init: Callable
    canonical: Callable = staticmethod(lambda p: p)
    bounds: tuple | None = None
    noise: str = "gaussian"
    derived: Callable = staticmethod(lambda p: {})

    @property
    def n_params(self) -> int:
        return len(self.params)


def _columns(p):
    """The parameters of ``p`` one by one: scalars for a single vector,
    (K, 1) columns that broadcast over the rows of x for a (K, P) batch."""
    p = np.asarray(p, dtype=float)
    return p if p.ndim == 1 else p.T[..., None]


# -- lorentzian --------------------------------------------------------------

def _lorentzian(x, p):
    amplitude, center, fwhm, offset = _columns(p)
    h = (fwhm / 2.0) * (fwhm / 2.0)
    # offset + amplitude * h / ((x - center)^2 + h), every step in y
    y = np.asarray(x - center)
    y *= y
    y += h
    np.divide(amplitude * h, y, out=y)
    np.add(offset, y, out=y)
    return y if y.ndim else y[()]


def _lorentzian_jac(x, p):
    amplitude, center, fwhm, _ = _columns(p)
    h = (fwhm / 2.0) * (fwhm / 2.0)
    d = x - center
    denom = d * d
    denom += h
    J = np.empty(np.shape(d) + (4,))
    # the strided slots are written once each: arithmetic in them is slower
    # than in the contiguous d, denom and t
    np.divide(h, denom, out=J[..., 0])
    denom *= denom
    t = amplitude * h * 2.0 * d
    np.divide(t, denom, out=J[..., 1])
    t = amplitude * (fwhm / 2.0) * d
    t *= d
    np.divide(t, denom, out=J[..., 2])
    J[..., 3] = 1.0
    return J


def median(values) -> np.ndarray:
    """``np.median`` of each row (the last axis, not empty) of ``values``,
    bit for bit, from one sort: the middle value of an odd count, (a + b) / 2
    of the two middle values of an even one, and a row's NaN for a row that
    holds one. A zero median of a row holding a -0.0 is ``np.median``'s
    own: which zero that returns depends on its partition."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, values.shape[-1])
    return sorted_median(rows, np.sort(rows, axis=1)).reshape(values.shape[:-1])


def sorted_median(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`median` of each row of a (K, n) array ``rows`` from ``a``, its sort."""
    n, last = a.shape[1], a[:, -1]
    m = np.where(np.isnan(last), last,
                 a[:, n // 2] if n % 2 else (a[:, n // 2 - 1] + a[:, n // 2]) / 2.0)
    zero = np.flatnonzero(m == 0.0)
    zero = zero[((a[zero] == 0.0) & np.signbit(a[zero])).any(axis=1)]
    if zero.size:
        m[zero] = np.median(rows[zero], axis=1)
    return m


def nearest_not_above(rows: np.ndarray, peaks: np.ndarray, levels: np.ndarray, ends):
    """Column of the first sample of each row of a (K, n) array, from
    ``peaks[k]`` on toward column ``ends[k]`` (one end for all rows, or one
    each), that is not above ``levels[k]`` (NaN is not), or ``ends[k]``
    itself: the one half-maximum crossing search, of the start widths and
    of the fit windows. Each round looks 4 times as far as the last."""
    offsets = ends - peaks
    step, distance = np.sign(offsets), np.abs(offsets)
    found = np.empty(len(rows), dtype=int)
    todo, reach = np.arange(len(rows)), 16
    while todo.size:
        d = distance[todo, None]
        walked = np.minimum(np.arange(reach), d)
        columns = peaks[todo, None] + step[todo, None] * walked
        stop = ~(rows[todo[:, None], columns] > levels[todo, None]) | (walked == d)
        hit = stop.any(axis=1)
        found[todo[hit]] = columns[hit, np.argmax(stop[hit], axis=1)]
        todo, reach = todo[~hit], 4 * reach
    return found


def _half_width(x, y, i_peak, level, lengths=None):
    """Full width of each row of a (K, n) y around its highest sample
    ``i_peak[k]`` at ``level[k]``, by linear interpolation in the pair of
    samples on each side nearest the peak that brackets the level; a tenth
    of the row's x span (1 for a zero span) where a side has none. Row k
    holds ``lengths[k]`` samples (all n when None), its last x and y
    repeated past them."""
    n = y.shape[1]
    last = (n if lengths is None else lengths) - 1
    span = np.abs(x[:, -1] - x[:, 0])
    width = np.where(span != 0.0, span / 10.0, 1.0)
    if n > 1:
        # pair j is samples j and j + 1: on each side, the pair that ends at
        # the first sample out from the peak not above the level, or the
        # peak's own pair if the peak is not above it; none nearer brackets it
        j = np.stack([np.minimum(nearest_not_above(y, i_peak, level, 0), i_peak - 1),
                      np.maximum(nearest_not_above(y, i_peak, level, last) - 1, i_peak)])
        k, pairs = np.arange(len(y)), np.clip(j, 0, last - 1)
        y0, y1 = y[k, pairs], y[k, pairs + 1]
        brackets = ((y0 <= level) & (level <= y1)) | ((y0 >= level) & (level >= y1))
        rows = np.flatnonzero((brackets & (pairs == j)).all(axis=0))
        j, y0, y1, level = j[:, rows], y0[:, rows], y1[:, rows], level[rows]
        x0, x1 = x[rows, j], x[rows, j + 1]
        frac = np.divide(level - y0, y1 - y0, out=np.full(j.shape, 0.5), where=y1 != y0)
        crossings = x0 + frac * (x1 - x0)
        width[rows] = np.abs(crossings[1] - crossings[0])
    return width


def _peak_shape(x, y, lengths=None):
    """The highest sample of each row of a (K, n) y, as (height above the
    lowest sample, its x, the full width at half that height, the lowest
    sample). Row k holds its first ``lengths[k]`` samples (all n when None),
    padded past them by repeating its last x and y, which moves neither its
    lowest nor its first highest sample."""
    rows = np.arange(len(y))
    offset, i = y.min(axis=1), y.argmax(axis=1)
    height = y[rows, i] - offset
    width = _half_width(x, y, i, offset + height / 2.0, lengths)
    return np.stack([height, x[rows, i], width, offset], axis=-1)


def _lorentzian_init(x, y, lengths=None):
    p = _peak_shape(x, y, lengths)
    p[:, 2] = np.maximum(p[:, 2], 1e-12)
    return p


# -- gaussian ----------------------------------------------------------------

def _gaussian(x, p):
    amplitude, center, sigma, offset = _columns(p)
    return offset + amplitude * np.exp(-((x - center) ** 2) / (2.0 * (sigma * sigma)))


def _gaussian_jac(x, p):
    amplitude, center, sigma, _ = _columns(p)
    d = x - center
    sigma2 = sigma * sigma
    e = np.exp(-(d * d) / (2.0 * sigma2))
    J = np.empty(d.shape + (4,))
    J[..., 0] = e
    J[..., 1] = amplitude * e * d / sigma2
    J[..., 2] = amplitude * e * d * d / (sigma2 * sigma)
    J[..., 3] = 1.0
    return J


def _gaussian_init(x, y):
    p = _lorentzian_init(x, y)
    p[:, 2] = np.maximum(p[:, 2] / 2.3548, 1e-12)
    return p


# -- linear ------------------------------------------------------------------

def _linear(x, p):
    slope, intercept = _columns(p)
    return slope * x + intercept


def _linear_jac(x, p):
    J = np.empty(np.shape(x) + (2,))
    J[..., 0] = x
    J[..., 1] = 1.0
    return J


def _linear_init(x, y):
    if np.ptp(x) == 0.0:
        return np.array([0.0, float(np.mean(y))])
    slope, intercept = np.polyfit(x, y, 1)
    return np.array([slope, intercept])


# -- exponential decay -------------------------------------------------------

def _exponential_decay(t, p):
    amplitude, tau = _columns(p)
    # amplitude * exp(-t / tau), every step from the division on in y
    y = np.asarray(-t / tau)
    np.exp(y, out=y)
    np.multiply(amplitude, y, out=y)
    return y if y.ndim else y[()]


def _exponential_decay_jac(t, p):
    amplitude, tau = _columns(p)
    e = np.asarray(-t / tau)
    np.exp(e, out=e)
    s = amplitude * t
    s /= tau * tau
    J = np.empty(e.shape + (2,))
    J[..., 0] = e
    np.multiply(s, e, out=J[..., 1])
    return J


def _exponential_decay_init(t, y):
    # the Poisson log-likelihood is concave in (ln amplitude, 1/tau), so
    # counts whose centroid does not lie before the mean bin time have no
    # maximum at 1/tau > 0
    total = float(np.sum(y))
    if total > 0:
        centroid, middle = float(t @ y / total), float(t.mean())
        if centroid >= middle:
            raise FitQualityError(f"window is not decaying (count centroid {centroid:.4g} ns "
                                  f">= mean bin time {middle:.4g} ns)")
    pos = y > 0
    if np.count_nonzero(pos) >= 2:
        slope, loga = np.polyfit(t[pos], np.log(y[pos]), 1)
        if slope < 0:
            return np.array([float(np.exp(loga)), -1.0 / slope])
    span = t[-1] - t[0] if t[-1] > t[0] else 1.0
    return np.array([float(np.max(y)), span / 3.0])


# -- three-level g2 ----------------------------------------------------------

def _g2_three_level(t, p):
    c, beta, gamma1, gamma2, t0, plateau = _columns(p)
    u = np.abs(t - t0)
    shape = beta * np.exp(-gamma1 * u) + (beta - 1.0) * np.exp(-gamma2 * u)
    return plateau * (1.0 + c * shape)


def _g2_three_level_jac(t, p):
    c, beta, gamma1, gamma2, t0, plateau = _columns(p)
    u = np.abs(t - t0)
    e1 = np.exp(-gamma1 * u)
    e2 = np.exp(-gamma2 * u)
    shape = beta * e1 + (beta - 1.0) * e2
    J = np.empty(u.shape + (6,))
    J[..., 0] = plateau * shape
    J[..., 1] = plateau * c * (e1 + e2)
    J[..., 2] = -plateau * c * beta * u * e1
    J[..., 3] = -plateau * c * (beta - 1.0) * u * e2
    J[..., 4] = plateau * c * (beta * gamma1 * e1 + (beta - 1.0) * gamma2 * e2) * np.sign(t - t0)
    J[..., 5] = 1.0 + c * shape
    return J


def _g2_three_level_init(t, y):
    # plateau from the outer 20% of the delay range; dip or bunching extremum.
    # A dip recovering at gamma1 has negative contrast in this sign
    # convention: g2 = 1 - (dip+bump)*exp(-g1 u) + bump*exp(-g2 u).
    n_edge = max(2, t.size // 10)
    plateau = float(np.mean(np.concatenate([y[:n_edge], y[-n_edge:]])))
    plateau = plateau if plateau > 0 else 1.0
    yn = y / plateau
    i_min, i_max = int(np.argmin(yn)), int(np.argmax(yn))
    dip, bump = 1.0 - yn[i_min], yn[i_max] - 1.0
    if dip >= bump:
        t0 = float(t[i_min])
        # the start curve bottoms out at 1 - min(dip, 0.99) > 0: an expected
        # count of zero is off the Poisson model's domain
        fast_amp = min(max(dip, 1e-3), 0.99) + max(bump, 0.0)
        slow_amp = max(bump, 1e-3 * fast_amp)
        c = -(fast_amp + slow_amp)
        beta = fast_amp / (fast_amp + slow_amp)
        # the dip as the peak of -yn: negation is exact, so are its crossings
        i, peak, level = i_min, -yn, dip / 2.0 - 1.0
    else:
        t0 = float(t[i_max])
        beta = 2.0
        c = max(bump, 1e-3) / (2.0 * beta - 1.0)
        i, peak, level = i_max, yn, 1.0 + bump / 2.0
    (width,) = _half_width(t[None], peak[None], np.array([i]), np.array([level]))
    gamma1 = 1.0 / max(width, 1e-9)
    return np.array([c, beta, gamma1, gamma1 / 10.0, t0, plateau])


def _g2_derived(p):
    # g2 at zero delay, for a fit whose rates are ordered as the canonical
    # form orders them and whose contrast is not zero
    c, beta, gamma1, gamma2 = p[:4]
    if c == 0 or not gamma1 > gamma2 > 0:
        raise FitQualityError(
            "fit landed outside the valid parameter region: need contrast != 0 "
            f"and gamma1 > gamma2 > 0, got contrast {c:.4g}, rates {gamma1:.4g}, {gamma2:.4g}"
        )
    return {"g2_at_t0": float(1.0 + c * (2.0 * beta - 1.0))}


# -- saturation --------------------------------------------------------------

def _saturation(power, p):
    i_sat, p_sat = _columns(p)
    return i_sat * power / (p_sat + power)


def _saturation_jac(power, p):
    i_sat, p_sat = _columns(p)
    denom = p_sat + power
    J = np.empty(denom.shape + (2,))
    J[..., 0] = power / denom
    J[..., 1] = -i_sat * power / denom**2
    return J


def _saturation_init(power, y):
    i_sat = 1.2 * float(np.max(y))
    half = i_sat / 2.0
    above = np.nonzero(y >= half)[0]
    p_sat = float(power[above[0]]) if above.size else float(median(power))
    return np.array([i_sat, max(p_sat, 1e-9)])


# -- detuned purcell (lorentzian in relative detuning) -----------------------

def _detuned_purcell(x, p):
    peak, q, x0, offset = _columns(p)
    z = 2.0 * q * (x / x0 - 1.0)
    return peak / (1.0 + z * z) + offset


def _detuned_purcell_jac(x, p):
    peak, q, x0, _ = _columns(p)
    rel = x / x0 - 1.0
    z = 2.0 * q * rel
    denom = (1.0 + z * z) ** 2
    J = np.empty(z.shape + (4,))
    J[..., 0] = 1.0 / (1.0 + z * z)
    J[..., 1] = -peak * 2.0 * z * (2.0 * rel) / denom
    J[..., 2] = peak * 4.0 * q * z * x / (x0 * x0 * denom)
    J[..., 3] = 1.0
    return J


def _detuned_purcell_init(x, y):
    peak, x0, fwhm, offset = _peak_shape(x, y).T
    q = np.divide(x0, fwhm, out=np.full(np.shape(fwhm), 10.0), where=fwhm > 0)
    return np.stack([peak, np.maximum(q, 1.0), x0, offset], axis=-1)


def _row_by_row(init):
    # a start rule written for one problem, taken row by row over a stack; a
    # row it refuses is named by ``problem_index``, as in every stack refusal
    def starts(x, y):
        rows = []
        for k, (xk, yk) in enumerate(zip(x, y)):
            try:
                rows.append(init(xk, yk))
            except CavityLabError as exc:
                exc.problem_index = k
                raise
        return np.array(rows)

    return starts


def _abs_width(index):
    # the model depends on the width only through its square
    def canonical(p):
        q = p.copy()
        q[..., index] = np.abs(q[..., index])
        return q

    return canonical


def _g2_canonical(p):
    # relabeling the exponentials maps (c, beta, g1, g2) -> (-c, 1-beta, g2, g1)
    c, beta, g1, g2, t0, plateau = np.moveaxis(p, -1, 0)
    swap = g2 > g1
    relabelled = np.stack([-c, 1.0 - beta, g2, g1, t0, plateau], axis=-1)
    return np.where(swap[..., None], relabelled, p)


MODELS: dict[str, Model] = {
    m.name: m
    for m in [
        Model("lorentzian", ("amplitude", "center", "fwhm", "offset"),
              _lorentzian, _lorentzian_jac, _lorentzian_init, _abs_width(2)),
        Model("gaussian", ("amplitude", "center", "sigma", "offset"),
              _gaussian, _gaussian_jac, _gaussian_init, _abs_width(2)),
        Model("linear", ("slope", "intercept"),
              _linear, _linear_jac, _row_by_row(_linear_init)),
        Model("exponential_decay", ("amplitude", "tau"),
              _exponential_decay, _exponential_decay_jac, _row_by_row(_exponential_decay_init),
              noise="poisson"),
        Model("g2_three_level", ("contrast", "beta", "gamma1", "gamma2", "t0", "plateau"),
              _g2_three_level, _g2_three_level_jac, _row_by_row(_g2_three_level_init),
              _g2_canonical, noise="poisson", derived=_g2_derived),
        Model("saturation", ("i_sat", "p_sat"),
              _saturation, _saturation_jac, _row_by_row(_saturation_init),
              bounds=((1e-12, 1e-12), (np.inf, np.inf))),
        Model("detuned_purcell", ("peak", "q", "center", "offset"),
              _detuned_purcell, _detuned_purcell_jac, _detuned_purcell_init,
              _abs_width(1)),
    ]
}


def get_model(model_id: str) -> Model:
    try:
        return MODELS[model_id]
    except KeyError:
        raise ValidationError(
            f"unknown model {model_id!r}; registered: {sorted(MODELS)}"
        ) from None


def _model_and_params(model_id: str, params):
    model = get_model(model_id)
    params = np.asarray(params, dtype=float)
    if params.size != model.n_params:
        raise ValidationError(
            f"{model_id} expects {model.n_params} parameters, got {params.size}"
        )
    return model, params


def evaluate(model_id: str, params, x) -> np.ndarray:
    """Evaluate a registered model at abscissa ``x``."""
    model, params = _model_and_params(model_id, params)
    return model.fn(np.asarray(x, dtype=float), params)


def jacobian_matrix(model_id: str, params, x) -> np.ndarray:
    """Analytic partial derivatives, shape (len(x), n_params)."""
    model, params = _model_and_params(model_id, params)
    return model.jac(np.asarray(x, dtype=float), params)


def initial_params(model_id: str, x, y) -> np.ndarray:
    """Heuristic start values so batch pipelines can run unattended; (K, n)
    ``x`` and ``y`` give (K, P), row k the start of row k alone, and 1-D
    ``x`` and ``y`` give one start, taken as a stack of one."""
    model = get_model(model_id)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return model.init(x[None], y[None])[0] if y.ndim == 1 else model.init(x, y)


def param_names(model_id: str) -> tuple[str, ...]:
    return get_model(model_id).params
