"""Registered fit models: evaluation, analytic Jacobians and initial guesses.

Every model used anywhere in the toolkit lives here so the fit engine, the
synthetic-data generators and the pipelines all evaluate exactly the same
expressions. Parameter vectors are plain 1-D float arrays in the documented
order.

Models
------
``lorentzian``        offset + amplitude * (w/2)^2 / ((x-center)^2 + (w/2)^2)
``gaussian``          offset + amplitude * exp(-(x-center)^2 / (2 sigma^2))
``linear``            slope * x + intercept
``exponential_decay`` amplitude * exp(-t / tau)
``g2_three_level``    1 + c*(beta*exp(-g1|t-t0|) + (beta-1)*exp(-g2|t-t0|))
``saturation``        i_sat * P / (p_sat + P)
``detuned_purcell``   peak / (1 + (2 Q (x/x0 - 1))^2) + offset
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = ["MODELS", "Model", "evaluate", "initial_params", "jacobian_matrix", "param_names"]


@dataclass(frozen=True)
class Model:
    """A registered model; ``bounds`` has one (lo, hi) pair per parameter (None: open),
    ``noise`` is "gaussian" (weighted least squares) or "poisson" (count likelihood)."""

    name: str
    params: tuple[str, ...]
    fn: Callable
    jac: Callable
    init: Callable
    canonical: Callable = staticmethod(lambda p: p)
    bounds: tuple | None = None
    noise: str = "gaussian"

    @property
    def n_params(self) -> int:
        return len(self.params)


# -- lorentzian --------------------------------------------------------------

def _lorentzian(x, p):
    amplitude, center, fwhm, offset = p
    h = (fwhm / 2.0) ** 2
    return offset + amplitude * h / ((x - center) ** 2 + h)


def _lorentzian_jac(x, p):
    amplitude, center, fwhm, _ = p
    d = x - center
    h = (fwhm / 2.0) ** 2
    denom = d * d + h
    J = np.empty((x.size, 4))
    J[:, 0] = h / denom
    J[:, 1] = amplitude * h * 2.0 * d / denom**2
    J[:, 2] = amplitude * (fwhm / 2.0) * d * d / denom**2
    J[:, 3] = 1.0
    return J


def _half_width(x, y, i_peak, level) -> float:
    """Full width of y around index i_peak at the given level, by interpolation."""
    left = right = None
    for j in range(i_peak, 0, -1):
        if y[j - 1] <= level <= y[j] or y[j - 1] >= level >= y[j]:
            frac = (level - y[j - 1]) / (y[j] - y[j - 1]) if y[j] != y[j - 1] else 0.5
            left = x[j - 1] + frac * (x[j] - x[j - 1])
            break
    for j in range(i_peak, len(y) - 1):
        if y[j + 1] <= level <= y[j] or y[j + 1] >= level >= y[j]:
            frac = (level - y[j]) / (y[j + 1] - y[j]) if y[j + 1] != y[j] else 0.5
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    if left is None or right is None:
        span = abs(x[-1] - x[0])
        return span / 10.0 if span else 1.0
    return abs(right - left)


def _lorentzian_init(x, y):
    offset = float(np.min(y))
    i = int(np.argmax(y))
    amplitude = float(y[i] - offset)
    center = float(x[i])
    fwhm = _half_width(x, y, i, offset + amplitude / 2.0)
    return np.array([amplitude, center, max(fwhm, 1e-12), offset])


# -- gaussian ----------------------------------------------------------------

def _gaussian(x, p):
    amplitude, center, sigma, offset = p
    return offset + amplitude * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


def _gaussian_jac(x, p):
    amplitude, center, sigma, _ = p
    d = x - center
    e = np.exp(-(d * d) / (2.0 * sigma**2))
    J = np.empty((x.size, 4))
    J[:, 0] = e
    J[:, 1] = amplitude * e * d / sigma**2
    J[:, 2] = amplitude * e * d * d / sigma**3
    J[:, 3] = 1.0
    return J


def _gaussian_init(x, y):
    p = _lorentzian_init(x, y)
    return np.array([p[0], p[1], max(p[2] / 2.3548, 1e-12), p[3]])


# -- linear ------------------------------------------------------------------

def _linear(x, p):
    return p[0] * x + p[1]


def _linear_jac(x, p):
    J = np.empty((x.size, 2))
    J[:, 0] = x
    J[:, 1] = 1.0
    return J


def _linear_init(x, y):
    if np.ptp(x) == 0.0:
        return np.array([0.0, float(np.mean(y))])
    slope, intercept = np.polyfit(x, y, 1)
    return np.array([slope, intercept])


# -- exponential decay -------------------------------------------------------

def _exponential_decay(t, p):
    amplitude, tau = p
    return amplitude * np.exp(-t / tau)


def _exponential_decay_jac(t, p):
    amplitude, tau = p
    e = np.exp(-t / tau)
    J = np.empty((t.size, 2))
    J[:, 0] = e
    J[:, 1] = amplitude * t / tau**2 * e
    return J


def _exponential_decay_init(t, y):
    pos = y > 0
    if np.count_nonzero(pos) >= 2:
        slope, loga = np.polyfit(t[pos], np.log(y[pos]), 1)
        if slope < 0:
            return np.array([float(np.exp(loga)), -1.0 / slope])
    span = t[-1] - t[0] if t[-1] > t[0] else 1.0
    return np.array([float(np.max(y)), span / 3.0])


# -- three-level g2 ----------------------------------------------------------

def _g2_three_level(t, p):
    c, beta, gamma1, gamma2, t0 = p
    u = np.abs(t - t0)
    return 1.0 + c * (beta * np.exp(-gamma1 * u) + (beta - 1.0) * np.exp(-gamma2 * u))


def _g2_three_level_jac(t, p):
    c, beta, gamma1, gamma2, t0 = p
    u = np.abs(t - t0)
    e1 = np.exp(-gamma1 * u)
    e2 = np.exp(-gamma2 * u)
    J = np.empty((t.size, 5))
    J[:, 0] = beta * e1 + (beta - 1.0) * e2
    J[:, 1] = c * (e1 + e2)
    J[:, 2] = -c * beta * u * e1
    J[:, 3] = -c * (beta - 1.0) * u * e2
    J[:, 4] = c * (beta * gamma1 * e1 + (beta - 1.0) * gamma2 * e2) * np.sign(t - t0)
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
        fast_amp = max(dip, 1e-3) + max(bump, 0.0)
        slow_amp = max(bump, 1e-3 * fast_amp)
        c = -(fast_amp + slow_amp)
        beta = fast_amp / (fast_amp + slow_amp)
        width = _half_width(t, yn, i_min, 1.0 - dip / 2.0)
    else:
        t0 = float(t[i_max])
        beta = 2.0
        c = max(bump, 1e-3) / (2.0 * beta - 1.0)
        width = _half_width(t, yn, i_max, 1.0 + bump / 2.0)
    gamma1 = 1.0 / max(width, 1e-9)
    return np.array([c, beta, gamma1, gamma1 / 10.0, t0])


# -- saturation --------------------------------------------------------------

def _saturation(power, p):
    i_sat, p_sat = p
    return i_sat * power / (p_sat + power)


def _saturation_jac(power, p):
    i_sat, p_sat = p
    denom = p_sat + power
    J = np.empty((power.size, 2))
    J[:, 0] = power / denom
    J[:, 1] = -i_sat * power / denom**2
    return J


def _saturation_init(power, y):
    i_sat = 1.2 * float(np.max(y))
    half = i_sat / 2.0
    above = np.nonzero(y >= half)[0]
    p_sat = float(power[above[0]]) if above.size else float(np.median(power))
    return np.array([i_sat, max(p_sat, 1e-9)])


# -- detuned purcell (lorentzian in relative detuning) -----------------------

def _detuned_purcell(x, p):
    peak, q, x0, offset = p
    z = 2.0 * q * (x / x0 - 1.0)
    return peak / (1.0 + z * z) + offset


def _detuned_purcell_jac(x, p):
    peak, q, x0, _ = p
    rel = x / x0 - 1.0
    z = 2.0 * q * rel
    denom = (1.0 + z * z) ** 2
    J = np.empty((x.size, 4))
    J[:, 0] = 1.0 / (1.0 + z * z)
    J[:, 1] = -peak * 2.0 * z * (2.0 * rel) / denom
    J[:, 2] = peak * 4.0 * q * z * x / (x0**2 * denom)
    J[:, 3] = 1.0
    return J


def _detuned_purcell_init(x, y):
    offset = float(np.min(y))
    i = int(np.argmax(y))
    peak = float(y[i] - offset)
    x0 = float(x[i])
    fwhm = _half_width(x, y, i, offset + peak / 2.0)
    q = x0 / fwhm if fwhm > 0 else 10.0
    return np.array([peak, max(q, 1.0), x0, offset])


def _abs_width(index):
    # the model depends on the width only through its square
    def canonical(p):
        q = p.copy()
        q[index] = abs(q[index])
        return q

    return canonical


def _g2_canonical(p):
    # relabeling the exponentials maps (c, beta, g1, g2) -> (-c, 1-beta, g2, g1)
    c, beta, g1, g2, t0 = p
    if g2 > g1:
        return np.array([-c, 1.0 - beta, g2, g1, t0])
    return p


MODELS: dict[str, Model] = {
    m.name: m
    for m in [
        Model("lorentzian", ("amplitude", "center", "fwhm", "offset"),
              _lorentzian, _lorentzian_jac, _lorentzian_init, _abs_width(2)),
        Model("gaussian", ("amplitude", "center", "sigma", "offset"),
              _gaussian, _gaussian_jac, _gaussian_init, _abs_width(2)),
        Model("linear", ("slope", "intercept"), _linear, _linear_jac, _linear_init),
        Model("exponential_decay", ("amplitude", "tau"),
              _exponential_decay, _exponential_decay_jac, _exponential_decay_init,
              noise="poisson"),
        Model("g2_three_level", ("contrast", "beta", "gamma1", "gamma2", "t0"),
              _g2_three_level, _g2_three_level_jac, _g2_three_level_init, _g2_canonical),
        Model("saturation", ("i_sat", "p_sat"),
              _saturation, _saturation_jac, _saturation_init,
              bounds=((1e-12, None), (1e-12, None))),
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


def evaluate(model_id: str, params, x) -> np.ndarray:
    """Evaluate a registered model at abscissa ``x``."""
    model = get_model(model_id)
    params = np.asarray(params, dtype=float)
    if params.size != model.n_params:
        raise ValidationError(
            f"{model_id} expects {model.n_params} parameters, got {params.size}"
        )
    return model.fn(np.asarray(x, dtype=float), params)


def jacobian_matrix(model_id: str, params, x) -> np.ndarray:
    """Analytic partial derivatives, shape (len(x), n_params)."""
    model = get_model(model_id)
    params = np.asarray(params, dtype=float)
    if params.size != model.n_params:
        raise ValidationError(
            f"{model_id} expects {model.n_params} parameters, got {params.size}"
        )
    return model.jac(np.asarray(x, dtype=float), params)


def initial_params(model_id: str, x, y) -> np.ndarray:
    """Heuristic start values so batch pipelines can run unattended."""
    model = get_model(model_id)
    return model.init(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def param_names(model_id: str) -> tuple[str, ...]:
    return get_model(model_id).params
