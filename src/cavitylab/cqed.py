"""Purcell-enhancement budget and coupling-regime classification.

Links the cavity figures from :mod:`cavitylab.optics` with the emitter
properties from :mod:`cavitylab.photophysics` into one audited chain:

    f_cav_ideal -> spatially corrected -> vibration limited
    f_measured  -> epsilon corrected  -> alignment factor

:func:`budget_report` returns that chain as the report's step list, each
step with its value, formula and inputs.

Conventions: the vibration-limited ceiling uses the quality factor implied
by the effective (vibration-broadened) linewidth, q_vib = nu_c / kappa_exp,
and includes the spatial penalty of the emitter position, so the residual
``alignment`` isolates the dipole-orientation mismatch.

Every value the chain computes, the ideal and degraded Q and the mode
volume included, must come out a finite positive number. Otherwise (an
overflow, an underflow to 0 or a division by zero) the budget raises
:class:`~cavitylab.errors.NumericalError` naming the value and what it was
computed from, before any step's input domain check sees it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import NumericalError, ValidationError, check_domain
from .optics import C_NM_GHZ, CavityGeometry, mode_volume_lambda3, q_from_linewidth

__all__ = [
    "CouplingRates",
    "bad_emitter_purcell",
    "budget_report",
    "check_q_sources",
    "epsilon_correction",
    "length_jitter_nm",
    "purcell_measured",
    "purcell_theoretical",
    "q_from_linewidth",
    "regime_classify",
    "spatial_correction",
]


@dataclass(frozen=True)
class CouplingRates:
    """Emitter-cavity rate triple (all GHz).

    ``gamma0`` is the lifetime-limited linewidth and ``gamma_star`` the pure
    dephasing rate; the total emitter linewidth is their sum.
    """

    g_ghz: float
    kappa_ghz: float
    gamma0_ghz: float
    gamma_star_ghz: float = 0.0

    def __post_init__(self):
        check_domain("non-negative and finite", g_ghz=self.g_ghz, kappa_ghz=self.kappa_ghz,
                     gamma0_ghz=self.gamma0_ghz, gamma_star_ghz=self.gamma_star_ghz)

    @property
    def gamma_total_ghz(self) -> float:
        return self.gamma0_ghz + self.gamma_star_ghz


def purcell_measured(tau0_ns: float, tau_p_ns: float) -> float:
    """Lifetime ratio free-space / cavity-modified.

    Values below 1 (inhibition) are allowed; callers flag them in reports.
    """
    check_domain("positive and finite", tau0_ns=tau0_ns, tau_p_ns=tau_p_ns)
    return tau0_ns / tau_p_ns


def purcell_theoretical(
    lambda_c_nm: float, refractive_index: float, quality_factor: float,
    mode_volume_lambda3: float,
) -> float:
    """Ideal on-resonance enhancement 3/(4 pi^2) * (lambda/n)^3 * Q/V.

    ``mode_volume_lambda3`` is the mode volume in units of the vacuum
    wavelength cubed, so for n = 1 the expression reduces to
    3 Q / (4 pi^2 V).
    """
    check_domain("positive and finite", lambda_c_nm=lambda_c_nm,
                 refractive_index=refractive_index, quality_factor=quality_factor,
                 mode_volume_lambda3=mode_volume_lambda3)
    return (
        3.0 / (4.0 * math.pi**2)
        * quality_factor
        / (mode_volume_lambda3 * refractive_index**3)
    )


def spatial_correction(geom: CavityGeometry) -> float:
    """Coupling reduction (w0/w(L))^2 for an emitter on the curved mirror.

    For the plano-concave Gaussian mode the ratio of the waist and
    mirror-spot expressions is 1 - L/ROC at any wavelength, so that closed
    form is returned.
    """
    return 1.0 - geom.l_eff_um / geom.roc_um


def epsilon_correction(
    quantum_efficiency: float, debye_waller: float, branching: float = 1.0
) -> float:
    """Fraction of decays feeding the cavity-coupled zero-phonon transition.

    Product of quantum efficiency, Debye-Waller factor and (optionally) the
    branching ratio; pass ``branching=1`` when the transition of interest
    carries the full zero-phonon emission.
    """
    check_domain("in (0, 1]", quantum_efficiency=quantum_efficiency,
                 debye_waller=debye_waller, branching=branching)
    return quantum_efficiency * debye_waller * branching


def length_jitter_nm(
    kappa_ghz: float, kappa_eff_ghz: float, lambda_nm: float, l_eff_um: float
) -> float:
    """RMS length jitter (nm) that broadens a kappa line to kappa_eff.

    A Gaussian length jitter sigma_L spreads the resonance over
    sigma_nu = nu * sigma_L / L, which makes the averaged line a Voigt
    profile. This inverts the Olivero-Longbothum width
    f_V = 0.5346 f_L + sqrt(0.2166 f_L^2 + f_G^2) (JQSRT 17, 233 (1977);
    within 2.4e-4 of the exact width) for f_G = 2 sqrt(2 ln 2) sigma_nu.
    The radicand is clamped at zero: the fit's constants make it slightly
    negative when kappa_eff is close to kappa.
    """
    check_domain("positive and finite", kappa_ghz=kappa_ghz, kappa_eff_ghz=kappa_eff_ghz,
                 lambda_nm=lambda_nm, l_eff_um=l_eff_um)
    if not kappa_ghz < kappa_eff_ghz:
        raise ValidationError(f"need kappa < kappa_eff, got {kappa_ghz} >= {kappa_eff_ghz}")
    f_gauss = math.sqrt(max((kappa_eff_ghz - 0.5346 * kappa_ghz) ** 2
                            - 0.2166 * kappa_ghz**2, 0.0))
    sigma_nu = f_gauss / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return sigma_nu * lambda_nm / C_NM_GHZ * l_eff_um * 1000.0


def regime_classify(rates: CouplingRates) -> str:
    """Coupling-regime label from the rate ordering.

    ``strong`` when g exceeds both decay rates; otherwise ``boundary`` when
    kappa and gamma agree within 10% of the larger,
    else ``bad_emitter`` (gamma > kappa) or ``bad_cavity`` (kappa > gamma).
    The label depends only on rate ratios.
    """
    gamma = rates.gamma_total_ghz
    kappa = rates.kappa_ghz
    g = rates.g_ghz
    if g > kappa and g > gamma:
        return "strong"
    scale = max(kappa, gamma)
    if scale == 0 or abs(kappa - gamma) <= 0.1 * scale:
        return "boundary"
    return "bad_emitter" if gamma > kappa else "bad_cavity"


def bad_emitter_purcell(rates: CouplingRates) -> float:
    """Enhancement estimate 4g^2/(kappa + gamma0) * kappa/gamma* valid when
    dephasing dominates (gamma* >> kappa, g)."""
    if rates.gamma_star_ghz <= 0:
        raise ValidationError(
            "bad-emitter approximation requires a positive dephasing rate"
        )
    return (
        4.0 * rates.g_ghz**2 / (rates.kappa_ghz + rates.gamma0_ghz)
        * rates.kappa_ghz / rates.gamma_star_ghz
    )


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------


# (name, formula_ref, names of the values the step lists as inputs), in
# report order; every name is a key of the value map ``budget_report`` builds
_BUDGET_STEPS = (
    ("f_cav_ideal", "3/(4*pi^2) * (lambda/n)^3 * Q/V", ("q_used",)),
    ("spatial_factor", "1 - L/ROC", ()),
    ("f_cav_corrected", "f_cav_ideal * spatial_factor", ("f_cav_ideal", "spatial_factor")),
    ("f_vib", "3/(4*pi^2) * (lambda/n)^3 * q_vib/V * spatial_factor",
     ("q_vib", "spatial_factor")),
    ("f_measured", "tau0 / tau_p", ("inhibited",)),
    ("epsilon", "quantum_efficiency * debye_waller * branching", ()),
    ("f_zpl", "f_measured / epsilon", ("f_measured", "epsilon")),
    ("alignment", "f_zpl / f_vib", ("f_zpl", "f_vib")),
    ("alignment_dipole", "sqrt(f_zpl / f_vib)", ("alignment",)),
    ("f_fp", "background term (0 unless fitted from detuning data)", ()),
)


def check_q_sources(inputs: dict) -> None:
    """Refuse inputs that do not give each quality factor by exactly one
    source: the ideal Q by ``q_ideal`` or by both ``finesse`` and ``m_det``,
    the vibration-degraded Q by ``q_exp`` or ``kappa_exp_ghz``. ``inputs``
    holds these five values (None where not given) in that order, each keyed
    by the name a message gives it; one ValidationError names every fault.
    """
    (q_ideal, q), (finesse, f), (m_det, m), (q_exp, qe), (kappa, k) = inputs.items()
    faults = []
    if q is None and (f is None or m is None):
        faults.append(f"provide {q_ideal} or both {finesse} and {m_det}")
    elif q is not None and (f is not None or m is not None):
        faults.append(f"{q_ideal} and {finesse}/{m_det} both give the ideal Q: provide one")
    if qe is None and k is None:
        faults.append(f"provide {q_exp} or {kappa}")
    elif qe is not None and k is not None:
        faults.append(f"{q_exp} and {kappa} both give the degraded Q: provide one")
    if faults:
        raise ValidationError("; ".join(faults))


def _checked(name: str, compute, **operands) -> float:
    """Budget value ``name``, ``compute(*operands.values())``: a
    NumericalError names it and its operands when the computation overflows
    or divides by zero, or when the value is not finite and positive."""
    try:
        value = compute(*operands.values())
    except OverflowError:
        fault = "overflows"
    except ZeroDivisionError:
        fault = "divides by zero"
    else:
        if 0 < value < math.inf:
            return value
        fault = f"is {value!r}, not a finite positive number"
    given = ", ".join(f"{key}={x!r}" for key, x in operands.items())
    raise NumericalError(f"purcell budget: {name} {fault} ({given})")


def budget_report(
    tau0_ns: float,
    tau_p_ns: float,
    quantum_efficiency: float,
    debye_waller: float,
    geom: CavityGeometry,
    lambda_c_nm: float,
    branching: float = 1.0,
    q_ideal: float | None = None,
    finesse: float | None = None,
    m_det: int | None = None,
    kappa_exp_ghz: float | None = None,
    q_exp: float | None = None,
    f_fp: float = 0.0,
) -> list[dict]:
    """The enhancement chain as report steps {name, value, formula_ref, inputs}.

    The ideal quality factor comes from ``q_ideal`` or ``m_det * finesse``,
    the vibration-degraded one from ``q_exp`` or the effective linewidth
    ``kappa_exp_ghz``: exactly one source each, as :func:`check_q_sources`
    requires. The mode volume comes from the geometry at ``lambda_c_nm``,
    the spatial factor from the geometry alone. ``alignment_dipole``, the
    square root of the alignment ratio, is a secondary quantity.
    """
    check_q_sources({"q_ideal": q_ideal, "finesse": finesse, "m_det": m_det,
                     "q_exp": q_exp, "kappa_exp_ghz": kappa_exp_ghz})
    if q_ideal is None:
        q_ideal = _checked("q_ideal", operator.mul, m_det=m_det, finesse=finesse)
    if q_exp is None:
        q_exp = _checked("q_vib", q_from_linewidth,
                         lambda_c_nm=lambda_c_nm, kappa_ghz=kappa_exp_ghz)
    volume = _checked("mode_volume", mode_volume_lambda3, geom=geom, lambda_nm=lambda_c_nm)
    n = geom.refractive_index
    v = {"q_used": q_ideal, "q_vib": q_exp, "f_fp": f_fp}
    v["f_cav_ideal"] = _checked("f_cav_ideal", purcell_theoretical, lambda_c_nm=lambda_c_nm,
                                refractive_index=n, q_used=q_ideal, mode_volume=volume)
    v["spatial_factor"] = spatial = _checked("spatial_factor", spatial_correction, geom=geom)
    v["f_cav_corrected"] = _checked("f_cav_corrected", operator.mul,
                                    f_cav_ideal=v["f_cav_ideal"], spatial_factor=spatial)
    v["f_vib"] = _checked(
        "f_vib", lambda lam, n, q, vol, spatial: purcell_theoretical(lam, n, q, vol) * spatial,
        lambda_c_nm=lambda_c_nm, refractive_index=n, q_vib=q_exp, mode_volume=volume,
        spatial_factor=spatial)
    v["f_measured"] = _checked("f_measured", purcell_measured, tau0_ns=tau0_ns, tau_p_ns=tau_p_ns)
    v["inhibited"] = v["f_measured"] < 1.0
    v["epsilon"] = _checked("epsilon", epsilon_correction, quantum_efficiency=quantum_efficiency,
                            debye_waller=debye_waller, branching=branching)
    v["f_zpl"] = _checked("f_zpl", operator.truediv,
                          f_measured=v["f_measured"], epsilon=v["epsilon"])
    v["alignment"] = _checked("alignment", operator.truediv, f_zpl=v["f_zpl"], f_vib=v["f_vib"])
    v["alignment_dipole"] = math.sqrt(v["alignment"])
    return [
        {"name": name, "value": v[name], "formula_ref": ref,
         "inputs": {key: v[key] for key in inputs}}
        for name, ref, inputs in _BUDGET_STEPS
    ]
