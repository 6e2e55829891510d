"""Every physical number the optics, cqed and dataio functions take is
refused outside its domain by one check, with one message:
"<name> must be <domain>, got <value>". NaN and +inf lie outside every
domain; so does one finite value per domain. The sizes and seeds that the
generators and the bootstrap take are refused by the same check, as
integers from a least value."""

import functools
import math
import re
import threading

import numpy as np
import pytest

from cavitylab import cqed, fitkit, optics, synthlab
from cavitylab.dataio import SpectralMap
from cavitylab.errors import ValidationError, check_domain

GEOM = optics.CavityGeometry(24.0, 24.0, 3.75)
_WL = np.linspace(610.0, 612.0, 41)
# two frames of one noiseless resonance, 0.2 nm wide, drifting by 0.01 nm
_MAP = SpectralMap(wavelength_nm=_WL, counts=np.rint(
    5.0 + 100.0 / (1.0 + ((_WL - [[611.0], [611.01]]) / 0.1) ** 2)))
_POSITIVE, _NON_NEGATIVE, _FRACTION = "positive and finite", "non-negative and finite", "in (0, 1]"
# a finite value outside each domain
_FINITE_OUTSIDE = {_POSITIVE: 0.0, _NON_NEGATIVE: -1.0, _FRACTION: 1.5}

# (function, valid keyword arguments, domain of each of them)
_CALLS = [
    (cqed.CouplingRates,
     dict(g_ghz=1.0, kappa_ghz=15.0, gamma0_ghz=0.012, gamma_star_ghz=10.0), _NON_NEGATIVE),
    (cqed.purcell_measured, dict(tau0_ns=21.7, tau_p_ns=12.2), _POSITIVE),
    (cqed.purcell_theoretical,
     dict(lambda_c_nm=618.5, refractive_index=1.0, quality_factor=56400.0,
          mode_volume_lambda3=10.0), _POSITIVE),
    (cqed.epsilon_correction,
     dict(quantum_efficiency=0.8, debye_waller=0.56, branching=0.8), _FRACTION),
    (cqed.length_jitter_nm,
     dict(kappa_ghz=15.0, kappa_eff_ghz=160.0, lambda_nm=618.5, l_eff_um=3.75), _POSITIVE),
    (functools.partial(optics.mode_volume_lambda3, GEOM), dict(lambda_nm=618.5), _POSITIVE),
    (functools.partial(optics.beam_waist_um, GEOM), dict(wavelength_nm=618.5), _POSITIVE),
    (functools.partial(optics.mirror_spot_um, GEOM), dict(wavelength_nm=618.5), _POSITIVE),
    (optics.effective_length_from_adjacent_modes,
     dict(lambda_long_nm=620.0, lambda_short_nm=560.0), _POSITIVE),
    (functools.partial(optics.drift_series, _MAP), dict(l_eff_um=3.75), _POSITIVE),
    (functools.partial(SpectralMap, _MAP.wavelength_nm, _MAP.counts),
     dict(frame_period_s=60.0), _POSITIVE),
    (functools.partial(optics.cavity_figures, GEOM, m_det=12),
     dict(finesse=4600.0, lambda_c_nm=618.5), _POSITIVE),
    (functools.partial(optics.detect_peaks, _MAP.counts[0]), dict(rel_prominence=0.2),
     _NON_NEGATIVE),  # its signal: see _SIGNALS_OUTSIDE
    (optics.q_from_linewidth, dict(lambda_c_nm=618.5, kappa_ghz=160.0), _POSITIVE),
    (functools.partial(optics.cte_fit, np.arange(4.0), np.arange(4.0)),
     dict(reference_length_um=3.75), _POSITIVE),
    (functools.partial(optics.resonance_length, m=12, roc=24.0),
     dict(wavelength_nm=618.5), _POSITIVE),
    (functools.partial(optics.double_resonance_search, roc=24.0, l_range_um=(2.0, 6.0)),
     dict(lambda_exc_nm=533.3, lambda_det_nm=618.5, tolerance_um=0.025), _POSITIVE),
]


def _name(call):
    call = call.func if isinstance(call, functools.partial) else call
    return call.__name__


@pytest.mark.parametrize(
    "call, kwargs, name, domain, value",
    [
        pytest.param(call, kwargs, name, domain, value, id=f"{_name(call)}-{name}-{value}")
        for call, kwargs, domain in _CALLS
        for name in kwargs
        for value in (math.nan, math.inf, _FINITE_OUTSIDE[domain])
    ],
)
def test_a_value_outside_its_domain_is_refused_by_name(call, kwargs, name, domain, value):
    call(**kwargs)  # the valid arguments pass
    with pytest.raises(ValidationError) as err:
        call(**{**kwargs, name: value})
    assert str(err.value) == f"{name} must be {domain}, got {value}"


# detect_peaks' signal must be finite, with 5 (max - min) finite: the floor
# is 5 MAD, and the MAD is at most the span. The largest spans inside pass,
# and give find_peaks' answer, with no warning
_SIGNALS_OUTSIDE = {
    "overflowing span": [1e308, -1e308, 1e308, -1e308, 1e308],
    "overflowing 5 span": [0.0, 1e308, 0.0, 0.0, 0.0],
    "inf": [1.0, 3.0, math.inf, 3.0, 1.0],
    "-inf": [1.0, 3.0, -math.inf, 3.0, 1.0],
    "nan": [1.0, 3.0, math.nan, 3.0, 1.0],
}
_SIGNALS_INSIDE = [
    ([3e307, 0.0, 3e307, 0.0, 3e307], [2]),
    ([0.0, 3.5e307, 0.0, 0.0, 0.0], [1]),
    ([3e307, 0.0, 3.5e307, 0.0, 3e307], [2]),
]


@pytest.mark.parametrize("rel_prominence", [0.0, 0.2])
@pytest.mark.parametrize("signal", _SIGNALS_OUTSIDE.values(), ids=_SIGNALS_OUTSIDE.keys())
def test_detect_peaks_refuses_a_signal_outside_its_domain(signal, rel_prominence):
    with pytest.raises(ValidationError) as err:
        optics.detect_peaks(np.array(signal), rel_prominence=rel_prominence)
    assert str(err.value) == "signal must be finite, and 5 (max - min) must not overflow"


@pytest.mark.parametrize("rel_prominence", [0.0, 0.2])
@pytest.mark.parametrize("signal, peaks", _SIGNALS_INSIDE)
def test_detect_peaks_takes_the_largest_spans_inside(signal, peaks, rel_prominence):
    from scipy.signal import find_peaks

    y = np.array(signal)
    floor = max(5.0 * np.median(np.abs(y - np.median(y))), 1e-9 * (y.max() - y.min()))
    assert find_peaks(y, prominence=floor)[0].tolist() == peaks
    assert optics.detect_peaks(y, rel_prominence=rel_prominence).tolist() == peaks


@pytest.mark.parametrize("domain, inside, outside", [
    (_POSITIVE, [1e-320, 1.0, 1e308], [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]),
    (_NON_NEGATIVE, [0.0, -0.0, 1.0, 1e308], [-1e-320, math.inf, -math.inf, math.nan]),
    (_FRACTION, [1e-320, 0.5, 1.0], [0.0, 1.0 + 2**-52, -1.0, math.inf, math.nan]),
    ("an integer >= 1", [1, np.int64(2), 2**70], [0, -1, 1.0, True, np.bool_(True), math.nan]),
])
def test_check_domain_bounds(domain, inside, outside):
    check_domain(domain, **{f"v{i}": v for i, v in enumerate(inside)})
    for value in outside:
        with pytest.raises(ValidationError, match=f"^x must be {re.escape(domain)}, got"):
            check_domain(domain, ok=inside[0], x=value)


_LINE = fitkit.FitProblem(model_id="linear", x=np.arange(8.0), y=np.arange(8.0) % 3)

# (function, valid keyword arguments, least value of each): a size or a
# seed, refused with the same check before the function does any work
_COUNT_CALLS = [
    (synthlab.generate_wled_map, dict(n_frames=1, n_pixels=2, seed=0), (1, 2, 0)),
    (synthlab.generate_drift_map, dict(n_frames=2, n_pixels=2, seed=0), (2, 2, 0)),
    (synthlab.generate_scan_pair, dict(n_samples=2, seed=0), (2, 0)),
    (functools.partial(synthlab.vibration_broadening_sim, 15.0, 0.5),
     dict(n_samples=1, seed=0), (1, 0)),
    (functools.partial(synthlab.preset, "lifetime_4k"), dict(seed=0), (0,)),
    (functools.partial(fitkit.bootstrap_uncertainty, _LINE, fitkit.fit(_LINE)),
     dict(n_resamples=2, seed=0), (2, 0)),
]


@pytest.mark.parametrize(
    "call, kwargs, name, least, value",
    [
        pytest.param(call, kwargs, name, least, value, id=f"{_name(call)}-{name}-{value}")
        for call, kwargs, leasts in _COUNT_CALLS
        for name, least in zip(kwargs, leasts)
        for value in (least - 1, -2, least + 0.5, float(least), True)
    ],
)
def test_a_size_or_seed_outside_its_domain_is_refused_by_name(call, kwargs, name, least, value):
    call(**kwargs)  # the least values pass
    call(**{**kwargs, name: np.int64(kwargs[name])})  # as does a numpy integer
    threads = threading.active_count()
    with pytest.raises(ValidationError) as err:
        call(**{**kwargs, name: value})
    assert str(err.value) == f"{name} must be an integer >= {least}, got {value}"
    assert threading.active_count() == threads
