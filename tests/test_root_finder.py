"""The in-package Brent solver returns scipy's ``brentq`` root bit for bit.

scipy is the oracle here and is imported only inside these tests.
"""

import math

import numpy as np
import pytest

from cavitylab import optics, synthlab
from cavitylab.optics import brent_root


def _recorded_calls(monkeypatch, module):
    """Patch ``module.brent_root`` to record every (f, a, b, kwargs, root)."""
    calls = []

    def recording(f, a, b, **kwargs):
        root = brent_root(f, a, b, **kwargs)
        calls.append((f, a, b, kwargs, root))
        return root

    monkeypatch.setattr(module, "brent_root", recording)
    return calls


def test_resonance_length_roots_match_brentq(monkeypatch):
    from scipy.optimize import brentq

    calls = _recorded_calls(monkeypatch, optics)
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(1200):
        wavelength_nm = rng.uniform(400.0, 1000.0)
        roc_um = rng.uniform(5.0, 100.0)
        m_max = math.floor(2000.0 * roc_um / wavelength_nm - 0.5)
        optics.resonance_length(wavelength_nm, int(rng.integers(1, m_max + 1)), roc_um)
    assert len(calls) == 1200
    for f, a, b, kwargs, root in calls:
        assert kwargs == {"xtol": 1e-13, "rtol": 8.9e-16}
        assert brentq(f, a, b, **kwargs) == root


@pytest.mark.parametrize("jitter_nm", [0.05, 0.2, 1.0])
def test_half_maximum_crossings_match_brentq(monkeypatch, jitter_nm):
    from scipy.optimize import brentq

    calls = _recorded_calls(monkeypatch, synthlab)
    synthlab.vibration_broadening_sim(50.0, jitter_nm, n_samples=20_000, seed=3)
    assert len(calls) == 2
    for f, a, b, kwargs, root in calls:
        assert brentq(f, a, b, **kwargs) == root


def test_same_sign_bracket_and_endpoint_roots_match_brentq():
    from scipy.optimize import brentq

    def f(x):
        return x * x - 2.0

    for solver in (brentq, brent_root):
        with pytest.raises(ValueError):
            solver(f, 2.0, 3.0)
        assert solver(f, -1.0, 2.0) == brentq(f, -1.0, 2.0)
        assert solver(lambda x: x - 1.0, 1.0, 4.0) == 1.0
        assert solver(lambda x: x - 1.0, -3.0, 1.0) == 1.0
