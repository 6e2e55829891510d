"""The numpy peak detector returns scipy's ``find_peaks`` indices exactly.

``detect_peaks`` must equal ``find_peaks(signal, prominence=floor)`` followed
by the relative-prominence cut, and the batched strongest-peak search over a
map's rows must pick what ``detect_peaks(row)[argmax]`` picks. scipy is the
oracle here and is imported only inside these tests.
"""

import numpy as np
import pytest

from cavitylab import optics, synthlab


def _floor(y):
    median = np.median(y)
    return max(5.0 * np.median(np.abs(y - median)), 1e-9 * (y.max() - y.min()))


def _scipy_peaks(y, rel_prominence=0.0):
    from scipy.signal import find_peaks

    peaks, props = find_peaks(y, prominence=_floor(y))
    if rel_prominence > 0.0 and peaks.size:
        peaks = peaks[props["prominences"] >= rel_prominence * props["prominences"].max()]
    return peaks


def _signals():
    """(family, signal) pairs, all seeded."""
    rng = np.random.Generator(np.random.Philox(12))
    out = []
    for seed in (41, 112, 300):  # 112 has two equal maxima on one resonance
        out += [("ramp", t.signal) for t in synthlab.generate_scan_pair(seed=seed)]
    for seed in (300, 311):
        drift_map, _ = synthlab.generate_drift_map(seed=seed)
        out += [("drift row", row) for row in drift_map.counts_matrix()]
    for _ in range(300):
        n = int(rng.integers(3, 80))
        # few distinct values: many flat tops, some reaching an edge
        out.append(("flat tops", rng.integers(0, 4, n).astype(float)))
        out.append(("flat tops", np.repeat(rng.poisson(3.0, n), rng.integers(1, 5, n)).astype(float)))
        # the highest sample at either edge
        y = rng.poisson(20.0, n).astype(float)
        y[0 if rng.random() < 0.5 else -1] = y.max() + rng.integers(0, 3)
        out.append(("edge maximum", y))
        # a staircase of rounded steps on a large offset of either sign
        walk = np.round(rng.normal(size=n).cumsum(), 1)
        out.append(("offset walk", walk + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 9)))
        out.append(("noise", rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)))
        out.append(("constant", np.full(n, rng.uniform(-5.0, 5.0))))
    # the peak's height above the lowest sample, 2**53 + 3, rounds up to the
    # floor, 5 MAD = 2**53 + 4; the rounded sum lowest + floor lies above it
    x = 1801439850948198.0
    out.append(("rounded floor", np.array([-1.0, 2.0**53 + 2.0, -1.0, x, x])))
    for n in (1, 2):
        for _ in range(20):
            out.append((f"{n} samples", rng.poisson(5.0, n).astype(float)))
    return out


@pytest.mark.parametrize("rel_prominence", [0.0, 0.2])
def test_detect_peaks_equals_find_peaks(rel_prominence):
    signals = _signals()
    assert len(signals) >= 2000
    assert sum(family == "ramp" and y.size == 120_000 for family, y in signals) == 6
    for i, (family, y) in enumerate(signals):
        expected = _scipy_peaks(y, rel_prominence)
        found = optics.detect_peaks(y, rel_prominence=rel_prominence)
        assert np.array_equal(found, expected), (i, family, found[:8], expected[:8])


def test_strongest_peak_of_each_row_is_detect_peaks_argmax():
    rng = np.random.Generator(np.random.Philox(3))
    maps = [synthlab.generate_drift_map(seed=seed)[0].counts_matrix() for seed in (300, 321, 329)]
    # a row with two equal strongest peaks, a row with none, a flat-topped row
    rows = rng.poisson(20.0, (3, 50)).astype(float)
    rows[0, [10, 30]] = 500.0
    rows[1] = 7.0
    rows[2, 20:24] = 300.0
    maps.append(rows)
    for counts in maps:
        strongest, medians = optics._strongest_peaks(counts)
        for row, peak, median in zip(counts, strongest, medians):
            peaks = _scipy_peaks(row)
            assert peak == (peaks[np.argmax(row[peaks])] if peaks.size else -1)
            assert median == np.median(row)
    assert optics._strongest_peaks(rows)[0].tolist() == [10, -1, 21]
