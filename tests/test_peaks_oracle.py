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


def _median_formula(rows):
    """Median and peak floor of each row by ``np.median``, one row at a time:
    the oracle of the counting path in ``optics._peak_floors``."""
    with np.errstate(invalid="ignore"):  # inf - inf in an inf row's deviations and span
        medians = np.array([np.median(row) for row in rows])
        mads = np.array([np.median(np.abs(row - m)) for row, m in zip(rows, medians)])
        return medians, np.maximum(5.0 * mads, 1e-9 * (rows.max(axis=1) - rows.min(axis=1)))


def _floor_batches():
    """Seeded (name, (K, n) batch) pairs: small whole counts, ties, signed
    zeros, fractions, wide spans, NaN, +-inf and whole numbers near 2**52."""
    rng = np.random.Generator(np.random.Philox(29))
    out = [("ramp", synthlab.generate_scan_pair(seed=43)[0].signal[None, :])]
    for n in (1, 2, 3, 4, 7, 8, 51, 400, 401):
        for k in (1, 6):
            out.append((f"poisson {n}", rng.poisson(rng.uniform(1, 40), (k, n)) + 1.0))
            out.append((f"ties {n}", rng.integers(1, 4, (k, n)).astype(float)))
            out.append((f"signed {n}", rng.integers(-9, 9, (k, n)) + 0.0))
            out.append((f"equal {n}", np.full((k, n), 7.0)))
            out.append((f"zero {n}", np.zeros((k, n))))
            signed_zeros = rng.choice([-0.0, 0.0, 1.0, 2.0], (k, n), p=[0.4, 0.3, 0.2, 0.1])
            out.append((f"-0.0 {n}", signed_zeros))
            out.append((f"fraction {n}", rng.poisson(5.0, (k, n)) + 0.5))
            if n > 1:
                wide = rng.poisson(5.0, (k, n)).astype(float)
                wide[:, -1] = 10.0 * n + 100.0
                out.append((f"wide {n}", wide))
            for bad in (np.nan, np.inf, -np.inf):
                rows = rng.poisson(5.0, (k, n)).astype(float)
                rows[:, rng.integers(0, n)] = bad
                out.append((f"{bad} {n}", rows))
    # whole numbers from 2**52 on, where the sum of the two middle values rounds
    big = [[9007199254740966.0, 9007199254740967.0, 9007199254740971.0,
            9007199254740965.0, 9007199254740965.0, 9007199254740969.0]]
    out.append(("2**53 - 26", np.array(big)))
    out.append(("2**52 + 1", 2.0**52 + np.array([[-1.0, 0.0, 1.0, -2.0]])))
    out.append(("2**52 - 1", 2.0**52 - np.array([[5.0, 1.0, 2.0, 4.0]])))
    # one batch of every kind
    mixed = np.concatenate([rows for name, rows in out if rows.shape[1] == 51])
    out.append(("mixed 51", rng.permutation(mixed)))
    return out


def test_peak_floors_are_np_median_bits():
    for name, rows in _floor_batches():
        with np.errstate(invalid="ignore"):
            medians, lows, floors = optics._peak_floors(rows)
        expected_medians, expected_floors = _median_formula(rows)
        for got, want in ((medians, expected_medians), (floors, expected_floors)):
            assert np.array_equal(got, want, equal_nan=True), (name, got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name, got, want)
        assert np.array_equal(lows, rows.min(axis=1), equal_nan=True)


def _rows_whose_highest_maxima_fail(rng, k, n):
    """(K, n) rows on a noisy baseline that end in a plateau rising 0.5 a
    sample into the last sample, with bumps of 2 on it: the row's highest
    local maxima, each too shallow for the floor. Below them most rows hold
    one resonance that clears it; the others hold none."""
    rows = rng.poisson(5.0, (k, n)).astype(float)
    columns = np.arange(n)
    for row in rows:
        if rng.random() < 0.9:
            center, width = rng.uniform(0.2 * n, 0.5 * n), rng.uniform(1.0, 4.0)
            row += rng.uniform(60.0, 150.0) / (1.0 + ((columns - center) / width) ** 2)
        start = int(rng.uniform(0.7, 0.8) * n)
        plateau = 300.0 + 0.5 * np.arange(n - start)
        bumps = rng.choice(np.arange(1, n - start - 1), rng.integers(1, 20), replace=False)
        plateau[bumps] += 2.0
        row[start:] = plateau
    return rows


def test_rows_whose_highest_maximum_fails_try_the_others_in_order():
    # each row's highest maximum is tried first; a row where it fails ranks
    # its other maxima and tries them 2, 4, 8, ... at a time. Rows whose
    # highest passes share the batch
    rng = np.random.Generator(np.random.Philox(36))
    n = 300
    failing = _rows_whose_highest_maxima_fail(rng, 60, n)
    centers, widths = rng.uniform(0, n, (20, 1)), rng.uniform(1.0, 10.0, (20, 1))
    passing = 200.0 / (1.0 + ((np.arange(n) - centers) / widths) ** 2) + rng.poisson(5.0, (20, n))
    rows = rng.permutation(np.concatenate([failing, passing]))
    _, lows, floors = optics._peak_floors(rows)
    maxima, at = optics._local_maxima(rows, lows, floors)
    strongest, _ = optics._strongest_peaks(rows)
    top_fails, ranks = 0, []
    for k, (row, peak) in enumerate(zip(rows, strongest)):
        mine = maxima[maxima // n == k]
        highest = mine[np.argmax(rows.ravel()[mine])]
        top_fails += bool(optics._prominences(rows, np.array([highest]), at)[0] < floors[k])
        peaks = _scipy_peaks(row)
        assert peak == (peaks[np.argmax(row[peaks])] if peaks.size else -1), k
        if peak >= 0:  # the maxima tried before the one that passed
            ranks.append(int(np.sum(rows.ravel()[mine] > row[peak])))
        for rel_prominence in (0.0, 0.2):
            assert np.array_equal(optics.detect_peaks(row, rel_prominence),
                                  _scipy_peaks(row, rel_prominence)), (k, rel_prominence)
    assert top_fails == 60 and -1 in strongest.tolist()
    assert min(ranks) == 0 and max(ranks) >= 7  # the first round, and a fourth
