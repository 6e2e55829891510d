"""The numpy peak detector returns scipy's ``find_peaks`` indices exactly.

``detect_peaks`` must equal ``find_peaks(signal, prominence=floor)`` followed
by the relative-prominence cut, the batched search of every peak of a map's
rows must give each row its ``detect_peaks``, and the batched strongest-peak
search must pick what ``detect_peaks(row)[argmax]`` picks. scipy is the
oracle here and is imported only inside these tests.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitylab import models, optics, synthlab


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
    # the highest peak stands on a shoulder, so a lower peak is more
    # prominent; in the seeded ones a bump at the middle has a prominence
    # between 0.2 of the highest peak's and 0.2 of the lower one's
    y = np.zeros(40)
    y[10], y[37], y[38:] = 10.0, 20.0, 15.0
    out.append(("prominent lower peak", y))
    for _ in range(40):
        n = int(rng.integers(12, 80))
        y = rng.poisson(2.0, n).astype(float) if rng.random() < 0.5 else np.zeros(n)
        prominence = rng.uniform(60.0, 150.0)
        y[rng.integers(1, n // 4)] += prominence
        y[n // 2] += rng.uniform(9.0, 0.2 * prominence)
        top = rng.integers(n // 2 + 2, n - 1)
        y[top], y[top + 1:] = 200.0, 200.0 - rng.uniform(8.0, 30.0)
        out.append(("prominent lower peak", y))
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
        strongest, medians = optics._strongest_peaks(counts)[:2]
        for row, peak, median in zip(counts, strongest, medians):
            peaks = _scipy_peaks(row)
            assert peak == (peaks[np.argmax(row[peaks])] if peaks.size else -1)
            assert median == np.median(row)
    assert optics._strongest_peaks(rows)[0].tolist() == [10, -1, 21]


def _median_formula(rows):
    """Median and peak floor of each row by ``np.median``, one row at a time:
    the oracle of ``optics._peak_floors``, which reads both from sorts of
    the whole batch."""
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
            medians, lows, floors = optics._peak_floors(rows, np.full(len(rows), np.nan))
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
    _, lows, floors = optics._peak_floors(rows, np.full(len(rows), np.nan))
    maxima, at = optics._local_maxima(rows, lows, floors)
    strongest = optics._strongest_peaks(rows)[0]
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


@pytest.mark.parametrize("rel_prominence", [0.0, 0.2, 1.0, 1.5])
def test_all_peaks_of_a_batch_are_each_rows_detect_peaks(rel_prominence):
    # the batched search gives every row its own detect_peaks and the bits
    # of np.median: Poisson rows, a drift map's, and rows whose highest
    # maxima fail the floor mixed with rows their highest peak decides
    rng = np.random.Generator(np.random.Philox(41))
    n = 300
    centers, widths = rng.uniform(0, n, (20, 1)), rng.uniform(1.0, 10.0, (20, 1))
    decided = 200.0 / (1.0 + ((np.arange(n) - centers) / widths) ** 2) + rng.poisson(5.0, (20, n))
    batches = [
        rng.poisson(3.0, (200, 60)).astype(float),
        synthlab.generate_drift_map(seed=300)[0].counts_matrix(),
        rng.permutation(np.concatenate([_rows_whose_highest_maxima_fail(rng, 40, n), decided])),
    ]
    for rows in batches:
        peaks, medians = optics._all_peaks(rows, rel_prominence)
        assert np.all(np.diff(peaks) > 0)
        for k, row in enumerate(rows):
            found = peaks[peaks // rows.shape[1] == k] % rows.shape[1]
            assert np.array_equal(found, optics.detect_peaks(row, rel_prominence)), k
        assert medians.tobytes() == np.array([np.median(row) for row in rows]).tobytes()


def _window(row, n, shift=0):
    """The n samples of ``row`` around its highest one, moved ``shift`` on."""
    start = min(max(int(np.argmax(row)) - n // 2 + shift, 0), row.size - n)
    return row[start:start + n].copy()


def test_strongest_peaks_of_batches_where_row_maxima_decide_some_rows(monkeypatch):
    # a row whose first highest sample is a peak that clears the floor is
    # decided by it; edge maxima, flat and plateau tops and constant rows
    # search their maxima in ranked rounds. Stacked by length, the two kinds
    # interleave in one batch
    sent = []

    def spy(rows, *args):
        sent.append(len(rows))
        return first_prominent(rows, *args)

    first_prominent = optics._first_prominent
    monkeypatch.setattr(optics, "_first_prominent", spy)
    rng = np.random.Generator(np.random.Philox(38))
    drift = synthlab.generate_drift_map(seed=300)[0].counts_matrix()
    by_length = {}
    for family, y in _signals():
        if family in ("edge maximum", "flat tops", "constant"):
            by_length.setdefault(y.size, []).append(y)
    total = mixed = 0
    for n, others in sorted(by_length.items()):
        peaks = [_window(drift[k], n, int(rng.integers(-2, 3)))
                 for k in rng.integers(0, len(drift), len(others))]
        plateaus = [_window(drift[k], n) for k in rng.integers(0, len(drift), 3)]
        for row in plateaus:  # the highest sample's right neighbour raised to it
            top = int(np.argmax(row))
            row[min(top + 1, n - 1)] = row[top]
        rows = rng.permutation(np.array(others + peaks + plateaus))
        sent.clear()
        strongest, medians = optics._strongest_peaks(rows)[:2]
        for row, peak, median in zip(rows, strongest, medians):
            expected = _scipy_peaks(row)
            assert peak == (expected[np.argmax(row[expected])] if expected.size else -1), n
            assert median == np.median(row)
        total += len(rows)
        mixed += bool(sent) and sent[0] < len(rows)
    assert total > 2000 and mixed >= 40


@st.composite
def _floor_rows(draw):
    """(K, n) rows, odd and even n, of whole numbers (many ties), fractions,
    signed zeros and NaN, maybe on an offset of up to 1e15."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    values = st.one_of(
        st.integers(-20, 20).map(float), st.floats(-1e3, 1e3),
        st.sampled_from([-0.0, 0.0, np.nan]))
    rows = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=k, max_size=k)))
    offset = draw(st.sampled_from([0.0, 0.5, -1e6, 1e15, -1e15]) | st.floats(-1e15, 1e15))
    return rows + offset if offset else rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=_floor_rows())
def test_the_floor_bound_is_at_least_the_floor(rows):
    # where the bound is at most a row's level it stands in for the floor;
    # with every level inf, each row's bound is returned but a NaN row's
    medians, lows, floors = optics._peak_floors(rows, np.full(len(rows), np.nan))
    bound_medians, bound_lows, bounds = optics._peak_floors(rows, np.full(len(rows), np.inf))
    assert np.array_equal(bound_medians, medians, equal_nan=True)
    assert np.array_equal(bound_lows, lows, equal_nan=True)
    assert np.array_equal(np.isnan(bounds), np.isnan(floors))
    assert np.all(np.isnan(floors) | (bounds >= floors)), (bounds, floors)


def test_row_maxima_decide_the_benchmark_inputs(monkeypatch):
    # characterize's seed-43...46 inputs at full size: every ramp's highest
    # sample decides its search without the MAD's sort, and 476 of the 480
    # drift rows theirs; 4 plateau tops take the ranked rounds and the MAD
    first_prominent, median = optics._first_prominent, models.median
    ranked, mads = [], []

    def spy_rounds(rows, *args):
        ranked.append(len(rows))
        return first_prominent(rows, *args)

    def spy_median(values):
        if sys._getframe(1).f_code.co_name == "_peak_floors":
            mads.append(len(values))
        return median(values)

    monkeypatch.setattr(optics, "_first_prominent", spy_rounds)
    monkeypatch.setattr(models, "median", spy_median)
    for seed in range(43, 47):
        scans = synthlab.generate_scan_pair(finesse=4600.0, n_samples=120_000, seed=seed)
        drift_map, _ = synthlab.generate_drift_map(
            n_frames=120, n_pixels=400, alpha_per_k=5.1e-6, reference_length_um=3.7, seed=seed)
        optics.finesse_from_scan(scans)
        optics.drift_series(drift_map, l_eff_um=3.7)
    assert sum(ranked) == 4 and sum(mads) == 4, (ranked, mads)
    assert len(mads) == 3  # only searches with a row the bound leaves take a MAD


def test_relative_cuts_above_one_and_tops_whose_other_candidates_fail():
    # a cut above 1 keeps no peak: none has a prominence above the strongest
    ramp = synthlab.generate_scan_pair(seed=41)[0].signal
    assert optics.detect_peaks(ramp, 0.2).size >= 2
    assert optics.detect_peaks(ramp, 1.5).size == 0 == _scipy_peaks(ramp, 1.5).size
    # a slow wave with ripples: 5 MAD is above every maximum's prominence
    rng = np.random.Generator(np.random.Philox(39))
    phases = rng.uniform(0.0, 2.0 * np.pi, (40, 1))
    waves = np.round(100.0 + 10.0 * np.sin(np.arange(200) / 16.0 + phases))
    waves += rng.integers(0, 2, waves.shape)
    lone = waves.copy()
    lone[:, 100] = 400.0  # one resonance decides; every other maximum fails the floor
    shallow = waves.copy()
    shallow[np.arange(40), np.argmax(waves, axis=1)] += 1.0  # the highest maximum fails too
    for rows, expected in ((lone, [100]), (shallow, [])):
        for row in rows:
            for rel_prominence in (0.2, 1.0, 1.5):
                found = optics.detect_peaks(row, rel_prominence)
                assert np.array_equal(found, _scipy_peaks(row, rel_prominence))
            assert optics.detect_peaks(row, 0.2).tolist() == expected
