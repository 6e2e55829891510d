"""The peak stage's whole-batch passes give the bits of the per-group work
they replace: ``models.median`` is ``np.median``, every window's start taken
in one padded call is the start of that window alone, and the drift series
and CTE fit keep the digests recorded before those passes existed.
"""

import hashlib

import numpy as np

from cavitylab import models, optics, synthlab


def _median_inputs():
    """Seeded (name, array) pairs: 1-D and (K, n), odd and even n, with NaN,
    +-inf and signed zeros among the samples."""
    rng = np.random.Generator(np.random.Philox(34))
    out = []
    for n in (1, 2, 3, 4, 7, 8, 51, 400, 401):
        for shape in ((n,), (6, n)):
            out.append((f"normal {shape}", rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6)))
            out.append((f"ties {shape}", rng.integers(-3, 4, shape) + 0.5))
            out.append((f"zeros {shape}", rng.choice([-0.0, 0.0, -1.0, 1.0], shape,
                                                      p=[0.35, 0.35, 0.15, 0.15])))
            out.append((f"-0.0 {shape}", np.full(shape, -0.0)))
            out.append((f"+-x {shape}", rng.choice([-2.5, 2.5], shape)))
            for bad in (np.nan, np.inf, -np.inf, "both infs"):
                values = rng.poisson(5.0, shape).astype(float)
                if bad == "both infs":
                    values[..., 0], values[..., -1] = -np.inf, np.inf
                else:
                    values[..., rng.integers(0, n)] = bad
                out.append((f"{bad} {shape}", values))
    # the sum of the two middle values overflows, as in np.median
    out.append(("overflow", np.array([1.7e308, 1.7e308, 1.0, 1.7e308])))
    out.append(("integers", np.array([[3, 1, 2, 5], [2**60, 1, 2**60 + 1, 0]])))
    return out


def test_median_is_np_median_bits():
    for name, values in _median_inputs():
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = models.median(values), np.median(values, axis=-1)
        assert np.shape(got) == np.shape(want), name
        assert np.array_equal(got, want, equal_nan=True), (name, got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (name, got, want)


def _window_batches():
    """(x, rows, peaks, baselines) of the peak problems the pipelines build:
    drift seeds 0-19, the benchmark's 120 x 400 maps (seeds 43-46) and the
    scan pairs of seeds 100-120, then seeded rows whose peaks sit at and
    near the row ends, so their windows are clipped, and a 4-sample row."""
    for seed in range(20):
        drift_map, _ = synthlab.generate_drift_map(seed=seed)
        yield (drift_map.wavelength_nm, drift_map.counts_matrix(),
               *optics._strongest_peaks(drift_map.counts_matrix())[:2])
    for seed in (43, 44, 45, 46):
        drift_map, _ = synthlab.generate_drift_map(n_frames=120, n_pixels=400, seed=seed)
        yield (drift_map.wavelength_nm, drift_map.counts_matrix(),
               *optics._strongest_peaks(drift_map.counts_matrix())[:2])
    for seed in range(100, 121):
        for trace in synthlab.generate_scan_pair(seed=seed):
            peaks, (baseline,) = optics._all_peaks(trace.signal[None, :], 0.2)
            yield trace.axis, trace.signal, peaks, baseline
    rng = np.random.Generator(np.random.Philox(35))
    for n in (4, 5, 12, 30, 200):
        x = np.sort(rng.uniform(-100.0, 100.0, n))
        centers, widths = rng.uniform(0, n, (8, 1)), rng.uniform(0.3, 30.0, (8, 1))
        rows = 100.0 / (1.0 + ((np.arange(n) - centers) / widths) ** 2) + rng.poisson(2.0, (8, n))
        peaks = np.array([0, 1, n - 2, n - 1, *rng.integers(0, n, 4)])
        yield x, rows, peaks, rng.uniform(-50.0, 150.0, 8)


def test_window_starts_are_each_window_alone():
    lengths, clipped = set(), 0
    for x, rows, peaks, baselines in _window_batches():
        for q in optics._peak_problems(x, rows, peaks, baselines):
            alone = models.initial_params("lorentzian", q.x, q.y)
            assert q.initial_params.tobytes() == alone.tobytes()
            lengths.add(q.x.size)
            clipped += q.x[0] == x[0] or q.x[-1] == x[-1]
    assert 4 in lengths and len(lengths) > 10 and clipped > 20


def test_padded_rows_start_as_each_row_alone():
    # rows of 1 to 12 samples, some highest at their last sample, padded to
    # 13 by their last sample; and a row whose half-height level rounds up
    # to its last and highest sample, 2**53 + 4: read past its length, the
    # padding would bracket that level on the right
    rng = np.random.Generator(np.random.Philox(37))
    rows = [rng.poisson(5.0, n).astype(float) for n in range(1, 13)]
    rows += [np.append(rng.poisson(5.0, n - 1), 20.0) for n in range(2, 13)]
    rows.append(2.0**53 + np.array([2.0, 2.0, 2.0, 2.0, 4.0]))
    xs = [np.sort(rng.uniform(-5.0, 5.0, y.size)) for y in rows]
    lengths = np.array([y.size for y in rows])

    def padded(arrays):
        return np.stack([np.append(a, np.full(13 - a.size, a[-1])) for a in arrays])

    starts = models.get_model("lorentzian").init(padded(xs), padded(rows), lengths)
    for k, (x, y) in enumerate(zip(xs, rows)):
        assert starts[k].tobytes() == models.initial_params("lorentzian", x, y).tobytes(), k


# sha256 of the drift series (frame time and drift, float64 bytes) of the
# default drift maps of seeds 0-19, and of each seed's cte_fit (alpha,
# sigma) on that series, recorded before the peak stage ran in whole-batch
# passes. The series has one digest under every OpenBLAS kernel; the CTE
# line's normal equations sum in a kernel's order, so its digest is given
# for the AVX-512 (SkylakeX), AVX2 (Haswell, Zen) and SSE (Sandybridge,
# Nehalem, Prescott) kernels
_DRIFT_DIGEST = "aa4030d973de06280134b6927588e7cd0bab555f63bdc58d984111387bf253cc"
_CTE_DIGESTS = {
    "c5d19f5707d86cf9246000c0a5b6c911f915b8b2e2bbc1304d07510fec459138",
    "3c62ccb08922d6eb66dc99b31bef024d33cd03464a006e600cf1e8f8de9a2fe0",
    "e7c31cb7a57d5191c6d8f9518d50fb49d6109f5f35a69a9c273f954382fa362c",
}


def test_drift_series_and_cte_fit_keep_their_digests():
    series_hash, cte_hash = hashlib.sha256(), hashlib.sha256()
    for seed in range(20):
        drift_map, tlog = synthlab.generate_drift_map(seed=seed)
        series = optics.drift_series(drift_map, l_eff_um=3.7)
        alpha, sigma, _ = optics.cte_fit(
            tlog.temperature_k, [d for _, d in series], reference_length_um=3.7)
        series_hash.update(np.array(series).tobytes())
        cte_hash.update(np.array([alpha, sigma]).tobytes())
    assert series_hash.hexdigest() == _DRIFT_DIGEST
    assert cte_hash.hexdigest() in _CTE_DIGESTS

