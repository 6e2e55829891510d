import dataclasses
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cavitylab import dataio, fitkit, models, optics, synthlab
from cavitylab.dataio import TimeHistogram
from cavitylab.errors import ValidationError
from cavitylab.synthlab import GeneratorSpec


def test_generator_determinism_in_memory():
    spec = synthlab.preset("lifetime_4k", seed=11)
    a = synthlab.generate(spec)
    b = synthlab.generate(spec)
    assert np.array_equal(a.y, b.y)
    c = synthlab.generate(spec.with_seed(12))
    assert not np.array_equal(a.y, c.y)


def test_generator_determinism_on_disk(tmp_path):
    spec = synthlab.preset("g2_dip", seed=3)
    p1, t1 = synthlab.write_dataset(synthlab.generate(spec), tmp_path / "a.csv")
    p2, t2 = synthlab.write_dataset(synthlab.generate(spec), tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()
    assert "true_params" in t1.read_text()


def test_generator_validation():
    with pytest.raises(ValidationError):
        GeneratorSpec(model_id="nope", true_params=(1.0,), grid=(0.0,))
    with pytest.raises(ValidationError):
        GeneratorSpec(
            model_id="linear", true_params=(1.0, 0.0), grid=(0.0, 1.0),
            noise="gaussian",
        )
    with pytest.raises(ValidationError):
        GeneratorSpec(model_id="linear", true_params=(1.0, 0.0), grid=())
    with pytest.raises(ValidationError, match="'Poisson'"):
        synthlab.generate_scan_pair(noise="Poisson")


def test_g2_plateau_reaches_unity_at_long_delay():
    spec = synthlab.preset("g2_dip", seed=0)
    noiseless = GeneratorSpec(
        model_id="g2_three_level", true_params=spec.true_params, grid=spec.grid,
        noise="none",
    )
    ds = synthlab.generate(noiseless)
    plateau = spec.true_params[5]
    assert plateau == 1500.0  # counts per bin at long delay
    edge = np.abs(ds.x) >= 2000.0
    assert np.allclose(ds.y[edge] / plateau, 1.0, atol=1e-3)
    assert ds.y.min() / plateau == pytest.approx(0.21, abs=1e-9)


def test_master_roundtrip_every_model():
    # noiseless generate -> fit recovers the generating parameters to 1e-8
    import conftest

    rng = np.random.Generator(np.random.Philox(77))
    for model_id in sorted(models.MODELS):
        truth = conftest.random_params(model_id, rng)
        spec = GeneratorSpec(
            model_id=model_id,
            true_params=tuple(truth),
            grid=tuple(conftest.model_grid(model_id)),
        )
        ds = synthlab.generate(spec)
        start = conftest.perturb_params(model_id, truth, rng)
        result = fitkit.fit(
            fitkit.FitProblem(model_id=model_id, x=ds.x, y=ds.y, initial_params=start)
        )
        err = np.max(np.abs(result.params - truth) / (np.abs(truth) + 1e-12))
        assert err < 1e-8, model_id


def test_exponential_preset_roundtrip():
    hits = 0
    for seed in range(10):
        ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=seed))
        from cavitylab.photophysics import pulsed_lifetime_fit

        tau = pulsed_lifetime_fit(ds.record()).params[1]
        hits += abs(tau - 12.2) <= 0.3
    assert hits >= 9


def test_unknown_preset():
    with pytest.raises(ValidationError):
        synthlab.preset("nope")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_abcd_oracles_match_closed_forms():
    for l_eff, roc in [(3.7, 24.0), (3.75, 24.0), (12.0, 24.0), (2.0, 30.0)]:
        assert synthlab.abcd_gouy_fraction(l_eff, roc) == pytest.approx(
            optics.gouy_fraction(l_eff, roc), abs=1e-7
        )
        w0, w_l = synthlab.abcd_waist_um(l_eff, roc, 618.5)
        geom = optics.CavityGeometry(roc, roc, l_eff)
        assert w0 == pytest.approx(optics.beam_waist_um(geom, 618.5), rel=1e-9)
        assert w_l == pytest.approx(optics.mirror_spot_um(geom, 618.5), rel=1e-9)


def test_oracle_resonance_grid():
    assert synthlab.oracle_resonance_length(618.5, 12, 24.0) == pytest.approx(
        optics.resonance_length(618.5, 12, 24.0), abs=1e-5
    )


def test_oracle_dispersion_contains_analytic_resonance():
    l_grid = np.linspace(3.6, 3.9, 31)
    lam_grid = np.linspace(600.0, 640.0, 41)
    cells = synthlab.oracle_dispersion(24.0, l_grid, lam_grid)
    wavelength = optics.dispersion_map(24.0, [3.75], [12])[0, 1]
    i = int(np.argmin(np.abs(l_grid - 3.75)))
    j = int(np.argmin(np.abs(lam_grid - wavelength)))
    neighborhood = {
        (i + di, j + dj, 12) for di in (-1, 0, 1) for dj in (-1, 0, 1)
    }
    assert neighborhood & cells


def test_oracle_dispersion_empty_grid():
    assert synthlab.oracle_dispersion(24.0, [3.7], []) == set()


def test_wled_map_peaks_lie_on_dispersion_curves():
    # every detected transmission peak of the broadband map sits on an
    # analytic fundamental-mode branch
    m = synthlab.generate_wled_map(n_frames=3, l_start_um=4.0, l_end_um=3.8, seed=4)
    lengths = np.linspace(4.0, 3.8, 3)
    for frame, l_um in zip(m.frames, lengths):
        g = optics.gouy_fraction(l_um, 24.0)
        peaks = optics.detect_peaks(frame.counts, rel_prominence=0.2)
        assert peaks.size >= 2
        for idx in peaks:
            lam = frame.wavelength_nm[idx]
            m_float = 2000.0 * l_um / lam - g
            assert abs(m_float - round(m_float)) < 0.02


# ---------------------------------------------------------------------------
# vibration broadening
# ---------------------------------------------------------------------------


def test_vibration_zero_jitter_exact():
    assert synthlab.vibration_broadening_sim(15.0, 0.0) == 15.0


def test_vibration_monotone_in_jitter():
    values = [
        synthlab.vibration_broadening_sim(15.0, j, n_samples=20_000, seed=5)
        for j in (0.0, 0.1, 0.2, 0.4, 0.8, 1.6)
    ]
    assert all(b >= a * (1.0 - 1e-6) for a, b in zip(values, values[1:]))


# content digests of the map generators' output, recorded from the
# per-frame generators; any change to the Philox stream or to the order in
# which peaks are summed changes them
_WLED_DIGESTS = {
    0: "c354877d1da25aac34d4ef02742f3b4b6ea5e85d535bc0ee27252f26a5db850a",
    11: "49ee37b29d3848fac9a7910eef047d91395e0278968f1a0f5f5818291c53c6b3",
}
_DRIFT_DIGESTS = {
    0: "ce769ab9e11664985406aec88e231fb4b29b907eec86f369579b408700cc6349",
    11: "19176c89d2c911535a1bb4f09019d3c6410bcf2c8a23508368149127802d97c5",
}


# the acquisition-sized map (7200 frames x 200 px) for seed 0, recorded
# from the boolean-mask generator
_WLED_FULL_DIGEST = "c424cd9d0660d69947d182671dcd569ff6a9c8e1e7f2f829178dfa830aaf7253"


@pytest.mark.parametrize("seed", sorted(_WLED_DIGESTS))
def test_map_generators_bit_identical(seed):
    wled = synthlab.generate_wled_map(72, seed=seed)
    assert dataio.digest_arrays(wled.wavelength_nm, wled.counts_matrix()) == _WLED_DIGESTS[seed]
    drift, _ = synthlab.generate_drift_map(seed=seed)
    assert dataio.digest_arrays(drift.wavelength_nm, drift.counts_matrix()) == _DRIFT_DIGESTS[seed]


def test_full_size_wled_map_bit_identical():
    wled = synthlab.generate_wled_map(7200, seed=0)
    assert dataio.digest_arrays(wled.wavelength_nm, wled.counts_matrix()) == _WLED_FULL_DIGEST


def test_wled_map_generation_holds_one_full_size_array():
    # the counts matrix and one block of frames: the generator's traced
    # peak stays below twice the counts' bytes
    tracemalloc.start()
    try:
        wled = synthlab.generate_wled_map(7200, n_pixels=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * wled.counts.nbytes


def test_wled_map_generation_frees_the_dispersion_map():
    # the generator keeps only the wavelength column of the dispersion map,
    # not a view that holds its four columns alive: the traced peak was 1.55
    # times the counts' bytes with the view, 1.38 with the column copied
    tracemalloc.start()
    try:
        wled = synthlab.generate_wled_map(7200, n_pixels=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * wled.counts.nbytes


def test_full_size_map_loads_into_one_full_size_array(tmp_path):
    # the parse buffer is the one full-size array: the value check builds
    # its masks only to name a bad count, and the traced peak was 1.31
    # times the counts' bytes with them built for every map, 1.10 without
    path = dataio.save_csv(synthlab.generate_wled_map(7200, seed=0), tmp_path / "wled.csv")
    tracemalloc.start()
    try:
        loaded = dataio.load_csv(path, "spectral_map")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * loaded.counts.nbytes


def test_map_record_of_a_read_only_matrix_allocates_no_mask():
    # a read-only matrix is taken as handed over, and the block's minimum
    # and maximum check it: the two boolean masks once took 0.25 times the
    # counts' bytes
    wled = synthlab.generate_wled_map(7200, seed=0)
    assert not wled.counts.flags.writeable
    tracemalloc.start()
    try:
        m = dataio.SpectralMap(wavelength_nm=wled.wavelength_nm, counts=wled.counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.counts is wled.counts
    assert peak < 0.01 * wled.counts.nbytes


@pytest.mark.parametrize("n_lengths, orders, m_values", [
    (7200, (0,), range(11, 22)),  # the full-size WLED map's table
    (800, (0, 1, 3), range(5, 25)),
])
def test_dispersion_map_holds_no_full_size_temporary(n_lengths, orders, m_values):
    # the four columns are broadcast into the result: the traced peak was
    # 2.02 times the result's bytes with a meshgrid and a column stack, and
    # is 1.07-1.09 times them broadcast; one more quarter-size column would
    # pass 1.25
    lengths = np.linspace(5.0, 3.7, n_lengths)
    tracemalloc.start()
    try:
        rows = optics.dispersion_map(24.0, lengths, m_values, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (n_lengths * len(orders) * len(m_values), 4)
    assert peak < 1.25 * rows.nbytes


def _wled_one_draw(n_frames, seed):
    """The WLED map as one Poisson draw over the whole expected matrix,
    each peak added over its run of frames in ascending m."""
    window = (550.0, 680.0)
    grid = np.linspace(*window, 200)
    lengths = np.linspace(5.0, 3.7, n_frames)
    m_values = optics.mode_indices((3.7, 5.0), window)
    centers = optics.dispersion_map(24.0, lengths, m_values)[:, 1].reshape(n_frames, -1)
    inside = (window[0] < centers) & (centers < window[1])
    expected = np.full((n_frames, grid.size), 10.0)
    for k in range(len(m_values)):
        lo = inside[:, k].argmax()
        hi = lo + np.count_nonzero(inside[:, k])
        peaks = np.tile([500.0, 0.0, 0.8, 0.0], (hi - lo, 1))
        peaks[:, 1] = centers[lo:hi, k]
        expected[lo:hi] += models.get_model("lorentzian").fn(grid, peaks)
    return grid, synthlab.rng_from_seed(seed).poisson(expected).astype(float)


@pytest.mark.parametrize("n_frames", [255, 256, 257, 513])
def test_wled_map_blocks_equal_one_draw(n_frames):
    # frames are generated a block at a time; on either side of a block
    # edge the map is the one-draw map bit for bit
    assert synthlab._WLED_BLOCK_FRAMES == 256
    wled = synthlab.generate_wled_map(n_frames, seed=5)
    grid, counts = _wled_one_draw(n_frames, seed=5)
    assert wled.wavelength_nm.tobytes() == grid.tobytes()
    assert wled.counts.dtype == np.float64
    assert wled.counts.tobytes() == counts.tobytes()


class _BlockAheadError(Exception):
    pass


def _counted_line_shape(monkeypatch):
    """Swap the registry's Lorentzian for one that records the thread of
    each call in ``calls`` and raises on the call numbered ``fail_at``."""
    model = models.get_model("lorentzian")
    state = SimpleNamespace(calls=[], fail_at=None)

    def fn(x, p):
        state.calls.append(threading.current_thread())
        if len(state.calls) == state.fail_at:
            raise _BlockAheadError(state.fail_at)
        return model.fn(x, p)

    monkeypatch.setitem(models.MODELS, "lorentzian", dataclasses.replace(model, fn=fn))
    return state


# four blocks, the last one partial
_FOUR_BLOCKS = 3 * synthlab._WLED_BLOCK_FRAMES + 5


def test_wled_map_helper_thread_lives_within_the_call(monkeypatch):
    # the next block's expected counts are built on a helper thread while
    # the calling thread draws; the helper is gone when the call returns
    line_shape = _counted_line_shape(monkeypatch)
    threads = threading.active_count()
    synthlab.generate_wled_map(_FOUR_BLOCKS, seed=5)
    assert threading.active_count() == threads
    assert threading.current_thread() not in line_shape.calls


def test_an_error_building_a_block_ahead_reaches_the_caller(monkeypatch):
    # the line shape's last call builds the last block, while the block
    # before it is drawn: its error is raised in the caller unchanged, and
    # the helper is gone
    line_shape = _counted_line_shape(monkeypatch)
    synthlab.generate_wled_map(_FOUR_BLOCKS, seed=5)
    line_shape.fail_at = len(line_shape.calls)
    line_shape.calls.clear()
    threads = threading.active_count()
    with pytest.raises(_BlockAheadError) as err:
        synthlab.generate_wled_map(_FOUR_BLOCKS, seed=5)
    assert err.value.args == (line_shape.fail_at,)
    assert len(line_shape.calls) == line_shape.fail_at
    assert threading.active_count() == threads


@pytest.mark.parametrize("n_frames", [72, 7200])
def test_wled_modes_lie_in_the_window_over_one_run_of_frames(n_frames):
    # a resonance moves monotonically with length, so the frames whose
    # window holds a mode are one contiguous run: the generator adds each
    # peak over a slice of frames
    window = (550.0, 680.0)
    lengths = np.linspace(5.0, 3.7, n_frames)
    m_values = optics.mode_indices((3.7, 5.0), window)
    centers = optics.dispersion_map(24.0, lengths, m_values)[:, 1].reshape(n_frames, -1)
    inside = (window[0] < centers) & (centers < window[1])
    runs = 0
    for column in inside.T:
        frames = np.flatnonzero(column)
        if frames.size:
            assert frames[-1] - frames[0] + 1 == frames.size
            runs += 1
    assert runs >= 2


_SCAN_PAIR_DIGESTS = {
    0: "ed4b959e147582e767166482c46257aac25b2fa65b80e96a6e00bf7f068ae220",
    11: "3a8ed0af4327106af28fc88c254fb52e58a874c24458b212693a16b1b301ae93",
}


@pytest.mark.parametrize("seed", sorted(_SCAN_PAIR_DIGESTS))
def test_scan_pair_generator_bit_identical(seed):
    traces = synthlab.generate_scan_pair(seed=seed)
    arrays = [a for t in traces for a in (t.axis, t.signal)]
    assert dataio.digest_arrays(*arrays) == _SCAN_PAIR_DIGESTS[seed]
