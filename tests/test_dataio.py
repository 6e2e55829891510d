import numpy as np
import pytest

from cavitylab import dataio
from cavitylab.dataio import (
    ScanTrace,
    SpectralMap,
    Spectrum,
    TemperatureLog,
    TimeHistogram,
)
from cavitylab.errors import DataError, InsufficientDataError, SchemaError, ValidationError


def test_spectrum_roundtrip(tmp_path):
    spec = Spectrum(wavelength_nm=[600.0, 601.0, 602.5], counts=[1.0, 2.0, 0.5])
    path = dataio.save_csv(spec, tmp_path / "s.csv")
    loaded = dataio.load_csv(path, "spectrum")
    assert np.array_equal(loaded.wavelength_nm, spec.wavelength_nm)
    assert np.array_equal(loaded.counts, spec.counts)


def test_descending_wavelength_rejected_with_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength_nm,counts\n602.0,1\n601.0,2\n600.0,3\n")
    with pytest.raises(SchemaError) as err:
        dataio.load_csv(path, "spectrum")
    assert err.value.row_index == 0


def test_negative_and_nan_counts_rejected():
    with pytest.raises(DataError):
        Spectrum(wavelength_nm=[600.0, 601.0], counts=[1.0, -2.0])
    with pytest.raises(DataError):
        Spectrum(wavelength_nm=[600.0, 601.0], counts=[1.0, np.nan])


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda,counts\n600.0,1\n601.0,2\n")
    with pytest.raises(SchemaError):
        dataio.load_csv(path, "spectrum")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError):
        dataio.load_csv(tmp_path / "nope.csv", "spectrum")


def test_scan_multi_ramp_split(tmp_path):
    up = ScanTrace(axis=[0.0, 1.0, 2.0], signal=[1.0, 5.0, 1.0], sweep_direction="up")
    down = ScanTrace(axis=[2.0, 1.0, 0.0], signal=[1.0, 5.0, 1.0], sweep_direction="down")
    path = dataio.save_csv([up, down], tmp_path / "scan.csv")
    ramps = dataio.load_csv(path, "scan")
    assert len(ramps) == 2
    assert ramps[0].sweep_direction == "up"
    assert ramps[1].sweep_direction == "down"
    assert np.array_equal(ramps[1].axis, down.axis)


def test_scan_unknown_direction_label_names_row(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("axis,signal,direction\n0,1,up\n1,2,up\n2,3,sideways\n3,4,up\n")
    with pytest.raises(SchemaError) as err:
        dataio.load_csv(path, "scan")
    assert err.value.row_index == 2
    assert "sideways" in str(err.value)


def test_scan_direction_must_match_axis():
    with pytest.raises(SchemaError):
        ScanTrace(axis=[0.0, 1.0], signal=[1.0, 1.0], sweep_direction="down")


def test_histogram_validation():
    h = TimeHistogram(bin_centers_ns=[0.5, 1.5, 2.5], counts=[3, 2, 1])
    assert h.bin_width_ns == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        TimeHistogram(bin_centers_ns=[0.0, 1.0, 2.5], counts=[1, 1, 1])
    with pytest.raises(DataError):
        TimeHistogram(bin_centers_ns=[0.0, 1.0, 2.0], counts=[1.0, 2.5, 1.0])
    with pytest.raises(DataError):
        TimeHistogram(bin_centers_ns=[0.0, 1.0, 2.0], counts=[1, -1, 1])


def test_spectral_map_shared_grid():
    grid = [600.0, 601.0, 602.0]
    m = SpectralMap(wavelength_nm=grid, counts=[[1, 2, 3]] * 3, frame_period_s=2.0)
    assert m.counts_matrix().shape == (3, 3)
    assert m.counts_matrix() is m.counts
    assert np.array_equal(m.times_s(), [0.0, 2.0, 4.0])
    assert [len(f) for f in m.frames] == [3, 3, 3]
    with pytest.raises(ValidationError):
        SpectralMap(wavelength_nm=grid, counts=[[1, 2, 3, 4]] * 3)


def test_spectral_map_roundtrip(tmp_path):
    grid = np.linspace(600.0, 610.0, 11)
    counts = np.arange(11.0) + np.arange(4.0)[:, None]
    m = SpectralMap(wavelength_nm=grid, counts=counts)
    path = dataio.save_csv(m, tmp_path / "map.csv")
    loaded = dataio.load_csv(path, "spectral_map")
    assert len(loaded) == 4
    assert np.array_equal(loaded.frames[2].counts, counts[2])


def test_spectral_map_is_read_only():
    m = SpectralMap(wavelength_nm=[600.0, 601.0], counts=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.counts[0, 0] = 5.0


@pytest.mark.parametrize("value, kind", [("-2", "negative"), ("nan", "non-finite")])
def test_spectral_map_bad_count_names_frame(tmp_path, value, kind):
    path = tmp_path / "map.csv"
    path.write_text(
        "wavelength_nm,frame_0000,frame_0001,frame_0002\n"
        f"600.0,1,2,3\n601.0,4,{value},6\n602.0,7,8,9\n"
    )
    with pytest.raises(DataError) as err:
        dataio.load_csv(path, "spectral_map")
    message = str(err.value)
    assert kind in message
    assert "frame 1" in message and "frame_0001" in message and "row 1" in message
    assert err.value.index == (1, 1)


@pytest.mark.parametrize(
    "header, bad",
    [
        ("wavelength_nm,foo,frame_0000", "'foo'"),  # misnamed
        ("wavelength_nm,frame_0001,frame_0000", "'frame_0001'"),  # reordered
    ],
)
def test_spectral_map_frame_columns_checked(tmp_path, header, bad):
    path = tmp_path / "map.csv"
    path.write_text(header + "\n600.0,1,2\n601.0,3,4\n")
    with pytest.raises(SchemaError) as err:
        dataio.load_csv(path, "spectral_map")
    assert bad in str(err.value) and "'frame_0000'" in str(err.value)


def test_spectral_map_descending_grid_rejected_with_row_index():
    with pytest.raises(SchemaError) as err:
        SpectralMap(wavelength_nm=[600.0, 602.0, 601.0], counts=[[1.0, 2.0, 3.0]])
    assert err.value.row_index == 1


def test_temperature_log_roundtrip(tmp_path):
    log = TemperatureLog(time_s=[0.0, 60.0, 120.0], temperature_k=[285.0, 285.5, 286.2])
    path = dataio.save_csv(log, tmp_path / "t.csv")
    loaded = dataio.load_csv(path, "temperature_log")
    assert np.array_equal(loaded.temperature_k, log.temperature_k)


def test_records_are_frozen():
    spec = Spectrum(wavelength_nm=[600.0, 601.0], counts=[1.0, 2.0])
    with pytest.raises(ValueError):
        spec.counts[0] = 5.0


def test_canonical_json_is_deterministic():
    report = {"b": [1.0, 2.5e-7], "a": {"y": True, "x": None}, "c": "text"}
    assert dataio.canonical_json(report) == dataio.canonical_json(dict(report))
    assert dataio.canonical_json(report).index('"a"') < dataio.canonical_json(report).index('"b"')


def test_canonical_json_float_format():
    assert dataio.canonical_json({"v": 0.1}) == '{"v":0.1}'
    assert dataio.canonical_json({"v": 1.0 / 3.0}) == '{"v":0.3333333333}'
    with pytest.raises(ValidationError):
        dataio.canonical_json({"v": float("nan")})


def test_export_report_byte_identical(tmp_path):
    report = dataio.make_report(
        steps=[{"name": "fit", "params": {"model_id": "linear"}, "outputs": {"a": 1.5}}],
        inputs=["abc123"],
    )
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    dataio.export_report(report, p1)
    dataio.export_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_empty_report():
    text = dataio.export_report(dataio.make_report(steps=[]))
    assert '"steps":[]' in text


def test_spectral_map_throughput(tmp_path):
    # a two-hour WLED acquisition (7200 frames) must load in under 5 s
    import time

    from cavitylab import synthlab

    m = synthlab.generate_wled_map(n_frames=7200, n_pixels=200, seed=0)
    path = dataio.save_csv(m, tmp_path / "wled.csv")
    start = time.perf_counter()
    loaded = dataio.load_csv(path, "spectral_map")
    elapsed = time.perf_counter() - start
    assert len(loaded) == 7200
    assert elapsed < 5.0


def test_digests_change_with_content(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("one")
    b = tmp_path / "b.txt"
    b.write_text("two")
    assert dataio.digest_file(a) != dataio.digest_file(b)
    assert dataio.digest_arrays([1.0, 2.0]) != dataio.digest_arrays([1.0, 2.000001])


# ---------------------------------------------------------------------------
# Golden bytes: save_csv against the per-value writer it replaced
# ---------------------------------------------------------------------------


def _reference_fmt(x) -> str:
    # the per-value rule of the CSV writer, kept here as the oracle
    if float(x) == int(x) and abs(float(x)) < 1e16:
        return str(int(x))
    return repr(float(x))


def _reference_csv(header, columns) -> bytes:
    """One field at a time: numbers through ``_reference_fmt``, text as is."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else _reference_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


# integral and non-integral floats, -0.0, values at and above 1e16, 1e-05
# and subnormals, mixed within one column
_EDGE = [0.0, 1.0, 2.5, -0.0, 1e16, 1.5e17, 1e-05, -3.0, 0.1, 9999999999999998.0,
         -1e16, 123456789.125, 2.0**53 + 2.0, 1e300, 5e-324, -7.25]
_GRID = [600.25, 600.5, 601.0, 602.75]
_MAP_COUNTS = [[0.0, 1.0, 2.5, 1e16], [1e-05, 7.0, 0.1, 1.5e17], [3.0, -0.0, 5.0, 6.0]]


def _map_case(counts):
    header = ",".join(["wavelength_nm"] + [f"frame_{i:04d}" for i in range(len(counts))])
    record = SpectralMap(wavelength_nm=_GRID, counts=counts)
    return record, "spectral_map", header, [_GRID, *counts]


def _golden_case(name):
    """(record, schema id, header, columns as the reference writer sees them)."""
    if name == "spectrum":
        wl, counts = np.linspace(600.0, 611.0, 12), [abs(v) for v in _EDGE[:12]]
        return (Spectrum(wavelength_nm=wl, counts=counts), "spectrum",
                "wavelength_nm,counts", [wl, counts])
    if name == "temperature_log":
        t = np.arange(len(_EDGE)) * 60.0
        return (TemperatureLog(time_s=t, temperature_k=_EDGE), "temperature_log",
                "time_s,temperature_k", [t, _EDGE])
    if name == "long_temperature_log":
        # more rows than the writer formats in one chunk
        t, temp = np.arange(5000) * 0.5, np.resize(_EDGE, 5000)
        return (TemperatureLog(time_s=t, temperature_k=temp), "temperature_log",
                "time_s,temperature_k", [t, temp])
    if name == "histogram":
        counts = np.array([0, 3, 17, 10**16, 2**60, 12345], dtype=np.int64)
        centers = 0.125 + 0.25 * np.arange(counts.size)
        return (TimeHistogram(bin_centers_ns=centers, counts=counts), "histogram",
                "t_ns,counts", [centers, counts])
    if name == "scan":
        up = ScanTrace(axis=[0.0, 0.5, 1.0, 1.5], signal=[1.0, 2.5, -0.0, 1e16])
        down = ScanTrace(axis=[1.5, 1.25, 1e-05, -2.0], signal=[0.1, 7.0, 3.0, 1.5e17],
                         sweep_direction="down")
        columns = [[*up.axis, *down.axis], [*up.signal, *down.signal],
                   ["up"] * 4 + ["down"] * 4]
        return [up, down], "scan", "axis,signal,direction", columns
    if name == "spectral_map":
        return _map_case(_MAP_COUNTS)
    if name == "one_frame_map":
        return _map_case(_MAP_COUNTS[1:2])
    raise KeyError(name)


def _arrays(record):
    if isinstance(record, Spectrum):
        return [record.wavelength_nm, record.counts]
    if isinstance(record, TemperatureLog):
        return [record.time_s, record.temperature_k]
    if isinstance(record, TimeHistogram):
        return [record.bin_centers_ns, record.counts]
    if isinstance(record, SpectralMap):
        return [record.wavelength_nm, record.counts_matrix()]
    return [a for trace in record for a in (trace.axis, trace.signal, trace.sweep_direction)]


@pytest.mark.parametrize(
    "name",
    ["spectrum", "temperature_log", "long_temperature_log", "histogram", "scan",
     "spectral_map", "one_frame_map"],
)
def test_save_csv_golden_bytes(tmp_path, name):
    record, schema, header, columns = _golden_case(name)
    path = dataio.save_csv(record, tmp_path / f"{name}.csv")
    assert path.read_bytes() == _reference_csv(header, columns)
    loaded = dataio.load_csv(path, schema)
    for got, want in zip(_arrays(loaded), _arrays(record), strict=True):
        assert np.array_equal(got, want)


def test_save_csv_golden_bytes_beyond_float_precision(tmp_path):
    # an int64 count above 2**53 has no exact float; it is written as the
    # nearest float's repr, as the per-value rule does
    counts = np.array([1, 2**53 + 1, 2**53 - 1], dtype=np.int64)
    hist = TimeHistogram(bin_centers_ns=[0.5, 1.5, 2.5], counts=counts)
    path = dataio.save_csv(hist, tmp_path / "h.csv")
    assert path.read_bytes() == _reference_csv("t_ns,counts", [hist.bin_centers_ns, counts])


# ---------------------------------------------------------------------------
# One axis rule and one value rule for every record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, row",
    [
        (lambda: TemperatureLog(time_s=[0.0, np.nan, 2.0], temperature_k=[1.0] * 3), 1),
        (lambda: TemperatureLog(time_s=[0.0, 1.0, np.inf], temperature_k=[1.0] * 3), 2),
        (lambda: TimeHistogram(bin_centers_ns=[0.0, 1.0, np.nan, 3.0], counts=[1] * 4), 2),
        (lambda: TimeHistogram(bin_centers_ns=[-np.inf, 1.0, 2.0], counts=[1] * 3), 0),
    ],
)
def test_non_finite_axis_rejected_with_row(make, row):
    with pytest.raises(DataError) as err:
        make()
    assert err.value.index == row and f"row {row}" in str(err.value)


@pytest.mark.parametrize("n", [0, 1])
def test_temperature_log_needs_two_samples(n):
    with pytest.raises(ValidationError):
        TemperatureLog(time_s=np.arange(n, dtype=float), temperature_k=np.full(n, 290.0))


@pytest.mark.parametrize(
    "counts",
    [
        # an object array reaches the int64 cast with the value unchanged
        np.array([1.0, np.inf, 2.0], dtype=object),
        np.array([1.0, -np.inf, 2.0], dtype=object),
        np.array([1.0, np.nan, 2.0], dtype=object),
        # no int64 holds it; the cast would wrap it
        np.array([1.0, 2.0**63, 2.0]),
    ],
)
def test_histogram_count_int64_cannot_hold_rejected(counts):
    with pytest.raises(DataError, match="whole numbers") as err:
        TimeHistogram(bin_centers_ns=[0.0, 1.0, 2.0], counts=counts)
    assert err.value.index == 1


def test_record_leaves_caller_arrays_writeable_and_copies_them():
    wl, counts = np.array([600.0, 601.0]), np.array([1.0, 2.0])
    spec = Spectrum(wavelength_nm=wl, counts=counts)
    assert wl.flags.writeable and counts.flags.writeable
    counts[0] = 7.0
    assert spec.counts[0] == 1.0


def test_loaded_map_is_a_view_of_the_parsed_file(tmp_path):
    m = SpectralMap(wavelength_nm=[600.0, 601.0, 602.0], counts=[[1.0, 2.0, 3.0]] * 2)
    loaded = dataio.load_csv(dataio.save_csv(m, tmp_path / "map.csv"), "spectral_map")
    assert loaded.counts.base is not None and loaded.counts.base is loaded.wavelength_nm.base


@pytest.mark.parametrize(
    "schema, text",
    [
        ("scan", "axis,signal,direction\n"),  # no samples
        ("spectrum", "wavelength_nm,counts\n600.0,1#2\n601.0,2\n"),  # '#' is no comment
    ],
)
def test_malformed_csv_rejected(tmp_path, schema, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        dataio.load_csv(path, schema)


@pytest.mark.parametrize("schema, header", [
    ("spectrum", "wavelength_nm,counts"),
    ("scan", "axis,signal,direction"),
    ("histogram", "t_ns,counts"),
    ("spectral_map", "wavelength_nm,frame_0000"),
    ("temperature_log", "time_s,temperature_k"),
])
def test_header_only_csv_holds_no_data_rows(tmp_path, schema, header):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    with pytest.raises(InsufficientDataError, match="holds no data rows"):
        dataio.load_csv(path, schema)


def test_scan_numbers_parse_like_every_other_schema(tmp_path):
    # Python's float() reads "1_0" as 10; numpy's parser refuses it
    path = tmp_path / "scan.csv"
    path.write_text("axis,signal,direction\n0,1_0,up\n1,2,up\n2,3,up\n")
    with pytest.raises(SchemaError, match="row 0"):
        dataio.load_csv(path, "scan")
