import warnings

import numpy as np
import pytest

from cavitylab import dataio, synthlab
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


@pytest.mark.parametrize("ending", ["\n", "\n\n", "\r\n\r\n"])
def test_scan_skips_empty_lines_as_every_other_schema(tmp_path, ending):
    rows = ["0,1,up", "1,2,up", "", "2,1,down", "1,0,down"]
    path = tmp_path / "scan.csv"
    path.write_bytes(ending.join(["axis,signal,direction", *rows]).encode() + ending.encode())
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_bytes(ending.join(["wavelength_nm,counts", "600,1", "", "601,2"]).encode()
                         + ending.encode())
    assert len(dataio.load_csv(spectrum, "spectrum")) == 2
    up, down = dataio.load_csv(path, "scan")
    assert up.axis.tolist() == [0.0, 1.0] and down.signal.tolist() == [1.0, 0.0]


def test_scan_pair_round_trip_is_one_parse(tmp_path, monkeypatch):
    # both 120 000-sample ramps come back bit for bit from one numpy parse
    from cavitylab import optics

    pair = synthlab.generate_scan_pair(n_samples=120_000, seed=41)
    path = dataio.save_csv(pair, tmp_path / "scan.csv")
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(kwargs.get("dtype"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    loaded = dataio.load_csv(path, "scan")
    assert len(calls) == 1
    assert [r.sweep_direction for r in loaded] == [r.sweep_direction for r in pair]
    for got, want in zip(loaded, pair, strict=True):
        assert got.axis.tobytes() == want.axis.tobytes()
        assert got.signal.tobytes() == want.signal.tobytes()
    assert optics.finesse_from_scan(loaded) == optics.finesse_from_scan(pair)


_UP = ScanTrace(axis=[0.0, 1.0, 2.0], signal=[1.0, 5.0, 1.0])
_DOWN = ScanTrace(axis=[2.0, 1.0, 0.0], signal=[1.0, 5.0, 1.0], sweep_direction="down")


@pytest.mark.parametrize("ramps, index", [([_UP, _UP], 1), ([_UP, _DOWN, _DOWN], 2)])
def test_scan_ramps_of_one_direction_are_not_saved(tmp_path, ramps, index):
    # a scan file ends a ramp only where the direction changes, so two
    # adjacent up ramps would load back as one ramp that is not ascending
    path = tmp_path / "out" / "scan.csv"
    with pytest.raises(ValidationError, match=f"ramp {index} "):
        dataio.save_csv(ramps, path)
    assert not (tmp_path / "out").exists()


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


def test_spectral_map_with_a_frame_period_is_not_saved(tmp_path):
    # a map file has no field for the period: a drift map (one frame a
    # minute) would load back at one frame a second
    drift_map, _ = synthlab.generate_drift_map(n_frames=6, seed=1)
    assert drift_map.frame_period_s == 60.0
    path = tmp_path / "out" / "map.csv"
    with pytest.raises(ValidationError, match="frame_period_s"):
        dataio.save_csv(drift_map, path)
    assert not (tmp_path / "out").exists()


def test_spectral_map_is_read_only():
    m = SpectralMap(wavelength_nm=[600.0, 601.0], counts=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.counts[0, 0] = 5.0


@pytest.mark.parametrize("value, kind", [
    ("-2", "negative"), ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
])
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


def test_spectral_map_of_negative_zero_loads(tmp_path):
    # the counts' minimum is -0.0, which is not below 0
    path = tmp_path / "map.csv"
    path.write_text("wavelength_nm,frame_0000,frame_0001\n600.0,1,-0\n601.0,2,3\n")
    m = dataio.load_csv(path, "spectral_map")
    assert m.counts.min() == 0.0 and np.signbit(m.counts[1, 0])
    assert m.counts.tolist() == [[1.0, 2.0], [0.0, 3.0]]


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
    # a two-hour WLED acquisition (7200 frames) must save and load in under
    # 5 s each
    import time

    from cavitylab import synthlab

    m = synthlab.generate_wled_map(n_frames=7200, n_pixels=200, seed=0)
    start = time.perf_counter()
    path = dataio.save_csv(m, tmp_path / "wled.csv")
    saved = time.perf_counter() - start
    start = time.perf_counter()
    loaded = dataio.load_csv(path, "spectral_map")
    elapsed = time.perf_counter() - start
    assert len(loaded) == 7200
    assert saved < 5.0
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
        # more rows than the writer encodes in one chunk
        n = dataio._CHUNK_FIELDS // 2 + 1000
        t, temp = np.arange(n) * 0.5, np.resize(_EDGE, n)
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
def test_save_csv_golden_bytes(tmp_path, monkeypatch, name):
    # no schema has a %.9g column: every block takes the per-value path
    monkeypatch.setattr(dataio, "_fixed_bytes", None)
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


# ---------------------------------------------------------------------------
# Spectral maps: the integer-count route against the float parser
# ---------------------------------------------------------------------------

_MAP_ROWS = [["600.0", "1", "2", "3"], ["601.0", "4", "5", "6"], ["602.5", "7", "8", "9"]]


def _map_text(field="5", row=1, line_end="\n", edit=None):
    rows = [list(r) for r in _MAP_ROWS]
    rows[row][2] = field
    if edit:
        edit(rows)
    lines = ["wavelength_nm,frame_0000,frame_0001,frame_0002", *map(",".join, rows)]
    return "".join(line + line_end for line in lines)


def _float_route(path):
    """The float parser's map, as bits, or its error, as type and message;
    a file with a row whose field count is not the header's is refused at
    the first such row."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines() if line]
    ragged = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if ragged:
        return SchemaError, f"expected {len(header)} columns at row {ragged[0]}"
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        return SchemaError, f"malformed numeric data in {path.name}: {exc}"
    try:
        m = SpectralMap(wavelength_nm=data[:, 0], counts=data[:, 1:].T)
    except ValidationError as exc:
        return type(exc), str(exc)
    return m.wavelength_nm.tobytes(), m.counts.tobytes()


def _loaded_map(path):
    try:
        m = dataio.load_csv(path, "spectral_map")
    except ValidationError as exc:
        return type(exc), str(exc)
    return m.wavelength_nm.tobytes(), m.counts.tobytes()


_FIELDS = ["-0", "+1", " 1 ", "007", "9007199254740993", "9223372036854775808", "1e3", "5.0",
           "1_0", "nan", "-2"]


@pytest.mark.parametrize("text", [
    _map_text(),
    *(_map_text(field, row) for field in _FIELDS for row in (0, 2)),
    _map_text("2.5", row=2),  # the integer parse fails only at the last row
    _map_text(edit=lambda rows: rows[1].append("4")),  # ragged: one field too many
    _map_text(edit=lambda rows: rows[2].pop()),  # ragged: one field too few
    _map_text(edit=lambda rows: rows[0].append("")),  # trailing comma
    _map_text(line_end="\r\n"),
    _map_text("-0", line_end="\r\n"),
    _map_text("2.5", row=2, line_end="\r\n"),
])
def test_map_loads_as_the_float_parser_reads_it(tmp_path, text):
    # bit for bit, so also the sign of a zero count; or the same error
    path = tmp_path / "map.csv"
    path.write_bytes(text.encode())
    assert _loaded_map(path) == _float_route(path)


def _integer_parse(dtype) -> bool:
    return dtype.names is not None and any(dtype[name].base.kind == "i" for name in dtype.names)


@pytest.mark.parametrize("offset, parses", [(0.0, [True]), (0.5, [True, False])])
def test_map_counts_parse_as_integers_when_whole(tmp_path, monkeypatch, offset, parses):
    # a whole-number acquisition-sized map takes exactly one integer parse;
    # fractional counts fall back to the float parser and still load
    from cavitylab import synthlab

    m = synthlab.generate_wled_map(n_frames=7200, n_pixels=20, seed=3)
    m = SpectralMap(wavelength_nm=m.wavelength_nm, counts=m.counts + offset)
    path = dataio.save_csv(m, tmp_path / "wled.csv")
    dtypes, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        dtypes.append(np.dtype(kwargs.get("dtype", float)))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    loaded = dataio.load_csv(path, "spectral_map")
    assert [_integer_parse(d) for d in dtypes] == parses
    assert loaded.counts.tobytes() == m.counts.tobytes()
    assert loaded.wavelength_nm.tobytes() == m.wavelength_nm.tobytes()


_ENDINGS = {
    "final newline": lambda text: text,
    "no final newline": lambda text: text[:-1],
    "blank line": lambda text: text.replace("\n601.0", "\n\n601.0"),  # before data row 1
}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
@pytest.mark.parametrize("field, parses", [
    ("5", [True]),  # whole counts: the integer parse
    ("2.5", [True, False]),  # a fraction: the integer parse fails, the float parse reads it
    ("-0", [False]),  # a "-": the float parse only
])
def test_map_parse_buffer_is_sized_by_the_row_count(tmp_path, monkeypatch, ending, field,
                                                    parses):
    # every map parse is told the data row count, so numpy allocates its
    # buffer once; the warning numpy gives for a blank line under max_rows
    # neither leaks nor sends whole counts to the float parse
    path = tmp_path / "map.csv"
    path.write_bytes(_ENDINGS[ending](_map_text(field)).encode())
    assert ("\n\n" in path.read_text()) == (ending == "blank line")
    want = _float_route(path)
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append((_integer_parse(np.dtype(kwargs["dtype"])), kwargs.get("max_rows")))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = _loaded_map(path)
    assert calls == [(integer, len(_MAP_ROWS)) for integer in parses]
    assert loaded == want


def test_fractional_map_falls_back_without_a_line_scan(tmp_path, monkeypatch):
    # the failed integer parse is not diagnosed: the float parse reads the
    # file next and names a ragged row itself. The loader opens the file
    # for its header and for its row count, nothing more
    path = tmp_path / "map.csv"
    path.write_text(_map_text("2.5", row=2))
    modes, real_open = [], open

    def spy(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(dataio, "open", spy, raising=False)
    assert _loaded_map(path) == _float_route(path)
    assert modes == ["r", "rb"]


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


@pytest.mark.parametrize("record", [object(), [], [_UP, object()]],
                         ids=["object", "empty list", "trace and object"])
def test_refused_record_leaves_nothing_on_disk(tmp_path, record):
    with pytest.raises(ValidationError, match="cannot serialize"):
        dataio.save_csv(record, tmp_path / "fx" / "sub" / "y.csv")
    assert not (tmp_path / "fx").exists()


_DATA_ROWS = {
    "spectrum": ["wavelength_nm,counts", "600.0,1", "601.0,2", "602.0,3"],
    "scan": ["axis,signal,direction", "0,1,up", "1,2,up", "2,3,up"],
    "histogram": ["t_ns,counts", "0.5,3", "1.5,2", "2.5,1"],
    "spectral_map": ["wavelength_nm,frame_0000,frame_0001", "600.0,1,2", "601.0,4,5",
                     "602.0,2,3"],
    "temperature_log": ["time_s,temperature_k", "0,285", "60,285.5", "120,286"],
}


@pytest.mark.parametrize("schema", sorted(_DATA_ROWS))
@pytest.mark.parametrize("edit, lines", [
    ("one field too many", 0),
    ("one field too few", 0),
    ("one field too many", 1),  # after an empty line, which numpy skips
])
def test_ragged_row_named_in_every_schema(tmp_path, schema, edit, lines):
    header, *rows = _DATA_ROWS[schema]
    if edit == "one field too many":
        rows[1] += ",7"
    else:
        rows[1] = rows[1].rsplit(",", 1)[0]
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join([header, rows[0], *[""] * lines, *rows[1:]]) + "\n")
    with pytest.raises(SchemaError) as err:
        dataio.load_csv(path, schema)
    assert str(err.value) == f"expected {header.count(',') + 1} columns at row 1"
    assert err.value.row_index == 1
