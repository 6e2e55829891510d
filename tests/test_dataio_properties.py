"""Property tests for the record edge.

Every record constructor, given any arrays, either refuses them with a
ValidationError subclass or returns a record that meets the dataio
invariants; every schema loader does the same for any altered file, and
refuses text that does not parse. ``save_csv`` writes every schema byte for
byte as the per-value oracle of ``test_dataio`` does, and the file reads
back to the record's values. A map's data row count, which sizes its parse
buffer, is the number of rows numpy reads, for any line ends. Canonical
report JSON reads back as the tree it was rendered from, floats rounded to
ten significant digits, with sorted keys, and refuses NaN, infinity and
floats whose ten-digit text reads back as infinity anywhere in the tree.
Examples are derandomized and bounded so that the suite stays
deterministic and fast.
"""

import hashlib
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cavitylab import cli, dataio, optics
from cavitylab.dataio import ScanTrace, SpectralMap, Spectrum, TemperatureLog, TimeHistogram
from cavitylab.errors import ValidationError
from test_dataio import _arrays, _reference_csv
from test_golden_cli import _README_DISPERSION, _THREE_ORDERS, GOLDEN

PROPERTY = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# any float, with the special values and small whole numbers drawn often
_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    st.integers(-3, 20).map(float),
)


@st.composite
def _axes(draw):
    """Length 0-20, as drawn, sorted, reversed or uniform, maybe with one
    sample repeated."""
    order = draw(st.sampled_from(["drawn", "ascending", "descending", "uniform"]))
    if order == "uniform":
        start, step = draw(st.floats(-1e6, 1e6)), draw(st.sampled_from([1e-3, 0.25, 1.0]))
        axis = start + step * np.arange(draw(st.integers(0, 20)))
    else:
        axis = np.array(draw(st.lists(_NUMBERS, max_size=20)), dtype=float)
        if order != "drawn":
            axis = np.sort(axis)
            axis = axis[::-1].copy() if order == "descending" else axis
    if axis.size and draw(st.booleans()):
        i = draw(st.integers(0, axis.size - 1))
        axis = np.insert(axis, i, axis[i])
    return axis


@st.composite
def _axis_and_values(draw):
    """An axis and values on it, of its length or one sample apart."""
    axis = draw(_axes())
    n = max(0, axis.size + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return axis, np.array(draw(st.lists(_NUMBERS, min_size=n, max_size=n)), dtype=float)


def _build(make):
    try:
        return make()
    except ValidationError:
        return None


def _check(rec):
    """Assert the invariants of a built record; return its stored arrays."""
    if isinstance(rec, Spectrum):
        axis, values, counts = rec.wavelength_nm, rec.counts, True
    elif isinstance(rec, ScanTrace):
        axis, values, counts = rec.axis, rec.signal, False
    elif isinstance(rec, TimeHistogram):
        axis, values, counts = rec.bin_centers_ns, rec.counts, True
        assert values.dtype == np.int64
        assert np.isfinite(rec.bin_width_ns) and rec.bin_width_ns > 0
    elif isinstance(rec, SpectralMap):
        axis, values, counts = rec.wavelength_nm, rec.counts, True
        assert values.ndim == 2 and len(rec) >= 1
    else:
        axis, values, counts = rec.time_s, rec.temperature_k, False
    assert axis.ndim == 1 and axis.size >= 2 and np.all(np.isfinite(axis))
    steps = np.diff(axis)
    down = isinstance(rec, ScanTrace) and rec.sweep_direction == "down"
    assert np.all(steps < 0) if down else np.all(steps > 0)
    assert values.shape[-1] == axis.size and np.all(np.isfinite(values))
    if counts:
        assert np.all(values >= 0)
    return [axis, values]


def _assert_sealed(stored, given):
    """Stored arrays are read-only, the caller's stay writeable, and writing
    to the caller's arrays leaves the record as it was."""
    kept = [a.copy() for a in stored]
    assert not any(a.flags.writeable for a in stored)
    assert all(g.flags.writeable for g in given)
    for g in given:
        g[...] = -1
    assert all(np.array_equal(a, b) for a, b in zip(stored, kept))


@PROPERTY
@given(_axis_and_values())
def test_spectrum(data):
    wl, counts = data
    rec = _build(lambda: Spectrum(wavelength_nm=wl, counts=counts))
    if rec is not None:
        _assert_sealed(_check(rec), [wl, counts])


@PROPERTY
@given(_axis_and_values(), st.sampled_from(["up", "down", "sideways"]))
def test_scan_trace(data, direction):
    axis, signal = data
    rec = _build(lambda: ScanTrace(axis=axis, signal=signal, sweep_direction=direction))
    if rec is not None:
        _assert_sealed(_check(rec), [axis, signal])


@PROPERTY
@given(_axis_and_values())
def test_temperature_log(data):
    t, temp = data
    rec = _build(lambda: TemperatureLog(time_s=t, temperature_k=temp))
    if rec is not None:
        _assert_sealed(_check(rec), [t, temp])


@PROPERTY
@given(_axis_and_values(), st.sampled_from(["float", "int64", "object"]))
def test_time_histogram(data, dtype):
    centers, counts = data
    if dtype == "int64":
        counts = np.nan_to_num(counts, posinf=2**62, neginf=-1).clip(-2**62, 2**62)
        counts = counts.astype(np.int64)
    elif dtype == "object":
        counts = counts.astype(object)
    rec = _build(lambda: TimeHistogram(bin_centers_ns=centers, counts=counts))
    if rec is not None:
        stored = _check(rec)
        assert np.array_equal(rec.counts, counts)
        _assert_sealed(stored, [centers, counts])


@PROPERTY
@given(_axis_and_values(), st.integers(0, 3))
def test_spectral_map(data, n_frames):
    wl, row = data
    counts = np.array([np.roll(row, k) for k in range(n_frames)]).reshape(n_frames, row.size)
    rec = _build(lambda: SpectralMap(wavelength_nm=wl, counts=counts))
    if rec is not None:
        _assert_sealed(_check(rec), [wl, counts])


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------

_VALID = {
    "spectrum": "wavelength_nm,counts\n600.0,1\n600.5,4\n601.0,2\n",
    "scan": "axis,signal,direction\n0.0,1,up\n0.5,4,up\n1.0,2,up\n1.0,3,down\n0.5,5,down\n",
    "histogram": "t_ns,counts\n0.5,3\n1.5,2\n2.5,1\n",
    "spectral_map": "wavelength_nm,frame_0000,frame_0001\n600.0,1,2\n600.5,4,5\n601.0,2,3\n",
    "temperature_log": "time_s,temperature_k\n0.0,285.0\n60.0,285.5\n120.0,286.0\n",
}


def _parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# field text that no loader reads as a number
_JUNK = st.text(alphabet="abcxyz #;_-+.e", max_size=4).filter(lambda t: not _parses(t))
# field text that parses, but may break an invariant
_NUMERIC = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e999", "2.5", "600.0", "1e20"])


@st.composite
def _altered(draw, schema):
    """(file text, whether some field or row of it cannot parse)."""
    rows = [line.split(",") for line in _VALID[schema].splitlines()]
    kind = draw(st.sampled_from(
        ["junk field", "drop field", "extra field", "header", "numeric field",
         "swap rows", "truncate"]
    ))
    r = draw(st.integers(1, len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    if kind == "junk field":
        rows[r][c] = draw(_JUNK)
    elif kind == "drop field":
        del rows[r][c]
    elif kind == "extra field":
        rows[r].append(draw(st.one_of(_JUNK, _NUMERIC)))
    elif kind == "header":
        rows[0] = draw(st.lists(st.sampled_from(["t_ns", "counts", "frame_0000", "x", ""]),
                                min_size=1, max_size=3))
    elif kind == "numeric field":
        rows[r][c] = draw(_NUMERIC)
    elif kind == "swap rows":
        s = draw(st.integers(1, len(rows) - 1))
        rows[r], rows[s] = rows[s], rows[r]
    else:
        rows = rows[:r]
    text = "\n".join(",".join(row) for row in rows) + "\n"
    return text, kind in ("junk field", "drop field", "extra field")


@pytest.mark.parametrize("schema", sorted(_VALID))
@PROPERTY
@given(data=st.data())
@example(data=None)
def test_load_csv(tmp_path, schema, data):
    text, unparsable = (_VALID[schema], False) if data is None else data.draw(_altered(schema))
    path = tmp_path / "input.csv"
    path.write_text(text)
    try:
        loaded = dataio.load_csv(path, schema)
    except ValidationError:
        return
    assert not unparsable
    records = loaded if schema == "scan" else [loaded]
    assert records
    for rec in records:
        _check(rec)


@st.composite
def _line_texts(draw):
    """A header and up to 12 one-field lines, empty ones drawn often, each
    ended by "\n", "\r" or "\r\n"; the last line maybe not ended."""
    lines = draw(st.lists(st.sampled_from(["", "", "1", " ", "-7", "ab"]), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "".join(line + end for line, end in zip(["h", *lines], ends))
    return text.rstrip("\r\n") if lines and draw(st.booleans()) else text


@PROPERTY
@given(_line_texts(), st.sampled_from([1, 2, 3, 1 << 20]))
def test_map_row_count_is_the_parsers(tmp_path, text, read_bytes):
    # the count that sizes a map's parse buffer is the number of rows numpy
    # reads, whatever the line ends, the empty lines and the read size
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_READ_BYTES", read_bytes)
        counted = dataio._data_rows(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns when no row holds data
        rows = np.loadtxt(path, dtype="U4", delimiter=",", skiprows=1, ndmin=1, comments=None)
    assert counted == (len(rows), "-" in text)


# ---------------------------------------------------------------------------
# CSV writer against the per-value rule
# ---------------------------------------------------------------------------

# whole numbers on both sides of every power of ten up to 1e18, so below,
# inside and above the writer's digit table, and their negatives
_WHOLE = [s * (10**p + d) for p in range(19) for d in (-1, 0, 1) for s in (1, -1)]
_FLOAT_EDGES = [-0.0, 1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
                2.0**53 + 2.0, 2.0**60, 5e-324, -2.2250738585072014e-308, 1e-05, 0.1, 2.5,
                -7.25, 1e300]
_FLOATS = st.one_of(
    st.sampled_from(_FLOAT_EDGES),
    st.sampled_from(_WHOLE).map(float),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
# non-negative values, -0.0 included
_COUNTS = st.one_of(st.just(-0.0), _FLOATS.map(abs))
# int64 counts, with those above 2**53 that have no exact float
_INT64_COUNTS = st.one_of(
    st.sampled_from([w for w in _WHOLE if w >= 0] + [2**53 + 1, 2**53 + 2, 2**60, 2**62]),
    st.integers(0, 2**62),
)


def _values(draw, strategy, n):
    return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))


@st.composite
def _written(draw, schema):
    """(record, header, columns as the reference writer sees them)."""
    if schema == "histogram":
        n = draw(st.integers(2, 12))
        counts = _values(draw, _INT64_COUNTS, n).astype(np.int64)
        centers = draw(st.sampled_from([0.0, 0.125, -2.5, 1e3])) + draw(
            st.sampled_from([0.1, 0.25, 1.0])) * np.arange(n)
        return (TimeHistogram(bin_centers_ns=centers, counts=counts), "t_ns,counts",
                [centers, counts])
    axis = np.unique(draw(st.lists(_FLOATS, min_size=2, max_size=12)))
    assume(axis.size >= 2)
    n = axis.size
    if schema == "spectrum":
        counts = _values(draw, _COUNTS, n)
        return Spectrum(wavelength_nm=axis, counts=counts), "wavelength_nm,counts", [axis, counts]
    if schema == "temperature_log":
        temp = _values(draw, _FLOATS, n)
        return (TemperatureLog(time_s=axis, temperature_k=temp), "time_s,temperature_k",
                [axis, temp])
    if schema == "scan":
        ramps = [ScanTrace(axis=axis, signal=_values(draw, _FLOATS, n))]
        if draw(st.booleans()):
            ramps.append(ScanTrace(axis=axis[::-1], signal=_values(draw, _FLOATS, n),
                                   sweep_direction="down"))
        columns = [np.concatenate([r.axis for r in ramps]),
                   np.concatenate([r.signal for r in ramps]),
                   [r.sweep_direction for r in ramps for _ in range(n)]]
        return ramps, "axis,signal,direction", columns
    n_frames = draw(st.integers(1, 4))
    counts = _values(draw, _COUNTS, n_frames * n).reshape(n_frames, n)
    header = ",".join(["wavelength_nm"] + [f"frame_{i:04d}" for i in range(n_frames)])
    return SpectralMap(wavelength_nm=axis, counts=counts), header, [axis, *counts]


@pytest.mark.parametrize(
    "schema", ["spectrum", "scan", "histogram", "spectral_map", "temperature_log"]
)
@PROPERTY
@given(data=st.data())
def test_save_csv_writes_the_per_value_rule(tmp_path, schema, data):
    # every field byte for byte as the one-value-at-a-time oracle writes it,
    # one row or a few per chunk as well as the whole file in one chunk
    record, header, columns = data.draw(_written(schema))
    chunk = data.draw(st.sampled_from([1, 5, dataio._CHUNK_FIELDS]))
    path = tmp_path / "written.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_FIELDS", chunk)
        dataio.save_csv(record, path)
    assert path.read_bytes() == _reference_csv(header, columns)
    # an int64 count with no exact float reads back as its nearest float
    for got, want in zip(_arrays(dataio.load_csv(path, schema)), _arrays(record), strict=True):
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(np.asarray(got, float), np.asarray(want, float))


# ---------------------------------------------------------------------------
# The fixed-precision rule against "%.9g"
# ---------------------------------------------------------------------------

# each power of ten from 1e-5 to 1e10, 1 ulp either side of it, and values
# just below it that round up to it at nine digits (99.9999999996 is 100)
_G9_EDGES = sorted({
    w for p in range(-5, 11)
    for v in [10.0**p] for w in (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf),
                                 v * (1 - 4e-12), v * (1 - 4e-10), v * (1 - 6e-10))
} | {99.9999999996, 999999999.5, 999999999.4999999, 12345678.25, 0.5, 0.0001, 0.00010000001,
     0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, sys.float_info.max,
     np.nextafter(sys.float_info.max, 0.0), np.inf, -np.inf, np.nan})


@st.composite
def _g9_ties(draw):
    """An exact tie of the ninth digit, or 1 ulp either side of it: j / 2**(d + 1)
    for odd j has d decimals and a 5 after them, and d = 8 - e at exponent e."""
    d = draw(st.integers(1, 12))
    scale = 2 ** (d + 1)
    lo = math.ceil(Fraction(10) ** (8 - d) * scale)
    hi = math.ceil(Fraction(10) ** (9 - d) * scale) - 1
    tie = (2 * draw(st.integers(lo // 2, (hi - 1) // 2)) + 1) / scale
    return draw(st.sampled_from([tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]))


@st.composite
def _g9_decimal_ties(draw):
    """Ten significant digits ending in 5 at an exponent in [-4, 9): the
    nearest float lies on either side of the tie, and the scaled product
    may round onto it."""
    digits = draw(st.integers(10**8, 10**9 - 1))
    return float(f"{digits}5e{draw(st.integers(-4, 8)) - 9}")


_G9_VALUES = st.one_of(
    st.sampled_from(_G9_EDGES),
    _g9_ties(),
    _g9_decimal_ties(),
    st.floats(1e-5, 1e10),
    st.floats(),
).flatmap(lambda v: st.sampled_from([v, -v]))


@PROPERTY
@given(st.lists(_G9_VALUES, min_size=1, max_size=30),
       st.sampled_from([1, 5, dataio._CHUNK_FIELDS]))
@example([0.5, 0.0001, 0.00012, 1.5, 100.0], dataio._CHUNK_FIELDS)
def test_fixed_rule_writes_percent_9g(tmp_path, values, chunk):
    # trailing zeros go whatever their count: 0.5, not 0.50; 0.0001, not
    # 0.00010; a whole number has no point
    path = tmp_path / "fixed.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_FIELDS", chunk)
        dataio._write_csv(path, "v", [np.array(values)], fixed=(0,))
    assert path.read_bytes() == "".join(["v\n"] + ["%.9g\n" % v for v in values]).encode()


@pytest.mark.parametrize("command", [_README_DISPERSION, _THREE_ORDERS])
def test_dispersion_map_is_the_same_in_any_chunks(tmp_path, command):
    # the whole map in the default chunks and in chunks of 997 rows writes
    # the golden bytes; one-row chunks (_CHUNK_FIELDS 1 and 5 for its four
    # fields) on every 25th row write what one chunk does
    args = cli.build_parser().parse_args(command.split())
    l_grid = np.arange(args.l_min, args.l_max + 1e-12, args.l_step_nm / 1000.0)
    m = optics.mode_indices((args.l_min, args.l_max), sorted((args.lambda_exc, args.lambda_det)))
    rows = optics.dispersion_map(args.roc, l_grid, m, args.transverse_orders)
    header = "l_eff_um,wavelength_nm,mode_m,transverse_order"

    def written(rows, chunk):
        path = tmp_path / f"map{chunk}.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK_FIELDS", chunk)
            dataio._write_csv(path, header, [rows[:, :2], rows[:, 2:]], fixed=(0,))
        return path.read_bytes()

    golden = GOLDEN[command]["dispersion_map.csv"]
    for chunk in (dataio._CHUNK_FIELDS, 4 * 997):
        assert hashlib.sha256(written(rows, chunk)).hexdigest() == golden
    every_25th = rows[::25]
    whole = written(every_25th, dataio._CHUNK_FIELDS)
    assert all(written(every_25th, chunk) == whole for chunk in (1, 5))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

# the largest float whose ten-digit text is finite: 1.797693135e308 overflows
_REPORTABLE = 1.797693134e308
_LEAVES = st.one_of(
    st.integers(),
    st.floats(min_value=-_REPORTABLE, max_value=_REPORTABLE),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


def _same(parsed, tree):
    """``parsed`` equals ``tree`` with each float rounded to ``%.10g``;
    numbers compare by value, everything else by type and value."""
    if isinstance(tree, float):
        rounded = float("%.10g" % tree)
        return type(parsed) in (int, float) and parsed == rounded
    if type(parsed) is not type(tree):
        return False
    if isinstance(tree, list):
        return len(parsed) == len(tree) and all(map(_same, parsed, tree))
    if isinstance(tree, dict):
        return parsed.keys() == tree.keys() and all(_same(parsed[k], tree[k]) for k in tree)
    return parsed == tree


@PROPERTY
@given(_TREES)
def test_canonical_json_round_trip(tree):
    assert _same(json.loads(dataio.canonical_json(tree)), tree)


@PROPERTY
@given(_TREES)
def test_canonical_json_keys_sorted_at_every_level(tree):
    def sorted_pairs(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(dataio.canonical_json(tree), object_pairs_hook=sorted_pairs)


@st.composite
def _trees_with_nonfinite(draw):
    """A tree with one NaN, infinity or float that rounds to infinity at ten
    digits planted at a drawn depth and place."""
    bad = draw(st.sampled_from(
        [math.nan, math.inf, -math.inf, sys.float_info.max, -sys.float_info.max]
    ))

    def plant(node):
        if isinstance(node, list):
            if node and draw(st.booleans()):
                i = draw(st.integers(0, len(node) - 1))
                return node[:i] + [plant(node[i])] + node[i + 1:]
            i = draw(st.integers(0, len(node)))
            return node[:i] + [bad] + node[i:]
        if isinstance(node, dict):
            if node and draw(st.booleans()):
                key = draw(st.sampled_from(sorted(node)))
                return {**node, key: plant(node[key])}
            return {**node, draw(st.text(max_size=6)): bad}
        return bad

    return plant(draw(_TREES))


@PROPERTY
@given(_trees_with_nonfinite())
@example({"v": sys.float_info.max})
def test_canonical_json_refuses_nonfinite_anywhere(tree):
    with pytest.raises(ValidationError):
        dataio.canonical_json(tree)
