"""Ingestion, validation and persistence of experimental trace formats.

All record types validate their invariants at construction, each by one
check that every record shares: the sample axis has at least two samples,
all finite and strictly ascending (descending for a ``down`` scan); the
values on it match its length and are finite, counts also non-negative
(whole int64 numbers in a histogram). A failure names the row (in a map
also the frame and its column). Stored arrays are read-only: a writeable
array the caller holds is copied, so the record never changes and the
caller's array stays writeable; a read-only one is taken as handed over.
A :class:`SpectralMap` is columnar: one ``(n_frames, n_pixels)`` counts
matrix on one wavelength grid; per-frame :class:`Spectrum` records are
built only when ``SpectralMap.frames`` is read.

CSV schemas use one exact header line (comma separated, UTF-8):

====================  =========================================
schema id             header
====================  =========================================
``spectrum``          ``wavelength_nm,counts``
``scan``              ``axis,signal,direction``
``histogram``         ``t_ns,counts``
``spectral_map``      ``wavelength_nm,frame_0000,frame_0001,...``
``temperature_log``   ``time_s,temperature_k``
====================  =========================================

Units at the boundary follow the internal convention everywhere:
wavelengths in nm, times in ns (logs in s), lengths in um, rates in GHz,
powers in mW, intensities in kC/s.

Numbers are written one rule for every schema: an integral value below 1e16
in magnitude as an integer, any other value as the shortest ``repr`` that
round-trips. In a ``spectral_map`` file each row is one pixel and each
``frame_NNNN`` column one frame. The writer builds integer fields as bytes
in numpy, a chunk of rows at a time: digit words gathered from a table by
base-1000 limb, NUL in every byte a field drops, so that a chunk is one
byte array written less its NUL bytes. Only the other fields become Python
objects, one ``repr`` or ``str`` each, NUL-padded. One file that is no
schema, the dispersion map of ``cavitylab dispersion``, writes its lengths
and wavelengths by a second, fixed-precision rule, ``"%.9g" % v``, built
as bytes the same way (see :func:`_fixed_bytes`); a value the byte kernel
cannot settle exactly takes ``%`` itself.

Every file is read through one ``np.loadtxt`` call site (:func:`_loadtxt`),
in one pass but for the map rule below, into a structured array with one
field per column, named after the record field it fills (see
``_SCHEMAS``): numbers as float64, and a scan's direction label as an
8-byte field, wide enough to quote a label such as ``sideways`` when it is
refused. A label must be exactly ``up`` or ``down``; the labels are
checked with numpy, and a scan's ramps are split where the label changes.
A file that does not parse is refused, in every schema, at its first data
row whose field count is not the header's: "expected N columns at row i",
with ``row_index`` i, rows counted from 0 after the header and skipping
the empty lines numpy skips. Any other parse error gives numpy's message.

A ``spectral_map`` file, whose counts are whole numbers in practice, is
parsed by one more rule: a map with no "-" in its data rows is first
parsed with the wavelength as float64 and the counts as int64, which numpy
parses about a third faster. The counts are then converted to float64
inside the parsed buffer. An int64 converts to the float nearest to it,
ties to even, as the float parser rounds the same digits, so this route
gives the float parse's bits. "-" is excluded because "-0" parses as the
integer 0 but the float -0.0 (and a negative count is refused anyway). Any
field that does not parse as an int64 (a fraction, an exponent, ``nan``,
2**63 and above), any numpy warning or a ragged row sends the file to the
float parse, which gives every error message; the failed integer parse
is not diagnosed. A 7200-frame, 200-pixel map loads in about 40-60 ms on
a 2-CPU Xeon host, against 60-65 ms by the float parse, and saves in
about 20-25 ms.

Memory: the one pass over a map's bytes that looks for "-" also counts
its data rows as numpy does (lines end at "\\n", "\\r\\n" or "\\r"; empty
lines are no rows). Either parse is given that count as ``max_rows``, so
numpy allocates its structured buffer once, at the map's size, instead
of growing it by reallocation, and the loaded map is a view of that one
buffer. No pass over a block builds a full-size temporary for what the
block's minimum and maximum answer: the value check and the writer's
sign and limb count read those two, and build masks only where a value
is bad or negative. Loading that map peaks at 1.10 times its counts'
bytes under tracemalloc.

JSON reports are canonical (sorted keys, floats rendered with ``%.10g``) so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models
from .errors import DataError, InsufficientDataError, SchemaError, ValidationError, check_domain

__all__ = [
    "ScanTrace",
    "SpectralMap",
    "Spectrum",
    "TemperatureLog",
    "TimeHistogram",
    "canonical_json",
    "digest_arrays",
    "digest_file",
    "export_report",
    "load_csv",
    "make_report",
    "save_csv",
]


def _freeze(obj, name, values, dtype=float, ndim=1):
    """Store ``values`` on ``obj`` read-only, copied if its caller can write it."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional")
    if arr.flags.writeable and (arr is values or arr.base is not None):
        arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def _axis(name: str, axis: np.ndarray, descending: bool = False):
    """Check a sample axis: at least two samples, every one finite, strictly
    ascending (strictly descending when ``descending``)."""
    if axis.size < 2:
        raise InsufficientDataError(f"{name} needs at least two samples")
    bad = np.flatnonzero(~np.isfinite(axis))
    if bad.size:
        raise DataError(f"{name} contains non-finite value at row {bad[0]}", index=int(bad[0]))
    steps = np.diff(axis)
    bad = np.flatnonzero(steps >= 0 if descending else steps <= 0)
    if bad.size:
        order = "descending" if descending else "ascending"
        raise SchemaError(f"{name} not strictly {order} at row {bad[0]}", row_index=int(bad[0]))


def _values(name: str, values: np.ndarray, axis: np.ndarray, counts: bool = False):
    """Check values on ``axis``, one row or one row per frame: every value
    finite, and non-negative when they are ``counts``.

    The block's minimum and maximum decide it (NaN propagates into both):
    the masks of bad values are built only to name the first one."""
    if values.shape[-1] != axis.size:
        raise ValidationError(
            f"{name} and its axis differ in length ({values.shape[-1]} != {axis.size})"
        )
    low, high = values.min(), values.max()
    if np.isfinite(low) and np.isfinite(high) and not (counts and low < 0):
        return
    bad, kind = ~np.isfinite(values), "non-finite"
    if counts and not bad.any():
        bad, kind = values < 0, "negative"
    if not bad.any():
        return
    *frame, row = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    if frame:
        raise DataError(
            f"{name} contains {kind} value in frame {frame[0]} "
            f"(column {_frame_column(frame[0])}) at row {row}",
            index=(frame[0], row),
        )
    raise DataError(f"{name} contains {kind} value at row {row}", index=row)


_frame_column = "frame_{:04d}".format


@functools.lru_cache(maxsize=4)
def _map_header(n_frames: int) -> str:
    return ",".join(["wavelength_nm", *map(_frame_column, range(n_frames))])


@dataclass(frozen=True)
class Spectrum:
    """Counts versus strictly ascending wavelength (nm)."""

    wavelength_nm: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        wl = _freeze(self, "wavelength_nm", self.wavelength_nm)
        _axis("wavelength_nm", wl)
        _values("counts", _freeze(self, "counts", self.counts), wl, counts=True)

    def __len__(self):
        return self.wavelength_nm.size


@dataclass(frozen=True)
class ScanTrace:
    """One piezo ramp: transmitted signal versus scan axis (volts or time)."""

    axis: np.ndarray
    signal: np.ndarray
    sweep_direction: str = "up"

    def __post_init__(self):
        if self.sweep_direction not in ("up", "down"):
            raise ValidationError(
                f"sweep_direction must be 'up' or 'down', got {self.sweep_direction!r}"
            )
        axis = _freeze(self, "axis", self.axis)
        _axis("axis", axis, descending=self.sweep_direction == "down")
        _values("signal", _freeze(self, "signal", self.signal), axis)

    def __len__(self):
        return self.axis.size


@dataclass(frozen=True)
class TimeHistogram:
    """Uniformly binned time-delay histogram with integer counts (bin width derived)."""

    bin_centers_ns: np.ndarray
    counts: np.ndarray
    bin_width_ns: float = field(init=False)

    def __post_init__(self):
        centers = _freeze(self, "bin_centers_ns", self.bin_centers_ns)
        _axis("bin_centers_ns", centers)
        counts = np.asarray(self.counts)
        if counts.dtype.kind != "i":
            # the int64 cast would wrap NaN, +-inf and values from 2**63 up
            f = np.asarray(counts, dtype=float)
            bad = np.flatnonzero(~((f == np.round(f)) & (np.abs(f) < 2.0**63)))
            if bad.size:
                raise DataError(
                    f"counts must be whole numbers below 2**63, got {f[bad[0]]} at row {bad[0]}",
                    index=int(bad[0]),
                )
        _values("counts", _freeze(self, "counts", counts, dtype=np.int64), centers, counts=True)
        widths = np.diff(centers)
        width = float(models.median(widths))
        # written so that a NaN or infinite width fails
        if not np.all(np.abs(widths - width) <= 1e-9 * width):
            raise ValidationError("bin width not uniform within 1e-9 relative")
        object.__setattr__(self, "bin_width_ns", width)

    def __len__(self):
        return self.bin_centers_ns.size


@dataclass(frozen=True)
class SpectralMap:
    """Time-ordered spectra on one wavelength grid, held as one matrix.

    ``counts`` is a read-only ``(n_frames, n_pixels)`` matrix whose row ``i``
    is frame ``i`` on the grid ``wavelength_nm``.
    """

    wavelength_nm: np.ndarray
    counts: np.ndarray
    frame_period_s: float = 1.0

    def __post_init__(self):
        wl = _freeze(self, "wavelength_nm", self.wavelength_nm)
        _axis("wavelength_nm", wl)
        counts = _freeze(self, "counts", self.counts, ndim=2)
        if counts.shape[0] == 0:
            raise ValidationError("spectral map needs at least one frame")
        _values("counts", counts, wl, counts=True)
        check_domain("positive and finite", frame_period_s=self.frame_period_s)

    @property
    def frames(self) -> tuple[Spectrum, ...]:
        """The frames as :class:`Spectrum` records, built on each access."""
        return tuple(Spectrum(wavelength_nm=self.wavelength_nm, counts=row) for row in self.counts)

    def counts_matrix(self) -> np.ndarray:
        """Counts as a (n_frames, n_wavelengths) array (the stored matrix)."""
        return self.counts

    def times_s(self) -> np.ndarray:
        return np.arange(len(self)) * self.frame_period_s

    def __len__(self):
        return self.counts.shape[0]


@dataclass(frozen=True)
class TemperatureLog:
    """Sensor temperature versus time, used by the thermal-drift pipeline."""

    time_s: np.ndarray
    temperature_k: np.ndarray

    def __post_init__(self):
        t = _freeze(self, "time_s", self.time_s)
        _axis("time_s", t)
        _values("temperature_k", _freeze(self, "temperature_k", self.temperature_k), t)

    def __len__(self):
        return self.time_s.size


# ---------------------------------------------------------------------------
# CSV load/save
# ---------------------------------------------------------------------------

# each schema: its record type, its header (a map's is built from its frame
# count) and the record fields its columns fill, in column order (a map's
# counts fill every column after the first)
_SCHEMAS = {
    "spectrum": (Spectrum, "wavelength_nm,counts", ("wavelength_nm", "counts")),
    "scan": (ScanTrace, "axis,signal,direction", ("axis", "signal", "sweep_direction")),
    "histogram": (TimeHistogram, "t_ns,counts", ("bin_centers_ns", "counts")),
    "spectral_map": (SpectralMap, None, ("wavelength_nm", "counts")),
    "temperature_log": (TemperatureLog, "time_s,temperature_k", ("time_s", "temperature_k")),
}


def load_csv(path, schema_id: str):
    """Load and validate one CSV file.

    Parameters
    ----------
    path : str or Path
    schema_id : str
        One of ``spectrum``, ``scan``, ``histogram``, ``spectral_map``,
        ``temperature_log``.

    Returns
    -------
    Spectrum, list[ScanTrace], TimeHistogram, SpectralMap or TemperatureLog
        ``scan`` files may contain several ramps (runs of constant
        direction); each ramp becomes one ScanTrace.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not any(line.strip() for line in fh):
            raise InsufficientDataError(f"{path.name} holds no data rows")
    if schema_id not in _SCHEMAS:
        raise ValidationError(f"unknown schema id {schema_id!r}")
    record_type, expected, fields = _SCHEMAS[schema_id]
    if record_type is SpectralMap:
        return _load_spectral_map(path, header)
    if header != expected:
        raise SchemaError(
            f"header mismatch for schema {schema_id!r}: expected {expected!r}, got {header!r}"
        )
    # a direction label is read as bytes, wide enough to quote "sideways"
    data = _loadtxt(path, np.dtype([(name, "S8" if name == "sweep_direction" else "f8")
                                    for name in fields]))
    if record_type is not ScanTrace:
        return record_type(**{name: data[name] for name in fields})
    labels = data["sweep_direction"]
    bad = np.flatnonzero((labels != b"up") & (labels != b"down"))
    if bad.size:
        i = int(bad[0])
        raise SchemaError(f"unknown sweep direction {labels[i].decode('latin-1')!r} at row {i}",
                          row_index=i)
    # each run of one direction label is one ramp
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(data)]
    return [ScanTrace(axis=data["axis"][lo:hi], signal=data["signal"][lo:hi],
                      sweep_direction=labels[lo].decode())
            for lo, hi in zip(bounds, bounds[1:])]


def _loadtxt(path: Path, dtype: np.dtype, max_rows: int | None = None,
             name_rows: bool = True) -> np.ndarray:
    """The data rows of ``path`` parsed to ``dtype`` in one pass, read-only.

    ``max_rows``, the file's data row count where the caller has it, lets
    numpy allocate its buffer once at that size instead of growing it.
    A file that does not parse is refused with a :class:`SchemaError`: at
    the first data row whose field count is not the header's, skipping the
    empty lines numpy skips, or else with numpy's own message. With
    ``name_rows`` false numpy's ``ValueError`` is raised as it is, for a
    caller that parses the file again on failure.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns that an empty line does not count towards
            # max_rows; nor does it in the caller's count
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
            # no comment character: "#" in a field is malformed
            data = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, ndmin=1,
                              comments=None, max_rows=max_rows)
    except ValueError as exc:
        if not name_rows:
            raise
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = (line for line in fh if line != "\n")
            n_columns = next(lines).count(",") + 1
            for i, line in enumerate(lines):
                if line.count(",") + 1 != n_columns:
                    raise SchemaError(f"expected {n_columns} columns at row {i}",
                                      row_index=i) from exc
        raise SchemaError(f"malformed numeric data in {path.name}: {exc}") from exc
    # nothing else holds the array, so records keep views of it uncopied
    data.flags.writeable = False
    return data


def _load_spectral_map(path: Path, header: str) -> SpectralMap:
    columns = header.split(",")
    n_frames = len(columns) - 1
    if columns[0] != "wavelength_nm" or not n_frames:
        raise SchemaError(
            f"spectral_map header must start with 'wavelength_nm,frame_0000', got {header!r}"
        )
    if header != _map_header(n_frames):
        i = next(i for i, name in enumerate(columns[1:]) if name != _frame_column(i))
        raise SchemaError(
            f"spectral_map column {i + 1} must be {_frame_column(i)!r}, got {columns[i + 1]!r}"
        )
    n_rows, signed = _data_rows(path)
    data = None if signed else _load_whole_counts(path, n_frames, n_rows)
    if data is None:
        data = _loadtxt(path, _map_dtype("f8", n_frames), n_rows)
    return SpectralMap(wavelength_nm=data["wavelength_nm"], counts=data["counts"].T)


# bytes read at a time by the row count
_READ_BYTES = 1 << 20


def _data_rows(path: Path) -> tuple[int, bool]:
    """The number of data rows numpy's parser reads in ``path``, and
    whether a "-" occurs in the file, from one pass over its bytes.

    A line ends at "\\n", "\\r\\n" or "\\r", as in the text layer numpy
    reads through, and a line with no byte is no row, as numpy skips it;
    the header line is not counted. The scan takes a Python step per line:
    a map's lines are long, one a pixel.
    """
    rows, signed, open_line = -1, False, False
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_READ_BYTES), b""):
            signed = signed or b"-" in chunk
            # "\r\n" becomes a line end and an empty line, which is no row
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r", b"\n")
            start, end = 0, chunk.find(b"\n")
            while end >= 0:
                rows += open_line or end > start
                open_line, start = False, end + 1
                end = chunk.find(b"\n", start)
            open_line = start < len(chunk)
    return rows + open_line, signed


def _map_dtype(counts: str, n_frames: int) -> np.dtype:
    return np.dtype([("wavelength_nm", "f8"), ("counts", counts, (n_frames,))])


# rows converted at a time: a block's temporary copy stays a few hundred kB
_CONVERT_FIELDS = 32768


def _load_whole_counts(path: Path, n_frames: int, n_rows: int) -> np.ndarray | None:
    """The map's ``n_rows`` rows as the float parse reads them, read with
    int64 counts by the rule of the module docstring, or None where the
    file needs the float parse: any parse error or warning. The counts
    become float64 in the parsed buffer, a few rows at a time, so the
    returned array is a read-only view of that one buffer in the float
    parse's dtype.
    """
    try:
        # a numpy that reads a fractional field into an int64 with a
        # deprecation warning would give a wrong count: fall back on it too.
        # The float parse names a ragged row, so this one does not look
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = _loadtxt(path, _map_dtype("i8", n_frames), n_rows, name_rows=False)
    except (ValueError, Warning):
        return None
    raw.flags.writeable = True
    ints = raw.view(np.int64).reshape(raw.size, -1)
    data = raw.view(np.float64).reshape(raw.size, -1)
    step = max(1, _CONVERT_FIELDS // (n_frames + 1))
    for lo in range(0, len(data), step):
        data[lo:lo + step, 1:] = ints[lo:lo + step, 1:]
    raw.flags.writeable = False
    return raw.view(_map_dtype("f8", n_frames))


def save_csv(record, path) -> Path:
    """Write a record in its CSV schema; inverse of :func:`load_csv`.

    A list of scan ramps is one file, the ramps' rows in order. The file
    ends a ramp only where the direction changes, so two adjacent ramps of
    one direction are refused. A ``spectral_map`` file has no field for a
    frame period, so a map whose ``frame_period_s`` is not 1.0 is refused.
    Every refusal is a :class:`ValidationError` raised before anything is
    made on disk.
    """
    ramps = [record] if isinstance(record, ScanTrace) else record
    if isinstance(ramps, Sequence) and ramps and all(isinstance(r, ScanTrace) for r in ramps):
        for i in range(1, len(ramps)):
            if ramps[i].sweep_direction == ramps[i - 1].sweep_direction:
                raise ValidationError(
                    f"scan ramp {i} runs {ramps[i].sweep_direction} as ramp {i - 1} does: "
                    f"a scan file ends a ramp only where the direction changes")
        header = _SCHEMAS["scan"][1]
        blocks = [np.concatenate([r.axis for r in ramps]),
                  np.concatenate([r.signal for r in ramps]),
                  np.repeat(np.array([r.sweep_direction for r in ramps], dtype=object),
                            [len(r) for r in ramps])]
    else:
        schema = next((s for s in _SCHEMAS.values() if isinstance(record, s[0])), None)
        if schema is None:
            raise ValidationError(f"cannot serialize record of type {type(record).__name__}")
        record_type, header, fields = schema
        blocks = [getattr(record, name) for name in fields]
        if record_type is SpectralMap:
            if record.frame_period_s != 1.0:
                raise ValidationError(
                    f"a spectral_map file holds no frame period: frame_period_s must be 1.0 "
                    f"to be saved, got {record.frame_period_s!r}")
            header, blocks[1] = _map_header(len(record)), record.counts.T
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, header, blocks)
    return path


# fields encoded at once: a few rows of an acquisition-sized map, or
# thousands of rows of a narrow file. A field takes a few dozen bytes of
# work arrays, NUL in the bytes it drops, so a chunk needs a few megabytes
# whatever the file size.
_CHUNK_FIELDS = 65536
_LIMB_POWERS = [1000**k for k in range(7)]


def _limb_words(lowest: bool) -> np.ndarray:
    """A limb's 4-byte words, "000," to "999," twice, NUL in the bytes it drops.

    Rows 0-999 serve a limb with no nonzero limb above it, by its value:
    they drop its leading zeros, and a zero limb keeps one "0" if it is the
    ``lowest`` limb, else nothing. Rows 1000-1999 serve a limb below a
    nonzero one and keep all three digits. Only the lowest limb keeps the
    separator.
    """
    words = np.array([f"{i % 1000:03d}," for i in range(2000)], "S4").view(np.uint8).reshape(-1, 4)
    words[:100, 0] = words[:10, 1] = 0
    if not lowest:
        words[0, 2] = words[:, 3] = 0
    return words.view(np.uint32).ravel()


_LOWEST_WORDS, _HIGHER_WORDS = _limb_words(True), _limb_words(False)
# a sign word, "-" where its index is 1
_SIGN = np.frombuffer(b"\0\0\0\0-\0\0\0", np.uint32)


def _integer_bytes(ints: np.ndarray) -> np.ndarray:
    """The bytes of integers below 1e16 in magnitude, each followed by ",",
    NUL where a byte is dropped; ``(*ints.shape, n_bytes)``.

    Each integer is one 4-byte word per base-1000 limb, gathered from
    ``_LOWEST_WORDS`` or ``_HIGHER_WORDS``, after a sign word when any of
    them is negative, so that leading zeros, inner separators and unused
    signs are NUL. The block's minimum and maximum give the sign word and
    the limb count; magnitudes and the sign mask are built only when the
    minimum is negative.
    """
    low = int(ints.min())
    top, sign = max(int(ints.max()), -low), int(low < 0)
    size = np.abs(ints).ravel() if sign else ints.ravel()
    n_limbs = 1
    while top >= _LIMB_POWERS[n_limbs]:
        n_limbs += 1
    words = np.empty((size.size, sign + n_limbs), np.uint32)
    if sign:
        words[:, 0] = _SIGN.take(ints.ravel() < 0)
    for k in range(n_limbs):
        power = _LIMB_POWERS[n_limbs - 1 - k]
        limb = size // power if power > 1 else size
        if k:  # below the leading limb: all digits once a higher one is nonzero
            limb = limb - 1000 * (limb // 1000)  # limb % 1000, at a third of its cost
            limb += 1000 * (size >= 1000 * power)
        words[:, sign + k] = (_LOWEST_WORDS if power == 1 else _HIGHER_WORDS).take(limb)
    return words.view(np.uint8).reshape(*ints.shape, -1)


_POW10 = np.array([float(10**k) for k in range(13)])  # exact as floats
_G9_PREFIX = np.frombuffer(b"-0.000\0\0", np.uint64)
# clears the point slot after the last digit and writes the separator
_G9_COMMA = np.uint64(ord(".") << 40 | ord(",") << 56)


@functools.cache
def _g9_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The %.9g rule's tables, built on first use.

    Its field is a prefix word, "-0.000", then q's nine digits by base-1000
    limb, one 8-byte word each with a point slot after every digit, and the
    separator as the last word's last byte. Returned: the limb words by
    value; the digits of q through a limb's last nonzero one, by value, for
    its top, middle and low limb (0 for a zero limb); and the byte masks,
    0xFF on each byte kept and 0x00 on each byte dropped, one row of four
    words per (exponent e in [-4, 9), sign, significant digits n in 0-9),
    where n = 0 keeps only the separator, for the fallback. Kept: the sign;
    "0." and -1 - e zeros for e < 0; the digits through the n-th, and at
    least e + 1 of them; the point after digit e + 1 when digits follow it.
    """
    digits = _HIGHER_WORDS.view(np.uint8).reshape(2000, 4)[1000:, :3]
    limbs = np.zeros((1000, 8), np.uint8)
    limbs[:, 0:6:2], limbs[:, 1:6:2] = digits, ord(".")
    nonzero = digits != ord("0")
    last = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    significant = np.where(last > 0, last + np.array([[0], [3], [6]]), 0).astype(np.int8)

    e = np.arange(-4, 9)[:, None, None]
    sign = np.arange(2)[None, :, None]
    n = np.arange(10)[None, None, :]
    mask = np.zeros((13, 2, 10, 4, 8), np.uint8)
    mask[..., 0, 0] = sign
    mask[..., 0, 1] = mask[..., 0, 2] = e < 0
    for k in range(3, 6):
        mask[..., 0, k] = e < 2 - k
    for i in range(1, 10):
        word, byte = 1 + (i - 1) // 3, 2 * ((i - 1) % 3)
        mask[..., word, byte] = i <= np.maximum(n, e + 1)
        mask[..., word, byte + 1] = (i == e + 1) & (n > i)
    mask[:, :, 0] = 0
    mask[..., 3, 7] = 1
    mask *= 0xFF
    tables = limbs.view(np.uint64).ravel(), significant, mask.reshape(-1, 32).view(np.uint64)
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _fixed_bytes(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of floats written as ``"%.9g" % v``, each followed by ",",
    NUL where a byte is dropped, ``(*f.shape, n_bytes)``, and a mask of the
    values left to the fallback, which keep only the ",".

    A value of decimal exponent e in [-4, 9), where ``%g`` writes no
    exponent, has the nine significant digits q = rint(|v| 10**(8 - e)):
    the power of ten is exact, so the product is rounded once, and its rint
    is the exact one unless the product lies within a few ulps of a tie.
    Every field is the same template of q's digits with a point slot after
    each; a byte mask looked up by (e, sign, digits through the last
    nonzero one) and ANDed into it picks the text. Left to the fallback:
    near-ties, exponents outside the range, 0 and -0.0 (``%g`` writes
    "-0"), NaN and infinities.
    """
    # in place where numpy allows: a fresh array costs more in page faults
    # than the pass that fills it
    a = np.abs(f).ravel()
    ok = (a >= 1e-4) & (a < 1e9)
    np.copyto(a, 1.0, where=~ok)
    # a in [2**k, 2**(k + 1)) puts e at floor(k log10(2)) or one above it:
    # the scaled value says which
    s, e = np.frexp(a)
    e = np.maximum(np.floor((e - 1) * math.log10(2), out=s), -4, out=s).astype(np.int64)
    np.multiply(a, _POW10.take(8 - e), out=s)
    e += s >= 1e9
    np.multiply(a, _POW10.take(8 - e), out=s)
    q = np.rint(s, out=a)
    # the product is within half an ulp (6e-8 below 2**30) of |v| 10**(8 - e)
    ok &= np.abs(np.subtract(s, q, out=s), out=s) < 0.5 - 1e-6
    # a value that rounds up to the next power of ten: 99.9999999996 is 100
    carry = q == 1e9
    e += carry
    ok &= e < 9
    np.copyto(q, 1e8, where=carry)
    q = q.astype(np.int64)
    top = q // 1000000
    mid = q // 1000
    low = np.multiply(mid, -1000)
    low += q
    mid -= 1000 * top
    # digits through the last nonzero one
    limb_words, significant, masks = _g9_tables()
    n = np.maximum(significant[0].take(top), significant[1].take(mid))
    np.maximum(n, significant[2].take(low), out=n)
    negative = f.ravel() < 0
    # the prefix word only where some field needs a sign or a leading "0."
    first = int(not (negative.any() or ((e < 0) & ok).any()))
    # each field's mask row, built in e's array; row 0 for the fallback
    row = e
    row += 4
    row *= 2
    row += negative
    row *= 10
    row += n
    row *= ok
    words = np.empty((a.size, 4 - first), np.uint64)
    if not first:
        words[:, 0] = _G9_PREFIX
    for k, limb in enumerate((top, mid, low)):
        words[:, k + 1 - first] = limb_words.take(limb)
    words[:, -1] ^= _G9_COMMA
    words &= masks[:, first:].take(row, axis=0)
    return words.view(np.uint8).reshape(*f.shape, -1), ~ok.reshape(f.shape)


def _fields(values: np.ndarray, fixed: bool = False) -> np.ndarray:
    """The bytes of a block of CSV fields, each followed by ",", NUL where
    a byte is dropped; ``(n_rows, n_bytes)``.

    By the per-value rule, an integral value below 1e16 in magnitude is
    written as an integer, by :func:`_integer_bytes`. Any other number is
    written as the shortest round-trip ``repr`` of its float, and text
    (object arrays, ASCII) as ``str``. A ``fixed`` block is written as
    ``"%.9g" % v`` by :func:`_fixed_bytes`, with ``%`` for the values it
    leaves. When a block has such text fields, every field of it starts
    with a slot as wide as the longest text, NUL-padded, and holds the text
    in it. No field holds a NUL of its own.
    """
    shape = values.shape
    if fixed:
        f = np.ascontiguousarray(values, dtype=np.float64)
        data, as_text = _fixed_bytes(f)
        if not as_text.any():
            return data.reshape(shape[0], -1)
        text = np.array(["%.9g" % v for v in f[as_text].tolist()], dtype=np.bytes_)
    else:
        if values.dtype == object:
            as_text = np.ones(shape, bool)
        else:
            f = np.ascontiguousarray(values, dtype=np.float64)
            # a value at or above 1e16 in magnitude maps to 0 and fails the
            # test below; for int64 input the test is exact, so a count above
            # 2**53 with no exact float is written as its nearest float, as
            # float(x) == int(x) decides in the per-value rule. A float block
            # is compared in its contiguous copy, not a strided view
            ints = np.where(np.abs(f) < 1e16, f, 0.0).astype(np.int64)
            as_text = ints != (f if values.dtype.kind == "f" else values)
        if not as_text.any():
            return _integer_bytes(ints).reshape(shape[0], -1)
        if as_text.all():
            data = np.full((*shape, 1), ord(","), np.uint8)
        else:
            data = _integer_bytes(np.where(as_text, 0, ints))
            data[as_text, :-1] = 0  # a text field keeps only the separator
        if values.dtype == object:
            # numpy's bytes type renders by str, encodes ASCII and pads with NUL
            text = np.array(values[as_text], dtype=np.bytes_)
        else:
            # no float's repr is longer than 24 characters
            text = np.array(list(map(repr, f[as_text].tolist())), dtype="S24")
    slot = np.zeros((*shape, text.itemsize), np.uint8)
    slot[as_text] = text.view(np.uint8).reshape(text.size, -1)
    return np.concatenate([slot, data], axis=-1).reshape(shape[0], -1)


def _write_csv(path: Path, header: str, blocks, fixed=()):
    """Write CSV rows made of the rows of ``blocks`` side by side.

    Each block is a 1-D array (one column) or a 2-D array (one column per
    array column); all have the same number of rows. The blocks whose index
    is in ``fixed`` are written by the ``%.9g`` rule, the others by the
    per-value rule. A chunk of rows at a time is encoded to bytes by
    :func:`_fields`, block by block, into one byte array written less its
    NUL bytes, so work arrays stay bounded by ``_CHUNK_FIELDS`` whatever the
    file size.
    """
    blocks = [b.reshape(len(b), -1) for b in blocks]
    n_rows, n_fields = len(blocks[0]), sum(b.shape[1] for b in blocks)
    step = max(1, _CHUNK_FIELDS // n_fields)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n_rows, step):
            data = np.concatenate([_fields(b[lo:lo + step], i in fixed)
                                   for i, b in enumerate(blocks)], axis=1)
            data[:, -1] = ord("\n")
            fh.write(data.tobytes().translate(None, b"\0"))


# ---------------------------------------------------------------------------
# Canonical JSON reports
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, floats via ``%.10g``."""
    out = []
    _render(obj, out)
    return "".join(out)


def _render(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError("report keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # a float near the top of the range rounds up to infinity at 10 digits
        text = "%.10g" % obj
        if not math.isfinite(float(text)):
            raise ValidationError("reports must not contain NaN or infinity")
        out.append(text)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def make_report(steps, inputs=()) -> dict:
    """Assemble the shared report envelope.

    Each step is a dict ``{"name", "params", "outputs"}``; ``inputs`` carries
    content digests of everything the pipeline consumed.
    """
    from . import __version__

    return {
        "tool_version": __version__,
        "inputs": list(inputs),
        "steps": list(steps),
    }


def export_report(report: dict, path=None) -> str:
    """Serialize a report canonically; optionally write it to ``path``.

    Identical report dicts always serialize to identical bytes.
    """
    if not isinstance(report, dict):
        raise ValidationError("report must be a dict")
    text = canonical_json(report) + "\n"
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def digest_file(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_arrays(*arrays) -> str:
    """SHA-256 hex digest of arrays (shape-tagged, float64 contiguous bytes)."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
