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
``frame_NNNN`` column one frame.

JSON reports are canonical (sorted keys, floats rendered with ``%.10g``) so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, SchemaError, ValidationError

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
    finite, and non-negative when they are ``counts``."""
    if values.shape[-1] != axis.size:
        raise ValidationError(
            f"{name} and its axis differ in length ({values.shape[-1]} != {axis.size})"
        )
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


def _frame_column(i: int) -> str:
    return f"frame_{i:04d}"


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
    """Uniformly binned time-delay histogram with integer counts."""

    bin_centers_ns: np.ndarray
    counts: np.ndarray
    bin_width_ns: float = 0.0

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
        width = float(np.median(widths))
        # written so that a NaN or infinite width fails
        if not np.all(np.abs(widths - width) <= 1e-9 * width):
            raise ValidationError("bin width not uniform within 1e-9 relative")
        declared = float(self.bin_width_ns) if self.bin_width_ns else width
        if not abs(declared - width) <= 1e-9 * width:
            raise ValidationError(
                f"declared bin_width_ns {declared} inconsistent with grid ({width})"
            )
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
        if not self.frame_period_s > 0:
            raise ValidationError("frame_period_s must be positive")

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

_SCHEMA_HEADERS = {
    "spectrum": "wavelength_nm,counts",
    "scan": "axis,signal,direction",
    "histogram": "t_ns,counts",
    "temperature_log": "time_s,temperature_k",
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

    if schema_id == "spectral_map":
        return _load_spectral_map(path, header)

    expected = _SCHEMA_HEADERS.get(schema_id)
    if expected is None:
        raise ValidationError(f"unknown schema id {schema_id!r}")
    if header != expected:
        raise SchemaError(
            f"header mismatch for schema {schema_id!r}: expected {expected!r}, got {header!r}"
        )

    if schema_id == "scan":
        return _load_scan(path)

    data = _loadtxt(path)
    if data.shape[1] != 2:
        raise SchemaError(f"expected 2 columns, found {data.shape[1]}")
    if schema_id == "spectrum":
        return Spectrum(wavelength_nm=data[:, 0], counts=data[:, 1])
    if schema_id == "histogram":
        return TimeHistogram(bin_centers_ns=data[:, 0], counts=data[:, 1])
    return TemperatureLog(time_s=data[:, 0], temperature_k=data[:, 1])


def _loadtxt(path: Path, usecols=None) -> np.ndarray:
    try:
        # no comment character: "#" in a field is malformed
        data = np.loadtxt(
            path, delimiter=",", skiprows=1, ndmin=2, comments=None, usecols=usecols
        )
    except ValueError as exc:
        raise SchemaError(f"malformed numeric data in {path.name}: {exc}") from exc
    # nothing else holds the array, so records keep views of it uncopied
    data.flags.writeable = False
    return data


def _load_scan(path: Path) -> list[ScanTrace]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    for i, parts in enumerate(rows):
        if len(parts) != 3:
            raise SchemaError(f"expected 3 columns at row {i}", row_index=i)
        if parts[2] not in ("up", "down"):
            raise SchemaError(f"unknown sweep direction {parts[2]!r} at row {i}", row_index=i)
    data = _loadtxt(path, usecols=(0, 1))
    traces, start = [], 0
    # each run of one direction label is one ramp
    for direction, ramp in itertools.groupby(parts[2] for parts in rows):
        stop = start + sum(1 for _ in ramp)
        traces.append(ScanTrace(axis=data[start:stop, 0], signal=data[start:stop, 1],
                                sweep_direction=direction))
        start = stop
    return traces


def _load_spectral_map(path: Path, header: str) -> SpectralMap:
    columns = header.split(",")
    if columns[0] != "wavelength_nm" or len(columns) < 2:
        raise SchemaError(
            f"spectral_map header must start with 'wavelength_nm,frame_0000', got {header!r}"
        )
    for i, name in enumerate(columns[1:]):
        if name != _frame_column(i):
            raise SchemaError(
                f"spectral_map column {i + 1} must be {_frame_column(i)!r}, got {name!r}"
            )
    data = _loadtxt(path)
    if data.shape[1] != len(columns):
        raise SchemaError(f"column count mismatch: header {len(columns)}, data {data.shape[1]}")
    return SpectralMap(wavelength_nm=data[:, 0], counts=data[:, 1:].T)


def save_csv(record, path) -> Path:
    """Write a record in its CSV schema; inverse of :func:`load_csv`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(record, Spectrum):
        _write_csv(path, "wavelength_nm,counts", [record.wavelength_nm, record.counts])
    elif isinstance(record, TimeHistogram):
        _write_csv(path, "t_ns,counts", [record.bin_centers_ns, record.counts])
    elif isinstance(record, TemperatureLog):
        _write_csv(path, "time_s,temperature_k", [record.time_s, record.temperature_k])
    elif isinstance(record, ScanTrace):
        save_csv([record], path)
    elif isinstance(record, SpectralMap):
        names = [_frame_column(i) for i in range(len(record))]
        _write_csv(path, ",".join(["wavelength_nm"] + names),
                   [record.wavelength_nm, record.counts.T])
    elif isinstance(record, Sequence) and record and isinstance(record[0], ScanTrace):
        directions = np.array([t.sweep_direction for t in record], dtype=object)
        _write_csv(path, "axis,signal,direction", [
            np.concatenate([t.axis for t in record]),
            np.concatenate([t.signal for t in record]),
            np.repeat(directions, [len(t) for t in record]),
        ])
    else:
        raise ValidationError(f"cannot serialize record of type {type(record).__name__}")
    return path


# fields formatted at once: one row of an acquisition-sized map, or a few
# thousand rows of a narrow file; a whole map at once would hold millions
# of field objects in memory
_CHUNK_FIELDS = 8192


def _fields(values: np.ndarray) -> np.ndarray:
    """The values to write for ``values``, each formatted by ``str``.

    An integral value below 1e16 in magnitude is written as an integer, any
    other number as the shortest round-trip ``repr`` of its float; text
    (object arrays) passes through. Returns int64 when every value is
    written as an integer, else an object array of Python ints and floats.
    """
    if values.dtype == object:
        return values
    f = values.astype(np.float64)
    # a value at or above 1e16 in magnitude maps to 0 and fails the test
    # below; for int64 input the test is exact, so a count above 2**53 with
    # no exact float is written as its nearest float, as float(x) == int(x)
    # decides in the per-value rule
    ints = np.where(np.abs(f) < 1e16, f, 0.0).astype(np.int64)
    as_int = ints == values
    if as_int.all():
        return ints
    return np.where(as_int, ints.astype(object), f.astype(object))


def _write_csv(path: Path, header: str, blocks):
    """Write CSV rows made of the rows of ``blocks`` side by side.

    Each block is a 1-D array (one column) or a 2-D array (one column per
    array column); all have the same number of rows. Rows are formatted a
    chunk at a time, so only one chunk's fields exist as Python objects.
    """
    blocks = [b.reshape(len(b), -1) for b in blocks]
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    n_rows, n_fields = len(blocks[0]), int(edges[-1])
    step = max(1, _CHUNK_FIELDS // n_fields)
    # "%s" formats as str() does, and one format call per chunk is faster
    # than joining field by field
    line = ",".join(["%s"] * n_fields) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, step):
            chunk = np.empty((min(step, n_rows - lo), n_fields), dtype=object)
            for block, a, z in zip(blocks, edges, edges[1:]):
                chunk[:, a:z] = _fields(block[lo:lo + step])
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


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
        val = float(obj)
        if not math.isfinite(val):
            raise ValidationError("reports must not contain NaN or infinity")
        out.append("%.10g" % val)
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
