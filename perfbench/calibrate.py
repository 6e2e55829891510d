"""Machine-speed probes: fixed pieces of work that do not use cavitylab.

The host this benchmark was defined on changes speed in steps of up to ~25%
within a minute (shared cores), and CPU time follows wall time, so neither
longer runs nor CPU clocks remove it. A probe's time moves with those steps
while its ratio to a job's time varies much less, so the timed loop runs a
probe after every job and reports the job's time scaled to the probe's
reference time. The in-process probe (``scale``) mixes the kinds of work the
in-process workloads do: whole-array NumPy passes, many small LAPACK calls,
float formatting and parsing, and plain interpreter loops. The cold probe
(``cold_scale``) starts an interpreter, as a cold command does.

Do not change this file in a change that claims a gain: the reference times
are part of the benchmark's definition.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_NS = 5_500_000  # the probe's typical time on the defining host
COLD_REFERENCE_NS = 160_000_000  # the same for the cold probe
COLD_PROBE = (sys.executable, "-c", "import numpy")

_rng = np.random.Generator(np.random.Philox(20250707))
_ARRAY = _rng.random(100_000)
_MATRIX = _rng.random((5, 5)) + 5.0 * np.eye(5)
_VALUES = _rng.random(600) * 1e3


def _work() -> float:
    total = float(np.median(_ARRAY)) + float(np.abs(_ARRAY - 0.5).sum())
    for k in range(140):
        total += float(np.linalg.solve(_MATRIX, _VALUES[k:k + 5])[0])
    text = ",".join(repr(float(v)) for v in _VALUES)
    total += sum(float(t) for t in text.split(","))
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return total + acc


def probe_ns(reps: int) -> int:
    """Median wall time of ``reps`` runs of the fixed work."""
    times = []
    for _ in range(max(reps, 1)):
        start = time.perf_counter_ns()
        _work()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def scale(reps: int) -> float:
    """Factor that maps a time measured now to the reference speed."""
    return REFERENCE_NS / probe_ns(reps)


def cold_scale() -> float:
    """Like ``scale``, for work dominated by interpreter start and imports:
    times one fresh interpreter that imports NumPy."""
    start = time.perf_counter_ns()
    subprocess.run(COLD_PROBE, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return COLD_REFERENCE_NS / (time.perf_counter_ns() - start)
