"""Span tracing of cavitylab's layers from outside the package.

``Tracer.install`` rebinds public entry points so that each call records a
span (name, start, end, parent span, job id) in memory:

* every function in each layer module's ``__all__`` (plus the public
  generators that ``__all__`` omits), in every ``cavitylab`` module that holds
  it, so calls within a module and through ``from x import y`` are caught;
* the ``fn`` and ``jac`` of each ``models.MODELS`` entry;
* ``__post_init__`` of the ``dataio`` record classes.

``uninstall`` restores the originals. ``layer_metrics`` turns the spans into
the per-layer numbers of ``BENCHMARK.json`` (means per job). Nothing here
changes what the program computes.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "optics", "photophysics", "cqed", "fitkit", "models", "dataio", "synthlab")
# public functions that a layer's __all__ leaves out but a workload calls
EXTRA_PUBLIC = {"synthlab": ("generate_wled_map",)}
RECORD_CLASSES = ("ScanTrace", "SpectralMap", "Spectrum", "TemperatureLog", "TimeHistogram")

# span fields
NAME, START, END, PARENT, JOB, ATTRS = range(6)


def _path_size(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _points(args, kwargs, result):
    return {"points": int(args[0].size)}


def _fit_outcome(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "accepted": len(result.cost_trace) - 1,
        "converged": bool(result.converged),
    }


def _bytes_written_csv(args, kwargs, result):
    return {"bytes_written": _path_size(result)}


def _bytes_written_report(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes_written": _path_size(path)}


def _bytes_read(args, kwargs, result):
    return {"bytes_read": _path_size(args[0] if args else kwargs.get("path"))}


# facts read from a call's arguments and result after its span has ended
ATTRS_OF = {
    "fitkit.fit": _fit_outcome,
    "dataio.save_csv": _bytes_written_csv,
    "dataio.export_report": _bytes_written_report,
    "dataio.load_csv": _bytes_read,
}


class Tracer:
    """In-memory span recorder; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _rebind(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap the public entry points of every layer (see module docstring)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        layers = {name: importlib.import_module(f"cavitylab.{name}") for name in LAYERS}
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "cavitylab" or key.startswith("cavitylab.")
        ]
        for layer, module in layers.items():
            for attr in list(module.__all__) + list(EXTRA_PUBLIC.get(layer, ())):
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, original, ATTRS_OF.get(name))
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, key, wrapped)

        registry = layers["models"].MODELS
        for key, model in list(registry.items()):
            self._restore.append((registry, key, model))
            registry[key] = dataclasses.replace(
                model,
                fn=self.wrap("models.fn", model.fn, _points),
                jac=self.wrap("models.jac", model.jac),
            )

        for cls_name in RECORD_CLASSES:
            cls = getattr(layers["dataio"], cls_name)
            self._rebind(
                cls, "__post_init__",
                self.wrap(f"dataio.{cls_name}.__post_init__", cls.__post_init__),
            )

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)
        self._restore.clear()

    def dump(self, path, **extra):
        """Write the spans (one JSON document) for a reader in another process."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def run_traced_cli(spans_path: str, job: int, code_start: float):
    """Run the console-script target under a tracer; spans go to ``spans_path``.

    Used as the body of a traced cold command: the caller has already imported
    ``cavitylab.cli``, so import time stays the program's own.
    """
    from cavitylab import cli

    tracer = Tracer()
    tracer.job = job
    tracer.install()
    try:
        cli.entrypoint()
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, code_start=code_start)


def _per_job(value, n_jobs):
    return value / n_jobs if n_jobs else 0.0


def layer_metrics(spans, n_jobs: int, job_ns_total: int) -> dict:
    """Per-layer means per job from spans of ``n_jobs`` jobs.

    Self time is a span's duration minus its child spans' durations, so the
    layers' self times plus ``trace.unattributed_ms`` equal ``trace.job_ms``.
    """
    n = len(spans)
    child_ns = [0] * n
    in_fit = [False] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_ns[parent] += span[END] - span[START]
            in_fit[i] = in_fit[parent] or spans[parent][NAME] == "fitkit.fit"

    layer_self = dict.fromkeys(LAYERS, 0)
    name_self: dict[str, int] = {}
    calls: dict[str, int] = {}
    top_ns = 0
    points = fn_in_fit = accepted = iterations = converged = 0
    bytes_written = bytes_read = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        own = dur - child_ns[i]
        layer_self[name.split(".", 1)[0]] += own
        name_self[name] = name_self.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        parent = span[PARENT]
        if parent < 0:
            top_ns += dur
        attrs = span[ATTRS] or {}
        if name == "models.fn":
            points += attrs["points"]
            fn_in_fit += in_fit[i]
        elif name == "fitkit.fit":
            accepted += attrs["accepted"]
            iterations += attrs["iterations"]
            converged += attrs["converged"]
        # a save_csv that delegates to itself must not count its file twice
        if parent < 0 or spans[parent][NAME] != name:
            bytes_written += attrs.get("bytes_written", 0)
            bytes_read += attrs.get("bytes_read", 0)

    fits = calls.get("fitkit.fit", 0)
    records = sum(calls.get(f"dataio.{c}.__post_init__", 0) for c in RECORD_CLASSES)

    def ms(ns):
        return _per_job(ns, n_jobs) / 1e6

    out = {f"{layer}.self_ms": ms(layer_self[layer]) for layer in LAYERS}
    for name in (
        "optics.detect_peaks", "optics.dispersion_map", "optics.double_resonance_search",
        "fitkit.bootstrap_uncertainty", "dataio.save_csv", "dataio.load_csv",
        "dataio.export_report", "synthlab.generate_wled_map",
    ):
        out[f"{name}.self_ms"] = ms(name_self.get(name, 0))
    for name in (
        "optics.detect_peaks", "optics.fit_lorentzian_peak", "cli.main", "fitkit.fit",
        "models.fn", "models.jac", "photophysics.fit_g2_histogram",
    ):
        out[f"{name}.calls"] = _per_job(calls.get(name, 0), n_jobs)
    out.update({
        "fitkit.fit.iterations": iterations / fits if fits else 0.0,
        "fitkit.fit.rejected_steps": _per_job(fn_in_fit - accepted - fits, n_jobs),
        "fitkit.fit.converged_ratio": converged / fits if fits else 0.0,
        "models.fn.points": _per_job(points, n_jobs),
        "dataio.bytes_written": _per_job(bytes_written, n_jobs),
        "dataio.bytes_read": _per_job(bytes_read, n_jobs),
        "dataio.records_validated": _per_job(records, n_jobs),
        "trace.job_ms": ms(job_ns_total),
        "trace.unattributed_ms": ms(job_ns_total - top_ns),
    })
    return out
