"""Benchmark of the cavitylab analysis chain; see perfbench/README.md.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout. Set-up is measured in
``SETUP_SAMPLES`` fresh worker processes (the last one also runs the timed
loops) and reported as their median. Standard output ends with a details line
(metadata, failures, report digests) and then the result line:
``{"correct", "attempted", "failed", "metrics"}``, where ``failed`` counts the
operations that ended in error (misses are in the details line). Exits 0
only when every worker finished; a missing program or a crashed worker
exits 1 or 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "cavitylab"
OUTPUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("characterize", "map_roundtrip", "cli_batch", "cli_cold")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, all workers included

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in (
        "cli", "optics", "photophysics", "cqed", "fitkit", "models", "dataio", "synthlab")},
    "optics.detect_peaks.calls": "count",
    "optics.detect_peaks.self_ms": "ms",
    "optics.fit_lorentzian_peak.calls": "count",
    "optics.dispersion_map.self_ms": "ms",
    "optics.double_resonance_search.self_ms": "ms",
    "cli.main.calls": "count",
    "fitkit.fit.calls": "count",
    "fitkit.fit.iterations": "count/fit",
    "fitkit.fit.rejected_steps": "count",
    "fitkit.fit.converged_ratio": "ratio",
    "fitkit.bootstrap_uncertainty.self_ms": "ms",
    "models.fn.calls": "count",
    "models.jac.calls": "count",
    "models.fn.points": "count",
    "dataio.save_csv.self_ms": "ms",
    "dataio.load_csv.self_ms": "ms",
    "dataio.export_report.self_ms": "ms",
    "dataio.bytes_written": "bytes",
    "dataio.bytes_read": "bytes",
    "dataio.records_validated": "count",
    "synthlab.generate_wled_map.self_ms": "ms",
    "photophysics.fit_g2_histogram.calls": "count",
    "startup.import_ms": "ms",
    "startup.numpy_import_ms": "ms",
    "startup.scipy_import_ms": "ms",
    "startup.interpreter_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
    "trace.job_ms": "ms",
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def run_worker(args, work: Path, deadline: float, setup_only: bool, spans: Path | None):
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", "tiny" if args.tiny else "full", "--work", str(work), "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # own session, so a timeout can stop the worker and any command it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, worker: dict) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "versions": worker["versions"],
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "input_sizes": worker["input_sizes"],
        "loop": "closed, one caller, one job at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavitylab benchmark (perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up sample (benchmark self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no cavitylab source tree at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUTPUT / f"work-{tag}-{os.getpid()}"
    spans = OUTPUT / f"{tag}.spans.json" if args.trace else None
    setups = []
    try:
        for _ in range((2 if args.tiny else SETUP_SAMPLES) - 1):
            setups.append(run_worker(args, work, deadline, True, None))
        worker = run_worker(args, work, deadline, False, spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(worker)

    e2e = {
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "jobs_per_s": worker["jobs_per_s"],
        "job_p50_ms": worker["job_p50_ms"],
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    if args.trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    details = {
        "meta": metadata(args, worker),
        "end_to_end": e2e,
        "setup_s_samples": [w["setup_s"] for w in setups],
        "wall": {
            **worker["wall"],
            "job_ms": worker["job_wall_ms"],
        },
        "failed_ratio": (worker["errors"] + worker["misses"]) / worker["attempted"],
        "errors": worker["errors"],
        "misses": worker["misses"],
        "jobs": worker["jobs"],
        "completed_jobs": worker["completed"],
        "traced_jobs": worker.get("traced_jobs", 0),
        "job_ms": worker["job_ms"],
        "job_p90_ms": worker.get("job_p90_ms"),
        "failures": worker["failures"],
        "digests": worker["digests"],
        "spans_file": None if spans is None else str(spans.relative_to(ROOT)),
    }
    OUTPUT.mkdir(parents=True, exist_ok=True)
    (OUTPUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps({
        "correct": worker["errors"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["errors"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
