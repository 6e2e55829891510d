"""One benchmark process: set up a workload, run its timed loops, print JSON.

Started by ``run.py`` in a fresh interpreter, so that set-up time covers
interpreter start, imports, input generation and one untimed warm-up job.
With ``--setup-only`` it stops after the warm-up and reports only its
set-up time. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def run_loop(workload, seconds: float, first: int, jobs: dict, tracer=None) -> list[int]:
    """Run jobs back to back (closed loop) until ``seconds`` have passed and
    the jobs make whole cycles of the workload's inputs, so that every run
    weighs each input alike.

    Each job ends with a speed probe that scales its last timed work.
    """
    i = first
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.job = i
        jobs[i] = workload.job(i)
        jobs[i].clock.settle()
        i += 1
        if time.perf_counter() - start >= seconds and (i - first) % workload.cycle == 0:
            return list(range(first, i))


def import_times_ms(stderr: str) -> dict[str, float]:
    """Self import time, total and per top-level package, from ``-X importtime``."""
    total = {"all": 0, "numpy": 0, "scipy": 0}
    for line in stderr.splitlines():
        match = IMPORTTIME.match(line)
        if match:
            us, name = int(match.group(1)), match.group(2)
            total["all"] += us
            top = name.split(".", 1)[0]
            if top in total:
                total[top] += us
    return {key: us / 1000.0 for key, us in total.items()}


def cold_layer_metrics(tracer_mod, workload, n_jobs, job_ns_total) -> tuple[dict, list]:
    """Per-layer metrics of traced cold commands, from each child's span file."""
    spans, startup = [], {"all": 0.0, "numpy": 0.0, "scipy": 0.0, "interpreter": 0.0}
    for child in workload.children:
        if not child["spans"].is_file():
            continue
        data = json.loads(child["spans"].read_text(encoding="utf-8"))
        offset = len(spans)
        for span in data["spans"]:
            if span[tracer_mod.PARENT] >= 0:
                span[tracer_mod.PARENT] += offset
            spans.append(span)
        for key, ms in import_times_ms(child["stderr"]).items():
            startup[key] += ms
        startup["interpreter"] += (data["code_start"] - child["launched"]) * 1000.0
    metrics = tracer_mod.layer_metrics(spans, n_jobs, job_ns_total)
    n = max(len(workload.children), 1)
    metrics.update({
        "startup.import_ms": startup["all"] / n,
        "startup.numpy_import_ms": startup["numpy"] / n,
        "startup.scipy_import_ms": startup["scipy"] / n,
        "startup.interpreter_ms": startup["interpreter"] / n,
    })
    return metrics, spans


def timing(times: list[float], done: list[float]) -> dict:
    out = {
        "jobs_per_s": len(done) / (sum(times) / 1000.0),
        "job_p50_ms": statistics.median(done or times),
    }
    # the highest percentile with at least ten samples beyond it
    if len(done) >= 100:
        out["job_p90_ms"] = statistics.quantiles(done, n=10)[-1]
    return out


def summarize(jobs: dict, indices: list[int], error: str) -> dict:
    """Job timing at the reference speed, and as measured (``wall``)."""
    ok = [i for i in indices if all(s != error for _, s, _ in jobs[i].ops)]
    wall = {i: jobs[i].ns / 1e6 for i in indices}
    scaled = {i: jobs[i].clock.scaled_ns / 1e6 for i in indices}
    return {
        "jobs": len(indices),
        "completed": len(ok),
        "job_ms": [scaled[i] for i in indices],
        "job_wall_ms": [wall[i] for i in indices],
        **timing(list(scaled.values()), [scaled[i] for i in ok]),
        "wall": timing(list(wall.values()), [wall[i] for i in ok]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the program under test is the source tree of this checkout
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import tracer as tracer_mod
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work, args.size)
    workload.setup()
    workload.job(0)  # untimed warm-up: caches, lazy imports, first file writes
    workload.digests.clear()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs: dict = {}
    untraced = run_loop(workload, args.seconds, 0, jobs)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        if args.workload == "cli_cold":
            workload.traced = True
            traced = run_loop(workload, args.seconds, untraced[-1] + 1, jobs)
            job_ns = sum(jobs[i].ns for i in traced)
            layers, spans = cold_layer_metrics(tracer_mod, workload, len(traced), job_ns)
        else:
            tracer = tracer_mod.Tracer()
            tracer.install()
            try:
                traced = run_loop(workload, args.seconds, untraced[-1] + 1, jobs, tracer)
            finally:
                tracer.uninstall()
            job_ns = sum(jobs[i].ns for i in traced)
            layers = tracer_mod.layer_metrics(tracer.spans, len(traced), job_ns)
            layers.update(dict.fromkeys((
                "startup.import_ms", "startup.numpy_import_ms",
                "startup.scipy_import_ms", "startup.interpreter_ms"), 0.0))
            spans = tracer.spans
        result["traced_jobs"] = len(traced)
        result["layers"] = layers
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job", "attrs"],
                           "spans": spans}, fh)

    workload.finish(jobs)
    result.update(summarize(jobs, untraced, workloads.ERROR))
    if args.trace:
        traced_p50 = statistics.median(jobs[i].clock.scaled_ns / 1e6 for i in traced)
        layers["trace.overhead_pct"] = (traced_p50 / result["job_p50_ms"] - 1.0) * 100.0
    ops = [(i, *op) for i in sorted(jobs) for op in jobs[i].ops]
    failures = [op for op in ops if op[2] != workloads.OK]
    result.update({
        "attempted": len(ops),
        "errors": sum(op[2] == workloads.ERROR for op in ops),
        "misses": sum(op[2] == workloads.MISS for op in ops),
        "failures": [list(op) for op in failures[:50]],
        "digests": workload.digests,
        "input_sizes": workload.input_sizes(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
