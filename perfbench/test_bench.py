"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced layer times add up to the traced job time, that a corrupted job
input is counted as a failed operation instead of aborting the run, and that
the benchmark refuses to report without the program's source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = ("cli", "optics", "photophysics", "cqed", "fitkit", "models", "dataio", "synthlab")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values.values())
    if trace:
        layer_sum = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
        assert layer_sum + values["trace.unattributed_ms"] == pytest.approx(
            values["trace.job_ms"], rel=1e-9
        )
    else:
        assert all(v > 0 for v in values.values())


def test_corrupted_scan_is_counted_not_raised(tmp_path):
    wl = workloads.Characterize(seed=3, work=tmp_path, size="tiny")
    wl.setup()
    scans, drift_map, tlog = wl.inputs[0]
    flat = [
        type(s)(axis=s.axis, signal=np.full(s.axis.size, 5.0), sweep_direction=s.sweep_direction)
        for s in scans
    ]
    wl.inputs[0] = (flat, drift_map, tlog)
    jobs = {}
    indices = worker.run_loop(wl, 0.3, 0, jobs)
    assert len(indices) >= 2, "the run must go on past the corrupted job"
    states = {i: dict((name, state) for name, state, _ in jobs[i].ops) for i in indices}
    assert states[0] == {"finesse": workloads.ERROR, "cte": workloads.OK}
    assert states[1] == {"finesse": workloads.OK, "cte": workloads.OK}
    summary = worker.summarize(jobs, indices, workloads.ERROR)
    assert summary["completed"] == sum(i % 2 for i in indices)


def test_corrupted_csv_input_is_counted_not_raised(tmp_path):
    wl = workloads.CliBatch(seed=3, work=tmp_path, size="tiny")
    wl.setup()
    wl.histogram.write_text("t_ns,counts\n1.0,not-a-number\n", encoding="utf-8")
    job = wl.job(0)
    states = {name: state for name, state, _ in job.ops}
    assert states.pop("fit_input") == workloads.ERROR
    assert len(states) == 11 and workloads.ERROR not in states.values()


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("characterize", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
