"""The benchmark's four workloads over the cavitylab analysis chain.

Each workload builds its inputs from the workload seed in ``setup`` and runs
one job per call to ``job(i)``. A job times only the program's own calls (the
stopwatch) and then checks every output outside the timed region. Each
checked operation ends in one of three states:

``ok``     output present and within its check;
``miss``   output well formed but outside a numerical band, or a fit that
           reports ``converged: false``;
``error``  the call raised, exited non-zero, left no report, or wrote bytes
           that differ from the reference.

Only ``error`` counts as failed in the result line, and a job with an
``error`` does not count as completed; misses are reported beside it. Inputs are built only from the seed: the same seed gives
the same inputs, whatever the program computes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
from cavitylab import cli, dataio, optics, synthlab

OK, MISS, ERROR = "ok", "miss", "error"

# Input sizes; ``tiny`` is for the benchmark's self-test only.
SIZES = {
    "full": {
        "characterize_inputs": 4, "scan_samples": 120_000, "drift_frames": 120,
        "drift_pixels": 400, "map_frames": 7200, "map_pixels": 200, "bootstrap": 200,
    },
    "tiny": {
        "characterize_inputs": 2, "scan_samples": 120_000, "drift_frames": 12,
        "drift_pixels": 400, "map_frames": 72, "map_pixels": 200, "bootstrap": 20,
    },
}

FINESSE = 4600.0
FINESSE_BAND = 500.0  # acceptance criterion 7
ALPHA_PER_K = 5.1e-6
ALPHA_BAND = 0.1e-6  # acceptance criterion 8
L_REF_UM = 3.7

# acceptance criterion 6: (report param, truth, half band) per preset
PRESET_BANDS = {
    "lifetime_4k": [("tau", 12.2, 0.3)],
    "lifetime_40k": [("tau", 15.8, 0.3)],
    "lifetime_100k": [("tau", 21.0, 1.0)],
    "saturation_10k": [("i_sat", 150.0, 20.0), ("p_sat", 0.37, 0.12)],
    "saturation_40k": [("i_sat", 180.0, 40.0), ("p_sat", 1.1, 0.4)],
    "saturation_100k": [("i_sat", 162.0, 18.0), ("p_sat", 2.2, 0.4)],
    "g2_dip": [("g2_at_t0", 0.21, 0.03)],
}

# the README commands, without --out
README_DISPERSION = (
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc 24 "
    "--l-min 2 --l-max 6 --tol-nm 25"
).split()
PER_AXIS_DISPERSION = (
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc-x 22 --roc-y 26 "
    "--roc-mode per-axis --gouy off --l-min 2 --l-max 6 --tol-nm 25"
).split()
README_BUDGET = (
    "purcell-budget --tau0 21.7 --tau-p 12.2 --qe 0.8 --dw 0.56 --branching 0.8 "
    "--lambda-c 618.5 --l-eff 3.75 --roc 24 --q-ideal 56400 --kappa-exp 160"
).split()
REPORT_NAMES = {
    "dispersion": "dispersion_report.json",
    "fit": "fit_report.json",
    "purcell-budget": "purcell_budget.json",
}


class Stopwatch:
    """Accumulates the wall time spent inside ``with stopwatch:`` blocks.

    ``scaled_ns`` holds the same time at the reference speed: once 20 probe
    times of work have gathered, and at ``settle``, the speed probe runs
    (outside the timed blocks) and scales the work timed since the last
    probe. ``probe(ns)`` runs a probe sized for ``ns`` of work and returns
    its scale (see calibrate.py).
    """

    PROBE_AFTER_NS = 20 * calibrate.REFERENCE_NS

    def __init__(self, probe):
        self.ns = 0
        self.scaled_ns = 0.0
        self._pending = 0
        self._probe = probe

    def __enter__(self):
        self._start = time.perf_counter_ns()

    def __exit__(self, *exc):
        elapsed = time.perf_counter_ns() - self._start
        self.ns += elapsed
        self._pending += elapsed
        if self._pending >= self.PROBE_AFTER_NS:
            self.settle()
        return False

    def settle(self):
        """Scale the work timed since the last probe."""
        if self._pending:
            self.scaled_ns += self._pending * self._probe(self._pending)
            self._pending = 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Job:
    """Timed program time plus the checked operations of one job."""

    def __init__(self, probe):
        self.clock = Stopwatch(probe)
        self.ops: list[tuple[str, str, str]] = []

    def record(self, name: str, state: str, detail: str = ""):
        self.ops.append((name, state, detail))

    @property
    def ns(self) -> int:
        return self.clock.ns


class Workload:
    name = ""
    cycle = 1  # jobs whose inputs repeat; a timed loop ends on a whole cycle

    def __init__(self, seed: int, work: Path, size: str):
        self.seed = seed
        self.work = work
        self.sizes = SIZES[size]
        self.digests: dict[str, str] = {}

    def setup(self):
        """Build the inputs; runs before the warm-up job."""

    def job(self, i: int) -> Job:
        raise NotImplementedError

    def finish(self, jobs: dict[int, Job]):
        """Checks that need the program after the timed loops."""

    def speed_scale(self, ns: int) -> float:
        """Speed probe for ``ns`` of work, run for about a tenth of that."""
        return calibrate.scale(max(1, round(ns / (10 * calibrate.REFERENCE_NS))))

    def input_sizes(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# characterize: finesse + drift/CTE pipelines in process, no file I/O
# ---------------------------------------------------------------------------


class Characterize(Workload):
    name = "characterize"

    def setup(self):
        s = self.sizes
        self.cycle = s["characterize_inputs"]
        self.inputs = []
        for k in range(s["characterize_inputs"]):
            scans = synthlab.generate_scan_pair(
                finesse=FINESSE, n_samples=s["scan_samples"], seed=self.seed + k
            )
            drift_map, tlog = synthlab.generate_drift_map(
                n_frames=s["drift_frames"], n_pixels=s["drift_pixels"],
                alpha_per_k=ALPHA_PER_K, reference_length_um=L_REF_UM, seed=self.seed + k,
            )
            self.inputs.append((scans, drift_map, tlog))

    def input_sizes(self):
        s = self.sizes
        return {
            "inputs": s["characterize_inputs"], "ramps": 2, "ramp_samples": s["scan_samples"],
            "drift_frames": s["drift_frames"], "drift_pixels": s["drift_pixels"],
            "finesse": FINESSE, "alpha_per_k": ALPHA_PER_K, "l_ref_um": L_REF_UM,
        }

    def job(self, i):
        job = Job(self.speed_scale)
        scans, drift_map, tlog = self.inputs[i % len(self.inputs)]
        try:
            with job.clock:
                finesse, _ = optics.finesse_from_scan(scans)
        except Exception as exc:  # a failed operation is counted, not raised
            job.record("finesse", ERROR, describe(exc))
        else:
            ok = abs(finesse - FINESSE) <= FINESSE_BAND
            job.record("finesse", OK if ok else MISS, f"finesse={finesse!r}")
        try:
            with job.clock:
                series = optics.drift_series(drift_map, l_eff_um=L_REF_UM)
                delta_l = np.array([d for _, d in series])
                alpha, _, fit = optics.cte_fit(tlog.temperature_k, delta_l, L_REF_UM)
        except Exception as exc:
            job.record("cte", ERROR, describe(exc))
        else:
            ok = fit.converged and abs(alpha - ALPHA_PER_K) <= ALPHA_BAND
            job.record("cte", OK if ok else MISS, f"alpha={alpha!r} converged={fit.converged}")
        return job


# ---------------------------------------------------------------------------
# map_roundtrip: acquisition-sized spectral map through CSV and back
# ---------------------------------------------------------------------------


class MapRoundtrip(Workload):
    name = "map_roundtrip"

    def setup(self):
        self.path = self.work / "map_roundtrip" / "spectral_map.csv"
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def input_sizes(self):
        return {"frames": self.sizes["map_frames"], "pixels": self.sizes["map_pixels"]}

    def job(self, i):
        job = Job(self.speed_scale)
        self.path.unlink(missing_ok=True)
        try:
            with job.clock:
                original = synthlab.generate_wled_map(
                    self.sizes["map_frames"], n_pixels=self.sizes["map_pixels"],
                    seed=self.seed + i,
                )
            with job.clock:
                dataio.save_csv(original, self.path)
            with job.clock:
                loaded = dataio.load_csv(self.path, "spectral_map")
        except Exception as exc:
            job.record("roundtrip", ERROR, describe(exc))
            return job
        self.digests[f"job{i}/{self.path.name}"] = sha256_file(self.path)
        same = (
            len(loaded) == len(original)
            and np.array_equal(loaded.wavelength_nm, original.wavelength_nm)
            and np.array_equal(loaded.counts_matrix(), original.counts_matrix())
        )
        job.record("roundtrip", OK if same else ERROR, "" if same else "round trip not bit-exact")
        return job


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def check_report(out_dir: Path, argv: list[str], preset: str | None) -> tuple[str, str]:
    """State of one command's report: exit status is checked by the caller."""
    report_path = out_dir / REPORT_NAMES[argv[0]]
    if not report_path.is_file():
        return ERROR, f"no report {report_path.name}"
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if argv[0] != "fit":
            return OK, ""
        outputs = report["steps"][0]["outputs"]
        values = dict(outputs["params"], **{k: outputs[k] for k in ("g2_at_t0",) if k in outputs})
        misses = [
            f"{param}={values[param]!r} outside {truth}+-{band}"
            for param, truth, band in PRESET_BANDS.get(preset, ())
            if not abs(values[param] - truth) <= band
        ]
    except (ValueError, LookupError, TypeError) as exc:
        return ERROR, f"unreadable report: {exc!r}"
    if outputs.get("converged") is not True:
        return MISS, f"converged: false after {outputs.get('iterations')} iterations"
    if misses:
        return MISS, misses[0]
    if "--bootstrap" in argv and "bootstrap_sigmas" not in outputs:
        return ERROR, "bootstrap_sigmas missing"
    return OK, ""


def digest_dir(out_dir: Path, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}/{path.name}": sha256_file(path)
        for path in sorted(out_dir.iterdir()) if path.is_file()
    }


class CliWorkload(Workload):
    def setup(self):
        # histogram for ``fit --input``: a lifetime dataset drawn from the seed
        self.histogram = self.work / self.name / "inputs" / "decay.csv"
        ds = synthlab.generate(synthlab.preset("lifetime_40k", seed=self.seed))
        dataio.save_csv(ds.record(), self.histogram)

    def commands(self, i: int) -> list[tuple[str, list[str], str | None]]:
        """(key, argv without --out, preset) of job ``i``."""
        raise NotImplementedError

    def fit_input(self):
        return [
            "fit", "--input", str(self.histogram), "--schema", "histogram",
            "--model", "exponential_decay",
        ]

    def run_command(self, job: Job, i: int, key: str, argv, preset):
        out_dir = self.work / self.name / "out" / key
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, detail = self.execute(job, argv + ["--out", str(out_dir)])
        if rc != 0:
            job.record(key, ERROR, f"exit {rc}: {detail}")
            return
        state, detail = check_report(out_dir, argv, preset)
        job.record(key, state, detail)
        if out_dir.is_dir():
            self.digests.update(digest_dir(out_dir, f"job{i}/{key}"))

    def job(self, i):
        job = Job(self.speed_scale)
        for key, argv, preset in self.commands(i):
            self.run_command(job, i, key, argv, preset)
        return job


class CliBatch(CliWorkload):
    name = "cli_batch"

    def commands(self, i):
        seed = str(self.seed + i)
        cmds = [("dispersion", README_DISPERSION, None),
                ("dispersion_per_axis", PER_AXIS_DISPERSION, None)]
        cmds += [
            (f"fit_{name}", ["fit", "--preset", name, "--seed", seed], name)
            for name in synthlab.preset_names()
        ]
        cmds += [
            ("fit_lifetime_4k_bootstrap",
             ["fit", "--preset", "lifetime_4k", "--seed", seed,
              "--bootstrap", str(self.sizes["bootstrap"])], "lifetime_4k"),
            ("fit_input", self.fit_input(), None),
            ("purcell_budget", README_BUDGET, None),
        ]
        return cmds

    def input_sizes(self):
        return {"commands_per_job": len(self.commands(0)), "bootstrap": self.sizes["bootstrap"]}

    def execute(self, job, argv):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with job.clock:
                    rc = cli.main(argv)
        except Exception as exc:
            return -1, describe(exc)
        return rc, stderr.getvalue().strip()


class CliCold(CliWorkload):
    """One fresh interpreter per command, through the console-script target."""

    name = "cli_cold"
    cycle = 4  # the four README commands, whose costs differ
    traced = False
    LAUNCH = "from cavitylab.cli import entrypoint; entrypoint()"
    LAUNCH_TRACED = (
        "import sys, time; t = time.monotonic(); import cavitylab.cli; "
        "sys.path.insert(0, {bench!r}); import tracer; "
        "tracer.run_traced_cli({spans!r}, {job}, t)"
    )
    CHILD_TIMEOUT_S = 60

    def setup(self):
        super().setup()
        self.src = str(Path(cli.__file__).resolve().parents[1])
        self.spans_dir = self.work / self.name / "spans"
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.children: list[dict] = []
        self.argv_of: dict[int, tuple[str, list[str], str | None]] = {}

    def commands(self, i):
        readme = [
            ("dispersion", README_DISPERSION, None),
            ("fit_g2_dip", ["fit", "--preset", "g2_dip", "--seed", str(self.seed + i)], "g2_dip"),
            ("fit_input", self.fit_input(), None),
            ("purcell_budget", README_BUDGET, None),
        ]
        return [readme[i % self.cycle]]

    def input_sizes(self):
        return {"commands_per_job": 1, "command_cycle": self.cycle}

    def speed_scale(self, ns):
        return calibrate.cold_scale()

    def job(self, i):
        self.current = i
        self.argv_of[i] = self.commands(i)[0]
        return super().job(i)

    def execute(self, job, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.src, env.get("PYTHONPATH")]))
        if self.traced:
            spans = self.spans_dir / f"job{self.current}.json"
            spans.unlink(missing_ok=True)
            code = self.LAUNCH_TRACED.format(
                bench=str(Path(__file__).resolve().parent), spans=str(spans), job=self.current
            )
            cmd = [sys.executable, "-X", "importtime", "-c", code]
        else:
            spans = None
            cmd = [sys.executable, "-c", self.LAUNCH]
        start = time.monotonic()
        try:
            with job.clock:
                proc = subprocess.run(
                    cmd + argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, timeout=self.CHILD_TIMEOUT_S,
                )
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {self.CHILD_TIMEOUT_S} s"
        if spans is not None:
            self.children.append({"spans": spans, "launched": start, "stderr": proc.stderr})
        lines = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
        return proc.returncode, "\n".join(lines[-3:])

    def finish(self, jobs):
        """Each cold report must match the in-process report byte for byte."""
        reference: dict[tuple, dict[str, str]] = {}
        for i, job in jobs.items():
            key, argv, _ = self.argv_of[i]
            if any(state == ERROR for _, state, _ in job.ops):
                continue
            if tuple(argv) not in reference:
                out_dir = self.work / self.name / "reference" / str(len(reference))
                shutil.rmtree(out_dir, ignore_errors=True)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main(argv + ["--out", str(out_dir)])
                    reference[tuple(argv)] = digest_dir(out_dir, key)
                except Exception as exc:  # no reference: every such job mismatches
                    reference[tuple(argv)] = {"reference failed": describe(exc)}
            expected = {f"job{i}/{name}": d for name, d in reference[tuple(argv)].items()}
            actual = {name: d for name, d in self.digests.items() if name.startswith(f"job{i}/")}
            if actual != expected:
                job.record(f"{key}_bytes", ERROR, "cold report differs from in-process report")
            else:
                job.record(f"{key}_bytes", OK)


WORKLOADS = {cls.name: cls for cls in (Characterize, MapRoundtrip, CliBatch, CliCold)}
