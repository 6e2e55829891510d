"""Batch command-line pipelines.

Three subcommands wire the library end to end::

    cavitylab dispersion      # mode map + double-resonance search
    cavitylab fit             # fit a CSV (or a named preset) with a model
    cavitylab purcell-budget  # audited enhancement chain as JSON

Commands are idempotent: identical inputs produce byte-identical reports.
Exit codes: 0 success, 2 input validation error, 3 numerical failure. The
default output directory comes from ``--out`` or the ``CAVITYLAB_OUTDIR``
environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cqed, dataio, fitkit, models, optics, photophysics, synthlab
from .errors import NumericalError, ValidationError

__all__ = ["cmd_dispersion", "cmd_fit", "cmd_purcell_budget", "entrypoint", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("CAVITYLAB_OUTDIR")
    if not out:
        raise ValidationError("no output directory: pass --out or set CAVITYLAB_OUTDIR")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _radii(args) -> tuple[float, float]:
    """The (x, y) mirror radii of curvature from --roc, --roc-x and --roc-y."""
    roc_x = args.roc_x if args.roc_x is not None else args.roc
    roc_y = args.roc_y if args.roc_y is not None else args.roc
    if roc_x is None or roc_y is None:
        raise ValidationError("provide --roc or both --roc-x and --roc-y")
    return roc_x, roc_y


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _orders(text: str) -> list[int]:
    """A comma-separated list of transverse orders, each a non-negative integer."""
    parts = text.split(",")
    if not all(q.strip().isdecimal() for q in parts):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated non-negative integers, got {text!r}"
        )
    return [int(q) for q in parts]


def _write_map_csv(path: Path, rows: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("l_eff_um,wavelength_nm,mode_m,transverse_order\n")
        for l_um, wavelength, m, q in rows:
            fh.write(f"{l_um:.9g},{wavelength:.9g},{int(m)},{int(q)}\n")


def cmd_dispersion(args) -> int:
    """Dispersion map CSV plus a JSON report with double-resonance candidates."""
    out = _out_dir(args)
    if not 0 < args.l_min < args.l_max:
        raise ValidationError("need 0 < --l-min < --l-max")
    roc_modes = (
        [("geometric", "")] if args.roc_mode == "geometric" else [("x", "_x"), ("y", "_y")]
    )
    radii = _radii(args)
    l_grid = np.arange(args.l_min, args.l_max + 1e-12, args.l_step_nm / 1000.0)
    m_lo = max(1, int(2000.0 * args.l_min / max(args.lambda_det, args.lambda_exc)) - 1)
    m_hi = int(2000.0 * args.l_max / min(args.lambda_det, args.lambda_exc)) + 1
    m_values = range(m_lo, m_hi + 1)
    orders = args.transverse_orders

    reports = []
    for roc_mode, suffix in roc_modes:
        roc_um = optics.scalar_roc(radii, roc_mode)
        if args.gouy == "off":
            # plane-wave resonances are the flat-mirror limit, fundamental only
            roc_um, orders = math.inf, (0,)
        elif args.l_max >= roc_um:
            raise ValidationError(
                f"unstable geometry: l_max ({args.l_max} um) must be < ROC ({roc_um} um)"
            )
        rows = optics.dispersion_map(roc_um, l_grid, m_values, orders)
        map_path = out / f"dispersion_map{suffix}.csv"
        _write_map_csv(map_path, rows)

        candidates = optics.double_resonance_search(
            args.lambda_exc, args.lambda_det, roc_um,
            (args.l_min, args.l_max), args.tol_nm / 1000.0,
        )

        reports.append(
            {
                "name": f"double_resonance_search{suffix}",
                "params": {
                    "lambda_exc_nm": args.lambda_exc,
                    "lambda_det_nm": args.lambda_det,
                    "roc_mode": roc_mode,
                    "gouy": args.gouy,
                    "l_range_um": [args.l_min, args.l_max],
                    "tolerance_nm": args.tol_nm,
                },
                "outputs": {
                    "map_csv": map_path.name,
                    "candidates": [
                        {
                            "m_exc": c.m_exc,
                            "m_det": c.m_det,
                            "l_eff_um": c.l_eff_um,
                            "mismatch_nm": c.mismatch_um * 1000.0,
                        }
                        for c in candidates
                    ],
                },
            }
        )
    report = dataio.make_report(steps=reports)
    dataio.export_report(report, out / "dispersion_report.json")
    print(f"wrote {out / 'dispersion_report.json'}")
    return EXIT_OK


def cmd_fit(args) -> int:
    """Fit one dataset (CSV file or named preset) and write the result JSON."""
    out = _out_dir(args)
    inputs = []
    if args.preset:
        spec = synthlab.preset(args.preset, seed=args.seed)
        ds = synthlab.generate(spec)
        x, y = ds.x, ds.y
        model_id = args.model or spec.model_id
        record = ds.record()
    elif args.input:
        if not args.model:
            raise ValidationError("--model is required with --input")
        if not args.schema:
            raise ValidationError("--schema is required with --input")
        record = dataio.load_csv(args.input, args.schema)
        inputs.append(dataio.digest_file(args.input))
        model_id = args.model
        if isinstance(record, dataio.Spectrum):
            x, y = record.wavelength_nm, record.counts
        elif isinstance(record, dataio.TimeHistogram):
            x, y = record.bin_centers_ns, record.counts.astype(float)
        elif isinstance(record, list):  # scan ramps
            x, y = record[0].axis, record[0].signal
        else:
            raise ValidationError(f"schema {args.schema!r} not fittable")
    else:
        raise ValidationError("provide --input or --preset")

    if args.bootstrap and model_id == "g2_three_level":
        raise ValidationError("--bootstrap is not supported for model g2_three_level")
    if args.preset:
        csv_path, _ = synthlab.write_dataset(ds, out / f"{args.preset}.csv")
        inputs.append(dataio.digest_file(csv_path))
    steps = []
    if model_id == "g2_three_level":
        hist = record if isinstance(record, dataio.TimeHistogram) else dataio.TimeHistogram(
            bin_centers_ns=x, counts=np.round(y).astype(np.int64)
        )
        g2 = photophysics.fit_g2_histogram(hist)
        step = g2.fit.to_report_step()
        step["outputs"]["g2_at_t0"] = g2.g2_at_t0
        step["outputs"]["plateau_counts"] = g2.plateau_counts
        steps.append(step)
    else:
        problem = fitkit.FitProblem(model_id=model_id, x=x, y=y)
        result = fitkit.fit(problem)
        step = result.to_report_step(problem)
        if args.bootstrap:
            sigma = fitkit.bootstrap_uncertainty(
                problem, result, n_resamples=args.bootstrap, seed=args.seed
            )
            step["outputs"]["bootstrap_sigmas"] = dict(
                zip(models.param_names(model_id), sigma.tolist())
            )
        steps.append(step)

    report = dataio.make_report(steps=steps, inputs=inputs)
    report_path = out / "fit_report.json"
    dataio.export_report(report, report_path)
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_purcell_budget(args) -> int:
    """Write the Purcell budget JSON for the given emitter/cavity inputs."""
    out = _out_dir(args)
    geom = optics.CavityGeometry(
        *_radii(args), l_eff_um=args.l_eff, refractive_index=args.refractive_index
    )
    budget = cqed.budget_report(
        tau0_ns=args.tau0,
        tau_p_ns=args.tau_p,
        quantum_efficiency=args.qe,
        debye_waller=args.dw,
        branching=args.branching,
        geom=geom,
        lambda_c_nm=args.lambda_c,
        q_ideal=args.q_ideal,
        finesse=args.finesse,
        m_det=args.m_det,
        kappa_exp_ghz=args.kappa_exp,
        q_exp=args.q_exp,
        f_fp=args.f_fp,
    )
    report = dataio.make_report(
        steps=budget.steps(),
        inputs=[],
    )
    report_path = out / "purcell_budget.json"
    dataio.export_report(report, report_path)
    print(f"wrote {report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitylab",
        description="Cavity-emitter analysis pipelines (dispersion, fits, Purcell budget).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output directory (default: $CAVITYLAB_OUTDIR)")

    def add_roc(p):
        p.add_argument("--roc", type=float, help="mirror radius of curvature (um)")
        p.add_argument("--roc-x", type=float, dest="roc_x")
        p.add_argument("--roc-y", type=float, dest="roc_y")

    p_disp = sub.add_parser("dispersion", help="mode map and double-resonance search")
    add_out(p_disp)
    add_roc(p_disp)
    p_disp.add_argument(
        "--roc-mode", choices=["geometric", "per-axis"], default="geometric",
        dest="roc_mode",
    )
    p_disp.add_argument("--gouy", choices=["on", "off"], default="on")
    p_disp.add_argument("--lambda-exc", type=float, required=True, dest="lambda_exc")
    p_disp.add_argument("--lambda-det", type=float, required=True, dest="lambda_det")
    p_disp.add_argument("--l-min", type=float, required=True, dest="l_min")
    p_disp.add_argument("--l-max", type=float, required=True, dest="l_max")
    p_disp.add_argument("--tol-nm", type=_positive, default=25.0, dest="tol_nm")
    p_disp.add_argument("--l-step-nm", type=_positive, default=5.0, dest="l_step_nm")
    p_disp.add_argument("--transverse-orders", type=_orders, default="0",
                        dest="transverse_orders")
    p_disp.set_defaults(func=cmd_dispersion)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset or a named preset")
    add_out(p_fit)
    p_fit.add_argument("--seed", type=int, default=0, help="random seed")
    p_fit.add_argument("--input", help="input CSV path")
    p_fit.add_argument(
        "--schema", choices=["spectrum", "scan", "histogram"], help="input CSV schema"
    )
    p_fit.add_argument("--model", choices=sorted(models.MODELS), help="model id")
    p_fit.add_argument(
        "--preset", choices=synthlab.preset_names(),
        help="generate and fit a named synthetic preset",
    )
    p_fit.add_argument("--bootstrap", type=int, default=0,
                       help="bootstrap resamples for uncertainties")
    p_fit.set_defaults(func=cmd_fit)

    p_budget = sub.add_parser("purcell-budget", help="audited enhancement chain")
    add_out(p_budget)
    add_roc(p_budget)
    p_budget.add_argument("--refractive-index", type=float, default=1.0,
                          dest="refractive_index")
    p_budget.add_argument("--tau0", type=float, required=True,
                          help="free-space lifetime (ns)")
    p_budget.add_argument("--tau-p", type=float, required=True, dest="tau_p",
                          help="cavity-modified lifetime (ns)")
    p_budget.add_argument("--qe", type=float, required=True, help="quantum efficiency")
    p_budget.add_argument("--dw", type=float, required=True, help="Debye-Waller factor")
    p_budget.add_argument("--branching", type=float, default=1.0)
    p_budget.add_argument("--lambda-c", type=float, required=True, dest="lambda_c")
    p_budget.add_argument("--l-eff", type=float, required=True, dest="l_eff")
    p_budget.add_argument("--q-ideal", type=float, dest="q_ideal")
    p_budget.add_argument("--finesse", type=float)
    p_budget.add_argument("--m-det", type=int, dest="m_det")
    p_budget.add_argument("--kappa-exp", type=float, dest="kappa_exp",
                          help="effective linewidth (GHz)")
    p_budget.add_argument("--q-exp", type=float, dest="q_exp")
    p_budget.add_argument("--f-fp", type=float, default=0.0, dest="f_fp")
    p_budget.set_defaults(func=cmd_purcell_budget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
