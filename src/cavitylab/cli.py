"""Batch command-line pipelines.

Three subcommands wire the library end to end::

    cavitylab dispersion      # mode map + double-resonance search
    cavitylab fit             # fit a CSV (or a named preset) with a model
    cavitylab purcell-budget  # audited enhancement chain as JSON

Commands are idempotent: identical inputs produce byte-identical reports.
Exit codes: 0 success, 2 input validation error, 3 numerical failure; a fit
that stops for any reason but its step tolerance is a numerical failure and
writes no report. The default output directory comes from ``--out`` or the
``CAVITYLAB_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import cqed, dataio, fitkit, models, optics, synthlab
from .errors import _DOMAINS, NumericalError, ValidationError

__all__ = ["cmd_dispersion", "cmd_fit", "cmd_purcell_budget", "entrypoint", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("CAVITYLAB_OUTDIR")
    if not out:
        raise ValidationError("no output directory: pass --out or set CAVITYLAB_OUTDIR")
    return Path(out)


def _radii(args) -> tuple[float, float]:
    """The (x, y) mirror radii of curvature: --roc for both, or --roc-x and --roc-y."""
    per_axis = [flag for flag, roc in (("--roc-x", args.roc_x), ("--roc-y", args.roc_y))
                if roc is not None]
    if args.roc is not None and per_axis:
        raise ValidationError(
            f"--roc and {' and '.join(per_axis)} both give a mirror radius; pass one source")
    if args.roc is not None:
        return args.roc, args.roc
    if len(per_axis) < 2:
        raise ValidationError("provide --roc or both --roc-x and --roc-y")
    return args.roc_x, args.roc_y


def _float_flag(holds, domain: str):
    """The argparse type of a float flag: the number when ``holds(number)``,
    else exit 2 with "must be <domain>", also for text that is no number."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # holds for no domain
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return parse


# the library's own domains, refused in the library's words
_positive, _non_negative, _fraction = (
    _float_flag(_DOMAINS[d], d)
    for d in ("positive and finite", "non-negative and finite", "in (0, 1]"))
_refractive_index = _float_flag(lambda v: 1 <= v < math.inf, "a finite number >= 1")


def _int_flag(holds, domain: str):
    """The argparse type of an integer flag: the integer when ``holds(n)``,
    else exit 2 with "must be <domain>", also for text that is no integer
    of decimal digits, and naming Python's digit limit for text over it."""
    def parse(text: str) -> int:
        try:
            value = int(text) if text.strip().isdecimal() else -1  # holds for no domain
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {domain} of at most {sys.get_int_max_str_digits()} digits, "
                f"got {len(text.strip())} digits") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return parse


_positive_int, _non_negative_int = (
    _int_flag(_DOMAINS[d], d) for d in ("an integer >= 1", "an integer >= 0"))

# the bootstrap draws its resamples at once and refits them one stack of at
# most 2**15 points at a time, so memory grows only with the resamples but
# time grows with their count: a g2_dip fit with 1000 resamples takes about
# 2.0-2.2 s and 70 MB of peak RSS (200: 0.4 s and 46 MB) on a 2-CPU Xeon host
MAX_RESAMPLES = 1000

_resamples = _int_flag(lambda n: n == 0 or 2 <= n <= MAX_RESAMPLES,
                       f"0 or an integer from 2 to {MAX_RESAMPLES}")


# the map holds the orders as floats, which hold every integer up to 2**53
_order = _int_flag(lambda q: 0 <= q <= 2**53, "comma-separated integers from 0 to 2**53")


def _orders(text: str) -> list[int]:
    """A comma-separated list of distinct transverse orders (see ``_order``)."""
    orders = [_order(q) for q in text.split(",")]
    if len(set(orders)) < len(orders):
        raise argparse.ArgumentTypeError(f"must not repeat an order, got {text!r}")
    return orders


# the dispersion map is built whole, about 70 bytes a row at its peak
MAX_MAP_ROWS = 1_000_000


def cmd_dispersion(args) -> int:
    """Dispersion map CSV plus a JSON report with double-resonance candidates."""
    if not args.l_min < args.l_max:
        raise ValidationError("need --l-min < --l-max")
    orders = tuple(args.transverse_orders)
    if args.gouy == "off" and orders != (0,):
        # plane-wave resonances are the flat-mirror limit, fundamental only
        raise ValidationError("--gouy off maps order 0 only: drop --transverse-orders")
    # lengths x mode indices x the orders the map holds, in floats, before anything is built
    # (a huge --l-max would overflow the integer mode range)
    rows = ((args.l_max - args.l_min) / (args.l_step_nm / 1000.0) + 1.0) * (
        2000.0 * args.l_max / min(args.lambda_exc, args.lambda_det) + 3.0
    ) * len(orders)
    if not rows <= MAX_MAP_ROWS:
        raise ValidationError(
            f"the dispersion map would have {rows:.3g} rows, over {MAX_MAP_ROWS}: "
            "raise --l-step-nm or narrow --l-min to --l-max"
        )
    out = _out_dir(args)
    roc_x, roc_y = _radii(args)
    if args.gouy == "off":  # plane waves: the flat-mirror limit
        roc_x = roc_y = math.inf
    # (roc_mode, file suffix, radius) of each axis, every radius checked before any output
    axes = ([("geometric", "", optics.mean_roc(roc_x, roc_y))] if args.roc_mode == "geometric"
            else [("x", "_x", roc_x), ("y", "_y", roc_y)])
    for _, _, roc_um in axes:
        if args.l_max >= roc_um:
            raise ValidationError(
                f"unstable geometry: l_max ({args.l_max} um) must be < ROC ({roc_um} um)"
            )
    l_grid = np.arange(args.l_min, args.l_max + 1e-12, args.l_step_nm / 1000.0)
    m_values = optics.mode_indices(
        (args.l_min, args.l_max), sorted((args.lambda_exc, args.lambda_det))
    )

    # an axis that repeats an earlier radius reuses that map and its candidates
    built = {}
    reports = []
    for roc_mode, suffix, roc_um in axes:
        map_path = out / f"dispersion_map{suffix}.csv"
        if roc_um in built:
            first_path, candidates = built[roc_um]
            shutil.copyfile(first_path, map_path)
        else:
            rows = optics.dispersion_map(roc_um, l_grid, m_values, orders)
            out.mkdir(parents=True, exist_ok=True)
            # lengths and wavelengths as %.9g, the integral m and q as integers
            dataio._write_csv(map_path, "l_eff_um,wavelength_nm,mode_m,transverse_order",
                              [rows[:, :2], rows[:, 2:]], fixed=(0,))
            candidates = optics.double_resonance_search(
                args.lambda_exc, args.lambda_det, roc_um,
                (args.l_min, args.l_max), args.tol_nm / 1000.0,
            )
            built[roc_um] = map_path, candidates

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
    if args.preset and args.schema:
        raise ValidationError("--schema describes an --input file; a --preset takes none")
    out = _out_dir(args)
    inputs = []
    if args.preset:
        spec = synthlab.preset(args.preset, seed=args.seed)
        ds = synthlab.generate(spec)
        x, y = ds.x, ds.y
        model_id = args.model or spec.model_id
    else:
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
        else:  # scan ramps, the one other --schema choice
            if len(record) > 1:
                raise ValidationError(
                    f"--input holds {len(record)} scan ramps; fit takes one ramp")
            x, y = record[0].axis, record[0].signal

    problem = fitkit.FitProblem(model_id=model_id, x=x, y=y)
    result = fitkit.fit(problem)
    result.require_converged("fit")
    step = result.to_report_step(problem)
    if args.bootstrap:
        sigma = fitkit.bootstrap_uncertainty(
            problem, result, n_resamples=args.bootstrap, seed=args.seed
        )
        step["outputs"]["bootstrap_sigmas"] = dict(
            zip(models.param_names(model_id), sigma.tolist())
        )
    if args.preset:  # written once the fit is accepted, so a failed one leaves no file
        csv_path, _ = synthlab.write_dataset(ds, out / f"{args.preset}.csv")
        inputs.append(dataio.digest_file(csv_path))

    report = dataio.make_report(steps=[step], inputs=inputs)
    report_path = out / "fit_report.json"
    dataio.export_report(report, report_path)
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_purcell_budget(args) -> int:
    """Write the Purcell budget JSON for the given emitter/cavity inputs."""
    geom = optics.CavityGeometry(
        *_radii(args), l_eff_um=args.l_eff, refractive_index=args.refractive_index
    )
    cqed.check_q_sources({"--q-ideal": args.q_ideal, "--finesse": args.finesse,
                          "--m-det": args.m_det, "--q-exp": args.q_exp,
                          "--kappa-exp": args.kappa_exp})
    steps = cqed.budget_report(
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
    report_path = _out_dir(args) / "purcell_budget.json"
    dataio.export_report(dataio.make_report(steps=steps), report_path)
    print(f"wrote {report_path}")
    return EXIT_OK


# built once per process: parsing leaves the parser as it was, and the one
# string default (--transverse-orders) is converted afresh by each parse
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitylab",
        description="Cavity-emitter analysis pipelines (dispersion, fits, Purcell budget).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output directory (default: $CAVITYLAB_OUTDIR)")

    def add_roc(p):
        # finite: the flat-mirror limit is dispersion's --gouy off
        p.add_argument("--roc", type=_positive, help="mirror radius of curvature (um)")
        p.add_argument("--roc-x", type=_positive, dest="roc_x")
        p.add_argument("--roc-y", type=_positive, dest="roc_y")

    p_disp = sub.add_parser("dispersion", help="mode map and double-resonance search")
    add_out(p_disp)
    add_roc(p_disp)
    p_disp.add_argument(
        "--roc-mode", choices=["geometric", "per-axis"], default="geometric",
        dest="roc_mode",
    )
    p_disp.add_argument("--gouy", choices=["on", "off"], default="on")
    p_disp.add_argument("--lambda-exc", type=_positive, required=True, dest="lambda_exc")
    p_disp.add_argument("--lambda-det", type=_positive, required=True, dest="lambda_det")
    p_disp.add_argument("--l-min", type=_positive, required=True, dest="l_min")
    p_disp.add_argument("--l-max", type=_positive, required=True, dest="l_max")
    p_disp.add_argument("--tol-nm", type=_positive, default=25.0, dest="tol_nm")
    p_disp.add_argument("--l-step-nm", type=_positive, default=5.0, dest="l_step_nm")
    p_disp.add_argument("--transverse-orders", type=_orders, default="0",
                        dest="transverse_orders")
    p_disp.set_defaults(func=cmd_dispersion)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset or a named preset")
    add_out(p_fit)
    p_fit.add_argument("--seed", type=_non_negative_int, default=0,
                       help="random seed, an integer >= 0")
    source = p_fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="input CSV path")
    source.add_argument(
        "--preset", choices=synthlab.preset_names(),
        help="generate and fit a named synthetic preset",
    )
    p_fit.add_argument(
        "--schema", choices=["spectrum", "scan", "histogram"], help="input CSV schema"
    )
    p_fit.add_argument("--model", choices=sorted(models.MODELS), help="model id")
    p_fit.add_argument("--bootstrap", type=_resamples, default=0,
                       help=f"bootstrap resamples for uncertainties, 0 (none) or 2 "
                       f"to {MAX_RESAMPLES}")
    p_fit.set_defaults(func=cmd_fit)

    p_budget = sub.add_parser("purcell-budget", help="audited enhancement chain")
    add_out(p_budget)
    add_roc(p_budget)
    p_budget.add_argument("--refractive-index", type=_refractive_index, default=1.0,
                          dest="refractive_index")
    p_budget.add_argument("--tau0", type=_positive, required=True,
                          help="free-space lifetime (ns)")
    p_budget.add_argument("--tau-p", type=_positive, required=True, dest="tau_p",
                          help="cavity-modified lifetime (ns)")
    p_budget.add_argument("--qe", type=_fraction, required=True, help="quantum efficiency")
    p_budget.add_argument("--dw", type=_fraction, required=True, help="Debye-Waller factor")
    p_budget.add_argument("--branching", type=_fraction, default=1.0)
    p_budget.add_argument("--lambda-c", type=_positive, required=True, dest="lambda_c")
    p_budget.add_argument("--l-eff", type=_positive, required=True, dest="l_eff")
    p_budget.add_argument("--q-ideal", type=_positive, dest="q_ideal")
    p_budget.add_argument("--finesse", type=_positive)
    p_budget.add_argument("--m-det", type=_positive_int, dest="m_det")
    p_budget.add_argument("--kappa-exp", type=_positive, dest="kappa_exp",
                          help="effective linewidth (GHz)")
    p_budget.add_argument("--q-exp", type=_positive, dest="q_exp")
    p_budget.add_argument("--f-fp", type=_non_negative, default=0.0, dest="f_fp")
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
