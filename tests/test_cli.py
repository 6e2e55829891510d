import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavitylab import cli, dataio, fitkit


def run(argv):
    return cli.main(argv)


def _dispersion_args(out, extra=()):
    return [
        "dispersion",
        "--lambda-exc", "533.3",
        "--lambda-det", "618.5",
        "--roc", "24",
        "--l-min", "3.6",
        "--l-max", "3.9",
        "--tol-nm", "25",
        "--out", str(out),
        *extra,
    ]


def test_dispersion_reports_paper_pair(tmp_path):
    assert run(_dispersion_args(tmp_path)) == 0
    report = json.loads((tmp_path / "dispersion_report.json").read_text())
    candidates = report["steps"][0]["outputs"]["candidates"]
    assert candidates
    top = candidates[0]
    assert (top["m_exc"], top["m_det"]) == (14, 12)
    assert 3.6 <= top["l_eff_um"] <= 3.9
    header = (tmp_path / "dispersion_map.csv").read_text().splitlines()[0]
    assert header == "l_eff_um,wavelength_nm,mode_m,transverse_order"


def test_dispersion_unstable_geometry_exit_2(tmp_path, capsys):
    args = _dispersion_args(tmp_path)
    args[args.index("--l-max") + 1] = "25.0"
    assert run(args) == 2
    assert "ROC" in capsys.readouterr().err


def test_dispersion_gouy_off_plane_wave(tmp_path):
    assert run(_dispersion_args(tmp_path, extra=("--gouy", "off"))) == 0
    report = json.loads((tmp_path / "dispersion_report.json").read_text())
    candidates = report["steps"][0]["outputs"]["candidates"]
    top = candidates[0]
    assert (top["m_exc"], top["m_det"]) == (14, 12)
    l_exc = 14 * 533.3 / 2000.0
    l_det = 12 * 618.5 / 2000.0
    assert top["l_eff_um"] == pytest.approx(0.5 * (l_exc + l_det), rel=1e-12)


@pytest.mark.parametrize("gouy", ["on", "off"])
def test_dispersion_pair_needs_both_lengths_in_range(gouy, tmp_path):
    # (m_exc, m_det) = (5, 4) has its midpoint 1.285 um inside 1.23-1.31 um,
    # but l_exc = 5 * 533.3 / 2000 = 1.333 um lies outside: with and without
    # the Gouy phase, a pair counts only when both lengths are in range
    args = _dispersion_args(tmp_path, extra=("--gouy", gouy))
    for flag, value in (("--l-min", "1.23"), ("--l-max", "1.31"), ("--tol-nm", "200")):
        args[args.index(flag) + 1] = value
    assert run(args) == 0
    report = json.loads((tmp_path / "dispersion_report.json").read_text())
    assert report["steps"][0]["outputs"]["candidates"] == []


def test_dispersion_per_axis_writes_two_maps(tmp_path):
    args = _dispersion_args(tmp_path, extra=("--roc-mode", "per-axis"))
    i = args.index("--roc")
    args[i : i + 2] = ["--roc-x", "25", "--roc-y", "22"]
    assert run(args) == 0
    assert (tmp_path / "dispersion_map_x.csv").exists()
    assert (tmp_path / "dispersion_map_y.csv").exists()



@pytest.mark.parametrize("roc_x, roc_y, gouy, maps", [
    ("22", "26", "off", 1),  # plane waves do not depend on the radius
    ("24", "24", "on", 1),
    ("22", "26", "on", 2),
])
def test_dispersion_per_axis_builds_each_distinct_map_once(
        roc_x, roc_y, gouy, maps, tmp_path, monkeypatch):
    calls = []
    dispersion_map = cli.optics.dispersion_map

    def counted(*args):
        calls.append(args[0])
        return dispersion_map(*args)

    monkeypatch.setattr(cli.optics, "dispersion_map", counted)
    args = _dispersion_args(tmp_path, extra=("--roc-mode", "per-axis", "--gouy", gouy))
    i = args.index("--roc")
    args[i : i + 2] = ["--roc-x", roc_x, "--roc-y", roc_y]
    assert run(args) == 0
    assert len(calls) == maps
    x, y = ((tmp_path / f"dispersion_map_{axis}.csv").read_bytes() for axis in "xy")
    assert (x == y) == (maps == 1)
    steps = json.loads((tmp_path / "dispersion_report.json").read_text())["steps"]
    assert [(s["params"]["roc_mode"], s["outputs"]["map_csv"]) for s in steps] == [
        ("x", "dispersion_map_x.csv"), ("y", "dispersion_map_y.csv")]
    assert steps[0]["outputs"]["candidates"]
    if maps == 1:
        assert steps[0]["outputs"]["candidates"] == steps[1]["outputs"]["candidates"]


@pytest.mark.parametrize("roc_mode, radii", [
    ("geometric", [math.sqrt(25.0 * 22.0)]),
    ("per-axis", [25.0, 22.0]),
])
def test_dispersion_gives_each_axis_its_radius(roc_mode, radii, tmp_path, monkeypatch):
    # the map and the search of each axis take that axis's radius as a number:
    # the geometric mean of --roc-x and --roc-y, or each of them in turn
    seen = []
    dispersion_map, search = cli.optics.dispersion_map, cli.optics.double_resonance_search
    monkeypatch.setattr(cli.optics, "dispersion_map", lambda roc, *rest: (
        seen.append(("map", roc)) or dispersion_map(roc, *rest)))
    monkeypatch.setattr(cli.optics, "double_resonance_search", lambda exc, det, roc, *rest: (
        seen.append(("search", roc)) or search(exc, det, roc, *rest)))
    args = _dispersion_args(tmp_path, extra=("--roc-mode", roc_mode))
    i = args.index("--roc")
    args[i : i + 2] = ["--roc-x", "25", "--roc-y", "22"]
    assert run(args) == 0
    assert seen == [(kind, roc) for roc in radii for kind in ("map", "search")]


def test_dispersion_idempotent(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(_dispersion_args(out1)) == 0
    assert run(_dispersion_args(out2)) == 0
    assert (out1 / "dispersion_report.json").read_bytes() == (
        out2 / "dispersion_report.json"
    ).read_bytes()
    assert (out1 / "dispersion_map.csv").read_bytes() == (
        out2 / "dispersion_map.csv"
    ).read_bytes()


def test_fit_preset_g2_reports_zero_delay(tmp_path):
    code = run(["fit", "--preset", "g2_dip", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    outputs = report["steps"][0]["outputs"]
    assert outputs["converged"]
    assert abs(outputs["g2_at_t0"] - 0.21) < 0.03
    assert (tmp_path / "g2_dip.csv").exists()
    assert (tmp_path / "g2_dip.csv.truth.json").exists()


def test_fit_preset_saturation_table_row(tmp_path):
    code = run(
        ["fit", "--preset", "saturation_100k", "--seed", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    params = report["steps"][0]["outputs"]["params"]
    assert abs(params["p_sat"] - 2.2) < 0.4
    assert abs(params["i_sat"] - 162.0) < 18.0


def test_fit_csv_input(tmp_path):
    from cavitylab import models, synthlab

    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=8))
    csv_path, _ = synthlab.write_dataset(ds, tmp_path / "decay.csv")
    code = run(
        [
            "fit", "--input", str(csv_path), "--schema", "histogram",
            "--model", "exponential_decay", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["inputs"] == [dataio.digest_file(csv_path)]
    assert abs(report["steps"][0]["outputs"]["params"]["tau"] - 12.2) < 0.6


def test_fit_overflowing_trial_steps_are_rejected_not_data_errors(tmp_path, capsys):
    # g2 trial steps on decay data overflow the model; each is a rejected
    # step, so the fit ends in a numerical failure, not a data error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([
            "fit", "--preset", "lifetime_4k", "--seed", "7",
            "--model", "g2_three_level", "--out", str(tmp_path),
        ])
    assert code == 3
    assert "non-finite residual" not in capsys.readouterr().err


def test_fit_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wavelength_nm,counts\n700.0,1\n600.0,2\n")
    code = run(
        [
            "fit", "--input", str(bad), "--schema", "spectrum",
            "--model", "lorentzian", "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_fit_flat_data_numerical_failure_exit_3(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    rows = "\n".join(f"{600.0 + 0.1 * i},50" for i in range(100))
    flat.write_text("wavelength_nm,counts\n" + rows + "\n")
    code = run(
        [
            "fit", "--input", str(flat), "--schema", "spectrum",
            "--model", "lorentzian", "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "center" in err


def _fit_csv(tmp_path, record, schema, model_id):
    csv_path = dataio.save_csv(record, tmp_path / "data.csv")
    out = tmp_path / "out"
    return run([
        "fit", "--input", str(csv_path), "--schema", schema,
        "--model", model_id, "--out", str(out),
    ]), out


def test_fit_negative_counts_with_a_poisson_model_exit_2(tmp_path, capsys):
    # a background-subtracted decay whose last 4 rows dip below zero
    t = np.arange(40.0)
    signal = 500.0 * np.exp(-t / 8.0)
    signal[-4:] = -1.0
    trace = dataio.ScanTrace(axis=t, signal=signal)
    code, out = _fit_csv(tmp_path, trace, "scan", "exponential_decay")
    assert code == 2
    assert "negative count at index 36" in capsys.readouterr().err
    assert not (out / "fit_report.json").exists()


def test_fit_scan_of_two_ramps_exit_2_without_a_report(tmp_path, capsys):
    # an up/down pair: one Lorentzian over the up ramp's two resonances would
    # fit badly, and the down ramp would be dropped without a word
    from cavitylab import synthlab

    ramps = synthlab.generate_scan_pair(n_samples=20_000, seed=3)
    code, out = _fit_csv(tmp_path, ramps, "scan", "lorentzian")
    assert code == 2
    assert "--input holds 2 scan ramps; fit takes one ramp" in capsys.readouterr().err
    assert not (out / "fit_report.json").exists()


def test_fit_rising_histogram_is_refused_exit_3(tmp_path, capsys):
    rising = dataio.TimeHistogram(
        bin_centers_ns=np.arange(0.5, 30.5, 1.0), counts=np.arange(30) * 10 + 5
    )
    code, out = _fit_csv(tmp_path, rising, "histogram", "exponential_decay")
    assert code == 3
    assert "not decaying" in capsys.readouterr().err
    assert not (out / "fit_report.json").exists()


def test_fit_that_reaches_the_iteration_cap_exits_3_without_a_report(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fitkit, "_MAX_ITER", 2)
    code = run(["fit", "--preset", "g2_dip", "--seed", "7", "--out", str(tmp_path)])
    assert code == 3
    assert "did not converge: max_iter after 2 iterations" in capsys.readouterr().err
    assert not (tmp_path / "fit_report.json").exists()


def test_fit_with_no_descent_exits_3_without_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fitkit, "_COST_SLACK", -1.0)  # every trial point rejected
    code = run(["fit", "--preset", "saturation_10k", "--seed", "7", "--out", str(tmp_path)])
    assert code == 3
    assert "did not converge: no_descent after 1 iterations" in capsys.readouterr().err
    assert not (tmp_path / "fit_report.json").exists()


def test_preset_fits_converge_through_the_cli(tmp_path):
    # g2_dip, whose t0 = 0 defeats a relative step test, runs at every seed
    # of 0-299 and the other presets at 50 seeds drawn from that range, to
    # keep the test to a few seconds
    from cavitylab import synthlab

    rng = np.random.Generator(np.random.Philox(15))
    for name in synthlab.preset_names():
        seeds = range(300) if name == "g2_dip" else rng.choice(300, 50, replace=False)
        for seed in seeds:
            code = run(["fit", "--preset", name, "--seed", str(seed), "--out", str(tmp_path)])
            outputs = json.loads((tmp_path / "fit_report.json").read_text())["steps"][0]
            assert code == 0 and outputs["outputs"]["converged"], (name, seed)


def test_fit_saturation_flat_data_stays_in_model_bounds(tmp_path):
    flat = tmp_path / "flat.csv"
    rows = "\n".join(f"{600.0 + 0.1 * i},50" for i in range(100))
    flat.write_text("wavelength_nm,counts\n" + rows + "\n")
    code = run(
        [
            "fit", "--input", str(flat), "--schema", "spectrum",
            "--model", "saturation", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["steps"][0]["outputs"]["params"]["p_sat"] >= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--preset", "g2_dip", "--roc", "24"],
        ["fit", "--preset", "g2_dip", "--gouy", "off"],
        _dispersion_args("x")[:-2] + ["--seed", "3"],
        [
            "purcell-budget", "--tau0", "21.7", "--tau-p", "12.2", "--qe", "0.8",
            "--dw", "0.56", "--lambda-c", "618.5", "--l-eff", "3.75", "--roc", "24",
            "--q-ideal", "56400", "--kappa-exp", "160", "--roc-mode", "per-axis",
        ],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "preset, model",
    [("g2_dip", "lorentzian"), ("lifetime_4k", "g2_three_level")],
)
def test_failed_preset_fit_leaves_no_out_path(preset, model, tmp_path, capsys):
    # the first stops at max_iter, the second lands outside the g2 model's
    # valid region; neither writes the preset's dataset or its truth sidecar
    out = tmp_path / "out"
    assert run(["fit", "--preset", preset, "--model", model, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_fit_requires_input_or_preset(tmp_path):
    assert run(["fit", "--out", str(tmp_path)]) == 2


def test_fit_refuses_input_with_preset(tmp_path, capsys):
    code = run([
        "fit", "--preset", "lifetime_4k", "--input", str(tmp_path / "nowhere.csv"),
        "--schema", "spectrum", "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--preset" in err and "--input" in err
    assert not any(tmp_path.iterdir())


def test_fit_refuses_schema_with_preset(tmp_path, capsys):
    # a preset is generated, not read: a schema for it is a flag fit does not read
    out = tmp_path / "out"
    code = run(["fit", "--preset", "lifetime_4k", "--schema", "spectrum", "--out", str(out)])
    assert code == 2
    assert "--schema" in capsys.readouterr().err
    assert not out.exists()


_DISPERSION = ["dispersion", "--lambda-exc", "533.3", "--lambda-det", "618.5"]


@pytest.mark.parametrize("argv, message", [
    (_DISPERSION + ["--roc", "24", "--l-min", "2", "--l-max", "25"], "unstable geometry"),
    # the x axis is stable: its map must not be written before y is refused
    (_DISPERSION + ["--roc-x", "30", "--roc-y", "5", "--roc-mode", "per-axis",
                    "--l-min", "2", "--l-max", "6"], "ROC (5.0 um)"),
    (["fit", "--input", "nowhere.csv", "--schema", "spectrum", "--model", "lorentzian"],
     "nowhere.csv"),
    (["fit", "--input", "nowhere.csv", "--model", "lorentzian"], "--schema"),
    # a preset whose counts a Poisson model refuses: no preset CSV either
    (["fit", "--preset", "saturation_100k", "--seed", "8", "--model", "exponential_decay"],
     "negative count"),
])
def test_a_refused_command_leaves_no_output_directory(argv, message, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dispersion", "purcell-budget"])
@pytest.mark.parametrize("per_axis", [["--roc-x", "22"], ["--roc-y", "26"],
                                      ["--roc-x", "22", "--roc-y", "26"]])
def test_roc_with_a_per_axis_radius_exit_2(command, per_axis, tmp_path, capsys):
    # --roc gives both axes a radius: a per-axis flag beside it gives one
    # axis two, and neither wins
    if command == "dispersion":
        argv = _dispersion_args(tmp_path / "out")
    else:
        argv = ["purcell-budget", *(x for item in _BUDGET_ARGS.items() for x in item),
                "--out", str(tmp_path / "out")]
    assert run(argv + per_axis) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in ["--roc", *per_axis[::2]])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orders", ["1", "0,1", "0,1,2"])
def test_dispersion_gouy_off_refuses_higher_orders(orders, tmp_path, capsys, monkeypatch):
    # a plane-wave map holds order 0 only; the refusal comes before the row
    # cap, which would count orders the map never holds (here 6.13e+04 rows
    # for a map of 15 219)
    monkeypatch.setattr(cli, "MAX_MAP_ROWS", 30_000)
    argv = _dispersion_args(tmp_path / "out", extra=(
        "--gouy", "off", "--transverse-orders", orders))
    for flag, value in (("--l-min", "2"), ("--l-max", "6")):
        argv[argv.index(flag) + 1] = value
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--gouy off" in err and "--transverse-orders" in err
    assert not (tmp_path / "out").exists()
    argv[argv.index("--transverse-orders") + 1] = "0"
    assert run(argv) == 0
    rows = (tmp_path / "out" / "dispersion_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 15_219
    assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}


def test_purcell_budget_paper_inputs(tmp_path):
    code = run(
        [
            "purcell-budget",
            "--tau0", "21.7", "--tau-p", "12.2",
            "--qe", "0.8", "--dw", "0.56", "--branching", "0.8",
            "--lambda-c", "618.5", "--l-eff", "3.75", "--roc", "24",
            "--q-ideal", "56400", "--kappa-exp", "160",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "purcell_budget.json").read_text())
    values = {s["name"]: s["value"] for s in report["steps"]}
    assert values["f_measured"] == pytest.approx(1.7787, abs=1e-3)
    assert values["f_zpl"] == pytest.approx(4.963, abs=0.01)
    assert values["f_cav_corrected"] == pytest.approx(169.3, abs=1.0)
    assert "alignment" in values


def test_purcell_budget_finesse_route(tmp_path):
    code = run(
        [
            "purcell-budget",
            "--tau0", "21.7", "--tau-p", "12.2",
            "--qe", "0.8", "--dw", "0.56", "--branching", "0.8",
            "--lambda-c", "618.5", "--l-eff", "3.75", "--roc", "24",
            "--finesse", "4700", "--m-det", "12", "--kappa-exp", "160",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "purcell_budget.json").read_text())
    values = {s["name"]: s["value"] for s in report["steps"]}
    # Q = m_det * finesse = 56400 reproduces the direct route
    assert values["f_cav_ideal"] == pytest.approx(200.7, abs=1.0)


_BUDGET_ARGS = {
    "--tau0": "21.7", "--tau-p": "12.2", "--qe": "0.8", "--dw": "0.56",
    "--lambda-c": "618.5", "--l-eff": "3.75", "--roc": "24",
    "--q-ideal": "56400", "--kappa-exp": "160",
}


@pytest.mark.parametrize(
    "flag, value",
    [
        (flag, value)
        for flag in ["--tau0", "--tau-p", "--lambda-c", "--l-eff", "--q-ideal", "--finesse",
                     "--kappa-exp", "--q-exp", "--f-fp"]
        for value in ["nan", "inf"]
    ]
    + [("--f-fp", "-5"), ("--m-det", "-12"), ("--m-det", "0"), ("--m-det", "1.5")]
    + [("--roc", "inf"), ("--roc-x", "nan"), ("--roc-y", "0"), ("--qe", "1.5"), ("--qe", "nan"),
       ("--dw", "0"), ("--branching", "2"), ("--refractive-index", "nan"),
       ("--refractive-index", "0.9"), ("--refractive-index", "inf")]
    # text that is no number, one flag of each float domain
    + [("--tau0", "abc"), ("--f-fp", "abc"), ("--qe", "abc"), ("--refractive-index", "abc")],
)
def test_purcell_budget_nonfinite_input_names_flag(flag, value, tmp_path, capsys):
    # a bad value of a budget input, non-finite or out of its domain
    args = dict(_BUDGET_ARGS, **{flag: value})
    if flag in ("--finesse", "--m-det"):
        args.setdefault("--finesse", "4700")
        args.setdefault("--m-det", "12")
        del args["--q-ideal"]
    if flag == "--q-exp":
        del args["--kappa-exp"]
    argv = ["purcell-budget", *(x for item in args.items() for x in item)]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    # the flag's own domain, not argparse's "invalid <type> value"
    assert flag in err and "must be" in err and "invalid" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value, step, given",
    [
        # sqrt(roc_x * roc_y) overflows, so the mode volume is infinite
        ("--roc", "1e200", "mode_volume", "roc_x_um=1e+200"),
        ("--tau-p", "1e-320", "f_measured", "tau_p_ns=1e-320"),
        # epsilon is a subnormal, and f_zpl = f_measured / epsilon overflows
        ("--qe", "1e-320", "f_zpl", "epsilon=5.6e-321"),
    ],
)
def test_purcell_budget_nonfinite_step_exit_3(flag, value, step, given, tmp_path, capsys):
    # finite, in-domain inputs whose budget overflows or divides by zero
    args = dict(_BUDGET_ARGS, **{flag: value})
    argv = ["purcell-budget", *(x for item in args.items() for x in item)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"purcell budget: {step} " in err and given in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_purcell_budget_overflowing_ideal_q_exit_3(tmp_path, capsys):
    # in-domain flags whose product m_det * finesse overflows: a numerical
    # failure of the budget, not a refused input, and no report
    args = {k: v for k, v in _BUDGET_ARGS.items() if k != "--q-ideal"}
    argv = ["purcell-budget", *(x for item in args.items() for x in item),
            "--finesse", "1e308", "--m-det", "12", "--out", str(tmp_path / "out")]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "purcell budget: " in err and "is inf, not a finite positive number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, names",
    [
        (["--finesse", "4600", "--m-det", "12"], ("--q-ideal", "--finesse")),
        (["--q-exp", "3000"], ("--q-exp", "--kappa-exp")),
    ],
)
def test_purcell_budget_refuses_two_sources_of_one_quality_factor(
    extra, names, tmp_path, capsys
):
    argv = ["purcell-budget", *(x for item in _BUDGET_ARGS.items() for x in item), *extra]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert not (tmp_path / "out" / "purcell_budget.json").exists()


@pytest.mark.parametrize(
    "sources, faults",
    [
        ([], ["provide --q-ideal or both --finesse and --m-det",
              "provide --q-exp or --kappa-exp"]),
        (["--finesse", "4700", "--kappa-exp", "160"],
         ["provide --q-ideal or both --finesse and --m-det"]),
        (["--m-det", "12", "--q-exp", "3000"],
         ["provide --q-ideal or both --finesse and --m-det"]),
        (["--q-ideal", "56400"], ["provide --q-exp or --kappa-exp"]),
        (["--q-ideal", "56400", "--m-det", "12", "--kappa-exp", "160", "--q-exp", "3000"],
         ["--q-ideal and --finesse/--m-det both give the ideal Q",
          "--q-exp and --kappa-exp both give the degraded Q"]),
    ],
)
def test_purcell_budget_source_errors_name_every_fault_by_flag(
    sources, faults, tmp_path, capsys
):
    # each quality factor needs exactly one source; every fault is named in
    # one message, by the flags, never by the library's parameter names
    args = {k: v for k, v in _BUDGET_ARGS.items() if k not in ("--q-ideal", "--kappa-exp")}
    argv = ["purcell-budget", *(x for item in args.items() for x in item), *sources]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(fault in err for fault in faults)
    assert err.count("; ") == len(faults) - 1
    assert "q_ideal" not in err and "kappa_exp_ghz" not in err
    assert not (tmp_path / "out").exists()


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CAVITYLAB_OUTDIR", str(tmp_path / "envout"))
    assert run(_dispersion_args(tmp_path / "envout")[:-2]) == 0
    assert (tmp_path / "envout" / "dispersion_report.json").exists()


def test_missing_outdir_exit_2(monkeypatch):
    monkeypatch.delenv("CAVITYLAB_OUTDIR", raising=False)
    assert run(_dispersion_args("x")[:-2]) == 2


def _run_module(argv):
    """Run ``python -m cavitylab.cli`` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("CAVITYLAB_OUTDIR", None)
    return subprocess.run(
        [sys.executable, "-m", "cavitylab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point(tmp_path):
    assert _run_module([]).returncode == 2
    readme = (
        "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc 24 "
        "--l-min 2 --l-max 6 --tol-nm 25"
    ).split()
    proc = _run_module(readme + ["--out", str(tmp_path / "module")])
    assert proc.returncode == 0, proc.stderr
    assert run(readme + ["--out", str(tmp_path / "in_process")]) == 0
    report = "dispersion_report.json"
    written = (tmp_path / "module" / report).read_bytes()
    assert written == (tmp_path / "in_process" / report).read_bytes()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--transverse-orders", "a"),
        ("--transverse-orders", "-1"),
        ("--transverse-orders", "0,,2"),
        ("--transverse-orders", "0,0"),
        ("--transverse-orders", "1,0,1"),
        ("--l-step-nm", "0"),
        ("--l-step-nm", "-5"),
        ("--tol-nm", "0"),
        ("--tol-nm", "-25"),
        ("--lambda-exc", "nan"),
        ("--lambda-exc", "0"),
        ("--lambda-exc", "-533"),
        ("--lambda-exc", "inf"),
        ("--l-max", "inf"),
        ("--roc", "nan"),
        ("--roc", "0"),
        ("--roc", "-24"),
        ("--roc", "inf"),
        ("--roc-x", "nan"),
        ("--roc-y", "abc"),
        ("--tol-nm", "1,5"),
        ("--bootstrap", "1"),
        ("--bootstrap", "-3"),
        ("--bootstrap", "x"),
        ("--bootstrap", "1001"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
    ],
)
def test_dispersion_bad_flag_value_exit_2(flag, value, tmp_path, capsys):
    if flag in ("--bootstrap", "--seed"):
        argv = ["fit", "--preset", "lifetime_4k", "--out", str(tmp_path), flag, value]
    else:
        argv = _dispersion_args(tmp_path, extra=(flag, value))
    assert run(argv) == 2
    err = capsys.readouterr().err
    # the flag's own rule ("must be ...", "must not repeat ..."), not
    # argparse's "invalid <type> value"
    assert flag in err and "must" in err and "invalid" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [("--l-max", "1e6"), ("--l-max", "1e308"),
                                   ("--l-step-nm", "1e-9")])
def test_dispersion_map_over_the_row_cap_exit_2(extra, tmp_path, capsys):
    # refused from the flags alone, before the map or the output exists
    assert run(_dispersion_args(tmp_path, extra=extra)) == 2
    assert "--l-step-nm" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag, value, domain", [
    (["fit"], "--seed", "-1", "an integer >= 0"),
    (["fit"], "--seed", "1.5", "an integer >= 0"),
    (["purcell-budget"], "--m-det", "0", "an integer >= 1"),
    (["fit"], "--bootstrap", "1", "0 or an integer from 2 to 1000"),
    (["fit"], "--bootstrap", "1001", "0 or an integer from 2 to 1000"),
    (["fit"], "--bootstrap", "x", "0 or an integer from 2 to 1000"),
    (["purcell-budget"], "--tau0", "abc", "positive and finite"),
    (["dispersion"], "--roc", "nan", "positive and finite"),
    (["purcell-budget"], "--f-fp", "-1", "non-negative and finite"),
    (["purcell-budget"], "--qe", "1.5", "in (0, 1]"),
    (["purcell-budget"], "--refractive-index", "0.9", "a finite number >= 1"),
])
def test_flag_refusal_messages(argv, flag, value, domain, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args([*argv, flag, value])
    assert exit_.value.code == 2
    assert f"error: argument {flag}: must be {domain}, got {value!r}\n" in capsys.readouterr().err


def test_fit_seed_and_bootstrap_domains_end_inclusive():
    args = cli.build_parser().parse_args(
        ["fit", "--preset", "g2_dip", "--seed", "0", "--bootstrap", str(cli.MAX_RESAMPLES)]
    )
    assert (args.seed, args.bootstrap) == (0, 1000)


def test_fit_g2_bootstrap_draws_counts(tmp_path):
    argv = ["fit", "--preset", "g2_dip", "--seed", "7", "--bootstrap", "20"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    outputs = json.loads((tmp_path / "fit_report.json").read_text())["steps"][0]["outputs"]
    assert set(outputs["bootstrap_sigmas"]) == set(outputs["params"])
    assert len(outputs["bootstrap_sigmas"]) == 6
    assert all(s > 0 for s in outputs["bootstrap_sigmas"].values())
