import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavitylab import cli, dataio


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


def test_fit_requires_input_or_preset(tmp_path):
    assert run(["fit", "--out", str(tmp_path)]) == 2


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
        ("--l-step-nm", "0"),
        ("--l-step-nm", "-5"),
        ("--tol-nm", "0"),
        ("--tol-nm", "-25"),
    ],
)
def test_dispersion_bad_flag_value_exit_2(flag, value, tmp_path, capsys):
    assert run(_dispersion_args(tmp_path, extra=(flag, value))) == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fit_g2_refuses_bootstrap_before_fitting(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(cli.photophysics, "fit_g2_histogram", no_fit)
    argv = ["fit", "--preset", "g2_dip", "--seed", "7", "--bootstrap", "20"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "--bootstrap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
