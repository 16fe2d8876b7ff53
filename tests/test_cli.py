import csv
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contperc import cli, estimation, pathcount, thresholds
from contperc.cli import RunConfig, main, parse_mixture, render


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_known_value(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--rho", "3", "--k", "1", "--quiet")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == pytest.approx(math.sqrt(13.0) / 4.0, abs=1e-6)
    assert data["k"] == 1
    assert data["certified"] is None
    assert data["offsets"][0] == pytest.approx(5.0 / 13.0, abs=1e-4)


@pytest.mark.parametrize("rho", [1e9, 1e50, 1e150])
def test_kappa_reports_u_that_round_trips_through_objective(rho, capsys):
    # The printed offsets round to 1 at these rho; u does not.
    code, out, _ = run_cli(capsys, "kappa", "--rho", repr(rho), "--k", "1", "--quiet")
    assert code == 0
    data = json.loads(out)
    assert data["offsets"] == [1.0]
    assert max(thresholds.objective(rho, u=data["u"])) == data["kappa"]


def test_kappa_kmax_certified(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--rho", "1.5", "--kmax", "4", "--quiet")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == pytest.approx(0.979796, abs=1e-6)
    assert data["k"] == 1
    assert data["certified"] is True


def test_invalid_rho_exits_2(capsys):
    code, out, err = run_cli(capsys, "kappa", "--rho", "0.5", "--k", "1")
    assert code == 2
    assert out == ""
    assert "rho must exceed 1" in err


def test_capacity_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "paths", "--d", "6", "--rho", "5", "--kappa", "3", "--k", "4", "--trials", "10"
    )
    assert code == 3
    assert "the caps are" in err


def test_kappa_k_above_max_exits_2(monkeypatch, capsys):
    def no_optimizing(*args, **kwargs):
        raise AssertionError("optimized before k was checked")

    monkeypatch.setattr(thresholds, "_evaluator", no_optimizing)
    for argv in (("--k", "13"), ("--kmax", "13")):
        code, out, err = run_cli(capsys, "kappa", "--rho", "3", *argv)
        assert code == 2, argv
        assert out == "" and "must lie in 1..12" in err
    # The guard trips on every solve, so it would have caught one.
    for argv in (("--k", "12"), ("--kmax", "12")):
        with pytest.raises(AssertionError, match="optimized before k was checked"):
            main(["kappa", "--rho", "3", *argv])


def test_non_finite_or_overflowing_rho_exits_2_before_optimizing(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("optimized or sampled before rho was checked")

    monkeypatch.setattr(thresholds, "_evaluator", no_work)
    monkeypatch.setattr(estimation, "_trial", no_work)
    monkeypatch.setattr(pathcount, "_uniform_ball", no_work)
    other_commands = [
        argv
        for rho in ("inf", "nan", "1e308")
        for argv in (
            ("gw", "--d", "3", "--rho", rho),
            ("gw", "--d", "3", "--rho", rho, "--kappa", "0.9"),
            ("paths", "--d", "2", "--rho", rho, "--kappa", "0.8", "--k", "1", "--trials", "10"),
            ("alpha-sweep", "--rho", rho, "--d", "2", "--L", "12", "--trials", "60"),
        )
    ]
    for argv in [
        ("kappa", "--rho", "inf", "--k", "1"),
        ("kappa", "--rho", "1e308", "--k", "2"),
        ("kappa", "--rho", "nan", "--kmax", "3"),
        ("kappa-sweep", "--rho-max", "inf"),
        ("kappa-sweep", "--rho-min", "nan"),
    ] + other_commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.rstrip().endswith(" 1e+150"), argv


@pytest.mark.parametrize("rho", ["301", "1e4", "1e150", "2e150"])
def test_every_rho_command_exits_cleanly_at_large_rho(rho, capsys):
    # Up to 1e150 the analytic commands run, and the Monte Carlo ones run or
    # stop at a cap (exit 3); above it every command exits 2.  An overflow
    # would raise out of main.
    for analytic, argv in (
        (True, ("kappa", "--rho", rho, "--k", "1")),
        (True, ("kappa", "--rho", rho, "--kmax", "3")),
        (True, ("kappa-sweep", "--rho-min", "2", "--rho-max", rho, "--steps", "2")),
        (True, ("gw", "--d", "3", "--rho", rho)),
        (True, ("gw", "--d", "3", "--rho", rho, "--kappa", "0.9")),
        (False, ("paths", "--d", "2", "--rho", rho, "--kappa", "0.8", "--k", "1", "--trials", "10")),
        (False, ("paths", "--d", "6", "--rho", rho, "--kappa", "0.8", "--k", "1", "--trials", "10")),
        # The sweep's endpoints are monodisperse; a mixture at rho 301 samples
        # millions of balls per trial and passes the cap on a run.
        (False, ("alpha-sweep", "--rho", rho, "--d", "2", "--L", "6", "--trials", "50",
                 "--tol", "0.3", "--alphas", "0,1")),
    ):
        code, out, err = run_cli(capsys, *argv, "--quiet")
        if rho == "2e150":
            assert code == 2, argv
        else:
            assert code in ((0,) if analytic else (0, 3)), argv
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out, argv
        else:
            assert out == "" and err.startswith("error: "), argv


def test_unknown_arguments_exit_2(capsys):
    assert main(["kappa", "--rho"]) == 2
    assert main(["nonsense"]) == 2


def test_slab_value(capsys):
    code, out, _ = run_cli(
        capsys, "slab", "--d", "3", "--r", "1", "--a", "0.5", "--b", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(0.654498, abs=1e-6)
    # Past double range the volume is inf and its logs stay finite; an infinite radius exits 2.
    code, out, _ = run_cli(capsys, "slab", "--d", "3", "--r", "1e200", "--a", "0", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == math.inf and math.isfinite(data["log_rate"])
    code, out, err = run_cli(capsys, "slab", "--d", "3", "--r", "inf", "--a", "0", "--b", "1")
    assert (code, out, err) == (2, "", "error: radius must be positive and finite\n")


def test_gw_output(capsys):
    code, out, _ = run_cli(capsys, "gw", "--d", "200", "--rho", "1.5")
    assert code == 0
    data = json.loads(out)
    assert abs(data["kappa_star_d"] - 0.979796) < 1e-2
    assert data["kappa_star_limit"] == pytest.approx(0.9797958971132712, rel=1e-12)
    assert set(data) == {"d", "kappa", "rho", "r_d_log", "kappa_star_d", "kappa_star_limit"}


def test_paths_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths", "--d", "2", "--rho", "2", "--kappa", "0.8", "--k", "0",
        "--trials", "4000", "--quiet",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["mean_N"] - 0.64) <= 4.0 * data["se_N"]
    assert data["exact_M"] == pytest.approx(0.64, rel=1e-12)
    assert set(data) == {"d", "rho", "kappa", "k", "mean_N", "se_N", "mean_M", "se_M", "exact_M"}


def test_threshold_json_and_csv_agree(capsys, tmp_path):
    args = ["threshold", "--d", "2", "--mixture", "1:1", "--L", "16",
            "--trials", "60", "--seed", "7", "--quiet"]
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    record = json.loads(out_json)
    reader = csv.DictReader(io.StringIO(out_csv))
    assert reader.fieldnames == [
        "rho", "alpha", "d", "L", "trials", "lambda_c", "ci_low", "ci_high",
        "normalized", "covered_volume", "seed",
    ]
    row = next(reader)
    for key in ("lambda_c", "ci_low", "ci_high", "normalized", "covered_volume"):
        assert float(row[key]) == record[key]
    assert row["rho"] == "" and record["rho"] is None


def test_mixture_parsing():
    mix = parse_mixture("1:1,2:0.5")
    assert mix.atoms == ((1.0, 1.0), (2.0, 0.5))
    with pytest.raises(ValueError):
        parse_mixture("1-1")
    with pytest.raises(ValueError):
        parse_mixture("1:1,1:2")


def test_bad_mixture_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "threshold", "--d", "2", "--mixture", "oops", "--L", "16", "--quiet"
    )
    assert code == 2
    assert "mixture" in err


def test_a_non_finite_mixture_exits_2_without_a_warning():
    # In a fresh interpreter, where a numpy RuntimeWarning would reach stderr.
    for mixture in ("inf:1", "1:1,2:nan"):
        proc = in_a_fresh_interpreter(
            "-m", "contperc.cli", "threshold", "--d", "2", "--mixture", mixture, "--L", "16",
            "--trials", "50", check=False,
        )
        assert proc.returncode == 2, mixture
        assert proc.stdout == "", mixture
        assert proc.stderr == "error: radii and weights must be finite\n", mixture


def test_kappa_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "kappa-sweep", "--rho-min", "1.5", "--rho-max", "3", "--steps", "4",
        "--quiet",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert list(rows[0]) == ["rho", "kappa_k1", "kappa_k2", "kappa_k3", "kappa_min", "k_argmin"]
    for row in rows:
        k1 = float(row["kappa_k1"])
        kmin = float(row["kappa_min"])
        assert 0.0 < kmin <= k1 < 1.0
    assert float(rows[0]["kappa_k1"]) == pytest.approx(0.979796, abs=1e-6)


def test_default_seed_is_fixed(capsys):
    _, out1, _ = run_cli(capsys, "paths", "--d", "2", "--rho", "2", "--kappa", "0.6",
                         "--k", "1", "--trials", "2000", "--quiet")
    _, out2, _ = run_cli(capsys, "paths", "--d", "2", "--rho", "2", "--kappa", "0.6",
                         "--k", "1", "--trials", "2000", "--quiet")
    assert out1 == out2


REPLAY_ARGV = {
    "kappa": ("--rho", "2.5", "--k", "1"),
    "kappa-sweep": ("--rho-min", "1.5", "--rho-max", "3", "--steps", "2"),
    "threshold": ("--d", "2", "--mixture", "1:1,0.5:2", "--L", "8", "--trials", "50", "--tol", "0.2"),
    "alpha-sweep": ("--rho", "2", "--L", "6", "--alpha-count", "2", "--trials", "50", "--tol", "0.3"),
    "gw": ("--d", "2", "--rho", "2"),
    "paths": ("--d", "2", "--rho", "2", "--kappa", "0.5", "--k", "1", "--trials", "100"),
    "slab": ("--d", "3", "--r", "1", "--a", "0", "--b", "1", "--format", "csv"),
}


@pytest.mark.parametrize("command", sorted(REPLAY_ARGV))
def test_replay_reproduces_bytes(command, tmp_path, capsys):
    out_path = tmp_path / "out"
    cfg_path = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, command, *REPLAY_ARGV[command], "--seed", "5",
        "--output", str(out_path), "--save-config", str(cfg_path), "--quiet",
    )
    assert code == 0
    first = out_path.read_bytes()
    out_path.unlink()
    code, _, _ = run_cli(capsys, "replay", str(cfg_path), "--quiet")
    assert code == 0
    assert out_path.read_bytes() == first
    config = RunConfig.from_json(cfg_path.read_text())
    assert config.command == command and config.seed == 5
    # Every option given on the command line is saved, the common ones apart.
    given = {arg[2:].replace("-", "_") for arg in REPLAY_ARGV[command][::2]}
    assert given - {"format"} <= set(config.params)
    assert config.fmt == ("csv" if command in ("kappa-sweep", "alpha-sweep", "slab") else "json")


def test_render_formats_are_consistent():
    rows = [{"x": 1.25, "flag": True, "name": None, "vals": [1.0, 2.0]}]
    as_json = json.loads(render(rows, True, "json"))
    as_csv = list(csv.DictReader(io.StringIO(render(rows, False, "csv"))))[0]
    assert float(as_csv["x"]) == as_json["x"]
    assert as_csv["flag"] == "true"
    assert as_csv["name"] == ""


def test_torus_threshold_exits_2_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although --boundary is not an option")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    code, out, err = run_cli(
        capsys, "threshold", "--d", "2", "--mixture", "1:1", "--L", "16",
        "--boundary", "torus",
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --boundary torus" in err


def test_every_command_rejects_threads(capsys):
    commands = (
        ["kappa", "--rho", "2", "--k", "1"],
        ["kappa-sweep", "--steps", "2"],
        ["threshold", "--d", "2", "--mixture", "1:1", "--L", "16"],
        ["alpha-sweep", "--rho", "2", "--L", "12", "--alphas", "0.5"],
        ["gw", "--d", "2", "--rho", "2"],
        ["paths", "--d", "2", "--rho", "2", "--kappa", "0.5", "--k", "1", "--trials", "10"],
        ["slab", "--d", "3", "--r", "1", "--a", "0", "--b", "1"],
    )
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--threads", "2")
        assert code == 2, argv
        assert out == "" and "unrecognized arguments: --threads" in err


def test_replay_ignores_a_saved_threads_key(tmp_path, capsys):
    config = RunConfig(
        command="threshold",
        params={"d": 2, "mixture": "1:1", "L": 8.0, "trials": 50, "tol": 0.5, "threads": 2},
        seed=3,
        output=str(tmp_path / "out.json"),
        fmt="json",
    )
    path = tmp_path / "old.json"
    path.write_text(config.to_json())
    code, _, _ = run_cli(capsys, "replay", str(path), "--quiet")
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["trials"] == 50


def test_replay_of_an_incomplete_config_exits_2(tmp_path, capsys):
    full = {
        "command": "threshold",
        "params": {"d": 2, "mixture": "1:1", "L": 8.0, "trials": 50, "tol": 0.5},
        "seed": 3,
        "output": None,
        "fmt": "json",
    }
    no_trials = dict(full, params={k: v for k, v in full["params"].items() if k != "trials"})
    no_fmt = {k: v for k, v in full.items() if k != "fmt"}
    no_command = {k: v for k, v in full.items() if k != "command"}
    for data, missing in ((no_trials, "trials"), (no_fmt, "fmt"), (no_command, "command")):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(path), "--quiet")
        assert code == 2, missing
        assert out == ""
        assert err == f"error: the saved config has no parameter {missing!r}\n"


def test_replay_ignores_a_saved_domain_radius_key(tmp_path, capsys):
    argv = ["--d", "2", "--rho", "2", "--kappa", "0.5", "--k", "1", "--trials", "100"]
    code, fresh, _ = run_cli(capsys, "paths", *argv, "--seed", "3", "--quiet")
    assert code == 0
    config = RunConfig(
        command="paths",
        params={"d": 2, "rho": 2.0, "kappa": 0.5, "k": 1, "trials": 100, "domain_radius": 9.0},
        seed=3,
        output=None,
        fmt="json",
    )
    path = tmp_path / "old.json"
    path.write_text(config.to_json())
    code, replayed, _ = run_cli(capsys, "replay", str(path), "--quiet")
    assert code == 0
    assert replayed == fresh


def test_kappa_sweep_rejects_kmax_before_optimizing(monkeypatch, capsys):
    def no_optimizing(*args, **kwargs):
        raise AssertionError("kappa_c_k called before kmax was checked")

    monkeypatch.setattr(thresholds, "kappa_c_k", no_optimizing)
    for kmax in ("2", "13"):
        code, out, err = run_cli(capsys, "kappa-sweep", "--steps", "2", "--kmax", kmax)
        assert code == 2, kmax
        assert out == "" and "kmax in 3..12" in err


def test_alpha_sweep_rejects_a_bad_alpha_before_sampling(capsys):
    code, out, err = run_cli(
        capsys, "alpha-sweep", "--rho", "10", "--d", "2", "--alphas", "0.5,1.5",
        "--L", "12", "--trials", "60", "--tol", "0.07",
    )
    assert code == 2
    assert out == ""
    assert "alpha must lie in [0, 1]" in err
    assert "alpha=" not in err and "level 0" not in err  # no progress line


def test_a_threshold_run_over_the_ball_cap_exits_3_before_sampling(monkeypatch, capsys):
    # Each sample stays under the 5e7-ball cap, but the run's trials expect
    # 9.2e7 balls at the bracket top for the mixture, and 5.5e7 for the
    # unit balls.
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run size was checked")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    for argv in (
        ("alpha-sweep", "--rho", "301", "--d", "2", "--L", "6", "--trials", "50", "--tol", "0.3",
         "--alphas", "0.5"),
        ("threshold", "--d", "2", "--mixture", "1:1", "--L", "64", "--trials", "20000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == "" and "over the cap 5e+07" in err, argv
        assert "alpha=" not in err and "level 0" not in err, argv  # no progress line


def test_alpha_sweep_rejects_an_empty_alpha_list(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with no alpha to estimate")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, "alpha-sweep", "--rho", "10", "--d", "2", "--alpha-count", "0",
            "--L", "12", "--trials", "60", "--format", fmt,
        )
        assert code == 2, fmt
        assert out == "", fmt
        assert "need at least one alpha" in err, fmt
    code, out, err = run_cli(
        capsys, "alpha-sweep", "--rho", "10", "--d", "2", "--alpha-count", "-1",
        "--L", "12", "--trials", "60",
    )
    assert (code, out) == (2, "")
    assert "need at least one alpha" in err
    # An empty --alphas is an empty list, not a request for the default sweep.
    code, out, err = run_cli(
        capsys, "alpha-sweep", "--rho", "2", "--L", "6", "--alphas", "", "--trials", "50",
        "--tol", "0.3",
    )
    assert code == 2
    assert out == ""
    assert "need at least one alpha" in err


def test_non_finite_box_side_exits_2_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a non-finite box side")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    for argv in (
        ("threshold", "--d", "2", "--mixture", "1:1", "--L", "inf", "--trials", "50"),
        ("threshold", "--d", "2", "--mixture", "1:1", "--L", "nan", "--trials", "50"),
        ("alpha-sweep", "--rho", "10", "--d", "2", "--L", "inf", "--trials", "60"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert "box side must be positive and finite" in err, argv


def test_an_unwritable_target_exits_2_before_sampling(monkeypatch, tmp_path, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although the result could not be written")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier result\n")
    missing = str(tmp_path / "missing" / "o.json")
    argv = ("threshold", "--d", "2", "--mixture", "1:1", "--L", "8", "--trials", "50", "--quiet",
            "--output", str(kept))
    for option, target, message in (
        ("--output", missing, "its directory does not exist"),
        ("--output", str(tmp_path), "the name is empty or a directory"),
        ("--output", "", "the name is empty or a directory"),
        ("--save-config", missing, "its directory does not exist"),
        ("--save-config", str(tmp_path), "the name is empty or a directory"),
        ("--save-config", "", "the name is empty or a directory"),
    ):
        code, out, err = run_cli(capsys, *argv, option, target)
        assert code == 2, (option, target)
        assert out == "", (option, target)
        assert err.startswith(f"error: cannot write {target!r}: {message}"), (option, target)
        assert kept.read_text() == "earlier result\n", (option, target)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(_THRESHOLD_CONFIG, output=missing)))
    code, out, err = run_cli(capsys, "replay", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_a_failed_write_exits_3(capsys):
    for option in ("--output", "--save-config"):
        code, _, err = run_cli(capsys, "slab", "--d", "3", "--r", "1", "--a", "0", "--b", "1",
                               option, "/dev/full")
        assert code == 3, option
        assert err.startswith("error: [Errno 28]"), option


def test_an_unreadable_config_exits_2_before_its_command_loads(monkeypatch, tmp_path, capsys):
    def no_command(*args):
        raise AssertionError("parsed a command from an unreadable config")

    monkeypatch.setattr(cli, "_config_from_args", no_command)
    for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, "replay", str(path), "--quiet")
        assert (code, out) == (2, ""), path
        assert err == f"error: cannot read {str(path)!r}: {reason}\n", path


def test_save_config_dash_writes_the_config_to_stdout_after_the_data(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("slab", "--d", "3", "--r", "1", "--a", "0", "--b", "1")
    code, out, _ = run_cli(capsys, *argv, "--save-config", "-")
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    _, data, _ = run_cli(capsys, *argv)
    assert out.startswith(data)
    config = RunConfig.from_json(out[len(data):])
    assert (config.command, config.params) == ("slab", {"d": 3, "r": 1.0, "a": 0.0, "b": 1.0})


def test_gw_and_paths_reject_a_non_finite_kappa(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a non-finite kappa")

    monkeypatch.setattr(pathcount, "_uniform_ball", no_sampling)
    for kappa in ("inf", "nan", "0"):
        for argv in (
            ("gw", "--d", "3", "--rho", "2", "--kappa", kappa),
            ("paths", "--d", "2", "--rho", "2", "--kappa", kappa, "--k", "1", "--trials", "10"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == "", argv
            assert "kappa must be positive and finite" in err, argv


def test_paths_needs_two_trials_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with too few trials for a standard error")

    monkeypatch.setattr(pathcount, "_uniform_ball", no_sampling)
    for trials in ("1", "0"):
        code, out, err = run_cli(
            capsys, "paths", "--d", "2", "--rho", "2", "--kappa", "0.5", "--k", "1",
            "--trials", trials,
        )
        assert code == 2, trials
        assert out == "", trials
        assert "trials must be at least 2" in err, trials


@pytest.mark.parametrize("command", ["threshold", "kappa"])
def test_a_negative_seed_exits_2_before_any_work(command, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or optimized with a negative seed")

    monkeypatch.setattr(estimation, "_trial", no_work)
    monkeypatch.setattr(thresholds, "_evaluator", no_work)
    code, out, err = run_cli(capsys, command, *REPLAY_ARGV[command], "--seed=-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be a non-negative integer, not -1\n"


_THRESHOLD_CONFIG = {
    "command": "threshold",
    "params": {"d": 2, "mixture": "1:1", "L": 8.0, "trials": 50, "tol": 0.5},
    "seed": 3,
    "output": None,
    "fmt": "json",
}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"params": dict(_THRESHOLD_CONFIG["params"], d=2.7, trials=50.9)},
         "argument --d: invalid int value: '2.7'"),
        ({"command": "kappa", "params": {"rho": 3.0, "k": 1, "kmax": 4}},
         "argument --kmax: not allowed with argument --k"),
        ({"fmt": "xml"}, "argument --format: invalid choice: 'xml'"),
        ({"seed": 3.9}, "the saved seed must be an integer, not 3.9"),
        ({"seed": "random"}, "the saved seed must be an integer, not 'random'"),
        ({"seed": -1}, "seed must be a non-negative integer, not -1"),
        ({"params": ["x"]}, "the saved params must be a JSON object"),
        ({"command": "replay"}, "the following arguments are required: config_path"),
        ({"command": "--help"}, "unknown command '--help'"),
        ({"command": "kappa-sweep",
          "params": {"rho_min": 1.5, "rho_max": 3.0, "steps": 2, "kmax": 3, "k": 1}},
         "the saved parameter 'k' is read as another option"),
        ({"params": dict(_THRESHOLD_CONFIG["params"], format="csv")},
         "the saved parameter 'format' is read as another option"),
    ],
    ids=["non-integral-d", "k-and-kmax", "xml", "float-seed", "random-seed", "negative-seed",
         "params-list",
         "replay-of-replay", "help-command", "abbreviated-key", "common-option-key"],
)
def test_replay_is_checked_by_the_commands_parser(changes, message, monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or optimized from an invalid config")

    monkeypatch.setattr(estimation, "_trial", no_work)
    monkeypatch.setattr(thresholds, "_evaluator", no_work)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(_THRESHOLD_CONFIG, **changes)))
    code, out, err = run_cli(capsys, "replay", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"threshold"'])
def test_replay_of_a_non_object_config_exits_2(text, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "replay", str(path), "--quiet")
    assert code == 2
    assert out == ""
    assert err == f"error: the saved config must be a JSON object, not {json.loads(text)!r}\n"


def test_benchmark_workloads_parse():
    # The benchmark runs each workload's argv through the parser as below; an
    # option it passes that the parser drops should fail here, not in the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))["WORKLOADS"]
    assert workloads
    for name, workload in workloads.items():
        argv = list(workload.argv) + ["--seed", "1", "--quiet"]
        config = cli._config_from_args(cli.build_parser().parse_args(argv))
        assert config.command == workload.argv[0], name
        assert config.fmt in ("json", "csv"), name


PROGRESS_ARGV = {
    "threshold": ("--d", "2", "--mixture", "1:1", "--L", "8", "--trials", "50", "--tol", "0.2"),
    "alpha-sweep": ("--rho", "2", "--L", "6", "--alphas", "0,1", "--trials", "50", "--tol", "0.3"),
    "kappa-sweep": ("--rho-min", "1.5", "--rho-max", "3", "--steps", "30"),
    "paths": ("--d", "2", "--rho", "3", "--kappa", "0.8", "--k", "3", "--trials", "200"),
}


def assert_trials_then_median(lines, trials=50):
    """One line per trial in trial order, then one line with the median and its interval."""
    assert len(lines) == trials + 1
    for t, line in enumerate(lines[:trials]):
        assert re.fullmatch(rf"trial {t}: layers=[1-9]\d* balls=\d+ lambda~=\S+", line), (t, line)
    assert re.fullmatch(r"median: lambda~=\S+ ci=\[\S+,\S+\]", lines[trials]), lines[trials]


@pytest.mark.parametrize("command", sorted(PROGRESS_ARGV))
def test_progress_goes_to_stderr_unless_quiet(command, capsys):
    argv = (command, *PROGRESS_ARGV[command], "--seed", "4")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    quiet_code, quiet_out, quiet_err = run_cli(capsys, *argv, "--quiet")
    assert quiet_code == 0 and quiet_out == out and quiet_err == ""
    lines = err.splitlines()
    if command == "threshold":
        assert_trials_then_median(lines)
    elif command == "alpha-sweep":
        # The endpoints are one canonical problem, solved once: alpha = 1
        # reports no trials, only the same median.
        assert lines[0] == "alpha=0" and lines[52] == "alpha=1"
        assert_trials_then_median(lines[1:52])
        assert lines[53:] == [lines[51]]
    elif command == "kappa-sweep":
        assert lines == [f"kappa-sweep: {i}/30 rows" for i in (10, 20, 30)]
    else:
        # One chunk of all 200 trials, and its chains of each length 1..3.
        assert len(lines) == 1
        line = r"chunk 0: trials=200 unit=[1-9]\d* large=\d+ chains=(\d+,){2}\d+"
        assert re.fullmatch(line, lines[0]), lines


def test_a_random_seed_is_saved_as_an_integer_and_replays(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    code, first, _ = run_cli(
        capsys, "threshold", *REPLAY_ARGV["threshold"], "--seed", "random",
        "--save-config", str(cfg_path), "--quiet",
    )
    assert code == 0
    seed = json.loads(cfg_path.read_text())["seed"]
    assert type(seed) is int and 0 <= seed < 2**63
    assert json.loads(first)["seed"] == seed
    code, replayed, _ = run_cli(capsys, "replay", str(cfg_path), "--quiet")
    assert code == 0 and replayed == first


def test_the_grids_are_those_of_numpy_linspace():
    # The golden and benchmark sweep, the default sweep and the default alphas.
    parser = cli.build_parser()
    sweep = parser.parse_args(["kappa-sweep"])
    alpha_count = parser.parse_args(["alpha-sweep", "--rho", "2", "--L", "6"]).alpha_count
    for start, stop, n in (
        (1.1, 10.0, 30), (sweep.rho_min, sweep.rho_max, sweep.steps), (0.0, 1.0, alpha_count),
        (0.0, 1.0, 1), (0.0, 1.0, 0),
    ):
        assert cli._linspace(start, stop, n) == np.linspace(start, stop, n).tolist(), (start, stop, n)


def test_kappa_sweep_rejects_its_steps_and_rho_range_before_optimizing(monkeypatch, capsys):
    def no_optimizing(*args, **kwargs):
        raise AssertionError("kappa_c_k called before the range was checked")

    monkeypatch.setattr(thresholds, "kappa_c_k", no_optimizing)
    for argv in (("--steps", "1"), ("--rho-min", "5", "--rho-max", "2")):
        code, out, err = run_cli(capsys, "kappa-sweep", *argv)
        assert code == 2, argv
        assert out == "" and err == "error: need steps >= 2 and rho_min < rho_max\n"


# Runs in a fresh interpreter: parse argv as `main` does, then dispatch it,
# and print the modules loaded by then and those dispatch added.
LOADS_SCRIPT = """
import json, sys
from contperc import cli
parser = cli.build_parser()
try:
    args = parser.parse_args(sys.argv[1:])
except SystemExit as exc:
    print(json.dumps({"exit": exc.code, "parsed": sorted(sys.modules)}))
    raise SystemExit(0)
if args.command == "replay":
    config = cli._replay_config(parser, args.config_path)
else:
    config = cli._config_from_args(args)
parsed = sorted(sys.modules)
cli.dispatch(config)
print(json.dumps({"parsed": parsed, "added": sorted(set(sys.modules) - set(parsed))}))
"""

_NOT_SIMULATED = {"contperc.boolean_model", "contperc.estimation", "contperc.pathcount"}

# Command -> modules loaded once its arguments are parsed, and modules, each
# with its submodules, that are not.
COMMAND_LOADS = {
    "kappa": ({"contperc.thresholds"}, _NOT_SIMULATED | {"scipy", "numpy"}),
    "kappa-sweep": ({"contperc.thresholds"}, _NOT_SIMULATED | {"scipy", "numpy"}),
    "threshold": ({"contperc.estimation", "scipy.sparse.csgraph"}, {"scipy.optimize"}),
    "alpha-sweep": ({"contperc.estimation", "scipy.sparse.csgraph"}, {"scipy.optimize"}),
    "gw": ({"contperc.branching"}, {"scipy", "numpy"}),
    "paths": ({"contperc.pathcount", "scipy.spatial"}, {"scipy.optimize", "scipy.sparse.csgraph"}),
    "slab": ({"contperc.geometry", "scipy.special"}, {"scipy.optimize", "scipy.sparse"}),
}


def in_a_fresh_interpreter(*argv, check=True):
    """Run `python *argv` with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=check, env=env)


def loads_in_a_fresh_interpreter(*argv):
    return json.loads(in_a_fresh_interpreter("-c", LOADS_SCRIPT, *argv).stdout)


def loaded_under(modules, packages):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


def test_importing_the_cli_and_a_parse_error_load_no_scipy():
    # A parse error exits before any command module is imported, and the
    # cli and util load neither scipy nor numpy.
    report = loads_in_a_fresh_interpreter("threshold", "--d", "2")
    assert report["exit"] == 2
    assert loaded_under(report["parsed"], {"scipy", "numpy"}) == []
    assert loaded_under(report["parsed"], {"contperc"}) == [
        "contperc", "contperc.cli", "contperc.util",
    ]


@pytest.mark.parametrize("command", sorted(COMMAND_LOADS))
def test_a_command_loads_its_modules_at_parsing_and_none_in_dispatch(command):
    wanted, unwanted = COMMAND_LOADS[command]
    report = loads_in_a_fresh_interpreter(command, *REPLAY_ARGV[command], "--quiet")
    assert wanted <= set(report["parsed"])
    assert loaded_under(report["parsed"], unwanted) == []
    # The benchmark times dispatch as wall_s and the imports as setup_s.
    assert report["added"] == []


def test_a_replay_loads_its_commands_modules_at_parsing(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "paths", *REPLAY_ARGV["paths"], "--save-config", str(cfg_path), "--quiet")
    assert code == 0
    report = loads_in_a_fresh_interpreter("replay", str(cfg_path), "--quiet")
    wanted, unwanted = COMMAND_LOADS["paths"]
    assert wanted <= set(report["parsed"])
    assert loaded_under(report["parsed"], unwanted) == []
    assert report["added"] == []
