import csv
import io
import json
import math

import pytest

from contperc import estimation, pathcount, thresholds
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

    monkeypatch.setattr(thresholds, "_path_terms", no_optimizing)
    for argv in (("--k", "13"), ("--kmax", "13")):
        code, out, err = run_cli(capsys, "kappa", "--rho", "3", *argv)
        assert code == 2, argv
        assert out == "" and "must lie in 1..12" in err


def test_non_finite_or_overflowing_rho_exits_2_before_optimizing(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("optimized or sampled before rho was checked")

    monkeypatch.setattr(thresholds, "_path_terms", no_work)
    monkeypatch.setattr(estimation, "sample", no_work)
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
        assert err.rstrip().endswith(" 300"), argv


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

    monkeypatch.setattr(estimation, "sample", no_sampling)
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


def test_alpha_sweep_rejects_an_empty_alpha_list(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with no alpha to estimate")

    monkeypatch.setattr(estimation, "sample", no_sampling)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, "alpha-sweep", "--rho", "10", "--d", "2", "--alpha-count", "0",
            "--L", "12", "--trials", "60", "--format", fmt,
        )
        assert code == 2, fmt
        assert out == "", fmt
        assert "need at least one alpha" in err, fmt


def test_non_finite_box_side_exits_2_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a non-finite box side")

    monkeypatch.setattr(estimation, "sample", no_sampling)
    for argv in (
        ("threshold", "--d", "2", "--mixture", "1:1", "--L", "inf", "--trials", "50"),
        ("threshold", "--d", "2", "--mixture", "1:1", "--L", "nan", "--trials", "50"),
        ("alpha-sweep", "--rho", "10", "--d", "2", "--L", "inf", "--trials", "60"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert "box side must be positive and finite" in err, argv


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
