"""Golden CLI runs: each case's stdout, stderr and exit code against committed files.

tests/golden/ holds, per case, <name>.stdout and <name>.stderr, and
cases.json with each case's argv and exit code and the numpy and scipy
versions that wrote them.  Under those versions every case must match byte
for byte.  Under others the Monte Carlo streams and the optimizers may move
in the last digits, so the text between numbers must match exactly and each
number to a relative TOLERANCE; the test then prints that it used it.

Regenerate the files, after a change that is meant to alter an output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy
import pytest
import scipy

from contperc import cli, estimation

GOLDEN = Path(__file__).resolve().parent / "golden"

# Threshold trials run in shares, one per CPU (estimation._critical_intensities).
# Their values do not depend on the split, but the layers and balls of their
# progress lines do, so every case runs as on a machine with this many CPUs.
CPUS = 2

# Relative tolerance on each number when the versions differ from the recorded ones.
TOLERANCE = 1e-6

# The benchmark's workload argvs (perfbench/workloads.py), copied so that a
# change there does not silently change what is compared here.
WORKLOAD_ARGV = {
    "threshold-d2": (
        "threshold", "--d", "2", "--mixture", "1:1", "--L", "64", "--trials", "200", "--tol", "0.035",
    ),
    "alpha-mixed": (
        "alpha-sweep", "--rho", "10", "--d", "2", "--alphas", "0.5", "--L", "12",
        "--trials", "60", "--tol", "0.07",
    ),
    "kappa-sweep": ("kappa-sweep", "--rho-min", "1.1", "--rho-max", "10", "--steps", "30"),
    "paths-d4": ("paths", "--d", "4", "--rho", "3", "--kappa", "0.8", "--k", "2", "--trials", "2000"),
}

# Case name -> argv; "{golden}" stands for the directory of the golden files.
CASES = {
    **{
        f"{name}-seed{seed}": (*argv, "--seed", str(seed), "--quiet")
        for name, argv in WORKLOAD_ARGV.items()
        for seed in (1, 2)
    },
    "threshold-progress": (
        "threshold", "--d", "2", "--mixture", "1:1", "--L", "8", "--trials", "50", "--tol", "0.2",
        "--seed", "4",
    ),
    "kappa-kmax": ("kappa", "--rho", "3", "--kmax", "6"),
    "gw": ("gw", "--d", "3", "--rho", "2"),
    "gw-high-d": ("gw", "--d", "700", "--rho", "10", "--kappa", "0.5"),
    "slab": ("slab", "--d", "3", "--r", "1", "--a", "0", "--b", "1"),
    "slab-huge-radius": ("slab", "--d", "3", "--r", "1e200", "--a", "0", "--b", "1"),
    "too-few-trials-exit2": ("threshold", "--d", "2", "--mixture", "1:1", "--L", "8", "--trials", "10"),
    "over-capacity-exit3": (
        "threshold", "--d", "2", "--mixture", "1:1", "--L", "1e5", "--trials", "50", "--quiet",
    ),
    "paths-replay": ("replay", "{golden}/paths-replay.config.json"),
    # The chain walker at every k but the workload's 2: k = 0 (no unit points),
    # k = 1 (no steps), and k = 3 and 4 (several steps).
    "paths-k0": (
        "paths", "--d", "3", "--rho", "2", "--kappa", "0.9", "--k", "0", "--trials", "500",
        "--seed", "1", "--quiet",
    ),
    "paths-k1": (
        "paths", "--d", "2", "--rho", "2", "--kappa", "0.6", "--k", "1", "--trials", "20000",
        "--seed", "1", "--quiet",
    ),
    "paths-k3": (
        "paths", "--d", "3", "--rho", "2", "--kappa", "0.9", "--k", "3", "--trials", "500",
        "--seed", "1", "--quiet",
    ),
    "paths-k4": (
        "paths", "--d", "5", "--rho", "1.5", "--kappa", "0.9", "--k", "4", "--trials", "100",
        "--seed", "1", "--quiet",
    ),
}

# The config the replay case reads, saved by this run when the files are regenerated.
REPLAY_SOURCE = (
    "paths", "--d", "2", "--rho", "3", "--kappa", "0.8", "--k", "2", "--trials", "200",
    "--seed", "9", "--save-config", "{golden}/paths-replay.config.json", "--quiet",
)

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def versions():
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def resolve(argv):
    return [arg.replace("{golden}", str(GOLDEN)) for arg in argv]


def run(argv, capsys):
    code = cli.main(resolve(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def close_enough(expected: str, actual: str) -> bool:
    """The same text between numbers, and every number within TOLERANCE."""
    if NUMBER.split(expected) != NUMBER.split(actual):
        return False
    want, got = NUMBER.findall(expected), NUMBER.findall(actual)
    return len(want) == len(got) and all(
        a == b or math.isclose(float(a), float(b), rel_tol=TOLERANCE) for a, b in zip(want, got)
    )


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, manifest, capsys, monkeypatch):
    monkeypatch.setattr(estimation, "_cpu_count", lambda: CPUS)
    recorded = manifest["cases"][name]
    assert recorded["argv"] == list(CASES[name]), "cases.json is stale; regenerate it"
    code, out, err = run(CASES[name], capsys)
    want_out = (GOLDEN / f"{name}.stdout").read_text()
    want_err = (GOLDEN / f"{name}.stderr").read_text()
    assert code == recorded["exit"]
    if manifest["versions"] == versions():
        assert out == want_out
        assert err == want_err
        return
    with capsys.disabled():
        print(
            f"\n{name}: golden files from {manifest['versions']}, running {versions()}; "
            f"numbers compared to relative tolerance {TOLERANCE}"
        )
    assert close_enough(want_out, out), out
    assert close_enough(want_err, err), err


def test_the_tolerance_reads_numbers_loosely_and_text_exactly():
    golden = '{"lambda_c": 0.35902708366767144, "seed": 1}\nlevel 0: p=0.000\n'
    assert close_enough(golden, golden.replace("0.35902708366767144", "0.3590270836676"))
    assert not close_enough(golden, golden.replace("0.35902708366767144", "0.359028"))
    assert not close_enough(golden, golden.replace("seed", "Seed"))
    assert not close_enough(golden, golden.replace('"seed": 1', '"seed": 2'))
    assert not close_enough(golden, golden + "level 1: p=0.500\n")


def regenerate() -> None:
    """Run every case and write its stdout, stderr and exit code under tests/golden/."""
    GOLDEN.mkdir(exist_ok=True)
    estimation._cpu_count = lambda: CPUS

    def capture(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(resolve(argv))
        return code, out.getvalue(), err.getvalue()

    code, _, err = capture(REPLAY_SOURCE)
    if code != 0:
        raise SystemExit(f"saving the replay config failed: {err}")
    cases = {}
    for name, argv in CASES.items():
        code, out, err = capture(argv)
        (GOLDEN / f"{name}.stdout").write_text(out)
        (GOLDEN / f"{name}.stderr").write_text(err)
        cases[name] = {"argv": list(argv), "exit": code}
    manifest = {"versions": versions(), "cases": cases}
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
