"""Tests of the benchmark itself: metric reporting, output checks, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPO = Path(__file__).resolve().parents[2]

TINY_ARGV = {
    "threshold-d2": ("threshold", "--d", "2", "--mixture", "1:1", "--L", "12", "--trials", "50", "--tol", "0.1"),
    "alpha-mixed": ("alpha-sweep", "--rho", "3", "--d", "2", "--alphas", "0.5", "--L", "6",
                    "--trials", "50", "--tol", "0.1"),
    "kappa-sweep": ("kappa-sweep", "--rho-min", "1.5", "--rho-max", "3", "--steps", "2"),
    "paths-d4": ("paths", "--d", "2", "--rho", "2", "--kappa", "0.6", "--k", "2", "--trials", "200"),
}

# One correct output row per workload, as the CLI returns them, with the
# field a corruption breaks.
GOOD_ROWS = {
    "threshold-d2": (
        {"lambda_c": 0.3500, "ci_low": 0.3478, "ci_high": 0.3535, "covered_volume": 0.6758},
        {},
        ("covered_volume", 0.9),
    ),
    "alpha-mixed": (
        {"lambda_c": 0.4417, "ci_low": 0.4311, "ci_high": 0.4453, "covered_volume": 0.7503},
        {},
        ("covered_volume", 0.5),
    ),
    "kappa-sweep": (
        {"rho": 10.0, "kappa_k1": 0.92709, "kappa_k2": 0.89856, "kappa_k3": 0.88862, "kappa_min": 0.88862},
        {"kappa_c1_closed_form": 0.92709},
        ("kappa_k1", 0.93),
    ),
    "paths-d4": (
        {"mean_N": 0.2, "mean_M": 0.223, "se_M": 0.0206, "exact_M": 0.2172},
        {},
        ("mean_M", 0.4),
    ),
}


CALLS = ("boolean_model.clusters_calls", "thresholds.minimize_calls", "pathcount.chain_counts_calls")
BUSY = {"threshold-d2": CALLS[0], "alpha-mixed": CALLS[0], "kappa-sweep": CALLS[1], "paths-d4": CALLS[2]}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], argv=TINY_ARGV[name])


@pytest.fixture
def fast(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_smoke_prints_every_metric_with_unit(fast, monkeypatch, capsys, trace, units):
    monkeypatch.setitem(run.WORKLOADS, "threshold-d2", tiny("threshold-d2"))
    code = run.main(["--workload", "threshold-d2", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    summary = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", summary, re.M), name
    assert "fail_rate = " in summary and '"seed": 7' in summary


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_plain_rows_identical(fast, name):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=True, src=REPO / "src")
    (plain,), (traced,) = result["plain"], result["traced"]
    assert plain["rows"] == traced["rows"]
    assert result["attempted"] == 2 * len(plain["rows"])
    assert traced["hook_failures"] == []
    # Each workload reaches its own layer and no other.
    called = {k: traced["layers"][k] > 0 for k in CALLS}
    assert called == {k: k == BUSY[name] for k in CALLS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_row_counts_as_failed(name):
    row, ref, (field, bad) = GOOD_ROWS[name]
    workload = WORKLOADS[name]
    assert workload.check(dict(row), ref) == []
    corrupted = dict(row, **{field: bad})
    assert workload.check(corrupted, ref) != []
    good = {"rows": [row], "references": [ref]}
    broken = {"rows": [corrupted], "references": [ref]}
    attempted, failed, messages = run.check_rows(workload, [good, broken, good])
    assert (attempted, failed, len(messages)) == (3, 1, 1)


def test_row_differing_from_first_command_counts_as_failed():
    workload = WORKLOADS["paths-d4"]
    row, ref, _ = GOOD_ROWS["paths-d4"]
    other = dict(row, mean_N=0.19)
    reports = [{"rows": [row], "references": [ref]}, {"rows": [other], "references": [ref]}]
    assert run.check_rows(workload, reports)[:2] == (2, 1)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "kappa-sweep", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trace, plain, traced", [(False, 5, 0), (True, 3, 2)])
def test_run_ends_within_its_seconds(monkeypatch, trace, plain, traced):
    clock = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])

    def fake_spawn(src, argv, run, trace, end_by):
        clock[0] += 6.0 if run else 1.0
        return {"setup_s": 1.0, "wall_s": 5.0, "peak_rss_mb": 100.0, "rows": [], "references": [],
                "layers": dict.fromkeys(PER_LAYER, 0)}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    result = run.measure(WORKLOADS["kappa-sweep"], seed=1, seconds=32, trace=trace, src=REPO / "src")
    # Five 6 s commands end at 30 s, plain and traced alternating when tracing;
    # a sixth would end at 36 s.  Two 1 s parse-only commands fill the run.
    assert (len(result["plain"]), len(result["traced"])) == (plain, traced)
    assert (len(result["setups"]), clock[0]) == (7, 32.0)


def test_speed_probe_samples_only_inside_its_block():
    with child.SpeedProbe() as probe:
        end = time.perf_counter() + 3.5 * child.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    loop, sort = probe.samples
    assert len(loop) >= 1 and len(sort) >= 1 and 0 < probe.spent() < 0.1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # Too short a block is scaled with samples taken after it.
    short = child.SpeedProbe()
    assert short.scaled(1.0) > 0 and list(map(len, short.samples)) == [child.MIN_PROBES] * 2
