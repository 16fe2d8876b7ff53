"""contperc benchmark: a closed loop of one client running one CLI command at a time.

Run from the repository root:

    python3 perfbench/run.py --workload threshold-d2 [--seed 7] [--seconds 32] [--trace 0|1]

Each command runs in a fresh interpreter (child.py) with OpenBLAS, OpenMP and
MKL pinned to one thread and `--threads` left at its default, and the next
starts only when the previous one has ended.  Commands repeat, all with the
same `--seed`, while the next one is expected to end within `--seconds` of the
run's start (at least one command runs); every metric is the median over the
commands of the run.  The time left goes to commands that stop once their
arguments are parsed, which add samples of setup_s.

End-to-end metrics (`--trace 0`):
  wall_s       time for `contperc.cli.dispatch` to run the command, after import,
               scaled by the machine speed measured while it ran (child.py)
  setup_s      fresh interpreter to `contperc.cli` imported and arguments parsed,
               scaled the same way
  peak_rss_mb  the child process's peak resident set size

With `--trace 1` the run alternates plain and traced commands and reports the
per-layer metrics of tracer.PER_LAYER from the traced ones, plus
trace_overhead_s (traced wall_s minus plain wall_s).

Every output row is checked (workloads.py) and must also equal the rows of
the run's first command.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give a
readable summary and the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 7
# A run measures setup at least this often, adding parse-only commands if needed.
SETUP_SAMPLES = 3
# Every command of a run must have ended this long after the run started.
RUN_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracer.PER_LAYER, "trace_overhead_s": "s"}


class BenchmarkError(RuntimeError):
    pass


def spawn(src: Path, argv: list[str], run: bool, trace: bool, end_by: float) -> dict:
    """Run child.py once, killing it at time.monotonic() `end_by`; return its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec = {"src": str(src), "argv": argv, "run": run, "trace": trace, "spawned_at": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, end_by - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"command did not finish within {RUN_LIMIT_S} s of the run's start: {argv}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"command {argv} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["contperc_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchmarkError(f"imported contperc from {report['contperc_file']}, not from {src}")
    return report


def check_rows(workload, reports: list[dict]) -> tuple[int, int, list[str]]:
    """Check every row of every report: (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    first = reports[0]["rows"]
    for i, report in enumerate(reports):
        for j, (row, ref) in enumerate(zip(report["rows"], report["references"])):
            problems = workload.check(row, ref)
            if j >= len(first) or row != first[j]:
                problems.append("row differs from the run's first command")
            attempted += 1
            if problems:
                failed += 1
                messages.append(f"command {i} row {j}: " + "; ".join(problems))
    return attempted, failed, messages


def measure(workload, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    argv = [*workload.argv, "--seed", str(seed), "--quiet"]
    start = time.monotonic()
    end_by = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        began = time.monotonic()
        tracing = trace and len(traced) < len(plain)
        (traced if tracing else plain).append(spawn(src, argv, run=True, trace=tracing, end_by=end_by))
        now = time.monotonic()
        # Start another command only if one as long as this one ends in time,
        # so a run lasts about `seconds` and never a whole command more.
        if now + (now - began) > start + seconds and (traced or not trace):
            break
    # Spend the rest of the run on parse-only commands, which add setup samples.
    setups = [r["setup_s"] for r in plain + traced]
    spawn_s = max(setups)
    while len(setups) < SETUP_SAMPLES or time.monotonic() + spawn_s <= start + seconds:
        began = time.monotonic()
        setups.append(spawn(src, argv, run=False, trace=False, end_by=end_by)["setup_s"])
        spawn_s = time.monotonic() - began

    attempted, failed, messages = check_rows(workload, plain + traced)
    wall_s = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in tracer.PER_LAYER
        }
        metrics["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall_s
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "argv": argv,
    }


def summary_lines(workload, seed: int, result: dict) -> list[str]:
    plain, traced = result["plain"], result["traced"]
    lines = [
        f"workload {workload.name}: contperc {' '.join(result['argv'])}",
        f"  why: {workload.why}",
        f"commands: {len(plain)} plain, {len(traced)} traced; setup samples: {len(result['setups'])}",
        "  plain wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in plain),
        "  plain measured_wall_s: " + " ".join(f"{r['measured_wall_s']:.3f}" for r in plain),
        "  probe_ms: " + " ".join(f"{1e3 * r['probe_s']:.3f}" for r in plain),
        "  setup_s: " + " ".join(f"{s:.3f}" for s in result["setups"]),
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  fail_rate = {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} rows)"
    )
    widths = [
        (row["ci_high"] - row["ci_low"]) / row["lambda_c"]
        for row in plain[0]["rows"]
        if "lambda_c" in row
    ]
    if widths:
        lines.append(f"  ci_rel_width = {statistics.median(widths):.6g} ratio")
    if traced:
        stages = {k: v["self_s"] for k, v in traced[0]["stages"].items() if k != "dispatch"}
        name = max(stages, key=stages.get)
        share = stages[name] / traced[0]["measured_wall_s"]
        lines.append(f"  dominant stage: {name} (self time {share:.0%} of traced wall_s)")
        for r in traced:
            if r["hook_failures"]:
                lines.append(f"  warning: counts missing for {', '.join(r['hook_failures'])}")
                break
    lines.extend(f"  check failed: {msg}" for msg in result["messages"][:10])
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "argv": result["argv"],
        "versions": plain[0]["versions"],
        "nproc": plain[0]["nproc"],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    lines.append("provenance " + json.dumps(provenance))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, on which subprocess.run
    # kills and reaps the running command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "contperc" / "cli.py").is_file():
        print(f"error: no contperc sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), src)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary_lines(workload, args.seed, result)))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
