"""Run one contperc CLI command in a fresh interpreter and report it as JSON.

Invoked by run.py as `python3 child.py SPEC`, where SPEC is a JSON object:
`src` (the checkout's src directory), `argv` (CLI arguments), `run` (false
to stop once the arguments are parsed), `trace` (wrap the layers with
tracer.Tracer) and `spawned_at` (the parent's time.time() just before it
started this process).  Prints one JSON line on stdout.  The rows are those `contperc.cli.dispatch`
returns; reference values for the output checks are computed after timing.

The machine's speed is measured while the command is timed: every
PROBE_INTERVAL_S a SIGALRM handler times a pure-Python loop or, in turn, a
numpy sort, on the same CPU and in the same seconds as the command.
`setup_s` and `wall_s` are the measured times less the probes' own time,
scaled to a machine on which the geometric mean of the two probes' median
times is REFERENCE_PROBE_S; `measured_setup_s` and `measured_wall_s` are the
unscaled times.  On a shared 2-core host whose speed varied the four
workloads' command times by 9-13% (coefficient of variation), the scaled
times varied by 5-9%.  The Python loop alone tracked kappa-sweep best and
the sort alone alpha-mixed, so neither is used alone.
"""

import json
import math
import signal
import statistics
import sys
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# The probes' geometric mean time on the 2-core Xeon host the baseline was
# measured on, so that scaled times read in that host's seconds.
REFERENCE_PROBE_S = 0.9e-3
# Timings too short for this many samples of each probe are scaled with
# samples taken just after they end.
MIN_PROBES = 5


def _python_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times the two probes in turn every PROBE_INTERVAL_S while the `with` block runs."""

    def __init__(self) -> None:
        self.samples: tuple[list[float], list[float]] = ([], [])  # Python loop, sort
        self._array = np.random.default_rng(0).random(50_000)

    def sample(self, signum=None, frame=None) -> None:
        loop, sort = self.samples
        start = time.perf_counter()
        if len(loop) <= len(sort):
            _python_loop()
            loop.append(time.perf_counter() - start)
        else:
            np.sort(self._array)
            sort.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        """Seconds the probes themselves took."""
        return sum(map(sum, self.samples))

    def speed(self) -> float:
        """Geometric mean of the two probes' median times."""
        while min(map(len, self.samples)) < MIN_PROBES:
            self.sample()
        return math.sqrt(math.prod(map(statistics.median, self.samples)))

    def scaled(self, seconds: float) -> float:
        """`seconds` measured in the block, at the reference speed."""
        return seconds * REFERENCE_PROBE_S / self.speed()


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])

    with SpeedProbe() as setup_probe:
        import contperc
        from contperc import cli

        config = cli._config_from_args(cli.build_parser().parse_args(spec["argv"]))
        measured_setup_s = time.time() - spec["spawned_at"] - setup_probe.spent()
    report = {
        "setup_s": setup_probe.scaled(measured_setup_s),
        "measured_setup_s": measured_setup_s,
        "contperc_file": contperc.__file__,
    }
    if not spec["run"]:
        print(json.dumps(report))
        return

    import os
    import platform
    import resource

    import scipy

    import tracer
    import workloads

    trace = tracer.Tracer() if spec["trace"] else None
    if trace is not None:
        trace.install()
    with SpeedProbe() as probe:
        start = time.perf_counter()
        if trace is not None:
            rows, single = trace.span("dispatch", cli.dispatch, config, quiet=True)
        else:
            rows, single = cli.dispatch(config, quiet=True)
        measured_wall_s = time.perf_counter() - start - probe.spent()
    if trace is not None:
        trace.span("render", cli.render, rows, single, config.fmt)
    else:
        cli.render(rows, single, config.fmt)

    report.update(
        wall_s=probe.scaled(measured_wall_s),
        measured_wall_s=measured_wall_s,
        probe_s=probe.speed(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rows=rows,
        references=[workloads.reference(config.command, row) for row in rows],
        versions={
            "contperc": contperc.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        nproc=len(os.sched_getaffinity(0)),
    )
    if trace is not None:
        stages = trace.summary()
        report["layers"] = tracer.layer_metrics(stages, trace.counts)
        report["stages"] = stages
        report["hook_failures"] = sorted(trace.hook_failures)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
