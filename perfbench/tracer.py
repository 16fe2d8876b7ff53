"""Spans and counters recorded from outside the contperc package.

`Tracer.install()` swaps public module attributes for timing wrappers, so the
program's own code is never edited.  Each call becomes a span (name, start,
end, parent); a span's self time is its duration minus the time its child
spans cover.  Counters are read from the wrapped calls' arguments and
results.  A layer that no longer exists, or is never called, simply records
nothing, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# Per-layer metric name -> unit.  Counts repeat exactly for a given seed and
# are reported as counts, not timings.
PER_LAYER = {
    "boolean_model.clusters_s": "s",
    "boolean_model.clusters_calls": "count",
    "boolean_model.clusters_us_per_ball": "us",
    "boolean_model.sample_s": "s",
    "boolean_model.balls": "count",
    "boolean_model.percolates_s": "s",
    "boolean_model.crossings": "count",
    "estimation.levels": "count",
    "estimation.trials": "count",
    "estimation.decisive_share": "ratio",
    "estimation.self_s": "s",
    "estimation.ci_rel_width": "ratio",
    "thresholds.kappa_c_k_calls": "count",
    "thresholds.minimize_calls": "count",
    "thresholds.minimize_s": "s",
    "thresholds.nfev": "count",
    "thresholds.grid_s": "s",
    "pathcount.chain_counts_s": "s",
    "pathcount.chain_counts_calls": "count",
    "pathcount.unit_points": "count",
    "pathcount.chains": "count",
    "pathcount.dense_bytes": "B",
    "pathcount.sample_s": "s",
    "cli.render_s": "s",
}


def _sample_counts(counts, args, result):
    counts["balls"] += int(result.n)


def _clusters_counts(counts, args, result):
    counts["clustered_balls"] += int(args[0].n)


def _percolates_counts(counts, args, result):
    counts["crossings"] += bool(result)


def _estimate_counts(counts, args, result):
    levels = result.levels
    counts["levels"] += len(levels)
    counts["trials"] += sum(level.trials for level in levels)
    counts["decisive_levels"] += sum(
        level.wilson_low > 0.5 or level.wilson_high < 0.5 for level in levels
    )
    counts["estimates"] += 1
    counts["ci_rel_width_sum"] += (result.ci_high - result.ci_low) / result.lambda_c


def _minimize_counts(counts, args, result):
    counts["nfev"] += int(result.nfev)


def _chain_counts(counts, args, result):
    points_unit, points_large = args[0], args[1]
    n1, d = points_unit.shape
    counts["unit_points"] += n1
    counts["chains"] += int(result[1])
    # Bytes of the dense n1 x n1 and n1 x n_large difference arrays, computed
    # from shapes rather than measured.
    counts["dense_bytes"] += (n1 * n1 + n1 * points_large.shape[0]) * d * 8


# (module, attribute, count hook); the span takes the attribute's name.  These
# are the attributes the callers look up at call time, so replacing them
# reaches every call site.
WRAPPED = (
    ("contperc.estimation", "estimate_lambda_c", _estimate_counts),
    ("contperc.estimation", "sample", _sample_counts),
    ("contperc.estimation", "clusters", _clusters_counts),
    ("contperc.estimation", "percolates", _percolates_counts),
    ("contperc.thresholds", "kappa_c_k", None),
    ("contperc.thresholds", "minimize", _minimize_counts),
    ("contperc.pathcount", "count_paths", None),
    ("contperc.pathcount", "chain_counts", _chain_counts),
)


class Tracer:
    """In-memory span recorder; spans are summarised once the command ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.hook_failures: set[str] = set()
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def install(self) -> None:
        """Wrap every layer in WRAPPED that exists; for the life of the process."""
        for module_name, attr, hook in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self._wrap(original, attr, hook))

    def _wrap(self, original, name, hook):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The layer's signature changed; keep timing it and say
                    # which counts are missing instead of failing the command.
                    self.hook_failures.add(name)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The PER_LAYER metrics of one traced command; 0 for a layer not called."""

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "boolean_model.clusters_s": stat("clusters", "total_s"),
        "boolean_model.clusters_calls": stat("clusters", "calls"),
        "boolean_model.clusters_us_per_ball": ratio(
            1e6 * stat("clusters", "total_s"), counts["clustered_balls"]
        ),
        "boolean_model.sample_s": stat("sample", "total_s"),
        "boolean_model.balls": counts["balls"],
        "boolean_model.percolates_s": stat("percolates", "total_s"),
        "boolean_model.crossings": counts["crossings"],
        "estimation.levels": counts["levels"],
        "estimation.trials": counts["trials"],
        "estimation.decisive_share": ratio(counts["decisive_levels"], counts["levels"]),
        "estimation.self_s": stat("estimate_lambda_c", "self_s"),
        "estimation.ci_rel_width": ratio(counts["ci_rel_width_sum"], counts["estimates"]),
        "thresholds.kappa_c_k_calls": stat("kappa_c_k", "calls"),
        "thresholds.minimize_calls": stat("minimize", "calls"),
        "thresholds.minimize_s": stat("minimize", "total_s"),
        "thresholds.nfev": counts["nfev"],
        # kappa_c_k time minus the Nelder-Mead time nested inside it.
        "thresholds.grid_s": stat("kappa_c_k", "self_s"),
        "pathcount.chain_counts_s": stat("chain_counts", "total_s"),
        "pathcount.chain_counts_calls": stat("chain_counts", "calls"),
        "pathcount.unit_points": counts["unit_points"],
        "pathcount.chains": counts["chains"],
        "pathcount.dense_bytes": counts["dense_bytes"],
        # count_paths time outside chain_counts: drawing the points.
        "pathcount.sample_s": stat("count_paths", "self_s"),
        "cli.render_s": stat("render", "total_s"),
    }
