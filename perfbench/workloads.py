"""The benchmark's workloads: CLI arguments, why each exists, and output checks.

Each workload is one `contperc` CLI command.  The benchmark adds only
`--seed <n> --quiet`; it never passes `--threads`, so the workloads survive
that option's removal.  Each output row is one operation, and `check`
returns the conditions a row fails (empty when it is correct).

The two Monte Carlo workloads pass a `--tol` whose bracket the bisection
reaches before its other stop, both Wilson intervals straddling 1/2, can end
it.  Every seed then does the same number of levels: 8 for threshold-d2
(bracket 0.0325) and 7 for alpha-mixed (0.065).  At the default 0.02 the
straddle stop ended threshold-d2 after 8 or 9 levels and alpha-mixed after 7
to 9 depending on the seed, which moved wall_s by seed rather than by code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    check: Callable[[dict, dict], list[str]]


def _check_threshold(row: dict, ref: dict) -> list[str]:
    failed = []
    if not row["ci_low"] <= row["lambda_c"] <= row["ci_high"]:
        failed.append("lambda_c outside [ci_low, ci_high]")
    if not 0.661 <= row["covered_volume"] <= 0.691:
        failed.append(f"covered_volume {row['covered_volume']!r} outside [0.661, 0.691]")
    return failed


def _check_alpha(row: dict, ref: dict) -> list[str]:
    if row["covered_volume"] >= 0.661:
        return []
    return [f"covered_volume {row['covered_volume']!r} below 0.661"]


def _check_kappa_sweep(row: dict, ref: dict) -> list[str]:
    failed = []
    if not abs(row["kappa_k1"] - ref["kappa_c1_closed_form"]) <= 1e-6:
        failed.append("kappa_k1 differs from kappa_c1_closed_form by more than 1e-6")
    if not row["kappa_min"] <= row["kappa_k1"]:
        failed.append("kappa_min exceeds kappa_k1")
    for key in ("kappa_k1", "kappa_k2", "kappa_k3", "kappa_min"):
        if not 0.0 < row[key] < 1.0:
            failed.append(f"{key} {row[key]!r} outside (0, 1)")
    return failed


def _check_paths(row: dict, ref: dict) -> list[str]:
    failed = []
    if not row["mean_N"] <= row["mean_M"]:
        failed.append("mean_N exceeds mean_M")
    if not abs(row["mean_M"] - row["exact_M"]) <= 4.0 * row["se_M"]:
        failed.append("mean_M more than 4 se_M from exact_M")
    return failed


def reference(command: str, row: dict) -> dict:
    """Exact values a row is checked against; computed after the timed call."""
    if command != "kappa-sweep":
        return {}
    from contperc import thresholds

    return {"kappa_c1_closed_form": thresholds.kappa_c1_closed_form(row["rho"])}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threshold-d2",
            ("threshold", "--d", "2", "--mixture", "1:1", "--L", "64", "--trials", "200",
             "--tol", "0.035"),
            "the README and ROADMAP baseline run: monodisperse single-grid path, 200 "
            "trials per level; bypasses thresholds and pathcount",
            _check_threshold,
        ),
        Workload(
            "alpha-mixed",
            ("alpha-sweep", "--rho", "10", "--d", "2", "--alphas", "0.5", "--L", "12",
             "--trials", "60", "--tol", "0.07"),
            "radius ratio 10 takes the per-class-pair grid path, 99% small balls; a "
            "clustering change that helps one radius and hurts mixtures shows here",
            _check_alpha,
        ),
        Workload(
            "kappa-sweep",
            ("kappa-sweep", "--rho-min", "1.1", "--rho-max", "10", "--steps", "30"),
            "analytic layer: 90 kappa_c_k calls, about 90% Nelder-Mead; bypasses "
            "boolean_model, so Monte Carlo changes should not move it",
            _check_kappa_sweep,
        ),
        Workload(
            "paths-d4",
            ("paths", "--d", "4", "--rho", "3", "--kappa", "0.8", "--k", "2", "--trials", "2000"),
            "only workload reaching pathcount: dense n x n arrays and the recursive "
            "chain DFS for k >= 2 (k=3 is heavy-tailed, so k=2)",
            _check_paths,
        ),
    )
}
