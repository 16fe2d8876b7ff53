"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
The alpha-sweep criterion dominates the runtime (several minutes).
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from contperc.boolean_model import BoxSpec, RadiusMixture, clusters, percolates, sample
from contperc.branching import gw_critical_kappa, gw_critical_kappa_limit
from contperc.cli import main as cli_main
from contperc.estimation import alpha_sweep, estimate_lambda_c, size_ladder
from contperc.geometry import (
    SlabSpec,
    log_slab_volume,
    log_unit_ball_volume,
    slab_log_rate,
)
from contperc.pathcount import count_paths, tuple_expectation_exact
from contperc.thresholds import (
    genealogy_envelope,
    kappa_c1_closed_form,
    kappa_c_k,
)

from _oracles import brute_force_labels, brute_force_percolates, canonical_labels

SEED = 20260806
UNIT = RadiusMixture.dirac(1.0)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {verdict}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_closed_form_recovery():
    t0 = time.time()
    worst_kappa = 0.0
    worst_offset = 0.0
    for rho in np.linspace(1.05, 10.0, 200):
        rho = float(rho)
        res = kappa_c_k(rho, 1)
        worst_kappa = max(worst_kappa, abs(res.kappa - kappa_c1_closed_form(rho)))
        if rho >= 2.0:
            expected = (rho * rho - 4.0) / (rho * rho + 4.0)
            worst_offset = max(worst_offset, abs(res.offsets[0] - expected))
    elapsed = time.time() - t0
    ok = worst_kappa <= 1e-6 and worst_offset <= 1e-4 and elapsed < 10.0
    report(
        1,
        "optimizer recovers the k=1 closed form over 200 rho values",
        ok,
        f"(worst kappa err {worst_kappa:.2e}, worst argmin err {worst_offset:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_envelope_bound():
    worst = math.inf
    for rho in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for k in range(1, 7):
            res = kappa_c_k(rho, k)
            worst = min(worst, res.kappa - genealogy_envelope(rho, k))
    ok = worst >= -1e-12
    report(
        2,
        "kappa_c_k never drops below the zero-offset envelope (k <= 6)",
        ok,
        f"(min margin {worst:.3e})",
    )


def test_criterion_3_gw_consistency():
    gaps = {
        rho: abs(gw_critical_kappa(200, rho) - 2.0 * math.sqrt(rho) / (1.0 + rho))
        for rho in (1.1, 1.5, 2.0, 5.0, 10.0)
    }
    ok_convergence = all(g <= 1e-2 for g in gaps.values())
    ok_match = all(
        abs(gw_critical_kappa_limit(rho) - kappa_c1_closed_form(rho)) <= 1e-9
        for rho in (1.01, 1.3, 1.7, 2.0)
    )
    limit3 = gw_critical_kappa_limit(3.0)
    ok_strict = (
        abs(limit3 - math.sqrt(3.0) / 2.0) < 1e-12
        and limit3 < kappa_c1_closed_form(3.0) - 0.03
    )
    ok = ok_convergence and ok_match and ok_strict
    report(
        3,
        "branching critical kappa converges and matches the path constant only below rho=2",
        ok,
        f"(max d=200 gap {max(gaps.values()):.2e})",
    )


def test_criterion_4_path_count_oracles():
    t0 = time.time()
    details = []
    ok = True
    for d, kappa, rho, k in ((2, 0.8, 2.0, 0), (2, 0.6, 2.0, 1), (3, 0.5, 3.0, 1)):
        run = count_paths(d, rho, kappa, k, trials=100_000, seed=SEED)
        exact = tuple_expectation_exact(d, rho, kappa, k)
        z_m = abs(run.mean_m - exact) / run.se_m
        bound_margin = run.mean_n - exact
        ok &= z_m <= 3.0 and bound_margin <= 3.0 * run.se_n
        if k == 0:
            ok &= abs(run.mean_n - exact) / run.se_n <= 3.0
        details.append(f"(d={d},k={k}): z={z_m:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(
        4,
        "tuple-count means match the exact expectations within 3 standard errors",
        ok,
        f"{'; '.join(details)}; {elapsed:.0f}s",
    )


def test_criterion_5_slab_volumes():
    worst_violation = -math.inf
    for d in range(3, 101):
        for a, b in ((0.1, 0.2), (0.3, 0.9), (0.5, 0.6), (0.9, 1.0)):
            for r in (0.5, 1.0, 2.0):
                log_ratio = log_slab_volume(SlabSpec(d, r, a, b)) - d * math.log(r)
                log_side = log_unit_ball_volume(d - 1) + 0.5 * (d - 1) * math.log1p(
                    -a * a
                )
                upper = log_side + math.log1p(-a)
                lower = log_side - math.log(d) + math.log(b - a)
                worst_violation = max(
                    worst_violation, log_ratio - upper, lower - log_ratio
                )
    worst_rate = 0.0
    for r in (0.5, 1.0, 2.0):
        for a in (0.0, 0.3, 0.6, 0.9):
            b = 1.0 if a > 0.85 else a + 0.1
            rate = slab_log_rate(SlabSpec(2000, r, a, b))
            limit = math.log(r) + 0.5 * math.log1p(-a * a)
            worst_rate = max(worst_rate, abs(rate - limit))
    ok = worst_violation <= 1e-9 and worst_rate <= 0.02
    report(
        5,
        "slab sandwich bounds hold to d=100 and the d=2000 log rate is within 0.02",
        ok,
        f"(worst bound violation {worst_violation:.2e}, worst rate gap {worst_rate:.4f})",
    )


@pytest.fixture(scope="module")
def ladder_result():
    return size_ladder(UNIT, 2, [16.0, 32.0, 64.0], trials=200, seed=SEED)


def test_criterion_6_monodisperse_ladder(ladder_result):
    t0 = time.time()
    est32, est64 = ladder_result.estimates[1], ladder_result.estimates[2]
    ci_width = est64.normalized_ci_high - est64.normalized_ci_low
    drift = abs(est32.normalized - est64.normalized)
    headline = ladder_result.estimates[-1].covered_volume
    # subcritical steepness check at half the estimated critical intensity
    box = BoxSpec(2, 64.0)
    lam = 0.5 * est64.lambda_c
    crossings = sum(
        percolates(clusters(cfg, box))
        for cfg in (sample(UNIT, lam, box, seed=SEED + 500 + s) for s in range(200))
    )
    sub_rate = crossings / 200.0
    ok = drift <= ci_width and 0.661 <= headline <= 0.691 and sub_rate < 0.1
    report(
        6,
        "d=2 size ladder is converged and the covered volume sits in the literature band",
        ok,
        f"(drift {drift:.4f} vs CI width {ci_width:.4f}, covered {headline:.4f}, "
        f"P(cross) at lambda/2 = {sub_rate:.3f}, +{time.time() - t0:.0f}s)",
    )


def test_criterion_7_invariance_suite():
    mix = RadiusMixture([(1.0, 0.75), (2.0, 0.5)])
    box = BoxSpec(2, 24.0)
    base = estimate_lambda_c(mix, box, trials=60, seed=SEED)
    ok_scale = True
    for a in (2.0, 3.0):
        scaled = estimate_lambda_c(
            mix.scaled(a), BoxSpec(2, box.side * a), trials=60, seed=SEED
        )
        ok_scale &= scaled.normalized == base.normalized
        ok_scale &= scaled.critical == base.critical
    # sample-level indicator identity under dyadic rescaling
    for s in range(40):
        cfg = sample(UNIT, 0.35, BoxSpec(2, 16.0), seed=SEED + s)
        cfg2 = sample(UNIT.scaled(2.0), 0.35 / 4.0, BoxSpec(2, 32.0), seed=SEED + s)
        ok_scale &= percolates(clusters(cfg, BoxSpec(2, 16.0))) == percolates(
            clusters(cfg2, BoxSpec(2, 32.0))
        )

    doubled = estimate_lambda_c(mix.mass_scaled(2.0), box, trials=60, seed=SEED)
    ok_mass = (
        doubled.lambda_c == base.lambda_c / 2.0
        and doubled.normalized == base.normalized
        and doubled.critical == base.critical
    )

    e0, e1 = alpha_sweep(10.0, [0.0, 1.0], 2, BoxSpec(2, 12.0), trials=60, seed=SEED)
    ok_alpha = (
        e0.normalized == e1.normalized
        and e0.covered_volume == e1.covered_volume
        and e0.critical == e1.critical
    )
    ok = ok_scale and ok_mass and ok_alpha
    report(
        7,
        "scaling, mass and endpoint invariances are bit-exact under matched seeds",
        ok,
        f"(scale {ok_scale}, mass {ok_mass}, endpoints {ok_alpha})",
    )


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "kappa_sweep.csv"
    code = cli_main(
        [
            "kappa-sweep", "--rho-min", "1.1", "--rho-max", "10", "--steps", "90",
            "--quiet", "--output", str(path),
        ]
    )
    assert code == 0
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def alpha_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "alpha_sweep.csv"
    code = cli_main(
        [
            "alpha-sweep", "--rho", "10", "--d", "2", "--alpha-count", "9",
            "--L", "20", "--trials", "150", "--seed", str(SEED),
            "--quiet", "--output", str(path),
        ]
    )
    assert code == 0
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_8_figure_data_regeneration(sweep_rows, alpha_rows):
    t0 = time.time()
    ok_rows = len(sweep_rows) == 90
    in_range = all(
        0.0 < float(row[col]) < 1.0
        for row in sweep_rows
        for col in ("kappa_k1", "kappa_k2", "kappa_k3", "kappa_min")
    )
    k1_above_min = all(
        float(row["kappa_k1"]) >= float(row["kappa_min"]) - 1e-12 for row in sweep_rows
    )
    large_rho_strict = (
        float(sweep_rows[-1]["kappa_min"]) < float(sweep_rows[-1]["kappa_k1"]) - 1e-3
        and int(sweep_rows[-1]["k_argmin"]) > 1
    )
    # the k=1 curve follows one closed-form branch below rho=2 and the other
    # above; the regime switch (offset leaving the boundary) is the kink
    branch_match = all(
        abs(float(row["kappa_k1"]) - kappa_c1_closed_form(float(row["rho"]))) <= 1e-6
        for row in sweep_rows
    )
    kink = (
        kappa_c_k(1.9, 1).offsets[0] < 1e-3
        and kappa_c_k(2.1, 1).offsets[0] > 0.02
    )
    ok_kappa = ok_rows and in_range and k1_above_min and large_rho_strict and branch_match and kink

    covered = [float(row["covered_volume"]) for row in alpha_rows]
    widths = []
    for row in alpha_rows:
        norm = float(row["normalized"])
        lo = norm * float(row["ci_low"]) / float(row["lambda_c"])
        hi = norm * float(row["ci_high"]) / float(row["lambda_c"])
        cov_lo = -math.expm1(-lo / 4.0)
        cov_hi = -math.expm1(-hi / 4.0)
        widths.append(0.5 * (cov_hi - cov_lo))
    base, base_w = covered[0], widths[0]
    ok_alpha = all(
        c >= base - math.hypot(w, base_w)
        for c, w in zip(covered[1:], widths[1:])
    )
    ok = ok_kappa and ok_alpha
    report(
        8,
        "sweep data reproduce the qualitative threshold-constant and covered-volume structure",
        ok,
        f"(alpha curve min {min(covered):.4f} vs base {base:.4f}, +{time.time() - t0:.0f}s)",
    )


def test_criterion_9_brute_force_equivalence():
    mixes = (UNIT, RadiusMixture([(1.0, 0.8), (2.0, 0.2)]))
    checked = 0
    ok = True
    for d in (2, 3, 4):
        box = BoxSpec(d, 11.0)
        lam_scale = {2: 0.15, 3: 0.02, 4: 0.002}[d]
        done = 0
        s = 0
        while done < 100 and ok:
            mix = mixes[s % 2]
            cfg = sample(mix, lam_scale * (1 + s % 3), box, seed=SEED + 31 * d + s)
            s += 1
            assert s < 5000, "could not draw enough small configurations"
            if cfg.n == 0 or cfg.n > 200:
                continue
            labeling = clusters(cfg, box)
            same_labels = np.array_equal(
                canonical_labels(labeling.labels), brute_force_labels(cfg, box)
            )
            same_cross = percolates(labeling) == brute_force_percolates(cfg, box)
            ok = ok and same_labels and same_cross
            done += 1
            checked += 1
    report(
        9,
        "grid-accelerated clustering equals all-pairs clustering exactly",
        ok,
        f"({checked} configurations, d in {{2,3,4}})",
    )
