import math
import re

import numpy as np
import pytest

from contperc import boolean_model, estimation
from contperc.boolean_model import BoxSpec, RadiusMixture, clusters, percolates, sample
from contperc.util import CapacityError, derive_seed
from contperc.estimation import (
    alpha_sweep,
    canonicalize,
    estimate_lambda_c,
    mixture_for_alpha,
    mu_d_transform,
    multiscale_family,
    size_ladder,
    wilson_interval,
)

UNIT = RadiusMixture.dirac(1.0)
BOX = BoxSpec(2, 16.0)


def fake_critical_intensities(monkeypatch, values):
    """Make the estimator read the given critical intensities instead of sampling."""

    def fake(mixture, box, seed, trials, lam_hi, progress=None):
        assert trials == len(values)
        return np.asarray(values, dtype=float)

    monkeypatch.setattr(estimation, "_critical_intensities", fake)


def sigmoid_quantiles(midpoint, trials, slope=6.0):
    """Critical intensities at the (i + 1/2) / trials quantiles of a log-logistic law."""
    q = (np.arange(trials) + 0.5) / trials
    return midpoint * np.exp(np.log(q / (1.0 - q)) / slope)


def test_wilson_interval_behavior():
    lo, hi = wilson_interval(0, 100)
    assert lo < 1e-12 and 0.0 < hi < 0.06
    lo, hi = wilson_interval(100, 100)
    assert hi > 1.0 - 1e-12 and 0.94 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    narrow = wilson_interval(500, 1000)
    assert narrow[1] - narrow[0] < hi - lo


def test_estimator_validations():
    with pytest.raises(ValueError):
        estimate_lambda_c(UNIT, BOX, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda_c(UNIT, BoxSpec(7, 16.0), trials=60, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda_c(UNIT, BOX, trials=60, target_rel_tol=0.0, seed=0)


def test_synthetic_oracle_recovers_midpoint(monkeypatch):
    midpoint = 0.42
    fake_critical_intensities(monkeypatch, sigmoid_quantiles(midpoint, 400))
    est = estimate_lambda_c(UNIT, BOX, trials=400, target_rel_tol=0.01, seed=1)
    assert abs(est.lambda_c - midpoint) <= 0.015 * midpoint
    assert est.ci_low <= est.lambda_c <= est.ci_high
    # covered volume is tied to the normalized threshold exactly
    assert est.covered_volume == -math.expm1(-est.normalized / 4.0)


def test_estimation_failure_when_never_crossing(monkeypatch):
    # A trial that never crosses is extended by doubling layers until a
    # layer passes the ball-count cap, lowered here to keep that cheap.
    monkeypatch.setattr(estimation, "_critical_mark", lambda config, box, marks: math.inf)
    monkeypatch.setattr(boolean_model, "MAX_EXPECTED_COUNT", 1e5)
    with pytest.raises(CapacityError):
        estimate_lambda_c(UNIT, BOX, trials=60, seed=0)


def test_alpha_sweep_caps_the_run_summed_over_its_alphas(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run size was checked")

    monkeypatch.setattr(estimation, "sample", no_sampling)
    box = BoxSpec(2, 12.0)
    # Both endpoints are the canonical unit-ball run: 60 trials at lambda_hi
    # = 8 / (4 pi) in the halo window of side 14.
    one = 60 * 8.0 / (4.0 * math.pi) * 14.0**2
    monkeypatch.setattr(estimation, "MAX_EXPECTED_COUNT", 1.5 * one)
    estimation._check_run([(UNIT, box)], 60, 0.02)
    with pytest.raises(CapacityError, match="over the cap"):
        alpha_sweep(2.0, [0.0, 1.0], 2, box, trials=60)
    monkeypatch.setattr(estimation, "MAX_EXPECTED_COUNT", 0.99 * one)
    with pytest.raises(CapacityError, match="over the cap"):
        estimate_lambda_c(UNIT, box, trials=60)


def test_size_ladder_caps_the_run_summed_over_its_sides(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run size was checked")

    monkeypatch.setattr(estimation, "sample", no_sampling)
    sides = [600.0, 700.0, 800.0, 900.0]
    # 50 trials at lambda_hi = 8 / (4 pi) in the halo window of side L + 2:
    # every side alone is under the cap, the four together are over it.
    balls = [50 * 8.0 / (4.0 * math.pi) * (side + 2.0) ** 2 for side in sides]
    assert max(balls) < estimation.MAX_EXPECTED_COUNT < sum(balls)
    with pytest.raises(CapacityError, match="over the cap"):
        size_ladder(UNIT, 2, sides, trials=50)


def test_a_wilson_interval_excluding_half_lies_on_the_side_of_p_hat():
    # The bisection step reads p_hat alone, and the final interpolation needs
    # p_hat < 1/2 at a decisive low end and p_hat >= 1/2 at a decisive high end.
    for n in range(50, 401):
        for s in range(n + 1):
            low, high = wilson_interval(s, n)
            if low > 0.5:
                assert s / n >= 0.5, (s, n)
            if high < 0.5:
                assert s / n < 0.5, (s, n)


def test_a_wilson_interval_holds_p_hat_within_zero_and_one():
    # Unclamped, rounding gave a low end of 6.9e-18 at 0 of 50 and a high end
    # of 1 - 1.1e-16 at 53 of 53.
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(53, 53)[1] == 1.0
    for n in range(50, 2001):
        for s in range(n + 1):
            low, high = wilson_interval(s, n)
            assert 0.0 <= low <= s / n <= high <= 1.0, (s, n)


def test_the_estimator_never_labels_clusters(monkeypatch):
    """The spanning-tree search alone decides crossing; no trial computes labels."""

    def refuse(*args, **kwargs):
        raise AssertionError("the estimator labelled clusters")

    monkeypatch.setattr(boolean_model, "connected_components", refuse)
    box = BoxSpec(2, 8.0)
    lam_hi = 8.0 / (4.0 * math.pi)  # estimate_lambda_c's lambda_hi for unit balls, d = 2
    critical = estimation._critical_intensities(UNIT, box, 3, 50, lam_hi)
    assert np.isfinite(critical).all()
    est = estimate_lambda_c(UNIT, box, trials=50, seed=3)
    assert est.ci_low <= est.lambda_c <= est.ci_high


@pytest.mark.parametrize("mixture", [UNIT, canonicalize(mixture_for_alpha(0.5, 10.0, 2))[0]])
def test_every_spanning_tree_input_is_csr_with_ascending_weights(mixture, monkeypatch):
    """Balls numbered by arrival give ascending weights, which the tree's sort passes over linearly."""
    tree = estimation.minimum_spanning_tree
    sizes = []

    def checked(graph, overwrite=False):
        assert graph.format == "csr"
        assert not np.any(np.diff(graph.data) < 0.0)
        sizes.append(graph.nnz)
        return tree(graph, overwrite=overwrite)

    monkeypatch.setattr(estimation, "minimum_spanning_tree", checked)
    lam_hi = estimation._first_bracket(mixture, 2)[2]
    estimation._critical_intensities(mixture, BoxSpec(2, 8.0), 3, 50, lam_hi)
    assert len(sizes) >= 50 and min(sizes) > 0


def test_trial_progress_lines_arrive_in_trial_order(monkeypatch):
    balls = {}

    def counting_sample(mixture, lam, box, seed):
        cfg = sample(mixture, lam, box, seed)
        balls[seed] = cfg.n
        return cfg

    monkeypatch.setattr(estimation, "sample", counting_sample)
    box, seed, trials = BoxSpec(2, 8.0), 3, 50
    norm_factor, _, lam_hi = estimation._first_bracket(UNIT, 2)
    lines = []
    critical = estimation._critical_intensities(UNIT, box, seed, trials, lam_hi, lines.append)
    assert critical.tolist() == estimation._critical_intensities(UNIT, box, seed, trials, lam_hi).tolist()
    assert len(lines) == trials
    layered = 0
    for t, line in enumerate(lines):
        match = re.fullmatch(rf"trial {t}: layers=(\d+) balls=(\d+) lambda~=(\S+)", line)
        assert match, (t, line)
        layers = int(match[1])
        layered += layers > 1
        assert int(match[2]) == sum(balls[derive_seed(seed, j, t)] for j in range(layers))
        assert match[3] == f"{critical[t] * norm_factor:.5g}"
    assert layered > 0
    # The estimator passes its callback through: the trial lines come first, then the levels.
    lines.clear()
    estimate_lambda_c(UNIT, box, trials=trials, seed=seed, progress=lines.append)
    assert [line.split(":")[0] for line in lines[:trials]] == [f"trial {t}" for t in range(trials)]
    assert lines[trials].startswith("level 0: ")


def test_canonicalize():
    mix = RadiusMixture([(2.0, 3.0), (4.0, 1.0)])
    canon, scale, mass = canonicalize(mix)
    assert scale == 4.0 and mass == 4.0
    assert canon.atoms == ((0.5, 0.75), (1.0, 0.25))
    assert canon.total_mass == 1.0


def test_mu_d_transform():
    assert mu_d_transform(RadiusMixture.dirac(1.0), 5).atoms == ((1.0, 1.0),)
    mix = RadiusMixture([(1.0, 1.0), (3.0, 1.0)])
    out = mu_d_transform(mix, 2)
    assert out.atoms[0] == (1.0, 1.0)
    assert out.atoms[1][1] == pytest.approx(1.0 / 9.0, rel=1e-14)
    same = mu_d_transform(mix, 0)
    assert same.atoms == mix.atoms
    with pytest.raises(ValueError):
        mu_d_transform(mix, -1)


def test_multiscale_family():
    assert multiscale_family(1, 10.0, 2).atoms == ((1.0, 1.0),)
    fam = multiscale_family(2, 10.0, 2)
    assert fam.atoms == ((0.1, 100.0), (1.0, 1.0))
    # every atom carries the same d-th moment
    for r, w in fam.atoms:
        assert w * r**2 == pytest.approx(1.0, rel=1e-12)
    fam3 = multiscale_family(3, 4.0, 3)
    assert len(fam3.atoms) == 3
    for r, w in fam3.atoms:
        assert w * r**3 == pytest.approx(1.0, rel=1e-12)


def test_mixture_for_alpha():
    assert mixture_for_alpha(0.0, 10.0, 2).atoms == ((1.0, 1.0),)
    end = mixture_for_alpha(1.0, 10.0, 2)
    assert end.atoms == ((10.0, 0.01),)
    mid = mixture_for_alpha(0.25, 10.0, 2)
    assert mid.atoms == ((1.0, 0.75), (10.0, 0.0025))
    with pytest.raises(ValueError):
        mixture_for_alpha(1.5, 10.0, 2)


def test_scaling_invariance_is_bit_exact():
    mix = RadiusMixture([(1.0, 0.75), (2.0, 0.5)])
    box = BoxSpec(2, 24.0)
    base = estimate_lambda_c(mix, box, trials=60, seed=11)
    for a in (2.0, 3.0, 0.5):
        scaled = estimate_lambda_c(
            mix.scaled(a), BoxSpec(2, box.side * a), trials=60, seed=11
        )
        assert scaled.normalized == base.normalized
        assert scaled.covered_volume == base.covered_volume
        assert all(
            x.indicators == y.indicators for x, y in zip(base.levels, scaled.levels)
        )
        assert base.lambda_c / scaled.lambda_c == pytest.approx(a**2, rel=1e-12)


def test_sample_level_scaling_indicators_match():
    # doubling radii and the box while dividing lambda by 2^d reproduces the
    # same crossing indicators trial by trial
    mix = RadiusMixture([(1.0, 1.0)])
    box = BoxSpec(2, 16.0)
    box2 = BoxSpec(2, 32.0)
    lam = 0.35
    for s in range(40):
        cfg = sample(mix, lam, box, seed=s)
        cfg2 = sample(mix.scaled(2.0), lam / 4.0, box2, seed=s)
        assert cfg.n == cfg2.n
        assert percolates(clusters(cfg, box)) == percolates(clusters(cfg2, box2))


def test_mass_invariance_halves_lambda_exactly():
    base = estimate_lambda_c(UNIT, BOX, trials=60, seed=4)
    doubled = estimate_lambda_c(UNIT.mass_scaled(2.0), BOX, trials=60, seed=4)
    halved = estimate_lambda_c(UNIT.mass_scaled(0.5), BOX, trials=60, seed=4)
    assert doubled.lambda_c == base.lambda_c / 2.0
    assert halved.lambda_c == base.lambda_c * 2.0
    assert doubled.normalized == base.normalized
    assert halved.normalized == base.normalized


def test_alpha_endpoints_identical_per_seed():
    e0, e1 = alpha_sweep(10.0, [0.0, 1.0], 2, BoxSpec(2, 12.0), trials=60, seed=3)
    assert e0.normalized == e1.normalized
    assert e0.covered_volume == e1.covered_volume
    assert all(x.indicators == y.indicators for x, y in zip(e0.levels, e1.levels))


def test_size_ladder_single_side_passthrough():
    ladder = size_ladder(UNIT, 2, [16.0], trials=60, seed=2)
    assert len(ladder.estimates) == 1
    assert ladder.drifts == ()
    assert ladder.systematic is False


def test_size_ladder_drift_fields():
    ladder = size_ladder(UNIT, 2, [12.0, 16.0], trials=60, seed=8)
    assert len(ladder.estimates) == 2
    assert len(ladder.drifts) == 1
    with pytest.raises(ValueError):
        size_ladder(UNIT, 2, [16.0, 12.0], trials=60, seed=8)
    with pytest.raises(ValueError):
        size_ladder(UNIT, 2, [], trials=60, seed=8)


def test_subcritical_half_intensity_rarely_crosses():
    box = BoxSpec(2, 32.0)
    est = estimate_lambda_c(UNIT, box, trials=100, seed=5)
    lam = 0.5 * est.lambda_c
    hits = sum(
        percolates(clusters(cfg, box))
        for cfg in (sample(UNIT, lam, box, seed=40_000 + s) for s in range(100))
    )
    assert hits / 100.0 < 0.1


def test_monodisperse_estimate_in_literature_band():
    est = estimate_lambda_c(UNIT, BoxSpec(2, 32.0), trials=200, seed=7)
    assert 4.2 < est.normalized < 4.8
    assert 0.64 < est.covered_volume < 0.71


def test_multiscale_threshold_exceeds_monodisperse():
    # two-scale mixture needs a markedly higher normalized threshold
    box = BoxSpec(2, 12.0)
    mono = estimate_lambda_c(UNIT, box, trials=80, seed=13)
    multi = estimate_lambda_c(multiscale_family(2, 10.0, 2), box, trials=80, seed=13)
    mono_half = 0.5 * (mono.normalized_ci_high - mono.normalized_ci_low)
    multi_half = 0.5 * (multi.normalized_ci_high - multi.normalized_ci_low)
    pooled = math.hypot(mono_half, multi_half)
    assert multi.normalized > mono.normalized + 2.0 * pooled


def test_lambda_c_stays_inside_its_bracket(monkeypatch):
    # Half the trials cross from 0.17 up to 0.255, all of them above.  The
    # bisection ends with that half at the upper level, so the interpolation
    # lands on t = 1, and lam_lo * (lam_hi / lam_lo)**1 rounds one ulp above
    # lam_hi here unless it is clamped.
    values = [np.nextafter(0.17, 0.0)] * 30 + [np.nextafter(0.255, 0.0)] * 30
    fake_critical_intensities(monkeypatch, values)
    est = estimate_lambda_c(UNIT, BOX, trials=60)
    lam_lo, lam_hi = est.ci_low, est.ci_high
    p_at = {lv.lam: lv.p_hat for lv in est.levels}
    assert (p_at[lam_lo], p_at[lam_hi]) == (0.0, 0.5)
    assert lam_lo * (lam_hi / lam_lo) ** 1.0 > lam_hi
    assert est.ci_low <= est.lambda_c <= est.ci_high
    assert est.normalized_ci_low <= est.normalized <= est.normalized_ci_high


def test_a_level_at_a_critical_intensity_reads_not_crossed(monkeypatch):
    # Every trial crosses exactly at the initial lambda_hi = 8 / (v_2 2^2): a
    # level there keeps none of the balls arriving at it, so the bracket
    # expands once.
    lam_hi = 8.0 / (math.pi * 4.0)
    fake_critical_intensities(monkeypatch, [lam_hi] * 60)
    est = estimate_lambda_c(UNIT, BOX, trials=60)
    assert [(lv.lam, lv.successes) for lv in est.levels[:3]] == [
        (lam_hi / 8.0, 0), (lam_hi, 0), (2.0 * lam_hi, 60)
    ]
