import dataclasses
import math
import multiprocessing
import os
import re
import signal
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contperc import boolean_model, cli, estimation
from contperc.boolean_model import BoxSpec, RadiusMixture, clusters, percolates, sample
from contperc.util import CapacityError, derive_seed, stream
from contperc.estimation import (
    alpha_sweep,
    canonicalize,
    estimate_lambda_c,
    mixture_for_alpha,
    mu_d_transform,
    multiscale_family,
    size_ladder,
)

from _oracles import order_statistic_ranks

UNIT = RadiusMixture.dirac(1.0)
BOX = BoxSpec(2, 16.0)


def fake_critical_intensities(monkeypatch, values):
    """Make the estimator read the given critical intensities instead of sampling."""

    def fake(mixture, box, seed, trials, lam_hi, progress=None):
        assert trials == len(values)
        return np.asarray(values, dtype=float)

    monkeypatch.setattr(estimation, "_critical_intensities", fake)


def shuffled_values(trials, seed):
    """Critical intensities in random order."""
    return stream(seed).uniform(0.2, 0.6, trials).tolist()


def test_estimator_validations():
    with pytest.raises(ValueError):
        estimate_lambda_c(UNIT, BOX, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda_c(UNIT, BoxSpec(7, 16.0), trials=60, seed=0)


def test_synthetic_oracle_recovers_midpoint(monkeypatch):
    # lambda_c is the median of the critical intensities, at even and odd
    # counts; UNIT is canonical (r_max = mass = 1), so it is read unscaled.
    for trials in (60, 61, 200):
        values = shuffled_values(trials, trials)
        fake_critical_intensities(monkeypatch, values)
        est = estimate_lambda_c(UNIT, BOX, trials=trials, seed=1)
        assert est.lambda_c == np.median(values)
        assert est.critical == tuple(sorted(values))
        assert est.trials == trials
        # covered volume is tied to the normalized threshold exactly
        assert est.covered_volume == -math.expm1(-est.normalized / 4.0)


@pytest.mark.parametrize("trials, ranks", [(50, (18, 33)), (60, (22, 39)), (150, (63, 88)), (200, (86, 115))])
def test_the_interval_is_the_order_statistics_at_the_median_ranks(trials, ranks, monkeypatch):
    values = shuffled_values(trials, 2 * trials)
    fake_critical_intensities(monkeypatch, values)
    est = estimate_lambda_c(UNIT, BOX, trials=trials)
    low, high = ranks
    ordered = sorted(values)
    assert (est.ci_low, est.ci_high) == (ordered[low - 1], ordered[high - 1])
    norm_factor = estimation._first_bracket(UNIT, 2)[0]
    assert est.normalized_ci_low == ordered[low - 1] * norm_factor
    assert est.normalized_ci_high == ordered[high - 1] * norm_factor
    assert est.ci_low <= est.lambda_c <= est.ci_high


def test_equal_critical_intensities_give_a_point_interval(monkeypatch):
    fake_critical_intensities(monkeypatch, [0.37] * 60)
    est = estimate_lambda_c(UNIT, BOX, trials=60)
    assert est.ci_low == est.lambda_c == est.ci_high == 0.37
    assert est.normalized_ci_low == est.normalized == est.normalized_ci_high


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=50, max_value=3000))
@example(200)
def test_median_ranks_match_the_exact_binomial_oracle(n):
    def p_between(low, high):  # P(low <= Bin(n, 1/2) < high)
        return Fraction(sum(math.comb(n, i) for i in range(low, high)), 2**n)

    low, high = estimation._median_ranks(n)
    assert (low, high) == order_statistic_ranks(n)
    assert high == n + 1 - low
    assert p_between(low, high) >= Fraction(95, 100)
    assert p_between(low + 1, high - 1) < Fraction(95, 100)
    if n == 200:
        assert (low, high) == (86, 115)


def test_estimation_failure_when_never_crossing(monkeypatch):
    # A trial that never crosses is drawn to doubling tops until a top
    # passes the ball-count cap, lowered here to keep that cheap.
    monkeypatch.setattr(estimation, "_critical_mark", lambda config, box, marks: math.inf)
    monkeypatch.setattr(boolean_model, "MAX_EXPECTED_COUNT", 1e5)
    with pytest.raises(CapacityError, match="expected ball count"):
        estimate_lambda_c(UNIT, BOX, trials=60, seed=0)


def test_alpha_sweep_caps_the_run_summed_over_its_alphas(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run size was checked")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    box = BoxSpec(2, 12.0)
    # Both endpoints are the canonical unit-ball run: 60 trials at lambda_hi
    # = 8 / (4 pi) in the halo window of side 14.
    one = 60 * 8.0 / (4.0 * math.pi) * 14.0**2
    monkeypatch.setattr(estimation, "MAX_EXPECTED_COUNT", 1.5 * one)
    fake_critical_intensities(monkeypatch, [0.37] * 60)  # one run alone passes the check
    assert estimate_lambda_c(UNIT, box, trials=60).lambda_c == 0.37
    with pytest.raises(CapacityError, match="over the cap"):
        alpha_sweep(2.0, [0.0, 1.0], 2, box, trials=60)
    monkeypatch.setattr(estimation, "MAX_EXPECTED_COUNT", 0.99 * one)
    with pytest.raises(CapacityError, match="over the cap"):
        estimate_lambda_c(UNIT, box, trials=60)


def test_size_ladder_caps_the_run_summed_over_its_sides(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run size was checked")

    monkeypatch.setattr(estimation, "_trial", no_sampling)
    sides = [600.0, 700.0, 800.0, 900.0]
    # 50 trials at lambda_hi = 8 / (4 pi) in the halo window of side L + 2:
    # every side alone is under the cap, the four together are over it.
    balls = [50 * 8.0 / (4.0 * math.pi) * (side + 2.0) ** 2 for side in sides]
    assert max(balls) < estimation.MAX_EXPECTED_COUNT < sum(balls)
    with pytest.raises(CapacityError, match="over the cap"):
        size_ladder(UNIT, 2, sides, trials=50)


def test_the_estimator_never_labels_clusters(monkeypatch):
    """The spanning-tree search alone decides crossing; no trial computes labels."""

    def refuse(*args, **kwargs):
        raise AssertionError("the estimator labelled clusters")

    monkeypatch.setattr(boolean_model, "connected_components", refuse)
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 1)
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
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 1)
    lam_hi = estimation._first_bracket(mixture, 2)[1]
    estimation._critical_intensities(mixture, BoxSpec(2, 8.0), 3, 50, lam_hi)
    assert len(sizes) >= 50 and min(sizes) > 0


def test_trial_progress_lines_arrive_in_trial_order(monkeypatch):
    tested = []  # (trial seed, balls) of every configuration a trial tests, in order
    critical_mark = estimation._critical_mark

    def recording_mark(config, box, marks):
        tested.append((config.seed, config.n))
        return critical_mark(config, box, marks)

    monkeypatch.setattr(estimation, "_critical_mark", recording_mark)
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 1)
    box, seed, trials = BoxSpec(2, 8.0), 3, 50
    norm_factor, lam_hi = estimation._first_bracket(UNIT, 2)
    quiet = estimation._critical_intensities(UNIT, box, seed, trials, lam_hi)
    tested.clear()
    lines = []
    critical = estimation._critical_intensities(UNIT, box, seed, trials, lam_hi, lines.append)
    assert critical.tolist() == quiet.tolist()
    assert len(lines) == trials
    layered = 0
    for t, line in enumerate(lines):
        match = re.fullmatch(rf"trial {t}: layers=(\d+) balls=(\d+) lambda~=(\S+)", line)
        assert match, (t, line)
        mine = [balls for trial_seed, balls in tested if trial_seed == derive_seed(seed, t)]
        assert int(match[1]) == len(mine)
        layered += len(mine) > 1
        assert int(match[2]) == mine[-1]
        assert match[3] == f"{critical[t] * norm_factor:.5g}"
    assert layered > 0
    # The estimator passes its callback through: the trial lines come first, then the median.
    lines.clear()
    est = estimate_lambda_c(UNIT, box, trials=trials, seed=seed, progress=lines.append)
    assert [line.split(":")[0] for line in lines[:trials]] == [f"trial {t}" for t in range(trials)]
    assert lines[trials:] == [
        f"median: lambda~={est.normalized:.5g} "
        f"ci=[{est.normalized_ci_low:.5g},{est.normalized_ci_high:.5g}]"
    ]


@pytest.mark.parametrize("mixture", [UNIT, canonicalize(mixture_for_alpha(0.5, 10.0, 2))[0]])
def test_critical_intensities_do_not_depend_on_the_process_count(mixture, monkeypatch):
    """Shares of 25 trials or more, one per CPU: 1, 2 and 3 processes give the same
    bits and report them in trial order; what a trial drew depends on its share."""
    box, seed, trials = BoxSpec(2, 8.0), 6, 75
    norm_factor, lam_hi = estimation._first_bracket(mixture, 2)
    drawn = re.compile(r" layers=\d+ balls=\d+")
    runs = []
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(estimation, "_cpu_count", lambda: cpus)
        lines = []
        critical = estimation._critical_intensities(mixture, box, seed, trials, lam_hi, lines.append)
        runs.append((critical.tolist(), [drawn.sub("", line) for line in lines]))
    assert runs[1:] == runs[:1] * 3
    critical, lines = runs[0]
    assert len(set(critical)) == trials
    assert lines == [f"trial {t}: lambda~={value * norm_factor:.5g}" for t, value in enumerate(critical)]


def critical_intensities_with_lines(box, seed, trials, lam_hi):
    lines = []
    critical = estimation._critical_intensities(UNIT, box, seed, trials, lam_hi, lines.append)
    return critical.tolist(), lines


def test_the_shares_run_in_turn_where_a_fork_is_barred(monkeypatch):
    """A pool worker may not have children, and a fork would copy another
    thread's locks: there the shares run one after another, to the same lines."""
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 2)
    args = (BoxSpec(2, 8.0), 5, 50, estimation._first_bracket(UNIT, 2)[1])
    expected = critical_intensities_with_lines(*args)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(critical_intensities_with_lines, args).get(timeout=120) == expected

    def no_pool(*args):
        raise AssertionError("started a pool while another thread ran")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert critical_intensities_with_lines(*args) == expected
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()


def test_no_worker_outlives_a_run(monkeypatch):
    """The pool's workers are gone after a run, and after a CapacityError in either share."""
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 2)
    box, seed = BoxSpec(2, 8.0), 2
    lam_hi = estimation._first_bracket(UNIT, 2)[1]
    estimation._critical_intensities(UNIT, box, seed, 50, lam_hi)
    assert multiprocessing.active_children() == []
    trial = estimation._trial
    for failing in (3, 30):  # in share 0 (this process) and in share 1 (a worker)

        def over_the_cap(mixture, box, trial_seed, start, lam_hi):
            if trial_seed == derive_seed(seed, failing):
                raise CapacityError(f"trial {failing}")
            return trial(mixture, box, trial_seed, start, lam_hi)

        monkeypatch.setattr(estimation, "_trial", over_the_cap)
        with pytest.raises(CapacityError, match=f"trial {failing}"):
            estimation._critical_intensities(UNIT, box, seed, 50, lam_hi)
        assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_the_run(monkeypatch, capsys):
    """A worker that ends without sending its share, as one killed for memory
    would, fails the run within a bound and leaves no worker behind; the CLI
    exits 3 and names the share and the worker's exit code."""
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 2)
    share = estimation._share

    def dying(mixture, box, seed, trials, lam_hi, progress):
        if trials.start > 0:
            os._exit(7)
        return share(mixture, box, seed, trials, lam_hi, progress)

    def hung(signum, frame):
        raise TimeoutError("the run still waits for the dead worker")

    monkeypatch.setattr(estimation, "_share", dying)
    lam_hi = estimation._first_bracket(UNIT, 2)[1]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="share 1 of the trials ended with exit code 7"):
            estimation._critical_intensities(UNIT, BoxSpec(2, 8.0), 2, 50, lam_hi)
        assert multiprocessing.active_children() == []
        argv = ["threshold", "--d", "2", "--mixture", "1:1", "--L", "8", "--trials", "50", "--quiet"]
        assert cli.main(argv) == 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "share 1 of the trials ended with exit code 7" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


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
        assert scaled.critical == base.critical
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
    assert doubled.critical == halved.critical == base.critical


def test_alpha_endpoints_identical_per_seed():
    e0, e1 = alpha_sweep(10.0, [0.0, 1.0], 2, BoxSpec(2, 12.0), trials=60, seed=3)
    assert e0.normalized == e1.normalized
    assert e0.covered_volume == e1.covered_volume
    assert e0.critical == e1.critical


def test_an_alpha_sweep_point_is_the_estimate_of_its_mixture():
    # The sweep's box side is in units of rho, so L = 12 is the physical box 120.
    (point,) = alpha_sweep(10.0, [0.5], 2, BoxSpec(2, 12.0), trials=60, seed=4)
    alone = estimate_lambda_c(mixture_for_alpha(0.5, 10.0, 2), BoxSpec(2, 120.0), trials=60, seed=4)
    assert dataclasses.astuple(point) == dataclasses.astuple(alone)


def test_each_canonical_problem_is_solved_once(monkeypatch):
    calls = []

    def fake(mixture, box, seed, trials, lam_hi, progress=None):
        calls.append((mixture.atoms, box.side, seed))
        return np.linspace(0.3, 0.4, trials)

    monkeypatch.setattr(estimation, "_critical_intensities", fake)
    lines = []
    e0, e1, _ = alpha_sweep(
        10.0, [0.0, 1.0, 0.5], 2, BoxSpec(2, 12.0), trials=60, seed=3, progress=lines.append
    )
    assert len(calls) == 2 and e0.critical == e1.critical
    assert [line.split(":")[0] for line in lines] == [
        "alpha=0", "median", "alpha=1", "median", "alpha=0.5", "median"
    ]
    calls.clear()
    size_ladder(UNIT, 2, [12.0, 16.0], trials=60, seed=8)
    assert calls == [
        (UNIT.atoms, 12.0, derive_seed(8, 101, 0)),
        (UNIT.atoms, 16.0, derive_seed(8, 101, 1)),
    ]


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
