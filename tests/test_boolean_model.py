import math

import numpy as np
import pytest

from contperc.boolean_model import (
    BallConfiguration,
    BoxSpec,
    RadiusMixture,
    clusters,
    covered_fraction_empirical,
    covered_fraction_exact,
    percolates,
    sample,
)
from contperc.util import CapacityError

from _oracles import brute_force_labels, brute_force_percolates, canonical_labels

UNIT = RadiusMixture.dirac(1.0)


def make_config(centers, radii):
    return BallConfiguration(
        centers=np.asarray(centers, dtype=float),
        radii=np.asarray(radii, dtype=float),
        seed=0,
        lam=0.0,
    )


def test_mixture_validation():
    with pytest.raises(ValueError):
        RadiusMixture([])
    with pytest.raises(ValueError):
        RadiusMixture([(1.0, 1.0), (1.0, 2.0)])  # duplicate radius
    with pytest.raises(ValueError):
        RadiusMixture([(-1.0, 1.0)])
    with pytest.raises(ValueError):
        RadiusMixture([(1.0, 0.0)])
    for atom in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="radii and weights must be finite"):
            RadiusMixture([(0.5, 1.0), atom])
    mix = RadiusMixture([(2.0, 0.5), (0.5, 1.0)])
    assert mix.atoms == ((0.5, 1.0), (2.0, 0.5))  # sorted by radius
    assert mix.total_mass == 1.5
    assert mix.r_max == 2.0
    assert mix.moment(2) == pytest.approx(0.25 + 2.0, rel=1e-14)
    assert mix.doubled_moment(2) == pytest.approx(1.0 + 8.0, rel=1e-14)


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSpec(1, 10.0)
    for side in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="box side must be positive and finite"):
            BoxSpec(2, side)


def test_sample_determinism_and_zero_intensity():
    box = BoxSpec(2, 12.0)
    a = sample(UNIT, 0.4, box, seed=9)
    b = sample(UNIT, 0.4, box, seed=9)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.radii, b.radii)
    c = sample(UNIT, 0.4, box, seed=10)
    assert not np.array_equal(a.centers, c.centers)
    empty = sample(UNIT, 0.0, box, seed=9)
    assert empty.n == 0


def test_a_nan_intensity_is_rejected():
    # Not a sample of no balls, although `while last < lam` never runs for nan.
    with pytest.raises(ValueError, match="intensity must be non-negative, not nan"):
        sample(UNIT, math.nan, BoxSpec(2, 12.0), seed=0)
    with pytest.raises(ValueError, match="intensity must be non-negative, not nan"):
        covered_fraction_exact(UNIT, math.nan, 2)


def test_sample_rejects_small_box_and_capacity():
    with pytest.raises(ValueError):
        sample(UNIT, 0.1, BoxSpec(2, 4.0), seed=0)  # needs side > 4 r_max
    with pytest.raises(CapacityError):
        sample(UNIT, 10.0, BoxSpec(2, 3000.0), seed=0)


def test_sample_halo_window_for_crossing():
    box = BoxSpec(2, 10.0)
    cfg = sample(UNIT, 1.0, box, seed=3)
    assert cfg.centers.min() >= -1.0
    assert cfg.centers.max() < 11.0
    # the halo is r_max wide on every side, also for a mixture
    mix = RadiusMixture([(0.5, 1.0), (2.0, 0.25)])
    cfg = sample(mix, 1.0, box, seed=3)
    assert cfg.centers.min() >= -2.0 and cfg.centers.min() < -1.0
    assert cfg.centers.max() < 12.0 and cfg.centers.max() > 11.0


def test_poisson_count_statistics():
    # the halo window has volume (L + 2 r_max)^d, so the mean count is
    # lam * mass * (L + 2 r_max)^d
    box = BoxSpec(2, 8.0)
    counts = np.array([sample(UNIT, 1.0, box, seed=s).n for s in range(1000)])
    z = (counts.mean() - 100.0) / math.sqrt(100.0 / 1000.0)
    assert abs(z) < 3.0
    mix = RadiusMixture([(0.5, 0.5), (1.5, 0.5)])
    counts = np.array([sample(mix, 1.0, BoxSpec(2, 9.0), seed=s).n for s in range(500)])
    mean = 144.0
    z = (counts.mean() - mean) / math.sqrt(mean / 500.0)
    assert abs(z) < 3.0


def test_radius_frequencies_follow_weights():
    mix = RadiusMixture([(1.0, 3.0), (2.0, 1.0)])
    box = BoxSpec(2, 16.0)
    total = small = 0
    for s in range(200):
        cfg = sample(mix, 0.25, box, seed=s)
        total += cfg.n
        small += int((cfg.radii == 1.0).sum())
    p = small / total
    se = math.sqrt(0.75 * 0.25 / total)
    assert abs(p - 0.75) < 4.0 * se


def test_two_ball_intersection_boundary():
    box = BoxSpec(2, 20.0)
    touching = make_config([[5.0, 5.0], [6.9, 5.0]], [1.0, 1.0])
    assert clusters(touching, box).cluster_count() == 1
    exact = make_config([[5.0, 5.0], [7.0, 5.0]], [1.0, 1.0])
    # open balls: distance exactly r_i + r_j does not connect
    assert clusters(exact, box).cluster_count() == 2


def test_crossing_box_does_not_wrap():
    box = BoxSpec(2, 20.0)
    cfg = make_config([[0.5, 5.0], [19.5, 5.0]], [1.0, 1.0])
    assert clusters(cfg, box).cluster_count() == 2


def test_grid_matches_brute_force_including_mixed_radii():
    mixes = [
        UNIT,
        RadiusMixture([(1.0, 0.7), (2.0, 0.3)]),
        RadiusMixture([(0.1, 30.0), (1.0, 0.4)]),  # wide ratio: class-pair path
    ]
    checked = 0
    for d in (2, 3, 4):
        box = BoxSpec(d, 12.0)
        for mix in mixes:
            if box.side <= 4.0 * mix.r_max:
                continue
            for s in range(12):
                cfg = sample(mix, 0.01 + 0.02 * (s % 4), box, seed=2000 + s)
                if cfg.n == 0 or cfg.n > 200:
                    continue
                labeling = clusters(cfg, box)
                assert np.array_equal(
                    canonical_labels(labeling.labels), brute_force_labels(cfg, box)
                )
                assert percolates(labeling) == brute_force_percolates(cfg, box)
                checked += 1
    assert checked > 40


def test_percolates_basics():
    box = BoxSpec(2, 20.0)
    empty = make_config(np.empty((0, 2)), np.empty(0))
    assert percolates(clusters(empty, box)) is False
    # hand-built crossing chain along axis 1
    xs = np.arange(-0.5, 21.0, 1.5)
    chain = make_config([[x, 10.0] for x in xs], [1.0] * len(xs))
    lab = clusters(chain, box)
    assert percolates(lab) is True


def test_deep_supercritical_crossing():
    lam = 3.0 / math.pi  # normalized intensity well above threshold
    box = BoxSpec(2, 32.0)
    hits = sum(
        percolates(clusters(cfg, box))
        for cfg in (sample(UNIT, lam, box, seed=s) for s in range(100))
    )
    assert hits >= 99


def test_covered_fraction_exact_values():
    assert covered_fraction_exact(UNIT, 0.0, 2) == 0.0
    assert covered_fraction_exact(UNIT, 1.0 / math.pi, 2) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-12
    )
    lam_half = math.log(2.0) / (math.pi * UNIT.moment(2))
    assert covered_fraction_exact(UNIT, lam_half, 2) == pytest.approx(0.5, rel=1e-12)


def test_covered_fraction_empirical():
    box = BoxSpec(2, 40.0)
    empty = make_config(np.empty((0, 2)), np.empty(0))
    assert covered_fraction_empirical(empty, box, probes=100, seed=0) == (0.0, 0.0)
    # generous tolerance: a single configuration also carries ensemble noise
    lam = 0.25
    cfg = sample(UNIT, lam, box, seed=5)
    est = covered_fraction_empirical(cfg, box, probes=500, seed=6)
    exact = covered_fraction_exact(UNIT, lam, 2)
    assert abs(est.fraction - exact) <= 4.0 * est.stderr


def test_coverage_law_pooled():
    box = BoxSpec(2, 24.0)
    lam = 0.3
    exact = covered_fraction_exact(UNIT, lam, 2)
    fracs = np.array(
        [
            covered_fraction_empirical(
                sample(UNIT, lam, box, seed=s), box, probes=1000, seed=10_000 + s
            ).fraction
            for s in range(200)
        ]
    )
    z = (fracs.mean() - exact) / (fracs.std(ddof=1) / math.sqrt(len(fracs)))
    assert abs(z) < 3.0


def test_single_ball_coverage_ratio():
    box = BoxSpec(2, 30.0)
    cfg = make_config([[15.0, 15.0]], [1.0])
    est = covered_fraction_empirical(cfg, box, probes=200_000, seed=1)
    expected = math.pi / 30.0**2
    assert abs(est.fraction - expected) <= 4.0 * max(est.stderr, 1e-6)
