import math

import numpy as np
import pytest
from scipy.special import betainc

from contperc.geometry import (
    SlabSpec,
    _log_betainc,
    log_slab_volume,
    log_unit_ball_volume,
    log_upper_cap_fraction,
    slab_log_rate,
    slab_volume,
    unit_ball_volume,
)

from _oracles import rejection_sample_slab_volume


def test_unit_ball_low_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_recursion():
    # v_d = v_{d-2} * 2 pi / d, exact relation for the gamma recurrence
    for d in (20, 37, 100, 200):
        assert unit_ball_volume(d) == pytest.approx(
            unit_ball_volume(d - 2) * 2.0 * math.pi / d, rel=1e-12
        )


def test_unit_ball_invalid_dimension():
    with pytest.raises(ValueError):
        unit_ball_volume(0)
    with pytest.raises(ValueError):
        unit_ball_volume(-2)
    with pytest.raises(ValueError):
        log_unit_ball_volume(0)


def test_slabspec_validation():
    with pytest.raises(ValueError):
        SlabSpec(0, 1.0, 0.0, 1.0)
    for radius in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            SlabSpec(2, radius, 0.0, 1.0)
    with pytest.raises(ValueError):
        SlabSpec(2, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        SlabSpec(2, 1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        SlabSpec(2, 1.0, 0.2, 1.1)


def test_full_slab_is_whole_ball():
    # a = 0, b = 1 keeps everything
    assert slab_volume(SlabSpec(1, 1.0, 0.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
    assert slab_volume(SlabSpec(2, 1.0, 0.0, 1.0)) == pytest.approx(math.pi, rel=1e-12)
    assert slab_volume(SlabSpec(5, 1.7, 0.0, 1.0)) == pytest.approx(
        unit_ball_volume(5) * 1.7**5, rel=1e-12
    )


def test_cap_volume_d3_closed_form():
    # cap of height h: pi h^2 (3 - h) / 3
    h = 0.5
    expected = math.pi * h * h * (3.0 - h) / 3.0
    assert slab_volume(SlabSpec(3, 1.0, 0.5, 1.0)) == pytest.approx(expected, rel=1e-12)
    # and with a radius scale
    assert slab_volume(SlabSpec(3, 2.0, 0.5, 1.0)) == pytest.approx(
        8.0 * expected, rel=1e-12
    )


def test_log_betainc_matches_scipy():
    worst = 0.0
    for a in (0.5, 1.0, 3.5, 10.0, 100.5, 750.5):
        for b in (0.5, 1.0, 2.5, 40.0):
            for x in (0.005, 0.2, 0.5, 0.8, 0.995):
                ref = betainc(a, b, x)
                if ref == 0.0:
                    continue
                mine = math.exp(_log_betainc(a, b, x))
                worst = max(worst, abs(mine - ref) / ref)
    assert worst < 5e-12


def test_cap_fraction_is_exact_at_both_ends():
    for d in (1, 2, 3, 2000, 10**6):
        assert log_upper_cap_fraction(d, 0.0) == math.log(0.5)
        assert log_upper_cap_fraction(d, 1.0) == -math.inf


def test_slab_up_to_the_top_is_exact():
    # At b = 1 the upper cap is empty, so nothing is subtracted.
    for d in (1, 2, 3, 2000, 10**6):
        for r in (0.5, 1.0, 3.0):
            log_scale = d * math.log(r) + log_unit_ball_volume(d)
            assert log_slab_volume(SlabSpec(d, r, 0.0, 1.0)) == log_scale
            for a in (0.25, 0.5, 0.9):
                expected = log_scale + log_upper_cap_fraction(d, a)
                assert log_slab_volume(SlabSpec(d, r, a, 1.0)) == expected, (d, r, a)


def test_partition_identity():
    # slabs over any partition of [0, 1] tile the ball exactly once
    rng = np.random.default_rng(5)
    for d in (2, 3, 7, 16, 30):
        for r in (0.5, 1.0, 2.3):
            cuts = np.sort(rng.uniform(0.05, 0.95, size=6))
            fractions = np.concatenate([[0.0], cuts, [1.0]])
            total = sum(
                slab_volume(SlabSpec(d, r, float(a), float(b)))
                for a, b in zip(fractions, fractions[1:])
            )
            assert total == pytest.approx(unit_ball_volume(d) * r**d, rel=1e-10)


def test_sandwich_bounds_up_to_d100():
    # cylinder upper bound and inscribed-cone-difference lower bound
    for d in range(3, 101):
        for a, b in ((0.1, 0.2), (0.3, 0.9), (0.6, 0.7), (0.9, 1.0)):
            for r in (0.5, 1.0, 2.0):
                log_ratio = log_slab_volume(SlabSpec(d, r, a, b)) - d * math.log(r)
                log_side = log_unit_ball_volume(d - 1) + 0.5 * (d - 1) * math.log1p(-a * a)
                upper = log_side + math.log1p(-a)
                lower = log_side - math.log(d) + math.log(b - a)
                assert lower - 1e-9 <= log_ratio <= upper + 1e-9, (d, a, b, r)


def test_half_ball_bounds_for_zero_lower_fraction():
    # a = 0: between half the ball and the whole ball
    for d in (2, 5, 40):
        for b in (0.2, 0.6, 1.0):
            vol = slab_volume(SlabSpec(d, 1.0, 0.0, b))
            vd = unit_ball_volume(d)
            assert 0.5 * vd <= vol * (1 + 1e-12) and vol <= vd * (1 + 1e-12)


def test_log_rate_limit_spec_points():
    assert abs(slab_log_rate(SlabSpec(1000, 1.0, 0.0, 0.5)) - 0.0) < 0.01
    assert abs(slab_log_rate(SlabSpec(1000, 2.0, 0.6, 0.7)) - math.log(1.6)) < 0.02


def test_log_rate_convergence_is_monotone_toward_limit():
    limit = math.log(2.0 * math.sqrt(1.0 - 0.36))
    errs = [
        abs(slab_log_rate(SlabSpec(d, 2.0, 0.6, 0.7)) - limit) for d in (200, 800, 3200)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_monte_carlo_agreement_d3_d4():
    rng = np.random.default_rng(11)
    for d, r, a, b in ((3, 1.0, 0.25, 0.75), (3, 2.0, 0.0, 0.4), (4, 1.0, 0.5, 1.0)):
        est, se = rejection_sample_slab_volume(d, r, a, b, 200_000, rng)
        exact = slab_volume(SlabSpec(d, r, a, b))
        assert abs(est - exact) <= 3.0 * se, (d, r, a, b, est, exact, se)


def test_underflow_goes_to_log_space():
    spec = SlabSpec(2000, 1.0, 0.6, 0.7)
    assert slab_volume(spec) == 0.0  # below double range
    assert np.isfinite(log_slab_volume(spec))
    spec = SlabSpec(3, 1e200, 0.0, 1.0)
    assert slab_volume(spec) == math.inf  # above double range
    assert np.isfinite(log_slab_volume(spec)) and np.isfinite(slab_log_rate(spec))
