"""The coupled threshold probe against the brute-force oracles.

Every ball of a trial carries an arrival intensity, and the trial's
configuration at a level lam is its balls arriving below lam.  Its
indicator, critical intensity < lam, must equal the crossing decision of
that configuration, by clusters() and by the all-pairs oracle.  In the
property test centers, radii and arrivals (marks of a sample at LAM_MAX) are
multiples of powers of two, so arrivals equal to a level occur often and
every comparison is exact.  The probe tests rebuild each trial's layers from
the layering rule (see estimation._coupled_probe) and decide every level with
the oracle on their union.
"""

import math

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from contperc import estimation
from contperc.boolean_model import (
    BallConfiguration,
    BoxSpec,
    RadiusMixture,
    clusters,
    percolates,
    sample,
)
from contperc.estimation import _coupled_probe, _critical_mark
from contperc.rng import derive_seed, stream

from _oracles import brute_force_percolates

GRID = 0.125
MARK_STEP = 1.0 / 16.0
LAM_MAX = 2.0


def make_config(centers, radii, d=2):
    return BallConfiguration(
        centers=np.asarray(centers, dtype=float).reshape(len(radii), d),
        radii=np.asarray(radii, dtype=float),
        seed=0,
        lam=LAM_MAX,
    )


@st.composite
def marked_configurations(draw):
    """A crossing box, up to 14 balls of 1 to 3 radii near one x_1 line, and dyadic marks."""
    d = draw(st.integers(2, 3))
    classes = draw(st.integers(1, 3))
    class_radii = GRID * np.array(
        draw(st.lists(st.integers(4, 12), min_size=classes, max_size=classes, unique=True))
    )
    r_max = float(class_radii.max())
    side = GRID * draw(st.integers(8, 40))
    ball = st.tuples(
        st.integers(0, classes - 1),
        st.integers(-int(r_max / GRID), int((side + r_max) / GRID)),
        st.lists(st.integers(0, 16), min_size=d - 1, max_size=d - 1),
    )
    balls = draw(st.lists(ball, max_size=14))
    centers = [[GRID * x] + [GRID * y for y in rest] for _, x, rest in balls]
    radii = [float(class_radii[c]) for c, _, _ in balls]
    marks = MARK_STEP * np.array(
        draw(st.lists(st.integers(0, 15), min_size=len(balls), max_size=len(balls))),
        dtype=float,
    )
    return BoxSpec(d, side), make_config(centers, radii, d), marks


def thinned(cfg, marks, keep):
    kept = marks < keep
    return make_config(cfg.centers[kept], cfg.radii[kept], cfg.centers.shape[1])


CHAIN = (BoxSpec(2, 4.0), make_config([[0.5, 0.0], [2.0, 0.0], [3.5, 0.0]], [1.0] * 3))


@settings(max_examples=200, deadline=None)
@given(marked_configurations())
@example((BoxSpec(2, 4.0), make_config([], []), np.empty(0)))
@example((BoxSpec(2, 4.0), make_config([[2.0, 0.0]], [1.0]), np.array([0.25])))
@example((*CHAIN, np.array([0.25, 0.5, 0.125])))
@example((*CHAIN, np.array([0.5, 0.5, 0.5])))
def test_coupled_indicator_matches_thinned_oracles(case):
    box, cfg, marks = case
    critical = _critical_mark(cfg, box, marks)
    event("crosses at lam_max" if critical < 1.0 else "never crosses")
    assert critical == math.inf or critical in marks
    levels = np.concatenate((marks, marks + MARK_STEP / 2, [0.0, 1.0])) * LAM_MAX
    for lam in levels:
        keep = lam / LAM_MAX
        sub = thinned(cfg, marks, keep)
        coupled = bool(critical < keep)
        assert coupled == percolates(clusters(sub, box), sub, box)
        assert coupled == brute_force_percolates(sub, box)


def test_no_crossing_gives_infinite_mark():
    box = BoxSpec(2, 4.0)
    apart = make_config([[0.5, 0.0], [3.5, 0.0]], [1.0, 1.0])
    assert _critical_mark(apart, box, np.array([0.0, 0.0])) == math.inf
    assert _critical_mark(make_config([], []), box, np.empty(0)) == math.inf


def uniform_draws(seed, n):
    return stream(seed).random(n)


def sixteenth_draws(seed, n):
    return np.floor(stream(seed).random(n) / MARK_STEP) * MARK_STEP


def superposed_layer(mix, box, seed, t, j, bottom, top, draws=uniform_draws):
    """Layer j of trial t: a sample at top - bottom, arrivals uniform on [bottom, top)."""
    layer_seed = derive_seed(seed, j, t)
    cfg = sample(mix, top - bottom, box, layer_seed)
    return cfg, bottom + (top - bottom) * draws(derive_seed(layer_seed, 1), cfg.n)


def union(layers):
    """One configuration and its arrivals from a trial's layers."""
    return (
        make_config(
            np.concatenate([cfg.centers.ravel() for cfg, _ in layers]),
            np.concatenate([cfg.radii for cfg, _ in layers]),
        ),
        np.concatenate([arrivals for _, arrivals in layers]),
    )


def oracle_critical(box, cfg, arrivals):
    """Smallest arrival by which the balls arrived so far cross, by bisection on the oracle."""
    if not brute_force_percolates(cfg, box):
        return math.inf
    candidates = np.unique(arrivals)
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        by_mid = thinned(cfg, arrivals, np.nextafter(candidates[mid], math.inf))
        if brute_force_percolates(by_mid, box):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def first_pass(mix, box, seed, trials, lam_hi, draws=uniform_draws):
    """Each trial's layers up to lam_hi and its critical intensity, by the start rule.

    Trial 0 starts at lam_hi and trial t at the largest finite critical
    intensity before it; a trial that has not crossed by its start gets
    layer 1 up to lam_hi.
    """
    layers, criticals, started_low = [], [], []
    peak = None
    for t in range(trials):
        start = lam_hi if peak is None else peak
        trial = [superposed_layer(mix, box, seed, t, 0, 0.0, start, draws)]
        critical = oracle_critical(box, *union(trial))
        if critical == math.inf and start < lam_hi:
            started_low.append(t)
            trial.append(superposed_layer(mix, box, seed, t, 1, start, lam_hi, draws))
            critical = oracle_critical(box, *union(trial))
        if critical < math.inf and (peak is None or critical > peak):
            peak = critical
        layers.append(trial)
        criticals.append(critical)
    return layers, criticals, started_low


def oracle_levels(box, layers, lam):
    """Per trial: do the balls of its layers arriving below lam cross (all-pairs oracle)?"""
    out = []
    for trial in layers:
        cfg, arrivals = union(trial)
        out.append(brute_force_percolates(thinned(cfg, arrivals, lam), box))
    return out


def test_probe_levels_match_the_oracle_on_the_union_of_layers(monkeypatch):
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_hi = 3, 30, 0.3
    calls = []

    def recording_sample(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(estimation, "sample", recording_sample)
    probe = _coupled_probe(mix, box, seed, lam_hi)
    layers, criticals, started_low = first_pass(mix, box, seed, trials, lam_hi)

    below = (0.1, 0.2, lam_hi, 0.25)
    first = [probe(lam, trials, level) for level, lam in enumerate(below)]
    assert first == [oracle_levels(box, layers, lam) for lam in below]
    # Some trials started below their critical intensity and got a layer up
    # to lam_hi: one sample per layer, and no trial resampled.
    assert started_low and any(criticals[t] < lam_hi for t in started_low)
    assert len(calls) == trials + len(started_low)

    # A level above the target doubles it, and each trial still censored
    # gets one more layer, up to the new target; a level below it samples
    # nothing.
    tops = [lam_hi] * trials
    target = lam_hi
    extended = []
    for level, lam in enumerate((0.5, 0.45, 1.0), start=len(below)):
        censored = []
        if lam > target:
            while lam > target:
                target *= 2.0
            censored = [
                t for t, trial in enumerate(layers)
                if not brute_force_percolates(union(trial)[0], box)
            ]
        for t in censored:
            layers[t].append(superposed_layer(mix, box, seed, t, len(layers[t]), tops[t], target))
            tops[t] = target
        made = len(calls)
        assert probe(lam, trials, level) == oracle_levels(box, layers, lam)
        assert sorted(args[3] for args in calls[made:]) == sorted(
            derive_seed(seed, len(layers[t]) - 1, t) for t in censored
        )
        extended.append(censored)
    assert extended[0] and not extended[1]
    assert any(oracle_levels(box, [layers[t]], 0.5)[0] for t in extended[0])
    # The crossed trials kept their values: the lower levels read as before.
    assert [probe(lam, trials, level) for level, lam in enumerate(below, start=7)] == first


def test_probe_level_at_a_mark_leaves_that_ball_out(monkeypatch):
    # Uniform draws rounded down to sixteenths, so balls of a layer share
    # arrivals, and a level at every trial's critical intensity: a trial
    # does not cross at its own critical arrival and does just above it.
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_hi = 5, 30, 0.5

    class SixteenthDraws:
        def __init__(self, seed):
            self.seed = seed

        def random(self, n):
            return sixteenth_draws(self.seed, n)

    monkeypatch.setattr(estimation, "stream", SixteenthDraws)
    probe = _coupled_probe(mix, box, seed, lam_hi)
    layers, criticals, _ = first_pass(mix, box, seed, trials, lam_hi, sixteenth_draws)
    finite = sorted({c for c in criticals if c < math.inf})
    assert len(finite) > 5
    levels = [lam for c in finite for lam in (c, float(np.nextafter(c, math.inf)))]
    for level, lam in enumerate(levels):
        crossings = probe(lam, trials, level)
        for t, trial in enumerate(layers):
            cfg, arrivals = union(trial)
            sub = thinned(cfg, arrivals, lam)
            assert crossings[t] == percolates(clusters(sub, box), sub, box)
            if criticals[t] == lam:
                assert not crossings[t]
            elif criticals[t] < lam:
                assert crossings[t]
