"""The coupled threshold trials against the brute-force oracles.

Every ball of a trial carries an arrival intensity, and the trial's
configuration at a level lam is its balls arriving below lam.  Its
indicator, critical intensity < lam, must equal the crossing decision of
that configuration, by clusters() and by the all-pairs oracle.  In the
property test centers, radii and arrivals (marks of a sample at LAM_MAX) are
multiples of powers of two, so arrivals equal to a level occur often and
every comparison is exact.  The trial tests rebuild each trial's layers from
the layering rule (see estimation._critical_intensities) and decide every
level with the oracle on their union.
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
from contperc.estimation import _critical_intensities, _critical_mark
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
@example((*CHAIN, np.array([0.0, 0.0, 0.0])))
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
        assert coupled == percolates(clusters(sub, box))
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


def rebuild_trials(mix, box, seed, trials, lam_hi, draws=uniform_draws):
    """Each trial's layers until it crosses and its critical intensity, by the oracle.

    Trial 0 starts at lam_hi and trial t at the largest critical intensity
    below lam_hi of the trials before it; while a trial has not crossed, its
    next layer ends at lam_hi, then at 2 lam_hi, 4 lam_hi and so on.
    """
    layers, criticals = [], []
    start = lam_hi
    for t in range(trials):
        trial, bottom, top = [], 0.0, start
        while True:
            trial.append(superposed_layer(mix, box, seed, t, len(trial), bottom, top, draws))
            critical = oracle_critical(box, *union(trial))
            if critical < math.inf:
                break
            bottom, top = top, lam_hi if top < lam_hi else 2.0 * top
        if critical < lam_hi:
            start = critical if start == lam_hi else max(start, critical)
        layers.append(trial)
        criticals.append(critical)
    return layers, criticals


def oracle_levels(box, layers, lam):
    """Per trial: do the balls of its layers arriving below lam cross (all-pairs oracle)?"""
    out = []
    for trial in layers:
        cfg, arrivals = union(trial)
        out.append(brute_force_percolates(thinned(cfg, arrivals, lam), box))
    return out


def test_critical_intensities_match_the_oracle_on_the_union_of_layers(monkeypatch):
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_hi = 4, 30, 0.25
    calls = []

    def recording_sample(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(estimation, "sample", recording_sample)
    critical = _critical_intensities(mix, box, seed, trials, lam_hi)
    layers, criticals = rebuild_trials(mix, box, seed, trials, lam_hi)
    assert critical.tolist() == criticals
    # One sample per layer, in order, and no layer sampled twice.
    assert [args[3] for args in calls] == [
        derive_seed(seed, j, t) for t, trial in enumerate(layers) for j in range(len(trial))
    ]
    # Some trials started below their critical intensity and were extended,
    # some crossed only above lam_hi, and one needed a layer above 2 lam_hi.
    starts = [trial[0][0].lam for trial in layers]
    assert any(top < c < lam_hi for top, c in zip(starts, criticals))
    assert any(c >= lam_hi for c in criticals)
    assert any(c >= 2.0 * lam_hi for c in criticals)
    # Every level reads the oracle on the union, keeping arrivals < lam.
    for lam in (0.1, 0.2, lam_hi, 0.45, 2.0 * lam_hi, 0.6, 1.0):
        assert (critical < lam).tolist() == oracle_levels(box, layers, lam)


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
    critical = _critical_intensities(mix, box, seed, trials, lam_hi)
    layers, criticals = rebuild_trials(mix, box, seed, trials, lam_hi, sixteenth_draws)
    assert critical.tolist() == criticals
    finite = sorted(set(criticals))
    assert len(finite) > 5
    levels = [lam for c in finite for lam in (c, float(np.nextafter(c, math.inf)))]
    for lam in levels:
        crossings = (critical < lam).tolist()
        for t, trial in enumerate(layers):
            cfg, arrivals = union(trial)
            sub = thinned(cfg, arrivals, lam)
            assert crossings[t] == percolates(clusters(sub, box))
            if criticals[t] == lam:
                assert not crossings[t]
            elif criticals[t] < lam:
                assert crossings[t]
