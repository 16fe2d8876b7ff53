"""The coupled threshold probe against the brute-force oracles.

A trial is sampled once at lam_max with a uniform mark on every ball; at a
level lam it keeps the balls with mark < lam / lam_max.  Its indicator,
critical mark < lam / lam_max, must equal the crossing decision of that
thinned configuration, by clusters() and by the all-pairs oracle.  Centers,
radii and marks are multiples of powers of two, so marks equal to a level's
keep probability occur often and every comparison is exact.
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
    thin_configuration,
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


def test_probe_samples_once_per_epoch_and_resamples_on_doubling(monkeypatch):
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_max = 3, 30, 0.4
    calls = []

    def counting_sample(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(estimation, "sample", counting_sample)
    probe = _coupled_probe(mix, box, seed, lam_max)

    def expected(lam, top, doublings):
        out = []
        for t in range(trials):
            trial_seed = derive_seed(seed, doublings, t)
            cfg = sample(mix, top, box, trial_seed)
            sub = thin_configuration(cfg, lam / top, derive_seed(trial_seed, 1))
            cross = percolates(clusters(sub, box), sub, box)
            assert cross == brute_force_percolates(sub, box)
            out.append(cross)
        return out

    for level, lam in enumerate((0.1, 0.4, 0.25)):
        assert probe(lam, trials, level) == expected(lam, lam_max, 0)
    assert len(calls) == trials
    assert all(args[1] == lam_max for args in calls)
    # a level above lam_max doubles it and resamples every trial on a new key
    assert probe(2 * lam_max, trials, 3) == expected(2 * lam_max, 2 * lam_max, 1)
    assert probe(0.3, trials, 4) == expected(0.3, 2 * lam_max, 1)
    assert len(calls) == 2 * trials
    assert probe(3 * lam_max, trials, 5) == expected(3 * lam_max, 4 * lam_max, 2)
    assert len(calls) == 3 * trials


def test_probe_level_at_a_mark_leaves_that_ball_out(monkeypatch):
    # Marks rounded down to sixteenths and levels at sixteenths of lam_max:
    # every crossing trial has a level exactly at its critical mark.
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_max = 5, 30, 0.5

    def marks_for(mark_seed, n):
        return np.floor(stream(mark_seed).random(n) / MARK_STEP) * MARK_STEP

    class SixteenthMarks:
        def __init__(self, mark_seed):
            self.mark_seed = mark_seed

        def random(self, n):
            return marks_for(self.mark_seed, n)

    monkeypatch.setattr(estimation, "stream", SixteenthMarks)
    probe = _coupled_probe(mix, box, seed, lam_max)
    configs = []
    for t in range(trials):
        trial_seed = derive_seed(seed, 0, t)
        cfg = sample(mix, lam_max, box, trial_seed)
        configs.append((cfg, marks_for(derive_seed(trial_seed, 1), cfg.n)))
    for j in range(17):
        keep = j * MARK_STEP
        subs = [thinned(cfg, marks, keep) for cfg, marks in configs]
        assert probe(keep * lam_max, trials, j) == [
            percolates(clusters(sub, box), sub, box) for sub in subs
        ]
