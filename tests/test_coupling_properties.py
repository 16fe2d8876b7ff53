"""The coupled threshold trials against the brute-force oracles.

Every ball of a trial carries an arrival intensity, and the trial's
configuration at a level lam is its balls arriving below lam.  Its
indicator, critical intensity < lam, must equal the crossing decision of
that configuration, by clusters() and by the all-pairs oracle.  In the
property test centers, radii and arrivals (marks of a sample at LAM_MAX) are
multiples of powers of two, so arrivals equal to a level occur often and
every comparison is exact; _critical_mark takes its balls in order of
ascending mark, so each case is sorted by mark first.  The trial tests
redraw each trial's balls in arrival order by the draw rule (see
boolean_model.draw), all at once and without calling it, and decide every
level with the oracle.  The sample tests check that the public sampler is
that draw: nested in lambda under one seed, and replaying every trial.
"""

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from contperc import boolean_model, estimation
from contperc.boolean_model import (
    BallConfiguration,
    BoxSpec,
    RadiusMixture,
    clusters,
    expected_count,
    percolates,
    sample,
)
from contperc.estimation import (
    _critical_intensities,
    _critical_mark,
    _first_bracket,
    _trial,
    canonicalize,
    mixture_for_alpha,
)
from contperc.util import derive_seed, stream

from _oracles import brute_force_percolates, reference_critical_mark

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


def by_mark(cfg, marks):
    """The configuration and its marks with the balls in order of ascending mark."""
    order = np.argsort(marks, kind="stable")
    return make_config(cfg.centers[order], cfg.radii[order], cfg.centers.shape[1]), marks[order]


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
    ordered, ascending = by_mark(cfg, marks)
    critical = _critical_mark(ordered, box, ascending)
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


# Realistic sizes: the benchmark's two mixtures, the unit ball and the 1:10
# radius mixture in canonical units, in boxes holding a few hundred to ten
# thousand balls; intensities at half and twice an approximate normalized
# threshold, so that some configurations never cross.
MIXTURES = {"1:1": RadiusMixture.dirac(1.0), "1:10": canonicalize(mixture_for_alpha(0.5, 10.0, 2))[0]}
SIDES = {("1:1", 2): 40.0, ("1:1", 3): 14.0, ("1:1", 4): 8.0, ("1:10", 2): 12.0, ("1:10", 3): 4.5, ("1:10", 4): 4.5}
NORMALIZED_THRESHOLD = {2: 4.51, 3: 2.73, 4: 2.09}


def mark_variants(seed, n, lam):
    """Uniform marks below lam, the same rounded down to 1/16 and to 1/3 of lam, and with exact zeros."""
    u = stream(seed).random(n)
    zeros = u.copy()
    zeros[::5] = 0.0
    return [lam * v for v in (u, np.floor(16.0 * u) / 16.0, np.floor(3.0 * u) / 3.0, zeros)]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_critical_mark_matches_the_reference_at_realistic_sizes(name, d):
    mixture, box = MIXTURES[name], BoxSpec(d, SIDES[name, d])
    norm_factor = _first_bracket(mixture, d)[0]
    results = []
    for factor in (0.5, 2.0):
        lam = factor * NORMALIZED_THRESHOLD[d] / norm_factor
        for seed in (0, 1):
            cfg = sample(mixture, lam, box, derive_seed(seed, d))
            for marks in mark_variants(seed, cfg.n, lam):
                ordered, ascending = by_mark(cfg, marks)
                critical = _critical_mark(ordered, box, ascending)
                assert critical == reference_critical_mark(clusters(ordered, box), ascending)
                results.append(critical)
    assert math.inf in results and any(c < math.inf for c in results)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(MIXTURES)),
    d=st.integers(2, 4),
    seed=st.integers(0, 2**63 - 1),
    level=st.floats(0.0, 2.0),
    fraction=st.floats(0.0, 1.0),
)
@example(name="1:1", d=2, seed=19, level=2.0, fraction=0.5)
@example(name="1:10", d=3, seed=1, level=1.0, fraction=0.0)
@example(name="1:10", d=4, seed=2, level=1.0, fraction=1.0)
def test_samples_are_nested_in_lambda(name, d, seed, level, fraction):
    """Under one seed the sample at lam1 <= lam2 is the first balls of the one
    at lam2, bit for bit, whatever chunks either draw took; so crossing is
    monotone in lambda."""
    mixture, box = MIXTURES[name], BoxSpec(d, SIDES[name, d])
    lam2 = level * NORMALIZED_THRESHOLD[d] / _first_bracket(mixture, d)[0]
    lam1 = lam2 * fraction
    small, large = sample(mixture, lam1, box, seed), sample(mixture, lam2, box, seed)
    mean = expected_count(mixture, lam2, box)
    event("several chunks" if large.n >= int(mean + 2.0 * math.sqrt(mean)) + 8 else "one chunk")
    n = small.n
    assert (small.arrivals < lam1).all() and (large.arrivals[n:] >= lam1).all()
    assert small.arrivals.tobytes() == large.arrivals[:n].tobytes()
    assert small.centers.tobytes() == large.centers[:n].tobytes()
    assert small.radii.tobytes() == large.radii[:n].tobytes()
    assert percolates(clusters(small, box)) <= percolates(clusters(large, box))


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(MIXTURES)), d=st.integers(2, 4), seed=st.integers(0, 2**63 - 1))
def test_sample_replays_each_trial_at_its_critical_intensity(name, d, seed):
    """Trial t's configuration at its critical intensity x_t is
    sample(canon, x_t, box, derive_seed(seed, t)): it does not cross, and one
    float above x_t, with the ball arriving at x_t, it does."""
    mixture, box = MIXTURES[name], BoxSpec(d, SIDES[name, d])
    lam_hi = _first_bracket(mixture, d)[1]
    for t, x in enumerate(_critical_intensities(mixture, box, seed, 4, lam_hi).tolist()):
        trial_seed = derive_seed(seed, t)
        assert not percolates(clusters(sample(mixture, x, box, trial_seed), box))
        above = sample(mixture, float(np.nextafter(x, math.inf)), box, trial_seed)
        assert percolates(clusters(above, box))


def exponential_gaps(rng, n):
    return rng.standard_exponential(n)


def whole_gaps(rng, n):
    """Standard exponentials rounded down, so that about 63% of the gaps are 0."""
    return np.floor(rng.standard_exponential(n))


def drawn_trial(mix, box, trial_seed, count, gaps=exponential_gaps):
    """The first `count` balls of a trial, drawn in one go: centers, radii and arrivals.

    Gaps are standard exponentials over the rate expected_count(mix, 1, box)
    on stream (seed, 0), centers uniform in the halo window on (seed, 1) and
    radii from the atoms on (seed, 2).
    """
    d = box.dimension
    extent = box.side + 2.0 * mix.r_max
    arrivals = np.cumsum(gaps(stream(trial_seed, 0), count) / expected_count(mix, 1.0, box))
    centers = -mix.r_max + stream(trial_seed, 1).random((count, d)) * extent
    if len(mix.radii) == 1:
        radii = np.full(count, mix.r_max)
    else:
        radii = stream(trial_seed, 2).choice(mix.radii, size=count, p=mix.weights / mix.total_mass)
    return make_config(centers.ravel(), radii, d), arrivals


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


def thinned_with_arrivals(cfg, arrivals, lam):
    """The balls arriving below lam and their arrivals."""
    return thinned(cfg, arrivals, lam), arrivals[arrivals < lam]


def rebuild_trials(mix, box, seed, trials, lam_hi, gaps=exponential_gaps, count=400):
    """Each trial's balls, the tops it is tested at, and its critical intensity, by the oracle.

    Trial t runs on derive_seed(seed, t).  It is first tested at lam_hi if
    it is the first trial, else at the largest critical intensity below
    lam_hi of the trials before it; while it has not crossed, at lam_hi,
    then 2 lam_hi, 4 lam_hi and so on.
    """
    balls, tops, criticals = [], [], []
    peak = None
    for t in range(trials):
        cfg, arrivals = drawn_trial(mix, box, derive_seed(seed, t), count, gaps)
        top = lam_hi if peak is None else peak
        tried = []
        while True:
            assert arrivals[-1] > top, "draw more balls"
            tried.append(top)
            critical = oracle_critical(box, *thinned_with_arrivals(cfg, arrivals, top))
            if critical < math.inf:
                break
            top = lam_hi if top < lam_hi else 2.0 * top
        if critical < lam_hi and (peak is None or critical > peak):
            peak = critical
        balls.append((cfg, arrivals))
        tops.append(tried)
        criticals.append(critical)
    return balls, tops, criticals


def oracle_levels(box, balls, lam):
    """Per trial: do its balls arriving below lam cross (all-pairs oracle)?"""
    return [brute_force_percolates(thinned(cfg, arrivals, lam), box) for cfg, arrivals in balls]


def recorded_marks(monkeypatch):
    """Run every trial in this process and record each configuration it tests."""
    tested = []
    critical_mark = estimation._critical_mark

    def recording(config, box, marks):
        tested.append((config, marks))
        return critical_mark(config, box, marks)

    monkeypatch.setattr(estimation, "_critical_mark", recording)
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 1)
    return tested


def test_critical_intensities_match_the_oracle_on_the_trials_drawn_in_arrival_order(monkeypatch):
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_hi = 4, 30, 0.25
    tested = recorded_marks(monkeypatch)
    critical = _critical_intensities(mix, box, seed, trials, lam_hi)
    balls, tops, criticals = rebuild_trials(mix, box, seed, trials, lam_hi)
    assert critical.tolist() == criticals
    # One configuration per top, in order: the trial's balls arriving below it.
    expected = [
        (derive_seed(seed, t), top, thinned_with_arrivals(cfg, arrivals, top))
        for t, ((cfg, arrivals), tried) in enumerate(zip(balls, tops))
        for top in tried
    ]
    assert len(tested) == len(expected)
    for (config, marks), (trial_seed, top, (cfg, arrivals)) in zip(tested, expected):
        assert (config.seed, config.lam) == (trial_seed, top)
        assert marks.tolist() == arrivals.tolist()
        assert config.centers.tolist() == cfg.centers.tolist()
        assert config.radii.tolist() == cfg.radii.tolist()
    # Some trials started below their critical intensity and were extended,
    # some crossed only above lam_hi, and one needed a top above 2 lam_hi.
    assert any(tried[0] < c < lam_hi for tried, c in zip(tops, criticals))
    assert any(c >= lam_hi for c in criticals)
    assert any(c >= 2.0 * lam_hi for c in criticals)
    # Every level reads the oracle on the balls arriving below it.
    for lam in (0.1, 0.2, lam_hi, 0.45, 2.0 * lam_hi, 0.6, 1.0):
        assert (critical < lam).tolist() == oracle_levels(box, balls, lam)


def test_probe_level_at_a_mark_leaves_that_ball_out(monkeypatch):
    # Gaps rounded down to whole multiples of the mean, so that balls share
    # arrivals, and a level at every trial's critical intensity: a trial
    # does not cross at its own critical arrival and does just above it.
    mix = RadiusMixture.dirac(1.0)
    box = BoxSpec(2, 8.0)
    seed, trials, lam_hi = 5, 30, 0.5

    class WholeGaps:
        def __init__(self, seed, *key):
            self.rng = stream(seed, *key)

        def standard_exponential(self, n):
            return whole_gaps(self.rng, n)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    recorded_marks(monkeypatch)
    monkeypatch.setattr(boolean_model, "stream", WholeGaps)
    critical = _critical_intensities(mix, box, seed, trials, lam_hi)
    balls, _, criticals = rebuild_trials(mix, box, seed, trials, lam_hi, whole_gaps, count=800)
    assert critical.tolist() == criticals
    finite = sorted(set(criticals))
    assert len(finite) > 5
    assert any(np.count_nonzero(arrivals == c) > 1 for (_, arrivals), c in zip(balls, criticals))
    levels = [lam for c in finite for lam in (c, float(np.nextafter(c, math.inf)))]
    for lam in levels:
        crossings = (critical < lam).tolist()
        for t, (cfg, arrivals) in enumerate(balls):
            assert crossings[t] == percolates(clusters(thinned(cfg, arrivals, lam), box))
            if criticals[t] == lam:
                assert not crossings[t]
            elif criticals[t] < lam:
                assert crossings[t]


TWO_RADII = canonicalize(mixture_for_alpha(0.5, 4.0, 2))[0]


@settings(max_examples=40, deadline=None)
@given(
    mixture=st.sampled_from([RadiusMixture.dirac(1.0), TWO_RADII]),
    trial_seed=st.integers(0, 2**63 - 1),
    lam_hi=st.sampled_from([0.05, 0.25, 1.0]),
    ratio=st.floats(0.02, 4.0),
)
@example(mixture=RadiusMixture.dirac(1.0), trial_seed=3, lam_hi=0.05, ratio=1.0)
@example(mixture=TWO_RADII, trial_seed=3, lam_hi=1.0, ratio=1.0)
def test_a_trials_critical_intensity_does_not_depend_on_its_start(
    mixture, trial_seed, lam_hi, ratio
):
    """From a start below, at or above its critical intensity, and below or above
    lam_hi (then through the doubling tops), a trial reaches the same value."""
    box = BoxSpec(2, 8.0)
    critical, _, _ = _trial(mixture, box, trial_seed, lam_hi, lam_hi)
    assert 0.0 < critical < math.inf
    for start in (ratio * critical, critical, float(np.nextafter(critical, 0.0)), 2.0 * lam_hi):
        event("start above lam_hi" if start > lam_hi else "start at most lam_hi")
        event("start above critical" if start > critical else "start at most critical")
        assert _trial(mixture, box, trial_seed, start, lam_hi)[0] == critical
