import math
import re
import tracemalloc

import numpy as np
import pytest

from contperc import pathcount
from contperc.cli import DEFAULT_SEED, main
from contperc.geometry import unit_ball_volume
from contperc.pathcount import count_paths, tuple_expectation_exact
from contperc.util import CapacityError

from _oracles import brute_force_chains
from test_chain_properties import chain_counts


def test_tuple_expectation_values():
    assert tuple_expectation_exact(2, 2.0, 0.8, 0) == pytest.approx(0.64, rel=1e-12)
    assert tuple_expectation_exact(2, 2.0, 0.6, 1) == pytest.approx(
        (0.36 * 9.0 / 8.0) ** 2, rel=1e-12
    )
    assert tuple_expectation_exact(2, 2.0, 0.5, 2) == pytest.approx(
        0.5**6 * (9.0 / 8.0) ** 2, rel=1e-12
    )
    # matches the product-of-volumes form at k = 1
    d, rho, kappa = 3, 3.0, 0.5
    vd = unit_ball_volume(d)
    lam1 = kappa**d / (vd * 2.0**d)
    lam_rho = lam1 / rho**d
    direct = lam1 * lam_rho * (vd * (1.0 + rho) ** d) ** 2
    assert tuple_expectation_exact(d, rho, kappa, 1) == pytest.approx(direct, rel=1e-12)


def test_tuple_expectation_is_infinite_past_double_range():
    assert tuple_expectation_exact(6, 1e150, 10.0, 4) == math.inf
    assert tuple_expectation_exact(700, 2.0, 10.0, 0) == math.inf
    # Far below double range it underflows to zero, and d is not capped at the simulated 6.
    assert tuple_expectation_exact(700, 2.0, 0.1, 0) == 0.0
    assert tuple_expectation_exact(40, 2.0, 0.5, 2) == pytest.approx(
        (0.5**3 * 9.0 / 8.0) ** 40, rel=1e-12
    )


@pytest.mark.parametrize(
    "d, rho, kappa, k, message",
    [
        (0, 2.0, 0.5, 1, "dimension"),
        (-3, 2.0, 0.5, 1, "dimension"),
        (2.0, 2.0, 0.5, 1, "dimension"),
        (True, 2.0, 0.5, 1, "dimension"),
        (math.nan, 2.0, 0.5, 1, "dimension"),
        (2, 0.5, 0.5, 1, "rho"),
        (2, 1.0, 0.5, 1, "rho"),
        (2, math.nan, 0.5, 1, "rho"),
        (2, math.inf, 0.5, 1, "rho"),
        (2, 2.0, -1.0, 1, "kappa"),
        (2, 2.0, 0.0, 0, "kappa"),
        (2, 2.0, math.nan, 1, "kappa"),
        (2, 2.0, math.inf, 1, "kappa"),
        (2, 2.0, True, 1, "kappa"),
        (2, 2.0, 0.5, -1, "k must"),
        (2, 2.0, 0.5, 1.0, "k must"),
        (2, 2.0, 0.5, True, "k must"),
        (2, 2.0, 0.5, math.nan, "k must"),
    ],
)
def test_tuple_expectation_validates_like_count_paths(d, rho, kappa, k, message):
    with pytest.raises(ValueError, match=message):
        tuple_expectation_exact(d, rho, kappa, k)
    with pytest.raises(ValueError, match=message):
        count_paths(d, rho, kappa, k, trials=10, seed=0)


def test_validations():
    with pytest.raises(ValueError):
        count_paths(7, 2.0, 0.5, 1, trials=10, seed=0)
    with pytest.raises(ValueError):
        count_paths(2, 2.0, 0.5, 5, trials=10, seed=0)
    with pytest.raises(CapacityError):
        count_paths(6, 5.0, 3.0, 4, trials=10, seed=0)


def test_chain_capacity_fails_before_sampling(monkeypatch, capsys):
    # About 1.6e3 points but 2.6e6 expected 4-chains per trial: only the
    # chain cap is exceeded, and no random stream may be opened.  At rho =
    # 1e150 both expectations pass 1e300, so they are compared in logs.
    def no_sampling(*args):
        raise AssertionError("sampled before the capacity check")

    monkeypatch.setattr(pathcount, "stream", no_sampling)
    for d, rho, kappa, k in ((2, 1.5, 6.0, 4), (6, 1e150, 0.8, 1)):
        with pytest.raises(CapacityError, match="partial chains"):
            count_paths(d, rho, kappa, k, trials=10, seed=0)
        argv = ["--d", str(d), "--rho", str(rho), "--kappa", str(kappa), "--k", str(k)]
        assert main(["paths", *argv, "--quiet"]) == 3
        assert "partial chains" in capsys.readouterr().err


def test_large_rho_counts_match_the_exact_expectation():
    exact = tuple_expectation_exact(2, 1000.0, 0.06, 1)
    for seed in range(1, 6):
        run = count_paths(2, 1000.0, 0.06, 1, trials=4000, seed=seed)
        assert run.mean_m == pytest.approx(exact, abs=4.0 * run.se_m), seed
    # A tiny kappa keeps every count small, although v_d (1 + rho)^d overflows.
    run = count_paths(6, 1e150, 1e-200, 1, trials=10, seed=0)
    assert (run.mean_n, run.mean_m) == (0.0, 0.0)


def test_unit_centres_are_sampled_only_where_a_chain_can_reach(monkeypatch):
    draws = []
    uniform_ball = pathcount._uniform_ball

    def recording(rng, n, d, radius):
        draws.append((n, radius))
        return uniform_ball(rng, n, d, radius)

    monkeypatch.setattr(pathcount, "_uniform_ball", recording)
    rho = 2.5
    for k in (0, 1, 3):
        draws.clear()
        count_paths(3, rho, 0.8, k, trials=50, seed=4)
        unit, large = draws[0::2], draws[1::2]
        assert len(unit) == len(large) >= 1
        assert all(radius == 2.0 * rho + 2.0 * k for _, radius in large)
        if k == 0:
            assert all(n == 0 for n, _ in unit)
        else:
            assert all(radius == 1.0 + rho + 2.0 * (k - 1) for _, radius in unit)
            assert sum(n for n, _ in unit) > 0


def test_chain_counts_manual_config():
    rho = 2.0
    # x1 near the origin ball, x2 a step away, endpoint close to x2
    p1 = np.array([[2.5, 0.0], [4.0, 0.5]])
    pr = np.array([[5.5, 0.5], [20.0, 20.0]])
    n1, m1 = chain_counts(p1, pr, rho, 1)
    # both unit points are within 1+rho of the origin? |x1|=2.5<3, |x2|=4.03>3
    # endpoints within 3 of x1: none (|(5.5,.5)-(2.5,0)|=3.04); so N=M=0 via x1 only
    assert (n1, m1) == (0, 0)
    p1 = np.array([[2.5, 0.0], [2.0, 1.5]])
    n1, m1 = chain_counts(p1, pr, rho, 1)
    # now both start points qualify; endpoint (5.5,.5) is within 3 of (2.5,0)? 3.04 no
    # within 3 of (2,1.5)? |(3.5,-1)| = 3.64 no
    assert (n1, m1) == (0, 0)
    pr = np.array([[4.5, 0.5]])
    n1, m1 = chain_counts(p1, pr, rho, 1)
    # |(2,.5)| = 2.06 < 3 from (2.5,0); |(2.5,-1)| = 2.69 < 3 from (2,1.5)
    assert (n1, m1) == (1, 2)  # one endpoint, two chains


def test_chain_counts_k2_distinctness():
    rho = 2.0
    # chain x1 -> x2 -> endpoint; x1, x2 within 2 of each other
    p1 = np.array([[2.0, 0.0], [3.5, 0.5]])
    pr = np.array([[5.0, 0.5]])
    n2, m2 = chain_counts(p1, pr, rho, 2)
    assert (n2, m2) == (1, 1)
    # with only one unit point no simple 2-chain exists
    n2, m2 = chain_counts(p1[:1], pr, rho, 2)
    assert (n2, m2) == (0, 0)


def test_n_le_m_and_oracle_agreement_small():
    cases = [(2, 2.0, 0.8, 0), (2, 2.0, 0.6, 1), (3, 2.0, 0.6, 1), (2, 2.0, 0.5, 2), (3, 2.5, 0.45, 2)]
    for d, rho, kappa, k in cases:
        run = count_paths(d, rho, kappa, k, trials=20_000, seed=37)
        exact = tuple_expectation_exact(d, rho, kappa, k)
        assert run.mean_m == pytest.approx(exact, abs=3.0 * run.se_m), (d, rho, kappa, k)
        assert run.mean_n <= run.mean_m + 1e-12
        assert run.mean_n <= exact + 3.0 * run.se_n


def test_per_sample_domination():
    rng = np.random.default_rng(8)
    rho = 2.0
    for _ in range(200):
        p1 = rng.uniform(-4, 4, size=(rng.integers(0, 8), 2))
        pr = rng.uniform(-4, 4, size=(rng.integers(0, 4), 2))
        for k in (1, 2, 3):
            n, m = chain_counts(p1, pr, rho, k)
            assert n <= m
    # Chunks whose sparse shapes go empty: no unit points, no large points,
    # and chains that all die before step k (0-row slices of the step
    # matrix).  Only trial 1 of 3 holds points.
    none, one, pair = np.zeros((0, 2)), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [2.0, 0.0]])
    large = np.array([[2.5, 0.0]])
    # The walker shifts its inputs in place, so each call gets copies.
    in_trial_1 = lambda points: (points.copy(), np.ones(len(points), dtype=np.intp))
    for p1, pr in ((none, large), (pair, none), (one, large), (pair, large)):
        for k in (1, 2, 3, 4):
            n, m = pathcount._trial_counts(in_trial_1(p1), in_trial_1(pr), rho, k, 3)
            assert n.dtype == m.dtype == np.int64 and n.shape == m.shape == (3,)
            assert (n <= m).all()
            chains = brute_force_chains(p1, pr, rho, k)
            expected = [(0, 0), (len({j for _, j in chains}), len(chains)), (0, 0)]
            assert list(zip(n.tolist(), m.tolist())) == expected, (len(p1), len(pr), k)


def simple_chain_frontiers(points, trial, rho, k):
    """Sorted distinct last centers of the chains of each length 1..k, enumerated chain by chain."""
    starts = np.einsum("ij,ij->i", points, points) < (1.0 + rho) ** 2
    chains = [(i,) for i in np.flatnonzero(starts).tolist()]
    members = np.split(np.arange(len(trial)), np.flatnonzero(np.diff(trial)) + 1)
    by_trial = {int(trial[m[0]]): m for m in members if m.size}
    frontiers = [sorted({c[-1] for c in chains})]
    for _ in range(k - 1):
        grown = []
        for chain in chains:
            near = by_trial[int(trial[chain[-1]])]
            diff = points[near] - points[chain[-1]]
            steps = near[np.einsum("ij,ij->i", diff, diff) < 4.0]
            grown += [chain + (j,) for j in steps.tolist() if j not in chain]
        chains = grown
        frontiers.append(sorted({c[-1] for c in chains}))
    return frontiers


def test_queries_start_from_the_live_frontier(monkeypatch):
    # In every walk, each unit-side tree but the one over all its unit points
    # must hold exactly the distinct last centers of the live chains, and no
    # query may pair all sampled unit points.
    trees, queries, walks = [], [], []

    class Recording(pathcount.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            trees.append(self)

        def sparse_distance_matrix(self, other, *args, **kwargs):
            queries.append((self, other))
            return super().sparse_distance_matrix(other, *args, **kwargs)

        def query_pairs(self, *args, **kwargs):
            raise AssertionError("query_pairs pairs every sampled unit point")

    trial_counts = pathcount._trial_counts

    def recording(unit, large, *args):
        # Copies: the walker shifts the points it is given in place.
        points, trial, n_large = unit[0].copy(), unit[1], len(large[0])
        first_tree, first_query = len(trees), len(queries)
        counts = trial_counts(unit, large, *args)
        walks.append((points, trial, n_large, trees[first_tree:], queries[first_query:]))
        return counts

    monkeypatch.setattr(pathcount, "cKDTree", Recording)
    monkeypatch.setattr(pathcount, "_trial_counts", recording)
    d, rho, k = 5, 1.5, 4
    run = count_paths(d, rho, 0.9, k, trials=300, seed=7)
    assert run.mean_m > 0.0 and len(walks) > 1
    sizes = np.zeros(k, dtype=int)
    for points, trial, n_large, walk_trees, walk_queries in walks:
        frontiers = simple_chain_frontiers(points, trial, rho, k)
        sizes += [len(f) for f in frontiers]
        whole = walk_trees[0]
        assert whole.n == len(points) and len(walk_trees) == k + 2
        assert len(walk_queries) == k
        for step, ((front, other), expected) in enumerate(zip(walk_queries, frontiers), start=1):
            assert other is (whole if step < k else walk_trees[-1]), step
            assert other.n == (len(points) if step < k else n_large), step
            # Trials are shifted along axis 0 only, so the other axes name the centers.
            assert np.array_equal(front.data[:, 1:], points[expected, 1:]), step
        assert {id(t) for t in walk_trees} == {id(t) for q in walk_queries for t in q}
    # The frontiers of the whole run, summed over its walks.
    assert sizes.tolist() == [498, 277, 133, 70]


@pytest.mark.parametrize("k", range(5))
def test_slices_of_a_chunk_count_as_the_whole_chunk(monkeypatch, k):
    # A budget of 2 points makes most trials walk alone, one over the chunk
    # walks it at once; the counts and progress lines must not tell them apart.
    walks = []
    trial_counts = pathcount._trial_counts

    def counting(*args):
        walks.append(args[4])  # the walk's trials
        return trial_counts(*args)

    monkeypatch.setattr(pathcount, "_trial_counts", counting)
    for d in range(1, 7):
        # E(M_k) = 1 per trial.
        rho, trials = 1.5 + 0.5 * d, 150 if d < 5 else 30
        kappa = (4.0 * rho / (1.0 + rho) ** 2) ** (1.0 / (k + 1)) if k else 1.0
        runs = []
        for budget in (2, 10**9):
            monkeypatch.setattr(pathcount, "_WALK_POINTS", budget)
            walks.clear()
            lines = []
            run = count_paths(d, rho, kappa, k, trials=trials, seed=d, progress=lines.append)
            runs.append((run, lines, len(walks), walks.count(1)))
        (sliced, sliced_lines, n_walks, alone), (whole, whole_lines, n_whole, _) = runs
        # k = 0 samples no unit centers, so its trials hold about one point each.
        assert n_whole == 1 and n_walks > 1 and (2 * alone > trials or k == 0), (d, n_walks, alone)
        assert sliced == whole and sliced_lines == whole_lines, d
        assert whole.mean_m > 0.0, d


def test_a_chunk_holds_its_points_once():
    # The README's run at the point cap: the walker's trees hold the sampled
    # points themselves and span one slice of the chunk, so the traced peak
    # stays below one and a half copies of the points.
    lines = []
    tracemalloc.start()
    try:
        count_paths(6, 4.0, 0.8, 4, trials=42, seed=DEFAULT_SEED, progress=lines.append)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (line,) = lines
    points = sum(map(int, re.findall(r"(?:unit|large)=(\d+)", line)))
    assert points > 250_000
    assert peak < 1.5 * points * 6 * np.dtype(float).itemsize


def test_determinism():
    a = count_paths(2, 2.0, 0.7, 1, trials=5000, seed=12)
    b = count_paths(2, 2.0, 0.7, 1, trials=5000, seed=12)
    assert (a.mean_n, a.mean_m, a.se_n, a.se_m) == (b.mean_n, b.mean_m, b.se_n, b.se_m)
