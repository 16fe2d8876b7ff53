import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contperc import cli, thresholds
from contperc.thresholds import (
    MAX_K,
    genealogy_envelope,
    k2_crossover_rho,
    kappa_c,
    kappa_c1_closed_form,
    kappa_c_k,
    objective,
)

from _oracles import (
    _path_terms,
    _stationary_u,
    bisection_kappa_c_k,
    certified_kappa_bracket,
    high_precision_gap,
    reference_kappa_c_k,
    reference_path_terms,
    reference_term_gradients,
)


def test_params_validation():
    with pytest.raises(ValueError):
        objective(1.0, (0.0,))
    with pytest.raises(ValueError):
        objective(2.0, ())
    with pytest.raises(ValueError):
        objective(2.0, (1.0,))
    for offsets, u in (((), ()), ((), (-1e-3,)), ((), (math.inf,)), ((), (math.nan,)), ((0.5,), (0.5,))):
        with pytest.raises(ValueError, match="u must be"):
            objective(2.0, offsets, u=u)


def test_rho_must_be_finite_and_below_overflow():
    for rho in (math.inf, math.nan, 1e308, 2e150, 1.0):
        with pytest.raises(ValueError, match=r"rho must exceed 1 and be at most 1e\+150$"):
            objective(rho, (0.0,))
        with pytest.raises(ValueError, match="rho must exceed 1"):
            kappa_c_k(rho, 2)
        with pytest.raises(ValueError, match="rho must exceed 1"):
            kappa_c1_closed_form(rho)


def test_kappa_below_one_and_k1_exact_up_to_max_rho():
    for rho in np.geomspace(1.01, 1e150, 400).tolist():
        assert abs(kappa_c_k(rho, 1).kappa - kappa_c1_closed_form(rho)) <= 1e-14, rho
    assert kappa_c_k(1e10, 1).kappa < 1.0
    for rho in np.geomspace(1.01, 300.0, 6).tolist():
        res = [kappa_c_k(rho, k) for k in range(1, thresholds.MAX_K + 1)]
        assert all(r.kappa < 1.0 and all(math.isfinite(a) for a in r.offsets) for r in res), rho
    # Far above, the true values round to 1.
    for rho in np.geomspace(1e3, 1e150, 6).tolist():
        res = [kappa_c_k(rho, k) for k in range(1, thresholds.MAX_K + 1)]
        assert all(math.isfinite(r.kappa) and r.kappa <= 1.0 + 1e-13 for r in res), rho


def distance(rho, offsets):
    """The distance D_k reached by the path with these offsets, from its
    geometry term 2 rho / D_k; the library keeps no other distance."""
    return 2.0 * rho / objective(rho, offsets)[1]


def test_distance_profile_zero_offset():
    assert distance(3.0, (0.0,)) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)


def test_distance_profile_rho3_crossing_offset():
    # d_2^2 = 16 + 2*4*(5/13)*4 + 16 = 576/13
    assert distance(3.0, (5.0 / 13.0,)) == pytest.approx(24.0 / math.sqrt(13.0), rel=1e-14)


def test_distances_strictly_increase():
    # Every step leaves D_0 = 1 + rho farther behind, and more so at a
    # larger offset.
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        rho = float(rng.uniform(1.01, 8.0))
        offsets = rng.uniform(0.0, 0.99, size=k).tolist()
        assert distance(rho, [0.0] * k) > 1.0 + rho
        for j in range(k):
            lower = offsets[:j] + [0.5 * offsets[j]] + offsets[j + 1:]
            assert distance(rho, offsets) > distance(rho, lower), (rho, offsets, j)


def test_objective_examples():
    gen, geo = objective(2.0, (0.0,))
    assert gen == pytest.approx(math.sqrt(8.0 / 9.0), rel=1e-12)
    assert geo == pytest.approx(4.0 / (3.0 * math.sqrt(2.0)), rel=1e-12)
    assert gen == pytest.approx(geo, rel=1e-12)  # branches meet at rho=2, a=0

    for gen, geo in (objective(3.0, (5.0 / 13.0,)), objective(3.0, u=(math.log(1.5),))):
        assert gen == pytest.approx(math.sqrt(13.0) / 4.0, rel=1e-12)
        assert geo == pytest.approx(math.sqrt(13.0) / 4.0, rel=1e-12)

    gen, _ = objective(1.5, (0.0,))
    assert gen == pytest.approx(2.0 * math.sqrt(1.5) / 2.5, rel=1e-12)


def test_monotone_branches():
    # genealogy nondecreasing, geometry nonincreasing in each offset
    for rho, k in ((1.5, 1), (3.0, 1), (2.5, 2)):
        grid = np.linspace(0.0, 0.95, 20)
        for axis in range(k):
            prev = None
            for a in grid:
                offs = [0.3] * k
                offs[axis] = float(a)
                gen, geo = objective(rho, tuple(offs))
                if prev is not None:
                    assert gen >= prev[0] - 1e-12
                    assert geo <= prev[1] + 1e-12
                prev = (gen, geo)


def test_closed_form_branches():
    assert kappa_c1_closed_form(2.0) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-14)
    # both branch formulas agree at rho = 2
    assert math.sqrt(4.0 + 4.0) / 3.0 == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-14)
    assert kappa_c1_closed_form(10.0) == pytest.approx(math.sqrt(104.0) / 11.0, rel=1e-14)
    assert kappa_c1_closed_form(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        kappa_c1_closed_form(0.5)


def test_optimizer_recovers_closed_form_subset():
    for rho in np.linspace(1.05, 10.0, 25):
        res = kappa_c_k(float(rho), 1)
        assert abs(res.kappa - kappa_c1_closed_form(float(rho))) <= 1e-6
        assert res.kappa == max(res.branch_values)
        if rho >= 2.0:
            expected_a = (rho * rho - 4.0) / (rho * rho + 4.0)
            assert abs(res.offsets[0] - expected_a) <= 1e-4


def test_spec_point_values():
    res = kappa_c_k(1.5, 1)
    assert res.kappa == pytest.approx(0.9797958971132712, abs=1e-6)
    assert res.offsets[0] <= 1e-4
    res = kappa_c_k(3.0, 1)
    assert res.kappa == pytest.approx(math.sqrt(13.0) / 4.0, abs=1e-6)
    assert res.offsets[0] == pytest.approx(5.0 / 13.0, abs=1e-4)
    res = kappa_c_k(2.0, 3)
    assert res.kappa >= (8.0 / 9.0) ** 0.25 - 1e-12


def test_envelope_bound_subset():
    for rho in (1.2, 2.0, 6.0):
        for k in (1, 2, 4):
            res = kappa_c_k(rho, k)
            assert res.kappa >= genealogy_envelope(rho, k) - 1e-12


def test_kappa_c_certification_and_values():
    res = kappa_c(1.5, 4)
    assert res.kappa == pytest.approx(0.9797958971132712, abs=1e-6)
    assert res.k_used == 1
    assert res.certified is True
    # spec arithmetic: envelope already exceeds the min from k = 2 on
    assert genealogy_envelope(1.5, 2) == pytest.approx(0.98648, abs=1e-4)
    assert genealogy_envelope(1.5, 2) > res.kappa

    res2 = kappa_c(2.0, 4)
    assert res2.kappa == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-6)

    for rho, k_max in ((1.3, 3), (4.0, 5), (9.0, 6)):
        res = kappa_c(rho, k_max)
        assert 0.0 < res.kappa < 1.0
        assert res.kappa >= genealogy_envelope(rho, 1) - 1e-12


def test_kappa_c_stops_early_with_the_full_minimum(monkeypatch):
    # Against the minimum over every k, the first smallest winning ties;
    # kappa_c reads the same per-k results, solved once.
    solve = thresholds.kappa_c_k
    for rho in np.geomspace(1.01, 1e6, 9).tolist() + [1.5, 2.0, 3.0, 10.0, 1e150]:
        results = [solve(rho, k) for k in range(1, MAX_K + 1)]
        monkeypatch.setattr(thresholds, "kappa_c_k", lambda rho, k: results[k - 1])
        for k_max in range(1, MAX_K + 1):
            best = min(results[:k_max], key=lambda r: r.kappa)
            certified = genealogy_envelope(rho, k_max + 1) >= best.kappa
            assert kappa_c(rho, k_max) == replace(best, certified=certified), (rho, k_max)


def test_kappa_c_solves_only_until_the_envelope_passes_the_minimum(monkeypatch):
    calls = []
    solve = thresholds.kappa_c_k
    monkeypatch.setattr(thresholds, "kappa_c_k", lambda rho, k: calls.append(k) or solve(rho, k))
    res = kappa_c(1.5, 12)
    assert calls == [1]
    assert (res.k_used, res.certified) == (1, True)
    # Made-up values at rho = 1.5, each above its envelope 0.96^(1/(k+1)):
    # k = 3 wins although the envelope at k = 4 exceeds the k = 1 value, and
    # the envelope at k = 4 then ends the search.
    fake = {1: 0.99, 2: 0.995, 3: 0.9899}
    assert genealogy_envelope(1.5, 3) < 0.9899 < 0.99 < genealogy_envelope(1.5, 4)
    calls.clear()
    monkeypatch.setattr(
        thresholds, "kappa_c_k",
        lambda rho, k: calls.append(k) or replace(res, kappa=fake[k], k_used=k),
    )
    assert (kappa_c(1.5, 12).k_used, calls) == (3, [1, 2, 3])


def test_k1_achieves_minimum_below_rho2():
    for rho in (1.2, 1.7, 2.0):
        assert kappa_c(rho, 5).k_used == 1


def test_large_rho_prefers_longer_paths():
    res = kappa_c(10.0, 3)
    assert res.k_used > 1
    assert res.kappa < kappa_c1_closed_form(10.0) - 1e-3


def test_capacity_limit():
    with pytest.raises(ValueError, match=r"k must lie in 1\.\.12"):
        kappa_c_k(2.0, 13)
    with pytest.raises(ValueError):
        kappa_c(2.0, 13)


def test_long_paths_reach_the_better_basin():
    # A former Nelder-Mead solve from three coarse starts stopped at
    # 0.9080610970610745 and 0.9323157803200167, in a worse basin.
    assert kappa_c_k(10.0, 8).kappa <= 0.9080610970610745 - 1e-6
    assert kappa_c_k(float(np.linspace(1.1, 10, 12)[4]), 6).kappa <= 0.9323157803200167 - 1e-6


def test_shooting_is_never_above_the_slsqp_oracle():
    # The oracle's value is that of a point it found, so it cannot lie below
    # the minimum; 2e-15 relative (about 10 ulps) covers the two evaluations'
    # rounding, including the oracle's 1 - a^2 from a rounded a.
    cases = [(rho, k) for rho in np.linspace(1.1, 10.0, 30).tolist() for k in (1, 2, 3)]
    cases += [(rho, k) for rho in np.geomspace(1.05, 300.0, 12).tolist() for k in range(4, MAX_K + 1)]
    for rho, k in cases:
        want = reference_kappa_c_k(rho, k)
        assert kappa_c_k(rho, k).kappa <= want * (1.0 + 2e-15), (rho, k)


def test_shooting_lies_in_the_certified_bracket():
    # The bracket's ends each round by a few ulps; 1e-15 covers them.
    cases = [(rho, k, 1e-9) for rho in np.linspace(1.1, 10.0, 30).tolist() for k in (1, 2)]
    cases += [(rho, 3, 1e-6) for rho in (1.5, 3.0, 10.0)]
    for rho, k, eps in cases:
        low, high = certified_kappa_bracket(rho, k, eps)
        assert high - low <= eps, (rho, k)
        assert low - 1e-15 <= kappa_c_k(rho, k).kappa <= high + 1e-15, (rho, k)


def assert_same_as_bisection(rho, k):
    got, want = kappa_c_k(rho, k), bisection_kappa_c_k(rho, k)
    assert (got.kappa, got.u, got.branch_values) == (want.kappa, want.u, want.branch_values), (rho, k)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        st.floats(0.0, math.log(1e150), exclude_min=True).map(math.exp),
        st.floats(0.0, 16.0).map(lambda x: 1.0 + 10.0**-x),
    ).filter(lambda rho: 1.0 < rho <= 1e150),
    st.integers(1, MAX_K),
)
@example(1e150, MAX_K)
@example(1.000001, MAX_K)
@example(1.0 + 2.0**-52, 1)
def test_located_crossing_replays_the_bisection_bit_for_bit(rho, k):
    # Locating the crossing first only skips midpoints whose side is certain,
    # so every float of the result is the plain bisection's.
    assert_same_as_bisection(rho, k)


def test_located_crossing_replays_the_bisection_on_the_sweep_grids():
    # The golden and benchmark sweeps (30 steps) and the default sweep (90).
    rhos = {3.0, *np.linspace(1.1, 10.0, 30).tolist(), *np.linspace(1.1, 10.0, 90).tolist()}
    for rho in sorted(rhos):
        for k in range(1, MAX_K + 1):
            assert_same_as_bisection(rho, k)


def test_the_benchmark_sweep_evaluates_the_curve_at_most_1550_times(monkeypatch, capsys):
    # Plain bisection evaluates the curve 4311 times on these 90 solves, and
    # the zero offsets once per solve; the replay takes 1489 evaluations in
    # all.  Each solve builds one evaluator.
    build, calls = thresholds._evaluator, []

    def counted(rho, k):
        evaluate = build(rho, k)

        def counted_evaluate(u):
            calls.append(len(u))
            return evaluate(u)

        return counted_evaluate

    monkeypatch.setattr(thresholds, "_evaluator", counted)
    assert cli.main(["kappa-sweep", "--rho-min", "1.1", "--rho-max", "10", "--steps", "30", "--quiet"]) == 0
    assert 90 < len(calls) <= 1550


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.floats(0.0, math.log(1e150), exclude_min=True).map(math.exp),
        st.just(1.0 + 1e-12),
    ).filter(lambda rho: 1.0 < rho <= 1e150),
    st.integers(1, MAX_K),
    st.lists(st.integers(1, 2**30), min_size=1, max_size=12),
    st.lists(st.floats(-1e-6, 1e-6), max_size=6),
)
@example(1e4, 2, [890399562], [-1e-6, 0.0, 1e-6])
@example(1e150, MAX_K, [1, 2**30], [-1e-6, 0.0, 1e-6])
@example(1.0 + 1e-12, MAX_K, [1, 2**30], [0.0])
def test_the_curve_gap_lies_in_the_rounding_band_and_increases(rho, k, steps, nears):
    # u_1 on a grid of 2^30 steps over (0, hi], coarse enough for 60 digits
    # to order the exact gaps, and within 1e-6 relative of the solve's own.
    # The replay needs the computed gap within doubt / 2 of the exact one;
    # the largest error seen, at the first example, is about doubt / 8.
    hi = (k + 2) * math.log(2.0) - math.log(4.0 * rho) + 2.0 * math.log1p(rho)
    u_star = kappa_c_k(rho, k).u[0]
    points = sorted(({i * 2.0**-30 * hi for i in steps} | {u_star * (1.0 + t) for t in nears}) - {0.0})
    evaluate = thresholds._evaluator(rho, k)
    exact = [high_precision_gap(rho, k, u_1) for u_1 in points]
    for u_1, want in zip(points, exact):
        got = thresholds._log_gap(evaluate([u_1])[1])
        assert abs(got - want) <= thresholds._DOUBT * (k + 1) * hi / 4, (u_1, got, want)
    assert all(a < b for a, b in zip(exact, exact[1:]))


def test_the_bisection_bracket_stays_below_360(monkeypatch):
    # _BISECTIONS is sized for hi < 360; hi grows with rho and k, so a
    # longer path than MAX_K allows must size it anew.
    find, tops = thresholds._certain_sides, []

    def recorded(evaluate, k, hi, f_0, f_hi):
        tops.append(hi)
        return find(evaluate, k, hi, f_0, f_hi)

    monkeypatch.setattr(thresholds, "_certain_sides", recorded)
    for k in range(1, MAX_K + 1):
        kappa_c_k(1e150, k)
    assert len(tops) == MAX_K and max(tops) < 360.0


@settings(deadline=None, max_examples=300)
@given(
    st.floats(0.0, math.log(1e150), exclude_min=True).map(math.exp).filter(lambda rho: rho <= 1e150),
    st.integers(1, MAX_K),
    st.floats(0.0, 1.0, exclude_min=True),
)
@example(1e150, MAX_K, 1.0)
@example(1.0 + 2.0**-52, 1, 1.0)
def test_the_evaluator_returns_the_frozen_floats(rho, k, share):
    # u_1 anywhere in the solve's bracket (0, hi]; the frozen copies in
    # _oracles are the curve and terms the goldens were written with.
    hi = (k + 2) * math.log(2.0) - math.log(4.0 * rho) + 2.0 * math.log1p(rho)
    evaluate = thresholds._evaluator(rho, k)
    want = _stationary_u(rho, share * hi, k)
    assert evaluate([share * hi]) == (want, _path_terms(rho, want)[:2])
    zero = [0.0] * k
    assert evaluate(zero) == (zero, _path_terms(rho, zero)[:2])


@pytest.mark.parametrize("rho", [1e9, 1e50, 1e150])
def test_reported_u_round_trips_through_objective(rho):
    # Past rho of about 3e8 the largest offset rounds to 1, which the
    # offsets form of objective rejects; u stays exact.
    for k in range(1, MAX_K + 1):
        res = kappa_c_k(rho, k)
        assert objective(rho, u=res.u) == res.branch_values, k
        assert res.kappa == max(res.branch_values), k
    assert kappa_c_k(rho, 1).offsets == (1.0,)
    with pytest.raises(ValueError, match="offsets must be"):
        objective(rho, kappa_c_k(rho, 1).offsets)


@settings(deadline=None, max_examples=300)
@given(
    st.floats(1.0, 20.0, exclude_min=True),
    st.integers(1, 12).flatmap(lambda k: st.lists(st.floats(0.0, 0.99), min_size=k, max_size=k)),
)
def test_reference_gradients_match_central_differences(rho, offsets):
    # The SLSQP oracle's gradients, against its own terms.
    u = np.arctanh(np.array(offsets))
    k = len(offsets)
    step = 1e-7
    terms = reference_path_terms(rho, k, np.tanh(u))
    analytic = reference_term_gradients(rho, k, u)
    for i in range(k):
        shift = step * np.eye(k)[i]
        up = reference_path_terms(rho, k, np.tanh(u + shift))
        down = reference_path_terms(rho, k, np.tanh(u - shift))
        for term in range(2):
            numeric = (up[term] - down[term]) / (2.0 * step)
            # Rounding in the differences is about 1e-16 * value / step.
            assert analytic[term][i] == pytest.approx(numeric, rel=1e-5, abs=1e-7 * terms[term])


def test_k2_crossover_location():
    # the k = 2 optimum overtakes k = 1 somewhere above rho = 2
    rho_star = k2_crossover_rho(tol=0.05)
    assert 2.0 < rho_star < 12.0
    assert kappa_c_k(rho_star + 0.5, 2).kappa < kappa_c_k(rho_star + 0.5, 1).kappa


def test_k2_crossover_tol_must_be_positive_and_finite(monkeypatch):
    monkeypatch.setattr(thresholds, "kappa_c_k", None)  # fails before optimizing
    for tol in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            k2_crossover_rho(tol)


def test_k2_crossover_bracket_changes_sign():
    # k2_crossover_rho bisects between these two ends.
    def gap(rho):
        return kappa_c_k(rho, 2).kappa - kappa_c_k(rho, 1).kappa

    assert gap(2.0) > 0.0 > gap(12.0)


@st.composite
def paths(draw):
    rho = draw(st.floats(1.0, 20.0, exclude_min=True))
    k = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k))
    return rho, tuple(offsets)


@settings(deadline=None, max_examples=300)
@given(paths())
@example((2.0, (1.0 - 1e-6,)))
@example((20.0, (0.999999,) * 12))
def test_vector_terms_match_scalar_reference(path):
    rho, offsets = path
    k = len(offsets)
    genealogy, geometry, dists = reference_path_terms(rho, k, offsets)
    got_genealogy, got_geometry = objective(rho, offsets)
    assert got_genealogy == pytest.approx(genealogy, rel=1e-13, abs=0.0)
    assert got_geometry == pytest.approx(geometry, rel=1e-13, abs=0.0)
    assert distance(rho, offsets) == pytest.approx(dists[-1], rel=1e-13, abs=0.0)
    zero = reference_path_terms(rho, k, (0.0,) * k)[0]
    assert genealogy_envelope(rho, k) == pytest.approx(zero, rel=1e-13, abs=0.0)
