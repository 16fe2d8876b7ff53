import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contperc
from contperc import thresholds
from contperc.thresholds import (
    AlternationParams,
    distance_profile,
    genealogy_envelope,
    k2_crossover_rho,
    kappa_c,
    kappa_c1_closed_form,
    kappa_c_k,
    objective,
)

from _oracles import reference_kappa_c_k, reference_path_terms


def test_params_validation():
    with pytest.raises(ValueError):
        AlternationParams(1.0, 1, (0.0,))
    with pytest.raises(ValueError):
        AlternationParams(2.0, 0, ())
    with pytest.raises(ValueError):
        AlternationParams(2.0, 2, (0.1,))
    with pytest.raises(ValueError):
        AlternationParams(2.0, 1, (1.0,))


def test_rho_must_be_finite_and_below_overflow():
    for rho in (math.inf, math.nan, 1e308, 2e150, 1.0):
        with pytest.raises(ValueError, match=r"rho must exceed 1 and be at most 1e\+150$"):
            AlternationParams(rho, 1, (0.0,))
        with pytest.raises(ValueError, match="rho must exceed 1"):
            kappa_c_k(rho, 2)
        with pytest.raises(ValueError, match="rho must exceed 1"):
            kappa_c1_closed_form(rho)


def test_kappa_below_one_and_k1_exact_up_to_max_rho():
    # The k = 1 optimum u = ln(rho / 2) lies inside [0, 400] up to rho = 1e150.
    for rho in np.geomspace(1.01, 1e150, 400).tolist():
        assert abs(kappa_c_k(rho, 1).kappa - kappa_c1_closed_form(rho)) <= 1e-12, rho
    assert kappa_c_k(1e10, 1).kappa < 1.0
    for rho in np.geomspace(1.01, 300.0, 6).tolist():
        res = [kappa_c_k(rho, k) for k in range(1, thresholds.MAX_K + 1)]
        assert all(r.kappa < 1.0 and all(math.isfinite(a) for a in r.offsets) for r in res), rho
    # Far above, the true values round to 1.
    for rho in np.geomspace(1e3, 1e150, 6).tolist():
        res = [kappa_c_k(rho, k) for k in range(1, thresholds.MAX_K + 1)]
        assert all(math.isfinite(r.kappa) and r.kappa <= 1.0 + 1e-13 for r in res), rho


def test_distance_profile_zero_offset():
    prof = distance_profile(AlternationParams(3.0, 1, (0.0,)))
    assert prof.distances[0] == 4.0
    assert prof.distances[1] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)


def test_distance_profile_rho3_crossing_offset():
    prof = distance_profile(AlternationParams(3.0, 1, (5.0 / 13.0,)))
    # d_2^2 = 16 + 2*4*(5/13)*4 + 16 = 576/13
    assert prof.final == pytest.approx(24.0 / math.sqrt(13.0), rel=1e-14)


def test_distances_strictly_increase():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        params = AlternationParams(
            float(rng.uniform(1.01, 8.0)), k, tuple(rng.uniform(0.0, 0.99, size=k))
        )
        dists = distance_profile(params).distances
        assert all(b > a for a, b in zip(dists, dists[1:]))


def test_objective_examples():
    gen, geo = objective(AlternationParams(2.0, 1, (0.0,)))
    assert gen == pytest.approx(math.sqrt(8.0 / 9.0), rel=1e-12)
    assert geo == pytest.approx(4.0 / (3.0 * math.sqrt(2.0)), rel=1e-12)
    assert gen == pytest.approx(geo, rel=1e-12)  # branches meet at rho=2, a=0

    gen, geo = objective(AlternationParams(3.0, 1, (5.0 / 13.0,)))
    assert gen == pytest.approx(math.sqrt(13.0) / 4.0, rel=1e-12)
    assert geo == pytest.approx(math.sqrt(13.0) / 4.0, rel=1e-12)

    gen, _ = objective(AlternationParams(1.5, 1, (0.0,)))
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
                gen, geo = objective(AlternationParams(rho, k, tuple(offs)))
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
    # Nelder-Mead from the same three starts stopped at 0.9080610970610745
    # and 0.9323157803200167, in a worse basin than the one SLSQP reaches.
    assert kappa_c_k(10.0, 8).kappa <= 0.9080610970610745 - 1e-6
    assert kappa_c_k(float(np.linspace(1.1, 10, 12)[4]), 6).kappa <= 0.9323157803200167 - 1e-6


def test_no_slsqp_start_reaches_the_iteration_limit(monkeypatch):
    iterations = []
    minimize = thresholds.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        iterations.append(res.nit)
        return res

    monkeypatch.setattr(thresholds, "minimize", counted)
    for rho in np.linspace(1.1, 10.0, 30):  # the kappa-sweep benchmark's rho
        for k in range(1, thresholds.MAX_K + 1):
            solves = len(iterations)
            kappa_c_k(float(rho), k)
            assert len(iterations) - solves <= 1, (rho, k)  # all starts in one solve
    assert iterations
    assert max(iterations) < thresholds._SLSQP_OPTIONS["maxiter"]


def test_slsqp_evaluates_the_path_terms_once_per_point(monkeypatch):
    points, inside, path_terms_calls = set(), [], []
    minimize, path_terms = thresholds.minimize, thresholds._path_terms

    def recorded(fn):
        def wrapper(x):
            points.add(x.tobytes())
            return fn(x)

        return wrapper

    def watched(*args, constraints, **kwargs):
        constraints = {**constraints, "fun": recorded(constraints["fun"])}
        constraints["jac"] = recorded(constraints["jac"])
        inside.append(True)
        try:
            return minimize(*args, constraints=constraints, **kwargs)
        finally:
            inside.pop()

    def counted(*args):
        if inside:
            path_terms_calls.append(args)
        return path_terms(*args)

    monkeypatch.setattr(thresholds, "minimize", watched)
    monkeypatch.setattr(thresholds, "_path_terms", counted)
    for rho in (9.0, 40.0, 1e6):  # every k below refines at these rho
        for k in (1, 2, 3, 5, 12):
            points.clear()
            path_terms_calls.clear()
            kappa_c_k(rho, k)
            assert points and len(path_terms_calls) == len(points), (rho, k)


def test_one_block_solve_matches_three_separate_solves():
    # The benchmark's kappa-sweep rows, which also report the best k.
    for rho in np.linspace(1.1, 10.0, 30).tolist():
        got = [kappa_c_k(rho, k).kappa for k in (1, 2, 3)]
        want = [reference_kappa_c_k(rho, k) for k in (1, 2, 3)]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), rho
        assert np.argmin(got) == np.argmin(want), rho
    for rho in np.geomspace(1.05, 300.0, 12).tolist():
        for k in range(4, thresholds.MAX_K + 1):
            got = kappa_c_k(rho, k).kappa
            assert got == pytest.approx(reference_kappa_c_k(rho, k), rel=1e-13, abs=0.0), (rho, k)


@settings(deadline=None, max_examples=300)
@given(
    st.floats(1.0, 20.0, exclude_min=True),
    st.integers(1, 12).flatmap(
        lambda k: st.lists(
            st.lists(st.floats(0.0, 0.99), min_size=k, max_size=k), min_size=1, max_size=3
        )
    ),
)
def test_term_gradients_match_central_differences(rho, rows):
    u = np.arctanh(np.array(rows))
    step = 1e-7
    shifts = step * np.eye(u.shape[1])  # row i moves coordinate i alone
    terms = thresholds._path_terms(rho, u)
    analytic = thresholds._term_gradients(rho, u, terms)
    for n, point in enumerate(u):
        up = thresholds._path_terms(rho, point + shifts)
        down = thresholds._path_terms(rho, point - shifts)
        numeric = (np.array(up[:2]) - np.array(down[:2])) / (2.0 * step)
        for term in range(2):
            # Rounding in the differences is about 1e-16 * value / step.
            value = terms[term][n]
            assert analytic[term][n] == pytest.approx(numeric[term], rel=1e-5, abs=1e-7 * value)


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
    # brentq checks this too: it raises ValueError unless the gap changes sign.
    def gap(rho):
        return kappa_c_k(rho, 2).kappa - kappa_c_k(rho, 1).kappa

    assert gap(2.0) > 0.0 > gap(12.0)


@st.composite
def paths(draw):
    rho = draw(st.floats(1.0, 20.0, exclude_min=True))
    k = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k))
    return AlternationParams(rho, k, tuple(offsets))


@settings(deadline=None, max_examples=300)
@given(paths())
@example(AlternationParams(2.0, 1, (1.0 - 1e-6,)))
@example(AlternationParams(20.0, 12, (0.999999,) * 12))
def test_vector_terms_match_scalar_reference(params):
    genealogy, geometry, dists = reference_path_terms(params.rho, params.k, params.offsets)
    got_genealogy, got_geometry = objective(params)
    assert got_genealogy == pytest.approx(genealogy, rel=1e-13, abs=0.0)
    assert got_geometry == pytest.approx(geometry, rel=1e-13, abs=0.0)
    assert distance_profile(params).distances == pytest.approx(dists, rel=1e-13, abs=0.0)
    zero = reference_path_terms(params.rho, params.k, (0.0,) * params.k)[0]
    assert genealogy_envelope(params.rho, params.k) == pytest.approx(zero, rel=1e-13, abs=0.0)


def _run_python(code):
    """Run code in a fresh interpreter that imports this contperc."""
    src = os.path.dirname(os.path.dirname(contperc.__file__))
    entries = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    out = _run_python("import sys, contperc.cli; print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


def test_kappa_c_k_coarse_sample_is_fixed_across_processes():
    code = "from contperc.thresholds import kappa_c_k; r = kappa_c_k(3.0, 5); print(r)"
    assert _run_python(code) == _run_python(code)
