import math

import numpy as np
import pytest

from contperc.branching import (
    gw_critical_kappa,
    gw_critical_kappa_limit,
    mean_matrix,
    perron_root,
    perron_root_log,
)
from contperc.thresholds import kappa_c1_closed_form

from _oracles import power_iteration_largest_eigenvalue, quadratic_largest_eigenvalue


def test_mean_matrix_d1():
    m = np.exp(mean_matrix(1, 1.0, 2.0))
    assert np.allclose(m, [[1.0, 0.75], [1.5, 1.0]], rtol=1e-12)


def test_mean_matrix_d2():
    m = np.exp(mean_matrix(2, 0.5, 3.0))
    assert np.allclose(m, [[0.25, 1.0 / 9.0], [1.0, 0.25]], rtol=1e-12)


def test_diagonal_is_kappa_power():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 400))
        kappa = float(rng.uniform(0.2, 1.5))
        rho = float(rng.uniform(1.01, 12.0))
        log_m = mean_matrix(d, kappa, rho)
        assert log_m[0, 0] == pytest.approx(d * math.log(kappa), rel=1e-10)
        assert log_m[1, 1] == log_m[0, 0]


def test_validation():
    for function in (mean_matrix, perron_root_log, perron_root):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            function(0, 1.0, 2.0)
        for kappa in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="kappa must be positive and finite"):
                function(2, kappa, 2.0)
        with pytest.raises(ValueError, match="rho must exceed 1"):
            function(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gw_critical_kappa(2, 0.9)


def test_perron_root_d1_example():
    assert perron_root(1, 1.0, 2.0) == pytest.approx(1.0 + 3.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_perron_root_matches_power_iteration():
    # power iteration needs the +-lambda near-degeneracy kept moderate,
    # so cap the off-diagonal imbalance; the quadratic-root oracle below
    # covers the full range
    cases = 0
    rng = np.random.default_rng(2)
    while cases < 20:
        d = int(rng.integers(1, 31))  # pre-overflow range
        kappa = float(rng.uniform(0.3, 1.2))
        rho = float(rng.uniform(1.05, 8.0))
        if ((1.0 + rho) / (2.0 * math.sqrt(rho))) ** d > 1e3:
            continue
        oracle = power_iteration_largest_eigenvalue(np.exp(mean_matrix(d, kappa, rho)))
        assert perron_root(d, kappa, rho) == pytest.approx(oracle, rel=1e-9)
        cases += 1


def test_perron_root_matches_quadratic_roots():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = int(rng.integers(1, 31))
        kappa = float(rng.uniform(0.3, 1.2))
        rho = float(rng.uniform(1.05, 8.0))
        assert perron_root(d, kappa, rho) == pytest.approx(
            quadratic_largest_eigenvalue(np.exp(mean_matrix(d, kappa, rho))), rel=1e-9
        )


def test_perron_log_rate_converges():
    kappa, rho = 0.7, 3.0
    target = math.log(kappa * (1.0 + rho) / (2.0 * math.sqrt(rho)))
    gaps = [abs(perron_root_log(d, kappa, rho) / d - target) for d in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    # Past double range the root is inf, as it is 0.0 below it; its log stays finite.
    assert perron_root(1000, 2.0, 2.0) == math.inf
    assert perron_root(1000, 0.1, 2.0) == 0.0
    assert math.isfinite(perron_root_log(1000, 2.0, 2.0))


def test_critical_kappa_makes_root_one():
    for d in (1, 7, 50, 300):
        for rho in (1.2, 2.0, 6.0):
            kappa_star = gw_critical_kappa(d, rho)
            assert abs(perron_root_log(d, kappa_star, rho)) < 1e-12


def test_root_approaches_one_from_above_at_limit_kappa():
    # at kappa = 2 sqrt(rho)/(1+rho) the root is 1 + beta^(-d), decreasing to 1
    for rho in (1.5, 3.0):
        kappa = gw_critical_kappa_limit(rho)
        logs = [perron_root_log(d, kappa, rho) for d in (5, 50, 500)]
        assert all(v > 0.0 for v in logs)
        assert logs[0] > logs[1] > logs[2]
        assert math.exp(logs[-1]) == pytest.approx(1.0, abs=1e-3)


def test_critical_kappa_d1_example():
    assert gw_critical_kappa(1, 2.0) == pytest.approx(
        1.0 / (1.0 + 3.0 / (2.0 * math.sqrt(2.0))), rel=1e-12
    )


def test_critical_kappa_increasing_toward_limit():
    for rho in (1.1, 1.8, 4.0, 10.0):
        limit = gw_critical_kappa_limit(rho)
        values = [gw_critical_kappa(d, rho) for d in (1, 2, 5, 20, 100, 400)]
        # strictly increasing until the correction saturates at double precision
        assert all(b > a for a, b in zip(values[:4], values[1:4]))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v <= limit + 1e-12 for v in values)


def test_convergence_at_d200():
    for rho in np.linspace(1.1, 10.0, 12):
        gap = abs(gw_critical_kappa(200, float(rho)) - gw_critical_kappa_limit(float(rho)))
        assert gap <= 1e-2


def test_limit_matches_path_constant_only_below_rho2():
    for rho in (1.1, 1.5, 2.0):
        assert gw_critical_kappa_limit(rho) == pytest.approx(
            kappa_c1_closed_form(rho), abs=1e-9
        )
    # at rho = 3 geometry wins: sqrt(3)/2 < sqrt(13)/4
    assert gw_critical_kappa_limit(3.0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert gw_critical_kappa_limit(3.0) < kappa_c1_closed_form(3.0) - 0.03
