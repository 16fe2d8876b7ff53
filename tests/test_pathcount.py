import math

import numpy as np
import pytest

from contperc import pathcount
from contperc.cli import main
from contperc.errors import CapacityError
from contperc.pathcount import (
    chain_counts,
    chain_counts_sliced,
    count_paths,
    intensities,
    tuple_expectation_exact,
)
from contperc.geometry import unit_ball_volume


def test_intensities():
    lam1, lam_rho = intensities(2, 2.0, 0.8)
    assert lam1 == pytest.approx(0.64 / (4.0 * math.pi), rel=1e-12)
    assert lam_rho == pytest.approx(lam1 / 4.0, rel=1e-12)


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
    lam1, lam_rho = intensities(d, rho, kappa)
    vd = unit_ball_volume(d)
    direct = lam1 * lam_rho * (vd * (1.0 + rho) ** d) ** 2
    assert tuple_expectation_exact(d, rho, kappa, 1) == pytest.approx(direct, rel=1e-12)


def test_validations():
    with pytest.raises(ValueError):
        count_paths(7, 2.0, 0.5, 1, trials=10, seed=0)
    with pytest.raises(ValueError):
        count_paths(2, 2.0, 0.5, 5, trials=10, seed=0)
    with pytest.raises(CapacityError):
        count_paths(6, 5.0, 3.0, 4, trials=10, seed=0)


def test_chain_capacity_fails_before_sampling(monkeypatch, capsys):
    # About 1.6e3 points but 2.6e6 expected 4-chains per trial: only the
    # chain cap is exceeded, and no random stream may be opened.
    def no_sampling(*args):
        raise AssertionError("sampled before the capacity check")

    monkeypatch.setattr(pathcount, "stream", no_sampling)
    with pytest.raises(CapacityError, match="partial chains"):
        count_paths(2, 1.5, 6.0, 4, trials=10, seed=0)
    argv = ["paths", "--d", "2", "--rho", "1.5", "--kappa", "6", "--k", "4", "--quiet"]
    assert main(argv) == 3
    assert "partial chains" in capsys.readouterr().err


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


def test_slice_decomposition_matches_total():
    rng = np.random.default_rng(9)
    rho = 2.0
    total_checked = 0
    for _ in range(300):
        p1 = rng.uniform(-5, 5, size=(rng.integers(1, 9), 2))
        pr = rng.uniform(-5, 5, size=(rng.integers(1, 5), 2))
        for k in (1, 2, 3):
            for n_slices in (1, 3, 8):
                tally, m_total = chain_counts_sliced(p1, pr, rho, k, n_slices)
                _, m_ref = chain_counts(p1, pr, rho, k)
                assert m_total == m_ref
                assert sum(tally.values()) == m_ref
                assert all(len(key) == k for key in tally)
                assert all(0 <= idx < n_slices for key in tally for idx in key)
                total_checked += m_ref
    assert total_checked > 100


def test_determinism():
    a = count_paths(2, 2.0, 0.7, 1, trials=5000, seed=12)
    b = count_paths(2, 2.0, 0.7, 1, trials=5000, seed=12)
    assert (a.mean_n, a.mean_m, a.se_n, a.se_m) == (b.mean_n, b.mean_m, b.se_n, b.se_m)
