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
optimizer works in u = atanh(a), where 1 - a^2 = sech^2 u does not cancel as
the optimal offsets crowd toward 1: a coarse stage (a full grid for k <= 3,
a fixed uniform sample beyond) followed by SLSQP on the epigraph form,
minimize t subject to t >= genealogy(u) and t >= geometry(u): two smooth
constraints with analytic gradients replace the max, which is not
differentiable on the crossing.  The three best coarse points are refined
together, as three blocks of one SLSQP problem that share no variable.
Every value, from the coarse stage to the reported kappa, comes from one
vectorised evaluation of both terms, and the coarse sample is fixed, so
results depend on (rho, k) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize

from .rng import stream
from .util import check_rho

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

MAX_K = 12
# u = atanh(a) <= 400 keeps cosh(u) and the genealogy term finite; it passes
# ln(rho / 2), the k = 1 optimum, for every rho up to util's 1e150.
_U_MAX = 400.0
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
    rho: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Genealogy term, geometry term and distances for each row of (n, k) u = atanh(a).

    log genealogy = (log 4 rho - 2 log1p(rho) + sum log cosh u_i) / (k + 1).
    d_1 = 1 + rho and d_i^2 = d_{i-1}^2 + 2 r_i a_i d_{i-1} + r_i^2, the
    law of cosines for a step of length r_i leaving at radial offset a_i.
    Interior steps link unit balls (r_i = 2), the last one reaches a ball of
    the large radius (r_{k+1} = 1 + rho).  The distances come back as k + 1
    arrays of length n.
    """
    k = u.shape[1]
    # The ufunc reduce skips np.sum's Python wrapper, once per SLSQP evaluation.
    log_cosh = np.add.reduce(np.log(np.cosh(u)), axis=1)
    genealogy = np.exp((math.log(4.0 * rho) - 2.0 * math.log1p(rho) + log_cosh) / (k + 1))
    a = np.tanh(u)
    dists = [np.full(u.shape[0], 1.0 + rho)]
    for j, r_i in enumerate([2.0] * (k - 1) + [1.0 + rho]):
        prev = dists[-1]
        dists.append(np.sqrt(prev * prev + 2.0 * r_i * a[:, j] * prev + r_i * r_i))
    return genealogy, 2.0 * rho / dists[-1], dists


def distance_profile(params: AlternationParams) -> DistanceProfile:
    """Build the distance sequence d_1, ..., d_{k+1} for the given offsets."""
    _, _, dists = _path_terms(params.rho, np.arctanh([params.offsets]))
    return DistanceProfile(tuple(float(d[0]) for d in dists))


def objective(params: AlternationParams) -> tuple[float, float]:
    """Return (genealogy_term, geometry_term); the caller takes the max."""
    genealogy, geometry, _ = _path_terms(params.rho, np.arctanh([params.offsets]))
    return float(genealogy[0]), float(geometry[0])


def genealogy_envelope(rho: float, k: int) -> float:
    """Zero-offset lower bound (4 rho / (1+rho)^2)^(1/(k+1)) for kappa_c(rho, k)."""
    return float(_path_terms(rho, np.zeros((1, k)))[0][0])


def _term_gradients(
    rho: float, u: np.ndarray, terms: tuple[np.ndarray, np.ndarray, list[np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """d(genealogy)/du and d(geometry)/du, each (n, k), at each row of u = atanh(a),
    from the terms `_path_terms(rho, u)` returned there.  da_i/du_i = sech^2 u_i,
    and distances differentiate forward,
    dd_j = (d_{j-1} + r_j a_j) / d_j dd_{j-1} + r_j d_{j-1} / d_j e_j."""
    genealogy, geometry, dists = terms
    k = u.shape[1]
    a = np.tanh(u)
    d_dist = np.zeros(u.shape)
    for j, r_j in enumerate([2.0] * (k - 1) + [1.0 + rho]):
        d_dist *= ((dists[j] + r_j * a[:, j]) / dists[j + 1])[:, None]
        d_dist[:, j] = r_j * dists[j] / dists[j + 1]
    sech = 1.0 / np.cosh(u)
    d_geometry = -(geometry / dists[-1])[:, None] * d_dist * sech * sech
    return genealogy[:, None] * a / (k + 1), d_geometry


def kappa_c_k(rho: float, k: int) -> KappaResult:
    """Minimize the alternating-path objective over offsets in [0, 1)^k.

    Coarse stage, in a: a full grid with step 0.05 per coordinate for
    k <= 3, 4096 uniform points from a fixed stream plus the zero offsets
    beyond that; for rho > 2 one more point has every u_i = ln(rho / 2).
    The three best candidates start one SLSQP solve of the epigraph form
    over three independent blocks (u_b, t_b), with the objective sum t_b and
    a block-diagonal constraint Jacobian; each point's terms are evaluated
    once for both the constraints and their Jacobian.  The solutions,
    clipped to the bounds, are evaluated with the coarse optimum in one
    batch, and the first smallest wins.  The solve converges well inside the
    iteration limit for every k <= MAX_K.  k = 1 meets kappa_c1_closed_form
    to 1e-14 for every rho up to 1e150.
    """
    check_rho(rho)
    if not isinstance(k, int) or not 1 <= k <= MAX_K:
        raise ValueError(f"k must lie in 1..{MAX_K}")

    if k <= 3:
        axis = np.arctanh(np.arange(0.0, 1.0, _GRID_STEP))
        candidates = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    else:
        sample = np.arctanh(stream(_COARSE_SEED, k).random((_COARSE_POINTS, k)))
        candidates = np.vstack([sample, np.zeros((1, k))])
    if rho > 2.0:
        candidates = np.vstack([candidates, np.full((1, k), math.log(rho / 2.0))])

    genealogy, geometry, _ = _path_terms(rho, candidates)
    values = np.maximum(genealogy, geometry)
    order = np.argsort(values)

    finalists = candidates[order[:1]]
    # No offset lowers the genealogy term, so a coarse optimum at its
    # zero-offset value is exact and needs no refinement.
    starts = order[:3] if values[order[0]] > genealogy_envelope(rho, k) else order[:0]
    if starts.size:
        # One block (u_b, t_b) per start: minimize sum t_b subject to
        # t_b - genealogy(u_b) >= 0 and t_b - geometry(u_b) >= 0.  The blocks
        # share no variable, so each reaches the optimum of its own solve.
        m = starts.size
        blocks = np.arange(m)
        last = {}

        def terms(x: np.ndarray) -> tuple:
            # SLSQP asks for the gaps and their Jacobian at the same point and
            # overwrites x in place, so the memo keeps a copy.
            if "x" not in last or not np.array_equal(last["x"], x):
                last["x"] = x.copy()
                last["terms"] = _path_terms(rho, x.reshape(m, k + 1)[:, :k])
            return last["terms"]

        def gaps(x: np.ndarray) -> np.ndarray:
            genealogy, geometry, _ = terms(x)
            return (x[k :: k + 1, None] - np.column_stack([genealogy, geometry])).ravel()

        def gaps_jac(x: np.ndarray) -> np.ndarray:
            d_terms = _term_gradients(rho, x.reshape(m, k + 1)[:, :k], terms(x))
            jac = np.zeros((m, 2, m, k + 1))
            jac[blocks, :, blocks, :k] = -np.stack(d_terms, axis=1)
            jac[blocks, :, blocks, k] = 1.0
            return jac.reshape(2 * m, m * (k + 1))

        t_grad = np.tile(np.eye(k + 1)[-1], m)
        res = minimize(
            lambda x: x[k :: k + 1].sum(),
            np.column_stack([candidates[starts], values[starts]]).ravel(),
            jac=lambda x: t_grad,
            method="SLSQP",
            bounds=([(0.0, _U_MAX)] * k + [(None, None)]) * m,
            constraints={"type": "ineq", "fun": gaps, "jac": gaps_jac},
            options=_SLSQP_OPTIONS,
        )
        refined = np.clip(res.x.reshape(m, k + 1)[:, :k], 0.0, _U_MAX)
        finalists = np.vstack([finalists, refined])

    genealogy, geometry, _ = _path_terms(rho, finalists)
    best = int(np.argmin(np.maximum(genealogy, geometry)))
    branches = (float(genealogy[best]), float(geometry[best]))
    return KappaResult(
        kappa=max(branches),
        offsets=tuple(float(a) for a in np.tanh(finalists[best])),
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
    best = min((kappa_c_k(rho, k) for k in range(1, k_max + 1)), key=lambda r: r.kappa)
    return replace(best, certified=genealogy_envelope(rho, k_max + 1) >= best.kappa)


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


def k2_crossover_rho(tol: float = 1e-3) -> float:
    """Numerically locate where kappa_c(rho, 2) first drops below kappa_c(rho, 1).

    Brent's method on kappa_c_k(rho, 2) - kappa_c_k(rho, 1) over rho in
    [2, 12] to absolute tolerance tol, which must be positive and finite;
    brentq raises ValueError unless the gap changes sign between the two
    ends.  This is an empirical crossover estimate only; no claim is made
    that the k = 1 optimum stays global all the way up to this point.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    def gap(rho: float) -> float:
        return kappa_c_k(rho, 2).kappa - kappa_c_k(rho, 1).kappa

    return brentq(gap, 2.0, 12.0, xtol=tol)
