"""Percolation threshold estimation and the scale-free quantities built on it.

The estimator bisects the intensity lambda toward crossing probability 1/2
in a finite box and uses a Wilson 95% interval at every level to decide
the bisection branch; the loop stops when the bracket is relatively narrow
or when both endpoints' intervals straddle 1/2, i.e. the statistical
resolution of the trial budget is exhausted.

The trials are shared across levels (common random numbers, the
Newman-Ziff coupling).  Every ball of a seeded trial carries an arrival
intensity, and a level at lambda keeps the balls arriving below lambda, so
each trial is reduced to its critical intensity, the latest arrival on a
minimax path between the two faces.  The trials are sampled once, before
the first level, in superposed Poisson layers until each has crossed (see
_critical_intensities); a level at lambda then reads critical < lambda.

Scale handling.  Before simulating, the mixture is canonicalized: radii are
divided by the largest radius and weights by the total mass, the box side is
re-expressed in the same units, and the estimated intensity is mapped back
through the exact scaling identities

    lambda_c(c * mixture) = lambda_c(mixture) / c,
    lambda_c(radii scaled by s) = lambda_c(mixture) / s^d.

The normalized threshold lambda_c * v_d * sum w (2r)^d and the covered
volume are computed from the canonical run, so mixtures that are equal up
to scale and mass produce bit-identical normalized results under matched
seeds ("radii scaled last").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .boolean_model import (
    MAX_SIMULATION_DIMENSION,
    BallConfiguration,
    BoxSpec,
    RadiusMixture,
    clusters,
    sample,
)
from .geometry import unit_ball_volume
from .rng import derive_seed, stream
from .util import check_rho, ipow

__all__ = [
    "LevelStat",
    "ThresholdEstimate",
    "LadderResult",
    "AlphaEstimate",
    "wilson_interval",
    "canonicalize",
    "estimate_lambda_c",
    "size_ladder",
    "mu_d_transform",
    "multiscale_family",
    "mixture_for_alpha",
    "alpha_sweep",
]

# 97.5% normal quantile for Wilson 95% intervals.
_Z95 = 1.959963984540054

# Levels before the bisection stops anyway, however small the tolerance.
_MAX_LEVELS = 80

ProgressFn = Callable[[str], None]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    Unlike the Wald interval it behaves correctly for proportions near 0
    and 1, which is where bisection spends its early levels.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class LevelStat:
    """One bisection level: its intensity, trial outcomes and the Wilson interval."""

    lam: float
    trials: int
    successes: int
    wilson_low: float
    wilson_high: float
    indicators: tuple[bool, ...] = field(repr=False)

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials

    @property
    def straddles(self) -> bool:
        return self.wilson_low <= 0.5 <= self.wilson_high


@dataclass(frozen=True)
class ThresholdEstimate:
    """Critical intensity estimate with its derived scale-free quantities.

    ci_low / ci_high are the final bisection bracket.  normalized is
    lambda_c * v_d * sum w (2r)^d and covered_volume equals
    1 - exp(-normalized / 2^d) exactly.
    """

    lambda_c: float
    ci_low: float
    ci_high: float
    box_side: float
    trials_per_level: int
    normalized: float
    covered_volume: float
    dimension: int
    seed: int
    normalized_ci_low: float
    normalized_ci_high: float
    levels: tuple[LevelStat, ...] = field(repr=False, default=())


def canonicalize(mixture: RadiusMixture) -> tuple[RadiusMixture, float, float]:
    """Return (canonical mixture, radius scale, mass) with r_max = mass = 1."""
    scale = mixture.r_max
    mass = mixture.total_mass
    canon = RadiusMixture(
        zip((mixture.radii / scale).tolist(), (mixture.weights / mass).tolist())
    )
    return canon, scale, mass


def _critical_mark(config: BallConfiguration, box: BoxSpec, marks: np.ndarray) -> float:
    """Smallest q at which the balls with mark < q cross the box; inf if none do.

    This is the minimax mark over the paths between the two faces.  The hit
    graph gains two face nodes, weighing 0, joined to the balls touching each
    face, and every edge weighs the larger of its ends' marks, floored at the
    smallest positive float because csgraph drops zero weights.  The minimum
    spanning tree holds a minimax path between any two nodes, so the search
    from the low face node decides crossing, and the answer is the largest
    mark on its path to the high one.
    """
    labeling = clusters(config, box)
    n = config.n
    low = np.flatnonzero(labeling.touches_low)
    high = np.flatnonzero(labeling.touches_high)
    a = np.concatenate((labeling.edges[0], np.full(low.size, n), np.full(high.size, n + 1)))
    b = np.concatenate((labeling.edges[1], low, high))
    node_weight = np.concatenate((np.maximum(marks, 5e-324), [0.0, 0.0]))
    weight = np.maximum(node_weight[a], node_weight[b])
    tree = minimum_spanning_tree(coo_matrix((weight, (a, b)), shape=(n + 2, n + 2)))
    _, pred = breadth_first_order(tree, n, directed=False, return_predecessors=True)
    if pred[n + 1] < 0:
        return math.inf
    pred = pred.tolist()
    path = []
    node = pred[n + 1]
    while node != n:
        path.append(node)
        node = pred[node]
    return float(marks[path].max())


def _critical_intensities(
    mixture: RadiusMixture, box: BoxSpec, seed: int, trials: int, lam_hi: float
) -> np.ndarray:
    """Every trial's critical intensity, sampled layer by layer until it crosses.

    Every ball of a trial carries an arrival intensity, and the trial's
    configuration at a level lam is its balls arriving below lam, so it
    crosses exactly when its critical intensity is below lam.  A trial is a
    stack of independent layers: layer j on derive_seed(seed, j, t) is a
    sample at intensity top - bottom with arrivals uniform on [bottom, top),
    the arrivals drawn from the layer seed's key 1.  Their union is one
    sample at the top intensity with uniform arrivals below it.

    Layer 0 of trial 0 ends at lam_hi; layer 0 of trial t ends at the largest
    critical intensity below lam_hi of the trials before it (lam_hi if there
    is none).  That start depends only on earlier, independent trials, so
    every trial is still an exact draw.  While a trial has not crossed, its
    next layer ends at lam_hi, then at 2 lam_hi, 4 lam_hi and so on.
    """
    critical = np.empty(trials)
    peak = None  # the largest critical intensity below lam_hi so far
    for t in range(trials):
        bottom, top = 0.0, lam_hi if peak is None else peak
        layer = 0
        while True:
            layer_seed = derive_seed(seed, layer, t)
            cfg = sample(mixture, top - bottom, box, layer_seed)
            fresh = bottom + (top - bottom) * stream(derive_seed(layer_seed, 1)).random(cfg.n)
            if layer == 0:
                union, arrivals = cfg, fresh
            else:
                union = BallConfiguration(
                    centers=np.concatenate((union.centers, cfg.centers)),
                    radii=np.concatenate((union.radii, cfg.radii)),
                    seed=union.seed,
                    lam=top,
                )
                arrivals = np.concatenate((arrivals, fresh))
            critical[t] = _critical_mark(union, box, arrivals)
            if critical[t] < math.inf:
                break
            bottom, top = top, lam_hi if top < lam_hi else 2.0 * top
            layer += 1
        if critical[t] < lam_hi and (peak is None or critical[t] > peak):
            peak = critical[t]
    return critical


def estimate_lambda_c(
    mixture: RadiusMixture,
    box: BoxSpec,
    trials: int,
    target_rel_tol: float = 0.02,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> ThresholdEstimate:
    """Estimate the critical intensity by bisection on the crossing probability.

    The trials are shared across levels (common random numbers) in the
    canonicalized box: _critical_intensities gives each trial's critical
    intensity, and a level at lam reads which of them lie below lam.  The
    initial bracket starts at the branching lower-bound heuristic
    lambda_lo = 1 / (v_d sum w (2r)^d) with lambda_hi = 8 lambda_lo, and
    doubles outward until the endpoints are decisively sub- and
    supercritical, which every finite set of critical intensities allows.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials per level")
    if not target_rel_tol > 0.0:
        raise ValueError("target_rel_tol must be positive")
    d = box.dimension
    if d > MAX_SIMULATION_DIMENSION:
        raise ValueError(
            f"simulation is supported for dimension <= {MAX_SIMULATION_DIMENSION}; "
            "box volumes explode beyond that"
        )

    canon, scale, mass = canonicalize(mixture)
    canon_box = BoxSpec(dimension=d, side=box.side / scale)
    norm_factor = unit_ball_volume(d) * canon.doubled_moment(d)
    lam_lo = 1.0 / norm_factor
    lam_hi = 8.0 * lam_lo
    critical = _critical_intensities(canon, canon_box, seed, trials, lam_hi)
    levels: list[LevelStat] = []

    def evaluate(lam: float) -> LevelStat:
        level = len(levels)
        indicators = tuple((critical < lam).tolist())
        successes = sum(indicators)
        wl, wh = wilson_interval(successes, trials)
        stat = LevelStat(
            lam=lam,
            trials=trials,
            successes=successes,
            wilson_low=wl,
            wilson_high=wh,
            indicators=indicators,
        )
        levels.append(stat)
        if progress is not None:
            progress(
                f"level {level}: lambda~={lam * norm_factor:.5g} "
                f"p={stat.p_hat:.3f} wilson=[{wl:.3f},{wh:.3f}]"
            )
        return stat

    stat_lo = evaluate(lam_lo)
    stat_hi = evaluate(lam_hi)

    # Every critical intensity is finite and non-negative, so both loops stop.
    while stat_hi.wilson_low <= 0.5:
        lam_hi *= 2.0
        stat_hi = evaluate(lam_hi)
    while stat_lo.wilson_high >= 0.5:
        lam_lo *= 0.5
        stat_lo = evaluate(lam_lo)

    while True:
        rel_width = (lam_hi - lam_lo) / (0.5 * (lam_hi + lam_lo))
        if rel_width <= target_rel_tol:
            break
        if stat_lo.straddles and stat_hi.straddles:
            break  # statistical resolution exhausted
        if len(levels) >= _MAX_LEVELS:
            break
        mid = math.sqrt(lam_lo * lam_hi)
        stat_mid = evaluate(mid)
        if stat_mid.wilson_low > 0.5:
            lam_hi, stat_hi = mid, stat_mid
        elif stat_mid.wilson_high < 0.5:
            lam_lo, stat_lo = mid, stat_mid
        elif stat_mid.p_hat >= 0.5:
            lam_hi, stat_hi = mid, stat_mid
        else:
            lam_lo, stat_lo = mid, stat_mid

    # Interpolate to crossing probability 1/2 inside the final bracket.
    ratio = lam_hi / lam_lo
    pa, pb = stat_lo.p_hat, stat_hi.p_hat
    if pb > pa:
        t = min(1.0, max(0.0, (0.5 - pa) / (pb - pa)))
    else:
        t = 0.5
    # Clamped because lam_lo * ratio**1 can round one ulp above lam_hi.
    lam_c = min(max(lam_lo * ratio**t, lam_lo), lam_hi)

    denom = mass * ipow(scale, d)
    normalized = lam_c * norm_factor
    return ThresholdEstimate(
        lambda_c=lam_c / denom,
        ci_low=lam_lo / denom,
        ci_high=lam_hi / denom,
        box_side=box.side,
        trials_per_level=trials,
        normalized=normalized,
        covered_volume=-math.expm1(-normalized / ipow(2.0, d)),
        dimension=d,
        seed=int(seed),
        normalized_ci_low=lam_lo * norm_factor,
        normalized_ci_high=lam_hi * norm_factor,
        levels=tuple(levels),
    )


@dataclass(frozen=True)
class LadderResult:
    """Finite-size ladder: one estimate per box side, largest side last."""

    estimates: tuple[ThresholdEstimate, ...]
    drifts: tuple[float, ...]
    headline: ThresholdEstimate
    systematic: bool


def size_ladder(
    mixture: RadiusMixture,
    d: int,
    sides: Sequence[float],
    trials: int,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> LadderResult:
    """Estimate at increasing box sides and flag unresolved finite-size drift.

    Every side runs estimate_lambda_c at its default tolerance.  The
    headline number is the largest-box estimate; the systematic flag is
    raised when the drift of the last step exceeds that estimate's CI width.
    """
    sides = list(sides)
    if not sides:
        raise ValueError("need at least one box side")
    if any(b <= a for a, b in zip(sides, sides[1:])):
        raise ValueError("sides must be strictly increasing")
    estimates = []
    for i, side in enumerate(sides):
        if progress is not None:
            progress(f"ladder level {i}: L={side:g}")
        estimates.append(
            estimate_lambda_c(
                mixture,
                BoxSpec(dimension=d, side=float(side)),
                trials,
                seed=derive_seed(seed, 101, i),
                progress=progress,
            )
        )
    drifts = tuple(
        abs(b.normalized - a.normalized) for a, b in zip(estimates, estimates[1:])
    )
    headline = estimates[-1]
    ci_width = headline.normalized_ci_high - headline.normalized_ci_low
    systematic = bool(drifts) and drifts[-1] > ci_width
    return LadderResult(
        estimates=tuple(estimates),
        drifts=drifts,
        headline=headline,
        systematic=systematic,
    )


def mu_d_transform(mixture: RadiusMixture, d: int) -> RadiusMixture:
    """Reweight atoms by r^(-d): (r, w) -> (r, w r^(-d)).

    This makes the expected number of balls of each radius covering a fixed
    point independent of the dimension.  d = 0 is the identity.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError("d must be a non-negative integer")
    new_weights = mixture.weights / ipow(mixture.radii, d)
    return RadiusMixture(zip(mixture.radii.tolist(), new_weights.tolist()))


def multiscale_family(n: int, a: float, d: int) -> RadiusMixture:
    """Geometric multiscale mixture with atoms (a^-k, a^(d k)) for k < n.

    Every atom contributes the same d-th moment w r^d = 1, so the n scales
    carry equal coverage weight.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not a > 1.0:
        raise ValueError("a must exceed 1")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    atoms = [(1.0 / ipow(a, k), ipow(a, d * k)) for k in range(n)]
    return RadiusMixture(atoms)


def mixture_for_alpha(alpha: float, rho: float, d: int) -> RadiusMixture:
    """The interpolation (1-alpha) delta_1 + alpha rho^-d delta_rho.

    Both endpoints are unit-radius models up to scale and mass, so their
    normalized thresholds agree; interior alphas mix the two radii.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    check_rho(rho)
    if alpha == 0.0:
        return RadiusMixture.dirac(1.0)
    rho_weight = alpha / ipow(rho, d)
    if alpha == 1.0:
        return RadiusMixture([(rho, rho_weight)])
    return RadiusMixture([(1.0, 1.0 - alpha), (rho, rho_weight)])


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    rho: float
    estimate: ThresholdEstimate


def alpha_sweep(
    rho: float,
    alphas: Sequence[float],
    d: int,
    box: BoxSpec,
    trials: int,
    seed: int = 0,
    target_rel_tol: float = 0.02,
    progress: ProgressFn | None = None,
) -> list[AlphaEstimate]:
    """Estimate critical covered volumes along the two-radius interpolation.

    The box side is interpreted in units of the largest mixture radius, so
    every sweep point runs at the same relative finite-size resolution and
    the alpha = 0 and alpha = 1 endpoints reduce to the identical canonical
    problem.  All points share the one seed for the same reason (matched
    trial streams; common random numbers also smooth the curve).  Every
    alpha is validated before the first estimate starts, and an empty list
    is rejected.
    """
    if len(alphas) == 0:
        raise ValueError("need at least one alpha")
    mixtures = [mixture_for_alpha(float(alpha), rho, d) for alpha in alphas]
    out = []
    for alpha, mixture in zip(alphas, mixtures):
        physical = BoxSpec(dimension=d, side=box.side * mixture.r_max)
        if progress is not None:
            progress(f"alpha={alpha:g}")
        est = estimate_lambda_c(
            mixture,
            physical,
            trials,
            target_rel_tol=target_rel_tol,
            seed=seed,
            progress=progress,
        )
        out.append(AlphaEstimate(alpha=float(alpha), rho=float(rho), estimate=est))
    return out
