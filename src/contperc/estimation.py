"""Percolation threshold estimation and the scale-free quantities built on it.

Every trial of a threshold run reduces to one number, its critical
intensity (the Newman-Ziff coupling): every ball of a seeded trial carries
an arrival intensity, the trial's configuration at lambda is its balls
arriving below lambda, and the trial crosses the box exactly when lambda
exceeds the latest arrival on a minimax path between the two faces.  The
trials are sampled in superposed Poisson layers until each has crossed (see
_critical_intensities), so every critical intensity is finite and the
crossing probability at lambda is their empirical distribution function.
The estimate is its median, the intensity at which half of the trials
cross, and the 95% interval is the pair of order statistics X_(l), X_(u)
that covers the true median whatever the distribution (binomial order
statistics; David & Nagaraja, Order Statistics, 3rd ed., 2003).

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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .boolean_model import (
    MAX_EXPECTED_COUNT,
    BallConfiguration,
    BoxSpec,
    RadiusMixture,
    clusters,
    expected_count,
    sample,
)
from .geometry import unit_ball_volume
from .util import MAX_SIMULATION_DIMENSION, CapacityError, check_rho, derive_seed, ipow, stream

__all__ = [
    "ThresholdEstimate",
    "LadderResult",
    "canonicalize",
    "estimate_lambda_c",
    "size_ladder",
    "mu_d_transform",
    "multiscale_family",
    "mixture_for_alpha",
    "alpha_sweep",
]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class ThresholdEstimate:
    """Critical intensity estimate with its derived scale-free quantities.

    lambda_c is the median of the trials' critical intensities and
    ci_low / ci_high are their order statistics X_(l) and X_(u), a
    distribution-free 95% interval for the intensity at which the box is
    crossed with probability 1/2.  normalized is lambda_c * v_d * sum w (2r)^d
    and covered_volume equals 1 - exp(-normalized / 2^d) exactly.  critical
    holds the sorted critical intensities in canonical units (r_max = mass =
    1), so runs equal up to scale and mass under one seed hold equal tuples.
    """

    lambda_c: float
    ci_low: float
    ci_high: float
    box_side: float
    trials: int
    normalized: float
    covered_volume: float
    dimension: int
    seed: int
    normalized_ci_low: float
    normalized_ci_high: float
    critical: tuple[float, ...] = field(repr=False)


def canonicalize(mixture: RadiusMixture) -> tuple[RadiusMixture, float, float]:
    """Return (canonical mixture, radius scale, mass) with r_max = mass = 1."""
    scale = mixture.r_max
    mass = mixture.total_mass
    canon = RadiusMixture(
        zip((mixture.radii / scale).tolist(), (mixture.weights / mass).tolist())
    )
    return canon, scale, mass


def _first_bracket(canon: RadiusMixture, d: int) -> tuple[float, float]:
    """(norm_factor, lam_hi): v_d sum w (2r)^d, and the top of trial 0's first layer, 8 over it."""
    norm_factor = unit_ball_volume(d) * canon.doubled_moment(d)
    return norm_factor, 8.0 / norm_factor


def _median_ranks(n: int) -> tuple[int, int]:
    """(l, u): the 1-based ranks of the distribution-free 95% interval for the median.

    Of n draws, the number B below the median is Bin(n, 1/2), so
    [X_(l), X_(u)] misses the median with probability at most 2 P(B < l)
    when u = n + 1 - l.  l is the largest rank with P(B < l) <= 1/40, found
    by summing the binomial coefficients exactly in integers.  Each one comes
    from the last by C(n, i + 1) = C(n, i) (n - i) / (i + 1); a math.comb
    per term is several hundred times slower at n = 3000.
    """
    limit = 2**n
    term, below, rank = 1, 0, 0  # C(n, rank) and sum_{i < rank} C(n, i)
    while 40 * (below + term) <= limit:
        below += term
        term = term * (n - rank) // (rank + 1)
        rank += 1
    return rank, n + 1 - rank


def _check_run(runs, trials: int) -> None:
    """Reject a threshold run over (mixture, box) pairs before any sampling.

    Invalid arguments raise ValueError.  A run whose trials expect more than
    MAX_EXPECTED_COUNT balls in all, at the first layer top lam_hi of each
    canonical box, raises CapacityError: the cap on one sample does not
    bound a run of many.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials")
    balls = 0.0
    for mixture, box in runs:
        d = box.dimension
        if d > MAX_SIMULATION_DIMENSION:
            raise ValueError(
                f"simulation is supported for dimension <= {MAX_SIMULATION_DIMENSION}; "
                "box volumes explode beyond that"
            )
        canon, scale, _ = canonicalize(mixture)
        lam_hi = _first_bracket(canon, d)[1]
        balls += trials * expected_count(canon, lam_hi, BoxSpec(dimension=d, side=box.side / scale))
    if balls > MAX_EXPECTED_COUNT:
        raise CapacityError(
            f"the run's trials expect {balls:.3g} balls at the bracket top, "
            f"over the cap {MAX_EXPECTED_COUNT:.0e}"
        )


def _critical_mark(config: BallConfiguration, box: BoxSpec, marks: np.ndarray) -> float:
    """Smallest q at which the balls with mark < q cross the box; inf if none do.

    This is the minimax mark over the paths between the two faces.  The hit
    graph gains the low and high face as nodes 0 and 1, joined to the balls
    touching each face, and the balls are numbered by arrival: ball order[j]
    is node j + 2.  Every edge is stored in the row of its later end and
    weighs that end's mark, the larger of its ends' marks, floored at the
    smallest positive float because csgraph drops zero weights.  The stored
    weights then ascend, so the spanning tree's stable sort of them is one
    linear pass.  Any minimum spanning tree holds a minimax path between any
    two nodes, so which tree scipy returns cannot change the value: the
    search from the low face decides crossing, and the answer is the mark of
    the latest ball on its path to the high face, the largest node there.
    """
    labeling = clusters(config, box)
    n = config.n
    order = np.argsort(marks)
    node = np.empty(n, dtype=np.intp)
    node[order] = np.arange(2, n + 2)
    ends = node[labeling.edges]
    low = node[labeling.touches_low]
    high = node[labeling.touches_high]
    rows = np.concatenate((ends.max(axis=0), low, high))
    cols = np.concatenate((ends.min(axis=0), np.zeros_like(low), np.ones_like(high)))
    counts = np.bincount(rows, minlength=n + 2)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    data = np.repeat(np.maximum(marks[order], 5e-324), counts[2:])
    graph = csr_matrix((data, cols[np.argsort(rows)], indptr), shape=(n + 2, n + 2))
    tree = minimum_spanning_tree(graph, overwrite=True)
    _, pred = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    if pred[1] < 0:
        return math.inf
    latest = step = pred.item(1)
    while step != 0:
        if step > latest:
            latest = step
        step = pred.item(step)
    return float(marks[order[latest - 2]])


def _critical_intensities(
    mixture: RadiusMixture,
    box: BoxSpec,
    seed: int,
    trials: int,
    lam_hi: float,
    progress: ProgressFn | None = None,
) -> np.ndarray:
    """Every trial's critical intensity, sampled layer by layer until it crosses.

    Every ball of a trial carries an arrival intensity, and the trial's
    configuration at intensity lam is its balls arriving below lam, so it
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

    progress, if given, gets one line per trial, in order: its index, its
    layers, its balls and its critical intensity in normalized units.
    """
    norm_factor = _first_bracket(mixture, box.dimension)[0]
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
        if progress is not None:
            progress(
                f"trial {t}: layers={layer + 1} balls={union.n} "
                f"lambda~={critical[t] * norm_factor:.5g}"
            )
    return critical


def estimate_lambda_c(
    mixture: RadiusMixture,
    box: BoxSpec,
    trials: int,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> ThresholdEstimate:
    """Estimate the critical intensity as the median of the trials' critical intensities.

    The trials run in the canonicalized box, where _critical_intensities
    gives each one's critical intensity; trial 0's first layer ends at
    lambda_hi = 8 / (v_d sum w (2r)^d), eight times the branching lower
    bound.  The interval is [X_(l), X_(u)] with the ranks of _median_ranks.
    A run expecting more than MAX_EXPECTED_COUNT balls over its trials at
    lambda_hi raises CapacityError before any sampling.
    """
    _check_run([(mixture, box)], trials)
    d = box.dimension
    canon, scale, mass = canonicalize(mixture)
    canon_box = BoxSpec(dimension=d, side=box.side / scale)
    norm_factor, lam_hi = _first_bracket(canon, d)
    critical = np.sort(_critical_intensities(canon, canon_box, seed, trials, lam_hi, progress))
    low, high = _median_ranks(trials)
    lam_c = float(np.median(critical))
    x_low, x_high = critical.item(low - 1), critical.item(high - 1)
    if progress is not None:
        progress(
            f"median: lambda~={lam_c * norm_factor:.5g} "
            f"ci=[{x_low * norm_factor:.5g},{x_high * norm_factor:.5g}]"
        )

    denom = mass * ipow(scale, d)
    normalized = lam_c * norm_factor
    return ThresholdEstimate(
        lambda_c=lam_c / denom,
        ci_low=x_low / denom,
        ci_high=x_high / denom,
        box_side=box.side,
        trials=trials,
        normalized=normalized,
        covered_volume=-math.expm1(-normalized / ipow(2.0, d)),
        dimension=d,
        seed=int(seed),
        normalized_ci_low=x_low * norm_factor,
        normalized_ci_high=x_high * norm_factor,
        critical=tuple(critical.tolist()),
    )


@dataclass(frozen=True)
class LadderResult:
    """Finite-size ladder: one estimate per box side, largest side last.

    drifts are the changes of the normalized estimate between neighbouring
    sides; systematic is raised when the last one exceeds the width of the
    largest box's 95% interval.
    """

    estimates: tuple[ThresholdEstimate, ...]
    drifts: tuple[float, ...]
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

    The headline number is the largest-box estimate, estimates[-1]; the
    systematic flag is raised when the drift of the last step exceeds the
    width of that estimate's 95% interval.  The run size is checked summed
    over the sides before the first estimate starts.
    """
    sides = list(sides)
    if not sides:
        raise ValueError("need at least one box side")
    if any(b <= a for a, b in zip(sides, sides[1:])):
        raise ValueError("sides must be strictly increasing")
    boxes = [BoxSpec(dimension=d, side=float(side)) for side in sides]
    _check_run([(mixture, box) for box in boxes], trials)
    estimates = []
    for i, box in enumerate(boxes):
        if progress is not None:
            progress(f"ladder level {i}: L={sides[i]:g}")
        estimates.append(
            estimate_lambda_c(
                mixture,
                box,
                trials,
                seed=derive_seed(seed, 101, i),
                progress=progress,
            )
        )
    drifts = tuple(
        abs(b.normalized - a.normalized) for a, b in zip(estimates, estimates[1:])
    )
    ci_width = estimates[-1].normalized_ci_high - estimates[-1].normalized_ci_low
    systematic = bool(drifts) and drifts[-1] > ci_width
    return LadderResult(estimates=tuple(estimates), drifts=drifts, systematic=systematic)


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


def alpha_sweep(
    rho: float,
    alphas: Sequence[float],
    d: int,
    box: BoxSpec,
    trials: int,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> list[ThresholdEstimate]:
    """Estimate critical covered volumes along the two-radius interpolation,
    one estimate per alpha, in the order of `alphas`.

    The box side is interpreted in units of the largest mixture radius, so
    every sweep point runs at the same relative finite-size resolution and
    the alpha = 0 and alpha = 1 endpoints reduce to the identical canonical
    problem.  All points share the one seed for the same reason (matched
    trial streams; common random numbers also smooth the curve).  Every
    alpha is validated before the first estimate starts, an empty list is
    rejected, and the run size is checked summed over the alphas.
    """
    if len(alphas) == 0:
        raise ValueError("need at least one alpha")
    mixtures = [mixture_for_alpha(float(alpha), rho, d) for alpha in alphas]
    boxes = [BoxSpec(dimension=d, side=box.side * mixture.r_max) for mixture in mixtures]
    _check_run(zip(mixtures, boxes), trials)
    out = []
    for alpha, mixture, physical in zip(alphas, mixtures, boxes):
        if progress is not None:
            progress(f"alpha={alpha:g}")
        out.append(
            estimate_lambda_c(
                mixture,
                physical,
                trials,
                seed=seed,
                progress=progress,
            )
        )
    return out
