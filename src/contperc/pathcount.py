"""Monte Carlo counts of alternating chains out of the origin, with exact oracles.

Two independent Poisson processes are sampled in a ball around the origin:
unit-ball centers at intensity lambda_1 = kappa^d / (v_d 2^d) and
large-ball centers at lambda_rho = lambda_1 / rho^d.  A chain of shape k
starts at a large ball at the origin, passes through k distinct unit-ball
centers (consecutive centers closer than 2, the first within 1 + rho of the
origin) and ends at a large-ball center within 1 + rho of the last unit
center.

Counted per trial:

* N_k, the number of distinct chain endpoints (set semantics), and
* M_k, the number of ordered chains (x_1, ..., x_k, endpoint), endpoints
  with multiplicity.

Every unit center on a chain lies within 1 + rho + 2 (k - 1) of the origin
and every endpoint within 2 rho + 2 k, so sampling each process in its own
ball of that radius reproduces the infinite-volume counts, and the
ordered-tuple expectation has the exact closed form
E(M_k) = (kappa^(k+1) (1+rho)^2 / (4 rho))^d for k >= 1, E(M_0) = kappa^d.

One chain walker serves every count.  The chains grow one center at a
time as integer index arrays, and every k-d tree query starts from their
live frontier, the distinct last centers of the live chains: each step
finds the unit-unit steps within 2 of the frontier, dropping steps back
onto a center already in the chain, and the final frontier finds the
unit-large hits within 1 + rho.  The work so follows the chains rather
than the sampled points.  count_paths walks all trials of a chunk at once,
side by side along the first axis; chunks are sized so that their expected
points and partial chains stay under caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .util import (
    _QUERY_SLACK,
    MAX_SIMULATION_DIMENSION,
    CapacityError,
    check_int,
    check_positive,
    check_rho,
    exp_or_inf,
    stream,
)

__all__ = [
    "PathCountRun",
    "tuple_expectation_exact",
    "count_paths",
]

_MAX_K = 4
# Trials per chunk, and caps on a chunk's expected sampled points and partial
# chains (the walker's largest frontier).  Each chunk draws from its own
# Philox substream, so a change of chunk size moves the draws of every trial.
_CHUNK_TRIALS = 4096
_MAX_CHUNK_POINTS = 1.5e6
_MAX_CHUNK_CHAINS = 1e6


@dataclass(frozen=True)
class PathCountRun:
    """Means and standard errors of N_k and M_k over independent trials."""

    dimension: int
    rho: float
    kappa: float
    k: int
    trials: int
    mean_n: float
    se_n: float
    mean_m: float
    se_m: float


def tuple_expectation_exact(d: int, rho: float, kappa: float, k: int) -> float:
    """Exact expectation of the ordered-tuple count M_k.

    The multivariate Mecke formula turns the tuple sum into a product of
    ball volumes: lambda_1^k lambda_rho (v_d (1+rho)^d)^2 (v_d 2^d)^(k-1)
    for k >= 1, which simplifies to (kappa^(k+1) (1+rho)^2 / (4 rho))^d.
    Evaluated in log space, and math.inf past double range.  The formula
    holds in every dimension, so d is not capped as in count_paths.
    """
    check_int(d, "dimension", 1)
    check_rho(rho)
    check_positive(kappa, "kappa")
    check_int(k, "k", 0)
    if k == 0:
        return exp_or_inf(d * math.log(kappa))
    log_val = d * (
        (k + 1) * math.log(kappa)
        + 2.0 * math.log1p(rho)
        - math.log(4.0 * rho)
    )
    return exp_or_inf(log_val)


def _norm2(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


def _hits(a, b, i, j, reach):
    """Keep the candidate pairs (i, j) of one trial strictly closer than reach.

    a and b are (points, trial ids, unshifted axis-0 column) triples.  Pairs
    across trials are dropped before the coordinates are gathered, and each
    difference takes its axis 0 from the unshifted column, so the test sees
    the floats of the unshifted points.
    """
    (points_a, trial_a, x_a), (points_b, trial_b, x_b) = a, b
    same = trial_a[i] == trial_b[j]
    i, j = i[same], j[same]
    diff = points_a[i] - points_b[j]
    diff[:, 0] = x_a[i] - x_b[j]
    hit = _norm2(diff) < reach * reach
    return i[hit], j[hit]


def _tree(points):
    # Unbalanced, uncompacted trees build faster and find the same pairs;
    # leaves of 32 points keep the unbalanced tree's extra nodes from
    # raising peak memory.
    return cKDTree(points, leafsize=32, balanced_tree=False, compact_nodes=False)


def _trial_counts(unit, large, rho, k, n_trials, live=None):
    """Per-trial (N_k, M_k) as two integer arrays of length n_trials.

    unit and large are (points, trial ids) pairs.  A row of chains holds the
    unit indices of one chain, and the frontier is the distinct last centers
    of the live chains; every query starts from it.  Each step queries a
    k-d tree over the frontier against the tree over all unit centers at 2,
    drops each frontier center's pair with itself, holds the steps as a CSR
    matrix, reads its rows at the chains' last centers and drops steps back
    onto a center already in the chain.  After the walk, a tree over the
    final frontier finds the large centers within 1 + rho; each such hit
    carries the chains ending at its unit center, so their sum per large
    center counts the chains ending there, which sum to M_k and are nonzero
    at the N_k endpoints.  live, if a list, gets the number of chains of
    each length 1..k appended.

    Trials share d-dimensional k-d trees, trial t shifted by t * spacing
    along axis 0, beyond both query radii of the others.  For k >= 1 the
    walker shifts the points of unit and large in place and keeps their
    unshifted axis-0 columns, so the trees hold the caller's arrays and no
    second copy; the caller must not reuse them.  The shift rounds a first
    coordinate by at most half an ulp of the largest, so both query radii
    grow by two such ulps; the strict test in _hits, on the unshifted
    coordinates and trial ids, alone decides every edge.
    """
    if k == 0:
        hit = _norm2(large[0]) < (2.0 * rho) ** 2
        counts = np.bincount(large[1][hit], minlength=n_trials)
        return counts, counts
    reach = 1.0 + rho
    spacing = 2.0 * (2.0 * rho + 2.0 * k + reach)
    chains = np.flatnonzero(_norm2(unit[0]) < reach * reach)[:, None]
    unit, large = [(p, t, p[:, 0].copy()) for p, t in (unit, large)]
    for p, t, _ in (unit, large):
        p[:, 0] += t * spacing
    slack = 2.0 * np.spacing(max(np.abs(p[:, 0]).max(initial=0.0) for p, _, _ in (unit, large)))
    n_unit = len(unit[0])

    if k >= 2:
        tree_u = _tree(unit[0])
    for _ in range(k - 1):
        if live is not None:
            live.append(len(chains))
        front = np.flatnonzero(np.bincount(chains[:, -1], minlength=n_unit))
        near = _tree(unit[0][front]).sparse_distance_matrix(
            tree_u, 2.0 * _QUERY_SLACK + slack, output_type="ndarray"
        )
        a, b = front[near["i"]], near["j"]
        other = a != b  # by index, so that duplicate centers still link
        a, b = _hits(unit, unit, a[other], b[other], 2.0)
        steps = csr_matrix((np.ones(a.size, dtype=bool), (a, b)), shape=(n_unit, n_unit))
        step = steps[chains[:, -1]]
        prev = np.repeat(chains, np.diff(step.indptr), axis=0)
        fresh = (prev != step.indices[:, None]).all(axis=1)
        chains = np.column_stack([prev[fresh], step.indices[fresh]])
    if live is not None:
        live.append(len(chains))
    per_last = np.bincount(chains[:, -1], minlength=n_unit)
    front = np.flatnonzero(per_last)
    near = _tree(unit[0][front]).sparse_distance_matrix(
        _tree(large[0]), reach * _QUERY_SLACK + slack, output_type="ndarray"
    )
    u, l = _hits(unit, large, front[near["i"]], near["j"], reach)
    per_end = np.bincount(l, weights=per_last[u], minlength=len(large[0]))
    m = np.bincount(large[1], weights=per_end, minlength=n_trials)
    n = np.bincount(large[1][per_end > 0], minlength=n_trials)
    return n, m.astype(np.int64)


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    """n points uniform in the ball of the given radius around the origin."""
    g = rng.standard_normal((n, d))
    norms = np.sqrt(_norm2(g))
    norms[norms == 0.0] = 1.0
    scale = rng.random(n)
    scale **= 1.0 / d
    scale *= radius
    scale /= norms
    g *= scale[:, None]
    return g


def _count_text(log_count: float) -> str:
    """A count given by its log, as a power of ten where exp would overflow."""
    if log_count < 700.0:
        return f"{math.exp(log_count):.3g}"
    return f"10^{log_count / math.log(10.0):.4g}"


def count_paths(
    d: int,
    rho: float,
    kappa: float,
    k: int,
    trials: int,
    seed: int,
    progress: Callable[[str], None] | None = None,
) -> PathCountRun:
    """Estimate E(N_k) and E(M_k) over independent trials.

    Trials are processed in chunks, one Philox substream per chunk; within
    a chunk the counts for both processes are drawn first, then all points
    of the chunk in one batch, and the chain walker counts every trial of
    the chunk at once.  Unit centers are drawn only in the ball of radius
    1 + rho + 2 (k - 1), where a chain can reach them (none for k = 0), and
    large centers in the ball of radius 2 rho + 2 k.  A chunk holds
    _CHUNK_TRIALS trials unless its expected points or partial chains would
    pass their caps; a request whose single trial passes a cap raises
    CapacityError before any sampling.

    progress, if given, gets one line per chunk, in order: its index, its
    trials, its unit and large points, and its chains of each length 1..k.
    """
    check_int(d, "dimension", 1, MAX_SIMULATION_DIMENSION)
    check_rho(rho)
    check_positive(kappa, "kappa")
    check_int(k, "k", 0, _MAX_K)
    finite_se = "trials must be at least 2, so that the standard errors are finite"
    check_int(trials, "trials", 2, message=finite_se)
    radius1 = 1.0 + rho + 2.0 * (k - 1)  # x_i lies within 1 + rho + 2 (i - 1)
    radius_rho = 2.0 * rho + 2.0 * k

    # Logs, so that nothing overflows.  A ball of radius R holds (kappa R / 2)^d unit centers
    # and (kappa R / (2 rho))^d large ones; by Mecke, E(#chains x_1..x_j) = (kappa^j (1+rho) / 2)^d.
    log_kappa = math.log(kappa)
    log_mean1 = d * (log_kappa + math.log(radius1 / 2.0)) if k >= 1 else -math.inf
    log_mean_rho = d * (log_kappa + math.log(radius_rho / (2.0 * rho)))
    log_points = np.logaddexp(log_mean1, log_mean_rho)
    log_step = math.log1p(rho) - math.log(2.0)
    log_chains = max((d * (j * log_kappa + log_step) for j in range(1, k + 1)), default=-math.inf)
    log_share = max(
        log_points - math.log(_MAX_CHUNK_POINTS), log_chains - math.log(_MAX_CHUNK_CHAINS)
    )
    if log_share > 0.0:
        raise CapacityError(
            f"one trial expects {_count_text(log_points)} points and "
            f"{_count_text(log_chains)} partial chains; "
            f"the caps are {_MAX_CHUNK_POINTS:.3g} and {_MAX_CHUNK_CHAINS:.3g}"
        )
    mean1, mean_rho, share = math.exp(log_mean1), math.exp(log_mean_rho), math.exp(log_share)
    chunk = _CHUNK_TRIALS if share * _CHUNK_TRIALS <= 1.0 else math.floor(1.0 / share)

    totals = np.zeros(4, dtype=np.int64)  # sums of N, N^2, M, M^2 over trials
    for chunk_index, first in enumerate(range(0, trials, chunk)):
        count = min(chunk, trials - first)
        rng = stream(seed, chunk_index)
        counts1 = rng.poisson(mean1, count)
        counts_rho = rng.poisson(mean_rho, count)
        pts1 = _uniform_ball(rng, int(counts1.sum()), d, radius1)
        pts_rho = _uniform_ball(rng, int(counts_rho.sum()), d, radius_rho)
        trial_ids = np.arange(count, dtype=np.int32)
        unit = (pts1, np.repeat(trial_ids, counts1))
        large = (pts_rho, np.repeat(trial_ids, counts_rho))
        live = None if progress is None else []
        n, m = _trial_counts(unit, large, rho, k, count, live)
        if live is not None:
            chains = ",".join(map(str, live)) or "none"
            progress(
                f"chunk {chunk_index}: trials={count} unit={len(pts1)} "
                f"large={len(pts_rho)} chains={chains}"
            )
        totals += [n.sum(), (n * n).sum(), m.sum(), (m * m).sum()]

    sum_n, sumsq_n, sum_m, sumsq_m = totals.tolist()

    def mean_se(total: float, total_sq: float) -> tuple[float, float]:
        mean = total / trials
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        return mean, math.sqrt(var / trials)

    mean_n, se_n = mean_se(sum_n, sumsq_n)
    mean_m, se_m = mean_se(sum_m, sumsq_m)
    return PathCountRun(d, rho, kappa, k, trials, mean_n, se_n, mean_m, se_m)
