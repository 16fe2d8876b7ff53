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

One chain walker serves every count.  k-d trees give the unit-unit and
unit-large neighbour lists in CSR form, and the chains grow one center at a
time as integer index arrays, dropping steps back onto a center already in
the chain.  count_paths walks all trials of a chunk at once, side by side
along the first axis; chunks are sized so that their expected points and
partial chains stay under caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .boolean_model import MAX_SIMULATION_DIMENSION, _QUERY_SLACK
from .errors import CapacityError
from .geometry import log_unit_ball_volume, unit_ball_volume
from .rng import stream
from .util import check_rho, ipow

__all__ = [
    "PathCountRun",
    "intensities",
    "tuple_expectation_exact",
    "chain_counts",
    "chain_counts_sliced",
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


def intensities(d: int, rho: float, kappa: float) -> tuple[float, float]:
    """Center intensities (lambda_1, lambda_rho) of the two processes."""
    lam1 = ipow(kappa, d) / (unit_ball_volume(d) * ipow(2.0, d))
    return lam1, lam1 / ipow(rho, d)


def tuple_expectation_exact(d: int, rho: float, kappa: float, k: int) -> float:
    """Exact expectation of the ordered-tuple count M_k.

    The multivariate Mecke formula turns the tuple sum into a product of
    ball volumes: lambda_1^k lambda_rho (v_d (1+rho)^d)^2 (v_d 2^d)^(k-1)
    for k >= 1, which simplifies to (kappa^(k+1) (1+rho)^2 / (4 rho))^d.
    Evaluated in log space.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a non-negative integer")
    if k == 0:
        return math.exp(d * math.log(kappa))
    log_val = d * (
        (k + 1) * math.log(kappa)
        + 2.0 * math.log1p(rho)
        - math.log(4.0 * rho)
    )
    return math.exp(log_val)


def _norm2(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of nodes 0..n-1 from directed edges, in CSR form."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr, dst[np.argsort(src, kind="stable")]


def _gather(ptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in nodes, neighbour) for every neighbour of every node."""
    first = ptr[nodes]
    deg = ptr[nodes + 1] - first
    owner = np.repeat(np.arange(nodes.size), deg)
    shift = first - (np.cumsum(deg) - deg)
    return owner, idx[np.arange(owner.size) + shift[owner]]


def _hits(a, b, i, j, reach):
    """Keep the candidate pairs (i, j) of one trial strictly closer than reach."""
    (points_a, trial_a), (points_b, trial_b) = a, b
    diff = points_a[i] - points_b[j]
    hit = (trial_a[i] == trial_b[j]) & (_norm2(diff) < reach * reach)
    return i[hit], j[hit]


def _walk(unit, large, rho, k):
    """Every ordered chain x_1, ..., x_k (k >= 1) of distinct unit centers, per trial.

    unit and large are (points, trial ids) pairs.  Returns (chains, end_ptr,
    end_idx): a row of chains holds the unit indices of one chain, and
    end_idx[end_ptr[u] : end_ptr[u + 1]] lists the large centers within
    1 + rho of unit center u.  Trials share d-dimensional k-d trees, trial t
    shifted by t * spacing along axis 0, beyond both query radii of the
    others.  The shift rounds a first coordinate by at most half an ulp of the
    largest, so both query radii grow by two such ulps; the strict test in
    _hits, on the unshifted points and trial ids, alone decides every edge.
    """
    reach = 1.0 + rho
    spacing = 2.0 * (2.0 * rho + 2.0 * k + reach)
    shifted = [np.column_stack([p[:, 0] + t * spacing, p[:, 1:]]) for p, t in (unit, large)]
    slack = 2.0 * np.spacing(max(np.abs(p[:, 0]).max(initial=0.0) for p in shifted))
    tree_u, tree_l = map(cKDTree, shifted)
    near = tree_u.sparse_distance_matrix(tree_l, reach * _QUERY_SLACK + slack, output_type="ndarray")
    u, l = _hits(unit, large, near["i"], near["j"], reach)
    norms2 = _norm2(unit[0])
    end_ptr, end_idx = _csr(u, l, norms2.size)

    chains = np.flatnonzero(norms2 < reach * reach)[:, None]
    if k >= 2:
        near = tree_u.query_pairs(2.0 * _QUERY_SLACK + slack, output_type="ndarray")
        a, b = _hits(unit, unit, near[:, 0], near[:, 1], 2.0)
        ptr, idx = _csr(np.concatenate([a, b]), np.concatenate([b, a]), norms2.size)
    for _ in range(k - 1):
        owner, nxt = _gather(ptr, idx, chains[:, -1])
        prev = chains[owner]
        fresh = (prev != nxt[:, None]).all(axis=1)
        chains = np.column_stack([prev[fresh], nxt[fresh]])
    return chains, end_ptr, end_idx


def _trial_counts(unit, large, rho, k, n_trials):
    """Per-trial (N_k, M_k) as two integer arrays of length n_trials."""
    if k == 0:
        hit = _norm2(large[0]) < (2.0 * rho) ** 2
        counts = np.bincount(large[1][hit], minlength=n_trials)
        return counts, counts
    chains, end_ptr, end_idx = _walk(unit, large, rho, k)
    last = chains[:, -1]
    m = np.bincount(unit[1][last], weights=np.diff(end_ptr)[last], minlength=n_trials)
    _, ends = _gather(end_ptr, end_idx, np.unique(last))
    n = np.bincount(large[1][np.unique(ends)], minlength=n_trials)
    return n, m.astype(np.int64)


def _one_trial(points):
    return points, np.zeros(points.shape[0], dtype=np.intp)


def chain_counts(
    points_unit: np.ndarray, points_large: np.ndarray, rho: float, k: int
) -> tuple[int, int]:
    """Count (N_k, M_k) for one realization of the two point sets.

    For k = 0 both counts equal the number of large centers within 2 rho of
    the origin.  For k >= 1 the chain walker lists every ordered chain of k
    distinct unit centers; M_k adds up the large centers within 1 + rho of
    each chain's last center and N_k counts those centers once each.
    """
    n, m = _trial_counts(_one_trial(points_unit), _one_trial(points_large), rho, k, 1)
    return int(n[0]), int(m[0])


def _slab_index(centers, norms, targets, step_radius, n_slices):
    """Slab index of each step target against the direction of its center."""
    dot = np.einsum("ij,ij->i", targets - centers, centers)
    frac = np.divide(dot, norms * step_radius, out=np.zeros_like(dot), where=norms != 0.0)
    index = np.minimum(n_slices - 1, np.ceil(frac * n_slices).astype(np.int64) - 1)
    return np.where(frac <= 1.0 / n_slices, 0, index)


def chain_counts_sliced(
    points_unit: np.ndarray, points_large: np.ndarray, rho: float, k: int, n_slices: int
) -> tuple[dict[tuple[int, ...], int], int]:
    """Tally ordered chains by the slab index of each step.

    Step i lands in the slab of its step ball indexed against the direction
    of the previous center seen from the origin; index 0 is the slab
    absorbing everything below fraction 1/n_slices (the a = 0 convention),
    and a center at the origin puts its step in slab 0.  The chains are
    those of chain_counts, each once per endpoint.  Returns (per-slice
    counts, total M_k); the slice counts partition the chains, so they sum
    to M_k exactly.
    """
    if k < 1:
        raise ValueError("slicing needs k >= 1")
    chains, end_ptr, end_idx = _walk(_one_trial(points_unit), _one_trial(points_large), rho, k)
    row, ends = _gather(end_ptr, end_idx, chains[:, -1])
    norms = np.sqrt(_norm2(points_unit))
    path = chains[row]
    targets = [points_unit[path[:, i]] for i in range(1, k)] + [points_large[ends]]
    radii = [2.0] * (k - 1) + [1.0 + rho]
    steps = [
        _slab_index(points_unit[path[:, i]], norms[path[:, i]], targets[i], radii[i], n_slices)
        for i in range(k)
    ]
    keys, counts = np.unique(np.column_stack(steps), axis=0, return_counts=True)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist())), int(row.size)


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    """n points uniform in the ball of the given radius around the origin."""
    g = rng.standard_normal((n, d))
    norms = np.sqrt(_norm2(g))
    norms[norms == 0.0] = 1.0
    scale = radius * rng.random(n) ** (1.0 / d) / norms
    return g * scale[:, None]


def count_paths(d: int, rho: float, kappa: float, k: int, trials: int, seed: int) -> PathCountRun:
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
    """
    if not isinstance(d, int) or not 1 <= d <= MAX_SIMULATION_DIMENSION:
        raise ValueError(f"dimension must lie in 1..{MAX_SIMULATION_DIMENSION}")
    check_rho(rho)
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, not {kappa!r}")
    if not isinstance(k, int) or k < 0 or k > _MAX_K:
        raise ValueError(f"k must lie in 0..{_MAX_K}")
    if trials < 1:
        raise ValueError("trials must be positive")
    radius1 = 1.0 + rho + 2.0 * (k - 1)  # x_i lies within 1 + rho + 2 (i - 1)
    radius_rho = 2.0 * rho + 2.0 * k

    lam1, lam_rho = intensities(d, rho, kappa)
    log_vd = log_unit_ball_volume(d)
    mean1 = lam1 * math.exp(log_vd + d * math.log(radius1)) if k >= 1 else 0.0
    mean_rho = lam_rho * math.exp(log_vd + d * math.log(radius_rho))
    # Mecke formula, as for M_k: E(#chains x_1, ..., x_j) = (kappa^j (1 + rho) / 2)^d.
    steps = range(1, k + 1)
    chains = max((ipow(ipow(kappa, j) * (1.0 + rho) / 2.0, d) for j in steps), default=0.0)
    share = max((mean1 + mean_rho) / _MAX_CHUNK_POINTS, chains / _MAX_CHUNK_CHAINS)
    if share > 1.0:
        raise CapacityError(
            f"one trial expects {mean1 + mean_rho:.3g} points and {chains:.3g} partial chains; "
            f"the caps are {_MAX_CHUNK_POINTS:.3g} and {_MAX_CHUNK_CHAINS:.3g}"
        )
    chunk = _CHUNK_TRIALS if share * _CHUNK_TRIALS <= 1.0 else math.floor(1.0 / share)

    totals = np.zeros(4, dtype=np.int64)  # sums of N, N^2, M, M^2 over trials
    for chunk_index, first in enumerate(range(0, trials, chunk)):
        count = min(chunk, trials - first)
        rng = stream(seed, chunk_index)
        counts1 = rng.poisson(mean1, count)
        counts_rho = rng.poisson(mean_rho, count)
        pts1 = _uniform_ball(rng, int(counts1.sum()), d, radius1)
        pts_rho = _uniform_ball(rng, int(counts_rho.sum()), d, radius_rho)
        trial_ids = np.arange(count)
        unit = (pts1, np.repeat(trial_ids, counts1))
        large = (pts_rho, np.repeat(trial_ids, counts_rho))
        n, m = _trial_counts(unit, large, rho, k, count)
        totals += [n.sum(), (n * n).sum(), m.sum(), (m * m).sum()]

    sum_n, sumsq_n, sum_m, sumsq_m = totals.tolist()

    def mean_se(total: float, total_sq: float) -> tuple[float, float]:
        mean = total / trials
        if trials < 2:
            return mean, math.inf
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        return mean, math.sqrt(var / trials)

    mean_n, se_n = mean_se(sum_n, sumsq_n)
    mean_m, se_m = mean_se(sum_m, sumsq_m)
    return PathCountRun(d, rho, kappa, k, trials, mean_n, se_n, mean_m, se_m)
