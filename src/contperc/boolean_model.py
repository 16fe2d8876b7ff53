"""Boolean models driven by finite atomic radius measures in a d-dimensional box.

A seed fixes one Poisson process of balls arriving in order of intensity
(Newman & Ziff, PRL 85, 4104, 2000), with centers uniform in a sampling
window and radii drawn independently from the mixture's atoms; its balls
arriving below lambda are a configuration at lambda.  sample is the one
sampler, which the threshold trials call too.  Under one seed,
configurations are nested in lambda.

Connectivity uses open balls (strict inequality on center distances).
Candidate pairs come from one scipy k-d tree per radius class, queried
within and across classes at each class pair's interaction range r_u + r_v
(see _candidate_pairs); an exact per-axis distance test then decides which
candidates intersect.  clusters returns that hit graph, whose cluster labels
(connected components, scipy.sparse.csgraph) are computed when first read.

The box is a crossing box: centers are sampled in the enlarged window
[-r_max, L + r_max)^d so balls reaching into the core box [0, L)^d from
outside are not under-counted, and the percolation event is a single
cluster touching both faces x_1 <= 0 and x_1 >= L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import unit_ball_volume
from .util import (
    _QUERY_SLACK, CapacityError, check_int, check_intensity, check_positive, ipow, stream
)

__all__ = [
    "RadiusMixture",
    "BoxSpec",
    "BallConfiguration",
    "ClusterLabeling",
    "CoverageEstimate",
    "sample",
    "clusters",
    "percolates",
    "covered_fraction_exact",
    "covered_fraction_empirical",
]

# Hard cap on the expected number of balls in one configuration, and in one
# threshold run summed over its trials (estimation).
MAX_EXPECTED_COUNT = 5e7


class RadiusMixture:
    """Finite atomic radius measure: atoms (radius, weight), radii distinct.

    Atoms are kept sorted by increasing radius; the measure has total mass
    sum of weights and drives the Boolean model through the intensity
    lambda * mixture.
    """

    __slots__ = ("radii", "weights")

    def __init__(self, atoms) -> None:
        pairs = sorted((float(r), float(w)) for r, w in atoms)
        if not pairs:
            raise ValueError("mixture needs at least one atom")
        radii = np.array([r for r, _ in pairs])
        weights = np.array([w for _, w in pairs])
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(weights))):
            raise ValueError("radii and weights must be finite")
        if not np.all(radii > 0.0):
            raise ValueError("radii must be positive")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be distinct")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        self.radii = radii
        self.weights = weights

    @classmethod
    def dirac(cls, radius: float) -> "RadiusMixture":
        return cls([(radius, 1.0)])

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.radii.tolist(), self.weights.tolist()))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    def moment(self, d: int) -> float:
        """Weighted d-th radius moment, sum of w_i r_i^d."""
        return float((self.weights * ipow(self.radii, d)).sum())

    def doubled_moment(self, d: int) -> float:
        """Sum of w_i (2 r_i)^d, the natural normalizer of intensities."""
        return float((self.weights * ipow(2.0 * self.radii, d)).sum())

    def scaled(self, a: float) -> "RadiusMixture":
        """Image under r -> a*r (weights unchanged)."""
        check_positive(a, "scale factor")
        return RadiusMixture(zip((self.radii * a).tolist(), self.weights.tolist()))

    def mass_scaled(self, c: float) -> "RadiusMixture":
        """Same atoms with all weights multiplied by c."""
        check_positive(c, "mass factor")
        return RadiusMixture(zip(self.radii.tolist(), (self.weights * c).tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, RadiusMixture) and self.atoms == other.atoms

    def __repr__(self) -> str:
        inside = ", ".join(f"({r:g}, {w:g})" for r, w in self.atoms)
        return f"RadiusMixture([{inside}])"


@dataclass(frozen=True)
class BoxSpec:
    """Crossing box: dimension and side length of the core box [0, L)^d."""

    dimension: int
    side: float

    def __post_init__(self) -> None:
        check_int(self.dimension, "dimension", 2)
        check_positive(self.side, "box side")


@dataclass(frozen=True, eq=False)
class BallConfiguration:
    """One sampled ball process: parallel center and radius arrays.

    Centers may lie in the halo outside the core box (see module docstring).
    A drawn one also holds its balls' arrivals, ascending and below lam.
    """

    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    seed: int
    lam: float
    arrivals: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True, eq=False)
class ClusterLabeling:
    """The hit graph of a configuration; its cluster labels are computed when first read.

    edges is the (2, m) index array of the intersecting pairs, each unordered
    pair once, and touches_low / touches_high mark the balls overlapping the
    two crossing faces.  labels[i] is the cluster id of ball i: two balls
    share a label exactly when they are joined by a chain of pairwise
    intersecting open balls, and the ids carry no meaning beyond that.
    """

    touches_low: np.ndarray = field(repr=False)
    touches_high: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.touches_low.shape[0]

    @cached_property
    def labels(self) -> np.ndarray:
        graph = coo_matrix((np.ones(self.edges.shape[1]), tuple(self.edges)), shape=(self.n,) * 2)
        return connected_components(graph, directed=False)[1]

    def cluster_count(self) -> int:
        return np.unique(self.labels).size


class CoverageEstimate(NamedTuple):
    fraction: float
    stderr: float


def expected_count(mixture: RadiusMixture, lam: float, box: BoxSpec) -> float:
    """Expected number of balls in one sample: lam * mass * (L + 2 r_max)^d, the halo window."""
    return lam * (mixture.total_mass * ipow(box.side + 2.0 * mixture.r_max, box.dimension))


def sample(mixture: RadiusMixture, lam: float, box: BoxSpec, seed: int) -> BallConfiguration:
    """The balls of the process on `seed` arriving below lam, in arrival order.

    The gaps are standard exponentials over the rate expected_count(mixture,
    1, box) on stream (seed, 0), and the arrivals their sequential cumulative
    sum, drawn in chunks until one passes lam.  The n balls below lam get
    centers uniform in the halo window [-r_max, L + r_max)^d on stream
    (seed, 1) and radii from the atoms with probabilities w_i / mass on
    (seed, 2).  Each stream is used one ball at a time, so no bit depends on
    the chunks and the draw at a lower lam is a prefix of this one.  A lam
    expecting over MAX_EXPECTED_COUNT balls raises CapacityError first.
    """
    check_intensity(lam)
    rate = expected_count(mixture, 1.0, box)
    if rate * lam > MAX_EXPECTED_COUNT:
        raise CapacityError(
            f"expected ball count {rate * lam:.3g} exceeds the cap {MAX_EXPECTED_COUNT:.0e}"
        )
    gaps = stream(seed, 0)
    arrivals, last = np.empty(0), 0.0
    while last < lam:
        mean = rate * (lam - last)
        count = int(mean + 2.0 * math.sqrt(mean)) + 8
        sums = np.cumsum(np.concatenate(([last], gaps.standard_exponential(count) / rate)))
        arrivals = np.concatenate((arrivals, sums[1:]))
        last = sums[-1]
    n = int(np.searchsorted(arrivals, lam))
    extent = box.side + 2.0 * mixture.r_max
    centers = stream(seed, 1).random((n, box.dimension))
    centers *= extent
    centers += -mixture.r_max
    if mixture.radii.size > 1:
        probs = mixture.weights / mixture.total_mass
        radii = stream(seed, 2).choice(mixture.radii, size=n, p=probs)
    else:
        radii = np.full(n, mixture.r_max)
    return BallConfiguration(centers, radii, int(seed), float(lam), arrivals[:n])


def _candidate_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs that may intersect: a superset of the intersecting pairs.

    Balls are split by radius class with one k-d tree each; a class is
    paired with itself at 2 r_u and with every larger class at r_u + r_v,
    the exact interaction range, so a wide radius ratio does not bury the
    small-ball pairs under the large-ball reach.
    """
    unique_r, class_idx = np.unique(radii, return_inverse=True)
    members = [np.flatnonzero(class_idx == c) for c in range(len(unique_r))]
    # Unbalanced, uncompacted trees build faster and find the same pairs.
    trees = [cKDTree(centers[m], balanced_tree=False, compact_nodes=False) for m in members]
    # One empty array each, so that zero balls concatenate to zero pairs.
    pair_a = [np.empty(0, dtype=np.intp)]
    pair_b = [np.empty(0, dtype=np.intp)]
    for u, r_u in enumerate(unique_r.tolist()):
        same = trees[u].query_pairs(2.0 * r_u * _QUERY_SLACK, output_type="ndarray")
        pair_a.append(members[u][same[:, 0]])
        pair_b.append(members[u][same[:, 1]])
        for v in range(u + 1, len(unique_r)):
            reach = (r_u + float(unique_r[v])) * _QUERY_SLACK
            cross = trees[u].sparse_distance_matrix(trees[v], reach, output_type="ndarray")
            pair_a.append(members[u][cross["i"]])
            pair_b.append(members[v][cross["j"]])
    return np.concatenate(pair_a), np.concatenate(pair_b)


def clusters(config: BallConfiguration, box: BoxSpec) -> ClusterLabeling:
    """The hit graph of the configuration; cluster labels follow on first read."""
    centers = config.centers
    radii = config.radii

    ia, ib = _candidate_pairs(centers, radii)
    dist2 = np.zeros(ia.shape[0])
    for axis in range(box.dimension):
        x = centers[:, axis]
        diff = x[ia] - x[ib]
        dist2 += diff * diff
    rsum = radii[ia] + radii[ib]
    hit = dist2 < rsum * rsum

    return ClusterLabeling(
        touches_low=centers[:, 0] < radii,
        touches_high=centers[:, 0] + radii > box.side,
        edges=np.stack((ia[hit], ib[hit])),
    )


def percolates(labeling: ClusterLabeling) -> bool:
    """True if one cluster of the labeling touches both faces x_1 <= 0 and x_1 >= L."""
    low = labeling.labels[labeling.touches_low]
    high = labeling.labels[labeling.touches_high]
    return bool(np.isin(high, low).any())


def covered_fraction_exact(mixture: RadiusMixture, lam: float, d: int) -> float:
    """Fraction of space covered: 1 - exp(-lam * v_d * sum w_i r_i^d)."""
    check_intensity(lam)
    check_int(d, "dimension", 1)
    return -math.expm1(-lam * unit_ball_volume(d) * mixture.moment(d))


def covered_fraction_empirical(
    config: BallConfiguration, box: BoxSpec, probes: int, seed: int
) -> CoverageEstimate:
    """Estimate coverage by uniform probe points in the core box [0, L)^d.

    Returns the hit fraction and its binomial standard error
    sqrt(p(1-p)/probes).  That error is the probes' alone, on this one
    configuration: it leaves out the configuration's own fluctuation, so
    it does not bound the distance to covered_fraction_exact.
    """
    check_int(probes, "probes", 1)
    d = box.dimension
    rng = stream(seed)
    points = rng.random((probes, d)) * box.side
    reach = float(config.radii.max(initial=0.0)) * _QUERY_SLACK
    near = cKDTree(points).sparse_distance_matrix(
        cKDTree(config.centers), reach, output_type="ndarray"
    )
    pi, bi = near["i"], near["j"]
    delta = points[pi] - config.centers[bi]
    dist2 = np.einsum("ij,ij->i", delta, delta)
    covered = np.zeros(probes, dtype=bool)
    covered[pi[dist2 < config.radii[bi] ** 2]] = True
    p_hat = float(covered.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / probes)
    return CoverageEstimate(p_hat, stderr)
