"""Boolean models driven by finite atomic radius measures in a d-dimensional box.

A configuration is a Poisson number of balls with centers uniform in a
sampling window and radii drawn independently from the mixture's atoms.
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
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import CapacityError
from .geometry import unit_ball_volume
from .rng import stream
from .util import ipow

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
    "thin_configuration",
    "dump_configuration",
    "load_configuration",
]

# Hard cap on the expected number of balls in one configuration.
MAX_EXPECTED_COUNT = 5e7
# Largest dimension the Monte Carlo layers (estimation, pathcount) simulate;
# box and ball volumes explode beyond it.
MAX_SIMULATION_DIMENSION = 6

DUMP_FORMAT_VERSION = "v2"

# Relative margin on k-d tree query radii, so that the tree's own rounding
# of distances cannot drop a pair the exact hit test would accept.  The
# exact test alone decides which candidates connect.
_QUERY_SLACK = 1.0 + 1e-9


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
        if not a > 0.0:
            raise ValueError("scale factor must be positive")
        return RadiusMixture(zip((self.radii * a).tolist(), self.weights.tolist()))

    def mass_scaled(self, c: float) -> "RadiusMixture":
        """Same atoms with all weights multiplied by c."""
        if not c > 0.0:
            raise ValueError("mass factor must be positive")
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
        if not isinstance(self.dimension, int) or self.dimension < 2:
            raise ValueError("dimension must be an integer >= 2")
        if not 0.0 < self.side < math.inf:
            raise ValueError(f"box side must be positive and finite, not {self.side!r}")


@dataclass(frozen=True, eq=False)
class BallConfiguration:
    """One sampled ball process: parallel center and radius arrays.

    Centers may lie in the halo outside the core box (see module docstring).
    """

    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    seed: int
    lam: float

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

    def canonical_labels(self) -> np.ndarray:
        """Cluster labels renumbered by first appearance, for comparisons."""
        _, first, inverse = np.unique(self.labels, return_index=True, return_inverse=True)
        return np.unique(first[inverse], return_inverse=True)[1]

    def cluster_count(self) -> int:
        return np.unique(self.labels).size


class CoverageEstimate(NamedTuple):
    fraction: float
    stderr: float


def sample(
    mixture: RadiusMixture, lam: float, box: BoxSpec, seed: int
) -> BallConfiguration:
    """Sample one Boolean model configuration, fully determined by `seed`.

    The number of balls is Poisson with mean lam * mass * window_volume,
    centers are uniform in the halo window [-r_max, L + r_max)^d (drawn in
    [0,1)^d and then scaled), and radii are i.i.d. over the atoms with
    probabilities w_i / mass.
    """
    if lam < 0.0:
        raise ValueError("intensity must be non-negative")
    if not box.side > 4.0 * mixture.r_max:
        raise ValueError("box side must exceed four times the largest radius")
    d = box.dimension
    origin = -mixture.r_max
    extent = box.side + 2.0 * mixture.r_max
    expected = lam * (mixture.total_mass * ipow(extent, d))
    if expected > MAX_EXPECTED_COUNT:
        raise CapacityError(
            f"expected ball count {expected:.3g} exceeds the cap {MAX_EXPECTED_COUNT:.0e}"
        )
    rng = stream(seed)
    count = int(rng.poisson(expected))
    unit = rng.random((count, d))
    centers = origin + unit * extent
    if len(mixture.radii) == 1:
        radii = np.full(count, mixture.radii[0])
    else:
        probs = mixture.weights / mixture.total_mass
        idx = rng.choice(len(mixture.radii), size=count, p=probs)
        radii = mixture.radii[idx]
    return BallConfiguration(centers=centers, radii=radii, seed=int(seed), lam=float(lam))


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
    if lam < 0.0:
        raise ValueError("intensity must be non-negative")
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return -math.expm1(-lam * unit_ball_volume(d) * mixture.moment(d))


def covered_fraction_empirical(
    config: BallConfiguration, box: BoxSpec, probes: int, seed: int
) -> CoverageEstimate:
    """Estimate coverage by uniform probe points in the core box [0, L)^d.

    Returns the hit fraction and its binomial standard error
    sqrt(p(1-p)/probes).
    """
    if probes < 1:
        raise ValueError("need at least one probe point")
    d = box.dimension
    rng = stream(seed)
    points = rng.random((probes, d)) * box.side
    if config.n == 0:
        return CoverageEstimate(0.0, 0.0)
    reach = float(config.radii.max()) * _QUERY_SLACK
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


def thin_configuration(
    config: BallConfiguration, keep_prob: float, seed: int
) -> BallConfiguration:
    """Keep each ball independently with probability keep_prob.

    Thinning a configuration sampled at intensity lam yields the sampling
    distribution at keep_prob * lam and is a subset of the original, which
    makes percolation monotone along the coupling.  The threshold estimator
    (estimation.estimate_lambda_c) uses this coupling without building the
    thinned configurations: the union of a trial's layers, sampled up to
    intensity top, carries arrival intensities uniform on [0, top), so
    keeping the balls arriving below lam <= top is this thinning with
    keep_prob = lam / top, and every level is read off the trial's critical
    intensity.
    """
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError("keep probability must lie in [0, 1]")
    rng = stream(seed)
    keep = rng.random(config.n) < keep_prob
    return BallConfiguration(
        centers=config.centers[keep],
        radii=config.radii[keep],
        seed=config.seed,
        lam=config.lam * keep_prob,
    )


def dump_configuration(config: BallConfiguration, box: BoxSpec, fp) -> None:
    """Write one ball per line, 'x_1 ... x_d r', after a self-describing header.

    The v2 header records the dimension, side, seed, boundary (always
    crossing) and intensity.
    """
    header = (
        f"contperc {DUMP_FORMAT_VERSION} d={box.dimension} L={box.side!r} "
        f"seed={config.seed} boundary=crossing lam={config.lam!r}"
    )
    rows = np.column_stack((config.centers, config.radii))
    np.savetxt(fp, rows, fmt="%.17g", header=header, comments="#")


# Header keys of each dump format version.
_HEADER_KEYS = {"v1": {"d", "L", "seed"}, "v2": {"d", "L", "seed", "boundary", "lam"}}


def load_configuration(fp) -> tuple[BallConfiguration, BoxSpec]:
    """Read a configuration written by dump_configuration.

    v1 files carry neither the boundary nor the intensity; they load with
    lam = nan.  A header naming any boundary but crossing raises ValueError.
    """
    own = isinstance(fp, (str, bytes, os.PathLike))
    handle = open(fp, "r") if own else fp
    try:
        header = handle.readline().strip()
        parts = header.split()
        version = parts[1] if len(parts) > 1 and parts[0] == "#contperc" else None
        meta = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
        if len(meta) != len(parts) - 2 or set(meta) != _HEADER_KEYS.get(version):
            raise ValueError(f"unrecognized configuration header: {header!r}")
        d = int(meta["d"])
        side = float(meta["L"])
        seed = int(meta["seed"])
        if meta.get("boundary", "crossing") != "crossing":
            raise ValueError(f"only the crossing boundary is supported: {header!r}")
        lam = float(meta.get("lam", "nan"))
        rows = [[float(tok) for tok in line.split()] for line in handle if line.strip()]
    finally:
        if own:
            handle.close()
    if rows:
        data = np.asarray(rows)
        if data.shape[1] != d + 1:
            raise ValueError("configuration rows do not match the header dimension")
        centers, radii = data[:, :d], data[:, d]
    else:
        centers = np.empty((0, d))
        radii = np.empty(0)
    config = BallConfiguration(centers=centers, radii=radii, seed=seed, lam=lam)
    return config, BoxSpec(dimension=d, side=side)
