"""Independent oracles used by the tests: deliberately simple implementations."""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from contperc import thresholds
from contperc.rng import stream


def brute_force_edges(config):
    """Every intersecting unordered pair (i, j), i < j, by an all-pairs scan."""
    n = config.n
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            delta = config.centers[i] - config.centers[j]
            if float(delta @ delta) < (config.radii[i] + config.radii[j]) ** 2:
                edges.add((i, j))
    return edges


def brute_force_labels(config, box):
    """All-pairs O(n^2) cluster labels, canonicalized by first appearance."""
    n = config.n
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in brute_force_edges(config):
        parent[find(i)] = find(j)
    canon = {}
    return np.array([canon.setdefault(find(i), len(canon)) for i in range(n)])


def brute_force_percolates(config, box):
    """Crossing decision from the all-pairs labeling."""
    if config.n == 0:
        return False
    labels = brute_force_labels(config, box)
    low = set(labels[config.centers[:, 0] < config.radii].tolist())
    high = set(labels[(config.centers[:, 0] + config.radii) > box.side].tolist())
    return not low.isdisjoint(high)


def power_iteration_largest_eigenvalue(matrix, iters=500_000, tol=1e-13):
    """Largest eigenvalue of a positive 2x2 matrix by plain power iteration.

    Convergence degrades as the spectrum approaches a +-lambda pair (ratio
    of the off-diagonals very far from 1); callers should keep that ratio
    moderate.
    """
    (a11, a12), (a21, a22) = np.asarray(matrix, dtype=float).tolist()
    v1, v2 = 1.0, 1.0
    value = 0.0
    for _ in range(iters):
        w1 = a11 * v1 + a12 * v2
        w2 = a21 * v1 + a22 * v2
        norm = math.hypot(w1, w2)
        v1, v2 = w1 / norm, w2 / norm
        rayleigh = v1 * (a11 * v1 + a12 * v2) + v2 * (a21 * v1 + a22 * v2)
        if abs(rayleigh - value) <= tol * abs(rayleigh):
            return rayleigh
        value = rayleigh
    return value


def quadratic_largest_eigenvalue(matrix):
    """Largest eigenvalue of a 2x2 matrix from the characteristic polynomial."""
    (a11, a12), (a21, a22) = np.asarray(matrix, dtype=float).tolist()
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = math.sqrt(max(0.0, tr * tr - 4.0 * det))
    return 0.5 * (tr + disc)


def rejection_sample_slab_volume(d, r, a, b, n_samples, rng):
    """Monte Carlo slab volume by rejection from the bounding cube.

    Returns (estimate, standard_error).
    """
    pts = rng.uniform(-r, r, size=(n_samples, d))
    inside_ball = np.einsum("ij,ij->i", pts, pts) < r * r
    x1 = pts[:, 0]
    if a == 0.0:
        in_slab = inside_ball & (x1 <= b * r)
    else:
        in_slab = inside_ball & (x1 > a * r) & (x1 <= b * r)
    p = in_slab.mean()
    cube = (2.0 * r) ** d
    return cube * p, cube * np.sqrt(p * (1.0 - p) / n_samples)


def _dist2(a, b):
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def _norm2(a):
    return sum(float(x) ** 2 for x in a)


def brute_force_chains(points_unit, points_large, rho, k):
    """Every ordered chain as (unit index tuple, large index), over all k-permutations.

    A chain starts within 1 + rho of the origin, steps between distinct unit
    centers closer than 2 and ends at a large center within 1 + rho of its
    last unit center; for k = 0 it is a large center within 2 rho of the
    origin.  All comparisons are strict.
    """
    if k == 0:
        return [((), j) for j, q in enumerate(points_large) if _norm2(q) < (2.0 * rho) ** 2]
    reach2 = (1.0 + rho) ** 2
    chains = []
    for perm in itertools.permutations(range(len(points_unit)), k):
        x = [points_unit[i] for i in perm]
        if _norm2(x[0]) >= reach2:
            continue
        if any(_dist2(a, b) >= 4.0 for a, b in zip(x, x[1:])):
            continue
        chains += [(perm, j) for j, q in enumerate(points_large) if _dist2(x[-1], q) < reach2]
    return chains


def brute_force_slab_tally(points_unit, points_large, rho, k, n_slices):
    """Slab-index tally of the brute-force chains, one scalar step at a time."""

    def slab(center, target, step):
        norm = math.sqrt(_norm2(center))
        if norm == 0.0:
            return 0
        dot = sum((float(t) - float(c)) * float(c) for t, c in zip(target, center))
        frac = dot / (norm * step)
        if frac <= 1.0 / n_slices:
            return 0
        return min(n_slices - 1, math.ceil(frac * n_slices) - 1)

    tally = {}
    for perm, j in brute_force_chains(points_unit, points_large, rho, k):
        x = [points_unit[i] for i in perm]
        key = tuple(slab(a, b, 2.0) for a, b in zip(x, x[1:]))
        key += (slab(x[-1], points_large[j], 1.0 + rho),)
        tally[key] = tally.get(key, 0) + 1
    return tally


def reference_path_terms(rho, k, offsets):
    """Scalar (genealogy, geometry, distances) of one alternating path, one step at a time.

    d_1 = 1 + rho and d_i^2 = d_{i-1}^2 + 2 r_i a_i d_{i-1} + r_i^2 with step
    radii r_i = 2 for interior steps and 1 + rho for the last one.
    """
    radii = [2.0] * (k - 1) + [1.0 + rho]
    dists = [1.0 + rho]
    for r_i, a_i in zip(radii, offsets):
        prev = dists[-1]
        dists.append(math.sqrt(prev * prev + 2.0 * r_i * a_i * prev + r_i * r_i))
    prod = 1.0
    for a in offsets:
        prod *= (1.0 - a) * (1.0 + a)
    genealogy = (4.0 * rho / ((1.0 + rho) ** 2 * math.sqrt(prod))) ** (1.0 / (k + 1))
    return genealogy, 2.0 * rho / dists[-1], dists


def reference_kappa_c_k(rho, k):
    """kappa_c(rho, k) with the coarse stage of `thresholds.kappa_c_k` and one
    separate SLSQP solve of the epigraph form per start, as three solves.

    Each solve minimizes t over x = (u, t) subject to t - genealogy(u) >= 0
    and t - geometry(u) >= 0, from one of the three best coarse points; the
    coarse optimum and the clipped solutions are evaluated together and the
    first smallest wins.
    """
    if k <= 3:
        axis = np.arctanh(np.arange(0.0, 1.0, thresholds._GRID_STEP))
        candidates = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    else:
        shape = (thresholds._COARSE_POINTS, k)
        sample = np.arctanh(stream(thresholds._COARSE_SEED, k).random(shape))
        candidates = np.vstack([sample, np.zeros((1, k))])
    if rho > 2.0:
        candidates = np.vstack([candidates, np.full((1, k), math.log(rho / 2.0))])
    genealogy, geometry, _ = thresholds._path_terms(rho, candidates)
    values = np.maximum(genealogy, geometry)
    order = np.argsort(values)

    def gaps(x):
        return x[-1] - np.concatenate(thresholds._path_terms(rho, x[None, :-1])[:2])

    def gaps_jac(x):
        u = x[None, :-1]
        d_terms = thresholds._term_gradients(rho, u, thresholds._path_terms(rho, u))
        return np.hstack([-np.vstack(d_terms), np.ones((2, 1))])

    finalists = [candidates[order[0]]]
    if values[order[0]] > thresholds.genealogy_envelope(rho, k):
        for idx in order[:3]:
            res = minimize(
                lambda x: x[-1],
                np.append(candidates[idx], values[idx]),
                jac=lambda x: np.eye(k + 1)[-1],
                method="SLSQP",
                bounds=[(0.0, thresholds._U_MAX)] * k + [(None, None)],
                constraints={"type": "ineq", "fun": gaps, "jac": gaps_jac},
                options=thresholds._SLSQP_OPTIONS,
            )
            finalists.append(np.clip(res.x[:-1], 0.0, thresholds._U_MAX))
    genealogy, geometry, _ = thresholds._path_terms(rho, np.array(finalists))
    return float(np.maximum(genealogy, geometry).min())
