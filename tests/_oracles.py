"""Independent oracles used by the tests: deliberately simple implementations."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.optimize import minimize
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from contperc.thresholds import KappaResult
from contperc.util import check_rho, exp_or_inf

_LOG2 = math.log(2.0)


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


def canonical_labels(labels):
    """Cluster labels renumbered by first appearance, as brute_force_labels numbers them."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.unique(first[inverse], return_inverse=True)[1]


def brute_force_percolates(config, box):
    """Crossing decision from the all-pairs labeling."""
    if config.n == 0:
        return False
    labels = brute_force_labels(config, box)
    low = set(labels[config.centers[:, 0] < config.radii].tolist())
    high = set(labels[(config.centers[:, 0] + config.radii) > box.side].tolist())
    return not low.isdisjoint(high)


def reference_critical_mark(labeling, marks):
    """Minimax mark between the faces of a hit graph, by a spanning tree of it in COO form.

    Balls keep their own numbers and the faces are nodes n and n + 1, so the
    weights reach scipy's spanning tree unsorted.  Every edge weighs the
    larger mark of its ends, floored at the smallest positive float (csgraph
    drops zero weights; the faces weigh 0).  The answer is the largest mark
    on the tree path from the low face to the high one, inf if there is none.
    """
    n = marks.size
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
    path = []
    node = pred[n + 1]
    while node != n:
        path.append(node)
        node = pred[node]
    return float(marks[path].max())


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


def reference_path_terms(rho, k, offsets):
    """(genealogy, geometry, distances) of one alternating path, one step at a time.

    d_1 = 1 + rho and d_i^2 = d_{i-1}^2 + 2 r_i a_i d_{i-1} + r_i^2 with step
    radii r_i = 2 for interior steps and 1 + rho for the last one.  Each
    offset may also be an array, for a batch of paths.
    """
    radii = [2.0] * (k - 1) + [1.0 + rho]
    dists = [1.0 + rho]
    for r_i, a_i in zip(radii, offsets):
        prev = dists[-1]
        dists.append(np.sqrt(prev * prev + 2.0 * r_i * a_i * prev + r_i * r_i))
    prod = 1.0
    for a in offsets:
        prod *= (1.0 - a) * (1.0 + a)
    genealogy = (4.0 * rho / ((1.0 + rho) ** 2 * np.sqrt(prod))) ** (1.0 / (k + 1))
    return genealogy, 2.0 * rho / dists[-1], dists


_GRID_STEP = 0.05
_COARSE_POINTS = 4096
_U_MAX = 400.0
_SLSQP_OPTIONS = {"ftol": 1e-14, "maxiter": 200}


def reference_term_gradients(rho, k, u):
    """d(genealogy)/du and d(geometry)/du at offsets a = tanh(u), u of length k.

    d genealogy / du_i = genealogy a_i / (k + 1), and distances differentiate
    forward, dd_j = (d_{j-1} + r_j a_j) / d_j dd_{j-1} + r_j d_{j-1} / d_j
    sech^2(u_j) e_j.
    """
    a = np.tanh(u)
    genealogy, geometry, dists = reference_path_terms(rho, k, a)
    d_dist = np.zeros(k)
    for j, r_j in enumerate([2.0] * (k - 1) + [1.0 + rho]):
        d_dist *= (dists[j] + r_j * a[j]) / dists[j + 1]
        d_dist[j] = r_j * dists[j] / dists[j + 1] / np.cosh(u[j]) ** 2
    return genealogy * a / (k + 1), -geometry / dists[-1] * d_dist


def reference_kappa_c_k(rho, k):
    """kappa_c(rho, k) by a coarse stage and SLSQP, without the stationarity curve.

    The coarse stage: a full grid of offsets with step 0.05 for k <= 3, else
    4096 uniform points from a fixed stream plus the zero offsets, and for
    rho > 2 every u_i = ln(rho / 2).  From each of its three best points one
    SLSQP solve of the epigraph form minimizes t over x = (u, t), u = atanh(a)
    in [0, 400], subject to t - genealogy(u) >= 0 and t - geometry(u) >= 0.
    The coarse optimum and the clipped solutions are evaluated together and
    the smallest wins.  Terms come from reference_path_terms at a = tanh(u),
    so 1 - a_i^2 carries a rounding of up to 2^-53 / (1 - a_i) relative.
    """
    if k <= 3:
        axis = np.arange(0.0, 1.0, _GRID_STEP)
        candidates = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    else:
        sample = np.random.default_rng(k).random((_COARSE_POINTS, k))
        candidates = np.vstack([sample, np.zeros((1, k))])
    candidates = np.arctanh(candidates)
    if rho > 2.0:
        candidates = np.vstack([candidates, np.full((1, k), math.log(rho / 2.0))])

    def values(u):
        genealogy, geometry, _ = reference_path_terms(rho, k, np.tanh(u).T)
        return np.maximum(genealogy, geometry)

    def gaps(x):
        genealogy, geometry, _ = reference_path_terms(rho, k, np.tanh(x[:-1]))
        return x[-1] - np.array([genealogy, geometry])

    def gaps_jac(x):
        d_terms = reference_term_gradients(rho, k, x[:-1])
        return np.hstack([-np.vstack(d_terms), np.ones((2, 1))])

    coarse = values(candidates)
    finalists = [candidates[np.argmin(coarse)]]
    for idx in np.argsort(coarse)[:3]:
        res = minimize(
            lambda x: x[-1],
            np.append(candidates[idx], coarse[idx]),
            jac=lambda x: np.eye(k + 1)[-1],
            method="SLSQP",
            bounds=[(0.0, _U_MAX)] * k + [(None, None)],
            constraints={"type": "ineq", "fun": gaps, "jac": gaps_jac},
            options=_SLSQP_OPTIONS,
        )
        finalists.append(np.clip(res.x[:-1], 0.0, _U_MAX))
    return float(values(np.array(finalists)).min())


# The library's curve and term functions (the `thresholds` module) as they
# stood before one evaluator per solve replaced them, kept unchanged apart
# from their imports.  The evaluator must reproduce their floats bit for bit;
# as `sum` of floats rounds differently from Python 3.12, both sum the same
# floats in the same order.


def _path_terms(rho: float, u) -> tuple[float, float, list[float]]:
    """Genealogy term, geometry term and distances D_0, ..., D_k of the path
    with offsets a_j = tanh(u_j).

    log cosh u = u + log1p(e^{-2u}) - log 2 stays finite for every u >= 0.
    """
    k = len(u)
    log_cosh = sum(x + math.log1p(math.exp(-2.0 * x)) for x in u) - k * _LOG2
    genealogy = exp_or_inf((math.log(4.0 * rho) - 2.0 * math.log1p(rho) + log_cosh) / (k + 1))
    dists = [1.0 + rho]
    for j, x in enumerate(u):
        r = 2.0 if j < k - 1 else 1.0 + rho
        d, a = dists[-1], math.tanh(x)
        dists.append(math.sqrt(d * d + 2.0 * r * a * d + r * r))
    return genealogy, 2.0 * rho / dists[-1], dists


def _stationary_u(rho: float, u_1: float, k: int) -> list[float]:
    """The offsets u_1, ..., u_k, u_j = atanh(a_j), of the stationarity curve
    through u_1 > 0 (module docstring).

    With q = K_j / D_j and t = r_{j+1} / D_j, a_{j+1} = 2q / (1 + s) with
    s = sqrt(1 + 4q (t + q)) when q <= 1, where a_{j+1} < 0.62 and atanh is
    exact.  Beyond it, w = 1 / (2q) gives a_{j+1} = 1 / (w + s'),
    s' = sqrt(w^2 + 2wt + 1), and 1 - a_{j+1} = w (1 + (w + 2t) / (s' + 1))
    / (w + s'); log q is kept, and w may underflow to 0.
    """
    radii = [2.0] * (k - 1) + [1.0 + rho]
    u = [u_1]
    a, d = math.tanh(u_1), 1.0 + rho
    for j in range(1, k):
        r_prev = radii[j - 1]
        d_prev, d = d, math.sqrt(d * d + 2.0 * r_prev * a * d + r_prev * r_prev)
        r = radii[j]
        # log f(a_j) = log(sinh(2 u_j) / 2), exact for small and large u_j.
        log_f = 2.0 * u[-1] - 2.0 * _LOG2 + math.log(-math.expm1(-4.0 * u[-1]))
        log_q = log_f + math.log(r / r_prev * d / d_prev)
        t = r / d
        if log_q <= 0.0:
            q = math.exp(log_q)
            a = 2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q * (t + q)))
            u.append(math.atanh(a))
        else:
            w = 0.5 * math.exp(-log_q)
            s = math.sqrt(w * w + 2.0 * w * t + 1.0)
            a = 1.0 / (w + s)
            log_gap = -log_q - _LOG2 + math.log1p((w + 2.0 * t) / (s + 1.0)) - math.log(w + s)
            u.append(0.5 * (math.log1p(a) - log_gap))
    return u


def bisection_kappa_c_k(rho, k):
    """kappa_c_k by plain bisection: up to 100 halvings of u_1 in [0, hi]
    along the stationarity curve, each of which evaluates the curve.

    It calls the frozen `_stationary_u` and `_path_terms` above, so a change
    in the order of the library's float operations shows as a difference
    in the last bits."""
    check_rho(rho)
    zero = [0.0] * k
    genealogy, geometry, _ = _path_terms(rho, zero)
    if genealogy >= geometry:
        return KappaResult(genealogy, tuple(zero), (genealogy, geometry), k)
    lo, hi = 0.0, (k + 2) * _LOG2 - math.log(4.0 * rho) + 2.0 * math.log1p(rho)
    top = _stationary_u(rho, hi, k)
    ends = [(zero, (genealogy, geometry)), (top, _path_terms(rho, top)[:2])]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        u = _stationary_u(rho, mid, k)
        terms = _path_terms(rho, u)[:2]
        if terms[0] < terms[1]:
            lo, ends[0] = mid, (u, terms)
        else:
            hi, ends[1] = mid, (u, terms)
    u, terms = min(ends, key=lambda end: max(end[1]))
    return KappaResult(max(terms), tuple(u), terms, k)


def high_precision_gap(rho, k, u_1):
    """log G - log H along the stationarity curve through u_1, at 60 digits.

    Written from the `thresholds` module docstring in mpmath's arbitrary
    exponent range: log G = (log(4 rho) - 2 log(1 + rho) + sum log cosh u_j)
    / (k + 1), log H = log(2 rho) - log D_k, f(a_j) = sinh(2 u_j) / 2, and
    a_{j+1} = 2K / (D_j + S) with 1 - a_{j+1} = (D_j + (D_j^2 + 4K r_{j+1})
    / (S + 2K)) / (D_j + S), so u_{j+1} = (log(1 + a) - log(1 - a)) / 2
    keeps its digits when a rounds to 1 (atanh a for a < 1/2).  rho and u_1
    are taken exactly.
    """
    with mpmath.workdps(60):
        rho, u = mpmath.mpf(rho), [mpmath.mpf(u_1)]
        radii = [mpmath.mpf(2)] * (k - 1) + [1 + rho]
        d = 1 + rho
        for j, r in enumerate(radii):
            d_prev, d = d, mpmath.sqrt(d * d + 2 * r * mpmath.tanh(u[j]) * d + r * r)
            if j + 1 < k:
                r_next = radii[j + 1]
                big_k = mpmath.sinh(2 * u[j]) / 2 * r_next * d * d / (r * d_prev)
                s = mpmath.sqrt(d * d + 4 * big_k * (r_next + big_k))
                a = 2 * big_k / (d + s)
                if a < 0.5:
                    u.append(mpmath.atanh(a))
                else:
                    one_minus_a = (d + (d * d + 4 * big_k * r_next) / (s + 2 * big_k)) / (d + s)
                    u.append((mpmath.log1p(a) - mpmath.log(one_minus_a)) / 2)
        log_g = (mpmath.log(4 * rho) - 2 * mpmath.log1p(rho) + sum(mpmath.log(mpmath.cosh(x)) for x in u)) / (k + 1)
        return log_g - mpmath.log(2 * rho) + mpmath.log(d)


def certified_kappa_bracket(rho, k, eps):
    """(low, high) with low <= kappa_c(rho, k) <= high and high - low <= eps,
    by branch and bound over boxes of offsets a in [0, 1]^k.

    The genealogy term increases and the geometry term decreases in every
    offset, so on a box [lo, hi] no value lies below max(genealogy(lo),
    geometry(hi)), while the value at any point bounds the minimum from
    above.  Each round evaluates the midpoint of every box; a box whose
    bound reaches the best value so far minus eps is set aside, and the
    others are halved across their widest side.  low is the smallest bound
    set aside and high the best value.  Rounding: both come from
    reference_path_terms in floats, so each is off by a few ulps, plus
    2^-53 / (1 - a_i) relative in the genealogy term.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    lo, hi = np.zeros((k, 1)), np.ones((k, 1))
    low = high = math.inf
    while lo.shape[1]:
        genealogy, geometry, _ = reference_path_terms(rho, k, (lo + hi) / 2.0)
        high = min(high, float(np.maximum(genealogy, geometry).min()))
        with np.errstate(divide="ignore"):  # the genealogy term at a_i = 1, unused
            geometry = reference_path_terms(rho, k, hi)[1]
        bound = np.maximum(reference_path_terms(rho, k, lo)[0], geometry)
        done = bound >= high - eps
        low = min(low, float(bound[done].min(initial=math.inf)))
        lo, hi = lo[:, ~done], hi[:, ~done]
        axis, box = np.argmax(hi - lo, axis=0), np.arange(lo.shape[1])
        mid = (lo[axis, box] + hi[axis, box]) / 2.0
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[axis, box] = mid
        lower_hi[axis, box] = mid
        lo, hi = np.hstack([lo, upper_lo]), np.hstack([lower_hi, hi])
    return low, high


def order_statistic_ranks(n):
    """(l, u) of the distribution-free 95% interval [X_(l), X_(u)] for a median of n draws.

    l is the largest rank with P(Bin(n, 1/2) < l) <= 1/40, the binomial
    probabilities summed one by one as exact fractions, and u = n + 1 - l.
    """
    below, rank = Fraction(0), 0
    while below + Fraction(math.comb(n, rank), 2**n) <= Fraction(1, 40):
        below += Fraction(math.comb(n, rank), 2**n)
        rank += 1
    return rank, n + 1 - rank
