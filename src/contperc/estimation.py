"""Percolation threshold estimation and the scale-free quantities built on it.

Every trial of a threshold run reduces to one number, its critical
intensity (the Newman-Ziff coupling; Newman & Ziff, PRL 85, 4104, 2000):
a trial is one marked Poisson process whose balls arrive in order of
increasing intensity, its configuration at lambda is its balls arriving
below lambda, and it crosses the box exactly when lambda exceeds the latest
arrival on a minimax path between the two faces.  Trial t is the process
of boolean_model.sample on derive_seed(seed, t), drawn to rising tops until
it has crossed (see _trial), so its critical intensity is finite and
depends on the seed and the trial's index alone, and
sample(canon, lambda, box, derive_seed(seed, t)) replays its configuration
at any lambda in the canonical box.  The trials run in contiguous shares,
one process per CPU, with results identical for any number of CPUs (see
_critical_intensities).  The crossing probability at lambda is the
empirical distribution function of the critical intensities.  The estimate
is its median, the intensity at which half of the trials cross, and the
95% interval is the pair of order statistics X_(l), X_(u) that covers the
true median whatever the distribution (binomial order statistics; David &
Nagaraja, Order Statistics, 3rd ed., 2003).

Scale handling.  estimate_lambda_c, size_ladder and alpha_sweep hand their
runs to _estimates, which checks every run before any sampling, then
canonicalizes each mixture: radii are divided by the largest radius and
weights by the total mass, and the box side is re-expressed in the same
units.  Each distinct canonical problem is solved once, and each run's
estimated intensity is mapped back through the exact scaling identities

    lambda_c(c * mixture) = lambda_c(mixture) / c,
    lambda_c(radii scaled by s) = lambda_c(mixture) / s^d.

The normalized threshold lambda_c * v_d * sum w (2r)^d and the covered
volume are computed from the canonical run, so mixtures that are equal up
to scale and mass produce bit-identical normalized results under matched
seeds ("radii scaled last").
"""

from __future__ import annotations

import math
# The workers of _critical_intensities and the modules they would load on
# first use load with this module, so that a run's time holds no imports.
import multiprocessing.connection
import multiprocessing.popen_fork
import os
import threading
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
from .util import MAX_SIMULATION_DIMENSION, CapacityError, check_int, check_rho, check_seed
from .util import derive_seed, ipow

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
    """(norm_factor, lam_hi): v_d sum w (2r)^d, and the bracket top, 8 over it."""
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


def _critical_mark(config: BallConfiguration, box: BoxSpec, marks: np.ndarray) -> float:
    """Smallest q at which the balls with mark < q cross the box; inf if none do.

    The balls must be in order of ascending (non-decreasing) mark, as a
    trial draws them.  This is the minimax mark over the paths between the
    two faces.  The hit graph gains the low and high face as nodes 0 and 1,
    joined to the balls touching each face, and ball i is node i + 2.  Every
    edge is stored in the row of its later end and weighs that end's mark,
    the larger of its ends' marks, floored at the smallest positive float
    because csgraph drops zero weights; one sort of the packed keys
    (row << 32) | col groups the rows.  The stored weights then ascend, so
    the spanning tree's stable sort of them is one linear pass.  Any minimum
    spanning tree holds a minimax path between any two nodes, so which tree
    scipy returns cannot change the value: the search from the low face
    decides crossing, and the answer is the mark of the latest ball on its
    path to the high face, the largest node there.
    """
    labeling = clusters(config, box)
    n = config.n
    ends = labeling.edges + 2
    low = np.flatnonzero(labeling.touches_low) + 2
    high = np.flatnonzero(labeling.touches_high) + 2
    rows = np.concatenate((ends.max(axis=0), low, high))
    cols = np.concatenate((ends.min(axis=0), np.zeros_like(low), np.ones_like(high)))
    keys = np.sort((rows << 32) | cols)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n + 2))))
    data = np.repeat(np.maximum(marks, 5e-324), np.diff(indptr[2:]))
    graph = csr_matrix((data, keys & 0xFFFFFFFF, indptr), shape=(n + 2, n + 2))
    tree = minimum_spanning_tree(graph, overwrite=True)
    _, pred = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    if pred[1] < 0:
        return math.inf
    latest = step = pred.item(1)
    while step != 0:
        if step > latest:
            latest = step
        step = pred.item(step)
    return float(marks[latest - 2])


def _trial(
    mixture: RadiusMixture, box: BoxSpec, seed: int, start: float, lam_hi: float
) -> tuple[float, int, int]:
    """(critical intensity, tops, balls) of the trial on `seed`.

    The trial is the process of boolean_model.sample on `seed`, tested on its
    balls below `start`, then, while they do not cross, below lam_hi (if
    `start` is below it), 2 lam_hi, 4 lam_hi and so on, each top drawn
    afresh.  Balls arriving later can only join paths whose latest arrival
    is later still, so the first top at which the trial crosses yields the
    critical intensity of the whole process: it depends on `seed` alone, and
    `start` only decides how much is drawn first.  A top expecting over
    MAX_EXPECTED_COUNT balls raises CapacityError before it is drawn.
    `tops` counts the tops tested and `balls` those below the last one.
    """
    top, tops = start, 1
    while True:
        config = sample(mixture, top, box, seed)
        critical = _critical_mark(config, box, config.arrivals)
        if critical < math.inf:
            return critical, tops, config.n
        del config  # before the next top is drawn, which would otherwise raise peak memory
        top = lam_hi if top < lam_hi else 2.0 * top
        tops += 1


def _share(
    mixture: RadiusMixture,
    box: BoxSpec,
    seed: int,
    trials: range,
    lam_hi: float,
    progress: ProgressFn | None,
) -> np.ndarray:
    """The critical intensities of one contiguous share of the trials, in order.

    The share's first trial is drawn past lam_hi, and each later one past
    the largest critical intensity below lam_hi of the share's trials before
    it (lam_hi if there is none), which is a cheap guess at where it
    crosses; the values do not depend on it (see _trial).  progress, if
    given, gets one line per trial: its index, its tops (layers), its balls
    and its critical intensity in normalized units.
    """
    norm_factor = _first_bracket(mixture, box.dimension)[0]
    critical = np.empty(len(trials))
    peak = None  # the largest critical intensity below lam_hi so far
    for i, t in enumerate(trials):
        start = lam_hi if peak is None else peak
        critical[i], tops, balls = _trial(mixture, box, derive_seed(seed, t), start, lam_hi)
        if critical[i] < lam_hi and (peak is None or critical[i] > peak):
            peak = critical[i]
        if progress is not None:
            progress(
                f"trial {t}: layers={tops} balls={balls} "
                f"lambda~={critical[i] * norm_factor:.5g}"
            )
    return critical


def _worker_share(sender, args, report: bool) -> None:
    """_share in a forked worker: sends (values, progress lines), or the
    exception it raised, down a one-way pipe."""
    lines: list[str] = []
    try:
        result = _share(*args, lines.append if report else None), lines
    except Exception as exc:
        result = exc
    sender.send(result)


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _critical_intensities(
    mixture: RadiusMixture,
    box: BoxSpec,
    seed: int,
    trials: int,
    lam_hi: float,
    progress: ProgressFn | None = None,
) -> np.ndarray:
    """Every trial's critical intensity, in trial order; trial t runs on derive_seed(seed, t).

    The trials are split into contiguous shares of at least 25 trials, at
    most one per CPU this process may run on (_cpu_count).  The calling
    process runs share 0 while one fork-started process per other share runs
    that share and sends its values back down a one-way pipe; the pipes are
    read in share order.  A worker that ends without sending (killed by the
    kernel for memory, say) raises ChildProcessError, which names the share
    and the worker's exit code, and an exception a worker raised is raised
    here; every worker is ended before this returns or raises.  With one
    share, in a daemon process (which may not have children, such as a pool
    worker), or while another thread runs (a fork would copy its locks in
    whatever state they are), the shares run here in turn.  Each critical
    intensity depends only on the seed and its trial's index (see _trial),
    so the result is bit-identical for any number of shares.  Memory is
    about one trial per process.  progress, if given, gets one line per
    trial in trial order: share 0's as its trials end, the other shares'
    after it.
    """
    shares = max(1, min(_cpu_count(), trials // 25))
    bounds = [trials * i // shares for i in range(shares + 1)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    if shares == 1 or multiprocessing.current_process().daemon or threading.active_count() > 1:
        return np.concatenate([_share(mixture, box, seed, r, lam_hi, progress) for r in ranges])
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for r in ranges[1:]:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(
                target=_worker_share,
                args=(sender, (mixture, box, seed, r, lam_hi), progress is not None),
            )
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        first = _share(mixture, box, seed, ranges[0], lam_hi, progress)
        rest = []
        for share, (worker, receiver) in enumerate(workers, 1):
            try:
                result = receiver.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"the worker running share {share} of the trials ended with exit code "
                    f"{worker.exitcode} before returning them"
                ) from None
            if isinstance(result, Exception):
                raise result
            rest.append(result)
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.terminate()
            worker.join()
    for _, lines in rest:
        for line in lines:
            progress(line)
    return np.concatenate([first, *(critical for critical, _ in rest)])


def _estimates(runs, trials: int, progress: ProgressFn | None) -> list[ThresholdEstimate]:
    """The estimate of each run (header, mixture, box, canonical side, seed), in order.

    Every run is checked before any sampling: invalid arguments raise
    ValueError, and runs whose trials expect more than MAX_EXPECTED_COUNT
    balls in all, at the bracket top lam_hi of each canonical box, raise
    CapacityError, since the cap on one sample does not bound a run of many.
    Each distinct canonical problem (atoms, box, seed) is then solved once
    by _critical_intensities, and each run is mapped back to its own units
    through the scaling identities.  progress, if given, gets each run's
    header (unless None), the trial lines the first time its problem is
    solved, and its median line.
    """
    check_int(trials, "trials", 50, message="need at least 50 trials")
    plans = []
    balls = 0.0
    for header, mixture, box, side, seed in runs:
        d = box.dimension
        check_int(d, "dimension", 2, MAX_SIMULATION_DIMENSION)
        check_seed(seed)
        canon, scale, mass = canonicalize(mixture)
        norm_factor, lam_hi = _first_bracket(canon, d)
        canon_box = BoxSpec(dimension=d, side=side)
        balls += trials * expected_count(canon, lam_hi, canon_box)
        denom = mass * ipow(scale, d)
        plans.append((header, box, seed, canon, canon_box, lam_hi, norm_factor, denom))
    if balls > MAX_EXPECTED_COUNT:
        raise CapacityError(
            f"the run's trials expect {balls:.3g} balls at the bracket top, "
            f"over the cap {MAX_EXPECTED_COUNT:.0e}"
        )
    low, high = _median_ranks(trials)
    solved: dict[tuple, np.ndarray] = {}
    out = []
    for header, box, seed, canon, canon_box, lam_hi, norm_factor, denom in plans:
        if progress is not None and header is not None:
            progress(header)
        key = (canon.atoms, canon_box, seed)
        if key not in solved:
            solved[key] = np.sort(
                _critical_intensities(canon, canon_box, seed, trials, lam_hi, progress)
            )
        critical = solved[key]
        lam_c = float(np.median(critical))
        x_low, x_high = critical.item(low - 1), critical.item(high - 1)
        if progress is not None:
            progress(
                f"median: lambda~={lam_c * norm_factor:.5g} "
                f"ci=[{x_low * norm_factor:.5g},{x_high * norm_factor:.5g}]"
            )
        normalized = lam_c * norm_factor
        out.append(
            ThresholdEstimate(
                lambda_c=lam_c / denom,
                ci_low=x_low / denom,
                ci_high=x_high / denom,
                box_side=box.side,
                trials=trials,
                normalized=normalized,
                covered_volume=-math.expm1(-normalized / ipow(2.0, box.dimension)),
                dimension=box.dimension,
                seed=int(seed),
                normalized_ci_low=x_low * norm_factor,
                normalized_ci_high=x_high * norm_factor,
                critical=tuple(critical.tolist()),
            )
        )
    return out


def estimate_lambda_c(
    mixture: RadiusMixture,
    box: BoxSpec,
    trials: int,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> ThresholdEstimate:
    """Estimate the critical intensity as the median of the trials' critical intensities.

    The trials run in the canonicalized box, where _critical_intensities
    gives each one's critical intensity; each share's first trial is first
    drawn to lambda_hi = 8 / (v_d sum w (2r)^d), eight times the branching
    lower bound.  The interval is [X_(l), X_(u)] with the ranks of
    _median_ranks.  A run expecting more than MAX_EXPECTED_COUNT balls over
    its trials at lambda_hi raises CapacityError before any sampling.
    """
    return _estimates([(None, mixture, box, box.side / mixture.r_max, seed)], trials, progress)[0]


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
    runs = []
    for i, side in enumerate(sides):
        box = BoxSpec(dimension=d, side=float(side))
        header = f"ladder level {i}: L={side:g}"
        runs.append((header, mixture, box, box.side / mixture.r_max, derive_seed(seed, 101, i)))
    estimates = _estimates(runs, trials, progress)
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
    check_int(d, "d", 0)
    new_weights = mixture.weights / ipow(mixture.radii, d)
    return RadiusMixture(zip(mixture.radii.tolist(), new_weights.tolist()))


def multiscale_family(n: int, a: float, d: int) -> RadiusMixture:
    """Geometric multiscale mixture with atoms (a^-k, a^(d k)) for k < n.

    Every atom contributes the same d-th moment w r^d = 1, so the n scales
    carry equal coverage weight.
    """
    check_int(n, "n", 1)
    if not a > 1.0:
        raise ValueError("a must exceed 1")
    check_int(d, "d", 1)
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
    box: BoxSpec,
    trials: int,
    seed: int = 0,
    progress: ProgressFn | None = None,
) -> list[ThresholdEstimate]:
    """Estimate critical covered volumes along the two-radius interpolation,
    one estimate per alpha, in the order of `alphas`.

    The dimension is the box's, and its side is read in units of the largest
    mixture radius, so every sweep point runs in the canonical box of side
    box.side, at the same relative finite-size resolution.  All points share
    the one seed for the same reason (matched trial streams; common random
    numbers also smooth the curve).  The alpha = 0 and alpha = 1 endpoints are
    then the identical canonical problem, the unit ball, which _estimates
    solves once, reporting only the alpha line and the median line for the
    second.  Every alpha is validated before the first estimate starts, an
    empty list is rejected, and the run size is checked summed over the alphas.
    """
    if len(alphas) == 0:
        raise ValueError("need at least one alpha")
    mixtures = [mixture_for_alpha(float(alpha), rho, box.dimension) for alpha in alphas]
    runs = []
    for alpha, mixture in zip(alphas, mixtures):
        physical = BoxSpec(dimension=box.dimension, side=box.side * mixture.r_max)
        runs.append((f"alpha={alpha:g}", mixture, physical, box.side, seed))
    return _estimates(runs, trials, progress)
