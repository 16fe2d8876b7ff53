"""Minimax threshold constants for alternating paths in two-radius Boolean models.

For a radius ratio rho > 1 and a path shape parameter k >= 1, the constant
kappa_c(rho, k) is the infimum over radial offsets (a_1, ..., a_k) in
[0, 1)^k of the larger of two terms:

* a genealogy term G, the growth rate of the associated branching process,
  (4 rho / ((1+rho)^2 sqrt(prod(1 - a_j^2))))^(1/(k+1)),
* a geometry term H = 2 rho / D_k, where D_0 = 1 + rho and
  D_j^2 = D_{j-1}^2 + 2 r_j a_j D_{j-1} + r_j^2 is the law of cosines for a
  step of length r_j = 2 (j < k) or r_k = 1 + rho leaving at offset a_j.

Why the problem is one-dimensional.  G increases and H decreases in every
offset, and max(G, H) grows without bound as any offset tends to 1, so a
minimizer exists.  If G(0) >= H(0), the zero offsets are optimal, since no
offset lowers G.  Otherwise G = H at every minimizer: where G > H, lowering
a positive offset lowers G, and where G < H, raising any offset lowers H.
Every offset is also positive there: raising a zero a_j lowers H to first
order and raises G only to second order, and lowering another, positive
offset then brings both terms below their common value.  An interior
minimizer of max(G, H) on G = H satisfies grad log G = mu grad log D_k with
mu > 0.  In u = atanh(a), d log G / du_j = a_j / (k + 1), and the ratio of
the conditions for u_j and u_{j+1} eliminates mu:

    f(a_{j+1}) (D_j + r_{j+1} a_{j+1}) = K_j = f(a_j) r_{j+1} D_j^2 / (r_j D_{j-1}),

with f(a) = a / (1 - a^2) = sinh(2u) / 2.  Its positive root
a_{j+1} = 2K / (D_j + S), S = sqrt(D_j^2 + 4K (r_{j+1} + K)), is free of
cancellation, and so is 1 - a_{j+1} = (D_j + (D_j^2 + 4K r_{j+1}) / (S + 2K))
/ (D_j + S).  So u_1 fixes every offset, and `kappa_c_k` finds the point of
this curve where log G - log H changes sign.  That function increases along
the curve wherever it was sampled (k <= 12, rho up to 1e150), so its one
root is the minimizer; the tests hold the result against an SLSQP solve and
a certified branch-and-bound bracket that do not use the curve.  K and
1 - a are carried in logs, since K passes double range for large rho.
Every reported value, the envelope and `objective` come from one
plain-float evaluation of both terms, in u, where 1 - a^2 = sech^2 u does
not cancel as the offsets crowd toward 1.  That evaluation and the curve
are one function, `_evaluator`, built once per solve; the tests hold its
floats to a frozen copy of the code the golden outputs were written with.

How the crossing is found: locate, then replay.  Within some hundreds of
ulps of the crossing, the computed sign of G - H flips back and forth with
rounding.  The float a root-finder stops at so depends on the points it
visits, and a faster method than bisection would change the last digits of
the results.  `kappa_c_k` therefore keeps the bisection of u_1 in [0, hi]
down to adjacent floats, but evaluates only the midpoints whose side is in
doubt.  It first locates the crossing by Illinois regula falsi on
log G - log H (Dowell & Jarratt, BIT 11, 1971), and keeps the nearest
points `below` and `above` it at which that difference lies outside the
band [-doubt, doubt], doubt = 2^-48 (k + 1) hi.

The band's width: against a 1000-digit evaluation of the curve from the
same u_1 (rho from 1 + 1e-12 to 1e150, k <= 12), the computed difference
was within 0.85 * 2^-53 (k + 1) hi of the exact one everywhere on [0, hi],
and within 0.3 * 2^-53 (k + 1) hi near the crossing.  That scale follows
the largest term: log G sums the k values u_j, whose sum stays below hi at
the crossing, and each of the k additions and k steps of the curve rounds
at that magnitude before the division by k + 1.  doubt is 32 times the
scale, more than twice the largest error seen.  A point outside the band
thus has the sign of the exact difference, and, the difference being
increasing, so has every point beyond it.  The bisection moves an end to a
midpoint at or below `below`, or at or above `above`, without evaluating
it, and evaluates each end so moved once, after the loop.  Its result is
the plain bisection's, bit for bit.  On the benchmark's 90 solves it
evaluates the curve 1587 times, and the zero offsets once per solve, where
plain bisection evaluates the curve 4311 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .util import check_rho

__all__ = [
    "KappaResult",
    "objective",
    "kappa_c_k",
    "kappa_c",
    "kappa_c1_closed_form",
    "genealogy_envelope",
    "k2_crossover_rho",
]

MAX_K = 12
# Halvings of the bisection bracket [0, hi], hi < 360; a crossing above
# hi * 2**-47 is resolved to the float before the limit.
_BISECTIONS = 100
_LOG2 = math.log(2.0)
# Half-width, per unit of (k + 1) hi, of the band around 0 outside which
# the computed log G - log H has the sign of the exact one (module docstring).
_DOUBT = 2.0**-48


@dataclass(frozen=True)
class KappaResult:
    """Optimized threshold constant with the offsets achieving it.

    `u` holds the offsets as u_j = atanh(a_j), the form the solve works in:
    past rho of about 3e8 the largest a_j rounds to 1, but u_j stays exact,
    and `objective(rho, u=result.u)` returns `branch_values`.
    """

    kappa: float
    u: tuple[float, ...]
    branch_values: tuple[float, float]
    k_used: int
    certified: bool | None = None

    @property
    def offsets(self) -> tuple[float, ...]:
        """The offsets a_j = tanh(u_j) in [0, 1]."""
        return tuple(math.tanh(x) for x in self.u)


def _evaluator(rho: float, k: int):
    """The evaluator of k-step paths at this rho, built once per solve.

    `evaluate(u)` returns (u, (G, H)) for the offsets u_j = atanh(a_j).  u
    holds all k offsets, or u_1 alone, which is first extended in place
    along the stationarity curve through u_1 > 0 (module docstring).  The
    constants of (rho, k) are computed here once; each call does only the
    float operations of the curve and then of the two terms.

    The curve: with q = K_j / D_j and t = r_{j+1} / D_j, a_{j+1} = 2q / (1 + s)
    with s = sqrt(1 + 4q (t + q)) when q <= 1, where a_{j+1} < 0.62 and atanh
    is exact.  Beyond it, w = 1 / (2q) gives a_{j+1} = 1 / (w + s'),
    s' = sqrt(w^2 + 2wt + 1), and 1 - a_{j+1} = w (1 + (w + 2t) / (s' + 1))
    / (w + s'); log q is kept, and w may underflow to 0.

    The terms: log cosh u = u + log1p(e^{-2u}) - log 2 stays finite for
    every u >= 0, and D_j follows the law of cosines from D_0 = 1 + rho.
    """
    d_0 = 1.0 + rho
    log_base = math.log(4.0 * rho) - 2.0 * math.log1p(rho)
    k_log2, k_plus_1, two_rho, two_log2 = k * _LOG2, k + 1, 2.0 * rho, 2.0 * _LOG2
    radii = [2.0] * (k - 1) + [d_0]
    # (2 r, r^2) of each step of the path, and (2 r_prev, r_prev^2,
    # r / r_prev, r) of each step of the curve past the first.
    path_steps = [(2.0 * r, r * r) for r in radii]
    curve_steps = [
        (2.0 * r_prev, r_prev * r_prev, r / r_prev, r) for r_prev, r in zip(radii, radii[1:])
    ]

    def evaluate(u: list[float]) -> tuple[list[float], tuple[float, float]]:
        if len(u) < k:
            x = u[0]
            a, d = math.tanh(x), d_0
            for two_r_prev, r_prev_sq, r_ratio, r in curve_steps:
                d_prev, d = d, math.sqrt(d * d + two_r_prev * a * d + r_prev_sq)
                # log f(a_j) = log(sinh(2 u_j) / 2), exact for small and large u_j.
                log_f = 2.0 * x - two_log2 + math.log(-math.expm1(-4.0 * x))
                log_q = log_f + math.log(r_ratio * d / d_prev)
                t = r / d
                if log_q <= 0.0:
                    q = math.exp(log_q)
                    a = 2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q * (t + q)))
                    x = math.atanh(a)
                else:
                    w = 0.5 * math.exp(-log_q)
                    s = math.sqrt(w * w + 2.0 * w * t + 1.0)
                    a = 1.0 / (w + s)
                    log_gap = -log_q - _LOG2 + math.log1p((w + 2.0 * t) / (s + 1.0)) - math.log(w + s)
                    x = 0.5 * (math.log1p(a) - log_gap)
                u.append(x)
        # sum() of the same floats in the same order: from Python 3.12 it
        # compensates, so the list must not be summed any other way.
        log_cosh = sum([x + math.log1p(math.exp(-2.0 * x)) for x in u]) - k_log2
        try:
            genealogy = math.exp((log_base + log_cosh) / k_plus_1)
        except OverflowError:  # as util.exp_or_inf
            genealogy = math.inf
        d = d_0
        for (two_r, r_sq), x in zip(path_steps, u):
            d = math.sqrt(d * d + two_r * math.tanh(x) * d + r_sq)
        return u, (genealogy, two_rho / d)

    return evaluate


def objective(rho: float, offsets=(), *, u=None) -> tuple[float, float]:
    """Return (genealogy_term, geometry_term) of the path with k radial offsets;
    the caller takes the max.

    The offsets are given either as k values a_j in [0, 1) or, by keyword,
    as k values u_j = atanh(a_j) in [0, inf), which also reach offsets that
    round to 1 (see KappaResult.u).
    """
    check_rho(rho)
    if u is None:
        if len(offsets) == 0 or any(not 0.0 <= a < 1.0 for a in offsets):
            raise ValueError("offsets must be one or more values in [0, 1)")
        u = [math.atanh(a) for a in offsets]
    elif len(offsets) or len(u) == 0 or any(not 0.0 <= x < math.inf for x in u):
        raise ValueError("u must be one or more finite values >= 0, given without offsets")
    return _evaluator(rho, len(u))(list(u))[1]


def genealogy_envelope(rho: float, k: int) -> float:
    """Zero-offset lower bound (4 rho / (1+rho)^2)^(1/(k+1)) for kappa_c(rho, k)."""
    return _evaluator(rho, k)([0.0] * k)[1][0]


def _log_gap(terms: tuple[float, float]) -> float:
    return math.log(terms[0]) - math.log(terms[1])


def _certain_sides(evaluate, k: int, hi: float, f_0: float, f_hi: float) -> tuple[float, float]:
    """Points u_1 in [0, hi] below and above the crossing, as close to it as
    found, at which the sign of G - H is certain.

    f_0 and f_hi are log G - log H at 0 and hi.  Those ends are kept unless
    a point nearer the crossing has log G - log H outside the band
    [-doubt, doubt], doubt = _DOUBT (k + 1) hi.  Illinois regula falsi
    narrows the bracket until an iterate falls inside the band; then one
    probe on each side, where the bracket's slope puts the difference at
    -2 doubt and 2 doubt, tries to step past it.
    """
    doubt = _DOUBT * (k + 1) * hi
    (a, f_a), (b, f_b) = (0.0, f_0), (hi, f_hi)
    g_a, g_b, kept = f_a, f_b, None
    while True:
        x = a - g_a * (b - a) / (g_b - g_a)
        if not a < x < b:
            return a, b
        f_x = _log_gap(evaluate([x])[1])
        if abs(f_x) <= doubt:
            break
        # Illinois: an end kept twice running has its value halved.
        if f_x < 0.0:
            a, f_a, g_a = x, f_x, f_x
            if kept == "b":
                g_b *= 0.5
            kept = "b"
        else:
            b, f_b, g_b = x, f_x, f_x
            if kept == "a":
                g_a *= 0.5
            kept = "a"
    slope = (f_b - f_a) / (b - a)
    root, step = x - f_x / slope, 2.0 * doubt / slope
    for y in (root - step, root + step):
        if a < y < b:
            f_y = _log_gap(evaluate([y])[1])
            if f_y < -doubt:
                a = y
            elif f_y > doubt:
                b = y
    return a, b


def kappa_c_k(rho: float, k: int) -> KappaResult:
    """Minimize the alternating-path objective over offsets in [0, 1)^k.

    The zero offsets when G(0) >= H(0); otherwise u_1 is bisected along
    the stationarity curve until the midpoint rounds to an end, keeping one
    end with G < H and one with G >= H, and the end with the smaller
    max(G, H) wins (the G < H end on a tie).  Only the midpoints between
    the points _certain_sides finds are evaluated; the side of every other
    is certain, so the result is that of evaluating them all, bit for bit
    (module docstring).  k = 1 meets kappa_c1_closed_form to 1e-14 for
    every rho up to 1e150.
    """
    check_rho(rho)
    if not isinstance(k, int) or not 1 <= k <= MAX_K:
        raise ValueError(f"k must lie in 1..{MAX_K}")

    evaluate = _evaluator(rho, k)
    zero = evaluate([0.0] * k)
    genealogy, geometry = zero[1]
    if genealogy >= geometry:
        return KappaResult(genealogy, tuple(zero[0]), zero[1], k)
    # Every offset raises G, so G >= 2 > sqrt(2) > H(0) >= H once
    # log cosh u_1 >= (k + 1) log 2 - log(4 rho / (1 + rho)^2); as
    # log cosh x >= x - log 2, this hi brackets the crossing from above.
    lo, hi = 0.0, (k + 2) * _LOG2 - math.log(4.0 * rho) + 2.0 * math.log1p(rho)
    ends = [zero, evaluate([hi])]
    below, above = _certain_sides(evaluate, k, hi, *(_log_gap(terms) for _, terms in ends))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below < mid < above:
            end = evaluate([mid])
            upper = end[1][0] >= end[1][1]
        else:
            end, upper = None, mid >= above
        if upper:
            hi, ends[1] = mid, end
        else:
            lo, ends[0] = mid, end
    ends = [end or evaluate([x]) for end, x in zip(ends, (lo, hi))]
    u, terms = min(ends, key=lambda end: max(end[1]))
    return KappaResult(max(terms), tuple(u), terms, k)


def kappa_c(rho: float, k_max: int = 6) -> KappaResult:
    """Minimum of kappa_c_k over k = 1 .. k_max, with a truncation certificate.

    kappa_c_k(rho, k) is at least the zero-offset envelope
    (4 rho/(1+rho)^2)^(1/(k+1)), which increases with k, so the search stops
    at the first k whose envelope reaches the minimum so far; the first k
    attaining the minimum wins ties.  The result is certified complete if
    the envelope at k_max + 1 already reaches the minimum found: every
    k > k_max then costs at least that much.  Otherwise the result is
    flagged uncertified.
    """
    if not isinstance(k_max, int) or not 1 <= k_max <= MAX_K:
        raise ValueError(f"k_max must lie in 1..{MAX_K}")
    best = kappa_c_k(rho, 1)
    for k in range(2, k_max + 1):
        if genealogy_envelope(rho, k) >= best.kappa:
            break
        best = min(best, kappa_c_k(rho, k), key=lambda r: r.kappa)
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

    Bisection of kappa_c_k(rho, 2) - kappa_c_k(rho, 1), positive at rho = 2
    and negative at rho = 12, to absolute tolerance tol, which must be
    positive and finite.  This is an empirical crossover estimate only; no
    claim is made that the k = 1 optimum stays global all the way up to
    this point.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    lo, hi = 2.0, 12.0
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if kappa_c_k(mid, 2).kappa > kappa_c_k(mid, 1).kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
