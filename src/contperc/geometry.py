"""Exact and asymptotic volumes of balls and spherical slabs in arbitrary dimension.

A slab of the ball B(0, r) in R^d is the set of points whose first coordinate
lies in (a*r, b*r] for fractions 0 <= a < b <= 1.  Directions other than the
first axis give congruent sets, so only the fractions matter for volume.

Convention for a = 0: the slab is the whole region { y in B(0,r) : y_1 <= b*r },
i.e. it absorbs the entire lower half-ball.  This breaks naive additivity at
a = 0 but makes a partition 0 = t_0 < t_1 < ... < t_N = 1 of the fractions
cover the ball exactly once: the first slab contributes everything below
t_1 * r and each later slab the ring between consecutive fractions.

All volume ratios are computed in log space.  High-dimensional slabs decay
like (1 - a^2)^(d/2) relative to the ball, far below double-precision range
for d in the thousands, so the regularized incomplete beta function behind
the spherical-cap formula is evaluated by its continued fraction directly
in log form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .util import exp_or_inf

__all__ = [
    "SlabSpec",
    "unit_ball_volume",
    "log_unit_ball_volume",
    "slab_volume",
    "log_slab_volume",
    "slab_log_rate",
    "log_upper_cap_fraction",
]

_LN_PI = math.log(math.pi)
_LN_HALF = math.log(0.5)

# Relative tolerance of the incomplete-beta continued fraction.
_BETA_CF_TOL = 1e-12
_BETA_CF_MAX_ITER = 10_000


@dataclass(frozen=True)
class SlabSpec:
    """A slab of the ball of radius `radius` in dimension `dimension`.

    `lower` and `upper` are the fractions a and b above, with the a = 0
    convention described in the module docstring.
    """

    dimension: int
    radius: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not (0.0 <= self.lower < self.upper <= 1.0):
            raise ValueError("fractions must satisfy 0 <= lower < upper <= 1")


def log_unit_ball_volume(d: int) -> float:
    """Return ln(v_d), the log volume of the unit ball in R^d."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return 0.5 * d * _LN_PI - gammaln(0.5 * d + 1.0)


def unit_ball_volume(d: int) -> float:
    """Return v_d = pi^(d/2) / Gamma(d/2 + 1).

    Computed through the log-gamma function, accurate to better than
    twelve significant digits for d up to several hundred.
    """
    return math.exp(log_unit_ball_volume(d))


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz).

    Converges for x below the crossover (a + 1) / (a + b + 2); callers are
    responsible for using the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_CF_TOL:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction failed to converge for "
        f"a={a!r}, b={b!r}, x={x!r}"
    )


def _log_betainc(a: float, b: float, x: float) -> float:
    """Return ln(I_x(a, b)) for the regularized incomplete beta function.

    Stable for extreme parameter ratios where I_x underflows double
    precision; the direct branch is pure log arithmetic.
    """
    if x <= 0.0:
        return -math.inf
    if x >= 1.0:
        return 0.0
    log_beta = gammaln(a) + gammaln(b) - gammaln(a + b)
    if x < (a + 1.0) / (a + b + 2.0):
        return (
            a * math.log(x)
            + b * math.log1p(-x)
            - math.log(a)
            - log_beta
            + math.log(_beta_cont_frac(a, b, x))
        )
    # Complement branch: I_x(a,b) = 1 - I_{1-x}(b,a), with the complement
    # evaluated by the direct formula.  Here I_x is bounded away from 0,
    # so log1p is safe.
    log_comp = (
        b * math.log1p(-x)
        + a * math.log(x)
        - math.log(b)
        - log_beta
        + math.log(_beta_cont_frac(b, a, 1.0 - x))
    )
    if log_comp >= 0.0:
        # Rounding pushed the complement to 1; the direct value is 0.
        return -math.inf
    return math.log1p(-math.exp(log_comp))


def log_upper_cap_fraction(d: int, t: float) -> float:
    """Return ln of the fraction of the unit d-ball with first coordinate > t.

    Spherical-cap formula: the fraction equals (1/2) I_{1-t^2}((d+1)/2, 1/2).
    `t` must lie in [0, 1]; t = 0 gives the half ball, t = 1 the empty cap.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    if not 0.0 <= t <= 1.0:
        raise ValueError("cap height fraction must lie in [0, 1]")
    x = (1.0 - t) * (1.0 + t)
    return _LN_HALF + _log_betainc(0.5 * (d + 1), 0.5, x)


def log_slab_volume(spec: SlabSpec) -> float:
    """Return ln of the slab volume for `spec`."""
    d = spec.dimension
    log_vd = log_unit_ball_volume(d)
    log_scale = d * math.log(spec.radius) + log_vd
    log_fb = log_upper_cap_fraction(d, spec.upper)
    if spec.lower == 0.0:
        # Everything below upper * r: full ball minus the upper cap.
        return log_scale + math.log1p(-math.exp(log_fb))
    log_fa = log_upper_cap_fraction(d, spec.lower)
    diff = log_fb - log_fa
    if diff >= 0.0:
        # Only possible through rounding when upper is at machine distance
        # from lower; the true volume is then below representable range.
        return -math.inf
    return log_scale + log_fa + math.log1p(-math.exp(diff))


def slab_volume(spec: SlabSpec) -> float:
    """Return the exact volume of the slab described by `spec`.

    The volume is 0.0 below double-precision range and math.inf above it;
    use `log_slab_volume` or `slab_log_rate` in those regimes.
    """
    return exp_or_inf(log_slab_volume(spec))


def slab_log_rate(spec: SlabSpec) -> float:
    """Return (1/d) ln(slab_volume / v_d) for the slab `spec`.

    As the dimension grows this converges to ln(r * sqrt(1 - a^2)): the
    slab concentrates at its inner fraction, at distance r*sqrt(1 - a^2)
    from the slab axis.
    """
    d = spec.dimension
    return (log_slab_volume(spec) - log_unit_ball_volume(d)) / d
