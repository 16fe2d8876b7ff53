"""Two-type Galton-Watson mean matrices for the two-radius Boolean model.

One type per radius (1 and rho).  With center intensities
lambda_1 = kappa^d / (v_d 2^d) and lambda_rho = lambda_1 / rho^d, the mean
number of offspring of each type touching a parent ball is

    M_d = kappa^d * [[1, ((1+rho)/(2 rho))^d], [((1+rho)/2)^d, 1]].

M_d depends on (d, kappa, rho) alone, so every function here takes those.
Entries are kept in log space: ((1+rho)/2)^d overflows doubles near d = 700
for rho = 10.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .util import check_int, check_positive, check_rho, exp_or_inf

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "mean_matrix",
    "perron_root",
    "perron_root_log",
    "gw_critical_kappa",
    "gw_critical_kappa_limit",
]


def _check(d: int, kappa: float, rho: float) -> None:
    check_int(d, "dimension", 1)
    check_positive(kappa, "kappa")
    check_rho(rho)


def mean_matrix(d: int, kappa: float, rho: float) -> np.ndarray:
    """Return ln(M_d), the 2x2 array of the logs of the entries of M_d."""
    import numpy as np  # here, so that the gw command, which needs only math, does not load it

    _check(d, kappa, rho)
    base = d * math.log(kappa)
    up = d * math.log((1.0 + rho) / (2.0 * rho))
    down = d * math.log((1.0 + rho) / 2.0)
    return np.array([[base, base + up], [base + down, base]])


def perron_root_log(d: int, kappa: float, rho: float) -> float:
    """Return ln(r_d) for the largest eigenvalue r_d of M_d.

    For a positive 2x2 matrix with equal diagonal [[A, B], [C, A]] the
    eigenvalues are A +- sqrt(B C), so
    r_d = kappa^d (1 + ((1+rho)/(2 sqrt(rho)))^d).
    """
    _check(d, kappa, rho)
    log_beta = math.log((1.0 + rho) / (2.0 * math.sqrt(rho)))  # >= 0 for rho > 1
    return d * math.log(kappa) + d * log_beta + math.log1p(math.exp(-d * log_beta))


def perron_root(d: int, kappa: float, rho: float) -> float:
    """Largest eigenvalue r_d of M_d; math.inf past double range, 0.0 below it."""
    return exp_or_inf(perron_root_log(d, kappa, rho))


def gw_critical_kappa(d: int, rho: float) -> float:
    """The kappa at which the branching process is critical (r_d = 1).

    Closed form (1 + ((1+rho)/(2 sqrt(rho)))^d)^(-1/d), increasing in d
    toward the limit 2 sqrt(rho)/(1+rho).
    """
    check_int(d, "dimension", 1)
    check_rho(rho)
    log_beta = math.log((1.0 + rho) / (2.0 * math.sqrt(rho)))
    return math.exp(-log_beta - math.log1p(math.exp(-d * log_beta)) / d)


def gw_critical_kappa_limit(rho: float) -> float:
    """Large-dimension limit 2 sqrt(rho) / (1 + rho) of gw_critical_kappa."""
    check_rho(rho)
    return 2.0 * math.sqrt(rho) / (1.0 + rho)
