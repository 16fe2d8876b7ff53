"""Two-type Galton-Watson mean matrices for the two-radius Boolean model.

One type per radius (1 and rho).  With center intensities
lambda_1 = kappa^d / (v_d 2^d) and lambda_rho = lambda_1 / rho^d, the mean
number of offspring of each type touching a parent ball is

    M_d = kappa^d * [[1, ((1+rho)/(2 rho))^d], [((1+rho)/2)^d, 1]].

Entries are kept in log space: ((1+rho)/2)^d overflows doubles near d = 700
for rho = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .util import check_rho

__all__ = [
    "MeanMatrix",
    "mean_matrix",
    "perron_root",
    "perron_root_log",
    "gw_critical_kappa",
    "gw_critical_kappa_limit",
]


@dataclass(frozen=True, eq=False)
class MeanMatrix:
    """2x2 offspring mean matrix, entries stored as logs."""

    dimension: int
    kappa: float
    rho: float
    log_entries: np.ndarray = field(repr=False)

    @property
    def entries(self) -> np.ndarray:
        """Entries in linear scale (may overflow for very large dimension)."""
        return np.exp(self.log_entries)


def mean_matrix(d: int, kappa: float, rho: float) -> MeanMatrix:
    """Build the offspring mean matrix M_d for dimension d."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, not {kappa!r}")
    check_rho(rho)
    base = d * math.log(kappa)
    up = d * math.log((1.0 + rho) / (2.0 * rho))
    down = d * math.log((1.0 + rho) / 2.0)
    log_entries = np.array([[base, base + up], [base + down, base]])
    return MeanMatrix(dimension=d, kappa=kappa, rho=rho, log_entries=log_entries)


def perron_root_log(m: MeanMatrix) -> float:
    """Return ln(r_d) for the largest eigenvalue r_d of M_d.

    For a positive 2x2 matrix with equal diagonal [[A, B], [C, A]] the
    eigenvalues are A +- sqrt(B C), so
    r_d = kappa^d (1 + ((1+rho)/(2 sqrt(rho)))^d).
    """
    d, kappa, rho = m.dimension, m.kappa, m.rho
    log_beta = math.log((1.0 + rho) / (2.0 * math.sqrt(rho)))  # >= 0 for rho > 1
    return d * math.log(kappa) + d * log_beta + math.log1p(math.exp(-d * log_beta))


def perron_root(m: MeanMatrix) -> float:
    """Largest eigenvalue of M_d (overflows to inf for very large d)."""
    return math.exp(perron_root_log(m))


def gw_critical_kappa(d: int, rho: float) -> float:
    """The kappa at which the branching process is critical (r_d = 1).

    Closed form (1 + ((1+rho)/(2 sqrt(rho)))^d)^(-1/d), increasing in d
    toward the limit 2 sqrt(rho)/(1+rho).
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    check_rho(rho)
    log_beta = math.log((1.0 + rho) / (2.0 * math.sqrt(rho)))
    return math.exp(-log_beta - math.log1p(math.exp(-d * log_beta)) / d)


def gw_critical_kappa_limit(rho: float) -> float:
    """Large-dimension limit 2 sqrt(rho) / (1 + rho) of gw_critical_kappa."""
    check_rho(rho)
    return 2.0 * math.sqrt(rho) / (1.0 + rho)
