"""Small numeric helpers shared across modules."""

from __future__ import annotations

__all__ = ["MAX_SIMULATION_DIMENSION", "check_rho", "ipow"]

# Largest dimension the Monte Carlo layers (estimation, pathcount) simulate;
# box and ball volumes explode beyond it.
MAX_SIMULATION_DIMENSION = 6

# Relative margin on k-d tree query radii, so that the tree's own rounding
# of distances cannot drop a pair the exact hit test would accept.  The
# exact test alone decides which candidates connect.
_QUERY_SLACK = 1.0 + 1e-9


def check_rho(rho: float) -> None:
    """Raise ValueError unless 1 < rho <= 1e150 (so also for nan and inf), where
    squared path distances, below (2 + 2 rho + 2 k)^2, stay finite."""
    if not 1.0 < rho <= 1e150:
        raise ValueError("rho must exceed 1 and be at most 1e+150")


def ipow(x, n: int):
    """x**n for a small non-negative integer n by repeated multiplication.

    Unlike pow(), repeated multiplication commutes exactly with rescaling x
    by a power of two, which the coupled-seed invariance tests rely on.
    Works elementwise on numpy arrays.
    """
    if n < 0:
        raise ValueError("exponent must be non-negative")
    result = x * 0 + 1.0
    for _ in range(n):
        result = result * x
    return result
