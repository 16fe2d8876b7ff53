"""Small numeric helpers shared across modules."""

from __future__ import annotations

__all__ = ["MAX_RHO", "check_rho", "ipow"]

# Squared path distances, below (2 + 2 rho + 2 thresholds.MAX_K)^2, stay finite.
MAX_RHO = 1e150
_RHO_RANGE = f"rho must exceed 1 and be at most {MAX_RHO:g}"


def check_rho(rho: float) -> None:
    """Raise ValueError unless 1 < rho <= MAX_RHO (so also for nan and inf)."""
    if not 1.0 < rho <= MAX_RHO:
        raise ValueError(_RHO_RANGE)


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
