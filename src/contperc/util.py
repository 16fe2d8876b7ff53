"""Small numeric helpers shared across modules."""

from __future__ import annotations

__all__ = ["MAX_RHO", "check_rho", "ipow"]

# Up to this rho every kappa_c_k(rho, k <= MAX_K) stays below 1 and k = 1
# meets kappa_c1_closed_form to 1e-12.  The optimal offsets approach 1 as rho
# grows: SLSQP's error on k = 1 passes 1e-12 near rho = 360, and past about
# 9e4 the offset bound 1 - thresholds._EDGE cuts off the optimum.
MAX_RHO = 300.0
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
