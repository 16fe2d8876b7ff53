"""Small helpers shared across modules: limits, the capacity error, random streams.

Random streams use the Philox counter-based generator.  Every stochastic
routine in the package takes an explicit 64-bit seed and derives independent
substreams from (seed, *key) with a SeedSequence, so results never depend on
scheduling or evaluation order.

numpy is imported inside the two stream functions, so that the analytic
commands, which import this module but draw nothing, do not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_SIMULATION_DIMENSION", "CapacityError", "check_rho", "derive_seed", "exp_or_inf", "ipow",
    "stream",
]

# Largest dimension the Monte Carlo layers (estimation, pathcount) simulate;
# box and ball volumes explode beyond it.
MAX_SIMULATION_DIMENSION = 6

# Relative margin on k-d tree query radii, so that the tree's own rounding
# of distances cannot drop a pair the exact hit test would accept.  The
# exact test alone decides which candidates connect.
_QUERY_SLACK = 1.0 + 1e-9


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds a documented size limit."""


def check_rho(rho: float) -> None:
    """Raise ValueError unless 1 < rho <= 1e150 (so also for nan and inf), where
    squared path distances, below (2 + 2 rho + 2 k)^2, stay finite."""
    if not 1.0 < rho <= 1e150:
        raise ValueError("rho must exceed 1 and be at most 1e+150")


def exp_or_inf(x: float) -> float:
    """e^x, or math.inf past double range, just as math.exp gives 0.0 below it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a Philox generator for the substream identified by (seed, *key)."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def derive_seed(seed: int, *key: int) -> int:
    """Fold (seed, *key) into a single 64-bit integer seed."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
