"""Continuum percolation of Boolean models with mixed radii.

Modules:

* geometry: ball and spherical-slab volumes in arbitrary dimension.
* thresholds: minimax constants for alternating-path percolation.
* branching: two-type Galton-Watson mean matrices and critical kappa.
* boolean_model: Poisson ball sampling, clustering, crossing events.
* estimation: Monte Carlo critical intensities and scale-free thresholds.
* pathcount: alternating-chain counts against exact expectations.
* cli: the `contperc` command-line front end.

`import contperc` loads none of them: each name below is imported from its
module on first access (PEP 562), so a caller pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_EXPORTS = {
    "BallConfiguration": "boolean_model",
    "BoxSpec": "boolean_model",
    "ClusterLabeling": "boolean_model",
    "RadiusMixture": "boolean_model",
    "clusters": "boolean_model",
    "covered_fraction_empirical": "boolean_model",
    "covered_fraction_exact": "boolean_model",
    "percolates": "boolean_model",
    "sample": "boolean_model",
    "gw_critical_kappa": "branching",
    "gw_critical_kappa_limit": "branching",
    "mean_matrix": "branching",
    "perron_root": "branching",
    "ThresholdEstimate": "estimation",
    "alpha_sweep": "estimation",
    "estimate_lambda_c": "estimation",
    "mu_d_transform": "estimation",
    "multiscale_family": "estimation",
    "size_ladder": "estimation",
    "SlabSpec": "geometry",
    "slab_log_rate": "geometry",
    "slab_volume": "geometry",
    "unit_ball_volume": "geometry",
    "count_paths": "pathcount",
    "tuple_expectation_exact": "pathcount",
    "KappaResult": "thresholds",
    "kappa_c": "thresholds",
    "kappa_c1_closed_form": "thresholds",
    "kappa_c_k": "thresholds",
    "objective": "thresholds",
    "CapacityError": "util",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
