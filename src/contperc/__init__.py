"""Continuum percolation of Boolean models with mixed radii.

Subpackages:

* geometry: ball and spherical-slab volumes in arbitrary dimension.
* thresholds: minimax constants for alternating-path percolation.
* branching: two-type Galton-Watson mean matrices and critical kappa.
* boolean_model: Poisson ball sampling, clustering, crossing events.
* estimation: Monte Carlo critical intensities and scale-free thresholds.
* pathcount: alternating-chain counts against exact expectations.
* cli: the `contperc` command-line front end.
"""

from .boolean_model import (
    BallConfiguration,
    BoxSpec,
    ClusterLabeling,
    RadiusMixture,
    clusters,
    covered_fraction_empirical,
    covered_fraction_exact,
    percolates,
    sample,
    thin_configuration,
)
from .branching import gw_critical_kappa, gw_critical_kappa_limit, mean_matrix, perron_root
from .errors import CapacityError
from .estimation import (
    ThresholdEstimate,
    alpha_sweep,
    estimate_lambda_c,
    mu_d_transform,
    multiscale_family,
    size_ladder,
)
from .geometry import SlabSpec, slab_log_rate, slab_volume, unit_ball_volume
from .pathcount import count_paths, tuple_expectation_exact
from .thresholds import (
    AlternationParams,
    KappaResult,
    distance_profile,
    kappa_c,
    kappa_c1_closed_form,
    kappa_c_k,
    objective,
)

__version__ = "0.1.0"

__all__ = [
    "BallConfiguration",
    "BoxSpec",
    "ClusterLabeling",
    "RadiusMixture",
    "clusters",
    "covered_fraction_empirical",
    "covered_fraction_exact",
    "percolates",
    "sample",
    "thin_configuration",
    "gw_critical_kappa",
    "gw_critical_kappa_limit",
    "mean_matrix",
    "perron_root",
    "CapacityError",
    "ThresholdEstimate",
    "alpha_sweep",
    "estimate_lambda_c",
    "mu_d_transform",
    "multiscale_family",
    "size_ladder",
    "SlabSpec",
    "slab_log_rate",
    "slab_volume",
    "unit_ball_volume",
    "count_paths",
    "tuple_expectation_exact",
    "AlternationParams",
    "KappaResult",
    "distance_profile",
    "kappa_c",
    "kappa_c1_closed_form",
    "kappa_c_k",
    "objective",
]
