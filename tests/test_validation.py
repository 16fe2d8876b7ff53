"""Every exported entry point checks its counts, seeds, kappa and intensity up front.

Each invalid value (a float or a bool where an integer belongs, a value out
of range, nan) raises ValueError naming the parameter before any random
stream is opened.  The path counts' dimension, kappa and k are checked in
test_pathcount, which lists their cases with tuple_expectation_exact's.
"""

import math
import multiprocessing
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from contperc import estimation
from contperc.boolean_model import (
    BoxSpec,
    RadiusMixture,
    covered_fraction_empirical,
    covered_fraction_exact,
    sample,
)
from contperc.branching import gw_critical_kappa, mean_matrix, perron_root, perron_root_log
from contperc.estimation import (
    alpha_sweep,
    estimate_lambda_c,
    multiscale_family,
    mu_d_transform,
    size_ladder,
)
from contperc.geometry import (
    SlabSpec,
    log_unit_ball_volume,
    log_upper_cap_fraction,
    unit_ball_volume,
)
from contperc.pathcount import count_paths
from contperc.thresholds import genealogy_envelope, kappa_c, kappa_c_k
from contperc.util import derive_seed, stream

UNIT = RadiusMixture.dirac(1.0)
BOX = BoxSpec(2, 12.0)
CONFIG = sample(UNIT, 0.5, BOX, seed=0)


def counts(low):
    """A non-integral float, a bool, a value below low, and nan."""
    return [low + 0.5, True, low - 1, math.nan]


SEEDS = [1.9, True, -1, math.nan]
KAPPAS = [True, 0.0, math.inf, math.nan]
INTENSITIES = [True, -1.0, math.nan]

# (entry point and parameter) -> (the call with that parameter set to x, the
# parameter's name in the message, the invalid values).
CASES = {
    "SlabSpec-dimension": (lambda x: SlabSpec(x, 1.0, 0.0, 1.0), "dimension", counts(1)),
    "log_unit_ball_volume-d": (log_unit_ball_volume, "dimension", counts(1)),
    "unit_ball_volume-d": (unit_ball_volume, "dimension", counts(1)),
    "log_upper_cap_fraction-d": (lambda x: log_upper_cap_fraction(x, 0.5), "dimension", counts(1)),
    "mean_matrix-d": (lambda x: mean_matrix(x, 0.5, 2.0), "dimension", counts(1)),
    "mean_matrix-kappa": (lambda x: mean_matrix(2, x, 2.0), "kappa", KAPPAS),
    "perron_root_log-d": (lambda x: perron_root_log(x, 0.5, 2.0), "dimension", counts(1)),
    "perron_root_log-kappa": (lambda x: perron_root_log(2, x, 2.0), "kappa", KAPPAS),
    "perron_root-kappa": (lambda x: perron_root(2, x, 2.0), "kappa", KAPPAS),
    "gw_critical_kappa-d": (lambda x: gw_critical_kappa(x, 2.0), "dimension", counts(1)),
    "BoxSpec-dimension": (lambda x: BoxSpec(x, 12.0), "dimension", counts(2)),
    "sample-lam": (lambda x: sample(UNIT, x, BOX, 0), "intensity", INTENSITIES),
    "sample-seed": (lambda x: sample(UNIT, 0.5, BOX, x), "seed", SEEDS),
    "covered_fraction_exact-lam": (
        lambda x: covered_fraction_exact(UNIT, x, 2), "intensity", INTENSITIES
    ),
    "covered_fraction_exact-d": (
        lambda x: covered_fraction_exact(UNIT, 0.5, x), "dimension", counts(1)
    ),
    "covered_fraction_empirical-probes": (
        lambda x: covered_fraction_empirical(CONFIG, BOX, x, 0), "probes", counts(1)
    ),
    "covered_fraction_empirical-seed": (
        lambda x: covered_fraction_empirical(CONFIG, BOX, 100, x), "seed", SEEDS
    ),
    "estimate_lambda_c-trials": (
        lambda x: estimate_lambda_c(UNIT, BOX, x, 0), "trials", counts(50)
    ),
    "estimate_lambda_c-seed": (lambda x: estimate_lambda_c(UNIT, BOX, 50, x), "seed", SEEDS),
    "size_ladder-d": (lambda x: size_ladder(UNIT, x, [12.0], 50, 0), "dimension", counts(2)),
    "size_ladder-trials": (lambda x: size_ladder(UNIT, 2, [12.0], x, 0), "trials", counts(50)),
    "size_ladder-seed": (lambda x: size_ladder(UNIT, 2, [12.0], 50, x), "seed", SEEDS),
    "alpha_sweep-trials": (lambda x: alpha_sweep(2.0, [0.5], BOX, x, 0), "trials", counts(50)),
    "alpha_sweep-seed": (lambda x: alpha_sweep(2.0, [0.5], BOX, 50, x), "seed", SEEDS),
    "mu_d_transform-d": (lambda x: mu_d_transform(UNIT, x), "d", counts(0)),
    "multiscale_family-n": (lambda x: multiscale_family(x, 2.0, 2), "n", counts(1)),
    "multiscale_family-d": (lambda x: multiscale_family(2, 2.0, x), "d", counts(1)),
    "count_paths-trials": (lambda x: count_paths(2, 2.0, 0.5, 1, x, 0), "trials", counts(2)),
    "count_paths-seed": (lambda x: count_paths(2, 2.0, 0.5, 1, 10, x), "seed", SEEDS),
    "kappa_c_k-k": (lambda x: kappa_c_k(3.0, x), "k", [1.5, True, 0, 13, math.nan]),
    "kappa_c-k_max": (lambda x: kappa_c(3.0, x), "k_max", [1.5, True, 0, 13, math.nan]),
    "genealogy_envelope-rho": (lambda x: genealogy_envelope(x, 2), "rho", [1.0, math.inf, math.nan]),
    "genealogy_envelope-k": (lambda x: genealogy_envelope(3.0, x), "k", [2.5, True, 0, math.nan]),
    "stream-seed": (stream, "seed", SEEDS),
    "derive_seed-seed": (lambda x: derive_seed(x, 1), "seed", SEEDS),
}


@pytest.mark.parametrize("case", CASES)
def test_an_invalid_parameter_raises_before_sampling(case, monkeypatch):
    call, name, values = CASES[case]

    def no_stream(*args, **kwargs):
        raise AssertionError("opened a random stream before the parameters were checked")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    for value in values:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)


def test_a_run_checks_its_seed_before_starting_a_worker(monkeypatch):
    # 200 trials on 2 CPUs run in two shares, one of them in a forked worker.
    started = []
    start = BaseProcess.start

    def recording(process):
        started.append(process)
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", recording)
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 2)
    for seed in SEEDS:
        with pytest.raises(ValueError, match="seed"):
            estimate_lambda_c(UNIT, BOX, 200, seed=seed)
    assert started == [] and multiprocessing.active_children() == []
