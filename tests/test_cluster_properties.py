"""Property tests of clustering and coverage against the brute-force oracles.

Centers and radii are multiples of GRID = 1/8, and the near-tangent offsets
are powers of two, so every center distance and radius sum below is exact in
floating point: balls placed at exactly r_u + r_v occur often and must stay
apart under the open-ball rule, while balls 2^-20 closer must connect.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contperc.boolean_model import (
    BallConfiguration,
    BoxSpec,
    clusters,
    covered_fraction_empirical,
    percolates,
)
from contperc.rng import stream

from _oracles import brute_force_edges, brute_force_labels, brute_force_percolates

GRID = 0.125
NUDGE = 2.0**-20


def make_config(centers, radii):
    return BallConfiguration(
        centers=np.asarray(centers, dtype=float),
        radii=np.asarray(radii, dtype=float),
        seed=0,
        lam=0.0,
    )


@st.composite
def configurations(draw):
    """A crossing box and a configuration with 1 to 10 radius classes.

    Centers cover the halo window [-r_max, side + r_max).  Some balls get a
    partner placed along one axis at r_u + r_v, or NUDGE nearer or farther.
    """
    d = draw(st.integers(2, 4))
    classes = draw(st.integers(1, 10))
    class_radii = GRID * np.array(
        sorted(draw(st.lists(st.integers(1, 16), min_size=classes, max_size=classes, unique=True)))
    )
    r_max = float(class_radii[-1])
    side = 4.0 * r_max + GRID * draw(st.integers(1, 40))
    lo, hi = -int(r_max / GRID), int((side + r_max) / GRID)
    box = BoxSpec(d, side)

    ball = st.tuples(
        st.integers(0, classes - 1),
        st.lists(st.integers(lo, hi - 1), min_size=d, max_size=d),
    )
    base = draw(st.lists(ball, min_size=1, max_size=30))
    centers = [GRID * np.array(cell, dtype=float) for _, cell in base]
    radii = [float(class_radii[c]) for c, _ in base]

    partner = st.tuples(
        st.integers(0, len(base) - 1),
        st.integers(0, classes - 1),
        st.integers(0, d - 1),
        st.sampled_from((-1.0, 1.0)),
        st.sampled_from((0.0, -NUDGE, NUDGE)),
    )
    for i, c, axis, sign, nudge in draw(st.lists(partner, max_size=10)):
        r = float(class_radii[c])
        center = centers[i].copy()
        center[axis] += sign * (radii[i] + r + nudge)
        centers.append(center)
        radii.append(r)
    return box, make_config(np.array(centers), radii)


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_crossing_clusters_match_brute_force(case):
    box, cfg = case
    labeling = clusters(cfg, box)
    assert np.array_equal(labeling.canonical_labels(), brute_force_labels(cfg, box))
    assert percolates(labeling) == brute_force_percolates(cfg, box)


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_hit_edges_match_brute_force(case):
    """The hit graph holds each intersecting unordered pair exactly once, and nothing else."""
    box, cfg = case
    edges = clusters(cfg, box).edges
    pairs = [(min(i, j), max(i, j)) for i, j in edges.T.tolist()]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == brute_force_edges(cfg)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 16), min_size=2, max_size=30),
    st.integers(0, 3),
)
def test_tangent_chain_never_connects(radius_steps, axis):
    """A chain of balls each at exactly r_u + r_v from the last: n clusters."""
    d = 4
    radii = GRID * np.array(radius_steps, dtype=float)
    offsets = np.concatenate([[0.0], np.cumsum(radii[:-1] + radii[1:])])
    centers = np.zeros((len(radii), d))
    centers[:, axis] = offsets
    cfg = make_config(centers, radii)
    box = BoxSpec(d, float(offsets[-1]) + 1.0)
    labeling = clusters(cfg, box)
    assert labeling.cluster_count() == cfg.n
    assert percolates(labeling) is False


def brute_force_covered(points, cfg):
    """Per-point coverage by an all-balls scan."""
    delta = points[:, None, :] - cfg.centers[None, :, :]
    return ((delta**2).sum(axis=2) < cfg.radii**2).any(axis=1)


@settings(max_examples=60, deadline=None)
@given(
    configurations(),
    st.integers(0, 2**32),
)
def test_covered_fraction_matches_brute_force(case, seed):
    box, cfg = case
    probes = 2000
    # covered_fraction_empirical draws its probe points exactly like this
    points = stream(seed).random((probes, box.dimension)) * box.side
    expected = brute_force_covered(points, cfg).mean()
    assert covered_fraction_empirical(cfg, box, probes, seed).fraction == expected
