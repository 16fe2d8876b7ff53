"""Property tests of the chain walker against the brute-force chain oracle.

Coordinates are multiples of GRID = 1/8 and rho is a multiple of 1/4, and
the near-boundary offsets are powers of two, so every squared distance below
is exact in floating point: points placed at exactly 2 from a unit center,
or at exactly 1 + rho from a unit center or the origin, must stay unlinked
under the strict rule, while points 2^-20 nearer must link.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contperc import pathcount

from _oracles import brute_force_chains

GRID = 0.125
NUDGE = 2.0**-20


@st.composite
def point_sets(draw, d, rho):
    """Unit and large points with many pairs at an exact boundary distance.

    Unit points start near the origin.  Partners sit along one axis from an
    earlier unit point or from the origin, at distance 1/4 or 1 or at the
    unit step 2, the reach 1 + rho or the k = 0 reach 2 rho, each exactly or
    NUDGE nearer or farther.
    """
    near = int((1.0 + rho) / (2.0 * GRID))
    far = int((1.0 + rho + 4.0) / GRID)
    cells = lambda span: st.lists(st.integers(-span, span), min_size=d, max_size=d)
    unit = [GRID * np.array(c, dtype=float) for c in draw(st.lists(cells(near), max_size=4))]
    large = [GRID * np.array(c, dtype=float) for c in draw(st.lists(cells(far), max_size=3))]
    partner = st.tuples(
        st.sampled_from((unit, large)),
        st.integers(0, 8),
        st.sampled_from((0.25, 1.0, 2.0, 1.0 + rho, 2.0 * rho)),
        st.integers(0, d - 1),
        st.sampled_from((-1.0, 1.0)),
        st.sampled_from((0.0, -NUDGE, NUDGE)),
    )
    for kind, source, step, axis, sign, nudge in draw(st.lists(partner, max_size=10)):
        point = unit[source].copy() if source < len(unit) else np.zeros(d)
        point[axis] += sign * (step + nudge)
        kind.append(point)
    return np.array(unit).reshape(-1, d), np.array(large).reshape(-1, d)


def chain_counts(unit, large, rho, k):
    """(N_k, M_k) of one realization, walked as a batch of one trial.

    The walker shifts its inputs in place, so it gets copies.
    """
    one = lambda points: (points.copy(), np.zeros(len(points), dtype=np.intp))
    n, m = pathcount._trial_counts(one(unit), one(large), rho, k, 1)
    return int(n[0]), int(m[0])


dimensions = st.integers(2, 4)
rhos = st.integers(5, 12).map(lambda quarters: 0.25 * quarters)


@settings(max_examples=120, deadline=None)
@given(st.data(), dimensions, rhos, st.integers(0, 4))
def test_chain_counts_match_brute_force(data, d, rho, k):
    unit, large = data.draw(point_sets(d, rho))
    chains = brute_force_chains(unit, large, rho, k)
    expected = (len({j for _, j in chains}), len(chains))
    assert chain_counts(unit, large, rho, k) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), dimensions, rhos, st.integers(0, 4))
def test_batched_trials_match_one_trial_at_a_time(data, d, rho, k):
    """Trials walked together count like trials walked alone.

    Realizations repeat within the batch, so points of different trials
    coincide exactly; an edge leaking between trials would change a count.
    """
    sets = data.draw(st.lists(point_sets(d, rho), min_size=1, max_size=3))
    order = data.draw(st.lists(st.integers(0, len(sets) - 1), min_size=2, max_size=6))
    trials = [sets[i] for i in order]
    ids = np.arange(len(trials))
    unit = (np.concatenate([u for u, _ in trials]), np.repeat(ids, [len(u) for u, _ in trials]))
    large = (np.concatenate([q for _, q in trials]), np.repeat(ids, [len(q) for _, q in trials]))
    n, m = pathcount._trial_counts(unit, large, rho, k, len(trials))
    assert list(zip(n.tolist(), m.tolist())) == [chain_counts(u, q, rho, k) for u, q in trials]


def test_batched_trials_link_exactly_at_the_largest_shift():
    """Rounded shifts at rho = 300 neither drop nor add an edge.

    A full chunk of 4096 trials shifts the last one by about 7.4e6 along
    axis 0, where an ulp is 2^-30, and the offset 5 * 2^-33 makes the
    shifted first coordinates of a and b round.  In that trial the unit
    pair a, 2 - 2^-30 apart, and the unit-large pair a_2, L_a, 1 + rho -
    2^-30 apart, must link.  The pair b, exactly 2 apart, and L_b, exactly
    1 + rho from a_1, must not.  The pair c lies strictly within 2, but the
    shift rounds it 4.1e-10 past 2, so only a query radius above 2 keeps
    it.  The chains are (a_1, a_2) ending at L_a or L_c, and (a_2, a_1),
    (c_1, c_2) and (c_2, c_1) ending at L_c: N = 2 and M = 5.
    """
    rho, k, n_trials = 300.0, 2, 4096
    ulp, offset = 2.0**-30, 5.0 * 2.0**-33
    a1 = 0.5 + offset
    a2 = a1 + 2.0 - ulp
    c2 = (1.9754350786598884, 20.3125)
    unit = np.array([[a1, 0.0], [a2, 0.0], [a1, 10.0], [a1 + 2.0, 10.0], [0.0, 20.0], c2])
    large = np.array([[a2 + 1.0 + rho - ulp, 0.0], [a1 - 1.0 - rho, 0.0], [0.0, 10.0]])
    assert chain_counts(unit, large, rho, k) == (2, 5)
    trials = [(unit, large) if t in (0, n_trials - 1) else (unit[:0], large[:0]) for t in range(n_trials)]
    ids = np.arange(n_trials)
    batch_unit = (np.concatenate([u for u, _ in trials]), np.repeat(ids, [len(u) for u, _ in trials]))
    batch_large = (np.concatenate([q for _, q in trials]), np.repeat(ids, [len(q) for _, q in trials]))
    n, m = pathcount._trial_counts(batch_unit, batch_large, rho, k, n_trials)
    assert list(zip(n.tolist(), m.tolist())) == [chain_counts(u, q, rho, k) for u, q in trials]
