"""Tests for polygon state/effect geometry and measurement construction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngon import capacity, geometry
from ngon.capacity import capacity_candidates, theory_capacity
from ngon.geometry import (
    DegenerateTripleError,
    InfeasibleMeasurementError,
    InvalidStateError,
    Theory,
    closed_form_triple_weights,
    extremal_decomposition,
    min_effect_weight,
    triple_representatives,
    unit_effect,
)


def overlap_oracle(n, j, i):
    """Closed-form ⟨e_j, ω_i⟩ derived independently of the library."""
    sec = 1.0 / math.cos(math.pi / n)
    if n % 2 == 0:
        return 0.5 * (1.0 + sec * math.cos((2 * (j - i) - 1) * math.pi / n))
    return (sec * math.cos(2 * math.pi * (j - i) / n) + 1.0) / (1.0 + sec)


def test_radius_and_vertex_values():
    assert abs(Theory(3).r - math.sqrt(2.0)) < 1e-15
    assert abs(Theory(4).r - 2.0 ** 0.25) < 1e-15
    w0 = Theory(3).states()[0]
    assert np.abs(w0 - [math.sqrt(2.0), 0.0, 1.0]).max() < 1e-15


def test_bad_constructions():
    with pytest.raises(ValueError):
        Theory(2)
    with pytest.raises(ValueError):
        Theory(3.5)


@pytest.mark.parametrize("n", [4.0, np.float64(6.0)])
def test_float_n_is_rejected_even_when_integral(n):
    # accepting it would leave states() to fail with a TypeError
    with pytest.raises(ValueError):
        Theory(n)


def test_numpy_integer_n_is_accepted():
    assert Theory(np.int64(6)).states().shape == (6, 3)


def test_unit_effect_pairing():
    u = unit_effect()
    for n in (3, 4, 9):
        t = Theory(n)
        for state in t.states():
            assert abs(np.dot(u, state) - 1.0) < 1e-15


@pytest.mark.parametrize("n", list(range(3, 65)))
def test_overlap_table_matches_oracle_and_saturates(n):
    t = Theory(n)
    table = t.states() @ t.effects().T  # [i, j] = ⟨e_j, ω_i⟩
    for j in range(n):
        for i in range(n):
            assert abs(table[i, j] - overlap_oracle(n, j, i)) < 1e-12
    if n % 2 == 0:
        ones = {(j, j % n) for j in range(n)} | {(j, (j - 1) % n) for j in range(n)}
        zeros = {(j, (j + n // 2) % n) for j in range(n)} | {
            (j, (j + n // 2 - 1) % n) for j in range(n)
        }
    else:
        ones = {(j, j) for j in range(n)}
        zeros = {(j, (j + (n - 1) // 2) % n) for j in range(n)} | {
            (j, (j + (n + 1) // 2) % n) for j in range(n)
        }
    for j in range(n):
        for i in range(n):
            v = table[i, j]
            if (j, i) in ones:
                assert abs(v - 1.0) < 1e-12
            elif (j, i) in zeros:
                assert abs(v) < 1e-12
            else:
                # interior pairings stay well away from the boundary
                assert 1e-3 < v < 1.0 - 1e-3


def test_cone_memberships():
    # a normalised state lies in the plane z = 1 and inside the state cone
    t = Theory(6)
    S = t.states()
    V = np.stack([S[2], S.mean(axis=0), 2.5 * S[2], S[0] + [t.r, 0.0, 0.0]])
    assert geometry._outside_states(t, V).tolist() == [False, False, True, True]


def test_every_realised_measurement_passes_the_effect_check():
    # the smallest raw overlap is -2.8e-16 and the largest sum error 4.4e-16, far inside PROB_TOL
    for n in range(3, 41):
        t = Theory(n)
        feasible = geometry._feasible_triples(n)
        _, effects = geometry._realize_triples(n, feasible)
        assert not geometry._improper_effects(t, effects, len(feasible)).any()
        if t.even:
            assert not geometry._improper_effects(t, t.measurement((0, n // 2)))
    # an overlap outside [0, 1], which the clipped channel hides, or a NaN fails it
    outside = np.array([[-3.0, 0.0, 1.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    nan = np.where(np.arange(9).reshape(3, 3) == 0, math.nan, effects[0])
    assert geometry._improper_effects(Theory(40), np.stack([effects[0], outside, nan]), 3).tolist() == [
        False, True, True
    ]


def test_effects_sum_to_scaled_unit():
    # Σ_j e_j = (n * scale) u for both parities, scale = realized weight unit
    for n in (4, 5, 8, 11):
        t = Theory(n)
        total = t.effects().sum(axis=0)
        assert abs(total[0]) < 1e-12 and abs(total[1]) < 1e-12


def test_measurement_completeness_and_weights():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    assert np.abs(m.effects.sum(axis=0) - unit_effect()).max() < 1e-12
    assert min(m.weights) > 0
    for k, idx in enumerate(m.indices):
        # each effect is its stated multiple of the extremal effect
        assert np.abs(m.effects[k] - m.weights[k] * t.effects()[idx]).max() < 1e-12


@st.composite
def feasible_triples(draw):
    """(n, triple) with n up to 128 and three distinct indices, in any order,
    whose cyclic gaps g1, g2, n - g1 - g2 are all at most n/2."""
    n = draw(st.integers(3, 128))
    g1 = draw(st.integers(1, n // 2))
    g2 = draw(st.integers(max(1, (n + 1) // 2 - g1), min(n // 2, n - g1 - 1)))
    start = draw(st.integers(0, n - 1))
    triple = [start % n, (start + g1) % n, (start + g1 + g2) % n]
    return n, tuple(draw(st.permutations(triple)))


@settings(max_examples=200, deadline=None)
@given(feasible_triples())
def test_realised_effects_sum_to_the_unit_effect(case):
    n, triple = case
    m = Theory(n).measurement(triple)
    assert min(m.weights) >= 0
    assert np.abs(m.effects.sum(axis=0) - unit_effect()).max() <= 1e-12


def test_antipodal_pair_measurement():
    t = Theory(8)
    m = t.measurement((0, 4))
    assert np.abs(m.effects.sum(axis=0) - unit_effect()).max() < 1e-12
    assert m.weights == (1.0, 1.0)
    with pytest.raises(InfeasibleMeasurementError):
        t.measurement((0, 3))
    with pytest.raises(InfeasibleMeasurementError):
        Theory(5).measurement((0, 2))


def per_triple_weights(t, triple):
    """The completion weights one triple at a time: exactly (1, 1, 0) up to
    order when two of the indices are antipodal, else one 3x3 solve."""
    n = t.n
    rows = t.effects()[list(triple)]
    for k in range(3):
        if 2 * ((triple[k - 1] - triple[k - 2]) % n) == n:
            mu = np.ones(3)
            mu[k] = 0.0
            return mu
    return np.linalg.solve(rows.T, unit_effect())


def test_stacked_triples_match_a_per_triple_solve():
    checked = half_gap = 0
    for n in range(3, 33):
        t = Theory(n)
        triples = np.array(list(itertools.combinations(range(n), 3)))
        a, b, c = triples.T
        feasible = triples[2 * np.max([b - a, c - b, n - c + a], axis=0) <= n]
        mu, effects = geometry._realize_triples(n, feasible)
        expected = np.array([per_triple_weights(t, tr) for tr in feasible.tolist()])
        assert np.array_equal(mu, expected), n
        assert np.array_equal(effects, expected[:, :, None] * t.effects()[feasible]), n
        checked += len(feasible)
        half_gap += int((mu == 0.0).any(axis=1).sum())
    assert (checked, half_gap) == (12_920, 2_720)


def test_a_stack_raises_at_its_first_bad_row():
    with pytest.raises(InfeasibleMeasurementError, match=r"^triple \(0, 1, 2\) has an index gap above n/2$"):
        geometry._realize_triples(6, [(0, 2, 4), (0, 1, 2), (0, 0, 3)])
    with pytest.raises(DegenerateTripleError, match=r"^indices \(3, 3, 1\) are not distinct mod 6$"):
        geometry._realize_triples(6, [(0, 2, 4), (3, 9, 1), (0, 1, 2)])
    # a single measurement reports through the same stack of one
    with pytest.raises(DegenerateTripleError, match=r"^indices \(0, 0, 3\) are not distinct mod 6$"):
        Theory(6).measurement((0, 6, 3))
    with pytest.raises(InfeasibleMeasurementError, match=r"^triple \(5, 0, 1\) has an index gap above n/2$"):
        Theory(6).measurement((5, 6, 7))


def test_degenerate_and_infeasible_triples():
    with pytest.raises(DegenerateTripleError):
        Theory(6).measurement((0, 0, 3))
    with pytest.raises(DegenerateTripleError):
        closed_form_triple_weights(Theory(6), 0, 6, 3)
    # adjacent triple on the hexagon: middle weight -2
    _, mu2, _ = closed_form_triple_weights(Theory(6), 0, 1, 2)
    assert abs(mu2 - (-2.0)) < 1e-12
    with pytest.raises(InfeasibleMeasurementError):
        Theory(6).measurement((0, 1, 2))


def trial_solve_feasible(t, triples):
    """The trial solve the arc-gap rule replaced, one flag per triple: the
    effects span R^3 and the completion weights mu of
    sum_k mu_k * effect(j_k) = u are all >= -1e-12."""
    basis = t.effects()[np.asarray(triples)].transpose(0, 2, 1)
    spans = np.abs(np.linalg.det(basis)) >= 1e-14
    mu = np.linalg.solve(basis, np.broadcast_to(unit_effect()[:, None], (len(basis), 3, 1)))
    return spans & (mu[..., 0].min(axis=1) >= -1e-12)


def accepts(t, triple):
    try:
        t.measurement(triple)
    except InfeasibleMeasurementError:
        return False
    return True


def test_arc_gap_rule_matches_the_trial_solve_on_every_triple():
    checked = 0
    for n in range(3, 33):
        t = Theory(n)
        triples = list(itertools.combinations(range(n), 3))
        expected = trial_solve_feasible(t, triples)
        assert [accepts(t, tr) for tr in triples] == expected.tolist(), n
        checked += len(triples)
    assert checked == 40_920


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 128).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        )
    )
)
def test_arc_gap_rule_matches_the_trial_solve_on_random_triples(case):
    n, triple = case
    t = Theory(n)
    assert accepts(t, tuple(triple)) == bool(trial_solve_feasible(t, [triple])[0])


def sorted_gaps(n, triple):
    """The dihedral invariant of a triple: its cyclic index gaps, sorted."""
    a, b, c = sorted(j % n for j in triple)
    return tuple(sorted((b - a, c - b, n - c + a)))


def trial_accepted_triples(t):
    """Every (0, a, b) with 0 < a < b < n that the trial solve accepts."""
    pairs = list(itertools.combinations(range(1, t.n), 2))
    flags = trial_solve_feasible(t, [(0, a, b) for a, b in pairs])
    return [(0, a, b) for (a, b), ok in zip(pairs, flags) if ok]


def test_triple_representatives_cover_each_dihedral_orbit_once():
    for n in range(3, 65):
        t = Theory(n)
        reps = triple_representatives(t)
        assert reps == sorted(reps) and all(r[0] == 0 for r in reps), n
        assert trial_solve_feasible(t, reps).all(), n
        by_gaps = {}
        for r in reps:
            by_gaps.setdefault(sorted_gaps(n, r), []).append(r)
        assert all(len(found) == 1 for found in by_gaps.values()), n
        accepted = {sorted_gaps(n, tr) for tr in trial_accepted_triples(t)}
        assert accepted == set(by_gaps), n


def dihedral_images(n, triple):
    """(state map, effect images of the triple) for the 2n symmetries of the
    n-gon.  Rotation by k shifts state and effect indices by k; the
    reflection through state 0 sends state i to -i and effect j to -j (odd
    n) or 1 - j (even n, whose effect j points at angle (2j - 1) pi / n)."""
    flip = 1 if n % 2 == 0 else 0
    for k in range(n):
        yield (lambda i, k=k: (i + k) % n), [(j + k) % n for j in triple]
        yield (lambda i, k=k: (k - i) % n), [(k + flip - j) % n for j in triple]


@pytest.mark.parametrize("n", [5, 8, 12, 17])
def test_an_orbit_shares_its_channel_up_to_permutations(n):
    t = Theory(n)
    reps = {sorted_gaps(n, r): r for r in triple_representatives(t)}
    for triple in trial_accepted_triples(t):
        rep = reps[sorted_gaps(n, triple)]
        base = t.channel_matrix(t.measurement(rep))
        moved = t.channel_matrix(t.measurement(triple))
        matches = 0
        for state_map, images in dihedral_images(n, rep):
            if sorted(images) != list(triple):
                continue
            rows = [state_map(i) for i in range(n)]
            cols = [triple.index(j) for j in images]
            assert np.abs(moved[np.ix_(rows, cols)] - base).max() < 1e-12
            matches += 1
        assert matches >= 1, (n, triple, rep)


def test_capacity_candidates_are_the_pair_and_the_orbits_without_a_half_gap():
    total = 0
    for n in range(3, 65):
        t = Theory(n)
        got = capacity_candidates(t)
        total += len(got)
        half_gap = {r for r in triple_representatives(t) if 2 * max(sorted_gaps(n, r)) == n}
        assert bool(half_gap) == (n % 2 == 0), n
        if n % 2 == 0:
            assert got[0] == (0, n // 2), n
            got = got[1:]
        assert got == [r for r in triple_representatives(t) if r not in half_gap], n
    assert total == 2022
    assert capacity_candidates(Theory(4)) == [(0, 2)]


def test_theory_capacity_matches_the_full_candidate_list(monkeypatch):
    # the parent list: the pair, then every accepted (0, a, b)
    def full_list(t):
        pair = [(0, t.n // 2)] if t.n % 2 == 0 else []
        return pair + trial_accepted_triples(t)

    # The full list holds up to 2n copies of each orbit's channel, rows and
    # columns permuted, and reports the copy whose roundoff came out highest:
    # a few ulps, invisible at the 9 digits the CLI prints.
    for n in range(3, 41):
        t = Theory(n)
        orbits = theory_capacity(t)
        with monkeypatch.context() as patched:
            patched.setattr(capacity, "capacity_candidates", full_list)
            full = theory_capacity(t)
        assert orbits.iterations == full.iterations, n
        assert f"{orbits.capacity_bits:.9g}" == f"{full.capacity_bits:.9g}", n
        assert 0 <= full.capacity_bits - orbits.capacity_bits <= 1e-14, n


def test_min_effect_weight_matches_every_accepted_triple():
    for n in range(3, 64, 2):
        t = Theory(n)
        every = min(min(t.measurement(tr).weights) for tr in trial_accepted_triples(t))
        assert abs(min_effect_weight(t) - every) <= 1e-15, n


@pytest.mark.parametrize("n", [4, 6, 10, 32, 64])
def test_antipodal_gap_puts_one_weight_at_zero(n):
    t = Theory(n)
    half = n // 2
    for b in range(1, n):
        if b == half:
            continue
        assert t.measurement((0, half, b)).weights == (1.0, 1.0, 0.0)
        assert t.measurement((half, b, 0)).weights == (1.0, 0.0, 1.0)


def test_state_and_effect_tables_are_built_once():
    geometry._tables.cache_clear()
    t = Theory(7)
    expected = dict(zip(("state", "effect"), map(np.stack, vertex_formula_rows(7))))
    for t in (Theory(7), Theory(7)):
        for table, name in ((t.states, "state"), (t.effects, "effect")):
            first = table()
            assert np.array_equal(first, expected[name])
            first[0, 0] = 99.0  # callers get a writable copy; the table stays intact
            assert np.array_equal(table(), expected[name])
        t.measurement((0, 2, 4))
    assert geometry._tables.cache_info().misses == 1
    for cached in geometry._tables(7):
        with pytest.raises(ValueError):
            cached[0, 0] = 99.0


def test_triangle_measurement_weights_n3():
    t = Theory(3)
    m = t.measurement((0, 1, 2))
    assert np.abs(np.asarray(m.weights) - 1.0).max() < 1e-12
    assert abs(min_effect_weight(t) - 1.0) < 1e-12


def test_min_effect_weight_positive_and_decreasing():
    values = [min_effect_weight(Theory(n)) for n in range(3, 64, 2)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        min_effect_weight(Theory(4))


def test_closed_form_matches_solver():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 33))
        t = Theory(n)
        idx = np.sort(rng.choice(n, size=3, replace=False))
        j1, j2, j3 = (int(v) for v in idx)
        closed = closed_form_triple_weights(t, j1, j2, j3)
        if min(closed) < 1e-9:
            continue
        m = t.measurement((j1, j2, j3))
        assert np.abs(np.asarray(m.weights) - closed).max() < 1e-9
        # realised weights sum to 2 (even n) or 1 + R^2 (odd n)
        for total in (sum(m.weights), sum(closed)):
            assert abs(total - (2.0 if t.even else 1.0 + t.r**2)) < 1e-9
        checked += 1


def test_channel_matrix_rows_are_probabilities():
    t = Theory(9)
    m = t.measurement((0, 3, 6))
    P = t.channel_matrix(m)
    assert P.shape == (9, 3)
    assert (P >= 0).all()
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    # given states are used as they are, one row each
    picked = t.states()[[4, 1, 4]]
    assert np.abs(t.channel_matrix(m, picked) - P[[4, 1, 4]]).max() < 1e-15


def test_channel_matrix_of_an_effect_stack_is_the_stack_of_channels():
    t = Theory(11)
    ms = [t.measurement(tr) for tr in ((0, 3, 7), (1, 5, 8), (2, 4, 9))]
    stack = t.channel_matrix(np.stack([m.effects for m in ms]))
    assert stack.shape == (3, 11, 3)
    for channel, m in zip(stack, ms):
        assert np.array_equal(channel, t.channel_matrix(m))
    # one state per measurement, broadcast as a stack of one-row inputs
    states = t.states()[[4, 0, 10]]
    rows = t.channel_matrix(np.stack([m.effects for m in ms]), states[:, None, :])[:, 0]
    for row, m, state in zip(rows, ms, states):
        assert np.array_equal(row, t.channel_matrix(m, state[None])[0])


def test_extremal_decomposition_roundtrip():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 8, 13):
        t = Theory(n)
        verts = t.states()
        for _ in range(40):
            p = rng.dirichlet(np.ones(n))
            v = p @ verts
            q = extremal_decomposition(t, v)
            assert (q >= 0).all()
            assert abs(q.sum() - 1.0) < 1e-9
            assert np.abs(q @ verts - v).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 128), st.floats(0.05, 5.0), st.integers(0, 2**32 - 1))
def test_extremal_decomposition_rebuilds_a_random_mixture(n, alpha, seed):
    t = Theory(n)
    verts = t.states()
    rng = np.random.default_rng(seed)
    v = rng.dirichlet(np.full(n, alpha)) @ verts
    q = extremal_decomposition(t, v)
    assert (q >= 0).all() and abs(q.sum() - 1.0) <= 1e-12
    assert np.abs(q @ verts - v).max() <= 1e-12
    # a stack holding this state, more mixtures, a vertex and the centre
    # decomposes row by row into the single-state answers
    more = rng.dirichlet(np.full(n, alpha), size=3) @ verts
    stack = np.vstack([v, more, verts[rng.integers(n)], unit_effect()])
    Q = extremal_decomposition(t, stack)
    assert Q.shape == (6, n)
    for row, state in zip(Q, stack):
        assert np.array_equal(row, extremal_decomposition(t, state))


def test_extremal_decomposition_vertex_and_errors():
    t = Theory(6)
    q = extremal_decomposition(t, t.states()[4])
    assert abs(q[4] - 1.0) < 1e-12 and abs(q.sum() - 1.0) < 1e-12
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, t.states()[0] + np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, np.stack([t.states()[1], np.array([0.0, 0.0, 2.0])]))
    # normalisation is checked to PROB_TOL
    q = extremal_decomposition(t, np.array([0.0, 0.0, 1.0 + 5e-10]))
    assert abs(q.sum() - 1.0) < 1e-12
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, np.array([0.0, 0.0, 1.0 + 2e-9]))


def test_extremal_decomposition_deterministic():
    t = Theory(7)
    S = t.states()
    v = 0.3 * S[0] + 0.45 * S[2] + 0.25 * S[5]
    a = extremal_decomposition(t, v)
    b = extremal_decomposition(t, v)
    assert np.array_equal(a, b)


def vertex_formula_rows(n):
    """State and effect rows of the n-gon as the module docstring writes them,
    one numpy array per vertex."""
    r = math.sqrt(1.0 / math.cos(math.pi / n))
    states, effects = [], []
    for i in range(n):
        ang = 2.0 * math.pi * i / n
        states.append(np.array([r * math.cos(ang), r * math.sin(ang), 1.0]))
        if n % 2 == 0:
            ang = (2 * i - 1) * math.pi / n
            effects.append(0.5 * np.array([r * math.cos(ang), r * math.sin(ang), 1.0]))
        else:
            effects.append(np.array([r * math.cos(ang), r * math.sin(ang), 1.0]) / (1.0 + r**2))
    return states, effects


@pytest.mark.parametrize("n", range(3, 257))
def test_tables_have_the_bits_of_the_vertex_formulas(n):
    t = Theory(n)
    states, effects = vertex_formula_rows(n)
    assert t.states().tobytes() == np.stack(states).tobytes()
    assert t.effects().tobytes() == np.stack(effects).tobytes()
