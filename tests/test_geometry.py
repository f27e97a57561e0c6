"""Tests for polygon state/effect geometry and measurement construction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngon.capacity import capacity_candidates
from ngon.geometry import (
    DegenerateTripleError,
    InfeasibleMeasurementError,
    InvalidStateError,
    Theory,
    closed_form_triple_weights,
    extremal_decomposition,
    min_effect_weight,
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
    w0 = Theory(3).state(0)
    assert np.abs(w0 - [math.sqrt(2.0), 0.0, 1.0]).max() < 1e-15


def test_state_index_wraps():
    t = Theory(7)
    assert np.array_equal(t.state(9), t.state(2))
    assert np.array_equal(t.state(-1), t.state(6))


def test_bad_constructions():
    with pytest.raises(ValueError):
        Theory(2)
    with pytest.raises(ValueError):
        Theory(3.5)


def test_unit_effect_pairing():
    u = unit_effect()
    for n in (3, 4, 9):
        t = Theory(n)
        for i in range(n):
            assert abs(np.dot(u, t.state(i)) - 1.0) < 1e-15


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
    t = Theory(6)
    assert t.in_state_cone(t.state(2))
    assert t.in_state_cone(2.5 * t.state(2))
    outside = t.state(0) + np.array([t.r, 0.0, 0.0])
    assert not t.in_state_cone(outside)


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
    assert min(m.realized_weights) > 0
    for k, idx in enumerate(m.indices):
        # each effect is its stated multiple of the extremal effect
        assert np.abs(m.effects[k] - m.realized_weights[k] * t.effect(idx)).max() < 1e-12


def test_antipodal_pair_measurement():
    t = Theory(8)
    m = t.measurement((0, 4))
    assert np.abs(m.effects.sum(axis=0) - unit_effect()).max() < 1e-12
    assert m.realized_weights == (1.0, 1.0)
    with pytest.raises(InfeasibleMeasurementError):
        t.measurement((0, 3))
    with pytest.raises(InfeasibleMeasurementError):
        Theory(5).measurement((0, 2))


def test_degenerate_and_infeasible_triples():
    with pytest.raises(DegenerateTripleError):
        Theory(6).measurement((0, 0, 3))
    with pytest.raises(DegenerateTripleError):
        closed_form_triple_weights(Theory(6), 0, 6, 3)
    # adjacent triple on the hexagon: middle weight -2
    l1, l2, l3, scale = closed_form_triple_weights(Theory(6), 0, 1, 2)
    assert abs(l2 - (-2.0)) < 1e-12
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


def test_capacity_candidates_match_the_trial_loop():
    for n in range(3, 65):
        t = Theory(n)
        pairs = list(itertools.combinations(range(1, n), 2))
        flags = trial_solve_feasible(t, [(0, a, b) for a, b in pairs])
        expected = [(0, n // 2)] if n % 2 == 0 else []
        expected += [(0, a, b) for (a, b), ok in zip(pairs, flags) if ok]
        assert [m.indices for m in capacity_candidates(t)] == expected, n


@pytest.mark.parametrize("n", [4, 6, 10, 32, 64])
def test_antipodal_gap_puts_one_weight_at_zero(n):
    t = Theory(n)
    half = n // 2
    for b in range(1, n):
        if b == half:
            continue
        w = t.measurement((0, half, b)).realized_weights
        assert min(w) <= 1e-12 and w[2] <= 1e-12
        assert abs(w[0] - 1.0) <= 1e-12 and abs(w[1] - 1.0) <= 1e-12


def test_state_and_effect_tables_are_built_once(monkeypatch):
    t = Theory(7)
    expected = {"state": np.stack([t.state(i) for i in range(7)]),
                "effect": np.stack([t.effect(j) for j in range(7)])}
    built = {"state": 0, "effect": 0}
    for name in built:
        original = getattr(Theory, name)

        def counted(self, i, name=name, original=original):
            built[name] += 1
            return original(self, i)

        monkeypatch.setattr(Theory, name, counted)
    for table, name in ((t.states, "state"), (t.effects, "effect")):
        first = table()
        assert np.array_equal(first, expected[name])
        first[0, 0] = 99.0  # callers get a copy; the table stays intact
        assert np.array_equal(table(), expected[name])
    t.measurement((0, 2, 4))
    assert built == {"state": 7, "effect": 7}


def test_triangle_measurement_weights_n3():
    t = Theory(3)
    m = t.measurement((0, 1, 2))
    assert np.abs(np.asarray(m.realized_weights) - 1.0).max() < 1e-12
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
        l1, l2, l3, scale = closed_form_triple_weights(t, j1, j2, j3)
        if min(l1, l2, l3) < 1e-9:
            continue
        m = t.measurement((j1, j2, j3))
        assert np.abs(np.asarray(m.weights) - [l1, l2, l3]).max() < 1e-9
        assert abs(m.scale - scale) < 1e-12
        total = sum(m.realized_weights)
        assert abs(total - t.total_weight) < 1e-9
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


def test_extremal_decomposition_vertex_and_errors():
    t = Theory(6)
    q = extremal_decomposition(t, t.state(4))
    assert abs(q[4] - 1.0) < 1e-12 and abs(q.sum() - 1.0) < 1e-12
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(InvalidStateError):
        extremal_decomposition(t, t.state(0) + np.array([1.0, 0.0, 0.0]))


def test_extremal_decomposition_deterministic():
    t = Theory(7)
    v = 0.3 * t.state(0) + 0.45 * t.state(2) + 0.25 * t.state(5)
    a = extremal_decomposition(t, v)
    b = extremal_decomposition(t, v)
    assert np.array_equal(a, b)
