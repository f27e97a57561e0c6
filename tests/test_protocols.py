"""Tests for the communication protocols and their analytic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngon import capacity
from ngon.capacity import binary_entropy
from ngon.checks import run_checks
from ngon.geometry import InvalidStateError, Theory
from ngon.polytope import ResourceBoundError
from ngon.protocols import (
    _binary_info,
    _even_vertex_bound,
    _pair_channels,
    best_ic_encoding,
    even_full_alphabet_ne_matrix,
    ic_bound_check,
    ic_encoding,
    ne_matrix,
    run_ic,
    simulate_transmission,
)


def hb(p):
    return float(binary_entropy(np.array(p)))


def test_ic_exact_invariants_all_even_n():
    for n in range(4, 65, 2):
        r = run_ic(Theory(n))
        cos = math.cos(2.0 * math.pi / n)
        assert abs(r.success_bit0 - 1.0) < 1e-12
        assert abs(r.success_bit1 - (1.0 - cos / 2.0)) < 1e-12
        assert abs(r.worst_bit_success - (1.0 - cos / 2.0)) < 1e-12
        assert abs(r.info_sum_bits - (2.0 - hb(cos / 2.0))) < 1e-9
        assert abs(r.info_avg_bits - 0.5 * r.info_sum_bits) < 1e-15
        assert r.info_sum_bits > 1.0 + 1e-9


def test_ic_square_and_hexagon_values():
    r4 = run_ic(Theory(4))
    assert abs(r4.info_sum_bits - 2.0) < 1e-12
    assert abs(r4.success_bit1 - 1.0) < 1e-12
    r6 = run_ic(Theory(6))
    assert abs(r6.success_bit1 - 0.75) < 1e-12
    assert abs(r6.info_sum_bits - 1.188721875540867) < 1e-9


def test_ic_information_decreases_toward_one_bit():
    values = [run_ic(Theory(n)).info_sum_bits for n in range(4, 65, 2)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0
    assert values[-1] - 1.0 < 0.01


def test_ic_rejects_odd():
    with pytest.raises(ValueError):
        run_ic(Theory(5))
    with pytest.raises(ValueError):
        ic_encoding(Theory(7))


def test_exhaustive_search_matches_protocol_small_n():
    for n in (4, 6):
        _, _, best = best_ic_encoding(Theory(n))
        assert abs(best - run_ic(Theory(n)).info_sum_bits) < 1e-9


def test_exhaustive_search_dominates_protocol():
    # from n=8 on, the unconstrained search strictly beats the two-pair
    # protocol by decoding one bit off adjacent saturated vertices
    for n in (8, 10, 12):
        _, _, best = best_ic_encoding(Theory(n))
        run = run_ic(Theory(n)).info_sum_bits
        assert best >= run - 1e-9
        assert best > run + 1e-3
    _, _, best8 = best_ic_encoding(Theory(8))
    assert abs(best8 - 1.127570660143532) < 1e-9


def test_pair_channels_have_the_bits_of_each_pair_measurement():
    for n in range(4, 65, 2):
        t = Theory(n)
        anchors = np.arange(n)
        per_anchor = np.stack([t.channel_matrix(t.measurement((a, a + n // 2))) for a in anchors])
        assert np.array_equal(_pair_channels(t, anchors), per_anchor), n


def _pair_average_tables(t):
    """PA[a, i, k]: first-outcome law of the pair at anchor a, states i and k equiprobable."""
    G = _pair_channels(t, np.arange(t.n // 2))[:, :, 0]
    return 0.5 * (G[:, :, None] + G[:, None, :])


def _best_anchor_sum(PA, e00, e01, e10, e11):
    """Best-anchor information of bit 0 plus that of bit 1 for one encoding."""
    return (max(_binary_info(PA[a, e00, e01], PA[a, e10, e11]) for a in range(len(PA)))
            + max(_binary_info(PA[a, e00, e10], PA[a, e01, e11]) for a in range(len(PA))))


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_rotation_reduced_search_matches_a_full_scan(n):
    t = Theory(n)
    enc, (a0, a1), best = best_ic_encoding(t)
    # brute force over all n^4 encodings and every anchor, vectorized per anchor
    PA = _pair_average_tables(t).reshape(n // 2, n * n)
    hb = lambda p: binary_entropy(np.clip(p, 0.0, 1.0))
    info = np.max([hb(0.5 * (row[:, None] + row[None, :])) - 0.5 * (hb(row)[:, None] + hb(row)[None, :])
                   for row in PA], axis=0).reshape(n, n, n, n)
    full = info + info.transpose(0, 2, 1, 3)
    assert abs(best - full.max()) <= 1e-12
    assert enc[(0, 0)] == 0
    e = [enc[(0, 0)], enc[(0, 1)], enc[(1, 0)], enc[(1, 1)]]
    PA = PA.reshape(n // 2, n, n)
    info0 = _binary_info(PA[a0, e[0], e[1]], PA[a0, e[2], e[3]])
    info1 = _binary_info(PA[a1, e[0], e[2]], PA[a1, e[1], e[3]])
    assert abs(info0 + info1 - best) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).map(lambda h: 2 * h), st.data())
def test_best_anchor_sum_is_rotation_invariant(n, data):
    PA = _pair_average_tables(Theory(n))
    enc = data.draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4))
    s = data.draw(st.integers(0, n - 1))
    rotated = [(e + s) % n for e in enc]
    assert abs(_best_anchor_sum(PA, *rotated) - _best_anchor_sum(PA, *enc)) <= 1e-12


def test_exhaustive_search_beats_uncorrected_index_formula():
    for n in (4, 6, 8):
        t = Theory(n)
        enc = ic_encoding(t)
        raw = {(a, b): (a * n // 2 + b + a * b) % n for a in (0, 1) for b in (0, 1)}
        assert enc != raw
        g0 = np.clip(t.states() @ t.measurement((1, 1 + n // 2)).effects[0], 0.0, 1.0)
        # the uncorrected map cannot decode bit 0 with certainty
        succ = np.mean(
            [g0[raw[(0, b)]] for b in (0, 1)] + [1.0 - g0[raw[(1, b)]] for b in (0, 1)]
        )
        assert succ < 1.0 - 1e-9
        fixed = np.mean(
            [g0[enc[(0, b)]] for b in (0, 1)] + [1.0 - g0[enc[(1, b)]] for b in (0, 1)]
        )
        assert abs(fixed - 1.0) < 1e-12


def test_exhaustive_search_resource_bound():
    with pytest.raises(ResourceBoundError):
        best_ic_encoding(Theory(26))


def test_ne_matrix_all_sizes():
    for n in range(3, 65):
        r = ne_matrix(Theory(n))
        expected_size = n if n % 2 else n // 2
        assert r.effective_alphabet == expected_size
        assert r.matrix.shape == (expected_size, expected_size)
        assert r.max_diag <= 1e-14
        if expected_size > 1:
            assert r.min_offdiag > 1e-12


def per_y_ne_matrix(t):
    """The witness one receiver setting y at a time, as one column each."""
    n = t.n
    states = t.states()
    if t.even:
        matrix = np.empty((n // 2, n // 2))
        for y in range(n // 2):
            pair = t.measurement((2 * y, 2 * y + n // 2))
            matrix[:, y] = t.channel_matrix(pair, states)[::2, 1]
        return matrix
    m = (n - 1) // 2
    matrix = np.empty((n, n))
    for y in range(n):
        triple = t.measurement((y, y + m, y + m + 1))
        matrix[:, y] = t.channel_matrix(triple, states)[:, 1:].sum(axis=1)
    return matrix


def test_stacked_ne_matrix_matches_the_per_y_loop():
    for n in range(3, 65):
        assert np.array_equal(ne_matrix(Theory(n)).matrix, per_y_ne_matrix(Theory(n))), n


def test_ne_pentagon_neighbor_entry():
    r = ne_matrix(Theory(5))
    assert abs(r.matrix[4, 0] - 0.3819660112501053) < 1e-9
    assert abs(r.matrix[4, 0] - r.matrix[0, 1]) < 1e-12  # cyclic symmetry


def test_ne_min_offdiag_shrinks_with_n():
    small = ne_matrix(Theory(5)).min_offdiag
    large = ne_matrix(Theory(63)).min_offdiag
    assert large < small


def test_even_full_alphabet_witness_fails_at_neighbor():
    for n in (4, 8, 16):
        raw = even_full_alphabet_ne_matrix(Theory(n))
        assert raw.effective_alphabet == n
        for y in range(n):
            assert abs(raw.matrix[(y - 1) % n, y]) <= 1e-14
        assert raw.min_offdiag <= 1e-14
    with pytest.raises(ValueError):
        even_full_alphabet_ne_matrix(Theory(5))


def test_simulation_marginal_matches_direct_law():
    rng = np.random.default_rng(99)
    for n in (5, 8, 12):
        t = Theory(n)
        for _ in range(20):
            p = rng.dirichlet(np.ones(n))
            w = p @ t.states()
            tri = None
            while tri is None:
                c = tuple(sorted(int(v) for v in rng.choice(n, 3, replace=False)))
                try:
                    tri = t.measurement(c)
                except Exception:
                    tri = None
            rep = simulate_transmission(t, w, tri, samples=1, seed=1)
            direct = np.clip(tri.effects @ w, 0.0, 1.0)
            assert np.abs(rep.analytic_dist - direct).max() <= 1e-12


def test_simulation_extremal_state_is_exact():
    t = Theory(6)
    m = t.measurement((0, 2, 4))
    rep = simulate_transmission(t, t.states()[1], m, samples=10, seed=0)
    direct = np.clip(m.effects @ t.states()[1], 0.0, 1.0)
    assert np.abs(rep.analytic_dist - direct).max() <= 1e-15


def test_simulation_concentrates():
    t = Theory(8)
    w = np.array([0.2, 0.1, 0.15, 0.05, 0.1, 0.1, 0.15, 0.15]) @ t.states()
    m = t.measurement((0, 3, 6))
    rep = simulate_transmission(t, w, m, samples=100_000, seed=2024)
    assert rep.tv_distance <= 0.01
    assert abs(rep.message_bits - 3.0) < 1e-15
    again = simulate_transmission(t, w, m, samples=100_000, seed=2024)
    assert np.array_equal(rep.empirical_dist, again.empirical_dist)


def test_simulation_tv_bound_across_seeds():
    t = Theory(8)
    w = t.states().mean(axis=0)
    m = t.measurement((0, 3, 6))
    bound = 3.0 * math.sqrt(3.0 / 4000.0)
    for seed in range(5):
        rep = simulate_transmission(t, w, m, samples=4000, seed=seed)
        assert rep.tv_distance <= bound


def test_simulation_rejects_bad_inputs():
    t = Theory(6)
    m = t.measurement((0, 3))
    with pytest.raises(InvalidStateError):
        simulate_transmission(t, np.array([5.0, 0.0, 1.0]), m, samples=10, seed=0)
    with pytest.raises(ValueError):
        simulate_transmission(t, t.states()[0], m, samples=0, seed=0)


def test_simulation_rejects_effects_that_are_not_a_measurement():
    # NaN effects used to raise numpy's multinomial error, effects of 0.5 gave a report
    t = Theory(5)
    for bad in (math.nan, 0.5):
        with pytest.raises(ValueError, match="^effects must give a probability vector on every state$"):
            simulate_transmission(t, t.states()[0], np.full((3, 3), bad), samples=10, seed=1)
    m = t.measurement((0, 1, 3))
    raw, built = (simulate_transmission(t, t.states()[0], e, samples=10, seed=1) for e in (m.effects, m))
    assert raw.empirical_dist.tobytes() == built.empirical_dist.tobytes()


def test_simulation_checks_the_raw_overlaps_of_its_effects():
    # overlaps from -2.70 to 3.70 that sum to 1 once gave analytic_dist [0, 1, 0]
    t = Theory(5)
    outside = np.array([[-3.0, 0.0, 1.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^effects must give a probability vector on every state$"):
        simulate_transmission(t, t.states()[0], outside, samples=10, seed=1)


@pytest.mark.parametrize(
    "reshape, shape",
    [
        pytest.param(lambda e: np.stack([e, e]), r"\(2, 3, 3\)", id="stack"),
        pytest.param(lambda e: e[:, :2], r"\(3, 2\)", id="two-columns"),
    ],
)
def test_simulation_refuses_effects_of_the_wrong_shape(reshape, shape):
    # numpy's broadcast and matmul errors once escaped
    t = Theory(5)
    effects = reshape(t.measurement((0, 1, 3)).effects)
    with pytest.raises(ValueError, match=rf"^effects must have shape \(outcomes, 3\), got {shape}$"):
        simulate_transmission(t, t.states()[0], effects, samples=10, seed=1)


def test_ic_bound_check_small_and_large():
    assert ic_bound_check(Theory(4)) is True
    assert ic_bound_check(Theory(6)) is True
    # beyond n=64 the vertex bound certifies the converse: at n=100 the
    # information excess is ~2.8e-6; at n=1000 it is ~2.8e-10, below the
    # 1e-9 threshold
    assert ic_bound_check(Theory(100)) is True
    assert ic_bound_check(Theory(1000)) is False
    with pytest.raises(ValueError):
        ic_bound_check(Theory(5))


def test_ic_bound_check_reads_the_enumeration_bound_at_call_time(monkeypatch):
    # above the bound the vertex bound certifies the converse, not the sweep
    monkeypatch.setattr(capacity, "ENUMERATION_MAX", 8)
    assert ic_bound_check(Theory(10)) is True
    with pytest.raises(ValueError, match="check even-capacity: max_n=10 above the enumeration bound 8"):
        run_checks(only=["even-capacity"], max_n=10)


def test_even_vertex_bound_is_decided_exactly():
    # every vertex of the alphabet-3 polytope at c = 2 is zero-weight
    assert _even_vertex_bound() is True
