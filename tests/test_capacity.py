"""Tests for channel capacity: Blahut-Arimoto core and polygon-theory rates."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngon import capacity
from ngon.capacity import (
    BAResult,
    CapacityResult,
    ConvergenceError,
    antipodal_pair_rate,
    binary_entropy,
    blahut_arimoto,
    capacity_candidates,
    mutual_information_bits,
    odd_triple_rate,
    theory_capacity,
)
from ngon.geometry import ResourceBoundError, Theory

LOG2_3 = math.log2(3.0)


def odd_triple_rate_oracle(n):
    """Independent closed form for the 3-state protocol rate at odd n.

    The completion has one exact row and a symmetric binary block with
    parameter mu = (1+sec(pi/n)) / (2(1+cos(pi/n))); the capacity of that
    block composes to log2(1 + 2^(1 - H_b(mu))).
    """
    mu = (1.0 + 1.0 / math.cos(math.pi / n)) / (2.0 * (1.0 + math.cos(math.pi / n)))
    hb = binary_entropy(np.array(mu))
    return math.log2(1.0 + 2.0 ** (1.0 - float(hb)))


def _no_prior(W, *_):
    return np.zeros((1, len(W)), bool), np.zeros((1, *W.shape[:2]))


@pytest.fixture
def unpolished(monkeypatch):
    """Plain Blahut-Arimoto iterations, no polish step.

    The polish certifies small channels to roundoff at iteration 1, where a
    bracket may close for any tol; without it the iterate and the error
    path it feeds can be observed.  The iterate itself never sees the polish.
    """
    monkeypatch.setattr(capacity, "_leader_priors", _no_prior)
    monkeypatch.setattr(capacity, "_fallback_priors", _no_prior)


def test_ba_identity_channels():
    r2 = blahut_arimoto(np.eye(2))
    assert abs(r2.capacity_bits - 1.0) < 1e-9
    r3 = blahut_arimoto(np.eye(3))
    assert abs(r3.capacity_bits - LOG2_3) < 1e-9
    assert np.abs(r3.prior - 1.0 / 3.0).max() < 1e-9


def test_ba_binary_symmetric():
    w = np.array([[0.75, 0.25], [0.25, 0.75]])
    r = blahut_arimoto(w)
    assert abs(r.capacity_bits - 0.18872187554086717) < 1e-9


def test_ba_objective_monotone(unpolished):
    # the mutual information at the iterate reached after k steps never drops
    rng = np.random.default_rng(31)
    w = rng.dirichlet(np.ones(3), size=4)
    values = []
    for k in range(1, 120):
        with (
            mock.patch.object(capacity, "BA_MAX_ITER", k),
            mock.patch.object(capacity, "BA_TOL", 1e-15),
            pytest.raises(ConvergenceError) as err,
        ):
            blahut_arimoto(w)
        values.append(mutual_information_bits(err.value.prior, w))
    assert (np.diff(values) >= -1e-12).all()
    assert values[-1] > values[0]
    assert abs(values[-1] - blahut_arimoto(w).capacity_bits) < 1e-8


def test_ba_convergence_error_carries_state(unpolished, monkeypatch):
    monkeypatch.setattr(capacity, "BA_MAX_ITER", 2)
    monkeypatch.setattr(capacity, "BA_TOL", 1e-15)
    w = np.array([[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(ConvergenceError) as err:
        blahut_arimoto(w)
    assert err.value.iterations == 2
    assert 0.0 < err.value.capacity_bits < 1.0
    assert abs(err.value.prior.sum() - 1.0) < 1e-12
    assert np.abs(err.value.prior - 0.5).max() > 1e-3  # not the uniform start


def test_ba_reads_the_iteration_bound_at_call_time(unpolished, monkeypatch):
    monkeypatch.setattr(capacity, "BA_TOL", 1e-15)
    w = np.array([[0.9, 0.1], [0.3, 0.7]])
    for bound in (1, 5, 3):
        monkeypatch.setattr(capacity, "BA_MAX_ITER", bound)
        with pytest.raises(ConvergenceError, match=f"after {bound} iterations") as err:
            blahut_arimoto(w)
        assert err.value.iterations == bound


def test_theory_capacity_convergence_error_carries_last_iterate(unpolished, monkeypatch):
    monkeypatch.setattr(capacity, "BA_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as err:
        theory_capacity(Theory(7))
    prior = err.value.prior
    assert err.value.iterations == 3
    assert prior.shape == (7,) and abs(prior.sum() - 1.0) < 1e-12
    assert np.abs(prior - 1.0 / 7.0).max() > 1e-6  # not the uniform start


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ba_stack_matches_best_single_channel(count, inputs, outcomes, seed):
    stack = np.random.default_rng(seed).dirichlet(np.ones(outcomes), size=(count, inputs))
    tol = 1e-8
    slack = tol + 1e-12  # the bracket bounds carry float roundoff
    with mock.patch.object(capacity, "BA_MAX_ITER", 2000), mock.patch.object(capacity, "BA_TOL", tol):
        singles = [blahut_arimoto(w).capacity_bits for w in stack]
        res = blahut_arimoto(stack)
    assert abs(res.capacity_bits - max(singles)) <= slack
    assert abs(singles[res.index] - res.capacity_bits) <= slack
    assert abs(mutual_information_bits(res.prior, stack[res.index]) - res.capacity_bits) <= slack


def test_nearly_useless_channel_converges(monkeypatch):
    # capacity 1.4e-5 bits; plain iterations close this bracket sublinearly and
    # stood at 1.2e-8 after 100,000 of them
    monkeypatch.setattr(capacity, "BA_TOL", 1e-8)
    w = np.random.default_rng(30643848).dirichlet(np.ones(2), size=(1, 2))[0]
    res = blahut_arimoto(w)
    assert 1e-5 < res.capacity_bits < 2e-5
    assert abs(mutual_information_bits(res.prior, w) - res.capacity_bits) <= 1e-12


def _simplex_grid(inputs, steps):
    """Every prior on `inputs` letters whose entries are multiples of 1/steps."""
    if inputs == 2:
        a = np.arange(steps + 1) / steps
        return np.stack([a, 1.0 - a], axis=1)
    i, j = np.triu_indices(steps + 1)
    return np.stack([i, j - i, steps - j], axis=1) / steps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_returned_prior_attains_a_capacity_no_grid_prior_beats(inputs, outcomes, seed):
    w = np.random.default_rng(seed).dirichlet(np.ones(outcomes), size=inputs)
    tol = 1e-9
    with mock.patch.object(capacity, "BA_TOL", tol):
        res = blahut_arimoto(w)
    assert abs(mutual_information_bits(res.prior, w) - res.capacity_bits) <= 1e-12
    grid = _simplex_grid(inputs, 400)
    joint = grid[:, :, None] * w
    q = joint.sum(axis=1, keepdims=True)
    terms = np.where(joint > 0, joint * np.log2(np.maximum(w, 1e-300) / np.maximum(q, 1e-300)), 0.0)
    assert terms.sum(axis=(1, 2)).max() <= res.capacity_bits + tol


def plain_ba_bracket(w, iterations=3000):
    """Bracket [lower, upper] on the capacity from plain Blahut-Arimoto steps."""
    p = np.full(len(w), 1.0 / len(w))
    lower, upper = 0.0, math.inf
    for _ in range(iterations):
        q = p @ w
        d = np.where(w > 0, w * np.log2(np.maximum(w, 1e-300) / np.maximum(q, 1e-300)), 0.0).sum(axis=1)
        lower, upper = max(lower, float(p @ d)), min(upper, float(d.max()))
        p = p * np.exp2(d - d.max())
        p /= p.sum()
    return lower, upper


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polished_capacity_lies_in_the_plain_iteration_bracket(inputs, outcomes, seed):
    # more inputs than outcomes: a polish on the wrong support gives a valid
    # but suboptimal prior, and only the full-channel upper bound rejects it
    w = np.random.default_rng(seed).dirichlet(np.ones(outcomes), size=inputs)
    tol = 1e-9
    with mock.patch.object(capacity, "BA_TOL", tol):
        res = blahut_arimoto(w)
    lower, upper = plain_ba_bracket(w)
    assert lower - tol <= res.capacity_bits <= upper + 1e-12


def test_ba_rejects_bad_matrix():
    with pytest.raises(ValueError):
        blahut_arimoto(np.array([[0.5, 0.6], [0.5, 0.5]]))
    # rows sum to 1 within PROB_TOL; entries are nonnegative within ROUNDOFF
    with pytest.raises(ValueError, match="probability vectors"):
        blahut_arimoto(np.array([[0.5, 0.5 + 2e-9], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="probability vectors"):
        blahut_arimoto(np.array([[1.0 + 2e-12, -2e-12], [0.5, 0.5]]))
    assert blahut_arimoto(np.array([[1.0 + 5e-13, -5e-13], [0.0, 1.0]])).capacity_bits > 0.99


def test_ba_rejects_a_nan_matrix_before_iterating():
    # refused before the ascent: a NaN must not run BA_MAX_ITER iterations
    # into a ConvergenceError
    with pytest.raises(ValueError, match="probability vectors"):
        blahut_arimoto(np.array([[math.nan, 1.0], [0.5, 0.5]]))


def test_binary_entropy_endpoints():
    assert binary_entropy(np.array(0.0)) == 0.0
    assert binary_entropy(np.array(1.0)) == 0.0
    assert abs(binary_entropy(np.array(0.5)) - 1.0) < 1e-15


def test_mutual_information_extremes():
    assert abs(mutual_information_bits([0.5, 0.5], np.eye(2)) - 1.0) < 1e-12
    assert abs(mutual_information_bits([0.5, 0.5], np.full((2, 2), 0.5))) < 1e-12


def test_antipodal_pair_rate_is_one_bit():
    for n in (4, 8, 32, 64):
        assert abs(antipodal_pair_rate(Theory(n)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        antipodal_pair_rate(Theory(5))


def test_antipodal_pair_nonuniform_prior_loses():
    t = Theory(6)
    matrix = t.channel_matrix(t.measurement((0, 3)), t.states()[[0, 3]])
    skew = mutual_information_bits(np.array([0.6, 0.4]), matrix)
    assert skew < 1.0 - 1e-6


def test_odd_triple_channel_structure():
    t = Theory(5)
    matrix = t.channel_matrix(t.measurement((0, 2, 3)), t.states()[[0, 2, 3]])
    mu = (1.0 + 1.0 / math.cos(math.pi / 5)) / (2.0 * (1.0 + math.cos(math.pi / 5)))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, mu, 1.0 - mu], [0.0, 1.0 - mu, mu]])
    assert np.abs(matrix - expected).max() < 1e-12
    assert abs(mu - 0.6180339887498949) < 1e-12
    with pytest.raises(ValueError):
        odd_triple_rate(Theory(4))


def test_odd_triple_rate_matches_closed_form():
    for n in range(3, 64, 2):
        assert abs(odd_triple_rate(Theory(n)) - odd_triple_rate_oracle(n)) < 1e-9


def test_odd_triple_rate_sequence():
    values = [odd_triple_rate(Theory(n)) for n in range(3, 64, 2)]
    assert abs(values[0] - LOG2_3) < 1e-9
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0
    assert values[-1] - 1.0 < 0.02


def test_fixed_prior_is_suboptimal_for_n5():
    t = Theory(5)
    matrix = t.channel_matrix(t.measurement((0, 2, 3)), t.states()[[0, 2, 3]])
    fixed = mutual_information_bits([0.5, 0.25, 0.25], matrix)
    best = odd_triple_rate(t)
    assert best > fixed + 1e-6


def test_capacity_candidates_shapes():
    even = capacity_candidates(Theory(6))
    assert even[0] == (0, 3)
    assert all(c[0] == 0 for c in even)
    odd = capacity_candidates(Theory(5))
    assert all(len(c) == 3 for c in odd)


def test_candidate_count_is_the_length_of_the_candidate_list():
    # the triples are the integer triangles of perimeter n, round(n^2 / 48) of
    # them for even n and round((n + 3)^2 / 48) for odd n (Alcuin's sequence),
    # and even n adds the pair
    for n in range(3, 301):
        alcuin = (n * n + 24) // 48 + 1 if n % 2 == 0 else ((n + 3) ** 2 + 24) // 48
        assert len(capacity_candidates(Theory(n))) == alcuin, n


def test_theory_capacity_small_cases():
    r3 = theory_capacity(Theory(3))
    assert abs(r3.capacity_bits - LOG2_3) < 1e-6
    r4 = theory_capacity(Theory(4))
    assert abs(r4.capacity_bits - 1.0) < 1e-6
    r5 = theory_capacity(Theory(5))
    assert 1.0 < r5.capacity_bits < LOG2_3
    # frozen regression baseline for the pentagon
    assert abs(r5.capacity_bits - 1.020433318) < 1e-6
    r6 = theory_capacity(Theory(6))
    assert abs(r6.capacity_bits - 1.0) < 1e-6


def test_theory_capacity_result_fields():
    r = theory_capacity(Theory(5))
    assert r.n == 5 and r.parity == "odd"
    assert len(r.prior) == 5
    assert abs(sum(r.prior) - 1.0) < 1e-9
    assert all(r.prior[i] > 1e-6 for i in r.support)
    # the prior owns its data: a kept result does not pin the stack's priors
    assert r.prior.base is None


def test_theory_capacity_enforces_bound(monkeypatch):
    for n in (65, 66):
        with pytest.raises(ResourceBoundError, match=f"^n={n} above the enumeration bound 64$"):
            theory_capacity(Theory(n))
    monkeypatch.setattr(capacity, "ENUMERATION_MAX", 66)
    r = theory_capacity(Theory(66))
    assert abs(r.capacity_bits - 1.0) < 1e-6


def test_reported_measurement_is_the_canonical_strategy():
    # even n: the antipodal pair; odd n: (0, 1, (n+1)/2), the rotation of the
    # paper's (0, (n-1)/2, (n+1)/2) that represents its dihedral orbit.  The
    # sweep realises the pair as the zero-weight triple (0, n/2, 1); what it
    # reports is still the two-outcome measurement, weights (1, 1) on two rows
    # of the effect table
    for n in range(3, 65):
        r = theory_capacity(Theory(n))
        expected = (0, n // 2) if n % 2 == 0 else (0, 1, (n + 1) // 2)
        m = Theory(n).measurement(expected)
        assert r.measurement.indices == expected, n
        assert r.measurement.weights == m.weights, n
        assert r.measurement.effects.shape == m.effects.shape, n
        assert r.measurement.effects.tobytes() == m.effects.tobytes(), n


def test_reported_measurement_attains_the_capacity(monkeypatch):
    # each dihedral orbit has one candidate, so the winner is no longer picked
    # by roundoff among copies of one channel; it must attain the capacity alone
    tol = 1e-9
    monkeypatch.setattr(capacity, "BA_TOL", tol)
    for n in range(3, 65):
        t = Theory(n)
        r = theory_capacity(t)
        got = blahut_arimoto(t.channel_matrix(r.measurement)).capacity_bits
        assert abs(got - r.capacity_bits) <= tol + 1e-12, n


def test_measurement_capacity_cyclic_symmetry():
    t = Theory(5)

    def capacity_of(indices):
        return blahut_arimoto(t.channel_matrix(t.measurement(indices))).capacity_bits

    base = capacity_of((0, 1, 3))
    for shift in (1, 2, 4):
        rotated = tuple(sorted((j + shift) % 5 for j in (0, 1, 3)))
        assert abs(capacity_of(rotated) - base) < 1e-9


def test_every_size_certifies_at_the_first_iteration(monkeypatch):
    # a count, not a timing: the leader polish closes every bracket at
    # iteration 1, so no polygon bracket reaches the fallback polish, which
    # stays for general channels (test_nearly_useless_channel_converges)
    def unreached(*_):
        raise AssertionError("a polygon bracket reached the fallback polish")

    monkeypatch.setattr(capacity, "_fallback_priors", unreached)
    sweep = capacity.theory_capacities(Theory(n) for n in range(3, 65))
    for r in sweep + [theory_capacity(Theory(n)) for n in range(3, 65)]:
        assert r.iterations == 1, r.n
        if r.n % 2 == 0:
            assert abs(r.capacity_bits - 1.0) <= 1e-14, r.n


def test_capacity_result_validates_range():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    with pytest.raises(ValueError):
        CapacityResult(5, "odd", 2.5, m, (0.2, 0.2, 0.2, 0.2, 0.2), (0, 1), 10)


def test_a_mutual_information_stack_has_the_bits_of_its_single_calls():
    # items of 1..12 inputs padded to 12 with zero prior rows; 8 or more nonzero
    # terms make numpy sum pairwise, so each item must be summed alone
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 13, size=200)
    priors = np.zeros((200, 12))
    channels = rng.random((200, 12, 3))
    channels /= channels.sum(axis=2, keepdims=True)
    channels[rng.random(channels.shape) < 0.2] = 0.0
    for prior, size in zip(priors, sizes):
        prior[:size] = rng.dirichlet(np.ones(size))
    stacked = mutual_information_bits(priors, channels)
    assert stacked.shape == (200,)
    for value, prior, channel, size in zip(stacked, priors, channels, sizes):
        single = mutual_information_bits(prior[:size], channel[:size])
        assert isinstance(single, float)
        assert value.tobytes() == np.float64(single).tobytes()
    assert mutual_information_bits(priors.reshape(20, 10, 12), channels.reshape(20, 10, 12, 3)).shape == (20, 10)


def _error_fields(exc):
    return ("error", str(exc), exc.capacity_bits, exc.prior.tobytes(), exc.iterations)


def _fields_of(call):
    """What a bracket call reports, as bytes where it is an array: the fields
    of each result it returns, or of the ConvergenceError it raises."""
    try:
        results = call()
    except ConvergenceError as exc:
        return _error_fields(exc)
    return [(r.capacity_bits, r.prior.tobytes(), r.iterations, r.index) for r in results]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=6)),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=2, max_value=3),
    st.sampled_from(["dirichlet", "repeated rows", "unpolished"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grouped_brackets_have_the_bits_of_their_single_calls(groups, outcomes, kind, seed):
    # groups of 1-4 channels with 2-6 inputs, padded to the widest.  Rows drawn
    # from a pool of three give tied divergences, which a sort over padded rows
    # would order differently; without the polish, the iterate is renormalised
    # at every step and some groups stay open until their ConvergenceError.
    rng = np.random.default_rng(seed)
    if kind == "repeated rows":
        pool = rng.dirichlet(np.ones(outcomes), size=3)
        stacks = [pool[rng.integers(0, 3, size=(count, inputs))] for count, inputs in groups]
    else:
        stacks = [rng.dirichlet(np.ones(outcomes), size=(count, inputs)) for count, inputs in groups]
    tol, max_iter = 1e-8, 2000 if kind != "unpolished" else 200
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(capacity, "BA_MAX_ITER", max_iter))
        patches.enter_context(mock.patch.object(capacity, "BA_TOL", tol))
        if kind == "unpolished":
            patches.enter_context(mock.patch.object(capacity, "_leader_priors", _no_prior))
            patches.enter_context(mock.patch.object(capacity, "_fallback_priors", _no_prior))
        singles = [_fields_of(lambda: capacity._bracket([stack])) for stack in stacks]
        for stack, single in zip(stacks, singles):
            assert single == _fields_of(lambda: [blahut_arimoto(stack)])
        # a grouped call raises the error of the first group whose single call raises
        errors = [single for single in singles if single[0] == "error"]
        expected = errors[0] if errors else [single[0] for single in singles]
        assert _fields_of(lambda: capacity._bracket(stacks)) == expected


def test_a_sweep_has_the_bits_of_its_one_item_calls():
    sweep = capacity.theory_capacities(Theory(n) for n in range(3, 65))
    assert [r.n for r in sweep] == list(range(3, 65))
    for r in sweep:
        one = theory_capacity(Theory(r.n))
        for field in ("n", "parity", "capacity_bits", "support", "iterations"):
            assert getattr(r, field) == getattr(one, field), (r.n, field)
        assert r.prior.tobytes() == one.prior.tobytes(), r.n
        assert r.measurement.indices == one.measurement.indices, r.n
        assert r.measurement.weights == one.measurement.weights, r.n
        assert r.measurement.effects.tobytes() == one.measurement.effects.tobytes(), r.n


def test_sizes_are_chunked_by_the_row_budget(monkeypatch):
    chunks = []
    bracket_chunk = capacity._chunk_capacities

    def recording(chunk):
        chunks.append([t.n for t, _ in chunk])
        return bracket_chunk(chunk)

    monkeypatch.setattr(capacity, "_chunk_capacities", recording)
    results = capacity.theory_capacities(Theory(n) for n in range(3, 65))
    assert [r.n for r in results] == [n for chunk in chunks for n in chunk] == list(range(3, 65))

    def rows(sizes):
        return sum(len(capacity_candidates(Theory(n))) for n in sizes) * max(sizes)

    for chunk in chunks:
        assert rows(chunk) <= capacity.CHUNK_ROWS or len(chunk) == 1, chunk
    # maximal: the next size would take each chunk over the budget
    for chunk, after in zip(chunks, chunks[1:]):
        assert rows(chunk + after[:1]) > capacity.CHUNK_ROWS, chunk
    assert len(chunks) == 27 and chunks[-1] == [64]


def test_a_sweep_raises_the_first_open_size_with_its_own_prior(unpolished, monkeypatch):
    monkeypatch.setattr(capacity, "BA_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as single:
        theory_capacity(Theory(5))
    with pytest.raises(ConvergenceError) as sweep:
        capacity.theory_capacities([Theory(5), Theory(7), Theory(9)])
    assert _error_fields(sweep.value) == _error_fields(single.value)
    assert sweep.value.prior.shape == (5,)
