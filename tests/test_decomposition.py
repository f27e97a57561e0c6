"""Tests for binary-channel splits and alphabet reduction."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngon import decomposition
from ngon.capacity import blahut_arimoto, mutual_information_bits
from ngon.decomposition import (
    DecompositionError,
    InfeasibleChannelError,
    caratheodory_reduce,
    decompose_into_binary_channels,
)
from ngon.geometry import InvalidStateError, Theory, _feasible_triples, _realize_triples


def random_capped_weights(rng):
    while True:
        a = rng.uniform(0.0, 1.0, 2)
        w = np.array([a[0], a[1], 2.0 - a[0] - a[1]])
        if 0.0 <= w[2] <= 1.0:
            return w


def random_capped_column(rng, w):
    while True:
        c = rng.dirichlet([1.0, 1.0, 1.0])
        if (c <= w + 1e-15).all():
            return c


def capped_channel(rng, w, inputs):
    """Random columns in the capped simplex {c : 0 <= c <= w, sum c = 1}: mixtures
    of its vertices w_i e_i + (1 - w_i) e_j, one per ordered pair (i, j)."""
    verts = np.zeros((6, 3))
    for row, (i, j) in enumerate((i, j) for i in range(3) for j in range(3) if i != j):
        verts[row, i], verts[row, j] = w[i], 1.0 - w[i]
    return (rng.dirichlet(np.ones(6), size=inputs) @ verts).T


def polygon_channels(n):
    """The channel of every sorted feasible triple of an even n-gon, shape
    (k, 3, n), with its weights (k, 3); half-gap triples carry a zero weight."""
    mu, effects = _realize_triples(n, _feasible_triples(n))
    return Theory(n).channel_matrix(effects).transpose(0, 2, 1), mu


def assert_stack_matches_single_calls(P, weights):
    stack = decompose_into_binary_channels(P, weights)
    for k in range(len(P)):
        one = decompose_into_binary_channels(P[k], weights[k])
        for field in ("q", "components"):
            mine, theirs = getattr(stack, field)[k], getattr(one, field)
            # bytes, so that even a signed zero would show
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), (k, field)


def test_known_single_column_split():
    res = decompose_into_binary_channels(np.array([[1.0], [0.0], [0.0]]), [1.0, 0.5, 0.5])
    assert np.abs(res.q - [0.5, 0.5, 0.0]).max() < 1e-12
    # free parameters u = v = 1 and w = 0: components [1, 0, 0], [1, 0, 0] and [0, 0, 1]
    assert np.abs(res.components[..., 0] - [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).max() < 1e-12
    assert np.abs(res.reconstruct() - [[1.0], [0.0], [0.0]]).max() < 1e-12


def test_component_shape_and_mixture():
    rng = np.random.default_rng(17)
    for _ in range(100):
        w = random_capped_weights(rng)
        P = np.array([random_capped_column(rng, w) for _ in range(4)]).T
        res = decompose_into_binary_channels(P, w)
        assert np.abs(res.reconstruct() - P).max() < 1e-9
        assert abs(res.q.sum() - 1.0) < 1e-9
        assert (res.q >= -1e-12).all()
        # each component keeps one outcome row identically zero
        assert np.abs(res.components[0][2]).max() == 0.0
        assert np.abs(res.components[1][1]).max() == 0.0
        assert np.abs(res.components[2][0]).max() == 0.0
        assert np.abs(res.components.sum(axis=1) - 1.0).max() < 1e-9


def test_component_capacity_at_most_one_bit():
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = random_capped_weights(rng)
        P = np.array([random_capped_column(rng, w) for _ in range(3)]).T
        res = decompose_into_binary_channels(P, w)
        for k in range(3):
            cap = blahut_arimoto(res.components[k].T).capacity_bits
            assert cap <= 1.0 + 1e-9


def test_even_polygon_induced_channels_decompose():
    rng = np.random.default_rng(41)
    done = 0
    while done < 100:
        n = int(rng.choice(range(4, 21, 2)))
        t = Theory(n)
        idx = np.sort(rng.choice(n, size=3, replace=False))
        try:
            m = t.measurement(tuple(int(v) for v in idx))
        except Exception:
            continue
        P = np.clip(t.states() @ m.effects.T, 0.0, 1.0).T
        res = decompose_into_binary_channels(P, m.weights)
        assert np.abs(res.reconstruct() - P).max() < 1e-9
        done += 1


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_polygon_channel_stack_matches_single_calls(n):
    P, weights = polygon_channels(n)
    assert (weights == 0.0).any()  # the half-gap triples
    assert_stack_matches_single_calls(P, weights)


def test_random_channel_stack_matches_single_calls():
    rng = np.random.default_rng(53)
    weights = np.array([random_capped_weights(rng) for _ in range(40)])
    weights[:3] = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.5, 0.5, 1.0]]
    P = np.stack([capped_channel(rng, w, 7) for w in weights])
    assert_stack_matches_single_calls(P, weights)


@pytest.mark.parametrize(
    "matrix, w, error",
    [
        (polygon_channels(8)[0][1], [0.6, 0.6, 0.6], InfeasibleChannelError),
        (np.array([[0.9], [0.1], [0.0]]).repeat(8, axis=1), [0.5, 0.75, 0.75], InfeasibleChannelError),
        # an entry and a cap each within PROB_TOL, together an empty interval for u
        (np.array([[1.0], [9e-10], [-9e-10]]).repeat(8, axis=1), [1.0, 0.5, 0.5 + 4e-10], DecompositionError),
    ],
)
def test_a_bad_channel_in_a_stack_raises_as_its_single_call(matrix, w, error):
    with pytest.raises(error):
        decompose_into_binary_channels(matrix, w)
    P, weights = polygon_channels(8)
    P, weights = P[:4].copy(), weights[:4].copy()
    P[2], weights[2] = matrix, w
    with pytest.raises(error, match="channel 2"):
        decompose_into_binary_channels(P, weights)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
# q3 = 1e-9: a tolerance on w itself rather than on q3 * w rejects this valid channel
@example(0.75, 1e-9, 1, 0)
def test_random_capped_channels_rebuild_from_binary_components(a, b, inputs, seed):
    # caps in [0, 1] summing to 2 are one minus a point of the probability simplex
    lo, hi = sorted((a, b))
    w = 1.0 - np.array([lo, hi - lo, 1.0 - hi])
    P = capped_channel(np.random.default_rng(seed), w, inputs)
    res = decompose_into_binary_channels(P, w)
    assert np.abs(res.reconstruct() - P).max() <= 1e-9
    assert (res.q >= 0.0).all() and abs(res.q.sum() - 1.0) <= 1e-9
    # component k keeps row 2 - k at zero, so it carries at most one bit
    for k in range(3):
        assert not res.components[k, 2 - k].any()
    assert blahut_arimoto(res.components.transpose(0, 2, 1)).capacity_bits <= 1.0 + 1e-9


def test_decomposition_rejects_bad_inputs():
    col = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(InfeasibleChannelError):
        decompose_into_binary_channels(col, [0.6, 0.6, 0.6])
    with pytest.raises(InfeasibleChannelError):
        decompose_into_binary_channels(col, [0.5, 0.75, 0.75])
    with pytest.raises(InfeasibleChannelError):
        decompose_into_binary_channels(np.array([[0.9], [0.2], [0.0]]), [1.0, 0.5, 0.5])


def test_decomposition_rejects_nan_inputs():
    # a NaN fails every precondition; it is never passed through to q or left
    # to the reconstruction check
    col = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(InfeasibleChannelError, match="weights must sum to 2"):
        decompose_into_binary_channels(col, [math.nan, 0.5, 0.5])
    with pytest.raises(InfeasibleChannelError, match="probability vectors, channel 1, column 0"):
        decompose_into_binary_channels([col[:, :], [[math.nan], [0.0], [1.0]]], [[1.0, 0.5, 0.5]] * 2)


@pytest.mark.parametrize("err", [5e-10, -5e-10])
def test_column_sums_within_prob_tol_are_accepted(err):
    w = np.array([0.9, 0.6, 0.5])
    P = np.array([[0.5, 0.2, 0.3], [0.3, 0.6, 0.2], [0.2, 0.2, 0.5]])
    P[0, 1] += err
    res = decompose_into_binary_channels(P, w)
    assert np.abs(res.reconstruct() - P).max() < 1e-9
    P[0, 1] += 3 * err
    with pytest.raises(InfeasibleChannelError, match="probability vectors"):
        decompose_into_binary_channels(P, w)


def test_reduce_passthrough_on_three_letters():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    w = np.array([0.5, 0.25, 0.25])
    trace = caratheodory_reduce(t, t.states()[[0, 1, 3]], w, m)
    assert len(trace.stages) == 1
    assert trace.stages[0][1] == (0, 1, 3)
    assert np.abs(np.asarray(trace.stages[0][2]) - w).max() < 1e-12


def test_reduce_point_mass():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    trace = caratheodory_reduce(t, [t.states()[2]], [1.0], m)
    assert len(trace.stages) == 1 and trace.stages[0][1] == (2,)


def test_reduce_preserves_barycenter_per_stage():
    rng = np.random.default_rng(11)
    for n, tri in [(5, (0, 1, 3)), (8, (0, 3, 6)), (12, (0, 4, 8))]:
        t = Theory(n)
        m = t.measurement(tri)
        w = rng.dirichlet(np.ones(n))
        trace = caratheodory_reduce(t, t.states(), w, m)
        mean = w @ t.states()
        total = 0.0
        for qk, J, beta in trace.stages:
            assert len(J) <= 3
            bary = np.asarray(beta) @ t.states()[list(J)]
            assert np.abs(bary - mean).max() < 1e-9
            total += qk
        assert abs(total - 1.0) < 1e-12


def test_reduce_handles_mixed_inputs():
    t = Theory(7)
    m = t.measurement((0, 2, 4))
    S = t.states()
    states = np.vstack([S[:3], [0.5 * S[0] + 0.5 * S[4]]])
    w = np.array([0.3, 0.3, 0.2, 0.2])
    trace = caratheodory_reduce(t, states, w, m)
    mean = w @ states
    for qk, J, beta in trace.stages:
        bary = np.asarray(beta) @ t.states()[list(J)]
        assert np.abs(bary - mean).max() < 1e-9


def test_reduce_never_loses_information():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        n = 5
        t = Theory(n)
        tri = None
        while tri is None:
            c = tuple(sorted(int(v) for v in rng.choice(n, 3, replace=False)))
            try:
                tri = t.measurement(c)
            except Exception:
                tri = None
        # six weighted extremal letters: vertex indices with repetition allowed
        letters = rng.integers(0, n, size=6)
        w = rng.dirichlet(np.ones(6))
        states = t.states()[letters]
        merged = mutual_information_bits(
            w, np.clip(states @ tri.effects.T, 0.0, 1.0)
        )
        trace = caratheodory_reduce(t, states, w, tri)
        best = trace.information[trace.selected]
        worst = max(worst, merged - best)
        assert best >= merged - 1e-9
        assert len(trace.stages[trace.selected][1]) <= 3
    assert worst < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
def test_reduction_never_loses_information(n, size, mixed, seed):
    rng = np.random.default_rng(seed)
    t = Theory(n)
    feasible = _feasible_triples(n)
    m = t.measurement(feasible[rng.integers(len(feasible))])
    # extremal letters with repetition, or mixed states drawn inside the polygon
    if mixed:
        states = rng.dirichlet(np.ones(n), size=size) @ t.states()
    else:
        states = t.states()[rng.integers(0, n, size=size)]
    w = rng.dirichlet(np.ones(size))
    merged = mutual_information_bits(w, t.channel_matrix(m, states))
    trace = caratheodory_reduce(t, states, w, m)
    assert all(len(J) <= 3 for _, J, _ in trace.stages)
    assert trace.information[trace.selected] >= merged - 1e-9


def test_chain_rule_accounting():
    rng = np.random.default_rng(37)
    t = Theory(9)
    m = t.measurement((0, 3, 6))
    w = rng.dirichlet(np.ones(9))
    trace = caratheodory_reduce(t, t.states(), w, m)
    # stage label carries no information: every stage shares one barycenter
    assert abs(trace.stage) < 1e-10
    assert abs(trace.joint - trace.stage - trace.conditional) < 1e-10
    assert trace.information[trace.selected] >= max(trace.information) - 1e-12


def test_reduce_input_validation():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    with pytest.raises(ValueError):
        caratheodory_reduce(t, t.states()[:2], [0.5, 0.6], m)
    with pytest.raises(ValueError):
        caratheodory_reduce(t, t.states()[:2], [1.0, 0.0], m)
    with pytest.raises(ValueError, match="sum to 1"):
        caratheodory_reduce(t, t.states()[:2], [0.5, 0.5 + 2e-9], m)
    # a sum within PROB_TOL of 1 is accepted
    trace = caratheodory_reduce(t, t.states()[:2], [0.5, 0.5 + 5e-10], m)
    assert trace.stages[0][1] == (0, 1)


def test_reduce_rejects_nan_weights():
    t = Theory(5)
    m = t.measurement((0, 1, 3))
    with pytest.raises(ValueError, match="weights must be strictly positive$"):
        caratheodory_reduce(t, t.states()[:3], [0.5, math.nan, 0.5], m)
    with pytest.raises(ValueError, match="weights must be strictly positive, ensemble 1$"):
        caratheodory_reduce(t, [t.states()[:2]] * 2, [[0.5, 0.5], [math.nan, 1.0]], m)


def test_reduce_rejects_effects_that_are_not_a_measurement():
    # NaN effects used to give information (0.0,), effects of 0.9 about 0.067 bits
    t = Theory(5)
    message = "effects must give a probability vector on every state"
    for bad in (math.nan, 0.9):
        with pytest.raises(ValueError, match=f"^{message}$"):
            caratheodory_reduce(t, t.states()[:3], [0.2, 0.3, 0.5], np.full((3, 3), bad))
    effects = [t.measurement((0, 1, 3)).effects, np.full((3, 3), 0.9)]
    with pytest.raises(ValueError, match=f"^{message}, ensemble 1$"):
        caratheodory_reduce(t, [t.states()[:3]] * 2, [[0.2, 0.3, 0.5]] * 2, effects)


def test_reduce_checks_the_raw_overlaps_of_its_effects():
    # overlaps from -2.70 to 3.70 that sum to 1 once passed the check on the clipped channel: 1.0 bit
    t = Theory(5)
    message = "effects must give a probability vector on every state"
    outside = np.array([[-3.0, 0.0, 1.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        caratheodory_reduce(t, t.states()[:3], [0.2, 0.3, 0.5], outside)
    effects = [t.measurement((0, 1, 3)).effects, outside]
    with pytest.raises(ValueError, match=f"^{message}, ensemble 1$"):
        caratheodory_reduce(t, [t.states()[:3]] * 2, [[0.2, 0.3, 0.5]] * 2, effects)


def test_reduce_refuses_an_effect_stack_of_the_wrong_shape():
    # three effect sets for two ensembles once failed inside numpy's broadcast
    t = Theory(5)
    effects = [t.measurement((0, 1, 3)).effects] * 3
    message = r"^effects must have shape \(outcomes, 3\), or a stack \(2, outcomes, 3\), got \(3, 3, 3\)$"
    with pytest.raises(ValueError, match=message):
        caratheodory_reduce(t, [t.states()[:3]] * 2, [[0.2, 0.3, 0.5]] * 2, effects)
    with pytest.raises(ValueError, match=r"^effects must have shape \(outcomes, 3\), got \(3, 3, 3\)$"):
        caratheodory_reduce(t, t.states()[:3], [0.2, 0.3, 0.5], effects)


def trace_bits(trace):
    """Every float of a trace, its chain-rule terms included, as bytes, for bitwise comparison."""
    stages = [
        (np.float64(qk).tobytes(), J, np.asarray(beta, float).tobytes()) for qk, J, beta in trace.stages
    ]
    terms = (trace.information, trace.joint, trace.stage, trace.conditional)
    return stages, trace.selected, [np.asarray(value, float).tobytes() for value in terms]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 12),
    st.integers(1, 6),
    st.integers(1, 10),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_a_stacked_reduction_has_the_bits_of_its_single_calls(n, k, size, mixed, seed):
    rng = np.random.default_rng(seed)
    t = Theory(n)
    feasible = _feasible_triples(n)
    # per ensemble: mixed states drawn inside the polygon, or extremal letters with repetition
    states = np.stack([
        rng.dirichlet(np.ones(n), size=size) @ t.states() if mixed[e]
        else t.states()[rng.integers(0, n, size=size)]
        for e in range(k)
    ])
    w = rng.dirichlet(np.ones(size), size=k)
    _, effects = _realize_triples(n, feasible[rng.integers(len(feasible), size=k)])
    traces = caratheodory_reduce(t, states, w, effects)
    assert len(traces) == k
    for e in range(k):
        assert trace_bits(traces[e]) == trace_bits(caratheodory_reduce(t, states[e], w[e], effects[e]))


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda w: w.__setitem__((0, 0), 0.0), "strictly positive"),
        (lambda w: w.__setitem__((0, 0), -w[0, 0]), "strictly positive"),
        (lambda w: w.__setitem__((0, 1), w[0, 1] + 1e-6), "sum to 1"),
    ],
)
@pytest.mark.parametrize("bad", [0, 3])
def test_a_bad_ensemble_in_a_stack_is_named(fault, message, bad):
    rng = np.random.default_rng(bad)
    t = Theory(7)
    states = t.states()[rng.integers(0, 7, size=(5, 4))]
    w = rng.dirichlet(np.ones(4), size=5)
    fault(w[bad:])
    with pytest.raises(ValueError, match=f"{message}, ensemble {bad}$"):
        caratheodory_reduce(t, states, w, t.measurement((0, 2, 4)))
    # the single call raises the same error without naming an ensemble
    with pytest.raises(ValueError, match=f"{message}$"):
        caratheodory_reduce(t, states[bad], w[bad], t.measurement((0, 2, 4)))


def test_a_letter_that_is_not_a_state_is_named_with_its_ensemble():
    t = Theory(5)
    states = t.states()[np.random.default_rng(2).integers(0, 5, size=(3, 2))]
    states[2, 1, 0] = 5.0
    w = np.full((3, 2), 0.5)
    m = t.measurement((0, 1, 3))
    with pytest.raises(InvalidStateError, match="not a normalised state of the model, ensemble 2, letter 1$"):
        caratheodory_reduce(t, states, w, m)
    with pytest.raises(InvalidStateError, match="not a normalised state of the model, letter 1$"):
        caratheodory_reduce(t, states[2], w[2], m)


@pytest.mark.parametrize("n", range(3, 65))
def test_every_vertex_triple_basis_is_nonsingular(n):
    # three distinct vertices on a circle in the plane z = 1 are never collinear:
    # |det| = 4 R^2 |sin(pi (b-a)/n) sin(pi (c-b)/n) sin(pi (c-a)/n)|, smallest for adjacent vertices
    t = Theory(n)
    idx = np.array(list(itertools.combinations(range(n), 3)))
    det = np.abs(np.linalg.det(t.states()[idx].transpose(0, 2, 1)))
    a, b, c = idx.T
    closed = 4.0 * t.r**2 * np.abs(
        np.sin(np.pi * (b - a) / n) * np.sin(np.pi * (c - b) / n) * np.sin(np.pi * (c - a) / n)
    )
    assert np.abs(det - closed).max() <= 1e-12
    floor = 4.0 * t.r**2 * math.sin(math.pi / n) ** 2 * math.sin(2.0 * math.pi / n)
    assert det.min() >= 0.99 * floor >= 9e-4


def test_the_barycentric_search_stops_at_the_first_hit(monkeypatch):
    # every stage solves a lexicographic chunk of triples, not all C(n, 3)
    solved = []
    solve = np.linalg.solve

    def counted(a, b):
        if sys._getframe(1).f_globals["__name__"] == "ngon.decomposition":
            solved.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    t = Theory(64)
    w = np.random.default_rng(3).dirichlet(np.ones(64))
    trace = caratheodory_reduce(t, t.states(), w, t.measurement((0, 21, 43)))
    peeled = len(trace.stages) - 1
    assert peeled > 50
    # all triples would be C(64, 3) = 41664 solves per stage
    assert len(solved) >= peeled and sum(solved) <= 4 * decomposition._FIRST_ROUND * peeled
