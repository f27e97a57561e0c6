"""Tests for capped-channel polytope vertex enumeration and classification."""

import functools
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ngon import polytope
from ngon.capacity import capacity_candidates
from ngon.geometry import ROUNDOFF, Theory, _feasible_triples, _realize_triples
from ngon.polytope import (
    CANONICAL_FOUR,
    UNCLASSIFIED,
    ZERO_WEIGHT,
    ResourceBoundError,
    VertexPoint,
    _forms,
    classify_vertex,
    enumerate_vertices,
    vertex_summary,
)


@functools.lru_cache(maxsize=None)
def verts(alphabet_size, c):
    return enumerate_vertices(alphabet_size, c)


def flatten(v):
    return np.concatenate([v.P.reshape(-1), v.lam])


def census(vertices):
    """Coordinates per vertex, in returned order."""
    return [tuple(flatten(v)) for v in vertices]


def constraint_system(alphabet_size):
    """The polytope written out for the oracles: equality matrix (right-hand
    side 1 per column sum, c for the weights) and inequality matrix (rows
    >= 0: P >= 0, then lam[y] - P[y, x] >= 0, each by outcome then input,
    then lam >= 0), with variables P[y, x] at y * X + x and lam[y] at 3X + y."""
    X = alphabet_size
    dim = 3 * X + 3
    eq = np.zeros((X + 1, dim))
    for x in range(X):
        eq[x, [y * X + x for y in range(3)]] = 1.0
    eq[X, 3 * X :] = 1.0
    ineq = np.zeros((6 * X + 3, dim))
    ineq[: 3 * X, : 3 * X] = np.eye(3 * X)
    ineq[3 * X : 6 * X, : 3 * X] = -np.eye(3 * X)
    ineq[3 * X : 6 * X, 3 * X :] = np.repeat(np.eye(3), X, axis=0)
    ineq[6 * X :, 3 * X :] = np.eye(3)
    return eq, ineq


@functools.lru_cache(maxsize=None)
def brute_force_forms(alphabet_size):
    """Oracle: solve every choice of 2|X| + 2 tight inequalities, once.

    Tries C(6|X| + 3, 2|X| + 2) square systems (203,490 at |X| = 3).  Every
    nonsingular one has |det| = 1, so its solution is an integer form u + c*v
    for every c.  Returns the forms (bases, 3|X| + 3, 2) holding (u, v).
    """
    assert alphabet_size <= 3, "the brute force is only an oracle for small alphabets"
    X = alphabet_size
    dim = 3 * X + 3
    eq, ineq = constraint_system(X)
    need = dim - (X + 1)
    combos = np.array(list(itertools.combinations(range(len(ineq)), need)))
    rhs = np.zeros((dim, 2))
    rhs[:X, 0] = 1.0
    rhs[X, 1] = 1.0
    forms = []
    for start in range(0, len(combos), 32768):
        batch = combos[start : start + 32768]
        systems = np.empty((len(batch), dim, dim))
        systems[:, : X + 1] = eq
        systems[:, X + 1 :] = ineq[batch]
        det = np.abs(np.linalg.det(systems))
        good = det > 0.5
        assert np.abs(det[good] - 1.0).max() < 1e-9
        sols = np.linalg.solve(systems[good], rhs)
        assert np.abs(sols - np.rint(sols)).max() < 1e-9
        forms.append(np.rint(sols).astype(np.int64))
    return np.concatenate(forms)


@functools.lru_cache(maxsize=None)
def brute_force_census(alphabet_size, c):
    """The coordinates of the basis solutions feasible at c, each once, sorted:
    decided exactly on den * (u + c*v) for c = num/den."""
    forms = brute_force_forms(alphabet_size)
    _, ineq = constraint_system(alphabet_size)
    num, den = float(c).as_integer_ratio()
    values, first = np.unique(forms[..., 0] * den + forms[..., 1] * num, axis=0, return_index=True)
    slack = values @ ineq.astype(np.int64).T
    order = [i for i in np.lexsort(values.T[::-1]) if (slack[i] >= 0).all()]
    coords = forms[first, :, 0] + forms[first, :, 1] * c
    return [tuple(coords[i]) for i in order]


def exact_solve(rows, rhs):
    """Gauss-Jordan in rationals: (rank, solution or None if inconsistent)."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    cols = len(rows[0])
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if any(row[-1] != 0 for row in m[r:]):
        return r, None
    z = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        z[col] = m[i][-1]
    return r, z


def test_c2_three_inputs_all_zero_weight():
    vs = verts(3, 2.0)
    assert len(vs) == 27
    for v in vs:
        assert classify_vertex(v) == ZERO_WEIGHT
        assert v.lam.min() <= 1e-10
        assert np.abs(v.P.sum(axis=0) - 1.0).max() < 1e-9
        assert abs(v.lam.sum() - 2.0) < 1e-9
        assert (v.P <= v.lam[:, None] + 1e-9).all()


def test_interior_c_vertex_classes():
    for c in (2.25, 2.5, 2.75):
        vs = verts(3, c)
        tags = Counter(classify_vertex(v) for v in vs)
        assert tags[UNCLASSIFIED] == 0
        assert len(vs) == 99
        assert tags[ZERO_WEIGHT] == 45
        assert tags[CANONICAL_FOUR] == 54


def test_canonical_weights_present_at_c25():
    vs = verts(3, 2.5)
    found = any(sorted(np.round(v.lam, 9)) == [0.5, 1.0, 1.0] for v in vs)
    assert found


def test_max_vertex_capacity_endpoints():
    assert abs(vertex_summary(3, 2.0)["max_capacity_bits"] - 1.0) < 1e-9
    assert abs(vertex_summary(3, 3.0)["max_capacity_bits"] - math.log2(3.0)) < 1e-9


def test_max_vertex_capacity_approaches_one():
    near = vertex_summary(3, 2.01)["max_capacity_bits"]
    assert 1.0 < near < 1.01


def test_two_input_projection_consistency():
    vs2 = verts(2, 2.0)
    assert len(vs2) == 15
    keys3 = {tuple(np.round(flatten(v), 8)) for v in verts(3, 2.0)}
    for v in vs2:
        lifted = np.column_stack([v.P, v.P[:, -1]])
        key = tuple(np.round(np.concatenate([lifted.reshape(-1), v.lam]), 8))
        assert key in keys3


def test_interior_points_are_convex_combinations():
    rng = np.random.default_rng(3)
    for X, c in [(2, 2.0), (3, 2.5)]:
        vs = verts(X, c)
        V = np.array([flatten(v) for v in vs])
        for _ in range(10):
            while True:
                lam = c * rng.dirichlet(np.ones(3))
                if lam.min() >= 0.35:
                    break
            cols = []
            for _ in range(X):
                while True:
                    p = rng.dirichlet(np.ones(3))
                    if (p <= lam - 1e-6).all():
                        cols.append(p)
                        break
            z = np.concatenate([np.array(cols).T.reshape(-1), lam])
            res = linprog(
                np.zeros(len(V)),
                A_eq=np.vstack([V.T, np.ones(len(V))]),
                b_eq=np.concatenate([z, [1.0]]),
                bounds=[(0, None)] * len(V),
                method="highs",
            )
            assert res.status == 0
            assert np.abs(V.T @ res.x - z).max() < 1e-7


@pytest.mark.parametrize("c", [2.0, 2.25, 2.5, 2.75, 3.0])
@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_matches_brute_force_oracle(alphabet_size, c):
    assert census(verts(alphabet_size, c)) == brute_force_census(alphabet_size, c)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=2.0, max_value=3.0))
@example(math.nextafter(2.0, 3.0))
@example(math.nextafter(3.0, 2.0))
def test_matches_brute_force_oracle_for_any_c(c):
    assert census(enumerate_vertices(2, c)) == brute_force_census(2, c)


# (vertices, ZERO_WEIGHT, CANONICAL_FOUR) for c strictly between 2 and 3
INTERIOR_CENSUS = {2: (27, 21, 6), 3: (99, 45, 54), 4: (423, 93, 330), 5: (1899, 189, 1710)}
# the same at c = 2 and at c = 3 (the README's vertex census table)
END_CENSUS = {
    (2, 2.0): (15, 15, 0), (2, 3.0): (27, 21, 6),
    (3, 2.0): (27, 27, 0), (3, 3.0): (69, 45, 24),
    (4, 2.0): (51, 51, 0), (4, 3.0): (171, 93, 78),
    (5, 2.0): (99, 99, 0), (5, 3.0): (429, 189, 240),
}


def class_counts(vertices):
    tags = Counter(classify_vertex(v) for v in vertices)
    assert tags[UNCLASSIFIED] == 0
    return sum(tags.values()), tags[ZERO_WEIGHT], tags[CANONICAL_FOUR]


@pytest.mark.parametrize("c", [2.0 + 1e-11, 2.0 + 1e-9, 2.5, 3.0 - 1e-9])
@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5])
def test_census_next_to_c_2_and_3_equals_the_interior_census(alphabet_size, c):
    assert class_counts(verts(alphabet_size, c)) == INTERIOR_CENSUS[alphabet_size]


@pytest.mark.parametrize("alphabet_size, c", list(END_CENSUS))
def test_census_at_c_2_and_3(alphabet_size, c):
    assert class_counts(verts(alphabet_size, c)) == END_CENSUS[alphabet_size, c]


RATIONAL_CS = [Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(2.3456), Fraction(3)]
CERTIFIED = [(X, k) for X in (2, 3) for k in range(len(RATIONAL_CS))] + [(4, 2)]


@pytest.mark.parametrize("alphabet_size, k", CERTIFIED, ids=[f"{X}-c{k}" for X, k in CERTIFIED])
def test_vertices_certified_in_rationals(alphabet_size, k):
    # every coordinate is 0, 1, c, c - 1, c - 2, 2 - c or 3 - c, exact in
    # floats for c in [2, 3], so its Fraction is the rational vertex and the
    # tight rows are those of slack exactly 0
    X, c = alphabet_size, RATIONAL_CS[k]
    eq, ineq = constraint_system(X)
    eq_rhs = [Fraction(1)] * X + [c]
    as_fractions = lambda A: [[Fraction(int(a)) for a in row] for row in A]
    eq_q, ineq_q = as_fractions(eq), as_fractions(ineq)
    for v in verts(X, float(c)):
        point = [Fraction(f) for f in flatten(v).tolist()]
        slack = [sum(a * zi for a, zi in zip(row, point)) for row in ineq_q]
        assert min(slack) >= 0
        tight = [row for row, s in zip(ineq_q, slack) if s == 0]
        rank, z = exact_solve(eq_q + tight, eq_rhs + [Fraction(0)] * len(tight))
        # the tight rows and the equalities pin the point, which meets them
        assert rank == 3 * X + 3 and z == point


def test_alphabet_four_census_is_fast():
    t0 = time.perf_counter()
    vs = enumerate_vertices(4, 2.5)
    elapsed = time.perf_counter() - t0
    assert len(vs) == 423
    assert all(classify_vertex(v) != UNCLASSIFIED for v in vs)
    assert elapsed < 1.0


@pytest.mark.parametrize("n", range(3, 33))
def test_polygon_channels_lie_in_the_capped_polytope(n):
    # the premise that links the geometry to the vertex bound: every canonical
    # channel is a point of the polytope at c_n, its outcome weights being the
    # caps, c_n = 2 for even n (every even effect has z = 1/2) and 1 + sec(pi/n)
    # for odd n; restricted to any inputs it stays a point of that polytope
    t = Theory(n)
    c = 2.0 if t.even else 1.0 + 1.0 / math.cos(math.pi / n)
    assert 2.0 <= c <= 3.0
    channels = [(t.channel_matrix(m), np.array(m.weights)) for m in map(t.measurement, capacity_candidates(t))]
    weights, effects = _realize_triples(n, _feasible_triples(n))
    channels += zip(t.channel_matrix(effects), weights)
    for P, lam in channels:
        assert (P <= lam + ROUNDOFF).all(), (n, lam)
        assert abs(lam.sum() - c) <= 1e-12, (n, lam)


def test_classify_negative_control():
    lam = np.array([0.4, 1.2, 0.9])
    P = np.array([[0.4, 0.1], [0.3, 0.5], [0.3, 0.4]])
    fake = VertexPoint(P=P, lam=lam, c=2.5)
    assert classify_vertex(fake) == UNCLASSIFIED


def test_resource_and_range_errors():
    with pytest.raises(ResourceBoundError):
        enumerate_vertices(6, 2.0)
    with pytest.raises(ValueError):
        enumerate_vertices(3, 1.5)
    with pytest.raises(ValueError):
        enumerate_vertices(1, 2.0)


def test_vertex_summary_fields():
    s = vertex_summary(2, 2.5)
    assert s["vertex_count"] == s["zero_weight_count"] + s["canonical_count"] + s["unclassified_count"]
    assert s["unclassified_count"] == 0
    assert 1.0 <= s["max_capacity_bits"] <= math.log2(3.0) + 1e-9


@pytest.mark.parametrize("c", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5])
def test_every_form_has_b_in_minus_one_zero_one(alphabet_size, c):
    # weights, entries and cap slacks are a + b*c with b in {-1, 0, 1}, so
    # no sign or zero changes strictly between c = 2 and c = 3
    lam_forms, cols, col_lam = _forms(*float(c).as_integer_ratio())
    for forms in (lam_forms, cols, lam_forms[col_lam] - cols):
        assert set(forms[..., 1].ravel().tolist()) <= {-1, 0, 1}
    assert enumerate_vertices(alphabet_size, c)


def test_a_form_with_b_beyond_one_is_refused(monkeypatch):
    # (0, 1, 2c - 3): a weight form with b = 2 fails the check before any vertex is built
    monkeypatch.setattr(polytope, "_weight_candidates", lambda num, den: [[(0, 0), (1, 0), (-3, 2)]])
    with pytest.raises(RuntimeError, match=r"\|b\| > 1"):
        enumerate_vertices(3, 2.5)


def numpy_rule(v):
    """The classification rule written on arrays, as an oracle for the scalar one."""
    lam = np.asarray(v.lam, float)
    if lam.min() <= 0.0:
        return ZERO_WEIGHT
    c = float(v.c)
    target = np.array([c - 2.0, 1.0, 1.0])
    columns = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [c - 2.0, 0.0, 3.0 - c], [c - 2.0, 3.0 - c, 0.0]])
    P = np.asarray(v.P, float)
    for perm in itertools.permutations(range(3)):
        if (lam[list(perm)] == target).all():
            Pp = P[list(perm), :]
            if all((columns == Pp[:, x]).all(axis=1).any() for x in range(Pp.shape[1])):
                return CANONICAL_FOUR
    return UNCLASSIFIED


@st.composite
def enumerated_vertex(draw):
    """Any vertex of the polytope at alphabet 2-4 and c in [2, 3]."""
    c = draw(st.one_of(st.sampled_from([2.0, 2.5, 3.0]), st.floats(min_value=2.0, max_value=3.0)))
    return draw(st.sampled_from(enumerate_vertices(draw(st.sampled_from([2, 3, 4])), c)))


vertex_of = enumerated_vertex()


def as_lists(v):
    return VertexPoint(P=v.P.tolist(), lam=v.lam.tolist(), c=v.c)


@settings(max_examples=60, deadline=None)
@given(vertex_of, st.permutations(range(3)))
def test_permuting_the_outcomes_keeps_the_class(v, perm):
    moved = VertexPoint(P=v.P[list(perm)], lam=v.lam[list(perm)], c=v.c)
    assert classify_vertex(moved) == classify_vertex(v) == numpy_rule(v)


@st.composite
def nudged_canonical(draw):
    """A CANONICAL_FOUR vertex with one coordinate moved by one ulp."""
    c = draw(st.floats(min_value=2.0, max_value=3.0, exclude_min=True))
    vertices = enumerate_vertices(draw(st.sampled_from([2, 3])), c)
    canonical = [v for v in vertices if classify_vertex(v) == CANONICAL_FOUR]
    v = draw(st.sampled_from(canonical))
    flat = flatten(v)
    i = draw(st.integers(0, len(flat) - 1))
    flat[i] = np.nextafter(flat[i], draw(st.sampled_from([-math.inf, math.inf])))
    X = v.P.shape[1]
    return VertexPoint(P=flat[: 3 * X].reshape(3, X), lam=flat[3 * X :], c=v.c)


@settings(max_examples=60, deadline=None)
@given(st.one_of(vertex_of, nudged_canonical()), st.randoms(use_true_random=False))
def test_permuting_the_columns_keeps_the_class(v, random):
    order = list(range(v.P.shape[1]))
    random.shuffle(order)
    moved = VertexPoint(P=v.P[:, order], lam=v.lam, c=v.c)
    assert classify_vertex(moved) == classify_vertex(v)


@settings(max_examples=60, deadline=None)
@given(nudged_canonical())
def test_one_ulp_off_a_canonical_vertex_is_unclassified(v):
    assert classify_vertex(v) == numpy_rule(v) == UNCLASSIFIED
    assert classify_vertex(as_lists(v)) == UNCLASSIFIED


finite = st.floats(min_value=-1.0, max_value=4.0)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        vertex_of,
        st.builds(
            lambda lam, P, c: VertexPoint(P=np.array(P), lam=np.array(lam), c=c),
            st.lists(finite, min_size=3, max_size=3),
            st.lists(st.lists(finite, min_size=2, max_size=2), min_size=3, max_size=3),
            st.floats(min_value=2.0, max_value=3.0),
        ),
    )
)
def test_lists_and_arrays_classify_alike(v):
    assert classify_vertex(as_lists(v)) == classify_vertex(v) == numpy_rule(v)
