"""Vertex enumeration for the polytope of weight-capped channels.

The feasible set couples a 3 x |X| conditional matrix P with outcome
weights lam:

    P(y|x) >= 0,  P(y|x) <= lam_y,  sum_y P(y|x) = 1,
    lam_y >= 0,   sum_y lam_y = c,  with c in [2, 3].

Vertices are built from the structure of the system instead of by trying
every basis of tight constraints:

1. For fixed lam the columns decouple, so each column of a vertex is a
   vertex of the polygon Q(lam) = {p in the simplex : p <= lam}: two of its
   entries sit at 0 or at their cap lam_y and the third closes the sum.
2. lam itself must be pinned by two independent tight constraints.  A tight
   bound lam_y >= 0 fixes lam_y = 0.  A column with three tight constraints
   fixes one weight: at 1 when a single capped entry carries the whole
   column, at c - 1 when two capped entries share it, at 0 when an entry is
   both 0 and capped.  A weight at c - 1 leaves 1 to the other two, so with
   a second pinned weight the vector is a permutation of (c - 1, 1, 0), or
   (1, 1, 0) at c = 2.  Either way two weights lie in {0, 1} and the third
   is c minus their sum: at most 12 candidate weight vectors.
3. For each candidate lam every tuple of column vertices is a candidate
   point, and it is a vertex iff its tight constraints fix lam: each column
   is a vertex of Q(lam), so fixing lam fixes P.  A tight lam_y >= 0 fixes
   lam_y.  A column whose three entries are all tight adds one condition:
   the variations of its weights at nonzero caps sum to 0.  On the candidate
   weights such a column has exactly one entry at a nonzero cap, which
   carries the whole column and fixes its weight at 1: the nonzero weights
   come from {1, c - 2, c - 1, c} with at most one outside {0, 1}, so no two
   nonzero caps sum to 1, and an entry both 0 and capped has a zero weight,
   which the first case already counts.  So a weight is fixed when it is 0
   or held at a nonzero cap by an all-tight column, and since the weights
   sum to c a candidate is a vertex iff at least two weights are fixed.

Every coordinate and every slack is an integer affine form a + b*c.  With
the float c written exactly as num/den, den * (a + b*c) = a*den + b*num is an
int64 (below 2**56 for c in [2, 3]), so every decision is exact: its sign
decides feasibility, its zeros are the tight constraints, and equal values
are equal points.  Weight vectors and column vertices are kept once per
value, which makes every candidate point distinct; there is no dedup step
and no tolerance.  Every form has b in {-1, 0, 1} (one weight carries c, a
capped entry copies its weight's form, the closing entry is 1 minus the
two others), and the enumeration raises if one does not: each root -a/b is
then an integer, so no sign or zero changes for c strictly between 2 and 3.
Coordinates are evaluated from their forms; for c in [2, 3] every value a
vertex can hold (0, 1, c, c - 1, c - 2, 2 - c, 3 - c) comes out exact.

The construction runs in one pass.  The at most 12 weight vectors and the
at most 6 vertices of each column polygon are built in plain Python integers;
the candidate points of all weight vectors, at most 12 * 6^|X| (3,267 at
|X| = 5 for c in (2, 3)), are then stacked, one count of fixed weights
decides them all, and one sort orders the vertices.
The brute force over bases would solve C(6|X| + 3, 2|X| + 2) square systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .capacity import blahut_arimoto
from .geometry import ResourceBoundError

ZERO_WEIGHT = "ZERO_WEIGHT"
CANONICAL_FOUR = "CANONICAL_FOUR"
UNCLASSIFIED = "UNCLASSIFIED"

MAX_ALPHABET = 5


@dataclass(frozen=True, eq=False)
class VertexPoint:
    """A vertex of the capped-channel polytope.

    ``P`` is the 3 x alphabet conditional matrix, ``lam`` the outcome
    weights and ``c`` their sum.
    """

    P: np.ndarray
    lam: np.ndarray
    c: float


def _validate_request(alphabet_size: int, c: float) -> None:
    if not isinstance(alphabet_size, (int, np.integer)) or alphabet_size < 2:
        raise ValueError("alphabet_size must be an integer >= 2")
    if alphabet_size > MAX_ALPHABET:
        raise ResourceBoundError(
            f"alphabet_size {alphabet_size} exceeds the enumeration bound {MAX_ALPHABET}"
        )
    if not 2.0 <= c <= 3.0:
        raise ValueError("c must lie in [2, 3]")


def _affine(coef: np.ndarray, c: float) -> np.ndarray:
    """Evaluate integer forms (..., 2) holding (a, b) as a + b*c."""
    return coef[..., 0] + coef[..., 1] * c


def _scaled(coef: np.ndarray, num: int, den: int) -> np.ndarray:
    """den * (a + b*c) for c = num/den, exact in int64: same sign, same zeros."""
    return coef[..., 0] * den + coef[..., 1] * num


def _weight_candidates(num: int, den: int) -> list[list[tuple]]:
    """Forms of every lam >= 0 with two weights in {0, 1}, one per value:
    three (a, b) pairs each."""
    found = {}
    for free in range(3):
        for wa, wb in itertools.product((0, 1), repeat=2):
            form = [(wa, 0), (wb, 0)]
            form.insert(free, (-wa - wb, 1))
            # c >= 2, so the free weight c - wa - wb is never negative
            found.setdefault(tuple(a * den + b * num for a, b in form), form)
    return list(found.values())


def _column_vertices(lam: list[tuple], num: int, den: int) -> list[list[tuple]]:
    """Forms of the vertices of Q(lam) = {p in the simplex : p <= lam}, one
    per value, three (a, b) pairs each.

    Two entries sit at 0 or at their cap; the third closes the sum to 1 and
    must lie in [0, lam].
    """
    found = {}
    for free in range(3):
        a, b = (y for y in range(3) if y != free)
        for capped_a, capped_b in itertools.product((False, True), repeat=2):
            p = [(0, 0)] * 3
            p[a] = lam[a] if capped_a else (0, 0)
            p[b] = lam[b] if capped_b else (0, 0)
            p[free] = (1 - p[a][0] - p[b][0], -p[a][1] - p[b][1])
            value = tuple(x * den + y * num for x, y in p)
            if 0 <= value[free] <= lam[free][0] * den + lam[free][1] * num:
                found.setdefault(value, p)
    return list(found.values())


def _forms(num: int, den: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight forms (L, 3, 2), column vertex forms (M, 3, 2) of every weight
    vector, and the weight vector of each column vertex (M,).

    Raises RuntimeError unless every weight, entry and cap slack lam - p has
    b in {-1, 0, 1}: then each form's root -a/b is an integer, so its sign
    and zeros are the same at every c strictly between 2 and 3.
    """
    lams = _weight_candidates(num, den)
    per_lam = [_column_vertices(lam, num, den) for lam in lams]
    lam_forms = np.array(lams, np.int64)
    cols = np.array([p for ps in per_lam for p in ps], np.int64)
    col_lam = np.repeat(np.arange(len(lams)), [len(ps) for ps in per_lam])
    if np.abs(np.concatenate([lam_forms, cols, lam_forms[col_lam] - cols])[..., 1]).max() > 1:
        raise RuntimeError("a weight, entry or slack form a + b*c has |b| > 1")
    return lam_forms, cols, col_lam


def enumerate_vertices(alphabet_size: int, c: float) -> list[VertexPoint]:
    """All vertices of the polytope, each once, sorted by their coordinates.

    Candidate points pair each of the at most 12 pinned weight vectors with
    every tuple of vertices of its column polygon (see the module
    docstring).  Every candidate is feasible by construction and distinct
    from every other, so no dedup step is needed.  A candidate is kept iff
    at least two of its weights are fixed: at 0, or at a nonzero cap of a
    column whose three entries are all tight.  The rule is decided in
    integers and holds for degenerate vertices (more than the minimum
    tight) as well.
    """
    _validate_request(alphabet_size, c)
    X = alphabet_size
    num, den = float(c).as_integer_ratio()
    lam_forms, cols, col_lam = _forms(num, den)
    lam = _scaled(lam_forms, num, den)
    p = _scaled(cols, num, den)
    # per column vertex (k, kind, y): P[y,x] >= 0 tight, then P[y,x] <= lam[y]
    col_tight = np.stack([p == 0, p == lam[col_lam]], axis=1)
    lam_zero = lam == 0
    # a column vertex whose three entries are all tight fixes the weight of
    # its entry at a nonzero cap
    fixes = col_tight[:, 1] & ~col_tight[:, 0] & col_tight.any(axis=1).all(axis=1, keepdims=True)
    # every tuple of X column vertices of one weight vector, in product order
    sizes = np.bincount(col_lam)
    starts = np.cumsum(sizes) - sizes
    picks = np.concatenate(
        [s + np.indices((k,) * X).reshape(X, -1).T for s, k in zip(starts.tolist(), sizes.tolist())]
    )
    lam_of = col_lam[picks[:, 0]]
    fixed = lam_zero[lam_of] | fixes[picks].any(axis=1)
    keep = fixed.sum(axis=1) >= 2
    picks, lam_of = picks[keep], lam_of[keep]
    forms = np.empty((len(picks), 3 * X + 3, 2), np.int64)
    forms[:, : 3 * X] = cols[picks].transpose(0, 2, 1, 3).reshape(-1, 3 * X, 2)
    forms[:, 3 * X :] = lam_forms[lam_of]

    order = np.lexsort(_scaled(forms, num, den).T[::-1])
    coords = _affine(forms[order], float(c))
    Ps = coords[:, : 3 * X].reshape(-1, 3, X)
    lams = coords[:, 3 * X :]
    return [VertexPoint(P=P, lam=w, c=float(c)) for P, w in zip(Ps, lams)]


_PERMUTATIONS = tuple(itertools.permutations(range(3)))


def classify_vertex(v: VertexPoint) -> str:
    """Tag a vertex by its weight pattern.

    ZERO_WEIGHT: some outcome weight vanishes.  CANONICAL_FOUR: weights are
    a permutation of (c-2, 1, 1) and, in that permuted frame, every column
    is one of the four distributions (0,0,1), (0,1,0), (c-2,0,3-c),
    (c-2,3-c,0).  Anything else is UNCLASSIFIED.  The comparisons are exact:
    for c in [2, 3], c - 2 and 3 - c carry no rounding error, and neither
    does any coordinate of an enumerated vertex.  ``lam`` and ``P`` may be
    arrays or nested lists; they are compared as Python floats.
    """
    lam = np.asarray(v.lam, float).tolist()
    if min(lam) <= 0.0:
        return ZERO_WEIGHT
    c = float(v.c)
    target = [c - 2.0, 1.0, 1.0]
    columns = {(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (c - 2.0, 0.0, 3.0 - c), (c - 2.0, 3.0 - c, 0.0)}
    P = np.asarray(v.P, float).tolist()
    for perm in _PERMUTATIONS:
        if [lam[y] for y in perm] == target and all(
            col in columns for col in zip(*(P[y] for y in perm))
        ):
            return CANONICAL_FOUR
    return UNCLASSIFIED


def _max_capacity(vertices) -> float:
    """Largest Blahut-Arimoto capacity over the channels of a vertex list."""
    return blahut_arimoto(np.stack([v.P.T for v in vertices])).capacity_bits


def vertex_summary(alphabet_size: int, c: float) -> dict:
    """Counts by class plus the maximum vertex capacity, for reporting."""
    vertices = enumerate_vertices(alphabet_size, c)
    tags = [classify_vertex(v) for v in vertices]
    return {
        "c": float(c),
        "alphabet_size": int(alphabet_size),
        "vertex_count": len(vertices),
        "zero_weight_count": tags.count(ZERO_WEIGHT),
        "canonical_count": tags.count(CANONICAL_FOUR),
        "unclassified_count": tags.count(UNCLASSIFIED),
        "max_capacity_bits": _max_capacity(vertices),
    }
