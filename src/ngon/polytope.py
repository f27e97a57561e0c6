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
   point.  It is a vertex iff the equalities plus its tight inequalities
   have full rank 3|X| + 3.  Every coefficient is 0 or +-1, so the Gram
   matrix of those rows is an integer matrix whose determinant is a whole
   number; a threshold of 0.5 separates singular from nonsingular exactly,
   and one batched determinant decides all tuples of a candidate lam.

Every coordinate is an integer affine form a + b*c and is evaluated from that
form, so coordinates equal to 0, 1, c - 1 or c - 2 come out exact.  The work
is at most 12 * 6^|X| candidate points, where the brute force over bases
solves C(6|X| + 3, 2|X| + 2) square systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .capacity import BA_TOL, blahut_arimoto

ZERO_WEIGHT = "ZERO_WEIGHT"
CANONICAL_FOUR = "CANONICAL_FOUR"
UNCLASSIFIED = "UNCLASSIFIED"

MAX_ALPHABET = 5
FEASIBILITY_TOL = 1e-10
DEDUP_TOL = 1e-8


class ResourceBoundError(ValueError):
    """Requested alphabet size exceeds the enumeration bound."""


@dataclass(frozen=True, eq=False)
class VertexPoint:
    """A vertex of the capped-channel polytope.

    ``P`` is the 3 x alphabet conditional matrix, ``lam`` the outcome
    weights, ``saturated`` the names of all constraints tight at the point.
    """

    P: np.ndarray
    lam: np.ndarray
    c: float
    saturated: tuple

    def to_dict(self) -> dict:
        return {
            "c": float(self.c),
            "lambda": [float(v) for v in self.lam],
            "P": [[float(v) for v in row] for row in self.P],
            "class": classify_vertex(self),
        }


def _constraint_system(alphabet_size: int, c: float):
    """Equality matrix/rhs, inequality matrix (rows >= 0), and row names."""
    X = alphabet_size
    dim = 3 * X + 3
    eq = np.zeros((X + 1, dim))
    eq_rhs = np.empty(X + 1)
    for x in range(X):
        for y in range(3):
            eq[x, y * X + x] = 1.0
        eq_rhs[x] = 1.0
    eq[X, 3 * X :] = 1.0
    eq_rhs[X] = c

    rows = []
    names = []
    for y in range(3):
        for x in range(X):
            row = np.zeros(dim)
            row[y * X + x] = 1.0
            rows.append(row)
            names.append(f"P[{y},{x}]>=0")
    for y in range(3):
        for x in range(X):
            row = np.zeros(dim)
            row[3 * X + y] = 1.0
            row[y * X + x] = -1.0
            rows.append(row)
            names.append(f"P[{y},{x}]<=lam[{y}]")
    for y in range(3):
        row = np.zeros(dim)
        row[3 * X + y] = 1.0
        rows.append(row)
        names.append(f"lam[{y}]>=0")
    return eq, eq_rhs, np.array(rows), names


def _validate_request(alphabet_size: int, c: float) -> None:
    if not isinstance(alphabet_size, (int, np.integer)) or alphabet_size < 2:
        raise ValueError("alphabet_size must be an integer >= 2")
    if alphabet_size > MAX_ALPHABET:
        raise ResourceBoundError(
            f"alphabet_size {alphabet_size} exceeds the enumeration bound {MAX_ALPHABET}"
        )
    if not 2.0 - 1e-12 <= c <= 3.0 + 1e-12:
        raise ValueError("c must lie in [2, 3]")


def _affine(coef: np.ndarray, c: float) -> np.ndarray:
    """Evaluate integer forms (..., 2) holding (a, b) as a + b*c."""
    return coef[..., 0] + coef[..., 1] * c


def _weight_candidates(c: float, tol: float) -> list[np.ndarray]:
    """Forms (3, 2) of every lam >= -tol with two weights in {0, 1}."""
    found = {}
    for free in range(3):
        a, b = (y for y in range(3) if y != free)
        for wa, wb in itertools.product((0, 1), repeat=2):
            coef = np.zeros((3, 2), int)
            coef[a, 0], coef[b, 0] = wa, wb
            coef[free] = (-wa - wb, 1)
            lam = _affine(coef, c)
            if lam.min() >= -tol:
                found.setdefault(tuple(lam), coef)
    return list(found.values())


def _column_vertices(lam_coef: np.ndarray, c: float, tol: float) -> np.ndarray:
    """Vertices (k, 3) of Q(lam) = {p in the simplex : p <= lam}, within tol.

    Two entries sit at 0 or at their cap; the third closes the sum to 1 and
    must lie in [-tol, lam + tol].
    """
    lam = _affine(lam_coef, c)
    found = {}
    for free in range(3):
        a, b = (y for y in range(3) if y != free)
        for capped_a, capped_b in itertools.product((False, True), repeat=2):
            coef = np.zeros((3, 2), int)
            coef[a] = lam_coef[a] * capped_a
            coef[b] = lam_coef[b] * capped_b
            coef[free] = (1, 0) - coef[a] - coef[b]
            p = _affine(coef, c)
            if -tol <= p[free] <= lam[free] + tol:
                found.setdefault(tuple(p), p)
    return np.array(list(found.values()))


def enumerate_vertices(
    alphabet_size: int,
    c: float,
    *,
    feasibility_tol: float = FEASIBILITY_TOL,
    dedup_tol: float = DEDUP_TOL,
) -> list[VertexPoint]:
    """All vertices of the polytope, deduplicated within ``dedup_tol``.

    Candidate points pair each of the at most 12 pinned weight vectors with
    every tuple of vertices of its column polygon (see the module
    docstring).  A candidate is kept iff every inequality holds within
    ``feasibility_tol`` and the equalities plus the inequalities tight
    within ``10 * feasibility_tol`` have full rank.  Degenerate vertices
    (more than the minimum tight) pass the same test.  The result is sorted
    by the coordinates rounded to 9 decimals.
    """
    _validate_request(alphabet_size, c)
    X = alphabet_size
    dim = 3 * X + 3
    eq, _, ineq, names = _constraint_system(X, c)
    # Gram matrix of any row subset = mask @ outer, reshaped to dim x dim.
    rows = np.vstack([eq, ineq])
    outer = np.einsum("ri,rj->rij", rows, rows).reshape(len(rows), dim * dim)

    points = []
    for lam_coef in _weight_candidates(c, feasibility_tol):
        cols = _column_vertices(lam_coef, c, feasibility_tol)
        picks = np.array(list(itertools.product(range(len(cols)), repeat=X)))
        z = np.empty((len(picks), dim))
        z[:, : 3 * X] = cols[picks].transpose(0, 2, 1).reshape(len(picks), 3 * X)
        z[:, 3 * X :] = _affine(lam_coef, c)
        slack = z @ ineq.T
        mask = np.ones((len(z), len(rows)))
        mask[:, len(eq) :] = np.abs(slack) <= 10 * feasibility_tol
        gram = (mask @ outer).reshape(len(z), dim, dim)
        keep = (slack >= -feasibility_tol).all(axis=1) & (np.abs(np.linalg.det(gram)) > 0.5)
        points.extend(z[keep])

    unique = np.empty((len(points), dim))
    count = 0
    seen = set()
    for z in points:
        key = tuple(np.round(z, 9))
        if key in seen:
            continue
        seen.add(key)
        if count and np.abs(unique[:count] - z).max(axis=1).min() <= dedup_tol:
            continue
        unique[count] = z
        count += 1
    ordered = sorted(unique[:count], key=lambda z: tuple(np.round(z, 9)))

    vertices = []
    for z in ordered:
        slack = ineq @ z
        saturated = tuple(
            name for name, s in zip(names, slack) if abs(s) <= 10 * feasibility_tol
        )
        vertices.append(
            VertexPoint(
                P=z[: 3 * X].reshape(3, X),
                lam=z[3 * X :].copy(),
                c=float(c),
                saturated=saturated,
            )
        )
    return vertices


def is_vertex(
    P,
    lam,
    c: float,
    *,
    tol: float = 1e-8,
) -> bool:
    """Feasibility plus full-rank tight-constraint test at a single point.

    Cheap spot check for alphabet sizes where full enumeration is costly:
    the point is a vertex iff it satisfies every constraint and the
    gradients of its tight constraints span the whole variable space.
    """
    P = np.asarray(P, float)
    lam = np.asarray(lam, float)
    if P.ndim != 2 or P.shape[0] != 3 or lam.shape != (3,):
        raise ValueError("P must be 3 x alphabet and lam a 3-vector")
    X = P.shape[1]
    eq, eq_rhs, ineq, _ = _constraint_system(X, c)
    z = np.concatenate([P.reshape(-1), lam])
    if np.abs(eq @ z - eq_rhs).max() > tol:
        return False
    slack = ineq @ z
    if slack.min() < -tol:
        return False
    active = ineq[np.abs(slack) <= tol]
    basis = np.vstack([eq, active])
    return np.linalg.matrix_rank(basis) == 3 * X + 3


def classify_vertex(v: VertexPoint, *, tol: float = 1e-8) -> str:
    """Tag a vertex by its weight pattern.

    ZERO_WEIGHT: some outcome weight vanishes.  CANONICAL_FOUR: weights are
    a permutation of (c-2, 1, 1) and, in that permuted frame, every column
    is one of the four distributions (0,0,1), (0,1,0), (c-2,0,3-c),
    (c-2,3-c,0).  Anything else is UNCLASSIFIED.
    """
    lam = np.asarray(v.lam, float)
    if lam.min() <= 1e-10:
        return ZERO_WEIGHT
    c = float(v.c)
    target = np.array([c - 2.0, 1.0, 1.0])
    columns = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [c - 2.0, 0.0, 3.0 - c],
            [c - 2.0, 3.0 - c, 0.0],
        ]
    )
    for perm in itertools.permutations(range(3)):
        if np.abs(lam[list(perm)] - target).max() > tol:
            continue
        Pp = v.P[list(perm), :]
        ok = True
        for x in range(Pp.shape[1]):
            if np.abs(columns - Pp[:, x]).max(axis=1).min() > tol:
                ok = False
                break
        if ok:
            return CANONICAL_FOUR
    return UNCLASSIFIED


def _max_capacity(vertices, tol: float) -> float:
    """Largest Blahut-Arimoto capacity over the channels of a vertex list."""
    return blahut_arimoto(np.stack([v.P.T for v in vertices]), tol=tol).capacity_bits


def max_vertex_capacity(alphabet_size: int, c: float, *, tol: float = 1e-10) -> float:
    """Largest channel capacity attained at any vertex of the polytope."""
    return _max_capacity(enumerate_vertices(alphabet_size, c), tol)


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
        "max_capacity_bits": _max_capacity(vertices, BA_TOL),
    }
