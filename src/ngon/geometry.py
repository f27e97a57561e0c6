"""Geometry of regular polygon state spaces.

The model with parameter n (n >= 3) lives in R^3.  Its pure states are the
vertices of a regular n-gon at height 1,

    state(i) = (R cos(2*pi*i/n), R sin(2*pi*i/n), 1),   R = sqrt(sec(pi/n)),

and unnormalised states form the closed convex cone spanned by them.  Effects
live in the dual cone, which is generated by n extremal effects whose
direction depends on the parity of n:

    even n:  effect(j) = (R cos((2j-1)*pi/n), R sin((2j-1)*pi/n), 1) / 2
    odd n:   effect(j) = (R cos(2*pi*j/n),    R sin(2*pi*j/n),    1) / (1+R^2)

The unit effect u = (0, 0, 1) evaluates to 1 on every normalised state.  For
even n the complement u - effect(j) equals effect(j + n/2), so antipodal index
pairs give two-outcome measurements; for odd n the dual cone is a rescaled
copy of the state cone, (1+R^2)*effect(j) = state(j), and no two extremal
effects are complementary.  Every extremal multi-outcome measurement can be
brought to a canonical form with at most three outcomes, each proportional to
an extremal effect.

Arc-gap rule: three distinct extremal effects complete to the unit effect with
nonnegative weights iff their directions surround the centre: every cyclic gap
b - a, c - b, n - c + a of sorted indices a < b < c is at most n/2.

Index arithmetic is cyclic: measurement indices are reduced mod n, with
canonical representatives in [0, n).

Stacks: every triple measurement is built by one private builder that maps
a (k, 3) array of indices to weights (k, 3) and realised effects (k, 3, 3)
with one batched solve; ``Theory.measurement`` is a stack of one.
``channel_matrix`` takes a Measurement or an effect stack (..., outcomes, 3)
and ``extremal_decomposition`` a state (3,) or a stack (k, 3).  Each row of a
stack has the same bits as the single call on that row, so callers may
batch per n without changing any printed number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# ROUNDOFF: two floats this close are the same number.  PROB_TOL: slack on a
# distribution or state a caller passes in, and on a construction's check of
# its own output.  The thresholds of the acceptance checks are gates, kept literal.
ROUNDOFF = 1e-12
PROB_TOL = 1e-9
# the unit effect as a column, the right-hand side of every triple solve
_UNIT_COLUMN = np.array([[0.0], [0.0], [1.0]])


class DegenerateTripleError(ValueError):
    """Raised when requested effect indices cannot span a measurement."""


class InfeasibleMeasurementError(ValueError):
    """Raised when an index set admits no nonnegative weight completion."""


class InvalidStateError(ValueError):
    """Raised when a vector is not a normalised state of the model."""


class ResourceBoundError(ValueError):
    """A request exceeds the size bound of its enumeration, table or search."""


def unit_effect() -> np.ndarray:
    """The unit effect u = (0, 0, 1)."""
    return np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class Measurement:
    """Canonical measurement; outcomes proportional to extremal effects.

    ``weights[k]`` is the realised weight mu_k: outcome k is the effect
    ``weights[k] * effect(indices[k])``, and the outcomes sum to the unit
    effect.
    """

    indices: tuple[int, ...]
    weights: tuple[float, ...]
    effects: np.ndarray  # (num_outcomes, 3) realised effect vectors


@dataclass(frozen=True)
class Theory:
    """A polygon model with n extremal states and n extremal effects."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"polygon model needs an integer n >= 3, got {self.n!r}")

    @property
    def even(self) -> bool:
        return self.n % 2 == 0

    @property
    def parity(self) -> str:
        return "even" if self.even else "odd"

    @cached_property
    def r(self) -> float:
        """Circumradius sqrt(sec(pi/n)) of the state polygon."""
        return math.sqrt(1.0 / math.cos(math.pi / self.n))

    def states(self) -> np.ndarray:
        """All n extremal states, shape (n, 3); a copy of a table built once per n."""
        return _tables(int(self.n))[0].copy()

    def effects(self) -> np.ndarray:
        """All n extremal effects, shape (n, 3); a copy of a table built once per n."""
        return _tables(int(self.n))[1].copy()

    def channel_matrix(self, measurement, states=None) -> np.ndarray:
        """P(outcome | state), shape (..., inputs, outcomes), clipped to [0, 1]
        against roundoff.

        ``measurement`` is a Measurement or a stack of realised effects of
        shape (..., outcomes, 3); ``states`` defaults to all n extremal
        states and broadcasts against the stack.
        """
        S = _tables(int(self.n))[0] if states is None else states
        E = measurement.effects if isinstance(measurement, Measurement) else measurement
        P = S @ np.swapaxes(E, -1, -2)
        return np.clip(P, 0.0, 1.0, out=P)

    def measurement(self, indices) -> Measurement:
        """Build the canonical measurement on 2 or 3 effect indices.

        Two indices require even n and an antipodal pair.  Three distinct
        indices must pass the arc-gap rule; their weights mu_k then solve
        sum_k mu_k * effect(j_k) = u, built by ``_realize_triples`` as a
        stack of one.
        """
        idx = tuple(int(j) % self.n for j in indices)
        if len(idx) == 2:
            if not self.even:
                raise InfeasibleMeasurementError("two-outcome measurements require even n")
            if (idx[1] - idx[0]) % self.n != self.n // 2:
                raise InfeasibleMeasurementError(f"pair {idx} is not antipodal for n={self.n}")
            return Measurement(idx, (1.0, 1.0), _tables(int(self.n))[1][list(idx)])
        if len(idx) != 3:
            raise ValueError("a canonical measurement has 2 or 3 outcomes")
        mu, effects = _realize_triples(self.n, [idx])
        return Measurement(idx, tuple(mu[0].tolist()), effects[0])


@cache
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (states, effects) tables of the n-gon, shape (n, 3) each,
    built once per process from Python floats and shared by every
    ``Theory(n)``; the formulas of the module docstring live only here."""
    r = Theory(n).r
    states = [(r * math.cos(a), r * math.sin(a), 1.0) for a in (2.0 * math.pi * i / n for i in range(n))]
    if n % 2 == 0:
        effects = [
            (0.5 * (r * math.cos(a)), 0.5 * (r * math.sin(a)), 0.5)
            for a in ((2 * j - 1) * math.pi / n for j in range(n))
        ]
    else:
        # odd n: (1 + R^2) * effect(j) = state(j)
        scale = 1.0 + r**2
        effects = [(x / scale, y / scale, 1.0 / scale) for x, y, _ in states]
    tables = (np.array(states), np.array(effects))
    for table in tables:
        table.flags.writeable = False
    return tables


def _cyclic_gaps(n: int, idx: np.ndarray) -> np.ndarray:
    """Cyclic gaps b - a, c - b, n - c + a of each row's sorted indices,
    shape (k, 3) for index rows of shape (k, 3) reduced mod n."""
    s = np.sort(idx, axis=1)
    gaps = s[:, [1, 2, 0]] - s
    gaps[:, 2] += n
    return gaps


def _realize_triples(n: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Completion weights mu, shape (k, 3), and realised effects
    mu_k * effect(j_k), shape (k, 3, 3), of a stack of index triples.

    Every row must hold three indices distinct mod n that pass the arc-gap
    rule; the first row that does not raises DegenerateTripleError or
    InfeasibleMeasurementError.  A row with a gap of exactly n/2 spans an
    antipodal pair, whose effects already sum to the unit effect: weight 1
    on the pair and exactly 0 on the third index; the capacity sweep builds
    each pair (0, n/2) this way, as the row (0, n/2, 1).  The other rows
    solve sum_k mu_k * effect(j_k) = u in one batched solve, whose rows have
    the bits of their single solves.
    """
    idx = np.asarray(indices, dtype=np.intp).reshape(-1, 3) % n
    gaps = _cyclic_gaps(n, idx)
    degenerate = gaps.min(axis=1) == 0
    bad = degenerate | (2 * gaps.max(axis=1) > n)
    if bad.any():
        row = int(np.argmax(bad))
        triple = tuple(int(j) for j in idx[row])
        if degenerate[row]:
            raise DegenerateTripleError(f"indices {triple} are not distinct mod {n}")
        raise InfeasibleMeasurementError(f"triple {triple} has an index gap above n/2")
    rows = _tables(int(n))[1][idx]
    # off[:, k]: the two indices other than k form an antipodal pair
    off = 2 * ((idx[:, [1, 2, 0]] - idx[:, [2, 0, 1]]) % n) == n
    solve = ~off.any(axis=1)
    mu = np.where(off, 0.0, 1.0)
    if solve.any():
        mu[solve] = np.linalg.solve(rows[solve].transpose(0, 2, 1), _UNIT_COLUMN)[..., 0]
    return mu, mu[:, :, None] * rows


def _feasible_triples(n: int) -> np.ndarray:
    """Every sorted triple a < b < c that passes the arc-gap rule, shape (k, 3)."""
    idx = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp)
    return idx[2 * _cyclic_gaps(n, idx).max(axis=1) <= n]


def triple_representatives(theory: Theory) -> list[tuple[int, int, int]]:
    """One feasible triple (0, g1, g1 + g2) per dihedral orbit, in
    lexicographic order.

    A rotation cycles the three cyclic gaps of a triple and a reflection
    reverses them, so an orbit is fixed by its gaps sorted as
    g1 <= g2 <= g3 = n - g1 - g2; the arc-gap rule asks g3 <= n/2.  With all
    n states as inputs the orbit's channels differ only by a permutation of
    inputs and outcomes.
    """
    n = theory.n
    return [
        (0, g1, g1 + g2)
        for g1 in range(1, n // 3 + 1)
        for g2 in range(max(g1, (n + 1) // 2 - g1), (n - g1) // 2 + 1)
    ]


def closed_form_triple_weights(theory: Theory, j1: int, j2: int, j3: int):
    """Cotangent-product weights of the canonical triple measurement.

    Returns the realised weights (mu1, mu2, mu3) = a * (l1, l2, l3), where
    l_k are the cotangent products and a is the parity scale, 1 for even n
    and (1 + R^2) / 2 for odd n.  When every mu_k is nonnegative the triple
    is a measurement whose outcome effects are mu_k * effect(j_k); the values
    agree with the linear-solve construction.  The indices may be integer
    arrays of one shape, giving mu_k of that shape.  Index differences that
    vanish mod n leave the cotangents undefined.
    """
    n = theory.n
    diffs = (np.subtract(j1, j2), np.subtract(j2, j3), np.subtract(j3, j1))
    if any((d % n == 0).any() for d in diffs):
        raise DegenerateTripleError(f"triple ({j1}, {j2}, {j3}) has coincident indices mod {n}")
    c12, c23, c31 = (1.0 / np.tan(d * math.pi / n) for d in diffs)
    scale = 1.0 if theory.even else (1.0 + theory.r**2) / 2.0
    return scale * (1.0 - c12 * c31), scale * (1.0 - c12 * c23), scale * (1.0 - c23 * c31)


def min_effect_weight(theory: Theory) -> float:
    """Smallest realised outcome weight over all feasible triple measurements.

    Defined for odd n, where every canonical measurement has three strictly
    positive outcome weights.  Rotations and reflections permute the weights,
    so one triple per dihedral orbit suffices.
    """
    if theory.even:
        raise ValueError("minimum effect weight is defined for odd n")
    mu, _ = _realize_triples(theory.n, triple_representatives(theory))
    return float(mu.min())


def _outside_states(theory: Theory, V: np.ndarray) -> np.ndarray:
    """Which rows of a stack V (k, 3) are not normalised states of the
    model: off the plane z = 1 or outside the state cone, beyond PROB_TOL."""
    inside = (V @ _tables(int(theory.n))[1].T >= -PROB_TOL).all(axis=1)
    return (np.abs(V[:, 2] - 1.0) > PROB_TOL) | ~inside


def _improper_effects(theory: Theory, measurement, count: int | None = None) -> np.ndarray:
    """Which effect sets fail to give a probability vector on every extremal
    state, shape () for one set and (count,) for a stack.

    ``measurement`` is a Measurement, effects (outcomes, 3) or, when
    ``count`` is given, a stack (count, outcomes, 3); any other shape raises
    ValueError.  The raw overlaps, before the clip of ``channel_matrix``,
    must be at least -PROB_TOL and sum to 1 within PROB_TOL on each state;
    each test is written so that a NaN fails it.
    """
    E = measurement.effects if isinstance(measurement, Measurement) else np.asarray(measurement, float)
    if E.shape[:-2] not in ((), (count,)) or E.ndim < 2 or E.shape[-1] != 3:
        stack = "" if count is None else f", or a stack ({count}, outcomes, 3)"
        raise ValueError(f"effects must have shape (outcomes, 3){stack}, got {E.shape}")
    raw = _tables(int(theory.n))[0] @ np.swapaxes(E, -1, -2)
    nonnegative = (raw >= -PROB_TOL).all(axis=(-2, -1))
    normalised = (np.abs(raw.sum(axis=-1) - 1.0) <= PROB_TOL).all(axis=-1)
    return ~(nonnegative & normalised)


def extremal_decomposition(theory: Theory, state) -> np.ndarray:
    """Deterministic convex decomposition of normalised states over vertices.

    Exact vertices map to a point mass.  Any other state falls in the slice
    triangle spanned by the two vertices whose arc contains its angular
    coordinate and by the polygon centre; the centre component is expanded
    uniformly, weight 1/n per vertex.  Takes one state, shape (3,), or a
    stack, shape (k, 3), and returns the length-n weight vector of each,
    shape (n,) or (k, n); a stack solves its slice triangles in one batch.
    """
    v = np.asarray(state, float)
    V = v.reshape(-1, 3)
    if _outside_states(theory, V).any():
        raise InvalidStateError("not a normalised state of the model")
    n = theory.n
    verts = _tables(int(n))[0]
    rows = np.arange(len(V))
    # the slice of each state: the arc that holds its angle, in [0, 2*pi)
    theta = np.array([math.atan2(y, x) % (2.0 * math.pi) for x, y in V[:, :2].tolist()])
    i = (theta * n / (2.0 * math.pi)).astype(np.intp) % n
    basis = np.empty((len(V), 3, 3))
    basis[:, :, 0] = verts[i]
    basis[:, :, 1] = verts[(i + 1) % n]
    basis[:, :, 2] = unit_effect()
    coeff = np.linalg.solve(basis, V[:, :, None])[..., 0]
    # roundoff can leave barycentric coordinates marginally negative
    coeff = np.clip(coeff, 0.0, None)
    p = np.repeat(coeff[:, 2:] / n, n, axis=1)
    p[rows, i] += coeff[:, 0]
    p[rows, (i + 1) % n] += coeff[:, 1]
    p /= p.sum(axis=1, keepdims=True)
    gaps = np.abs(verts - V[:, None, :]).max(axis=2)
    nearest = gaps.argmin(axis=1)
    at_vertex = gaps[rows, nearest] <= ROUNDOFF
    p[at_vertex] = 0.0
    p[at_vertex, nearest[at_vertex]] = 1.0
    return p.reshape(v.shape[:-1] + (n,))
