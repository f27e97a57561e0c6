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

Index arithmetic is cyclic: state and effect indices are reduced mod n
everywhere, with canonical representatives in [0, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

GEOM_TOL = 1e-12


class DegenerateTripleError(ValueError):
    """Raised when requested effect indices cannot span a measurement."""


class InfeasibleMeasurementError(ValueError):
    """Raised when an index set admits no nonnegative weight completion."""


class InvalidStateError(ValueError):
    """Raised when a vector is not a normalised state of the model."""


def unit_effect() -> np.ndarray:
    """The unit effect u = (0, 0, 1)."""
    return np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class Measurement:
    """Canonical measurement; outcomes proportional to extremal effects.

    ``weights[k]`` is the canonical coefficient lambda_k; the realised outcome
    effect is ``weights[k] * scale * effect(indices[k])`` and the realised
    effects sum to the unit effect.
    """

    indices: tuple[int, ...]
    weights: tuple[float, ...]
    scale: float
    effects: np.ndarray  # (num_outcomes, 3) realised effect vectors

    @property
    def realized_weights(self) -> tuple[float, ...]:
        """Coefficients of the extremal effects in the realised outcomes."""
        return tuple(w * self.scale for w in self.weights)


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

    @property
    def effect_scale(self) -> float:
        """Parity scale a relating canonical and realised triple weights."""
        return 1.0 if self.even else (1.0 + self.r**2) / 2.0

    def state(self, i: int) -> np.ndarray:
        """Extremal state at vertex i (index reduced mod n)."""
        ang = 2.0 * math.pi * (i % self.n) / self.n
        return np.array([self.r * math.cos(ang), self.r * math.sin(ang), 1.0])

    @cached_property
    def _state_table(self) -> np.ndarray:
        return _tables(int(self.n))[0]

    def states(self) -> np.ndarray:
        """All n extremal states, shape (n, 3); a copy of a table built once per n."""
        return self._state_table.copy()

    def effect(self, j: int) -> np.ndarray:
        """Extremal effect j (index reduced mod n)."""
        j = j % self.n
        if self.even:
            ang = (2 * j - 1) * math.pi / self.n
            return 0.5 * np.array([self.r * math.cos(ang), self.r * math.sin(ang), 1.0])
        ang = 2.0 * math.pi * j / self.n
        return np.array([self.r * math.cos(ang), self.r * math.sin(ang), 1.0]) / (1.0 + self.r**2)

    @cached_property
    def _effect_table(self) -> np.ndarray:
        return _tables(int(self.n))[1]

    def effects(self) -> np.ndarray:
        """All n extremal effects, shape (n, 3); a copy of a table built once per n."""
        return self._effect_table.copy()

    def in_state_cone(self, v, tol: float = GEOM_TOL) -> bool:
        """Whether v lies in the state cone: nonnegative on every extremal effect."""
        v = np.asarray(v, float)
        return bool(v[2] >= -tol and (self._effect_table @ v >= -tol).all())

    def channel_matrix(self, measurement: Measurement, states=None) -> np.ndarray:
        """P(outcome | state), shape (inputs, outcomes), for the given states
        (default: all n extremal states), clipped to [0, 1] against roundoff."""
        S = self._state_table if states is None else states
        return np.clip(S @ measurement.effects.T, 0.0, 1.0)

    def measurement(self, indices) -> Measurement:
        """Build the canonical measurement on 2 or 3 effect indices.

        Two indices require even n and an antipodal pair.  Three distinct
        indices must pass the arc-gap rule; their weights mu_k then solve
        sum_k mu_k * effect(j_k) = u.
        """
        idx = tuple(int(j) % self.n for j in indices)
        rows = self._effect_table[list(idx)]
        if len(idx) == 2:
            if not self.even:
                raise InfeasibleMeasurementError("two-outcome measurements require even n")
            if (idx[1] - idx[0]) % self.n != self.n // 2:
                raise InfeasibleMeasurementError(f"pair {idx} is not antipodal for n={self.n}")
            return Measurement(idx, (1.0, 1.0), 1.0, rows)
        if len(idx) != 3:
            raise ValueError("a canonical measurement has 2 or 3 outcomes")
        if len(set(idx)) != 3:
            raise DegenerateTripleError(f"indices {idx} are not distinct mod {self.n}")
        if not _surrounds_centre(self.n, idx):
            raise InfeasibleMeasurementError(f"triple {idx} has an index gap above n/2")
        # a gap of exactly n/2 spans an antipodal pair, whose effects already
        # sum to the unit effect: weight 1 on the pair and exactly 0 elsewhere
        off = [k for k in range(3) if 2 * ((idx[k - 1] - idx[k - 2]) % self.n) == self.n]
        if off:
            mu = np.ones(3)
            mu[off[0]] = 0.0
        else:
            mu = np.linalg.solve(rows.T, unit_effect())
        return Measurement(idx, tuple(mu / self.effect_scale), self.effect_scale, mu[:, None] * rows)


@cache
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (states, effects) tables of the n-gon, shape (n, 3) each,
    built once per process and shared by every ``Theory(n)``."""
    t = Theory(n)
    tables = (np.stack([t.state(i) for i in range(n)]), np.stack([t.effect(j) for j in range(n)]))
    for table in tables:
        table.flags.writeable = False
    return tables


def _surrounds_centre(n: int, indices) -> bool:
    """The arc-gap rule for three distinct effect indices mod n."""
    a, b, c = sorted(j % n for j in indices)
    return 2 * max(b - a, c - b, n - c + a) <= n


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

    Returns (l1, l2, l3, scale).  When every l_k lies in [0, 1] the triple is
    a measurement whose realised outcome effects are scale*l_k*effect(j_k);
    the values agree with the linear-solve construction.  Index differences
    that vanish mod n leave the cotangents undefined.
    """
    n = theory.n
    d12, d23, d31 = j1 - j2, j2 - j3, j3 - j1
    if any(d % n == 0 for d in (d12, d23, d31)):
        raise DegenerateTripleError(f"triple ({j1}, {j2}, {j3}) has coincident indices mod {n}")
    c12 = 1.0 / math.tan(d12 * math.pi / n)
    c23 = 1.0 / math.tan(d23 * math.pi / n)
    c31 = 1.0 / math.tan(d31 * math.pi / n)
    return 1.0 - c12 * c31, 1.0 - c12 * c23, 1.0 - c23 * c31, theory.effect_scale


def min_effect_weight(theory: Theory) -> float:
    """Smallest realised outcome weight over all feasible triple measurements.

    Defined for odd n, where every canonical measurement has three strictly
    positive outcome weights.  Rotations and reflections permute the weights,
    so one triple per dihedral orbit suffices.
    """
    if theory.even:
        raise ValueError("minimum effect weight is defined for odd n")
    triples = triple_representatives(theory)
    return min(min(theory.measurement(t).realized_weights) for t in triples)


def extremal_decomposition(theory: Theory, state) -> np.ndarray:
    """Deterministic convex decomposition of a normalised state over vertices.

    Exact vertices map to a point mass.  Any other state falls in the slice
    triangle spanned by the two vertices whose arc contains its angular
    coordinate and by the polygon centre; the centre component is expanded
    uniformly, weight 1/n per vertex.  Returns the length-n weight vector.
    """
    v = np.asarray(state, float)
    if abs(v[2] - 1.0) > 1e-9 or not theory.in_state_cone(v, tol=1e-9):
        raise InvalidStateError("not a normalised state of the model")
    n = theory.n
    verts = theory.states()
    gaps = np.abs(verts - v).max(axis=1)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] <= GEOM_TOL:
        p = np.zeros(n)
        p[nearest] = 1.0
        return p
    theta = math.atan2(v[1], v[0]) % (2.0 * math.pi)
    i = int(theta * n / (2.0 * math.pi)) % n
    basis = np.column_stack([verts[i], verts[(i + 1) % n], unit_effect()])
    coeff = np.linalg.solve(basis, v)
    # roundoff can leave barycentric coordinates marginally negative
    coeff = np.clip(coeff, 0.0, None)
    p = np.full(n, coeff[2] / n)
    p[i] += coeff[0]
    p[(i + 1) % n] += coeff[1]
    return p / p.sum()
