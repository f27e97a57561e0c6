"""Structural decompositions of polygon channels.

Two constructions:

* ``decompose_into_binary_channels`` splits any 3-outcome channel satisfying
  the even-parity weight constraints (entries capped by outcome weights that
  sum to 2) into a convex mixture of three channels that each use only two
  outcomes.  Existence is constructive: with q = (1-w3, 1-w2, 1-w1) the
  per-column free parameter always has a nonempty feasible interval, and the
  lower endpoint is chosen to keep the result deterministic.

* ``caratheodory_reduce`` shrinks the input alphabet of a state ensemble to
  at most three extremal letters without losing mutual information.  The
  ensemble average is repeatedly peeled against barycentric triples that
  reproduce it, so the stage label carries no information about the outcome
  and the best stage is at least as informative as the original ensemble.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import mutual_information_bits
from .geometry import PROB_TOL, ROUNDOFF, Measurement, Theory, extremal_decomposition


class InfeasibleChannelError(ValueError):
    """Input matrix or weights violate the decomposition preconditions."""


class DecompositionError(RuntimeError):
    """The constructive decomposition failed its own verification."""


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Convex split P = q1*P1 + q2*P2 + q3*P3 into two-outcome channels.

    ``components[k]`` is a 3 x inputs column-stochastic matrix whose row
    2 - k is identically zero, so each component uses only two outcomes;
    ``free`` stacks the per-column parameters (u, v, w) that generate them.
    """

    q: np.ndarray
    components: np.ndarray  # (3, 3, inputs)
    free: np.ndarray  # (3, inputs)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("k,kyx->yx", self.q, self.components)


def decompose_into_binary_channels(matrix, weights) -> DecompositionResult:
    """Split a weight-constrained 3-outcome channel into binary components.

    ``matrix`` is 3 x inputs with columns summing to 1 (rows are outcomes);
    ``weights`` are the outcome caps (w1, w2, w3) with sum 2, each in [0, 1],
    and matrix[y, x] <= weights[y].  Preconditions are checked to PROB_TOL.

    The mixing weights are q = (1 - w3, 1 - w2, 1 - w1).  Component k has
    outcome row 3 - k zero, so each component is effectively binary and
    carries at most one bit.  Per column the first component's entry u is
    pinned to the lower endpoint of its feasible interval, which the cap
    constraints keep nonempty; the remaining parameters v and w follow by
    elimination.
    """
    P = np.asarray(matrix, float)
    w = np.asarray(weights, float)
    if P.ndim != 2 or P.shape[0] != 3:
        raise InfeasibleChannelError("matrix must be 3 x inputs (rows are outcomes)")
    if w.shape != (3,):
        raise InfeasibleChannelError("weights must be a 3-vector")
    if abs(w.sum() - 2.0) > PROB_TOL:
        raise InfeasibleChannelError(f"weights sum to {w.sum()}, need 2")
    if (w < -PROB_TOL).any() or (w > 1.0 + PROB_TOL).any():
        raise InfeasibleChannelError("each weight must lie in [0, 1]")
    if (P < -PROB_TOL).any() or np.abs(P.sum(axis=0) - 1.0).max() > PROB_TOL:
        raise InfeasibleChannelError("columns must be probability vectors")
    if (P > w[:, None] + PROB_TOL).any():
        raise InfeasibleChannelError("matrix entries exceed their outcome caps")

    q = 1.0 - w[::-1]
    q1, q2, q3 = (float(max(v, 0.0)) for v in q)
    inputs = P.shape[1]
    u = np.zeros(inputs)
    v = np.zeros(inputs)
    wfree = np.zeros(inputs)
    for x in range(inputs):
        p1, p2, _ = P[:, x]
        if q1 > ROUNDOFF:
            lo = max(0.0, (p1 - q2) / q1, 1.0 - p2 / q1)
            hi = min(1.0, p1 / q1, (q1 + q3 - p2) / q1)
            if lo > hi + PROB_TOL:
                raise DecompositionError(f"empty interval in column {x}: [{lo}, {hi}]")
            u[x] = min(max(lo, 0.0), 1.0)
        # a residue left on a zero-weight component fails the reconstruction check
        if q2 > ROUNDOFF:
            v[x] = (p1 - q1 * u[x]) / q2
        if q3 > ROUNDOFF:
            wfree[x] = (p2 - q1 * (1.0 - u[x])) / q3
    for arr in (v, wfree):
        if (arr < -PROB_TOL).any() or (arr > 1.0 + PROB_TOL).any():
            raise DecompositionError("free parameter escaped [0, 1]")
        np.clip(arr, 0.0, 1.0, out=arr)

    zero = np.zeros(inputs)
    comps = np.stack(
        [
            np.stack([u, 1.0 - u, zero]),
            np.stack([v, zero, 1.0 - v]),
            np.stack([zero, wfree, 1.0 - wfree]),
        ]
    )
    result = DecompositionResult(np.array([q1, q2, q3]), comps, np.stack([u, v, wfree]))
    if np.abs(result.reconstruct() - P).max() > PROB_TOL:
        raise DecompositionError(f"reconstruction mismatch above {PROB_TOL}")
    return result


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Record of the alphabet reduction.

    ``stages`` holds (stage_weight, letter_indices, letter_distribution)
    with every stage reproducing the global average state; ``selected``
    indexes the stage whose conditional mutual information against the
    measurement is largest (the lowest such stage on ties).
    """

    stages: tuple
    selected: int


def _barycentric_triple(support: list[int], verts: np.ndarray, mean: np.ndarray):
    """First support triple (lexicographic) whose hull contains the mean."""
    for triple in itertools.combinations(support, 3):
        basis = np.column_stack([verts[j] for j in triple])
        try:
            beta = np.linalg.solve(basis, mean)
        except np.linalg.LinAlgError:
            continue
        if beta.min() >= -ROUNDOFF:
            return list(triple), np.clip(beta, 0.0, None)
    raise DecompositionError("no barycentric triple contains the ensemble average")


def caratheodory_reduce(theory: Theory, states, weights, measurement: Measurement) -> ReductionTrace:
    """Reduce a weighted state ensemble to at most 3 extremal letters.

    Non-extremal inputs are first split into extremal components and merged
    by vertex.  The ensemble is then peeled: each stage takes the largest
    sub-ensemble supported on a barycentric triple that reproduces the global
    average state, which removes at least one letter from the residual
    support.  Because every stage has the same barycenter, the stage label is
    independent of the outcome, and the chain rule makes the best stage at
    least as informative as the original ensemble (within roundoff).
    """
    S = np.atleast_2d(np.asarray(states, float))
    p = np.asarray(weights, float)
    if S.shape[0] != p.shape[0]:
        raise ValueError("states and weights length mismatch")
    if (p <= 0).any():
        raise ValueError("weights must be strictly positive")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValueError("weights must sum to 1")

    n = theory.n
    rho = np.zeros(n)
    for split, weight in zip(extremal_decomposition(theory, S), p):
        rho += weight * split
    verts = theory.states()
    mean = rho @ verts

    stages = []
    mass = 1.0
    guard = 0
    while True:
        guard += 1
        if guard > n + 1:
            raise DecompositionError("peeling failed to terminate")
        support = [int(j) for j in np.nonzero(rho > ROUNDOFF)[0]]
        if len(support) <= 3:
            beta = rho[support] / rho[support].sum()
            stages.append((mass, tuple(support), beta))
            break
        triple, beta = _barycentric_triple(support, verts, mean)
        beta = beta / beta.sum()
        ratios = [rho[j] / b for j, b in zip(triple, beta) if b > ROUNDOFF]
        share = min(ratios)
        stages.append((mass * share, tuple(triple), beta.copy()))
        for j, b in zip(triple, beta):
            rho[j] -= share * b
        rho = np.clip(rho, 0.0, None)
        rho[np.abs(rho) <= ROUNDOFF] = 0.0
        total = rho.sum()
        if total <= ROUNDOFF:
            raise DecompositionError("residual ensemble vanished before support shrank")
        rho /= total
        mass *= 1.0 - share

    # stage channels against the measurement; ties resolved to the lowest stage
    best_idx = 0
    best_info = -math.inf
    for k, (_, J, beta) in enumerate(stages):
        info = mutual_information_bits(beta, theory.channel_matrix(measurement, verts[list(J)]))
        if info > best_info + ROUNDOFF:
            best_info = info
            best_idx = k

    return ReductionTrace(tuple(stages), best_idx)


def trace_information(trace: ReductionTrace, theory: Theory, measurement: Measurement) -> dict:
    """Chain-rule bookkeeping of a reduction trace.

    Returns the mutual information between the outcome and the joint
    (letter, stage) variable, its two chain-rule parts, and the per-stage
    conditional terms.  The stage part is zero because every stage has the
    same barycenter.
    """
    verts = theory.states()
    pairs = []
    probs = []
    for k, (qk, J, beta) in enumerate(trace.stages):
        for j, b in zip(J, beta):
            pairs.append((k, j))
            probs.append(qk * b)
    probs = np.asarray(probs)
    rows = theory.channel_matrix(measurement, np.stack([verts[j] for _, j in pairs]))
    joint_info = mutual_information_bits(probs / probs.sum(), rows)

    stage_prior = np.array([qk for qk, _, _ in trace.stages])
    stage_rows = np.stack(
        [beta @ theory.channel_matrix(measurement, verts[list(J)]) for _, J, beta in trace.stages]
    )
    stage_rows /= stage_rows.sum(axis=1, keepdims=True)
    stage_info = mutual_information_bits(stage_prior, stage_rows)

    conditional = [
        mutual_information_bits(beta, theory.channel_matrix(measurement, verts[list(J)]))
        for _, J, beta in trace.stages
    ]
    cond_info = float(np.dot(stage_prior, conditional))
    return {
        "joint": joint_info,
        "stage": stage_info,
        "conditional": cond_info,
        "per_stage": conditional,
    }
