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

    ``components[..., k, :, :]`` is a 3 x inputs column-stochastic matrix
    whose row 2 - k is identically zero, so each component uses only two
    outcomes; ``free`` stacks the per-column parameters (u, v, w) that
    generate them.  A stack of k channels adds a leading axis k to each field.
    """

    q: np.ndarray  # (..., 3)
    components: np.ndarray  # (..., 3, 3, inputs)
    free: np.ndarray  # (..., 3, inputs)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("...k,...kyx->...yx", self.q, self.components)


def _raise_at(error, bad: np.ndarray, message: str, stacked: bool) -> None:
    """Raise ``error`` at the first True entry of ``bad``, naming the channel
    of a stack and, when ``bad`` has a column axis, the column."""
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        names = ("channel",) * stacked + ("column",) * (bad.ndim > stacked)
        raise error(", ".join([message] + [f"{name} {int(i)}" for name, i in zip(names, at)]))


def decompose_into_binary_channels(matrix, weights) -> DecompositionResult:
    """Split weight-constrained 3-outcome channels into binary components.

    ``matrix`` is one channel, 3 x inputs with columns summing to 1 (rows
    are outcomes), with ``weights`` (3,), or a stack (k, 3, inputs) with
    weights (k, 3).  The weights are the outcome caps (w1, w2, w3) with sum
    2, each in [0, 1], and matrix[..., y, x] <= weights[..., y].
    Preconditions are checked to PROB_TOL; an error names the bad channel.

    The mixing weights are q = (1 - w3, 1 - w2, 1 - w1).  Component k has
    outcome row 3 - k zero, so each component is effectively binary and
    carries at most one bit.  Per column the first component's entry u is
    pinned to the lower endpoint of its feasible interval, which the cap
    constraints keep nonempty; the remaining parameters v and w follow by
    elimination.  Every channel of a stack gets the bits of a single call.
    """
    P = np.asarray(matrix, float)
    w = np.asarray(weights, float)
    if P.ndim not in (2, 3) or P.shape[-2] != 3:
        raise InfeasibleChannelError("matrix must be 3 x inputs (rows are outcomes) or a stack")
    if w.shape != P.shape[:-1]:
        raise InfeasibleChannelError("weights must be a 3-vector per channel")
    stacked = P.ndim == 3
    for bad, message in (
        (np.abs(w.sum(axis=-1) - 2.0) > PROB_TOL, "weights must sum to 2"),
        (((w < -PROB_TOL) | (w > 1.0 + PROB_TOL)).any(axis=-1), "each weight must lie in [0, 1]"),
        ((P < -PROB_TOL).any(axis=-2) | (np.abs(P.sum(axis=-2) - 1.0) > PROB_TOL),
         "columns must be probability vectors"),
        ((P > w[..., None] + PROB_TOL).any(axis=-2), "matrix entries exceed their outcome caps"),
    ):
        _raise_at(InfeasibleChannelError, bad, message, stacked)

    q = np.maximum(1.0 - w[..., ::-1], 0.0)
    q1, q2, q3 = (q[..., k, None] for k in range(3))
    p1, p2 = P[..., 0, :], P[..., 1, :]
    # a zero-weight component keeps its parameter at 0; the 1.0 only guards the division
    on1, on2, on3 = q1 > ROUNDOFF, q2 > ROUNDOFF, q3 > ROUNDOFF
    d1, d2, d3 = (np.where(on, qk, 1.0) for on, qk in ((on1, q1), (on2, q2), (on3, q3)))
    # u = min(lo, 1), lo = max(0, (p1 - q2)/q1, 1 - p2/q1) and +0.0 unless a bound is positive
    lo = np.maximum((p1 - q2) / d1, 1.0 - p2 / d1)
    lo = np.where(lo > 0.0, lo, 0.0)
    hi = np.minimum(np.minimum(p1 / d1, (q1 + q3 - p2) / d1), 1.0)
    # tolerances bound q_k times a parameter: dividing by a small q_k magnifies roundoff
    _raise_at(DecompositionError, on1 & (q1 * (lo - hi) > PROB_TOL), "empty interval for u", stacked)
    u = np.where(on1, np.minimum(lo, 1.0), 0.0)
    # a residue left on a zero-weight component fails the reconstruction check
    v = np.where(on2, (p1 - q1 * u) / d2, 0.0)
    wfree = np.where(on3, (p2 - q1 * (1.0 - u)) / d3, 0.0)
    for arr, qk in ((v, q2), (wfree, q3)):
        escaped = (qk * arr < -PROB_TOL) | (qk * (arr - 1.0) > PROB_TOL)
        _raise_at(DecompositionError, escaped, "free parameter escaped [0, 1]", stacked)
        np.clip(arr, 0.0, 1.0, out=arr)

    zero = np.zeros_like(u)
    comps = np.stack(
        [
            np.stack([u, 1.0 - u, zero], axis=-2),
            np.stack([v, zero, 1.0 - v], axis=-2),
            np.stack([zero, wfree, 1.0 - wfree], axis=-2),
        ],
        axis=-3,
    )
    result = DecompositionResult(q, comps, np.stack([u, v, wfree], axis=-2))
    mismatch = (np.abs(result.reconstruct() - P) > PROB_TOL).any(axis=-2)
    _raise_at(DecompositionError, mismatch, f"reconstruction mismatch above {PROB_TOL}", stacked)
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
    same barycenter.  One channel, shape (letters, outcomes), is built over
    the letters of all stages in order; stage k reads its rows as a slice.
    """
    stage_prior = np.array([qk for qk, _, _ in trace.stages])
    betas = [np.asarray(beta, float) for _, _, beta in trace.stages]
    letters = [j for _, J, _ in trace.stages for j in J]
    rows = theory.channel_matrix(measurement, theory.states()[letters])
    blocks = np.split(rows, np.cumsum([len(beta) for beta in betas])[:-1])
    probs = np.concatenate([qk * beta for qk, beta in zip(stage_prior, betas)])
    joint_info = mutual_information_bits(probs / probs.sum(), rows)

    marginals = np.stack([beta @ block for beta, block in zip(betas, blocks)])
    marginals /= marginals.sum(axis=1, keepdims=True)
    stage_info = mutual_information_bits(stage_prior, marginals)

    conditional = [mutual_information_bits(beta, block) for beta, block in zip(betas, blocks)]
    cond_info = float(np.dot(stage_prior, conditional))
    return {
        "joint": joint_info,
        "stage": stage_info,
        "conditional": cond_info,
        "per_stage": conditional,
    }
