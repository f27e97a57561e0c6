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
  The same call computes each trace's chain-rule terms: the information of
  the joint (letter, stage) variable is its stage part, zero up to
  roundoff, plus the stage-weighted information of the stages.

Both take one item or a stack: a (k, 3, inputs) stack of channels, or k
ensembles of states (k, letters, 3) with weights (k, letters).  A stack runs
each step once for all items: one split, one batched solve per peeling stage
and one channel for all ensembles.  Every item gets the bits of its single
call, and a bad channel, or an ensemble with bad weights or a letter that
is not a state, is named in the error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import mutual_information_bits
from .geometry import (
    PROB_TOL,
    ROUNDOFF,
    InvalidStateError,
    Measurement,
    Theory,
    _improper_effects,
    _outside_states,
    extremal_decomposition,
)


class InfeasibleChannelError(ValueError):
    """Input matrix or weights violate the decomposition preconditions."""


class DecompositionError(RuntimeError):
    """The constructive decomposition failed its own verification."""


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Convex split P = q1*P1 + q2*P2 + q3*P3 into two-outcome channels.

    ``components[..., k, :, :]`` is a 3 x inputs column-stochastic matrix
    whose row 2 - k is identically zero, so each component uses only two
    outcomes.  A stack of k channels adds a leading axis k to each field.
    """

    q: np.ndarray  # (..., 3)
    components: np.ndarray  # (..., 3, 3, inputs)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("...k,...kyx->...yx", self.q, self.components)


def _raise_at(
    error, bad: np.ndarray, message: str, stacked: bool, item: str = "channel", column: str = "column"
) -> None:
    """Raise ``error`` at the first True entry of ``bad``, naming the item
    (channel or ensemble) of a stack and, when ``bad`` has a column axis,
    the column (or letter)."""
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        names = (item,) * stacked + (column,) * (bad.ndim > stacked)
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
    # each test is written so that a NaN fails it
    for bad, message in (
        (~(np.abs(w.sum(axis=-1) - 2.0) <= PROB_TOL), "weights must sum to 2"),
        (~((w >= -PROB_TOL) & (w <= 1.0 + PROB_TOL)).all(axis=-1), "each weight must lie in [0, 1]"),
        (~((P >= -PROB_TOL).all(axis=-2) & (np.abs(P.sum(axis=-2) - 1.0) <= PROB_TOL)),
         "columns must be probability vectors"),
        (~(P <= w[..., None] + PROB_TOL).all(axis=-2), "matrix entries exceed their outcome caps"),
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
    result = DecompositionResult(q, comps)
    mismatch = (np.abs(result.reconstruct() - P) > PROB_TOL).any(axis=-2)
    _raise_at(DecompositionError, mismatch, f"reconstruction mismatch above {PROB_TOL}", stacked)
    return result


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Record of the alphabet reduction of one ensemble.

    ``stages`` holds (stage_weight, letter_indices, letter_distribution)
    with every stage reproducing the global average state.
    ``information`` holds each stage's mutual information with the outcome
    of the measurement, and ``selected`` indexes the stage of largest
    information (the lowest such stage on ties).  The chain rule splits the
    information of the joint (letter, stage) variable, ``joint``, into the
    information of the stage label, ``stage`` (zero up to roundoff, since
    every stage has the same barycenter), and ``conditional``, the
    stage-weighted mean of ``information``.
    """

    stages: tuple
    selected: int
    information: tuple
    joint: float
    stage: float
    conditional: float


# triples solved per ensemble in the first round of the barycentric search; each round doubles it
_FIRST_ROUND = 64


def _ensemble_error(error, bad: np.ndarray, message: str, lead: tuple) -> None:
    """Raise ``error`` at the first True entry of ``bad``, (k,) or per letter
    (k, letters), naming the ensemble when ``lead``, the stack's leading
    shape, is (k,) and not (), and the letter when ``bad`` has that axis."""
    _raise_at(error, bad.reshape(lead + bad.shape[1:]), message, bool(lead), "ensemble", "letter")


def _padded(arrays, dtype=float) -> np.ndarray:
    """Stack arrays of unequal length, padded with zeros at the end of axis 0."""
    out = np.zeros((len(arrays), max(len(a) for a in arrays)) + np.shape(arrays[0])[1:], dtype)
    for row, a in zip(out, arrays):
        row[: len(a)] = a
    return out


def _barycentric_triples(verts, support, mean, searching, lead):
    """First triple (lexicographic) of each searching ensemble's support
    whose hull contains the ensemble's mean.

    ``support`` (k, n) marks the letters and ``mean`` (k, 3) the average
    state of every ensemble; ``searching`` indexes the ensembles to peel.
    The triples are scanned in lexicographic chunks that double from
    ``_FIRST_ROUND`` per ensemble, one batched solve per chunk over every
    ensemble still searching, and an ensemble stops at its first hit.
    Three distinct vertices lie on a circle in the plane z = 1, so no basis
    is singular.  Returns triples (k, 3) and barycentric weights clipped at
    0 (k, 3), set on the searching rows.
    """
    k = len(support)
    triples = np.zeros((k, 3), np.intp)
    beta = np.zeros((k, 3))
    sizes = support.sum(axis=1)
    start, count = 0, _FIRST_ROUND
    while len(searching):
        at, cand = [], []
        for m in sorted(set(sizes[searching].tolist())):
            group = searching[sizes[searching] == m]
            chunk = list(itertools.islice(itertools.combinations(range(m), 3), start, start + count))
            exhausted = np.zeros(k, bool)
            exhausted[group] = not chunk
            _ensemble_error(DecompositionError, exhausted, "no barycentric triple contains the ensemble average", lead)
            letters = np.nonzero(support[group])[1].reshape(len(group), m)
            at.append(np.repeat(group, len(chunk)))
            cand.append(letters[:, chunk].reshape(-1, 3))
        at, cand = np.concatenate(at), np.concatenate(cand)
        coeff = np.linalg.solve(verts[cand].transpose(0, 2, 1), mean[at, :, None])[..., 0]
        hit = np.flatnonzero(coeff.min(axis=1) >= -ROUNDOFF)
        # a row's candidates are contiguous and lexicographic: its first hit is its triple
        first = hit[np.diff(at[hit], prepend=-1) != 0]
        triples[at[first]] = cand[first]
        beta[at[first]] = np.clip(coeff[first], 0.0, None)
        open_ = np.ones(k, bool)
        open_[at[first]] = False
        searching = searching[open_[searching]]
        start, count = start + count, 2 * count
    return triples, beta


def caratheodory_reduce(theory: Theory, states, weights, measurement) -> ReductionTrace | list[ReductionTrace]:
    """Reduce a weighted state ensemble to at most 3 extremal letters.

    Non-extremal inputs are first split into extremal components and merged
    by vertex.  The ensemble is then peeled: each stage takes the largest
    sub-ensemble supported on a barycentric triple that reproduces the global
    average state, which removes at least one letter from the residual
    support.  Because every stage has the same barycenter, the stage label is
    independent of the outcome, and the chain rule makes the best stage at
    least as informative as the original ensemble (within roundoff).

    Takes one ensemble, states (letters, 3) and weights (letters,), with a
    Measurement or its effects (outcomes, 3), and returns its ReductionTrace;
    or a stack, states (k, letters, 3) and weights (k, letters), with one
    measurement or an effect stack (k, outcomes, 3), and returns a list of k
    traces.  A stack splits all its states at once, solves each peeling
    stage's barycentric triples in batches over all ensembles, and takes
    every stage's information and every trace's chain-rule terms from one
    channel; every ensemble gets the bits of its single call.  A bad weight
    vector, a measurement whose raw overlaps with some extremal state are
    not a probability vector to PROB_TOL, or a failed peel names its
    ensemble, and a letter that is not a normalised state names its
    ensemble and the letter; an effect stack of the wrong shape is refused.
    """
    p = np.asarray(weights, float)
    S = np.asarray(states, float)
    if p.ndim == 1:
        S = np.atleast_2d(S)
    if p.ndim not in (1, 2) or S.shape[:-1] != p.shape:
        raise ValueError("states and weights length mismatch")
    lead = p.shape[:-1]
    P = p.reshape(-1, p.shape[-1])
    k, size = P.shape
    # each test is written so that a NaN fails it
    for bad, message in (
        (~(P > 0).all(axis=1), "weights must be strictly positive"),
        (~(np.abs(P.sum(axis=1) - 1.0) <= PROB_TOL), "weights must sum to 1"),
    ):
        _ensemble_error(ValueError, bad, message, lead)
    outside = _outside_states(theory, S.reshape(-1, 3)).reshape(k, size)
    _ensemble_error(InvalidStateError, outside, "not a normalised state of the model", lead)
    improper = np.broadcast_to(_improper_effects(theory, measurement, k if lead else None), (k,))
    _ensemble_error(ValueError, improper, "effects must give a probability vector on every state", lead)
    if not k:
        return []
    E = measurement.effects if isinstance(measurement, Measurement) else np.asarray(measurement, float)
    # every vertex against each ensemble's measurement, one product per ensemble;
    # a stage reads its letters' rows, which have the bits of any product of two or more rows
    channel = theory.channel_matrix(np.broadcast_to(E, (k,) + E.shape[-2:]))

    n = theory.n
    verts = theory.states()
    splits = extremal_decomposition(theory, S.reshape(-1, 3)).reshape(k, size, n)
    rho = np.zeros((k, n))
    for letter in range(size):
        rho += P[:, letter, None] * splits[:, letter]
    # one product per row: a stacked GEMM rounds differently from the GEMV of a single row
    mean = np.array([row @ verts for row in rho])

    stages = [[] for _ in range(k)]
    mass = np.ones(k)
    peeling = np.ones(k, bool)
    for _ in range(n + 1):
        support = rho > ROUNDOFF
        last = peeling & (support.sum(axis=1) <= 3)
        for e in np.flatnonzero(last).tolist():
            J = np.flatnonzero(support[e])
            stages[e].append((mass[e], tuple(J.tolist()), rho[e, J] / rho[e, J].sum()))
        peeling &= ~last
        rows = np.flatnonzero(peeling)
        if not len(rows):
            break
        triples, beta = _barycentric_triples(verts, support, mean, rows, lead)
        triples, beta = triples[rows], beta[rows]
        beta /= beta.sum(axis=1, keepdims=True)
        share = np.divide(
            rho[rows[:, None], triples], beta, out=np.full(beta.shape, np.inf), where=beta > ROUNDOFF
        ).min(axis=1)
        for e, weight, J, b in zip(rows.tolist(), mass[rows] * share, triples.tolist(), beta):
            stages[e].append((weight, tuple(J), b.copy()))
        rho[rows[:, None], triples] -= share[:, None] * beta
        residual = np.clip(rho[rows], 0.0, None)
        residual[np.abs(residual) <= ROUNDOFF] = 0.0
        total = residual.sum(axis=1)
        vanished = np.zeros(k, bool)
        vanished[rows] = total <= ROUNDOFF
        _ensemble_error(DecompositionError, vanished, "residual ensemble vanished before support shrank", lead)
        rho[rows] = residual / total[:, None]
        mass[rows] *= 1.0 - share
    else:
        _ensemble_error(DecompositionError, peeling, "peeling failed to terminate", lead)

    # every stage's rows, in order, and every ensemble's letters over all its stages
    owner, letters, priors = zip(*[(e, J, beta) for e in range(k) for _, J, beta in stages[e]])
    stage_rows = channel[np.array(owner)[:, None], _padded(letters, np.intp)]
    per_stage = zip(stage_rows, mutual_information_bits(_padded(priors), stage_rows).tolist())
    joint_letters = _padded([[j for _, J, _ in stages[e] for j in J] for e in range(k)], np.intp)

    infos, selected, stage_priors, joint_priors, marginals = [], [], [], [], []
    for e in range(k):
        blocks, info = zip(*itertools.islice(per_stage, len(stages[e])))
        # ties resolved to the lowest stage
        best_idx, best_info = 0, -math.inf
        for idx, value in enumerate(info):
            if value > best_info + ROUNDOFF:
                best_idx, best_info = idx, value
        masses, _, betas = zip(*stages[e])
        stage_prior = np.array(masses)
        probs = np.concatenate([qk * beta for qk, beta in zip(stage_prior, betas)])
        # each stage's outcome law, one product on its own rows
        stage_marginals = np.stack([beta @ block[: len(beta)] for beta, block in zip(betas, blocks)])
        infos.append(info)
        selected.append(best_idx)
        stage_priors.append(stage_prior)
        joint_priors.append(probs / probs.sum())
        marginals.append(stage_marginals / stage_marginals.sum(axis=1, keepdims=True))
    # the chain rule: joint (letter, stage) information = stage part + conditional part
    joint = mutual_information_bits(_padded(joint_priors), channel[np.arange(k)[:, None], joint_letters]).tolist()
    stage = mutual_information_bits(_padded(stage_priors), _padded(marginals)).tolist()
    traces = [
        ReductionTrace(
            tuple(stages[e]), selected[e], infos[e], joint[e], stage[e], float(np.dot(stage_priors[e], infos[e]))
        )
        for e in range(k)
    ]
    return traces if lead else traces[0]
