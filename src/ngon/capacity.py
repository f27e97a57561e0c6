"""Classical channel capacities of polygon models.

A choice of input states and a canonical measurement induce a discrete
memoryless channel whose entries are effect-state overlaps.  Capacity is
computed with the Blahut-Arimoto ascent, which keeps a certified bracket
around the optimum: at every iterate the achieved mutual information is a
lower bound and the largest per-input divergence from the output marginal is
an upper bound.

``theory_capacity`` maximises the capacity over one canonical measurement per
dihedral orbit, with all n extremal states as the input alphabet: rotating or
reflecting a measurement only permutes the channel's inputs and outcomes.  The
candidates are the antipodal pair for even n and one triple (0, g1, g1 + g2)
per sorted gap partition g1 <= g2 <= g3 <= n/2, less the triples with a gap of
exactly n/2, whose zero weight leaves the pair's channel plus a zero column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Measurement, Theory, triple_representatives

BA_TOL = 1e-10
BA_MAX_ITER = 100_000

_TINY = 1e-300


class ConvergenceError(RuntimeError):
    """Capacity iteration failed to close its bracket; carries the last iterate."""

    def __init__(self, message: str, capacity_bits: float, prior: np.ndarray, iterations: int):
        super().__init__(message)
        self.capacity_bits = capacity_bits
        self.prior = prior
        self.iterations = iterations

    def __reduce__(self):
        # pickle every field, so that a worker process can send the error back
        return type(self), (str(self), self.capacity_bits, self.prior, self.iterations)


class BAResult(NamedTuple):
    """Best channel of a Blahut-Arimoto stack: its certified lower bound,
    prior and retirement iteration, and its position in the stack."""

    capacity_bits: float
    prior: np.ndarray
    iterations: int
    index: int


@dataclass(frozen=True, eq=False)
class Channel:
    """Discrete channel: input prior and row-stochastic matrix (inputs, outcomes)."""

    prior: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        prior = np.asarray(self.prior, float)
        matrix = np.asarray(self.matrix, float)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or not 1 <= matrix.shape[1] <= 3:
            raise ValueError("channel matrix must be 2-d with at most 3 outcomes")
        if prior.shape != (matrix.shape[0],):
            raise ValueError("prior length does not match the number of inputs")
        if (prior < -1e-12).any() or abs(prior.sum() - 1.0) > 1e-12:
            raise ValueError("prior is not a probability vector")
        if (matrix < -1e-12).any() or np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("matrix rows must be probability vectors")

    def to_dict(self) -> dict:
        return {
            "prior": [float(p) for p in self.prior],
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }


def binary_entropy(p) -> np.ndarray | float:
    """Binary entropy in bits, elementwise, with 0 log 0 = 0."""
    p = np.asarray(p, float)
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log2(q[nz])
    return out if out.ndim else float(out)


def mutual_information_bits(prior, matrix) -> float:
    """Mutual information in bits between input and outcome, 0 log 0 = 0."""
    prior = np.asarray(prior, float)
    matrix = np.asarray(matrix, float)
    joint = prior[:, None] * matrix
    q = joint.sum(axis=0)
    nz = joint > 0
    denom = np.outer(prior, q)
    val = float((joint[nz] * (np.log2(joint[nz]) - np.log2(denom[nz]))).sum())
    return max(val, 0.0)


def mutual_information(channel: Channel) -> float:
    """Mutual information of a channel at its stored prior."""
    return mutual_information_bits(channel.prior, channel.matrix)


def _row_log_entropy(W: np.ndarray) -> np.ndarray:
    """sum_y W log2 W per input row, with 0 log 0 = 0.  Shape (..., inputs)."""
    return np.where(W > 0, W * np.log2(np.maximum(W, _TINY)), 0.0).sum(axis=-1)


def _validate_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def blahut_arimoto(
    matrices,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
    *,
    _floor: float = -math.inf,
) -> BAResult:
    """Largest channel capacity in a stack, by the Blahut-Arimoto ascent.

    ``matrices`` is one channel (inputs, outcomes) or a stack (count, inputs,
    outcomes); every channel starts from the uniform prior and all of them
    iterate together.  Each keeps a bracket: the mutual information achieved
    so far is a lower bound, the smallest max per-input divergence from the
    output marginal an upper bound.  A channel retires when its bracket
    closes to tol or its upper bound falls to the best lower bound in the
    stack, since it can then no longer be the maximum.  The result is the
    best channel's lower bound, within tol of the maximum capacity, its
    prior, the iteration it retired at and its position ``index`` in the
    stack.  ``_floor`` is a lower bound known from outside the stack that
    joins the retirement test; a result at or below it is not certified.
    Raises ConvergenceError, carrying the best channel's last iterate, if
    some bracket stays open after max_iter iterations.
    """
    _validate_tol(tol)
    W = np.asarray(matrices, float)
    if W.ndim not in (2, 3) or 0 in W.shape:
        raise ValueError("expected a nonempty channel (inputs, outcomes) or stack of them")
    if (W < -1e-12).any() or np.abs(W.sum(axis=-1) - 1.0).max() > 1e-9:
        raise ValueError("matrix rows must be probability vectors")
    W = np.clip(W.reshape(-1, *W.shape[-2:]), 0.0, None)
    count, m, _ = W.shape
    wlogw = _row_log_entropy(W)
    # ids, W, wlogw, p and the bounds lo, up hold the channels still iterating
    ids = np.arange(count)
    p = np.full((count, m), 1.0 / m)
    lo = np.full(count, -math.inf)
    up = np.full(count, math.inf)
    lower = np.full(count, -math.inf)
    priors = p.copy()
    retired_at = np.zeros(count, int)
    best = _floor
    for it in range(1, max_iter + 1):
        q = np.einsum("cx,cxy->cy", p, W)
        d = wlogw - np.einsum("cxy,cy->cx", W, np.log2(np.maximum(q, _TINY)))
        dmax = d.max(axis=1, keepdims=True)
        lo = np.maximum(lo, np.einsum("cx,cx->c", p, d))
        up = np.minimum(up, dmax[:, 0])
        best = max(best, float(lo.max()))
        retire = (up - lo <= tol) | (up <= best)
        if retire.any():
            done = ids[retire]
            lower[done], priors[done], retired_at[done] = lo[retire], p[retire], it
            keep = ~retire
            ids, W, wlogw, p, d, dmax, lo, up = (
                a[keep] for a in (ids, W, wlogw, p, d, dmax, lo, up)
            )
            if not len(ids):
                break
        p = p * np.exp2(d - dmax)
        p /= p.sum(axis=1, keepdims=True)
    else:
        lower[ids], priors[ids] = lo, p
        winner = int(np.argmax(lower))
        raise ConvergenceError(
            f"{len(ids)} of {count} channels kept brackets above tol={tol} "
            f"after {max_iter} iterations",
            max(float(lower[winner]), 0.0),
            priors[winner],
            max_iter,
        )
    winner = int(np.argmax(lower))
    return BAResult(max(float(lower[winner]), 0.0), priors[winner], int(retired_at[winner]), winner)


def induced_channel(theory: Theory, measurement: Measurement, states=None, prior=None) -> Channel:
    """Channel induced by sending normalised states (default: all n extremal
    states) into a measurement, at the given prior (default: uniform)."""
    S = theory.states() if states is None else np.atleast_2d(np.asarray(states, float))
    if S.shape[1] != 3:
        raise ValueError("states must be 3-vectors")
    if np.abs(S[:, 2] - 1.0).max() > 1e-9:
        raise ValueError("states must be normalised (third component 1)")
    if prior is None:
        prior = np.full(S.shape[0], 1.0 / S.shape[0])
    prior = np.asarray(prior, float)
    if prior.shape != (S.shape[0],):
        raise ValueError("prior length does not match the number of states")
    return Channel(prior, theory.channel_matrix(measurement, S))


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity of a polygon model with the maximising measurement."""

    n: int
    parity: str
    capacity_bits: float
    measurement: Measurement
    prior: np.ndarray
    support: tuple[int, ...]
    iterations: int

    def __post_init__(self) -> None:
        if not -1e-12 <= self.capacity_bits <= math.log2(3.0) + 1e-9:
            raise ValueError(f"capacity {self.capacity_bits} outside [0, log2(3)]")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "parity": self.parity,
            "capacity_bits": float(self.capacity_bits),
            "measurement": list(self.measurement.indices),
            "weights": [float(w) for w in self.measurement.realized_weights],
            "prior": [float(p) for p in self.prior],
            "support": list(self.support),
            "iterations": self.iterations,
        }


def capacity_candidates(theory: Theory) -> list[Measurement]:
    """One measurement per dihedral orbit: the antipodal pair when n is even,
    then the triple representatives without a gap of exactly n/2.  Such a
    triple has a zero weight, so its channel is the pair's plus a zero column.
    """
    n = theory.n
    pair = [theory.measurement((0, n // 2))] if theory.even else []
    # n - t[2] is the largest gap of a representative (0, g1, g1 + g2)
    triples = [t for t in triple_representatives(theory) if 2 * (n - t[2]) < n]
    return pair + [theory.measurement(t) for t in triples]


def measurement_capacity(
    theory: Theory, indices, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER
) -> BAResult:
    """Capacity of the channel with all n extremal states and one measurement."""
    return blahut_arimoto(theory.channel_matrix(theory.measurement(indices)), tol, max_iter)


def theory_capacity(
    theory: Theory,
    *,
    tol: float = 1e-9,
    max_iter: int = BA_MAX_ITER,
    enumeration_max: int = 64,
) -> CapacityResult:
    """Classical capacity of the model over canonical measurement classes.

    All triple candidates run as one Blahut-Arimoto stack.  For even n the
    antipodal pair runs first and its lower bound joins the stack's
    retirement test, so a triple that cannot beat the pair stops early; the
    pair is reported unless a triple's certified bound lies above it (at
    n = 4 no triple is left).  The reported capacity is certified within tol
    of the true maximum.
    """
    _validate_tol(tol)
    if theory.n > enumeration_max:
        raise ValueError(f"n={theory.n} above the enumeration bound {enumeration_max}")
    S = theory.states()
    cands = capacity_candidates(theory)
    triples = [m for m in cands if len(m.indices) == 3]
    floor = -math.inf
    if theory.even:
        pair = blahut_arimoto(theory.channel_matrix(cands[0], S), tol, max_iter)
        best, winner, floor = pair, cands[0], pair.capacity_bits
    if triples:
        W = np.stack([theory.channel_matrix(m, S) for m in triples])
        stack = blahut_arimoto(W, tol, max_iter, _floor=floor)
        if stack.capacity_bits > floor:
            best, winner = stack, triples[stack.index]

    support = tuple(int(i) for i in np.nonzero(best.prior > 1e-6)[0])
    return CapacityResult(
        n=theory.n,
        parity=theory.parity,
        capacity_bits=best.capacity_bits,
        measurement=winner,
        prior=best.prior,
        support=support,
        iterations=best.iterations,
    )


def antipodal_pair_channel(theory: Theory) -> Channel:
    """Even-n strategy: two antipodal states against the matching effect pair."""
    if not theory.even:
        raise ValueError("the antipodal pair strategy requires even n")
    half = theory.n // 2
    m = theory.measurement((0, half))
    return induced_channel(theory, m, theory.states()[[0, half]], prior=np.array([0.5, 0.5]))


def antipodal_pair_rate(theory: Theory) -> float:
    """Rate of the antipodal pair strategy: exactly one bit for every even n."""
    return mutual_information(antipodal_pair_channel(theory))


def odd_triple_channel(theory: Theory) -> Channel:
    """Odd-n strategy: states 0, (n-1)/2, (n+1)/2 against the completed triple.

    The measurement is the unique nonnegative weight completion on the same
    three indices; the stored prior is (1/2, 1/4, 1/4).
    """
    if theory.even:
        raise ValueError("the triple strategy requires odd n")
    m = (theory.n - 1) // 2
    meas = theory.measurement((0, m, m + 1))
    states = theory.states()[[0, m, m + 1]]
    return induced_channel(theory, meas, states, prior=np.array([0.5, 0.25, 0.25]))


def odd_triple_rate(theory: Theory, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> float:
    """Capacity of the odd-n triple strategy channel (prior optimised).

    Equals log2(3) at n=3 and decreases strictly towards one bit; always
    strictly above one bit.  The mutual information at the stored prior of
    ``odd_triple_channel`` is strictly smaller for n > 3.
    """
    channel = odd_triple_channel(theory)
    return blahut_arimoto(channel.matrix, tol=tol, max_iter=max_iter).capacity_bits
