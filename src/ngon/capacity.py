"""Classical channel capacities of polygon models.

A choice of input states and a canonical measurement induce a discrete
memoryless channel whose entries are effect-state overlaps.  Capacity is
computed with the Blahut-Arimoto ascent, which keeps a certified bracket
around the optimum: at every iterate the achieved mutual information is a
lower bound and the largest per-input divergence from the output marginal is
an upper bound.

``theory_capacity`` maximises the capacity over one representative of every
rotation class of canonical measurements (first index pinned to 0, plus the
antipodal pair for even n) with all n extremal states as the input alphabet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    DegenerateTripleError,
    InfeasibleMeasurementError,
    Measurement,
    Theory,
)

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


class BAResult(NamedTuple):
    capacity_bits: float
    prior: np.ndarray
    iterations: int
    objective: tuple | None = None


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
    matrix,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
    record_objective: bool = False,
) -> BAResult:
    """Channel capacity by the Blahut-Arimoto ascent from the uniform prior.

    Stops when the bracket (max per-input divergence minus achieved mutual
    information) is at most tol; the returned capacity is the achieved lower
    bound, so it is within tol of the true capacity.  The achieved objective
    is nondecreasing across iterations.  Raises ConvergenceError, carrying
    the last iterate, if the bracket fails to close within max_iter.
    """
    _validate_tol(tol)
    W = np.asarray(matrix, float)
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise ValueError("channel matrix must be 2-d and nonempty")
    if (W < -1e-12).any() or np.abs(W.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("matrix rows must be probability vectors")
    W = np.clip(W, 0.0, None)
    m = W.shape[0]
    p = np.full(m, 1.0 / m)
    wlogw = _row_log_entropy(W)
    lower = -math.inf
    upper = math.inf
    trajectory: list[float] = []
    for it in range(1, max_iter + 1):
        q = p @ W
        d = wlogw - W @ np.log2(np.maximum(q, _TINY))
        achieved = float(p @ d)
        lower = max(lower, achieved)
        upper = min(upper, float(d.max()))
        if record_objective:
            trajectory.append(achieved)
        if upper - lower <= tol:
            return BAResult(max(lower, 0.0), p, it, tuple(trajectory) if record_objective else None)
        p = p * np.exp2(d - d.max())
        p /= p.sum()
    raise ConvergenceError(
        f"capacity bracket {upper - lower:.3e} above tol={tol} after {max_iter} iterations",
        max(lower, 0.0),
        p,
        max_iter,
    )


def induced_channel(states, measurement: Measurement, prior=None) -> Channel:
    """Channel induced by sending the given normalised states into a measurement."""
    S = np.atleast_2d(np.asarray(states, float))
    if S.shape[1] != 3:
        raise ValueError("states must be 3-vectors")
    if np.abs(S[:, 2] - 1.0).max() > 1e-9:
        raise ValueError("states must be normalised (third component 1)")
    if prior is None:
        prior = np.full(S.shape[0], 1.0 / S.shape[0])
    prior = np.asarray(prior, float)
    if prior.shape != (S.shape[0],):
        raise ValueError("prior length does not match the number of states")
    P = np.clip(S @ measurement.effects.T, 0.0, 1.0)
    return Channel(prior, P)


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
    """One measurement per rotation class: feasible triples with first index 0,
    preceded by the antipodal pair when n is even."""
    cands: list[Measurement] = []
    if theory.even:
        cands.append(theory.measurement((0, theory.n // 2)))
    for j2, j3 in itertools.combinations(range(1, theory.n), 2):
        try:
            cands.append(theory.measurement((0, j2, j3)))
        except (InfeasibleMeasurementError, DegenerateTripleError):
            continue
    return cands


def measurement_capacity(
    theory: Theory, indices, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER
) -> BAResult:
    """Capacity of the channel with all n extremal states and one measurement."""
    m = theory.measurement(indices)
    W = np.clip(theory.states() @ m.effects.T, 0.0, 1.0)
    return blahut_arimoto(W, tol=tol, max_iter=max_iter)


def theory_capacity(
    theory: Theory,
    *,
    tol: float = 1e-9,
    max_iter: int = BA_MAX_ITER,
    enumeration_max: int = 64,
) -> CapacityResult:
    """Classical capacity of the model over canonical measurement classes.

    Runs Blahut-Arimoto on every candidate channel simultaneously, retiring a
    candidate once its bracket closes to tol or its upper bound falls below
    the best lower bound seen so far (it can no longer be the argmax).  The
    reported capacity is certified within tol of the true maximum.
    """
    _validate_tol(tol)
    if theory.n > enumeration_max:
        raise ValueError(f"n={theory.n} above the enumeration bound {enumeration_max}")
    S = theory.states()
    cands = capacity_candidates(theory)
    best_value = -math.inf
    best_idx = -1
    best_prior: np.ndarray | None = None
    best_iters = 0
    triples = [m for m in cands if len(m.indices) == 3]
    if theory.even:
        pair = cands[0]
        res = blahut_arimoto(
            np.clip(S @ pair.effects.T, 0.0, 1.0), tol=tol, max_iter=max_iter
        )
        best_value, best_idx, best_prior, best_iters = res.capacity_bits, 0, res.prior, res.iterations

    if triples:
        W = np.stack([np.clip(S @ m.effects.T, 0.0, 1.0) for m in triples])
        value, idx, prior, iters = _max_capacity_batched(W, tol, max_iter, best_value)
        if value > best_value:
            offset = 1 if theory.even else 0
            best_value, best_idx, best_prior, best_iters = value, idx + offset, prior, iters

    winner = cands[best_idx]
    support = tuple(int(i) for i in np.nonzero(best_prior > 1e-6)[0])
    return CapacityResult(
        n=theory.n,
        parity=theory.parity,
        capacity_bits=max(best_value, 0.0),
        measurement=winner,
        prior=best_prior,
        support=support,
        iterations=best_iters,
    )


def _max_capacity_batched(W: np.ndarray, tol: float, max_iter: int, init_lower: float):
    """Max capacity over stacked channels W (count, inputs, outcomes).

    Returns (value, winner_index, winner_prior, winner_iterations).  Keeps
    per-channel lower/upper brackets; a channel is dropped once its best
    upper bound cannot beat the global lower bound.
    """
    count, m, _ = W.shape
    wlogw = _row_log_entropy(W)
    ids = np.arange(count)
    p = np.full((count, m), 1.0 / m)
    lower = np.full(count, -math.inf)
    upper = np.full(count, math.inf)
    retired_iter = np.zeros(count, int)
    priors = np.full((count, m), 1.0 / m)
    global_lower = init_lower
    Wa, wlogwa, pa = W, wlogw, p
    for it in range(1, max_iter + 1):
        q = np.einsum("cx,cxy->cy", pa, Wa)
        d = wlogwa - np.einsum("cxy,cy->cx", Wa, np.log2(np.maximum(q, _TINY)))
        achieved = np.einsum("cx,cx->c", pa, d)
        lower[ids] = np.maximum(lower[ids], achieved)
        upper[ids] = np.minimum(upper[ids], d.max(axis=1))
        global_lower = max(global_lower, float(lower[ids].max()))
        closed = (upper[ids] - lower[ids]) <= tol
        dominated = upper[ids] <= global_lower
        drop = closed | dominated
        if drop.any():
            priors[ids[drop]] = pa[drop]
            retired_iter[ids[drop]] = it
            keep = ~drop
            if not keep.any():
                break
            ids = ids[keep]
            Wa, wlogwa, pa, d = Wa[keep], wlogwa[keep], pa[keep], d[keep]
        if it == max_iter and len(ids):
            raise ConvergenceError(
                f"{len(ids)} candidate channels kept brackets above tol={tol} "
                f"after {max_iter} iterations",
                float(lower.max()),
                priors[int(np.argmax(lower))],
                max_iter,
            )
        pa = pa * np.exp2(d - d.max(axis=1, keepdims=True))
        pa /= pa.sum(axis=1, keepdims=True)
    winner = int(np.argmax(lower))
    return float(lower[winner]), winner, priors[winner], int(retired_iter[winner])


def antipodal_pair_channel(theory: Theory) -> Channel:
    """Even-n strategy: two antipodal states against the matching effect pair."""
    if not theory.even:
        raise ValueError("the antipodal pair strategy requires even n")
    half = theory.n // 2
    m = theory.measurement((0, half))
    states = np.stack([theory.state(0), theory.state(half)])
    return induced_channel(states, m, prior=np.array([0.5, 0.5]))


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
    states = np.stack([theory.state(0), theory.state(m), theory.state(m + 1)])
    return induced_channel(states, meas, prior=np.array([0.5, 0.25, 0.25]))


def odd_triple_rate(theory: Theory, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> float:
    """Capacity of the odd-n triple strategy channel (prior optimised).

    Equals log2(3) at n=3 and decreases strictly towards one bit; always
    strictly above one bit.  The mutual information at the stored prior of
    ``odd_triple_channel`` is strictly smaller for n > 3.
    """
    channel = odd_triple_channel(theory)
    return blahut_arimoto(channel.matrix, tol=tol, max_iter=max_iter).capacity_bits
