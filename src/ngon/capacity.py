"""Classical channel capacities of polygon models.

A choice of input states and a canonical measurement induce a discrete
memoryless channel whose entries are effect-state overlaps.  Capacity is
computed with the Blahut-Arimoto ascent, which keeps a certified bracket
around the optimum: at any prior the achieved mutual information is a lower
bound and the largest per-input divergence from the output marginal is an
upper bound.  At iterations 1, 2, 4, 8, ... the ascent is polished: the
capacity KKT conditions are solved on the few inputs the iterate points to
(at most one per outcome; in closed form on a square support, by a safeguarded
Newton search on a pair), and the solution joins the bracket as a separate
certificate prior.  Every polygon capacity closes this way at iteration 1.

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

from .geometry import PROB_TOL, ROUNDOFF, Measurement, Theory, _realize_triples, triple_representatives

BA_TOL = 1e-10
BA_MAX_ITER = 100_000
ENUMERATION_MAX = 64

_TINY = 1e-300
_SUPPORT_WEIGHT = 1e-6  # inputs with more prior weight are reported as support
_PAIR_STEPS = 60


class ConvergenceError(RuntimeError):
    """Capacity iteration failed to close its bracket; carries the last iterate."""

    def __init__(self, message: str, capacity_bits: float, prior: np.ndarray, iterations: int):
        super().__init__(message)
        self.capacity_bits = capacity_bits
        self.prior = prior
        self.iterations = iterations


class BAResult(NamedTuple):
    """Best channel of a Blahut-Arimoto stack: its certified lower bound, the
    prior attaining it, the iteration at which the certified bracket closed,
    polish steps included, and its position in the stack."""

    capacity_bits: float
    prior: np.ndarray
    iterations: int
    index: int


def binary_entropy(p) -> np.ndarray | float:
    """Binary entropy in bits, elementwise, with 0 log 0 = 0."""
    p = np.asarray(p, float)
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log2(q[nz])
    return out if out.ndim else float(out)


def mutual_information_bits(prior, matrix) -> float | np.ndarray:
    """Mutual information in bits between input and outcome, 0 log 0 = 0.

    Takes one prior (inputs,) with its channel (inputs, outcomes), giving a
    float, or a stack (..., inputs) with (..., inputs, outcomes), giving an
    array of the stack's shape.  Each item has the bits of its single call,
    and rows of zero prior weight may pad the shorter items of a stack.
    """
    prior = np.asarray(prior, float)
    matrix = np.asarray(matrix, float)
    joint = prior[..., :, None] * matrix
    q = joint.sum(axis=-2)
    nz = joint > 0
    denom = prior[..., :, None] * q[..., None, :]
    terms = joint[nz] * (np.log2(joint[nz]) - np.log2(denom[nz]))
    # each item's terms are contiguous; summing them alone keeps the pairwise
    # grouping of the single call, which a zero-padded stacked sum would not
    ends = np.cumsum(nz.reshape(-1, joint.shape[-2] * joint.shape[-1]).sum(axis=1))
    values = [max(float(part.sum()), 0.0) for part in np.split(terms, ends[:-1])]
    return values[0] if joint.ndim == 2 else np.array(values).reshape(joint.shape[:-2])


def _row_log_entropy(W: np.ndarray) -> np.ndarray:
    """sum_y W log2 W per input row, with 0 log 0 = 0.  Shape (..., inputs)."""
    return np.where(W > 0, W * np.log2(np.maximum(W, _TINY)), 0.0).sum(axis=-1)


def _divergences(W: np.ndarray, wlogw: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(W_x || pW) in bits for every input row of a stack.

    ``p`` is (count, inputs) or carries leading axes of candidate priors,
    (..., count, inputs); the result has the shape of ``p``.
    """
    q = np.einsum("...cx,cxy->...cy", p, W)
    return wlogw - np.einsum("cxy,...cy->...cx", W, np.log2(np.maximum(q, _TINY)))


def _column_groups(W: np.ndarray):
    """Rows and non-zero outcome columns of each column pattern in a stack.

    A zero column would make every square block singular, so the KKT
    systems are solved on the non-zero columns of each group.  Only groups
    with 2 or 3 non-zero columns are yielded; a single column carries no
    information, and wider channels are left to the plain iteration.
    """
    groups: dict[tuple, list[int]] = {}
    for row, key in enumerate(map(tuple, (W.max(axis=1) > 0).tolist())):
        groups.setdefault(key, []).append(row)
    for key, rows in groups.items():
        cols = np.flatnonzero(key)
        if 2 <= len(cols) <= 3:
            yield np.array(rows), cols


def _leaders(p: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The input each outcome column decodes to, argmax_x p_x W_xy.  Shape (count, outcomes)."""
    return np.stack([np.argmax(p * W[:, :, y], axis=1) for y in range(W.shape[2])], axis=1)


def _repeats(support: np.ndarray) -> np.ndarray:
    """True where an entry of a support row repeats an earlier one.  Shape (count, k)."""
    k = support.shape[1]
    return ((support[:, :, None] == support[:, None, :]) & np.tri(k, k, -1, bool)).any(axis=2)


def _adjugate(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants of a stack of 2x2 or 3x3 matrices."""
    if M.shape[1] == 2:
        adj = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]], axis=1)
        return adj.reshape(-1, 2, 2), M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    r0, r1, r2 = M[:, 0], M[:, 1], M[:, 2]
    adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=2)
    return adj, np.einsum("cy,cy->c", r0, adj[:, :, 0])


def _square_priors(W, wlogw, priors, sel, cols, support) -> np.ndarray:
    """Solve the capacity KKT system on square supports; returns which are valid.

    For the channels ``sel`` with non-zero columns ``cols`` (2 or 3),
    ``support`` (len(sel), k) names one input per column.  When the inputs
    are distinct and W_S is nonsingular, every x in S has divergence C from
    the output law q exactly when a = W_S^-1 h with
    h_x = sum_y W_xy log2 W_xy (the rows of W sum to 1, so
    a_y = log2 q_y + C); then C = log2 sum_y 2^a_y, q = 2^(a-C), and
    p_S W_S = q.  The inverse is the adjugate over the determinant.  A
    finite, nonnegative p_S is valid and is written into ``priors[sel]``.
    """
    adj, det = _adjugate(W[sel[:, None, None], support[:, :, None], cols])
    ok = ~_repeats(support).any(axis=1) & (det != 0)
    det = np.where(ok, det, 1.0)[:, None]
    a = np.einsum("cys,cs->cy", adj, wlogw[sel[:, None], support]) / det
    q = np.exp2(a - a.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    pS = np.einsum("cy,cys->cs", q, adj) / det
    ok &= np.isfinite(pS).all(axis=1) & (pS >= 0).all(axis=1)
    good = sel[ok]
    priors[good[:, None], support[ok]] = pS[ok] / pS[ok].sum(axis=1, keepdims=True)
    return ok


def _pair_priors(W: np.ndarray, wlogw: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The best prior on each channel's pair of inputs ``pair`` (count, 2).

    On the segment t W_a + (1 - t) W_b the mutual information is concave in
    t with derivative f(t) = D(W_a || q) - D(W_b || q), so its maximiser is
    the root of f in [0, 1], found by Newton steps kept inside a bisection
    bracket.
    """
    W2 = np.take_along_axis(W, pair[:, :, None], axis=1)
    h2 = np.take_along_axis(wlogw, pair, axis=1)
    dW = W2[:, 0] - W2[:, 1]
    low, high = np.zeros(len(W)), np.ones(len(W))
    t = np.full(len(W), 0.5)
    for _ in range(_PAIR_STEPS):
        mix = np.stack([t, 1.0 - t], axis=1)
        d = _divergences(W2, h2, mix)
        f = d[:, 0] - d[:, 1]
        low, high = np.where(f > 0, t, low), np.where(f > 0, high, t)
        # -f'(t) = sum_y (W_ay - W_by)^2 / q_y / ln 2
        q = np.maximum(np.einsum("cx,cxy->cy", mix, W2), _TINY)
        step = f * math.log(2.0) / np.maximum((dW * dW / q).sum(axis=1), _TINY)
        moved = np.where((t + step > low) & (t + step < high), t + step, 0.5 * (low + high))
        if np.array_equal(moved, t):
            break
        t = moved
    priors = np.zeros(W.shape[:2])
    np.put_along_axis(priors, pair, np.stack([t, 1.0 - t], axis=1), axis=1)
    return priors


def _leader_priors(W: np.ndarray, wlogw: np.ndarray, p: np.ndarray, d: np.ndarray):
    """First polish: the KKT system on the inputs the outcomes decode to.
    Returns (valid, priors), shaped (1, count) and (1, count, inputs)."""
    count, m, _ = W.shape
    valid, priors = np.zeros((1, count), bool), np.zeros((1, count, m))
    leaders = _leaders(p, W)
    for sel, cols in _column_groups(W):
        valid[0, sel] = _square_priors(W, wlogw, priors[0], sel, cols, leaders[sel][:, cols])
    return valid, priors


def _fallback_priors(W: np.ndarray, wlogw: np.ndarray, p: np.ndarray, d: np.ndarray):
    """Second polish, for channels whose leaders gave no valid prior.

    Two guesses per channel: the KKT system on the k inputs of largest
    divergence ``d`` (k non-zero columns), for leaders that name one input
    twice, and the best prior on a pair of inputs, for an optimum on fewer
    inputs than outcomes: the leaders when they name exactly two inputs,
    else the two inputs of largest divergence.  Returns (valid, priors),
    shaped (2, count) and (2, count, inputs).
    """
    count, m, _ = W.shape
    valid, priors = np.zeros((2, count), bool), np.zeros((2, count, m))
    if m < 2:
        return valid, priors
    order = np.argsort(d, axis=1)
    pairs = order[:, -2:].copy()
    leaders = _leaders(p, W)
    for sel, cols in _column_groups(W):
        k = len(cols)
        lead = leaders[sel][:, cols]
        two = k - _repeats(lead).sum(axis=1) == 2
        other = np.where(lead[:, 1] != lead[:, 0], lead[:, 1], lead[:, -1])
        pairs[sel[two]] = np.stack([lead[two, 0], other[two]], axis=1)
        if k <= m:
            valid[0, sel] = _square_priors(W, wlogw, priors[0], sel, cols, order[sel, -k:])
    valid[1], priors[1] = True, _pair_priors(W, wlogw, pairs)
    return valid, priors


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
    iterate together.  Each keeps a bracket: the largest mutual information
    at a prior seen so far is a lower bound, the smallest max per-input
    divergence from that prior's output law an upper bound (Gallager 1968,
    Thm 4.5.1).  At iterations 1, 2, 4, 8, ... every channel still open is
    polished: the capacity KKT system is solved in closed form on the
    inputs its outcomes decode to, argmax_x p_x W_xy, and a nonnegative
    solution is a certificate prior whose bounds join the bracket.  A
    channel that gets no such prior tries the inputs of largest divergence
    and the best prior on a pair of inputs instead.  Certificate priors
    never replace the iterate.  A channel retires when its bracket closes
    to tol or its upper bound falls to the best lower bound in the stack,
    since it can then no longer be the maximum.  The result is the best
    channel's lower bound, within tol of the maximum capacity, the prior
    that attains it, ``iterations``, the iteration at which the certified
    bracket closed, polish steps included, and the channel's position
    ``index`` in the stack.  ``_floor`` is a lower bound known from outside
    the stack that joins the retirement test; a result at or below it is
    not certified.  Raises ConvergenceError, carrying the best channel's
    lower bound and last iterate, if some bracket stays open after max_iter
    iterations.
    """
    _validate_tol(tol)
    W = np.asarray(matrices, float)
    if W.ndim not in (2, 3) or 0 in W.shape:
        raise ValueError("expected a nonempty channel (inputs, outcomes) or stack of them")
    if (W < -ROUNDOFF).any() or np.abs(W.sum(axis=-1) - 1.0).max() > PROB_TOL:
        raise ValueError("matrix rows must be probability vectors")
    W = np.clip(W.reshape(-1, *W.shape[-2:]), 0.0, None)
    count, m, _ = W.shape
    wlogw = _row_log_entropy(W)
    # ids, W, wlogw, p, the bounds lo, up and the certificate priors cert hold
    # the channels still iterating; certified marks a lo attained at cert
    ids = np.arange(count)
    p = np.full((count, m), 1.0 / m)
    lo = np.full(count, -math.inf)
    up = np.full(count, math.inf)
    cert = np.zeros((count, m))
    certified = np.zeros(count, bool)
    lower = np.full(count, -math.inf)
    priors = p.copy()
    retired_at = np.zeros(count, int)
    best = _floor
    for it in range(1, max_iter + 1):
        d = _divergences(W, wlogw, p)
        dmax = d.max(axis=1, keepdims=True)
        info = np.einsum("cx,cx->c", p, d)
        certified &= info <= lo
        lo = np.maximum(lo, info)
        up = np.minimum(up, dmax[:, 0])
        best = max(best, float(lo.max()))
        retire = (up - lo <= tol) | (up <= best)
        if it & (it - 1) == 0:
            # polish the channels still open; the fallback only takes those
            # the leaders gave no valid prior
            fresh = ~retire
            for polish in (_leader_priors, _fallback_priors):
                rows = np.flatnonzero(fresh & ~retire)
                if not len(rows):
                    break
                # a slice keeps the common case, every channel open, free of copies
                sub = slice(None) if len(rows) == len(ids) else rows
                Wr, hr = W[sub], wlogw[sub]
                valid, prior = polish(Wr, hr, p[sub], d[sub])
                fresh[rows[valid.any(axis=0)]] = False
                dc = _divergences(Wr, hr, prior)
                info = np.where(valid, np.einsum("rcx,rcx->rc", prior, dc), -math.inf)
                pick = np.argmax(info, axis=0)
                prior, info = prior[pick, np.arange(len(rows))], info.max(axis=0)
                gain = info > lo[rows]
                lo[rows[gain]], cert[rows[gain]], certified[rows[gain]] = info[gain], prior[gain], True
                up[rows] = np.minimum(up[rows], np.where(valid, dc.max(axis=2), math.inf).min(axis=0))
                best = max(best, float(lo.max()))
                retire = (up - lo <= tol) | (up <= best)
        if retire.any():
            done = ids[retire]
            lower[done], retired_at[done] = lo[retire], it
            priors[done] = np.where(certified[retire, None], cert[retire], p[retire])
            keep = ~retire
            ids, W, wlogw, p, d, dmax, lo, up, cert, certified = (
                a[keep] for a in (ids, W, wlogw, p, d, dmax, lo, up, cert, certified)
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
    # a copy, so that a kept result does not hold the whole stack's priors
    prior = priors[winner].copy()
    return BAResult(max(float(lower[winner]), 0.0), prior, int(retired_at[winner]), winner)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity of a polygon model with the maximising measurement.

    ``iterations`` is the iteration at which the winner's certified bracket
    closed, polish steps included.
    """

    n: int
    parity: str
    capacity_bits: float
    measurement: Measurement
    prior: np.ndarray
    support: tuple[int, ...]
    iterations: int

    def __post_init__(self) -> None:
        if not -ROUNDOFF <= self.capacity_bits <= math.log2(3.0) + PROB_TOL:
            raise ValueError(f"capacity {self.capacity_bits} outside [0, log2(3)]")


def capacity_candidates(theory: Theory) -> list[Measurement]:
    """One measurement per dihedral orbit: the antipodal pair when n is even,
    then the triple representatives without a gap of exactly n/2.  Such a
    triple has a zero weight, so its channel is the pair's plus a zero column.
    """
    n = theory.n
    pair = [theory.measurement((0, n // 2))] if theory.even else []
    # n - t[2] is the largest gap of a representative (0, g1, g1 + g2)
    triples = [t for t in triple_representatives(theory) if 2 * (n - t[2]) < n]
    mu, effects = _realize_triples(n, triples)
    return pair + [Measurement(t, tuple(w), e) for t, w, e in zip(triples, mu.tolist(), effects)]


def theory_capacity(theory: Theory, *, tol: float = BA_TOL) -> CapacityResult:
    """Classical capacity of the model over canonical measurement classes.

    All triple candidates run as one Blahut-Arimoto stack.  For even n the
    antipodal pair runs first and its lower bound joins the stack's
    retirement test, so a triple that cannot beat the pair stops early; the
    pair is reported unless a triple's certified bound lies above it (at
    n = 4 no triple is left).  The reported capacity is certified within tol
    of the true maximum.  n above ENUMERATION_MAX is refused, and every
    bracket gets BA_MAX_ITER iterations; both are read at call time.
    """
    _validate_tol(tol)
    if theory.n > ENUMERATION_MAX:
        raise ValueError(f"n={theory.n} above the enumeration bound {ENUMERATION_MAX}")
    S = theory.states()
    cands = capacity_candidates(theory)
    triples = [m for m in cands if len(m.indices) == 3]
    floor = -math.inf
    if theory.even:
        pair = blahut_arimoto(theory.channel_matrix(cands[0], S), tol, BA_MAX_ITER)
        best, winner, floor = pair, cands[0], pair.capacity_bits
    if triples:
        W = theory.channel_matrix(np.stack([m.effects for m in triples]), S)
        stack = blahut_arimoto(W, tol, BA_MAX_ITER, _floor=floor)
        if stack.capacity_bits > floor:
            best, winner = stack, triples[stack.index]

    support = tuple(int(i) for i in np.nonzero(best.prior > _SUPPORT_WEIGHT)[0])
    return CapacityResult(
        n=theory.n,
        parity=theory.parity,
        capacity_bits=best.capacity_bits,
        measurement=winner,
        prior=best.prior,
        support=support,
        iterations=best.iterations,
    )


def antipodal_pair_rate(theory: Theory) -> float:
    """Rate of the even-n strategy at the uniform prior: states 0 and n/2
    against the matching antipodal effect pair carry exactly one bit."""
    if not theory.even:
        raise ValueError("the antipodal pair strategy requires even n")
    half = theory.n // 2
    matrix = theory.channel_matrix(theory.measurement((0, half)), theory.states()[[0, half]])
    return mutual_information_bits(np.array([0.5, 0.5]), matrix)


def odd_triple_rate(theory: Theory) -> float:
    """Capacity of the odd-n strategy: states 0, (n-1)/2, (n+1)/2 against the
    completed measurement on the same three indices, prior optimised.

    Equals log2(3) at n=3 and decreases strictly towards one bit; always
    strictly above one bit.
    """
    if theory.even:
        raise ValueError("the triple strategy requires odd n")
    m = (theory.n - 1) // 2
    idx = [0, m, m + 1]
    matrix = theory.channel_matrix(theory.measurement(idx), theory.states()[idx])
    return blahut_arimoto(matrix).capacity_bits
