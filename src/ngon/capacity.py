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
certificate prior.  ``blahut_arimoto`` runs the ascent on one stack of
channels and closes every bracket to BA_TOL within BA_MAX_ITER iterations,
both read at call time; no caller sets either.

``theory_capacities`` needs no ascent.  It maximises the capacity over one
canonical measurement per dihedral orbit, with all n extremal states as the
input alphabet: rotating or reflecting a measurement only permutes the
channel's inputs and outcomes.  The candidates are the antipodal pair for
even n and one triple (0, g1, g1 + g2) per sorted gap partition
g1 <= g2 <= g3 <= n/2, less the triples with a gap of exactly n/2, whose zero
weight leaves the pair's channel plus a zero column.  The winner has a
closed form: for even n the pair carries 1 bit at the prior 1/2 on the first
saturating states of its two effects; for odd n the orbit of (0, 1, m + 1),
m = (n - 1)/2, is a noiseless symbol beside a binary symmetric channel, with
capacity log2(1 + 2^(1 - h(eps))), eps = 1 - 1/(2 cos(pi/n)).  Per size one
solve realises every candidate and one pass certifies the result: the
winner's bracket at its closed-form prior closes to BA_TOL, and every losing
orbit's dual bound max_x D(W_x || q), q the output law of the uniform prior
(Gallager 1968, Thm 4.5.1), lies strictly below the winner's lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    PROB_TOL,
    ROUNDOFF,
    Measurement,
    ResourceBoundError,
    Theory,
    _realize_triples,
    triple_representatives,
)

BA_TOL = 1e-10
BA_MAX_ITER = 100_000
ENUMERATION_MAX = 64

_TINY = 1e-300
_SUPPORT_WEIGHT = 1e-6  # inputs with more prior weight are reported as support
_PAIR_STEPS = 60
_LN2 = math.log(2.0)


class ConvergenceError(RuntimeError):
    """A capacity bracket failed to close, or a polygon capacity failed its
    certificate; carries the last iterate, or the closed-form winner."""

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
    """sum_y W log2 W per input row, with 0 log 0 = 0.  Shape (..., inputs).
    The terms are built in one buffer the size of W."""
    terms = np.maximum(W, _TINY)
    np.log2(terms, out=terms)
    terms *= W
    terms[W == 0] = 0.0
    return terms.sum(axis=-1)


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
    adj = np.stack([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)], axis=2)
    return adj, np.einsum("cy,cy->c", r0, adj[:, :, 0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (count, 3) stacks: the products and
    differences of ``np.cross`` in its order, without its axis handling."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


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
    # the einsums below sum in an order set by their operands' memory layout;
    # a C-ordered support keeps it the same for every stack a channel is in
    support = np.ascontiguousarray(support)
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
    shaped (2, count) and (2, count, inputs).  A stack with fewer than k
    inputs gets no square guess.
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


def blahut_arimoto(matrices) -> BAResult:
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
    to BA_TOL or its upper bound falls to the best lower bound in the stack,
    since it can then no longer be the maximum.  The result is the best
    channel's lower bound, within BA_TOL of the maximum capacity, the prior
    that attains it, ``iterations``, the iteration at which the certified
    bracket closed, polish steps included, and the channel's position
    ``index`` in the stack.  Raises ConvergenceError, carrying the best
    channel's lower bound and last iterate, if some bracket stays open
    after BA_MAX_ITER iterations.  BA_TOL and BA_MAX_ITER are read at call
    time.
    """
    W = np.asarray(matrices, float)
    if W.ndim not in (2, 3) or 0 in W.shape:
        raise ValueError("expected a nonempty channel (inputs, outcomes) or stack of them")
    # written so that a NaN fails it
    if not ((W >= -ROUNDOFF).all() and np.abs(W.sum(axis=-1) - 1.0).max() <= PROB_TOL):
        raise ValueError("matrix rows must be probability vectors")
    # the einsums sum in an order set by their operands' memory layout
    return _bracket(np.ascontiguousarray(np.clip(W.reshape(-1, *W.shape[-2:]), 0.0, None)))


def _bracket(W: np.ndarray) -> BAResult:
    """The ascent of ``blahut_arimoto`` on a nonnegative stack (count, inputs, outcomes)."""
    count, m, _ = W.shape
    p = np.full((count, m), 1.0 / m)
    wlogw = _row_log_entropy(W)
    # ids, W, wlogw, p, the bounds lo, up and the certificate priors cert hold
    # the channels still iterating; certified marks a lo attained at cert
    ids = np.arange(count)
    lo = np.full(count, -math.inf)
    up = np.full(count, math.inf)
    cert = np.zeros((count, m))
    certified = np.zeros(count, bool)
    lower = np.full(count, -math.inf)
    priors = p.copy()
    retired_at = np.zeros(count, int)
    best = -math.inf
    for it in range(1, BA_MAX_ITER + 1):
        d = _divergences(W, wlogw, p)
        dmax = d.max(axis=1, keepdims=True)
        info = _mean_divergence(p, d)
        certified &= info <= lo
        lo = np.maximum(lo, info)
        up = np.minimum(up, dmax[:, 0])
        best = max(best, lo.max())
        retire = (up - lo <= BA_TOL) | (up <= best)
        if it & (it - 1) == 0:
            # polish the channels still open; the fallback only takes those
            # the leaders gave no valid prior
            fresh = ~retire
            for polish in (_leader_priors, _fallback_priors):
                rows = np.flatnonzero(fresh & ~retire)
                if not len(rows):
                    break
                fresh[rows[_polish(polish, rows, W, wlogw, p, d, lo, up, cert, certified)]] = False
                best = max(best, lo.max())
                retire = (up - lo <= BA_TOL) | (up <= best)
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
    bits = max(float(lower[winner]), 0.0)
    # a copy, so that a kept result does not hold the whole stack's priors
    prior = priors[winner].copy()
    if len(ids):
        message = f"{len(ids)} of {count} channels kept brackets above tol={BA_TOL} after {BA_MAX_ITER} iterations"
        raise ConvergenceError(message, bits, prior, BA_MAX_ITER)
    return BAResult(bits, prior, int(retired_at[winner]), winner)


def _polish(polish, rows, W, wlogw, p, d, lo, up, cert, certified) -> np.ndarray:
    """Run ``polish`` on the open channels ``rows`` and let its valid priors
    join their brackets: lo, up, cert and certified are updated in place.
    Returns which of ``rows`` got a valid prior."""
    # a slice keeps the common case, every channel open, free of copies
    sub = slice(None) if len(rows) == len(W) else rows
    Wr, hr = W[sub], wlogw[sub]
    valid, prior = polish(Wr, hr, p[sub], d[sub])
    dc = _divergences(Wr, hr, prior)
    info = np.where(valid, _mean_divergence(prior, dc), -math.inf)
    pick = np.argmax(info, axis=0)
    prior, info = prior[pick, np.arange(len(rows))], info.max(axis=0)
    gain = info > lo[rows]
    lo[rows[gain]], cert[rows[gain]], certified[rows[gain]] = info[gain], prior[gain], True
    up[rows] = np.minimum(up[rows], np.where(valid, dc.max(axis=-1), math.inf).min(axis=0))
    return valid.any(axis=0)


def _mean_divergence(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_x p_x d_x per channel, the mutual information at p."""
    return np.einsum("...x,...x->...", p, d)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity of a polygon model with the maximising measurement.

    ``capacity_bits`` is the mutual information of the winning measurement
    at its closed-form ``prior``, certified within BA_TOL of the capacity.
    ``iterations`` counts the one certificate pass, so it reads 1.
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


def capacity_candidates(theory: Theory) -> list[tuple[int, ...]]:
    """Indices of one measurement per dihedral orbit: the antipodal pair when
    n is even, then the triple representatives without a gap of exactly n/2.
    Such a triple has a zero weight, so its channel is the pair's plus a zero
    column.
    """
    n = theory.n
    pair = [(0, n // 2)] if theory.even else []
    # n - t[2] is the largest gap of a representative (0, g1, g1 + g2)
    return pair + [t for t in triple_representatives(theory) if 2 * (n - t[2]) < n]


def theory_capacities(theories) -> list[CapacityResult]:
    """Classical capacity of each model over canonical measurement classes.

    Each size is certified on its own, with no ascent: the winner among the
    orbits of ``capacity_candidates`` is the closed form of the module
    docstring, reported at its closed-form prior, and every other orbit's
    dual bound lies strictly below it.  The first n above ENUMERATION_MAX is
    refused when it is reached, before any size is certified; it and BA_TOL
    are read at call time.  A size whose winner is missing from its
    candidates, whose winner's bracket is wider than BA_TOL or whose losing
    orbit is not certified below the winner raises ConvergenceError, naming
    n (and the orbit), with the winner's bits and prior.
    """
    sizes = []
    for t in theories:
        if t.n > ENUMERATION_MAX:
            raise ResourceBoundError(f"n={t.n} above the enumeration bound {ENUMERATION_MAX}")
        sizes.append(t)
    return [_certificate(t)[0] for t in sizes]


def _certificate(theory: Theory) -> tuple[CapacityResult, float, tuple[int, ...] | None]:
    """The certified capacity of one model, with the largest dual bound of a
    losing orbit and that orbit; -inf and None when no other orbit is a
    candidate.

    One solve realises every candidate, the pair as the triple (0, n/2, 1)
    with weight exactly 0 on index 1, and one pass takes the divergences of
    every channel from its output law: at the winner's closed-form prior,
    which gives its bracket, and at the uniform prior for the others.
    """
    n, half = theory.n, theory.n // 2
    prior = np.zeros(n)
    if theory.even:
        # the first saturating states of effects 0 and n/2
        winner, closed = (0, half), 1.0
        prior[[0, half - 1]] = 0.5
    else:
        winner, closed = (0, 1, half + 1), 1.0 + _odd_excess(n)
        prior[half + 1] = 2.0**-closed
        prior[[0, 1]] = (1.0 - prior[half + 1]) / 2.0
    cands = capacity_candidates(theory)
    if winner not in cands:
        raise ConvergenceError(f"n={n}: the closed-form winner {winner} is not a candidate", closed, prior, 1)
    w = cands.index(winner)
    mu, effects = _realize_triples(n, [c if len(c) == 3 else (*c, 1) for c in cands])
    W = theory.channel_matrix(effects)
    priors = np.full((len(cands), n), 1.0 / n)
    priors[w] = prior
    d = _divergences(W, _row_log_entropy(W), priors)
    bits = max(float(_mean_divergence(prior, d[w])), 0.0)
    if d[w].max() - bits > BA_TOL:
        message = f"n={n}: the winner's bracket [{bits!r}, {d[w].max()!r}] is wider than tol={BA_TOL}"
        raise ConvergenceError(message, bits, prior, 1)
    others = [(b, c) for b, c in zip(d.max(axis=1).tolist(), cands) if c != winner]
    uncertified = [c for b, c in others if b >= bits]
    if uncertified:
        message = f"n={n}: orbit {uncertified[0]} is not certified below the winner {winner}"
        raise ConvergenceError(message, bits, prior, 1)
    bound, loser = max(others, default=(-math.inf, None))
    outcomes = len(winner)
    result = CapacityResult(
        n=n,
        parity=theory.parity,
        capacity_bits=bits,
        measurement=Measurement(winner, tuple(mu[w, :outcomes].tolist()), effects[w, :outcomes].copy()),
        prior=prior,
        support=tuple(int(x) for x in np.nonzero(prior > _SUPPORT_WEIGHT)[0]),
        iterations=1,
    )
    return result, bound, loser


def _odd_excess(n: int) -> float:
    """C - 1 for the capacity C = log2(1 + 2^delta) of the odd-n winner.

    delta = 1 - h(eps) with eps = (1 - t)/2, t = 2 sin^2(pi/2n) / cos(pi/n).
    For t > 1/4, that is n = 3, delta comes from h; for t <= 1/4, from its series
    (1/ln 2) sum_k t^2k / (2k(2k - 1)), whose positive terms do not cancel
    and fall below 2^-60 of the first by k = 14.  Then
    C - 1 = log2(1 + (2^delta - 1)/2), from expm1 and log1p, keeps its
    relative accuracy as n grows and the excess falls as n^-4.
    """
    t = 2.0 * math.sin(math.pi / (2 * n)) ** 2 / math.cos(math.pi / n)
    if t > 0.25:
        # eps = (1 - t)/2 as a product of sines, exactly 0 at n = 3
        sines = math.sin(math.pi * (n + 3) / (6 * n)) * math.sin(math.pi * (n - 3) / (6 * n))
        eps = 2.0 * sines / math.cos(math.pi / n)
        delta = 1.0 - float(binary_entropy(eps))
    else:
        delta = math.fsum(t ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 15)) / _LN2
    return math.log1p(math.expm1(delta * _LN2) / 2.0) / _LN2


def theory_capacity(theory: Theory) -> CapacityResult:
    """Classical capacity of one model: ``theory_capacities`` of one item."""
    return theory_capacities([theory])[0]


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

    The channel is a noiseless symbol beside a binary symmetric channel with
    crossover eps = 1 - 1/(2 cos(pi/n)), so the capacity is
    log2(1 + 2^(1 - h(eps))), taken from ``_odd_excess``.  Equals log2(3) at
    n=3 and decreases strictly towards one bit; always strictly above one bit.
    """
    if theory.even:
        raise ValueError("the triple strategy requires odd n")
    return 1.0 + _odd_excess(theory.n)
