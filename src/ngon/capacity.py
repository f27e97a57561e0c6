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

One engine runs the ascent on a list of channel stacks (groups) at once.
Each group keeps its own best lower bound and retires its channels against
it.  Groups with fewer inputs than the widest are padded with zero rows held
at zero prior.  Every sum, maximum and sort over inputs runs per width on the
unpadded columns, so padded rows never enter a bound, a sort or a polish and
each group gets the bits of its own run.  ``blahut_arimoto`` runs it on one
group.  Every run closes its brackets to BA_TOL within BA_MAX_ITER
iterations, both read at call time; no caller sets either.

``theory_capacities`` maximises the capacity over one canonical measurement
per dihedral orbit, with all n extremal states as the input alphabet: rotating
or reflecting a measurement only permutes the channel's inputs and outcomes.
The candidates are the antipodal pair for even n and one triple (0, g1, g1 + g2)
per sorted gap partition g1 <= g2 <= g3 <= n/2, less the triples with a gap of
exactly n/2, whose zero weight leaves the pair's channel plus a zero column.
Consecutive sizes run in chunks: one solve realises every candidate of the
chunk, the pair as the triple (0, n/2, 1) with weight 0 on index 1, and one
stack runs them with a group per size, the pair in row 0.  A chunk grows
while its candidates times its largest n, the input rows of its padded
stack, stay within CHUNK_ROWS, since one stack of every size 3..64 raised
the peak RSS of the sweep from about 31.5 to 45 MiB.
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
# input rows of one chunk's padded stack in theory_capacities, its
# candidates times its largest n.  For `capacity --n-range 3..64` on 2 shared
# vCPUs: 27 chunks, 31.5 MiB peak RSS and about 33 ms in the library; 8,192
# rows gave 16 chunks, 31.7 MiB and 30 ms; one stack, 44.9 MiB.
CHUNK_ROWS = 4096

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


def _width_classes(width: np.ndarray, m: int):
    """(w, rows) for each distinct input count w of a padded stack; built
    once per set of rows.  When every row has all ``m`` inputs the one class
    takes its rows as a slice, which keeps that common case free of copies."""
    if width.min() == m:
        return [(m, slice(None))]
    return [(w, np.flatnonzero(width == w)) for w in dict.fromkeys(width.tolist())]


def _by_width(fn, classes, *arrays) -> np.ndarray:
    """``fn(*arrays)``, a reduction over the input (last) axis, on each row's
    own inputs.  The bits of a sum depend on its length, so a padded stack is
    reduced once per width class on its unpadded columns, as its single call
    is; padded inputs never reach a sum or a maximum."""
    out = np.empty(arrays[0].shape[:-1])
    for w, rows in classes:
        out[..., rows] = fn(*(a[..., rows, :w] for a in arrays))
    return out


def _order(d: np.ndarray, classes) -> np.ndarray:
    """Inputs of each row by increasing divergence, padded inputs first.

    The order of ties depends on the row length, so a padded stack sorts
    once per width class on its unpadded columns."""
    m = d.shape[1]
    order = np.empty(d.shape, np.intp)
    for w, rows in classes:
        order[rows, : m - w] = np.arange(w, m)
        order[rows, m - w :] = np.argsort(d[rows, :w], axis=1)
    return order


def _leader_priors(W: np.ndarray, wlogw: np.ndarray, p: np.ndarray, d: np.ndarray, width):
    """First polish: the KKT system on the inputs the outcomes decode to.
    Returns (valid, priors), shaped (1, count) and (1, count, inputs).  A
    padded input has p W = 0 and comes after every real one, so argmax never
    picks it."""
    count, m, _ = W.shape
    valid, priors = np.zeros((1, count), bool), np.zeros((1, count, m))
    leaders = _leaders(p, W)
    for sel, cols in _column_groups(W):
        valid[0, sel] = _square_priors(W, wlogw, priors[0], sel, cols, leaders[sel][:, cols])
    return valid, priors


def _fallback_priors(W: np.ndarray, wlogw: np.ndarray, p: np.ndarray, d: np.ndarray, width):
    """Second polish, for channels whose leaders gave no valid prior.

    Two guesses per channel: the KKT system on the k inputs of largest
    divergence ``d`` (k non-zero columns), for leaders that name one input
    twice, and the best prior on a pair of inputs, for an optimum on fewer
    inputs than outcomes: the leaders when they name exactly two inputs,
    else the two inputs of largest divergence.  Returns (valid, priors),
    shaped (2, count) and (2, count, inputs).  A channel with fewer than k
    inputs of its own gets no square guess, as in its single call.
    """
    count, m, _ = W.shape
    valid, priors = np.zeros((2, count), bool), np.zeros((2, count, m))
    if m < 2:
        return valid, priors
    order = _order(d, _width_classes(width, m))
    pairs = order[:, -2:].copy()
    leaders = _leaders(p, W)
    for sel, cols in _column_groups(W):
        k = len(cols)
        lead = leaders[sel][:, cols]
        two = k - _repeats(lead).sum(axis=1) == 2
        other = np.where(lead[:, 1] != lead[:, 0], lead[:, 1], lead[:, -1])
        pairs[sel[two]] = np.stack([lead[two, 0], other[two]], axis=1)
        if k <= m:
            square = sel[width[sel] >= k]
            valid[0, square] = _square_priors(W, wlogw, priors[0], square, cols, order[square, -k:])
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
    time.  This is ``_bracket`` on one group.
    """
    W = np.asarray(matrices, float)
    if W.ndim not in (2, 3) or 0 in W.shape:
        raise ValueError("expected a nonempty channel (inputs, outcomes) or stack of them")
    # written so that a NaN fails it
    if not ((W >= -ROUNDOFF).all() and np.abs(W.sum(axis=-1) - 1.0).max() <= PROB_TOL):
        raise ValueError("matrix rows must be probability vectors")
    return _bracket([np.clip(W.reshape(-1, *W.shape[-2:]), 0.0, None)])[0]


def _bracket(stacks) -> list[BAResult]:
    """The ascent of ``blahut_arimoto`` on several channel stacks (groups) at once.

    ``stacks`` are nonnegative stacks (count, inputs, outcomes) with one
    outcome count; a group with fewer inputs than the widest is padded with
    zero rows held at zero prior.  Each group keeps its own best lower
    bound.  Every sum, maximum and sort over inputs runs per width on the
    unpadded columns, and a padded input never leads an outcome, so each
    group gets the BAResult ``blahut_arimoto`` returns on it alone.  If
    some group's call would raise a ConvergenceError after BA_MAX_ITER
    iterations, the first such group's error is raised.  One set-up serves
    every call: the groups are copied into one zero-padded stack, each
    channel starting from the uniform prior on its own inputs.
    """
    sizes = [len(s) for s in stacks]
    widths = [s.shape[1] for s in stacks]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    m = max(widths)
    gid = np.repeat(np.arange(len(stacks)), sizes)
    width = np.repeat(widths, sizes)
    classes = _width_classes(width, m)
    W = np.zeros((len(gid), m, stacks[0].shape[2]))
    for g, start in enumerate(starts):
        W[start : start + sizes[g], : widths[g]] = stacks[g]
    p = np.where(np.arange(m) < width[:, None], 1.0 / width[:, None], 0.0)
    count = len(W)
    wlogw = _row_log_entropy(W)
    # ids, gid (their groups), width, W, wlogw, p, the bounds lo, up and the
    # certificate priors cert hold the channels still iterating; certified
    # marks a lo attained at cert
    ids = np.arange(count)
    lo = np.full(count, -math.inf)
    up = np.full(count, math.inf)
    cert = np.zeros((count, m))
    certified = np.zeros(count, bool)
    lower = np.full(count, -math.inf)
    priors = p.copy()
    retired_at = np.zeros(count, int)
    best = np.full(len(stacks), -math.inf)
    each_group = np.arange(len(stacks))[:, None]
    for it in range(1, BA_MAX_ITER + 1):
        d = _divergences(W, wlogw, p)
        dmax = _by_width(_largest, classes, d)[:, None]
        info = _by_width(_mean_divergence, classes, p, d)
        certified &= info <= lo
        lo = np.maximum(lo, info)
        up = np.minimum(up, dmax[:, 0])
        best = np.maximum(best, np.where(gid == each_group, lo, -math.inf).max(axis=1))
        retire = (up - lo <= BA_TOL) | (up <= best[gid])
        if it & (it - 1) == 0:
            # polish the channels still open; the fallback only takes those
            # the leaders gave no valid prior
            fresh = ~retire
            for polish in (_leader_priors, _fallback_priors):
                rows = np.flatnonzero(fresh & ~retire)
                if not len(rows):
                    break
                fresh[rows[_polish(polish, rows, W, wlogw, p, d, width, lo, up, cert, certified)]] = False
                best = np.maximum(best, np.where(gid == each_group, lo, -math.inf).max(axis=1))
                retire = (up - lo <= BA_TOL) | (up <= best[gid])
        if retire.any():
            done = ids[retire]
            lower[done], retired_at[done] = lo[retire], it
            priors[done] = np.where(certified[retire, None], cert[retire], p[retire])
            keep = ~retire
            ids, gid, width, W, wlogw, p, d, dmax, lo, up, cert, certified = (
                a[keep] for a in (ids, gid, width, W, wlogw, p, d, dmax, lo, up, cert, certified)
            )
            if not len(ids):
                break
            classes = _width_classes(width, m)
        p = p * np.exp2(d - dmax)
        p /= _by_width(_total, classes, p)[:, None]
    else:
        lower[ids], priors[ids] = lo, p
    still_open = np.bincount(gid, minlength=len(sizes)).tolist()
    results = []
    for start, size, w, left in zip(starts, sizes, widths, still_open):
        winner = int(np.argmax(lower[start : start + size]))
        bits = max(float(lower[start + winner]), 0.0)
        # a copy, so that a kept result does not hold the whole stack's priors
        prior = priors[start + winner, :w].copy()
        if left:
            message = f"{left} of {size} channels kept brackets above tol={BA_TOL} after {BA_MAX_ITER} iterations"
            raise ConvergenceError(message, bits, prior, BA_MAX_ITER)
        results.append(BAResult(bits, prior, int(retired_at[start + winner]), winner))
    return results


def _polish(polish, rows, W, wlogw, p, d, width, lo, up, cert, certified) -> np.ndarray:
    """Run ``polish`` on the open channels ``rows`` and let its valid priors
    join their brackets: lo, up, cert and certified are updated in place.
    Returns which of ``rows`` got a valid prior."""
    # a slice keeps the common case, every channel open, free of copies
    sub = slice(None) if len(rows) == len(W) else rows
    Wr, hr, wr = W[sub], wlogw[sub], width[sub]
    classes = _width_classes(wr, W.shape[1])
    valid, prior = polish(Wr, hr, p[sub], d[sub], wr)
    dc = _divergences(Wr, hr, prior)
    info = np.where(valid, _by_width(_mean_divergence, classes, prior, dc), -math.inf)
    pick = np.argmax(info, axis=0)
    prior, info = prior[pick, np.arange(len(rows))], info.max(axis=0)
    gain = info > lo[rows]
    lo[rows[gain]], cert[rows[gain]], certified[rows[gain]] = info[gain], prior[gain], True
    up[rows] = np.minimum(up[rows], np.where(valid, _by_width(_largest, classes, dc), math.inf).min(axis=0))
    return valid.any(axis=0)


def _mean_divergence(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_x p_x d_x per channel, the mutual information at p."""
    return np.einsum("...x,...x->...", p, d)


def _total(a: np.ndarray) -> np.ndarray:
    return a.sum(axis=-1)


def _largest(a: np.ndarray) -> np.ndarray:
    return a.max(axis=-1)


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

    For each n the candidates are those of ``capacity_candidates``, run as
    one group with the antipodal pair first, so the pair is reported unless
    a triple's certified bound lies above it (at n = 4 no triple is left).
    Consecutive sizes run in chunks, each grown while its candidates times
    its largest n stay within CHUNK_ROWS (a size above that is a chunk
    alone): one solve realises the chunk's candidates and one stack with a
    group per size runs them, so every result has the bits of its size's
    own run, certified within BA_TOL of the true maximum.  The first n above
    ENUMERATION_MAX is refused when it is reached, before any bracket runs;
    every bracket closes to BA_TOL within BA_MAX_ITER iterations, and all
    three are read at call time.  A bracket that stays open raises the
    ConvergenceError of the first such size.
    """
    chunks, count, width = [], 0, 0
    for t in theories:
        if t.n > ENUMERATION_MAX:
            raise ResourceBoundError(f"n={t.n} above the enumeration bound {ENUMERATION_MAX}")
        cands = capacity_candidates(t)
        count, width = count + len(cands), max(width, t.n)
        if not chunks or count * width > CHUNK_ROWS:
            chunks.append([])
            count, width = len(cands), t.n
        chunks[-1].append((t, cands))
    return [r for chunk in chunks for r in _chunk_capacities(chunk)]


def _chunk_capacities(chunk: list[tuple[Theory, list]]) -> list[CapacityResult]:
    """``theory_capacities`` of one chunk of (theory, candidates) pairs."""
    theories, cands = zip(*chunk)
    counts = [len(cs) for cs in cands]
    starts = np.cumsum([0] + counts[:-1]).tolist()
    sizes = np.repeat([t.n for t in theories], counts)
    # the pair (0, n/2) is realised as the triple (0, n/2, 1), exactly 0 on index 1
    mu, effects = _realize_triples(sizes, [c if len(c) == 3 else (*c, 1) for cs in cands for c in cs])
    stacks = [t.channel_matrix(effects[s : s + k]) for t, s, k in zip(theories, starts, counts)]
    results = []
    for t, cs, start, best in zip(theories, cands, starts, _bracket(stacks)):
        indices, row = cs[best.index], start + best.index
        outcomes = len(indices)
        results.append(CapacityResult(
            n=t.n,
            parity=t.parity,
            capacity_bits=best.capacity_bits,
            measurement=Measurement(indices, tuple(mu[row, :outcomes].tolist()), effects[row, :outcomes].copy()),
            prior=best.prior,
            support=tuple(int(x) for x in np.nonzero(best.prior > _SUPPORT_WEIGHT)[0]),
            iterations=best.iterations,
        ))
    return results


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

    Equals log2(3) at n=3 and decreases strictly towards one bit; always
    strictly above one bit.
    """
    if theory.even:
        raise ValueError("the triple strategy requires odd n")
    m = (theory.n - 1) // 2
    idx = [0, m, m + 1]
    matrix = theory.channel_matrix(theory.measurement(idx), theory.states()[idx])
    return blahut_arimoto(matrix).capacity_bits
