"""Communication protocols over polygon theories.

Four executable constructions:

* ``run_ic`` plays the two-bit random access code over an even polygon:
  the sender encodes (x0, x1) into one extremal state, the receiver picks
  one of two antipodal pair measurements depending on which bit is wanted.
  The first bit is always decoded perfectly; the decodable information
  summed over both bits exceeds 1 bit even though the theory's one-shot
  classical capacity is exactly 1 bit.

* ``best_ic_encoding`` is the exhaustive oracle for the same game: all
  encodings of the two bits into extremal states up to rotation (the
  first state is fixed at vertex 0), against all antipodal pair
  measurements per requested bit.

* ``ne_matrix`` builds the nondeterministic NOT-EQUAL witness: the answer
  bit is never 1 when the inputs agree, and has strictly positive
  probability of being 1 whenever they differ.  The receiver's measurements
  for all y are built as one effect stack and turned into the matrix by one
  stacked ``channel_matrix`` call, with the bits of a per-y loop.

* ``simulate_transmission`` reproduces one polygon transmission with
  classical messages: the sender splits the state into extremal vertices,
  transmits a vertex index (log2 n bits), and the receiver samples the
  measurement on that vertex.

The random access code, its search and the even NOT-EQUAL witness all read
antipodal pair channels, and one builder makes them: the pairs of all the
anchors a call needs are one stack, one gather of the effect table and one
stacked ``channel_matrix`` call, with the bits of a per-anchor measurement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import capacity
from .capacity import antipodal_pair_rate, binary_entropy, theory_capacity
from .geometry import (
    InvalidStateError,
    Measurement,
    ResourceBoundError,
    Theory,
    _improper_effects,
    _realize_triples,
    _tables,
    extremal_decomposition,
)
from .polytope import ZERO_WEIGHT, classify_vertex, enumerate_vertices

IC_SEARCH_MAX = 24
# largest n of run_ic: it builds the polygon's tables, which grow as n;
# n = 200,000 took 0.4-0.7 s and 96 MiB on 2 shared vCPUs
IC_MAX = 200_000
# largest n of a NOT-EQUAL matrix: the (n, n) table and its rendering grow as
# n^2; n = 601 took 0.6 s and 103 MiB as JSON on 2 shared vCPUs
NE_MAX = 600


@dataclass(frozen=True, eq=False)
class ICReport:
    """Exact statistics of the two-bit random access code."""

    n: int
    encoding: dict
    success_bit0: float
    success_bit1: float
    worst_bit_success: float
    info_bit0: float
    info_bit1: float
    info_sum_bits: float
    info_avg_bits: float


@dataclass(frozen=True, eq=False)
class NEReport:
    """NOT-EQUAL witness matrix P(answer=1 | x, y) over the effective alphabet."""

    n: int
    effective_alphabet: int
    matrix: np.ndarray
    min_offdiag: float
    max_diag: float


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """One simulated transmission: analytic marginal versus sampled counts."""

    n: int
    message_bits: float
    analytic_dist: np.ndarray
    empirical_dist: np.ndarray
    tv_distance: float
    samples: int
    seed: int


def _require_even(theory: Theory) -> None:
    if not theory.even:
        raise ValueError("this protocol requires an even polygon")


def ic_encoding(theory: Theory) -> dict:
    """Map both bits to one extremal state: (x0, x1) -> x0*n/2 + (x0 xor x1).

    Placing the x0=1 pair antipodally to the x0=0 pair makes the first bit
    perfectly decodable; the xor twist aligns the second bit with the other
    antipodal measurement up to adjacent-vertex noise.
    """
    _require_even(theory)
    half = theory.n // 2
    return {
        (x0, x1): (x0 * half + (x0 ^ x1)) % theory.n
        for x0 in (0, 1)
        for x1 in (0, 1)
    }


def _pair_channels(theory: Theory, anchors: np.ndarray) -> np.ndarray:
    """P(outcome | state) of the antipodal pair (a, a + n/2) at each anchor a,
    shape (k, n, 2).  A pair's realised effects are its two extremal effects,
    so the pairs of all anchors are one gather of the effect table."""
    n = theory.n
    return theory.channel_matrix(_tables(n)[1][np.stack([anchors, anchors + n // 2], axis=1) % n])


def _binary_info(t0: float, t1: float) -> float:
    """Information in bits between a fair input bit and the pair outcome."""
    return binary_entropy(0.5 * (t0 + t1)) - 0.5 * (binary_entropy(t0) + binary_entropy(t1))


def run_ic(theory: Theory) -> ICReport:
    """Play the random access code with the antipodal pair measurements.

    The receiver measures the pair anchored at 1 when asked for bit 0
    (first outcome means x0 = 0) and the pair anchored at 0 when asked for
    bit 1 (first outcome means x1 = 0).  All probabilities are exact dot
    products; both information quantities come from the exact joints.
    n above IC_MAX is refused before anything is built.
    """
    if theory.n > IC_MAX:
        raise ResourceBoundError(f"the random access code is capped at n={IC_MAX}")
    _require_even(theory)
    enc = ic_encoding(theory)
    # first[j, x0, x1]: P(first outcome | state enc[(x0, x1)]) under the pair
    # read for bit j
    first = _pair_channels(theory, np.array([1, 0]))[:, list(enc.values()), 0].reshape(2, 2, 2)

    # per-input probability that the requested bit is decoded correctly; the
    # first outcome means bit j = 0, and np.indices((2, 2))[j] holds bit j
    success = np.where(np.indices((2, 2)) == 0, first, 1.0 - first).reshape(2, 4)
    success_bit0, success_bit1 = (float(np.mean(row)) for row in success)

    # I(x_j; outcome | j): average the other bit out of the outcome law
    t0, t1 = 0.5 * (first[0, :, 0] + first[0, :, 1])
    info0 = _binary_info(float(t0), float(t1))
    s0, s1 = 0.5 * (first[1, 0] + first[1, 1])
    info1 = _binary_info(float(s0), float(s1))

    return ICReport(
        n=theory.n,
        encoding=enc,
        success_bit0=success_bit0,
        success_bit1=success_bit1,
        worst_bit_success=min(success_bit0, success_bit1),
        info_bit0=info0,
        info_bit1=info1,
        info_sum_bits=info0 + info1,
        info_avg_bits=0.5 * (info0 + info1),
    )


def best_ic_encoding(theory: Theory):
    """Exhaustive random-access-code search over an even polygon, up to rotation.

    Maximizes the sum of the two exact information terms over every encoding
    of two bits into extremal states and, for each requested bit, every
    antipodal pair measurement.  Rotating all four states by one vertex maps
    the pair anchored at a to the pair anchored at a + 1, and the anchor
    a + n/2 is anchor a with its outcomes swapped, which leaves the
    information unchanged; so the best-anchor sum is rotation invariant and
    the search fixes e00 = 0, scanning the n^3 remaining encodings.  Outcome
    relabelings are absorbed by the information quantity, so guess rules
    need not be searched.  Returns (encoding, (anchor_bit0, anchor_bit1),
    info_sum_bits) with encoding[(0, 0)] == 0.
    """
    n = theory.n
    if n > IC_SEARCH_MAX:
        raise ResourceBoundError(f"exhaustive search is capped at n={IC_SEARCH_MAX}")
    _require_even(theory)
    half = n // 2
    # G[a, i] = P(first outcome | state i) under the pair anchored at a
    G = _pair_channels(theory, np.arange(half))[:, :, 0]

    # pair-average tables: PA[a, i, k] = mean outcome law when the averaged
    # bit picks state i or k equiprobably
    PA = 0.5 * (G[:, :, None] + G[:, None, :])
    HPA = binary_entropy(PA)
    # best[k, (r, s)] = best-anchor info for the pairs (0, k) and (r, s)
    best = np.full((n, n * n), -1.0)
    flatPA = PA.reshape(half, n * n)
    flatH = HPA.reshape(half, n * n)
    for a in range(half):
        mix = binary_entropy(0.5 * (flatPA[a][:n, None] + flatPA[a][None, :]))
        info = mix - 0.5 * (flatH[a][:n, None] + flatH[a][None, :])
        np.maximum(best, info, out=best)
    B = best.reshape(n, n, n)  # axes (e01, e10, e11): pairs (0,e01),(e10,e11)
    total = B + B.transpose(1, 0, 2)  # plus pairs (0,e10),(e01,e11)
    e01, e10, e11 = (int(e) for e in np.unravel_index(int(np.argmax(total)), (n, n, n)))
    info_sum = float(total[e01, e10, e11])

    enc = {(0, 0): 0, (0, 1): e01, (1, 0): e10, (1, 1): e11}
    # the winning anchors for the report: per bit, the first anchor of largest
    # information for the pairs (i, k) and (r, s) the bit separates
    i, k, r, s = np.array([[0, e01, e10, e11], [0, e10, e01, e11]]).T
    info = binary_entropy(0.5 * (PA[:, i, k] + PA[:, r, s])) - 0.5 * (HPA[:, i, k] + HPA[:, r, s])
    return enc, tuple(np.argmax(info, axis=0).tolist()), info_sum


def _ne_report(n: int, matrix: np.ndarray) -> NEReport:
    off = matrix[~np.eye(len(matrix), dtype=bool)]
    return NEReport(
        n=n,
        effective_alphabet=len(matrix),
        matrix=matrix,
        min_offdiag=float(off.min()),
        max_diag=float(np.diag(matrix).max()),
    )


def _pair_ne_report(theory: Theory, stride: int) -> NEReport:
    """The even-n witness on the inputs 0, stride, 2*stride, ...: the receiver
    measures the antipodal pair (stride*y, stride*y + n/2) and answers 1 on
    the far outcome."""
    n = theory.n
    # channels[y, x, k]: outcome k of pair y on vertex x
    channels = _pair_channels(theory, stride * np.arange(n // stride))
    return _ne_report(n, channels[:, ::stride, 1].T)


def ne_matrix(theory: Theory) -> NEReport:
    """NOT-EQUAL witness over the theory's effective alphabet.

    Odd n: the receiver measures the 3-outcome completion on indices
    (y, y+(n-1)/2, y+(n+1)/2) and answers 1 unless the first outcome fires;
    the answer probability is assembled from the two non-anchor outcomes,
    whose overlaps vanish identically at x = y.  Even n: inputs index every
    second vertex and the receiver uses the antipodal pair (2y, 2y+n/2),
    answering 1 on the far outcome; the effective alphabet halves.  Since
    n >= 3, the alphabet has at least two letters.  The measurements of all
    y are built and applied as one stack.  n above NE_MAX is refused
    before anything is built.
    """
    if theory.n > NE_MAX:
        raise ResourceBoundError(f"NOT-EQUAL matrix is capped at n={NE_MAX}")
    if theory.even:
        return _pair_ne_report(theory, 2)
    n = theory.n
    m = (n - 1) // 2
    ys = np.arange(n)
    _, triples = _realize_triples(n, np.stack([ys, ys + m, ys + m + 1], axis=1))
    # channels[y, x, k]: non-anchor outcome k + 1 of triple y on vertex x
    channels = theory.channel_matrix(triples[:, 1:])
    return _ne_report(n, channels.sum(axis=2).T)


def even_full_alphabet_ne_matrix(theory: Theory) -> NEReport:
    """The uncorrected even-n construction on the full alphabet.

    Keeping every vertex as an input breaks the witness: the pair effect at
    y saturates on the neighboring vertex y-1, so the answer probability
    vanishes at x = y-1 even though the inputs differ.  Shipped only as a
    negative control; ``ne_matrix`` halves the alphabet instead.
    """
    _require_even(theory)
    return _pair_ne_report(theory, 1)


def simulate_transmission(
    theory: Theory,
    state,
    measurement: Measurement,
    samples: int,
    seed: int,
) -> SimulationReport:
    """Simulate one state transmission with a classical vertex index.

    The state splits into extremal vertices (two adjacent vertices plus a
    uniformly spread barycenter share); the sender samples a vertex index
    and the receiver samples the measurement outcome on that vertex.  The
    analytic marginal equals the direct outcome law of the state itself by
    linearity, which the report exposes for comparison against the counts.
    ``measurement`` may also be its effects (outcomes, 3); their raw
    overlaps with every extremal state must be a probability vector to
    PROB_TOL.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > np.iinfo(np.int64).max:  # numpy's multinomial takes an int64 count
        raise ValueError(f"samples={samples} above the int64 maximum {np.iinfo(np.int64).max}")
    if _improper_effects(theory, measurement):
        raise ValueError("effects must give a probability vector on every state")
    rows = theory.channel_matrix(measurement)
    state = np.asarray(state, float)
    weights = extremal_decomposition(theory, state)  # raises InvalidStateError
    analytic = weights @ rows
    sampling_rows = rows / rows.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(seed)
    vertex_counts = rng.multinomial(samples, weights / weights.sum())
    k = rows.shape[1]
    counts = np.zeros(k, dtype=np.int64)
    for i, c in enumerate(vertex_counts):
        if c:
            counts += rng.multinomial(int(c), sampling_rows[i])
    empirical = counts / samples
    tv = 0.5 * float(np.abs(empirical - analytic).sum())
    return SimulationReport(
        n=theory.n,
        message_bits=math.log2(theory.n),
        analytic_dist=analytic,
        empirical_dist=empirical,
        tv_distance=tv,
        samples=int(samples),
        seed=int(seed),
    )


@functools.cache
def _even_vertex_bound() -> bool:
    """Whether no point of the alphabet-3 polytope at c = 2 carries more than
    1 bit, decided exactly: every vertex is ZERO_WEIGHT, so its channel has
    at most two non-zero outcome rows (at most 1 bit), and capacity is convex
    in the channel, so no mixture of the vertex channels carries more."""
    return all(classify_vertex(v) == ZERO_WEIGHT for v in enumerate_vertices(3, 2.0))


def ic_bound_check(theory: Theory) -> bool:
    """Witness that decodable information beats the one-shot capacity.

    True iff the random access code's information sum exceeds 1 + 1e-9
    while the theory's capacity equals 1 within 1e-6.  Up to n =
    ENUMERATION_MAX, read at call time, the capacity comes from the full
    measurement enumeration; beyond it the antipodal pair provides the
    achievability side and the exact vertex bound (decided once and cached)
    certifies the converse, so the check stays exact at sizes where
    enumeration is impractical.
    """
    _require_even(theory)
    info = run_ic(theory).info_sum_bits
    if not info > 1.0 + 1e-9:
        return False
    if theory.n <= capacity.ENUMERATION_MAX:
        return abs(theory_capacity(theory).capacity_bits - 1.0) <= 1e-6
    lower = antipodal_pair_rate(theory)
    return abs(lower - 1.0) <= 1e-6 and _even_vertex_bound()
