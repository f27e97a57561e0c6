"""Acceptance checks: every headline claim as a pass/fail computation.

Each check is a pure function returning a CheckResult; the registry maps
stable keys to checks so the command line can run any subset.  The four
checks that sweep polygon sizes up to max_n read their sizes and bounds from
one table, ``_sweep``, and ``run_checks`` asks it of every selected sweep, as
it rejects an unknown key, before any check runs.  ``notes`` lists
construction pitfalls that the library corrects by design; they are
informational, not failures.

The simulation, weights, decomposition and reduction checks work on
stacks, one solve per polygon size.  ``check_simulation`` draws its triples
uniformly from the list of feasible sorted triples, and ``check_weights``
draws i.i.d. candidates in chunks and keeps the first 1000 accepted:
each is the law of a per-item redraw loop, though not its stream, so their
worst gaps moved at the level of roundoff.  ``check_reduction`` redraws a
uniform 3-subset until it is in the feasible list, the stream and law of
building a measurement and catching the infeasible ones, then realises its
triples in one solve and reduces all its ensembles with one stacked
``caratheodory_reduce`` call, which also returns their chain-rule terms.
``check_decomposition`` keeps that build-and-catch loop, since the traced
benchmark test needs a ``Theory.measurement`` call that raises; it splits
and brackets each n's channels as one stack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import capacity
from .capacity import (
    binary_entropy,
    blahut_arimoto,
    mutual_information_bits,
    odd_triple_rate,
    theory_capacities,
)
from .decomposition import caratheodory_reduce, decompose_into_binary_channels
from .geometry import (
    InfeasibleMeasurementError,
    ResourceBoundError,
    Theory,
    _feasible_triples,
    _realize_triples,
    closed_form_triple_weights,
    extremal_decomposition,
    min_effect_weight,
)
from .polytope import UNCLASSIFIED, ZERO_WEIGHT, _max_capacity, classify_vertex, enumerate_vertices
from .protocols import (
    NE_MAX,
    best_ic_encoding,
    even_full_alphabet_ne_matrix,
    ne_matrix,
    run_ic,
    simulate_transmission,
)

LOG2_3 = math.log2(3.0)
# largest max_n of the check ic sweep.  The check gates the excess of the
# information sum over one bit at > 1e-9, and that excess falls as n^-4: 1.00e-9
# at n = 728 and 9.90e-10 at n = 730, so a larger max_n fails a true claim.  The
# tables of every even n up to it stay cached, max_n^2 / 4 rows; max_n = 728
# took 0.3 s and 36 MiB on 2 shared vCPUs.
IC_SWEEP_MAX = 728


@dataclass(frozen=True)
class CheckResult:
    key: str
    passed: bool
    details: str
    elapsed_s: float = 0.0  # set by run_checks


# the checks that sweep polygon sizes up to max_n
_SWEEPS = ("even-capacity", "odd-capacity", "ic", "ne")


def _sweep(key: str, max_n: int) -> range:
    """The polygon sizes the sweep check ``key`` runs up to max_n.

    One table holds every sweep's first size, step, least max_n (the
    smallest at which the check can pass) and size bound; the bounds are read
    at call time.  A max_n above the bound raises ResourceBoundError and one
    below the least is a usage error (ValueError), both before any work.
    """
    first, step, least, bound, name = {
        "even-capacity": (4, 2, 4, capacity.ENUMERATION_MAX, "the enumeration bound"),
        # the 3-state rate first lies within 0.02 of 1 bit at n = 7 (1.0204 at n = 5)
        "odd-capacity": (3, 2, 7, capacity.ENUMERATION_MAX, "the enumeration bound"),
        "ic": (4, 2, 4, IC_SWEEP_MAX, "the sweep bound"),
        "ne": (3, 1, 3, NE_MAX, "the NOT-EQUAL bound"),
    }[key]
    if max_n > bound:
        raise ResourceBoundError(f"check {key}: max_n={max_n} above {name} {bound}")
    if max_n < least:
        raise ValueError(f"check {key}: max_n={max_n} is below {least}, the smallest max_n the sweep accepts")
    return range(first, max_n + 1, step)


def check_even_capacity(max_n: int = 64) -> CheckResult:
    """Every even polygon up to max_n has one-shot capacity exactly 1 bit."""
    sizes = _sweep("even-capacity", max_n)
    caps = [r.capacity_bits for r in theory_capacities(Theory(n) for n in sizes)]
    worst = max(abs(cap - 1.0) for cap in caps)
    passed = worst <= 1e-6
    return CheckResult(
        "even-capacity",
        passed,
        f"{len(caps)} even sizes, worst |capacity - 1| = {worst:.2e} (tol 1e-6)",
    )


def check_odd_capacity(max_n: int = 64) -> CheckResult:
    """Odd capacities: log2(3) at the triangle, then strictly above 1 bit."""
    sizes = _sweep("odd-capacity", max_n)
    rows = {r.n: r.capacity_bits for r in theory_capacities(Theory(n) for n in sizes)}
    top = max(rows)
    tri_gap = abs(rows[3] - LOG2_3)
    above = all(cap > 1.0 + 1e-9 for cap in rows.values())
    below = all(cap <= LOG2_3 + 1e-9 for cap in rows.values())
    rates = [odd_triple_rate(Theory(n)) for n in sorted(rows)]
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    near_one = abs(rates[-1] - 1.0) < 0.02
    passed = tri_gap <= 1e-6 and above and below and decreasing and near_one
    return CheckResult(
        "odd-capacity",
        passed,
        (
            f"triangle gap {tri_gap:.2e}; all {len(rows)} odd sizes in (1, log2 3]; "
            f"3-state rate decreasing to {rates[-1]:.6f} at n={top}"
        ),
    )


def check_vertices() -> CheckResult:
    """Vertex census at alphabet 3, at c = 2 and for all c in (2, 3): every form
    a + b*c has b in {-1, 0, 1} (else the enumeration raises), so inside (2, 3)
    no form changes sign and two meet only at 2.5; c = 2.25 stands for all."""
    base = enumerate_vertices(3, 2.0)
    all_zero = all(classify_vertex(v) == ZERO_WEIGHT for v in base)
    cap_gap = abs(_max_capacity(base) - 1.0)
    interior = enumerate_vertices(3, 2.25)
    unclassified = sum(classify_vertex(v) == UNCLASSIFIED for v in interior)
    passed = all_zero and cap_gap <= 1e-9 and unclassified == 0
    return CheckResult(
        "vertices",
        passed,
        (
            f"c=2: {len(base)} vertices all zero-weight, max capacity gap {cap_gap:.2e}; "
            f"every c in (2, 3): {len(interior)} vertices, {unclassified} unclassified"
        ),
    )


def check_decomposition() -> CheckResult:
    """100 random even-polygon channels split into binary components."""
    rng = np.random.default_rng(41)
    accepted: dict[int, list] = {}
    done = 0
    while done < 100:
        n = int(rng.choice(range(4, 21, 2)))
        idx = np.sort(rng.choice(n, size=3, replace=False))
        try:
            m = Theory(n).measurement(tuple(int(v) for v in idx))
        except InfeasibleMeasurementError:
            continue
        accepted.setdefault(n, []).append(m)
        done += 1
    worst_recon = worst_q = worst_cap = 0.0
    for n, ms in accepted.items():
        P = Theory(n).channel_matrix(np.stack([m.effects for m in ms])).transpose(0, 2, 1)
        res = decompose_into_binary_channels(P, np.array([m.weights for m in ms]))
        worst_recon = max(worst_recon, float(np.abs(res.reconstruct() - P).max()))
        worst_q = min(worst_q, float(res.q.min()))
        # the best of all binary components of this n, as one stack
        components = res.components.transpose(0, 1, 3, 2).reshape(-1, n, 3)
        worst_cap = max(worst_cap, blahut_arimoto(components).capacity_bits)
    passed = worst_recon <= 1e-9 and worst_q >= -1e-12 and worst_cap <= 1.0 + 1e-9
    return CheckResult(
        "decomposition",
        passed,
        (
            f"{done} channels: worst reconstruction {worst_recon:.2e}, "
            f"min q {worst_q:.2e}, max component capacity {worst_cap:.9f}"
        ),
    )


def check_reduction() -> CheckResult:
    """100 random 6-letter pentagon ensembles reduce to 3 letters losslessly."""
    rng = np.random.default_rng(29)
    t = Theory(5)
    feasible = set(map(tuple, _feasible_triples(5).tolist()))
    draws = []
    for _ in range(100):
        tri = None
        while tri not in feasible:
            tri = tuple(sorted(int(v) for v in rng.choice(5, 3, replace=False)))
        draws.append((tri, rng.integers(0, 5, size=6), rng.dirichlet(np.ones(6))))
    _, effects = _realize_triples(5, [tri for tri, _, _ in draws])
    states = t.states()[np.array([letters for _, letters, _ in draws])]
    weights = np.array([w for _, _, w in draws])
    merged = mutual_information_bits(weights, t.channel_matrix(effects, states)).tolist()
    traces = caratheodory_reduce(t, states, weights, effects)
    if any(len(J) > 3 for trace in traces for _, J, _ in trace.stages):
        return CheckResult("reduction", False, "a stage kept more than 3 letters")
    worst_loss = max([-1.0] + [m - trace.information[trace.selected] for m, trace in zip(merged, traces)])
    worst_chain = max([0.0] + [abs(trace.joint - trace.stage - trace.conditional) for trace in traces])
    passed = worst_loss <= 1e-9 and worst_chain <= 1e-10
    return CheckResult(
        "reduction",
        passed,
        (
            f"{len(draws)} ensembles: worst information loss {worst_loss:.2e}, "
            f"worst chain-rule residual {worst_chain:.2e}"
        ),
    )


def check_ic(max_n: int = 64) -> CheckResult:
    """Random access code: exact success/information laws plus the search."""
    worst_s0 = 0.0
    worst_s1 = 0.0
    worst_info = 0.0
    min_excess = math.inf
    # the square and the search read the sweep's reports; run_ic is deterministic
    reports = {}
    for n in _sweep("ic", max_n):
        reports[n] = r = run_ic(Theory(n))
        cos = math.cos(2.0 * math.pi / n)
        worst_s0 = max(worst_s0, abs(r.success_bit0 - 1.0))
        worst_s1 = max(worst_s1, abs(r.success_bit1 - (1.0 - cos / 2.0)))
        closed = 2.0 - float(binary_entropy(np.array(cos / 2.0)))
        worst_info = max(worst_info, abs(r.info_sum_bits - closed))
        min_excess = min(min_excess, r.info_sum_bits - 1.0)
    square = abs(reports[4].info_sum_bits - 2.0)
    dominated = True
    exact_small = True
    for n in (4, 6, 8, 10, 12):
        _, _, best = best_ic_encoding(Theory(n))
        ref = (reports[n] if n in reports else run_ic(Theory(n))).info_sum_bits
        if best < ref - 1e-9:
            dominated = False
        if n in (4, 6) and abs(best - ref) > 1e-9:
            exact_small = False
    passed = (
        worst_s0 <= 1e-12
        and worst_s1 <= 1e-12
        and worst_info <= 1e-9
        and min_excess > 1e-9
        and square <= 1e-9
        and dominated
        and exact_small
    )
    return CheckResult(
        "ic",
        passed,
        (
            f"even n <= {max_n}: success laws exact to {max(worst_s0, worst_s1):.2e}, "
            f"info law to {worst_info:.2e}, min excess over 1 bit {min_excess:.2e}; "
            f"search dominates (exact at n=4,6; strictly better from n=8)"
        ),
    )


def check_ne(max_n: int = 64) -> CheckResult:
    """NOT-EQUAL witness: zero diagonal, strictly positive off-diagonal."""
    worst_diag = 0.0
    min_off = math.inf
    for n in _sweep("ne", max_n):
        r = ne_matrix(Theory(n))
        worst_diag = max(worst_diag, r.max_diag)
        min_off = min(min_off, r.min_offdiag)
    raw = even_full_alphabet_ne_matrix(Theory(8))
    witness = all(abs(raw.matrix[(y - 1) % 8, y]) <= 1e-14 for y in range(8))
    passed = worst_diag <= 1e-14 and min_off > 1e-12 and witness
    return CheckResult(
        "ne",
        passed,
        (
            f"n=3..{max_n}: max diagonal {worst_diag:.2e}, min off-diagonal {min_off:.2e}; "
            f"full-alphabet even construction fails at x=y-1 as documented"
        ),
    )


def check_simulation() -> CheckResult:
    """Classical simulation: exact marginals and Monte Carlo concentration.

    Per n, 100 random states and 100 triples drawn uniformly from the
    feasible sorted triples are decomposed and measured as one stack;
    ``simulate_transmission`` reproduces the first row of each stack.
    """
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    for n in range(4, 17):
        t = Theory(n)
        feasible = _feasible_triples(n)
        w = rng.dirichlet(np.ones(n), size=100) @ t.states()
        picked = feasible[rng.integers(len(feasible), size=100)]
        _, effects = _realize_triples(n, picked)
        # the sender's vertex weights against the receiver's outcome law per vertex
        split = extremal_decomposition(t, w)
        analytic = (split[:, None, :] @ t.channel_matrix(effects))[:, 0]
        direct = t.channel_matrix(effects, w[:, None, :])[:, 0]
        rep = simulate_transmission(t, w[0], t.measurement(picked[0]), samples=1, seed=1)
        worst_gap = max(
            worst_gap,
            float(np.abs(analytic - direct).max()),
            float(np.abs(rep.analytic_dist - analytic[0]).max()),
        )
    t8 = Theory(8)
    state = t8.states().mean(axis=0)
    rep = simulate_transmission(t8, state, t8.measurement((0, 3, 6)), samples=100_000, seed=2024)
    passed = worst_gap <= 1e-12 and rep.tv_distance <= 0.01
    return CheckResult(
        "simulation",
        passed,
        (
            f"1300 marginals exact to {worst_gap:.2e}; "
            f"tv distance {rep.tv_distance:.4f} at 1e5 samples"
        ),
    )


def check_weights() -> CheckResult:
    """Closed-form triple weights agree with the solver; minima behave.

    Candidates (n, uniform 3-subset of range(n)) are drawn i.i.d. in chunks
    and the first 1000 whose closed-form weights are all positive are kept,
    the law of a loop that redraws until it accepts; the solver then builds
    each n's kept triples as one stack.
    """
    rng = np.random.default_rng(2024)
    chunks = []
    accepted = 0
    while accepted < 1000:
        ns = rng.integers(3, 33, size=1024)
        # a uniform 3-subset: each draw skips the indices already taken
        a = rng.integers(0, ns)
        b = rng.integers(0, ns - 1)
        b += b >= a
        c = rng.integers(0, ns - 2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        c += c >= lo
        c += c >= hi
        idx = np.sort(np.stack([a, b, c], axis=1), axis=1)
        closed = np.empty(idx.shape)
        for n in range(3, 33):
            at = ns == n
            closed[at] = np.column_stack(closed_form_triple_weights(Theory(n), *idx[at].T))
        ok = closed.min(axis=1) >= 1e-9
        chunks.append((ns[ok], idx[ok], closed[ok]))
        accepted += int(ok.sum())
    ns, idx, closed = (np.concatenate(part)[:1000] for part in zip(*chunks))
    worst = 0.0
    for n in range(3, 33):
        at = ns == n
        # all three weights positive, so every kept triple is a measurement
        mu, _ = _realize_triples(n, idx[at])
        gap = np.abs(mu - closed[at]).max(initial=0.0)
        worst = max(worst, float(gap))
    minima = [min_effect_weight(Theory(n)) for n in range(3, 64, 2)]
    positive = all(v > 0 for v in minima)
    family = []
    for n in range(3, 64, 2):
        j2 = (n - 1) // 4 if (n - 1) % 4 == 0 else (n + 1) // 4
        family.append(min(closed_form_triple_weights(Theory(n), 0, j2, (n + 1) // 2)))
    decreasing = all(a > b for a, b in zip(family, family[1:]))
    passed = worst <= 1e-9 and positive and decreasing
    return CheckResult(
        "weights",
        passed,
        (
            f"{len(ns)} triples: worst weight gap {worst:.2e}; "
            f"odd minima positive, witness family decreasing "
            f"({family[0]:.3f} down to {family[-1]:.6f})"
        ),
    )


REGISTRY = {
    "even-capacity": check_even_capacity,
    "odd-capacity": check_odd_capacity,
    "vertices": check_vertices,
    "decomposition": check_decomposition,
    "reduction": check_reduction,
    "ic": check_ic,
    "ne": check_ne,
    "simulation": check_simulation,
    "weights": check_weights,
}


NOTES = (
    (
        "triple-completion-weights",
        "A 3-outcome completion must solve the unit-effect equation exactly; "
        "fixed coefficients such as 1/r^2 on the anchor effect and 1/2 on the "
        "flanking effects do not sum to the unit effect for small odd n, so "
        "every rate here uses the solved completion weights.",
    ),
    (
        "rac-encoding",
        "Index maps of the form x0*n/2 + x1 + x0*x1 collide at n=4 and break "
        "the certainty of the first bit in general; the shipped encoding "
        "x0*n/2 + (x0 xor x1) restores it. Exhaustive search confirms the "
        "shipped encoding is optimal at n=4 and 6, and finds strictly better "
        "unconstrained encodings from n=8 on (one bit read off two adjacent "
        "saturated vertices).",
    ),
    (
        "not-equal-even-domain",
        "On even polygons each extremal effect saturates on two adjacent "
        "vertices, so the full-alphabet NOT-EQUAL construction outputs 0 at "
        "x = y-1; the shipped protocol halves the alphabet by using every "
        "second vertex, which restores strict positivity off the diagonal.",
    ),
    (
        "simulation-outcome-law",
        "The receiver's outcome law pairs measurement effects with the "
        "transmitted vertex state; pairing effects with effects is a type "
        "mismatch and defines no distribution. The simulator samples "
        "P(outcome | vertex) = <effect, vertex state>.",
    ),
)


def run_checks(only=None, max_n: int = 64):
    """Run all (or selected) checks, each timed; max_n goes to the sweeps.
    An unknown key, or a max_n that ``_sweep`` refuses for a selected sweep
    (the first such sweep in the order asked), fails before any check runs."""
    keys = list(REGISTRY) if not only else list(only)
    unknown = [key for key in keys if key not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; known: {', '.join(REGISTRY)}")
    for key in keys:
        if key in _SWEEPS:
            _sweep(key, max_n)
    results = []
    for key in keys:
        fn = REGISTRY[key]
        t0 = time.perf_counter()
        result = fn(max_n=max_n) if key in _SWEEPS else fn()
        results.append(replace(result, elapsed_s=time.perf_counter() - t0))
    return results
