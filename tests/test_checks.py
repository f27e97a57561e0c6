"""The stacked acceptance checks fail when the code they certify is broken,
and stay stacked."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from ngon import checks, decomposition, geometry, protocols
from ngon.geometry import InfeasibleMeasurementError, ResourceBoundError, Theory


@pytest.mark.parametrize("module", [checks, protocols])
def test_simulation_check_fails_on_a_shifted_decomposition(monkeypatch, module):
    # the stacked rows (checks) and simulate_transmission (protocols) each catch it
    def shifted(theory, state):
        return geometry.extremal_decomposition(theory, state) + 1e-9

    monkeypatch.setattr(module, "extremal_decomposition", shifted)
    assert not checks.check_simulation().passed


def test_weights_check_fails_when_one_solved_weight_moves(monkeypatch):
    moved = []

    def nudged(n, indices):
        mu, effects = geometry._realize_triples(n, indices)
        if len(mu) and not moved:
            mu[0, 0] += 1e-8
            moved.append(n)
        return mu, effects

    monkeypatch.setattr(checks, "_realize_triples", nudged)
    assert not checks.check_weights().passed
    assert len(moved) == 1


def test_ne_check_fails_on_a_nonzero_diagonal(monkeypatch):
    def leaky(theory):
        matrix = np.array(protocols.ne_matrix(theory).matrix)
        matrix[0, 0] = 1e-13
        return protocols._ne_report(theory.n, matrix)

    monkeypatch.setattr(checks, "ne_matrix", leaky)
    assert not checks.check_ne(max_n=8).passed


@pytest.mark.parametrize(
    "max_n, even, odd",
    [
        (64, "smallest losing-orbit margin 0.00347 at n=64", "smallest losing-orbit margin 0.00268 at n=63"),
        (8, "smallest losing-orbit margin 0.207 at n=8", "smallest losing-orbit margin 0.131 at n=7"),
    ],
)
def test_capacity_checks_state_their_smallest_margin(max_n, even, odd):
    assert checks.check_even_capacity(max_n).details.endswith(f"(tol 1e-6); {even}")
    assert checks.check_odd_capacity(max_n).details.endswith(f"of Blahut-Arimoto; {odd}")
    # the square and the pentagon have no losing orbit
    assert checks.check_even_capacity(4).details.endswith("(tol 1e-6); no losing orbit")


def test_odd_capacity_check_fails_when_the_closed_form_moves(monkeypatch):
    # the ascent on the winner's 3-state channel is the witness: a closed
    # form 1e-8 off, still decreasing and above 1 bit, fails the check
    rate = checks.odd_triple_rate
    monkeypatch.setattr(checks, "odd_triple_rate", lambda t: rate(t) + 1e-8)
    result = checks.check_odd_capacity(max_n=15)
    assert not result.passed and "within 1.00e-08 of Blahut-Arimoto" in result.details


def _lowered(trace):
    information = list(trace.information)
    information[trace.selected] -= 1e-8
    return replace(trace, information=tuple(information))


@pytest.mark.parametrize(
    "change, details",
    [
        pytest.param(_lowered, "worst information loss 1.00e-08", id="loss"),
        pytest.param(
            lambda trace: replace(trace, conditional=trace.conditional + 1e-9),
            "worst chain-rule residual 1.00e-09",
            id="chain-rule",
        ),
        pytest.param(
            lambda trace: replace(trace, stages=trace.stages + ((0.0, (0, 1, 2, 3), np.full(4, 0.25)),)),
            "a stage kept more than 3 letters",
            id="four-letters",
        ),
    ],
)
def test_reduction_check_fails_on_a_broken_trace(monkeypatch, change, details):
    # every trace of the check's one stacked reduction is broken the same way
    def broken(*args):
        return [change(trace) for trace in decomposition.caratheodory_reduce(*args)]

    monkeypatch.setattr(checks, "caratheodory_reduce", broken)
    result = checks.check_reduction()
    assert not result.passed and details in result.details


def test_decomposition_check_fails_when_a_reconstruction_moves(monkeypatch):
    def shifted(matrix, weights):
        result = decomposition.decompose_into_binary_channels(matrix, weights)
        q = result.q.copy()
        q[0] += 1e-8
        return decomposition.DecompositionResult(q, result.components)

    monkeypatch.setattr(checks, "decompose_into_binary_channels", shifted)
    result = checks.check_decomposition()
    # each column of the three components sums to 3, so some entry of the
    # first channel's reconstruction moves by at least 1e-8
    assert not result.passed
    worst = float(result.details.split("worst reconstruction ")[1].split(",")[0])
    assert worst >= 1e-8


def test_reduction_draws_the_triples_of_the_measurement_redraw_loop(monkeypatch):
    # the loop the check replaced: build a measurement, redraw when it raises,
    # then draw the letters and weights of the ensemble
    rng = np.random.default_rng(29)
    expected = []
    for _ in range(100):
        while True:
            triple = tuple(sorted(int(v) for v in rng.choice(5, 3, replace=False)))
            try:
                Theory(5).measurement(triple)
            except InfeasibleMeasurementError:
                continue
            break
        expected.append(triple)
        rng.integers(0, 5, size=6)
        rng.dirichlet(np.ones(6))
    seen = []

    def recording(n, indices):
        seen.append((n, [tuple(int(j) for j in row) for row in indices]))
        return geometry._realize_triples(n, indices)

    monkeypatch.setattr(checks, "_realize_triples", recording)
    assert checks.check_reduction().passed
    assert seen == [(5, expected)]


def test_reduction_check_splits_once_and_solves_once_per_stage(monkeypatch):
    # one stack for all 100 ensembles: a per-ensemble loop would split and solve 100 times
    splits = []

    def counted_split(theory, state):
        splits.append(np.shape(state))
        return geometry.extremal_decomposition(theory, state)

    for module in (checks, decomposition):
        monkeypatch.setattr(module, "extremal_decomposition", counted_split)
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        if sys._getframe(1).f_globals["__name__"] == "ngon.decomposition":
            solves.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    result = checks.check_reduction()
    assert result.passed
    assert splits == [(600, 3)]
    # a pentagon ensemble has at most 3 stages, so it peels at most twice, and
    # its 10 triples fit one chunk: one batched solve per peel
    assert 1 <= len(solves) <= 3


def test_ic_check_passes_at_its_sweep_bound():
    # the gate asks an excess over one bit above 1e-9; the excess falls as n^-4
    # and is 9.90e-10 at n = 730, so a larger bound would admit a false FAIL
    result = checks.check_ic(max_n=checks.IC_SWEEP_MAX)
    assert result.passed, result.details


@pytest.mark.parametrize(
    "key, max_n, message",
    [
        ("even-capacity", 65, "check even-capacity: max_n=65 above the enumeration bound 64"),
        ("odd-capacity", 65, "check odd-capacity: max_n=65 above the enumeration bound 64"),
        ("ic", 729, "check ic: max_n=729 above the sweep bound 728"),
        # the sweep check alone once ran to n = 800 and reported a false FAIL
        ("ic", 800, "check ic: max_n=800 above the sweep bound 728"),
        ("ne", 601, "check ne: max_n=601 above the NOT-EQUAL bound 600"),
        ("ne", 700, "check ne: max_n=700 above the NOT-EQUAL bound 600"),
    ],
)
def test_a_sweep_check_refuses_its_bound_before_any_work(monkeypatch, key, max_n, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran")

    for name in ("_certificate", "run_ic", "ne_matrix"):
        monkeypatch.setattr(checks, name, unreachable)
    with pytest.raises(ResourceBoundError) as alone:
        checks.REGISTRY[key](max_n=max_n)
    with pytest.raises(ResourceBoundError) as selected:
        checks.run_checks(only=[key], max_n=max_n)
    assert str(alone.value) == str(selected.value) == message


def test_every_sweep_is_checked_before_the_first_check_runs(monkeypatch):
    calls = []
    certificate = checks._certificate

    def counted(theory):
        calls.append(theory)
        return certificate(theory)

    monkeypatch.setattr(checks, "_certificate", counted)
    # the even sweep would pass at 6; the odd one needs max_n >= 7
    with pytest.raises(ValueError, match="check odd-capacity: max_n=6 is below 7"):
        checks.run_checks(max_n=6)
    assert calls == []
    with pytest.raises(ResourceBoundError, match="check even-capacity: max_n=65 above the enumeration bound 64"):
        checks.run_checks(max_n=65)
    # several sweeps over their bounds: the first in the order asked is named
    with pytest.raises(ResourceBoundError, match="check ic: max_n=800 above the sweep bound"):
        checks.run_checks(only=["ic", "ne"], max_n=800)
    with pytest.raises(ResourceBoundError, match="check ne: max_n=700 above the NOT-EQUAL bound"):
        checks.run_checks(only=["ne", "even-capacity"], max_n=700)
    assert calls == []


@pytest.mark.parametrize("max_n, sizes", [(8, [4, 6, 8, 10, 12]), (64, list(range(4, 65, 2)))])
def test_the_ic_check_runs_each_size_once(monkeypatch, max_n, sizes):
    # the square and the search comparisons read the sweep's reports; only
    # sizes the sweep did not cover are run again
    calls = []
    run_ic = checks.run_ic

    def counted(theory):
        calls.append(theory.n)
        return run_ic(theory)

    monkeypatch.setattr(checks, "run_ic", counted)
    assert checks.check_ic(max_n).passed
    assert calls == sizes


def test_vertices_check_states_the_census_of_the_open_interval(monkeypatch):
    calls = []
    enumerate_vertices = checks.enumerate_vertices

    def recording(alphabet_size, c):
        calls.append((alphabet_size, c))
        return enumerate_vertices(alphabet_size, c)

    monkeypatch.setattr(checks, "enumerate_vertices", recording)
    result = checks.check_vertices()
    assert result.passed and calls == [(3, 2.0), (3, 2.25)]
    assert result.details.endswith("; every c in (2, 3): 99 vertices, 0 unclassified")
    # the gate still holds: unclassified interior vertices fail the check
    monkeypatch.setattr(
        checks, "classify_vertex", lambda v: checks.UNCLASSIFIED if v.c > 2 else checks.ZERO_WEIGHT
    )
    result = checks.check_vertices()
    assert not result.passed and result.details.endswith("99 vertices, 99 unclassified")
