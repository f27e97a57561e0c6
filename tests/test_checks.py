"""The stacked acceptance checks fail when the code they certify is broken."""

import numpy as np
import pytest

from ngon import checks, geometry, protocols


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
