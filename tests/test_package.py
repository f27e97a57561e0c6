"""Tests of the package's public surface."""

import types

import ngon

DOCUMENTED = {
    # capacity
    "BAResult",
    "CapacityResult",
    "ConvergenceError",
    "antipodal_pair_rate",
    "blahut_arimoto",
    "capacity_candidates",
    "odd_triple_rate",
    "theory_capacity",
    # decomposition
    "DecompositionError",
    "DecompositionResult",
    "InfeasibleChannelError",
    "ReductionTrace",
    "caratheodory_reduce",
    "decompose_into_binary_channels",
    "trace_information",
    # geometry
    "DegenerateTripleError",
    "InfeasibleMeasurementError",
    "InvalidStateError",
    "Measurement",
    "Theory",
    "closed_form_triple_weights",
    "extremal_decomposition",
    "min_effect_weight",
    # polytope
    "ResourceBoundError",
    "VertexPoint",
    "classify_vertex",
    "enumerate_vertices",
    "max_vertex_capacity",
    "vertex_summary",
    # protocols
    "ICReport",
    "NEReport",
    "SimulationReport",
    "best_ic_encoding",
    "ic_bound_check",
    "ne_matrix",
    "run_ic",
    "simulate_transmission",
}


def test_package_exports_only_the_documented_surface():
    assert len(ngon.__all__) == len(DOCUMENTED) == 37
    assert set(ngon.__all__) == DOCUMENTED
    bound = {
        name
        for name, value in vars(ngon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(ngon.__all__)
