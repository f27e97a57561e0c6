"""Polygon-theory toolkit: geometry, capacities, polytopes, and protocols.

The package models the family of generalized probabilistic theories whose
normalized state space is a regular polygon at height 1 inside a
3-dimensional cone.  It computes their one-shot classical capacities,
enumerates the vertex structure of the weight-capped channel polytope
behind the even-parity 1-bit bound, and runs the communication protocols
that separate decodable information from capacity.
"""

from .capacity import (
    BAResult,
    CapacityResult,
    ConvergenceError,
    antipodal_pair_rate,
    blahut_arimoto,
    capacity_candidates,
    odd_triple_rate,
    theory_capacity,
)
from .decomposition import (
    DecompositionError,
    DecompositionResult,
    InfeasibleChannelError,
    ReductionTrace,
    caratheodory_reduce,
    decompose_into_binary_channels,
)
from .geometry import (
    DegenerateTripleError,
    InfeasibleMeasurementError,
    InvalidStateError,
    Measurement,
    ResourceBoundError,
    Theory,
    closed_form_triple_weights,
    extremal_decomposition,
    min_effect_weight,
)
from .polytope import VertexPoint, classify_vertex, enumerate_vertices, vertex_summary
from .protocols import (
    ICReport,
    NEReport,
    SimulationReport,
    best_ic_encoding,
    ic_bound_check,
    ne_matrix,
    run_ic,
    simulate_transmission,
)

__version__ = "0.1.0"

__all__ = [
    "BAResult",
    "CapacityResult",
    "ConvergenceError",
    "DecompositionError",
    "DecompositionResult",
    "DegenerateTripleError",
    "ICReport",
    "InfeasibleChannelError",
    "InfeasibleMeasurementError",
    "InvalidStateError",
    "Measurement",
    "NEReport",
    "ReductionTrace",
    "ResourceBoundError",
    "SimulationReport",
    "Theory",
    "VertexPoint",
    "antipodal_pair_rate",
    "best_ic_encoding",
    "blahut_arimoto",
    "capacity_candidates",
    "caratheodory_reduce",
    "classify_vertex",
    "closed_form_triple_weights",
    "decompose_into_binary_channels",
    "enumerate_vertices",
    "extremal_decomposition",
    "ic_bound_check",
    "min_effect_weight",
    "ne_matrix",
    "odd_triple_rate",
    "run_ic",
    "simulate_transmission",
    "theory_capacity",
    "vertex_summary",
]
