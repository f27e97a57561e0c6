"""Tests of the package's public surface."""

import ast
import inspect
import types
from pathlib import Path

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
    assert len(ngon.__all__) == len(DOCUMENTED) == 35
    assert set(ngon.__all__) == DOCUMENTED
    bound = {
        name
        for name, value in vars(ngon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(ngon.__all__)


def test_no_public_callable_takes_a_stopping_rule():
    # the Blahut-Arimoto bracket closes to BA_TOL within BA_MAX_ITER
    # iterations, both read at call time; no caller sets either
    functions = [name for name in ngon.__all__ if inspect.isfunction(getattr(ngon, name))]
    taking = [
        f"{name}({param})"
        for name in functions
        for param in inspect.signature(getattr(ngon, name)).parameters
        if param in ("tol", "max_iter")
    ]
    assert len(functions) == 18 and taking == []


def test_tolerances_are_named_at_module_level():
    # a float in (0, 1e-3) is a tolerance; outside a module-level assignment
    # it is a stray literal that should use a named one (the check gates in
    # checks.py, protocols.py and cli.py state their margins and stay literal)
    src = Path(ngon.__file__).parent
    stray = []
    for name in ("geometry.py", "capacity.py", "decomposition.py", "polytope.py"):
        tree = ast.parse((src / name).read_text())
        named = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(stmt)
        }
        stray += [
            f"{name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < 1e-3
            and id(node) not in named
        ]
    assert stray == []


def test_only_the_cli_renders():
    # the library returns plain data; cli.py is the one module that renders it
    to_dict, renderers = [], set()
    for path in sorted(Path(ngon.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_dict":
                to_dict.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").split(".")[0]}
            else:
                continue
            if modules & {"json", "csv"}:
                renderers.add(path.name)
    assert to_dict == []
    assert renderers == {"cli.py"}
