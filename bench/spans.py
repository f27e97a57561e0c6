"""Spans around the public functions of the ngon modules, recorded from outside.

``Tracer`` replaces every public function of the layer modules with a
wrapper that appends one span (key, start, end, parent, counters) to an
in-memory list.  A function is replaced at every place it is bound: in the
module that defines it, in every ngon module that imported it by name, as a
method of ``Theory``, and among the values of ``checks.REGISTRY``.  Patching
only the defining module would miss calls made through the other bindings.
Leaving the ``with`` block restores every original.

``summarize`` folds the spans into per-key totals: calls, inclusive time,
self time (inclusive minus the direct child spans) and summed counters.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

LAYERS = ("cli", "checks", "protocols", "decomposition", "polytope", "capacity", "geometry")
# Methods of geometry.Theory traced as spans, keyed "geometry.<method>".
THEORY_METHODS = ("measurement", "states", "effects")


def enumeration_cost(alphabet_size: int) -> dict:
    """Computed size of the brute-force vertex enumeration for one alphabet.

    The polytope has 3X+3 variables, X+1 equalities and 6X+3 inequalities,
    so every choice of 2X+2 tight inequalities is a basis.  Each basis is a
    dense d x d float64 system (d = 3X+3) that is built once, read by the
    batched determinant and read again by the solve.  Flops count one LU
    factorisation for the determinant and one LU plus substitution for the
    solve, as if every basis were nonsingular.
    """
    d = 3 * alphabet_size + 3
    bases = math.comb(6 * alphabet_size + 3, 2 * alphabet_size + 2)
    return {
        "bases": bases,
        "kernel_flops": bases * (4 * d**3 // 3 + 2 * d * d),
        "kernel_bytes": bases * 3 * d * d * 8,
    }


def _observe(key: str, result, args, kwargs) -> dict | None:
    """Counters read off a traced call's arguments and result."""
    if key == "capacity.blahut_arimoto":
        return {"iterations": result.iterations}
    if key == "capacity.theory_capacity":
        return {"winner_iterations": result.iterations}
    if key == "capacity.capacity_candidates":
        return {"candidates": len(result)}
    if key == "polytope.enumerate_vertices":
        alphabet = args[0] if args else kwargs["alphabet_size"]
        return {"vertices": len(result), **enumeration_cost(int(alphabet))}
    if key.startswith("checks.check_"):
        return {"passed": int(result.passed)}
    return None


def _public_functions(module):
    """(name, function) for every public function the module defines."""
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield name, value


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = {"raised": 1}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _observe(key, result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, holder, name, value, *, item=False) -> None:
        original = holder[name] if item else getattr(holder, name)
        self._restore.append((holder, name, original, item))
        if item:
            holder[name] = value
        else:
            setattr(holder, name, value)

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {name: sys.modules[f"ngon.{name}"] for name in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        theory = modules["geometry"].Theory
        for name in THEORY_METHODS:
            self._set(theory, name, self._wrap(f"geometry.{name}", vars(theory)[name]))
        bindings = [m for n, m in sys.modules.items() if n == "ngon" or n.startswith("ngon.")]
        for module in bindings:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        registry = modules["checks"].REGISTRY
        for key, fn in list(registry.items()):
            hit = wrappers.get(id(fn))
            if hit is not None and hit[0] is fn:
                self._set(registry, key, hit[1], item=True)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            holder, name, original, item = self._restore.pop()
            if item:
                holder[name] = original
            else:
                setattr(holder, name, original)


def summarize(spans) -> dict:
    """Per-key totals: calls, incl_s, self_s and every counter, summed."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for (key, start, end, _, counters), inner in zip(spans, child):
        row = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - inner
        for name, value in (counters or {}).items():
            row[name] = row.get(name, 0) + value
    return out
