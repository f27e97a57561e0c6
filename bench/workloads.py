"""The benchmark's workloads: fixed lists of ngon CLI requests drawn from a
seed, each with the correctness gate its output must pass.

A gate takes the request's exit code and stdout and returns the problems it
found; an empty list passes.  Thresholds are those of ``ngon.checks``.  The
CLI prints floats at 9 significant digits, so a test that a printed value
lies within ``tol`` of a target never asks for less than the half unit of
rounding in the ninth digit (``ROUNDING`` times the target).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

LOG2_3 = math.log2(3.0)
ROUNDING = 5e-9

CAPACITY_RANGE = (3, 64)
CENSUS_ALPHABETS = (2, 3)
CENSUS_C_RANGE = (2.05, 2.95)
# vertex count per alphabet at c = 2 (degenerate) and at any c in (2, 3)
CENSUS_COUNTS = {2: (15, 27), 3: (27, 99)}
PROTOCOL_CHECKS = ("decomposition", "reduction", "ic", "ne", "simulation", "weights")
IC_N = 24
SIMULATE_REQUESTS = 3
SIMULATE_N_RANGE = (3, 64)
SIMULATE_SAMPLES = 1_000_000
SIMULATION_TV_MAX = 0.01


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    gate: Callable[[dict], list[str]]  # parsed stdout -> problems
    fixed: bool  # the argv does not depend on the seed

    def check(self, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        try:
            return self.gate(payload)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"payload lacks {exc!r}"]


def _near(value, target: float, tol: float) -> bool:
    return abs(value - target) <= max(tol, ROUNDING * abs(target))


def gate_capacity(payload: dict, lo: int, hi: int) -> list[str]:
    """Even capacities are 1 bit; odd ones lie in (1, log2 3]; n=3 is log2 3."""
    rows = payload["results"]
    problems = []
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        problems.append(f"sizes are not {lo}..{hi}")
    for r in rows:
        n, cap = r["n"], r["capacity_bits"]
        if n % 2 == 0 and not _near(cap, 1.0, 1e-6):
            problems.append(f"n={n}: even capacity {cap!r} not within 1e-6 of 1")
        if n % 2 == 1 and not 1.0 + 1e-9 < cap <= LOG2_3 + 1e-9:
            problems.append(f"n={n}: odd capacity {cap!r} outside (1 + 1e-9, log2 3 + 1e-9]")
        if n == 3 and not _near(cap, LOG2_3, 1e-6):
            problems.append(f"n=3: capacity {cap!r} not within 1e-6 of log2 3")
    return problems


def gate_census(payload: dict, alphabet: int, c: float) -> list[str]:
    """Vertex count by alphabet and c, nothing unclassified; c=2 is all zero-weight."""
    summary, vertices = payload["summary"], payload["vertices"]
    degenerate = c == 2.0
    expected = CENSUS_COUNTS[alphabet][0 if degenerate else 1]
    count = summary["vertex_count"]
    problems = []
    if (summary["alphabet_size"], summary["c"]) != (alphabet, c):
        problems.append(f"summary is for alphabet {summary['alphabet_size']}, c={summary['c']}")
    if count != expected or len(vertices) != expected:
        problems.append(f"{count} vertices in summary, {len(vertices)} listed; expected {expected}")
    if summary["unclassified_count"] != 0:
        problems.append(f"{summary['unclassified_count']} unclassified vertices")
    if degenerate:
        if summary["zero_weight_count"] != count or any(
            v["class"] != "ZERO_WEIGHT" for v in vertices
        ):
            problems.append("a vertex at c=2 is not zero-weight")
        if not _near(summary["max_capacity_bits"], 1.0, 1e-9):
            problems.append(f"max vertex capacity {summary['max_capacity_bits']!r} is not 1 bit")
    return problems


def gate_checks(payload: dict, keys: tuple[str, ...]) -> list[str]:
    """Every requested acceptance check ran and reports passed."""
    results = payload["results"]
    problems = []
    if tuple(r["key"] for r in results) != keys:
        problems.append(f"checks run: {[r['key'] for r in results]}")
    problems += [f"check {r['key']} failed: {r['details']}" for r in results if r["passed"] is not True]
    if payload["passed"] is not True:
        problems.append("report does not say passed")
    return problems


def gate_ic(payload: dict, n: int) -> list[str]:
    """Random access code laws, the capacity witness, and a dominating search."""
    problems = []
    if payload["n"] != n:
        problems.append(f"report is for n={payload['n']}")
    if not _near(payload["success_bit0"], 1.0, 1e-12):
        problems.append(f"first bit success {payload['success_bit0']!r} is not 1")
    law = 1.0 - math.cos(2.0 * math.pi / n) / 2.0
    if not _near(payload["success_bit1"], law, 1e-12):
        problems.append(f"second bit success {payload['success_bit1']!r} is not {law!r}")
    if not payload["info_sum_bits"] > 1.0 + 1e-9:
        problems.append(f"information sum {payload['info_sum_bits']!r} is not above 1 bit")
    if payload["one_bit_bound"] is not True:
        problems.append("one-bit capacity witness failed")
    if not payload["search"]["info_sum_bits"] >= payload["info_sum_bits"] - 1e-9:
        problems.append("exhaustive search is worse than the protocol")
    return problems


def gate_simulate(payload: dict, n: int, seed: int, samples: int) -> list[str]:
    """Echoed parameters, normalised laws, and Monte Carlo within tv 0.01."""
    problems = []
    if (payload["n"], payload["seed"], payload["samples"]) != (n, seed, samples):
        problems.append("report echoes other parameters")
    for name in ("analytic_dist", "empirical_dist"):
        if not _near(sum(payload[name]), 1.0, 1e-9):
            problems.append(f"{name} sums to {sum(payload[name])!r}")
    if not payload["tv_distance"] <= SIMULATION_TV_MAX:
        problems.append(f"tv distance {payload['tv_distance']!r} above {SIMULATION_TV_MAX}")
    return problems


def capacity_sweep(rng: random.Random) -> list[Request]:
    lo, hi = CAPACITY_RANGE
    argv = ("capacity", "--n-range", f"{lo}..{hi}")
    return [Request(argv, functools.partial(gate_capacity, lo=lo, hi=hi), True)]


def vertex_census(rng: random.Random) -> list[Request]:
    requests = []
    for alphabet in CENSUS_ALPHABETS:
        drawn = f"{rng.uniform(*CENSUS_C_RANGE):.4f}"
        for c in ("2.0", drawn):
            argv = ("vertices", "--alphabet-size", str(alphabet), "--c", c)
            gate = functools.partial(gate_census, alphabet=alphabet, c=float(c))
            requests.append(Request(argv, gate, c == "2.0"))
    return requests


def protocol_checks(rng: random.Random) -> list[Request]:
    requests = [
        Request(
            ("check", "--only", ",".join(PROTOCOL_CHECKS), "--format", "json"),
            functools.partial(gate_checks, keys=PROTOCOL_CHECKS),
            True,
        ),
        Request(("ic", "--n", str(IC_N), "--search"), functools.partial(gate_ic, n=IC_N), True),
    ]
    for _ in range(SIMULATE_REQUESTS):
        n = rng.randint(*SIMULATE_N_RANGE)
        vertex = rng.randrange(n)
        seed = rng.randrange(2**31)
        argv = (
            "simulate", "--n", str(n), "--vertex", str(vertex),
            "--seed", str(seed), "--samples", str(SIMULATE_SAMPLES),
        )
        gate = functools.partial(gate_simulate, n=n, seed=seed, samples=SIMULATE_SAMPLES)
        requests.append(Request(argv, gate, False))
    return requests


WORKLOADS = {
    "capacity-sweep": capacity_sweep,
    "vertex-census": vertex_census,
    "protocol-checks": protocol_checks,
}


def build(workload: str, seed: int) -> list[Request]:
    """The request list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed))
