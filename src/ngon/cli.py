"""Command line front end.

Subcommands cover the extremal geometry (states, effects), capacity sweeps,
polytope vertex enumeration, the communication protocols (ic, ne, simulate),
and the acceptance checks (check).  JSON output is deterministic: keys are
sorted, every float is rounded to 9 significant digits, and timing fields are
kept out of JSON so identical invocations produce identical bytes.  CSV is
for spreadsheet-style consumption and may include runtimes.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors
(argparse errors and invalid parameter values), 3 on numerical failures.

Environment defaults: NGON_SEED, NGON_SAMPLES, NGON_JOBS, NGON_TOL and
NGON_MAX_N override the built-in defaults of the matching options.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .capacity import BA_TOL, ConvergenceError, theory_capacity
from .checks import NOTES, REGISTRY, run_checks
from .decomposition import DecompositionError
from .geometry import ROUNDOFF, Theory
from .polytope import enumerate_vertices, vertex_summary
from .protocols import (
    IC_SEARCH_MAX,
    best_ic_encoding,
    ic_bound_check,
    ne_matrix,
    run_ic,
    simulate_transmission,
)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name}={raw!r} is not an integer")


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"environment variable {name}={raw!r} is not a number")


def _sig9(value: float) -> float:
    v = float(f"{value:.9g}")
    return 0.0 if v == 0.0 else v


def _round_tree(obj):
    """Copy a JSON-ready tree with every float at 9 significant digits."""
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig9(float(obj))
    return obj


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(_round_tree(payload), sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"indices must be comma-separated integers, got {text!r}")


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like 4..10, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range endpoints must be integers, got {text!r}")
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return range(a, b + 1)


def cmd_states(args) -> int:
    t = Theory(args.n)
    states = t.states()
    if args.format == "csv":
        rows = [(i, *(float(v) for v in states[i])) for i in range(t.n)]
        _write(_csv_text(("index", "x", "y", "z"), rows), args.out)
        return 0
    payload = {
        "n": t.n,
        "parity": t.parity,
        "radius": float(t.r),
        "states": [[float(v) for v in row] for row in states],
    }
    _write(_json_text(payload), args.out)
    return 0


def cmd_effects(args) -> int:
    t = Theory(args.n)
    effects = t.effects()
    overlap = effects @ t.states().T
    saturating = [
        [int(i) for i in range(t.n) if abs(overlap[j, i] - 1.0) <= ROUNDOFF]
        for j in range(t.n)
    ]
    if args.format == "csv":
        rows = [(j, *(float(v) for v in effects[j])) for j in range(t.n)]
        _write(_csv_text(("index", "x", "y", "z"), rows), args.out)
        return 0
    payload = {
        "n": t.n,
        "parity": t.parity,
        "effects": [[float(v) for v in row] for row in effects],
        "overlap": [[float(v) for v in row] for row in overlap],
        "saturating": saturating,
    }
    _write(_json_text(payload), args.out)
    return 0


def _capacity_entry(job):
    n, tol = job
    t0 = time.perf_counter()
    result = theory_capacity(Theory(n), tol=tol)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return result.to_dict(), runtime_ms


def cmd_capacity(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None:
        ns = [args.n]
    else:
        ns = [n for n in _parse_range(args.n_range) if n >= 3]
        if not ns:
            raise ValueError("the range contains no polygon size >= 3")
    jobs = [(n, args.tol) for n in ns]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_capacity_entry, jobs))
    else:
        results = [_capacity_entry(job) for job in jobs]
    if args.format == "csv":
        rows = [
            (d["n"], d["parity"], float(d["capacity_bits"]), float(ms))
            for d, ms in results
        ]
        _write(_csv_text(("n", "parity", "capacity_bits", "runtime_ms"), rows), args.out)
        return 0
    _write(_json_text({"results": [d for d, _ in results]}), args.out)
    return 0


def cmd_vertices(args) -> int:
    verts = enumerate_vertices(args.alphabet_size, args.c)
    summary = vertex_summary(args.alphabet_size, args.c)
    if args.format == "csv":
        header = ["index", "class", "lam0", "lam1", "lam2"]
        header += [f"P_{y}_{x}" for y in range(3) for x in range(args.alphabet_size)]
        rows = []
        for i, v in enumerate(verts):
            d = v.to_dict()
            rows.append(
                (i, d["class"], *(float(x) for x in d["lambda"]),
                 *(float(x) for row in d["P"] for x in row))
            )
        _write(_csv_text(header, rows), args.out)
        return 0
    payload = {"summary": summary, "vertices": [v.to_dict() for v in verts]}
    _write(_json_text(payload), args.out)
    return 0


def cmd_ic(args) -> int:
    t = Theory(args.n)
    if args.search and t.n > IC_SEARCH_MAX:
        raise ValueError(f"exhaustive search is capped at n={IC_SEARCH_MAX}")
    report = run_ic(t)
    payload = report.to_dict()
    payload["one_bit_bound"] = bool(ic_bound_check(t))
    if args.search:
        encoding, anchors, best = best_ic_encoding(t)
        payload["search"] = {
            "encoding": {f"{x0}{x1}": int(v) for (x0, x1), v in encoding.items()},
            "anchors": [int(a) for a in anchors],
            "info_sum_bits": float(best),
            "matches_protocol": bool(abs(best - report.info_sum_bits) <= 1e-9),
        }
    if args.format == "csv":
        rows = [("n", float(payload["n"]))]
        for key in ("success_bit0", "success_bit1", "worst_bit_success",
                    "info_bit0", "info_bit1", "info_sum_bits", "info_avg_bits"):
            rows.append((key, float(payload[key])))
        _write(_csv_text(("key", "value"), rows), args.out)
        return 0
    _write(_json_text(payload), args.out)
    return 0


def cmd_ne(args) -> int:
    report = ne_matrix(Theory(args.n))
    if args.format == "csv":
        size = report.effective_alphabet
        header = ["x"] + [f"y{y}" for y in range(size)]
        rows = [(x, *(float(v) for v in report.matrix[x])) for x in range(size)]
        _write(_csv_text(header, rows), args.out)
        return 0
    _write(_json_text(report.to_dict()), args.out)
    return 0


def cmd_simulate(args) -> int:
    t = Theory(args.n)
    if args.indices:
        idx = _parse_indices(args.indices)
    elif t.even:
        idx = (0, t.n // 2)
    else:
        m = (t.n - 1) // 2
        idx = (0, m, m + 1)
    measurement = t.measurement(idx)
    if args.vertex is not None:
        if not 0 <= args.vertex < t.n:
            raise ValueError(f"vertex index must lie in [0, {t.n})")
        state = t.states()[args.vertex]
    else:
        state = np.array([0.0, 0.0, 1.0])
    report = simulate_transmission(t, state, measurement, samples=args.samples, seed=args.seed)
    if args.format == "csv":
        rows = [
            (k, float(report.analytic_dist[k]), float(report.empirical_dist[k]))
            for k in range(len(report.analytic_dist))
        ]
        rows.append(("tv_distance", float(report.tv_distance), float("nan")))
        _write(_csv_text(("outcome", "analytic", "empirical"), rows), args.out)
        return 0
    _write(_json_text(report.to_dict()), args.out)
    return 0


def cmd_check(args) -> int:
    only = [part.strip() for part in args.only.split(",")] if args.only else None
    results = run_checks(only=only, max_n=args.max_n)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        payload = {
            "results": [
                {"key": r.key, "passed": r.passed, "details": r.details} for r in results
            ],
            "notes": [{"key": k, "text": t} for k, t in NOTES],
            "passed": not failed,
        }
        _write(_json_text(payload), args.out)
        return 1 if failed else 0
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    for key, text in NOTES:
        lines.append(f"NOTE {key}: {text}")
    _write("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngon",
        description="Polygon-model toolkit: geometry, capacities, polytopes, protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_flag=True):
        if n_flag:
            p.add_argument("--n", type=int, required=True, help="polygon size (>= 3)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("states", help="extremal states")
    add_common(p)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("effects", help="extremal effects and the overlap table")
    add_common(p)
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("capacity", help="one-shot classical capacity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="single polygon size")
    group.add_argument("--n-range", default=None, help="inclusive range, e.g. 4..12")
    p.add_argument("--tol", type=float, default=_env_float("NGON_TOL", BA_TOL))
    p.add_argument("--jobs", type=int, default=_env_int("NGON_JOBS", 1))
    add_common(p, n_flag=False)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("vertices", help="capped-channel polytope vertices")
    p.add_argument("--alphabet-size", type=int, default=3)
    p.add_argument("--c", type=float, default=2.0)
    add_common(p, n_flag=False)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("ic", help="two-bit random access protocol (even n)")
    add_common(p)
    p.add_argument("--search", action="store_true", help="include the exhaustive optimum")
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("ne", help="NOT-EQUAL witness matrix")
    add_common(p)
    p.set_defaults(func=cmd_ne)

    p = sub.add_parser("simulate", help="classical simulation of one transmission")
    add_common(p)
    p.add_argument("--samples", type=int, default=_env_int("NGON_SAMPLES", 100_000))
    p.add_argument("--seed", type=int, default=_env_int("NGON_SEED", 0))
    p.add_argument("--indices", default=None, help="measurement indices, e.g. 0,2,3")
    p.add_argument("--vertex", type=int, default=None, help="send this vertex instead of the barycenter")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the acceptance checks")
    p.add_argument("--only", default=None, help=f"comma list from: {', '.join(REGISTRY)}")
    p.add_argument("--max-n", type=int, default=_env_int("NGON_MAX_N", 64))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
