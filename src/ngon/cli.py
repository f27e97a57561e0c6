"""Command line front end.

Subcommands cover the extremal geometry (states, effects), capacity sweeps,
polytope vertex enumeration, the communication protocols (ic, ne, simulate),
and the acceptance checks (check).  JSON output is deterministic: keys are
sorted, every float is rounded to 9 significant digits, and timing fields are
kept out of JSON so identical invocations produce identical bytes.  CSV is
for spreadsheet-style consumption and may include runtimes: the
``runtime_ms`` column of ``capacity`` gives each size an even share of the
elapsed time of the whole sweep, which is timed as one call.

The library returns plain data and this module is the one place that renders
it: a dataclass record renders by its fields, an array as nested lists, and
a tuple key such as the bit pair (0, 1) as its joined digits, "01".  JSON is
written in one walk of the payload, straight to the indent-2 text that
``json.dumps`` prints for the rounded tree, and each distinct float is
formatted once.

Each ``cmd_*`` handler returns its JSON payload, a dict or a record, and its
other rendering: a CSV ``(header, rows)`` table whose rows are an iterator
that only a CSV request consumes, or the text report of ``check``.  ``main``
picks the format and writes once, to stdout or ``--out``.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors
(argparse errors and invalid parameter values), 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .capacity import ConvergenceError, theory_capacities
from .checks import NOTES, REGISTRY, run_checks
from .decomposition import DecompositionError
from .geometry import ROUNDOFF, ResourceBoundError, Theory
from .polytope import classify_vertex, enumerate_vertices, vertex_summary
from .protocols import (
    NEReport,
    SimulationReport,
    best_ic_encoding,
    ic_bound_check,
    ne_matrix,
    run_ic,
    simulate_transmission,
)


def _fields(record) -> dict:
    """A dataclass record as a dict of its fields, values as they are."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


class _Floats(dict):
    """Float -> the JSON text of its 9-significant-digit rounding, each value
    formatted once; -0.0 shares the key of 0.0 and prints as 0.0."""

    def __missing__(self, value):
        text = f"{value:.9g}"
        # a fixed-point text with a fraction and at most 9 digits is already
        # the repr of the float it names; other forms take the long way
        if "." not in text or "e" in text:
            text = repr(float(text) + 0.0)
            text = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
        self[value] = text
        return text


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
    """The bytes of ``json.dumps(..., sort_keys=True, indent=2)`` on the payload
    with every float at 9 significant digits, written in one walk.  A key
    that is neither a str nor a tuple raises TypeError; no payload has one."""
    floats = _Floats()

    def text(obj, nl: str) -> str:
        if isinstance(obj, float):
            return floats[obj]
        if isinstance(obj, (np.ndarray, np.generic)):
            return text(obj.tolist(), nl)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            inner = nl + "  "
            items = [floats[v] if type(v) is float else text(v, inner) for v in obj]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = nl + "  "
            # a later key wins when two tuple keys join alike
            fields = {"".join(map(str, k)) if isinstance(k, tuple) else k: v for k, v in obj.items()}
            items = [encode_basestring_ascii(k) + ": " + text(fields[k], inner) for k in sorted(fields)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if dataclasses.is_dataclass(obj):
            return text(_fields(obj), nl)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    return text(payload, "\n") + "\n"


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


def _indexed(rows):
    return ((i, *row) for i, row in enumerate(rows))


# largest n of the states report: its table and rendering grow as n; n = 50,000
# took 0.37-0.62 s and 62 MiB as JSON (fresh process, 2 shared vCPUs)
STATES_MAX = 50_000


def cmd_states(args) -> tuple[dict, tuple]:
    if args.n > STATES_MAX:
        raise ResourceBoundError(f"the states report is capped at n={STATES_MAX}")
    t = Theory(args.n)
    payload = {
        "n": t.n,
        "parity": t.parity,
        "radius": float(t.r),
        "states": t.states().tolist(),
    }
    return payload, (("index", "x", "y", "z"), _indexed(payload["states"]))


# largest n of the effects report: its (n, n) overlap table and rendering grow
# as n^2; n = 600 took 0.23-0.31 s and 70 MiB as JSON (fresh process, 2 shared
# vCPUs)
EFFECTS_MAX = 600


def cmd_effects(args) -> tuple[dict, tuple]:
    if args.n > EFFECTS_MAX:
        raise ResourceBoundError(f"the effects report is capped at n={EFFECTS_MAX}")
    t = Theory(args.n)
    effects = t.effects()
    overlap = effects @ t.states().T
    saturating = [np.flatnonzero(np.abs(row - 1.0) <= ROUNDOFF).tolist() for row in overlap]
    payload = {
        "n": t.n,
        "parity": t.parity,
        "effects": effects.tolist(),
        "overlap": overlap.tolist(),
        "saturating": saturating,
    }
    return payload, (("index", "x", "y", "z"), _indexed(payload["effects"]))


def cmd_capacity(args) -> tuple[dict, tuple]:
    if args.n is not None:
        ns = [args.n]
    else:
        span = _parse_range(args.n_range)
        ns = range(max(span.start, 3), span.stop)
        if not ns:
            raise ValueError("the range contains no polygon size >= 3")
    t0 = time.perf_counter()
    results = theory_capacities(Theory(n) for n in ns)
    share_ms = (time.perf_counter() - t0) * 1000.0 / len(results)
    entries = [
        {**_fields(r), "measurement": r.measurement.indices, "weights": r.measurement.weights}
        for r in results
    ]
    rows = ((r.n, r.parity, r.capacity_bits, share_ms) for r in results)
    return {"results": entries}, (("n", "parity", "capacity_bits", "runtime_ms"), rows)


def cmd_vertices(args) -> tuple[dict, tuple]:
    verts = [
        {"c": v.c, "lambda": v.lam, "P": v.P, "class": classify_vertex(v)}
        for v in enumerate_vertices(args.alphabet_size, args.c)
    ]
    payload = {"summary": vertex_summary(args.alphabet_size, args.c), "vertices": verts}
    header = ["index", "class", "lam0", "lam1", "lam2"]
    header += [f"P_{y}_{x}" for y in range(3) for x in range(args.alphabet_size)]
    rows = (
        (i, d["class"], *d["lambda"], *(x for row in d["P"] for x in row))
        for i, d in enumerate(verts)
    )
    return payload, (header, rows)


def cmd_ic(args) -> tuple[dict, tuple]:
    t = Theory(args.n)
    # an oversized search fails before the protocol runs
    search = best_ic_encoding(t) if args.search else None
    report = run_ic(t)
    payload = {**_fields(report), "one_bit_bound": ic_bound_check(t)}
    if args.search:
        encoding, anchors, best = search
        payload["search"] = {
            "encoding": encoding,
            "anchors": anchors,
            "info_sum_bits": best,
            "matches_protocol": abs(best - report.info_sum_bits) <= 1e-9,
        }
    keys = ("n", "success_bit0", "success_bit1", "worst_bit_success",
            "info_bit0", "info_bit1", "info_sum_bits", "info_avg_bits")
    return payload, (("key", "value"), ((key, float(payload[key])) for key in keys))


def cmd_ne(args) -> tuple[NEReport, tuple]:
    report = ne_matrix(Theory(args.n))
    header = ["x"] + [f"y{y}" for y in range(report.effective_alphabet)]
    return report, (header, _indexed(report.matrix))


# largest n of a simulation: the polygon's tables and the sender's vertex law
# grow as n; n = 200,000 took 0.6-1.0 s and 96 MiB on 2 shared vCPUs
SIMULATE_MAX = 200_000


def cmd_simulate(args) -> tuple[SimulationReport, tuple]:
    if args.n > SIMULATE_MAX:
        raise ResourceBoundError(f"the simulation is capped at n={SIMULATE_MAX}")
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
    rows = itertools.chain(
        _indexed(zip(report.analytic_dist, report.empirical_dist)),
        [("tv_distance", report.tv_distance, float("nan"))],
    )
    return report, (("outcome", "analytic", "empirical"), rows)


def cmd_check(args) -> tuple[dict, str]:
    only = [part.strip() for part in args.only.split(",")] if args.only else None
    results = run_checks(only=only, max_n=args.max_n)
    passed = sum(r.passed for r in results)
    payload = {
        "results": [
            {"key": r.key, "passed": r.passed, "details": r.details} for r in results
        ],
        "notes": [{"key": k, "text": t} for k, t in NOTES],
        "passed": passed == len(results),
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.key} ({r.elapsed_s:.2f}s): {r.details}"
        for r in results
    ]
    lines.append(f"{passed}/{len(results)} checks passed")
    lines += [f"NOTE {key}: {text}" for key, text in NOTES]
    return payload, "\n".join(lines) + "\n"


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
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--indices", default=None, help="measurement indices, e.g. 0,2,3")
    p.add_argument("--vertex", type=int, default=None, help="send this vertex instead of the barycenter")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the acceptance checks")
    p.add_argument("--only", default=None, help=f"comma list from: {', '.join(REGISTRY)}")
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, rendering = args.func(args)
        if args.format == "json":
            text = _json_text(payload)
        elif args.format == "csv":
            text = _csv_text(*rendering)
        else:
            text = rendering
        _write(text, args.out)
        # only check's payload carries "passed"; ne and simulate return records
        return 0 if not isinstance(payload, dict) or payload.get("passed", True) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
