"""ngon benchmark: time fixed lists of CLI requests end to end, gate every
output for correctness, and (with --trace 1) break the time down by module.

Run from the root of a checkout:

    python3 bench/run.py --workload capacity-sweep --seed 1 --seconds 30 --trace 0

Each sample is a fresh interpreter (bench/sample.py) that imports ngon.cli
from the checkout's src/ and runs the workload's requests through
``ngon.cli.main``, one process, default ``--jobs 1``, numpy threading as
found.  NGON_* variables are removed from its environment: they change the
requests, and a fresh process per sample keeps in-process caches
(``checks.capacity_sweep``, ``protocols._EVEN_VERTEX_BOUND``) from answering
repeat samples.  Samples repeat until --seconds have passed (at least
MIN_ROUNDS).  Work times (wall_s, cpu_s and the per-layer times) are
trimmed means over the samples; setup_s and peak_rss_mb are medians.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it are for people: the
environment, every metric with its unit and quartiles, and fail_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def trimmed_mean(values) -> float:
    """Mean of the values without the lowest and the highest one.

    On a shared host every sample is slowed by a factor that switches between
    a few levels for seconds at a time, so a run's samples are a mixture.  A median
    of ten snaps to whichever level holds the middle sample, while the mean
    moves with the share of time spent at each level; dropping both extremes
    keeps one stalled sample from moving it.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


CENTER = {"setup_s": statistics.median, "wall_s": trimmed_mean, "cpu_s": trimmed_mean,
          "peak_rss_mb": statistics.median}

PER_LAYER = {
    "geometry.measurement.calls": ("count", "lower"),
    "geometry.measurement.self_s": ("s", "lower"),
    "geometry.measurement.rejected": ("count", "lower"),
    "geometry.measurement.accept_ratio": ("ratio", "higher"),
    "geometry.states_effects.calls": ("count", "lower"),
    "geometry.states_effects.self_s": ("s", "lower"),
    "geometry.extremal_decomposition.calls": ("count", "lower"),
    "geometry.extremal_decomposition.self_s": ("s", "lower"),
    "capacity.theory_capacity.calls": ("count", "lower"),
    "capacity.theory_capacity.self_s": ("s", "lower"),
    "capacity.candidates": ("count", "lower"),
    "capacity.winner_iterations": ("count", "lower"),
    "capacity.blahut_arimoto.calls": ("count", "lower"),
    "capacity.blahut_arimoto.self_s": ("s", "lower"),
    "capacity.blahut_arimoto.iterations": ("count", "lower"),
    "capacity.binary_entropy.self_s": ("s", "lower"),
    "polytope.enumerate_vertices.calls": ("count", "lower"),
    "polytope.enumerate_vertices.self_s": ("s", "lower"),
    "polytope.enumerations_per_request": ("ratio", "lower"),
    "polytope.vertices": ("count", "higher"),
    "polytope.bases": ("count", "lower"),
    "polytope.vertex_yield": ("ratio", "higher"),
    "polytope.kernel_flops": ("flop", "lower"),
    "polytope.kernel_bytes": ("B", "lower"),
    "polytope.classify_vertex.self_s": ("s", "lower"),
}
for _fn in ("decompose_into_binary_channels", "caratheodory_reduce", "trace_information"):
    PER_LAYER[f"decomposition.{_fn}.calls"] = ("count", "lower")
    PER_LAYER[f"decomposition.{_fn}.self_s"] = ("s", "lower")
for _fn in ("best_ic_encoding", "simulate_transmission", "ne_matrix", "run_ic", "ic_bound_check"):
    PER_LAYER[f"protocols.{_fn}.calls"] = ("count", "lower")
    PER_LAYER[f"protocols.{_fn}.self_s"] = ("s", "lower")
for _key in workloads.PROTOCOL_CHECKS:
    PER_LAYER[f"checks.{_key}.s"] = ("s", "lower")
PER_LAYER.update(
    {
        "checks.passed": ("count", "higher"),
        "cli.requests": ("count", "higher"),
        "cli.self_s": ("s", "lower"),
        "cli.output_bytes": ("B", "lower"),
        "cli.bytes_identical": ("count", "higher"),
        "trace.overhead_s": ("s", "lower"),
    }
)
# Spans whose calls and self time are reported under the key's own name.
CALLS_AND_SELF = [
    "geometry.extremal_decomposition",
    "capacity.theory_capacity",
    "capacity.blahut_arimoto",
    "polytope.enumerate_vertices",
] + [k[: -len(".calls")] for k in PER_LAYER if k.startswith(("decomposition.", "protocols.")) and k.endswith(".calls")]


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed request)."""


def child_env(src: Path) -> dict:
    """The caller's environment without NGON_* and with src/ on the path.

    PYTHONDONTWRITEBYTECODE is dropped as well, so that set-up reads cached
    bytecode as an installed package does instead of compiling ngon each time.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("NGON_") and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(src)
    return env


def run_sample(root: Path, argvs, *, trace=False, setup_only=False) -> tuple[dict, float]:
    """Run one fresh-interpreter sample; returns (report, setup seconds)."""
    src = root / "src"
    spec = {"src": str(src), "requests": [list(a) for a in argvs], "trace": trace, "setup_only": setup_only}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
        cwd=root,
        env=child_env(src),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"sample exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report, report["imported"] - start


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def _counts(spans: dict) -> dict:
    return {k: {f: v for f, v in row.items() if f not in ("incl_s", "self_s")} for k, row in spans.items()}


def layer_metrics(traced: list[dict], requests, identical: int, overhead_s: float) -> dict:
    """Per-layer metrics: counts from the first traced sample, times as trimmed means."""
    first = traced[0]["spans"]

    def stat(key, field="calls"):
        return first.get(key, {}).get(field, 0)

    def time_of(keys, field="self_s"):
        return trimmed_mean(
            sum(s["spans"].get(k, {}).get(field, 0.0) for k in keys) for s in traced
        )

    m = {}
    meas = "geometry.measurement"
    calls, rejected = stat(meas), stat(meas, "raised")
    m[f"{meas}.calls"] = calls
    m[f"{meas}.self_s"] = time_of([meas])
    m[f"{meas}.rejected"] = rejected
    m[f"{meas}.accept_ratio"] = (calls - rejected) / calls if calls else 0.0
    pair = ["geometry.states", "geometry.effects"]
    m["geometry.states_effects.calls"] = sum(stat(k) for k in pair)
    m["geometry.states_effects.self_s"] = time_of(pair)
    for key in CALLS_AND_SELF:
        m[f"{key}.calls"] = stat(key)
        m[f"{key}.self_s"] = time_of([key])
    m["capacity.candidates"] = stat("capacity.capacity_candidates", "candidates")
    m["capacity.winner_iterations"] = stat("capacity.theory_capacity", "winner_iterations")
    m["capacity.blahut_arimoto.iterations"] = stat("capacity.blahut_arimoto", "iterations")
    m["capacity.binary_entropy.self_s"] = time_of(["capacity.binary_entropy"])
    ev = "polytope.enumerate_vertices"
    vertex_requests = sum(1 for r in requests if r.argv[0] == "vertices")
    m["polytope.enumerations_per_request"] = stat(ev) / vertex_requests if vertex_requests else 0.0
    for field in ("vertices", "bases", "kernel_flops", "kernel_bytes"):
        m[f"polytope.{field}"] = stat(ev, field)
    m["polytope.vertex_yield"] = stat(ev, "vertices") / stat(ev, "bases") if stat(ev, "bases") else 0.0
    m["polytope.classify_vertex.self_s"] = time_of(["polytope.classify_vertex"])
    checks = [k for k in first if k.startswith("checks.check_")]
    for key in workloads.PROTOCOL_CHECKS:
        m[f"checks.{key}.s"] = time_of(["checks.check_" + key.replace("-", "_")], "incl_s")
    m["checks.passed"] = sum(stat(k, "passed") for k in checks)
    m["cli.requests"] = stat("cli.main")
    m["cli.self_s"] = time_of([k for k in first if k.startswith("cli.")])
    m["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in traced[0]["results"])
    m["cli.bytes_identical"] = identical
    m["trace.overhead_s"] = overhead_s
    return m


def gate(requests, samples, digests: dict) -> tuple[int, int, int]:
    """Gate every result; returns (attempted, failed, identical).

    ``identical`` counts the seed-independent requests whose stdout has the
    seed commit's digest in every sample.  Failures are described on stderr.
    """
    attempted = failed = 0
    same = {r.argv: True for r in requests if r.fixed}
    for sample in samples:
        for req, res in zip(requests, sample["results"]):
            attempted += 1
            problems = req.check(res["exit"], res["stdout"])
            if problems:
                failed += 1
                print(f"FAIL {' '.join(req.argv)}: {'; '.join(problems)}", file=sys.stderr)
                if res["stderr"]:
                    print(res["stderr"], file=sys.stderr)
            if req.fixed:
                digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
                same[req.argv] &= digest == digests.get(" ".join(req.argv))
    return attempted, failed, sum(same.values())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(root: Path, requests, seconds: float, trace: bool) -> dict:
    """Warm up once, then repeat rounds of samples until time is up."""
    argvs = [r.argv for r in requests]
    env_report, _ = run_sample(root, argvs, setup_only=True)  # also writes bytecode
    begin = time.perf_counter()
    modes = (False, True) if trace else (False,)
    samples = {mode: [] for mode in modes}
    setups, rounds = [], []
    while True:
        start = time.perf_counter()
        for mode in modes:
            report, setup = run_sample(root, argvs, trace=mode)
            samples[mode].append(report)
            setups.append(setup)
        rounds.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= MIN_ROUNDS and (
            elapsed + statistics.median(rounds) > seconds or elapsed > HARD_LIMIT_S
        ):
            break
    return {"env": env_report["env"], "setups": setups, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ngon" / "cli.py").is_file():
        print(f"error: no ngon sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    try:
        run = measure(root, requests, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = [s for group in run["samples"].values() for s in group]
    attempted, failed, identical = gate(requests, samples, load_digests())

    plain = run["samples"][False]
    series = {
        "setup_s": run["setups"],
        "wall_s": [s["wall_s"] for s in plain],
        "cpu_s": [s["cpu_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_kib"] / 1024.0 for s in plain],
    }
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests x {len(plain)} samples")
    for req in requests:
        print("  ngon " + " ".join(req.argv))
    for name, values in series.items():
        q1, q3 = _quartiles(values)
        print(f"{name} {CENTER[name](values):.6g} {END_TO_END[name]} ({CENTER[name].__name__} "
              f"of {len(values)}; median {statistics.median(values):.6g}, quartiles {q1:.6g}..{q3:.6g})")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} requests)")
    fixed = sum(r.fixed for r in requests)
    print(f"bytes identical to the seed commit: {identical} of {fixed} seed-independent requests")

    if args.trace:
        traced = run["samples"][True]
        counts = [_counts(s["spans"]) for s in traced]
        if any(c != counts[0] for c in counts):
            print("note: call or iteration counts differ between traced samples", file=sys.stderr)
        overhead = trimmed_mean([s["wall_s"] for s in traced]) - trimmed_mean(series["wall_s"])
        values = layer_metrics(traced, requests, identical, overhead)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {k: {"value": CENTER[k](v), "unit": END_TO_END[k]} for k, v in series.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
