"""Tests of the benchmark itself: the correctness gates, the repeatability of
traced counts, and the wrappers leaving ngon as they found it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sample
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
# A few cheap requests that reach every layer module.
SMALL = [
    ("capacity", "--n-range", "3..8"),
    ("vertices", "--alphabet-size", "2", "--c", "2.5"),
    ("check", "--only", "decomposition,ic", "--max-n", "8", "--format", "json"),
    ("ic", "--n", "8", "--search"),
    ("simulate", "--n", "7", "--vertex", "2", "--samples", "1000", "--seed", "3"),
]


def payload(*argv):
    result = sample.run_request(argv)
    assert result["exit"] == 0, result["stderr"]
    return json.loads(result["stdout"])


def test_capacity_gate_rejects_a_move_of_1e_6():
    base = payload("capacity", "--n-range", "3..8")
    assert workloads.gate_capacity(base, lo=3, hi=8) == []
    for n, delta in ((3, 1e-6), (3, -1e-6), (4, -1e-6), (6, -1e-6)):
        moved = json.loads(json.dumps(base))
        moved["results"][n - 3]["capacity_bits"] += delta
        assert workloads.gate_capacity(moved, lo=3, hi=8), (n, delta)
    # an odd capacity 5e-7 above one bit, as at n=63, falls to 1 bit or below
    near_one = json.loads(json.dumps(base))
    near_one["results"][2]["capacity_bits"] = 1.0 + 5e-7 - 1e-6
    assert workloads.gate_capacity(near_one, lo=3, hi=8)


@pytest.mark.parametrize("alphabet,c", [(2, 2.0), (2, 2.5)])
def test_census_gate_rejects_a_count_off_by_one(alphabet, c):
    base = payload("vertices", "--alphabet-size", str(alphabet), "--c", str(c))
    assert workloads.gate_census(base, alphabet=alphabet, c=c) == []
    for delta in (1, -1):
        moved = json.loads(json.dumps(base))
        moved["summary"]["vertex_count"] += delta
        assert workloads.gate_census(moved, alphabet=alphabet, c=c)
    dropped = json.loads(json.dumps(base))
    dropped["vertices"].pop()
    assert workloads.gate_census(dropped, alphabet=alphabet, c=c)


def test_gate_fails_a_nonzero_exit_and_bad_json():
    request = workloads.build("capacity-sweep", 0)[0]
    assert request.check(1, "") == ["exit code 1"]
    assert request.check(0, "not json")
    assert request.check(0, "{}")


def test_workloads_follow_the_seed():
    def argvs(name, seed):
        return [r.argv for r in workloads.build(name, seed)]

    for name in workloads.WORKLOADS:
        assert argvs(name, 5) == argvs(name, 5)
    assert argvs("vertex-census", 5) != argvs("vertex-census", 6)


def test_two_traced_runs_repeat_their_counts():
    first, _ = run.run_sample(ROOT, SMALL, trace=True)
    second, _ = run.run_sample(ROOT, SMALL, trace=True)
    counts = run._counts(first["spans"])
    assert counts == run._counts(second["spans"])
    assert counts["cli.main"]["calls"] == len(SMALL)
    # calls made through names bound outside the defining module are seen
    assert counts["checks.check_decomposition"]["calls"] == 1
    assert counts["polytope.enumerate_vertices"]["calls"] == 2
    assert counts["capacity.blahut_arimoto"]["iterations"] > 0
    assert counts["geometry.measurement"]["raised"] > 0


def test_wrappers_leave_ngon_unpatched():
    import ngon.checks
    import ngon.cli  # noqa: F401  (loads every layer module)
    from ngon.geometry import Theory

    def snapshot():
        bound = {
            (name, attr): value
            for name, module in sys.modules.items()
            if name == "ngon" or name.startswith("ngon.")
            for attr, value in vars(module).items()
        }
        bound.update({("Theory", k): v for k, v in vars(Theory).items()})
        bound.update({("REGISTRY", k): v for k, v in ngon.checks.REGISTRY.items()})
        return bound

    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer() as tracer:
            assert ngon.polytope.blahut_arimoto is not before[("ngon.polytope", "blahut_arimoto")]
            assert ngon.checks.REGISTRY["ic"] is not before[("REGISTRY", "ic")]
            sample.run_request(("ic", "--n", "6"))
            1 / 0
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = spans.summarize(tracer.spans)
    assert summary["cli.main"]["calls"] == 1
    assert summary["protocols.run_ic"]["calls"] == 2  # cmd_ic and ic_bound_check


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "capacity-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
