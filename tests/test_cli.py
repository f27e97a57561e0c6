"""Command line interface: payloads, formats, determinism, exit codes."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ngon
from ngon import checks, cli, geometry
from ngon.capacity import ConvergenceError
from ngon.checks import run_checks
from ngon.cli import main
from ngon.decomposition import DecompositionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_states_json_payload(capsys):
    code, out, _ = run(capsys, "states", "--n", "5")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 5 and d["parity"] == "odd"
    assert d["radius"] == pytest.approx(math.sqrt(1 / math.cos(math.pi / 5)), abs=1e-8)
    assert len(d["states"]) == 5
    assert all(row[2] == 1.0 for row in d["states"])


def test_states_csv_rows(capsys):
    code, out, _ = run(capsys, "states", "--n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,x,y,z"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 1.0


def test_effects_saturation_sets(capsys):
    code, out, _ = run(capsys, "effects", "--n", "4")
    assert code == 0
    d = json.loads(out)
    # even effect j saturates on states j and j-1
    assert d["saturating"] == [[0, 3], [0, 1], [1, 2], [2, 3]]
    code, out, _ = run(capsys, "effects", "--n", "5")
    d = json.loads(out)
    assert d["saturating"] == [[0], [1], [2], [3], [4]]
    overlap = np.array(d["overlap"])
    assert overlap.shape == (5, 5)
    assert abs(overlap[2, 2] - 1.0) < 1e-9


def test_capacity_single_and_range(capsys):
    code, out, _ = run(capsys, "capacity", "--n", "4")
    assert code == 0
    d = json.loads(out)
    assert len(d["results"]) == 1
    assert d["results"][0]["capacity_bits"] == pytest.approx(1.0, abs=1e-6)

    code, out, _ = run(capsys, "capacity", "--n-range", "3..6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,parity,capacity_bits,runtime_ms"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "4", "5", "6"]
    assert [r[1] for r in rows] == ["odd", "even", "odd", "even"]
    assert float(rows[0][2]) == pytest.approx(math.log2(3), abs=1e-6)
    assert float(rows[2][2]) == pytest.approx(1.020433318, abs=1e-6)


def test_capacity_json_is_byte_identical(capsys):
    _, first, _ = run(capsys, "capacity", "--n-range", "3..6")
    _, second, _ = run(capsys, "capacity", "--n-range", "3..6")
    assert first == second
    assert "runtime" not in first


def test_vertices_summary_and_csv(capsys):
    code, out, _ = run(capsys, "vertices", "--alphabet-size", "3", "--c", "2.5")
    assert code == 0
    d = json.loads(out)
    assert d["summary"]["vertex_count"] == 99
    assert d["summary"]["zero_weight_count"] == 45
    assert d["summary"]["canonical_count"] == 54
    assert len(d["vertices"]) == 99

    code, out, _ = run(capsys, "vertices", "--c", "2.0", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0].startswith("index,class,lam0,lam1,lam2,P_0_0")
    assert len(lines) == 28


def test_vertices_next_to_c_2_keep_the_interior_census(capsys):
    code, out, _ = run(capsys, "vertices", "--alphabet-size", "2", "--c", "2.000000001")
    assert code == 0
    s = json.loads(out)["summary"]
    counts = ("vertex_count", "zero_weight_count", "canonical_count", "unclassified_count")
    assert tuple(s[k] for k in counts) == (27, 21, 6, 0)


@pytest.mark.parametrize("c", ["1.9999999999999", "3.0000000000001"])
def test_vertices_c_outside_the_range_exits_two(capsys, c):
    code, _, err = run(capsys, "vertices", "--c", c)
    assert code == 2 and "c must lie in [2, 3]" in err


def test_ic_search_agreement_flips_at_eight(capsys):
    code, out, _ = run(capsys, "ic", "--n", "6", "--search")
    assert code == 0
    d = json.loads(out)
    assert d["one_bit_bound"] is True
    assert d["success_bit0"] == 1.0
    assert d["search"]["matches_protocol"] is True

    code, out, _ = run(capsys, "ic", "--n", "8", "--search")
    d = json.loads(out)
    assert d["search"]["matches_protocol"] is False
    assert d["search"]["info_sum_bits"] == pytest.approx(1.12757066, abs=1e-8)
    assert d["search"]["info_sum_bits"] > d["info_sum_bits"]


def test_ic_search_at_24_is_pinned(capsys):
    code, out, _ = run(capsys, "ic", "--n", "24", "--search")
    assert code == 0
    search = json.loads(out)["search"]
    assert search["encoding"] == {"00": 0, "01": 1, "10": 13, "11": 12}
    assert search["anchors"] == [1, 7]
    assert search["info_sum_bits"] == 1.01253904


def test_ic_rejects_odd_and_oversized_search(capsys, monkeypatch):
    code, _, err = run(capsys, "ic", "--n", "5")
    assert code == 2 and "even" in err

    def unreachable(*_):
        raise AssertionError("an oversized search must fail before the protocol runs")

    monkeypatch.setattr(cli, "run_ic", unreachable)
    monkeypatch.setattr(cli, "ic_bound_check", unreachable)
    code, _, err = run(capsys, "ic", "--n", "26", "--search")
    assert code == 2 and "exhaustive search is capped at n=24" in err


def _old_round_tree(obj):
    """The renderer the one-pass writer replaced: a rounded copy of the tree
    for ``json.dumps``.  Kept here as the writer's oracle."""
    if isinstance(obj, float):
        v = float(f"{obj:.9g}")
        return 0.0 if v == 0.0 else v
    if type(obj) in (str, int, bool, type(None)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_old_round_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {"".join(map(str, k)) if isinstance(k, tuple) else k: _old_round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return _old_round_tree(obj.tolist())
    if dataclasses.is_dataclass(obj):
        return _old_round_tree({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


def _oracle_text(tree) -> str:
    return json.dumps(_old_round_tree(tree), sort_keys=True, indent=2) + "\n"


def test_json_text_renders_records_arrays_and_tuple_keys():
    record = checks.CheckResult("ic", True, "ok", 0.123456789012)
    assert json.loads(cli._json_text(record)) == {
        "key": "ic", "passed": True, "details": "ok", "elapsed_s": 0.123456789,
    }
    assert cli._json_text(np.array([[1 / 3, 2.0]])) == "[\n  [\n    0.333333333,\n    2.0\n  ]\n]\n"
    assert json.loads(cli._json_text({(0, 1): np.int64(7), "k": (1, 2)})) == {"01": 7, "k": [1, 2]}


def _numpy_scalars(tree):
    """The same tree with every bool, int64-sized int and float leaf as a
    numpy scalar."""
    if isinstance(tree, bool):
        return np.bool_(tree)
    if isinstance(tree, int):
        return np.int64(tree) if -(2**63) <= tree < 2**63 else tree
    if isinstance(tree, float):
        return np.float64(tree)
    if isinstance(tree, dict):
        return {k: _numpy_scalars(v) for k, v in tree.items()}
    kind = type(tree)
    return kind(_numpy_scalars(v) for v in tree) if kind in (list, tuple) else tree


@dataclasses.dataclass(frozen=True)
class _Record:
    value: object
    other: object


class _Pair(NamedTuple):
    left: object
    right: object


_floats = st.one_of(
    st.floats(),  # NaN, -0.0 and the infinities included
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([-0.0, 5e-324, 2.0**80, 1e16, 123456789.5, 1e-5]),
)

scalar_trees = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(2**63, 2**90),
        _floats,
        st.text(max_size=3),  # non-ASCII included
        st.none(),
        _floats.map(np.float64),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.lists(_floats, max_size=3).map(np.array),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            # (1, 23) and (12, 3) both join to "123"
            st.text(max_size=3) | st.sampled_from([(0, 1), (1, 23), (12, 3), "123", (np.int64(4),)]),
            children,
            max_size=4,
        ),
        st.builds(_Record, children, children),
        st.builds(_Pair, children, children),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(scalar_trees)
@example([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2**80])
# empty and nested empty containers
@example([])
@example({})
@example([[], {}, ()])
@example({"a": {}, "b": [[], {}], (): [()]})
@example(np.zeros((2, 0)))
@example(_Record([], {}))
def test_json_text_is_json_dumps_of_the_rounded_tree(tree):
    assert cli._json_text(tree) == _oracle_text(tree)


@pytest.mark.parametrize("tree", [{1: 2}, {"a": 1, 2: 3}, {1.5: 0}, {None: 0}])
def test_keys_other_than_str_and_tuple_are_a_type_error(tree):
    # json.dumps would stringify them; no payload has them, so they are refused
    with pytest.raises(TypeError):
        cli._json_text(tree)


@settings(max_examples=200, deadline=None)
@given(scalar_trees)
def test_numpy_scalars_render_like_python_scalars(tree):
    assert cli._json_text(_numpy_scalars(tree)) == cli._json_text(tree)


def test_capacity_payload_keys(capsys):
    code, out, _ = run(capsys, "capacity", "--n", "5")
    assert code == 0
    (d,) = json.loads(out)["results"]
    assert set(d) == {
        "n", "parity", "capacity_bits", "measurement", "weights", "prior", "support", "iterations",
    }
    assert d["n"] == 5 and d["measurement"] == [0, 1, 3]
    # realised weights: the outcomes sum to the unit effect, so 1 + R^2 at odd n
    assert sum(d["weights"]) == pytest.approx(1 + 1 / math.cos(math.pi / 5), abs=1e-8)


def test_vertex_payload_keys_and_classes(capsys):
    code, out, _ = run(capsys, "vertices", "--alphabet-size", "2", "--c", "2.0")
    assert code == 0
    verts = json.loads(out)["vertices"]
    assert verts
    for v in verts:
        assert set(v) == {"c", "lambda", "P", "class"}
        assert v["c"] == 2.0 and len(v["lambda"]) == 3
        assert [len(row) for row in v["P"]] == [2, 2, 2]
        assert v["class"] in {"ZERO_WEIGHT", "CANONICAL_FOUR"}


def test_ic_payload_keys_and_encoding(capsys):
    code, out, _ = run(capsys, "ic", "--n", "6", "--search")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {
        "n", "encoding", "success_bit0", "success_bit1", "worst_bit_success", "info_bit0",
        "info_bit1", "info_sum_bits", "info_avg_bits", "one_bit_bound", "search",
    }
    assert d["n"] == 6
    assert set(d["encoding"]) == {"00", "01", "10", "11"}
    assert set(d["search"]) == {"encoding", "anchors", "info_sum_bits", "matches_protocol"}
    assert set(d["search"]["encoding"]) == {"00", "01", "10", "11"}


def test_ne_payload_keys(capsys):
    code, out, _ = run(capsys, "ne", "--n", "6")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"n", "effective_alphabet", "matrix", "min_offdiag", "max_diag"}
    assert d["effective_alphabet"] == 3
    assert len(d["matrix"]) == 3


def test_ne_csv_matrix(capsys):
    code, out, _ = run(capsys, "ne", "--n", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y0,y1,y2,y3,y4"
    assert len(lines) == 6
    diag = [float(lines[1 + i].split(",")[1 + i]) for i in range(5)]
    assert max(abs(v) for v in diag) <= 1e-9


def test_simulate_default_and_vertex(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "5", "--samples", "2000", "--seed", "7")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {
        "n", "message_bits", "analytic_dist", "empirical_dist", "tv_distance", "samples", "seed",
    }
    assert d["samples"] == 2000 and d["seed"] == 7
    assert len(d["analytic_dist"]) == 3
    assert sum(d["analytic_dist"]) == pytest.approx(1.0, abs=1e-8)
    assert d["message_bits"] == pytest.approx(math.log2(5), abs=1e-8)

    code, out, _ = run(
        capsys, "simulate", "--n", "6", "--samples", "500", "--seed", "1",
        "--vertex", "2", "--indices", "0,3",
    )
    d = json.loads(out)
    assert len(d["analytic_dist"]) == 2
    code, _, err = run(capsys, "simulate", "--n", "6", "--vertex", "9")
    assert code == 2 and "vertex" in err


@pytest.mark.parametrize("samples", [2**63, 10**30])
def test_simulate_samples_above_int64_exits_two(capsys, samples):
    code, out, err = run(capsys, "simulate", "--n", "5", "--samples", str(samples))
    assert code == 2 and out == ""
    assert err == f"error: samples={samples} above the int64 maximum {2**63 - 1}\n"


def test_simulate_deterministic_for_fixed_seed(capsys):
    args = ("simulate", "--n", "7", "--samples", "3000", "--seed", "11")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_text_and_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--only", "ic,ne", "--max-n", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PASS ic")
    assert lines[1].startswith("PASS ne")
    assert "2/2 checks passed" in out
    assert out.count("NOTE ") == 4


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--only", "weights", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert [r["key"] for r in d["results"]] == ["weights"]
    assert all(r["passed"] for r in d["results"])
    assert len(d["notes"]) == 4


def test_check_unknown_key_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--only", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_an_unknown_key_stops_the_run_before_any_check(monkeypatch):
    calls = []
    monkeypatch.setitem(checks.REGISTRY, "recorder", lambda: calls.append("recorder"))
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        run_checks(only=["recorder", "nope"])
    assert calls == []


def imports(module, *requests):
    """Whether a fresh interpreter that imports ngon.cli and runs these CLI
    requests has imported ``module``."""
    script = f"""
import contextlib, io, sys
from ngon.cli import main
for argv in {[list(r) for r in requests]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print({module!r} in sys.modules)
"""
    src = str(Path(ngon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout != "False\n"


# np.unique imports numpy.ma on first use: about 1 MiB of peak RSS
def test_protocol_requests_never_import_numpy_ma():
    assert not imports(
        "numpy.ma",
        ["check", "--only", "decomposition,reduction,ic,ne,simulation,weights"],
        ["ic", "--n", "24", "--search"],
        ["simulate", "--n", "17", "--vertex", "3", "--samples", "1000", "--seed", "5"],
        ["simulate", "--n", "8", "--samples", "1000", "--seed", "5"],
    )


def test_sweep_and_census_requests_never_import_numpy_ma():
    assert not imports("numpy.ma", ["capacity", "--n-range", "3..64"])
    assert not imports(
        "numpy.ma",
        ["vertices", "--alphabet-size", "2", "--c", "2.0"],
        ["vertices", "--alphabet-size", "3", "--c", "2.4321"],
    )


def test_importing_the_cli_starts_no_process_pool_machinery():
    assert not imports("concurrent.futures")
    assert not imports("multiprocessing")


def test_bad_n_exits_two(capsys):
    code, _, err = run(capsys, "states", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "ne.json"
    code, out, _ = run(capsys, "ne", "--n", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    d = json.loads(target.read_text())
    assert d["n"] == 7 and d["effective_alphabet"] == 7


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "states", "--n", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert len(err.splitlines()) == 1


def test_nine_significant_digits(capsys):
    _, out, _ = run(capsys, "states", "--n", "5")
    d = json.loads(out)
    # 9 significant digits: sqrt(sec(pi/5)) = 1.111785944... rounds to 1.11178594
    assert d["radius"] == 1.11178594
    _, out, _ = run(capsys, "capacity", "--n", "5")
    d = json.loads(out)
    assert d["results"][0]["capacity_bits"] == 1.02043332


@pytest.mark.parametrize(
    "n, digest",
    [
        ("66", "fcb31e7842aaa0afc842c94d8e1ac94a9f7cda4ed7ac22335112c9c39f388af5"),
        ("100", "cd737362eaf90c3b785b45392982937f5afe66babc565b1f92beed42f2ab3f3f"),
    ],
)
def test_ic_beyond_the_enumeration_bound_keeps_its_bytes(capsys, n, digest):
    # the SHA-256 of the report when the vertex bound was a numeric
    # Blahut-Arimoto maximum (e1d7896); the exact bound prints the same bytes
    code, out, _ = run(capsys, "ic", "--n", n)
    assert code == 0 and json.loads(out)["one_bit_bound"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_capacity_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--n", "5", "--jobs", "2"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --jobs 2" in err


def test_capacity_has_no_tol_option(capsys):
    # the bracket width is the library's BA_TOL; no request sets it
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--n", "5", "--tol", "1e-6"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --tol 1e-6" in err


@pytest.mark.parametrize(
    "key, max_n",
    [("ic", "3"), ("even-capacity", "3"), ("odd-capacity", "2"), ("ne", "2")]
    # the odd-capacity gate asks the 3-state rate at the top size to lie
    # within 0.02 of 1 bit, which first holds at n = 7
    + [("odd-capacity", str(n)) for n in range(3, 7)],
)
def test_check_empty_sweep_exits_two(capsys, key, max_n):
    code, out, err = run(capsys, "check", "--only", key, "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "sweep" in err
    with pytest.raises(ValueError, match=f"check {key}: max_n={max_n} is below"):
        run_checks(only=[key], max_n=int(max_n))


def test_a_short_sweep_exits_two_before_any_sweep_runs(capsys, monkeypatch):
    calls = []
    certificate = checks._certificate

    def counted(theory):
        calls.append(theory)
        return certificate(theory)

    monkeypatch.setattr(checks, "_certificate", counted)
    code, out, err = run(capsys, "check", "--max-n", "6")
    assert code == 2 and out == ""
    assert err == "error: check odd-capacity: max_n=6 is below 7, the smallest max_n the sweep accepts\n"
    assert calls == []


def test_a_key_error_is_not_a_usage_error(monkeypatch):
    # no request raises KeyError on purpose (an unknown check is a ValueError),
    # so one is a library fault and must not be reported as exit 2
    def faulty(theory):
        raise KeyError("x")

    monkeypatch.setattr(cli, "run_ic", faulty)
    with pytest.raises(KeyError):
        main(["ic", "--n", "6"])


@pytest.mark.parametrize(
    "error",
    [
        ConvergenceError("1 of 4 channels kept brackets above tol", 0.5, np.full(5, 0.2), 3),
        DecompositionError("no barycentric triple contains the ensemble average"),
    ],
)
def test_numerical_failure_exits_three(capsys, monkeypatch, error):
    def failing(theories, **kwargs):
        raise error

    monkeypatch.setattr(cli, "theory_capacities", failing)
    code, out, err = run(capsys, "capacity", "--n", "5")
    assert code == 3 and out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("only", [None, "even-capacity", "ne,odd-capacity"])
def test_check_max_n_above_the_enumeration_bound_exits_two(capsys, monkeypatch, only):
    ran = []

    def recording(max_n=64):
        ran.append(max_n)
        return checks.CheckResult("ne", True, "recorded")

    monkeypatch.setitem(checks.REGISTRY, "ne", recording)
    argv = ("check", "--max-n", "65") + (("--only", only) if only else ())
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "enumeration bound 64" in err
    assert ran == []  # refused before any check ran
    # a sweep without a capacity check may go past the bound
    run_checks(only=["ne"], max_n=65)
    assert ran == [65]


# (argv without the size, bound, error message): each request is refused
# just above its bound and at n = 10^6
SIZE_BOUNDS = [
    (("ne", "--n"), 600, "NOT-EQUAL matrix is capped at n=600"),
    (("ne", "--format", "csv", "--n"), 600, "NOT-EQUAL matrix is capped at n=600"),
    (("effects", "--n"), 600, "the effects report is capped at n=600"),
    (("effects", "--format", "csv", "--n"), 600, "the effects report is capped at n=600"),
    (("check", "--only", "ne", "--max-n"), 600, "check ne: max_n={n} above the NOT-EQUAL bound 600"),
    (("states", "--n"), 50_000, "the states report is capped at n=50000"),
    (("states", "--format", "csv", "--n"), 50_000, "the states report is capped at n=50000"),
    (("ic", "--n"), 200_000, "the random access code is capped at n=200000"),
    (("ic", "--format", "csv", "--n"), 200_000, "the random access code is capped at n=200000"),
    (("simulate", "--n"), 200_000, "the simulation is capped at n=200000"),
    (("simulate", "--format", "csv", "--n"), 200_000, "the simulation is capped at n=200000"),
    (("check", "--only", "ic", "--max-n"), 728, "check ic: max_n={n} above the sweep bound 728"),
    (("capacity", "--n"), 64, "n={n} above the enumeration bound 64"),
    (("capacity", "--n-range"), 64, "n={n} above the enumeration bound 64"),
]
# the size argument of each option, where it is not the size alone
SIZE_ARGUMENT = {"--n-range": "{n}..2000000"}


@pytest.mark.parametrize(
    "n, argv, bound",
    [
        pytest.param(limit + 1, argv, message, id=f"{limit + 1}-argv{i}-{message}")
        for i, (argv, limit, message) in enumerate(SIZE_BOUNDS)
    ]
    + [
        pytest.param(10**6, argv, message, id=f"1000000-argv{i}-{message}")
        for i, (argv, _, message) in enumerate(SIZE_BOUNDS)
    ],
)
def test_a_size_above_its_bound_exits_two_before_it_allocates(capsys, monkeypatch, argv, bound, n):
    def unbuilt(size):
        raise AssertionError(f"the polygon tables of n={size} were built")

    monkeypatch.setattr(geometry, "_tables", unbuilt)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, SIZE_ARGUMENT.get(argv[-1], "{n}").format(n=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"error: {bound.format(n=n)}\n"
    assert peak < 2**20, peak


def test_check_max_n_reaches_the_checks_that_take_it(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "--only", "ne", "--max-n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["details"].startswith("n=3..5:")
    # a wrapped registry entry still gets max_n: the sweeps are named by key
    calls = []

    @functools.wraps(checks.check_ne)
    def traced(*args, **kwargs):
        calls.append(kwargs)
        return checks.check_ne(*args, **kwargs)

    monkeypatch.setitem(checks.REGISTRY, "ne", traced)
    run_checks(only=["ne"], max_n=5)
    assert calls == [{"max_n": 5}]


# SHA-256 of stdout per subcommand and format, computed at 843b4da before the
# handlers returned their payloads to one writer in main; the decomposition and
# reduction digests were computed at 0a8306a, before those two checks ran as
# stacks.  The capacity JSON digest was computed again when the sweep became a
# certificate: n = 4 now reports the closed-form prior 1/2 on states 0 and 1,
# where the ascent reported the uniform prior, which is as optimal.  The
# digests of the full capacity sweep, the alphabet-5 census and effects at
# n = 64 were computed at 19bd60c, before one walk replaced json.dumps.  The
# capacity CSV runtime_ms column and the text "(0.12s)" timings are masked.
PINNED = [
    (("states", "--n", "5"), "409b22b4bc7b6d01017a02ea0bfbb1c331a5a724b3ea1900a96209abca7bd8ba"),
    (("states", "--n", "6", "--format", "csv"), "a145219505ee374372f6809e68fa95b6a9df2994e8e215852dcef9d1c9c91049"),
    (("effects", "--n", "8"), "52b804600abc14750f52eb6c8ae47071694432aaa4cc9565a256f21ac1ee7d07"),
    (("effects", "--n", "64"), "d604ab8cce26c2d60698f384fd30de484ea15b032baa40086267d2dadbec3c26"),
    (("effects", "--n", "5", "--format", "csv"), "0bacbf66e6eef980fd964d4d32775d34e28209e9aab879b87dc721a0b0c7b37d"),
    (("capacity", "--n-range", "3..8"), "90008ec2babd3f77d32f0e7452d0f9943e21de2ca49504d1617dd794b17fa2f4"),
    (("capacity", "--n-range", "3..64"), "697727986ca93c50ee37d86b004d6406a59849fe681812120635f85cb8c4faf7"),
    (("capacity", "--n-range", "3..8", "--format", "csv"), "10d63770a7c91bb5e35ef32562cabb35e309f2a9c1b4fb19756ee65f3ac1ff45"),
    (("vertices", "--alphabet-size", "2", "--c", "2.5"), "6d7f1252767fbef4ddc0f122a8fcc19a99794d29b677f62a7ccad26fb924033d"),
    (("vertices", "--alphabet-size", "2", "--c", "2.5", "--format", "csv"), "475e231ba35a56942c60e4f2a3c4fb9f372d72fabef75057da643f7030ce7725"),
    (("vertices", "--alphabet-size", "3", "--c", "2.8127"), "46139deb75642f8fb733d36af5ad84e9efc9653e15fc1f4d143ece54a216b58b"),
    (("vertices", "--alphabet-size", "3", "--c", "2.8127", "--format", "csv"), "861dde6c687b1c923d4d58a8f31b9a6a8aa53add65ca28b96097627ce9c34521"),
    (("vertices", "--alphabet-size", "4", "--c", "2.5"), "147d0c4886a86c88a718b9eebe5b49fcdf005cbb769914f1308b21649448d399"),
    (("vertices", "--alphabet-size", "4", "--c", "2.5", "--format", "csv"), "0412278d632df28e56ae9e5f81817a0890073900e84d935c780112be9c9ab66c"),
    (("vertices", "--alphabet-size", "5", "--c", "2.5"), "a4cd5b76f7942128eaa37659d4ebbd1b6047d8ce06a269236c0af358fe60ad7a"),
    (("ic", "--n", "12", "--search"), "4bdcb5d7ed7d3c5119cf81d9ca8428f118f8471203a1043fb54135676c350522"),
    (("ic", "--n", "12", "--search", "--format", "csv"), "313e6df7bc0a345e3182f9b4d3197f9445341e1e10959163a36d5bafd43b81e8"),
    (("ne", "--n", "7"), "757ed9750dde966999e40d367bcd3212526268e469c9cbd2c1b23055da97d222"),
    (("ne", "--n", "10", "--format", "csv"), "2708203e84834d2f4704cade029a2a465a781a83409f34b1c7d651242a421881"),
    (("simulate", "--n", "5", "--samples", "2000", "--seed", "7"), "39ece6fd7a469e7f3037c1d74ec41447479f7c96dc3b10fdfeedba70a2a18e9e"),
    (("simulate", "--n", "17", "--vertex", "3", "--samples", "1000", "--seed", "5", "--format", "csv"), "aa96b2a4bbbdd89fe207fac29c825ed2c9cfd06027d8d7d07569473a986d719a"),
    (("check", "--only", "ic,ne", "--max-n", "16"), "3a50478bb16eff02dcc7797c131f4bc0ee6299f375427c2bba9220296633935c"),
    (("check", "--only", "ic,ne", "--max-n", "16", "--format", "json"), "e14c2a73efc30776f869151fd230dcc10aeec438f7ef7af88a93624d432fea42"),
    (("check", "--only", "decomposition,reduction"), "c636902f32066173033087a3e83af6562ea9f2d38b0992f537efda3406a7ce5e"),
    (("check", "--only", "decomposition,reduction", "--format", "json"), "2a39c9dde23d360fd52ad349f2b942b9d1b65987c7e3940c440776c093e76a47"),
    (("check", "--only", "simulation,weights"), "bfd2ab61142a7349f03a9d38d3be761d666e4337bc6f8e05b643c3a07b521862"),
    (("check", "--only", "simulation,weights", "--format", "json"), "785d9387a17e22a64fa82bbf5b691e5fdf8cd802099ae91792a72f703315dbcd"),
]


def _masked(argv, out: str) -> str:
    if argv[0] == "capacity" and "csv" in argv:
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
    return re.sub(r"\(\d+\.\d\ds\)", "(s)", out)


@pytest.mark.parametrize(
    "argv, digest", [pytest.param(argv, digest, id=" ".join(argv)) for argv, digest in PINNED]
)
def test_stdout_keeps_its_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(_masked(argv, out).encode()).hexdigest() == digest


class _RowsBuilt(Exception):
    pass


def _unbuilt_rows(rows):
    raise _RowsBuilt("a CSV row was built")
    yield


@pytest.mark.parametrize("argv", [argv for argv, _ in PINNED if argv[0] in ("states", "effects", "ne", "simulate")])
def test_json_requests_never_build_csv_rows(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_indexed", _unbuilt_rows)
    if "csv" in argv:
        with pytest.raises(_RowsBuilt):
            main(list(argv))
        return
    code, out, _ = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == dict(PINNED)[argv]
    with pytest.raises(_RowsBuilt):
        main([*argv, "--format", "csv"])


@pytest.mark.parametrize(
    "argv, first",
    [
        (("capacity", "--n-range", "3..5"), (3, "odd")),
        (("vertices", "--alphabet-size", "2", "--c", "2.0"), (0, "ZERO_WEIGHT")),
        (("ic", "--n", "4"), ("n", 4.0)),
    ],
)
def test_handlers_return_unconsumed_csv_rows(argv, first):
    args = cli.build_parser().parse_args(list(argv))
    _, (_, rows) = args.func(args)
    assert iter(rows) is rows
    assert next(rows)[:2] == first


@pytest.mark.parametrize(
    "argv",
    [
        ("states", "--n", "5"),
        ("ne", "--n", "10", "--format", "csv"),
        ("check", "--only", "ne", "--max-n", "6"),
        ("check", "--only", "ne", "--max-n", "6", "--format", "json"),
        # the smallest max_n the odd-capacity sweep accepts, and it passes
        ("check", "--only", "odd-capacity", "--max-n", "7"),
    ],
)
def test_out_writes_the_bytes_of_stdout(tmp_path, capsys, argv):
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert _masked(argv, target.read_text()) == _masked(argv, printed)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_check_exits_one_and_writes_its_report(capsys, monkeypatch, fmt):
    def failing(max_n=64):
        return checks.CheckResult("ic", False, "forced failure")

    monkeypatch.setitem(checks.REGISTRY, "ic", failing)
    code, out, err = run(capsys, "check", "--only", "ic,ne", "--max-n", "6", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "text":
        lines = out.splitlines()
        assert lines[0].startswith("FAIL ic (") and lines[0].endswith("s): forced failure")
        assert lines[1].startswith("PASS ne")
        assert lines[2] == "1/2 checks passed"
    else:
        d = json.loads(out)
        assert d["passed"] is False
        assert [(r["key"], r["passed"]) for r in d["results"]] == [("ic", False), ("ne", True)]


# values every numeric flag is fuzzed with, around and far beyond each bound
EXTREMES = ("-7", "0", "nan", "inf", str(2**63), str(10**30))
SMALL_N = ("3", "4", "5", "8")
# the numeric flags of each subcommand with small valid values; --n is always
# given (capacity takes --n or --n-range), the others only when drawn
FUZZED_FLAGS = {
    "states": {"--n": SMALL_N},
    "effects": {"--n": SMALL_N},
    "capacity": {},
    "vertices": {"--alphabet-size": ("2", "3"), "--c": ("2", "2.5", "3")},
    "ic": {"--n": ("4", "6", "8")},
    "ne": {"--n": SMALL_N},
    "simulate": {"--n": SMALL_N, "--samples": ("1", "100"), "--seed": ("0", "7"), "--vertex": ("0", "2")},
    "check": {"--max-n": ("5", "8")},
}
# the polygon tables a fuzzed request may build: capacity --n-range 3..10^30
# reaches n = 65 through every size up to the enumeration bound
FUZZ_TABLE_MAX = 64


@st.composite
def fuzzed_argv(draw):
    """argv of any subcommand, each numeric flag an extreme or a small valid value."""
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    value = lambda valid: draw(st.sampled_from(EXTREMES + valid))
    argv = [command]
    for flag, valid in FUZZED_FLAGS[command].items():
        if flag == "--n" or draw(st.booleans()):
            argv += [flag, value(valid)]
    if command == "capacity":
        single = draw(st.booleans())
        argv += ["--n", value(SMALL_N)] if single else ["--n-range", f"{value(SMALL_N)}..{value(SMALL_N)}"]
    elif command == "simulate" and draw(st.booleans()):
        argv += ["--indices", ",".join(draw(st.lists(st.sampled_from(EXTREMES + SMALL_N), min_size=1, max_size=3)))]
    elif command == "ic" and draw(st.booleans()):
        argv.append("--search")
    elif command == "check":
        argv += ["--only", draw(st.sampled_from(list(checks.REGISTRY)))]
    if draw(st.booleans()):
        argv += ["--format", "json" if command == "check" else "csv"]
    return argv


def run_quietly(argv):
    """(exit code, stdout, stderr) of one request; argparse's exit is a code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(fuzzed_argv())
@example(["simulate", "--n", "5", "--samples", str(2**63)])
@example(["simulate", "--n", "5", "--samples", str(10**30), "--seed", "7"])
def test_every_request_keeps_the_exit_code_contract(argv):
    original = geometry._tables

    def bounded(size):
        assert size <= FUZZ_TABLE_MAX, f"the polygon tables of n={size} were built"
        return original(size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_tables", bounded)
        code, out, err = run_quietly(argv)
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    if code in (0, 1):
        assert err == ""
    elif code == 2 and lines and lines[0].startswith("usage:"):
        # argparse's own refusal: its usage, then one error line
        assert out == ""
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert lines[-1].startswith(f"ngon {argv[0]}: error: ")
    else:
        assert out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
