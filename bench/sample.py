"""One benchmark sample: import ngon.cli in this fresh interpreter, then run a
list of CLI requests through ``ngon.cli.main`` and report on stdout.

Usage: python3 sample.py '<spec json>'

The spec holds ``src`` (the directory ngon must be imported from),
``requests`` (a list of argv lists), ``trace`` (wrap the layer functions
with spans) and ``setup_only`` (stop after the import and report the
environment).  The report is one JSON object: ``imported`` (perf_counter
right after ``import ngon.cli``; the clock is system-wide, so the parent
can subtract its spawn time), and for a full sample the per-request exit
codes and stdout, the wall and CPU time of the request list, the peak RSS
and, when traced, the span summary.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def environment() -> dict:
    """Interpreter, numpy and thread settings as found; nothing is pinned."""
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    root = os.path.dirname(numpy.__file__)
    libs = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(root, ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["openblas_threads"] = fn()
                return env
    return env


def run_request(argv) -> dict:
    import ngon.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ngon.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1 from the real CLI
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import ngon.cli

    imported = time.perf_counter()
    src = os.path.realpath(spec["src"])
    origin = os.path.realpath(ngon.cli.__file__)
    if os.path.commonpath([src, origin]) != src:
        print(f"ngon was imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    report = {"imported": imported}
    if spec["setup_only"]:
        report["env"] = environment()
        print(json.dumps(report))
        return 0
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        results = [run_request(argv) for argv in spec["requests"]]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        results=results,
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_kib=after.ru_maxrss,
    )
    if tracer is not None:
        report["spans"] = spans.summarize(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
