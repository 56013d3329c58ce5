"""Child-process side of the benchmark: one job per process.

Usage (run.py starts these; each prints one JSON line on stdout)::

    python3 perfbench/child.py setup  <workload> <seed>
    python3 perfbench/child.py pass   <workload> <seed> <traced 0|1> <out_dir>
    python3 perfbench/child.py probes

``setup`` imports spincat and validates and builds the workload's first
scenario, which run.py times from outside as ``setup_s``.  ``pass``
runs every item of the workload once, serially, writing artifacts under
``out_dir``; each pass gets a fresh process so that caches the package
keeps per process are paid on every pass, as every CLI call pays them, and
so that peak memory belongs to this pass alone.  ``probes`` times the
layer probes of probes.py.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _import_spincat():
    import spincat
    if not os.path.abspath(spincat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"spincat imported from {spincat.__file__}, not from {SRC}")


def run_setup(workload: str, seed: int) -> dict:
    from speed import SpeedProbe

    with SpeedProbe() as speed:
        _import_spincat()
        from spincat.scenario import build_scenario, validate_config
        build_scenario(validate_config(workloads.items(workload, seed)[0]["config"]))
    return {"slowdown": speed.slowdown}


def run_pass(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    _import_spincat()
    import scipy.optimize  # noqa: F401  (imported lazily by solve_tau_mqs)

    from speed import SpeedProbe
    from tracer import Tracer

    items = workloads.items(workload, seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        with SpeedProbe() as speed:
            start = perf_counter()
            results = [_run_item(item, os.path.join(out_dir, f"{i:02d}-{item['key']}"), tracer)
                       for i, item in enumerate(items)]
            wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"wall_s": wall, "slowdown": speed.slowdown, "items": results,
           "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["span_cost_s"] = _span_cost()
    return out


def _run_item(item: dict, out: str, tracer) -> dict:
    """Validate and run one item as the CLI would; never raises."""
    from spincat.scenario import run_scenario, sweep, validate_config

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    rec = {"key": item["key"], "kind": item["kind"], "values": item.get("values"),
           "dir": out, "error": None}
    t0 = perf_counter()
    try:
        if tracer is not None:
            tracer.item = item["key"]
        with span("scenario.validate_config"):
            cfg = validate_config(item["config"])
        if item["kind"] == "run":
            with span("scenario.run_scenario"):
                summary = run_scenario(cfg, output_dir=out)
        else:
            with span("scenario.sweep"):
                summary = sweep(cfg, item["axis"], item["values"], jobs=item["jobs"],
                                output_dir=out)
        rec["files"] = summary["files"]
    except Exception as exc:  # an item that raises is counted as failed
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["run_s"] = perf_counter() - t0
    return rec


def _span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call, on a no-op function.

    The median over ``repeats`` rounds of ``calls`` plain and ``calls``
    traced calls.
    """
    from tracer import Tracer

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append(((perf_counter() - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = run_setup(argv[1], int(argv[2]))
    elif mode == "pass":
        result = run_pass(argv[1], int(argv[2]), argv[3] == "1", argv[4])
    elif mode == "probes":
        _import_spincat()
        import probes
        result = probes.run()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
