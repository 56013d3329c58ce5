"""spincat benchmark: seeded workloads timed end to end, checked, and traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A closed loop with one client: each pass runs every item of the workload
once, serially, in a fresh child process (child.py), and the next pass
starts when the previous one has been checked.  Passes repeat until
``--seconds`` is used up, at least one pass.  BLAS threads are capped at
the number of CPUs.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters that import spincat and validate and build the
first scenario), ``wall_s`` (median pass time) and ``peak_rss_mib`` (median
peak resident memory of the pass's process).  Both times are in seconds at
the reference CPU speed: each is divided by the slowdown that speed.py
measured in the same process while it ran, because the speed of a core on
a shared machine drifts by more than the bounds allow.  The times as
measured (``setup_raw_s``, ``wall_raw_s``) and the slowdowns are printed on
the lines before the JSON.  ``--trace 1`` runs traced passes only and
reports the per-layer metrics, all as measured: span statistics of the
traced passes (tracer.py), the layer probes (probes.py), the
fresh-interpreter import time of ``spincat.cli``, and the tracing
overhead, the number of spans times the measured cost of one span.

Every pass is checked against reference.json (check.py); items that raise
or miss a reference value count as failed.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)

import check  # noqa: E402
from tracer import span_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))

# Calls counted in the traced pass, by span name.
COUNTED = {"f_of_t": "kernels.f_of_t", "gamma_of_t": "kernels.gamma_of_t",
           "solve_tau_mqs": "evolve.solve_tau_mqs", "to_x_basis": "dicke.to_x_basis",
           "validate": "dicke.validate"}
LAYERS = ("scenario", "evolve", "kernels", "dicke")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def _child(args: list[str]) -> tuple[float, str]:
    """Run one child process to completion; (wall seconds, stdout)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[1:3]} exceeded {CHILD_TIMEOUT_S} s") from exc
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, proc.stdout


def _job(*args) -> dict:
    return json.loads(_child([CHILD, *map(str, args)])[1].strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            if not idx.startswith("index"):
                continue
            fields = {}
            for f in ("level", "type", "size"):
                with open(os.path.join(base, idx, f), encoding="ascii") as fh:
                    fields[f] = fh.read().strip()
            caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        caches = {"unknown": "unreadable"}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": NPROC, "blas_threads": NPROC, "caches": caches,
            "machine": platform.machine()}


def _median_and_tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} of n={n}"
    if n < 20:
        return text + "; no percentile has ten samples beyond it (n<20)"
    ordered = sorted(values)
    return text + f"; p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"


def unit(name: str) -> str:
    for seg in name.split("."):
        for suffix, u in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"),
                          ("_bytes", "bytes"), ("flops_computed", "flop"),
                          ("gflops", "GFLOP/s")):
            if seg.endswith(suffix):
                return u
    return "count"


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Run:
    """One benchmark run of one workload: passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.setups: list[tuple[float, float]] = []  # (seconds as measured, slowdown)

    def one_pass(self, traced: bool):
        out = os.path.join(self.dir, f"pass{len(self.passes)}")
        res = _job("pass", self.workload, self.seed, int(traced), out)
        res["artifact_bytes"] = _dir_bytes(out)
        for rec in res["items"]:
            for unit_name, errs in check.check_item(rec, self.reference):
                self.attempted += 1
                if errs:
                    self.failures.append(f"{unit_name}: {'; '.join(errs[:3])}")
        shutil.rmtree(out, ignore_errors=True)
        self.passes.append(res)

    def measure(self, seconds: float, trace: bool):
        start, costs = perf_counter(), []
        while True:
            t0 = perf_counter()
            self.one_pass(trace)
            costs.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(costs) > seconds:
                break

    def setup_s(self) -> float:
        """Median fresh-interpreter set-up time, in seconds at the reference speed."""
        for _ in range(SETUP_SAMPLES):
            wall, out = _child([CHILD, "setup", self.workload, str(self.seed)])
            self.setups.append((wall, json.loads(out.strip().splitlines()[-1])["slowdown"]))
        return statistics.median(wall / slowdown for wall, slowdown in self.setups)

    def end_to_end(self) -> dict:
        return {"setup_s": self.setup_s(),
                "wall_s": statistics.median(p["wall_s"] / p["slowdown"] for p in self.passes),
                "peak_rss_mib": statistics.median(p["maxrss_kib"] / 1024 for p in self.passes)}

    def per_layer(self) -> dict:
        per_pass = [_span_metrics(res) for res in self.passes]
        m = {k: statistics.median(pm[k] for pm in per_pass) for k in per_pass[0]}
        m.update(_job("probes"))
        code = f"import sys; sys.path.insert(0, {SRC!r}); import spincat.cli"
        m["cli.import_s"] = statistics.median(_child(["-c", code])[0]
                                              for _ in range(IMPORT_SAMPLES))
        return m

    def item_rows(self) -> dict:
        """Per-item times in seconds, printed but not in the JSON metrics."""
        rows = {}
        for p in self.passes:
            for rec in p["items"]:
                rows.setdefault(f"scenario.run_s.{rec['key']}", []).append(rec["run_s"])
            for rec, t in zip(p.get("spans", ()), span_self_times(p.get("spans", ()))):
                if rec[3] < 0 and rec[0] != "scenario.validate_config":
                    rows.setdefault(f"scenario.self_s.{rec[4]}", []).append(t)
        return rows


def _span_metrics(res: dict) -> dict:
    """Metrics of one traced pass, times in seconds as measured."""
    spans = res["spans"]
    own = span_self_times(spans)
    names = [rec[0] for rec in spans]
    dur = [rec[2] - rec[1] for rec in spans]
    items = [i for i, rec in enumerate(spans)
             if rec[3] < 0 and rec[0] != "scenario.validate_config"]
    points = [dur[i] for i, n in enumerate(names) if n == "scenario._sweep_point"]
    points = points or [dur[i] for i in items]
    validate = [dur[i] for i, n in enumerate(names) if n == "scenario.validate_config"]
    m = {
        "scenario.validate_config_ms": statistics.median(validate) * 1e3,
        "scenario.run_s": statistics.median(points),
        "scenario.run_max_s": max(points),
        "scenario.self_s": sum(own[i] for i in items),
        "scenario.artifact_bytes": res["artifact_bytes"],
        "trace.wall_s": res["wall_s"],
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * res["span_cost_s"],
    }
    for layer in LAYERS:
        m[f"trace.self_s.{layer}"] = sum(t for n, t in zip(names, own)
                                         if n.split(".")[0] == layer)
    for short, full in COUNTED.items():
        m[f"trace.calls.{short}"] = names.count(full)
    return m


def bench(workload: str, seed: int, seconds: float, trace: bool, reference: dict,
          declared: dict) -> dict:
    run = Run(workload, seed, reference)
    try:
        run.measure(seconds, trace)
        metrics = run.per_layer() if trace else run.end_to_end()
        rows = run.item_rows()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    got = {k: unit(k) for k in metrics}
    if got != declared:
        diff = sorted(set(got.items()) ^ set(declared.items()))
        raise BenchError(f"metrics differ from BENCHMARK.json: {diff}")
    failed = len(run.failures)
    for line in run.failures:
        print(f"FAILED {workload} {line}")
    print(f"# {workload} seed={seed} trace={int(trace)} passes={len(run.passes)}")
    for name, value in metrics.items():
        print(f"{workload:10s} {name:45s} {value:.6g} {unit(name)}")
    print(f"{workload:10s} {'failed_ratio':45s} {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} attempted)")
    diagnostics = [("wall_raw_s (as measured)", [p["wall_s"] for p in run.passes]),
                   ("host_slowdown (pass)", [p["slowdown"] for p in run.passes])]
    if trace:
        diagnostics.append(("trace.span_cost_us", [p["span_cost_s"] * 1e6 for p in run.passes]))
    else:
        diagnostics[:0] = [("wall_s (s at reference speed)",
                            [p["wall_s"] / p["slowdown"] for p in run.passes])]
        diagnostics += [("setup_raw_s (as measured)", [w for w, _ in run.setups]),
                        ("host_slowdown (setup)", [s for _, s in run.setups])]
    for label, values in diagnostics:
        print(f"{workload:10s} {label:45s} {_median_and_tail(values)}")
    for name, values in rows.items():
        print(f"{workload:10s} {name:45s} {_median_and_tail(values)} s")
    if trace:
        _write_trace(workload, seed, run, metrics)
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def _write_trace(workload: str, seed: int, run: Run, metrics: dict):
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "environment": environment(),
                   "span_fields": ["name", "start", "end", "parent", "item"],
                   "traced_passes": [res["spans"] for res in run.passes],
                   "metrics": metrics}, fh)
    print(f"# spans written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spincat", "__init__.py")):
        print(f"error: no spincat sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# seed {args.seed}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace), reference, declared)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
