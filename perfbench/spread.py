"""Run-to-run spread of the benchmark, and the baseline file.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --baseline   # also writes baseline.json

Runs ``run.py`` once per seed (1 to 10) and workload with ``--trace 0`` and prints,
for each end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
The same figures are printed for the times as measured, before they are
divided by the host slowdown (``wall_raw_s``, ``setup_raw_s``).
``--baseline`` adds one ``--trace 1`` run per workload and writes the
medians, spreads, per-item rows, per-layer values and the ROADMAP baseline
rows they reproduce, all as measured, to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))

# ROADMAP baseline rows and the metric (workload, kind, name) that reproduces each.
ROADMAP_ROWS = {
    "run fig1": ("presets", "item_rows", "scenario.run_s.fig1"),
    "run fig2": ("presets", "item_rows", "scenario.run_s.fig2"),
    "run phonon": ("presets", "item_rows", "scenario.run_s.phonon"),
    "run cavity": ("presets", "item_rows", "scenario.run_s.cavity"),
    "fig1 N sweep, 8 points, jobs 1": ("sweep_n", "item_rows", "scenario.run_s.sweep-fig1-N"),
    "one f_of_t call (ms)": ("presets", "per_layer", "kernels.f_of_t_ms.ohmic.tau"),
    "solve_tau_mqs": ("presets", "per_layer", "evolve.solve_tau_s.ohmic"),
    "evolve_state at N=1000": ("presets", "per_layer", "evolve.evolve_state_s.N1000"),
    "to_x_basis at N=1000": ("presets", "per_layer", "dicke.to_x_basis_s.N1000"),
}
# A printed row "<workload> <name> [(note)] median <value> of n=<count>".
ROW = re.compile(r"^\S+\s+(\S+)(?: \([^)]*\))?\s+median (\S+) of n=")
RAW = ("wall_raw_s", "setup_raw_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The JSON result of one run.py run, and its printed rows (medians)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    rows = {m.group(1): float(m.group(2)) for m in map(ROW.match, proc.stdout.splitlines()) if m}
    return result, rows


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs, rows = zip(*(run_once(workload, s, seconds, 0) for s in out["seeds"]))
        e2e = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        raw = {name: summarize([r[name] for r in rows]) for name in RAW}
        entry = {"end_to_end": e2e, "raw": raw,
                 "item_rows": {name: statistics.median(r[name] for r in rows if name in r)
                               for name in rows[0] if name.startswith("scenario.")}}
        for name, s in {**e2e, **raw}.items():
            bound = bounds.get(name)
            ok = "" if bound is None else "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{workload:10s} {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}  {ok}  "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
        if args.baseline:
            traced = run_once(workload, out["seeds"][0], seconds, 1)[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.baseline:
        out["roadmap_rows"] = {}
        for row, (workload, kind, name) in ROADMAP_ROWS.items():
            value = out["workloads"][workload][kind][name]
            if isinstance(value, dict):
                value = value["median"]
            out["roadmap_rows"][row] = {"metric": f"{workload}: {name}", "value": value}
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
