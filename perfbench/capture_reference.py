"""Capture reference.json: the outputs of every item any seed can produce.

Run once, from the repository root, at the commit whose outputs define
correctness (the benchmark's seed commit)::

    python3 perfbench/capture_reference.py

It runs each item of ``workloads.reference_items()`` through the package
and stores the report fields, the kernels.csv values, the list of files
written and, for the N sweep, every row.  run.py compares each pass
against this file with the tolerances of check.py.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import parse_kernels_csv  # noqa: E402


def _sweep_rows(path: str) -> dict:
    rows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["error"]:
                raise SystemExit(f"reference sweep point N={row['N']} failed: {row['error']}")
            rows[row["N"]] = {
                **{k: float(row[k]) for k in ("tau_mqs", "f_at_tau", "gamma_at_tau",
                                               "fidelity", "corner", "purity",
                                               "f_markov", "gamma_markov")},
                "feasible": row["feasible"] == "true",
                "n_max": int(row["n_max"]) if row["n_max"] else None,
            }
    return rows


def main() -> int:
    from spincat.scenario import run_scenario, sweep, validate_config

    work = os.path.join(ROOT, ".bench_out", "capture")
    shutil.rmtree(work, ignore_errors=True)
    ref = {"commit": _commit(), "files": {}, "reports": {}, "kernels": {}, "sweep": {}}
    for item in workloads.reference_items():
        out = os.path.join(work, item["key"])
        cfg = validate_config(item["config"])
        if item["kind"] == "sweep":
            sweep(cfg, item["axis"], item["values"], jobs=2, output_dir=out)
            ref["sweep"] = _sweep_rows(os.path.join(out, "sweep.csv"))
            continue
        summary = run_scenario(cfg, output_dir=out)
        ref["files"][item["key"]] = sorted(summary["files"])
        if summary["report"] is not None:
            ref["reports"][item["key"]] = summary["report"]
        if "kernels.csv" in summary["files"]:
            with open(os.path.join(out, "kernels.csv"), encoding="utf-8") as fh:
                ref["kernels"][item["key"]] = parse_kernels_csv(fh.read())
        shutil.rmtree(out)
        print(item["key"], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
