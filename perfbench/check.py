"""Correctness checks of one pass's artifacts against reference.json.

The tolerances are the package's own contracts, not byte equality, so a
change that moves results within them (a faster but differently rounded
kernel, say) still passes:

* 1e-9 relative for tau, f, Gamma, the Markov limits, t_corr and every
  kernels.csv value;
* ``|tau f(tau) - pi/2| <= 1e-9 pi/2`` from the reported tau and f(tau);
* 1e-9 absolute for fidelity, purity and the corner coherence;
* exact for feasible, n_max, the convention and the kernels.csv warnings.

Snapshots are checked for shape, unit trace and, for a snapshot taken at
tau in the Lx basis, for the corner coherence of the report.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-9
HALF_PI = math.pi / 2.0

REL_FIELDS = ("tau_mqs", "f_at_tau", "gamma_at_tau")
ABS_FIELDS = ("fidelity", "corner", "purity")
EXACT_FIELDS = ("feasible", "n_max", "convention_used")
SWEEP_REL_FIELDS = REL_FIELDS + ("f_markov", "gamma_markov")


def _rel_ok(value: float, ref: float) -> bool:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return value == ref
    return abs(value - ref) <= REL_TOL * abs(ref)


def _compare_report(rep: dict, ref: dict, rel_fields=REL_FIELDS) -> list[str]:
    errs = []
    for k in rel_fields:
        if not _rel_ok(float(rep[k]), float(ref[k])):
            errs.append(f"{k} {rep[k]!r} != {ref[k]!r} (rel {REL_TOL})")
    for k in ABS_FIELDS:
        if not abs(float(rep[k]) - float(ref[k])) <= ABS_TOL:
            errs.append(f"{k} {rep[k]!r} != {ref[k]!r} (abs {ABS_TOL})")
    for k in EXACT_FIELDS:
        if k in ref and rep[k] != ref[k]:
            errs.append(f"{k} {rep[k]!r} != {ref[k]!r}")
    residual = abs(float(rep["tau_mqs"]) * float(rep["f_at_tau"]) - HALF_PI)
    if not residual <= REL_TOL * HALF_PI:
        errs.append(f"tau residual {residual!r} > 1e-9*pi/2")
    return errs


def parse_kernels_csv(text: str) -> dict:
    header, warnings, rows = {}, [], []
    for line in text.splitlines():
        if line.startswith("# warning: "):
            warnings.append(line[len("# warning: "):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = float(value)
        elif line and line != "t,f,gamma":
            rows.append([float(v) for v in line.split(",")])
    return {"header": header, "warnings": warnings, "rows": rows}


def _compare_kernels(got: dict, ref: dict) -> list[str]:
    errs = []
    for k, v in ref["header"].items():
        if k not in got["header"] or not _rel_ok(got["header"][k], v):
            errs.append(f"kernels.csv {k} {got['header'].get(k)!r} != {v!r}")
    if got["warnings"] != ref["warnings"]:
        errs.append(f"kernels.csv warnings {got['warnings']!r} != {ref['warnings']!r}")
    if len(got["rows"]) != len(ref["rows"]):
        return errs + [f"kernels.csv has {len(got['rows'])} rows, expected {len(ref['rows'])}"]
    for i, (row, rrow) in enumerate(zip(got["rows"], ref["rows"])):
        if not all(_rel_ok(a, b) for a, b in zip(row, rrow)):
            errs.append(f"kernels.csv row {i} {row!r} != {rrow!r}")
    return errs


def _check_snapshots(out_dir: str, report: dict | None) -> list[str]:
    with open(os.path.join(out_dir, "snapshots_index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    errs = []
    for snap in index["snapshots"]:
        d = int(round(2 * snap["l"])) + 1
        diag_sum, first_row, n_rows = 0.0, None, 0
        with open(os.path.join(out_dir, snap["file"]), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                vals = line.split(",")
                if len(vals) != d:
                    errs.append(f"{snap['file']} row {n_rows} has {len(vals)} columns, "
                                f"expected {d}")
                    break
                if first_row is None:
                    first_row = vals
                diag_sum += float(vals[n_rows])
                n_rows += 1
        if n_rows != d:
            errs.append(f"{snap['file']} has {n_rows} rows, expected {d}")
            continue
        if not abs(diag_sum - 1.0) <= ABS_TOL:
            errs.append(f"{snap['file']} trace {diag_sum!r} != 1")
        at_tau = report is not None and snap["time"] == report["tau_mqs"]
        if at_tau and snap["basis"] == "Lx":
            corner = float(first_row[-1])
            if not abs(corner - report["corner"]) <= ABS_TOL:
                errs.append(f"{snap['file']} corner {corner!r} != report {report['corner']!r}")
    return errs


def check_item(rec: dict, reference: dict) -> list[tuple[str, list[str]]]:
    """``[(unit, errors)]`` for one item: one unit per run, one per sweep point."""
    key, out_dir = rec["key"], rec["dir"]
    if rec["error"]:
        units = [f"sweep-N{v}" for v in rec["values"]] if rec["kind"] == "sweep" else [key]
        return [(unit, [rec["error"]]) for unit in units]
    try:
        if rec["kind"] == "sweep":
            return _check_sweep(out_dir, rec["values"], reference)
        return [(key, _check_run(key, out_dir, rec["files"], reference))]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [(key, [f"unreadable artifact: {type(exc).__name__}: {exc}"])]


def _check_run(key: str, out_dir: str, files: list[str], reference: dict) -> list[str]:
    if sorted(files) != reference["files"][key]:
        return [f"wrote {sorted(files)!r}, expected {reference['files'][key]!r}"]
    errs, report = [], None
    if "report.json" in files:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        errs += _compare_report(report, reference["reports"][key])
    if "kernels.csv" in files:
        with open(os.path.join(out_dir, "kernels.csv"), encoding="utf-8") as fh:
            errs += _compare_kernels(parse_kernels_csv(fh.read()), reference["kernels"][key])
    if "snapshots_index.json" in files:
        errs += _check_snapshots(out_dir, report)
    return errs


def _check_sweep(out_dir: str, values: list, reference: dict) -> list[tuple[str, list[str]]]:
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [row["N"] for row in rows] != [str(v) for v in values]:
        return [(f"sweep-N{v}", ["sweep.csv rows do not match the requested N values"])
                for v in values]
    units = []
    for row in rows:
        unit = f"sweep-N{row['N']}"
        if row["error"]:
            units.append((unit, [row["error"]]))
            continue
        rep = dict(row)
        rep["feasible"] = row["feasible"] == "true"
        rep["n_max"] = int(row["n_max"]) if row["n_max"] else None
        ref = reference["sweep"][row["N"]]
        units.append((unit, _compare_report(rep, ref, SWEEP_REL_FIELDS)))
    return units
