"""Seeded inputs of the spincat benchmark workloads.

Each workload is a list of items.  An item is one scenario config document
run through ``run_scenario``, or one ``sweep`` over such a document; the
program only ever sees the documents, through ``validate_config``.  The
seed draws the varying parts (sweep N values, the second large-N value,
the tabulated spectra) from finite grids, so that every input a seed can
produce has a reference value in ``reference.json`` captured at the seed
commit, and so that the work in one pass hardly depends on the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("presets", "sweep_n", "large_n", "tabulated")

PRESETS = ("fig1", "fig2", "phonon", "cavity")

# sweep_n: one fig1 N sweep of eight points, the size of the ROADMAP baseline.
SWEEP_POINTS = 8
SWEEP_N = range(10, 201)

# large_n: N = 1000 always (it sets peak memory and most of the time),
# plus one seeded N from a narrow window: the pass cost grows with about
# d**2.5, and a window of [500, 600] moved it by about 13% from seed to seed
# (2-vCPU x86_64 VM, OpenBLAS with 2 threads).
LARGE_FIXED_N = 1000
LARGE_SEEDED_N = range(500, 521, 5)

# tabulated: 24-knot Ohmic-like tables with a smooth bump; the seed picks an
# amplitude and a width, and an inverse temperature for the thermal item.
TAB_KNOTS = 24
TAB_AMPS = (0.8, 0.9, 1.0, 1.1, 1.2)
TAB_WIDTHS = (0.8, 0.9, 1.1, 1.25)
TAB_BETAS = (2.0, 5.0)
TAB_N = 50

_QUARTER_PI = math.pi / 4.0


def _preset(name: str) -> dict:
    from spincat.scenario import preset_config
    return preset_config(name)


def tabulated_table(ia: int, ic: int) -> list[list[float]]:
    """Knots ``[omega, g]`` of the tabulated spectrum with grid indices (ia, ic)."""
    amp = 2.5e-5 * TAB_AMPS[ia]
    width = TAB_WIDTHS[ic]
    w_max = 8.0 * width
    rows = []
    for k in range(TAB_KNOTS):
        w = w_max * k / (TAB_KNOTS - 1)
        bump = 1.0 + 0.25 * math.sin(math.pi * w / w_max)
        rows.append([w, amp * w * math.exp(-w / width) * bump])
    return rows


def tabulated_key(ia: int, ic: int, ib: int | None) -> str:
    temp = "T0" if ib is None else f"b{ib}"
    return f"tab-a{ia}-c{ic}-{temp}"


def tabulated_item(ia: int, ic: int, ib: int | None) -> dict:
    key = tabulated_key(ia, ic, ib)
    config = {
        "schema": 1,
        "name": key,
        "units": "omega_c",
        "spectrum": {"kind": "tabulated", "omega_c": 1.0,
                     "beta": None if ib is None else TAB_BETAS[ib],
                     "table": tabulated_table(ia, ic)},
        "n_particles": TAB_N,
        "theta": _QUARTER_PI,
        "phi": 0.0,
        "outputs": ["report"],
    }
    return {"key": key, "kind": "run", "config": config}


def large_item(n: int) -> dict:
    config = _preset("fig1")
    config["name"] = f"large-N{n}"
    config["n_particles"] = n
    config["outputs"] = ["report", "snapshots"]
    config["snapshot_times"] = {"kind": "tau-fractions", "values": [1.0]}
    return {"key": f"large-N{n}", "kind": "run", "config": config}


def sweep_item(values) -> dict:
    return {"key": "sweep-fig1-N", "kind": "sweep", "config": _preset("fig1"),
            "axis": "N", "values": list(values), "jobs": 1}


def items(workload: str, seed: int) -> list[dict]:
    """The items of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "presets":
        return [{"key": name, "kind": "run", "config": _preset(name)}
                for name in PRESETS]
    if workload == "sweep_n":
        return [sweep_item(sorted(rng.sample(SWEEP_N, SWEEP_POINTS)))]
    if workload == "large_n":
        return [large_item(LARGE_FIXED_N), large_item(rng.choice(LARGE_SEEDED_N))]
    if workload == "tabulated":
        cold = (rng.randrange(len(TAB_AMPS)), rng.randrange(len(TAB_WIDTHS)), None)
        warm = (rng.randrange(len(TAB_AMPS)), rng.randrange(len(TAB_WIDTHS)),
                rng.randrange(len(TAB_BETAS)))
        return [tabulated_item(*cold), tabulated_item(*warm)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_items() -> list[dict]:
    """Every item any seed can produce, for capturing reference values."""
    out = [{"key": name, "kind": "run", "config": _preset(name)} for name in PRESETS]
    out.append(sweep_item(SWEEP_N))
    out += [large_item(n) for n in (LARGE_FIXED_N, *LARGE_SEEDED_N)]
    for ia in range(len(TAB_AMPS)):
        for ic in range(len(TAB_WIDTHS)):
            for ib in (None, *range(len(TAB_BETAS))):
                out.append(tabulated_item(ia, ic, ib))
    return out
