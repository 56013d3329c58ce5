"""Scenario configs, built-in presets, and artifact emission.

A scenario is a JSON document (``schema: 1``) describing one complete
simulation: the bath spectrum, the ensemble, the initial preparation,
which artifacts to write, and where.  The full shape::

    {
      "schema": 1,
      "name": "my-run",
      "units": "omega_c",              # or "hz"; labels the number scale
      "spectrum": {
        "kind": "ohmic",               # ohmic | lorentzian | tabulated
        "alpha": 2.5e-05,
        "omega_c": 1.0,
        "omega_0": 10.0,               # lorentzian only: center frequency
        "beta": null,                  # null = zero temperature
        "table": [[0.0, 0.0], ...]     # tabulated only: <= 10000 [omega, g] knots,
                                       # knots * kernel times <= 90000000
      },
      "n_particles": 50,               # 1 .. 4096
      "theta": 0.785398,               # preparation polar angle
      "phi": 0.0,                      # preparation azimuth
      "time_grid": {                   # kernel tabulation grid
        "kind": "log",                 # log | linear
        "start": 0.01, "stop": 1e6, "count": 121   # count <= 800000
      },
      "snapshot_times": {
        "kind": "tau-fractions",       # tau-fractions | absolute
        "values": [0.3, 1.0]           # len <= 800000, len * (N+1)**2 <= 195225786
      },
      "basis": "Lx",                   # basis for emitted snapshots
      "conventions": {"thermal": "coth-full", "mqs": "twist"},
      "solver": {"horizon_factor": 1e6},
      "outputs": ["kernels", "snapshots", "report"],
      "output_dir": "fig1-out"         # optional; CLI flag overrides
    }

``time_grid`` is required only when "kernels" is requested, and
``snapshot_times`` only when "snapshots" is.  The maxima above (and at
most 1800 values per sweep) come from the work and output budgets written
beside ``_MAX_PARTICLES``; over one, validation fails with the field path
before any kernel work.  All frequencies are in
units of ``omega_c`` unless ``units`` is "hz" (then frequencies are in
Hz and times in seconds); the choice only labels the numbers, the math
is scale-free.  Files are written atomically (temp file + rename) with the
mode a plain ``open(path, "w")`` gives (``0o666`` less the umask), all
floats in the shortest decimal form that round-trips, so identical
configs produce byte-identical artifacts.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import math
import os
import secrets
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bath import SpectralDensity, SpectrumKind, ThermalConvention
from .dicke import Basis, SectorLabel, coherent_state
from .errors import ConfigError, SpinCatError
from .evolve import EvolutionParams, MqsConvention, MqsReport, _snapshot, assess_mqs
from .kernels import _DEFAULT_HORIZON_FACTOR, markov_limits, solve_bath, tabulate_kernels

__all__ = [
    "validate_config",
    "build_scenario",
    "preset_names",
    "preset_config",
    "run_scenario",
    "sweep",
    "SWEEP_AXES",
]

_OUTPUT_KINDS = ("kernels", "snapshots", "report")
# Input maxima, each derived from a memory, work or output budget, so that a
# config fails with a config error instead of exhausting the machine.
#
# Largest ensemble, from a 2 GiB memory budget.  One dense d x d complex
# array (d = N + 1) takes 16*d**2 bytes; a run holds about four of them at
# once (the measured peak, 64 bytes per element, comes from the Lz-to-Lx
# rotation of an Lx snapshot: rho, the result, the rotation and real d x d
# temporaries; the rotation is built for that snapshot and freed with it,
# none is cached, snapshots are computed, written and freed one at a time
# whatever their count, and snapshot text is streamed row by row; the text
# writer holds |rho| and at most about d*d/4 strings, measured at 28 bytes
# per element, below the rotation's 48 on top of rho), so N = 4096 needs
# 4 * 16 * 4097**2 ~ 1.1e9 bytes, inside the budget.
_MAX_PARTICLES = 4096
# Kernel and sweep work, from a budget of one hour on one core: a kernel
# time (a time-grid point or a snapshot time) costs one integral of both
# kernels, measured at up to 1.7 ms (fig1) and 3.1 ms (fig2) per time and
# budgeted at 4.5 ms, and a sweep point costs about 2.0 s at N = 4096.
_WORK_BUDGET_S = 3600.0
_MAX_TIME_GRID_COUNT = round(_WORK_BUDGET_S / 4.5e-3)   # 800000
_MAX_SWEEP_VALUES = round(_WORK_BUDGET_S / 2.0)         # 1800
# Every knot of a table is a panel edge of every kernel integral: 17-30 us
# per knot and integral at tau (T = 0, T > 0), budgeted at 40 us.  A bath
# solve takes at most nine (1.0-2.2 s at 10000 knots) and a beta sweep solves
# once per value, so a table is kept near the 2.0 s per sweep point above,
# and its knots times the run's kernel times to the hour.
_KNOT_COST_S = 40e-6
_MAX_TABLE_KNOTS = round(_WORK_BUDGET_S / _MAX_SWEEP_VALUES / (5 * _KNOT_COST_S))  # 10000
_MAX_KNOT_TIMES = round(_WORK_BUDGET_S / _KNOT_COST_S)                            # 90000000
# Snapshot text, from a 4 GiB output budget per run: an |rho| grid entry
# takes about 22 bytes of text (one N = 4096 grid, 4097**2 entries, is about
# 370 MB), so a run writes at most len(values) * (N+1)**2 entries.
_MAX_SNAPSHOT_ENTRIES = 2**32 // 22                   # 195225786
SWEEP_AXES = ("N", "beta", "alpha", "omega_0")


# ---------------------------------------------------------------------------
# validation


def _fail(path: str, msg: str):
    raise ConfigError(msg, field=path)


def _get(d: dict, key: str, path: str, required: bool, default=None):
    if key in d:
        return d[key]
    if required:
        _fail(f"{path}.{key}" if path else key, "required field is missing")
    return default


def _number(value, path: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and not v > 0.0:
        _fail(path, f"must be > 0, got {v!r}")
    if nonnegative and v < 0.0:
        _fail(path, f"must be >= 0, got {v!r}")
    return v


def _integer(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return value


def _string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _check_unknown(d: dict, allowed, path: str):
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")


def _validate_spectrum(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    _check_unknown(raw, {"kind", "alpha", "omega_c", "omega_0", "beta", "table"}, path)
    kind = _string(_get(raw, "kind", path, True), f"{path}.kind",
                   {k.value for k in SpectrumKind})
    out = {"kind": kind}
    out["omega_c"] = _number(_get(raw, "omega_c", path, False, 1.0),
                             f"{path}.omega_c", positive=True)
    beta = _get(raw, "beta", path, False, None)
    if beta is not None:
        beta = _number(beta, f"{path}.beta", positive=True)
    out["beta"] = beta
    if kind == SpectrumKind.TABULATED.value:
        table = _get(raw, "table", path, True)
        if not isinstance(table, list) or not table:
            _fail(f"{path}.table", "expected a nonempty list of [omega, g] pairs")
        if len(table) > _MAX_TABLE_KNOTS:
            _fail(f"{path}.table", f"at most {_MAX_TABLE_KNOTS} knots, got {len(table)}")
        pairs = []
        for i, row in enumerate(table):
            if not isinstance(row, list) or len(row) != 2:
                _fail(f"{path}.table[{i}]", "expected an [omega, g] pair")
            w = _number(row[0], f"{path}.table[{i}][0]", nonnegative=True)
            g = _number(row[1], f"{path}.table[{i}][1]", nonnegative=True)
            pairs.append([w, g])
        out["table"] = pairs
        for key in ("alpha", "omega_0"):
            if key in raw:
                _fail(f"{path}.{key}", "not applicable to tabulated spectra")
    else:
        out["alpha"] = _number(_get(raw, "alpha", path, True),
                               f"{path}.alpha", nonnegative=True)
        if kind == SpectrumKind.LORENTZIAN.value:
            out["omega_0"] = _number(_get(raw, "omega_0", path, True),
                                     f"{path}.omega_0", positive=True)
        elif "omega_0" in raw:
            _fail(f"{path}.omega_0", "only applicable to lorentzian spectra")
        if "table" in raw:
            _fail(f"{path}.table", "only applicable to tabulated spectra")
    return out


def _validate_time_grid(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    _check_unknown(raw, {"kind", "start", "stop", "count"}, path)
    kind = _string(_get(raw, "kind", path, True), f"{path}.kind", {"log", "linear"})
    start = _number(_get(raw, "start", path, True), f"{path}.start", positive=True)
    stop = _number(_get(raw, "stop", path, True), f"{path}.stop", positive=True)
    if not stop > start:
        _fail(f"{path}.stop", f"must exceed start={start!r}, got {stop!r}")
    count = _integer(_get(raw, "count", path, True), f"{path}.count", minimum=2,
                     maximum=_MAX_TIME_GRID_COUNT)
    return {"kind": kind, "start": start, "stop": stop, "count": count}


def _validate_snapshot_times(raw, path: str, n_particles: int) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    _check_unknown(raw, {"kind", "values"}, path)
    kind = _string(_get(raw, "kind", path, True), f"{path}.kind",
                   {"tau-fractions", "absolute"})
    values = _get(raw, "values", path, True)
    if not isinstance(values, list) or not values:
        _fail(f"{path}.values", "expected a nonempty list of times")
    if len(values) > _MAX_TIME_GRID_COUNT:
        _fail(f"{path}.values", f"at most {_MAX_TIME_GRID_COUNT} snapshots (one kernel "
              f"integral each, as a time_grid point), got {len(values)}")
    most = _MAX_SNAPSHOT_ENTRIES // (n_particles + 1) ** 2
    if len(values) > most:
        _fail(f"{path}.values", f"at most {most} snapshots at n_particles={n_particles} "
              f"(len(values) * (N+1)**2 <= {_MAX_SNAPSHOT_ENTRIES} grid entries), "
              f"got {len(values)}")
    vals = [_number(v, f"{path}.values[{i}]", nonnegative=True)
            for i, v in enumerate(values)]
    return {"kind": kind, "values": vals}


def validate_config(raw: dict) -> dict:
    """Validate a scenario document and return it with defaults filled in.

    Raises :class:`ConfigError` naming the offending field path.
    """
    if not isinstance(raw, dict):
        _fail("", f"config root must be an object, got {type(raw).__name__}")
    allowed = {"schema", "name", "units", "spectrum", "n_particles", "theta",
               "phi", "time_grid", "snapshot_times", "basis", "conventions",
               "solver", "outputs", "output_dir"}
    _check_unknown(raw, allowed, "")
    schema = _integer(_get(raw, "schema", "", True), "schema")
    if schema != 1:
        _fail("schema", f"unsupported schema version {schema}")
    name = _string(_get(raw, "name", "", True), "name")
    if not name:
        _fail("name", "must be nonempty")
    units = _string(_get(raw, "units", "", False, "omega_c"), "units",
                    {"omega_c", "hz"})
    spectrum = _validate_spectrum(_get(raw, "spectrum", "", True), "spectrum")
    n = _integer(_get(raw, "n_particles", "", True), "n_particles",
                 minimum=1, maximum=_MAX_PARTICLES)
    theta = _number(_get(raw, "theta", "", True), "theta")
    phi = _number(_get(raw, "phi", "", True), "phi")

    outputs = _get(raw, "outputs", "", False, ["report"])
    if not isinstance(outputs, list) or not outputs:
        _fail("outputs", "expected a nonempty list")
    seen = []
    for i, o in enumerate(outputs):
        o = _string(o, f"outputs[{i}]", set(_OUTPUT_KINDS))
        if o in seen:
            _fail(f"outputs[{i}]", f"duplicate output kind {o!r}")
        seen.append(o)
    outputs = [o for o in _OUTPUT_KINDS if o in seen]

    time_grid = None
    if "time_grid" in raw:
        time_grid = _validate_time_grid(raw["time_grid"], "time_grid")
    elif "kernels" in outputs:
        _fail("time_grid", 'required when "kernels" is in outputs')
    snapshot_times = None
    if "snapshot_times" in raw:
        snapshot_times = _validate_snapshot_times(raw["snapshot_times"],
                                                  "snapshot_times", n)
    elif "snapshots" in outputs:
        _fail("snapshot_times", 'required when "snapshots" is in outputs')
    # the run's kernel times: time-grid points and snapshot times
    times = (time_grid["count"] if time_grid else 0) + (
        len(snapshot_times["values"]) if snapshot_times else 0)
    if len(spectrum.get("table", ())) * times > _MAX_KNOT_TIMES:
        _fail("spectrum.table", f"at most {_MAX_KNOT_TIMES // times} knots with {times} "
              f"kernel times (knots * (time_grid.count + len(snapshot_times.values)) "
              f"<= {_MAX_KNOT_TIMES}), got {len(spectrum['table'])}")

    basis = _string(_get(raw, "basis", "", False, "Lz"), "basis",
                    {b.value for b in Basis})
    conv = _get(raw, "conventions", "", False, {})
    if not isinstance(conv, dict):
        _fail("conventions", f"expected an object, got {type(conv).__name__}")
    _check_unknown(conv, {"thermal", "mqs"}, "conventions")
    thermal = _string(_get(conv, "thermal", "conventions", False, "coth-full"),
                      "conventions.thermal", {c.value for c in ThermalConvention})
    mqs = _string(_get(conv, "mqs", "conventions", False, "twist"),
                  "conventions.mqs", {c.value for c in MqsConvention})
    solver = _get(raw, "solver", "", False, {})
    if not isinstance(solver, dict):
        _fail("solver", f"expected an object, got {type(solver).__name__}")
    _check_unknown(solver, {"horizon_factor"}, "solver")
    horizon = _number(_get(solver, "horizon_factor", "solver", False,
                           _DEFAULT_HORIZON_FACTOR),
                      "solver.horizon_factor", positive=True)
    if not horizon > 1.0:
        _fail("solver.horizon_factor", f"must exceed 1, got {horizon!r}")
    out_dir = _get(raw, "output_dir", "", False, None)
    if out_dir is not None:
        out_dir = _string(out_dir, "output_dir")
        if not out_dir:
            _fail("output_dir", "must be nonempty when present")

    normalized = {
        "schema": 1,
        "name": name,
        "units": units,
        "spectrum": spectrum,
        "n_particles": n,
        "theta": theta,
        "phi": phi,
        "basis": basis,
        "conventions": {"thermal": thermal, "mqs": mqs},
        "solver": {"horizon_factor": horizon},
        "outputs": outputs,
    }
    if time_grid is not None:
        normalized["time_grid"] = time_grid
    if snapshot_times is not None:
        normalized["snapshot_times"] = snapshot_times
    if out_dir is not None:
        normalized["output_dir"] = out_dir
    return normalized


# ---------------------------------------------------------------------------
# physics


def build_scenario(normalized: dict) -> EvolutionParams:
    """The physics of a validated config, as one :class:`EvolutionParams`.

    The spectrum takes the config's thermal convention, with ``beta: null``
    read as zero temperature (``inf``); the initial state is the coherent
    state at ``(theta, phi)`` in the ``n_particles`` sector; the MQS
    convention and the formation-time horizon come from ``conventions`` and
    ``solver``.  Everything else about a run (name, outputs, grids, basis,
    output directory) is read from ``normalized`` itself.
    """
    sp = normalized["spectrum"]
    sector = SectorLabel(normalized["n_particles"])
    return EvolutionParams(
        # validated spectrum keys are SpectralDensity fields; beta None is T = 0
        SpectralDensity(**dict(sp, beta=sp["beta"] or math.inf),
                        thermal_convention=normalized["conventions"]["thermal"]),
        sector,
        coherent_state(sector, normalized["theta"], normalized["phi"]),
        mqs_convention=normalized["conventions"]["mqs"],
        solve_horizon_factor=normalized["solver"]["horizon_factor"])


# ---------------------------------------------------------------------------
# presets


def _presets() -> dict:
    quarter_pi = 0.7853981633974483   # pi/4
    half_pi = 1.5707963267948966      # pi/2
    # fig2 coupling calibrated so the accumulated phase t*f(t) reaches
    # pi/2 exactly at t = 100/omega_c: alpha = (pi/2) / 36.540666041034618,
    # the denominator being t*f(100) for the same spectrum at alpha = 1.
    alpha_fig2 = 0.042987621655032664
    # cavity coupling chosen so the integrated spectrum gives a collective
    # coupling rate eta = sqrt(integral G0) of 1 MHz for a far-detuned
    # line (omega_0 = 1e10 Hz, width 1e6 Hz): alpha = 1e6/pi.
    alpha_cavity = 318309.8861837907
    return {
        "fig1": {
            "schema": 1,
            "name": "fig1",
            "units": "omega_c",
            "spectrum": {"kind": "ohmic", "alpha": 2.5e-05, "omega_c": 1.0,
                         "beta": None},
            "n_particles": 50,
            "theta": quarter_pi,
            "phi": 0.0,
            "time_grid": {"kind": "log", "start": 0.01, "stop": 1e6,
                          "count": 121},
            "snapshot_times": {"kind": "tau-fractions", "values": [0.3, 1.0]},
            "basis": "Lx",
            "conventions": {"thermal": "coth-full", "mqs": "twist"},
            "solver": {"horizon_factor": 1e6},
            "outputs": ["kernels", "snapshots", "report"],
        },
        "fig2": {
            "schema": 1,
            "name": "fig2",
            "units": "omega_c",
            "spectrum": {"kind": "lorentzian", "alpha": alpha_fig2,
                         "omega_c": 1.0, "omega_0": 10.0, "beta": None},
            "n_particles": 50,
            "theta": half_pi,
            "phi": 0.0,
            "time_grid": {"kind": "log", "start": 0.01, "stop": 1000.0,
                          "count": 101},
            "snapshot_times": {"kind": "absolute", "values": [100.0]},
            "basis": "Lx",
            "conventions": {"thermal": "coth-full", "mqs": "twist"},
            "solver": {"horizon_factor": 1e6},
            "outputs": ["kernels", "snapshots", "report"],
        },
        # Acoustic-phonon estimate: Debye cutoff 1e13 Hz, weak coupling,
        # 0.5 mK temperature (beta = hbar/(k_B T) = 1.528e-8 s).
        "phonon": {
            "schema": 1,
            "name": "phonon",
            "units": "hz",
            "spectrum": {"kind": "ohmic", "alpha": 2e-07, "omega_c": 1e13,
                         "beta": 1.528e-08},
            "n_particles": 100,
            "theta": half_pi,
            "phi": 0.0,
            "basis": "Lz",
            "conventions": {"thermal": "coth-full", "mqs": "twist"},
            "solver": {"horizon_factor": 1e8},
            "outputs": ["report"],
        },
        # Far-detuned cavity estimate: 1 MHz linewidth at 10 GHz detuning,
        # 1 MHz collective coupling, zero temperature.
        "cavity": {
            "schema": 1,
            "name": "cavity",
            "units": "hz",
            "spectrum": {"kind": "lorentzian", "alpha": alpha_cavity,
                         "omega_c": 1e6, "omega_0": 1e10, "beta": None},
            "n_particles": 100,
            "theta": half_pi,
            "phi": 0.0,
            "basis": "Lz",
            "conventions": {"thermal": "coth-full", "mqs": "twist"},
            "solver": {"horizon_factor": 1e6},
            "outputs": ["report"],
        },
    }


def preset_names() -> list[str]:
    """Names of the built-in scenarios."""
    return sorted(_presets())


def preset_config(name: str) -> dict:
    """A fresh copy of the named preset's config document."""
    presets = _presets()
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          + ", ".join(sorted(presets)))
    return copy.deepcopy(presets[name])


# ---------------------------------------------------------------------------
# artifact writing


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str, text: str | Iterable[str]):
    # ``text`` is one string or an iterable of strings written in order; the
    # target is replaced only once all of it is written.  The temp file is
    # created 0o666 less the umask, as ``open(path, "w")`` would create it.
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _time_grid_points(grid: dict) -> np.ndarray:
    if grid["kind"] == "log":
        return np.geomspace(grid["start"], grid["stop"], grid["count"])
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _snapshot_csv(rho, time: float) -> Iterator[str]:
    # |rho_{mm'}| magnitude grid; rows and columns run m = +l .. -l.  Yields
    # the header, then one line per row, so the grid text is never held whole.
    # Only |rho| is kept: the caller's last reference to rho goes when the
    # header is taken.  |rho| of a Hermitian matrix is symmetric, so row i
    # formats its entries j >= i and takes the rest from column i: the
    # strings of (k, i), k < i, kept as rows k were written and freed with
    # row i (at most about d*d/4 strings at once).  A lower entry that
    # differs from its mirror is formatted on its own, so every entry reads
    # repr(|rho_ij|) whatever the matrix.
    header = (f"# basis = {rho.basis_tag.value}\n"
              f"# l = {float(rho.sector.l)!r}\n"
              f"# time = {float(time)!r}\n"
              "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l\n")
    mag = np.abs(rho.elements)
    del rho
    yield header
    cols = [[] for _ in mag]
    for i, row in enumerate(mag):
        upper = list(map(repr, row[i:].tolist()))
        line, cols[i] = cols[i], None
        for k in np.flatnonzero(row[:i] != mag[:i, i]).tolist():
            line[k] = repr(float(row[k]))
        for col, text in zip(cols[i + 1:], upper[1:]):
            col.append(text)
        line += upper
        yield ",".join(line) + "\n"


def _report_payload(normalized: dict, report: MqsReport) -> dict:
    return {
        "schema": 1,
        "name": normalized["name"],
        "units": normalized["units"],
        "spectrum": dict(normalized["spectrum"],
                         thermal_convention=normalized["conventions"]["thermal"]),
        "n_particles": normalized["n_particles"],
        "theta": normalized["theta"],
        "phi": normalized["phi"],
        "report": dataclasses.asdict(report),
    }


def _annotate(exc: SpinCatError, operation: str):
    if not getattr(exc, "operation", None):
        exc.operation = operation
    return exc


def run_scenario(normalized: dict, output_dir: str | None = None) -> dict:
    """Execute a validated scenario and write its artifacts.

    The physics comes from :func:`build_scenario`; the name, outputs, time
    grid, snapshot times, basis and output directory are read from
    ``normalized``.  Returns the summary dict that the CLI prints as one
    JSON line: scenario name, resolved output directory, the list of files
    written, and the formation report (when requested).  ``output_dir``
    overrides the config's own setting.

    ``kernels.csv`` and ``report.json`` are written before any snapshot.
    Snapshots are computed, written and freed one at a time, so a run holds
    one snapshot matrix whatever their count; a numeric failure at snapshot
    ``k`` leaves ``snapshot_000.csv`` .. ``k - 1`` written, and no index.
    """
    params = build_scenario(normalized)
    name, outputs = normalized["name"], normalized["outputs"]
    out_dir = output_dir or normalized.get("output_dir") or f"{name}-out"
    os.makedirs(out_dir, exist_ok=True)
    files: list[str] = []
    summary: dict = {"name": name, "output_dir": out_dir, "files": files,
                     "report": None}

    if "kernels" in outputs:
        try:
            table = tabulate_kernels(params.spectrum,
                                     _time_grid_points(normalized["time_grid"]))
        except SpinCatError as exc:
            raise _annotate(exc, "kernel tabulation")
        _write_atomic(os.path.join(out_dir, "kernels.csv"),
                      "\n".join(table.csv_lines()) + "\n")
        files.append("kernels.csv")

    bath = None
    snap = normalized.get("snapshot_times")
    if "report" in outputs or ("snapshots" in outputs and snap["kind"] == "tau-fractions"):
        try:
            bath = solve_bath(params.spectrum, params.solve_horizon_factor)
        except SpinCatError as exc:
            raise _annotate(exc, "formation-time solve")

    if "report" in outputs:
        try:
            report = assess_mqs(params)
        except SpinCatError as exc:
            raise _annotate(exc, "formation assessment")
        payload = _report_payload(normalized, report)
        _write_atomic(os.path.join(out_dir, "report.json"),
                      _json_dumps(payload))
        files.append("report.json")
        summary["report"] = payload["report"]

    if "snapshots" in outputs:
        if snap["kind"] == "tau-fractions":
            times = [v * bath.tau for v in snap["values"]]
        else:
            times = list(snap["values"])
        basis = Basis(normalized["basis"])
        index = []
        for i, t in enumerate(times):
            try:
                rho = _snapshot(params, t, basis, bath)
            except SpinCatError as exc:
                raise _annotate(exc, "snapshot evolution")
            fname = f"snapshot_{i:03d}.csv"
            lines = _snapshot_csv(rho, t)
            del rho  # the text needs only |rho|: free rho before it is written
            _write_atomic(os.path.join(out_dir, fname), lines)
            files.append(fname)
            index.append({
                "file": fname,
                "time": t,
                "basis": basis.value,
                "n_particles": params.sector.n_particles,
                "l": params.sector.l,
            })
        _write_atomic(os.path.join(out_dir, "snapshots_index.json"),
                      _json_dumps({"schema": 1, "name": name,
                                   "snapshots": index}))
        files.append("snapshots_index.json")

    return summary


# ---------------------------------------------------------------------------
# sweeps

_SWEEP_COLUMNS = ("tau_mqs", "f_at_tau", "gamma_at_tau", "fidelity", "corner",
                  "purity", "feasible", "n_max", "f_markov", "gamma_markov",
                  "error")


def _apply_axis(normalized: dict, axis: str, value: float) -> dict:
    # values pass the same checks as the config fields they replace
    cfg = copy.deepcopy(normalized)
    if axis == "N":
        n = _number(value, "values", positive=True)
        if not n.is_integer():
            _fail("values", f"N values must be positive integers, got {value!r}")
        cfg["n_particles"] = _integer(int(n), "values", maximum=_MAX_PARTICLES)
    elif axis == "alpha":
        cfg["spectrum"]["alpha"] = _number(value, "values", nonnegative=True)
    else:  # beta, omega_0
        cfg["spectrum"][axis] = _number(value, "values", positive=True)
    return cfg


def _sweep_point(task) -> dict:
    normalized, axis, value = task
    row = dict.fromkeys(_SWEEP_COLUMNS)  # None cells are written empty
    try:
        params = build_scenario(_apply_axis(normalized, axis, value))
        report = assess_mqs(params)
        limits = markov_limits(params.spectrum)
        row.update(dataclasses.asdict(report), f_markov=limits.f_markov,
                   gamma_markov=limits.gamma_markov)
    except SpinCatError as exc:
        row["error"] = str(exc)
    return row


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def sweep(normalized: dict, axis: str, values, jobs: int = 1,
          output_dir: str | None = None) -> dict:
    """Run the scenario once per axis value and emit a CSV table.

    One row per value, in input order; a failed point fills the ``error``
    column and the sweep continues.  ``jobs > 1`` distributes points over
    at most one process per point; results are identical to a serial run.
    At most ``_MAX_SWEEP_VALUES`` values are accepted.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"expected one of {list(SWEEP_AXES)}", field="axis")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value", field="values")
    if len(values) > _MAX_SWEEP_VALUES:
        raise ConfigError(f"at most {_MAX_SWEEP_VALUES} values per sweep, "
                          f"got {len(values)}", field="values")
    if axis == "N":
        # the axis column prints integers whether values arrived as 2 or 2.0
        values = [int(v) if isinstance(v, float) and v.is_integer() else v
                  for v in values]
    # the validated spectrum carries exactly the fields its family has
    if axis in ("alpha", "omega_0") and axis not in normalized["spectrum"]:
        raise ConfigError(f"{axis} sweeps do not apply to "
                          f"{normalized['spectrum']['kind']} spectra", field="axis")
    tasks = [(normalized, axis, v) for v in values]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    out_dir = output_dir or normalized.get("output_dir") or f"{normalized['name']}-out"
    os.makedirs(out_dir, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow((axis,) + _SWEEP_COLUMNS)
    for value, row in zip(values, rows):
        writer.writerow([_format_cell(value)]
                        + [_format_cell(row[c]) for c in _SWEEP_COLUMNS])
    path = os.path.join(out_dir, "sweep.csv")
    _write_atomic(path, buf.getvalue())
    n_failed = sum(1 for r in rows if r["error"])
    return {"name": normalized["name"], "output_dir": out_dir, "axis": axis,
            "files": ["sweep.csv"], "points": len(values), "failed": n_failed}
