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
        "table": [[0.0, 0.0], ...]     # tabulated only: <= 8000 [omega, g] knots,
                                       # omega rising, knots * kernel times <= 90000000
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
from collections.abc import Iterable

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
# array (d = N + 1) takes 16*d**2 bytes, but a run makes none: the measured
# peak of a run, 21 bytes per entry (traced at N = 1000 and 2000; 26 at
# N = 400), comes from an Lx snapshot: the real |rho| grid (8), the halves
# of the rotation (4) and the half-size parity parts of one real part of rho
# (6), folded from rows of rho made a block at a time, with a product of
# them.  An Lz snapshot holds its grid and a block of rows of rho.  The
# rotation is made for that snapshot and freed with it, snapshots are
# computed, written and freed one at a time, and their text is streamed, in
# this one process; the text writer holds the grid and comma-joined pieces
# of at most about d*d/4 strings, traced at 10.6-15.4 bytes per entry with
# the grid at N = 2000 (fig1's grid at tau, mostly 0.0, and the pole
# state's, with no 0.0; the pole state's 25.8 at N = 400), below the
# grid's own peak.  So N = 4096 needs about 21 * 4097**2 ~ 0.35e9 bytes,
# inside the budget.
_MAX_PARTICLES = 4096
# Kernel and sweep work, from a budget of one hour on one core: a kernel
# time (a time-grid point or a snapshot time) costs one integral of both
# kernels, measured at up to 1.7 ms (fig1) and 3.1 ms (fig2) per time and
# budgeted at 4.5 ms, and a sweep point costs about 2.0 s at N = 4096.
_WORK_BUDGET_S = 3600.0
_MAX_TIME_GRID_COUNT = round(_WORK_BUDGET_S / 4.5e-3)   # 800000
_MAX_SWEEP_VALUES = round(_WORK_BUDGET_S / 2.0)         # 1800
# Every knot of a table is a panel edge of every kernel integral: 22-39 us
# per knot and integral at tau (T = 0, T > 0), budgeted at 40 us.  A bath
# solve at T > 0 costs the most per knot: five to seven integrals, 1.2-1.3 s
# at 5556 and 8000 knots and 2.0-2.3 s at 10000 (up to 235 us per knot; at
# T = 0, 1.1 s at 10000), budgeted at 250 us per knot.  A beta sweep solves
# once per value, so a table is kept to the 2.0 s per sweep point above, and
# its knots times the run's kernel times to the hour.
_KNOT_COST_S = 40e-6
_SOLVE_KNOT_COST_S = 250e-6
_MAX_TABLE_KNOTS = round(_WORK_BUDGET_S / _MAX_SWEEP_VALUES / _SOLVE_KNOT_COST_S)  # 8000
_MAX_KNOT_TIMES = round(_WORK_BUDGET_S / _KNOT_COST_S)                           # 90000000
# Snapshot text, from a 4 GiB output budget per run: an |rho| grid entry
# takes about 22 bytes of text (one N = 4096 grid, 4097**2 entries, is about
# 370 MB), so a run writes at most len(values) * (N+1)**2 entries.
_MAX_SNAPSHOT_ENTRIES = 2**32 // 22                   # 195225786
SWEEP_AXES = ("N", "beta", "alpha", "omega_0")


# ---------------------------------------------------------------------------
# validation


_REQUIRED = object()  # the default of a field that must be present


def _fail(path: str, msg: str):
    raise ConfigError(msg, field=path)


def _field(d: dict, path: str, key: str, check=None, default=_REQUIRED, **rule):
    # The field ``key`` of the object ``d`` at ``path``, checked by
    # ``check(value, field path, **rule)`` (as given without a check).  A
    # missing field is its default; one without a default is an error.
    path = f"{path}.{key}" if path else key
    if key not in d:
        if default is _REQUIRED:
            _fail(path, "required field is missing")
        return default
    return d[key] if check is None else check(d[key], path, **rule)


def _object(raw, path: str, allowed) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")
    return raw


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


def _beta(value, path: str):
    # a JSON null is zero temperature
    return None if value is None else _number(value, path, positive=True)


def _directory(value, path: str):
    # a JSON null sets no directory, as a missing field does
    if value is not None and not _string(value, path):
        _fail(path, "must be nonempty when present")
    return value


def _table(table, path: str) -> list:
    if not isinstance(table, list) or not table:
        _fail(path, "expected a nonempty list of [omega, g] pairs")
    if len(table) > _MAX_TABLE_KNOTS:
        _fail(path, f"at most {_MAX_TABLE_KNOTS} knots, got {len(table)}")
    pairs = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != 2:
            _fail(f"{path}[{i}]", "expected an [omega, g] pair")
        w = _number(row[0], f"{path}[{i}][0]", nonnegative=True)
        if pairs and not w > pairs[-1][0]:
            _fail(f"{path}[{i}][0]", f"must exceed the previous omega {pairs[-1][0]!r}, got {w!r}")
        g = _number(row[1], f"{path}[{i}][1]", nonnegative=True)
        pairs.append([w, g])
    return pairs


def _validate_spectrum(raw, path: str) -> dict:
    _object(raw, path, {"kind", "alpha", "omega_c", "omega_0", "beta", "table"})
    kind = _field(raw, path, "kind", _string, choices={k.value for k in SpectrumKind})
    out = {"kind": kind,
           "omega_c": _field(raw, path, "omega_c", _number, 1.0, positive=True),
           "beta": _field(raw, path, "beta", _beta, None)}
    if kind == SpectrumKind.TABULATED.value:
        out["table"] = _field(raw, path, "table", _table)
        for key in ("alpha", "omega_0"):
            if key in raw:
                _fail(f"{path}.{key}", "not applicable to tabulated spectra")
    else:
        out["alpha"] = _field(raw, path, "alpha", _number, nonnegative=True)
        if kind == SpectrumKind.LORENTZIAN.value:
            out["omega_0"] = _field(raw, path, "omega_0", _number, positive=True)
        elif "omega_0" in raw:
            _fail(f"{path}.omega_0", "only applicable to lorentzian spectra")
        if "table" in raw:
            _fail(f"{path}.table", "only applicable to tabulated spectra")
    return out


def _validate_time_grid(raw, path: str) -> dict:
    _object(raw, path, {"kind", "start", "stop", "count"})
    kind = _field(raw, path, "kind", _string, choices={"log", "linear"})
    start = _field(raw, path, "start", _number, positive=True)
    stop = _field(raw, path, "stop", _number, positive=True)
    if not stop > start:
        _fail(f"{path}.stop", f"must exceed start={start!r}, got {stop!r}")
    count = _field(raw, path, "count", _integer, minimum=2, maximum=_MAX_TIME_GRID_COUNT)
    return {"kind": kind, "start": start, "stop": stop, "count": count}


def _times(values, path: str, n_particles: int) -> list:
    if not isinstance(values, list) or not values:
        _fail(path, "expected a nonempty list of times")
    if len(values) > _MAX_TIME_GRID_COUNT:
        _fail(path, f"at most {_MAX_TIME_GRID_COUNT} snapshots (one kernel integral each, "
              f"as a time_grid point), got {len(values)}")
    most = _MAX_SNAPSHOT_ENTRIES // (n_particles + 1) ** 2
    if len(values) > most:
        _fail(path, f"at most {most} snapshots at n_particles={n_particles} "
              f"(len(values) * (N+1)**2 <= {_MAX_SNAPSHOT_ENTRIES} grid entries), "
              f"got {len(values)}")
    return [_number(v, f"{path}[{i}]", nonnegative=True) for i, v in enumerate(values)]


def _validate_snapshot_times(raw, path: str, n_particles: int) -> dict:
    _object(raw, path, {"kind", "values"})
    kind = _field(raw, path, "kind", _string, choices={"tau-fractions", "absolute"})
    return {"kind": kind, "values": _field(raw, path, "values", _times, n_particles=n_particles)}


def validate_config(raw: dict) -> dict:
    """Validate a scenario document and return it with defaults filled in.

    Raises :class:`ConfigError` naming the offending field path.
    """
    if not isinstance(raw, dict):
        _fail("", f"config root must be an object, got {type(raw).__name__}")
    _object(raw, "", {"schema", "name", "units", "spectrum", "n_particles", "theta", "phi",
                      "time_grid", "snapshot_times", "basis", "conventions", "solver",
                      "outputs", "output_dir"})
    schema = _field(raw, "", "schema", _integer)
    if schema != 1:
        _fail("schema", f"unsupported schema version {schema}")
    name = _field(raw, "", "name", _string)
    if not name:
        _fail("name", "must be nonempty")
    units = _field(raw, "", "units", _string, "omega_c", choices={"omega_c", "hz"})
    spectrum = _field(raw, "", "spectrum", _validate_spectrum)
    n = _field(raw, "", "n_particles", _integer, minimum=1, maximum=_MAX_PARTICLES)
    theta = _field(raw, "", "theta", _number)
    phi = _field(raw, "", "phi", _number)

    outputs = _field(raw, "", "outputs", default=["report"])
    if not isinstance(outputs, list) or not outputs:
        _fail("outputs", "expected a nonempty list")
    for i, o in enumerate(outputs):
        if _string(o, f"outputs[{i}]", set(_OUTPUT_KINDS)) in outputs[:i]:
            _fail(f"outputs[{i}]", f"duplicate output kind {o!r}")
    outputs = [o for o in _OUTPUT_KINDS if o in outputs]

    time_grid = _field(raw, "", "time_grid", _validate_time_grid, None)
    if time_grid is None and "kernels" in outputs:
        _fail("time_grid", 'required when "kernels" is in outputs')
    snaps = _field(raw, "", "snapshot_times", _validate_snapshot_times, None, n_particles=n)
    if snaps is None and "snapshots" in outputs:
        _fail("snapshot_times", 'required when "snapshots" is in outputs')
    # the run's kernel times: time-grid points and snapshot times
    times = (time_grid["count"] if time_grid else 0) + (
        len(snaps["values"]) if snaps else 0)
    if len(spectrum.get("table", ())) * times > _MAX_KNOT_TIMES:
        _fail("spectrum.table", f"at most {_MAX_KNOT_TIMES // times} knots with {times} "
              f"kernel times (knots * (time_grid.count + len(snapshot_times.values)) "
              f"<= {_MAX_KNOT_TIMES}), got {len(spectrum['table'])}")

    basis = _field(raw, "", "basis", _string, "Lz", choices={b.value for b in Basis})
    conv = _field(raw, "", "conventions", _object, {}, allowed={"thermal", "mqs"})
    thermal = _field(conv, "conventions", "thermal", _string, "coth-full",
                     choices={c.value for c in ThermalConvention})
    mqs = _field(conv, "conventions", "mqs", _string, "twist",
                 choices={c.value for c in MqsConvention})
    solver = _field(raw, "", "solver", _object, {}, allowed={"horizon_factor"})
    horizon = _field(solver, "solver", "horizon_factor", _number, _DEFAULT_HORIZON_FACTOR,
                     positive=True)
    if not horizon > 1.0:
        _fail("solver.horizon_factor", f"must exceed 1, got {horizon!r}")
    out_dir = _field(raw, "", "output_dir", _directory, None)

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
        "time_grid": time_grid,
        "snapshot_times": snaps,
        "output_dir": out_dir,
    }
    # the optional sections that are absent are left out
    return {key: value for key, value in normalized.items() if value is not None}


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
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
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
        if hasattr(text, "close"):  # a generator's clean-up runs now
            text.close()
        raise


def _make_dir(path: str) -> str:
    # the directory of a run's, a sweep's or an emitted preset's files, made
    # before any work; one that cannot be made is a config error
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path!r}: {exc.strerror}",
                          field="output_dir") from exc
    return path


def _time_grid_points(grid: dict) -> np.ndarray:
    if grid["kind"] == "log":
        return np.geomspace(grid["start"], grid["stop"], grid["count"])
    return np.linspace(grid["start"], grid["stop"], grid["count"])


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
    name, outputs = normalized["name"], normalized["outputs"]
    out_dir = _make_dir(output_dir or normalized.get("output_dir") or f"{name}-out")
    params = build_scenario(normalized)
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
        from .snapshot_text import snapshot_lines

        if snap["kind"] == "tau-fractions":
            times = [v * bath.tau for v in snap["values"]]
        else:
            times = list(snap["values"])
        basis = Basis(normalized["basis"])
        index = []
        for i, t in enumerate(times):
            try:
                mag = _snapshot(params, t, basis)
            except SpinCatError as exc:
                raise _annotate(exc, "snapshot evolution")
            fname = f"snapshot_{i:03d}.csv"
            lines = snapshot_lines(mag, params.sector, basis, t)
            del mag  # held by the text alone, and freed with it
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
    at most one process per point and per usable core; results are
    identical to a serial run.  At most ``_MAX_SWEEP_VALUES`` values are
    accepted.
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
    out_dir = _make_dir(output_dir or normalized.get("output_dir") or f"{normalized['name']}-out")
    tasks = [(normalized, axis, v) for v in values]
    # at most one worker per point and per core this process may run on
    workers = min(jobs, len(tasks), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

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
