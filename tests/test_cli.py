"""Config validation, preset handling, artifact runs, sweeps, exit codes."""

import concurrent.futures
import copy
import importlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import spincat
from spincat import dicke, evolve, float_text, kernels, scenario, snapshot_text
from spincat.cli import main
from spincat.dicke import Basis, DickeDensityMatrix, SectorLabel, coherent_state, to_x_basis
from spincat.errors import ConfigError, NumericError
from spincat.kernels import markov_limits, solve_bath, tabulate_kernels
from spincat.scenario import (
    SWEEP_AXES,
    build_scenario,
    preset_config,
    preset_names,
    run_scenario,
    sweep,
    validate_config,
)


def small_config(**overrides):
    cfg = {
        "schema": 1,
        "name": "small",
        "spectrum": {"kind": "ohmic", "alpha": 2.5e-5, "omega_c": 1.0,
                     "beta": None},
        "n_particles": 4,
        "theta": math.pi / 2.0,
        "phi": 0.0,
    }
    cfg.update(overrides)
    return cfg


def config_error(raw) -> ConfigError:
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    return exc.value


# ---------------------------------------------------------------------------
# validation


def test_presets_all_validate():
    assert preset_names() == ["cavity", "fig1", "fig2", "phonon"]
    for name in preset_names():
        normalized = validate_config(preset_config(name))
        assert normalized["name"] == name
        build_scenario(normalized)  # physics objects construct cleanly


def test_preset_config_returns_fresh_copies():
    a = preset_config("fig1")
    a["spectrum"]["alpha"] = 99.0
    assert preset_config("fig1")["spectrum"]["alpha"] == 2.5e-5


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("nope")


def test_minimal_config_defaults():
    normalized = validate_config(small_config())
    assert normalized["units"] == "omega_c"
    assert normalized["basis"] == "Lz"
    assert normalized["conventions"] == {"thermal": "coth-full", "mqs": "twist"}
    assert normalized["solver"] == {"horizon_factor": 1e6}
    assert normalized["outputs"] == ["report"]
    assert "time_grid" not in normalized
    assert normalized["spectrum"]["beta"] is None


def test_missing_required_fields_name_their_path():
    cfg = small_config()
    del cfg["spectrum"]
    assert config_error(cfg).field == "spectrum"

    cfg = small_config()
    del cfg["spectrum"]["alpha"]
    assert config_error(cfg).field == "spectrum.alpha"

    cfg = small_config()
    del cfg["n_particles"]
    assert config_error(cfg).field == "n_particles"


def test_unknown_fields_rejected():
    assert config_error(small_config(bogus=1)).field == "bogus"
    cfg = small_config()
    cfg["spectrum"]["extra"] = 2
    assert config_error(cfg).field == "spectrum.extra"


def test_bad_enums_rejected():
    cfg = small_config()
    cfg["spectrum"]["kind"] = "flat"
    assert config_error(cfg).field == "spectrum.kind"
    assert config_error(small_config(basis="Ly")).field == "basis"
    assert config_error(
        small_config(conventions={"thermal": "bogus"})).field == "conventions.thermal"
    assert config_error(
        small_config(conventions={"mqs": "bogus"})).field == "conventions.mqs"
    # a field of the wrong type names its path
    assert config_error(small_config(units=3)).field == "units"
    assert config_error(small_config(name="")).field == "name"
    for key in ("time_grid", "snapshot_times", "conventions", "solver"):
        assert config_error(small_config(**{key: [1.0]})).field == key
    err = config_error([small_config()])
    assert err.field == "" and str(err) == "config root must be an object, got list"


def test_schema_version_checked():
    assert config_error(small_config(schema=2)).field == "schema"
    cfg = small_config()
    del cfg["schema"]
    assert config_error(cfg).field == "schema"


def test_grid_requirements_follow_outputs():
    err = config_error(small_config(outputs=["kernels", "report"]))
    assert err.field == "time_grid"
    err = config_error(small_config(outputs=["snapshots"]))
    assert err.field == "snapshot_times"
    # present grids validate even when their output is not requested
    normalized = validate_config(small_config(
        time_grid={"kind": "log", "start": 0.1, "stop": 10.0, "count": 5}))
    assert normalized["time_grid"]["count"] == 5


def test_output_list_checked_and_canonicalized():
    assert config_error(small_config(outputs=[])).field == "outputs"
    assert config_error(
        small_config(outputs=["report", "report"])).field == "outputs[1]"
    assert config_error(small_config(outputs=["plots"])).field == "outputs[0]"
    normalized = validate_config(small_config(
        outputs=["report", "kernels"],
        time_grid={"kind": "log", "start": 0.1, "stop": 10.0, "count": 5}))
    assert normalized["outputs"] == ["kernels", "report"]


def test_spectrum_field_applicability():
    cfg = small_config()
    cfg["spectrum"]["omega_0"] = 5.0  # ohmic has no center frequency
    assert config_error(cfg).field == "spectrum.omega_0"

    cfg = small_config()
    cfg["spectrum"] = {"kind": "lorentzian", "alpha": 0.1, "omega_c": 1.0}
    assert config_error(cfg).field == "spectrum.omega_0"

    cfg = small_config()
    cfg["spectrum"] = {"kind": "tabulated", "alpha": 0.1,
                       "table": [[0.0, 0.0], [1.0, 1.0]]}
    assert config_error(cfg).field == "spectrum.alpha"

    cfg = small_config()
    cfg["spectrum"] = {"kind": "tabulated", "table": []}
    assert config_error(cfg).field == "spectrum.table"

    assert config_error(small_config(spectrum=["ohmic"])).field == "spectrum"
    cfg = small_config()
    cfg["spectrum"] = {"kind": "tabulated", "table": [[0.0, 0.0, 1.0], [1.0, 1.0]]}
    assert config_error(cfg).field == "spectrum.table[0]"
    cfg = small_config()
    cfg["spectrum"]["table"] = [[0.0, 0.0], [1.0, 1.0]]  # ohmic has no table
    assert config_error(cfg).field == "spectrum.table"


def test_number_validation():
    cfg = small_config()
    cfg["spectrum"]["beta"] = -1.0
    assert config_error(cfg).field == "spectrum.beta"
    cfg = small_config()
    cfg["spectrum"]["alpha"] = "big"
    assert config_error(cfg).field == "spectrum.alpha"
    cfg["spectrum"]["alpha"] = -1e-5
    err = config_error(cfg)
    assert err.field == "spectrum.alpha" and str(err).endswith("must be >= 0, got -1e-05")
    err = config_error(small_config(snapshot_times={"kind": "absolute", "values": []}))
    assert err.field == "snapshot_times.values"
    assert config_error(small_config(n_particles=0)).field == "n_particles"
    assert config_error(small_config(n_particles=True)).field == "n_particles"
    # N is bounded by dense-matrix memory; validating allocates nothing
    assert validate_config(small_config(n_particles=scenario._MAX_PARTICLES))
    err = config_error(small_config(n_particles=scenario._MAX_PARTICLES + 1))
    assert err.field == "n_particles"
    assert str(err) == f"n_particles: must be <= {scenario._MAX_PARTICLES}, " \
                       f"got {scenario._MAX_PARTICLES + 1}"
    assert config_error(
        small_config(solver={"horizon_factor": 1.0})).field == "solver.horizon_factor"
    cfg = small_config(time_grid={"kind": "log", "start": 1.0, "stop": 0.5,
                                  "count": 5})
    assert config_error(cfg).field == "time_grid.stop"
    # 800000 points of one kernel integral at 4.5 ms each take one hour
    grid = {"kind": "log", "start": 0.1, "stop": 1e3, "count": 800000}
    assert validate_config(small_config(time_grid=grid))["time_grid"]["count"] == 800000
    err = config_error(small_config(time_grid=dict(grid, count=800001)))
    assert str(err) == "time_grid.count: must be <= 800000, got 800001"
    # a solve at T > 0, at up to 250 us per knot, keeps to the 2.0 s of a
    # sweep point at 8000 knots
    assert scenario._MAX_TABLE_KNOTS == 8000
    table = [[0.1 * k, 1e-5] for k in range(scenario._MAX_TABLE_KNOTS)]
    assert validate_config(small_config(spectrum={"kind": "tabulated", "table": table}))
    err = config_error(small_config(spectrum={"kind": "tabulated",
                                              "table": table + [[1e9, 0.0]]}))
    assert err.field == "spectrum.table"
    assert str(err) == "spectrum.table: at most 8000 knots, got 8001"


def test_snapshot_grid_entries_are_bounded():
    # validating builds no matrix, so the bound is checked at full size: 4 GiB
    # of text at 22 bytes per entry is 11 grids at N = 4096
    for n, most in ((4096, 11), (50, 75057)):
        times = {"kind": "absolute", "values": [1.0] * most}
        assert validate_config(small_config(n_particles=n, snapshot_times=times))
        times["values"].append(1.0)
        err = config_error(small_config(n_particles=n, snapshot_times=times))
        assert err.field == "snapshot_times.values"
        assert f"at most {most} snapshots at n_particles={n}" in str(err)
    # each snapshot time costs one kernel integral, as a grid point does:
    # at small N the time-grid maximum binds before the text budget
    times = {"kind": "absolute", "values": [1.0] * scenario._MAX_TIME_GRID_COUNT}
    assert validate_config(small_config(n_particles=1, snapshot_times=times))
    times["values"].append(1.0)
    err = config_error(small_config(n_particles=1, snapshot_times=times))
    assert str(err) == ("snapshot_times.values: at most 800000 snapshots (one kernel "
                        "integral each, as a time_grid point), got 800001")


def test_table_knots_are_bounded_with_the_kernel_times():
    # every knot costs every kernel integral: knots * kernel times (grid
    # points and snapshot times, one integral of at most 40 us per knot each)
    # is kept to the hour, 90000000
    assert scenario._MAX_KNOT_TIMES == 90_000_000
    table = [[0.1 * k, 1e-5] for k in range(8000)]
    spectrum = {"kind": "tabulated", "table": table}
    grid = {"kind": "log", "start": 0.1, "stop": 1e3, "count": 11249}
    snaps = {"kind": "absolute", "values": [1.0]}
    assert validate_config(small_config(spectrum=spectrum, time_grid=grid,
                                        snapshot_times=snaps))
    for over in (dict(time_grid=dict(grid, count=11250), snapshot_times=snaps),
                 dict(time_grid=grid, snapshot_times=dict(snaps, values=[1.0, 2.0]))):
        err = config_error(small_config(spectrum=spectrum, **over))
        assert err.field == "spectrum.table"
        assert str(err) == ("spectrum.table: at most 7999 knots with 11251 kernel times "
                            "(knots * (time_grid.count + len(snapshot_times.values)) "
                            "<= 90000000), got 8000")
    # only the grid: 800000 points leave room for 112 knots
    grid = dict(grid, count=800000)
    spectrum = {"kind": "tabulated", "table": table[:112]}
    assert validate_config(small_config(spectrum=spectrum, time_grid=grid))
    spectrum["table"] = table[:113]
    assert config_error(small_config(spectrum=spectrum, time_grid=grid)).field == \
        "spectrum.table"


def _omit(*keys, **overrides):
    # small_config(**overrides) without the top-level keys
    cfg = small_config(**overrides)
    for key in keys:
        del cfg[key]
    return cfg


def _spectrum(**fields):
    return small_config(spectrum=fields)


_OHMIC = {"kind": "ohmic", "alpha": 2.5e-5}
_TABLE = [[0.0, 0.0], [1.0, 1e-5]]
_GRID = {"kind": "log", "start": 0.1, "stop": 10.0, "count": 5}
_SNAPS = {"kind": "absolute", "values": [1.0]}
_KNOTS = [[0.1 * k, 1e-5] for k in range(8001)]

# Every validation message, each with the literal field and text a config
# reports first; the cases with two faults pin which fault is reported.
_VALIDATION_CASES = [
    # root
    ("root-list", [small_config()], "", "config root must be an object, got list"),
    ("root-unknown", small_config(colour=1), "colour", "unknown field"),
    ("schema-missing", _omit("schema"), "schema", "required field is missing"),
    ("schema-str", small_config(schema="1"), "schema", "expected an integer, got str"),
    ("schema-bool", small_config(schema=True), "schema", "expected an integer, got bool"),
    ("schema-2", small_config(schema=2), "schema", "unsupported schema version 2"),
    ("name-missing", _omit("name"), "name", "required field is missing"),
    ("name-int", small_config(name=3), "name", "expected a string, got int"),
    ("name-empty", small_config(name=""), "name", "must be nonempty"),
    ("units-null", small_config(units=None), "units", "expected a string, got NoneType"),
    ("units-si", small_config(units="si"), "units",
     "must be one of ['hz', 'omega_c'], got 'si'"),
    # spectrum
    ("spectrum-missing", _omit("spectrum"), "spectrum", "required field is missing"),
    ("spectrum-list", small_config(spectrum=["ohmic"]), "spectrum",
     "expected an object, got list"),
    ("spectrum-unknown", _spectrum(**_OHMIC, gamma=1.0), "spectrum.gamma", "unknown field"),
    ("kind-missing", _spectrum(alpha=1.0), "spectrum.kind", "required field is missing"),
    ("kind-gaussian", _spectrum(kind="gaussian"), "spectrum.kind",
     "must be one of ['lorentzian', 'ohmic', 'tabulated'], got 'gaussian'"),
    ("omega_c-str", _spectrum(**_OHMIC, omega_c="1"), "spectrum.omega_c",
     "expected a number, got str"),
    ("omega_c-0", _spectrum(**_OHMIC, omega_c=0), "spectrum.omega_c", "must be > 0, got 0.0"),
    ("beta-negative", _spectrum(**_OHMIC, beta=-1), "spectrum.beta", "must be > 0, got -1.0"),
    ("beta-inf", _spectrum(**_OHMIC, beta=math.inf), "spectrum.beta", "must be finite"),
    ("beta-list", _spectrum(**_OHMIC, beta=[1.0]), "spectrum.beta",
     "expected a number, got list"),
    ("alpha-missing", _spectrum(kind="ohmic"), "spectrum.alpha", "required field is missing"),
    ("alpha-negative", _spectrum(kind="ohmic", alpha=-1e-5), "spectrum.alpha",
     "must be >= 0, got -1e-05"),
    ("omega_0-missing", _spectrum(kind="lorentzian", alpha=0.1), "spectrum.omega_0",
     "required field is missing"),
    ("omega_0-0", _spectrum(kind="lorentzian", alpha=0.1, omega_0=0.0), "spectrum.omega_0",
     "must be > 0, got 0.0"),
    ("ohmic-omega_0", _spectrum(**_OHMIC, omega_0=5.0), "spectrum.omega_0",
     "only applicable to lorentzian spectra"),
    ("ohmic-table", _spectrum(**_OHMIC, table=_TABLE), "spectrum.table",
     "only applicable to tabulated spectra"),
    ("table-missing", _spectrum(kind="tabulated"), "spectrum.table",
     "required field is missing"),
    ("table-empty", _spectrum(kind="tabulated", table=[]), "spectrum.table",
     "expected a nonempty list of [omega, g] pairs"),
    ("table-object", _spectrum(kind="tabulated", table={"0": 1}), "spectrum.table",
     "expected a nonempty list of [omega, g] pairs"),
    ("table-knots", _spectrum(kind="tabulated", table=_KNOTS), "spectrum.table",
     "at most 8000 knots, got 8001"),
    ("table-row", _spectrum(kind="tabulated", table=[[0.0, 1.0], [1.0]]),
     "spectrum.table[1]", "expected an [omega, g] pair"),
    ("table-omega", _spectrum(kind="tabulated", table=[[-1.0, 0.0]]), "spectrum.table[0][0]",
     "must be >= 0, got -1.0"),
    ("table-rise", _spectrum(kind="tabulated", table=[[1.0, 0.0], [1, 0.0]]),
     "spectrum.table[1][0]", "must exceed the previous omega 1.0, got 1.0"),
    ("table-g", _spectrum(kind="tabulated", table=[[0.0, -1.0]]), "spectrum.table[0][1]",
     "must be >= 0, got -1.0"),
    ("tabulated-alpha", _spectrum(kind="tabulated", table=_TABLE, alpha=0.1),
     "spectrum.alpha", "not applicable to tabulated spectra"),
    ("tabulated-omega_0", _spectrum(kind="tabulated", table=_TABLE, omega_0=1.0),
     "spectrum.omega_0", "not applicable to tabulated spectra"),
    # ensemble and preparation
    ("n-missing", _omit("n_particles"), "n_particles", "required field is missing"),
    ("n-float", small_config(n_particles=4.0), "n_particles", "expected an integer, got float"),
    ("n-0", small_config(n_particles=0), "n_particles", "must be >= 1, got 0"),
    ("n-4097", small_config(n_particles=4097), "n_particles", "must be <= 4096, got 4097"),
    ("theta-missing", _omit("theta"), "theta", "required field is missing"),
    ("theta-str", small_config(theta="x"), "theta", "expected a number, got str"),
    ("phi-missing", _omit("phi"), "phi", "required field is missing"),
    ("phi-huge", small_config(phi=10**400), "phi", "must be finite"),
    # outputs
    ("outputs-str", small_config(outputs="report"), "outputs", "expected a nonempty list"),
    ("outputs-empty", small_config(outputs=[]), "outputs", "expected a nonempty list"),
    ("outputs-int", small_config(outputs=[1]), "outputs[0]", "expected a string, got int"),
    ("outputs-plots", small_config(outputs=["plots"]), "outputs[0]",
     "must be one of ['kernels', 'report', 'snapshots'], got 'plots'"),
    ("outputs-duplicate", small_config(outputs=["report", "report"]), "outputs[1]",
     "duplicate output kind 'report'"),
    # time grid
    ("time_grid-required", small_config(outputs=["kernels"]), "time_grid",
     'required when "kernels" is in outputs'),
    ("time_grid-int", small_config(time_grid=5), "time_grid", "expected an object, got int"),
    ("time_grid-unknown", small_config(time_grid=dict(_GRID, step=1)), "time_grid.step",
     "unknown field"),
    ("grid-kind-missing", small_config(time_grid={"start": 0.1}), "time_grid.kind",
     "required field is missing"),
    ("grid-kind-exp", small_config(time_grid=dict(_GRID, kind="exp")), "time_grid.kind",
     "must be one of ['linear', 'log'], got 'exp'"),
    ("grid-start-missing", small_config(time_grid={"kind": "log"}), "time_grid.start",
     "required field is missing"),
    ("grid-start-0", small_config(time_grid=dict(_GRID, start=0)), "time_grid.start",
     "must be > 0, got 0.0"),
    ("grid-stop-missing", small_config(time_grid={"kind": "log", "start": 0.1}),
     "time_grid.stop", "required field is missing"),
    ("grid-stop-start", small_config(time_grid=dict(_GRID, stop=0.1)), "time_grid.stop",
     "must exceed start=0.1, got 0.1"),
    ("grid-count-missing", small_config(time_grid={"kind": "log", "start": 0.1, "stop": 1}),
     "time_grid.count", "required field is missing"),
    ("grid-count-float", small_config(time_grid=dict(_GRID, count=2.5)), "time_grid.count",
     "expected an integer, got float"),
    ("grid-count-1", small_config(time_grid=dict(_GRID, count=1)), "time_grid.count",
     "must be >= 2, got 1"),
    ("grid-count-max", small_config(time_grid=dict(_GRID, count=800001)), "time_grid.count",
     "must be <= 800000, got 800001"),
    # snapshot times
    ("snapshot_times-required", small_config(outputs=["snapshots"]), "snapshot_times",
     'required when "snapshots" is in outputs'),
    ("snapshot_times-str", small_config(snapshot_times="x"), "snapshot_times",
     "expected an object, got str"),
    ("snapshot_times-unknown", small_config(snapshot_times=dict(_SNAPS, basis="Lx")),
     "snapshot_times.basis", "unknown field"),
    ("snaps-kind-missing", small_config(snapshot_times={"values": [1.0]}),
     "snapshot_times.kind", "required field is missing"),
    ("snaps-kind-relative", small_config(snapshot_times=dict(_SNAPS, kind="relative")),
     "snapshot_times.kind", "must be one of ['absolute', 'tau-fractions'], got 'relative'"),
    ("snaps-values-missing", small_config(snapshot_times={"kind": "absolute"}),
     "snapshot_times.values", "required field is missing"),
    ("snaps-values-empty", small_config(snapshot_times=dict(_SNAPS, values=[])),
     "snapshot_times.values", "expected a nonempty list of times"),
    ("snaps-values-number", small_config(snapshot_times=dict(_SNAPS, values=1.0)),
     "snapshot_times.values", "expected a nonempty list of times"),
    ("snaps-values-max", small_config(snapshot_times=dict(_SNAPS, values=[1.0] * 800001)),
     "snapshot_times.values", "at most 800000 snapshots (one kernel integral each, as a "
     "time_grid point), got 800001"),
    ("snaps-values-entries",
     small_config(n_particles=4096, snapshot_times=dict(_SNAPS, values=[1.0] * 12)),
     "snapshot_times.values", "at most 11 snapshots at n_particles=4096 (len(values) * "
     "(N+1)**2 <= 195225786 grid entries), got 12"),
    ("snaps-value-negative", small_config(snapshot_times=dict(_SNAPS, values=[1.0, -1.0])),
     "snapshot_times.values[1]", "must be >= 0, got -1.0"),
    ("knot-times",
     _spectrum(kind="tabulated", table=_KNOTS[:113])
     | {"time_grid": dict(_GRID, count=800000)},
     "spectrum.table", "at most 112 knots with 800000 kernel times (knots * "
     "(time_grid.count + len(snapshot_times.values)) <= 90000000), got 113"),
    # basis, conventions, solver, output directory
    ("basis-Ly", small_config(basis="Ly"), "basis", "must be one of ['Lx', 'Lz'], got 'Ly'"),
    ("conventions-list", small_config(conventions=[]), "conventions",
     "expected an object, got list"),
    ("conventions-unknown", small_config(conventions={"spin": "half"}), "conventions.spin",
     "unknown field"),
    ("thermal-bogus", small_config(conventions={"thermal": "bogus"}), "conventions.thermal",
     "must be one of ['coth-full', 'coth-half'], got 'bogus'"),
    ("mqs-bogus", small_config(conventions={"mqs": "bogus"}), "conventions.mqs",
     "must be one of ['antipodal', 'twist'], got 'bogus'"),
    ("solver-int", small_config(solver=1), "solver", "expected an object, got int"),
    ("solver-unknown", small_config(solver={"tol": 1e-9}), "solver.tol", "unknown field"),
    ("horizon-0", small_config(solver={"horizon_factor": 0}), "solver.horizon_factor",
     "must be > 0, got 0.0"),
    ("horizon-1", small_config(solver={"horizon_factor": 1.0}), "solver.horizon_factor",
     "must exceed 1, got 1.0"),
    ("output_dir-int", small_config(output_dir=3), "output_dir", "expected a string, got int"),
    ("output_dir-empty", small_config(output_dir=""), "output_dir",
     "must be nonempty when present"),
    # two faults: the one checked first is reported
    ("unknown-and-missing", _omit("name", colour=1), "colour", "unknown field"),
    ("schema-and-name", small_config(schema=2, name=""), "schema",
     "unsupported schema version 2"),
    ("spectrum-unknown-and-kind", _spectrum(alpha=1.0, gamma=1.0), "spectrum.gamma",
     "unknown field"),
    ("beta-and-alpha", _spectrum(kind="ohmic", beta=-1.0), "spectrum.beta",
     "must be > 0, got -1.0"),
    ("table-and-alpha", _spectrum(kind="tabulated", table=[[0.0, 1.0], [1.0]], alpha=0.1),
     "spectrum.table[1]", "expected an [omega, g] pair"),
    ("kind-and-n", dict(_spectrum(kind="flat"), n_particles=0), "spectrum.kind",
     "must be one of ['lorentzian', 'ohmic', 'tabulated'], got 'flat'"),
    ("theta-and-snapshots", small_config(theta="x", outputs=["snapshots"]), "theta",
     "expected a number, got str"),
    ("outputs-and-time_grid", small_config(outputs=["plots"], time_grid=5), "outputs[0]",
     "must be one of ['kernels', 'report', 'snapshots'], got 'plots'"),
    ("time_grid-and-snapshot_times", small_config(time_grid=5, snapshot_times="x"),
     "time_grid", "expected an object, got int"),
    ("knot-times-and-basis",
     _spectrum(kind="tabulated", table=_KNOTS[:113])
     | {"time_grid": dict(_GRID, count=800000), "basis": "Ly"},
     "spectrum.table", "at most 112 knots with 800000 kernel times (knots * "
     "(time_grid.count + len(snapshot_times.values)) <= 90000000), got 113"),
    ("basis-and-conventions", small_config(basis="Ly", conventions=[]), "basis",
     "must be one of ['Lx', 'Lz'], got 'Ly'"),
    ("conventions-and-solver", small_config(conventions={"mqs": "bogus"}, solver=1),
     "conventions.mqs", "must be one of ['antipodal', 'twist'], got 'bogus'"),
    ("solver-and-output_dir", small_config(solver={"horizon_factor": 1.0}, output_dir=""),
     "solver.horizon_factor", "must exceed 1, got 1.0"),
]


@pytest.mark.parametrize("raw, field, message", [case[1:] for case in _VALIDATION_CASES],
                         ids=[case[0] for case in _VALIDATION_CASES])
def test_validation_reports_the_first_fault(raw, field, message):
    err = config_error(copy.deepcopy(raw))
    assert (err.field, str(err)) == (field, f"{field}: {message}" if field else message)


def _key_order(value):
    # the keys of every object in value, nested, in insertion order
    if isinstance(value, dict):
        return [(key, _key_order(v)) for key, v in value.items()]
    return None


def test_normalized_configs_keep_their_key_order():
    # every optional section present, given in another order; JSON nulls of
    # beta and output_dir read as zero temperature and no directory
    raw = {"output_dir": "out", "outputs": ["snapshots", "report", "kernels"],
           "solver": {"horizon_factor": 1e7}, "conventions": {"mqs": "antipodal",
                                                             "thermal": "coth-half"},
           "basis": "Lx", "snapshot_times": {"values": [0.5, 1], "kind": "tau-fractions"},
           "time_grid": {"count": 3, "stop": 10, "start": 1, "kind": "linear"},
           "phi": 0, "theta": 1, "n_particles": 3, "spectrum": {
               "beta": 2, "omega_0": 5, "omega_c": 2, "alpha": 0.5, "kind": "lorentzian"},
           "units": "hz", "name": "all", "schema": 1}
    normalized = validate_config(raw)
    assert _key_order(normalized) == [
        ("schema", None), ("name", None), ("units", None),
        ("spectrum", [("kind", None), ("omega_c", None), ("beta", None), ("alpha", None),
                      ("omega_0", None)]),
        ("n_particles", None), ("theta", None), ("phi", None), ("basis", None),
        ("conventions", [("thermal", None), ("mqs", None)]),
        ("solver", [("horizon_factor", None)]), ("outputs", None),
        ("time_grid", [("kind", None), ("start", None), ("stop", None), ("count", None)]),
        ("snapshot_times", [("kind", None), ("values", None)]), ("output_dir", None)]
    assert json.dumps(normalized) == (
        '{"schema": 1, "name": "all", "units": "hz", "spectrum": {"kind": "lorentzian", '
        '"omega_c": 2.0, "beta": 2.0, "alpha": 0.5, "omega_0": 5.0}, "n_particles": 3, '
        '"theta": 1.0, "phi": 0.0, "basis": "Lx", "conventions": {"thermal": "coth-half", '
        '"mqs": "antipodal"}, "solver": {"horizon_factor": 10000000.0}, "outputs": ["kernels", '
        '"snapshots", "report"], "time_grid": {"kind": "linear", "start": 1.0, "stop": 10.0, '
        '"count": 3}, "snapshot_times": {"kind": "tau-fractions", "values": [0.5, 1.0]}, '
        '"output_dir": "out"}')
    raw["spectrum"] = {"table": [[0, 1], [2, 0]], "beta": None, "kind": "tabulated"}
    del raw["output_dir"], raw["time_grid"], raw["snapshot_times"]
    raw.update(outputs=["report"], output_dir=None)
    assert json.dumps(validate_config(raw)) == (
        '{"schema": 1, "name": "all", "units": "hz", "spectrum": {"kind": "tabulated", '
        '"omega_c": 1.0, "beta": null, "table": [[0.0, 1.0], [2.0, 0.0]]}, "n_particles": 3, '
        '"theta": 1.0, "phi": 0.0, "basis": "Lx", "conventions": {"thermal": "coth-half", '
        '"mqs": "antipodal"}, "solver": {"horizon_factor": 10000000.0}, "outputs": ["report"]}')
    # the presets are normalized as given, in the same order
    spectrum = [("kind", None), ("omega_c", None), ("beta", None), ("alpha", None)]
    lorentzian = spectrum + [("omega_0", None)]
    grids = [("time_grid", [("kind", None), ("start", None), ("stop", None), ("count", None)]),
             ("snapshot_times", [("kind", None), ("values", None)])]
    for name, spectrum_keys, grid_keys in (("cavity", lorentzian, []), ("fig1", spectrum, grids),
                                           ("fig2", lorentzian, grids),
                                           ("phonon", spectrum, [])):
        normalized = validate_config(preset_config(name))
        assert normalized == preset_config(name)
        assert _key_order(normalized) == [
            ("schema", None), ("name", None), ("units", None), ("spectrum", spectrum_keys),
            ("n_particles", None), ("theta", None), ("phi", None), ("basis", None),
            ("conventions", [("thermal", None), ("mqs", None)]),
            ("solver", [("horizon_factor", None)]), ("outputs", None)] + grid_keys


# ---------------------------------------------------------------------------
# running scenarios


def test_run_report_only(tmp_path):
    out = str(tmp_path / "out")
    summary = run_scenario(validate_config(small_config()), output_dir=out)
    assert summary["files"] == ["report.json"]
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["report"] == summary["report"]
    assert payload["report"]["convention_used"] == "twist"
    assert payload["report"]["feasible"] is True
    assert payload["spectrum"]["kind"] == "ohmic"


def test_run_is_deterministic(tmp_path):
    cfg = validate_config(small_config(
        outputs=["kernels", "snapshots", "report"],
        time_grid={"kind": "log", "start": 0.1, "stop": 1e5, "count": 11},
        snapshot_times={"kind": "tau-fractions", "values": [0.5, 1.0]},
        basis="Lx"))
    run_scenario(copy.deepcopy(cfg), output_dir=str(tmp_path / "a"))
    run_scenario(copy.deepcopy(cfg), output_dir=str(tmp_path / "b"))
    names = ["kernels.csv", "snapshot_000.csv", "snapshot_001.csv",
             "snapshots_index.json", "report.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_snapshot_grid_files(tmp_path):
    cfg = validate_config(small_config(
        outputs=["snapshots", "report"],
        snapshot_times={"kind": "tau-fractions", "values": [1.0]},
        basis="Lx"))
    run_scenario(cfg, output_dir=str(tmp_path))
    grid = np.loadtxt(tmp_path / "snapshot_000.csv", delimiter=",")
    assert grid.shape == (5, 5)  # N = 4 -> 2l+1 = 5
    assert np.all(grid >= 0.0)
    assert np.allclose(grid, grid.T, atol=1e-15)
    index = json.loads((tmp_path / "snapshots_index.json").read_text())
    entry = index["snapshots"][0]
    assert entry["file"] == "snapshot_000.csv"
    assert entry["basis"] == "Lx"
    assert entry["l"] == 2.0
    header = (tmp_path / "snapshot_000.csv").read_text().splitlines()[:4]
    assert header[0] == "# basis = Lx"
    assert header[1] == "# l = 2.0"
    assert header[2].startswith("# time = ")
    assert float(header[2].split("=")[1]) == entry["time"]


def test_absolute_snapshot_times_skip_formation_solve(tmp_path):
    # no formation time exists at this coupling, but absolute-time
    # snapshots must still be computable
    cfg = small_config(outputs=["snapshots"],
                       snapshot_times={"kind": "absolute", "values": [1.0, 2.0]})
    cfg["spectrum"]["alpha"] = 1e-30
    summary = run_scenario(validate_config(cfg), output_dir=str(tmp_path))
    assert summary["files"] == ["snapshot_000.csv", "snapshot_001.csv",
                                "snapshots_index.json"]
    assert summary["report"] is None


def clear_bath_memos():
    solve_bath.cache_clear()
    markov_limits.cache_clear()
    kernels._kernels_at.cache_clear()


def formation_solves(fn, *args, **kwargs) -> int:
    """Formation solves that ``fn`` performs on a cleared bath cache."""
    solve_bath.cache_clear()
    fn(*args, **kwargs)
    return solve_bath.cache_info().misses


def test_run_solves_the_bath_once(tmp_path):
    report = validate_config(small_config())
    assert formation_solves(run_scenario, report, output_dir=str(tmp_path / "a")) == 1
    snaps = validate_config(small_config(
        outputs=["snapshots", "report"],
        snapshot_times={"kind": "tau-fractions", "values": [0.5, 1.0]}))
    assert formation_solves(run_scenario, snaps, output_dir=str(tmp_path / "b")) == 1


def test_run_computes_each_bath_quantity_once(tmp_path, monkeypatch):
    # kernels, report and a tau-fraction snapshot all read t_corr and the
    # Markov sample: one width scan and one integral at t_eval per run
    widths, integrated = [], []
    correlation_time, integral = kernels.correlation_time, kernels._kernel_integral
    monkeypatch.setattr(kernels, "correlation_time",
                        lambda sd: widths.append(sd) or correlation_time(sd))
    monkeypatch.setattr(kernels, "_kernel_integral", lambda sd, times: (
        integrated.extend(times.tolist()) or integral(sd, times)))
    cfg = validate_config(small_config(
        outputs=["kernels", "snapshots", "report"],
        time_grid={"kind": "log", "start": 0.1, "stop": 1e5, "count": 7},
        snapshot_times={"kind": "tau-fractions", "values": [1.0]}))
    clear_bath_memos()
    run_scenario(cfg, output_dir=str(tmp_path))
    assert len(widths) == 1
    assert integrated.count(markov_limits(build_scenario(cfg).spectrum).t_eval) == 1


def test_run_builds_the_state_at_tau_once(tmp_path, monkeypatch):
    # the report scores the formed state without making an entry of it; only
    # the snapshot at tau does, from one _State whose parts it folds in turn
    states = []
    products = evolve._State.products
    monkeypatch.setattr(evolve._State, "products",
                        lambda self, *args, **kw: states.append(self) or products(self, *args, **kw))
    run_scenario(validate_config(small_config(outputs=["report"])),
                 output_dir=str(tmp_path / "report"))
    assert states == []
    cfg = validate_config(small_config(
        outputs=["snapshots", "report"],
        snapshot_times={"kind": "tau-fractions", "values": [1.0]}, basis="Lx"))
    run_scenario(cfg, output_dir=str(tmp_path / "both"))
    p = build_scenario(cfg)
    bath = solve_bath(p.spectrum, p.solve_horizon_factor)
    assert states and all(state is states[0] for state in states)
    at_tau = evolve._State(p, bath.tau, bath.f_tau, bath.gamma_tau)
    assert states[0].psi.tobytes() == at_tau.psi.tobytes()
    assert states[0].kernel.tobytes() == at_tau.kernel.tobytes()


def test_runs_without_tau_do_not_solve(tmp_path):
    grid = {"kind": "log", "start": 0.1, "stop": 1e3, "count": 5}
    kernels = validate_config(small_config(outputs=["kernels"], time_grid=grid))
    assert formation_solves(run_scenario, kernels, output_dir=str(tmp_path / "k")) == 0
    absolute = validate_config(small_config(
        outputs=["snapshots"], snapshot_times={"kind": "absolute", "values": [1.0]}))
    assert formation_solves(run_scenario, absolute, output_dir=str(tmp_path / "s")) == 0
    # a bath with no formation time inside its horizon still tabulates
    cfg = small_config(outputs=["kernels"], time_grid=grid,
                       solver={"horizon_factor": 1e4})
    cfg["spectrum"]["alpha"] = 1e-30
    summary = run_scenario(validate_config(cfg), output_dir=str(tmp_path / "n"))
    assert summary["files"] == ["kernels.csv"]


def test_cold_and_warm_bath_cache_give_identical_artifacts(tmp_path):
    cfg = validate_config(small_config(
        outputs=["kernels", "snapshots", "report"],
        time_grid={"kind": "log", "start": 0.1, "stop": 1e5, "count": 7},
        snapshot_times={"kind": "tau-fractions", "values": [1.0]},
        basis="Lx"))
    solve_bath.cache_clear()
    cold = run_scenario(copy.deepcopy(cfg), output_dir=str(tmp_path / "cold"))
    hits = solve_bath.cache_info().hits
    warm = run_scenario(copy.deepcopy(cfg), output_dir=str(tmp_path / "warm"))
    assert solve_bath.cache_info().hits > hits
    assert solve_bath.cache_info().misses == 1
    assert cold["files"] == warm["files"]
    for name in cold["files"]:
        assert (tmp_path / "cold" / name).read_bytes() == \
               (tmp_path / "warm" / name).read_bytes()


def test_cold_and_warm_kernel_memo_give_the_bytes_of_a_fresh_process(tmp_path, capsys):
    # fig1 run twice in one process, first from cleared memos and then
    # reading the kernels at tau and the Markov sample from them, writes the
    # bytes that a new interpreter writes
    clear_bath_memos()
    assert main(["run", "fig1", "--output-dir", str(tmp_path / "cold")]) == 0
    hits = kernels._kernels_at.cache_info().hits
    assert main(["run", "fig1", "--output-dir", str(tmp_path / "warm")]) == 0
    assert kernels._kernels_at.cache_info().hits > hits
    _fresh_python(f"""
        from spincat.cli import main
        assert main(["run", "fig1", "--output-dir", {str(tmp_path / "fresh")!r}]) == 0
    """)
    capsys.readouterr()
    files = sorted(os.listdir(tmp_path / "fresh"))
    assert "report.json" in files and "snapshot_000.csv" in files
    for out in ("cold", "warm"):
        assert sorted(os.listdir(tmp_path / out)) == files
        for name in files:
            assert (tmp_path / out / name).read_bytes() == \
                   (tmp_path / "fresh" / name).read_bytes(), (out, name)


def test_run_and_sweep_build_density_matrices_unchecked(tmp_path, monkeypatch):
    calls = {"eigvalsh": 0, "check": 0, "folds": 0, "rotation": 0, "half": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(DickeDensityMatrix, "__post_init__",
                        counted("check", DickeDensityMatrix.__post_init__))
    monkeypatch.setattr(dicke, "_parity_parts", counted("folds", dicke._parity_parts))
    rotation = counted("rotation", dicke.rotation_to_x)
    monkeypatch.setattr(dicke, "rotation_to_x", rotation)
    monkeypatch.setattr(evolve, "rotation_to_x", rotation, raising=False)
    monkeypatch.setattr(dicke, "_x_rows", counted("half", dicke._x_rows))
    cfg = preset_config("fig1")
    cfg.update(n_particles=200, outputs=["report"])
    run_scenario(validate_config(cfg), output_dir=str(tmp_path / "report"))
    assert calls == {"eigvalsh": 0, "check": 0, "folds": 0, "rotation": 0, "half": 0}
    cfg.update(outputs=["snapshots", "report"],
               snapshot_times={"kind": "tau-fractions", "values": [0.5, 1.0]})
    run_scenario(validate_config(cfg), output_dir=str(tmp_path / "run"))
    # one rotation per Lx snapshot: the top rows of M, built once, no whole
    # M, and the parity parts of the real and the imaginary part of rho's
    # window
    assert calls == {"eigvalsh": 0, "check": 0, "folds": 4, "rotation": 0, "half": 2}
    sweep(validate_config(small_config()), "N", [2, 4, 6, 8], jobs=1,
          output_dir=str(tmp_path / "sweep"))
    assert calls == {"eigvalsh": 0, "check": 0, "folds": 4, "rotation": 0, "half": 2}
    # a caller-supplied matrix is still checked in full
    DickeDensityMatrix(SectorLabel(1), np.eye(2, dtype=complex) / 2.0)
    assert calls == {"eigvalsh": 1, "check": 1, "folds": 4, "rotation": 0, "half": 2}


def test_snapshot_text_is_streamed_unchanged(tmp_path):
    sec = SectorLabel(7)
    amps = coherent_state(sec, 1.1, 0.3).amplitudes.copy()
    amps[[2, 5]] = [1e-160, 0.0]  # |rho| entries of about 1e-320 (subnormal) and 0
    amps /= np.linalg.norm(amps)
    lz = DickeDensityMatrix(sec, np.outer(amps, amps.conj()), Basis.LZ)
    mags = np.abs(lz.elements)
    assert np.any((mags > 0.0) & (mags < np.finfo(float).tiny)) and np.any(mags == 0.0)
    lx = DickeDensityMatrix(sec, lz.elements, Basis.LX)
    for i, (rho, t) in enumerate([(lz, 0.0), (lx, 3.3e4), (to_x_basis(lz), 1.5)]):
        path = tmp_path / f"snapshot_{i:03d}.csv"
        scenario._write_atomic(str(path), _lines(rho, t))
        _assert_same_text(path.read_bytes(), _snapshot_text(rho, t).encode())


def _lines(rho, t):
    # the snapshot text of a density matrix: the lines of its |rho| grid
    return snapshot_text.snapshot_lines(np.abs(rho.elements), rho.sector, rho.basis_tag, t)


def _assert_same_text(got, want):
    # exact equality of two texts (str or bytes); a mismatch is reported by
    # its first differing line and column, not by a diff of megabytes
    if got == want:
        return
    lines = itertools.zip_longest(got.splitlines(True), want.splitlines(True),
                                  fillvalue=got[:0])
    line, (a, b) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
    col = next((j for j, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(col - 100, 0)
    pytest.fail(f"texts differ at line {line}, column {col + 1}: "
                f"got {a[lo:col + 100]!r}, want {b[lo:col + 100]!r}")


def _grid_text(mags) -> str:
    # the per-element formula: repr of every entry of |rho|, row by row
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mags)


def _snapshot_text(rho, t) -> str:
    # a snapshot file's text by the per-element formula; an Lx file states
    # the floor of the rotation: its rounding and the window's dropped part
    zeroed = ("# zeroed = |rho_rc| <= g*b_r*b_c + (o_r*b_c + b_r*o_c) written as 0.0, within "
              "rounding and the part of rho outside the window of zero; b = |M| s, "
              "o = |M| s_out, s = sqrt(diag rho_Lz), s_out = s outside its window, the "
              "smallest index range outside which s sums to at most 2**-53*sum(s), "
              f"g = {dicke.x_floor_gain(rho.sector.dimension)!r}\n"
              if rho.basis_tag is Basis.LX else "")
    return (f"# basis = {rho.basis_tag.value}\n# l = {float(rho.sector.l)!r}\n"
            f"# time = {float(t)!r}\n"
            "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l\n"
            + zeroed + _grid_text(np.abs(rho.elements)))


def _grid_of(text: str) -> str:
    # a snapshot file's text without its header
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def test_snapshot_text_formats_each_mirror_pair_once(monkeypatch):
    sec = SectorLabel(64)
    d = sec.dimension
    calls = []
    reprs = float_text.reprs

    def counted_reprs(values):
        calls.extend(np.asarray(values).tolist())
        return reprs(values)

    monkeypatch.setattr(float_text, "reprs", counted_reprs)
    # this Lx grid has entries within the rotation's rounding floor, written
    # as 0.0; the pole state's Lx grid, the binomial outer product, has none
    lx = to_x_basis(coherent_state(sec, 1.1, 0.3).projector())
    pole = to_x_basis(coherent_state(sec, 0.0, 0.0).projector())
    for rho, zeros in ((lx, True), (pole, False)):
        calls.clear()
        mags = np.abs(rho.elements)
        assert np.array_equal(mags, mags.T)
        text = "".join(_lines(rho, 2.0))
        _assert_same_text(_grid_of(text), _grid_text(mags))
        # each nonzero mirror pair and diagonal entry is formatted once, no 0.0
        upper = mags[np.triu_indices(d)]
        assert np.any(upper == 0.0) == zeros
        assert 0.0 not in calls
        assert sorted(calls) == sorted(upper[upper != 0.0].tolist())
    assert len(calls) == d * (d + 1) // 2


def test_snapshot_text_peak_is_within_the_per_entry_budget():
    # the formatter holds |rho| and at most about d*d/4 strings; the pole
    # state's Lx grid is the binomial outer product, with no entry within
    # its floor, so nearly every entry is a long string.  Its window is one
    # index, so the rotation holds little beyond its result, and at this N
    # the formatter's peak is the higher one (25.7 against 24.5 bytes per
    # entry); both stay within the 27 bytes per entry that the particle cap
    # is derived from (scenario._MAX_PARTICLES)
    sec = SectorLabel(400)
    lz = coherent_state(sec, 0.0, 0.0).projector()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lx = to_x_basis(lz)
        rotation = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, _lines(lx, 1.0)))
        formatter = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 20 * sec.dimension ** 2
    assert max(formatter, rotation) < 27 * sec.dimension ** 2


def test_tau_snapshot_reads_the_bath_solution(tmp_path, monkeypatch):
    # every kernel value, the bath solve's and the propagator's, comes from
    # kernels._kernel_integral
    integrated = []
    integral = kernels._kernel_integral
    monkeypatch.setattr(kernels, "_kernel_integral", lambda sd, times: (
        integrated.extend(times.tolist()) or integral(sd, times)))
    cfg = small_config(n_particles=30, basis="Lx",
                       snapshot_times={"kind": "tau-fractions", "values": [1.0]})
    clear_bath_memos()
    run_scenario(validate_config(dict(cfg, outputs=["report"])),
                 output_dir=str(tmp_path / "report"))
    after_report = list(integrated)
    assert after_report
    clear_bath_memos()
    run_scenario(validate_config(dict(cfg, outputs=["report", "snapshots"])),
                 output_dir=str(tmp_path / "both"))
    assert integrated == after_report * 2
    # the text is that of the state evolved to tau from the kernels again
    params = build_scenario(validate_config(cfg))
    tau = solve_bath(params.spectrum, params.solve_horizon_factor).tau
    (rho,) = evolve.snapshot_series(params, [tau], Basis.LX)
    _assert_same_text((tmp_path / "both" / "snapshot_000.csv").read_text(),
                      _snapshot_text(rho, tau))


def test_write_atomic_keeps_target_when_the_text_fails(tmp_path):
    target = tmp_path / "snapshot_000.csv"
    target.write_text("old\n")

    def chunks():
        yield "# basis = Lx\n"
        yield "0.5," * 5000 + "\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        scenario._write_atomic(str(target), chunks())
    assert target.read_text() == "old\n"
    assert list(tmp_path.glob(".tmp-*~")) == []


def _lx_snapshot(n):
    # an Lx state with complex entries of every size, exactly Hermitian
    return to_x_basis(coherent_state(SectorLabel(n), 1.1, 0.3).projector())


@pytest.mark.parametrize("basis, n, state", [
    *(pytest.param(Basis.LX, n, "coherent", id=f"Lx-{n}")
      for n in (7, 64, 254, 255, 256, 300, 401)),
    pytest.param(Basis.LX, 300, "evolved", id="Lx-300-evolved"),
    pytest.param(Basis.LZ, 300, "evolved", id="Lz-300"),
    pytest.param(Basis.LZ, 300, "coherent", id="Lz-300-coherent")])
def test_snapshot_text_matches_the_serial_writer(tmp_path, basis, n, state):
    # d = n + 1, odd and even, at a multiple of the 32-row blocks (d = 256)
    # and one either side of it; the coherent state (t = 0) has no zero
    # entry, the state evolved to t = 40 has its far off-diagonals decayed.
    # The Lz grids at phi = 0.3 have complex entries, whose mirror pairs the
    # propagator writes as exact conjugates
    if basis is Basis.LX and state == "coherent":
        rho = _lx_snapshot(n)
    else:
        rho = evolve.evolve_state(
            build_scenario(validate_config(small_config(n_particles=n, phi=0.3))),
            0.0 if state == "coherent" else 40.0)
        if basis is Basis.LX:
            rho = to_x_basis(rho)
        else:
            assert np.any(rho.elements.imag != 0.0)
    target = tmp_path / "snapshot.csv"
    scenario._write_atomic(str(target), _lines(rho, 2.5))
    _assert_same_text(target.read_bytes(), _snapshot_text(rho, 2.5).encode())


def _symmetric_grid(d, kind, seed):
    # a symmetric nonnegative grid with entries of every size, subnormal too:
    # "runs" has zero runs in every row and some rows zero from the diagonal
    # on, "corner" is zero but for a block at the last rows (so the first
    # blocks of rows are all zero), "single" has one nonzero mirror pair,
    # "dense" no zero, "zero" no other
    rng = np.random.default_rng(seed)
    grid = np.abs(rng.standard_normal((d, d))) * 10.0 ** rng.integers(-320, 10, (d, d))
    i, j = np.indices((d, d))
    if kind == "runs":
        period = rng.integers(2, 40)
        grid[(j + rng.integers(0, period, (d, 1))) % period < rng.integers(1, period)] = 0.0
        grid[rng.random(d) < 0.2] = 0.0
    elif kind == "corner":
        grid[np.minimum(i, j) < d - rng.integers(1, 8)] = 0.0
    elif kind == "single":
        r, c = sorted(rng.integers(0, d, 2))
        grid[(i != r) | (j != c)] = 0.0
    elif kind == "zero":
        grid[:] = 0.0
    return np.where(i <= j, grid, grid.T)


# the grid is drawn from a seed, which shrinking cannot simplify: a failure is
# reported as found
@settings(max_examples=30, derandomize=True, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(d=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["runs", "corner", "single", "dense", "zero"]))
@example(d=300, seed=1, kind="corner")
@example(d=300, seed=2, kind="runs")
@example(d=257, seed=3, kind="zero")
@example(d=1, seed=4, kind="single")
def test_grid_text_equals_the_per_element_text(d, seed, kind):
    grid = _symmetric_grid(d, kind, seed)
    _assert_same_text("".join(snapshot_text._grid_lines(grid)), _grid_text(grid))


def test_writer_stopped_part_way_leaves_no_temp_file(tmp_path):
    target = tmp_path / "snapshot_000.csv"
    target.write_text("old\n")
    lines = _lines(_lx_snapshot(300), 1.0)

    def stopped():
        for _ in range(40):  # the header and some of the grid's lines
            yield next(lines)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        scenario._write_atomic(str(target), stopped())
    lines.close()
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["snapshot_000.csv"]


def test_run_writes_a_large_snapshot_as_the_serial_writer_would(tmp_path, monkeypatch):
    # the grid is formatted in this process, whatever the number of cores
    def no_fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = validate_config(small_config(
        n_particles=399, outputs=["snapshots"], basis="Lx",
        snapshot_times={"kind": "absolute", "values": [40.0]}))
    run_scenario(cfg, output_dir=str(tmp_path))
    (rho,) = evolve.snapshot_series(build_scenario(cfg), [40.0], Basis.LX)
    _assert_same_text((tmp_path / "snapshot_000.csv").read_bytes(),
                      _snapshot_text(rho, 40.0).encode())
    assert sorted(os.listdir(tmp_path)) == ["snapshot_000.csv", "snapshots_index.json"]


_PI_4 = math.pi / 4.0


@pytest.mark.parametrize("basis, preset, n, theta, phi, times", [
    *(pytest.param("Lx", "fig1", n, _PI_4, 0.0, "tau", id=f"fig1-{n}")
      for n in (1, 2, 3, 4, 7, 8, 50, 51, 300, 301)),
    *(pytest.param("Lx", "fig1", n, _PI_4, 0.3, "tau", id=f"phi-{n}") for n in (50, 51, 400)),
    pytest.param("Lx", "fig1", 60, 0.0, 0.0, "tau", id="theta-0"),
    pytest.param("Lx", "fig1", 61, math.pi, 0.0, "tau", id="theta-pi"),
    *(pytest.param("Lx", "fig2", n, math.pi / 2.0, 0.0, "tau", id=f"fig2-{n}") for n in (50, 51)),
    pytest.param("Lx", "fig1", 301, 1.1, 0.3, [40.0], id="absolute-301"),
    *(pytest.param("Lz", "fig1", n, 1.1, 0.3, "tau", id=f"lz-{n}") for n in (50, 51)),
    *(pytest.param("Lz", "fig1", n, 1.1, 0.3, [40.0], id=f"lz-absolute-{n}") for n in (300, 301))])
def test_lx_snapshot_files_are_the_text_of_the_rotated_matrix(tmp_path, basis, preset, n, theta,
                                                               phi, times):
    # a run writes an Lx grid from the parity blocks of rho's parts, with no
    # complex Lx matrix, and an Lz grid from blocks of rows of rho, mirrored;
    # its text is that of |to_x_basis(rho)| or |rho| (snapshot_series)
    # byte for byte, at tau (kernel values from the bath solution) and at
    # t = 0, and at an absolute time (evolve_state's kernel values)
    snap = ({"kind": "tau-fractions", "values": [0.0, 1.0]} if times == "tau"
            else {"kind": "absolute", "values": times})
    cfg = preset_config(preset)
    cfg.update(n_particles=n, theta=theta, phi=phi, basis=basis, outputs=["snapshots"],
               snapshot_times=snap)
    cfg = validate_config(cfg)
    run_scenario(cfg, output_dir=str(tmp_path))
    params = build_scenario(cfg)
    if times == "tau":
        times = [0.0, solve_bath(params.spectrum, params.solve_horizon_factor).tau]
    for i, (t, rho) in enumerate(zip(times, evolve.snapshot_series(params, times, basis))):
        _assert_same_text((tmp_path / f"snapshot_{i:03d}.csv").read_text(),
                          _snapshot_text(rho, t))


def test_lx_snapshot_holds_no_complex_matrix_during_the_products():
    # the grid at tau traces about 20 bytes per entry at N = 400: the grid
    # (8) and, while one part of rho's window is rotated, its three
    # quadrant-size products and the window's arrays (21 while the
    # quadrants' sums were made out of place); the parity folds of rho's
    # rows over every index made 26, rho beside the parity parts of both its
    # parts 36, and rho beside a complex Lx result 48
    params = build_scenario(validate_config(small_config(n_particles=400, theta=_PI_4)))
    bath = solve_bath(params.spectrum, params.solve_horizon_factor)
    evolve._snapshot(params, bath.tau, Basis.LX)  # kernel values now cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = evolve._snapshot(params, bath.tau, Basis.LX)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grid.dtype == np.float64 and grid.shape == (401, 401)
    assert peak <= 22 * 401 ** 2


def test_lz_snapshot_holds_no_complex_matrix():
    # the grid (8 bytes per entry) and one block of rows of rho with its
    # temporaries: about 11 at N = 400; rho beside its grid made 24
    params = build_scenario(validate_config(small_config(n_particles=400, theta=_PI_4, phi=0.3)))
    bath = solve_bath(params.spectrum, params.solve_horizon_factor)
    evolve._snapshot(params, bath.tau, Basis.LZ)  # kernel values now cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = evolve._snapshot(params, bath.tau, Basis.LZ)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grid.dtype == np.float64 and grid.shape == (401, 401)
    assert peak <= 12 * 401 ** 2


def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path):
    cfg = validate_config(small_config(
        outputs=["kernels", "snapshots", "report"],
        time_grid={"kind": "log", "start": 0.1, "stop": 1e3, "count": 3},
        snapshot_times={"kind": "tau-fractions", "values": [1.0]}))
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / oct(umask)
        old = os.umask(umask)
        try:
            run_scenario(copy.deepcopy(cfg), output_dir=str(out / "run"))
            sweep(copy.deepcopy(cfg), "N", [2], jobs=1, output_dir=str(out / "sweep"))
            assert main(["emit-preset", "fig1", "--output-dir", str(out / "emit")]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*")
                 if p.is_file()}
        assert sorted(modes) == ["fig1.json", "kernels.csv", "report.json", "snapshot_000.csv",
                                 "snapshots_index.json", "sweep.csv"]
        assert set(modes.values()) == {mode}


def test_run_holds_one_snapshot_matrix_at_a_time(tmp_path):
    n = 300
    times = [1.0, 2.0, 3.0, 4.0]

    def run(values, out):
        cfg = small_config(n_particles=n, outputs=["snapshots"], basis="Lx",
                           snapshot_times={"kind": "absolute", "values": values})
        run_scenario(validate_config(cfg), output_dir=str(tmp_path / out))

    run(times, "warm")  # kernel values at every time are now cached

    def peak(values, out):
        tracemalloc.start()
        try:
            run(values, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(times[-1:], "one")
    four = peak(times, "four")
    # four snapshots need less than one more d x d complex matrix than one
    assert four < one + 16 * (n + 1) ** 2


# ---------------------------------------------------------------------------
# sweeps


def read_csv(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_single_point_sweep_matches_run(tmp_path):
    cfg = validate_config(small_config())
    summary = sweep(copy.deepcopy(cfg), "alpha", [2.5e-5], jobs=1,
                    output_dir=str(tmp_path / "sw"))
    assert summary["points"] == 1
    assert summary["failed"] == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert rows[0] == ["alpha", "tau_mqs", "f_at_tau", "gamma_at_tau",
                       "fidelity", "corner", "purity", "feasible", "n_max",
                       "f_markov", "gamma_markov", "error"]
    run_report = run_scenario(cfg, output_dir=str(tmp_path / "run"))["report"]
    row = dict(zip(rows[0], rows[1]))
    assert float(row["tau_mqs"]) == run_report["tau_mqs"]
    assert float(row["fidelity"]) == run_report["fidelity"]
    assert int(row["n_max"]) == run_report["n_max"]
    assert row["feasible"] == "true"
    assert row["error"] == ""


def test_sweep_records_failures_and_continues(tmp_path):
    cfg = validate_config(small_config())
    summary = sweep(cfg, "alpha", [2.5e-5, 1e-30], jobs=1,
                    output_dir=str(tmp_path))
    assert summary["points"] == 2
    assert summary["failed"] == 1
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 3
    good = dict(zip(rows[0], rows[1]))
    bad = dict(zip(rows[0], rows[2]))
    assert good["error"] == ""
    assert bad["error"] != ""
    assert bad["tau_mqs"] == ""


def test_sweep_axis_validation(tmp_path):
    cfg = validate_config(small_config())
    with pytest.raises(ConfigError):
        sweep(cfg, "gamma", [1.0], output_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        sweep(cfg, "alpha", [], output_dir=str(tmp_path))
    with pytest.raises(ConfigError):  # omega_0 needs a lorentzian spectrum
        sweep(cfg, "omega_0", [1.0], output_dir=str(tmp_path))
    tab = validate_config(small_config(spectrum={
        "kind": "tabulated", "table": [[0.0, 0.0], [1.0, 1e-4], [2.0, 0.0]]}))
    with pytest.raises(ConfigError) as exc:  # a table has no alpha to vary
        sweep(tab, "alpha", [1e-3, 1.0], output_dir=str(tmp_path))
    assert exc.value.field == "axis"
    summary = sweep(cfg, "N", [2.5], jobs=1, output_dir=str(tmp_path))
    assert summary["failed"] == 1  # non-integer N fails per point
    too_many = scenario._MAX_PARTICLES + 1  # fails before any matrix is built
    summary = sweep(cfg, "N", [2, too_many], jobs=1, output_dir=str(tmp_path))
    assert summary["failed"] == 1
    header, *rows = read_csv(tmp_path / "sweep.csv")
    assert [dict(zip(header, r))["error"] for r in rows] == [
        "", f"values: must be <= {scenario._MAX_PARTICLES}, got {too_many}"]
    # sweep values pass the checks a config value would: three fail per point
    summary = sweep(cfg, "beta", [math.inf, math.nan, -1.0, 1e-8], jobs=1,
                    output_dir=str(tmp_path))
    assert summary["failed"] == 3
    header, *rows = read_csv(tmp_path / "sweep.csv")
    rows = [dict(zip(header, r)) for r in rows]
    assert [r["error"] for r in rows] == [
        "values: must be finite", "values: must be finite",
        "values: must be > 0, got -1.0", ""]
    assert float(rows[3]["tau_mqs"]) > 0.0


def test_sweep_value_count_is_bounded(tmp_path, monkeypatch):
    def no_work(task):
        raise AssertionError("a sweep over the maximum ran a point")

    monkeypatch.setattr(scenario, "_sweep_point", no_work)
    cfg = validate_config(small_config())
    # 1800 points at about 2.0 s each (N = 4096) take one hour
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, "N", [2] * 1801, output_dir=str(tmp_path))
    assert str(exc.value) == "values: at most 1800 values per sweep, got 1801"
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = validate_config(small_config())
    values = [2, 4, 6, 40]
    sweep(copy.deepcopy(cfg), "N", values, jobs=1, output_dir=str(tmp_path / "s1"))
    sweep(copy.deepcopy(cfg), "N", values, jobs=4, output_dir=str(tmp_path / "s4"))
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
           (tmp_path / "s4" / "sweep.csv").read_bytes()


def test_sweep_solves_the_bath_once(tmp_path):
    cfg = validate_config(small_config())
    assert formation_solves(sweep, cfg, "N", [2, 4, 6, 8], jobs=1,
                            output_dir=str(tmp_path)) == 1


def test_sweep_pool_is_capped_at_point_count(tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool; runs the points in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    def usable(cores):
        monkeypatch.setattr(scenario.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 64)
    usable(64)
    cfg = validate_config(small_config())
    values = [2, 4, 6]
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values)]
    sweep(copy.deepcopy(cfg), "N", [2], jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values)]  # one point runs serially
    # and at the number of cores this process may use, not of processors
    usable(2)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2]
    usable(1)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2]  # one usable core: serial
    # without an affinity mask, at the number of processors
    monkeypatch.delattr(scenario.os, "sched_getaffinity")
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 2)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2, 2]
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: None)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2, 2]  # unknown count: one worker, serial


def test_sweep_n_feasibility_flip(tmp_path):
    cfg = validate_config(small_config())
    sweep(cfg, "N", [50, 100], jobs=1, output_dir=str(tmp_path))
    rows = read_csv(tmp_path / "sweep.csv")
    r50 = dict(zip(rows[0], rows[1]))
    r100 = dict(zip(rows[0], rows[2]))
    assert r50["feasible"] == "true"
    assert r100["feasible"] == "false"
    assert int(r50["n_max"]) == int(r100["n_max"]) == 60


# ---------------------------------------------------------------------------
# command line


def test_cli_run_success(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["name"] == "small"
    assert summary["report"]["n_max"] == 60


def test_cli_run_preset_name(tmp_path, capsys):
    rc = main(["run", "phonon", "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    summary = json.loads(captured.out.strip())
    assert summary["name"] == "phonon"
    assert summary["report"]["feasible"] is True


def test_cli_missing_config_exits_2(capsys):
    rc = main(["run", "/nonexistent/nope.json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "preset" in captured.err


def test_cli_table_knots_over_the_cap_exit_2(tmp_path, capsys):
    table = [[0.1 * k, 1e-5] for k in range(scenario._MAX_TABLE_KNOTS + 1)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(spectrum={"kind": "tabulated", "table": table})))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "spectrum.table: at most 8000 knots, got 8001" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [1.0, 2.0])  # a reversed knot, a repeated knot
def test_cli_table_knots_that_do_not_rise_exit_2(tmp_path, capsys, omega):
    table = [[0.0, 0.0], [2.0, 1e-5], [omega, 2e-5], [3.0, 0.0]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(spectrum={"kind": "tabulated", "table": table})))
    for verb in (["run", str(path)], ["sweep", str(path), "--axis", "beta", "--values", "1,2"]):
        out = tmp_path / verb[0]
        assert main([*verb, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: spectrum.table[2][0]: must exceed ")
        assert not out.exists()


def test_cli_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not valid JSON" in captured.err
    # an integer literal too long to convert, and a file that is not UTF-8
    text = json.dumps(small_config())
    path.write_text(text.replace('"phi": 0.0', '"phi": 1' + "0" * 5000))
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    path.write_bytes(text.replace('"small"', '"sm\u00e9ll"').encode("latin-1"))
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not valid JSON" in captured.err


def test_cli_config_error_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(basis="Ly")))
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "basis" in captured.err
    # a number beyond the float range, and inputs over their work or output
    # maxima, fail on the field before any kernel work
    path.write_text(json.dumps(small_config()).replace('"theta": 1.5707963267948966',
                                                       '"theta": 1' + "0" * 400))
    rc = main(["run", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: theta: must be finite\n"

    def no_kernel_work(*args):
        raise AssertionError("a config over a maximum reached the kernels")

    grid = {"kind": "log", "start": 0.1, "stop": 1.0, "count": 800001}
    snaps = {"kind": "absolute", "values": [1.0] * 12}
    table = [[float(k), 1e-5] for k in range(10001)]
    many = {"kind": "absolute", "values": [1.0] * 800001}
    for cfg, field in ((small_config(outputs=["kernels"], time_grid=grid), "time_grid.count"),
                       (small_config(spectrum={"kind": "tabulated", "table": table}),
                        "spectrum.table"),
                       (small_config(spectrum={"kind": "tabulated", "table": table[:113]},
                                     outputs=["kernels"], time_grid=dict(grid, count=800000)),
                        "spectrum.table"),
                       (small_config(n_particles=4096, outputs=["snapshots"],
                                     snapshot_times=snaps), "snapshot_times.values"),
                       (small_config(n_particles=1, outputs=["snapshots"],
                                     snapshot_times=many), "snapshot_times.values")):
        path.write_text(json.dumps(cfg))
        with monkeypatch.context() as m:  # a missing bound fails here, not hours later
            m.setattr(kernels, "_kernel_integral", no_kernel_work)
            rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
    path.write_text(json.dumps(small_config()))
    values = ",".join(["2"] * 1801)
    rc = main(["sweep", str(path), "--axis", "N", "--values", values,
               "--output-dir", str(tmp_path / "sweep")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: values: at most ")
    assert not (tmp_path / "sweep").exists()
    # times so small that pi/t overflows are out of the kernels' domain
    for cfg in (small_config(outputs=["kernels"], time_grid={
                    "kind": "log", "start": 1e-310, "stop": 1.0, "count": 3}),
                small_config(outputs=["snapshots"], snapshot_times={
                    "kind": "absolute", "values": [1e-310]})):
        path.write_text(json.dumps(cfg))
        rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: t must be large enough that pi/t is finite")
    # and so are times so large that t*t overflows
    for cfg in (small_config(outputs=["kernels"], time_grid={
                    "kind": "log", "start": 0.1, "stop": 1e160, "count": 5}),
                small_config(outputs=["snapshots"], snapshot_times={
                    "kind": "absolute", "values": [1e160]})):
        path.write_text(json.dumps(cfg))
        rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: t must be small enough that t*t is finite")


def test_cli_numeric_failure_exits_3(tmp_path, capsys):
    cfg = small_config()
    cfg["spectrum"]["alpha"] = 1e-30
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numeric error in formation-time solve:")
    # a far-detuned line overflows omega_0**2: a numeric failure, not a crash
    path.write_text(json.dumps(small_config(spectrum={
        "kind": "lorentzian", "alpha": 1.0, "omega_c": 1.0, "omega_0": 1e160})))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numeric error in formation-time solve:")
    # a very broad line would overflow omega_c**2; the spectrum stays finite
    path.write_text(json.dumps(small_config(spectrum={
        "kind": "lorentzian", "alpha": 1.0, "omega_c": 1e200, "omega_0": 1.0})))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(
        "numeric error in formation-time solve: accumulated phase")


def test_cli_subnormal_scale_exits_3(tmp_path, capsys):
    # the width scan starts a millionth below the lowest feature, which
    # underflows to 0 for a subnormal cutoff: a numeric failure, not a crash
    cfg = preset_config("fig1")
    cfg["spectrum"]["omega_c"] = 1e-320
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (
        "numeric error in kernel tabulation: the scan floor min(features)*1e-6 underflows "
        "to 0 for the lowest feature 1e-320; width undefined\n")


_STAGE_OUTPUTS = {
    "kernels": {"outputs": ["kernels"],
                "time_grid": {"kind": "linear", "start": 0.5, "stop": 1.0, "count": 3}},
    "report": {"outputs": ["report"]},
    "snapshots": {"outputs": ["snapshots"], "basis": "Lz",
                  "snapshot_times": {"kind": "absolute", "values": [1.0]}},
}


def _boom(*args, **kwargs):
    raise NumericError("boom")


def _boom_inner(*args, **kwargs):
    exc = NumericError("boom")
    exc.operation = "inner"
    raise exc


def _nan_grid(p, t, basis):
    return np.full((p.sector.dimension,) * 2, np.nan)


# (case, callee in scenario, its stand-in, outputs, stderr): a numeric failure
# inside a stage of a run names that stage, one already named keeps its name,
# and one outside every stage (the snapshot text) names none
_STAGE_CASES = [
    ("kernels", "tabulate_kernels", _boom, "kernels",
     "numeric error in kernel tabulation: boom\n"),
    ("solve", "solve_bath", _boom, "report", "numeric error in formation-time solve: boom\n"),
    ("assess", "assess_mqs", _boom, "report", "numeric error in formation assessment: boom\n"),
    ("snapshot", "_snapshot", _boom, "snapshots", "numeric error in snapshot evolution: boom\n"),
    ("named", "solve_bath", _boom_inner, "report", "numeric error in inner: boom\n"),
    ("text", "_snapshot", _nan_grid, "snapshots",
     "numeric error: cannot format nan: not a finite float > 0\n"),
]


@pytest.mark.parametrize("callee, stand_in, outputs, err",
                         [case[1:] for case in _STAGE_CASES],
                         ids=[case[0] for case in _STAGE_CASES])
def test_cli_numeric_failure_names_its_stage(tmp_path, capsys, monkeypatch, callee, stand_in,
                                             outputs, err):
    monkeypatch.setattr(scenario, callee, stand_in)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(**_STAGE_OUTPUTS[outputs])))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == err
    assert captured.out == ""


def test_cli_presets_verb(capsys):
    rc = main(["presets"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.split() == ["cavity", "fig1", "fig2", "phonon"]


def test_cli_emit_preset_round_trip(tmp_path, capsys):
    rc = main(["emit-preset", "fig1", "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    info = json.loads(captured.out.strip())
    emitted = json.loads((tmp_path / "fig1.json").read_text())
    assert info["path"].endswith("fig1.json")
    assert validate_config(emitted) == validate_config(preset_config("fig1"))
    assert ((tmp_path / "fig1.json").read_bytes()
            == scenario._json_dumps(preset_config("fig1")).encode())


def test_cli_emit_preset_unknown_exits_2(capsys):
    rc = main(["emit-preset", "nope"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")


def test_cli_convention_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out"),
               "--mqs-convention", "antipodal"])
    captured = capsys.readouterr()
    assert rc == 0
    summary = json.loads(captured.out.strip())
    assert summary["report"]["convention_used"] == "antipodal"
    # at T > 0 the thermal flag writes what the config's own convention writes
    hot = small_config()
    hot["spectrum"]["beta"] = 2.0
    path.write_text(json.dumps(hot))
    half = tmp_path / "half.json"
    half.write_text(json.dumps(dict(hot, conventions={"thermal": "coth-half"})))
    for out, args in (("full", [path]), ("flag", [path, "--thermal-convention", "coth-half"]),
                      ("half", [half])):
        assert main(["run", *map(str, args), "--output-dir", str(tmp_path / out)]) == 0
    capsys.readouterr()
    report = lambda out: (tmp_path / out / "report.json").read_bytes()
    assert report("flag") == report("half")
    gamma = lambda out: json.loads(report(out))["report"]["gamma_at_tau"]
    assert gamma("flag") != gamma("full")


def test_linear_time_grid_tabulates_its_points(tmp_path):
    grid = {"kind": "linear", "start": 0.5, "stop": 40.0, "count": 9}
    cfg = validate_config(small_config(outputs=["kernels"], time_grid=grid))
    run_scenario(cfg, output_dir=str(tmp_path))
    text = (tmp_path / "kernels.csv").read_text()
    points = np.linspace(0.5, 40.0, 9)
    rows = text.splitlines()[text.splitlines().index("t,f,gamma") + 1:]
    assert [row.split(",")[0] for row in rows] == [repr(float(t)) for t in points]
    table = tabulate_kernels(build_scenario(cfg).spectrum, points)
    assert text == "\n".join(table.csv_lines()) + "\n"


def test_cli_numeric_error_shows_python_floats(tmp_path, capsys):
    # a bracket end computed in numpy is printed as a float, not as
    # np.float64(...)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(
        spectrum={"kind": "ohmic", "alpha": 2.5e-5, "omega_c": 1e-310, "beta": None},
        outputs=["report"])))
    rc = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "do not differ in sign" in err
    assert "np.float64(" not in err


def test_cli_output_dir_from_config_or_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(output_dir=str(tmp_path / "own"))))
    assert main(["run", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] == str(tmp_path / "own")
    assert (tmp_path / "own" / "report.json").exists()
    assert main(["run", str(path), "--output-dir", str(tmp_path / "flag")]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] == str(tmp_path / "flag")
    assert os.listdir(tmp_path / "flag") == ["report.json"]
    for bad in ("", 3):
        path.write_text(json.dumps(small_config(output_dir=bad)))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: output_dir: ")


@pytest.mark.parametrize("under, reason", [("", "File exists"), ("sub", "Not a directory"),
                                           (None, "No such file or directory")])
def test_cli_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch, under,
                                                    reason):
    # a file, a path under a file, or an empty override (under None) cannot
    # be made a directory: each verb stops with a config error naming
    # output_dir, before any work, and writes no <name>-out in its stead
    def no_work(*args):
        raise AssertionError("a run into a directory that cannot be made did work")

    monkeypatch.setattr(scenario, "build_scenario", no_work)
    monkeypatch.setattr(scenario, "_sweep_point", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    out = "" if under is None else str(tmp_path / "file" / under)
    for verb in (["run", "phonon"], ["sweep", "phonon", "--axis", "N", "--values", "2,3"],
                 ["emit-preset", "phonon"]):
        assert main([*verb, "--output-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: output_dir: cannot make directory {out!r}: {reason}\n"
        assert captured.out == ""
    assert (tmp_path / "file").read_text() == ""
    assert os.listdir(tmp_path) == ["file"]


_SNAPSHOT_LX = {"outputs": ["snapshots"], "basis": "Lx",
                "snapshot_times": {"kind": "absolute", "values": [1.0]}}


@pytest.mark.parametrize("verb, blocked", [
    (["run", "phonon"], "report.json"),
    (["sweep", "phonon", "--axis", "N", "--values", "2,3", "--jobs", "1"], "sweep.csv"),
    (["emit-preset", "phonon"], "phonon.json"),
    (["run", "cfg.json"], "snapshot_000.csv"),
], ids=["run", "sweep", "emit-preset", "snapshot"])
def test_cli_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, verb,
                                                     blocked):
    # a directory where an artifact goes: the write stops with a config error
    # naming output_dir and the file, and leaves no temp file behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(small_config(**_SNAPSHOT_LX)))
    (tmp_path / "out" / blocked).mkdir(parents=True)
    assert main([*verb, "--output-dir", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output_dir: cannot write 'out/{blocked}': Is a directory\n"
    assert captured.out == ""
    assert os.listdir(tmp_path / "out") == [blocked]  # no temp file, no snapshot index
    assert os.listdir(tmp_path / "out" / blocked) == []


def test_cli_emit_preset_unknown_makes_no_directory(tmp_path, capsys):
    assert main(["emit-preset", "nope", "--output-dir", str(tmp_path / "new")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown preset 'nope'")
    assert not (tmp_path / "new").exists()


def test_sweep_makes_its_directory_before_any_point(tmp_path, monkeypatch):
    def no_point(task):
        raise AssertionError("a sweep into a directory that cannot be made ran a point")

    monkeypatch.setattr(scenario, "_sweep_point", no_point)
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError) as exc:
        sweep(validate_config(small_config()), "N", [2, 3], output_dir=str(tmp_path / "file"))
    assert exc.value.field == "output_dir"
    assert str(exc.value).endswith(": File exists")


def test_cli_config_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    rc = main(["sweep", str(path), "--axis", "N", "--values", "2,4",
               "--jobs", "1", "--output-dir", str(tmp_path / "sw")])
    captured = capsys.readouterr()
    assert rc == 0
    summary = json.loads(captured.out.strip())
    assert summary["points"] == 2
    assert summary["failed"] == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert [r[0] for r in rows] == ["N", "2", "4"]


def test_cli_sweep_bad_values_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    rc = main(["sweep", str(path), "--axis", "N", "--values", "2,x"])
    assert rc == 2
    assert "values" in capsys.readouterr().err
    rc = main(["sweep", str(path), "--axis", "N", "--values", "2",
               "--jobs", "0"])
    assert rc == 2


def test_cli_sweep_with_no_values_exits_2_and_writes_nothing(tmp_path, capsys):
    for text in (",", " , "):
        out = tmp_path / "sw"
        rc = main(["sweep", "fig1", "--axis", "N", "--values", text,
                   "--output-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: values: sweep needs at least one value\n"
        assert not out.exists()


def test_sweep_axes_constant():
    assert SWEEP_AXES == ("N", "beta", "alpha", "omega_0")


def _fresh_python(code: str, **env: str) -> subprocess.CompletedProcess:
    # runs code in a new interpreter that imports spincat from this checkout,
    # with env added to this process's environment
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spincat.__file__)),
               **env)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_runs_load_no_scipy(tmp_path):
    # only a Lorentzian's smooth tail moment still uses scipy (imported
    # there): neither the import nor a fig1 run and sweep loads any of it
    proc = _fresh_python(f"""
        import sys
        import spincat
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
        assert loaded() == [], loaded()
        from spincat.cli import main
        assert main(["run", "fig1", "--output-dir", {str(tmp_path / "run")!r}]) == 0
        assert main(["sweep", "fig1", "--axis", "N", "--values", "4,6", "--jobs", "1",
                     "--output-dir", {str(tmp_path / "sweep")!r}]) == 0
        print(loaded())
    """)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "report.json").exists()


def test_runs_load_no_process_machinery(tmp_path):
    # a report, snapshot grids (fig1 at N = 50, and d = 400) and a serial
    # sweep fork nothing, so they load neither multiprocessing nor the
    # process pool; a parallel sweep on two usable cores then imports the
    # pool in the same process
    lx399 = tmp_path / "lx399.json"
    lx399.write_text(json.dumps(small_config(
        name="lx399", n_particles=399, basis="Lx", outputs=["snapshots"],
        snapshot_times={"kind": "absolute", "values": [40.0]})))
    _fresh_python(f"""
        import sys
        from spincat.cli import main
        machinery = ("multiprocessing", "concurrent.futures.process", "secrets")
        loaded = lambda: sorted(m for m in machinery if m in sys.modules)
        assert main(["run", "phonon", "--output-dir", {str(tmp_path / "phonon")!r}]) == 0
        assert main(["run", "fig1", "--output-dir", {str(tmp_path / "fig1")!r}]) == 0
        assert main(["sweep", "fig1", "--axis", "N", "--values", "4,6", "--jobs", "1",
                     "--output-dir", {str(tmp_path / "serial")!r}]) == 0
        assert main(["run", {str(lx399)!r}, "--output-dir", {str(tmp_path / "lx399")!r}]) == 0
        assert loaded() == [], loaded()
        assert main(["sweep", "fig1", "--axis", "N", "--values", "4,6", "--jobs", "2",
                     "--output-dir", {str(tmp_path / "parallel")!r}]) == 0
    """)
    assert (tmp_path / "fig1" / "snapshot_000.csv").exists()
    assert (tmp_path / "lx399" / "snapshot_000.csv").stat().st_size > 0
    assert ((tmp_path / "parallel" / "sweep.csv").read_bytes()
            == (tmp_path / "serial" / "sweep.csv").read_bytes())


def test_only_runs_with_snapshots_load_the_text_formatter(tmp_path):
    # snapshot_text, and float_text with it, are loaded by a run that writes
    # a snapshot grid, and by no report-only run or serial sweep
    proc = _fresh_python(f"""
        import sys
        from spincat.cli import main
        text = ("spincat.snapshot_text", "spincat.float_text")
        loaded = lambda: [m for m in text if m in sys.modules]
        assert main(["run", "phonon", "--output-dir", {str(tmp_path / "phonon")!r}]) == 0
        assert main(["sweep", "fig1", "--axis", "N", "--values", "4,6", "--jobs", "1",
                     "--output-dir", {str(tmp_path / "sweep")!r}]) == 0
        assert loaded() == [], loaded()
        assert main(["run", "fig1", "--output-dir", {str(tmp_path / "fig1")!r}]) == 0
        print(loaded())
    """)
    assert proc.stdout.splitlines()[-1] == str(list(("spincat.snapshot_text",
                                                     "spincat.float_text")))
    assert (tmp_path / "fig1" / "snapshot_000.csv").exists()


_PACKAGE_API = [
    "Basis", "BathSolution", "ConfigError", "DickeDensityMatrix", "DickeState", "DomainError",
    "EvolutionParams", "KernelDivergenceError", "KernelTable", "MarkovLimits", "MqsConvention",
    "MqsReport", "NoFormationError", "NumericError", "SectorLabel", "SpectralDensity",
    "SpectrumKind", "SpinCatError", "ThermalConvention", "UsageError", "WidthUndefinedError",
    "assess_mqs", "coherence_corner", "coherent_state", "correlation_time", "eval_g0",
    "eval_gt", "evolve_state", "f_of_t", "fidelity", "gamma_of_t", "lorentzian",
    "markov_limits", "mqs_target", "ohmic", "purity", "rotation_to_x", "snapshot_series",
    "solve_bath", "solve_tau_mqs", "tabulate_kernels", "tabulated", "to_x_basis",
    "total_coupling",
]


def test_package_exports_its_api_once():
    # the library API: the same 44 names, each the object its own module
    # defines, and a star import binds exactly those
    assert sorted(spincat.__all__) == _PACKAGE_API
    for name in spincat.__all__:
        obj = getattr(spincat, name)
        assert obj.__module__.startswith("spincat."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    namespace: dict = {}
    exec("from spincat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == _PACKAGE_API


def test_module_all_lists_name_existing_attributes():
    for short in ("bath", "dicke", "errors", "evolve", "kernels", "scenario", "cli", "brent",
                  "float_text"):
        module = importlib.import_module(f"spincat.{short}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    assert "emit_preset" in scenario.__all__


def test_lx_grids_from_one_and_two_blas_threads_differ_within_the_floor(tmp_path):
    # the rotation's last bits follow the BLAS thread count; two grids of one
    # config differ by at most twice the stated floor, each being within the
    # floor of the exact entry when kept and within twice it when zeroed
    cfg = validate_config(small_config(
        n_particles=299, outputs=["snapshots"], basis="Lx",
        snapshot_times={"kind": "absolute", "values": [40.0]}))
    (tmp_path / "lx299.json").write_text(json.dumps(cfg))
    grids = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _fresh_python(f"""
            from spincat.cli import main
            assert main(["run", {str(tmp_path / "lx299.json")!r},
                         "--output-dir", {str(out)!r}]) == 0
        """, OPENBLAS_NUM_THREADS=threads)
        grids.append(np.loadtxt(out / "snapshot_000.csv", delimiter=","))
    (rho,) = evolve.snapshot_series(build_scenario(cfg), [40.0], Basis.LZ)
    floor = dicke._x_floor(rho.sector, np.sqrt(rho.elements.real.diagonal()))
    assert grids[0].shape == (300, 300)
    assert np.all(np.abs(grids[0] - grids[1]) <= 2.0 * floor * (1.0 + 1e-12))


def test_fig2_lx_grid_zeroes_what_parity_makes_zero():
    # fig2 starts at theta = pi/2, phi = 0, so its state is symmetric under
    # m -> -m and every exact Lx entry with r - c odd is 0; at t = 100 the
    # floor zeroes exactly those (each was at most 4e-16 before)
    params = build_scenario(validate_config(preset_config("fig2")))
    (rho,) = evolve.snapshot_series(params, [100.0], Basis.LX)
    r, c = np.indices(rho.elements.shape)
    assert np.array_equal(rho.elements == 0.0, (r - c) % 2 == 1)
    assert np.count_nonzero(rho.elements == 0.0) == 1300
