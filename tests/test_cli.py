"""Config validation, preset handling, artifact runs, sweeps, exit codes."""

import copy
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

from spincat import dicke, evolve, kernels, scenario
from spincat.cli import main
from spincat.dicke import Basis, DickeDensityMatrix, SectorLabel, coherent_state, to_x_basis
from spincat.errors import ConfigError
from spincat.kernels import markov_limits, solve_bath
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


def test_number_validation():
    cfg = small_config()
    cfg["spectrum"]["beta"] = -1.0
    assert config_error(cfg).field == "spectrum.beta"
    cfg = small_config()
    cfg["spectrum"]["alpha"] = "big"
    assert config_error(cfg).field == "spectrum.alpha"
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
    # a solve takes at most nine integrals at 17-30 us per knot: 10000 knots
    # keep it near the 2.0 s of a sweep point
    table = [[0.1 * k, 1e-5] for k in range(scenario._MAX_TABLE_KNOTS)]
    assert validate_config(small_config(spectrum={"kind": "tabulated", "table": table}))
    err = config_error(small_config(spectrum={"kind": "tabulated",
                                              "table": table + [[1e9, 0.0]]}))
    assert err.field == "spectrum.table"
    assert str(err) == "spectrum.table: at most 10000 knots, got 10001"


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
    table = [[0.1 * k, 1e-5] for k in range(10000)]
    spectrum = {"kind": "tabulated", "table": table}
    grid = {"kind": "log", "start": 0.1, "stop": 1e3, "count": 8999}
    snaps = {"kind": "absolute", "values": [1.0]}
    assert validate_config(small_config(spectrum=spectrum, time_grid=grid,
                                        snapshot_times=snaps))
    for over in (dict(time_grid=dict(grid, count=9000), snapshot_times=snaps),
                 dict(time_grid=grid, snapshot_times=dict(snaps, values=[1.0, 2.0]))):
        err = config_error(small_config(spectrum=spectrum, **over))
        assert err.field == "spectrum.table"
        assert str(err) == ("spectrum.table: at most 9998 knots with 9001 kernel times "
                            "(knots * (time_grid.count + len(snapshot_times.values)) "
                            "<= 90000000), got 10000")
    # only the grid: 800000 points leave room for 112 knots
    grid = dict(grid, count=800000)
    spectrum = {"kind": "tabulated", "table": table[:112]}
    assert validate_config(small_config(spectrum=spectrum, time_grid=grid))
    spectrum["table"] = table[:113]
    assert config_error(small_config(spectrum=spectrum, time_grid=grid)).field == \
        "spectrum.table"


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


def test_run_and_sweep_build_density_matrices_unchecked(tmp_path, monkeypatch):
    calls = {"eigvalsh": 0, "check": 0, "to_x_basis": 0, "rotation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(DickeDensityMatrix, "__post_init__",
                        counted("check", DickeDensityMatrix.__post_init__))
    to_x = counted("to_x_basis", dicke.to_x_basis)
    monkeypatch.setattr(dicke, "to_x_basis", to_x)
    monkeypatch.setattr(evolve, "to_x_basis", to_x)
    rotation = counted("rotation", dicke.rotation_to_x)
    monkeypatch.setattr(dicke, "rotation_to_x", rotation)
    monkeypatch.setattr(evolve, "rotation_to_x", rotation, raising=False)
    cfg = preset_config("fig1")
    cfg.update(n_particles=200, outputs=["report"])
    run_scenario(validate_config(cfg), output_dir=str(tmp_path / "report"))
    assert calls == {"eigvalsh": 0, "check": 0, "to_x_basis": 0, "rotation": 0}
    cfg.update(outputs=["snapshots", "report"],
               snapshot_times={"kind": "tau-fractions", "values": [0.5, 1.0]})
    run_scenario(validate_config(cfg), output_dir=str(tmp_path / "run"))
    # one rotation per Lx snapshot
    assert calls == {"eigvalsh": 0, "check": 0, "to_x_basis": 2, "rotation": 2}
    sweep(validate_config(small_config()), "N", [2, 4, 6, 8], jobs=1,
          output_dir=str(tmp_path / "sweep"))
    assert calls == {"eigvalsh": 0, "check": 0, "to_x_basis": 2, "rotation": 2}
    # a caller-supplied matrix is still checked in full
    DickeDensityMatrix(SectorLabel(1), np.eye(2, dtype=complex) / 2.0)
    assert calls == {"eigvalsh": 1, "check": 1, "to_x_basis": 2, "rotation": 2}


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
        header = [f"# basis = {rho.basis_tag.value}", f"# l = {float(rho.sector.l)!r}",
                  f"# time = {float(t)!r}",
                  "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l"]
        rows = [",".join(repr(float(v)) for v in row) for row in np.abs(rho.elements)]
        path = tmp_path / f"snapshot_{i:03d}.csv"
        scenario._write_atomic(str(path), scenario._snapshot_csv(rho, t))
        assert path.read_bytes() == ("\n".join(header + rows) + "\n").encode()


def _grid_text(mags) -> str:
    # the per-element formula: repr of every entry of |rho|, row by row
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mags)


def test_snapshot_text_formats_each_mirror_pair_once(monkeypatch):
    sec = SectorLabel(64)
    d = sec.dimension
    calls = []

    def counted_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(scenario, "repr", counted_repr, raising=False)
    exact = to_x_basis(coherent_state(sec, 1.1, 0.3).projector())
    assert np.array_equal(np.abs(exact.elements), np.abs(exact.elements).T)
    nudged = exact.elements.copy()
    for i, j in [(5, 2), (40, 0), (64, 63), (30, 29)]:  # a few lower entries some ulps off their mirrors
        nudged[i, j] *= 1.0 + 1e-15
    nudged[50, 10] = 0.25
    for rho, extra in ((exact, 0), (dicke._density_matrix(sec, nudged, Basis.LX), 5)):
        mags = np.abs(rho.elements)
        assert np.count_nonzero(mags != mags.T) == 2 * extra
        calls.clear()
        text = "".join(scenario._snapshot_csv(rho, 2.0))
        assert text.split("\n", 4)[4] == _grid_text(mags)
        # one repr per mirror pair and diagonal entry, one per lone entry
        assert len(calls) == d * (d + 1) // 2 + extra


def test_snapshot_text_peak_is_below_the_rotation_peak():
    # the formatter holds |rho| and at most about d*d/4 strings
    sec = SectorLabel(400)
    lz = coherent_state(sec, 1.1, 0.3).projector()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lx = to_x_basis(lz)
        rotation = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, scenario._snapshot_csv(lx, 1.0)))
        formatter = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 20 * sec.dimension ** 2
    assert formatter < rotation


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
    assert (tmp_path / "both" / "snapshot_000.csv").read_text() == \
        "".join(scenario._snapshot_csv(rho, tau))


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
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*")
                 if p.is_file()}
        assert sorted(modes) == ["kernels.csv", "report.json", "snapshot_000.csv",
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

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 64)
    cfg = validate_config(small_config())
    values = [2, 4, 6]
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values)]
    sweep(copy.deepcopy(cfg), "N", [2], jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values)]  # one point runs serially
    # and at the number of processors
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 2)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2]
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: None)
    sweep(copy.deepcopy(cfg), "N", values, jobs=100000, output_dir=str(tmp_path))
    assert pools == [len(values), 2]  # unknown count: one worker, serial


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


def test_sweep_axes_constant():
    assert SWEEP_AXES == ("N", "beta", "alpha", "omega_0")


def test_runs_load_no_scipy(tmp_path):
    # only a Lorentzian's smooth tail moment still uses scipy (imported
    # there): neither the import nor a fig1 run and sweep loads any of it
    import spincat

    code = textwrap.dedent(f"""
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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spincat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "report.json").exists()
