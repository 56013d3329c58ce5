"""Layer probes: fixed inputs timed through each module's public calls.

The inputs do not depend on the workload or the seed, so every traced run
reports the same per-layer names and the numbers compare across commits.
Cheap calls are repeated and the median is kept; calls of a second or more
run once.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

import workloads

# A time whose whole spectrum (up to the structureless-tail split, 50-60
# omega_c for these baths, 8-10 omega_c for the tables) lies below pi/t.
HEAD_T = 0.03
N_VALUES = (50, 512, 1000)


def _timed(fn, *args, repeat=1):
    """(median seconds, last result) of ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        result = fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def _families():
    from spincat import lorentzian, ohmic, tabulated
    from spincat.scenario import build_scenario, preset_config, validate_config

    fig2 = build_scenario(validate_config(preset_config("fig2"))).spectrum
    table = workloads.tabulated_table(2, 1)
    return {
        "ohmic": ohmic(2.5e-5),
        "lorentzian": lorentzian(fig2.alpha, fig2.omega_c, fig2.omega_0),
        "tabulated": tabulated(table),
        "ohmic_thermal": ohmic(2.5e-5, beta=5.0),
        "tabulated_thermal": tabulated(table, beta=5.0),
    }


def _bath(fams, m: dict):
    from spincat import eval_g0, eval_gt

    omegas = [0.01 + 0.37 * k for k in range(200)]

    def per_call(fn, sd):
        def sweep_omegas():
            for w in omegas:
                fn(sd, w)
        return _timed(sweep_omegas, repeat=7)[0] / len(omegas) * 1e6

    for fam in ("ohmic", "lorentzian", "tabulated"):
        m[f"bath.eval_g0_us.{fam}"] = per_call(eval_g0, fams[fam])
    for fam in ("ohmic_thermal", "tabulated_thermal"):
        m[f"bath.eval_gt_us.{fam}"] = per_call(eval_gt, fams[fam])


def _kernels(fams, m: dict) -> dict:
    from spincat import (correlation_time, f_of_t, gamma_of_t, markov_limits,
                         solve_tau_mqs)

    taus = {}
    for fam, sd in fams.items():
        m[f"evolve.solve_tau_s.{fam}"], taus[fam] = _timed(solve_tau_mqs, sd)
        for stage, t in (("head", HEAD_T), ("tau", taus[fam])):
            m[f"kernels.f_of_t_ms.{fam}.{stage}"] = _timed(f_of_t, sd, t, repeat=3)[0] * 1e3
            m[f"kernels.gamma_of_t_ms.{fam}.{stage}"] = _timed(gamma_of_t, sd, t, repeat=3)[0] * 1e3
        m[f"kernels.correlation_time_ms.{fam}"] = _timed(correlation_time, sd, repeat=3)[0] * 1e3
        m[f"kernels.markov_limits_ms.{fam}"] = _timed(markov_limits, sd, repeat=3)[0] * 1e3
    return taus


def _tabulate(m: dict):
    from spincat import tabulate_kernels
    from spincat.scenario import build_scenario, preset_config, validate_config

    for name in ("fig1", "fig2"):
        cfg = validate_config(preset_config(name))
        grid = cfg["time_grid"]
        space = np.geomspace if grid["kind"] == "log" else np.linspace
        times = space(grid["start"], grid["stop"], grid["count"])
        sd = build_scenario(cfg).spectrum
        m[f"kernels.tabulate_kernels_s.{name}"] = _timed(tabulate_kernels, sd, times)[0]


def _dicke_evolve(sd, tau: float, m: dict):
    from spincat import (Basis, DickeDensityMatrix, EvolutionParams, SectorLabel,
                         assess_mqs, coherent_state, evolve_state, fidelity,
                         mqs_target, snapshot_series, to_x_basis)

    for n in N_VALUES:
        tag = f"N{n}"
        reps = 5 if n < 512 else (2 if n < 1000 else 1)
        sector = SectorLabel(n)
        t, initial = _timed(coherent_state, sector, math.pi / 4, 0.0, repeat=5)
        m[f"dicke.coherent_state_ms.{tag}"] = t * 1e3
        params = EvolutionParams(sd, sector, initial)
        m[f"evolve.evolve_state_s.{tag}"], rho = _timed(evolve_state, params, tau, repeat=reps)
        m[f"dicke.validate_s.{tag}"] = _timed(DickeDensityMatrix, sector, rho.elements,
                                              Basis.LZ, repeat=reps)[0]
        t = _timed(to_x_basis, rho, repeat=reps)[0]
        d = sector.dimension
        flops = 16.0 * d ** 3  # two d x d complex matrix products, computed from d
        m[f"dicke.to_x_basis_s.{tag}"] = t
        m[f"dicke.to_x_flops_computed.{tag}"] = flops
        m[f"dicke.to_x_gflops.{tag}"] = flops / t / 1e9
        target = mqs_target(sector, math.pi / 4, 0.0)
        m[f"dicke.fidelity_ms.{tag}"] = _timed(fidelity, rho, target, repeat=5)[0] * 1e3
        m[f"evolve.assess_mqs_s.{tag}"] = _timed(assess_mqs, params)[0]
        if n == 1000:
            m[f"evolve.snapshot_series_s.{tag}"] = _timed(
                snapshot_series, params, [tau], Basis.LX)[0]


def run() -> dict:
    """Every probe metric, by name."""
    m: dict = {}
    fams = _families()
    _bath(fams, m)
    taus = _kernels(fams, m)
    _tabulate(m)
    _dicke_evolve(fams["ohmic"], taus["ohmic"], m)
    return m
