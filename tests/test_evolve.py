"""Exact dephasing propagation, target construction, and formation analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spincat import brent, kernels
from spincat.bath import lorentzian, ohmic, tabulated
from spincat.dicke import (
    Basis,
    SectorLabel,
    coherence_corner,
    coherent_state,
    fidelity,
    purity,
    to_x_basis,
)
from spincat.errors import (KernelDivergenceError, NoFormationError, UsageError,
                            WidthUndefinedError)
from spincat.evolve import (
    EvolutionParams,
    _dephase,
    MqsConvention,
    assess_mqs,
    evolve_state,
    mqs_target,
    snapshot_series,
    solve_bath,
    solve_tau_mqs,
)
from spincat.kernels import MarkovLimits, correlation_time, f_of_t, gamma_of_t, markov_limits
from spincat.scenario import build_scenario, preset_config, validate_config

HALF_PI = math.pi / 2.0


def equator_params(n, alpha=2.5e-5, **kw):
    sec = SectorLabel(n)
    ini = coherent_state(sec, math.pi / 2.0, 0.0)
    return EvolutionParams(ohmic(alpha), sec, ini, **kw)


# ---------------------------------------------------------------------------
# evolve_state


def test_time_zero_returns_initial_projector():
    p = equator_params(4)
    rho = evolve_state(p, 0.0)
    expected = np.outer(p.initial.amplitudes, p.initial.amplitudes.conj())
    assert rho.basis_tag is Basis.LZ
    assert np.array_equal(rho.elements, expected)


def test_populations_invariant():
    p = equator_params(6)
    d0 = np.diag(evolve_state(p, 0.0).elements)
    for t in (0.5, 37.0, 8.1e3, 2.4e5):
        assert np.array_equal(np.diag(evolve_state(p, t).elements), d0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), theta=st.floats(0.0, math.pi), phi=st.floats(-math.pi, math.pi),
       t=st.floats(0.0, 1e6), f=st.floats(-1e3, 1e3), gamma=st.floats(0.0, 1e3))
def test_propagator_conserves_populations_exactly(n, theta, phi, t, f, gamma):
    # the propagator evolve_state applies, for any kernel values f(t), Gamma(t)
    sec = SectorLabel(n)
    ini = coherent_state(sec, theta, phi)
    rho = _dephase(EvolutionParams(ohmic(2.5e-5), sec, ini), t, f, gamma)
    assert np.array_equal(np.diag(rho.elements), ini.amplitudes * ini.amplitudes.conj())


@pytest.mark.parametrize("n", [1, 2, 5, 64, 255])
def test_built_density_matrices_are_physical_and_read_only(n):
    # the package builds these without the constructor's checks; check here
    sec = SectorLabel(n)
    p = EvolutionParams(ohmic(2.5e-5), sec, coherent_state(sec, math.pi / 4, 0.3))
    tau = solve_tau_mqs(p.spectrum)
    for rho in (p.initial.projector(), evolve_state(p, 0.4 * tau), evolve_state(p, tau)):
        for r in (rho, to_x_basis(rho)):
            el = r.elements
            assert np.max(np.abs(el - el.conj().T)) <= 1e-12
            assert abs(np.trace(el) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(el)[0] >= -1e-10
            assert not el.flags.writeable
            with pytest.raises(ValueError):
                el[0, 0] = 0.0


def test_zero_decoherence_hook_preserves_purity():
    p = equator_params(8, force_zero_decoherence=True)
    for t in (1.0, 1e3, 1e5):
        assert purity(evolve_state(p, t)) == pytest.approx(1.0, abs=1e-12)


def test_coherence_decay_grouped_by_m_difference():
    # |rho_{mm'}(t)| / |rho_{mm'}(0)| must equal exp(-t*Gamma*(m-m')**2):
    # identical within a group of fixed |m-m'| and strictly ordered across groups
    p = equator_params(6, alpha=0.05)
    t = 12.0
    r0 = np.abs(evolve_state(p, 0.0).elements)
    rt = np.abs(evolve_state(p, t).elements)
    ratio = rt / r0
    m = p.sector.m_values()
    dm2 = (m[:, None] - m[None, :]) ** 2
    levels = {}
    for k in np.unique(dm2):
        vals = ratio[dm2 == k]
        assert np.ptp(vals) < 1e-12
        levels[float(k)] = float(vals[0])
    keys = sorted(levels)
    assert levels[keys[0]] == pytest.approx(1.0, abs=1e-15)
    for a, b in zip(keys, keys[1:]):
        assert levels[b] < levels[a]
    gamma = gamma_of_t(p.spectrum, t)
    for k in keys:
        assert levels[k] == pytest.approx(math.exp(-t * gamma * k), rel=1e-12)


def test_strong_coupling_fully_dephases():
    p = equator_params(2, alpha=5.0)
    rho = evolve_state(p, 1e4).elements
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-15
    assert np.real(np.diag(rho)) == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert purity(evolve_state(p, 1e4)) == pytest.approx(3.0 / 8.0, abs=1e-12)


def test_small_system_elementwise_against_direct_formula():
    # independent reconstruction from closed-form Ohmic kernels
    alpha, omega_c = 3e-4, 2.0
    sd = ohmic(alpha, omega_c)
    sec = SectorLabel(2)
    theta, phi = 1.1, 0.4
    ini = coherent_state(sec, theta, phi)
    p = EvolutionParams(sd, sec, ini)
    for t in (0.7, 55.0, 4.2e3):
        f = alpha * (omega_c * t - math.atan(omega_c * t)) / t
        g = alpha * math.log1p((omega_c * t) ** 2) / (2.0 * t)
        m = np.array([1.0, 0.0, -1.0])
        c = ini.amplitudes
        expected = np.empty((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                expected[i, j] = (c[i] * np.conj(c[j])
                                  * np.exp(-1j * t * f * (m[i] ** 2 - m[j] ** 2))
                                  * np.exp(-t * g * (m[i] - m[j]) ** 2))
        got = evolve_state(p, t).elements
        assert np.max(np.abs(got - expected)) < 1e-12


def test_evolve_state_takes_one_kernel_integral(monkeypatch):
    # f and Gamma at a new time come from one integral there; a spectrum
    # whose Gamma diverges raises after f, unless Gamma is forced off
    integrals = []
    integral = kernels._kernel_integral
    monkeypatch.setattr(kernels, "_kernel_integral", lambda sd, times: (
        integrals.append(times.tolist()) or integral(sd, times)))
    rho = evolve_state(equator_params(6), 123.25).elements
    assert integrals == [[123.25]]
    assert np.array_equal(rho, _dephase(equator_params(6), 123.25, f_of_t(ohmic(2.5e-5), 123.25),
                                        gamma_of_t(ohmic(2.5e-5), 123.25)).elements)
    hot = lorentzian(1.0, 1.0, 3.0, beta=2.0)
    ini = coherent_state(SectorLabel(6), math.pi / 2.0, 0.0)
    integrals.clear()
    with pytest.raises(KernelDivergenceError):
        evolve_state(EvolutionParams(hot, SectorLabel(6), ini), 1.0)
    evolve_state(EvolutionParams(hot, SectorLabel(6), ini, force_zero_decoherence=True), 1.0)
    assert integrals == [[1.0], [1.0]]


def test_evolve_rejects_negative_time():
    p = equator_params(2)
    with pytest.raises(UsageError):
        evolve_state(p, -1.0)


def test_params_reject_sector_mismatch():
    sec = SectorLabel(4)
    ini = coherent_state(SectorLabel(2), 1.0, 0.0)
    with pytest.raises(UsageError):
        EvolutionParams(ohmic(1e-4), sec, ini)


def test_params_reject_x_basis_initial():
    sec = SectorLabel(2)
    amp = np.zeros(3)
    amp[0] = 1.0
    ini = coherent_state(sec, 0.0, 0.0)
    from spincat.dicke import DickeState

    xstate = DickeState(sec, ini.amplitudes, Basis.LX)
    with pytest.raises(UsageError):
        EvolutionParams(ohmic(1e-4), sec, xstate)


def test_params_reject_bad_horizon():
    sec = SectorLabel(2)
    ini = coherent_state(sec, 1.0, 0.0)
    with pytest.raises(UsageError):
        EvolutionParams(ohmic(1e-4), sec, ini, solve_horizon_factor=1.0)


def test_params_coerce_convention_strings():
    p = equator_params(2, mqs_convention="antipodal")
    assert p.mqs_convention is MqsConvention.ANTIPODAL


# ---------------------------------------------------------------------------
# mqs_target


def test_target_is_normalized():
    for conv in MqsConvention:
        for n in (2, 3, 5, 8):
            t = mqs_target(SectorLabel(n), 0.9, 1.7, conv)
            assert np.linalg.norm(t.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_antipodal_pole_target_is_ghz_like():
    t = mqs_target(SectorLabel(6), 0.0, 0.3, MqsConvention.ANTIPODAL)
    a = np.abs(t.amplitudes)
    s = 1.0 / math.sqrt(2.0)
    assert a[0] == pytest.approx(s, abs=1e-12)
    assert a[-1] == pytest.approx(s, abs=1e-12)
    assert np.max(a[1:-1]) < 1e-12


def test_twist_pole_target_collapses_to_pole():
    # at theta = 0 the two twist branches are the same physical state
    for n in (2, 3, 4, 5):
        sec = SectorLabel(n)
        t = mqs_target(sec, 0.0, 0.7, MqsConvention.TWIST)
        pole = coherent_state(sec, 0.0, 0.7)
        assert abs(np.vdot(pole.amplitudes, t.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_equator_conventions_coincide_for_even_l():
    tw = mqs_target(SectorLabel(4), HALF_PI, 0.0, MqsConvention.TWIST)
    ap = mqs_target(SectorLabel(4), HALF_PI, 0.0, MqsConvention.ANTIPODAL)
    assert abs(np.vdot(ap.amplitudes, tw.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_equator_conventions_orthogonal_for_odd_l():
    # the parity sign flips the quarter-wave phases for odd l
    tw = mqs_target(SectorLabel(2), HALF_PI, 0.0, MqsConvention.TWIST)
    ap = mqs_target(SectorLabel(2), HALF_PI, 0.0, MqsConvention.ANTIPODAL)
    assert abs(np.vdot(ap.amplitudes, tw.amplitudes)) ** 2 < 1e-24


def test_target_requires_symmetric_sector():
    with pytest.raises(UsageError):
        mqs_target(SectorLabel(4, 1.0), 1.0, 0.0)


# ---------------------------------------------------------------------------
# solve_tau_mqs


def test_formation_time_matches_scalar_oracle():
    alpha, omega_c = 2.5e-5, 1.0
    sd = ohmic(alpha, omega_c)
    tau = solve_tau_mqs(sd)
    # independent root of alpha*(x - atan x) = pi/2 using the closed form only
    oracle = brentq(lambda x: alpha * (x - math.atan(x)) - HALF_PI,
                    1.0, 1e9, rtol=8.9e-16) / omega_c
    assert tau == pytest.approx(oracle, rel=1e-9)
    assert abs(tau * f_of_t(sd, tau) - HALF_PI) <= 1e-9 * HALF_PI


def test_formation_time_scales_down_with_coupling():
    assert solve_tau_mqs(ohmic(5e-5)) < solve_tau_mqs(ohmic(2.5e-5))


def test_formation_time_omega_c_scaling():
    assert solve_tau_mqs(ohmic(2.5e-5, omega_c=10.0)) == pytest.approx(
        solve_tau_mqs(ohmic(2.5e-5, omega_c=1.0)) / 10.0, rel=1e-9)


def test_no_formation_raises_with_estimate():
    with pytest.raises(NoFormationError) as exc:
        solve_tau_mqs(ohmic(1e-30), horizon_factor=1e4)
    assert exc.value.estimate is not None
    assert 0.0 <= exc.value.estimate < HALF_PI


def test_lorentzian_formation_time_is_root():
    sd = lorentzian(0.042987621655032664, 1.0, 10.0)
    tau = solve_tau_mqs(sd)
    assert abs(tau * f_of_t(sd, tau) - HALF_PI) <= 1e-9 * HALF_PI
    assert tau == pytest.approx(100.0, rel=1e-6)


def test_solve_bath_keeps_kernels_at_tau_and_solves_once():
    sd = ohmic(2.5e-5)
    solve_bath.cache_clear()
    bath = solve_bath(sd, 1e6)
    assert solve_tau_mqs(sd) == bath.tau
    assert bath.f_tau == f_of_t(sd, bath.tau)
    assert bath.gamma_tau == gamma_of_t(sd, bath.tau)
    rep = assess_mqs(equator_params(10))
    assert (rep.tau_mqs, rep.f_at_tau, rep.gamma_at_tau) == \
           (bath.tau, bath.f_tau, bath.gamma_tau)
    assert solve_bath.cache_info().misses == 1


def test_solve_bath_failures_are_not_cached():
    solve_bath.cache_clear()
    for _ in range(2):
        with pytest.raises(NoFormationError):
            solve_bath(ohmic(1e-30), 1e4)
    assert solve_bath.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# solve_bath: a bracket seeded from the Markov rate, no time integrated twice


def _workload_table(amp, width):
    # the 24-knot Ohmic-like table with a smooth bump of the benchmark
    w_max = 8.0 * width
    bump = lambda w: 1.0 + 0.25 * math.sin(math.pi * w / w_max)
    return [[w, 2.5e-5 * amp * w * math.exp(-w / width) * bump(w)]
            for w in (w_max * k / 23 for k in range(24))]


def _preset_bath(name):
    params = build_scenario(validate_config(preset_config(name)))
    return params.spectrum, params.solve_horizon_factor


# tau of each bath's solve, bracketed from (pi/2)/f_M, frozen to full precision
_BATHS = {
    "fig1": (lambda: _preset_bath("fig1"), 62833.42385220755),
    "fig2": (lambda: _preset_bath("fig2"), 100.0),
    "phonon": (lambda: _preset_bath("phonon"), 7.853983204770683e-07),
    "cavity": (lambda: _preset_bath("cavity"), 0.015797073641955265),
    "tabulated": (lambda: (tabulated(_workload_table(1.0, 1.1)), 1e6), 55386.88886411239),
    "tabulated-thermal": (lambda: (tabulated(_workload_table(0.8, 0.9), beta=2.0), 1e6),
                          84618.54902252425),
}


def _fresh_solve(monkeypatch, sd, horizon_factor, roots=None):
    """Solve with every bath memo cleared; return the solution (or the
    error raised) and the time of each kernel integral (each gives f and
    Gamma there).  ``roots``, when given, gets the number of integrals made
    whenever ``brent.root`` returns."""
    for cached in (solve_bath, markov_limits):
        cached.cache_clear()
    integrals = []
    integral, root = kernels._kernel_integral, brent.root

    def counted(sd, times):
        integrals.extend(times.tolist())
        return integral(sd, times)

    monkeypatch.setattr(kernels, "_kernel_integral", counted)
    if roots is not None:
        monkeypatch.setattr(brent, "root", lambda *args, **kwargs: (
            root(*args, **kwargs), roots.append(len(integrals)))[0])
    try:
        return solve_bath(sd, horizon_factor), integrals
    except Exception as exc:  # returned for the test to inspect
        return exc, integrals


@pytest.mark.parametrize("name", sorted(_BATHS))
def test_solve_bath_takes_a_handful_of_kernel_integrals(monkeypatch, name):
    make, tau = _BATHS[name]
    roots = []
    bath, integrals = _fresh_solve(monkeypatch, *make(), roots=roots)
    # Markov sample, bracket and Brent, none at a time seen before; Gamma(tau)
    # comes from Brent's integral at tau, so no integral follows the root
    assert len(integrals) <= 9
    assert len(set(integrals)) == len(integrals)
    assert roots[-1] == len(integrals)
    assert bath.tau == pytest.approx(tau, rel=1e-14, abs=0.0)
    assert abs(bath.tau * bath.f_tau - HALF_PI) <= 1e-9 * HALF_PI


@pytest.mark.parametrize("sd, tau, ends", [
    # f(start) < f_M: double up
    (lorentzian(0.042987621655032664, 1.0, 10.0), 100.0, ("start", "double")),
    # G_0(0) > 0 keeps f growing past f_M: halve down
    (tabulated([[0.0, 1e-7], [1.0, 2e-5], [4.0, 2e-5], [8.0, 0.0]]), 27884.63918053878,
     ("half", "start")),
    # the Markov sample lies between the start and its half, or its double,
    # and closes the bracket at no cost
    (ohmic(2.6e-3), 605.7215787874289, ("markov", "start")),
    (ohmic(5.2e-3), 303.64371969664006, ("start", "markov")),
], ids=["double-up", "halve-down", "markov-below", "markov-above"])
def test_solve_bath_brackets_from_the_markov_rate(monkeypatch, sd, tau, ends):
    brackets = []  # correlation_time finds its crossings first
    root = brent.root
    monkeypatch.setattr(brent, "root",
                        lambda g, a, b, **kw: brackets.append((a, b)) or root(g, a, b, **kw))
    bath, integrals = _fresh_solve(monkeypatch, sd, 1e6)
    markov = markov_limits(sd)
    start = HALF_PI / markov.f_markov
    named = {"start": start, "double": 2.0 * start, "half": start / 2.0,
             "markov": markov.t_eval}
    assert brackets[-1] == tuple(named[e] for e in ends)
    assert len(set(integrals)) == len(integrals)
    assert bath.tau == pytest.approx(tau, rel=1e-14, abs=0.0)


def test_solve_bath_start_clamped_to_the_horizon(monkeypatch):
    # (pi/2)/f_M lies far beyond the horizon: the start is clamped to it, so
    # the solve integrates the Markov sample and the horizon only, and
    # reports t*f at the horizon
    err, integrals = _fresh_solve(monkeypatch, ohmic(1e-12), 1e6)
    assert isinstance(err, NoFormationError)
    assert str(err) == ("accumulated phase t*f(t) reaches only 4.0876466034234227e-07 "
                        "(< pi/2) up to the horizon t = 408766.2310295002")
    assert err.estimate == 4.0876466034234227e-07
    horizon = 1e6 * correlation_time(ohmic(1e-12))
    assert integrals == [markov_limits(ohmic(1e-12)).t_eval, horizon]


def test_solve_bath_without_a_positive_markov_rate_starts_at_t_corr(monkeypatch):
    # the doubling from t_corr finds the same bracket and root
    sd, horizon_factor = _preset_bath("fig1")
    monkeypatch.setattr(kernels, "markov_limits",
                        lambda sd: MarkovLimits(0.0, 0.0, math.inf, correlation_time(sd)))
    bath, _ = _fresh_solve(monkeypatch, sd, horizon_factor)
    solve_bath.cache_clear()  # solved from a stand-in Markov sample
    assert bath.tau == pytest.approx(_BATHS["fig1"][1], rel=1e-14, abs=0.0)


def test_solve_bath_zero_coupling_has_no_width(monkeypatch):
    # correlation_time raises before any kernel is integrated
    err, integrals = _fresh_solve(monkeypatch, ohmic(0.0), 1e6)
    assert isinstance(err, WidthUndefinedError)
    assert integrals == []


# ---------------------------------------------------------------------------
# assess_mqs


def test_assessment_zero_decoherence_is_ideal():
    for n in (2, 4, 10):
        rep = assess_mqs(equator_params(n, force_zero_decoherence=True))
        assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        assert rep.corner == pytest.approx(0.5, abs=1e-10)
        assert rep.purity == pytest.approx(1.0, abs=1e-10)
        assert rep.gamma_at_tau == 0.0
        assert rep.n_max is None
        assert rep.feasible
        assert rep.convention_used == "twist"


def test_assessment_survival_bound():
    rep = assess_mqs(equator_params(50))
    assert rep.n_max == 60
    assert rep.tau_mqs * rep.gamma_at_tau == pytest.approx(2.7620606094865967e-4, rel=1e-6)
    assert rep.feasible  # 50 < 60
    rep100 = assess_mqs(equator_params(100))
    assert not rep100.feasible  # 100 > 60, same bath
    assert rep100.n_max == 60


def test_assessment_requires_preparation_angles():
    sec = SectorLabel(2)
    ini = coherent_state(sec, 1.0, 0.0)
    from spincat.dicke import DickeState

    anon = DickeState(sec, ini.amplitudes, Basis.LZ, bloch=None)
    p = EvolutionParams(ohmic(2.5e-5), sec, anon)
    with pytest.raises(UsageError):
        assess_mqs(p)


def test_assessment_reports_convention():
    rep = assess_mqs(equator_params(4, mqs_convention=MqsConvention.ANTIPODAL,
                                    force_zero_decoherence=True))
    assert rep.convention_used == "antipodal"
    # even l on the equator: antipodal target equals the twist one
    assert rep.fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 513])
def test_assessment_corner_matches_full_rotation(n):
    sec = SectorLabel(n)
    tilted = EvolutionParams(ohmic(2.5e-5), sec, coherent_state(sec, math.pi / 4, 0.0))
    for p in (equator_params(n), equator_params(n, force_zero_decoherence=True), tilted):
        rep = assess_mqs(p)
        rho = evolve_state(p, rep.tau_mqs)
        assert abs(rep.corner - coherence_corner(to_x_basis(rho))) <= 1e-15


def test_assessment_fidelity_decreases_with_decoherence():
    ideal = assess_mqs(equator_params(10, force_zero_decoherence=True))
    real = assess_mqs(equator_params(10))
    assert real.fidelity < ideal.fidelity
    assert real.purity < 1.0
    assert real.corner < 0.5


# ---------------------------------------------------------------------------
# snapshot_series


def test_snapshot_series_matches_single_evolutions():
    p = equator_params(4)
    times = [0.0, 10.0, 3.3e4]
    series = snapshot_series(p, times)
    assert len(series) == 3
    for t, rho in zip(times, series):
        assert rho.basis_tag is Basis.LZ
        assert np.array_equal(rho.elements, evolve_state(p, t).elements)


def test_snapshot_series_x_basis():
    p = equator_params(4)
    series = snapshot_series(p, [5.0, 500.0], basis=Basis.LX)
    for t, rho in zip([5.0, 500.0], series):
        assert rho.basis_tag is Basis.LX
        expected = to_x_basis(evolve_state(p, t)).elements
        assert np.max(np.abs(rho.elements - expected)) < 1e-14
