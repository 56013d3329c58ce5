"""Kernel quadrature against closed forms and frozen high-precision values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincat.bath import ThermalConvention, lorentzian, ohmic, tabulated
from spincat.errors import DomainError, KernelDivergenceError, WidthUndefinedError
from spincat.kernels import (
    correlation_time,
    f_of_t,
    gamma_of_t,
    markov_limits,
    tabulate_kernels,
)

# Frozen to full double precision from two independent high-precision
# methods (contour-rotated mpmath quadrature cross-checked against
# oscillatory-series assembly); entries are (t, t*f(t), t*Gamma(t)) for
# the unit-coupling spectrum named in each table.

# Lorentzian, width 1, center 10, zero temperature, alpha = 1
_LORENTZIAN_10 = [
    (0.1, 0.0048749214935960894, 0.013654624403302152),
    (1.0, 0.32068064940173895, 0.061409271949098829),
    (10.0, 3.4232883811583333, 0.19521567821539351),
    (100.0, 36.540666041034618, 1.5994502830842873),
    (1000.0, 388.23227856635819, 15.601159700698716),
]

# Lorentzian, width 1, center 1e4, zero temperature, alpha = 1
_LORENTZIAN_1E4 = [
    (0.5, 0.00015713392248306624, 3.6343697557967369e-08),
    (100.0, 0.031428318944704346, 1.602240022132267e-06),
    (1e4, 3.1432924117954463, 0.00015711108403007887),
    (1e6, 314.37529288125501, 0.015707994573001061),
]


def _ohmic_f(alpha, t):
    return alpha * (t - math.atan(t)) / t


def _ohmic_gamma(alpha, t):
    return alpha * math.log1p(t * t) / (2.0 * t)


def test_ohmic_closed_form_tight():
    sd = ohmic(2.5e-5)
    for t in np.geomspace(1e-2, 1e6, 17):
        t = float(t)
        assert f_of_t(sd, t) == pytest.approx(_ohmic_f(2.5e-5, t), rel=1e-9)
        assert gamma_of_t(sd, t) == pytest.approx(_ohmic_gamma(2.5e-5, t), rel=1e-9)


def test_ohmic_scaling_in_cutoff():
    # omega_c rescales time: f(alpha, w_c; t) = w_c * f(alpha, 1; w_c t)
    sd1 = ohmic(0.3, 1.0)
    sd4 = ohmic(0.3, 4.0)
    for t in (0.05, 1.3, 40.0):
        assert f_of_t(sd4, t) == pytest.approx(4.0 * f_of_t(sd1, 4.0 * t), rel=1e-10)
        assert gamma_of_t(sd4, t) == pytest.approx(
            4.0 * gamma_of_t(sd1, 4.0 * t), rel=1e-10)


def test_lorentzian_frozen_center_10():
    sd = lorentzian(1.0, 1.0, 10.0)
    for t, tf, tg in _LORENTZIAN_10:
        assert t * f_of_t(sd, t) == pytest.approx(tf, rel=1e-11)
        assert t * gamma_of_t(sd, t) == pytest.approx(tg, rel=1e-11)


def test_lorentzian_frozen_center_1e4():
    sd = lorentzian(1.0, 1.0, 1e4)
    for t, tf, tg in _LORENTZIAN_1E4:
        # the first phase point is frozen at looser precision (the two
        # reference methods agree to ~2e-8 relative there)
        rel = 1e-7 if t == 0.5 else 1e-11
        assert t * f_of_t(sd, t) == pytest.approx(tf, rel=rel)
        assert t * gamma_of_t(sd, t) == pytest.approx(tg, rel=1e-11)


def test_tabulated_matches_direct_quadrature():
    from scipy.integrate import quad

    sd = tabulated([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])

    def g(w):
        return w if w <= 1.0 else 2.0 - w

    for t in (0.3, 2.0, 17.0):
        tf_ref = sum(
            quad(lambda w: g(w) * (w * t - math.sin(w * t)) / w**2, a, b,
                 limit=400, epsabs=1e-15, epsrel=1e-13)[0]
            for a, b in ((1e-12, 1.0), (1.0, 2.0)))
        tg_ref = sum(
            quad(lambda w: g(w) * (1.0 - math.cos(w * t)) / w**2, a, b,
                 limit=400, epsabs=1e-15, epsrel=1e-13)[0]
            for a, b in ((1e-12, 1.0), (1.0, 2.0)))
        assert t * f_of_t(sd, t) == pytest.approx(tf_ref, rel=1e-9)
        assert t * gamma_of_t(sd, t) == pytest.approx(tg_ref, rel=1e-9)


def _thermal_ohmic_t_gamma(alpha, omega_c, beta, t):
    """``t*Gamma(t)`` for ``G_T = alpha w exp(-w/omega_c) coth(beta w / 2)``.

    A closed form with no quadrature in it: expanding
    ``coth(x/2) = 1 + 2 sum_k exp(-k x)`` and summing with
    ``prod_k (1 + x**2/(k+c)**2) = |Gamma(1+c)|**2 / |Gamma(1+c+ix)|**2``
    gives, with ``c = 1/(beta omega_c)``::

        t Gamma = alpha [ln(1 + omega_c**2 t**2)/2
                         + 2 Re lnGamma(1+c) - 2 Re lnGamma(1+c+it/beta)]

    The two lnGamma terms cancel to a small difference at small ``t``, so
    they are taken at 40 digits.
    """
    import mpmath

    with mpmath.workdps(40):
        t, beta = mpmath.mpf(t), mpmath.mpf(beta)
        c = 1 / (beta * omega_c)
        value = alpha * (mpmath.log1p((omega_c * t) ** 2) / 2
                         + 2 * mpmath.re(mpmath.loggamma(1 + c))
                         - 2 * mpmath.re(mpmath.loggamma(1 + c + 1j * t / beta)))
        return float(value)


def _check_thermal_ohmic_gamma(omega_c, beta, convention):
    # coth(beta w) is coth(beta' w / 2) with beta' = 2 beta; t covers the
    # head, mid-panel and tail regimes
    alpha = 0.3
    sd = ohmic(alpha, omega_c, beta=beta, thermal_convention=convention)
    beta_half = beta if convention is ThermalConvention.COTH_HALF else 2.0 * beta
    for t in np.geomspace(1e-3, 1e6, 19).tolist():
        assert t * gamma_of_t(sd, t) == pytest.approx(
            _thermal_ohmic_t_gamma(alpha, omega_c, beta_half, t), rel=1e-9)


# beta * omega_c from 0.3 up to 1e5: at low temperature the head holds a
# G_T that changes character over several decades below omega_c
@pytest.mark.parametrize("beta", [0.3, 5.0, 200.0, 3000.0, 1e4, 1e5])
@pytest.mark.parametrize("convention", list(ThermalConvention))
def test_thermal_ohmic_gamma_matches_closed_form(beta, convention):
    _check_thermal_ohmic_gamma(1.0, beta, convention)


def test_thermal_ohmic_gamma_matches_closed_form_at_high_cutoff():
    _check_thermal_ohmic_gamma(40.0, 200.0, ThermalConvention.COTH_HALF)


def _tabulated_t_kernels(table, t):
    """``(t*f(t), t*Gamma(t))`` of a tabulated zero-temperature spectrum.

    A closed form with no quadrature in it: on a segment where
    ``G_0 = p + q w``, with ``x = w t``, the antiderivatives are::

        t f:     p [t ln w + sin(x)/w - t Ci(x)] + q [t w - Si(x)]
        t Gamma: p [(cos(x) - 1)/w + t Si(x)] + q [ln w - Ci(x)]

    whose limits at ``w = 0`` are ``p t (1 - gamma_E - ln t)`` and
    ``-q (gamma_E + ln t)``.  The segments are summed at 40 digits.
    """
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(t)

        def antiderivatives(w, p, q):
            if w == 0:
                return (p * t * (1 - mpmath.euler - mpmath.log(t)),
                        -q * (mpmath.euler + mpmath.log(t)))
            x = w * t
            si, ci = mpmath.si(x), mpmath.ci(x)
            return (p * (t * mpmath.log(w) + mpmath.sin(x) / w - t * ci) + q * (t * w - si),
                    p * ((mpmath.cos(x) - 1) / w + t * si) + q * (mpmath.log(w) - ci))

        tf = tg = mpmath.mpf(0)
        for (wa, ga), (wb, gb) in zip(table, table[1:]):
            wa, ga, wb, gb = map(mpmath.mpf, (wa, ga, wb, gb))
            q = (gb - ga) / (wb - wa)
            fa, ga_ = antiderivatives(wa, ga - q * wa, q)
            fb, gb_ = antiderivatives(wb, ga - q * wa, q)
            tf += fb - fa
            tg += gb_ - ga_
        return float(tf), float(tg)


@pytest.mark.parametrize("table", [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
    [[0.5, 2.0], [0.75, 0.1], [3.0, 4.0], [10.0, 1e-3]],  # support above 0
    [[0.0, 1.0], [2.0, 0.5]],                              # G_0(0) > 0
], ids=["triangle", "offset", "origin"])
def test_tabulated_kernels_match_closed_form(table):
    sd = tabulated(table)
    # pi/t above the support (head only), inside it, and below its first knot
    for t in (0.01, 0.3, 1.0, 3.0, 20.0, 300.0, 1e4):
        tf, tg = _tabulated_t_kernels(table, t)
        assert t * f_of_t(sd, t) == pytest.approx(tf, rel=1e-9)
        assert t * gamma_of_t(sd, t) == pytest.approx(tg, rel=1e-9)


def test_dense_table_matches_closed_form():
    # every knot is a kink, and a kink inside a panel costs its rule the
    # accuracy: with one knot in 16 marked, t*f misses the contract by up
    # to 3.6e-9 at the mid-panel and below-first-knot times
    w = np.linspace(0.0, 8.0, 1000)
    table = [[a, b] for a, b in zip(
        w.tolist(), (2.5e-5 * w * np.exp(-w) * (1 + 0.25 * np.sin(7 * w))).tolist())]
    sd = tabulated(table)
    for t in (0.3, 20.0, 1e4):
        tf, tg = _tabulated_t_kernels(table, t)
        assert t * f_of_t(sd, t) == pytest.approx(tf, rel=1e-9)
        assert t * gamma_of_t(sd, t) == pytest.approx(tg, rel=1e-9)


def test_thermal_gamma_plateau():
    # finite-temperature decoherence rate approaches (pi/2) * G_T(0+)
    alpha, beta = 1.0, 2.0
    sd = ohmic(alpha, 1.0, beta=beta)
    target = 0.5 * math.pi * alpha / beta
    assert gamma_of_t(sd, 2e4) == pytest.approx(target, rel=1e-3)
    half = ohmic(alpha, 1.0, beta=beta,
                 thermal_convention=ThermalConvention.COTH_HALF)
    assert gamma_of_t(half, 2e4) == pytest.approx(2.0 * target, rel=1e-3)


def test_domain_errors():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        f_of_t(sd, 0.0)
    with pytest.raises(DomainError):
        f_of_t(sd, -1.0)
    with pytest.raises(DomainError):
        gamma_of_t(sd, 0.0)
    # pi/t overflows below about 1.7e-308, t*t above about 1.34e154: out of
    # the kernels' domain
    for t in (1e-310, 1.7e-308, 1.4e154, 1e300, math.inf):
        with pytest.raises(DomainError):
            f_of_t(ohmic(1e-3), t)
        with pytest.raises(DomainError):
            gamma_of_t(ohmic(1e-3), t)
    assert f_of_t(ohmic(1e-3), 1e-300) == 0.0
    # the largest accepted time meets the contract
    assert f_of_t(ohmic(1e-3), 1.3e154) == pytest.approx(_ohmic_f(1e-3, 1.3e154), rel=1e-9)
    assert gamma_of_t(ohmic(1e-3), 1.3e154) == pytest.approx(
        _ohmic_gamma(1e-3, 1.3e154), rel=1e-9)


def test_infrared_divergent_gamma_raises():
    # finite-temperature spectrum with G0(0) > 0: Gamma(t) has no finite value
    sd = lorentzian(1.0, 1.0, 3.0, beta=2.0)
    with pytest.raises(KernelDivergenceError):
        gamma_of_t(sd, 1.0)
    # the phase kernel only needs G0 and stays well defined
    assert f_of_t(sd, 1.0) > 0.0


def test_correlation_time_frozen_values():
    assert correlation_time(ohmic(1.0)) == pytest.approx(
        0.4087662310295002, rel=1e-12)
    # alpha does not move the half-maximum width
    assert correlation_time(ohmic(2.5e-5)) == pytest.approx(
        0.4087662310295002, rel=1e-12)
    # cutoff scaling: t_c ~ 1/omega_c
    assert correlation_time(ohmic(1.0, 5.0)) == pytest.approx(
        0.4087662310295002 / 5.0, rel=1e-10)
    # detuned line of width w_c: FWHM = 2 w_c so t_c = 1/(2 w_c)
    assert correlation_time(lorentzian(1.0, 1.0, 10.0)) == pytest.approx(
        0.5, rel=1e-9)
    # narrow line far from the origin (below grid resolution)
    assert correlation_time(lorentzian(1.0, 1e6, 1e10)) == pytest.approx(
        0.5e-6, rel=1e-6)


def test_correlation_time_errors():
    with pytest.raises(WidthUndefinedError):
        correlation_time(lorentzian(1.0, 1.0, 3.0, beta=2.0))
    with pytest.raises(WidthUndefinedError):
        correlation_time(tabulated([[0.0, 0.0], [1.0, 0.0]]))


def test_markov_limits_thermal_ohmic():
    sd = ohmic(1.0, 1.0, beta=2.0)
    lim = markov_limits(sd)
    assert lim.gamma_markov == pytest.approx(math.pi / 4.0, rel=1e-14)
    # the sampling time sits at 1e3 memory times of the thermal profile
    assert lim.t_corr == correlation_time(sd)
    assert lim.t_eval == 1e3 * lim.t_corr
    assert lim.warnings == ()
    # f_markov approaches alpha * omega_c from below
    assert 0.99 < lim.f_markov < 1.0


def test_markov_limits_zero_temperature():
    lim = markov_limits(ohmic(0.5, 2.0))
    assert lim.gamma_markov == 0.0
    assert lim.f_markov == pytest.approx(0.5 * 2.0, rel=5e-3)


def test_markov_limits_infrared_divergent():
    # G_T ~ 1/w at the origin: no width, so no time to sample f_M at
    with pytest.raises(WidthUndefinedError, match="G_T diverges at omega=0"):
        markov_limits(lorentzian(1.0, 1.0, 3.0, beta=2.0))


def test_markov_limits_warn_of_slow_growth():
    # fig2's line at T = 0 keeps weight at the origin, so f grows ~ ln t
    sd = lorentzian(0.042987621655032664, 1.0, 10.0)
    lim = markov_limits(sd)
    assert lim.warnings == (
        "f-slow-growth: G_0(0) > 0 makes f(t) grow ~ G_0(0)*ln(t); no finite limit "
        f"exists, value sampled at t={lim.t_eval!r}",)
    assert lim.gamma_markov == 0.5 * math.pi * sd.origin[0]
    assert math.isfinite(lim.f_markov)


def test_accumulated_phase_monotone():
    rng = np.random.default_rng(11)
    for _ in range(4):
        sd = ohmic(float(rng.uniform(1e-4, 1e-1)),
                   float(rng.uniform(0.5, 3.0)))
        t = np.geomspace(1e-2, 1e3, 10)
        tf = np.array([ti * f_of_t(sd, float(ti)) for ti in t])
        assert np.all(np.diff(tf) > 0.0)


# ---------------------------------------------------------------------------
# properties of every family: few, fixed examples, so the suite stays quick

_TABLE = [[0.4 * k, 2.5e-5 * 0.4 * k * math.exp(-0.4 * k) * (1.0 + 0.25 * math.sin(0.3 * k))]
          for k in range(24)]

# spectrum with its coupling scaled by c: alpha for the analytic families,
# every table value for the tabulated one; the thermal Lorentzian is left
# out (G_0(0) > 0 makes its Gamma diverge)
_SCALED = {
    "ohmic": lambda c: ohmic(c * 2.5e-5),
    "ohmic-thermal": lambda c: ohmic(c * 2.5e-5, beta=5.0),
    "ohmic-thermal-half": lambda c: ohmic(c * 2.5e-5, beta=5.0,
                                          thermal_convention=ThermalConvention.COTH_HALF),
    "lorentzian": lambda c: lorentzian(c * 0.043, 1.0, 10.0),
    "tabulated": lambda c: tabulated([[w, c * g] for w, g in _TABLE]),
    "tabulated-thermal": lambda c: tabulated([[w, c * g] for w, g in _TABLE], beta=5.0),
}
# spectrum with every frequency scaled by c: the cutoff, a line's centre,
# width and height, every knot and table value, and the temperature
# (beta -> beta/c)
_RESCALED = {
    "ohmic": lambda c: ohmic(2.5e-5, c),
    "ohmic-thermal": lambda c: ohmic(2.5e-5, c, beta=5.0 / c),
    "ohmic-thermal-half": lambda c: ohmic(2.5e-5, c, beta=5.0 / c,
                                          thermal_convention=ThermalConvention.COTH_HALF),
    "lorentzian": lambda c: lorentzian(c * 0.043, c, c * 10.0),
    "tabulated": lambda c: tabulated([[c * w, c * g] for w, g in _TABLE]),
    "tabulated-thermal": lambda c: tabulated([[c * w, c * g] for w, g in _TABLE],
                                             beta=5.0 / c),
}
_FEW = settings(max_examples=6, deadline=None, derandomize=True)
_TIMES = st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("make", [
    lambda beta, conv: ohmic(0.3, 2.0, beta=beta, thermal_convention=conv),
    lambda beta, conv: lorentzian(1.2, 0.5, 4.0, beta=beta, thermal_convention=conv),
    lambda beta, conv: tabulated(_TABLE, beta=beta, thermal_convention=conv),
], ids=["ohmic", "lorentzian", "tabulated"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(beta=st.floats(1e-3, 1e3),
       w=st.one_of(st.just(0.0), st.floats(1e-300, 1e3)))
def test_coth_half_is_coth_full_at_half_beta(make, beta, w):
    half = make(beta, ThermalConvention.COTH_HALF)
    full = make(beta / 2.0, ThermalConvention.COTH_FULL)
    assert half.gt(w) == full.gt(w)


@pytest.mark.parametrize("family", sorted(_SCALED))
@_FEW
@given(c=st.floats(0.1, 10.0), t=_TIMES)
def test_kernels_are_linear_in_the_coupling(family, c, t):
    scaled, unit = _SCALED[family](c), _SCALED[family](1.0)
    assert f_of_t(scaled, t) == pytest.approx(c * f_of_t(unit, t), rel=1e-12)
    assert gamma_of_t(scaled, t) == pytest.approx(c * gamma_of_t(unit, t), rel=1e-12)


@pytest.mark.parametrize("family", sorted(_RESCALED))
@_FEW
@given(c=st.floats(0.1, 10.0), t=_TIMES)
def test_kernels_follow_the_frequency_scale(family, c, t):
    # G_c(c w) = c G(w) gives f_c(t) = c f(c t) and Gamma_c(t) = c Gamma(c t)
    scaled, unit = _RESCALED[family](c), _RESCALED[family](1.0)
    assert f_of_t(scaled, t) == pytest.approx(c * f_of_t(unit, c * t), rel=1e-12)
    assert gamma_of_t(scaled, t) == pytest.approx(c * gamma_of_t(unit, c * t), rel=1e-12)


# spectrum at inverse temperature beta in a convention, and its frequency
# scale: with G_0(0) = 0 (ohmic, a table from 0) and with G_0(0) > 0 (a table
# with weight at 0, fig2's line and the cavity line), whose Gamma diverges at
# T > 0
_THERMAL = {
    "ohmic": (lambda beta, conv: ohmic(2.5e-5, beta=beta, thermal_convention=conv), 1.0),
    "tabulated": (lambda beta, conv: tabulated(_TABLE, beta=beta, thermal_convention=conv),
                  1.0),
    "tabulated-origin": (lambda beta, conv: tabulated(
        [[0.0, 1e-7], [1.0, 2e-5], [4.0, 2e-5], [8.0, 0.0]], beta=beta,
        thermal_convention=conv), 1.0),
    "fig2-line": (lambda beta, conv: lorentzian(0.042987621655032664, 1.0, 10.0, beta=beta,
                                                thermal_convention=conv), 10.0),
    "cavity-line": (lambda beta, conv: lorentzian(318309.8861837907, 1e6, 1e10, beta=beta,
                                                  thermal_convention=conv), 1e10),
}


@pytest.mark.parametrize("family", sorted(_THERMAL))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(beta=st.floats(0.05, 200.0), conv=st.sampled_from(ThermalConvention),
       t=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))
def test_f_does_not_depend_on_temperature(family, beta, conv, t):
    # f reads G_0 alone: Gamma's share of the panels and of their refinement,
    # and a diverging Gamma, leave it as it is at T = 0.  t runs from the
    # head alone (pi/t beyond the spectrum's structure) into its tail
    make, scale = _THERMAL[family]
    hot, cold = make(beta / scale, conv), make(math.inf, conv)
    t /= scale
    assert f_of_t(hot, t) == pytest.approx(f_of_t(cold, t), rel=1e-9)
    if hot.origin[0] > 0.0:
        with pytest.raises(KernelDivergenceError):
            gamma_of_t(hot, t)
        with pytest.raises(KernelDivergenceError):
            tabulate_kernels(hot, [t])


@pytest.mark.parametrize("family", sorted(_SCALED))
@_FEW
@given(t=_TIMES, ratio=st.floats(1.01, 10.0))
def test_accumulated_phase_is_nondecreasing_and_gamma_nonnegative(family, t, ratio):
    sd = _SCALED[family](1.0)
    later = t * ratio
    assert later * f_of_t(sd, later) >= t * f_of_t(sd, t)
    assert gamma_of_t(sd, t) >= 0.0


def test_tabulate_kernels_table():
    sd = ohmic(2.5e-5)
    grid = np.geomspace(0.1, 100.0, 7)
    table = tabulate_kernels(sd, grid)
    assert np.array_equal(table.times, grid)
    for t, f, g in zip(table.times, table.f_values, table.gamma_values):
        assert f == pytest.approx(_ohmic_f(2.5e-5, float(t)), rel=1e-9)
        assert g == pytest.approx(_ohmic_gamma(2.5e-5, float(t)), rel=1e-9)
    assert table.t_corr == pytest.approx(0.4087662310295002, rel=1e-12)
    assert table.gamma_markov == 0.0

    lines = table.csv_lines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "t,f,gamma"
    assert any(ln.startswith("# f_markov = ") for ln in lines[:header])
    # rows round-trip exactly through repr
    first = lines[header + 1].split(",")
    assert float(first[0]) == grid[0]
    assert float(first[1]) == table.f_values[0]


@pytest.mark.parametrize("sd", [
    ohmic(2.5e-5),
    ohmic(0.3, 1.0, beta=1e4, thermal_convention=ThermalConvention.COTH_HALF),
    lorentzian(0.043, 1.0, 10.0),
    lorentzian(318309.8861837907, 1e6, 1e10),
    tabulated(_TABLE, beta=5.0),
], ids=["ohmic", "ohmic-cold", "lorentzian", "cavity", "tabulated-thermal"])
def test_tabulated_values_equal_single_time_calls(sd):
    # one time's value does not depend on the batch it is evaluated in
    grid = np.geomspace(1e-2, 1e6, 25) / sd.omega_c
    table = tabulate_kernels(sd, grid)
    assert table.f_values.tolist() == [f_of_t(sd, t) for t in grid.tolist()]
    assert table.gamma_values.tolist() == [gamma_of_t(sd, t) for t in grid.tolist()]
    assert tabulate_kernels(sd, grid[::-3][::-1]).f_values.tolist() == (
        table.f_values[::-3][::-1].tolist())


def test_tabulate_kernels_integrates_each_time_once(monkeypatch):
    # f and Gamma at every grid time come from one integral of the grid, and
    # the Markov sample from one more
    from spincat import kernels

    integrals = []
    integral = kernels._kernel_integral
    monkeypatch.setattr(kernels, "_kernel_integral", lambda sd, times: (
        integrals.append(times.tolist()) or integral(sd, times)))
    sd = ohmic(2.5e-5, beta=5.0)
    markov_limits.cache_clear()
    grid = np.geomspace(1e-2, 1e6, 25)
    tabulate_kernels(sd, grid)
    assert integrals == [grid.tolist(), [markov_limits(sd).t_eval]]


def test_each_kernel_is_held_to_its_own_contract(monkeypatch):
    # one integral gives both kernels, but a reader of f does not fail where
    # only Gamma's bound misses the contract, and a reader of Gamma does
    from spincat import kernels
    from spincat.errors import NumericError

    integral = kernels._kernel_integral

    def gamma_misses(sd, times):
        value, budget = integral(sd, times)
        return value, np.stack([budget[0], 1e-6 * np.abs(value[1])])

    monkeypatch.setattr(kernels, "_kernel_integral", gamma_misses)
    sd = ohmic(2.5e-5)
    assert f_of_t(sd, 10.0) == pytest.approx(_ohmic_f(2.5e-5, 10.0), rel=1e-9)
    for read in (lambda: gamma_of_t(sd, 10.0), lambda: tabulate_kernels(sd, [10.0])):
        with pytest.raises(NumericError, match=r"at t=10\.0 \(Gamma\)"):
            read()


def test_panel_cap_acts_per_time(monkeypatch):
    # the cap bounds the bisection of structure the panel layout does not
    # mark.  A 200-knot table whose features are thinned to 64 knots leaves
    # most kinks inside panels for bisection to find: eight times refine to
    # at most about 1600 panels each and 12400 together, so a block over the
    # cap is integrated again in halves, and the cap acts on each time as in
    # a call of its own
    from spincat import kernels
    from spincat.errors import NumericError

    w = np.linspace(0.0, 8.0, 200)
    sd = tabulated(list(zip(w.tolist(),
                            (2.5e-5 * w * np.exp(-w) * (1 + 0.25 * np.sin(7 * w))).tolist())))
    thinned = w[np.linspace(0, 199, 64).round().astype(int)][1:]
    monkeypatch.setitem(sd.__dict__, "features", tuple(thinned.tolist()))
    grid = np.geomspace(1e-2, 1e3, 8)
    monkeypatch.setattr(kernels, "_MAX_PANELS", 4000)
    sizes = []
    integrate = kernels._integrate
    monkeypatch.setattr(kernels, "_integrate",
                        lambda sd, t: sizes.append(t.size) or integrate(sd, t))
    table = tabulate_kernels(sd, grid)
    assert max(sizes) == 8 and min(sizes) < 4  # the batch went over the cap
    assert table.f_values.tolist() == [f_of_t(sd, t) for t in grid.tolist()]
    assert table.gamma_values.tolist() == [gamma_of_t(sd, t) for t in grid.tolist()]
    # below one time's need the cap stops a single call and a batch alike
    monkeypatch.setattr(kernels, "_MAX_PANELS", 500)
    with pytest.raises(NumericError, match=r"at t=0\.01 \(f\)"):
        f_of_t(sd, grid[0])
    with pytest.raises(NumericError, match=r"at t=0\.01 \(f\)"):
        tabulate_kernels(sd, grid)


def test_long_grid_equals_its_pieces():
    # a grid longer than one block of times is integrated block by block
    sd = ohmic(2.5e-5)
    grid = np.geomspace(1e-2, 1e6, 600)
    whole = tabulate_kernels(sd, grid)
    head, rest = tabulate_kernels(sd, grid[:250]), tabulate_kernels(sd, grid[250:])
    assert whole.f_values.tolist() == head.f_values.tolist() + rest.f_values.tolist()
    assert whole.gamma_values.tolist() == head.gamma_values.tolist() + rest.gamma_values.tolist()


@pytest.mark.xfail(strict=True, reason="a Lorentzian's smooth tail moment is still QUADPACK "
                   "QAGI's (kernels._qagi_tail), which loses this line's wing")
def test_far_detuned_line_matches_direct_quadrature():
    # a line of width 1e6 at 1e10: beyond 50 widths its wing still carries
    # 1/(50 pi) of the phase moment, spread over a scale far above 1
    import mpmath

    sd = lorentzian(318309.8861837907, 1e6, 1e10)
    with mpmath.workdps(25):
        alpha, omega_c, omega_0 = map(mpmath.mpf, (sd.alpha, sd.omega_c, sd.omega_0))
        around_line = {mpmath.mpf(0), omega_0} | {omega_0 + s * omega_c * 10 ** k
                                                  for k in range(7) for s in (-1, 1)}
        for t in (1e-9, 1e-8):
            tm = mpmath.mpf(t)
            period = 2 * mpmath.pi / tm  # and split at every period up to 3e10
            points = sorted(p for p in around_line | {k * period for k in range(1, int(3e10 / period))}
                            if p >= 0)

            def integrand(w):
                return (alpha / (1 + ((w - omega_0) / omega_c) ** 2)
                        * (w * tm - mpmath.sin(w * tm)) / w ** 2)

            tf = mpmath.quad(integrand, points) + mpmath.quad(integrand, [points[-1], mpmath.inf])
            assert t * f_of_t(sd, t) == pytest.approx(float(tf), rel=1e-9)


def test_tabulate_kernels_grid_validation():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [1.0, 0.5])       # not increasing
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [0.0, 1.0])       # nonpositive time
    empty = tabulate_kernels(sd, [])
    assert len(empty.times) == 0
