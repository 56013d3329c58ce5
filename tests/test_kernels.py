"""Kernel quadrature against closed forms and frozen high-precision values."""

import bisect
import itertools
import math
import warnings
from fractions import Fraction

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
    solve_bath,
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
    # a line between the scan's grid points (0.74% apart), ten times higher
    # than a shelf at the origin: its FWHM of 1.5, not the shelf's, is the width
    assert correlation_time(tabulated([[0, 1], [3e-3, 1], [6e-3, 0], [999, 0], [999.5, 10],
                                       [1000.5, 10], [1001, 0]])) == 1 / 1.5


def test_correlation_time_errors():
    with pytest.raises(WidthUndefinedError):
        correlation_time(lorentzian(1.0, 1.0, 3.0, beta=2.0))
    with pytest.raises(WidthUndefinedError):
        correlation_time(tabulated([[0.0, 0.0], [1.0, 0.0]]))


def test_correlation_time_of_a_line_below_float_resolution():
    # the line at 1e160 is narrower than the float spacing there (about
    # 2e144): G_T is 1 at its centre and 0 at every other float, so no
    # width can be measured; that is not a spectrum that is zero everywhere
    with pytest.raises(WidthUndefinedError) as err:
        correlation_time(lorentzian(1.0, 1.0, 1e160))
    assert str(err.value) == ("G_T is positive at omega=1e+160 but vanishes beside it: the "
                              "line's width is below float resolution at its centre; "
                              "width undefined")
    with pytest.raises(WidthUndefinedError) as err:
        correlation_time(ohmic(0.0))
    assert str(err.value) == "spectrum is identically zero; width undefined"


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


@pytest.mark.parametrize("family", ["ohmic", "ohmic-thermal"])
@pytest.mark.parametrize("c", [1e160, 1e200])
def test_ohmic_kernels_follow_a_frequency_scale_beyond_1e154(family, c):
    # beyond w ~ 1e154 a weight 1/w**2 is subnormal, so the moments over w**2
    # must divide G by w twice; c t runs from the head alone into the tail
    scaled, unit = _RESCALED[family](c), _RESCALED[family](1.0)
    for ct in (1.0, 10.0, 100.0, 1e3, 1e4):
        assert f_of_t(scaled, ct / c) == pytest.approx(c * f_of_t(unit, ct), rel=1e-12)
        assert gamma_of_t(scaled, ct / c) == pytest.approx(c * gamma_of_t(unit, ct), rel=1e-12)


@pytest.mark.parametrize("c, rel, rel_gamma", [(2.0 ** 1000, 0.0, 0.0),
                                             (1e306, 4.5e-16, 1e-12)])
def test_bath_solve_follows_a_frequency_scale_near_the_float_limit(c, rel, rel_gamma):
    # tau is below 1e-297 here, so the tau solve's tolerance must be purely
    # relative; at 1e306, 20 omega_c (the top of the width scan) overflows.
    # A power of two scales exactly; at 1e306 tau and f were measured within
    # 1.4e-16 of the scaled unit values, Gamma within 2.4e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = solve_bath(ohmic(2.5e-5, c), 1e6)
    unit = solve_bath(ohmic(2.5e-5), 1e6)
    assert abs(c * scaled.tau - unit.tau) <= rel * unit.tau
    assert abs(scaled.f_tau / c - unit.f_tau) <= rel * unit.f_tau
    assert abs(scaled.gamma_tau / c - unit.gamma_tau) <= rel_gamma * unit.gamma_tau


@pytest.mark.parametrize("c", [1e-150, 1e-155, 1e-160, 1e-200, 1e-250, 1e-300])
def test_correlation_time_follows_a_small_frequency_scale(c):
    # G_T - half is near 1e-165 .. 1e-305 here: the width roots scale it by a
    # power of two, or Brent's interpolation products underflow (no
    # convergence in 100 steps), and keep their tolerance purely relative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = correlation_time(ohmic(2.5e-5, c))
    assert c * scaled == pytest.approx(correlation_time(ohmic(2.5e-5)), rel=1e-15)


@pytest.mark.parametrize("sd, t_corr", [
    # G_T ~ 2 alpha omega_c exp(-w) / beta: half maximum at w = ln 2
    (ohmic(2.5e-5, beta=1e-307), 1.0 / math.log(2.0)),
    (lorentzian(1.0, 1e305, 1e307), 0.5e-305),
    (tabulated([[0.0, 0.0], [2e306, 1.0], [4e306, 1.0], [1e307, 0.0]]), 1.0 / 6e306),
], ids=["ohmic-hot", "lorentzian", "tabulated"])
def test_correlation_time_where_20_times_the_top_feature_overflows(sd, t_corr):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert correlation_time(sd) == pytest.approx(t_corr, rel=1e-11)


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


def test_single_time_integrals_are_memoised_bounded_and_read_only(monkeypatch):
    # the package reads a kernel at one time through one memo, bounded by
    # _CACHE_SIZE, of read-only integrals; a bad time is refused every time
    # and never cached, and f_of_t and gamma_of_t integrate on every call
    from spincat import kernels

    integrals = []
    integral = kernels._kernel_integral
    monkeypatch.setattr(kernels, "_kernel_integral", lambda sd, times: (
        integrals.extend(times.tolist()) or integral(sd, times)))
    memo, read, sd = kernels._kernels_at, kernels._rate_at, ohmic(2.5e-5)
    memo.cache_clear()
    for bad in (0.0, -1.0, math.nan, math.inf, 1e-310, 1e160):
        for _ in range(2):
            with pytest.raises(DomainError):
                read(sd, bad, 0)
    assert memo.cache_info().currsize == 0 and integrals == []
    assert (read(sd, 10.0, 0), read(sd, 10.0, 1)) == (f_of_t(sd, 10.0), gamma_of_t(sd, 10.0))
    assert integrals == [10.0] * 3
    for a in memo(sd, 10.0):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    for k in range(kernels._CACHE_SIZE):
        read(sd, 11.0 + k, 0)
    assert memo.cache_info().maxsize == memo.cache_info().currsize == kernels._CACHE_SIZE
    read(sd, 10.0, 0)  # the least recently read time went first
    assert integrals[-1] == 10.0 and len(integrals) == kernels._CACHE_SIZE + 4


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


def test_oscillatory_stage_starts_from_the_first_layout(monkeypatch):
    # the oscillatory panels are the mid and tail panels of the first layout
    # in x = w t: they follow each other from pi, the tail's are its u
    # panels (w - p0 grows fourfold across each), and the tail panel that
    # reaches w = inf is never integrated
    from spincat import kernels

    starts = []
    refine = kernels._refine
    monkeypatch.setattr(kernels, "_refine", lambda rule, lo, hi, *rest: (
        starts.append((lo, hi)) or refine(rule, lo, hi, *rest)))
    sd, t = lorentzian(1.0, 1.0, 10.0), 1.0  # p0 = 11, tail from split = 60
    assert f_of_t(sd, t) == pytest.approx(_LORENTZIAN_10[1][1] / t, rel=1e-9)
    lo, hi = starts[1]
    order = np.argsort(lo)  # the tail's come outermost first, as its u panels
    lo, hi = lo[order], hi[order]
    assert lo[0] == pytest.approx(math.pi, rel=1e-15)
    assert np.allclose(lo[1:], hi[:-1], rtol=1e-15, atol=0.0)
    assert np.isfinite(hi).all()
    tail = lo >= sd.split * t * (1.0 - 1e-15)
    assert 1 < np.count_nonzero(tail) < 15
    assert np.allclose((hi[tail] / t - 11.0) / (lo[tail] / t - 11.0), 4.0, rtol=1e-14, atol=0.0)


def _graded_loop(lo, hi, marks):
    # the grading of kernels._graded as one list of edges
    k = bisect.bisect_left(marks, lo)
    step_lo = lo - marks[k - 1] if k else math.inf
    k = bisect.bisect_right(marks, hi)
    step_hi = marks[k] - hi if k < len(marks) else math.inf
    left, right = [lo], [hi]
    while right[-1] - left[-1] > 1.5 * min(step_lo, step_hi):
        if step_lo <= step_hi:
            left.append(left[-1] + step_lo)
            step_lo *= 2.0
        else:
            right.append(right[-1] - step_hi)
            step_hi *= 2.0
    return left + right[::-1]


def _layout_loop(feats, support, split, times):
    # the first layout graded interval by interval, time by time
    from spincat.kernels import _HEAD, _MID, _TAIL, _TAIL_EDGES

    n = times.size
    below = [p for p in feats if p < split]
    p0 = below[-1] if below else 0.0
    marks = [0.0, *feats]
    p_lo, p_hi, p_aux = [], [], []
    tail_d, tail_s = np.zeros(n), np.zeros(n)
    for i, t in enumerate(times.tolist()):
        a = math.pi / t
        b_head, s = min(a, support), min(max(a, split), support)
        for kind, bounds in ((_HEAD, [0.0, *(p for p in feats if p < b_head), b_head]),
                             (_MID, [a, *(p for p in feats if a < p < s), s] if a < s else [])):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                edges = _graded_loop(lo, hi, marks)
                p_aux += [(i, kind, len(p_lo) + k) for k in range(len(edges) - 1)]
                p_lo += edges[:-1]
                p_hi += edges[1:]
        if support > s:
            tail_s[i], tail_d[i] = s, s - p0
            p_aux += [(i, _TAIL, len(p_lo) + k) for k in range(len(_TAIL_EDGES) - 1)]
            p_lo += _TAIL_EDGES[:-1]
            p_hi += _TAIL_EDGES[1:]
    return (np.array(p_lo), np.array(p_hi), np.array(p_aux, dtype=np.intp).reshape(-1, 3),
            tail_d, tail_s, p0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(feats=st.lists(st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e), max_size=30),
       ends=st.sampled_from(["analytic", "table"]), split=st.floats(-6.0, 13.0),
       times=st.lists(st.floats(-300.0, 150.0).map(lambda e: 10.0 ** e), min_size=1,
                      max_size=6))
def test_first_layout_equals_the_interval_loop(feats, ends, split, times):
    # the mark-to-mark panels are graded once per spectrum and sliced per
    # time; every edge, row and tail must be the loop's, bit for bit
    from types import SimpleNamespace

    from spincat import kernels

    feats = tuple(sorted(set(feats)))
    if ends == "table" and feats:  # split = support = a knot, features may lie beyond
        sd = SimpleNamespace(features=feats, split=feats[len(feats) // 2],
                             support=feats[len(feats) // 2])
    else:
        sd = SimpleNamespace(features=feats, split=10.0 ** split, support=math.inf)
    times = np.array(times)
    got = kernels._first_layout(sd, times)
    want = _layout_loop(sd.features, sd.support, sd.split, times)
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.array_equal(g, w)


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


# ---------------------------------------------------------------------------
# the Filon-Clenshaw-Curtis rule against repeated integration by parts


def _chebyshev_monomials(n):
    """Integer monomial coefficients of T_0 .. T_n, from T_(j+1) = 2u T_j - T_(j-1)."""
    rows = [[1], [0, 1]]
    while len(rows) <= n:
        rows.append([2 * a - b for a, b in itertools.zip_longest([0] + rows[-1], rows[-2],
                                                                 fillvalue=0)])
    return rows


_T24 = _chebyshev_monomials(24)


def _filon_closed_form(coefs, lo, hi):
    """``integral p(x) exp(i x) dx`` over ``[lo, hi]``, ``p(x) = sum_j coefs[j]
    T_j((x - c)/h)`` with ``c, h`` the panel's centre and half-width, by
    repeated integration by parts: ``[exp(i x) S(x)]`` from ``lo`` to
    ``hi``, ``S = sum_m (-1)**m p^(m) / i**(m+1)``, which ends at ``p``'s
    degree.  ``S`` at each end is an exact rational; the two ends cancel down
    to the integral, so the phases are taken at 30 digits beyond ``|S|``."""
    import mpmath

    h = (Fraction(hi) - Fraction(lo)) / 2
    mono = [sum(Fraction(b) * t[i] for b, t in zip(coefs, _T24) if i < len(t))
            for i in range(len(coefs))]
    ends = []
    for end, u in ((hi, 1), (lo, -1)):
        part = [Fraction(0), Fraction(0)]  # real, imaginary
        for m in range(len(mono)):
            d = sum(a * math.perm(i, m) * u ** (i - m)
                    for i, a in enumerate(mono) if i >= m) / h ** m
            # (-1)**m / i**(m+1) = -i**(m+1): -i, 1, i, -1, ...
            part[(m + 1) % 2] += d * (-1, 1, 1, -1)[m % 4]
        ends.append((end, part))
    size = max(abs(p) for _, part in ends for p in part)
    with mpmath.workdps(30 + max(0, math.ceil(math.log10(size)))):
        (e_hi, s_hi), (e_lo, s_lo) = ((mpmath.expj(end), mpmath.mpc(
            *(mpmath.mpf(p.numerator) / p.denominator for p in part))) for end, part in ends)
        return complex(e_hi * s_hi - e_lo * s_lo)


def _chebyshev_samples(coefs):
    """``sum_j coefs[j] T_j(u_k)`` at the 25 Clenshaw-Curtis points ``u_k =
    cos(k pi / 24)``, ``T_j(u_k) = cos(j k pi / 24)``, at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return [float(mpmath.fsum(mpmath.mpf(b) * mpmath.cospi(mpmath.mpf(j * k) / 24)
                                  for j, b in enumerate(coefs))) for k in range(25)]


@pytest.mark.parametrize("n_envelopes", [1, 2])
def test_filon_rule_is_exact_for_polynomial_envelopes(n_envelopes):
    # the 25-point interpolant reproduces an envelope of degree <= 24, so the
    # rule must return its integral against exp(i x) to rounding, by
    # Gauss-Legendre up to half-width _THETA_IBP = 48 and by integration by
    # parts beyond; f reads the first envelope's imaginary part, Gamma the
    # last envelope's real part
    from spincat import kernels

    rng = np.random.default_rng(7)
    lo, hi, coefs = [], [], []
    for c in (0.0, 3.0):
        for h in (0.1, 1.0, 47.9, kernels._THETA_IBP, 48.1, 500.0):
            for degree in (0, 1, 7, 24):
                lo.append(c - h)
                hi.append(c + h)
                coefs.append(rng.uniform(-1.0, 1.0, degree + 1).tolist())
                # the rule's centre and half-width span the panel exactly
                cf, hf = 0.5 * (lo[-1] + hi[-1]), 0.5 * (hi[-1] - lo[-1])
                assert (Fraction(cf) - Fraction(hf), Fraction(cf) + Fraction(hf)) == (
                    Fraction(lo[-1]), Fraction(hi[-1]))
    lo, hi = np.array(lo), np.array(hi)
    polys = [coefs, coefs[5:] + coefs[:5]][:n_envelopes]
    samples = np.array([[_chebyshev_samples(b) for b in env] for env in polys])
    est = kernels._filon(lambda x, t: samples, lo, hi, np.ones((lo.size, 1)))
    assert np.isfinite(est).all()
    for i in range(lo.size):
        first = _filon_closed_form(polys[0][i], lo[i], hi[i])
        last = _filon_closed_form(polys[-1][i], lo[i], hi[i])
        assert abs(est[i, 0] - first.imag) <= 1e-13 * abs(first), (lo[i], hi[i], len(polys[0][i]))
        assert abs(est[i, 1] - last.real) <= 1e-13 * abs(last), (lo[i], hi[i], len(polys[-1][i]))


# ---------------------------------------------------------------------------
# numpy's error state: held once by each entrance, not by the spectra


def test_overflow_raises_no_warning_at_the_entrances():
    # the spectrum formulas overflow to inf (r*r of a far Lorentzian, beta*w
    # of a thermal factor) without switching numpy's error state; every
    # entrance that evaluates a spectrum holds it instead
    from spincat.bath import eval_g0, eval_gt

    w = np.array([0.0, 1.0, 1e200, 1.7e308])
    cavity = lorentzian(318309.8861837907, 1e6, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sd in (ohmic(1.0), ohmic(1.0, beta=2.0), lorentzian(1.0, 1.0, 10.0),
                   lorentzian(1.0, 1.0, 10.0, beta=2.0), lorentzian(1.0, 1e200, 1.0)):
            for evaluate in (eval_g0, eval_gt):
                assert math.isfinite(evaluate(sd, 1e200))
                assert evaluate(sd, w).shape == w.shape
        assert correlation_time(cavity) == pytest.approx(0.5e-6, rel=1e-9)
        with pytest.raises(WidthUndefinedError):  # narrower than the float spacing there
            correlation_time(lorentzian(1.0, 1.0, 1e160))
        for sd, t in ((ohmic(1.0, 1e200), 1e-198), (ohmic(2.5e-5, beta=5.0), 3.0),
                      (lorentzian(1.0, 1.0, 1e160), 1.0), (cavity, 1e-8),
                      (tabulated(_TABLE), 3.0), (tabulated(_TABLE, beta=5.0), 3.0)):
            assert math.isfinite(f_of_t(sd, t))
            assert math.isfinite(gamma_of_t(sd, t))
            if sd.omega_0 < 1e160:  # the far line has no t_corr for the table's summary
                assert tabulate_kernels(sd, [t, 2.0 * t]).f_values.size == 2
        hot = lorentzian(0.043, 1.0, 10.0, beta=2.0)
        assert math.isfinite(f_of_t(hot, 1.0))
        for read in (lambda: gamma_of_t(hot, 1.0), lambda: tabulate_kernels(hot, [1.0])):
            with pytest.raises(KernelDivergenceError):
                read()


def test_thermal_lorentzian_integrates_only_the_phase_tail(monkeypatch):
    # at T > 0 a Lorentzian's Gamma diverges (G_0(0) > 0), so of the two
    # smooth tail moments QAGI integrates f's alone, and f is as before
    from scipy import integrate

    from spincat import kernels

    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: calls.append(a) or quad(*a, **k))
    kernels._qagi_tail.cache_clear()
    hot = lorentzian(0.043, 1.0, 10.0, beta=2.0)
    assert f_of_t(hot, 0.011) == pytest.approx(2.9281113281872563e-05, rel=1e-14)
    assert len(calls) == 1
    cold = lorentzian(0.043, 1.0, 10.0)
    gamma_of_t(cold, 0.011)
    assert len(calls) == 3  # at T = 0 both moments


def test_tabulate_kernels_grid_validation():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [1.0, 0.5])       # not increasing
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [0.0, 1.0])       # nonpositive time
    empty = tabulate_kernels(sd, [])
    assert len(empty.times) == 0
