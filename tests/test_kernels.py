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


@pytest.mark.parametrize("beta", [0.3, 5.0, 200.0])
@pytest.mark.parametrize("convention", list(ThermalConvention))
def test_thermal_ohmic_gamma_matches_closed_form(beta, convention):
    # coth(beta w) is coth(beta' w / 2) with beta' = 2 beta; t covers the
    # head, mid-panel and tail regimes
    alpha = 0.3
    sd = ohmic(alpha, 1.0, beta=beta, thermal_convention=convention)
    beta_half = beta if convention is ThermalConvention.COTH_HALF else 2.0 * beta
    for t in np.geomspace(1e-3, 1e6, 19).tolist():
        assert t * gamma_of_t(sd, t) == pytest.approx(
            _thermal_ohmic_t_gamma(alpha, 1.0, beta_half, t), rel=1e-9)


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
    # pi/t overflows below about 1.7e-308: out of the kernels' domain
    for t in (1e-310, 1.7e-308):
        with pytest.raises(DomainError):
            f_of_t(ohmic(1e-3), t)
        with pytest.raises(DomainError):
            gamma_of_t(ohmic(1e-3), t)
    assert f_of_t(ohmic(1e-3), 1e-300) == 0.0


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
    # default sampling time sits at 1e3 memory times of the thermal profile
    assert lim.t_eval == pytest.approx(1e3 * correlation_time(sd), rel=1e-12)
    assert lim.warnings == ()
    # f_markov approaches alpha * omega_c from below
    assert 0.99 < lim.f_markov < 1.0


def test_markov_limits_zero_temperature():
    lim = markov_limits(ohmic(0.5, 2.0))
    assert lim.gamma_markov == 0.0
    assert lim.f_markov == pytest.approx(0.5 * 2.0, rel=5e-3)


def test_markov_limits_t_eval_validation():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        markov_limits(sd, t_eval=1.0)  # below 100 * t_corr
    lim = markov_limits(sd, t_eval=1e4)
    assert lim.t_eval == 1e4


def test_markov_limits_infrared_divergent():
    sd = lorentzian(1.0, 1.0, 3.0, beta=2.0)
    with pytest.raises(DomainError):
        markov_limits(sd)  # needs an explicit sampling time
    lim = markov_limits(sd, t_eval=50.0)
    assert math.isinf(lim.gamma_markov)
    assert any(w.startswith("gamma-ir-divergent") for w in lim.warnings)
    assert any(w.startswith("f-slow-growth") for w in lim.warnings)
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


def test_tabulate_kernels_grid_validation():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [1.0, 0.5])       # not increasing
    with pytest.raises(DomainError):
        tabulate_kernels(sd, [0.0, 1.0])       # nonpositive time
    empty = tabulate_kernels(sd, [])
    assert len(empty.times) == 0
