"""Spectral-density construction, evaluation, and thermal weighting."""

import functools
import math
import pickle

import numpy as np
import pytest

from spincat.bath import (
    SpectralDensity,
    SpectrumKind,
    ThermalConvention,
    eval_g0,
    eval_gt,
    gt_zero_limit,
    lorentzian,
    ohmic,
    tabulated,
    total_coupling,
)
from spincat.errors import DomainError, NumericError
from spincat.evolve import solve_bath

FAMILIES = [
    ohmic(0.3, 2.0),
    ohmic(0.3, 2.0, beta=1.5),
    ohmic(0.3, 2.0, beta=1.5, thermal_convention=ThermalConvention.COTH_HALF),
    lorentzian(1.2, 0.5, 4.0),
    lorentzian(1.2, 0.5, 4.0, beta=1.5),
    tabulated([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]]),
    tabulated([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]], beta=1.5),
]


def family_id(sd):
    return f"{sd.kind.value}-beta{sd.beta}-{sd.thermal_convention.value}"


def test_ohmic_pointwise_closed_form():
    sd = ohmic(0.3, 2.0)
    w = np.array([0.0, 0.5, 2.0, 7.5])
    expected = 0.3 * w * np.exp(-w / 2.0)
    assert np.allclose(eval_g0(sd, w), expected, rtol=1e-14, atol=0.0)
    assert eval_g0(sd, 0.0) == 0.0


def test_lorentzian_pointwise_closed_form():
    sd = lorentzian(1.2, 0.5, 4.0)
    w = np.array([0.0, 3.5, 4.0, 10.0])
    expected = 1.2 * 0.5**2 / ((w - 4.0) ** 2 + 0.5**2)
    assert np.allclose(eval_g0(sd, w), expected, rtol=1e-14, atol=0.0)
    assert eval_g0(sd, 4.0) == pytest.approx(1.2, rel=1e-15)


def test_tabulated_interpolation_and_support():
    sd = tabulated([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]])
    assert eval_g0(sd, 0.5) == pytest.approx(0.5)
    assert eval_g0(sd, 1.5) == pytest.approx(0.75)
    assert eval_g0(sd, 3.0) == 0.0
    assert eval_g0(sd, 4.0) == 0.0  # zero outside the support
    assert eval_g0(sd, 100.0) == 0.0


@pytest.mark.parametrize("table", [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]],
    [[0.5, 2.0], [0.75, 0.1], [3.0, 4.0], [10.0, 1e-3]],  # support above 0
    [[2.0, 3.0]],                                         # one knot
])
def test_tabulated_matches_np_interp(table):
    sd = tabulated(table)
    tw = np.array([p[0] for p in table])
    tg = np.array([p[1] for p in table])
    mids = (tw[:-1] + tw[1:]) / 2.0
    w = np.concatenate([tw, mids, [0.0, tw[0] / 2.0, np.nextafter(tw[-1], np.inf),
                                   tw[-1] + 1.0, 1e300]])
    ref = np.where((w < tw[0]) | (w > tw[-1]), 0.0,
                   np.interp(w, tw, tg, left=0.0, right=0.0))
    assert [sd.g0(x) for x in w.tolist()] == ref.tolist()
    assert np.array_equal(eval_g0(sd, w), ref)


@pytest.mark.parametrize("sd", FAMILIES, ids=family_id)
def test_array_evaluation_matches_scalar_calls(sd):
    w = np.concatenate([[0.0, 1e-320], np.geomspace(1e-9, 80.0, 61)])
    for fn, scalar in ((eval_g0, sd.g0), (eval_gt, sd.gt)):
        values = fn(sd, w)
        assert values.shape == w.shape
        assert values.tolist() == [scalar(x) for x in w.tolist()]
        assert values.tolist() == [fn(sd, x) for x in w.tolist()]
        assert fn(sd, w.reshape(3, 3, 7)).tolist() == values.reshape(3, 3, 7).tolist()
    assert isinstance(eval_gt(sd, 0.5), float)


@pytest.mark.parametrize("sd", FAMILIES, ids=family_id)
def test_pickle_round_trip_keeps_identity_and_values(sd):
    copy = pickle.loads(pickle.dumps(sd))
    assert copy == sd and hash(copy) == hash(sd) and repr(copy) == repr(sd)
    w = [0.0, 0.3, 1.0, 2.5, 40.0]
    assert [copy.g0(x) for x in w] == [sd.g0(x) for x in w]
    assert [copy.gt(x) for x in w] == [sd.gt(x) for x in w]


def test_gt_is_fixed_when_the_spectrum_is_built():
    cold = ohmic(0.3, 2.0)
    assert cold.gt is cold.g0
    for convention, scale in ((ThermalConvention.COTH_FULL, 1.0),
                              (ThermalConvention.COTH_HALF, 0.5)):
        sd = ohmic(0.3, 2.0, beta=1.5, thermal_convention=convention)
        assert isinstance(sd.gt, functools.partial)
        assert sd.gt.args[1:] == (1.5, scale, gt_zero_limit(sd))
        assert sd.gt(0.0) == gt_zero_limit(sd)
        assert sd.gt(0.8) == sd.g0(0.8) * (1.0 / math.tanh(1.5 * 0.8 * scale))
    # == and hash still read the fields alone
    assert ohmic(0.3, 2.0, beta=1.5) == SpectralDensity("ohmic", alpha=0.3, omega_c=2.0,
                                                         beta=1.5)
    assert "gt" not in repr(cold) and "g0" not in repr(cold)


def test_equal_spectra_share_one_bath_solution():
    solve_bath.cache_clear()
    first = solve_bath(ohmic(2.5e-5), 1e6)
    second = solve_bath(SpectralDensity("ohmic", alpha=2.5e-5), 1e6)
    assert second is first
    assert solve_bath.cache_info().misses == 1
    assert solve_bath.cache_info().hits == 1


def test_far_detuned_lorentzian_does_not_overflow():
    sd = lorentzian(1.0, 1.0, 1e160)
    assert gt_zero_limit(sd) == 0.0
    assert eval_g0(sd, 1e160) == 1.0
    assert total_coupling(sd) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert eval_g0(lorentzian(1, 1, 10), 1e200) == 0.0
    assert eval_g0(lorentzian(1.0, 1e200, 1.0), 1.0) == 1.0  # omega_c**2 overflows
    with pytest.raises(NumericError):  # integral overflows: a numeric failure
        total_coupling(ohmic(1.0, 1e200))


def test_negative_frequency_rejected():
    sd = ohmic(1.0)
    with pytest.raises(DomainError):
        eval_g0(sd, -0.1)
    with pytest.raises(DomainError):
        eval_gt(sd, np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [
    dict(alpha=-1.0),
    dict(alpha=math.inf),
    dict(omega_c=0.0),
    dict(omega_c=-2.0),
    dict(beta=0.0),
    dict(beta=-1.0),
])
def test_constructor_validation(bad):
    kwargs = dict(alpha=1.0, omega_c=1.0, beta=math.inf)
    kwargs.update(bad)
    with pytest.raises(DomainError):
        ohmic(**kwargs)


@pytest.mark.parametrize("table", [
    [],
    [[1.0, 1.0], [1.0, 2.0]],          # not strictly increasing
    [[2.0, 1.0], [1.0, 2.0]],          # decreasing
    [[0.0, -1.0], [1.0, 1.0]],         # negative value
    [[0.0, math.nan], [1.0, 1.0]],     # nonfinite value
])
def test_tabulated_validation(table):
    with pytest.raises(DomainError):
        tabulated(table)


def test_zero_temperature_thermal_weight_is_identity():
    sd = ohmic(0.7, 1.5)
    w = np.geomspace(1e-6, 50.0, 40)
    assert np.array_equal(eval_gt(sd, w), eval_g0(sd, w))
    assert sd.zero_temperature


def test_thermal_weight_exceeds_bare_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        beta = float(rng.uniform(0.05, 20.0))
        sd = ohmic(1.0, 1.0, beta=beta)
        w = rng.uniform(1e-3, 30.0, size=16)
        assert np.all(eval_gt(sd, w) >= eval_g0(sd, w))


def test_thermal_convention_ordering():
    # occupancy coth(beta w / 2) >= coth(beta w) pointwise for w > 0
    full = ohmic(1.0, 1.0, beta=2.0, thermal_convention=ThermalConvention.COTH_FULL)
    half = ohmic(1.0, 1.0, beta=2.0, thermal_convention=ThermalConvention.COTH_HALF)
    w = np.geomspace(1e-4, 20.0, 30)
    assert np.all(eval_gt(half, w) >= eval_gt(full, w))


def test_thermal_origin_limits():
    # ohmic slope alpha at w=0: coth weighting gives alpha/beta (full
    # convention) or 2*alpha/beta (half convention)
    full = ohmic(0.4, 1.0, beta=5.0)
    half = ohmic(0.4, 1.0, beta=5.0, thermal_convention=ThermalConvention.COTH_HALF)
    assert gt_zero_limit(full) == pytest.approx(0.4 / 5.0, rel=1e-12)
    assert gt_zero_limit(half) == pytest.approx(2 * 0.4 / 5.0, rel=1e-12)
    assert eval_gt(full, 0.0) == pytest.approx(0.4 / 5.0, rel=1e-12)
    # continuity: the series branch matches the direct branch
    assert eval_gt(full, 1e-9) == pytest.approx(gt_zero_limit(full), rel=1e-8)
    # nonzero spectrum at the origin with finite temperature diverges
    assert math.isinf(gt_zero_limit(lorentzian(1.0, 1.0, 3.0, beta=2.0)))
    assert math.isinf(eval_gt(lorentzian(1.0, 1.0, 3.0, beta=2.0), 0.0))
    # beta*w underflows to 0: still the limit alpha/beta, not G_0(w)
    hot = ohmic(1.0, beta=1e-10)
    assert eval_gt(hot, 1e-320) == pytest.approx(gt_zero_limit(hot), rel=1e-12)
    assert eval_gt(hot, 1e-320) == pytest.approx(1e10, rel=1e-12)
    # beta*w subnormal but not 0: 1/(beta*w) would overflow to inf
    for convention in ThermalConvention:
        sd = ohmic(1.0, beta=1.0, thermal_convention=convention)
        for w in (1e-300, 1e-310, 5e-324):
            assert eval_gt(sd, w) == pytest.approx(gt_zero_limit(sd), rel=1e-9)


def test_total_coupling_values():
    assert total_coupling(ohmic(1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert total_coupling(ohmic(2.5e-5, 1.0)) == pytest.approx(5.0e-3, rel=1e-12)
    assert total_coupling(ohmic(0.09, 3.0)) == pytest.approx(0.3 * 3.0, rel=1e-12)
    expected = math.sqrt(1.2 * 0.5 * (math.pi / 2 + math.atan(4.0 / 0.5)))
    assert total_coupling(lorentzian(1.2, 0.5, 4.0)) == pytest.approx(expected, rel=1e-12)
    # triangle of unit area
    tri = tabulated([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert total_coupling(tri) == pytest.approx(1.0, rel=1e-14)
    assert total_coupling(tabulated([[0.0, 0.0], [1.0, 0.0]])) == 0.0


def test_spectral_density_is_immutable():
    sd = ohmic(1.0)
    with pytest.raises(Exception):
        sd.alpha = 2.0


def test_kind_and_accessors():
    sd = tabulated([[0.0, 0.0], [1.0, 2.0]])
    assert sd.kind is SpectrumKind.TABULATED
    assert isinstance(ohmic(1.0), SpectralDensity)
