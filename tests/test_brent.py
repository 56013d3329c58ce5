"""The in-package Brent solvers against scipy.optimize on the package's problems."""

import math

import numpy as np
import pytest
from scipy import optimize

from spincat import brent
from spincat.bath import ThermalConvention, eval_gt, lorentzian, ohmic
from spincat.errors import NumericError
from spincat.kernels import f_of_t

HALF_PI = math.pi / 2.0


@pytest.mark.parametrize("sd, lo, hi", [
    (ohmic(2.5e-5), 3.3e4, 6.6e4),
    (lorentzian(0.042987621655032664, 1.0, 10.0), 64.0, 128.0),
    (ohmic(2e-7, 1e13, beta=1.528e-8), 4e-7, 8e-7),
], ids=["fig1", "fig2", "phonon"])
def test_root_matches_brentq_on_the_formation_time(sd, lo, hi):
    def g(t):
        return t * f_of_t(sd, t) - HALF_PI

    ours = brent.root(g, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    theirs = optimize.brentq(g, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    assert ours == pytest.approx(theirs, rel=2 * 8.9e-16)
    # known end values are not evaluated again and change nothing
    assert brent.root(g, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200,
                      fa=g(lo), fb=g(hi)) == ours


def _peak_bracket(sd):
    """The scan of correlation_time: grid, index of the sampled maximum."""
    feats = sd.features
    w = np.geomspace(min(feats) * 1e-6, max(sd.split, max(feats)) * 20.0, 4000)
    return w, int(np.argmax(eval_gt(sd, w)))


@pytest.mark.parametrize("sd", [
    ohmic(1.0),
    ohmic(0.3, 2.0, beta=5.0, thermal_convention=ThermalConvention.COTH_HALF),
    lorentzian(1.0, 1.0, 10.0),
    lorentzian(1.0, 1e6, 1e10),
], ids=["ohmic", "ohmic-thermal", "lorentzian", "narrow-line"])
def test_minimize_and_root_match_scipy_on_the_half_width(sd):
    w, i = _peak_bracket(sd)
    xatol = float(w[i]) * 1e-12
    x, fx = brent.minimize(lambda v: -sd.gt(v), w[i - 1], w[i + 1], xatol=xatol)
    res = optimize.minimize_scalar(lambda v: -sd.gt(v), bounds=(w[i - 1], w[i + 1]),
                                   method="bounded", options={"xatol": xatol})
    assert x == pytest.approx(res.x, abs=4 * xatol)
    assert fx == pytest.approx(res.fun, rel=1e-14)
    # the upper half-maximum crossing
    half = -0.5 * fx
    j = i + int(np.argmax(eval_gt(sd, w[i:]) < half))

    def g(v):
        return sd.gt(v) - half

    ours = brent.root(g, x, w[j], xtol=1e-300, rtol=1e-14)
    theirs = optimize.brentq(g, x, w[j], xtol=1e-300, rtol=1e-14)
    assert ours == pytest.approx(theirs, rel=2e-14)


def test_root_needs_a_sign_change_and_survives_flat_stretches():
    with pytest.raises(NumericError):
        brent.root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-12)
    # equal values at the bracket ends make the secant step divide by zero
    flat = lambda x: -1.0 if x < 0.7 else 1.0  # noqa: E731
    assert brent.root(flat, 0.0, 1.0, xtol=1e-12, rtol=1e-12) == pytest.approx(0.7, abs=1e-11)
    with pytest.raises(NumericError):
        brent.root(flat, 0.0, 1.0, xtol=1e-12, rtol=1e-12, maxiter=3)
