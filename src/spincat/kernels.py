"""Dephasing kernels of the collective spin-boson problem.

Two time-dependent rates follow from the bath spectrum:

* ``f(t)  = (1/t) * integral G_0(w) * (w t - sin w t) / w**2 dw``  —
  the accumulated nonlinear (twisting) phase rate, and
* ``Gamma(t) = (1/t) * integral G_T(w) * (1 - cos w t) / w**2 dw``  —
  the time-averaged dephasing rate.

Both integrals run over ``w in [0, inf)`` and become violently oscillatory
once ``w*t`` is large, so a composite strategy is used (see
``_kernel_integral``): a non-oscillatory head below ``w = pi/t`` with
series-stabilized integrands, an exact split ``trig-part = smooth moment -
oscillatory remainder`` on the structured mid range handled by Clenshaw-
Curtis oscillatory panels of at most one frequency decade each, and a
dedicated semi-infinite oscillatory rule for the featureless tail.  Every
stage contributes to an error budget; the evaluation raises instead of
returning a value that misses its accuracy contract.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .bath import SpectralDensity, eval_gt, gt_zero_limit
from .errors import DomainError, KernelDivergenceError, NumericError, WidthUndefinedError

__all__ = [
    "KernelTable",
    "MarkovLimits",
    "f_of_t",
    "gamma_of_t",
    "markov_limits",
    "correlation_time",
    "tabulate_kernels",
]

# Relative accuracy demanded of each quadrature stage and the contract the
# assembled value must meet (raise beyond it).
_EPSREL = 1e-11
_CONTRACT_REL = 1e-9
# Arguments below this are evaluated by Taylor series instead of the direct
# trig expression (catastrophic cancellation in w*t - sin(w*t)).
_SERIES_CUT = 1e-4
_CACHE_SIZE = 64  # results kept per process by the memoised bath-only solvers


def _quad(func, a, b, **kw):
    """scipy.integrate.quad with warnings folded into the returned error."""
    res = integrate.quad(func, a, b, full_output=1, **kw)
    return res[0], res[1]


def _sin_factor(w: float, t: float) -> float:
    """(w t - sin w t) / w**2, stable for small w t."""
    x = w * t
    if x < _SERIES_CUT:
        return t**3 * w / 6.0 * (1.0 - x * x / 20.0 + x**4 / 840.0)
    return (x - math.sin(x)) / (w * w)


def _cos_factor(w: float, t: float) -> float:
    """(1 - cos w t) / w**2, stable for small w t."""
    x = w * t
    if x < _SERIES_CUT:
        return 0.5 * t * t * (1.0 - x * x / 12.0 + x**4 / 360.0)
    return (1.0 - math.cos(x)) / (w * w)


def _log_chunks(bounds: list[float]) -> list[tuple[float, float]]:
    """Split consecutive bound pairs so no chunk spans more than a decade."""
    out: list[tuple[float, float]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        ndec = math.log10(hi / lo)
        n = max(1, math.ceil(ndec - 1e-12))
        edges = np.geomspace(lo, hi, n + 1)
        edges[0], edges[-1] = lo, hi
        out.extend(zip(edges[:-1], edges[1:]))
    return out


def _kernel_integral(sd: SpectralDensity, t: float, trig: str) -> tuple[float, float]:
    """Integral of ``g(w) * factor(w, t)`` over ``[0, inf)`` and its error bound.

    ``trig='sin'`` uses ``g = G_0`` with the (w t - sin w t)/w**2 factor and
    equals ``t*f(t)``; ``trig='cos'`` uses ``g = G_T`` with (1 - cos w t)/w**2
    and equals ``t*Gamma(t)``.
    """
    if trig == "sin":
        g = sd.g0
        factor = _sin_factor
        pref = t  # smooth moment is g/w, multiplied by t in the split
        mom = lambda w: g(w) / w
    else:
        g = sd.gt
        factor = _cos_factor
        pref = 1.0
        mom = lambda w: g(w) / (w * w)
    mom2 = (lambda w: g(w) / (w * w)) if trig == "sin" else mom

    feats = sd.features
    support = sd.support
    a = math.pi / t

    value = 0.0
    budget = 0.0

    # -- head: [0, min(a, support)], combined stable factor ----------------
    b_head = min(a, support)
    pts = [p for p in feats if 0.0 < p < b_head] or None
    head, err = _quad(lambda w: g(w) * factor(w, t), 0.0, b_head,
                      epsabs=1e-300, epsrel=_EPSREL, limit=400, points=pts)
    value += head
    budget += err
    if support <= a:  # entire spectrum inside the head; nothing oscillates
        return value, budget

    # -- structured mid range [a, s]: smooth moment minus oscillatory part -
    s = min(max(a, sd.split), support)
    bounds = sorted({a, s} | {p for p in feats if a < p < s})
    chunks = _log_chunks(bounds)

    smooth = 0.0
    m2_chunks = []
    for lo, hi in chunks:
        v, err = _quad(mom, lo, hi, epsabs=1e-300, epsrel=_EPSREL, limit=300)
        smooth += v
        budget += pref * err
        if trig == "sin":  # envelope bound needs the 1/w**2 moment as well
            m2, _ = _quad(mom2, lo, hi, epsabs=1e-300, epsrel=1e-6, limit=100)
        else:
            m2 = v
        m2_chunks.append(m2)

    # tail moments beyond s (absent for finite-support spectra)
    m2_tail = 0.0
    if support > s:
        v, err = _quad(mom, s, np.inf, epsabs=1e-300, epsrel=_EPSREL, limit=200)
        smooth += v
        budget += pref * err
        if trig == "sin":
            m2_tail, _ = _quad(mom2, s, np.inf, epsabs=1e-300, epsrel=1e-6, limit=100)
        else:
            m2_tail = v
    value += pref * smooth

    # The substitution x = w*t below folds the prefactor into the envelope:
    # integral g(w) trig(w t)/w**2 dw = integral t*g(x/t)/x**2 trig(x) dx,
    # so oscillatory contributions enter the assembled value directly.
    # Chunks provably below an absolute floor (envelope bound m2) are
    # dropped into the error budget instead of being integrated.
    epsa = max(1e-13 * abs(value), 1e-280)

    def env(x: float) -> float:
        w = x / t
        return t * g(w) / (x * x)

    osc = 0.0
    for (lo, hi), m2 in zip(chunks, m2_chunks):
        if m2 <= epsa:
            budget += m2
            continue
        v, err = _quad(env, lo * t, hi * t, weight=trig, wvar=1.0,
                       epsabs=epsa, epsrel=_EPSREL, limit=500, maxp1=100)
        osc += v
        budget += err
    if support > s:
        if m2_tail <= epsa:
            budget += m2_tail
        else:
            v, err = _quad(env, s * t, np.inf, weight=trig, wvar=1.0,
                           epsabs=epsa, limlst=400, limit=200, maxp1=100)
            osc += v
            budget += err
    value -= osc

    if budget > _CONTRACT_REL * abs(value) + 1e-250:
        raise NumericError(
            f"kernel quadrature missed its accuracy contract at t={t!r} "
            f"({trig} branch): estimate {value!r}, error bound {budget!r}",
            estimate=value, error_bound=budget)
    return value, budget


def _check_time(t: float):
    """The kernels split their integrals at ``pi/t``, which must be finite:
    ``t`` below about 1.7e-308 is out of their domain."""
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    if not math.isfinite(math.pi / float(t)):
        raise DomainError(f"t must be large enough that pi/t is finite, got {t}")


def f_of_t(sd: SpectralDensity, t: float) -> float:
    """Twisting-phase rate ``f(t)``; requires ``t > 0`` with ``pi/t`` finite."""
    _check_time(t)
    value, _ = _kernel_integral(sd, t, "sin")
    return value / t


def gamma_of_t(sd: SpectralDensity, t: float) -> float:
    """Dephasing rate ``Gamma(t)``; requires ``t > 0`` with ``pi/t`` finite.

    Raises :class:`KernelDivergenceError` when the thermally dressed
    spectrum carries weight at zero frequency (``G_T ~ 1/w`` there), which
    makes the integral logarithmically divergent at the infrared end.
    """
    _check_time(t)
    if math.isinf(gt_zero_limit(sd)):
        raise KernelDivergenceError(
            "Gamma(t) diverges: finite-temperature spectrum has nonzero "
            "weight at omega=0, so G_T(omega) ~ 1/omega and the dephasing "
            "integral has no infrared limit")
    value, _ = _kernel_integral(sd, t, "cos")
    return value / t


# ---------------------------------------------------------------------------
# correlation time: inverse full width at half maximum of G_T


@functools.lru_cache(maxsize=_CACHE_SIZE)
def correlation_time(sd: SpectralDensity) -> float:
    """Bath memory time ``t_c = 1 / FWHM(G_T)`` measured on ``w >= 0``.

    When the maximum sits at (or the profile stays above half maximum down
    to) ``w = 0``, the width is taken from 0 to the upper half-maximum
    crossing.  Degenerate profiles raise :class:`WidthUndefinedError`.
    Memoised per process.
    """
    g_at_0 = gt_zero_limit(sd)
    if math.isinf(g_at_0):
        raise WidthUndefinedError(
            "G_T diverges at omega=0; no half-maximum width exists")
    feats = sd.features or (sd.omega_c,)
    lo = min(feats) * 1e-6
    hi = max(sd.split, max(feats)) * 20.0
    w = np.geomspace(lo, hi, 4000)
    vals = eval_gt(sd, w)

    i_peak = int(np.argmax(vals))
    x_peak = float(w[i_peak])
    peak_v = float(vals[i_peak])
    if 0 < i_peak < len(w) - 1:
        # a narrow line can slip between grid points; polish the maximum
        res = optimize.minimize_scalar(
            lambda x: -sd.gt(x),
            bounds=(w[i_peak - 1], w[i_peak + 1]), method="bounded",
            options={"xatol": float(w[i_peak]) * 1e-12})
        if -float(res.fun) > peak_v:
            peak_v = float(-res.fun)
            x_peak = float(res.x)
    if g_at_0 >= peak_v:
        peak_v = g_at_0
        x_peak = 0.0
    if not peak_v > 0.0:
        raise WidthUndefinedError("spectrum is identically zero; width undefined")
    half = 0.5 * peak_v

    gt = lambda x: sd.gt(x) - half
    # upper crossing: first drop below half maximum beyond the peak; the
    # scan is seeded with the polished peak so sub-resolution lines still
    # bracket correctly
    upper = None
    px, pv = x_peak, peak_v
    for i in range(int(np.searchsorted(w, px, side="right")), len(w)):
        if pv >= half > vals[i]:
            upper = optimize.brentq(gt, max(px, 1e-300), w[i],
                                    xtol=1e-300, rtol=1e-14)
            break
        px, pv = float(w[i]), float(vals[i])
    if upper is None:
        raise WidthUndefinedError(
            "G_T never falls below half maximum on the sampled range; "
            "width undefined (flat or pathological spectrum)")
    # lower crossing, or 0 when the profile stays above half max down to 0
    lower = 0.0
    if g_at_0 < half:
        px, pv = x_peak, peak_v
        for i in range(int(np.searchsorted(w, x_peak, side="left")) - 1, -1, -1):
            if pv >= half > vals[i]:
                lower = optimize.brentq(gt, w[i], px, xtol=1e-300, rtol=1e-14)
                break
            px, pv = float(w[i]), float(vals[i])
        else:
            # profile stays above half down to the sampled floor
            lower = optimize.brentq(gt, 1e-300, px, xtol=1e-300, rtol=1e-14)
    return 1.0 / (upper - lower)


# ---------------------------------------------------------------------------
# long-time (Markov) limits


@dataclass(frozen=True)
class MarkovLimits:
    """Long-time kernel values with the evaluation time and caveats."""

    f_markov: float
    gamma_markov: float
    t_eval: float
    warnings: tuple[str, ...] = ()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def markov_limits(sd: SpectralDensity, t_eval: float | None = None) -> MarkovLimits:
    """Long-time limits ``f_M`` and ``Gamma_M``.

    ``f_M`` is sampled at ``t_eval`` (default ``1e3 * t_c``; must be at
    least ``100 * t_c``).  Spectra with ``G_0(0) > 0`` have no finite limit
    for f (logarithmic growth); the sampled value is returned with a
    warning.  ``Gamma_M`` uses the delta-kernel identity
    ``Gamma_M = (pi/2) * G_T(0+)`` when that limit is finite and is
    ``inf`` (with a warning) when the integral is infrared divergent.
    Memoised per process.
    """
    warnings: list[str] = []
    z = gt_zero_limit(sd)
    if math.isinf(z):
        # correlation_time is also undefined here; require explicit t_eval
        gamma_m = math.inf
        warnings.append(
            "gamma-ir-divergent: G_T has infinite weight at omega=0; "
            "Gamma(t) grows without bound")
        if t_eval is None:
            raise DomainError(
                "t_eval required for infrared-divergent spectra "
                "(no correlation time exists to set the default)")
    else:
        gamma_m = 0.5 * math.pi * z
        t_c = correlation_time(sd)
        if t_eval is None:
            t_eval = 1e3 * t_c
        elif t_eval < 100.0 * t_c:
            raise DomainError(
                f"t_eval={t_eval!r} is below 100*t_corr={100.0 * t_c!r}")
    f_m = f_of_t(sd, t_eval)
    if sd.origin[0] > 0.0:
        warnings.append(
            "f-slow-growth: G_0(0) > 0 makes f(t) grow ~ G_0(0)*ln(t); "
            f"no finite limit exists, value sampled at t={t_eval!r}")
    return MarkovLimits(f_markov=f_m, gamma_markov=gamma_m, t_eval=float(t_eval),
                        warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# tabulation


@dataclass(frozen=True)
class KernelTable:
    """Sampled kernels on a time grid plus their long-time summary."""

    times: np.ndarray
    f_values: np.ndarray
    gamma_values: np.ndarray
    f_markov: float
    gamma_markov: float
    t_corr: float
    warnings: tuple[str, ...] = ()

    def csv_lines(self) -> list[str]:
        """CSV serialization: comment header, then ``t,f,gamma`` rows."""
        lines = [
            f"# f_markov = {self.f_markov!r}",
            f"# gamma_markov = {self.gamma_markov!r}",
            f"# t_corr = {self.t_corr!r}",
        ]
        lines += [f"# warning: {w}" for w in self.warnings]
        lines.append("t,f,gamma")
        for t, f, g in zip(self.times, self.f_values, self.gamma_values):
            lines.append(f"{float(t)!r},{float(f)!r},{float(g)!r}")
        return lines


def tabulate_kernels(sd: SpectralDensity, grid) -> KernelTable:
    """Evaluate both kernels on a strictly increasing positive time grid.

    An empty grid yields an empty table whose long-time summary fields are
    still populated.
    """
    t = np.asarray(grid, dtype=float)
    if t.size and (np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0)):
        raise DomainError("time grid must be positive and strictly increasing")
    f_vals = np.array([f_of_t(sd, ti) for ti in t])
    g_vals = np.array([gamma_of_t(sd, ti) for ti in t])
    t_c = correlation_time(sd)
    lim = markov_limits(sd)
    for arr in (t, f_vals, g_vals):
        arr.setflags(write=False)
    return KernelTable(times=t, f_values=f_vals, gamma_values=g_vals,
                       f_markov=lim.f_markov, gamma_markov=lim.gamma_markov,
                       t_corr=t_c, warnings=lim.warnings)
