"""Dephasing kernels of the collective spin-boson problem.

Two time-dependent rates follow from the bath spectrum:

* ``f(t)  = (1/t) * integral G_0(w) * (w t - sin w t) / w**2 dw``  —
  the accumulated nonlinear (twisting) phase rate, and
* ``Gamma(t) = (1/t) * integral G_T(w) * (1 - cos w t) / w**2 dw``  —
  the time-averaged dephasing rate.

Both integrals run over ``w in [0, inf)`` and become violently oscillatory
once ``w*t`` is large.  ``_kernel_integral`` evaluates them for a whole
array of times at once, in numpy, by globally adaptive quadrature: every
panel of every time is one row of the same array, each round evaluates all
new panels with one rule call, and each (time, stage) group bisects its own
panels until its summed error estimate meets its tolerance.  A group's
panels do not depend on the other times in the array, so a time's value is
the same alone or in a batch (a batch whose panels outgrow the cap on
panels alive at once is integrated again in halves).  Between consecutive
breakpoints (0, the spectrum's features, ``pi/t``, ``sd.split``) panels
are graded: they double in length away from each end, starting at the
end's distance to the nearest feature (or 0) beyond it, so a panel is
about as long as its distance to the structure it approaches, and no panel
away from 0 spans more than an octave or so.  The stages are:

* the head ``[0, min(pi/t, support)]``: ``G * factor``, with the factor
  free of cancellation, on G10K21 panels (Gauss-Kronrod with QUADPACK's
  qk21 error estimate);
* the smooth moment ``G/w`` (sin) or ``G/w**2`` (cos) of the exact split
  ``trig part = smooth moment - oscillatory remainder`` above ``pi/t``:
  the same G10K21 panels on the mid range up to ``sd.split``, and on the
  semi-infinite tail beyond it in ``u``, ``w = p0 + d/u``, which makes an
  algebraic tail smooth and scales the tail by its distance ``d`` from the
  last feature ``p0``.  The same panels carry the envelope moment
  ``G/w**2``.  Both stages of a time are held to ``1e-11`` of its
  ``head + smooth`` value;
* the oscillatory remainder ``integral e(x) trig(x) dx``, ``x = w t``,
  ``e = t G(x/t)/x**2``, on the mid panels scaled to ``x`` and held to
  ``max(epsa, 1e-11 |remainder|)``: Filon-Clenshaw-Curtis panels (the
  25-point Clenshaw-Curtis interpolant of ``e`` integrated exactly against
  ``exp(i x)``, with moments from 64-point Gauss-Legendre sums while the
  panel half-width ``theta`` is at most 48 radians and from the
  terminating integration-by-parts series beyond; the error estimate is
  the interpolant's last Chebyshev coefficients), and G10K21 where
  ``theta <= 1``.

The oscillatory remainder on a range is bounded by its envelope moment; a
mid panel whose bound is below the absolute floor ``epsa = 1e-13 |value|``
goes into the error budget instead of being integrated.  The tail is cut
at the ``W`` beyond which the envelope moment (value plus error) falls
below ``epsa``, integrated up to ``W`` on panels doubling away from
``p0``, and that bound is added to the budget.  The assembled value must
meet ``1e-9`` relative (the kernel contract) with its whole budget, and
the evaluation raises :class:`NumericError` instead of returning a value
that misses it.  No rule sum goes through BLAS (``einsum`` without
``optimize``), so values do not depend on the batch or the thread count.

One piece is still QUADPACK's: for a Lorentzian, the smooth moment over the
tail beyond the split is QAGI's (:func:`_qagi_tail`, scipy imported on first
use), as it was before the kernels moved to numpy, because the benchmark's
reference values pin it.  QAGI loses the wing of a line much wider than 1
(the cavity preset's ``f`` is 0.6% low); the tail panels above, which are
still laid out and read for the envelope, give the wing.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import brent
from .bath import SpectralDensity, SpectrumKind, eval_gt, gt_zero_limit
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
# Below this w*t, 1 - cos(w t) in the head is taken from its Taylor series.
_SERIES_CUT = 1e-4
_CACHE_SIZE = 64  # results kept per process by the memoised bath-only solvers

# Refinement limits: rounds of bisection, panels alive at once, the panels
# one rule evaluation takes (bounds its temporaries to a few MiB), and the
# times integrated together (bounds the panels of a long grid).
_MAX_ROUNDS = 60
_MAX_PANELS = 400_000
_BLOCK = 256
_TIME_BLOCK = 256
# Oscillatory panels of half-width theta (radians): Gauss-Kronrod up to
# _THETA_GK, Filon with moments by Gauss-Legendre (_GL_NODES nodes) up to
# _THETA_IBP, Filon with the terminating integration-by-parts series beyond.
_THETA_GK = 1.0
_THETA_IBP = 48.0
_GL_NODES = 64


# ---------------------------------------------------------------------------
# rules on [-1, 1]

# G10K21, from QUADPACK's qk21: the 21 Kronrod nodes and weights, and the
# 10-point Gauss weights at every other node (zero elsewhere).
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208932914190, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_X = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_GK_WK = np.array(list(_WGK) + [_WGK_CENTRE] + list(_WGK[::-1]))
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _WG
_GK_WG[11:20:2] = _WG[::-1]
_GK_W = np.stack([_GK_WK, _GK_WG], axis=1)
_EPS = np.finfo(float).eps


def _gk21(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G10K21 values and QUADPACK error estimates of rows ``f`` (n, 21)
    sampled at ``_GK_X`` on panels of half-width ``h``."""
    resk, resg = np.einsum("nk,kj->jn", f, _GK_W)
    resabs = np.einsum("nk,k->n", np.abs(f), _GK_WK)
    resasc = np.einsum("nk,k->n", np.abs(f - 0.5 * resk[:, None]), _GK_WK)
    err = np.abs(resk - resg)
    err = np.where(resasc != 0.0, resasc * np.fmin(1.0, (200.0 * err / resasc) ** 1.5), err)
    return resk * h, np.maximum(err, 50.0 * _EPS * resabs) * h


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights by Newton's method on P_n."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-16:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _filon_matrices():
    """Constant matrices of the Filon-Clenshaw-Curtis rule.

    The envelope is sampled at the 25 Clenshaw-Curtis points
    ``cos(j pi / 24)``, and its degree-24 interpolant ``p`` is integrated
    against ``exp(i theta u)`` on [-1, 1]: for moderate ``theta`` through
    ``_GL_NODES``-point Gauss-Legendre sums of ``p`` (exact to rounding for
    ``theta <= _THETA_IBP``), beyond through the integration-by-parts
    series, which terminates for a polynomial:
    ``sum_j (-1)**j [p^(j)(1) e^(i theta) - p^(j)(-1) e^(-i theta)] /
    (i theta)**(j+1)``.  Returns the nodes, the Gauss-Legendre matrix (its
    weights folded in), the matrix of ``p^(j)(1)`` and ``p^(j)(-1)``, and
    the rows giving the last three Chebyshev coefficients of ``p``.
    """
    n = 24
    k = np.arange(n + 1)
    cheb = (2.0 / n) * np.cos(np.pi * np.outer(k, k) / n)  # coefficients from samples
    cheb[:, [0, n]] *= 0.5
    cheb[[0, n], :] *= 0.5

    def apply(a, b):  # a @ b as elementwise sums, fixed at import
        return (a[:, :, None] * b[None, :, :]).sum(axis=1)

    xq, wq = _gauss_legendre(_GL_NODES)
    tq = np.cos(np.outer(np.arccos(xq), k))  # T_k at the Gauss nodes
    # T_k^(j)(1) = prod_{m<j} (k**2 - m**2) / (2m + 1); T_k^(j)(-1) has the
    # sign (-1)**(k+j)
    der = np.ones((n + 1, n + 1))
    for j in range(1, n + 1):
        der[j] = der[j - 1] * (k * k - (j - 1) ** 2) / (2 * j - 1)
    sign = (-1.0) ** np.add.outer(k, k)
    ibp = np.concatenate([apply(der, cheb), apply(der * sign, cheb)])
    return np.cos(np.pi * k / n), xq, wq[:, None] * apply(tq, cheb), ibp, cheb[-3:]


_CC_U, _GL_X, _GL_MAT, _IBP_MAT, _CHEB_TAIL = _filon_matrices()
_IBP_POWERS = -np.arange(1.0, 26.0)
# (-1)**j / (i theta)**(j+1) = (-i) i**j theta**-(j+1)
_IBP_Z = -1j * 1j ** np.arange(25)


# ---------------------------------------------------------------------------
# globally adaptive refinement of panel groups


def _blocked(rule, lo, hi, aux):
    """``rule`` over at most ``_BLOCK`` panels at a time (row results only)."""
    if lo.size <= _BLOCK:
        return rule(lo, hi, aux)
    parts = [rule(lo[i:i + _BLOCK], hi[i:i + _BLOCK], aux[i:i + _BLOCK])
             for i in range(0, lo.size, _BLOCK)]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _refine(rule, lo, hi, aux, gid, ng, tolerance):
    """Bisect panels until each group's summed error meets its tolerance.

    Panel ``i`` covers ``[lo[i], hi[i]]``, belongs to group ``gid[i]`` (of
    ``ng``) and carries the integer row ``aux[i]``, which its halves
    inherit; ``rule(lo, hi, aux)`` returns each panel's value and error
    estimate, and any further per-panel columns, which are carried along.
    ``tolerance(sums)`` maps the groups' value sums to their tolerances.  A
    group is done when its errors sum to at most its tolerance; until then,
    each round halves its panels whose error exceeds that tolerance divided
    by their number.  A panel is split only on its own group's sums and
    errors, so when each tolerance reads only its own time's groups, a
    time's panels, their order and its sums do not depend on the other
    times, unless a round would take the panels beyond ``_MAX_PANELS``:
    refinement then stops for every group.  Returns the final ``lo, hi,
    aux, gid``, the rule's columns and whether that cap was hit.
    """
    cols = _blocked(rule, lo, hi, aux)
    capped = False
    for _ in range(_MAX_ROUNDS):
        val, err = cols[0], cols[1]
        errs = np.bincount(gid, err, ng)
        tol = tolerance(np.bincount(gid, val, ng))
        bad = errs > tol
        if not bad.any():
            break
        share = tol / np.maximum(np.bincount(gid, minlength=ng), 1)
        split = bad[gid] & (err > share[gid]) & (hi - lo > 1e-13 * hi)
        n_split = np.count_nonzero(split)
        if not n_split:
            break
        capped = lo.size + n_split > _MAX_PANELS
        if capped:
            break
        keep = ~split
        s_lo, s_hi = lo[split], hi[split]
        mid = 0.5 * (s_lo + s_hi)
        n_lo, n_hi = np.concatenate([s_lo, mid]), np.concatenate([mid, s_hi])
        n_aux = np.concatenate([aux[split]] * 2)
        new = _blocked(rule, n_lo, n_hi, n_aux)
        lo, hi = np.concatenate([lo[keep], n_lo]), np.concatenate([hi[keep], n_hi])
        aux = np.concatenate([aux[keep], n_aux])
        gid = np.concatenate([gid[keep], gid[split], gid[split]])
        cols = tuple(np.concatenate([c[keep], c_new]) for c, c_new in zip(cols, new))
    return lo, hi, aux, gid, cols, capped


# ---------------------------------------------------------------------------
# the kernel integrals

# Panel kinds of the non-oscillatory stage (aux column 1).  Tail panels run
# over u in (0, 1] with w = p0 + d/u, so that an algebraic tail is smooth
# and the tail's scale is the distance d from its origin p0.
_HEAD, _MID, _TAIL = range(3)
# u edges of the tail before refinement: (w - p0)/d = 1, 4, 16, ... 4**15
_TAIL_EDGES = [0.0] + [4.0 ** -j for j in range(15, -1, -1)]


def _graded(lo: float, hi: float, marks: list[float]) -> list[float]:
    """Edges splitting ``[lo, hi]`` into panels that double in length away
    from each end, starting at the distance from that end to the nearest
    point of ``marks`` (0 and the features, sorted) beyond it: a panel is
    about as long as its distance to the structure it approaches.  An end
    at 0 is not graded; the panel where the two sides meet is at most 1.5
    times the smaller current length."""
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


def _head_factor(w, t, trig):
    """(w t - sin w t)/w**2 or (1 - cos w t)/w**2 without cancellation.

    With ``x = w t``: ``x - sin x`` is summed from its Taylor series below
    ``x = 1/4`` (seven terms reach rounding there; above it the direct form
    loses at most ``6 eps / x**2``); ``1 - cos x`` is ``2 sin(x/2)**2``,
    and its series where ``x < _SERIES_CUT``.
    """
    x = w * t
    if trig == "sin":
        x2 = x * x
        series = _SIN_SERIES[0]
        for c in _SIN_SERIES[1:]:
            series = series * x2 + c
        return np.where(x < 0.25, t * t * x * series, (x - np.sin(x)) / (w * w))
    half = np.sin(0.5 * x)
    return np.where(x < _SERIES_CUT, 0.5 * t * t * (1.0 - x * x / 12.0 + x ** 4 / 360.0),
                    2.0 * half * half / (w * w))


# (x - sin x) / x**3 = sum_k (-1)**k x**(2k) / (2k+3)!, highest power first
_SIN_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(6, -1, -1))


def _smooth_rule(g, times, trig, p0, tail_d):
    """G10K21 on the non-oscillatory panels: the head ``g * factor``, and
    the smooth moment ``g/w`` (sin) or ``g/w**2`` (cos) on the mid range and
    the tail.  Two further columns carry the envelope moment ``g/w**2`` and
    its error (the smooth moment itself on the cos branch)."""
    sin_branch = trig == "sin"

    def rule(lo, hi, aux):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = c[:, None] + h[:, None] * _GK_X
        kind = aux[:, 1]
        w = v
        mult = 1.0 / v
        tail = kind == _TAIL
        if tail.any():
            # w = p0 + d/u: dw/w = d du/(u q) and dw/w**2 = d du/q**2, q = u w
            w = v.copy()
            u = v[tail]
            d = tail_d[aux[tail, 0], None]
            q = p0 * u + d
            w[tail] = q / u
            mult[tail] = d / (u * q)
        iw = 1.0 / w
        if not sin_branch:
            mult *= iw
        head = kind == _HEAD
        if head.any():
            mult[head] = _head_factor(v[head], times[aux[head, 0]][:, None], trig)
        f = g(w) * mult
        if tail.any():
            f[np.isinf(w)] = 0.0  # no spectral weight at infinite frequency
        if not sin_branch:
            val, err = _gk21(f, h)
            return val, err, val, err
        val, err = _gk21(np.concatenate([f, f * iw]), np.concatenate([h, h]))
        m = h.size
        return val[:m], err[:m], val[m:], err[m:]

    return rule


def _oscillatory_rule(g, times, trig):
    """Integral of ``e(x) trig(x)``, ``e(x) = t g(x/t) / x**2``, over panels
    in ``x = w t``: G10K21 where the panel's half-width ``theta`` is at most
    ``_THETA_GK`` radians, Filon-Clenshaw-Curtis beyond.  The phase at a
    node ``c + h u`` is taken as ``exp(i c) exp(i h u)``, so it stays exact
    to rounding of the small part wherever the panel sits."""
    part = np.imag if trig == "sin" else np.real

    def rule(lo, hi, aux):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = times[aux[:, 0], None]
        small = h <= _THETA_GK
        if small.all():
            return _gk_oscillatory(g, c, h, t, part)
        if not small.any():
            return _filon(g, lo, hi, c, h, t, part)
        val, err = np.empty_like(c), np.empty_like(c)
        big = ~small
        val[small], err[small] = _gk_oscillatory(g, c[small], h[small], t[small], part)
        val[big], err[big] = _filon(g, lo[big], hi[big], c[big], h[big], t[big], part)
        return val, err

    return rule


def _gk_oscillatory(g, c, h, t, part):
    """G10K21 of ``e(x) trig(x)`` on panels short against the period."""
    off = h[:, None] * _GK_X
    x = c[:, None] + off
    return _gk21(t * g(x / t) / (x * x) * part(np.exp(1j * c)[:, None] * np.exp(1j * off)), h)


def _filon(g, lo, hi, c, h, t, part):
    """Filon-Clenshaw-Curtis values and error estimates of ``e(x) trig(x)``
    on panels ``[lo, hi]`` with centres ``c`` and half-widths ``h``; ``t``
    is each panel's time, a column.  The error estimate bounds the
    interpolation error of the envelope, ``2 h`` times the sum of its last
    three Chebyshev coefficients, and ignores the damping by the
    oscillation."""
    x = c[:, None] + h[:, None] * _CC_U
    e = t * g(x / t) / (x * x)
    res = np.empty(c.size, dtype=complex)  # integral of e exp(i x)
    gl = h <= _THETA_IBP
    if gl.any():
        sums = np.einsum("nk,qk,nq->n", e[gl], _GL_MAT, np.exp(1j * (h[gl, None] * _GL_X)))
        res[gl] = h[gl] * np.exp(1j * c[gl]) * sums
    ibp = ~gl
    if ibp.any():
        # A at u = 1 and B at u = -1: integral = h [A exp(i hi) - B exp(i lo)]
        d = np.einsum("nk,jk->nj", e[ibp], _IBP_MAT).reshape(-1, 2, 25)
        ab = np.einsum("nij,nj->ni", d, _IBP_Z * h[ibp, None] ** _IBP_POWERS)
        res[ibp] = h[ibp] * (ab[:, 0] * np.exp(1j * hi[ibp]) - ab[:, 1] * np.exp(1j * lo[ibp]))
    tail = np.abs(np.einsum("nk,jk->nj", e, _CHEB_TAIL)).sum(axis=1)
    return part(res), 2.0 * h * tail


def _kernel_integral(sd: SpectralDensity, times: np.ndarray,
                     trig: str) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``g(w) * factor(w, t)`` over ``[0, inf)`` and error bounds.

    ``trig='sin'`` uses ``g = G_0`` with the (w t - sin w t)/w**2 factor and
    gives ``t*f(t)``; ``trig='cos'`` uses ``g = G_T`` with (1 - cos w t)/w**2
    and gives ``t*Gamma(t)``.  ``times`` is a 1-D array of valid times; each
    time's value and bound do not depend on the others in the array.
    Raises :class:`NumericError` at the first time whose bound misses the
    contract.
    """
    values, budgets = [], []
    for start in range(0, times.size, _TIME_BLOCK):  # bounds the panels alive at once
        block = times[start:start + _TIME_BLOCK]
        value, budget = _integrate_block(sd, block, trig)
        bad = np.flatnonzero(~(budget <= _CONTRACT_REL * np.abs(value) + 1e-250))
        if bad.size:
            i = int(bad[0])
            raise NumericError(
                f"kernel quadrature missed its accuracy contract at t={float(block[i])!r} "
                f"({trig} branch): estimate {float(value[i])!r}, "
                f"error bound {float(budget[i])!r}",
                estimate=float(value[i]), error_bound=float(budget[i]))
        values.append(value)
        budgets.append(budget)
    if len(values) == 1:
        return values[0], budgets[0]
    return np.concatenate(values), np.concatenate(budgets)


def _integrate_block(sd: SpectralDensity, times: np.ndarray, trig: str):
    """:func:`_integrate` of a block of times.  A block whose panels outgrow
    ``_MAX_PANELS`` is integrated again in halves, down to single times, so
    the cap acts on a time as it does when the time is integrated alone."""
    with np.errstate(all="ignore"):  # overflow to inf and 0/0 are handled where they arise
        value, budget, capped = _integrate(sd, times, trig)
    if capped and times.size > 1:
        half = times.size // 2
        (v0, b0), (v1, b1) = (_integrate_block(sd, part, trig)
                              for part in (times[:half], times[half:]))
        return np.concatenate([v0, v1]), np.concatenate([b0, b1])
    return value, budget


def _integrate(sd: SpectralDensity, times: np.ndarray, trig: str):
    """The assembled values and error budgets of :func:`_kernel_integral`,
    and whether refinement hit ``_MAX_PANELS``."""
    g = sd.g0 if trig == "sin" else sd.gt
    feats, support, split, n = sd.features, sd.support, sd.split, times.size
    below = [p for p in feats if p < split]
    p0 = below[-1] if below else 0.0  # tail origin

    # -- stage 1: head and smooth moments, G10K21 ----------------------------
    # groups: 2i the head of time i, 2i+1 its smooth moment (mid and tail);
    # panels are graded between consecutive breakpoints (0, the features,
    # pi/t, the split and the support)
    marks = [0.0, *feats]
    p_lo: list[float] = []
    p_hi: list[float] = []
    p_aux: list[tuple[int, int, int]] = []  # (time, kind, index of a mid panel)
    mids: list[tuple[int, float, float]] = []  # (time, lo, hi) of the mid panels
    tail_d = np.zeros(n)  # scale d of each time's tail, 0 where it has none
    tail_s = np.zeros(n)
    for i, t in enumerate(times.tolist()):
        a = math.pi / t
        b_head = min(a, support)
        bounds = [0.0, *(p for p in feats if p < b_head), b_head]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            edges = _graded(lo, hi, marks)
            p_lo += edges[:-1]
            p_hi += edges[1:]
            p_aux += [(i, _HEAD, 0)] * (len(edges) - 1)
        if support <= a:  # the whole spectrum is in the head
            continue
        s = min(max(a, split), support)
        bounds = [a, *(p for p in feats if a < p < s), s]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            edges = _graded(lo, hi, marks)
            p_lo += edges[:-1]
            p_hi += edges[1:]
            p_aux += [(i, _MID, len(mids) + k) for k in range(len(edges) - 1)]
            mids += [(i, el, eh) for el, eh in zip(edges[:-1], edges[1:])]
        if support > s:
            tail_s[i], tail_d[i] = s, s - p0
            p_lo += _TAIL_EDGES[:-1]
            p_hi += _TAIL_EDGES[1:]
            p_aux += [(i, _TAIL, 0)] * (len(_TAIL_EDGES) - 1)
    pref = times if trig == "sin" else np.ones(n)  # t*f has t times the moment of g/w

    def tolerance(sums):  # both stages of a time to _EPSREL of head + pref * smooth
        scale = np.abs(sums[0::2]) + pref * np.abs(sums[1::2])
        return np.maximum(_EPSREL * np.stack([scale, scale / pref], axis=1).ravel(), 1e-300)

    aux = np.array(p_aux, dtype=np.intp).reshape(-1, 3)
    lo, hi, aux, gid, (val, err, env, env_err), capped = _refine(
        _smooth_rule(g, times, trig, p0, tail_d), np.array(p_lo), np.array(p_hi), aux,
        2 * aux[:, 0] + (aux[:, 1] != _HEAD), 2 * n, tolerance)
    lorentzian = sd.kind is SpectrumKind.LORENTZIAN
    own = aux[:, 1] != _TAIL if lorentzian else slice(None)  # a line's tail is _qagi_tail's
    sums = np.bincount(gid[own], val[own], 2 * n).reshape(n, 2)
    errs = np.bincount(gid[own], err[own], 2 * n).reshape(n, 2)
    if lorentzian:
        for i in np.flatnonzero(tail_d).tolist():
            v, e = _qagi_tail(sd, float(tail_s[i]), trig)
            sums[i, 1] += v
            errs[i, 1] += e
    value = sums[:, 0] + pref * sums[:, 1]
    budget = errs[:, 0] + pref * errs[:, 1]

    # -- stage 2: oscillatory remainder in x = w t ---------------------------
    # integral g(w) trig(w t)/w**2 dw = integral t g(x/t)/x**2 trig(x) dx,
    # bounded on any range by the envelope moment of g/w**2 there.  A mid
    # panel (as first laid out) whose envelope moment is below the absolute
    # floor epsa goes into the budget instead of being integrated; the tail
    # is cut at the W beyond which its envelope moment (value plus error) is
    # below epsa, and that bound goes into the budget.
    epsa = np.maximum(1e-13 * np.abs(value), 1e-280)
    kind = aux[:, 1]
    bound = env + env_err
    on_mid = kind == _MID
    mid_bound = np.bincount(aux[on_mid, 2], bound[on_mid], len(mids)).tolist()
    o_lo: list[float] = []
    o_hi: list[float] = []
    o_time: list[int] = []
    for (i, m_lo, m_hi), b in zip(mids, mid_bound):
        if b <= epsa[i]:
            budget[i] += b
        else:
            o_lo.append(m_lo * times[i])
            o_hi.append(m_hi * times[i])
            o_time.append(i)
    on_tail = kind == _TAIL
    if on_tail.any():
        order = np.lexsort((lo[on_tail], aux[on_tail, 0]))  # by time, then outward in w
        owner = aux[on_tail, 0][order]
        u_hi = hi[on_tail][order].tolist()
        cum_all = bound[on_tail][order]
        for i in np.flatnonzero(tail_d).tolist():
            b0, b1 = np.searchsorted(owner, [i, i + 1]).tolist()
            cum = np.cumsum(cum_all[b0:b1]).tolist()
            m = bisect.bisect_right(cum, epsa[i])  # panels wholly below the floor
            if m == b1 - b0:
                budget[i] += cum[-1]
                continue
            m = max(m, 1)  # the outermost panel is cut off in any case
            budget[i] += cum[m - 1]
            t, s, d = float(times[i]), float(tail_s[i]), float(tail_d[i])
            cut = p0 + d / u_hi[b0 + m - 1]
            edges = [s]
            while p0 + 2.0 * (edges[-1] - p0) < cut:
                edges.append(p0 + 2.0 * (edges[-1] - p0))
            edges.append(cut)
            o_lo += [e * t for e in edges[:-1]]
            o_hi += [e * t for e in edges[1:]]
            o_time += [i] * (len(edges) - 1)
    if o_lo:
        o_aux = np.array(o_time, dtype=np.intp)[:, None]
        _, _, _, o_gid, (o_val, o_err), o_capped = _refine(
            _oscillatory_rule(g, times, trig), np.array(o_lo), np.array(o_hi), o_aux,
            o_aux[:, 0], n, lambda sums: np.maximum(epsa, _EPSREL * np.abs(sums)))
        value = value - np.bincount(o_gid, o_val, n)
        budget = budget + np.bincount(o_gid, o_err, n)
        capped = capped or o_capped
    return value, budget, capped


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _qagi_tail(sd: SpectralDensity, s: float, trig: str) -> tuple[float, float]:
    """Smooth moment ``g/w`` (sin) or ``g/w**2`` (cos) of a Lorentzian over
    ``[s, inf)`` and its error, by QUADPACK's QAGI (scipy, imported here).

    Transitional: the kernels took this value from QAGI before they moved
    to numpy, and the benchmark's reference values (``perfbench/``) pin
    it.  On a line much wider than 1, such as the cavity preset's (width
    1e6 at 1e10), QAGI's map ``w = s + (1 - u)/u`` loses the wing beyond
    ``s`` and returns about 0 for a moment near 0.6% of the line's, so that
    ``f`` is that much low.  The numpy tail panels of :func:`_integrate`
    have the wing; they replace this function when the reference is
    captured again.
    """
    from scipy import integrate

    g = sd.g0 if trig == "sin" else sd.gt
    mom = (lambda w: g(w) / w) if trig == "sin" else (lambda w: g(w) / (w * w))
    res = integrate.quad(mom, s, math.inf, full_output=1,
                         epsabs=1e-300, epsrel=_EPSREL, limit=200)
    return float(res[0]), float(res[1])


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
    return float(_f_values(sd, np.array([float(t)]))[0])


def gamma_of_t(sd: SpectralDensity, t: float) -> float:
    """Dephasing rate ``Gamma(t)``; requires ``t > 0`` with ``pi/t`` finite.

    Raises :class:`KernelDivergenceError` when the thermally dressed
    spectrum carries weight at zero frequency (``G_T ~ 1/w`` there), which
    makes the integral logarithmically divergent at the infrared end.
    """
    _check_time(t)
    return float(_gamma_values(sd, np.array([float(t)]))[0])


def _f_values(sd: SpectralDensity, t: np.ndarray) -> np.ndarray:
    return _kernel_integral(sd, t, "sin")[0] / t


def _gamma_values(sd: SpectralDensity, t: np.ndarray) -> np.ndarray:
    if math.isinf(gt_zero_limit(sd)):
        raise KernelDivergenceError(
            "Gamma(t) diverges: finite-temperature spectrum has nonzero "
            "weight at omega=0, so G_T(omega) ~ 1/omega and the dephasing "
            "integral has no infrared limit")
    return _kernel_integral(sd, t, "cos")[0] / t


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
        x_min, f_min = brent.minimize(lambda x: -sd.gt(x), w[i_peak - 1], w[i_peak + 1],
                                      xatol=float(w[i_peak]) * 1e-12)
        if -f_min > peak_v:
            peak_v = -f_min
            x_peak = x_min
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
            upper = brent.root(gt, max(px, 1e-300), w[i], xtol=1e-300, rtol=1e-14)
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
                lower = brent.root(gt, w[i], px, xtol=1e-300, rtol=1e-14)
                break
            px, pv = float(w[i]), float(vals[i])
        else:
            # profile stays above half down to the sampled floor
            lower = brent.root(gt, 1e-300, px, xtol=1e-300, rtol=1e-14)
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
    for ti in t.tolist():
        _check_time(ti)
    f_vals = _f_values(sd, t) if t.size else np.zeros(0)
    g_vals = _gamma_values(sd, t) if t.size else np.zeros(0)
    t_c = correlation_time(sd)
    lim = markov_limits(sd)
    for arr in (t, f_vals, g_vals):
        arr.setflags(write=False)
    return KernelTable(times=t, f_values=f_vals, gamma_values=g_vals,
                       f_markov=lim.f_markov, gamma_markov=lim.gamma_markov,
                       t_corr=t_c, warnings=lim.warnings)
