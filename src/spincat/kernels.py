"""Dephasing kernels of the collective spin-boson problem.

Two time-dependent rates follow from the bath spectrum:

* ``f(t)  = (1/t) * integral G_0(w) * (w t - sin w t) / w**2 dw``  —
  the accumulated nonlinear (twisting) phase rate, and
* ``Gamma(t) = (1/t) * integral G_T(w) * (1 - cos w t) / w**2 dw``  —
  the time-averaged dephasing rate.

Both run over ``w in [0, inf)`` and are parts of one integral: at zero
temperature ``t (Gamma + i f) = integral G_0 (1 + i w t - exp(i w t)) /
w**2 dw``.  ``_kernel_integral`` evaluates both for an array of times at
once, in numpy, by globally adaptive quadrature on shared panels: ``G_0``
is evaluated once per node and ``G_T`` dressed from it (``sd.dress``), every
panel of every time is one row of the same array, and each (time, stage)
group bisects its own panels until each kernel's summed error meets that
kernel's tolerance, so a time's values are the same alone or in a batch.
Panels are graded between breakpoints (:func:`_graded`), those between two
marks once per spectrum (:func:`_mark_panels`).  The stages:

* the head ``[0, min(pi/t, support)]``: ``G_0`` and ``G_T`` times their
  factors, free of cancellation, on G10K21 panels (Gauss-Kronrod with
  QUADPACK's qk21 error estimate);
* the smooth moments ``G_0/w`` (``f``) and ``G_T/w**2`` (``Gamma``) of the
  exact split ``sin or cos part = smooth moment - oscillatory remainder``
  above ``pi/t``, on the same panels up to ``sd.split`` and on the tail beyond it
  in ``u``, ``w = p0 + d/u`` (:func:`_smooth_rule`), with ``f``'s envelope
  moment ``G_0/w**2`` (``Gamma``'s is its smooth moment); both stages of a
  time are held to ``1e-11`` of its ``head + smooth`` value;
* the oscillatory remainders ``integral e sin x dx`` (``f``) and ``integral
  e cos x dx`` (``Gamma``), ``x = w t``, ``e = t G(x/t)/x**2``, held to
  ``max(epsa, 1e-11 |remainder|)``: each mid and tail panel of the first
  layout is one panel in ``x``, and each envelope is integrated once against
  ``exp(i x)``, ``f`` read from the imaginary part and ``Gamma`` from the
  real part (one envelope serves both at zero temperature), by
  Filon-Clenshaw-Curtis (:func:`_filon_matrices`) at every panel width:
  up to half-width ``_THETA_IBP`` a Gauss-Legendre sum folded onto its 32
  positive nodes, two real sums against ``cos`` (real part) and ``sin``
  (imaginary part), beyond it the integration-by-parts series.

A remainder is bounded by its envelope moment: a mid or tail panel whose
bounds are both below their floors ``epsa = 1e-13 |value|``, and the tail
panel that reaches ``w = inf``, go into the error budgets instead of being
integrated.  Each kernel must meet ``1e-9`` relative (the kernel contract)
with its whole budget, or the evaluation raises :class:`NumericError`
naming it; ``Gamma`` raises :class:`KernelDivergenceError` where ``G_T(0+)``
is infinite.  No rule sum goes through BLAS (``einsum`` without
``optimize``), so values do not depend on the batch or the thread count.
Every entrance that evaluates a spectrum (:func:`_kernel_integral`,
:func:`correlation_time`) holds ``np.errstate`` once per call: the
spectrum formulas of :mod:`spincat.bath` do not switch it.
For a Lorentzian the smooth moments over the tail beyond the split
are still QUADPACK QAGI's (:func:`_qagi_tail`), which the benchmark's
reference values pin.

The quantities that depend on the bath alone live here, memoised per
process: :func:`markov_limits` (with ``t_corr``) per spectrum, the
formation time :func:`solve_bath` per spectrum and horizon, apart so that
a run that never reads ``tau`` does not solve for it, and the integral of
both kernels at a single time (:func:`_kernels_at`) per spectrum and time.
That last memo is the one way the package reads a kernel at one time
(:func:`_rate_at`): the solve's steps, ``f`` and ``Gamma`` at ``tau``, the
Markov sample and the state at any ``t`` in :mod:`spincat.evolve`, so a
time already integrated, such as a solved ``tau``, is not integrated
again; :func:`f_of_t` and :func:`gamma_of_t` integrate on every call.
After the Markov sample a solve takes 3 kernel integrals for fig1, phonon,
cavity and most 24-knot tables (4 for the rest), 6 for fig2's line.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import brent
from .bath import SpectralDensity, SpectrumKind, gt_zero_limit
from .errors import (DomainError, KernelDivergenceError, NoFormationError, NumericError,
                     UsageError, WidthUndefinedError)

__all__ = [
    "BathSolution",
    "KernelTable",
    "MarkovLimits",
    "f_of_t",
    "gamma_of_t",
    "markov_limits",
    "correlation_time",
    "solve_bath",
    "solve_tau_mqs",
    "tabulate_kernels",
]

# Relative accuracy demanded of each quadrature stage and the contract the
# assembled value must meet (raise beyond it).
_EPSREL = 1e-11
_CONTRACT_REL = 1e-9
# Below this w*t, 1 - cos(w t) in the head is taken from its Taylor series.
_SERIES_CUT = 1e-4
# entries of each memo: Markov limits, bath solutions, single-time integrals,
# mark panels, QAGI tails
_CACHE_SIZE = 64
_HALF_PI = math.pi / 2.0
_TAU_RESIDUAL_TOL = 1e-9 * _HALF_PI
# Default formation-time search horizon, in units of the correlation time.
_DEFAULT_HORIZON_FACTOR = 1e6

# Refinement limits: rounds of bisection, panels alive at once, the panels
# one rule evaluation takes (bounds its temporaries to a few MiB), and the
# times integrated together (bounds the panels of a long grid).
_MAX_ROUNDS = 60
_MAX_PANELS = 400_000
_BLOCK = 256
_TIME_BLOCK = 256
# Filon moments of an oscillatory panel of half-width theta (radians): by
# Gauss-Legendre (_GL_NODES nodes) up to _THETA_IBP, by the terminating
# integration-by-parts series beyond.
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


def _gk21(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """G10K21 values and QUADPACK error estimates, (n, 2, k), of rows ``f``
    (n, k, 21), k integrands sampled at ``_GK_X`` on panels of half-width
    ``h``."""
    resk, resg = np.einsum("nik,kj->jni", f, _GK_W)
    resabs = np.einsum("nik,k->ni", np.abs(f), _GK_WK)
    resasc = np.einsum("nik,k->ni", np.abs(f - 0.5 * resk[..., None]), _GK_WK)
    err = np.abs(resk - resg)
    err = np.where(resasc != 0.0, resasc * np.fmin(1.0, (200.0 * err / resasc) ** 1.5), err)
    return np.stack([resk, np.maximum(err, 50.0 * _EPS * resabs)], axis=1) * h[:, None, None]


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
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # the mirrored roots converge to mirror values; make them exact mirrors
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _filon_matrices():
    """Constant matrices of the Filon-Clenshaw-Curtis rule.

    The envelope is sampled at the 25 Clenshaw-Curtis points
    ``cos(j pi / 24)``, and its degree-24 interpolant ``p`` is integrated
    against ``exp(i theta u)`` on [-1, 1]: for moderate ``theta`` through
    ``_GL_NODES``-point Gauss-Legendre sums of ``p`` (exact to rounding for
    ``theta <= _THETA_IBP``), beyond through the integration-by-parts
    series, which terminates for a polynomial:
    ``sum_j (-1)**j [p^(j)(1) e^(i theta) - p^(j)(-1) e^(-i theta)] /
    (i theta)**(j+1)``.  The Gauss-Legendre nodes come in pairs ``+-x_q``,
    so the sum folds onto the positive nodes as two real sums: ``sum_q
    cos(theta x_q) [p(x_q) + p(-x_q)] w_q`` (the real part) and ``sum_q
    sin(theta x_q) [p(x_q) - p(-x_q)] w_q`` (the imaginary part).  Returns
    the nodes, the positive Gauss-Legendre nodes, the two folded matrices
    (sample values to the bracketed sums, the weights folded in), the matrix
    of ``p^(j)(1)`` and ``p^(j)(-1)``, and the rows giving the last three
    Chebyshev coefficients of ``p``.
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
    gl = wq[:, None] * apply(tq, cheb)  # samples to p(x_q) w_q; xq[-1 - q] == -xq[q]
    m = _GL_NODES // 2
    return (np.cos(np.pi * k / n), xq[:m], gl[:m] + gl[:m - 1:-1], gl[:m] - gl[:m - 1:-1],
            ibp, cheb[-3:])


_CC_U, _GL_X, _GL_COS, _GL_SIN, _IBP_MAT, _CHEB_TAIL = _filon_matrices()
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


def _group_sums(gid, cols, ng):
    """Sums (groups, columns) of the rows of ``cols`` by group, in row order."""
    k = cols.shape[1]
    return np.bincount((gid[:, None] * k + np.arange(k)).ravel(), cols.ravel(),
                       ng * k).reshape(ng, k)


def _refine(rule, lo, hi, aux, gid, ng, tolerance):
    """Bisect panels until each group's summed error meets its tolerance.

    Panel ``i`` covers ``[lo[i], hi[i]]``, belongs to group ``gid[i]`` (of
    ``ng``) and carries the integer row ``aux[i]``, which its halves
    inherit; ``rule(lo, hi, aux)`` returns each panel's estimates (each
    kernel's value, then each kernel's error) and further columns, which
    are carried along.  ``tolerance(sums)`` maps the groups' value sums to
    their tolerances.  Each round halves a group's panels where a kernel's
    error exceeds its tolerance over their number, until its errors sum to
    at most its tolerance.  A panel is split only on its own group's sums
    and errors, so when each tolerance reads only its own time's groups, a
    time's panels, their order and its sums do not depend on the other
    times, unless a round would take the panels beyond ``_MAX_PANELS``:
    refinement then stops for every group.  Returns the final ``lo, hi,
    aux, gid``, the rule's columns, the groups' sums and whether that cap
    was hit.
    """
    cols = _blocked(rule, lo, hi, aux)
    capped = False
    for rnd in range(_MAX_ROUNDS + 1):
        est = cols[0]
        k = est.shape[1] // 2
        sums = _group_sums(gid, est, ng)
        tol = tolerance(sums[:, :k])
        bad = sums[:, k:] > tol
        if rnd == _MAX_ROUNDS or not bad.any():
            break
        share = tol / np.maximum(np.bincount(gid, minlength=ng), 1)[:, None]
        split = (bad[gid] & (est[:, k:] > share[gid])).any(axis=1) & (hi - lo > 1e-13 * hi)
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
    return lo, hi, aux, gid, cols, sums, capped


# ---------------------------------------------------------------------------
# the kernel integrals

# Panel kinds of the non-oscillatory stage (aux column 1).  Tail panels run
# over u in (0, 1] with w = p0 + d/u, so that an algebraic tail is smooth
# and the tail's scale is the distance d from its origin p0.
_HEAD, _MID, _TAIL = range(3)
# u edges of the tail before refinement: (w - p0)/d = 1, 4, 16, ... 4**15
_TAIL_EDGES = [0.0] + [4.0 ** -j for j in range(15, -1, -1)]


def _graded(lo: float, hi: float, marks: list[float]) -> tuple[list[float], list[float]]:
    """Panels (``lo`` and ``hi`` edges) splitting ``[lo, hi]`` that double in
    length away from each end, starting at the distance from that end to the
    nearest point of ``marks`` (0 and the features, sorted) beyond it: a
    panel is about as long as its distance to the structure it approaches.
    An end at 0 is not graded; the panel where the two sides meet is at most
    1.5 times the smaller current length."""
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
    return left + right[:0:-1], left[1:] + right[::-1]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _mark_panels(feats: tuple[float, ...]):
    """The marks ``[0, *feats]`` and :func:`_graded`'s panels between consecutive
    marks: ``lo`` and ``hi`` edges, and where each interval's panels start."""
    marks = [0.0, *feats]
    panels = [_graded(a, b, marks) for a, b in zip(marks[:-1], marks[1:])]
    return (marks, [x for lo, _ in panels for x in lo], [x for _, hi in panels for x in hi],
            [0, *itertools.accumulate(len(lo) for lo, _ in panels)])


def _first_layout(sd: SpectralDensity, times: np.ndarray):
    """:func:`_integrate`'s first panels (``lo``, ``hi``, rows ``(time, kind,
    index)``), time by time its head, mid range and tail, graded between the
    breakpoints 0, the features, pi/t, the split and the support; then each
    time's tail scale ``d`` and start ``s`` (0 if none) and the tail origin ``p0``."""
    feats, support, split, n = sd.features, sd.support, sd.split, times.size
    marks, m_lo, m_hi, m_at = _mark_panels(feats)
    p0 = marks[bisect.bisect_left(feats, split)]  # the last feature below the split, or 0
    p_lo, p_hi, runs = [], [], []  # runs: (time, kind, panels) in layout order
    tail_d, tail_s = np.zeros(n), np.zeros(n)
    for i, t in enumerate(times.tolist()):
        a = math.pi / t
        b_head, s = min(a, support), min(max(a, split), support)
        k = bisect.bisect_left(feats, b_head)  # [0, feats < b_head, b_head]
        chunks = [(_HEAD, m_lo[:m_at[k]], m_hi[:m_at[k]]),
                  (_HEAD, *_graded(marks[k], b_head, marks))]
        if a < s:  # [a, a < feats < s, s]
            j0, j1 = bisect.bisect_right(feats, a), bisect.bisect_left(feats, s)
            chunks.append((_MID, *_graded(a, feats[j0] if j0 < j1 else s, marks)))
            if j0 < j1:
                chunks += [(_MID, m_lo[m_at[j0 + 1]:m_at[j1]], m_hi[m_at[j0 + 1]:m_at[j1]]),
                           (_MID, *_graded(feats[j1 - 1], s, marks))]
        if support > s:
            tail_s[i], tail_d[i] = s, s - p0
            chunks.append((_TAIL, _TAIL_EDGES[:-1], _TAIL_EDGES[1:]))
        for kind, lo, hi in chunks:
            runs.append((i, kind, len(lo)))
            p_lo += lo
            p_hi += hi
    runs = np.array(runs, dtype=np.intp)
    aux = np.repeat(runs, runs[:, 2], axis=0)
    aux[:, 2] = np.arange(len(aux))
    return np.array(p_lo), np.array(p_hi), aux, tail_d, tail_s, p0


def _head_factors(w, t):
    """(w t - sin w t)/(w**2 t) and (1 - cos w t)/(w**2 t) as ``t (x - sin
    x)/x**2`` and ``t (1 - cos x)/x**2``, ``x = w t``: no ``t*t`` or ``w*w``
    to under- or overflow, and no cancellation.  ``x - sin x`` is summed
    from its Taylor series below ``x = 1/4`` (seven terms reach rounding
    there; above it the direct form loses at most ``6 eps / x**2``); ``1 -
    cos x`` is ``2 sin(x/2)**2``, and its series where ``x < _SERIES_CUT``.
    """
    x = w * t
    x2 = x * x
    series = _SIN_SERIES[0]
    for c in _SIN_SERIES[1:]:
        series = series * x2 + c
    half = np.sin(0.5 * x)
    return (t * np.where(x < 0.25, x * series, (x - np.sin(x)) / x2),
            t * np.where(x < _SERIES_CUT, 0.5 * (1.0 - x2 / 12.0 + x2 * x2 / 360.0),
                         2.0 * half * half / x2))


# (x - sin x) / x**3 = sum_k (-1)**k x**(2k) / (2k+3)!, highest power first
_SIN_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(6, -1, -1))


def _smooth_rule(sd, dress, times, p0, tail_d):
    """G10K21 on the non-oscillatory panels: on the head ``G_0`` and ``G_T =
    dress(w, G_0)`` times their factors, on the mid range and the tail
    ``G_0/w`` (``f``), ``G_T/w**2`` (``Gamma``) and, unless ``G_T`` is
    ``G_0``, ``G_0/w**2``.  Returns the estimates of the first two and each
    column's value plus error, the envelope bounds."""
    one_envelope = sd.gt is sd.g0

    def rule(lo, hi, aux):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = c[:, None] + h[:, None] * _GK_X
        kind = aux[:, 1]
        w, mult = v, 1.0 / v
        tail = kind == _TAIL
        if tail.any():
            # w = p0 + d/u: dw/w = d du/(u q) and dw/w**2 = d du/q**2, q = u w
            w = v.copy()
            u = v[tail]
            d = tail_d[aux[tail, 0], None]
            q = p0 * u + d
            w[tail] = q / u
            mult[tail] = d / (u * q)
        g0 = sd.g0(w)
        gt = g0 if one_envelope else dress(w, g0)
        f = np.empty((h.size, 2 if one_envelope else 3, 21))
        # the moments over w**2 as (G mult)/w: mult/w underflows beyond w ~ 1e154
        f[:, 0] = g0 * mult
        f[:, 1] = gt * mult / w
        if not one_envelope:
            f[:, 2] = f[:, 0] / w
        head = kind == _HEAD
        if head.any():
            f_head, g_head = _head_factors(v[head], times[aux[head, 0]][:, None])
            f[head, 0] = g0[head] * f_head
            f[head, 1] = gt[head] * g_head
        if tail.any():  # no spectral weight at infinite frequency
            np.copyto(f, 0.0, where=np.isinf(w)[:, None])
        est = _gk21(f, h)
        return est[:, :, :2].reshape(-1, 4), est[:, 0] + est[:, 1]

    return rule


def _oscillatory_rule(sd, dress, times):
    """Integrals of ``e_f(x) sin(x)`` and ``e_Gamma(x) cos(x)``, ``e(x) = t
    G(x/t) / x**2`` (``G_0``, ``G_T``), over panels in ``x = w t``, all by
    Filon-Clenshaw-Curtis (:func:`_filon`), which is exact for the
    envelope's interpolant at any panel width."""
    one_envelope = sd.gt is sd.g0

    def envelopes(x, t):  # (envelopes, panels, nodes)
        w = x / t
        g0 = sd.g0(w)
        scale = t / (x * x)
        return (g0 * scale)[None] if one_envelope else np.stack(
            [g0 * scale, dress(w, g0) * scale])

    def rule(lo, hi, aux):
        return (_filon(envelopes, lo, hi, times[aux[:, 0], None]),)

    return rule


def _filon(envelopes, lo, hi, t):
    """Filon-Clenshaw-Curtis values and error estimates of ``e_f sin`` and
    ``e_Gamma cos`` on panels ``[lo, hi]``; ``t`` is each panel's time, a
    column.  Each envelope is integrated against ``exp(i x)`` once, ``f``
    read from the imaginary part and ``Gamma`` from the real part.  The
    phase at a node ``c + h u`` is ``exp(i c) exp(i h u)``, exact to
    rounding wherever the panel sits; up to ``_THETA_IBP`` the integral of
    ``e exp(i h u)`` over ``u`` is the folded Gauss-Legendre sum, two real
    sums of ``e`` against per-panel weights from ``cos(h x_q)`` and ``sin(h
    x_q)`` at the 32 positive nodes.  The error estimate, ``2 h`` times the
    sum of the envelope's last three Chebyshev coefficients, bounds its
    interpolation error and ignores the oscillation's damping."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    e = envelopes(c[:, None] + h[:, None] * _CC_U, t)
    res = np.empty(e.shape[:2], dtype=complex)  # integral of e exp(i x)
    gl = h <= _THETA_IBP
    if gl.any():
        hx, e_gl = h[gl, None] * _GL_X, e[:, gl]
        re = np.einsum("enk,nk->en", e_gl, np.einsum("nq,qk->nk", np.cos(hx), _GL_COS))
        im = np.einsum("enk,nk->en", e_gl, np.einsum("nq,qk->nk", np.sin(hx), _GL_SIN))
        res[:, gl] = h[gl] * np.exp(1j * c[gl]) * (re + 1j * im)
    ibp = ~gl
    if ibp.any():
        # A at u = 1 and B at u = -1: integral = h [A exp(i hi) - B exp(i lo)]
        d = np.einsum("enk,jk->enj", e[:, ibp], _IBP_MAT).reshape(len(e), -1, 2, 25)
        ab = np.einsum("enij,nj->eni", d, _IBP_Z * h[ibp, None] ** _IBP_POWERS)
        res[:, ibp] = h[ibp] * (ab[..., 0] * np.exp(1j * hi[ibp])
                                - ab[..., 1] * np.exp(1j * lo[ibp]))
    est = np.empty((h.size, 4))
    est[:, 0], est[:, 1] = res[0].imag, res[-1].real
    est[:, 2:] = (2.0 * h * np.abs(np.einsum("enk,jk->enj", e, _CHEB_TAIL)).sum(axis=2))[[0, -1]].T
    return est


def _kernel_integral(sd: SpectralDensity, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``t*f(t)`` and ``t*Gamma(t)`` (rows) and their error bounds at a 1-D
    array of valid times, each time's independent of the others; where
    ``Gamma`` diverges (``G_T(0+)`` infinite) ``f`` is integrated alone and
    ``t*Gamma`` is ``inf``.  :func:`_rates` holds each kernel to the contract."""
    with np.errstate(all="ignore"):  # overflow to inf and 0/0 are handled where they arise
        value, budget = (np.concatenate(part) for part in zip(*(
            _integrate(sd, times[i:i + _TIME_BLOCK])  # bounds the panels alive at once
            for i in range(0, times.size, _TIME_BLOCK))))
    if math.isinf(gt_zero_limit(sd)):
        value[:, 1] = math.inf
    return value.T, budget.T


def _rates(times, value, budget, k):
    """Kernel ``k`` (``f``, ``Gamma``) at ``times`` from :func:`_kernel_integral`, or
    :class:`NumericError`, naming it, at the first time its bound misses the contract;
    :class:`KernelDivergenceError` where ``t*Gamma`` is infinite (``G_T(0+)`` is)."""
    if k == 1 and np.isinf(value[1]).any():
        raise KernelDivergenceError(
            "Gamma(t) diverges: finite-temperature spectrum has nonzero "
            "weight at omega=0, so G_T(omega) ~ 1/omega and the dephasing "
            "integral has no infrared limit")
    bad = np.flatnonzero(~(budget[k] <= _CONTRACT_REL * np.abs(value[k]) + 1e-250))
    if bad.size:
        t, v, b = (float(a[..., bad[0]]) for a in (times, value[k], budget[k]))
        raise NumericError(f"kernel quadrature missed its accuracy contract at t={t!r} "
                           f"({('f', 'Gamma')[k]}): estimate {v!r}, error bound {b!r}",
                           estimate=v, error_bound=b)
    return value[k] / times


def _integrate(sd: SpectralDensity, times: np.ndarray):
    """The assembled values and error budgets (times, kernels) of
    :func:`_kernel_integral`.  Times whose panels outgrow ``_MAX_PANELS`` are
    integrated again in halves, down to single times, so the cap acts on a
    time as it does when the time is integrated alone."""
    # where Gamma diverges, G_T has no weight here: f alone steers the quadrature
    dress = (lambda w, g: np.zeros_like(g)) if math.isinf(gt_zero_limit(sd)) else sd.dress
    n = times.size
    lo0, hi0, aux0, tail_d, tail_s, p0 = _first_layout(sd, times)

    # -- stage 1: head and smooth moments, G10K21 ----------------------------
    # groups: 2i the head of time i, 2i+1 its smooth moments (mid and tail)
    # value = weight * (head, smooth) sums: the head rows hold their factors
    # over t, t*f has t times the moment of G_0/w, t*Gamma that of G_T/w**2
    weight = np.repeat(times, 4).reshape(2 * n, 2)
    weight[1::2, 1] = 1.0

    def tolerance(sums):  # both stages of a time to _EPSREL of its value scale
        scale = (weight * np.abs(sums)).reshape(n, 2, 2).sum(axis=1)
        return np.maximum(_EPSREL * scale.repeat(2, axis=0) / weight, 1e-300)

    _, _, aux, gid, (est, bound), sums, capped = _refine(
        _smooth_rule(sd, dress, times, p0, tail_d), lo0, hi0, aux0,
        2 * aux0[:, 0] + (aux0[:, 1] != _HEAD), 2 * n, tolerance)
    if sd.kind is SpectrumKind.LORENTZIAN:  # a line's tail is _qagi_tail's
        own = aux[:, 1] != _TAIL
        sums = _group_sums(gid[own], est[own], 2 * n)
        for i in np.flatnonzero(tail_d).tolist():
            tail = np.array(_qagi_tail(sd, float(tail_s[i])))  # (kernel, (value, error))
            sums[2 * i + 1] += tail.T.ravel()
    total = (weight[:, None] * sums.reshape(2 * n, 2, 2)).reshape(n, 2, 4).sum(axis=1)
    value, budget = total[:, :2], total[:, 2:]

    # -- stage 2: oscillatory remainder in x = w t ---------------------------
    # integral g(w) cos(w t)/w**2 dw = integral t g(x/t)/x**2 cos(x) dx (and sin),
    # bounded on any range by the envelope moment there.  Each mid or tail
    # panel of the first layout is one Filon panel in x, unless both its
    # envelope moments are below their floors epsa or it reaches w = inf (the
    # tail panel at u = 0): then its bounds go into the budgets instead.
    epsa = np.maximum(1e-13 * np.abs(value), 1e-280)
    # each first panel's bounds of the envelope moments of f and Gamma, summed over its halves
    panel_bound = _group_sums(aux[:, 2], bound.take((-1, 1), axis=1), lo0.size)
    owner, kind = aux0[:, 0], aux0[:, 1]
    keep = kind != _HEAD
    drop = keep & ((panel_bound <= epsa[owner]).all(axis=1) | (lo0 == 0.0))
    np.add.at(budget, owner[drop], panel_bound[drop])
    keep &= ~drop
    owner, tail = owner[keep], kind[keep] == _TAIL  # u panels: w = p0 + d/u
    d = tail_d[owner]
    o_lo = np.where(tail, p0 + d / hi0[keep], lo0[keep])
    o_hi = np.where(tail, p0 + d / lo0[keep], hi0[keep])
    if owner.size:
        *_, o_sums, o_capped = _refine(
            _oscillatory_rule(sd, dress, times), o_lo * times[owner], o_hi * times[owner],
            owner[:, None], owner, n, lambda sums: np.maximum(epsa, _EPSREL * np.abs(sums)))
        value = value - o_sums[:, :2]
        budget = budget + o_sums[:, 2:]
        capped = capped or o_capped
    if capped and n > 1:
        return tuple(np.concatenate(part) for part in zip(
            _integrate(sd, times[:n // 2]), _integrate(sd, times[n // 2:])))
    return value, budget


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _qagi_tail(sd: SpectralDensity, s: float) -> tuple[tuple[float, float], ...]:
    """Smooth moments ``G_0/w`` (``f``) and ``G_T/w**2`` (``Gamma``) of a
    Lorentzian over ``[s, inf)``, with their errors, by QUADPACK's QAGI
    (scipy, imported here).  Where ``Gamma`` diverges (any Lorentzian at
    ``T > 0``) its moment is not integrated and reads ``(0.0, 0.0)``:
    :func:`_kernel_integral` sets ``t*Gamma`` to ``inf`` there.

    Transitional, as the benchmark's reference values (``perfbench/``) pin
    them: on a line much wider than 1, such as the cavity preset's, QAGI's
    map ``w = s + (1 - u)/u`` loses the wing beyond ``s`` and ``f`` is 0.6%
    low; the tail panels of :func:`_integrate` have the wing.
    """
    from scipy import integrate

    def qagi(mom):
        res = integrate.quad(mom, s, math.inf, full_output=1,
                             epsabs=1e-300, epsrel=_EPSREL, limit=200)
        return float(res[0]), float(res[1])

    f_tail = qagi(lambda w: sd.g0(w) / w)
    if math.isinf(gt_zero_limit(sd)):
        return f_tail, (0.0, 0.0)
    return f_tail, qagi(lambda w: sd.gt(w) / (w * w))


def _check_time(t: float):
    """The kernels split their integrals at ``pi/t`` and divide by ``w**2``
    beyond, so ``pi/t`` and ``t*t`` must be finite: ``t`` below about
    1.7e-308 or above about 1.34e154 is out of their domain."""
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    if not math.isfinite(math.pi / float(t)):
        raise DomainError(f"t must be large enough that pi/t is finite, got {t}")
    if not math.isfinite(float(t) * float(t)):
        raise DomainError(f"t must be small enough that t*t is finite, got {t}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _kernels_at(sd: SpectralDensity, t: float):
    """The one integral of both kernels at ``t``, as :func:`_rates` reads it,
    read-only and memoised per process; a bad ``t`` raises
    :class:`DomainError` and is not cached.  :func:`f_of_t` and
    :func:`gamma_of_t` integrate afresh (``__wrapped__``)."""
    _check_time(t)
    at = np.array([float(t)])
    integral = (at, *_kernel_integral(sd, at))
    for a in integral:
        a.setflags(write=False)
    return integral


def _rate_at(sd: SpectralDensity, t: float, k: int) -> float:
    """Kernel ``k`` (``f``, ``Gamma``) at ``t`` from the memo of :func:`_kernels_at`:
    the one way the package reads a kernel at a single time."""
    return float(_rates(*_kernels_at(sd, float(t)), k)[0])


def f_of_t(sd: SpectralDensity, t: float) -> float:
    """Twisting-phase rate ``f(t)``; ``t > 0`` with ``pi/t`` and ``t*t`` finite."""
    return float(_rates(*_kernels_at.__wrapped__(sd, t), 0)[0])


def gamma_of_t(sd: SpectralDensity, t: float) -> float:
    """Dephasing rate ``Gamma(t)``; ``t > 0`` with ``pi/t`` and ``t*t`` finite.

    Raises :class:`KernelDivergenceError` when the thermally dressed
    spectrum carries weight at zero frequency (``G_T ~ 1/w`` there), which
    makes the integral logarithmically divergent at the infrared end.
    """
    return float(_rates(*_kernels_at.__wrapped__(sd, t), 1)[0])


# ---------------------------------------------------------------------------
# correlation time: inverse full width at half maximum of G_T


def correlation_time(sd: SpectralDensity) -> float:
    """Bath memory time ``t_c = 1 / FWHM(G_T)`` measured on ``w >= 0``.

    When the maximum sits at (or the profile stays above half maximum down
    to) ``w = 0``, the width is taken from 0 to the upper half-maximum
    crossing.  Degenerate profiles raise :class:`WidthUndefinedError`.
    Not memoised: runs read it from :func:`markov_limits`.
    """
    g_at_0 = gt_zero_limit(sd)
    if math.isinf(g_at_0):
        raise WidthUndefinedError(
            "G_T diverges at omega=0; no half-maximum width exists")
    with np.errstate(over="ignore"):  # for the grid scan and every Brent step
        return 1.0 / _half_maximum_width(sd, g_at_0)


def _half_maximum_width(sd: SpectralDensity, g_at_0: float) -> float:
    """The width of :func:`correlation_time`, with ``g_at_0 = G_T(0+)`` finite."""
    feats = sd.features or (sd.omega_c,)
    # the top is capped where 20x the highest feature overflows
    top = min(max(sd.split, max(feats)) * 20.0, np.finfo(float).max)
    if min(feats) * 1e-6 == 0.0:
        raise WidthUndefinedError(f"the scan floor min(features)*1e-6 underflows to 0 for the "
                                  f"lowest feature {min(feats)!r}; width undefined")
    w = np.geomspace(min(feats) * 1e-6, top, 4000)
    vals = sd.gt(w)

    i_peak = int(np.argmax(vals))
    x_peak, peak_v = float(w[i_peak]), float(vals[i_peak])
    if 0 < i_peak < len(w) - 1:
        # a narrow line can slip between grid points; polish the maximum
        x_min, f_min = brent.minimize(lambda x: -sd.gt(x), w[i_peak - 1], w[i_peak + 1],
                                      xatol=float(w[i_peak]) * 1e-12)
        if -f_min > peak_v:
            x_peak, peak_v = x_min, -f_min
    # a line narrower than the grid spacing, away from the polish bracket, is
    # the peak at its feature when a float beside the feature resolves it
    fx = np.array(feats)
    fg = sd.gt(fx)
    beside = np.maximum(sd.gt(np.nextafter(fx, 0.0)), sd.gt(np.nextafter(fx, np.inf)))
    taller = (((fx < w[max(i_peak - 1, 0)]) | (fx > w[min(i_peak + 1, len(w) - 1)]))
              & (fg > peak_v) & (beside >= 0.5 * fg))
    if taller.any():
        k = int(np.argmax(np.where(taller, fg, -np.inf)))
        x_peak, peak_v = float(fx[k]), float(fg[k])
    if g_at_0 >= peak_v:
        x_peak, peak_v = 0.0, g_at_0
    if not peak_v > 0.0:
        at = fx[fg > 0.0]  # a line the scan and the polish stepped over
        raise WidthUndefinedError(
            f"G_T is positive at omega={float(at[0])!r} but vanishes beside it: the line's "
            "width is below float resolution at its centre; width undefined" if at.size else
            "spectrum is identically zero; width undefined")
    half = 0.5 * peak_v

    # G_T - half in units of a power of two near half (exact; at most 2**1023
    # for a subnormal half), so that Brent's interpolation products neither
    # underflow nor overflow for a spectrum of any scale; xtol = 0 keeps the
    # roots' tolerance purely relative
    scale = math.ldexp(1.0, min(-math.frexp(half)[1], 1023))
    gt = lambda x: (sd.gt(x) - half) * scale
    # upper crossing: first drop below half maximum beyond the peak; the
    # scan is seeded with the polished peak so sub-resolution lines still
    # bracket correctly
    upper, px, pv = None, x_peak, peak_v
    for i in range(int(np.searchsorted(w, px, side="right")), len(w)):
        if pv >= half > vals[i]:
            upper = brent.root(gt, max(px, 1e-300), w[i], xtol=0.0, rtol=1e-14)
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
                lower = brent.root(gt, w[i], px, xtol=0.0, rtol=1e-14)
                break
            px, pv = float(w[i]), float(vals[i])
        else:
            # profile stays above half down to the sampled floor
            lower = brent.root(gt, 1e-300, px, xtol=0.0, rtol=1e-14)
    return upper - lower


# ---------------------------------------------------------------------------
# long-time (Markov) limits


@dataclass(frozen=True)
class MarkovLimits:
    """Long-time kernel values, their sampling time ``1e3 * t_corr``, and caveats."""

    f_markov: float
    gamma_markov: float
    t_eval: float
    t_corr: float
    warnings: tuple[str, ...] = ()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def markov_limits(sd: SpectralDensity) -> MarkovLimits:
    """Long-time limits ``f_M`` and ``Gamma_M``, with ``t_corr``.

    ``f_M`` is sampled at ``t_eval = 1e3 * t_corr``, ``t_corr`` from
    :func:`correlation_time` (which raises :class:`WidthUndefinedError` for
    an infrared-divergent spectrum).  Spectra with ``G_0(0) > 0`` have no
    finite limit for f (logarithmic growth); the sampled value is returned
    with a warning.  ``Gamma_M`` uses the delta-kernel identity
    ``Gamma_M = (pi/2) * G_T(0+)``.  Memoised per process, so a run
    computes ``t_corr`` and samples ``f_M`` once per spectrum.
    """
    t_c = correlation_time(sd)
    t_eval = 1e3 * t_c
    warnings = ()
    if sd.origin[0] > 0.0:
        warnings = ("f-slow-growth: G_0(0) > 0 makes f(t) grow ~ G_0(0)*ln(t); no finite "
                    f"limit exists, value sampled at t={float(t_eval)!r}",)
    return MarkovLimits(f_markov=_rate_at(sd, t_eval, 0),
                        gamma_markov=0.5 * math.pi * gt_zero_limit(sd),
                        t_eval=t_eval, t_corr=t_c, warnings=warnings)


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
    f_vals = g_vals = np.zeros(0)
    if t.size:
        integral = (t, *_kernel_integral(sd, t))
        f_vals = _rates(*integral, 0)
        g_vals = _rates(*integral, 1)
    lim = markov_limits(sd)
    for arr in (t, f_vals, g_vals):
        arr.setflags(write=False)
    return KernelTable(times=t, f_values=f_vals, gamma_values=g_vals,
                       f_markov=lim.f_markov, gamma_markov=lim.gamma_markov,
                       t_corr=lim.t_corr, warnings=lim.warnings)


# ---------------------------------------------------------------------------
# formation time


@dataclass(frozen=True)
class BathSolution:
    """Bath-only formation quantities: ``tau`` with ``f`` and ``Gamma`` there."""

    tau: float
    f_tau: float
    gamma_tau: float


@functools.lru_cache(maxsize=_CACHE_SIZE)
def solve_bath(sd: SpectralDensity, horizon_factor: float) -> BathSolution:
    """Formation time ``tau`` (root of ``t*f(t) = pi/2``) and the kernels there.

    ``g(t) = t*f(t) - pi/2`` is nondecreasing and ``f`` tends to its Markov
    limit ``f_M``, so the search starts at ``(pi/2)/f_M`` (:func:`markov_limits`),
    kept within ``[t_corr, horizon_factor * t_corr]``, or at ``t_corr`` when
    ``f_M`` is not positive.  The first step goes to the fixed-point step
    ``(pi/2)/f(t)``, held within ``[t/2, 2t]`` and the horizon, which ends a
    certified bracket ``g(lo) < 0 <= g(hi)`` wherever ``f`` is nondecreasing;
    later steps double up or halve down, the last point integrated being the
    other end.  The Markov sample (whose ``f`` is known) ends a step that
    passes it, and ends the first step instead when it lies beyond the
    fixed-point step, within ``(t/2, 2t)``, and closes the bracket.  Brent's
    method polishes the root, taking ``|g| <= 2 ulp(pi/2)`` as a root, so no
    integral goes into steps of an ulp;
    ``|tau f(tau) - pi/2| <= 1e-9 * pi/2``.  Every kernel value is read
    through the memo of single-time integrals (:func:`_rate_at`), so no
    time is integrated twice, the Markov sample included, and both kernels
    at ``tau`` come from Brent's integral there.  Raises
    :class:`NoFormationError` (with ``t*f`` at the horizon) when the phase
    never reaches the threshold inside the horizon, and :class:`UsageError`
    unless ``horizon_factor`` is finite and exceeds 1.  Memoised per process.
    """
    if not 1.0 < horizon_factor < math.inf:
        raise UsageError(f"horizon_factor must lie in (1, inf), got {horizon_factor!r}")
    markov = markov_limits(sd)
    f_m, t_m, t_c = markov.f_markov, markov.t_eval, markov.t_corr
    horizon = horizon_factor * t_c

    def g(t):  # within 2 ulps of 0 it is the root: Brent stops there
        r = t * _rate_at(sd, t, 0) - _HALF_PI
        return 0.0 if abs(r) <= 2.0 * math.ulp(_HALF_PI) else r

    lo = hi = min(max(_HALF_PI / f_m, t_c), horizon) if 0.0 < f_m < math.inf else t_c
    glo = ghi = g(hi)
    # the first step goes to the fixed-point step (pi/2)/f, each later one doubles or halves
    step = _HALF_PI / f if (f := _rate_at(sd, hi, 0)) > 0.0 else math.inf
    if ghi < 0.0:  # step up; the last point below is the lower end
        while ghi < 0.0 and hi < horizon:
            lo, glo = hi, ghi
            up = min(step, 2.0 * hi, horizon)
            closes = up < t_m < 2.0 * hi and t_m <= horizon and g(t_m) >= 0.0
            hi = t_m if hi < t_m < up or closes else up
            ghi, step = g(hi), math.inf
        if ghi < 0.0:
            raise NoFormationError("accumulated phase t*f(t) reaches only "
                                   f"{float(ghi + _HALF_PI)!r} (< pi/2) up to the horizon "
                                   f"t = {float(horizon)!r}",
                                   estimate=ghi + _HALF_PI)
    else:  # step down; the last point at or above is the upper end
        for _ in range(200):
            if glo <= 0.0:
                break
            hi, ghi = lo, glo
            down = max(step, lo / 2.0)
            closes = lo / 2.0 < t_m < down and g(t_m) <= 0.0
            lo = t_m if down < t_m < lo or closes else down
            glo, step = g(lo), 0.0
        else:
            raise NumericError("failed to bracket the formation time from below")
    # certified bracket: g(lo) < 0 <= g(hi), or g(lo) == 0 and lo is the root
    # lo > 0, so the tolerance can be purely relative: an absolute floor would
    # outweigh it once tau is below about 1e-285 and stop Brent early
    tau = brent.root(g, lo, hi, xtol=0.0, rtol=8.9e-16, maxiter=200, fa=glo, fb=ghi)
    f_tau = _rate_at(sd, tau, 0)
    residual = abs(tau * f_tau - _HALF_PI)
    if residual > _TAU_RESIDUAL_TOL:
        raise NumericError(f"formation-time residual {float(residual)!r} exceeds tolerance",
                           estimate=tau, error_bound=residual)
    return BathSolution(float(tau), f_tau, _rate_at(sd, tau, 1))


def solve_tau_mqs(sd: SpectralDensity, horizon_factor: float = _DEFAULT_HORIZON_FACTOR) -> float:
    """Earliest time with ``t*f(t) = pi/2``: the ``tau`` of :func:`solve_bath`."""
    return solve_bath(sd, horizon_factor).tau
