"""Brent's derivative-free root finder and bounded minimiser.

Both follow R. P. Brent, *Algorithms for Minimization without Derivatives*
(1973), step for step as the widely used library versions do (``brentq``
and the bounded ``fminbound`` of SciPy), so they take the same steps on the
same function: :func:`root` combines bisection with secant and inverse
quadratic steps inside a sign-changing bracket, and :func:`minimize`
combines golden-section search with parabolic steps on a bounded interval.
"""

from __future__ import annotations

import math

from .errors import NumericError

__all__ = ["root", "minimize"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500  # evaluations of f before minimize returns its best point


def root(f, a: float, b: float, *, xtol: float, rtol: float, maxiter: int = 100,
         fa: float | None = None, fb: float | None = None) -> float:
    """A zero of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Converged when the bracket half-width falls below
    ``(xtol + rtol * |x|) / 2``.  ``fa``/``fb`` pass values of ``f`` at the
    ends that are already known, so they are not evaluated again.  Raises
    :class:`NumericError` when the ends do not bracket a sign change or
    ``maxiter`` steps do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre) if fa is None else fa)
    fcur = float(f(xcur) if fb is None else fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"f({a!r}) and f({b!r}) do not differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE gives inf or nan: no short step
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    raise NumericError(f"root finder did not converge in {maxiter} steps", estimate=xcur)


def minimize(f, a: float, b: float, *, xatol: float) -> tuple[float, float]:
    """``(x, f(x))`` at a local minimum of ``f`` on ``[a, b]``.

    Stops when ``x`` is known to within about ``xatol`` (plus a relative
    ``sqrt(eps)`` part) or after ``_MAX_EVALS`` evaluations, and returns the
    best point found.
    """
    a, b = float(a), float(b)
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (1.0 if xm - xf >= 0.0 else -1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx
