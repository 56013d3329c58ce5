"""``repr`` of many positive floats at once, as ASCII bytes in numpy arrays.

:func:`reprs` gives the bytes of ``repr(v)`` for each value of an array of
finite floats > 0, by array operations on blocks of values: no Python object
per value.  The digits are the shortest that read back as the value, the
nearest to it and even on a tie, as ``repr`` gives them.  They come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; see
also Ryu, U. Adams, PLDI 2018), which finds them from the products of the
value and its two rounding bounds with a 128-bit power of ten.  The powers
are held as two ``uint64`` limbs each, built from Python ints when this
module is imported.  The layout is ``repr``'s: positional from 1e-4 up to
1e16, with ``.0`` on an integral value, otherwise ``d.ddde-XX`` with at
least two exponent digits.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

__all__ = ["WIDTH", "reprs"]

# Bytes of a row of reprs' text: the longest repr of a positive float has 23
# ("2.2250738585072014e-308"), so each row ends in at least one NUL.
WIDTH = 24

# Values formatted at a time, so that the temporaries (about 36 arrays of
# _CHUNK words at their peak) stay near 1 MiB: 4096 at a time took 0.20 us
# per value, against 0.18 us for 8192-16384 and 0.29 us for all at once
# (the 127,956 nonzero upper entries of the N = 1000 Lx grid at tau,
# 2-vCPU x86_64 VM)
_CHUNK = 4096

_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_TEN = np.uint64(10)


def _floor_log2_pow10(e):
    # floor(log2(10**e)) for |e| <= 1233
    return (e * 1741647) >> 19


def _pow10_limbs():
    # g = ceil(10**e10 / 2**r) for e10 = _E10_MIN .. _E10_MAX, with the r
    # that puts g in [2**127, 2**128), as high and low 64-bit limbs: the
    # powers Schubfach multiplies by, e10 = -floor(log10(2**q)) for the
    # binary exponents q of doubles.  2**-r / 10**-e10 is never whole.
    g, p = [], 1
    for e10 in range(_E10_MAX + 1):
        r = _floor_log2_pow10(e10) - 127
        g.append(p << -r if r <= 0 else -(-p >> r))
        p *= 10
    p = 1
    for e10 in range(-1, _E10_MIN - 1, -1):
        p *= 10
        g.insert(0, (1 << 127 - _floor_log2_pow10(e10)) // p + 1)
    return (np.array([v >> 64 for v in g], dtype=np.uint64),
            np.array([v & (1 << 64) - 1 for v in g], dtype=np.uint64))


_E10_MIN, _E10_MAX = -292, 324
_G_HI, _G_LO = _pow10_limbs()
# 10**i, i = 0 .. 17
_POW10 = 10 ** np.arange(18, dtype=np.uint64)

# A value's row of source bytes, six uint32 words: its 17 digits left-aligned
# and padded with "0" (bytes 0-16), "0.e" (17-19), then the sign of its
# exponent and two or three digits (20-23).  _DIGITS4 holds 0000 .. 9999,
# _TAIL the last digit and "0.e", _EXPONENT the exponent part.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).reshape(10000, 4).view(np.uint32)[:, 0]
_TAIL = np.array([b"%d0.e" % i for i in range(10)], dtype="S4").view(np.uint32)
_EXP_MIN, _EXP_MAX = -324, 308
_EXPONENT = np.array([b"%+03d0" % e if abs(e) < 100 else b"%+d" % e
                      for e in range(_EXP_MIN, _EXP_MAX + 1)], dtype="S4").view(np.uint32)
# _KEEP[n]: the three words of a row with its first n bytes kept
_KEEP = np.where(np.arange(WIDTH) < np.arange(WIDTH)[:, None], 0xFF, 0
                 ).astype(np.uint8).view(np.uint64)


def reprs(values) -> tuple[np.ndarray, np.ndarray]:
    """``(text, length)`` for a 1-D array of finite floats > 0: row ``i`` of
    the ``(len(values), WIDTH)`` uint8 array ``text`` holds the ASCII of
    ``repr(float(values[i]))``, ``length[i]`` bytes long, then NUL bytes.
    Raises :class:`NumericError` for a value that is not a finite float > 0.
    The values are formatted _CHUNK at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    valid = (values > 0.0) & (values < np.inf)
    if not valid.all():
        raise NumericError(f"cannot format {float(values[~valid][0])!r}: "
                           "not a finite float > 0")
    text = np.empty((len(values), WIDTH), dtype=np.uint8)
    length = np.empty(len(values), dtype=np.intp)
    for i in range(0, len(values), _CHUNK):
        _format(values[i:i + _CHUNK], text[i:i + _CHUNK], length[i:i + _CHUNK])
    return text, length


def _format(values, text, length):
    # reprs of at most _CHUNK values, written into text and length
    digits, e10 = _shortest(values.view(np.uint64))
    # strip trailing zeros, over the values that still have one
    ends = np.flatnonzero(digits // _TEN * _TEN == digits)
    while ends.size:
        digits[ends] //= _TEN
        e10[ends] += 1
        ends = ends[digits[ends] // _TEN * _TEN == digits[ends]]
    n = np.searchsorted(_POW10, digits, side="right")  # digit count, 1 .. 17
    decpt = n + e10  # the value is 0.d1d2... * 10**decpt
    # the 17 digits, as four groups of four and a last digit
    padded = digits * _POW10[17 - n]
    high = padded // np.uint64(10**9)
    low = padded - high * np.uint64(10**9)
    source = np.empty((len(values), WIDTH // 4), dtype=np.uint32)
    group = high // np.uint64(10**4)
    source[:, 0], source[:, 1] = _DIGITS4[group], _DIGITS4[high - group * np.uint64(10**4)]
    group = low // np.uint64(10**5)
    source[:, 2] = _DIGITS4[group]
    low -= group * np.uint64(10**5)
    group = low // _TEN
    source[:, 3], source[:, 4] = _DIGITS4[group], _TAIL[low - group * _TEN]
    source[:, 5] = _EXPONENT[np.clip(decpt - 1, _EXP_MIN, _EXP_MAX) - _EXP_MIN]
    src = source.view(np.uint8)
    # d.ddde-XX: the first digit, the point and the other digits, then the
    # exponent part moved to its place
    text[:, 0] = src[:, 0]
    text[:, 1] = ord(".")
    text[:, 2:18] = src[:, 1:17]
    mantissa = np.where(n > 1, n + 1, 1)
    at = np.arange(0, len(values) * WIDTH, WIDTH) + mantissa
    flat = text.reshape(-1)
    for j in range(5):
        flat[at + j] = src[:, 19 + j]
    length[:] = mantissa + 4 + (np.abs(decpt - 1) >= 100)
    # positional from 1e-4 up to 1e16: 0.000ddd or ddd.ddd
    positional = (decpt > -4) & (decpt <= 16)
    for p in np.flatnonzero(np.bincount(decpt[positional] + 3, minlength=20)) - 3:
        rows = np.flatnonzero(decpt == p)
        if p <= 0:
            text[rows, :2 - p] = np.frombuffer(b"0.000", dtype=np.uint8)[:2 - p]
            text[rows, 2 - p:19 - p] = src[rows, :17]
            length[rows] = 2 - p + n[rows]
        else:
            text[rows, :p] = src[rows, :p]
            text[rows, p] = ord(".")
            text[rows, p + 1:18] = src[rows, p:17]
            length[rows] = np.maximum(n[rows], p + 1) + 1
    text.view(np.uint64)[...] &= _KEEP[length]


def _mul_hi_lo(a, b1, b0):
    # (high, low) 64-bit halves of a * b, b = b1 * 2**32 + b0 with b1, b0 < 2**32
    a1, a0 = a >> _U32, a & _M32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U32) + (p01 & _M32) + (p10 & _M32)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32), (mid << _U32) | (p00 & _M32)


def _shifted(g_hi, g_lo, s):
    # g * 2**s as three 64-bit limbs, 1 <= s <= 5
    r = np.uint64(64) - s
    return g_hi >> r, (g_hi << s) | (g_lo >> r), g_lo << s


def _shortest(bits):
    # (digits, e10): the shortest decimal digits * 10**e10 that reads back as
    # each positive finite double of ``bits``, trailing zeros not removed
    biased = (bits >> np.uint64(52)).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    c = np.where(biased > 0, fraction | np.uint64(1 << 52), fraction)
    q = np.maximum(biased, 1) - 1075  # the value is c * 2**q
    closer = (fraction == 0) & (biased > 1)  # the lower neighbour is at half the spacing
    k = (q * 1262611 - 524031 * closer) >> 22  # floor(log10(2**q)), or of 3/4 * 2**q
    h = (q + _floor_log2_pow10(-k) + 1).astype(np.uint64)  # 1 .. 4
    g_hi, g_lo = _G_HI[-k - _E10_MIN], _G_LO[-k - _E10_MIN]
    # Schubfach's vb, vbl and vbr are rop(g * cp) for cp = 4c, 4c - 2 (4c - 1
    # where closer) and 4c + 2, times 2**h: floor(g * cp / 2**128), its
    # lowest bit set where bits 64-127 of the product exceed 1.  The product
    # for 4c is three limbs p2, p1, p0; the bounds' products differ from it
    # by g * 2**(h + 1) above and g * 2**(h + 1 - closer) below
    cp = (c << np.uint64(2)) << h
    cp1, cp0 = cp >> _U32, cp & _M32
    x1, p0 = _mul_hi_lo(g_lo, cp1, cp0)
    y1, y0 = _mul_hi_lo(g_hi, cp1, cp0)
    p1 = y0 + x1
    p2 = y1 + (p1 < y0)
    vb = p2 | (p1 > np.uint64(1))
    odd = (c & np.uint64(1)).astype(np.uint64)  # an odd c excludes its bounds
    q2, q1, q0 = _shifted(g_hi, g_lo, h + np.uint64(1))
    t = p1 + q1
    r1 = t + ((p0 + q0) < q0)
    r2 = p2 + q2 + ((t < q1) | (r1 < t))
    upper = (r2 | (r1 > np.uint64(1))) - odd
    q2, q1, q0 = _shifted(g_hi, g_lo, h + np.uint64(1) - closer)
    t = p1 - q1
    r1 = t - (p0 < q0)
    r2 = p2 - q2 - ((p1 < q1) | (r1 > t))
    lower = (r2 | (r1 > np.uint64(1))) + odd
    s = vb >> np.uint64(2)
    # one digit fewer, where exactly one of s' = 10 floor(s/10) and s' + 10
    # lies in the rounding interval
    sp = s // _TEN
    up_in = lower <= np.uint64(40) * sp
    wp_in = np.uint64(40) * sp + np.uint64(40) <= upper
    short = (s >= _TEN) & (up_in != wp_in)
    # else s or s + 1: the one in the interval, or the nearer, even on a tie
    u_in = lower <= s << np.uint64(2)
    w_in = (s << np.uint64(2)) + np.uint64(4) <= upper
    mid = (s << np.uint64(2)) + np.uint64(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool)))
    # an integral value below 2**53 comes out as its own digits: any shorter
    # decimal near it is another integer, and its rounding interval, at most
    # 1 wide, holds none
    return np.where(short, sp + wp_in, s + up), k + short
