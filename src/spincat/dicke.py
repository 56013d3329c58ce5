"""Collective-spin (Dicke) sector states and operations.

An ensemble of ``N`` two-level systems restricted to a fixed total-spin
sector ``l`` lives in a ``2l+1``-dimensional space spanned by the
simultaneous eigenstates ``|l, m>`` of total spin and its z projection.
Throughout the package the component order is ``m = +l, +l-1, ..., -l``
(largest projection first); serialized artifacts state this explicitly.

Dense storage is used everywhere: even ``N = 512`` is only a 513x513
complex matrix.  The Lz-to-Lx rotation is built by a numpy recursion each
time it is asked for, and nothing holds on to it.  Every Lx eigenvector has
a definite parity under ``m -> -m``, so the recursion runs over half the
components and over the top half of the rows only: the rotation's bottom
rows are its top rows with alternating signs, and a rotation of a density
matrix builds only the top ones.  One function does every such rotation,
over the window of its diagonal (the index range that holds all its weight
but a share ``2**-53``), which it reads once: into the complex matrix of
:func:`to_x_basis`, or into the real ``|rho|`` grid of a run's Lx snapshot
(``evolve._snapshot``).  The corner coherence of a formed state needs only
the coherent states along +x and -x (the rotation's first and last rows).

Density matrices are checked once, where they enter the package: the public
:class:`DickeDensityMatrix` constructor tests hermiticity, unit trace and
positive semidefiniteness of a matrix a caller supplies.  The package's own
results skip those tests, because the maps that build them keep a matrix
physical: the projector of a normalised state, the exact dephasing
propagator of :mod:`spincat.evolve` (a Schur product with a unit-diagonal
positive kernel), and the orthogonal Lz-to-Lx rotation, whose floor moves
an entry only within the bound on its rounding and on the part of the
matrix outside the window.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UsageError

__all__ = [
    "Basis",
    "SectorLabel",
    "DickeState",
    "DickeDensityMatrix",
    "coherent_state",
    "rotation_to_x",
    "to_x_basis",
    "fidelity",
    "purity",
    "coherence_corner",
]

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_TINY = np.finfo(float).tiny  # smallest normal float64
_UNIT_ROUNDOFF = 2.0 ** -53


class Basis(str, enum.Enum):
    """Which collective-spin component eigenbasis labels the indices."""

    LZ = "Lz"
    LX = "Lx"


@dataclass(frozen=True)
class SectorLabel:
    """Total-spin sector of an N-particle ensemble.

    ``l`` defaults to the symmetric (maximal) sector ``N/2``.  ``2l`` must
    be an integer and ``0 <= l <= N/2``.
    """

    n_particles: int
    l: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if isinstance(self.n_particles, bool) or not (
                isinstance(self.n_particles, (int, np.integer)) and self.n_particles >= 1):
            raise DomainError(f"n_particles must be a positive integer, got {self.n_particles!r}")
        object.__setattr__(self, "n_particles", int(self.n_particles))
        l = self.n_particles / 2.0 if self.l is None else float(self.l)
        object.__setattr__(self, "l", l)
        two_l = 2.0 * l
        if abs(two_l - round(two_l)) > 1e-12 or not 0.0 <= l <= self.n_particles / 2.0:
            raise DomainError(f"l must satisfy 2l integer and 0 <= l <= N/2, got l={l}")

    @property
    def dimension(self) -> int:
        return int(round(2.0 * self.l)) + 1

    @property
    def symmetric(self) -> bool:
        return self.l == self.n_particles / 2.0

    def m_values(self) -> np.ndarray:
        """Projection quantum numbers, ordered ``+l`` down to ``-l``."""
        return self.l - np.arange(self.dimension)


@dataclass(frozen=True)
class DickeState:
    """Pure state in a fixed sector: complex amplitudes ``c_m``.

    The amplitudes must be finite and of unit norm.  ``bloch`` optionally
    records the preparation angles ``(theta, phi)`` when the state was built
    as a spin coherent state; it is metadata only.
    """

    sector: SectorLabel
    amplitudes: np.ndarray
    basis: Basis = Basis.LZ
    bloch: tuple[float, float] | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.sector.dimension,):
            raise DomainError(
                f"amplitudes shape {amp.shape} != sector dimension ({self.sector.dimension},)")
        if not np.isfinite(amp).all():
            raise DomainError("amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "basis", Basis(self.basis))

    def projector(self) -> "DickeDensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return _density_matrix(self.sector, rho, self.basis)


@dataclass(frozen=True)
class DickeDensityMatrix:
    """Density matrix over ``m`` indices (order ``+l`` first) in a sector.

    Constructing one enforces finite entries, hermiticity, unit trace and
    positive semidefiniteness within fixed tolerances (the eigenvalue test is
    O(d**3)).  Matrices the package builds itself (``projector``,
    ``evolve_state``, ``to_x_basis``) are physical by construction and skip
    the tests; all of them hold a read-only ``elements`` array.
    """

    sector: SectorLabel
    elements: np.ndarray
    basis_tag: Basis = Basis.LZ

    def __post_init__(self):
        rho = np.asarray(self.elements, dtype=complex)
        d = self.sector.dimension
        if rho.shape != (d, d):
            raise DomainError(f"elements shape {rho.shape} != ({d}, {d})")
        if not np.isfinite(rho).all():
            raise DomainError("elements must be finite")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > _HERM_TOL:
            raise DomainError(f"matrix deviates from hermitian by {herm!r}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise DomainError(f"trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -_PSD_TOL:
            raise DomainError(f"smallest eigenvalue {lo!r} below -{_PSD_TOL}")
        rho.setflags(write=False)
        object.__setattr__(self, "elements", rho)
        object.__setattr__(self, "basis_tag", Basis(self.basis_tag))


def _density_matrix(sector: SectorLabel, elements: np.ndarray,
                    basis: Basis) -> DickeDensityMatrix:
    """A density matrix the package built from checked inputs by a map that
    keeps it physical: freezes ``elements`` (a fresh complex d x d array)
    and runs none of the constructor's tests."""
    elements.setflags(write=False)
    rho = object.__new__(DickeDensityMatrix)  # skips __init__ and __post_init__
    rho.__dict__.update(sector=sector, elements=elements, basis_tag=basis)
    return rho


# ---------------------------------------------------------------------------
# state construction


@functools.lru_cache(maxsize=16)
def _half_log_binomials(two_l: int) -> np.ndarray:
    # ln sqrt(C(2l, k)), k = 0 .. 2l, read-only: one table per sector size,
    # shared by the coherent states of a run
    lg = np.array([math.lgamma(i + 1.0) for i in range(two_l + 1)])  # ln(i!)
    table = 0.5 * (lg[two_l] - lg - lg[::-1])
    table.flags.writeable = False
    return table


def coherent_state(sector: SectorLabel, theta: float, phi: float) -> DickeState:
    """Spin coherent state: every particle points along ``(theta, phi)``.

    Amplitudes (m ordered ``+l`` down to ``-l``)::

        c_m = sqrt(C(2l, l-m)) * cos(theta/2)**(l+m)
                                * sin(theta/2)**(l-m) * exp(i (l-m) phi)

    Only defined in the symmetric sector ``l = N/2``.  Binomial weights are
    accumulated in log space so the construction stays stable to N = 512
    and beyond.  For ``theta`` in (0, pi) the ``m = +l`` amplitude is real
    positive (global-phase convention); the formula is evaluated as printed
    for any finite angles, including negative ``theta``; a non-finite one
    raises :class:`DomainError`.
    """
    if not sector.symmetric:
        raise UsageError(
            f"coherent states require the symmetric sector l = N/2, got l={sector.l}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError(f"coherent state angles must be finite, got ({theta!r}, {phi!r})")
    l = sector.l
    m = sector.m_values()
    two_l = int(round(2 * l))
    k = np.round(l - m).astype(int)  # 0 .. 2l
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    log_binom = _half_log_binomials(two_l)

    # magnitude in log space; a zero half-angle factor gives 0**0 = 1 and,
    # as -inf, 0**positive = exp(-inf) = 0, without log-of-zero noise
    pc, ps = two_l - k, k  # exponents of cos and sin halves
    log_mag = log_binom \
        + np.where(pc > 0, pc * np.log(abs(c)) if c != 0.0 else -np.inf, 0.0) \
        + np.where(ps > 0, ps * np.log(abs(s)) if s != 0.0 else -np.inf, 0.0)
    mag = np.exp(log_mag)
    sign = np.where(pc % 2 == 1, math.copysign(1.0, c), 1.0) \
        * np.where(ps % 2 == 1, math.copysign(1.0, s), 1.0)
    amp = sign * mag * np.exp(1j * k * phi)
    amp = amp / np.linalg.norm(amp)
    return DickeState(sector, amp, Basis.LZ, bloch=(float(theta), float(phi)))


# ---------------------------------------------------------------------------
# rotation between the Lz and Lx eigenbases


# Rows whose recursion passes this magnitude are scaled back to 1; the edge
# growth of an extreme row is about 2**l, which overflows for l > 1023.
_RESCALE_AT = 1e100


def _recurse(vecs: np.ndarray, mu: np.ndarray, off: np.ndarray, count: int):
    """Run the Lx eigen-equation ``off[k-1] v[k-1] + off[k] v[k+1] = mu v[k]``
    from index 0 (seeded with +1) up to index ``count - 1``, for every row at
    once, writing component ``k`` of every row into ``vecs[k]``."""
    prev = np.zeros_like(mu)
    cur = np.ones_like(mu)
    vecs[0] = cur
    c_prev = 0.0
    for k in range(count - 1):
        prev, cur = cur, (mu * cur - c_prev * prev) / off[k]
        c_prev = off[k]
        vecs[k + 1] = cur
        big = np.flatnonzero(np.abs(cur) > _RESCALE_AT)
        if big.size:
            factor = 1.0 / np.abs(cur[big])
            prev[big] *= factor
            cur[big] *= factor
            vecs[:k + 2, big] *= factor


def _x_rows(sector: SectorLabel, count: int) -> np.ndarray:
    """Rows ``0 .. count-1`` of :func:`rotation_to_x`, bit for bit and
    read-only: ``count`` is ``d`` for the whole matrix, or ``(d+1)//2`` for
    its top rows, all that :func:`_x_rotate` and :func:`_x_floor` read (one
    ``d x (d+1)//2`` array).

    The recursion (:func:`_recurse`) runs for the top rows only.  Row
    ``d-1-r`` solves it with ``-mu``, which negates every step's result on
    an odd component, so its normalised first half is row ``r``'s times
    ``(-1)**k``, bit for bit but for zeros: the flush makes each of those
    +0.0, and adding 0.0 does the same to the mirrored ones."""
    dim = sector.dimension
    m = sector.m_values()
    l = sector.l
    # <m|Lx|m-1> = sqrt(l(l+1) - m(m-1))/2 couples index k to k+1
    off = 0.5 * np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] - 1.0))
    half, pairs = (dim + 1) // 2, dim // 2
    vecs = np.empty((dim, count))  # vecs[k, r]: component k of row r
    first = vecs[:half]
    top = first[:, :half]
    _recurse(top, m[:half], off, half)
    if half > pairs:
        top[pairs, 1::2] = 0.0  # the middle component of an odd row
    norm2 = 2.0 * np.einsum("kr,kr->r", top[:pairs], top[:pairs])
    top /= np.sqrt(norm2 + top[pairs:].sum(axis=0) ** 2)
    top[np.abs(top) < _TINY] = 0.0
    if count > half:  # rows d-1-r, r = pairs-1 .. 0
        bottom = first[:, half:]
        np.multiply(top[:, :pairs][:, ::-1], (-1.0) ** np.arange(half)[:, None], out=bottom)
        bottom += 0.0
    vecs[dim - pairs:] = first[:pairs][::-1]  # component d-1-k: the seed's sign
    first[:, 1::2] *= -1.0  # component k: times the row's parity
    vecs.setflags(write=False)
    return vecs.T


def rotation_to_x(sector: SectorLabel) -> np.ndarray:
    """Rotation matrix taking Lz-basis components to Lx-basis components.

    Row r is the Lx eigenvector with eigenvalue ``mu = l - r`` in the Lz
    basis, so ``c_x = M @ c_z``; as a matrix ``M = expm(+i pi/2 J_y)``, the
    active rotation by ``-pi/2`` about the y axis.  Built on each call (one
    d x d array, O(d**2) work) and returned read-only.

    Every row has a definite parity, ``M[r, d-1-k] = (-1)**r M[r, k]``, and
    holds it exactly.  The top ``(d+1)//2`` rows solve the three-term Lx
    eigen-equation by recursion, all at once, forward from ``m' = +l`` to
    the middle index: the amplitudes decay towards the edge, so the
    recursion grows as it goes and is stable.  The other half of each row is
    the first one mirrored with the row's parity (the middle component of an
    odd row is 0), and each row is normalised.  The bottom rows are the top
    ones mirrored, ``M[d-1-r, k] = (-1)**(d-1+k) M[r, k]``, bit for bit, and
    every zero has the sign that the recursion of that row would give it.
    The signs make every row's ``m' = -l`` component positive -- the signs
    of ``expm(+i pi/2 J_y)`` -- for every N, even where that component
    underflows.  Entries below the smallest normal float are set to 0: they
    would slow the matrix products of :func:`to_x_basis`.  A rotation builds
    only the top rows (:func:`_x_rows`).
    """
    return _x_rows(sector, sector.dimension)


# Rows or columns of a d x d matrix taken at a time by the bounds and the
# rounding floor of the rotation and by the moduli of an |x| grid
_BLOCK_ROWS = 32


def _support(x: np.ndarray, share: float = _UNIT_ROUNDOFF) -> tuple[int, int]:
    """The window of a vector ``x >= 0``: the smallest index range
    ``[lo, hi)`` outside which its entries sum to at most ``share * sum(x)``
    (by default ``u``, the unit roundoff), the first one when several are
    smallest.  Each tail sum is accumulated from its own end, so a tail far
    below the total is not lost to cancellation.  A zero vector has the
    window ``(0, 0)``.  The package's states hold their weight within
    O(sqrt(N)) of a centre (``evolve._toeplitz_form`` gives the tail bound),
    so their windows are that narrow."""
    d = x.size
    tail = np.cumsum(x[::-1])[::-1]  # tail[k]: x[k:] summed
    budget = share * tail[0]
    head = np.cumsum(x)  # head[k]: x[:k+1] summed
    # a range may start at lo = 0 .. count, where x[:lo] sums within budget
    count = int(np.searchsorted(head, budget, side="right"))
    prefix = np.concatenate(([0.0], head[:count]))
    # for each lo the smallest hi with x[hi:] summing within budget - prefix
    his = d - np.searchsorted(tail[::-1], budget - prefix, side="right")
    lo = int(np.argmin(np.maximum(his - np.arange(count + 1), 0)))
    return lo, max(int(his[lo]), lo)


def _parity_parts(part: np.ndarray, ev: int) -> list[np.ndarray]:
    """The entries of a real square ``part`` whose row and column are both
    even, both odd, and even and odd, ``ev`` being the first even position:
    copies ``[ee, oo, eo]``, with each entry below the smallest normal float
    set to 0 (subnormals, e.g. products of the smallest amplitudes, would
    slow the matrix products several times)."""
    parts = [part[r::2, c::2].copy() for r, c in ((ev, ev), (1 - ev, 1 - ev), (ev, 1 - ev))]
    for x in parts:
        np.copyto(x, 0.0, where=np.abs(x) < _TINY)
    return parts


def x_floor_gain(d: int) -> float:
    """The gain ``g`` of the rounding term ``g b_r b_c`` of the floor of
    :func:`to_x_basis` at dimension ``d``:
    ``sqrt(2) * gamma_2n = 2 sqrt(2) n u / (1 - 2 n u)``, ``n = d + 6``,
    ``u`` the unit roundoff.  :func:`to_x_basis` derives it."""
    two_n_u = 2.0 * (d + 6) * _UNIT_ROUNDOFF
    return math.sqrt(2.0) * two_n_u / (1.0 - two_n_u)


def _x_bounds(top: np.ndarray, s: np.ndarray):
    """The window ``(lo, hi)`` of ``s`` (:func:`_support`), ``b = |M| s``
    and ``o = |M| s_out``, with ``s_out`` the entries of ``s`` outside the
    window (the others 0), from blocks of columns of ``|M|``, each made
    from the top rows ``top`` of ``M`` (:func:`_x_rows`): row ``d-1-r`` of
    ``|M|`` is row ``r``'s, so a block is the one the whole ``M`` gives,
    and so are ``b`` and ``o``, bit for bit."""
    lo, hi = _support(s)
    d = s.size
    h, pairs = len(top), d - len(top)
    s_out = s.copy()
    s_out[lo:hi] = 0.0
    b, o = np.zeros(d), np.zeros(d)
    mag = np.empty((_BLOCK_ROWS, d))
    for k in range(0, d, _BLOCK_ROWS):  # columns k.. of M: contiguous rows of top^T
        part = top.T[k:k + _BLOCK_ROWS]
        cols = mag[:len(part)]
        np.abs(part, out=cols[:, :h])
        cols[:, h:] = cols[:, :pairs][:, ::-1]  # |M[d-1-r, k]| = |M[r, k]|
        b += s[k:k + _BLOCK_ROWS] @ cols
        if k < lo or k + _BLOCK_ROWS > hi:
            o += s_out[k:k + _BLOCK_ROWS] @ cols
    return (lo, hi), b, o


def _floor_rows(gain: float, b: np.ndarray, o: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows ``r0 .. r1-1`` of the floor of :func:`to_x_basis`,
    ``g b_r b_c + (o_r b_c + b_r o_c)``: formed so that entries ``(r, c)``
    and ``(c, r)`` are the same bits."""
    floor = b[r0:r1, None] * b
    floor *= gain
    floor += o[r0:r1, None] * b + b[r0:r1, None] * o
    return floor


def _x_floor(sector: SectorLabel, s: np.ndarray) -> np.ndarray:
    """The whole d x d floor of :func:`to_x_basis` for a density matrix in
    ``sector`` whose diagonal has the square roots ``s``: the one statement
    of it that checks of a rotated matrix or an Lx grid read."""
    d = sector.dimension
    _, b, o = _x_bounds(_x_rows(sector, (d + 1) // 2), s)
    return _floor_rows(x_floor_gain(d), b, o, 0, d)


def _mirror(x: np.ndarray, mirror) -> None:
    """``x[r, c] = mirror(x[r, c], x[c, r])`` for a square ``x``, in place:
    a band of rows from the diagonal on, then the band of columns below
    it, at a time."""
    for i in range(0, len(x), _BLOCK_ROWS):
        j = i + _BLOCK_ROWS
        band = mirror(x[i:j, i:], x[i:, i:j].T)
        mirror(x[j:, i:j], x[i:j, j:].T, out=x[j:, i:j])
        x[i:j, i:] = band


def _x_rotate(sector: SectorLabel, s: np.ndarray, square, dtype) -> np.ndarray:
    """The Lz-to-Lx rotation ``M rho M^T`` of a density matrix in
    ``sector``, for :func:`to_x_basis` and a run's Lx snapshot
    (``evolve._snapshot``) alike, over the window ``[lo, hi)`` of ``s``,
    the square roots of its diagonal (:func:`_support`): ``rho`` is read
    once, through ``square(lo, hi)``, which returns its rows and columns
    ``lo .. hi-1`` (complex), and only the window's columns of ``M`` are
    used.

    Only the top ``(d+1)//2`` rows of ``M`` are built (:func:`_x_rows`).
    ``b`` and ``o`` (:func:`_x_bounds`) are found from them and their
    window's columns are copied out, even and odd columns apart; they are
    freed before the d x d result is allocated.  Then each part of the
    window's square, real then imaginary, is split by the parities of its
    rows and columns, and three (d/2)**2 products ``A``, ``B`` and ``C``
    give the four quadrants of its rotation (:func:`to_x_basis`), with no
    other d x d or (d/2)**2 array.  A band of rows at a time, the top-right
    quadrant is formed from ``A - B`` and ``A`` becomes ``A + B``; ``B`` is
    freed, ``A`` and ``C`` are symmetrised in place (:func:`_mirror`), and
    the diagonal quadrants are written a band of rows at a time.  The
    imaginary part's writes are the last ones, and each of its bands then
    sets every entry within the floor ``g b_r b_c + (o_r b_c + b_r o_c)``
    (:func:`_floor_rows`) to 0.  The bottom-left quadrant is the conjugate
    transpose of the floored top-right one, as the floor is symmetric bit
    for bit.

    A complex ``dtype`` returns the matrix of :func:`to_x_basis`.  A real
    one returns its modulus, bit for bit, with no complex d x d array: the
    real part's quadrants are written as they are, and each band of the
    imaginary part turns the result's band into ``np.abs`` of the complex
    entries through one band-size complex scratch.  So at the peak, while
    ``C`` is made, the result, ``A``, ``B``, ``C`` and the window's arrays
    are alive: 8 + 6 bytes per entry for a real result and 16 + 6 for a
    complex one, and O(d w) beyond."""
    d = sector.dimension
    h, pairs = (d + 1) // 2, d // 2
    top = _x_rows(sector, h)
    (lo, hi), b, o = _x_bounds(top, s)
    ev = lo % 2  # the window's first column of even index
    sides = (top[:, lo + ev:hi:2].copy(), top[:, lo + 1 - ev:hi:2].copy())
    del top
    window = square(lo, hi)
    out = np.empty((d, d), dtype)
    flip = 1.0 if d % 2 else -1.0  # M[d-1-r, k] = flip (-1)**k M[r, k]
    gain = x_floor_gain(d)

    def put(dst, block, take):
        if out.dtype.kind == "c" or take is np.real:
            take(dst)[...] = block
        else:  # the modulus of the complex entries
            z = np.empty(block.shape, complex)
            z.real = dst
            z.imag = block
            np.abs(z, out=dst)

    def apply_floor(r0, r1, c0):  # rows r0 .. r1-1 from column c0 on
        band = out[r0:r1, c0:]
        np.copyto(band, 0.0, where=np.abs(band) <= _floor_rows(gain, b, o, r0, r1)[:, c0:])

    for take, mirror, skew in ((np.real, np.add, np.subtract), (np.imag, np.subtract, np.add)):
        pieces = _parity_parts(take(window), ev)
        even = sides[0] @ pieces[0] @ sides[0].T
        odd = sides[1] @ pieces[1] @ sides[1].T
        cross = sides[0] @ pieces[2] @ sides[1].T
        del pieces
        for r in range(0, h, _BLOCK_ROWS):
            r1 = min(r + _BLOCK_ROWS, h)
            twin = even[r:r1] - odd[r:r1]
            twin -= skew(cross[r:r1], cross.T[r:r1])
            twin *= flip
            put(out[r:r1, h:], twin[:, :pairs][:, ::-1], take)
            even[r:r1] += odd[r:r1]
        del odd
        _mirror(even, mirror)
        even *= 0.5
        _mirror(cross, mirror)
        for r in range(0, h, _BLOCK_ROWS):
            r1 = min(r + _BLOCK_ROWS, h)
            put(out[r:r1, :h], even[r:r1] + cross[r:r1], take)
            if take is np.imag:
                apply_floor(r, r1, 0)
        even -= cross
        for r in range(h, d, _BLOCK_ROWS):  # row r of the result: row d-1-r of even
            r1 = min(r + _BLOCK_ROWS, d)
            put(out[r:r1, h:], even[d - r1:d - r, :pairs][::-1, ::-1], take)
            if take is np.imag:
                apply_floor(r, r1, h)
        del even, cross
    low = out[h:, :h]
    np.conjugate(out[:h, h:].T, out=low)
    if out.dtype.kind == "c":  # a zeroed entry is 0 + 0j, and its conjugate 0 - 0j
        np.copyto(low, 0.0, where=low == 0.0)
    return out


def to_x_basis(rho: DickeDensityMatrix) -> DickeDensityMatrix:
    """Re-express an Lz-basis density matrix in the Lx eigenbasis.

    ``M rho M^T`` is computed by :func:`_x_rotate` (which also makes the
    ``|rho|`` grid of an Lx snapshot, ``evolve._snapshot``, by the same
    steps) over the window ``W = [lo, hi)`` of ``s``, ``s_k = sqrt(rho_kk)``:
    the smallest index range outside which ``s`` sums to at most
    ``u sum(s)``, ``u`` the unit roundoff (:func:`_support`).  The package's
    states hold their weight within O(sqrt(N)) of a centre, so ``W`` has
    ``w = O(sqrt(N))`` indices (258 of 1001 for fig1 at tau, N = 1000) and
    the products take ``O(d**2 w)`` work, not ``O(d**3)``.

    ``M`` is real, so the real and the imaginary part of ``rho``'s window
    square are rotated apart.  Row ``d-1-r`` of ``M`` is row ``r`` times
    ``(-1)**(d-1+k)`` in column ``k``, bit for bit, so only the top rows
    ``P = M[:(d+1)//2, W]`` are used, split into the columns of even and of
    odd ``k``, ``Pe`` and ``Po``.  With a part ``R`` split the same way by
    rows and columns, the three products ``A = Pe Ree Pe^T``,
    ``B = Po Roo Po^T`` and ``C = Pe Reo Po^T`` give every quadrant: with
    ``e = +1`` for the real part (symmetric) and ``-1`` for the imaginary
    part (antisymmetric), ``Po Roe Pe^T = e C^T``, and

    - the top left, rows ``r`` and columns ``c``, is ``A + B + C + e C^T``;
    - the bottom right, ``d-1-r`` and ``d-1-c``, is ``A + B - C - e C^T``;
    - the top right, ``r`` and ``d-1-c``, is
      ``(-1)**(d-1) (A - B - C + e C^T)``;

    and the bottom left is the conjugate transpose of the top right: about
    ``3/4 d**2 w`` flops per part.  ``A``, ``B`` and ``C`` are the only
    (d/2)**2 arrays: the sums and differences are formed in place or a band
    of rows at a time (:func:`_x_rotate`).  In the split
    parts, entries below the smallest normal float (subnormals, e.g.
    products of the smallest coherent-state amplitudes) are set to 0:
    together they move a result entry by less than ``d * 2.3e-308``, and
    without this the matrix products run several times slower.  ``rho``
    itself is not touched.

    The result is exactly Hermitian: ``A + B`` is written as
    ``((A + B) + e (A + B)^T)/2`` and ``C + e C^T`` is symmetric or
    antisymmetric bit for bit (sums commute in floating point), so both
    diagonal quadrants are too.  The symmetrised entries move by the
    products' rounding, about 1e-16.

    Entries within the floor of zero are set to exactly 0: every result
    entry with ``|x_rc| <= g b_r b_c + (o_r b_c + b_r o_c)``, where
    ``b = |M| s``, ``o = |M| s_out`` with ``s_out`` the entries of ``s``
    outside ``W`` (the others 0), and ``g = x_floor_gain(d)``.  The floor
    is formed so that entries ``(r, c)`` and ``(c, r)`` are the same bits
    (:func:`_floor_rows`): the mask is symmetric and the result stays
    exactly Hermitian.  A run's Lx snapshot file states the floor in its
    header.  It bounds the two ways in which the computed ``x_rc`` differs
    from ``(M rho M^T)_rc``, taking ``M`` as given.

    - **The dropped part.**  A positive semidefinite ``rho`` has
      ``|rho_kj| <= s_k s_j`` (the package's states meet it to a few
      ``u``), so the entries of ``rho`` outside ``W x W`` move ``x_rc`` by
      at most ``sum |M_rk| s_k s_j |M_cj|`` over ``k`` or ``j`` outside
      ``W``, which is at most ``o_r b_c + b_r o_c``.
    - **The rounding** (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2nd ed., sections 3.1 and 3.5, with
      ``gamma_n = n u / (1 - n u)``).  Each product ``P R P^T`` is two
      products whose inner lengths sum to at most ``w + 1``, so it is off by
      at most ``gamma_(w+1)`` of ``|P| |R| |P|^T``; since
      ``|M[d-1-r, k]| = |M[r, k]|``, the pieces of a quadrant entry together
      are bounded by ``|M| |rho| |M|^T`` over ``W``.  A quadrant adds its
      pieces with at most three roundings (the halving is exact):
      ``gamma_(w+4) <= gamma_(d+4)``.  The real and the imaginary part are
      each off by that much of ``|M| |rho| |M|^T``, their modulus by
      ``sqrt(2)`` times it, and ``np.abs`` (``hypot``, under 1 ulp) adds two
      roundings: in all ``sqrt(2) gamma_(d+6) (|M| |rho| |M|^T)_rc``, and
      ``|M| |rho| |M|^T <= b b^T``, a rank-one bound held as one d-vector.
      ``g`` is ``sqrt(2) gamma_2(d+6)``, at least twice
      ``sqrt(2) gamma_(d+6)``; the factor of two covers the rounding of
      ``s``, ``b``, ``o`` and the floor (relative error below
      ``gamma_(2d+4)``, far below 1/2).

    So an entry that is 0 exactly is always set to 0, a kept entry is within
    the floor of its exact value, and a zeroed one within twice the floor.
    The subnormal flushes above and in :func:`rotation_to_x`, each below
    ``d * 2.3e-308``, are outside the bound.  Only the top rows of ``M``
    are built (:func:`_x_rows`); ``b`` and ``o`` are found from blocks of
    its columns before the products, and the mask is applied to blocks of
    rows as the last part is written, so no d x d temporary is added.
    Beyond ``rho``, the traced peak is about 25 bytes per entry at N = 400
    and 24 at N = 1000 (the coherent state at ``theta = pi/4``): the result
    (16), the three products of one part (6) and the window's arrays.
    """
    if rho.basis_tag is not Basis.LZ:
        raise UsageError(f"density matrix already in basis {rho.basis_tag.value}")
    el = rho.elements
    out = _x_rotate(rho.sector, np.sqrt(np.maximum(el.real.diagonal(), 0.0)),
                    lambda lo, hi: el[lo:hi, lo:hi], complex)
    return _density_matrix(rho.sector, out, Basis.LX)


# ---------------------------------------------------------------------------
# metrics


def fidelity(rho: DickeDensityMatrix, target: DickeState) -> float:
    """Pure-target fidelity ``<psi| rho |psi>``, clamped to [0, 1]."""
    if rho.sector != target.sector:
        raise UsageError("fidelity requires matching sectors")
    if rho.basis_tag.value != target.basis.value:
        raise UsageError(
            f"basis mismatch: rho in {rho.basis_tag.value}, target in {target.basis.value}")
    return _clamped_fidelity(
        float(np.real(target.amplitudes.conj() @ rho.elements @ target.amplitudes)))


def _clamped_fidelity(val: float) -> float:
    """A computed fidelity clamped to [0, 1]; :class:`NumericError` when it
    lies outside by more than the norm tolerance."""
    if val < -_NORM_TOL or val > 1.0 + _NORM_TOL:
        raise NumericError(f"fidelity {val!r} outside [0,1] beyond tolerance", estimate=val)
    return min(1.0, max(0.0, val))


def purity(rho: DickeDensityMatrix) -> float:
    """``trace(rho^2)``; 1 for pure states, 1/d for the maximally mixed."""
    return float(np.real(np.vdot(rho.elements, rho.elements)))


def coherence_corner(rho: DickeDensityMatrix) -> float:
    """Magnitude of the extreme anti-diagonal element ``|rho_{+l,-l}|``.

    Only meaningful in the Lx basis, where it measures the coherence
    between the two macroscopically distinct superposition components.
    """
    if rho.basis_tag is not Basis.LX:
        raise UsageError("corner coherence is defined in the Lx basis")
    return float(abs(rho.elements[0, -1]))
