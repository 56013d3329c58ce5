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
components only, and a density matrix is rotated by parity blocks of half
size.  One function does every such rotation, reading the matrix a block of
rows at a time: into the complex matrix of :func:`to_x_basis`, or into the
real ``|rho|`` grid of a run's Lx snapshot (``evolve._snapshot``).  The
corner coherence of a formed state needs only the coherent states along +x
and -x (the rotation's first and last rows).

Density matrices are checked once, where they enter the package: the public
:class:`DickeDensityMatrix` constructor tests hermiticity, unit trace and
positive semidefiniteness of a matrix a caller supplies.  The package's own
results skip those tests, because the maps that build them keep a matrix
physical: the projector of a normalised state, the exact dephasing
propagator of :mod:`spincat.evolve` (a Schur product with a unit-diagonal
positive kernel), and the orthogonal Lz-to-Lx rotation, whose rounding
floor moves an entry only within the bound on its rounding.
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


def rotation_to_x(sector: SectorLabel) -> np.ndarray:
    """Rotation matrix taking Lz-basis components to Lx-basis components.

    Row r is the Lx eigenvector with eigenvalue ``mu = l - r`` in the Lz
    basis, so ``c_x = M @ c_z``; as a matrix ``M = expm(+i pi/2 J_y)``, the
    active rotation by ``-pi/2`` about the y axis.  Built on each call (one
    d x d array, O(d**2) work) and returned read-only.

    Every row has a definite parity, ``M[r, d-1-k] = (-1)**r M[r, k]``, and
    holds it exactly.  The rows solve the three-term Lx eigen-equation by
    recursion, all at once, forward from ``m' = +l`` to the middle index: the
    amplitudes decay towards the edge, so the recursion grows as it goes and
    is stable.  The other half is the first one mirrored with the row's
    parity (the middle component of an odd row is 0), and each row is
    normalised.  The signs make every row's ``m' = -l`` component positive --
    the signs of ``expm(+i pi/2 J_y)`` -- for every N, even where that
    component underflows.  Entries below the smallest normal float are set
    to 0: they would slow the matrix products of :func:`to_x_basis`.
    """
    dim = sector.dimension
    m = sector.m_values()
    l = sector.l
    # <m|Lx|m-1> = sqrt(l(l+1) - m(m-1))/2 couples index k to k+1
    off = 0.5 * np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] - 1.0))
    vecs = np.empty((dim, dim))  # vecs[k, r]: component k of row r
    half, pairs = (dim + 1) // 2, dim // 2
    first = vecs[:half]
    _recurse(first, m, off, half)
    if half > pairs:
        first[pairs, 1::2] = 0.0  # the middle component of an odd row
    norm2 = 2.0 * np.einsum("kr,kr->r", first[:pairs], first[:pairs])
    first /= np.sqrt(norm2 + first[pairs:half].sum(axis=0) ** 2)
    first[np.abs(first) < _TINY] = 0.0
    vecs[dim - pairs:] = first[:pairs][::-1]  # component d-1-k: the seed's sign
    first[:, 1::2] *= -1.0  # component k: times the row's parity
    vecs.setflags(write=False)
    return vecs.T


# Rows or columns of a d x d matrix taken at a time by the parity folds, by
# the rounding floor of the rotation and by the moduli of an |x| grid
_BLOCK_ROWS = 32


def _parity_parts(part, d: int):
    """The sums and differences of rows and of columns ``k`` and ``d-1-k``
    of a real d x d matrix ``P``: ``(++, +-, --)``, where ``+`` has
    ``(d+1)//2`` entries and ``-`` has ``d//2``.  Rows are folded first, row
    ``k`` plus or minus row ``d-1-k``, then the columns of the folded rows
    the same way: with ``a, b`` the entries of row ``k`` in columns
    ``j, d-1-j`` and ``c, e`` those of row ``d-1-k``, ``++`` is
    ``(a + c) + (b + e)``, ``+-`` is ``(a + c) - (b + e)`` and ``--`` is
    ``(a - c) - (b - e)``.  The middle row and column of an odd ``d`` fold
    onto nothing and are taken once, as they are.  Entries below the
    smallest normal float are set to 0.  ``P`` is read only through
    ``part(lo, hi)``, which returns its rows ``lo .. hi-1`` (a slice of an
    array, or rows made when asked), a block of rows at a time, and the
    three results are written a block at a time: no temporary is larger
    than a block of folded rows."""
    pairs = d // 2
    h = d - pairs
    pp, pm, mm = np.empty((h, h)), np.empty((h, pairs)), np.empty((pairs, pairs))
    for lo in range(0, h, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, h)
        top = min(hi, pairs)  # rows lo .. top-1 have a mirror row
        rows = part(lo, hi)
        flip = part(d - top, d - lo)[::-1]  # rows d-1-lo .. d-top
        sums = rows.copy()
        sums[:top - lo] += flip
        np.add(sums[:, :pairs], sums[:, :h - 1:-1], out=pp[lo:hi, :pairs])
        pp[lo:hi, pairs:] = sums[:, pairs:h]
        np.subtract(sums[:, :pairs], sums[:, :h - 1:-1], out=pm[lo:hi])
        diffs = rows[:top - lo] - flip
        np.subtract(diffs[:, :pairs], diffs[:, :h - 1:-1], out=mm[lo:top])
        for x in (pp[lo:hi], pm[lo:hi], mm[lo:top]):
            np.copyto(x, 0.0, where=np.abs(x) < _TINY)
    return pp, pm, mm


def x_floor_gain(d: int) -> float:
    """The gain ``g`` of the rounding floor of :func:`to_x_basis` at
    dimension ``d``: ``sqrt(2) * gamma_2n = 2 sqrt(2) n u / (1 - 2 n u)``,
    ``n = d + 6``, ``u`` the unit roundoff.  :func:`to_x_basis` derives it."""
    two_n_u = 2.0 * (d + 6) * _UNIT_ROUNDOFF
    return math.sqrt(2.0) * two_n_u / (1.0 - two_n_u)


def _x_rotate(sector: SectorLabel, s: np.ndarray, rows, dtype) -> np.ndarray:
    """The Lz-to-Lx rotation ``M rho M^T`` of a density matrix in
    ``sector``, for :func:`to_x_basis` and a run's Lx snapshot
    (``evolve._snapshot``) alike.  ``rho`` is read only through
    ``rows(lo, hi)``, which returns its rows ``lo .. hi-1`` (complex), and
    ``s``, the square roots of its diagonal.

    ``b = |M| s`` is found from blocks of columns of ``M`` and the halves
    ``E``, ``O`` (:func:`to_x_basis`) are copied out; ``M`` is freed before
    the d x d result is allocated.  Then each part in turn is folded
    (:func:`_parity_parts`) and its three parity blocks are written, a
    diagonal block ``X`` as ``(X + X^T)/2`` for the real part and
    ``(X - X^T)/2`` for the imaginary part.  The odd-even block is the
    conjugate transpose of the even-odd one, and each entry within the
    rounding floor ``g b_r b_c`` is set to 0, a block of rows at a time.

    A complex ``dtype`` returns the matrix of :func:`to_x_basis`.  A real
    one returns its modulus, bit for bit, with no complex d x d array: the
    real part's blocks are written as they are, and each block of the
    imaginary part turns the result's block into ``np.abs`` of the complex
    entries, a few rows at a time."""
    d = sector.dimension
    mat = rotation_to_x(sector)
    b = np.zeros(d)
    for k in range(0, d, _BLOCK_ROWS):  # columns k.. of M: contiguous rows of M^T
        b += s[k:k + _BLOCK_ROWS] @ np.abs(mat.T[k:k + _BLOCK_ROWS])
    sides = (np.ascontiguousarray(mat[0::2, :(d + 1) // 2]),
             np.ascontiguousarray(mat[1::2, :d // 2]))
    del mat
    out = np.empty((d, d), dtype)
    for take, mirror in ((np.real, np.add), (np.imag, np.subtract)):
        parts = list(_parity_parts(lambda lo, hi: take(rows(lo, hi)), d))
        for r, c in ((0, 0), (0, 1), (1, 1)):
            block = sides[r] @ parts.pop(0) @ sides[c].T  # each part freed once used
            if r == c:
                block = mirror(block, block.T)
                block *= 0.5
            dst = out[r::2, c::2]
            if take is np.real:
                dst.real = block
            elif out.dtype.kind == "c":
                dst.imag = block
            else:  # no block-size complex temporary
                for i in range(0, len(block), _BLOCK_ROWS):
                    np.abs(dst[i:i + _BLOCK_ROWS] + 1j * block[i:i + _BLOCK_ROWS],
                           out=dst[i:i + _BLOCK_ROWS])
        del block  # not held while the next part is folded
    np.conjugate(out[0::2, 1::2].T, out=out[1::2, 0::2])
    gain = x_floor_gain(d)
    for r in range(0, d, _BLOCK_ROWS):
        band = out[r:r + _BLOCK_ROWS]
        floor = b[r:r + _BLOCK_ROWS, None] * b
        floor *= gain
        np.copyto(band, 0.0, where=np.abs(band) <= floor)
    return out


def to_x_basis(rho: DickeDensityMatrix) -> DickeDensityMatrix:
    """Re-express an Lz-basis density matrix in the Lx eigenbasis.

    The rotation ``M`` is real, so ``M rho M^T`` is computed for the real and
    the imaginary part of ``rho`` separately, by parity blocks, in
    :func:`_x_rotate` (which also makes the ``|rho|`` grid of an Lx
    snapshot, ``evolve._snapshot``, by the same steps): even rows of
    ``M`` are symmetric under ``k -> d-1-k`` and odd rows antisymmetric, so
    with ``E = M[0::2, :(d+1)//2]``, ``O = M[1::2, :d//2]`` and a part's
    row-and-column sums and differences ``A++``, ``A+-``, ``A--`` (O(d**2)
    work), the even-even block of ``M A M^T`` is ``E A++ E^T``, the
    even-odd block ``E A+- O^T`` and the odd-odd block ``O A-- O^T``: six
    real products of half size, ``3 d**3`` flops instead of ``8 d**3``, with
    (d/2)**2 temporaries.  The sums and differences are folded a block of
    rows at a time into the three parts, with no larger temporary.  In
    them, entries below the smallest normal float (subnormals, e.g. products
    of the smallest coherent-state amplitudes) are set to 0: together they
    move a result entry by less than ``d * 2.3e-308``, and without this the
    matrix products run several times slower.  ``rho`` itself is not touched.

    The result is exactly Hermitian: each part's even-odd block is mirrored
    into its odd-even block, with a minus sign for the imaginary part, and
    each diagonal block ``P`` is written as ``(P + P^T)/2`` or ``(P - P^T)/2``
    (sums commute in floating point, so the two halves match bit for bit).
    The symmetrised entries move by the products' rounding, about 1e-16.

    Entries within rounding of zero are set to exactly 0: every result
    entry with ``|x_rc| <= g * (b_r * b_c)``, where ``b = |M| s``,
    ``s_k = sqrt(rho_kk)`` and ``g = x_floor_gain(d)``.  The threshold is
    formed as ``g * (b_r * b_c)``, so the mask is symmetric and the result
    stays exactly Hermitian.  ``g b_r b_c`` bounds the rounding error of the
    computed ``|x_rc|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sections 3.1 and 3.5, with
    ``gamma_n = n u / (1 - n u)``), taking ``M`` as given:

    - a parity sum or difference of a part ``P`` rounds twice, so it is off
      by at most ``gamma_2`` times the sum of its terms' magnitudes;
    - ``side @ middle @ side.T`` is two products of inner length
      ``h <= (d+1)/2``, off by at most ``gamma_2h`` of
      ``|side| |middle| |side|^T``; since ``|M[r, k]| = |M[r, d-1-k]|``,
      the folded magnitudes make that ``|M| |P| |M|^T``, so a block entry
      is off by at most ``gamma_(d+3)`` of it;
    - the symmetrisation rounds once more: ``gamma_(d+4)``;
    - the real and the imaginary part are each off by that much of
      ``|M| |rho| |M|^T``, their modulus by ``sqrt(2)`` times it, and
      ``np.abs`` (``hypot``, under 1 ulp) adds two roundings: in all
      ``sqrt(2) gamma_(d+6) (|M| |rho| |M|^T)_rc``.

    A positive semidefinite ``rho`` has ``|rho_kj| <= s_k s_j`` (the
    package's states meet it to a few ``u``), so ``|M| |rho| |M|^T <= b b^T``:
    a rank-one bound held as one d-vector, with O(d**2) work.  ``g`` is
    ``sqrt(2) gamma_2(d+6)``, at least twice ``sqrt(2) gamma_(d+6)``; the
    factor of two covers the rounding of ``s``, ``b`` and the threshold
    (relative error below ``gamma_(2d+4)``, far below 1/2).  So an entry
    that is 0 exactly is always set to 0, and a zeroed entry was at most
    ``2 g b_r b_c`` from its exact value.  The subnormal flushes above and
    in :func:`rotation_to_x`, each below ``d * 2.3e-308``, are outside the
    bound.  ``b`` is found from blocks of columns of ``M`` before the
    products and the mask applied to blocks of rows after them, so no d x d
    temporary is added.  Beyond ``rho``, the traced peak is about 28 bytes
    per entry at N = 400-2000: the result (16), allocated once ``M`` is
    freed, the halves of the rotation (4), one part's parity parts (6) and
    a product.
    """
    if rho.basis_tag is not Basis.LZ:
        raise UsageError(f"density matrix already in basis {rho.basis_tag.value}")
    el = rho.elements
    out = _x_rotate(rho.sector, np.sqrt(np.maximum(el.real.diagonal(), 0.0)),
                    lambda lo, hi: el[lo:hi], complex)
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
