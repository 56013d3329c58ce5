"""Exact reduced dynamics and superposition-formation analysis.

The collective coupling dephases the ensemble in the ``L_z`` eigenbasis
without moving populations.  The exact state at ``t`` (:func:`_formed`) is
the twisted amplitudes ``psi_m = c_m exp(-i t f(t) m**2)`` dephased::

    rho_{mm'}(t) = psi_m conj(psi_m') * exp(-t Gamma(t) (m - m')**2)

The ``m**2`` phase is one-axis twisting: at accumulated phase
``t*f(t) = pi/2`` a spin coherent state is reshaped into an equal
superposition of two macroscopically distinct coherent states.  This
module builds those target states, evolves to the earliest formation time
``tau`` (root of ``t*f(t) = pi/2``), and scores the formed state
(fidelity, purity, extreme coherence) together with the survival
condition ``tau * Gamma(tau) * N**2 < 1`` and the implied maximum
ensemble size.  Only the Dicke-sector algebra depends on ``N``; ``tau``,
``f(tau)`` and ``Gamma(tau)`` belong to the bath, and are solved and
memoised in :mod:`spincat.kernels` (:func:`solve_bath`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bath import SpectralDensity
from .dicke import (Basis, DickeDensityMatrix, DickeState, SectorLabel, _clamped_fidelity,
                    _density_matrix, _x_rotate, coherent_state, to_x_basis)
from .errors import UsageError
from .kernels import _DEFAULT_HORIZON_FACTOR, _rate_at, solve_bath

__all__ = [
    "MqsConvention",
    "EvolutionParams",
    "MqsReport",
    "evolve_state",
    "mqs_target",
    "assess_mqs",
    "snapshot_series",
]

_HALF_PI = math.pi / 2.0


class MqsConvention(str, enum.Enum):
    """How the second component of the macroscopic superposition is built.

    ANTIPODAL pairs ``|theta, phi>`` with ``|theta - pi, phi>`` (exact
    antipode on the Bloch sphere, components always orthogonal).  TWIST
    pairs it with ``|theta, phi + pi>``, the population-conserving partner
    actually produced by the ``m**2``-phase dynamics; the two conventions
    coincide on the equator ``theta = pi/2``.
    """

    ANTIPODAL = "antipodal"
    TWIST = "twist"


@dataclass(frozen=True)
class EvolutionParams:
    """Complete description of one evolution problem.

    ``force_zero_decoherence`` is a test hook that replaces ``Gamma`` by 0
    so the unitary twisting can be checked in isolation; it is not exposed
    through the command-line layer.  ``solve_horizon_factor`` bounds the
    formation-time search at ``horizon = factor * t_corr``; it must be
    finite and exceed 1.
    """

    spectrum: SpectralDensity
    sector: SectorLabel
    initial: DickeState
    mqs_convention: MqsConvention = MqsConvention.TWIST
    force_zero_decoherence: bool = False
    solve_horizon_factor: float = _DEFAULT_HORIZON_FACTOR

    def __post_init__(self):
        object.__setattr__(self, "mqs_convention", MqsConvention(self.mqs_convention))
        if self.initial.sector != self.sector:
            raise UsageError("initial state sector differs from params sector")
        if self.initial.basis is not Basis.LZ:
            raise UsageError("initial state must be given in the Lz basis")
        if not 1.0 < self.solve_horizon_factor < math.inf:
            raise UsageError(f"solve_horizon_factor not in (1, inf): {self.solve_horizon_factor}")


@dataclass(frozen=True)
class MqsReport:
    """Summary of superposition formation at ``tau_mqs``.

    ``n_max = floor(1 / sqrt(tau * gamma_bar))`` is the largest ensemble
    obeying the survival condition; it is None (unbounded) when the
    effective decoherence vanishes.  ``feasible`` applies the condition at
    the report's own particle number.
    """

    tau_mqs: float
    f_at_tau: float
    gamma_at_tau: float
    fidelity: float
    corner: float
    purity: float
    feasible: bool
    n_max: int | None
    convention_used: str


def evolve_state(p: EvolutionParams, t: float) -> DickeDensityMatrix:
    """Exact dephasing propagation of the initial pure state to time ``t``.

    ``t = 0`` returns the initial projector.  The result is always in the
    Lz basis; populations are conserved exactly.
    """
    return _dephase(p, t, *_kernel_values(p, t))


def _kernel_values(p: EvolutionParams, t: float):
    """``f(t)`` and ``Gamma(t)`` for :func:`_formed`, from the memoised
    integral of both kernels at ``t`` (:func:`~spincat.kernels._rate_at`);
    ``Gamma`` is not read under ``force_zero_decoherence``, and both are 0
    at ``t = 0``."""
    if t < 0.0:
        raise UsageError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0, 0.0
    return (_rate_at(p.spectrum, t, 0),
            0.0 if p.force_zero_decoherence else _rate_at(p.spectrum, t, 1))


def _formed(p: EvolutionParams, t: float, f: float, gamma: float):
    """``rho(t) = (psi psi^+) o K``, ``K[i, j] = k[|i - j|]``: returns ``psi``
    (:func:`_twisted` by ``t f``), ``k[n] = exp(-t Gamma n**2)`` and the
    ``Gamma`` used, ``gamma`` or, under ``force_zero_decoherence``, 0."""
    gamma = 0.0 if p.force_zero_decoherence else gamma
    kernel = np.exp(-t * gamma * np.arange(p.sector.dimension, dtype=float) ** 2)
    return _twisted(p, t * f), kernel, gamma


# Rows per block of the state: the only temporaries of an upper block are the
# real kernel's cast buffer (8192 entries) and its diagonal square's conjugate.
_DEPHASE_ROWS = 32


class _State:
    """The state ``(psi psi^+) o K`` at ``t`` (:func:`_formed`), made a block
    of entries at a time, so that no d x d array need be held."""

    def __init__(self, p: EvolutionParams, t: float, f: float, gamma: float):
        psi, kernel, _ = _formed(p, t, f, gamma)
        self.psi, self.conj = psi, psi.conj()
        # toeplitz[i, j] = kernel[|i - j|], a view
        self.toeplitz = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((kernel[:0:-1], kernel)), psi.size)[::-1]
        amps = p.initial.amplitudes
        self.diag = amps * amps.conj()

    def products(self, r0: int, r1: int, c0: int, c1: int, out=None) -> np.ndarray:
        """``psi_i conj(psi_j) k[|i - j|]`` for rows ``r0 .. r1-1`` and
        columns ``c0 .. c1-1``, into ``out`` if given: the one place the
        state's entries are multiplied out."""
        out = np.multiply(self.psi[r0:r1, None], self.conj[None, c0:c1], out=out)
        out *= self.toeplitz[r0:r1, c0:c1]
        return out

    def upper(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows ``lo .. hi-1`` from column ``lo`` on, written into ``out``:
        the products right of the diagonal, the conjugate of its mirror left
        of it and ``amps * amps.conj()`` on it."""
        square = self.products(lo, hi, lo, self.psi.size, out)[:, :hi - lo]
        np.copyto(square, square.T.conj(), where=np.tri(hi - lo, k=-1, dtype=bool))
        np.fill_diagonal(square, self.diag[lo:hi])
        return out

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo .. hi-1``, complex, every column: :meth:`upper`, and left
        of column ``lo`` the conjugates of the products of rows ``0 .. lo-1``,
        made again.  Bit for bit the rows :func:`_dephase` writes."""
        out = np.empty((hi - lo, self.psi.size), dtype=complex)
        self.upper(lo, hi, out[:, lo:])
        np.conjugate(self.products(0, lo, lo, hi).T, out=out[:, :lo])
        return out


def _dephase(p: EvolutionParams, t: float, f: float, gamma: float) -> DickeDensityMatrix:
    """The state at ``t`` (:func:`_formed`) given the kernel values there.

    A pure projector times a positive kernel of unit diagonal: a density
    matrix by construction, not checked again.  Each block of rows of
    :meth:`_State.upper` is written in place and every entry below it is the
    exact conjugate of its mirror: Hermitian bit for bit, with no d x d
    temporary.
    """
    state = _State(p, t, f, gamma)
    d = state.psi.size
    rho = np.empty((d, d), dtype=complex)
    for lo in range(0, d, _DEPHASE_ROWS):
        hi = min(lo + _DEPHASE_ROWS, d)
        rows = state.upper(lo, hi, rho[lo:hi, lo:])
        np.conjugate(rows[:, hi - lo:].T, out=rho[hi:, lo:hi])
    return _density_matrix(p.sector, rho, Basis.LZ)


def _twisted(p: EvolutionParams, theta: float) -> np.ndarray:
    """``psi_m = c_m exp(-i theta m**2)``: the initial amplitudes after the
    twisting phase ``theta = t f(t)``.

    One ``exp(-i theta m**2)`` would carry the rounding of ``theta * m**2``,
    an absolute phase error up to ``ulp(theta l**2)`` (about 1e-9 at
    N = 4096).  So ``theta`` is split into a 26-bit head, whose product with
    ``m**2`` is exact (``4 m**2`` is an integer of at most 24 significant
    bits within the particle cap), and a tail whose product is small."""
    mant, exp = math.frexp(theta)
    head = math.ldexp(math.trunc(math.ldexp(mant, 26)), exp - 26)
    m2 = p.sector.m_values() ** 2
    return p.initial.amplitudes * np.exp(-1j * (head * m2)) * np.exp(-1j * ((theta - head) * m2))


def _toeplitz_form(kernel: np.ndarray, u: np.ndarray, v: np.ndarray):
    """``sum_ij conj(u_i) kernel[|i - j|] v_j`` in O(d) memory.

    With ``c = correlate(v, u, "full")``, ``c[d-1+n] = sum_i v[i+n] conj(u[i])``
    sums the entries on the ``n``-th diagonal, so the form is
    ``sum_n kernel[|n|] c[d-1+n]``.  The correlation is direct (O(d**2) in
    C), not by FFT, so a tiny form keeps its relative accuracy."""
    d = kernel.size
    c = np.correlate(v, u, "full")
    return kernel[0] * c[d - 1] + kernel[1:] @ (c[d:] + c[d - 2::-1])


def mqs_target(sector: SectorLabel, theta: float, phi: float,
               convention: MqsConvention = MqsConvention.TWIST) -> DickeState:
    """Macroscopic-superposition target state for a given preparation.

    ANTIPODAL builds ``(e^{-i pi/4}|theta,phi> + e^{+i pi/4}|theta-pi,phi>)``
    normalized.  TWIST builds ``(e^{-i s pi/4}|theta,phi> +
    e^{+i s pi/4}|theta,phi+pi>)`` normalized, with a parity sign
    ``s = (-1)**l`` for integer ``l``: the twisting phases
    ``exp(-i (pi/2) m**2)`` reduce to 1 on even ``m`` and ``-i`` on odd
    ``m``, and matching that pattern onto the two-component form flips the
    quarter-wave phases between even and odd ``l``.  Half-integer sectors
    (odd N) never reach a two-component superposition exactly; ``s = +1``
    is used and the fidelity is simply reported.
    """
    if not sector.symmetric:
        raise UsageError("superposition targets require the symmetric sector")
    convention = MqsConvention(convention)
    a = coherent_state(sector, theta, phi)
    if convention is MqsConvention.ANTIPODAL:
        b = coherent_state(sector, theta - math.pi, phi)
        sign = 1.0
    else:
        b = coherent_state(sector, theta, phi + math.pi)
        l = sector.l
        sign = -1.0 if (l == int(l) and int(l) % 2 == 1) else 1.0
    qw = math.cos(math.pi / 4.0) - 1j * sign * math.sin(math.pi / 4.0)
    amp = qw * a.amplitudes + qw.conjugate() * b.amplitudes
    amp = amp / np.linalg.norm(amp)
    return DickeState(sector, amp, Basis.LZ, bloch=None)


def assess_mqs(p: EvolutionParams) -> MqsReport:
    """Evolve to the formation time and score the superposition.

    The formed state ``rho = (psi psi^+) o K`` (:func:`_formed` at ``tau``)
    is never built: each score is a quadratic form of ``rho`` and so a
    Toeplitz form of ``K`` (:func:`_toeplitz_form`), O(d**2) work and O(d)
    memory.

    * The fidelity ``<t| rho |t>`` against the convention's target ``t``,
      built from the initial state's preparation angles, is ``w^+ K w`` with
      ``w = conj(psi) t``, clamped to [0, 1] as :func:`~spincat.dicke.fidelity`
      does.
    * The purity ``trace(rho**2)`` is ``p^T (K o K) p`` with ``p = |psi|**2``.
    * The corner coherence is the Lx-basis element ``|rho_{+l,-l}|``.  Rows
      0 and -1 of the Lz-to-Lx rotation are the spin coherent states along
      +x and -x (up to sign), so it is ``|<+x| rho |-x>| = |y^+ K z|`` with
      ``y = conj(psi) (+x)`` and ``z = conj(psi) (-x)``.

    ``gamma_bar`` in the survival condition is ``Gamma(tau)`` (already a
    time-averaged rate).
    """
    if p.initial.bloch is None:
        raise UsageError(
            "assess_mqs needs a coherent initial state (preparation angles "
            "are required to construct the target)")
    theta, phi = p.initial.bloch
    bath = solve_bath(p.spectrum, p.solve_horizon_factor)
    psi, kernel, gamma_bar = _formed(p, bath.tau, bath.f_tau, bath.gamma_tau)
    conj_psi = psi.conj()
    target = mqs_target(p.sector, theta, phi, p.mqs_convention).amplitudes
    w = conj_psi * target
    fid = _clamped_fidelity(float(_toeplitz_form(kernel, w, w).real))
    amps = p.initial.amplitudes
    pops = amps.real ** 2 + amps.imag ** 2
    pur = float(_toeplitz_form(kernel * kernel, pops, pops))
    plus_x = coherent_state(p.sector, _HALF_PI, 0.0).amplitudes
    minus_x = coherent_state(p.sector, _HALF_PI, math.pi).amplitudes
    corner = float(abs(_toeplitz_form(kernel, conj_psi * plus_x, conj_psi * minus_x)))
    n = p.sector.n_particles
    product = bath.tau * gamma_bar
    feasible = product * n * n < 1.0
    n_max = math.floor(1.0 / math.sqrt(product)) if product > 0.0 else None
    return MqsReport(tau_mqs=bath.tau, f_at_tau=bath.f_tau, gamma_at_tau=gamma_bar,
                     fidelity=fid, corner=corner, purity=pur,
                     feasible=feasible, n_max=n_max,
                     convention_used=p.mqs_convention.value)


def snapshot_series(p: EvolutionParams, times, basis: Basis = Basis.LZ) -> list[DickeDensityMatrix]:
    """Evolved density matrices at each requested time, optionally rotated.

    ``times`` is a one-dimensional sequence.  Kernel values are read per
    time point from the memo of single-time integrals
    (:func:`~spincat.kernels._rate_at`), so a time already integrated, such
    as a solved ``tau``, is not integrated again; evaluation order does not
    affect the results.
    """
    if np.ndim(times) != 1:
        raise UsageError(f"times must be one-dimensional, got shape {np.shape(times)}")
    rotate = to_x_basis if Basis(basis) is Basis.LX else (lambda rho: rho)
    return [rotate(evolve_state(p, float(t))) for t in np.asarray(times, dtype=float)]


def _snapshot(p: EvolutionParams, t: float, basis: Basis) -> np.ndarray:
    """``|rho|`` at ``t`` in ``basis``, with the kernel values read as
    :func:`evolve_state` reads them (a memo hit at a solved ``tau``): the
    grid of ``np.abs`` of :func:`_dephase`'s matrix, or in Lx of
    :func:`~spincat.dicke.to_x_basis`'s, bit for bit, with no d x d matrix
    of rho made.  An Lz grid is written a block of rows of
    :meth:`_State.upper` at a time, and mirrored.  An Lx grid is the real
    result of :func:`~spincat.dicke._x_rotate`, which reads rho as rows made
    a block at a time (:meth:`_State.rows`), with ``s`` from the diagonal
    :class:`_State` writes.  One Lx snapshot at tau traces about 20 bytes
    per entry at N = 1000 and 2000: the grid (8), the halves of the
    rotation (4), one part's parity parts (6) and a product."""
    state = _State(p, t, *_kernel_values(p, t))
    d = state.psi.size
    if basis is Basis.LZ:
        grid = np.empty((d, d))
        for lo in range(0, d, _DEPHASE_ROWS):
            hi = min(lo + _DEPHASE_ROWS, d)
            np.abs(state.upper(lo, hi, np.empty((hi - lo, d - lo), dtype=complex)),
                   out=grid[lo:hi, lo:])
            grid[hi:, lo:hi] = grid[lo:hi, hi:].T
        return grid
    return _x_rotate(p.sector, np.sqrt(state.diag.real), state.rows, float)
