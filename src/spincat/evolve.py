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
                    _density_matrix, _parity_parts, _x_blocks, _x_floor, _x_halves,
                    coherent_state, to_x_basis)
from .errors import UsageError
from .kernels import _DEFAULT_HORIZON_FACTOR, BathSolution, _kernels_at, _rates, solve_bath

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
    formation-time search at ``horizon = factor * t_corr``.
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
        if not self.solve_horizon_factor > 1.0:
            raise UsageError(f"solve_horizon_factor must exceed 1, got {self.solve_horizon_factor}")


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
    if t < 0.0:
        raise UsageError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return _dephase(p, t, 0.0, 0.0)
    integral = _kernels_at(p.spectrum, t)  # one integral gives both kernels
    return _dephase(p, t, float(_rates(*integral, 0)[0]), lambda: float(_rates(*integral, 1)[0]))


def _formed(p: EvolutionParams, t: float, f: float, gamma):
    """``rho(t) = (psi psi^+) o K``, ``K[i, j] = k[|i - j|]``: returns ``psi``
    (:func:`_twisted` by ``t f``), ``k[n] = exp(-t Gamma n**2)`` and the
    ``Gamma`` used, ``gamma`` (a value or a function giving it) or, under
    ``force_zero_decoherence``, 0 without reading ``gamma``."""
    gamma = 0.0 if p.force_zero_decoherence else gamma() if callable(gamma) else gamma
    kernel = np.exp(-t * gamma * np.arange(p.sector.dimension, dtype=float) ** 2)
    return _twisted(p, t * f), kernel, gamma


# Rows per block of the propagator, written in place: a block's only temporaries
# are the real kernel's cast buffer (8192 entries) and its diagonal square's conjugate.
_DEPHASE_ROWS = 32


def _dephase(p: EvolutionParams, t: float, f: float, gamma) -> DickeDensityMatrix:
    """The state at ``t`` (:func:`_formed`) given the kernel values there.

    A pure projector times a positive kernel of unit diagonal: a density
    matrix by construction, not checked again.  The upper triangle is built
    in blocks of rows, ``psi_i conj(psi_j) k[j - i]``, every entry below the
    diagonal is the exact conjugate of its mirror and the diagonal is
    ``amps * amps.conj()``: Hermitian bit for bit, with no d x d temporary.
    """
    amps = p.initial.amplitudes
    psi, kernel, _ = _formed(p, t, f, gamma)
    d = psi.size
    # toeplitz[i, j] = kernel[|i - j|], a view
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((kernel[:0:-1], kernel)), d)[::-1]
    conj = psi.conj()
    rho = np.empty((d, d), dtype=complex)
    for lo in range(0, d, _DEPHASE_ROWS):
        hi = min(lo + _DEPHASE_ROWS, d)
        block = rho[lo:hi, lo:]
        np.multiply(psi[lo:hi, None], conj[None, lo:], out=block)
        block *= toeplitz[lo:hi, lo:]
        np.conjugate(rho[lo:hi, hi:].T, out=rho[hi:, lo:hi])
        square = rho[lo:hi, lo:hi]
        np.copyto(square, square.T.conj(), where=np.tri(hi - lo, k=-1, dtype=bool))
    np.fill_diagonal(rho, amps * amps.conj())
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

    Kernel values are computed independently per time point; evaluation
    order does not affect the results.
    """
    rotate = to_x_basis if Basis(basis) is Basis.LX else (lambda rho: rho)
    return [rotate(evolve_state(p, float(t))) for t in np.asarray(times, dtype=float)]


def _snapshot(p: EvolutionParams, t: float, basis: Basis,
              bath: BathSolution | None = None) -> np.ndarray:
    """``|rho|`` at ``t`` in ``basis``, with the kernel values at ``bath.tau``
    read from ``bath``.  An Lx grid is ``|to_x_basis(rho)|`` bit for bit (``s``
    is the diagonal :func:`_dephase` writes), but no complex d x d matrix is
    held while the products run: rho goes once the parity parts of its real
    and imaginary parts are made, and each imaginary block turns the grid's
    block of real parts into ``np.abs`` of the complex entries."""
    if basis is Basis.LX:
        amps = p.initial.amplitudes
        b, even, odd = _x_halves(p.sector, np.sqrt((amps * amps.conj()).real))
    rho = (_dephase(p, t, bath.f_tau, bath.gamma_tau) if bath is not None and t == bath.tau
           else evolve_state(p, t)).elements
    if basis is Basis.LZ:
        return np.abs(rho)
    parts = [_parity_parts(x, len(odd)) for x in (rho.real, rho.imag)]
    del rho  # not held while the products run
    grid = np.empty((len(b), len(b)))
    for r, c, block in _x_blocks(parts.pop(0), even, odd, np.add):
        grid[r::2, c::2] = block
    for r, c, block in _x_blocks(parts.pop(0), even, odd, np.subtract):
        np.abs(grid[r::2, c::2] + 1j * block, out=grid[r::2, c::2])
    grid[1::2, 0::2] = grid[0::2, 1::2].T
    _x_floor(grid, b)
    return grid
