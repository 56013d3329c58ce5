"""Exact reduced dynamics and superposition-formation analysis.

The collective coupling dephases the ensemble in the ``L_z`` eigenbasis
without moving populations; the exact propagator acts elementwise::

    rho_{mm'}(t) = rho_{mm'}(0) * exp(-i t f(t) (m**2 - m'**2))
                               * exp(-t Gamma(t) (m - m')**2)

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
from .dicke import (
    Basis,
    DickeDensityMatrix,
    DickeState,
    SectorLabel,
    _density_matrix,
    coherent_state,
    fidelity,
    purity,
    to_x_basis,
)
from .errors import UsageError
from .kernels import (_DEFAULT_HORIZON_FACTOR, BathSolution, _check_gamma, _kernels_at, _rates,
                      solve_bath)
from .kernels import solve_tau_mqs  # noqa: F401  (callers import it from here too)

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
    f = float(_rates(*integral, 0)[0])
    if not p.force_zero_decoherence:
        _check_gamma(p.spectrum)
    return _dephase(p, t, f, 0.0 if p.force_zero_decoherence else float(_rates(*integral, 1)[0]))


def _dephase(p: EvolutionParams, t: float, f: float, gamma: float) -> DickeDensityMatrix:
    """The exact propagator at ``t`` given the kernel values there.

    A Schur product of the initial projector with a unitary phase matrix and
    the positive kernel ``exp(-t Gamma (m - m')**2)`` (unit diagonal): the
    result is a density matrix by construction and is not checked again.
    """
    rho = np.outer(p.initial.amplitudes, p.initial.amplitudes.conj())
    m = p.sector.m_values()
    m2 = m * m
    # in place, so that no second d x d product is held at the same time
    rho *= np.exp(-1j * t * f * (m2[:, None] - m2[None, :]))
    rho *= np.exp(-t * gamma * (m[:, None] - m[None, :]) ** 2)
    return _density_matrix(p.sector, rho, Basis.LZ)


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

    The fidelity is taken against the convention's target built from the
    initial state's preparation angles; the corner coherence is the Lx-basis
    element ``|rho_{+l,-l}|``.  Rows 0 and -1 of the Lz-to-Lx rotation are
    the spin coherent states along +x and -x (up to sign), so the corner is
    read as ``|<+x| rho |-x>|`` with O(d) extra memory and no rotation.
    ``gamma_bar`` in the survival condition is ``Gamma(tau)`` (already a
    time-averaged rate).
    """
    if p.initial.bloch is None:
        raise UsageError(
            "assess_mqs needs a coherent initial state (preparation angles "
            "are required to construct the target)")
    theta, phi = p.initial.bloch
    bath = solve_bath(p.spectrum, p.solve_horizon_factor)
    gamma_bar = 0.0 if p.force_zero_decoherence else bath.gamma_tau
    rho = _dephase(p, bath.tau, bath.f_tau, gamma_bar)
    target = mqs_target(p.sector, theta, phi, p.mqs_convention)
    fid = fidelity(rho, target)
    pur = purity(rho)
    plus_x = coherent_state(p.sector, _HALF_PI, 0.0).amplitudes
    minus_x = coherent_state(p.sector, _HALF_PI, math.pi).amplitudes
    corner = float(abs(plus_x.conj() @ rho.elements @ minus_x))
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
    basis = Basis(basis)
    return [_snapshot(p, float(t), basis) for t in np.asarray(times, dtype=float)]


def _snapshot(p: EvolutionParams, t: float, basis: Basis,
              bath: BathSolution | None = None) -> DickeDensityMatrix:
    """The state at ``t`` in ``basis``; at ``t == bath.tau`` the kernel
    values are read from ``bath`` instead of being integrated again."""
    if bath is not None and t == bath.tau:
        rho = _dephase(p, t, bath.f_tau,
                       0.0 if p.force_zero_decoherence else bath.gamma_tau)
    else:
        rho = evolve_state(p, t)
    return to_x_basis(rho) if basis is Basis.LX else rho
