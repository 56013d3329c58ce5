"""Bath coupling spectra.

A bath is described by its zero-temperature coupling spectrum ``G_0(omega)``
(weight of the system-bath coupling at frequency ``omega >= 0``) together
with an inverse temperature ``beta``.  The finite-temperature spectrum is
``G_T(omega) = G_0(omega) * coth_factor``, where the hyperbolic factor is
``coth(beta*omega)`` or ``coth(beta*omega/2)`` depending on the selected
convention.  Three model families are supported:

* ohmic:       ``G_0 = alpha * omega * exp(-omega/omega_c)``
* lorentzian:  ``G_0 = alpha / (1 + ((omega-omega_0)/omega_c)**2)``
* tabulated:   linear interpolation of ``(omega, G_0)`` samples, zero outside
               the tabulated support.

Each family is defined in one place, the family branch of
:class:`SpectralDensity`, which fixes when the spectrum is built its
``g0`` (and from it ``gt``, with the thermal convention bound in) and the
constants the kernel quadrature reads (``origin``, ``features``, ``split``,
``support``, ``total``).  ``sd.g0`` and ``sd.gt`` are numpy forms that take
a float or an array of any shape, elementwise and without a domain check;
:func:`eval_g0` and :func:`eval_gt` add the check and return a float for a
scalar argument.  The family formulas do not switch numpy's error state
(entering ``np.errstate`` costs more than evaluating a scalar; only the
thermal factor of a finite-temperature ``sd.gt`` holds its own), so an
overflow to ``inf`` in ``sd.g0`` or ``sd.gt`` warns unless the caller
holds ``np.errstate(over="ignore")`` or wider: :func:`eval_g0`,
:func:`eval_gt` and every entrance of :mod:`spincat.kernels` hold it,
once per call.

All frequencies are angular frequencies in a single consistent unit (the
cutoff ``omega_c`` is the natural choice); times are in the inverse unit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "SpectrumKind",
    "ThermalConvention",
    "SpectralDensity",
    "ohmic",
    "lorentzian",
    "tabulated",
    "eval_g0",
    "eval_gt",
    "total_coupling",
]

# Below this argument the direct 1/tanh(x) evaluation is replaced by its
# Laurent series to avoid amplified rounding in x/tanh-style products.
_COTH_SERIES_CUT = 1e-4


# Family formulas, elementwise on a float or an array.  Overflow gives inf
# (and the spectrum 0); the caller holds np.errstate (module docstring).


def _ohmic_g0(alpha: float, omega_c: float, w):
    return alpha * w * np.exp(-w / omega_c)


def _lorentzian_g0(alpha: float, omega_0: float, omega_c: float, w):
    # scale-free: omega_c**2 would overflow for omega_c above about 1.3e154
    r = (w - omega_0) / omega_c
    return alpha / (1.0 + r * r)


def _tabulated_g0(ws: np.ndarray, gs: np.ndarray, w):
    # linear interpolation, zero outside [ws[0], ws[-1]]
    return np.interp(w, ws, gs, left=0.0, right=0.0)


def _thermal_gt(g0, beta: float, scale: float, zero_limit: float, w, g=None):
    # G_T = G_0 * coth(x), x = beta * w * scale (1 or 1/2 by convention); g = G_0(w) if given
    x = beta * np.asarray(w, dtype=float) * scale
    g = np.asarray(g0(w) if g is None else g)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(g * (1.0 / np.tanh(x)))
        small = x < _COTH_SERIES_CUT
        if small.any():  # the series there, dividing by x: 1/x overflows where x is subnormal
            xs, gs = x[small], g[small]
            out[small] = gs / xs + gs * (xs / 3.0 - xs * xs * xs / 45.0)
    # x == 0 where w == 0, or where beta*w underflows: the analytic limit
    return np.where(x == 0.0, zero_limit, out)[()]


class SpectrumKind(str, enum.Enum):
    """Model family of the zero-temperature coupling spectrum."""

    OHMIC = "ohmic"
    LORENTZIAN = "lorentzian"
    TABULATED = "tabulated"


class ThermalConvention(str, enum.Enum):
    """Argument convention of the hyperbolic thermal factor.

    COTH_FULL uses coth(beta*omega); COTH_HALF uses coth(beta*omega/2),
    the usual fluctuation-dissipation form.  Both are exposed because
    published formulas disagree on which one multiplies G_0.
    """

    COTH_FULL = "coth-full"
    COTH_HALF = "coth-half"


@dataclass(frozen=True)
class SpectralDensity:
    """Immutable description of a bath coupling spectrum.

    Parameters
    ----------
    kind : SpectrumKind
        Model family.
    alpha : float
        Dimensionless coupling strength, >= 0.
    omega_c : float
        Cutoff (ohmic) or half-width (lorentzian) frequency, > 0.  This is
        the global frequency unit of a scenario.
    omega_0 : float
        Center frequency of the lorentzian peak; 0 for ohmic.
    table : tuple of (omega, g0) pairs, optional
        Samples for the tabulated family; omega strictly increasing,
        g0 >= 0 and finite.  Evaluation outside the range returns 0.
    beta : float
        Inverse temperature in 1/frequency units (hbar = k_B = 1).
        ``math.inf`` means zero temperature.
    thermal_convention : ThermalConvention
        Which coth argument multiplies G_0 at finite temperature.

    Attributes fixed at construction (not fields: ``==``, ``hash`` and
    ``repr`` ignore them):

    g0 : picklable ``G_0(w)``, elementwise on a float or an array of
        ``w >= 0``, no domain check.
    gt : picklable ``G_T(w)`` likewise: ``g0`` itself at zero temperature,
        else ``G_0`` times the convention's coth factor, with the analytic
        limit where ``beta*w`` is 0.
    dress : ``G_T(w)`` from the values ``g = G_0(w)``, ``dress(w, g)``:
        ``gt(w)`` is ``dress(w, g0(w))`` bit for bit; None at zero temperature.
    origin : ``(G_0(0+), slope of G_0 at 0+)``; the slope matters only when
        ``G_0(0+) == 0``.
    features : positive frequencies where the integrand changes character
        (peaks, kinks, thermal crossover); mandatory subdivision points.
    split : frequency beyond which the spectrum is a structureless decaying
        tail, suited to semi-infinite oscillatory integration.
    support : upper end of the spectral support (inf for analytic families).
    total : integral of ``G_0`` over ``[0, inf)``.
    """

    kind: SpectrumKind
    alpha: float = 1.0
    omega_c: float = 1.0
    omega_0: float = 0.0
    table: tuple[tuple[float, float], ...] | None = None
    beta: float = math.inf
    thermal_convention: ThermalConvention = ThermalConvention.COTH_FULL

    def __post_init__(self):
        object.__setattr__(self, "kind", SpectrumKind(self.kind))
        object.__setattr__(
            self, "thermal_convention", ThermalConvention(self.thermal_convention)
        )
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.omega_c > 0.0 and math.isfinite(self.omega_c)):
            raise DomainError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if not (self.omega_0 >= 0.0 and math.isfinite(self.omega_0)):
            raise DomainError(f"omega_0 must be finite and >= 0, got {self.omega_0}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be > 0 (inf = zero temperature), got {self.beta}")
        if self.table is not None and self.kind is not SpectrumKind.TABULATED:
            raise DomainError("table is only valid for the tabulated family")

        # The one place that knows the families: fix the array form of G_0
        # and the constants the kernel quadrature reads.
        if self.kind is SpectrumKind.OHMIC:
            g0 = functools.partial(_ohmic_g0, self.alpha, self.omega_c)
            slope = self.alpha
            feats = [self.omega_c]
            split = 50.0 * self.omega_c
            support = math.inf
            total = self.alpha * (self.omega_c * self.omega_c)
        elif self.kind is SpectrumKind.LORENTZIAN:
            g0 = functools.partial(_lorentzian_g0, self.alpha, self.omega_0, self.omega_c)
            slope = 0.0
            feats = [self.omega_0 - 50.0 * self.omega_c, self.omega_0 - self.omega_c,
                     self.omega_0, self.omega_0 + self.omega_c]
            split = self.omega_0 + 50.0 * self.omega_c
            support = math.inf
            total = self.alpha * self.omega_c * (math.pi / 2.0
                                                 + math.atan(self.omega_0 / self.omega_c))
        else:
            if not self.table:
                raise DomainError("tabulated spectrum requires a non-empty table")
            tab = tuple((float(w), float(g)) for w, g in self.table)
            object.__setattr__(self, "table", tab)
            ws, gs = zip(*tab)
            if not (ws[0] >= 0.0 and all(map(math.isfinite, ws))):
                raise DomainError("table frequencies must be finite and >= 0")
            if any(hi <= lo for lo, hi in zip(ws, ws[1:])):
                raise DomainError("table frequencies must be strictly increasing")
            if not all(g >= 0.0 and math.isfinite(g) for g in gs):
                raise DomainError("table values must be finite and >= 0")
            g0 = functools.partial(_tabulated_g0, _frozen(ws), _frozen(gs))
            # first-segment slope; a table starting above 0 vanishes near 0
            slope = (gs[1] - gs[0]) / (ws[1] - ws[0]) if ws[0] == 0.0 and len(ws) > 1 else 0.0
            feats = list(ws)  # every knot is a kink
            split = support = ws[-1]
            total = math.fsum(0.5 * (w1 - w0) * (g0_ + g1)
                              for w0, w1, g0_, g1 in zip(ws, ws[1:], gs, gs[1:]))
        if not self.zero_temperature:
            feats.append(1.0 / self.beta)

        self.__dict__.update(  # frozen: bypass __setattr__ as object.__setattr__ does
            g0=g0, origin=(float(g0(0.0)), slope), split=split, support=support, total=total,
            features=tuple(sorted({f for f in feats if f > 0.0 and math.isfinite(f)})))
        if self.zero_temperature:
            self.__dict__.update(gt=g0, dress=None)
        else:
            half = self.thermal_convention is ThermalConvention.COTH_HALF
            thermal = (self.beta, 0.5 if half else 1.0, gt_zero_limit(self))
            self.__dict__.update(gt=functools.partial(_thermal_gt, g0, *thermal),
                                 dress=functools.partial(_thermal_gt, None, *thermal))

    # -- convenience views --------------------------------------------------

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)


def ohmic(alpha: float, omega_c: float = 1.0, beta: float = math.inf,
          thermal_convention: ThermalConvention = ThermalConvention.COTH_FULL) -> SpectralDensity:
    """Ohmic spectrum ``alpha * omega * exp(-omega/omega_c)``."""
    return SpectralDensity(SpectrumKind.OHMIC, alpha=alpha, omega_c=omega_c,
                           beta=beta, thermal_convention=thermal_convention)


def lorentzian(alpha: float, omega_c: float, omega_0: float, beta: float = math.inf,
               thermal_convention: ThermalConvention = ThermalConvention.COTH_FULL) -> SpectralDensity:
    """Lorentzian spectrum of half-width ``omega_c`` centered at ``omega_0``."""
    return SpectralDensity(SpectrumKind.LORENTZIAN, alpha=alpha, omega_c=omega_c,
                           omega_0=omega_0, beta=beta,
                           thermal_convention=thermal_convention)


def tabulated(points, omega_c: float = 1.0, beta: float = math.inf,
              thermal_convention: ThermalConvention = ThermalConvention.COTH_FULL) -> SpectralDensity:
    """Tabulated spectrum from ``(omega, g0)`` samples."""
    return SpectralDensity(SpectrumKind.TABULATED, alpha=1.0, omega_c=omega_c,
                           table=tuple((float(w), float(g)) for w, g in points),
                           beta=beta, thermal_convention=thermal_convention)


# ---------------------------------------------------------------------------
# evaluation


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _evaluate(fn, omega):
    """Apply an array-form spectrum after the domain check; a float for a scalar."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise DomainError("omega must be >= 0")
    with np.errstate(over="ignore"):
        out = fn(w)
    return float(out) if np.ndim(out) == 0 else out


def eval_g0(sd: SpectralDensity, omega):
    """Zero-temperature coupling spectrum ``G_0(omega)``; omega >= 0.

    Accepts scalars or arrays (elementwise).
    """
    return _evaluate(sd.g0, omega)


def gt_zero_limit(sd: SpectralDensity) -> float:
    """Analytic limit of ``G_T(omega)`` as ``omega -> 0+``.

    Returns ``math.inf`` when the thermal factor makes the limit diverge
    (finite temperature with ``G_0(0) > 0``).
    """
    g00, slope = sd.origin
    if sd.zero_temperature:
        return g00
    if g00 > 0.0:
        return math.inf
    # G_0 ~ slope*omega; coth(b w) ~ 1/(b w), coth(b w / 2) ~ 2/(b w)
    factor = 1.0 if sd.thermal_convention is ThermalConvention.COTH_FULL else 2.0
    return factor * slope / sd.beta


def eval_gt(sd: SpectralDensity, omega):
    """Finite-temperature coupling spectrum ``G_T(omega)``; omega >= 0.

    At zero temperature this equals ``G_0``.  Where ``beta*omega`` is 0
    (``omega == 0``, or an argument that underflows) the analytic limit is
    used instead of the indeterminate product.
    """
    return _evaluate(sd.gt, omega)


def total_coupling(sd: SpectralDensity) -> float:
    """Collective coupling strength ``eta = sqrt(integral of G_0)``.

    Closed forms for the analytic families; exact trapezoid integral of the
    interpolant for tabulated input.
    """
    total = sd.total
    if not (math.isfinite(total) and total >= 0.0):
        raise NumericError(f"spectrum integral is not a finite nonnegative number: {total}",
                           estimate=total)
    return math.sqrt(total)
