"""Bath coupling spectra.

A bath is described by its zero-temperature coupling spectrum ``G_0(omega)``
(weight of the system-bath coupling at frequency ``omega >= 0``) together
with an inverse temperature ``beta``.  The finite-temperature spectrum is
``G_T(omega) = G_0(omega) * coth_factor``, where the hyperbolic factor is
``coth(beta*omega)`` or ``coth(beta*omega/2)`` depending on the selected
convention.  Three model families are supported:

* ohmic:       ``G_0 = alpha * omega * exp(-omega/omega_c)``
* lorentzian:  ``G_0 = alpha * omega_c**2 / (omega_c**2 + (omega-omega_0)**2)``
* tabulated:   linear interpolation of ``(omega, G_0)`` samples, zero outside
               the tabulated support.

All frequencies are angular frequencies in a single consistent unit (the
cutoff ``omega_c`` is the natural choice); times are in the inverse unit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

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
    "gt_zero_limit",
    "total_coupling",
    "feature_frequencies",
    "oscillatory_split",
    "support_cutoff",
]

# Below this argument the direct 1/tanh(x) evaluation is replaced by its
# Laurent series to avoid amplified rounding in x/tanh-style products.
_COTH_SERIES_CUT = 1e-4


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
        if self.kind is SpectrumKind.TABULATED:
            if not self.table:
                raise DomainError("tabulated spectrum requires a non-empty table")
            tab = tuple((float(w), float(g)) for w, g in self.table)
            object.__setattr__(self, "table", tab)
            w = np.array([p[0] for p in tab])
            g = np.array([p[1] for p in tab])
            if w[0] < 0.0 or not np.all(np.isfinite(w)):
                raise DomainError("table frequencies must be finite and >= 0")
            if len(w) > 1 and not np.all(np.diff(w) > 0.0):
                raise DomainError("table frequencies must be strictly increasing")
            if np.any(g < 0.0) or not np.all(np.isfinite(g)):
                raise DomainError("table values must be finite and >= 0")
        elif self.table is not None:
            raise DomainError("table is only valid for the tabulated family")

    # -- convenience views -------------------------------------------------

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    def table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        w = np.array([p[0] for p in self.table])
        g = np.array([p[1] for p in self.table])
        return w, g


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


def _coth(x):
    """coth(x) for x > 0, series-stabilized near zero; vectorized."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        direct = 1.0 / np.tanh(np.where(x > 0.0, x, 1.0))
        series = 1.0 / np.where(x > 0.0, x, 1.0) + x / 3.0 - x**3 / 45.0
    out = np.where(x < _COTH_SERIES_CUT, series, direct)
    return out if out.ndim else float(out)


def eval_g0(sd: SpectralDensity, omega):
    """Zero-temperature coupling spectrum ``G_0(omega)``; omega >= 0.

    Accepts scalars or arrays (elementwise).
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise DomainError("omega must be >= 0")
    if sd.kind is SpectrumKind.OHMIC:
        out = sd.alpha * w * np.exp(-w / sd.omega_c)
    elif sd.kind is SpectrumKind.LORENTZIAN:
        out = sd.alpha * sd.omega_c**2 / (sd.omega_c**2 + (w - sd.omega_0) ** 2)
    else:
        tw, tg = sd.table_arrays()
        out = np.interp(w, tw, tg, left=0.0, right=0.0)
        # np.interp clamps to the edge values; force zero outside the support
        out = np.where((w < tw[0]) | (w > tw[-1]), 0.0, out)
    return out if np.ndim(omega) else float(out)


def _g0_origin(sd: SpectralDensity) -> tuple[float, float]:
    """(G_0(0+), slope of G_0 at 0+) for the infrared analysis.

    The slope is only meaningful when the value at the origin is 0.
    """
    if sd.kind is SpectrumKind.OHMIC:
        return 0.0, sd.alpha
    if sd.kind is SpectrumKind.LORENTZIAN:
        return sd.alpha * sd.omega_c**2 / (sd.omega_c**2 + sd.omega_0**2), 0.0
    tw, tg = sd.table_arrays()
    if tw[0] > 0.0:
        return 0.0, 0.0  # spectrum vanishes on a neighborhood of 0
    if tg[0] > 0.0:
        return float(tg[0]), 0.0
    if len(tw) > 1:
        return 0.0, float((tg[1] - tg[0]) / (tw[1] - tw[0]))
    return 0.0, 0.0


def gt_zero_limit(sd: SpectralDensity) -> float:
    """Analytic limit of ``G_T(omega)`` as ``omega -> 0+``.

    Returns ``math.inf`` when the thermal factor makes the limit diverge
    (finite temperature with ``G_0(0) > 0``).
    """
    if sd.zero_temperature:
        return _g0_origin(sd)[0]
    g00, slope = _g0_origin(sd)
    if g00 > 0.0:
        return math.inf
    # G_0 ~ slope*omega; coth(b w) ~ 1/(b w), coth(b w / 2) ~ 2/(b w)
    factor = 1.0 if sd.thermal_convention is ThermalConvention.COTH_FULL else 2.0
    return factor * slope / sd.beta


def eval_gt(sd: SpectralDensity, omega):
    """Finite-temperature coupling spectrum ``G_T(omega)``; omega >= 0.

    At zero temperature this equals ``G_0``.  At ``omega == 0`` the analytic
    limit is used instead of the indeterminate product.
    """
    if sd.zero_temperature:
        return eval_g0(sd, omega)
    w = np.asarray(omega, dtype=float)
    g0 = np.asarray(eval_g0(sd, omega), dtype=float)
    half = sd.thermal_convention is ThermalConvention.COTH_HALF
    arg = sd.beta * w * (0.5 if half else 1.0)
    out = np.where(w > 0.0, g0 * _coth(np.where(w > 0.0, arg, 1.0)),
                   gt_zero_limit(sd))
    return out if np.ndim(omega) else float(out)


def total_coupling(sd: SpectralDensity) -> float:
    """Collective coupling strength ``eta = sqrt(integral of G_0)``.

    Closed forms for the analytic families; exact trapezoid integral of the
    interpolant for tabulated input.
    """
    if sd.kind is SpectrumKind.OHMIC:
        total = sd.alpha * sd.omega_c**2
    elif sd.kind is SpectrumKind.LORENTZIAN:
        total = sd.alpha * sd.omega_c * (math.pi / 2.0 + math.atan(sd.omega_0 / sd.omega_c))
    else:
        tw, tg = sd.table_arrays()
        total = float(integrate.trapezoid(tg, tw)) if len(tw) > 1 else 0.0
    if not (math.isfinite(total) and total >= 0.0):
        raise NumericError(f"spectrum integral is not a finite nonnegative number: {total}",
                           estimate=total)
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# structure hints consumed by the kernel quadrature


def feature_frequencies(sd: SpectralDensity) -> list[float]:
    """Positive frequencies where the integrand changes character (peaks,
    kinks, thermal crossover); used as mandatory subdivision points."""
    feats: list[float] = []
    if sd.kind is SpectrumKind.OHMIC:
        feats.append(sd.omega_c)
    elif sd.kind is SpectrumKind.LORENTZIAN:
        for p in (sd.omega_0 - 50.0 * sd.omega_c, sd.omega_0 - sd.omega_c,
                  sd.omega_0, sd.omega_0 + sd.omega_c):
            feats.append(p)
    else:
        tw, _ = sd.table_arrays()
        knots = tw.tolist()
        if len(knots) > 64:  # cap the number of forced subdivisions
            idx = np.linspace(0, len(knots) - 1, 64).round().astype(int)
            knots = [knots[i] for i in sorted(set(idx.tolist()))]
        feats.extend(knots)
    if not sd.zero_temperature:
        feats.append(1.0 / sd.beta)
    return sorted({f for f in feats if f > 0.0 and math.isfinite(f)})


def oscillatory_split(sd: SpectralDensity) -> float:
    """Frequency beyond which the spectrum is a structureless decaying tail,
    suitable for dedicated semi-infinite oscillatory integration."""
    if sd.kind is SpectrumKind.OHMIC:
        return 50.0 * sd.omega_c
    if sd.kind is SpectrumKind.LORENTZIAN:
        return sd.omega_0 + 50.0 * sd.omega_c
    tw, _ = sd.table_arrays()
    return float(tw[-1])


def support_cutoff(sd: SpectralDensity) -> float:
    """Upper end of the spectral support (inf for the analytic families)."""
    if sd.kind is SpectrumKind.TABULATED:
        tw, _ = sd.table_arrays()
        return float(tw[-1])
    return math.inf
