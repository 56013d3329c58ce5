"""Exact dynamics of spin ensembles collectively coupled to a bosonic bath.

The bath induces a squeezing-type collective phase (one-axis twisting)
alongside collective dephasing; this package computes both kernels
exactly, propagates symmetric-sector states, builds and scores
macroscopic-superposition targets, and evaluates when formation beats
decoherence.
"""

from .bath import (
    SpectralDensity,
    SpectrumKind,
    ThermalConvention,
    eval_g0,
    eval_gt,
    lorentzian,
    ohmic,
    tabulated,
    total_coupling,
)
from .dicke import (
    Basis,
    DickeDensityMatrix,
    DickeState,
    SectorLabel,
    coherence_corner,
    coherent_state,
    fidelity,
    purity,
    rotation_to_x,
    to_x_basis,
)
from .errors import (
    ConfigError,
    DomainError,
    KernelDivergenceError,
    NoFormationError,
    NumericError,
    SpinCatError,
    UsageError,
    WidthUndefinedError,
)
from .evolve import (
    EvolutionParams,
    MqsConvention,
    MqsReport,
    assess_mqs,
    evolve_state,
    mqs_target,
    snapshot_series,
)
from .kernels import (
    BathSolution,
    KernelTable,
    MarkovLimits,
    correlation_time,
    f_of_t,
    gamma_of_t,
    markov_limits,
    solve_bath,
    solve_tau_mqs,
    tabulate_kernels,
)

__version__ = "1.0.0"

__all__ = [
    "SpectralDensity", "SpectrumKind", "ThermalConvention",
    "ohmic", "lorentzian", "tabulated", "eval_g0", "eval_gt", "total_coupling",
    "f_of_t", "gamma_of_t", "correlation_time", "markov_limits",
    "tabulate_kernels", "KernelTable", "MarkovLimits",
    "SectorLabel", "Basis", "DickeState", "DickeDensityMatrix",
    "coherent_state", "rotation_to_x", "to_x_basis", "fidelity", "purity",
    "coherence_corner",
    "EvolutionParams", "MqsReport", "MqsConvention", "evolve_state",
    "mqs_target", "solve_tau_mqs", "assess_mqs", "snapshot_series",
    "BathSolution", "solve_bath",
    "SpinCatError", "DomainError", "UsageError", "ConfigError",
    "NumericError", "KernelDivergenceError", "WidthUndefinedError",
    "NoFormationError",
]
