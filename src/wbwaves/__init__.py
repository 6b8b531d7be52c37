"""Pseudospectral solver and verification suite for fully dispersive
Whitham-Boussinesq water-wave systems with surface tension, on periodic
domains in one and two dimensions."""

from .dynamics import (
    EvolveResult,
    IntegratorConfig,
    PicardError,
    SemigroupOperator,
    curl_free_project,
    energy_derivative_check,
    evolve,
    linear_rhs,
    picard_solve,
    rhs,
)
from .functionals import (
    EnergyReport,
    NoncavitationBounds,
    check_noncavitation,
    coercivity_ratio,
    difference_energy,
    hamiltonian,
    modified_energy,
    momentum,
    smallness_threshold,
)
from .spectral import (
    Field,
    Grid,
    SpectralError,
    Symbol,
    SymbolCatalog,
    apply_multiplier,
    commutator,
    low_pass,
    lp_norm,
    pair_product,
    sobolev_norm,
    triple_quadrature,
)
from .state import Params, WaveState, mollify, weighted_pair_norm

__version__ = "0.1.0"

__all__ = [
    "EnergyReport",
    "EvolveResult",
    "Field",
    "Grid",
    "IntegratorConfig",
    "NoncavitationBounds",
    "Params",
    "PicardError",
    "SemigroupOperator",
    "SpectralError",
    "Symbol",
    "SymbolCatalog",
    "WaveState",
    "apply_multiplier",
    "check_noncavitation",
    "coercivity_ratio",
    "commutator",
    "curl_free_project",
    "difference_energy",
    "energy_derivative_check",
    "evolve",
    "hamiltonian",
    "linear_rhs",
    "low_pass",
    "lp_norm",
    "modified_energy",
    "mollify",
    "momentum",
    "pair_product",
    "picard_solve",
    "rhs",
    "smallness_threshold",
    "sobolev_norm",
    "triple_quadrature",
    "weighted_pair_norm",
]
