"""Pseudospectral solver and verification suite for fully dispersive
Whitham-Boussinesq water-wave systems with surface tension, on periodic
domains in one and two dimensions."""

from .dynamics import (
    EvolveResult,
    IntegratorConfig,
    PicardError,
    energy_derivative_check,
    evolve,
    picard_solve,
    rhs,
)
from .functionals import (
    EnergyReport,
    difference_energy,
    hamiltonian,
    modified_energy,
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
    lp_norm,
    pair_product,
    sobolev_norm,
)
from .state import Params, WaveState, weighted_pair_norm

__version__ = "0.1.0"

__all__ = [
    "EnergyReport",
    "EvolveResult",
    "Field",
    "Grid",
    "IntegratorConfig",
    "Params",
    "PicardError",
    "SpectralError",
    "Symbol",
    "SymbolCatalog",
    "WaveState",
    "apply_multiplier",
    "commutator",
    "difference_energy",
    "energy_derivative_check",
    "evolve",
    "hamiltonian",
    "lp_norm",
    "modified_energy",
    "pair_product",
    "picard_solve",
    "rhs",
    "smallness_threshold",
    "sobolev_norm",
    "weighted_pair_norm",
]
