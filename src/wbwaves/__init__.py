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
    Grid,
    SpectralError,
    SymbolCatalog,
)
from .state import Params, WaveState, weighted_pair_norm

__version__ = "0.1.0"

__all__ = [
    "EnergyReport",
    "EvolveResult",
    "Grid",
    "IntegratorConfig",
    "Params",
    "PicardError",
    "SpectralError",
    "SymbolCatalog",
    "WaveState",
    "difference_energy",
    "energy_derivative_check",
    "evolve",
    "hamiltonian",
    "modified_energy",
    "picard_solve",
    "rhs",
    "smallness_threshold",
    "weighted_pair_norm",
]
