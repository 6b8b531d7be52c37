"""Wave states (eta, v), physical parameters, and the weighted pair norm."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import Field, Grid, SpectralError, SymbolCatalog

CURL_TOL = 1e-10


@dataclass(frozen=True)
class Params:
    """Physical and regularity parameters.

    kappa -- surface tension coefficient (>= 0)
    mu    -- artificial viscosity in [0, 1); 0 means the unregularized system,
             mu > 0 the regularized one, which needs kappa > 0
    p     -- smoothing power of the viscous term, in (1/2, 1]
    s     -- regularity index (>= 1/2) used by norms and energies
    """

    kappa: float = 1.0
    mu: float = 0.0
    p: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not (self.kappa >= 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not (0 <= self.mu < 1):
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if self.mu > 0 and not self.kappa > 0:
            raise ValueError(
                "mu > 0 needs kappa > 0 (the viscous term carries a kappa factor)"
            )
        if not (0.5 < self.p <= 1):
            raise ValueError(f"p must lie in (1/2, 1], got {self.p}")
        if not (self.s >= 0.5):
            raise ValueError(f"s must be >= 1/2, got {self.s}")


class WaveState:
    """Surface elevation plus velocity (one component in 1D, two in 2D).

    All fields share one grid.  Two-dimensional velocities must be curl
    free: the relative homogeneous-L2 curl residue is checked on
    construction against ``CURL_TOL``.
    """

    __slots__ = ("eta", "vel", "time")

    def __init__(self, eta: Field, vel, time=0.0):
        if isinstance(vel, Field):
            vel = (vel,)
        vel = tuple(vel)
        grid = eta.grid
        for comp in vel:
            if comp.grid != grid:
                raise SpectralError("state fields live on different grids")
        if len(vel) != grid.dim:
            raise SpectralError(
                f"velocity needs {grid.dim} component(s), got {len(vel)}"
            )
        if grid.dim == 2:
            res = curl_residue(vel)
            scale = 1.0 + math.sqrt(
                sum(float(np.sum(np.abs(c.coeffs) ** 2)) for c in vel)
            )
            if res > CURL_TOL * scale:
                raise SpectralError(
                    f"velocity is not curl free: residue {res:.3e} "
                    f"exceeds {CURL_TOL:.0e} * {scale:.3e}"
                )
        self.eta = eta
        self.vel = vel
        self.time = float(time)

    @property
    def grid(self) -> Grid:
        return self.eta.grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def v(self) -> Field:
        """The single velocity component of a 1D state."""
        if self.dim != 1:
            raise SpectralError("v is only defined for 1D states; use vel")
        return self.vel[0]

    @classmethod
    def zero(cls, grid: Grid, time=0.0):
        return cls(grid.zero_field(), tuple(grid.zero_field() for _ in range(grid.dim)), time)

    def speed_linf(self) -> float:
        """Max pointwise speed |v| (Euclidean magnitude in 2D)."""
        if self.dim == 1:
            return self.vel[0].linf()
        mag2 = self.vel[0].values ** 2 + self.vel[1].values ** 2
        return float(math.sqrt(np.max(mag2)))


def curl_residue(vel) -> float:
    """Homogeneous-L2 norm of d1 v2 - d2 v1 computed spectrally."""
    v1, v2 = vel
    d1, d2 = (SymbolCatalog.partial(j).multiplier(v1.grid, axis=j) for j in range(2))
    curl = d1 * v2.coeffs - d2 * v1.coeffs
    return float(math.sqrt(np.sum(np.abs(curl) ** 2)))


@lru_cache(maxsize=16)
def _norm_weights(grid: Grid, s, kappa, half=False):
    """Read-only <xi>^(2s-1)(1 + kappa|xi|^2) and <xi>^(2s-1) xi/tanh xi; with
    ``half``, on the rfftn half spectrum, where each interior column of the
    last axis counts twice, for itself and its Hermitian mirror (Parseval)."""
    bess = SymbolCatalog.bessel(2.0 * s - 1.0).values(grid)
    eta_w = bess * SymbolCatalog.capillary(kappa).values(grid)
    vel_w = bess * SymbolCatalog.d_over_tanh().values(grid)
    if half:
        count = np.full(grid.n[-1] // 2 + 1, 2.0)
        count[0] = count[-1] = 1.0
        eta_w, vel_w = grid.half(eta_w) * count, grid.half(vel_w) * count
    eta_w.flags.writeable = vel_w.flags.writeable = False
    return eta_w, vel_w


def _weighted_sq_coeffs(grid: Grid, eta_c, vel_cs, s, kappa, half=False) -> float:
    """Squared weighted norm from raw coefficient arrays (rfftn half spectra
    with ``half``).

    kappa*|grad eta|^2 + |eta|^2 weighted by <xi>^(2s-1), plus the velocity
    measured through K^-1 (symbol sqrt(|xi|/tanh|xi|)) at the same weight.
    """
    eta_w, vel_w = _norm_weights(grid, s, kappa, half)
    total = np.sum(eta_w * np.abs(eta_c) ** 2)
    for vc in vel_cs:
        total += np.sum(vel_w * np.abs(vc) ** 2)
    return float(total)


def weighted_pair_norm(state: WaveState, s, kappa) -> float:
    """Norm ||eta, v|| with kappa-weighted extra half derivative on eta.

    The square is kappa*||grad eta||^2_{H^{s-1/2}} + ||eta||^2_{H^{s-1/2}}
    + ||K^-1 v||^2_{H^{s-1/2}}, velocity components summed in 2D.
    """
    s = float(s)
    if s < 0.5:
        raise ValueError(f"weighted pair norm needs s >= 1/2, got {s}")
    sq = _weighted_sq_coeffs(
        state.grid, state.eta.coeffs, [c.coeffs for c in state.vel], s, float(kappa)
    )
    return math.sqrt(sq)
