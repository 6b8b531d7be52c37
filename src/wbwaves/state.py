"""Wave states (eta, v) and their half-spectrum layout, physical parameters,
and the weighted pair norm."""

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

    Layout: ``packed()`` is the state as one (1 + d, *half) complex array,
    half = (*n[:-1], n[-1]//2 + 1), of the rfftn coefficients of
    (eta, v_1, .., v_d).  The solver integrates that array, every state
    functional is a sum or a transform over it, and ``from_packed`` turns
    it back into a state that keeps it (passed as ``_packed``).
    ``Field.coeffs`` keeps the full fftn spectrum for the scalar tools.
    """

    __slots__ = ("eta", "vel", "time", "_packed")

    def __init__(self, eta: Field, vel, time=0.0, _packed=None):
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
        self.eta = eta
        self.vel = vel
        self.time = float(time)
        self._packed = _packed
        if grid.dim == 2:
            vel_c = self.packed()[1:]
            res = _curl_residue(grid, vel_c)
            scale = 1.0 + math.sqrt(np.sum(_parseval(grid, 1.0) * np.abs(vel_c) ** 2))
            if res > CURL_TOL * scale:
                raise SpectralError(
                    f"velocity is not curl free: residue {res:.3e} "
                    f"exceeds {CURL_TOL:.0e} * {scale:.3e}"
                )

    @classmethod
    def from_packed(cls, grid: Grid, u, time):
        """The state of half-spectrum coefficients ``u``, which it keeps.

        The full spectrum mirrors the last axis's columns 1 .. n/2 - 1 and
        takes the self-conjugate columns 0 and n/2 as they are, so
        ``Field.from_coeffs``'s realness check sees every coefficient."""
        n = grid.n[-1]
        mirror = u[..., n // 2 - 1 : 0 : -1].conj()
        for axis in range(1, grid.dim):
            mirror = np.roll(np.flip(mirror, axis), 1, axis)
        full = np.concatenate([u, mirror], axis=-1)
        fields = [Field.from_coeffs(grid, c, context="trajectory sample") for c in full]
        u = u.view()
        u.flags.writeable = False
        return cls(fields[0], tuple(fields[1:]), time, _packed=u)

    def packed(self):
        """The read-only (1 + d, *half) rfftn coefficient array (see Layout)."""
        if self._packed is None:
            u = np.stack([self.grid.half(f.coeffs) for f in (self.eta, *self.vel)])
            u.flags.writeable = False
            self._packed = u
        return self._packed

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
    grid = vel[0].grid
    return _curl_residue(grid, [grid.half(c.coeffs) for c in vel])


def _curl_residue(grid: Grid, vel_c) -> float:
    """``curl_residue`` from the half spectra of the two components."""
    d1, d2 = (grid.half(SymbolCatalog.partial(j).multiplier(grid, axis=j)) for j in range(2))
    curl = d1 * vel_c[1] - d2 * vel_c[0]
    return math.sqrt(float(np.sum(_parseval(grid, 1.0) * np.abs(curl) ** 2)))


def _parseval(grid: Grid, weight):
    """A full-lattice weight cut to the half spectrum, each interior column of
    the last axis counted twice, for itself and its Hermitian mirror: the
    half sum of it times |u|^2 is the full-spectrum sum (Parseval)."""
    count = np.full(grid.n[-1] // 2 + 1, 2.0)
    count[0] = count[-1] = 1.0
    return grid.half(weight) * count


@lru_cache(maxsize=16)
def _norm_weights(grid: Grid, s, kappa):
    """Read-only <xi>^(2s-1)(1 + kappa|xi|^2) and <xi>^(2s-1) xi/tanh xi, by
    ``_parseval`` on the half spectrum."""
    bess = SymbolCatalog.bessel(2.0 * s - 1.0).values(grid)
    eta_w = _parseval(grid, bess * SymbolCatalog.capillary(kappa).values(grid))
    vel_w = _parseval(grid, bess * SymbolCatalog.d_over_tanh().values(grid))
    eta_w.flags.writeable = vel_w.flags.writeable = False
    return eta_w, vel_w


@lru_cache(maxsize=16)
def _sobolev_weights(grid: Grid, order):
    """Read-only <xi>^(2 order), by ``_parseval`` on the half spectrum."""
    w = _parseval(grid, SymbolCatalog.bessel(2.0 * order).values(grid))
    w.flags.writeable = False
    return w


def _sobolev_sq(grid: Grid, c, order) -> float:
    """Squared H^order norm of half-spectrum coefficients, over any leading axes."""
    return float(np.sum(_sobolev_weights(grid, float(order)) * np.abs(c) ** 2))


def _part(dim, k):
    """Index of component k (an int or a slice) of a packed (..., 1 + d, *half)
    array: the component axis and the d transform axes count from the end."""
    return (Ellipsis, k) + (slice(None),) * dim


def _weighted_sq_coeffs(grid: Grid, u, s, kappa):
    """Squared weighted norm of a packed (..., 1 + d, *half) coefficient array:
    a float for one state, an array over the leading axes for a stack.

    kappa*|grad eta|^2 + |eta|^2 weighted by <xi>^(2s-1), plus the velocity
    measured through K^-1 (symbol sqrt(|xi|/tanh|xi|)) at the same weight.
    """
    eta_w, vel_w = _norm_weights(grid, s, kappa)
    d = grid.dim
    axes = tuple(range(-d, 0))
    eta = np.sum(eta_w * np.abs(u[_part(d, 0)]) ** 2, axis=axes)
    vel = np.sum(vel_w * np.abs(u[_part(d, slice(1, None))]) ** 2, axis=(-d - 1,) + axes)
    total = eta + vel
    return float(total) if total.ndim == 0 else total


def weighted_pair_norm(state: WaveState, s, kappa) -> float:
    """Norm ||eta, v|| with kappa-weighted extra half derivative on eta.

    The square is kappa*||grad eta||^2_{H^{s-1/2}} + ||eta||^2_{H^{s-1/2}}
    + ||K^-1 v||^2_{H^{s-1/2}}, velocity components summed in 2D.
    """
    s = float(s)
    if s < 0.5:
        raise ValueError(f"weighted pair norm needs s >= 1/2, got {s}")
    return math.sqrt(_weighted_sq_coeffs(state.grid, state.packed(), s, float(kappa)))
