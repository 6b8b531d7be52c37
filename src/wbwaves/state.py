"""Wave states (eta, v) and their half-spectrum layout, physical parameters,
and the weighted pair norm."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import REALNESS_TOL, Field, Grid, SpectralError, SymbolCatalog

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
    (eta, v_1, .., v_d).  The solver integrates that array, or a
    (B, 1 + d, *half) stack of them, and every state functional is a sum or
    a transform over it.  ``from_packed`` turns an array or a whole stack
    back into states that keep it, with the fields' samples from one
    inverse rfftn; ``EnergyReport.measure`` reads a list of such states as
    one stack again.  ``Field.coeffs`` keeps the full fftn spectrum for the
    scalar tools.
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
            _check_curl(grid, self.packed())

    @classmethod
    def from_packed(cls, grid: Grid, u, time):
        """The state of half-spectrum coefficients ``u``, which it keeps; for
        a (B, 1 + d, *half) stack and B times, the list of its B states.

        One inverse rfftn gives every field's samples, checked by
        ``_samples`` for realness, and in 2D the stack's velocities are
        checked curl free in one sum."""
        u = u.view()
        u.flags.writeable = False
        stack = u.ndim == grid.dim + 2
        rows, times = (u, list(time)) if stack else (u[None], [time])
        if len(times) != len(rows):
            raise ValueError(f"{len(rows)} states need as many times, got {len(times)}")
        x = _samples(grid, rows)
        if grid.dim == 2:
            _check_curl(grid, rows)
        fields = [Field._of_samples(grid, c) for c in x.reshape(-1, *grid.n)]
        k = 1 + grid.dim
        states = []
        for b, t in enumerate(times):
            state = cls.__new__(cls)
            state.eta, state.vel = fields[k * b], tuple(fields[k * b + 1 : k * b + k])
            state.time = float(t)
            state._packed = rows[b]
            states.append(state)
        return states if stack else states[0]

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


def _samples(grid: Grid, u):
    """The real samples of every field of a (B, 1 + d, *half) stack, by one
    inverse rfftn, under ``Field.from_coeffs``'s realness rule.

    The full spectrum the half one stands for mirrors the last axis's
    interior columns, so the imaginary part of its inverse comes from the
    self-conjugate columns 0 and n/2 alone: at x = (x', x_d) it is
    (Im g_0(x') + (-1)^x_d Im g_n/2(x')) / n_d, g the inverse transform of a
    column over the other axes (none in 1D).  Its largest value,
    |Im g_0| + |Im g_n/2| at the worst x', must stay within REALNESS_TOL of
    the field's largest sample."""
    d, n = grid.dim, grid.n[-1]
    axes = tuple(range(-d, 0))
    x = np.fft.irfftn(u, s=grid.n, axes=axes)
    x /= grid._norm_factor
    scale = np.abs(x).max(axis=axes)
    ends = u[..., :: n // 2]
    if d == 2:
        ends = np.fft.ifft(ends, axis=-2)
    imag = np.abs(ends.imag).sum(axis=-1)
    if d == 2:
        imag = imag.max(axis=-1)
    # NaN fails the comparison too: such a field is reported as non-finite.
    within = imag <= (REALNESS_TOL * n * grid._norm_factor) * scale
    if not within.all():
        if not np.isfinite(scale).all():
            raise SpectralError("trajectory sample: non-finite sample")
        i = np.argmin(within)  # the first field past the bound
        raise SpectralError(
            f"trajectory sample: imaginary residue {imag.flat[i] / (n * grid._norm_factor):.3e} "
            f"exceeds {REALNESS_TOL:.0e} of field scale {scale.flat[i]:.3e}"
        )
    x.flags.writeable = False
    return x


def _check_curl(grid: Grid, u):
    """Raise unless every 2D velocity of a packed (..., 3, *half) array is
    curl free: residue within CURL_TOL * (1 + its L2 norm)."""
    vel_c = u[_part(2, slice(1, None))]
    res = _curl_residue(grid, vel_c)
    count = _curl_weights(grid)[2]
    scale = 1.0 + np.sqrt((count * np.abs(vel_c) ** 2).sum(axis=(-3, -2, -1)))
    over = res > CURL_TOL * scale
    if np.any(over):
        i = np.argmax(over)
        raise SpectralError(
            f"velocity is not curl free: residue {np.ravel(res)[i]:.3e} "
            f"exceeds {CURL_TOL:.0e} * {np.ravel(scale)[i]:.3e}"
        )


def curl_residue(vel) -> float:
    """Homogeneous-L2 norm of d1 v2 - d2 v1 computed spectrally."""
    grid = vel[0].grid
    return float(_curl_residue(grid, np.stack([grid.half(c.coeffs) for c in vel])))


def _curl_residue(grid: Grid, vel_c):
    """``curl_residue`` from the (..., 2, *half) half spectra of the two
    components, one value per leading index."""
    d1, d2, count = _curl_weights(grid)
    curl = d1 * vel_c[..., 1, :, :] - d2 * vel_c[..., 0, :, :]
    return np.sqrt((count * np.abs(curl) ** 2).sum(axis=(-2, -1)))


@lru_cache(maxsize=16)
def _curl_weights(grid: Grid):
    """Read-only half-spectrum d/dx_1, d/dx_2 and ``_parseval`` count of a 2D grid."""
    arrays = [grid.half(SymbolCatalog.partial(j).multiplier(grid, axis=j)) for j in range(2)]
    arrays.append(_parseval(grid, 1.0))
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


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
    sq = np.abs(u) ** 2
    eta = (eta_w * sq[_part(d, 0)]).sum(axis=axes)
    vel = (vel_w * sq[_part(d, slice(1, None))]).sum(axis=(-d - 1,) + axes)
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
