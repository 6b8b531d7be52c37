"""Wave states (eta, v) and their half-spectrum layout, physical parameters,
and the weighted pair norm."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import REALNESS_TOL, Grid, SpectralError, SymbolCatalog, checked_samples

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
        if not (self.s >= 0.5 and math.isfinite(self.s)):
            raise ValueError(f"s must be >= 1/2 and finite, got {self.s}")


class WaveState:
    """Surface elevation plus velocity (one component in 1D, two in 2D).

    Layout: ``samples`` is one read-only (1 + d, *n) float64 array of the
    samples of (eta, v_1, .., v_d), checked finite on construction (and in
    2D curl free: relative homogeneous-L2 curl residue within ``CURL_TOL``);
    ``eta``, ``vel`` and the 1D ``v`` are views of it.  ``packed()`` is the
    state as one (1 + d, *half) complex array, half = (*n[:-1], n[-1]//2 +
    1), of their rfftn coefficients.  The solver integrates that array, or a
    (B, 1 + d, *half) stack of them, and every state functional is a sum or
    a transform over it.  ``from_packed`` turns an array or a stack back
    into states that keep it, each holding its row of one inverse rfftn;
    ``EnergyReport.measure`` reads a list of states as one stack again.
    """

    __slots__ = ("grid", "samples", "time", "_packed")

    def __init__(self, grid: Grid, samples, time=0.0):
        self.grid = grid
        self.samples = checked_samples(samples, (1 + grid.dim, *grid.shape))
        self.time = float(time)
        self._packed = None
        if grid.dim == 2:
            _check_curl(grid, self.packed())

    @classmethod
    def from_packed(cls, grid: Grid, u, time):
        """The state of half-spectrum coefficients ``u`` (1 + d, *half), which
        it keeps; for a (B, 1 + d, *half) stack and B times, the list of its B
        states.  Any other shape is refused.

        One inverse rfftn gives every state's samples, checked by
        ``_samples`` for realness, and in 2D the stack's velocities are
        checked curl free in one sum."""
        want = (1 + grid.dim, *grid.half_shape)
        if u.shape[-len(want):] != want or u.ndim not in (len(want), len(want) + 1):
            raise SpectralError(
                f"packed array of shape {u.shape} does not match {want} or a stack (B, *{want})"
            )
        u = u.view()
        u.flags.writeable = False
        stack = u.ndim == grid.dim + 2
        rows, times = (u, list(time)) if stack else (u[None], [time])
        if len(times) != len(rows):
            raise ValueError(f"{len(rows)} states need as many times, got {len(times)}")
        x = _samples(grid, rows)
        if grid.dim == 2:
            _check_curl(grid, rows)
        states = []
        for row, samples, t in zip(rows, x, times):
            state = cls.__new__(cls)
            state.grid, state.samples, state.time, state._packed = grid, samples, float(t), row
            states.append(state)
        return states if stack else states[0]

    def packed(self):
        """The read-only (1 + d, *half) rfftn coefficient array (see Layout)."""
        if self._packed is None:
            u = self.grid.forward_half(self.samples)
            u.flags.writeable = False
            self._packed = u
        return self._packed

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def eta(self):
        return self.samples[0]

    @property
    def vel(self):
        return self.samples[1:]

    @property
    def v(self):
        """The single velocity component of a 1D state."""
        if self.dim != 1:
            raise SpectralError("v is only defined for 1D states; use vel")
        return self.samples[1]

    @classmethod
    def zero(cls, grid: Grid, time=0.0):
        return cls(grid, np.zeros((1 + grid.dim, *grid.shape)), time)


def _samples(grid: Grid, u):
    """The read-only (B, 1 + d, *n) real samples of a (B, 1 + d, *half)
    stack, by one inverse rfftn, checked real: the imaginary part of the
    inverse of the full spectrum the half one stands for stays within
    REALNESS_TOL of each component's largest sample.

    That full spectrum mirrors the last axis's interior columns, so the
    imaginary part of its inverse comes from the self-conjugate columns 0
    and n/2 alone: at x = (x', x_d) it is (Im g_0(x') + (-1)^x_d Im
    g_n/2(x')) / n_d, g the inverse transform of a column over the other
    axes (none in 1D), at most |Im g_0| + |Im g_n/2| at the worst x'."""
    d, n = grid.dim, grid.n[-1]
    axes = tuple(range(-d, 0))
    x = grid.inverse_half(u)
    scale = np.abs(x).max(axis=axes)
    ends = u[..., :: n // 2]
    for axis in axes[:-1]:
        ends = np.fft.ifft(ends, axis=axis)
    imag = np.abs(ends.imag).sum(axis=-1).max(axis=axes[1:])
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
    scale = 1.0 + np.sqrt((grid.multiplicity * np.abs(vel_c) ** 2).sum(axis=(-3, -2, -1)))
    over = res > CURL_TOL * scale
    if np.any(over):
        i = np.argmax(over)
        raise SpectralError(
            f"velocity is not curl free: residue {np.ravel(res)[i]:.3e} "
            f"exceeds {CURL_TOL:.0e} * {np.ravel(scale)[i]:.3e}"
        )


def curl_residue(grid: Grid, vel) -> float:
    """Homogeneous-L2 norm of d1 v2 - d2 v1 of (2, *n) velocity samples,
    computed spectrally."""
    return float(_curl_residue(grid, grid.forward_half(np.asarray(vel, dtype=np.float64))))


def _curl_residue(grid: Grid, vel_c):
    """``curl_residue`` from the (..., 2, *half) half spectra of the two
    components, one value per leading index."""
    d1, d2 = _curl_weights(grid)
    curl = d1 * vel_c[..., 1, :, :] - d2 * vel_c[..., 0, :, :]
    return np.sqrt((grid.multiplicity * np.abs(curl) ** 2).sum(axis=(-2, -1)))


@lru_cache(maxsize=16)
def _curl_weights(grid: Grid):
    """Read-only d/dx_1, d/dx_2 of a 2D grid."""
    d1, d2 = SymbolCatalog.gradient(grid)
    d1.flags.writeable = d2.flags.writeable = False
    return d1, d2


@lru_cache(maxsize=16)
def _norm_weights(grid: Grid, s, kappa):
    """Read-only <xi>^(2s-1)(1 + kappa|xi|^2) and <xi>^(2s-1) xi/tanh xi,
    times ``Grid.multiplicity`` (Parseval on the half spectrum)."""
    bess = SymbolCatalog.bessel(grid, 2.0 * s - 1.0)
    eta_w = bess * SymbolCatalog.capillary(grid, kappa) * grid.multiplicity
    vel_w = bess * SymbolCatalog.d_over_tanh(grid) * grid.multiplicity
    eta_w.flags.writeable = vel_w.flags.writeable = False
    return eta_w, vel_w


@lru_cache(maxsize=16)
def _sobolev_weights(grid: Grid, order):
    """Read-only <xi>^(2 order) times ``Grid.multiplicity``."""
    w = SymbolCatalog.bessel(grid, 2.0 * order) * grid.multiplicity
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
