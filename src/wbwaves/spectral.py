"""Periodic pseudospectral core: grids, transforms, the samples rule and the
Fourier multiplier symbols.

Normalization convention (the single place it is defined).  Samples live on
the uniform lattice x_j = j*L/n per axis.  The forward transform is

    c(k) = sqrt(L_1*...*L_d) / (n_1*...*n_d) * sum_j f(x_j) exp(-i xi_k.x_j)

with wavenumbers xi_k = 2*pi*k/L, k = -n/2 .. n/2-1, stored in FFT order.
Under this scaling Parseval holds without loose 2*pi factors,

    cell * sum_j |f(x_j)|^2 = sum_k |c(k)|^2,      cell = prod(L/n),

so L2 and Sobolev norms are plain weighted sums over coefficients, and the
coefficient of an integer mode is resolution independent (c(k) = sqrt(L)
times the Fourier-series coefficient).  ``Grid.forward_half`` and
``Grid.inverse_half``, the rfftn pair, apply this scaling; the solver's
forcing folds it into its precomputed weights.  A real field's spectrum is
Hermitian, so every spectral array lives on the half lattice of rfftn,
``Grid.half_shape``: ``Grid``'s wavenumbers, masks and multiplicity, every
``SymbolCatalog`` entry and every packed state (``WaveState.packed``).

Conventions forced by the finite periodic lattice:

* every per-axis (odd) multiplier annihilates its axis's unpaired Nyquist
  mode (it cannot carry the odd-symbol image of a real field),
* negative-order Riesz potentials annihilate the mean,
* pointwise products inside operator compositions are 2/3-rule dealiased,
  keeping the integer modes |k| <= ``Grid.dealias_band`` per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REALNESS_TOL = 1e-12

TWO_PI = 2.0 * math.pi


class SpectralError(ValueError):
    """Invalid spectral operation: bad grid, singular symbol, non-real data."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling lattice in one or two dimensions."""

    n: tuple
    length: tuple | None = None

    def __post_init__(self):
        n = (int(self.n),) if np.isscalar(self.n) else tuple(int(m) for m in self.n)
        dim = len(n)
        if dim not in (1, 2):
            raise SpectralError(f"grid dimension must be 1 or 2, got {dim}")
        length = TWO_PI if self.length is None else self.length
        length = (float(length),) * dim if np.isscalar(length) else tuple(map(float, length))
        if len(length) != dim:
            raise SpectralError("grid length must match dimension")
        for m in n:
            if m < 4 or m % 2 != 0:
                raise SpectralError(f"points per axis must be even and >= 4, got {m}")
        for L in length:
            if not (L > 0 and math.isfinite(L)):
                raise SpectralError(f"period must be positive and finite, got {L}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)

    @property
    def dim(self):
        return len(self.n)

    @property
    def shape(self):
        return self.n

    @cached_property
    def half_shape(self):
        """(*n[:-1], n[-1]//2 + 1), the half lattice of rfftn: every spectral array's shape."""
        return (*self.n[:-1], self.n[-1] // 2 + 1)

    @cached_property
    def spacing(self):
        return tuple(L / m for L, m in zip(self.length, self.n))

    @cached_property
    def cell(self):
        return float(np.prod(self.spacing))

    @cached_property
    def _norm_factor(self):
        # sqrt(prod L) / prod n; see module docstring.
        return math.sqrt(float(np.prod(self.length))) / float(np.prod(self.n))

    def _on_axis(self, axis, a):
        """The read-only vector ``a`` of one axis's values, shaped to
        broadcast along that axis."""
        shape = [1] * self.dim
        shape[axis] = len(a)
        a = a.reshape(shape)
        a.setflags(write=False)
        return a

    def _on_half(self, axis, a):
        """One axis's n values ``a``, cut and broadcast to a read-only half-lattice array."""
        return np.broadcast_to(self._on_axis(axis, a[: self.half_shape[axis]]), self.half_shape)

    @cached_property
    def x(self):
        """Per-axis sample coordinates, broadcastable to the grid shape."""
        return tuple(
            self._on_axis(j, np.arange(m) * h) for j, (m, h) in enumerate(zip(self.n, self.spacing))
        )

    @cached_property
    def xi(self):
        """Per-axis wavenumbers 2*pi*k/L on the half lattice, k from ``np.fft.fftfreq``."""
        return tuple(
            self._on_half(j, TWO_PI * np.fft.fftfreq(m, d=L / m))
            for j, (m, L) in enumerate(zip(self.n, self.length))
        )

    @cached_property
    def xi_norm(self):
        """|xi| on the half lattice."""
        a = np.sqrt(sum(xi * xi for xi in self.xi))
        a.setflags(write=False)
        return a

    @cached_property
    def multiplicity(self):
        """The full-lattice points a half-lattice point stands for: 1 on the last axis's
        columns 0 and n/2, else 2 (its Hermitian mirror too), so weighted half sums are full."""
        return self._on_half(-1, np.r_[1.0, np.full(self.half_shape[-1] - 2, 2.0), 1.0])

    def axis_nyquist(self, axis):
        """Half-lattice boolean mask of the unpaired Nyquist index on one axis."""
        m = self.n[axis]
        return self._on_half(axis, np.arange(m) == m // 2)

    @cached_property
    def nyquist_mask(self):
        """Half-lattice mask of the Nyquist modes/planes of every axis."""
        mask = np.logical_or.reduce([self.axis_nyquist(j) for j in range(self.dim)])
        mask.setflags(write=False)
        return mask

    def dealias_band(self, axis):
        """The 2/3 rule: the largest integer mode |k| it keeps on one axis."""
        return (self.n[axis] - 1) // 3

    @cached_property
    def dealias_mask(self):
        """Half-lattice 2/3-rule mask: keep the modes |k| <= ``dealias_band`` per axis."""
        mask = np.ones(self.half_shape, dtype=bool)
        for j, m in enumerate(self.n):
            k = np.fft.fftfreq(m, d=1.0 / m)  # integer mode numbers
            mask &= self._on_half(j, np.abs(k) <= self.dealias_band(j))
        mask.setflags(write=False)
        return mask

    @cached_property
    def above_band_indices(self):
        """Read-only flat half-lattice indices of the modes ``dealias_mask`` drops."""
        indices = np.flatnonzero(~self.dealias_mask)
        indices.setflags(write=False)
        return indices

    def forward_half(self, values):
        """The half-spectrum coefficients (..., *half) of real samples
        (..., *n), by one rfftn over the last ``dim`` axes."""
        return np.fft.rfftn(values, axes=tuple(range(-self.dim, 0))) * self._norm_factor

    def inverse_half(self, c):
        """The real samples of half-spectrum coefficients ``c`` (..., *half),
        by one inverse rfftn over the last ``dim`` axes."""
        x = np.fft.irfftn(c, s=self.n, axes=tuple(range(-self.dim, 0)))
        x /= self._norm_factor
        return x


def checked_samples(values, shape):
    """A read-only float64 copy of ``values``, which must have ``shape`` and
    be finite: the one rule for the samples of a state or a field."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != tuple(shape):
        raise SpectralError(f"samples of shape {values.shape} do not match {tuple(shape)}")
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise SpectralError(f"non-finite sample at grid index {tuple(bad.tolist())}")
    values = values.copy()
    values.setflags(write=False)
    return values


class Field:
    """Real grid function: the tests' full-spectrum reference, used by no
    package code (a state is one samples array, ``WaveState.samples``);
    ``bench/tracer.py`` wraps ``from_coeffs`` by name."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = grid
        self.values = checked_samples(values, grid.shape)

    @classmethod
    def from_coeffs(cls, grid, coeffs, context="inverse transform"):
        """Build a real field from full fftn-lattice coefficients, enforcing
        the realness bound."""
        w = np.fft.ifftn(coeffs) / grid._norm_factor
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        imag = float(np.max(np.abs(w.imag))) if w.size else 0.0
        if imag > REALNESS_TOL * scale:
            raise SpectralError(
                f"{context}: imaginary residue {imag:.3e} exceeds "
                f"{REALNESS_TOL:.0e} of field scale {scale:.3e}"
            )
        return cls(grid, w.real)


# ---------------------------------------------------------------------------
# Fourier multiplier symbols


def _radial(grid, name, profile, at_zero):
    """The half-lattice array of the symbol ``name``: ``profile(|xi|)`` away
    from xi = 0 and ``at_zero`` there, its value (removable singularities
    included).  ``profile`` never sees 0: it is given 1.0 in its place.  The
    array must be finite: the error names the symbol and its first bad
    wavenumber."""
    zero = grid.xi_norm == 0.0
    with np.errstate(all="ignore"):
        arr = np.where(zero, at_zero, profile(np.where(zero, 1.0, grid.xi_norm)))
    if not np.all(np.isfinite(arr)):
        xi = float(grid.xi_norm[~np.isfinite(arr)][0])
        raise SpectralError(f"symbol {name!r} is not finite at wavenumber {xi}")
    return arr


class SymbolCatalog:
    """The multiplier symbols of the suite, each formula written once.  Every
    entry takes the grid first and returns its multiplier on ``Grid.half_shape``:
    one array for a scalar symbol (a function of |xi|, in 1D and 2D, each one
    ``_radial`` call: its profile and its value at xi = 0), a tuple of one
    array per axis for a vector one (d_j, e_j, G_j), odd and zero on its
    axis's unpaired Nyquist index."""

    @staticmethod
    def riesz(grid, alpha):
        """|xi|^alpha; zero mode gives 0 for alpha != 0 (mean annihilated)."""
        alpha = float(alpha)
        return _radial(grid, f"|xi|^{alpha:g}", lambda a: a**alpha, 1.0 if alpha == 0.0 else 0.0)

    @staticmethod
    def bessel(grid, alpha):
        alpha = float(alpha)
        return _radial(grid, f"<xi>^{alpha:g}", lambda a: (1.0 + a * a) ** (alpha / 2.0), 1.0)

    @staticmethod
    def capillary(grid, kappa):
        """1 + kappa |xi|^2, the surface-tension weight of the elevation."""
        kappa = float(kappa)
        return _radial(grid, f"1+{kappa:g}|xi|^2", lambda a: 1.0 + kappa * a * a, 1.0)

    @staticmethod
    def K_kappa(grid, kappa):
        """sqrt((1 + kappa |xi|^2) tanh|xi| / |xi|), 1 at xi = 0."""
        kappa = float(kappa)
        name = f"K_kappa(kappa={kappa:g})"
        return _radial(grid, name, lambda a: np.sqrt((1.0 + kappa * a * a) * (np.tanh(a) / a)), 1.0)

    @staticmethod
    def K_kappa_inv(grid, kappa):
        return 1.0 / SymbolCatalog.K_kappa(grid, kappa)

    @staticmethod
    def d_over_tanh(grid):
        """|xi|/tanh|xi| with value 1 at xi = 0."""
        return _radial(grid, "xi/tanh(xi)", lambda a: a / np.tanh(a), 1.0)

    @staticmethod
    def gradient(grid):
        """d/dx_j, symbol i*xi_j, per axis."""
        return tuple(1j * np.where(grid.axis_nyquist(j), 0.0, xi) for j, xi in enumerate(grid.xi))

    @staticmethod
    def unit_vectors(grid):
        """e_j = xi_j/|xi| per axis (sgn xi in 1D), zero on the zero mode and
        the Nyquist modes/planes (in 2D they couple both axes)."""
        a = grid.xi_norm
        safe = np.where(a == 0.0, 1.0, a)
        drop = grid.nyquist_mask | (a == 0.0)
        return tuple(np.where(drop, 0.0, xi / safe) for xi in grid.xi)

    @staticmethod
    def forcing(grid):
        """G_j = -K^2 d_j = -i tanh|xi| e_j per axis (-i tanh(xi) in 1D)."""
        t = np.tanh(grid.xi_norm)
        return tuple(-1j * (t * e) for e in SymbolCatalog.unit_vectors(grid))

    @staticmethod
    def frequency(grid, kappa):
        """|xi| K_kappa, the frequency of the linear flow, zero on the Nyquist
        modes/planes."""
        return np.where(grid.nyquist_mask, 0.0, grid.xi_norm * SymbolCatalog.K_kappa(grid, kappa))
