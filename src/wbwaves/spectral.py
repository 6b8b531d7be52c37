"""Periodic pseudospectral core: grids, fields, Fourier multipliers, norms.

Normalization convention (the single place it is defined).  Samples live on
the uniform lattice x_j = j*L/n per axis.  The forward transform is

    c(k) = sqrt(L_1*...*L_d) / (n_1*...*n_d) * sum_j f(x_j) exp(-i xi_k.x_j)

with wavenumbers xi_k = 2*pi*k/L, k = -n/2 .. n/2-1, stored in FFT order.
Under this scaling Parseval holds without loose 2*pi factors,

    cell * sum_j |f(x_j)|^2 = sum_k |c(k)|^2,      cell = prod(L/n),

so L2 and Sobolev norms are plain weighted sums over coefficients, and the
coefficient of an integer mode is resolution independent (c(k) = sqrt(L)
times the Fourier-series coefficient).

Conventions forced by the finite periodic lattice:

* every odd symbol annihilates the unpaired Nyquist mode (it cannot carry
  the odd-symbol image of a real field),
* negative-order Riesz potentials annihilate the mean,
* pointwise products inside operator compositions are 2/3-rule dealiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

REALNESS_TOL = 1e-12

TWO_PI = 2.0 * math.pi


class SpectralError(ValueError):
    """Invalid spectral operation: bad grid, singular symbol, non-real data."""


def _as_axis_tuple(value, dim, cast):
    if np.isscalar(value):
        return (cast(value),) * dim
    return tuple(cast(v) for v in value)


class Grid:
    """Uniform periodic sampling lattice in one or two dimensions."""

    def __init__(self, n, length=None):
        if np.isscalar(n):
            n = (int(n),)
        else:
            n = tuple(int(m) for m in n)
        dim = len(n)
        if dim not in (1, 2):
            raise SpectralError(f"grid dimension must be 1 or 2, got {dim}")
        if length is None:
            length = (TWO_PI,) * dim
        else:
            length = _as_axis_tuple(length, dim, float)
        if len(length) != dim:
            raise SpectralError("grid length must match dimension")
        for m in n:
            if m < 4 or m % 2 != 0:
                raise SpectralError(f"points per axis must be even and >= 4, got {m}")
        for L in length:
            if not (L > 0 and math.isfinite(L)):
                raise SpectralError(f"period must be positive and finite, got {L}")
        self.n = n
        self.length = length
        self.dim = dim
        self.shape = n

    def __eq__(self, other):
        return isinstance(other, Grid) and self.n == other.n and self.length == other.length

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"

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

    @cached_property
    def x(self):
        """Per-axis sample coordinates, broadcastable to the grid shape."""
        axes = []
        for j, (m, h) in enumerate(zip(self.n, self.spacing)):
            a = np.arange(m) * h
            shape = [1] * self.dim
            shape[j] = m
            a = a.reshape(shape)
            a.setflags(write=False)
            axes.append(a)
        return tuple(axes)

    @cached_property
    def xi(self):
        """Per-axis wavenumbers 2*pi*k/L in FFT order, broadcastable."""
        axes = []
        for j, (m, L) in enumerate(zip(self.n, self.length)):
            a = TWO_PI * np.fft.fftfreq(m, d=L / m)
            shape = [1] * self.dim
            shape[j] = m
            a = a.reshape(shape)
            a.setflags(write=False)
            axes.append(a)
        return tuple(axes)

    @cached_property
    def xi_norm(self):
        """|xi| on the full lattice."""
        if self.dim == 1:
            a = np.abs(self.xi[0])
        else:
            a = np.sqrt(self.xi[0] ** 2 + self.xi[1] ** 2)
        a.setflags(write=False)
        return a

    def axis_nyquist(self, axis):
        """Broadcastable boolean mask of the unpaired Nyquist index on one axis."""
        m = self.n[axis]
        mask = np.zeros(m, dtype=bool)
        mask[m // 2] = True
        shape = [1] * self.dim
        shape[axis] = m
        return mask.reshape(shape)

    @cached_property
    def nyquist_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for j in range(self.dim):
            mask |= self.axis_nyquist(j)
        mask.setflags(write=False)
        return mask

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask: keep integer modes |k| <= (n-1)//3 per axis."""
        mask = np.ones(self.shape, dtype=bool)
        for j, m in enumerate(self.n):
            k = np.fft.fftfreq(m, d=1.0 / m)  # integer mode numbers
            keep = np.abs(k) <= (m - 1) // 3
            shape = [1] * self.dim
            shape[j] = m
            mask &= keep.reshape(shape)
        mask.setflags(write=False)
        return mask

    def half(self, a):
        """The rfftn half-spectrum slice (last axis cut to n//2 + 1) of a
        full-lattice array, or of one broadcastable to the grid shape."""
        a = np.broadcast_to(a, self.shape)[..., : self.n[-1] // 2 + 1]
        return np.ascontiguousarray(a)

    def coeff_index(self, k):
        """Array index of integer mode k (int in 1D, pair in 2D)."""
        if self.dim == 1:
            return int(k) % self.n[0]
        return tuple(int(kj) % m for kj, m in zip(k, self.n))

    def transform(self, values):
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise SpectralError(f"non-finite sample at grid index {tuple(bad)}")
        return np.fft.fftn(values) * self._norm_factor

    def inverse(self, coeffs):
        return np.fft.ifftn(np.asarray(coeffs)) / self._norm_factor

    def quadrature(self, values):
        """Trapezoidal (here: exact rectangle) rule over the periodic cell."""
        return self.cell * float(np.sum(values))

    def zero_field(self):
        return Field(self, np.zeros(self.shape))


class Field:
    """Real grid function with lazily cached spectral coefficients.

    Values are immutable after construction; the coefficient cache is
    computed at most once (a benign race under concurrent readers).
    """

    __slots__ = ("grid", "values", "_coeffs")

    def __init__(self, grid, values, _coeffs=None):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise SpectralError(f"field shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise SpectralError(f"non-finite sample at grid index {tuple(bad)}")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._coeffs = _coeffs

    @classmethod
    def from_coeffs(cls, grid, coeffs, context="inverse transform"):
        """Build a real field from coefficients, enforcing the realness bound.

        The coefficient cache is left to be rebuilt from the real samples:
        long complex-arithmetic pipelines leave an anti-Hermitian roundoff
        residue that growing symbols (e.g. a derivative) would amplify, while
        the transform of exactly real samples is Hermitian to fresh roundoff.
        """
        w = grid.inverse(coeffs)
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        imag = float(np.max(np.abs(w.imag))) if w.size else 0.0
        if imag > REALNESS_TOL * scale:
            raise SpectralError(
                f"{context}: imaginary residue {imag:.3e} exceeds "
                f"{REALNESS_TOL:.0e} of field scale {scale:.3e}"
            )
        return cls(grid, w.real)

    @classmethod
    def _of_samples(cls, grid, values):
        """A field kept on ``values`` as they are, no copy: read-only finite
        float64 samples of the grid's shape, which the caller checked."""
        f = cls.__new__(cls)
        f.grid, f.values, f._coeffs = grid, values, None
        return f

    @property
    def coeffs(self):
        if self._coeffs is None:
            c = self.grid.transform(self.values)
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def linf(self):
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def _check_same_grid(self, other):
        if not isinstance(other, Field) or other.grid != self.grid:
            raise SpectralError("fields live on different grids")


# ---------------------------------------------------------------------------
# Fourier multiplier symbols


@dataclass(frozen=True)
class Symbol:
    """Fourier multiplier with declared parity and value type.

    The actual multiplier is ``profile(arg)`` for even symbols (arg = |xi|)
    and ``profile(xi_axis)`` for odd ones, times 1j when ``imaginary`` is
    set.  Even real and odd imaginary symbols map real fields to real
    fields; nothing else does.  Removable singularities are patched inside
    ``profile``.
    """

    name: str
    parity: str  # "even" | "odd"
    imaginary: bool
    profile: Callable[[np.ndarray], np.ndarray]

    def values(self, grid, axis=0):
        """Real content of the multiplier on the grid's wavenumber lattice."""
        if self.parity == "even":
            arr = np.asarray(self.profile(grid.xi_norm), dtype=np.float64)
        elif self.parity == "odd":
            arr = np.asarray(self.profile(grid.xi[axis]), dtype=np.float64)
            arr = np.where(grid.axis_nyquist(axis), 0.0, arr)
        else:
            raise SpectralError(f"unknown parity {self.parity!r}")
        if not np.all(np.isfinite(arr)):
            xi_ref = grid.xi_norm if self.parity == "even" else np.broadcast_to(
                grid.xi[axis], grid.shape
            )
            arr_full = np.broadcast_to(arr, grid.shape)
            bad = np.argwhere(~np.isfinite(arr_full))[0]
            xi_bad = np.asarray(xi_ref)[tuple(bad)]
            raise SpectralError(
                f"symbol {self.name!r} is not finite at wavenumber {xi_bad!r}"
            )
        return arr

    def multiplier(self, grid, axis=0):
        v = self.values(grid, axis=axis)
        return 1j * v if self.imaginary else v

    @property
    def maps_real_to_real(self):
        return (self.parity == "even") != self.imaginary


def apply_multiplier(sym: Symbol, f: Field, axis=0) -> Field:
    """Apply a real-to-real Fourier multiplier to a real field."""
    if not sym.maps_real_to_real:
        raise SpectralError(
            f"symbol {sym.name!r} ({sym.parity}, "
            f"{'imaginary' if sym.imaginary else 'real'}-valued) does not map "
            "real fields to real fields"
        )
    out = sym.multiplier(f.grid, axis=axis) * f.coeffs
    return Field.from_coeffs(f.grid, out, context=f"apply {sym.name}")


def _tanh_over_x(a):
    # tanh(a)/a with the removable singularity patched to 1 at a = 0.
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, 1.0, np.tanh(safe) / safe)


def _x_over_tanh(a):
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, 1.0, safe / np.tanh(safe))


class SymbolCatalog:
    """The multiplier symbols used throughout the suite.

    Even entries are radial (functions of |xi|) and hence valid in one and
    two dimensions; odd entries act along a single axis.  Every multiplier
    array of the package is built here, so each formula is written once.
    """

    @staticmethod
    def riesz(alpha):
        """|xi|^alpha; zero mode gives 0 for alpha != 0 (mean annihilated)."""
        alpha = float(alpha)

        def prof(a):
            if alpha == 0.0:
                return np.ones_like(a)
            safe = np.where(a == 0.0, 1.0, a)
            return np.where(a == 0.0, 0.0, safe**alpha)

        return Symbol(f"|xi|^{alpha:g}", "even", False, prof)

    @staticmethod
    def bessel(alpha):
        alpha = float(alpha)
        return Symbol(f"<xi>^{alpha:g}", "even", False, lambda a: (1.0 + a * a) ** (alpha / 2.0))

    @staticmethod
    def capillary(kappa):
        """1 + kappa |xi|^2, the surface-tension weight of the elevation."""
        kappa = float(kappa)
        return Symbol(f"1+{kappa:g}|xi|^2", "even", False, lambda a: 1.0 + kappa * a * a)

    @staticmethod
    def K_kappa(kappa):
        kappa = float(kappa)
        cap = SymbolCatalog.capillary(kappa).profile
        return Symbol(
            f"K_kappa(kappa={kappa:g})",
            "even",
            False,
            lambda a: np.sqrt(cap(a) * _tanh_over_x(a)),
        )

    @staticmethod
    def K_kappa_inv(kappa):
        kappa = float(kappa)
        cap = SymbolCatalog.capillary(kappa).profile
        return Symbol(
            f"K_kappa^-1(kappa={kappa:g})",
            "even",
            False,
            lambda a: 1.0 / np.sqrt(cap(a) * _tanh_over_x(a)),
        )

    @staticmethod
    def d_over_tanh():
        """xi/tanh(xi) with value 1 at xi = 0 (even, so evaluated radially)."""
        return Symbol("xi/tanh(xi)", "even", False, _x_over_tanh)

    @staticmethod
    def partial(axis=0):
        """d/dx_axis, symbol i*xi_axis."""
        return Symbol(f"i*xi_{axis}", "odd", True, lambda x: x)

    # Per-axis arrays of the dynamics that are not Symbols: in 2D they couple
    # both axes.  They vanish on the zero mode and the Nyquist modes/planes,
    # the odd-symbol convention.

    @staticmethod
    def unit_vectors(grid):
        """e_j = xi_j/|xi| per axis (sgn xi in 1D), zero on the zero mode and
        the Nyquist modes/planes."""
        a = grid.xi_norm
        safe = np.where(a == 0.0, 1.0, a)
        drop = grid.nyquist_mask | (a == 0.0)
        return tuple(np.where(drop, 0.0, xi / safe) for xi in grid.xi)

    @staticmethod
    def forcing(grid):
        """G_j = -K^2 d_j = -i tanh|xi| e_j per axis (-i tanh(xi) in 1D)."""
        t = Symbol("tanh|xi|", "even", False, np.tanh).values(grid)
        return tuple(-1j * (t * e) for e in SymbolCatalog.unit_vectors(grid))

    @staticmethod
    def frequency(grid, kappa):
        """|xi| K_kappa, the frequency of the linear flow, zero on the Nyquist
        modes/planes."""
        kk = SymbolCatalog.K_kappa(kappa).values(grid)
        return np.where(grid.nyquist_mask, 0.0, grid.xi_norm * kk)


# ---------------------------------------------------------------------------
# Norms, products, commutators


def lp_norm(f: Field, p) -> float:
    if p == np.inf or p == "inf":
        return f.linf()
    p = float(p)
    if p < 1:
        raise SpectralError(f"Lp norm needs p >= 1, got {p}")
    return float(f.grid.quadrature(np.abs(f.values) ** p) ** (1.0 / p))


def sobolev_norm(f: Field, order) -> float:
    """H^order (Bessel potential) Sobolev norm from coefficients."""
    c2 = np.abs(f.coeffs) ** 2
    w = SymbolCatalog.bessel(2.0 * float(order)).values(f.grid)
    return float(math.sqrt(np.sum(w * c2)))


def pair_product(f: Field, g: Field) -> Field:
    """Pointwise product under the 2/3 rule: both factors and the result are
    truncated so the retained band is alias free."""
    f._check_same_grid(g)
    grid = f.grid
    mask = grid.dealias_mask
    fv = grid.inverse(np.where(mask, f.coeffs, 0.0)).real
    gv = grid.inverse(np.where(mask, g.coeffs, 0.0)).real
    ch = grid.transform(fv * gv)
    return Field.from_coeffs(grid, np.where(mask, ch, 0.0))


def commutator(sym: Symbol, f: Field, g: Field) -> Field:
    """[sym(D), f] g = sym(D)(f g) - f sym(D) g with dealiased products."""
    fg = pair_product(f, g)
    first = apply_multiplier(sym, fg)
    second = pair_product(f, apply_multiplier(sym, g))
    return first - second
