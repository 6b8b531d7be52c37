"""The full-spectrum transforms and field operators the package once had,
kept as independent references for the tests.

``transform``, ``coeffs``, ``inverse`` and ``index`` are the full fftn
lattice under the package's scaling (see the ``spectral`` module
docstring).  The operators act on ``Field`` objects (``spectral.Field``, a
grid plus read-only samples, kept for these references) through those full
spectra and return a new ``Field`` (or a float) by one inverse fftn per
result, the way the package computed them before every operator moved to
the half spectrum.  The package's half-spectrum code is checked against
them, never the other way round.  ``fields`` and ``state_of`` convert
between a ``WaveState``'s one samples array and its components as Fields.

``full(grid)`` is the grid's full lattice: the wavenumbers and masks the
package's ``Grid`` built before its arrays moved to the half lattice.
Passed to a ``SymbolCatalog`` entry in place of the grid, it gives the
entry's full-lattice multiplier; ``half`` cuts such an array to the half
lattice the package uses.

``one_transform_cubic`` is the energies' cubic term as the package computed
it before a report read the states' own samples: one inverse transform of
every masked factor.
"""

import math
from functools import lru_cache

import numpy as np

from wbwaves.functionals import _cubic_weights
from wbwaves.spectral import TWO_PI, Field, SymbolCatalog
from wbwaves.state import WaveState, _part


class FullLattice:
    """The full fftn lattice of ``grid``, every array of the former ``Grid``
    formulas: per-axis arrays broadcastable to the grid shape, masks of the
    grid shape.  Every other attribute is the grid's."""

    def __init__(self, grid):
        self.grid = grid

    def __getattr__(self, name):
        return getattr(self.grid, name)

    def _on_axis(self, axis, a):
        shape = [1] * self.grid.dim
        shape[axis] = self.grid.n[axis]
        return a.reshape(shape)

    @property
    def xi(self):
        """Per-axis wavenumbers 2*pi*k/L in FFT order, broadcastable."""
        return tuple(
            self._on_axis(j, TWO_PI * np.fft.fftfreq(m, d=L / m))
            for j, (m, L) in enumerate(zip(self.grid.n, self.grid.length))
        )

    @property
    def xi_norm(self):
        return np.sqrt(sum(xi * xi for xi in self.xi))

    def axis_nyquist(self, axis):
        m = self.grid.n[axis]
        mask = np.zeros(m, dtype=bool)
        mask[m // 2] = True
        return self._on_axis(axis, mask)

    @property
    def nyquist_mask(self):
        mask = np.zeros(self.grid.shape, dtype=bool)
        for j in range(self.grid.dim):
            mask |= self.axis_nyquist(j)
        return mask

    @property
    def dealias_mask(self):
        mask = np.ones(self.grid.shape, dtype=bool)
        for j, m in enumerate(self.grid.n):
            k = np.fft.fftfreq(m, d=1.0 / m)
            mask &= self._on_axis(j, np.abs(k) <= self.grid.dealias_band(j))
        return mask


@lru_cache(maxsize=None)
def full(grid):
    """The full lattice of ``grid`` (see ``FullLattice``)."""
    return FullLattice(grid)


def half(grid, a):
    """The rfftn half-lattice slice (last axis cut to n//2 + 1) of a
    full-lattice array, or of one broadcastable to the grid shape."""
    a = np.broadcast_to(a, grid.shape)[..., : grid.n[-1] // 2 + 1]
    return np.ascontiguousarray(a)


def transform(grid, values):
    """The full fftn spectrum of samples on ``grid``."""
    return np.fft.fftn(values) * grid._norm_factor


def coeffs(f):
    """The full fftn spectrum of a field's samples."""
    return transform(f.grid, f.values)


def inverse(grid, c):
    """The complex samples of a full spectrum ``c``."""
    return np.fft.ifftn(c) / grid._norm_factor


def index(grid, k):
    """Array index of integer mode k (int in 1D, pair in 2D), FFT order."""
    if grid.dim == 1:
        return int(k) % grid.n[0]
    return tuple(int(kj) % m for kj, m in zip(k, grid.n))


def fields(state):
    """A state's components (eta, v_1, .., v_d) as Fields."""
    return tuple(Field(state.grid, c) for c in state.samples)


def state_of(*components, time=0.0):
    """The ``WaveState`` of Fields (eta, v_1, .., v_d) on one grid."""
    return WaveState(components[0].grid, np.stack([f.values for f in components]), time)


def linf(f):
    return float(np.max(np.abs(f.values)))


def zero(grid):
    """The zero field."""
    return Field(grid, np.zeros(grid.shape))


def apply_multiplier(sym, f):
    """A real-to-real Fourier multiplier (a full-lattice array, say a
    ``SymbolCatalog`` entry of ``full(grid)``) applied to a real field."""
    return Field.from_coeffs(f.grid, sym * coeffs(f), context="apply multiplier")


def lp_norm(f, p):
    if p == math.inf:
        return linf(f)
    return (f.grid.cell * float(np.sum(np.abs(f.values) ** p))) ** (1.0 / p)


def sobolev_norm(f, order):
    """H^order (Bessel potential) norm, a sum over the full spectrum."""
    w = SymbolCatalog.bessel(full(f.grid), 2.0 * float(order))
    return float(math.sqrt(np.sum(w * np.abs(coeffs(f)) ** 2)))


def pair_product(f, g):
    """Pointwise product under the 2/3 rule: both factors and the result are
    truncated so the retained band is alias free."""
    grid = f.grid
    mask = full(grid).dealias_mask
    fv = inverse(grid, np.where(mask, coeffs(f), 0.0)).real
    gv = inverse(grid, np.where(mask, coeffs(g), 0.0)).real
    ch = transform(grid, fv * gv)
    return Field.from_coeffs(grid, np.where(mask, ch, 0.0))


def commutator(sym, f, g):
    """[sym(D), f] g = sym(D)(f g) - f sym(D) g with dealiased products."""
    a, b = apply_multiplier(sym, pair_product(f, g)), pair_product(f, apply_multiplier(sym, g))
    return Field(f.grid, a.values - b.values)


def one_transform_cubic(grid, eta_c, w, *orders):
    """int eta |J^order w|^2 dx for each order, from the half spectra eta_c
    (..., *half) and w (..., d, *half): an array (..., len(orders)).

    One inverse transform of the 2/3-masked factors (eta, J^order w, ..),
    then grid quadrature: exact for fields supported in the band, since no
    triple-product alias reaches the zero mode.  J^0 multiplies by exactly 1."""
    d = grid.dim
    parts = [(_cubic_weights(grid, 0.0) * eta_c)[_part(d, None)]]
    parts += [_cubic_weights(grid, float(order)) * w for order in orders]
    axes = tuple(range(-d, 0))
    phys = grid.inverse_half(np.concatenate(parts, axis=-d - 1))
    jw = phys[_part(d, slice(1, None))].reshape(*phys.shape[:-d - 1], len(orders), d, *grid.n)
    terms = phys[_part(d, slice(0, 1))] * (jw**2).sum(axis=-d - 1)
    return grid.cell * terms.sum(axis=axes)
