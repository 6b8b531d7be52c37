"""The full-spectrum field operators the package once had, kept as
independent references for the tests.

Each acts on ``Field`` objects through their full fftn spectra
(``Field.coeffs``) and returns a new ``Field`` (or a float) by one inverse
fftn per result, the way the package computed them before every operator
moved to the half spectrum.  The package's half-spectrum code is checked
against them, never the other way round.
"""

import math

import numpy as np

from wbwaves.spectral import Field, SymbolCatalog


def apply_multiplier(sym, f, axis=0):
    """A real-to-real Fourier multiplier applied to a real field."""
    out = sym.multiplier(f.grid, axis=axis) * f.coeffs
    return Field.from_coeffs(f.grid, out, context=f"apply {sym.name}")


def lp_norm(f, p):
    if p == math.inf:
        return f.linf()
    return (f.grid.cell * float(np.sum(np.abs(f.values) ** p))) ** (1.0 / p)


def sobolev_norm(f, order):
    """H^order (Bessel potential) norm, a sum over the full spectrum."""
    w = SymbolCatalog.bessel(2.0 * float(order)).values(f.grid)
    return float(math.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def pair_product(f, g):
    """Pointwise product under the 2/3 rule: both factors and the result are
    truncated so the retained band is alias free."""
    grid = f.grid
    mask = grid.dealias_mask
    fv = grid.inverse(np.where(mask, f.coeffs, 0.0)).real
    gv = grid.inverse(np.where(mask, g.coeffs, 0.0)).real
    ch = grid.transform(fv * gv)
    return Field.from_coeffs(grid, np.where(mask, ch, 0.0))


def commutator(sym, f, g):
    """[sym(D), f] g = sym(D)(f g) - f sym(D) g with dealiased products."""
    return apply_multiplier(sym, pair_product(f, g)) - pair_product(f, apply_multiplier(sym, g))
