"""Ratio diagnostics for the bilinear/trilinear estimates behind the solver.

Each check evaluates, for a family of sample fields, the two sides of an
inequality whose sharp constant is not constructive, and reports the ratio
LHS / RHS-without-constant.  The diagnostics assert finiteness and
stability of these ratios, never a specific constant.  A family is given as
half-spectrum stacks (B, *half) of rfftn coefficients, one per factor, the
layout of ``WaveState.packed``: each operation below acts on a whole stack
at once.  The symbol comparison is the one exact statement: the pointwise
chain

    0 <= <xi> - xi/tanh(xi) <= <xi> - |xi| <= 1/(2|xi|)

holds at every nonzero wavenumber and is checked to a few ulp of the
operand scale <xi>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Grid, SymbolCatalog
from .state import _sobolev_weights

#: Each literal inequality of the symbol chain may be violated by at most
#: this many ulp of <xi> (the magnitude whose subtraction produced it).
SYMBOL_CHAIN_ULP = 4


@dataclass
class RatioReport:
    samples: list = field(default_factory=list)
    max_ratio: float = 0.0

    @classmethod
    def of(cls, lhs, rhs, **extra):
        """The report of per-sample arrays: both sides and any extra column."""
        report, columns = cls(), {k: v.tolist() for k, v in extra.items()}
        for i, (a, b) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            ratio = 0.0 if a == 0 else (math.inf if b == 0 else a / b)
            more = {k: v[i] for k, v in columns.items()}
            report.samples.append({"lhs": a, "rhs": b, "ratio": ratio, **more})
            report.max_ratio = max(report.max_ratio, ratio)
        return report

    @property
    def all_finite(self):
        return all(math.isfinite(s["ratio"]) for s in self.samples)


def _axes(grid: Grid):
    return tuple(range(-grid.dim, 0))


def product(grid: Grid, f, g):
    """Pointwise product under the 2/3 rule: both factors and the result are
    cut to the band, so the band is alias free.  One inverse transform of
    both factors, one rfftn of their product."""
    mask = grid.dealias_mask
    x = grid.inverse_half(np.stack([f * mask, g * mask]))
    return grid.forward_half(x[0] * x[1]) * mask


def commutator(grid: Grid, sym, f, g):
    """[sym(D), f] g = sym(D)(f g) - f sym(D) g with dealiased products."""
    return sym * product(grid, f, g) - product(grid, f, sym * g)


def lp_norms(grid: Grid, c, p):
    """L^p norm (p >= 1 or inf) of each field of a stack, from its samples."""
    x = np.abs(grid.inverse_half(c))
    if p == math.inf:
        return x.max(axis=_axes(grid))
    return (grid.cell * (x**p).sum(axis=_axes(grid))) ** (1.0 / p)


def sobolev_norms(grid: Grid, c, order):
    """H^order (Bessel potential) norm of each field of a stack, by Parseval."""
    w = _sobolev_weights(grid, float(order))
    return np.sqrt((w * np.abs(c) ** 2).sum(axis=_axes(grid)))


def kato_ponce_report(grid: Grid, f, g) -> RatioReport:
    """Commutator bound ||[J, f] g||_2 <= C(||f'||_4 ||g||_4 + ||J f||_4 ||g||_4),
    the s = 1 case of Kato-Ponce with Holder pairs 1/2 = 1/4 + 1/4."""
    j1 = SymbolCatalog.bessel(grid, 1.0)
    lhs = lp_norms(grid, commutator(grid, j1, f, g), 2.0)
    g4 = lp_norms(grid, g, 4.0)
    rhs = lp_norms(grid, SymbolCatalog.gradient(grid)[0] * f, 4.0) * g4
    rhs += lp_norms(grid, j1 * f, 4.0) * g4
    return RatioReport.of(lhs, rhs)


def leibniz_report(grid: Grid, f, g) -> RatioReport:
    """Fractional Leibniz defect ||D^(1/2)(fg) - f D^(1/2) g - g D^(1/2) f||_2
    against ||D^(1/4) f||_4 ||D^(1/4) g||_4."""
    riesz = SymbolCatalog.riesz(grid, 0.5)
    quarter = SymbolCatalog.riesz(grid, 0.25)
    defect = (
        riesz * product(grid, f, g)
        - product(grid, f, riesz * g)
        - product(grid, g, riesz * f)
    )
    lhs = lp_norms(grid, defect, 2.0)
    rhs = lp_norms(grid, quarter * f, 4.0)
    rhs *= lp_norms(grid, quarter * g, 4.0)
    return RatioReport.of(lhs, rhs)


def trilinear_report(grid: Grid, f, g, h) -> RatioReport:
    """Product bound ||fgh||_L1 <= C ||f||_{H^1/2} ||g||_{H^1/2} ||h||_{H^1/2}.

    The signed integral |int fgh| (the quantity the energy estimates actually
    use) is reported alongside the L1 norm."""
    x = grid.inverse_half(np.stack([f, g, h]))
    prod = x[0] * x[1] * x[2]
    lhs = grid.cell * np.abs(prod).sum(axis=_axes(grid))
    integral = grid.cell * prod.sum(axis=_axes(grid))
    rhs = sobolev_norms(grid, f, 0.5) * sobolev_norms(grid, g, 0.5) * sobolev_norms(grid, h, 0.5)
    return RatioReport.of(lhs, rhs, integral=integral)


def brezis_gallouet_report(grid: Grid, f) -> RatioReport:
    """Limiting embedding ||f||_inf <= C(1 + ||f||_{H^1/2} sqrt(log(1 + ||f||_{H^1})))."""
    lhs = lp_norms(grid, f, math.inf)
    rhs = 1.0 + sobolev_norms(grid, f, 0.5) * np.sqrt(np.log(1.0 + sobolev_norms(grid, f, 1.0)))
    return RatioReport.of(lhs, rhs)


@dataclass(frozen=True)
class SymbolChainReport:
    checked: int
    passed: int
    max_violation_ulp: float

    @property
    def ok(self):
        return self.passed == self.checked


def symbol_chain_report(grid: Grid) -> SymbolChainReport:
    """Exact pointwise check of 0 <= <xi> - xi/tanh xi <= <xi> - |xi| <= 1/(2|xi|)
    at every nonzero point of the full lattice (``Grid.multiplicity``)."""
    a = grid.xi_norm.ravel()
    count = grid.multiplicity.ravel()[a > 0]
    a = a[a > 0]
    bess = np.sqrt(1.0 + a * a)
    lhs1 = bess - a / np.tanh(a)
    lhs2 = bess - a
    rhs = 1.0 / (2.0 * a)
    tol = SYMBOL_CHAIN_ULP * np.spacing(bess)
    v1 = np.maximum(-lhs1, 0.0)          # violation of 0 <= lhs1
    v2 = np.maximum(lhs1 - lhs2, 0.0)    # violation of lhs1 <= lhs2
    v3 = np.maximum(lhs2 - rhs, 0.0)     # violation of lhs2 <= 1/(2|xi|)
    worst = np.maximum(np.maximum(v1, v2), v3)
    ok = worst <= tol
    max_ulp = float(np.max(worst / np.spacing(bess))) if a.size else 0.0
    return SymbolChainReport(int(count.sum()), int(count[ok].sum()), max_ulp)

