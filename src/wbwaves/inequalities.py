"""Ratio diagnostics for the bilinear/trilinear estimates behind the solver.

Each check evaluates, for a family of sample fields, the two sides of an
inequality whose sharp constant is not constructive, and reports the ratio
LHS / RHS-without-constant.  The diagnostics assert finiteness and
stability of these ratios, never a specific constant.  The symbol
comparison is the one exact statement: the pointwise chain

    0 <= <xi> - xi/tanh(xi) <= <xi> - |xi| <= 1/(2|xi|)

holds at every nonzero wavenumber and is checked to a few ulp of the
operand scale <xi>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Grid,
    SymbolCatalog,
    apply_multiplier,
    commutator,
    lp_norm,
    pair_product,
    sobolev_norm,
)

#: Each literal inequality of the symbol chain may be violated by at most
#: this many ulp of <xi> (the magnitude whose subtraction produced it).
SYMBOL_CHAIN_ULP = 4


@dataclass
class RatioReport:
    samples: list = field(default_factory=list)
    max_ratio: float = 0.0

    def record(self, lhs, rhs, **extra):
        ratio = 0.0 if lhs == 0 else (math.inf if rhs == 0 else lhs / rhs)
        self.samples.append({"lhs": lhs, "rhs": rhs, "ratio": ratio, **extra})
        self.max_ratio = max(self.max_ratio, ratio)
        return ratio

    @property
    def all_finite(self):
        return all(math.isfinite(s["ratio"]) for s in self.samples)


def kato_ponce_report(family) -> RatioReport:
    """Commutator bound ||[J, f] g||_2 <= C(||f'||_4 ||g||_4 + ||J f||_4 ||g||_4),
    the s = 1 case of Kato-Ponce with Holder pairs 1/2 = 1/4 + 1/4."""
    report = RatioReport()
    j1 = SymbolCatalog.bessel(1.0)
    for f, g in family:
        lhs = lp_norm(commutator(j1, f, g), 2.0)
        fx = apply_multiplier(SymbolCatalog.partial(0), f)
        rhs = lp_norm(fx, 4.0) * lp_norm(g, 4.0)
        rhs += lp_norm(apply_multiplier(j1, f), 4.0) * lp_norm(g, 4.0)
        report.record(lhs, rhs)
    return report


def leibniz_report(family) -> RatioReport:
    """Fractional Leibniz defect ||D^(1/2)(fg) - f D^(1/2) g - g D^(1/2) f||_2
    against ||D^(1/4) f||_4 ||D^(1/4) g||_4."""
    report = RatioReport()
    riesz = SymbolCatalog.riesz(0.5)
    quarter = SymbolCatalog.riesz(0.25)
    for f, g in family:
        defect = (
            apply_multiplier(riesz, pair_product(f, g))
            - pair_product(f, apply_multiplier(riesz, g))
            - pair_product(g, apply_multiplier(riesz, f))
        )
        lhs = lp_norm(defect, 2.0)
        rhs = lp_norm(apply_multiplier(quarter, f), 4.0)
        rhs *= lp_norm(apply_multiplier(quarter, g), 4.0)
        report.record(lhs, rhs)
    return report


def trilinear_report(family) -> RatioReport:
    """Product bound ||fgh||_L1 <= C ||f||_{H^1/2} ||g||_{H^1/2} ||h||_{H^1/2}.

    The signed integral |int fgh| (the quantity the energy estimates actually
    use) is reported alongside the L1 norm."""
    report = RatioReport()
    for f, g, h in family:
        prod = f.values * g.values * h.values
        lhs = f.grid.quadrature(np.abs(prod))
        integral = f.grid.quadrature(prod)
        rhs = sobolev_norm(f, 0.5) * sobolev_norm(g, 0.5) * sobolev_norm(h, 0.5)
        report.record(lhs, rhs, integral=integral)
    return report


def brezis_gallouet_report(family) -> RatioReport:
    """Limiting embedding ||f||_inf <= C(1 + ||f||_{H^1/2} sqrt(log(1 + ||f||_{H^1})))."""
    report = RatioReport()
    for f in family:
        lhs = f.linf()
        rhs = 1.0 + sobolev_norm(f, 0.5) * math.sqrt(
            math.log(1.0 + sobolev_norm(f, 1.0))
        )
        report.record(lhs, rhs)
    return report


@dataclass(frozen=True)
class SymbolChainReport:
    checked: int
    passed: int
    max_violation_ulp: float

    @property
    def ok(self):
        return self.passed == self.checked


def symbol_chain_report(grid: Grid) -> SymbolChainReport:
    """Exact pointwise check of 0 <= <xi> - xi/tanh xi <= <xi> - |xi| <= 1/(2|xi|)."""
    a = np.abs(np.asarray(grid.xi_norm)).ravel()
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
    return SymbolChainReport(checked=int(a.size), passed=int(np.sum(ok)), max_violation_ulp=max_ulp)

