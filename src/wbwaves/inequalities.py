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


class HypothesisError(ValueError):
    """An exponent/parameter choice violates the estimate's hypotheses."""


@dataclass
class RatioReport:
    which: str
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


def _check_holder_pair(p, p1, p2, label):
    for q in (p1, p2):
        if not (1 < q or q == math.inf):
            raise HypothesisError(f"{label}: exponents must lie in (1, inf], got {q}")
    inv = (0.0 if p1 == math.inf else 1.0 / p1) + (0.0 if p2 == math.inf else 1.0 / p2)
    if abs(inv - 1.0 / p) > 1e-12:
        raise HypothesisError(f"{label}: 1/{p} != 1/{p1} + 1/{p2}")


def kato_ponce_report(family, s=1.0, p=2.0, p1=4.0, p2=4.0, p3=4.0, p4=4.0) -> RatioReport:
    """Commutator bound ||[J^s, f] g||_p <= C(||f'||_p1 ||J^{s-1}g||_p2
    + ||J^s f||_p3 ||g||_p4)."""
    if s < 1:
        raise HypothesisError(f"kato_ponce needs s >= 1, got s={s}")
    if not (1 < p < math.inf):
        raise HypothesisError(f"kato_ponce needs p in (1, inf), got {p}")
    _check_holder_pair(p, p1, p2, "kato_ponce")
    _check_holder_pair(p, p3, p4, "kato_ponce")
    report = RatioReport("kato_ponce")
    bess_s = SymbolCatalog.bessel(s)
    bess_sm1 = SymbolCatalog.bessel(s - 1.0)
    for f, g in family:
        lhs = lp_norm(commutator(bess_s, f, g), p)
        fx = apply_multiplier(SymbolCatalog.partial(0), f)
        rhs = lp_norm(fx, p1) * lp_norm(apply_multiplier(bess_sm1, g), p2)
        rhs += lp_norm(apply_multiplier(bess_s, f), p3) * lp_norm(g, p4)
        report.record(lhs, rhs)
    return report


def leibniz_report(family, sigma=0.5, sigma1=0.25, sigma2=0.25, p=2.0, p1=4.0, p2=4.0) -> RatioReport:
    """Fractional Leibniz defect ||D^sigma(fg) - f D^sigma g - g D^sigma f||_p."""
    if not (0 < sigma < 1):
        raise HypothesisError(f"leibniz needs sigma in (0, 1), got {sigma}")
    if abs(sigma1 + sigma2 - sigma) > 1e-12:
        raise HypothesisError("leibniz needs sigma = sigma1 + sigma2")
    if sigma2 == 0:
        if p2 != math.inf:
            raise HypothesisError("leibniz with sigma2 = 0 requires p2 = inf")
    elif not (0 < sigma1 < sigma and 0 < sigma2 < sigma):
        raise HypothesisError("leibniz needs sigma_i in (0, sigma)")
    if not (1 < p < math.inf):
        raise HypothesisError(f"leibniz needs p in (1, inf), got {p}")
    _check_holder_pair(p, p1, p2, "leibniz")
    report = RatioReport("leibniz")
    riesz = SymbolCatalog.riesz(sigma)
    r1 = SymbolCatalog.riesz(sigma1)
    r2 = SymbolCatalog.riesz(sigma2)
    for f, g in family:
        defect = (
            apply_multiplier(riesz, pair_product(f, g))
            - pair_product(f, apply_multiplier(riesz, g))
            - pair_product(g, apply_multiplier(riesz, f))
        )
        lhs = lp_norm(defect, p)
        rhs = lp_norm(apply_multiplier(r1, f), p1) * lp_norm(apply_multiplier(r2, g), p2)
        report.record(lhs, rhs)
    return report


def trilinear_report(family, a=0.5, b=0.5, c=0.5) -> RatioReport:
    """Product bound ||fgh||_L1 <= C ||f||_{H^a} ||g||_{H^b} ||h||_{H^c}.

    Requires a+b+c > 1/2 and pairwise sums >= 0.  The signed integral
    |int fgh| (the quantity the energy estimates actually use) is reported
    alongside the L1 norm."""
    if not (a + b + c > 0.5):
        raise HypothesisError(f"trilinear needs a+b+c > 1/2, got {a + b + c}")
    for pair, val in (("a+b", a + b), ("a+c", a + c), ("b+c", b + c)):
        if val < 0:
            raise HypothesisError(f"trilinear needs {pair} >= 0, got {val}")
    report = RatioReport("trilinear")
    for f, g, h in family:
        prod = f.values * g.values * h.values
        lhs = f.grid.quadrature(np.abs(prod))
        integral = f.grid.quadrature(prod)
        rhs = sobolev_norm(f, a) * sobolev_norm(g, b) * sobolev_norm(h, c)
        report.record(lhs, rhs, integral=integral)
    return report


def brezis_gallouet_report(family, s=1.0) -> RatioReport:
    """Limiting embedding ||f||_inf <= C(1 + ||f||_{H^1/2} sqrt(log(1 + ||f||_{H^s})))."""
    if not (s > 0.5):
        raise HypothesisError(f"brezis_gallouet needs s > 1/2, got {s}")
    report = RatioReport("brezis_gallouet")
    for f in family:
        lhs = f.linf()
        rhs = 1.0 + sobolev_norm(f, 0.5) * math.sqrt(
            math.log(1.0 + sobolev_norm(f, s))
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

