"""The ratio reports on half-spectrum stacks, against the full-spectrum
reports they replaced.

The ``old_*`` functions below are the former reports: a family of ``Field``
samples, every operator a full-spectrum one of ``full_spectrum`` with one
inverse fftn per result.  The reports read (B, *half) stacks of rfftn
coefficients instead; only the transforms and the order of the sums differ,
so every sample's two sides and ratio agree to REPORT_RTOL.
"""

import math

import numpy as np
import pytest

from wbwaves.inequalities import (
    RatioReport,
    brezis_gallouet_report,
    kato_ponce_report,
    leibniz_report,
    symbol_chain_report,
    trilinear_report,
)
from wbwaves.presets import random_bandlimited
from wbwaves.spectral import Field, Grid, SymbolCatalog

from full_spectrum import (
    apply_multiplier,
    coeffs,
    commutator,
    fields,
    full,
    half,
    linf,
    lp_norm,
    pair_product,
    sobolev_norm,
)

REPORT_RTOL = 1e-12


def old_kato_ponce(family):
    report = RatioReport()
    for f, g in family:
        j1 = SymbolCatalog.bessel(full(f.grid), 1.0)
        lhs = lp_norm(commutator(j1, f, g), 2.0)
        fx = apply_multiplier(SymbolCatalog.gradient(full(f.grid))[0], f)
        rhs = lp_norm(fx, 4.0) * lp_norm(g, 4.0)
        rhs += lp_norm(apply_multiplier(j1, f), 4.0) * lp_norm(g, 4.0)
        report.samples.append({"lhs": lhs, "rhs": rhs})
    return report


def old_leibniz(family):
    report = RatioReport()
    for f, g in family:
        riesz = SymbolCatalog.riesz(full(f.grid), 0.5)
        quarter = SymbolCatalog.riesz(full(f.grid), 0.25)
        defect = Field(f.grid, (
            apply_multiplier(riesz, pair_product(f, g)).values
            - pair_product(f, apply_multiplier(riesz, g)).values
            - pair_product(g, apply_multiplier(riesz, f)).values
        ))
        lhs = lp_norm(defect, 2.0)
        rhs = lp_norm(apply_multiplier(quarter, f), 4.0)
        rhs *= lp_norm(apply_multiplier(quarter, g), 4.0)
        report.samples.append({"lhs": lhs, "rhs": rhs})
    return report


def old_trilinear(family):
    report = RatioReport()
    for f, g, h in family:
        prod = f.values * g.values * h.values
        lhs = f.grid.cell * float(np.sum(np.abs(prod)))
        integral = f.grid.cell * float(np.sum(prod))
        rhs = sobolev_norm(f, 0.5) * sobolev_norm(g, 0.5) * sobolev_norm(h, 0.5)
        report.samples.append({"lhs": lhs, "rhs": rhs, "integral": integral})
    return report


def old_brezis_gallouet(family):
    report = RatioReport()
    for f in family:
        lhs = linf(f)
        rhs = 1.0 + sobolev_norm(f, 0.5) * math.sqrt(math.log(1.0 + sobolev_norm(f, 1.0)))
        report.samples.append({"lhs": lhs, "rhs": rhs})
    return report


def states(grid, count, seed0=100, band=6, amplitude=0.5):
    return [random_bandlimited(grid, seed=seed0 + i, band=band, amplitude=amplitude)
            for i in range(count)]


def family(grid, count, **kwargs):
    """The (eta, v) half-spectrum stacks of ``count`` random states."""
    u = np.stack([st.packed() for st in states(grid, count, **kwargs)])
    return u[:, 0], u[:, 1]


def stack(*fields):
    """The (B, *half) stack of some fields' half spectra."""
    return np.stack([half(f.grid, coeffs(f)) for f in fields])


def rough_fields(grid, count, seed0=200, amplitude=0.5):
    """Pairs of fields with random samples, so every mode is present and
    the 2/3 masks of the products cut both factors and results."""
    rng = np.random.default_rng(seed0)
    return [tuple(Field(grid, amplitude * rng.standard_normal(grid.shape)) for _ in range(2))
            for _ in range(count)]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kind", ["band6", "rough"])
class TestAgainstFullSpectrum:
    """Each report on an 8-member family, sample by sample, against its
    former full-spectrum version on the same fields: the study's family of
    band-6 states, and rough fields on every mode."""

    def _pairs(self, grid, kind):
        if kind == "rough":
            return rough_fields(grid, 8)
        return [fields(st) for st in states(grid, 8)]

    def _stacks(self, pairs):
        return stack(*(f for f, _ in pairs)), stack(*(g for _, g in pairs))

    def _check(self, got, want):
        assert len(got.samples) == len(want.samples) == 8
        for new, old in zip(got.samples, want.samples):
            for key in ("lhs", "rhs"):
                assert new[key] == pytest.approx(old[key], rel=REPORT_RTOL, abs=0.0), key
            assert new["ratio"] == pytest.approx(old["lhs"] / old["rhs"], rel=REPORT_RTOL)
        assert got.max_ratio == max(s["ratio"] for s in got.samples)

    def test_kato_ponce(self, n, kind):
        grid = Grid(n)
        pairs = self._pairs(grid, kind)
        self._check(kato_ponce_report(grid, *self._stacks(pairs)), old_kato_ponce(pairs))

    def test_leibniz(self, n, kind):
        grid = Grid(n)
        pairs = self._pairs(grid, kind)
        self._check(leibniz_report(grid, *self._stacks(pairs)), old_leibniz(pairs))

    def test_trilinear(self, n, kind):
        grid = Grid(n)
        pairs = self._pairs(grid, kind)
        f, g = self._stacks(pairs)
        got = trilinear_report(grid, f, g, f)
        want = old_trilinear([(a, b, a) for a, b in pairs])
        self._check(got, want)
        # The signed integral may nearly cancel: compare it on the L1 scale.
        for new, old in zip(got.samples, want.samples):
            assert abs(new["integral"] - old["integral"]) <= REPORT_RTOL * old["lhs"]

    def test_brezis_gallouet(self, n, kind):
        grid = Grid(n)
        pairs = self._pairs(grid, kind)
        got = brezis_gallouet_report(grid, self._stacks(pairs)[1])
        self._check(got, old_brezis_gallouet([g for _, g in pairs]))


class TestSymbolChain:
    def test_value_at_one(self):
        # Direct evaluation at xi = 1: <1> - 1/tanh(1) = 0.10117827687...,
        # <1> - 1 = 0.41421356..., 1/2 = 0.5; the chain holds.
        a = math.sqrt(2.0) - 1.0 / math.tanh(1.0)
        b = math.sqrt(2.0) - 1.0
        assert a == pytest.approx(0.10117827687376392, rel=1e-14)
        assert b == pytest.approx(0.41421356237309515, rel=1e-14)
        assert 0.0 <= a <= b <= 0.5

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_chain_exact_on_grids(self, n):
        rep = symbol_chain_report(Grid(n))
        assert rep.checked == n - 1
        assert rep.passed == rep.checked
        assert rep.max_violation_ulp <= 4.0

    def test_chain_on_stretched_grid(self):
        rep = symbol_chain_report(Grid(512, length=37.0))
        assert rep.passed == rep.checked

    def test_chain_2d(self):
        g = Grid((64, 64))
        rep = symbol_chain_report(g)
        assert rep.checked == 64 * 64 - 1
        assert rep.passed == rep.checked


class TestKatoPonce:
    def test_constant_f_gives_zero_ratio(self):
        g = Grid(64)
        f = Field(g, np.full(64, 0.8))
        h = Field(g, random_bandlimited(g, seed=3, band=5, amplitude=0.5).eta)
        rep = kato_ponce_report(g, stack(f), stack(h))
        assert rep.samples[0]["lhs"] < 1e-13
        assert rep.samples[0]["ratio"] < 1e-10

    def test_random_family_bounded(self):
        g = Grid(128)
        rep = kato_ponce_report(g, *family(g, 8))
        assert rep.all_finite
        assert rep.max_ratio > 0


class TestLeibniz:
    def test_random_family_bounded(self):
        g = Grid(128)
        rep = leibniz_report(g, *family(g, 8))
        assert rep.all_finite

    def test_defect_vanishes_for_low_order(self):
        # For f = g = cos the defect of |D|^sigma is a concrete two-mode
        # expression; just check the ratio is small for smooth data.
        g = Grid(64)
        rep = leibniz_report(g, *family(g, 4, band=2))
        assert rep.max_ratio < 10.0


class TestTrilinear:
    def test_cosine_triple_integral_vanishes(self):
        # int cos^3 = 0 on a full period: odd harmonics only.
        g = Grid(64)
        f = stack(Field(g, np.cos(np.asarray(g.x[0]))))
        rep = trilinear_report(g, f, f, f)
        assert abs(rep.samples[0]["integral"]) < 1e-13
        assert math.isfinite(rep.samples[0]["ratio"])
        assert rep.samples[0]["lhs"] > 0  # the L1 norm itself is not zero

    def test_random_family(self):
        g = Grid(64)
        f, h = family(g, 6)
        rep = trilinear_report(g, f, h, f)
        assert rep.all_finite


class TestBrezisGallouet:
    def test_frequency_rescaled_family_bounded(self):
        # cos(kx) for growing k: the ratio must stay bounded as k grows.
        g = Grid(512)
        x = np.asarray(g.x[0])
        fam = stack(*(Field(g, np.cos(k * x)) for k in (1, 2, 4, 8, 16, 32, 64)))
        rep = brezis_gallouet_report(g, fam)
        assert rep.all_finite
        ratios = [s["ratio"] for s in rep.samples]
        assert max(ratios) <= 2.0 * ratios[0] + 1.0
