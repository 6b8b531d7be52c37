import math

import numpy as np
import pytest

from wbwaves.inequalities import (
    brezis_gallouet_report,
    kato_ponce_report,
    leibniz_report,
    symbol_chain_report,
    trilinear_report,
)
from wbwaves.presets import random_bandlimited
from wbwaves.spectral import Field, Grid


def family(grid, count, seed0=100, band=6, amplitude=0.5):
    states = [random_bandlimited(grid, seed=seed0 + i, band=band, amplitude=amplitude)
              for i in range(count)]
    return [(st.eta, st.v) for st in states]


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
        h = random_bandlimited(g, seed=3, band=5, amplitude=0.5).eta
        rep = kato_ponce_report([(f, h)])
        assert rep.samples[0]["lhs"] < 1e-13
        assert rep.samples[0]["ratio"] < 1e-10

    def test_random_family_bounded(self):
        g = Grid(128)
        rep = kato_ponce_report(family(g, 8))
        assert rep.all_finite
        assert rep.max_ratio > 0


class TestLeibniz:
    def test_random_family_bounded(self):
        g = Grid(128)
        rep = leibniz_report(family(g, 8))
        assert rep.all_finite

    def test_defect_vanishes_for_low_order(self):
        # For f = g = cos the defect of |D|^sigma is a concrete two-mode
        # expression; just check the ratio is small for smooth data.
        g = Grid(64)
        rep = leibniz_report(family(g, 4, band=2))
        assert rep.max_ratio < 10.0


class TestTrilinear:
    def test_cosine_triple_integral_vanishes(self):
        # int cos^3 = 0 on a full period: odd harmonics only.
        g = Grid(64)
        f = Field(g, np.cos(np.asarray(g.x[0])))
        rep = trilinear_report([(f, f, f)])
        assert abs(rep.samples[0]["integral"]) < 1e-13
        assert math.isfinite(rep.samples[0]["ratio"])
        assert rep.samples[0]["lhs"] > 0  # the L1 norm itself is not zero

    def test_random_family(self):
        g = Grid(64)
        triples = [(f, h, f) for f, h in family(g, 6)]
        rep = trilinear_report(triples)
        assert rep.all_finite


class TestBrezisGallouet:
    def test_frequency_rescaled_family_bounded(self):
        # cos(kx) for growing k: the ratio must stay bounded as k grows.
        g = Grid(512)
        x = np.asarray(g.x[0])
        fam = [Field(g, np.cos(k * x)) for k in (1, 2, 4, 8, 16, 32, 64)]
        rep = brezis_gallouet_report(fam)
        assert rep.all_finite
        ratios = [s["ratio"] for s in rep.samples]
        assert max(ratios) <= 2.0 * ratios[0] + 1.0
