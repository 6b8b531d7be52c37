import math

import numpy as np
import pytest

from wbwaves.functionals import _cubic
from wbwaves.spectral import (
    Field,
    Grid,
    SpectralError,
    Symbol,
    SymbolCatalog,
    apply_multiplier,
    commutator,
    pair_product,
    sobolev_norm,
)

TWO_PI = 2 * math.pi

# Example symbols outside the catalog: the skew map -i tanh(D) and the real
# odd tanh(xi), which maps no real field to a real one.
NEG_I_TANH = Symbol("-i*tanh(xi)", "odd", True, lambda x: -np.tanh(x))
TANH = Symbol("tanh(xi)", "odd", False, np.tanh)


def random_field(grid, seed, band=6, amplitude=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.shape, dtype=np.complex128)
    if grid.dim == 1:
        for k in range(1, band + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[grid.coeff_index(k)] = z
            c[grid.coeff_index(-k)] = np.conj(z)
    else:
        for k1 in range(0, band + 1):
            for k2 in range(-band, band + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                z = complex(rng.standard_normal(), rng.standard_normal())
                c[grid.coeff_index((k1, k2))] = z
                c[grid.coeff_index((-k1, -k2))] = np.conj(z)
    f = Field.from_coeffs(grid, c)
    return (amplitude / f.linf()) * f


class TestGrid:
    def test_wavenumbers_symmetric_except_nyquist(self):
        g = Grid(16)
        xi = np.asarray(g.xi[0])
        assert xi[0] == 0.0
        for k in range(1, 8):
            assert xi[k] == -xi[-k]
        assert xi[8] == -8.0  # unpaired Nyquist mode

    def test_rejects_bad_sizes(self):
        with pytest.raises(SpectralError):
            Grid(3)
        with pytest.raises(SpectralError):
            Grid(15)
        with pytest.raises(SpectralError):
            Grid((16, 16, 16))
        with pytest.raises(SpectralError):
            Grid(16, length=-1.0)

    @pytest.mark.parametrize("n,length", [(16, TWO_PI), (64, 3.0), ((16, 32), (TWO_PI, 5.0))])
    def test_round_trip(self, n, length):
        g = Grid(n, length)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(g.shape)
        back = g.inverse(g.transform(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_parseval(self):
        g = Grid(64, 5.0)
        f = random_field(g, 7)
        quad = g.quadrature(f.values**2)
        spec = float(np.sum(np.abs(f.coeffs) ** 2))
        assert abs(quad - spec) <= 1e-12 * abs(quad)


class TestTransform:
    def test_constant_field_single_coefficient(self):
        g = Grid(16)
        c = g.transform(np.ones(16))
        assert abs(c[0] - math.sqrt(TWO_PI)) < 1e-13
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_cosine_two_coefficients(self):
        g = Grid(16)
        c = g.transform(np.cos(np.asarray(g.x[0])))
        nonzero = np.flatnonzero(np.abs(c) > 1e-13)
        assert sorted(nonzero) == [g.coeff_index(1), g.coeff_index(-1)]

    def test_random_real_field_is_hermitian(self):
        g = Grid(32)
        rng = np.random.default_rng(3)
        c = g.transform(rng.standard_normal(32))
        for k in range(1, 16):
            assert c[g.coeff_index(-k)] == pytest.approx(np.conj(c[g.coeff_index(k)]), abs=1e-13)

    def test_rejects_non_finite(self):
        g = Grid(16)
        v = np.zeros(16)
        v[3] = np.nan
        with pytest.raises(SpectralError, match="non-finite"):
            g.transform(v)
        with pytest.raises(SpectralError, match="non-finite"):
            Field(g, v)


class TestApplyMultiplier:
    def test_neg_i_tanh_on_sine(self):
        # Single-mode computation: sin x has coefficients -+ i/2 at k = +-1;
        # multiplying by -i tanh(+-1) gives -tanh(1)/2 at both, i.e.
        # -tanh(1) cos x.
        g = Grid(32)
        f = Field(g, np.sin(np.asarray(g.x[0])))
        out = apply_multiplier(NEG_I_TANH, f)
        expected = -math.tanh(1.0) * np.cos(np.asarray(g.x[0]))
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_bessel_zero_is_identity(self):
        g = Grid(32)
        f = random_field(g, 11)
        out = apply_multiplier(SymbolCatalog.bessel(0.0), f)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_d_over_tanh_fixes_constants(self):
        g = Grid(16)
        f = Field(g, np.ones(16))
        out = apply_multiplier(SymbolCatalog.d_over_tanh(), f)
        assert np.max(np.abs(out.values - 1.0)) < 1e-13

    def test_odd_real_symbol_rejected(self):
        g = Grid(16)
        f = random_field(g, 5)
        with pytest.raises(SpectralError, match="does not map real"):
            apply_multiplier(TANH, f)

    def test_singular_symbol_names_wavenumber(self):
        g = Grid(16)
        f = random_field(g, 5)
        bad = Symbol("bad", "even", False, lambda a: np.where(a == 0, np.inf, a))
        with pytest.raises(SpectralError, match="not finite at wavenumber"):
            apply_multiplier(bad, f)

    def test_composition_bessel(self):
        g = Grid(32)
        f = random_field(g, 13)
        one = apply_multiplier(SymbolCatalog.bessel(0.7), apply_multiplier(SymbolCatalog.bessel(0.8), f))
        two = apply_multiplier(SymbolCatalog.bessel(1.5), f)
        scale = max(np.max(np.abs(two.values)), 1e-300)
        assert np.max(np.abs(one.values - two.values)) <= 1e-12 * scale

    def test_riesz_negative_annihilates_mean(self):
        g = Grid(16)
        f = Field(g, 2.0 + np.cos(np.asarray(g.x[0])))
        out = apply_multiplier(SymbolCatalog.riesz(-1.0), f)
        assert abs(out.coeffs[0]) < 1e-14

    def test_realness_of_dynamics_composites(self):
        g = Grid(64)
        f = random_field(g, 17)
        for sym in [
            NEG_I_TANH,
            SymbolCatalog.partial(0),
            SymbolCatalog.riesz(1.0),
            SymbolCatalog.K_kappa(0.5),
            SymbolCatalog.K_kappa_inv(0.5),
        ]:
            out = apply_multiplier(sym, f)  # from_coeffs enforces the residue bound
            assert np.all(np.isfinite(out.values))


class TestSymbolCatalog:
    def test_patched_values_at_zero(self):
        g = Grid(16)
        for sym, want in [
            (SymbolCatalog.K_kappa(2.0), 1.0),
            (SymbolCatalog.K_kappa_inv(2.0), 1.0),
            (SymbolCatalog.d_over_tanh(), 1.0),
            (SymbolCatalog.riesz(1.0), 0.0),
            (SymbolCatalog.riesz(-0.5), 0.0),
            (SymbolCatalog.riesz(0.0), 1.0),
        ]:
            assert sym.values(g)[g.coeff_index(0)] == want

    def test_k_kappa_matches_definition(self):
        g = Grid(32)
        xi = np.abs(np.asarray(g.xi[0]))
        vals = SymbolCatalog.K_kappa(0.7).values(g)
        mask = xi > 0
        want = np.sqrt((1 + 0.7 * xi[mask] ** 2) * np.tanh(xi[mask]) / xi[mask])
        assert np.allclose(vals[mask], want, rtol=1e-14)

    def test_odd_symbols_zero_nyquist(self):
        g = Grid(16)
        sgn = Symbol("sgn(xi)", "odd", False, np.sign)
        for sym in [TANH, sgn, NEG_I_TANH, SymbolCatalog.partial(0)]:
            assert sym.values(g)[8] == 0.0


class TestSobolevNorm:
    def test_h1_of_cosine(self):
        # Parseval oracle: cos has coefficients sqrt(2 pi)/2 at k = +-1, so
        # ||cos||_{H^1}^2 = <1>^2 * 2 * (2 pi / 4) = 2 pi.
        g = Grid(64)
        f = Field(g, np.cos(np.asarray(g.x[0])))
        assert sobolev_norm(f, 1.0) ** 2 == pytest.approx(TWO_PI, rel=1e-13)

    def test_h0_equals_l2(self):
        g = Grid(64)
        f = random_field(g, 23)
        l2 = math.sqrt(g.quadrature(f.values**2))
        assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_plancherel_consistency(self):
        # Coefficient-space norm against grid quadrature of |J^s f|^2.
        g = Grid(64)
        f = random_field(g, 31)
        for s in (0.5, 1.0, 1.5, -0.5):
            jf = apply_multiplier(SymbolCatalog.bessel(s), f)
            quad = math.sqrt(g.quadrature(jf.values**2))
            assert sobolev_norm(f, s) == pytest.approx(quad, rel=1e-10)

    def test_2d_norms(self):
        g = Grid((32, 32))
        x1, x2 = (np.asarray(a) for a in g.x)
        f = Field(g, np.cos(x1) * np.cos(x2))
        # coefficients sqrt(L1 L2)/4 at the four modes (+-1, +-1), <xi>^2 = 3
        l2sq = 4 * (TWO_PI * TWO_PI / 16)
        assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(l2sq, rel=1e-12)
        assert sobolev_norm(f, 1.0) ** 2 == pytest.approx(3 * l2sq, rel=1e-12)


class TestCommutator:
    def test_constant_f_commutes(self):
        g = Grid(32)
        f = Field(g, np.full(32, 1.7))
        h = random_field(g, 3)
        out = commutator(SymbolCatalog.bessel(1.0), f, h)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_identity_symbol_commutes(self):
        g = Grid(32)
        f = random_field(g, 5)
        h = random_field(g, 6)
        out = commutator(SymbolCatalog.bessel(0.0), f, h)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_cos_cos_against_hand_expansion(self):
        # Oracle: cos^2 = 1/2 + cos(2x)/2, J^1 cos^2 = 1/2 + sqrt(5)/2 cos 2x,
        # cos * J^1 cos = sqrt(2) cos^2, so the commutator equals
        # (1 - sqrt 2)/2 + (sqrt 5 - sqrt 2)/2 cos 2x.
        g = Grid(32)
        x = np.asarray(g.x[0])
        f = Field(g, np.cos(x))
        out = commutator(SymbolCatalog.bessel(1.0), f, f)
        expected = (1 - math.sqrt(2)) / 2 + (math.sqrt(5) - math.sqrt(2)) / 2 * np.cos(2 * x)
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_bilinearity(self):
        g = Grid(32)
        sym = SymbolCatalog.bessel(1.0)
        f = random_field(g, 8)
        g1 = random_field(g, 9)
        g2 = random_field(g, 10)
        lhs = commutator(sym, f, g1 + g2)
        rhs = commutator(sym, f, g1) + commutator(sym, f, g2)
        scale = max(np.max(np.abs(rhs.values)), 1e-300)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * scale


class TestProducts:
    def test_dealiased_product_exact_for_low_modes(self):
        g = Grid(32)
        x = np.asarray(g.x[0])
        f = Field(g, np.cos(x))
        out = pair_product(f, f)
        assert np.max(np.abs(out.values - np.cos(x) ** 2)) < 1e-13

    def test_triple_quadrature_odd_harmonics(self):
        # The cubic term int eta |J^0 w|^2 of the functionals at eta = w = f.
        g = Grid(32)
        f = g.half(Field(g, np.cos(np.asarray(g.x[0]))).coeffs)
        assert abs(_cubic(g, f, f[None], 0.0)[0]) < 1e-13

    def test_triple_quadrature_value(self):
        # int 1 * cos^2(x) dx = pi on [0, 2 pi)
        g = Grid(32)
        f = g.half(Field(g, np.cos(np.asarray(g.x[0]))).coeffs)
        one = g.half(Field(g, np.ones(32)).coeffs)
        assert _cubic(g, one, f[None], 0.0)[0] == pytest.approx(math.pi, rel=1e-13)
