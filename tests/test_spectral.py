import inspect
import math
import warnings

import numpy as np
import pytest

from wbwaves import spectral
from wbwaves.inequalities import commutator, product, sobolev_norms
from wbwaves.spectral import Field, Grid, SpectralError, SymbolCatalog

from full_spectrum import (apply_multiplier, coeffs, full, index, linf, one_transform_cubic,
                           transform)
from full_spectrum import half as cut

TWO_PI = 2 * math.pi


def half(f):
    """The half spectrum of a field, the layout of the packed operators."""
    return cut(f.grid, coeffs(f))


def random_field(grid, seed, band=6, amplitude=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.shape, dtype=np.complex128)
    if grid.dim == 1:
        for k in range(1, band + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[index(grid, k)] = z
            c[index(grid, -k)] = np.conj(z)
    else:
        for k1 in range(0, band + 1):
            for k2 in range(-band, band + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                z = complex(rng.standard_normal(), rng.standard_normal())
                c[index(grid, (k1, k2))] = z
                c[index(grid, (-k1, -k2))] = np.conj(z)
    f = Field.from_coeffs(grid, c)
    return Field(grid, (amplitude / linf(f)) * f.values)


class TestGrid:
    def test_wavenumbers_symmetric_except_nyquist(self):
        # The half lattice holds k = 0 .. 7 and the unpaired Nyquist mode,
        # which fftfreq numbers -8; the modes -7 .. -1 are their mirrors.
        g = Grid(16)
        xi = np.asarray(g.xi[0])
        full_xi = np.asarray(full(g).xi[0])
        assert xi[0] == 0.0
        for k in range(1, 8):
            assert xi[k] == full_xi[k] == -full_xi[-k]
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
        back = g.inverse_half(g.forward_half(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_parseval(self):
        g = Grid(64, 5.0)
        f = random_field(g, 7)
        quad = g.cell * np.sum(f.values**2)
        spec = float(np.sum(np.abs(coeffs(f)) ** 2))
        assert abs(quad - spec) <= 1e-12 * abs(quad)


class TestTransform:
    def test_constant_field_single_coefficient(self):
        g = Grid(16)
        c = g.forward_half(np.ones(16))
        assert abs(c[0] - math.sqrt(TWO_PI)) < 1e-13
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_cosine_two_coefficients(self):
        g = Grid(16)
        c = transform(g, np.cos(np.asarray(g.x[0])))
        nonzero = np.flatnonzero(np.abs(c) > 1e-13)
        assert sorted(nonzero) == [index(g, 1), index(g, -1)]

    def test_random_real_field_is_hermitian(self):
        g = Grid(32)
        rng = np.random.default_rng(3)
        c = transform(g, rng.standard_normal(32))
        for k in range(1, 16):
            assert c[index(g, -k)] == pytest.approx(np.conj(c[index(g, k)]), abs=1e-13)

    def test_rejects_non_finite(self):
        g = Grid(16)
        v = np.zeros(16)
        v[3] = np.nan
        with pytest.raises(SpectralError, match=r"non-finite sample at grid index \(3,\)$"):
            Field(g, v)


class TestMultiply:
    def test_forcing_on_sine(self):
        # Single-mode computation: sin x has coefficients -+ i/2 at k = +-1;
        # the 1D forcing -i tanh(xi) gives -tanh(1)/2 at both, i.e.
        # -tanh(1) cos x.
        g = Grid(32)
        f = Field(g, np.sin(np.asarray(g.x[0])))
        out = g.inverse_half(SymbolCatalog.forcing(g)[0] * half(f))
        expected = -math.tanh(1.0) * np.cos(np.asarray(g.x[0]))
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_bessel_zero_is_identity(self):
        g = Grid(32)
        f = random_field(g, 11)
        out = g.inverse_half(SymbolCatalog.bessel(g, 0.0) * half(f))
        assert np.max(np.abs(out - f.values)) < 1e-13

    def test_d_over_tanh_fixes_constants(self):
        g = Grid(16)
        f = Field(g, np.ones(16))
        out = g.inverse_half(SymbolCatalog.d_over_tanh(g) * half(f))
        assert np.max(np.abs(out - 1.0)) < 1e-13

    def test_overflowing_symbol_names_wavenumber(self):
        # <xi>^2000 = 5^1000 at |xi| = 2 is past the float range: the entry
        # is refused by name, at a plain-float wavenumber, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SpectralError, match=r"^symbol '<xi>\^2000' is not finite at wavenumber 2\.0$"
            ):
                SymbolCatalog.bessel(Grid(64), 2000.0)

    def test_composition_bessel(self):
        g = Grid(32)
        c = half(random_field(g, 13))
        one = g.inverse_half(SymbolCatalog.bessel(g, 0.7) * (SymbolCatalog.bessel(g, 0.8) * c))
        two = g.inverse_half(SymbolCatalog.bessel(g, 1.5) * c)
        scale = max(np.max(np.abs(two)), 1e-300)
        assert np.max(np.abs(one - two)) <= 1e-12 * scale

    def test_riesz_negative_annihilates_mean(self):
        g = Grid(16)
        f = Field(g, 2.0 + np.cos(np.asarray(g.x[0])))
        out = SymbolCatalog.riesz(g, -1.0) * half(f)
        assert abs(out[0]) < 1e-14

    def test_realness_of_dynamics_composites(self):
        # On the full spectrum: Field.from_coeffs enforces the residue bound.
        g = Grid(64)
        f = random_field(g, 17)
        lattice = full(g)
        for sym in [
            SymbolCatalog.forcing(lattice)[0],
            SymbolCatalog.gradient(lattice)[0],
            SymbolCatalog.riesz(lattice, 1.0),
            SymbolCatalog.K_kappa(lattice, 0.5),
            SymbolCatalog.K_kappa_inv(lattice, 0.5),
        ]:
            out = apply_multiplier(sym, f)
            assert np.all(np.isfinite(out.values))


class TestSymbolCatalog:
    def test_patched_values_at_zero(self):
        g = Grid(16)
        for sym, want in [
            (SymbolCatalog.K_kappa(g, 2.0), 1.0),
            (SymbolCatalog.K_kappa_inv(g, 2.0), 1.0),
            (SymbolCatalog.d_over_tanh(g), 1.0),
            (SymbolCatalog.riesz(g, 1.0), 0.0),
            (SymbolCatalog.riesz(g, -0.5), 0.0),
            (SymbolCatalog.riesz(g, 0.0), 1.0),
            (SymbolCatalog.riesz(g, -1.0), 0.0),
            (SymbolCatalog.bessel(g, 3.0), 1.0),
            (SymbolCatalog.capillary(g, 2.0), 1.0),
        ]:
            assert sym[index(g, 0)] == want

    def test_radial_profiles_never_see_zero(self, monkeypatch):
        """Each radial entry gives ``_radial`` its value at xi = 0, so no
        profile is evaluated there, removable singularity or not."""
        seen = {}
        radial = spectral._radial

        def spy(grid, name, profile, *rest):
            def recorded(a):
                seen[name] = min(seen.get(name, math.inf), float(np.min(np.abs(a))))
                return profile(a)

            return radial(grid, name, recorded, *rest)

        monkeypatch.setattr(spectral, "_radial", spy)
        for g in (Grid(16), Grid((8, 12))):
            SymbolCatalog.riesz(g, -1.0)
            SymbolCatalog.riesz(g, 0.5)
            SymbolCatalog.bessel(g, -2.0)
            SymbolCatalog.capillary(g, 2.0)
            SymbolCatalog.K_kappa_inv(g, 2.0)
            SymbolCatalog.d_over_tanh(g)
        assert sorted(seen) == sorted(["|xi|^-1", "|xi|^0.5", "<xi>^-2", "1+2|xi|^2",
                                       "K_kappa(kappa=2)", "xi/tanh(xi)"])
        assert all(low > 0 for low in seen.values()), seen

    def test_k_kappa_matches_definition(self):
        g = Grid(32)
        xi = np.abs(np.asarray(g.xi[0]))
        vals = SymbolCatalog.K_kappa(g, 0.7)
        mask = xi > 0
        want = np.sqrt((1 + 0.7 * xi[mask] ** 2) * np.tanh(xi[mask]) / xi[mask])
        assert np.allclose(vals[mask], want, rtol=1e-14)

    @pytest.mark.parametrize("n", [16, (8, 12)])
    def test_gradient_zero_on_nyquist_only(self, n):
        g = Grid(n)
        for j, d in enumerate(SymbolCatalog.gradient(g)):
            xi, nyquist = g.xi[j], g.axis_nyquist(j)
            assert np.all(d[nyquist] == 0.0)
            assert np.array_equal(d[~nyquist], 1j * xi[~nyquist])

    def test_every_entry_takes_the_grid_first(self):
        entries = [
            name for name, fn in vars(SymbolCatalog).items()
            if isinstance(fn, staticmethod) and not name.startswith("_")
        ]
        assert entries
        for name in entries:
            first = next(iter(inspect.signature(getattr(SymbolCatalog, name)).parameters))
            assert first == "grid", name


class TestSobolevNorm:
    def test_h1_of_cosine(self):
        # Parseval oracle: cos has coefficients sqrt(2 pi)/2 at k = +-1, so
        # ||cos||_{H^1}^2 = <1>^2 * 2 * (2 pi / 4) = 2 pi.
        g = Grid(64)
        f = Field(g, np.cos(np.asarray(g.x[0])))
        assert sobolev_norms(g, half(f), 1.0) ** 2 == pytest.approx(TWO_PI, rel=1e-13)

    def test_h0_equals_l2(self):
        g = Grid(64)
        f = random_field(g, 23)
        l2 = math.sqrt(g.cell * np.sum(f.values**2))
        assert sobolev_norms(g, half(f), 0.0) == pytest.approx(l2, rel=1e-12)

    def test_plancherel_consistency(self):
        # Coefficient-space norm against grid quadrature of |J^s f|^2.
        g = Grid(64)
        c = half(random_field(g, 31))
        for s in (0.5, 1.0, 1.5, -0.5):
            jf = g.inverse_half(SymbolCatalog.bessel(g, s) * c)
            quad = math.sqrt(g.cell * np.sum(jf**2))
            assert sobolev_norms(g, c, s) == pytest.approx(quad, rel=1e-10)

    def test_2d_norms(self):
        g = Grid((32, 32))
        x1, x2 = (np.asarray(a) for a in g.x)
        c = half(Field(g, np.cos(x1) * np.cos(x2)))
        # coefficients sqrt(L1 L2)/4 at the four modes (+-1, +-1), <xi>^2 = 3
        l2sq = 4 * (TWO_PI * TWO_PI / 16)
        assert sobolev_norms(g, c, 0.0) ** 2 == pytest.approx(l2sq, rel=1e-12)
        assert sobolev_norms(g, c, 1.0) ** 2 == pytest.approx(3 * l2sq, rel=1e-12)

    def test_rows_of_a_stack(self):
        g = Grid(64)
        stack = np.stack([half(random_field(g, seed)) for seed in (1, 2, 3)])
        rows = sobolev_norms(g, stack, 1.5)
        assert rows.shape == (3,)
        for row, c in zip(rows, stack):
            assert row == sobolev_norms(g, c, 1.5)


class TestCommutator:
    def test_constant_f_commutes(self):
        g = Grid(32)
        f = half(Field(g, np.full(32, 1.7)))
        h = half(random_field(g, 3))
        out = g.inverse_half(commutator(g, SymbolCatalog.bessel(g, 1.0), f, h))
        assert np.max(np.abs(out)) < 1e-13

    def test_identity_symbol_commutes(self):
        g = Grid(32)
        f = half(random_field(g, 5))
        h = half(random_field(g, 6))
        out = g.inverse_half(commutator(g, SymbolCatalog.bessel(g, 0.0), f, h))
        assert np.max(np.abs(out)) < 1e-13

    def test_cos_cos_against_hand_expansion(self):
        # Oracle: cos^2 = 1/2 + cos(2x)/2, J^1 cos^2 = 1/2 + sqrt(5)/2 cos 2x,
        # cos * J^1 cos = sqrt(2) cos^2, so the commutator equals
        # (1 - sqrt 2)/2 + (sqrt 5 - sqrt 2)/2 cos 2x.
        g = Grid(32)
        x = np.asarray(g.x[0])
        f = half(Field(g, np.cos(x)))
        out = g.inverse_half(commutator(g, SymbolCatalog.bessel(g, 1.0), f, f))
        expected = (1 - math.sqrt(2)) / 2 + (math.sqrt(5) - math.sqrt(2)) / 2 * np.cos(2 * x)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_bilinearity(self):
        g = Grid(32)
        sym = SymbolCatalog.bessel(g, 1.0)
        f, g1, g2 = (half(random_field(g, seed)) for seed in (8, 9, 10))
        lhs = g.inverse_half(commutator(g, sym, f, g1 + g2))
        rhs = g.inverse_half(commutator(g, sym, f, g1) + commutator(g, sym, f, g2))
        scale = max(np.max(np.abs(rhs)), 1e-300)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestProducts:
    def test_dealiased_product_exact_for_low_modes(self):
        g = Grid(32)
        x = np.asarray(g.x[0])
        f = half(Field(g, np.cos(x)))
        out = g.inverse_half(product(g, f, f))
        assert np.max(np.abs(out - np.cos(x) ** 2)) < 1e-13

    def test_triple_quadrature_odd_harmonics(self):
        # The cubic term int eta |J^0 w|^2 of the functionals at eta = w = f.
        g = Grid(32)
        f = half(Field(g, np.cos(np.asarray(g.x[0]))))
        assert abs(one_transform_cubic(g, f, f[None], 0.0)[0]) < 1e-13

    def test_triple_quadrature_value(self):
        # int 1 * cos^2(x) dx = pi on [0, 2 pi)
        g = Grid(32)
        f = half(Field(g, np.cos(np.asarray(g.x[0]))))
        one = half(Field(g, np.ones(32)))
        assert one_transform_cubic(g, one, f[None], 0.0)[0] == pytest.approx(math.pi, rel=1e-13)
