"""Every multiplier array comes from SymbolCatalog.

The reference builders below spell out each formula inline, on the full
lattice of ``full_spectrum.full``.  The catalog-built arrays, on the half
lattice, must agree bitwise with their half (``full_spectrum.half``); the Hamiltonian, the
low-capillarity metric and the half-spectrum weighted norm, whose arithmetic
differs from their references, must agree to an explicit relative tolerance.
"""

import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import wbwaves
from wbwaves.dynamics import _ops
from wbwaves.experiments import low_capillarity_error
from wbwaves.functionals import hamiltonian
from wbwaves.presets import random_bandlimited
from wbwaves import inequalities
from wbwaves.spectral import Field, Grid, SymbolCatalog
from wbwaves.state import Params, _norm_weights, _weighted_sq_coeffs

from full_spectrum import (
    apply_multiplier,
    coeffs,
    fields,
    full,
    half,
    inverse,
    sobolev_norm,
    transform,
)

GRIDS = [(256,), (64,), (128, 128), (16, 24)]
KAPPAS = [1.0, 0.37, 0.0]

# Grid quadrature of |grad eta|^2 and the Parseval sum agree to roundoff, as
# do sums over the full and the half spectrum.
HAMILTONIAN_RTOL = 1e-13


def _tanh_over_x(a):
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, 1.0, np.tanh(safe) / safe)


def _x_over_tanh(a):
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, 1.0, safe / np.tanh(safe))


def _inline_unit(grid):
    a = grid.xi_norm
    safe = np.where(a == 0.0, 1.0, a)
    unit = []
    for j in range(grid.dim):
        u = np.where(a == 0.0, 0.0, grid.xi[j] / safe)
        unit.append(np.where(grid.nyquist_mask, 0.0, u))
    return tuple(unit)


def inline_ops_arrays(grid, p, regularized):
    """The propagator and forcing arrays, each formula written inline."""
    a = grid.xi_norm
    out = {"heat_rate": p.kappa * p.mu * a**p.p if regularized else None}
    out["Kk"] = np.sqrt((1.0 + p.kappa * a * a) * _tanh_over_x(a))
    out["Kk_inv"] = 1.0 / out["Kk"]
    out["dx"] = tuple(
        np.where(grid.axis_nyquist(j), 0.0, 1j * grid.xi[j]) for j in range(grid.dim)
    )
    out["unit"] = _inline_unit(grid)
    out["phase"] = np.where(grid.nyquist_mask, 0.0, a * out["Kk"])
    forcing = tuple(-1j * (np.tanh(a) * e) for e in out["unit"])
    out["restoring"] = tuple(g * (1.0 + p.kappa * a * a) for g in forcing)
    # The forcing's transform weights: the masked forcing times the grid's
    # transform scaling, and the mask over sqrt(prod L).
    out["fwd_weight"] = tuple(
        np.where(grid.dealias_mask, g, 0.0) * grid._norm_factor for g in forcing
    )
    out["inv_weight"] = np.where(grid.dealias_mask, 1.0 / math.sqrt(math.prod(grid.length)), 0.0)
    return out


def quadrature_hamiltonian(state, params):
    """H with kappa*|grad eta|^2 by grid quadrature of spectral derivatives."""
    grid, lattice = state.grid, full(state.grid)
    eta, *vel = fields(state)
    quad = grid.cell * np.sum(eta.values**2)
    for dj in SymbolCatalog.gradient(lattice):
        d = apply_multiplier(dj, eta)
        quad += params.kappa * (grid.cell * np.sum(d.values**2))
    kinv2 = _x_over_tanh(lattice.xi_norm)
    eta_band = inverse(grid, np.where(lattice.dealias_mask, coeffs(eta), 0.0)).real
    cubic = 0.0
    for comp in vel:
        quad += float(np.sum(kinv2 * np.abs(coeffs(comp)) ** 2))
        v_band = inverse(grid, np.where(lattice.dealias_mask, coeffs(comp), 0.0)).real
        cubic += grid.cell * np.sum(eta_band * v_band * v_band)
    return 0.5 * (quad + cubic)


def parseval_count(grid):
    """Interior columns of the last axis stand for themselves and their
    Hermitian mirrors; columns 0 and n/2 for themselves."""
    m = grid.n[-1] // 2 + 1
    return np.array([1.0] + [2.0] * (m - 2) + [1.0])


def coefficient_low_capillarity_error(a, b):
    kinv2 = _x_over_tanh(full(a.grid).xi_norm)
    total = float(np.sum(np.abs(transform(a.grid, a.eta - b.eta)) ** 2))
    for va, vb in zip(a.vel, b.vel):
        total += float(np.sum(kinv2 * np.abs(transform(a.grid, va - vb)) ** 2))
    return math.sqrt(total)


def random_states(dim, count):
    grid = Grid(64) if dim == 1 else Grid((32, 32))
    return [
        random_bandlimited(grid, seed=100 + i, band=6 if dim == 1 else 5, amplitude=0.3 + 0.1 * i)
        for i in range(count)
    ]


class TestOpsArrays:
    @pytest.mark.parametrize("n,kappa,regularized", [
        (n, k, r) for n, k, r in product(GRIDS, KAPPAS, (False, True)) if not (r and k == 0)
    ])
    def test_every_array_bitwise_equal(self, n, kappa, regularized):
        """All arrays are equal element for element (== does not see the
        sign of zero real parts)."""
        grid = Grid(n)
        p = Params(kappa=kappa, mu=0.1 if regularized else 0.0, p=0.75 if regularized else 1.0)
        ops = _ops(grid, p)
        lattice = full(grid)
        want = inline_ops_arrays(lattice, p, regularized)
        # The state, and every _Ops array, holds the 2/3 band: the half
        # spectrum's modes that the mask keeps, in their order.
        keep = half(grid, lattice.dealias_mask)
        shape = (2 * grid.dealias_band(0) + 1,) * (grid.dim - 1) + (grid.dealias_band(-1) + 1,)

        def band(a):
            return a[..., keep].reshape(a.shape[: a.ndim - grid.dim] + shape)

        for name, ref in want.items():
            got = getattr(ops, name)
            if ref is None:
                assert got is None, name
                continue
            if name == "inv_weight":
                # On the band the mask is all true: the weight is one number.
                assert np.ndim(got) == 0 and got == ref[lattice.dealias_mask][0], name
                continue
            # Each _Ops array is the band of the half-spectrum slice, stacked over the axes.
            ref = np.stack([half(grid, r) for r in ref]) if isinstance(ref, tuple) else half(grid, ref)
            ref = band(ref)
            assert got.shape == ref.shape and got.dtype == ref.dtype, name
            assert np.array_equal(got, ref), name
        # The restoring multiplier G_j (1 + kappa|xi|^2) with G_j = -K^2 d_j is
        # the former -i tanh(xi)(1 + kappa xi^2) element for element in 1D; in
        # 2D it is -K^2 d_j (1 + kappa|xi|^2) to roundoff off the Nyquist
        # planes, and zero on them.
        cap = 1.0 + kappa * lattice.xi_norm * lattice.xi_norm
        for j, got in enumerate(ops.restoring):
            if grid.dim == 1:
                t = np.where(lattice.axis_nyquist(0), 0.0, np.tanh(lattice.xi[0]))
                assert np.array_equal(got, band(half(grid, -1j * t * cap)))
            else:
                nyq = band(half(grid, lattice.nyquist_mask))
                ref = band(half(grid, np.where(lattice.nyquist_mask, 0.0,
                                               -_tanh_over_x(lattice.xi_norm) * want["dx"][j] * cap)))
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
                assert not np.any(got[nyq])


class TestCatalogEntries:
    @pytest.mark.parametrize("n", GRIDS)
    def test_norm_weights_bitwise_equal(self, n):
        grid = Grid(n)
        a = grid.xi_norm
        assert np.array_equal(SymbolCatalog.d_over_tanh(grid), _x_over_tanh(a))
        for kappa in KAPPAS:
            cap = SymbolCatalog.capillary(grid, kappa)
            assert np.array_equal(cap, 1.0 + kappa * a * a)
        for s in (0.5, 0.7, 1.0, 1.75, 2.0, 3.3):
            bess = SymbolCatalog.bessel(grid, 2.0 * s - 1.0)
            assert np.array_equal(bess, (1.0 + a * a) ** (s - 0.5))
        for order in (-1.0, -0.25, 0.5, 1.0, 2.5):
            safe = np.where(a == 0.0, 1.0, a)
            riesz = SymbolCatalog.riesz(grid, 2.0 * order)
            assert np.array_equal(riesz, np.where(a == 0.0, 0.0, safe ** (2.0 * order)))
            assert np.array_equal(
                SymbolCatalog.bessel(grid, 2.0 * order), (1.0 + a * a) ** order
            )

    @pytest.mark.parametrize("n", [(128, 128), (16, 24)])
    def test_unit_vectors_and_curl_bitwise_equal(self, n):
        grid = Grid(n)
        for got, want in zip(SymbolCatalog.unit_vectors(grid), _inline_unit(grid)):
            assert np.array_equal(got, want)
        for j, got in enumerate(SymbolCatalog.gradient(grid)):
            d = np.where(grid.axis_nyquist(j), 0.0, grid.xi[j])
            assert np.array_equal(got, 1j * d)

    def test_sobolev_norm_weights(self):
        grid = Grid(64)
        f = Field(grid, random_bandlimited(grid, seed=4, band=6, amplitude=1.0).v)
        a = full(grid).xi_norm
        c2 = np.abs(coeffs(f)) ** 2
        for order in (0.0, 0.5, 1.0, 2.5):
            assert sobolev_norm(f, order) == math.sqrt(np.sum((1.0 + a * a) ** order * c2))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_weighted_sq_coeffs_equals_full_spectrum_sum(self, dim):
        """The half-spectrum sum of a state's packed coefficients equals the
        inline formula summed over its full spectrum."""
        for st in random_states(dim, 4):
            a = full(st.grid).xi_norm
            for s, kappa in product((0.5, 1.0, 2.0), KAPPAS):
                bess = (1.0 + a * a) ** (s - 0.5)
                eta, *vel = fields(st)
                want = np.sum(bess * (1.0 + kappa * a * a) * np.abs(coeffs(eta)) ** 2)
                for c in vel:
                    want += np.sum(bess * _x_over_tanh(a) * np.abs(coeffs(c)) ** 2)
                got = _weighted_sq_coeffs(st.grid, st.packed(), s, kappa)
                assert got == pytest.approx(float(want), rel=HAMILTONIAN_RTOL)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_norm_weight_table_equals_catalog_products(self, dim):
        """The weights are the half slices of the full-lattice catalog products
        times the Parseval column count, element for element."""
        for n in (n for n in GRIDS if len(n) == dim):
            grid = Grid(n)
            lattice, count = full(grid), parseval_count(grid)
            for s, kappa in product((0.5, 1.0, 2.0), KAPPAS):
                eta_w, vel_w = _norm_weights(grid, s, kappa)
                bess = SymbolCatalog.bessel(lattice, 2.0 * s - 1.0)
                cap = SymbolCatalog.capillary(lattice, kappa)
                kinv2 = SymbolCatalog.d_over_tanh(lattice)
                assert np.array_equal(eta_w, half(grid, bess * cap) * count)
                assert np.array_equal(vel_w, half(grid, bess * kinv2) * count)
                assert not (eta_w.flags.writeable or vel_w.flags.writeable)
                assert _norm_weights(Grid(n), s, kappa)[0] is eta_w


HALF_LATTICE_GRIDS = [
    Grid(16), Grid(64, 3.7), Grid(18, 100.0),
    Grid((32, 32)), Grid((16, 24), (2.0, 9.5)), Grid((12, 40)), Grid((8, 12), (1e-3, 50.0)),
]

# Each catalog entry with the arguments it is checked at, every entry listed.
CATALOG_CALLS = {
    "riesz": [(-1.0,), (0.0,), (0.5,), (2.0,)],
    "bessel": [(-1.0,), (0.0,), (0.7,), (3.0,)],
    "capillary": [(0.0,), (0.37,), (1.0,)],
    "K_kappa": [(0.0,), (1.0,)],
    "K_kappa_inv": [(0.0,), (1.0,)],
    "d_over_tanh": [()],
    "gradient": [()],
    "unit_vectors": [()],
    "forcing": [()],
    "frequency": [(0.0,), (1.0,)],
}


def same_bits(got, want):
    """Equal shape, dtype and bytes: the sign of zero counts."""
    return (
        got.shape == want.shape and got.dtype == want.dtype
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


@pytest.mark.parametrize("grid", HALF_LATTICE_GRIDS, ids=lambda g: f"{g.n}-{g.length[0]:g}")
class TestHalfLattice:
    """Every spectral array of ``Grid`` and every catalog entry lives on the
    half lattice (*n[:-1], n[-1]//2 + 1) and is, bit for bit, the half of
    its full-lattice reference in ``full_spectrum``."""

    def test_grid_arrays(self, grid):
        shape = (*grid.n[:-1], grid.n[-1] // 2 + 1)
        assert grid.half_shape == shape
        lattice = full(grid)
        pairs = [(grid.xi_norm, lattice.xi_norm), (grid.nyquist_mask, lattice.nyquist_mask),
                 (grid.dealias_mask, lattice.dealias_mask)]
        for j in range(grid.dim):
            pairs += [(grid.xi[j], lattice.xi[j]), (grid.axis_nyquist(j), lattice.axis_nyquist(j))]
        for got, ref in pairs:
            assert got.shape == shape and not got.flags.writeable
            assert same_bits(got, half(grid, ref))
        # The multiplicity is the former Parseval count of the half columns.
        assert grid.multiplicity.shape == shape and not grid.multiplicity.flags.writeable
        assert same_bits(grid.multiplicity, half(grid, 1.0) * parseval_count(grid))
        # The Nyquist wavenumber keeps fftfreq's sign (rfftfreq's is +).
        assert grid.xi[-1].flat[-1] < 0

    def test_catalog_entries(self, grid):
        shape = (*grid.n[:-1], grid.n[-1] // 2 + 1)
        entries = {name for name, fn in vars(SymbolCatalog).items() if isinstance(fn, staticmethod)}
        assert entries == set(CATALOG_CALLS)
        for name, calls in CATALOG_CALLS.items():
            entry = getattr(SymbolCatalog, name)
            for args in calls:
                got, ref = entry(grid, *args), entry(full(grid), *args)
                if isinstance(got, tuple):
                    assert len(got) == len(ref) == grid.dim, name
                else:
                    got, ref = (got,), (ref,)
                for a, b in zip(got, ref):
                    assert a.shape == shape, (name, args)
                    assert same_bits(a, half(grid, b)), (name, args)

    def test_symbol_chain_counts_the_full_lattice(self, grid):
        report = inequalities.symbol_chain_report(grid)
        assert report.checked == report.passed == int(np.prod(grid.n)) - 1


class TestEnergyByParseval:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_hamiltonian_matches_quadrature(self, dim):
        for i, st in enumerate(random_states(dim, 20)):
            params = Params(kappa=KAPPAS[i % 3])
            want = quadrature_hamiltonian(st, params)
            assert hamiltonian(st, params) == pytest.approx(want, rel=HAMILTONIAN_RTOL)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_low_capillarity_error_matches(self, dim):
        states = random_states(dim, 21)
        for a, b in zip(states, states[1:]):
            want = coefficient_low_capillarity_error(a, b)
            assert low_capillarity_error(a, b) == pytest.approx(want, rel=HAMILTONIAN_RTOL)


def test_only_spectral_spells_out_tanh():
    """No module but spectral (and the deliberately explicit symbol chain in
    inequalities) calls np.tanh or imports the tanh ratio helpers."""
    allowed = {"spectral.py", "inequalities.py"}
    offenders = []
    for path in sorted(Path(wbwaves.__file__).parent.glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "tanh"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                offenders.append(f"{path.name}:{node.lineno} np.tanh")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in ("_tanh_over_x", "_x_over_tanh"):
                        offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def test_half_spectrum_is_the_only_spectral_path():
    """No module calls (or imports) np.fft.fftn or np.fft.ifftn but inside
    ``Field.from_coeffs``, which bench/tracer.py wraps by name; Grid and Field
    keep no full-spectrum transform, Grid no ``half`` and no module calls a
    ``.half(``.  ``Field`` is the tests' full-spectrum
    reference only: no module but spectral names it, and it has no
    arithmetic and no ``linf`` (a state is one samples array)."""
    full = ("fftn", "ifftn")
    offenders = []
    naming = []

    def visit(node, where, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, where + (child.name,), name)
                continue
            called = isinstance(child, ast.Attribute) and child.attr in full
            imported = isinstance(child, ast.alias) and child.name.split(".")[-1] in full
            if (called or imported) and where != ("Field", "from_coeffs"):
                offenders.append(f"{name}:{child.lineno} {'.'.join(where)}")
            visit(child, where, name)

    for path in sorted(Path(wbwaves.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, (), path.name)
        if path.name != "spectral.py":
            naming += [
                f"{path.name}:{getattr(node, 'lineno', '')}"
                for node in ast.walk(tree)
                if "Field" in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None), getattr(node, "value", None),
                )
            ]
    assert offenders == []
    assert naming == []
    arithmetic = ("__add__", "__sub__", "__mul__", "__neg__", "linf")
    assert [name for name in arithmetic if hasattr(Field, name)] == []
    gone = ("transform", "inverse", "coeff_index", "zero_field", "half")
    assert [name for name in gone if hasattr(Grid, name)] == []
    assert not hasattr(Field, "coeffs")
    assert not hasattr(inequalities, "multiply")
    # Every spectral array is born on the half lattice: nothing cuts one down.
    halving = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(wbwaves.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "half"
    ]
    assert halving == []
