import math

import numpy as np
import pytest

from wbwaves.functionals import (
    EnergyReport,
    difference_energy,
    hamiltonian,
    modified_energy,
    smallness_threshold,
)
from wbwaves.presets import gaussian_bump, random_bandlimited, single_mode
from wbwaves.spectral import Field, Grid, SpectralError
from wbwaves.state import Params, WaveState, _weighted_sq_coeffs, weighted_pair_norm

from full_spectrum import (
    apply_multiplier,
    coeffs,
    fields,
    full,
    index,
    inverse,
    one_transform_cubic,
    sobolev_norm,
    state_of,
    transform,
    zero,
)

TWO_PI = 2 * math.pi


def momentum(state, params):
    """The report's momentum column, int eta (D/tanh D) v dx; NaN in 2D."""
    return EnergyReport.measure(state, params).momentum


def cos_field(grid, k=1):
    return Field(grid, np.cos(k * np.asarray(grid.x[0])))


def triple_quadrature(f, g, h):
    """Grid quadrature of f*g*h with each factor cut to the 2/3 band."""
    grid = f.grid
    mask = full(grid).dealias_mask
    fv, gv, hv = (inverse(grid, np.where(mask, coeffs(x), 0.0)).real for x in (f, g, h))
    return grid.cell * np.sum(fv * gv * hv)


def coercivity_ratio(state, params):
    """Modified energy over half the squared weighted norm: 1 when eta
    vanishes, and inside a fixed bracket under non-cavitation."""
    return modified_energy(state, params) / (
        0.5 * weighted_pair_norm(state, params.s, params.kappa) ** 2
    )


def brute_force_energy(state, params, refine=4):
    """Independent oracle: norms summed mode by mode from the definition,
    cubic term by quadrature on a spectrally interpolated finer grid."""
    grid = state.grid
    fine = Grid(tuple(refine * m for m in grid.n), grid.length)
    eta, *vel = fields(state)

    def interp(f):
        c = np.zeros(fine.shape, dtype=np.complex128)
        n = grid.n[0]
        for k in range(-n // 2 + 1, n // 2):
            if grid.dim == 1:
                c[index(fine, k)] = coeffs(f)[index(grid, k)]
            else:
                for k2 in range(-grid.n[1] // 2 + 1, grid.n[1] // 2):
                    c[index(fine, (k, k2))] = coeffs(f)[index(grid, (k, k2))]
        return inverse(fine, c).real

    s = params.s
    # weighted norm, written out mode by mode
    total = 0.0
    a = full(grid).xi_norm
    for idx in np.ndindex(grid.shape):
        w = (1 + a[idx] ** 2) ** (s - 0.5)
        total += w * (1 + params.kappa * a[idx] ** 2) * abs(coeffs(eta)[idx]) ** 2
        ktrm = a[idx] / math.tanh(a[idx]) if a[idx] > 0 else 1.0
        for comp in vel:
            total += w * ktrm * abs(coeffs(comp)[idx]) ** 2
    # cubic term on the fine grid
    eta_f = interp(eta)
    cubic = 0.0
    for comp in vel:
        bess = (1 + a * a) ** ((s - 0.5) / 2.0)
        jv = Field.from_coeffs(grid, bess * coeffs(comp))
        jv_f = interp(jv)
        cubic += fine.cell * np.sum(eta_f * jv_f * jv_f)
    return 0.5 * total + 0.5 * cubic


class TestHamiltonian:
    def test_cosine_elevation(self):
        g = Grid(64)
        st = state_of(cos_field(g), zero(g))
        assert hamiltonian(st, Params(kappa=1.0)) == pytest.approx(math.pi, rel=1e-13)

    def test_cosine_velocity(self):
        # 1/2 * (1/tanh 1) * ||cos||_L2^2 = (pi/2) / tanh(1)
        g = Grid(64)
        st = state_of(zero(g), cos_field(g))
        want = 0.5 * math.pi / math.tanh(1.0)
        assert hamiltonian(st, Params(kappa=0.3)) == pytest.approx(want, rel=1e-13)

    def test_zero_state(self):
        g = Grid(16)
        assert hamiltonian(WaveState.zero(g), Params()) == 0.0

    def test_translation_invariance(self):
        g = Grid(64)
        st = random_bandlimited(g, seed=2, band=6, amplitude=0.3)
        params = Params(kappa=0.7, s=1.0)
        rolled = WaveState(g, np.roll(st.samples, 9, axis=-1))
        for fn in (hamiltonian, momentum, modified_energy):
            a, b = fn(st, params), fn(rolled, params)
            assert abs(b - a) <= 1e-10 * max(abs(a), 1)

    def test_quadratic_part_is_half_weighted_norm(self):
        # dropping the cubic term leaves exactly half the squared s = 1/2
        # weighted norm (same coefficient sums on both sides)
        g = Grid(64)
        st = random_bandlimited(g, seed=12, band=6, amplitude=0.3)
        params = Params(kappa=0.9, s=0.5)
        eta, v = fields(st)
        cubic = 0.5 * triple_quadrature(eta, v, v)
        quad_part = hamiltonian(st, params) - cubic
        want = 0.5 * weighted_pair_norm(st, 0.5, params.kappa) ** 2
        assert quad_part == pytest.approx(want, rel=1e-12)

    def test_2d_value(self):
        # eta = a cos x1, v = 0: H = a^2/2 (1 + kappa) * L2^2-type integral
        g = Grid((32, 32))
        x1 = np.asarray(g.x[0])
        eta = Field(g, 0.2 * np.cos(x1) * np.ones(g.shape))
        st = state_of(eta, zero(g), zero(g))
        want = 0.5 * (1 + 0.5) * 0.04 * math.pi * TWO_PI
        assert hamiltonian(st, Params(kappa=0.5)) == pytest.approx(want, rel=1e-12)


class TestMomentum:
    def test_cosine_pair(self):
        g = Grid(64)
        st = state_of(cos_field(g), cos_field(g))
        want = math.pi / math.tanh(1.0)
        assert momentum(st, Params()) == pytest.approx(want, rel=1e-13)

    def test_zero_velocity(self):
        g = Grid(32)
        st = state_of(cos_field(g), zero(g))
        assert momentum(st, Params()) == 0.0

    def test_orthogonal_modes(self):
        g = Grid(64)
        st = state_of(cos_field(g, 1), cos_field(g, 2))
        assert abs(momentum(st, Params())) < 1e-14

    def test_nan_in_2d(self):
        g = Grid((16, 16))
        assert math.isnan(momentum(WaveState.zero(g), Params()))


class TestWeightedPairNorm:
    def test_zero_state(self):
        g = Grid(16)
        assert weighted_pair_norm(WaveState.zero(g), 1.0, 1.0) == 0.0

    def test_cosine_at_half(self):
        # kappa ||dx cos||_L2^2 + ||cos||_L2^2 = pi + pi at kappa = 1, s = 1/2
        g = Grid(64)
        st = state_of(cos_field(g), zero(g))
        assert weighted_pair_norm(st, 0.5, 1.0) == pytest.approx(math.sqrt(TWO_PI), rel=1e-13)

    def test_kappa_zero_reduction(self):
        g = Grid(64)
        st = random_bandlimited(g, seed=4, band=5, amplitude=0.5)
        from wbwaves.spectral import SymbolCatalog

        k_inv = np.sqrt(SymbolCatalog.d_over_tanh(full(g)))
        eta, v = fields(st)
        kinv_v = apply_multiplier(k_inv, v)
        want = math.sqrt(
            sobolev_norm(eta, 0.5) ** 2 + sobolev_norm(kinv_v, 0.5) ** 2
        )
        assert weighted_pair_norm(st, 1.0, 0.0) == pytest.approx(want, rel=1e-11)


class TestModifiedEnergy:
    def test_equals_hamiltonian_at_half(self):
        g = Grid(64)
        params = Params(kappa=0.8, s=0.5)
        for seed in range(12):
            st = random_bandlimited(g, seed=seed, band=8, amplitude=0.2)
            h = hamiltonian(st, params)
            e = modified_energy(st, params)
            assert abs(e - h) <= 1e-12 * max(abs(h), 1e-6)

    def test_modifier_drops_for_flat_surface(self):
        g = Grid(64)
        st = state_of(zero(g), cos_field(g))
        params = Params(kappa=1.0, s=1.5)
        want = 0.5 * weighted_pair_norm(st, 1.5, 1.0) ** 2
        assert modified_energy(st, params) == pytest.approx(want, rel=1e-13)

    def test_against_brute_force_oracle(self):
        g = Grid(32)
        params = Params(kappa=1.0, s=1.5)
        st = state_of(cos_field(g), cos_field(g))
        want = brute_force_energy(st, params)
        assert modified_energy(st, params) == pytest.approx(want, rel=1e-11)

    def test_random_state_against_oracle(self):
        g = Grid(32)
        params = Params(kappa=0.4, s=1.25)
        st = random_bandlimited(g, seed=9, band=5, amplitude=0.4)
        want = brute_force_energy(st, params)
        assert modified_energy(st, params) == pytest.approx(want, rel=1e-11)


class TestDifferenceEnergy:
    def test_identical_states(self):
        g = Grid(32)
        st = random_bandlimited(g, seed=1, band=5, amplitude=0.3)
        assert difference_energy(st, st, 0.5, Params(s=1.5)) == 0.0

    def test_zero_second_state_unwinds(self):
        g = Grid(32)
        params = Params(kappa=0.6, s=1.5)
        st = random_bandlimited(g, seed=2, band=5, amplitude=0.3)
        zero = WaveState.zero(g)
        from wbwaves.spectral import SymbolCatalog

        r = 0.75
        eta, v = fields(st)
        jw = apply_multiplier(SymbolCatalog.bessel(full(g), r - 0.5), v)
        want = 0.5 * (
            params.kappa * sobolev_norm(eta, r + 0.5) ** 2
            + sobolev_norm(v, r) ** 2
            + triple_quadrature(eta, jw, jw)
        )
        assert difference_energy(st, zero, r, params) == pytest.approx(want, rel=1e-12)

    def test_perturbed_pair_against_dense_oracle(self):
        g = Grid(32)
        params = Params(kappa=1.0, s=1.5)
        a = random_bandlimited(g, seed=3, band=5, amplitude=0.3)
        b = random_bandlimited(g, seed=4, band=5, amplitude=0.28)
        r = 1.0
        # oracle: difference energy is the r-energy of (theta, w) plus the
        # eta_1-weighted cubic term; reuse the brute-force machinery.
        theta = Field(g, a.eta - b.eta)
        w = Field(g, a.v - b.v)
        fine = Grid((128,), g.length)
        c_eta = np.zeros(fine.shape, dtype=np.complex128)
        c_jw = np.zeros(fine.shape, dtype=np.complex128)
        bess = (1 + full(g).xi_norm ** 2) ** ((r - 0.5) / 2)
        jw = Field.from_coeffs(g, bess * coeffs(w))
        for k in range(-15, 16):
            c_eta[index(fine, k)] = transform(g, a.eta)[index(g, k)]
            c_jw[index(fine, k)] = coeffs(jw)[index(g, k)]
        cubic = fine.cell * np.sum(inverse(fine, c_eta).real * inverse(fine, c_jw).real ** 2)
        want = 0.5 * (
            params.kappa * sobolev_norm(theta, r + 0.5) ** 2
            + sobolev_norm(w, r) ** 2
            + cubic
        )
        assert difference_energy(a, b, r, params) == pytest.approx(want, rel=1e-11)

    def test_grid_mismatch_rejected(self):
        a = random_bandlimited(Grid(32), seed=1, band=5, amplitude=0.1)
        b = random_bandlimited(Grid(64), seed=1, band=5, amplitude=0.1)
        with pytest.raises(SpectralError, match="same grid"):
            difference_energy(a, b, 0.5, Params(s=1.5))


class TestSmallness:
    def test_default(self):
        assert smallness_threshold() == 0.05

    def test_override(self):
        assert smallness_threshold(0.01) == 0.01

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            smallness_threshold(-0.1)


class TestCoercivity:
    def test_flat_surface_gives_one(self):
        g = Grid(32)
        st = state_of(zero(g), cos_field(g))
        assert coercivity_ratio(st, Params(s=1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_small_states_near_one(self):
        g = Grid(64)
        params = Params(kappa=1.0, s=1.0)
        for seed in range(5):
            st = random_bandlimited(g, seed=seed, band=6, amplitude=1.0)
            scale = 0.05 / weighted_pair_norm(st, params.s, params.kappa)
            small = WaveState(g, scale * st.samples)
            assert 0.9 <= coercivity_ratio(small, params) <= 1.1

    def test_negative_elevation_lowers_ratio(self):
        g = Grid(64)
        st = state_of(Field(g, -np.ones(64)), Field(g, 3.0 * cos_field(g).values))
        assert coercivity_ratio(st, Params(kappa=1.0, s=1.0)) < 1.0


class TestRefinementStability:
    def test_functionals_stable_under_refinement(self):
        coarse = Grid(64)
        fine = Grid(128)
        params = Params(kappa=0.9, s=1.25)
        st = random_bandlimited(coarse, seed=5, band=8, amplitude=0.3)
        eta, v = fields(st)
        c_eta = np.zeros(fine.shape, dtype=np.complex128)
        c_v = np.zeros(fine.shape, dtype=np.complex128)
        for k in range(-31, 32):
            c_eta[index(fine, k)] = coeffs(eta)[index(coarse, k)]
            c_v[index(fine, k)] = coeffs(v)[index(coarse, k)]
        st2 = state_of(Field.from_coeffs(fine, c_eta), Field.from_coeffs(fine, c_v))
        for fn in (hamiltonian, momentum, modified_energy):
            a, b = fn(st, params), fn(st2, params)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-6)
        a = weighted_pair_norm(st, params.s, params.kappa)
        b = weighted_pair_norm(st2, params.s, params.kappa)
        assert abs(a - b) <= 1e-10 * a


class TestEnergyReport:
    def test_energies_tie_at_half(self):
        g = Grid(32)
        st = random_bandlimited(g, seed=8, band=4, amplitude=0.2)
        rep = EnergyReport.measure(st, Params(kappa=1.0, s=0.5))
        assert rep.modified_energy == rep.hamiltonian

    @pytest.mark.parametrize("amplitude", [1e-170, 1e-300])
    @pytest.mark.parametrize("n", [32, (16, 16)])
    def test_linf_v_of_a_velocity_whose_squares_underflow(self, n, amplitude):
        """linf_v is the largest |v| even where |v|^2 underflows: exactly in
        1D, within 1e-15 of np.hypot in 2D; a state of ordinary size beside it
        in the stack keeps its value."""
        g = Grid(n)
        st = single_mode(g, 0.1, v_amplitude=amplitude)
        big = single_mode(g, 0.1, v_amplitude=0.2)
        tiny_rep, big_rep = EnergyReport.measure([st, big], Params())
        assert big_rep.linf_v == EnergyReport.measure(big, Params()).linf_v
        if g.dim == 1:
            assert tiny_rep.linf_v == np.max(np.abs(st.v))
        else:
            want = np.max(np.hypot(*st.vel))
            assert want > 0 and abs(tiny_rep.linf_v - want) <= 1e-15 * want


def _scalar_energy(state, s, kappa):
    """The scalar energy as it was computed before the report became its
    only computation: the weighted sum of one state plus its one-order cubic term."""
    u = state.packed()
    wsq = _weighted_sq_coeffs(state.grid, u, s, kappa)
    return 0.5 * (wsq + float(one_transform_cubic(state.grid, u[0], u[1:], s - 0.5)[0]))


class TestEnergyColumnsMatchScalarFormula:
    """``hamiltonian`` and ``modified_energy`` return the report's columns;
    they equal the former scalar formula exactly (tolerance 0)."""

    @pytest.mark.parametrize("grid", [Grid(64), Grid((16, 16))], ids=["1d", "2d"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.7, 1.0])
    def test_bitwise_equal(self, grid, s, kappa):
        params = Params(kappa=kappa, s=s)
        for seed in range(5):
            st = random_bandlimited(grid, seed=seed, band=5, amplitude=0.3)
            assert hamiltonian(st, params) == _scalar_energy(st, 0.5, kappa)
            assert modified_energy(st, params) == _scalar_energy(st, s, kappa)


def _one_transform_report(states, params):
    """(H, E_s, weighted norm) of a list of states as ``EnergyReport.measure``
    computed them before it read the states' samples: both cubic terms from
    one inverse transform of the masked (eta, v, J^(s-1/2) v), and at s = 1/2
    the Hamiltonian's sums reused for the energy."""
    grid, s, kappa = states[0].grid, params.s, params.kappa
    u = np.array([st.packed() for st in states])
    wsq = _weighted_sq_coeffs(grid, u, 0.5, kappa)
    cubic = one_transform_cubic(grid, u[:, 0], u[:, 1:], *((0.0,) if s == 0.5 else (0.0, s - 0.5)))
    ham = 0.5 * (wsq + cubic[:, 0])
    if s == 0.5:
        return ham, ham, np.sqrt(wsq)
    norm_sq = _weighted_sq_coeffs(grid, u, s, kappa)
    return ham, 0.5 * (norm_sq + cubic[:, 1]), np.sqrt(norm_sq)


class TestReportMatchesOneTransformReport:
    """The report reads its states' samples for the cubic terms on band data
    and takes one masked transform on data above the band; at every s its H,
    E_s and weighted norm equal the one-transform report's exactly
    (tolerance 0), on one state and on a stack of 10."""

    @pytest.mark.parametrize("n", [64, (16, 16)], ids=["1d", "2d"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("data", ["band", "bump"])
    def test_bitwise_equal(self, n, s, batch, data):
        grid = Grid(n)
        params = Params(kappa=0.7, s=s)
        if data == "band":
            stack = np.array([random_bandlimited(grid, seed=b, band=5, amplitude=0.3).packed()
                              for b in range(batch)])
            states = WaveState.from_packed(grid, stack, [0.0] * batch)
        else:
            states = [gaussian_bump(grid, 0.02 * (1 + b), 0.1 + 0.01 * b) for b in range(batch)]
        above = np.array([st.packed()[..., ~grid.dealias_mask] for st in states])
        assert np.any(above) == (data == "bump")
        reports = ([EnergyReport.measure(states[0], params)] if batch == 1
                   else EnergyReport.measure(states, params))
        got = [[getattr(rep, name) for rep in reports]
               for name in ("hamiltonian", "modified_energy", "weighted_norm")]
        want = [column.tolist() for column in _one_transform_report(states, params)]
        assert got == want
