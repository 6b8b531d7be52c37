"""The solver's half-spectrum layout against the full-spectrum one it replaced.

Inside ``dynamics`` a state is one (1 + d, *half) array of rfftn
coefficients; ``Field.coeffs`` and everything outside keep full fftn
spectra.  ``FullSpectrumOps`` below is the former layout: a tuple of full
spectra, every multiplier on the full lattice, the same arithmetic.  Only
the transforms differ (rfft against fft roundoff), so every operator, one
ERK4 step and one Duhamel sweep agree to OPERATOR_RTOL on the half slice.
"""

import math

import numpy as np
import pytest

from wbwaves.dynamics import (
    _FIRST_PANEL,
    _duhamel_integrals,
    _lawson_rk4_step,
    _ops,
    _pack,
    _unpack,
)
from wbwaves.presets import random_bandlimited
from wbwaves.spectral import Grid, SymbolCatalog
from wbwaves.state import Params, _weighted_sq_coeffs

OPERATOR_RTOL = 1e-13
PARSEVAL_RTOL = 1e-14
ROUND_TRIP_RTOL = 1e-15
DT = 1e-2

GRIDS = [(64,), (256,), (32, 32), (16, 24)]


def _axpy(u, a, v):
    return tuple(x + a * y for x, y in zip(u, v))


def _dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc += x * y
    return acc


class FullSpectrumOps:
    """Nonlinear forcing, linear part and propagator on full spectra."""

    def __init__(self, grid, params):
        cat = SymbolCatalog
        self.grid = grid
        self.mask = grid.dealias_mask.astype(np.float64)
        self.heat_rate = None
        if params.mu > 0:
            self.heat_rate = params.kappa * params.mu * cat.riesz(params.p).values(grid)
        self.Kk = cat.K_kappa(params.kappa).values(grid)
        self.Kk_inv = cat.K_kappa_inv(params.kappa).values(grid)
        self.phase = cat.frequency(grid, params.kappa)
        self.unit = cat.unit_vectors(grid)
        self.dx = tuple(cat.partial(j).multiplier(grid, axis=j) for j in range(grid.dim))
        forcing = cat.forcing(grid)
        cap = cat.capillary(params.kappa).values(grid)
        self.restoring = tuple(g * cap for g in forcing)
        self.forcing = tuple(g * self.mask for g in forcing)

    def coeffs(self, values):
        return np.fft.fftn(values) * self.grid._norm_factor

    def phys(self, c):
        return self.grid.inverse(c * self.mask).real

    def nonlinear(self, u):
        eta = self.phys(u[0])
        vs = [self.phys(c) for c in u[1:]]
        flux = [self.coeffs(eta * v) for v in vs]
        b = self.coeffs(0.5 * _dot(vs, vs))
        return (_dot(self.forcing, flux),) + tuple(g * b for g in self.forcing)

    def linear(self, u):
        out = [-_dot(self.dx, u[1:])] + [r * u[0] for r in self.restoring]
        if self.heat_rate is not None:
            out = [d - self.heat_rate * c for d, c in zip(out, u)]
        return tuple(out)

    def propagator(self, t):
        cos, sin = np.cos(t * self.phase), np.sin(t * self.phase)
        e = self.unit
        rows = [(cos,) + tuple(-1j * (self.Kk_inv * sin * ej) for ej in e)]
        rows += [
            (-1j * (self.Kk * sin * ej),)
            + tuple(ej * ek * cos + (float(j == k) - ej * ek) for k, ek in enumerate(e))
            for j, ej in enumerate(e)
        ]
        heat = np.exp(-t * self.heat_rate) if self.heat_rate is not None else 1.0

        def apply(u):
            return tuple(heat * _dot(row, u) for row in rows)

        return apply

    def lawson_rk4_step(self, u, dt):
        full, half = self.propagator(dt), self.propagator(0.5 * dt)
        k1 = self.nonlinear(u)
        k2 = self.nonlinear(half(_axpy(u, 0.5 * dt, k1)))
        k3 = self.nonlinear(_axpy(half(u), 0.5 * dt, k2))
        su_full = full(u)
        k4 = self.nonlinear(_axpy(su_full, dt, half(k3)))
        acc = _axpy(full(k1), 2.0, half(_axpy(k2, 1.0, k3)))
        return _axpy(su_full, dt / 6.0, _axpy(acc, 1.0, k4))

    def duhamel_integrals(self, forcing, dt):
        s1, s2, s3 = (self.propagator(k * dt) for k in (1, 2, 3))
        before = last = tuple(np.zeros_like(c) for c in forcing[0])
        out = [last]
        for m in range(1, len(forcing)):
            if m == 1:
                acc = last
                for j, wj in enumerate(_FIRST_PANEL[min(len(forcing), 4)]):
                    acc = _axpy(acc, dt * wj, self.propagator((1 - j) * dt)(forcing[j]))
            elif m % 2 == 0:
                acc = s2(_axpy(last, dt / 3.0, forcing[m - 2]))
                acc = _axpy(acc, 4.0 * dt / 3.0, s1(forcing[m - 1]))
                acc = _axpy(acc, dt / 3.0, forcing[m])
                before, last = last, acc
            else:
                acc = s3(_axpy(before, 3.0 * dt / 8.0, forcing[m - 3]))
                acc = _axpy(acc, 9.0 * dt / 8.0, _axpy(s2(forcing[m - 2]), 1.0, s1(forcing[m - 1])))
                acc = _axpy(acc, 3.0 * dt / 8.0, forcing[m])
            out.append(acc)
        return out


def half(grid, u):
    return np.stack([grid.half(c) for c in u])


def max_rel(got, want):
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def full_state(grid, seed):
    st = random_bandlimited(grid, seed=seed, band=min(grid.n) // 3, amplitude=0.3)
    return st, (st.eta.coeffs,) + tuple(c.coeffs for c in st.vel)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("mu", [0.0, 0.2])
class TestAgainstFullSpectrum:
    def _pair(self, n, mu):
        grid = Grid(n)
        params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
        return grid, _ops(grid, params, True), FullSpectrumOps(grid, params)

    def test_operators(self, n, mu):
        grid, ops, ref = self._pair(n, mu)
        for seed in range(2):
            _, u = full_state(grid, seed)
            uh = half(grid, u)
            assert max_rel(ops.nonlinear(uh), half(grid, ref.nonlinear(u))) <= OPERATOR_RTOL
            assert max_rel(ops.linear(uh), half(grid, ref.linear(u))) <= OPERATOR_RTOL
            for t in (DT, -0.37):
                got = ops.propagator(t).apply(uh)
                assert max_rel(got, half(grid, ref.propagator(t)(u))) <= OPERATOR_RTOL

    def test_erk4_step(self, n, mu):
        grid, ops, ref = self._pair(n, mu)
        _, u = full_state(grid, 3)
        got = _lawson_rk4_step(ops, half(grid, u), DT)
        assert max_rel(got, half(grid, ref.lawson_rk4_step(u, DT))) <= OPERATOR_RTOL

    def test_duhamel_sweep(self, n, mu):
        """Seven nodes reach the first panel, Simpson and 3/8 panels."""
        grid, ops, ref = self._pair(n, mu)
        _, u = full_state(grid, 4)
        nodes = [ref.propagator(m * DT)(u) for m in range(8)]
        got = list(_duhamel_integrals(ops, [ops.nonlinear(half(grid, um)) for um in nodes], DT))
        want = ref.duhamel_integrals([ref.nonlinear(um) for um in nodes], DT)
        assert len(got) == len(want) == 8
        for g, w in zip(got[1:], want[1:]):
            assert max_rel(g, half(grid, w)) <= OPERATOR_RTOL


@pytest.mark.parametrize("n", GRIDS)
def test_defect_norm_is_parseval(n):
    """The half-spectrum weighted norm (interior columns counted twice) of a
    difference equals the full-spectrum one."""
    grid = Grid(n)
    (_, a), (_, b) = full_state(grid, 5), full_state(grid, 6)
    diff = tuple(x - y for x, y in zip(a, b))
    dh = half(grid, diff)
    for s, kappa in ((1.0, 1.0), (2.5, 0.37), (0.5, 0.0)):
        want = _weighted_sq_coeffs(grid, diff[0], diff[1:], s, kappa)
        got = _weighted_sq_coeffs(grid, dh[0], dh[1:], s, kappa, True)
        assert math.isclose(got, want, rel_tol=PARSEVAL_RTOL)


class TestHalfSpectrumConvention:
    @pytest.mark.parametrize("n", [(16,), (64,), (16, 16), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_odd_arrays_vanish_on_last_column_and_zero_mode(self, n, mu):
        """The last half-spectrum column is the Nyquist column: the forcing,
        the unit wave vector and the phase vanish there and on the zero mode."""
        grid = Grid(n)
        ops = _ops(grid, Params(kappa=1.0, mu=mu), True)
        zero = (0,) * grid.dim
        for arr in (*ops.forcing, *ops.unit, ops.phase):
            assert arr.shape[-1] == n[-1] // 2 + 1
            assert not np.any(arr[..., -1])
            assert arr[zero] == 0.0

    @pytest.mark.parametrize("n", [(16,), (256,), (32, 32), (16, 24), (128, 128)])
    def test_pack_unpack_round_trip(self, n):
        grid = Grid(n)
        st, _ = full_state(grid, 7)
        back = _unpack(grid, _pack(st), st.time)
        for a, b in zip((st.eta, *st.vel), (back.eta, *back.vel)):
            assert np.max(np.abs(a.values - b.values)) <= ROUND_TRIP_RTOL * np.max(np.abs(a.values))

    @pytest.mark.parametrize("n, column", [((16,), 0), ((16,), 8), ((16, 16), 0), ((16, 16), 8)])
    def test_unpack_checks_self_conjugate_columns(self, n, column):
        """A non-Hermitian residue in column 0 or n/2 fails the realness check."""
        grid = Grid(n)
        st, _ = full_state(grid, 8)
        u = _pack(st)
        index = (0, 3, column) if grid.dim == 2 else (0, column)
        u[index] += 1j * 1e-6 * np.max(np.abs(u))
        with pytest.raises(ValueError, match="imaginary residue"):
            _unpack(grid, u, 0.0)
