"""The half-spectrum layout against the full-spectrum one it replaced.

``WaveState.packed`` is a state as one (1 + d, *half) array of rfftn
coefficients; the solver integrates it and every state functional reads it,
while ``Field.coeffs`` keeps full fftn spectra.  ``FullSpectrumOps`` below
is the former layout of the operators: a tuple of full spectra, every
multiplier on the full lattice, the same arithmetic.  Only the transforms
differ (rfft against fft roundoff), so every operator, one ERK4 step and
one Duhamel sweep agree to OPERATOR_RTOL on the half slice.  The ``full_*``
functions are the former functionals on ``Field.coeffs``, and
``full_spectrum_state`` (a Hermitian mirror, then ``Field.from_coeffs``)
the former way back from a packed array; the energy report agrees with
them to FUNCTIONAL_RTOL, its samples and pointwise columns to
ROUND_TRIP_RTOL, and the realness rule of ``from_packed``, read from the
self-conjugate columns, raises exactly when ``Field.from_coeffs`` does.
"""

import math

import numpy as np
import pytest

from wbwaves.dynamics import (
    _FIRST_PANEL,
    IntegratorConfig,
    _duhamel_integrals,
    _lawson_rk4_step,
    _ops,
)
from wbwaves.experiments import (
    _SOBOLEV_PAIRS,
    _comparison_error,
    _sobolev_pair,
    dissipation_test,
    low_capillarity_error,
)
from wbwaves.functionals import EnergyReport, difference_energy
from wbwaves.presets import random_bandlimited
from wbwaves.spectral import (
    REALNESS_TOL,
    Field,
    Grid,
    SpectralError,
    SymbolCatalog,
    apply_multiplier,
    sobolev_norm,
)
from wbwaves.state import Params, WaveState, _weighted_sq_coeffs, curl_residue, weighted_pair_norm

OPERATOR_RTOL = 1e-13
FUNCTIONAL_RTOL = 1e-13
STUDY_METRIC_RTOL = 1e-12
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


def full_weighted_sq(grid, coeffs, s, kappa):
    """The squared weighted pair norm summed over full spectra."""
    bess = SymbolCatalog.bessel(2.0 * s - 1.0).values(grid)
    eta_w = bess * SymbolCatalog.capillary(kappa).values(grid)
    vel_w = bess * SymbolCatalog.d_over_tanh().values(grid)
    total = np.sum(eta_w * np.abs(coeffs[0]) ** 2)
    for c in coeffs[1:]:
        total += np.sum(vel_w * np.abs(c) ** 2)
    return float(total)


def triple_quadrature(f, g, h):
    """Grid quadrature of f*g*h with each factor cut to the 2/3 band."""
    grid = f.grid
    mask = grid.dealias_mask
    fv, gv, hv = (grid.inverse(np.where(mask, x.coeffs, 0.0)).real for x in (f, g, h))
    return grid.quadrature(fv * gv * hv)


def full_weighted_norm(state, s, kappa):
    coeffs = [f.coeffs for f in (state.eta, *state.vel)]
    return math.sqrt(full_weighted_sq(state.grid, coeffs, s, kappa))


def full_cubic_modifier(state, order):
    """int eta |J^order v|^2 dx with dealiased products."""
    bess = SymbolCatalog.bessel(order)
    total = 0.0
    for comp in state.vel:
        jv = apply_multiplier(bess, comp)
        total += triple_quadrature(state.eta, jv, jv)
    return total


def speed_linf(state):
    """Max pointwise speed |v| (Euclidean magnitude in 2D) from the samples."""
    if state.dim == 1:
        return state.v.linf()
    return float(math.sqrt(np.max(state.vel[0].values ** 2 + state.vel[1].values ** 2)))


def full_report(state, params):
    """Every EnergyReport column, by the formulas on Field.coeffs."""
    grid, kappa, s = state.grid, params.kappa, params.s
    cubic = sum(triple_quadrature(state.eta, comp, comp) for comp in state.vel)
    momentum = math.nan
    if grid.dim == 1:
        kinv2 = SymbolCatalog.d_over_tanh().values(grid)
        momentum = float(np.real(np.sum(np.conj(state.eta.coeffs) * kinv2 * state.v.coeffs)))
    return {
        "time": state.time,
        "hamiltonian": 0.5 * (full_weighted_norm(state, 0.5, kappa) ** 2 + cubic),
        "momentum": momentum,
        "modified_energy": 0.5 * full_weighted_norm(state, s, kappa) ** 2
        + 0.5 * full_cubic_modifier(state, s - 0.5),
        "weighted_norm": full_weighted_norm(state, s, kappa),
        "eta_min": float(np.min(state.eta.values)),
        "eta_max": float(np.max(state.eta.values)),
        "linf_v": speed_linf(state),
    }


def full_difference_energy(state1, state2, r, params):
    theta = state1.eta - state2.eta
    total = params.kappa * sobolev_norm(theta, r + 0.5) ** 2
    bess = SymbolCatalog.bessel(r - 0.5)
    for c1, c2 in zip(state1.vel, state2.vel):
        w = c1 - c2
        total += sobolev_norm(w, r) ** 2
        jw = apply_multiplier(bess, w)
        total += triple_quadrature(state1.eta, jw, jw)
    return 0.5 * total


def full_spectrum_state(grid, u, time):
    """The state of half-spectrum coefficients ``u`` through full spectra:
    the last axis's columns 1 .. n/2 - 1 mirrored by Hermitian symmetry,
    then one inverse fftn per field, coefficients dropped."""
    n = grid.n[-1]
    mirror = u[..., n // 2 - 1 : 0 : -1].conj()
    for axis in range(1, grid.dim):
        mirror = np.roll(np.flip(mirror, axis), 1, axis)
    full = np.concatenate([u, mirror], axis=-1)
    fields = [Field.from_coeffs(grid, c) for c in full]
    return WaveState(fields[0], tuple(fields[1:]), time=time)


def rough_state(grid, seed, amplitude=0.3):
    """Random samples on every mode (a gradient velocity in 2D), so the 2/3
    masks of the cubic terms cut something."""
    rng = np.random.default_rng(seed)
    eta = Field(grid, amplitude * rng.standard_normal(grid.shape))
    if grid.dim == 1:
        return WaveState(eta, (Field(grid, amplitude * rng.standard_normal(grid.shape)),))
    psi = Field(grid, amplitude * rng.standard_normal(grid.shape))
    vel = [apply_multiplier(SymbolCatalog.partial(j), psi, axis=j) for j in range(2)]
    scale = amplitude / max(c.linf() for c in vel)
    return WaveState(eta, tuple(scale * c for c in vel))


def evolved_packed(grid, start, params):
    """One ERK4 step of ``start``: coefficients as evolve holds them."""
    return _lawson_rk4_step(_ops(grid, params, True), start.packed(), DT)


@pytest.mark.parametrize("n", GRIDS)
def test_defect_norm_is_parseval(n):
    """The half-spectrum weighted norm (interior columns counted twice) of a
    difference equals the full-spectrum one."""
    grid = Grid(n)
    (_, a), (_, b) = full_state(grid, 5), full_state(grid, 6)
    diff = tuple(x - y for x, y in zip(a, b))
    for s, kappa in ((1.0, 1.0), (2.5, 0.37), (0.5, 0.0)):
        want = full_weighted_sq(grid, diff, s, kappa)
        got = _weighted_sq_coeffs(grid, half(grid, diff), s, kappa)
        assert math.isclose(got, want, rel_tol=PARSEVAL_RTOL)


def _close(got, want, rtol=FUNCTIONAL_RTOL):
    return abs(got - want) <= rtol * abs(want)


def sample_states(grid, kappa):
    """Two field-built states, each followed by its ERK4 step as from_packed."""
    params = Params(kappa=kappa)
    for start in (full_state(grid, 9)[0], rough_state(grid, 10)):
        yield start
        u = evolved_packed(grid, start, params)
        yield WaveState.from_packed(grid, u, DT)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kappa", [0.0, 1.0])
class TestFunctionalsAgainstFullSpectrum:
    """Old-vs-new equivalence of every state functional, on states built
    from fields and on states from_packed from an ERK4 step."""

    def test_energy_report(self, n, kappa):
        grid = Grid(n)
        for s in (0.5, 1.0, 2.0):
            params = Params(kappa=kappa, s=s)
            for st in sample_states(grid, kappa):
                got = EnergyReport.measure(st, params)
                want = full_report(st, params)
                for name in ("eta_min", "eta_max", "linf_v", "time"):
                    assert getattr(got, name) == want[name], name
                for name in ("hamiltonian", "modified_energy", "weighted_norm"):
                    assert _close(getattr(got, name), want[name]), name
                assert _close(weighted_pair_norm(st, s, kappa), want["weighted_norm"])
                if grid.dim == 1:
                    # Bounded by the s = 1/2 norm squared, which sets its scale.
                    scale = full_weighted_norm(st, 0.5, kappa) ** 2
                    assert abs(got.momentum - want["momentum"]) <= FUNCTIONAL_RTOL * scale
                else:
                    assert math.isnan(got.momentum)

    def test_difference_energy(self, n, kappa):
        grid = Grid(n)
        states = list(sample_states(grid, kappa))
        for s in (1.0, 2.0):
            params = Params(kappa=kappa, s=s)
            for r in (0.25, 0.5):
                for a, b in zip(states, states[1:]):
                    want = full_difference_energy(a, b, r, params)
                    assert _close(difference_energy(a, b, r, params), want)

    def test_samples_match_full_spectrum(self, n, kappa):
        """from_packed's samples, one inverse rfftn, against the full-spectrum
        way back (rfft against fft roundoff): every sample and the report's
        pointwise columns within ROUND_TRIP_RTOL of the largest sample."""
        grid = Grid(n)
        for seed in (11, 12):
            u = evolved_packed(grid, rough_state(grid, seed), Params(kappa=kappa))
            new = WaveState.from_packed(grid, u, DT)
            old = full_spectrum_state(grid, u, DT)
            scale = max(f.linf() for f in (old.eta, *old.vel))
            for a, b in zip((new.eta, *new.vel), (old.eta, *old.vel)):
                assert np.max(np.abs(a.values - b.values)) <= ROUND_TRIP_RTOL * scale
            got = EnergyReport.measure(new, Params(kappa=kappa))
            want = full_report(old, Params(kappa=kappa))
            for name in ("eta_min", "eta_max", "linf_v"):
                assert abs(getattr(got, name) - want[name]) <= ROUND_TRIP_RTOL * scale, name


def field_difference(a, b):
    """A state difference by field arithmetic (sample subtraction)."""
    return a.eta - b.eta, [va - vb for va, vb in zip(a.vel, b.vel)]


def field_sobolev_pair(a, b, eta_order, vel_order):
    theta, ws = field_difference(a, b)
    total = sobolev_norm(theta, eta_order) ** 2 + sum(sobolev_norm(w, vel_order) ** 2 for w in ws)
    return math.sqrt(total)


def field_weighted_difference(a, b, s, kappa):
    """The weighted pair norm of the difference as a new ``WaveState``."""
    theta, ws = field_difference(a, b)
    return weighted_pair_norm(WaveState(theta, tuple(ws), time=a.time), s, kappa)


def field_data_size(st):
    return sobolev_norm(st.eta, 0.0) + math.sqrt(sum(sobolev_norm(v, 0.5) ** 2 for v in st.vel))


@pytest.mark.parametrize("n", [(64,), (256,), (32, 32)])
class TestStudyMetricsAgainstFieldPath:
    """The study metrics on packed differences against the field-arithmetic
    differences and full-spectrum ``sobolev_norm`` they replaced."""

    def _pairs(self, grid):
        states = list(sample_states(grid, 1.0))
        return list(zip(states, states[1:]))

    def test_difference_norms(self, n):
        grid = Grid(n)
        for a, b in self._pairs(grid):
            want = field_weighted_difference(a, b, 0.5, 0.0)
            assert _close(low_capillarity_error(a, b), want, STUDY_METRIC_RTOL)
            for s, kappa in ((1.0, 1.0), (2.0, 0.01)):
                want = field_weighted_difference(a, b, s, kappa)
                got = _comparison_error("HskappaxHs", a, b, s, kappa)
                assert _close(got, want, STUDY_METRIC_RTOL)
            for name, orders in _SOBOLEV_PAIRS.items():
                want = field_sobolev_pair(a, b, *orders)
                assert _close(_comparison_error(name, a, b, 1.0, 1.0), want, STUDY_METRIC_RTOL)
            for r in (0.5, 1.0, 1.5):  # the mu_limit metric
                want = field_sobolev_pair(a, b, r + 0.5, r)
                got = _sobolev_pair(grid, a.packed() - b.packed(), r + 0.5, r)
                assert _close(got, want, STUDY_METRIC_RTOL)

    def test_data_size(self, n):
        grid = Grid(n)
        data = list(sample_states(grid, 1.0))
        params = Params(kappa=1.0, mu=0.2, p=1.0)
        # delta = 0 skips every datum, so only the sizes are computed.
        report = dissipation_test(data, params, T=DT, cfg=IntegratorConfig(dt=DT), delta=0.0)
        for row, st in zip(report.rows, data):
            assert _close(row["data_size"], field_data_size(st), STUDY_METRIC_RTOL)


FFT_NAMES = [name for name in dir(np.fft) if name.endswith(("fft", "fft2", "fftn"))]


@pytest.mark.parametrize("batch", [None, 10])
@pytest.mark.parametrize("n, s, count", [((256,), 0.5, 2), ((256,), 2.0, 2), ((32, 32), 1.0, 3)])
def test_report_transform_count(monkeypatch, n, s, count, batch):
    """Sampling an evolving state and its energy report take ``count``
    transforms (every np.fft function wrapped, as bench/tracer.py does), and
    a (10, 1 + d, *half) stack takes as many as one state: the samples are
    one inverse rfftn (plus, in 2D, one small transform of the self-conjugate
    columns for the realness check), and both cubic terms one more."""
    grid = Grid(n)
    params = Params(kappa=1.0, s=s)
    u = evolved_packed(grid, full_state(grid, 13)[0], params)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    if batch is None:
        EnergyReport.measure(WaveState.from_packed(grid, u, DT), params)
    else:
        stack = np.stack([(1.0 + 0.1 * b) * u for b in range(batch)])
        reports = EnergyReport.measure(WaveState.from_packed(grid, stack, [DT] * batch), params)
        assert len(reports) == batch
    assert len(calls) == count, calls


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
    def test_packed_round_trip(self, n):
        grid = Grid(n)
        st, full = full_state(grid, 7)
        assert np.array_equal(st.packed(), half(grid, full))
        back = WaveState.from_packed(grid, st.packed(), st.time)
        for a, b in zip((st.eta, *st.vel), (back.eta, *back.vel)):
            assert np.max(np.abs(a.values - b.values)) <= ROUND_TRIP_RTOL * np.max(np.abs(a.values))

    def test_from_packed_keeps_its_array_read_only(self):
        grid = Grid((16, 24))
        u = np.array(full_state(grid, 7)[0].packed())
        st = WaveState.from_packed(grid, u, 0.5)
        assert st.packed() is st.packed()
        assert np.shares_memory(st.packed(), u) and not st.packed().flags.writeable
        assert u.flags.writeable

    def test_curl_check_reads_the_half_spectrum(self):
        """The curl residue by Parseval on the half spectrum equals the
        full-spectrum one, and both ways to build a state reject a velocity
        that is not curl free."""
        grid = Grid((16, 24))
        x1, x2 = (np.asarray(x) for x in grid.x)
        vel = (Field(grid, np.cos(x2) + 0 * x1), grid.zero_field())
        d = [SymbolCatalog.partial(j).multiplier(grid, axis=j) for j in range(2)]
        want = math.sqrt(np.sum(np.abs(d[0] * vel[1].coeffs - d[1] * vel[0].coeffs) ** 2))
        assert math.isclose(curl_residue(vel), want, rel_tol=PARSEVAL_RTOL)
        with pytest.raises(ValueError, match="not curl free"):
            WaveState(grid.zero_field(), vel)
        u = np.stack([grid.half(f.coeffs) for f in (grid.zero_field(), *vel)])
        with pytest.raises(ValueError, match="not curl free"):
            WaveState.from_packed(grid, u, 0.0)

    @pytest.mark.parametrize("n, column", [((16,), 0), ((16,), 8), ((16, 16), 0), ((16, 16), 8)])
    def test_from_packed_checks_self_conjugate_columns(self, n, column):
        """A non-Hermitian residue in column 0 or n/2 fails the realness check."""
        grid = Grid(n)
        st, _ = full_state(grid, 8)
        u = np.array(st.packed())
        index = (0, 3, column) if grid.dim == 2 else (0, column)
        u[index] += 1j * 1e-6 * np.max(np.abs(u))
        with pytest.raises(ValueError, match="imaginary residue"):
            WaveState.from_packed(grid, u, 0.0)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("n", [(64,), (16, 24)])
    @pytest.mark.parametrize("column", ["0", "n/2"])
    def test_realness_rule_matches_full_spectrum(self, n, column, factor, batched):
        """A residue at ``factor`` times the realness bound in column 0 or
        n/2 (of the velocity in 1D, of eta at row 3 in 2D; in row 1 of a
        three-state stack when batched) fails from_packed's rule exactly when
        it fails ``Field.from_coeffs`` on the full spectrum."""
        grid = Grid(n)
        stack = np.stack([np.array(full_state(grid, seed)[0].packed()) for seed in (8, 9, 10)])
        comp = 1 if grid.dim == 1 else 0
        row = 1 if batched else 0
        col = 0 if column == "0" else n[-1] // 2
        index = (row, comp, 3, col) if grid.dim == 2 else (row, comp, col)
        state = full_spectrum_state(grid, stack[row], 0.0)
        scale = (state.eta, *state.vel)[comp].linf()
        # An imaginary a on one coefficient gives samples an imaginary part
        # of largest size a / (n_1 .. n_d * norm factor).
        a = factor * REALNESS_TOL * scale * np.prod(grid.n) * grid._norm_factor
        stack[index] += 1j * a

        def raises(build):
            try:
                build()
            except SpectralError as exc:
                assert "imaginary residue" in str(exc)
                return True
            return False

        if batched:
            old = raises(lambda: [full_spectrum_state(grid, u, 0.0) for u in stack])
            new = raises(lambda: WaveState.from_packed(grid, stack, [0.0] * len(stack)))
        else:
            old = raises(lambda: full_spectrum_state(grid, stack[0], 0.0))
            new = raises(lambda: WaveState.from_packed(grid, stack[0], 0.0))
        assert old == new == (factor > 1)
