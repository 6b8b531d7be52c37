"""The half-spectrum layout against the full-spectrum one it replaced.

``WaveState.packed`` is a state as one (1 + d, *half) array of rfftn
coefficients; the solver integrates its 2/3 band (``dynamics._band``) and
every state functional reads it, while ``full_spectrum.coeffs`` gives a
field's full fftn spectrum.  ``FullSpectrumOps`` below is the former layout
of the operators: a tuple of full spectra, every multiplier on the full
lattice, the same arithmetic.  Only the transforms differ (rfft against fft
roundoff), so every operator, one ERK4 step and one Duhamel sweep agree to
OPERATOR_RTOL on the band of the half slice.  The ``full_*``
functions are the former functionals on those full spectra, and
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
    _band,
    _duhamel_integrals,
    _expand,
    _lawson_rk4_step,
    _ops,
)
from wbwaves.experiments import (
    COMPARISON_NORMS,
    _comparison_error,
    _sobolev_pair,
    dissipation_test,
    low_capillarity_error,
)
from wbwaves.functionals import EnergyReport, difference_energy
from wbwaves.presets import (
    _periodized_bump,
    _random_band_coeffs,
    gaussian_bump,
    random_bandlimited,
    single_mode,
)
from wbwaves.snapshot import read_snapshot, write_snapshot
from wbwaves.spectral import (
    REALNESS_TOL,
    Field,
    Grid,
    SpectralError,
    SymbolCatalog,
)
from wbwaves.state import (
    Params,
    WaveState,
    _samples,
    _weighted_sq_coeffs,
    curl_residue,
    weighted_pair_norm,
)

from full_spectrum import (
    apply_multiplier,
    coeffs,
    fields,
    full,
    inverse,
    linf,
    sobolev_norm,
    state_of,
    zero,
)
from full_spectrum import half as cut

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
        cat, lattice = SymbolCatalog, full(grid)
        self.grid = grid
        self.mask = lattice.dealias_mask.astype(np.float64)
        self.heat_rate = None
        if params.mu > 0:
            self.heat_rate = params.kappa * params.mu * cat.riesz(lattice, params.p)
        self.Kk = cat.K_kappa(lattice, params.kappa)
        self.Kk_inv = cat.K_kappa_inv(lattice, params.kappa)
        self.phase = cat.frequency(lattice, params.kappa)
        self.unit = cat.unit_vectors(lattice)
        self.dx = cat.gradient(lattice)
        forcing = cat.forcing(lattice)
        cap = cat.capillary(lattice, params.kappa)
        self.restoring = tuple(g * cap for g in forcing)
        self.forcing = tuple(g * self.mask for g in forcing)

    def coeffs(self, values):
        return np.fft.fftn(values) * self.grid._norm_factor

    def phys(self, c):
        return inverse(self.grid, c * self.mask).real

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
    return np.stack([cut(grid, c) for c in u])


def band(grid, u):
    """The solver's band of a tuple of full spectra."""
    return _band(grid, half(grid, u))


def max_rel(got, want):
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def full_state(grid, seed):
    """A random state built from its samples, so that ``packed()`` is the
    rfftn of them, and its components' full spectra."""
    st = random_bandlimited(grid, seed=seed, band=min(grid.n) // 3, amplitude=0.3)
    st = WaveState(grid, st.samples, st.time)
    return st, tuple(coeffs(f) for f in fields(st))


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("mu", [0.0, 0.2])
class TestAgainstFullSpectrum:
    def _pair(self, n, mu):
        grid = Grid(n)
        params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
        return grid, _ops(grid, params), FullSpectrumOps(grid, params)

    def test_operators(self, n, mu):
        grid, ops, ref = self._pair(n, mu)
        for seed in range(2):
            _, u = full_state(grid, seed)
            uh = band(grid, u)
            assert max_rel(ops.nonlinear(uh), band(grid, ref.nonlinear(u))) <= OPERATOR_RTOL
            assert max_rel(ops.linear(uh), band(grid, ref.linear(u))) <= OPERATOR_RTOL
            for t in (DT, -0.37):
                got = ops.propagator(t).apply(uh)
                assert max_rel(got, band(grid, ref.propagator(t)(u))) <= OPERATOR_RTOL

    def test_erk4_step(self, n, mu):
        grid, ops, ref = self._pair(n, mu)
        _, u = full_state(grid, 3)
        got = _lawson_rk4_step(ops, band(grid, u), DT)
        assert max_rel(got, band(grid, ref.lawson_rk4_step(u, DT))) <= OPERATOR_RTOL

    def test_duhamel_sweep(self, n, mu):
        """Seven nodes reach the first panel, Simpson and 3/8 panels."""
        grid, ops, ref = self._pair(n, mu)
        _, u = full_state(grid, 4)
        nodes = [ref.propagator(m * DT)(u) for m in range(8)]
        forcing = ops.nonlinear(np.stack([band(grid, um) for um in nodes]))
        got = _duhamel_integrals(ops, np.zeros_like(forcing[0]), forcing, DT)
        want = ref.duhamel_integrals([ref.nonlinear(um) for um in nodes], DT)
        assert len(got) == len(want) == 8
        for g, w in zip(got[1:], want[1:]):
            assert max_rel(g, band(grid, w)) <= OPERATOR_RTOL


def full_weighted_sq(grid, coeffs, s, kappa):
    """The squared weighted pair norm summed over full spectra."""
    lattice = full(grid)
    bess = SymbolCatalog.bessel(lattice, 2.0 * s - 1.0)
    eta_w = bess * SymbolCatalog.capillary(lattice, kappa)
    vel_w = bess * SymbolCatalog.d_over_tanh(lattice)
    total = np.sum(eta_w * np.abs(coeffs[0]) ** 2)
    for c in coeffs[1:]:
        total += np.sum(vel_w * np.abs(c) ** 2)
    return float(total)


def triple_quadrature(f, g, h):
    """Grid quadrature of f*g*h with each factor cut to the 2/3 band."""
    grid = f.grid
    mask = full(grid).dealias_mask
    fv, gv, hv = (inverse(grid, np.where(mask, coeffs(x), 0.0)).real for x in (f, g, h))
    return grid.cell * np.sum(fv * gv * hv)


def full_weighted_norm(state, s, kappa):
    spectra = [coeffs(f) for f in fields(state)]
    return math.sqrt(full_weighted_sq(state.grid, spectra, s, kappa))


def full_cubic_modifier(state, order):
    """int eta |J^order v|^2 dx with dealiased products."""
    bess = SymbolCatalog.bessel(full(state.grid), order)
    eta, *vel = fields(state)
    total = 0.0
    for comp in vel:
        jv = apply_multiplier(bess, comp)
        total += triple_quadrature(eta, jv, jv)
    return total


def speed_linf(state):
    """Max pointwise speed |v| (Euclidean magnitude in 2D) from the samples."""
    if state.dim == 1:
        return float(np.max(np.abs(state.v)))
    return float(math.sqrt(np.max(state.vel[0] ** 2 + state.vel[1] ** 2)))


def full_report(state, params):
    """Every EnergyReport column, by the formulas on full spectra."""
    grid, kappa, s = state.grid, params.kappa, params.s
    eta, *vel = fields(state)
    cubic = sum(triple_quadrature(eta, comp, comp) for comp in vel)
    momentum = math.nan
    if grid.dim == 1:
        kinv2 = SymbolCatalog.d_over_tanh(full(grid))
        momentum = float(np.real(np.sum(np.conj(coeffs(eta)) * kinv2 * coeffs(vel[0]))))
    return {
        "time": state.time,
        "hamiltonian": 0.5 * (full_weighted_norm(state, 0.5, kappa) ** 2 + cubic),
        "momentum": momentum,
        "modified_energy": 0.5 * full_weighted_norm(state, s, kappa) ** 2
        + 0.5 * full_cubic_modifier(state, s - 0.5),
        "weighted_norm": full_weighted_norm(state, s, kappa),
        "eta_min": float(np.min(state.eta)),
        "eta_max": float(np.max(state.eta)),
        "linf_v": speed_linf(state),
    }


def full_difference_energy(state1, state2, r, params):
    grid = state1.grid
    theta = Field(grid, state1.eta - state2.eta)
    total = params.kappa * sobolev_norm(theta, r + 0.5) ** 2
    bess = SymbolCatalog.bessel(full(grid), r - 0.5)
    for c1, c2 in zip(state1.vel, state2.vel):
        w = Field(grid, c1 - c2)
        total += sobolev_norm(w, r) ** 2
        jw = apply_multiplier(bess, w)
        total += triple_quadrature(Field(grid, state1.eta), jw, jw)
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
    return state_of(*(Field.from_coeffs(grid, c) for c in full), time=time)


def rough_state(grid, seed, amplitude=0.3):
    """Random samples on every mode (a gradient velocity in 2D), so the 2/3
    masks of the cubic terms cut something."""
    rng = np.random.default_rng(seed)
    eta = Field(grid, amplitude * rng.standard_normal(grid.shape))
    if grid.dim == 1:
        return state_of(eta, Field(grid, amplitude * rng.standard_normal(grid.shape)))
    psi = Field(grid, amplitude * rng.standard_normal(grid.shape))
    vel = [apply_multiplier(d, psi) for d in SymbolCatalog.gradient(full(grid))]
    scale = amplitude / max(linf(c) for c in vel)
    return state_of(eta, *(Field(grid, scale * c.values) for c in vel))


def evolved_packed(grid, start, params):
    """One ERK4 step of ``start``: coefficients as evolve reports them, its
    band stepped and expanded."""
    return _expand(grid, _lawson_rk4_step(_ops(grid, params), _band(grid, start.packed()), DT))


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
    """Two states built from samples, each followed by its ERK4 step as from_packed."""
    params = Params(kappa=kappa)
    for start in (full_state(grid, 9)[0], rough_state(grid, 10)):
        yield start
        u = evolved_packed(grid, start, params)
        yield WaveState.from_packed(grid, u, DT)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kappa", [0.0, 1.0])
class TestFunctionalsAgainstFullSpectrum:
    """Old-vs-new equivalence of every state functional, on states built
    from samples and on states from_packed from an ERK4 step."""

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
            scale = float(np.max(np.abs(old.samples)))
            for a, b in zip(new.samples, old.samples):
                assert np.max(np.abs(a - b)) <= ROUND_TRIP_RTOL * scale
            got = EnergyReport.measure(new, Params(kappa=kappa))
            want = full_report(old, Params(kappa=kappa))
            for name in ("eta_min", "eta_max", "linf_v"):
                assert abs(getattr(got, name) - want[name]) <= ROUND_TRIP_RTOL * scale, name


def field_difference(a, b):
    """A state difference by sample subtraction, as Fields."""
    return Field(a.grid, a.eta - b.eta), [Field(a.grid, va - vb) for va, vb in zip(a.vel, b.vel)]


def field_sobolev_pair(a, b, eta_order, vel_order):
    theta, ws = field_difference(a, b)
    total = sobolev_norm(theta, eta_order) ** 2 + sum(sobolev_norm(w, vel_order) ** 2 for w in ws)
    return math.sqrt(total)


def field_weighted_difference(a, b, s, kappa):
    """The weighted pair norm of the difference as a new ``WaveState``."""
    theta, ws = field_difference(a, b)
    return weighted_pair_norm(state_of(theta, *ws, time=a.time), s, kappa)


def field_data_size(st):
    eta, *vel = fields(st)
    return sobolev_norm(eta, 0.0) + math.sqrt(sum(sobolev_norm(v, 0.5) ** 2 for v in vel))


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
            for name, orders in COMPARISON_NORMS.items():
                if orders is None:  # HskappaxHs, checked above
                    continue
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
        # A delta below every size skips every datum, so only the sizes are
        # computed (delta must be positive).
        report = dissipation_test(data, params, T=DT, cfg=IntegratorConfig(dt=DT), delta=1e-300)
        assert all(row["skipped"] for row in report.rows)
        for row, st in zip(report.rows, data):
            assert _close(row["data_size"], field_data_size(st), STUDY_METRIC_RTOL)


FFT_NAMES = [name for name in dir(np.fft) if name.endswith(("fft", "fft2", "fftn"))]


@pytest.mark.parametrize("batch", [None, 10])
@pytest.mark.parametrize("n, s, data, count", [
    ((256,), 0.5, "band", 1), ((256,), 0.5, "bump", 2), ((256,), 2.0, "band", 2),
    ((32, 32), 1.0, "band", 3),
])
def test_report_transform_count(monkeypatch, n, s, data, count, batch):
    """Sampling a state and its energy report take ``count`` transforms
    (every np.fft function wrapped, as bench/tracer.py does), and a
    (10, 1 + d, *half) stack takes as many as one state: the samples are one
    inverse rfftn (plus, in 2D, one small transform of the self-conjugate
    columns for the realness check).  On an evolving state, which lies in the
    2/3 band, the cubic term of H reads those samples and E_s at s != 1/2
    takes one more transform, of J^(s-1/2) v; a gaussian bump, with content
    above the band, takes one masked transform for its cubic terms."""
    grid = Grid(n)
    params = Params(kappa=1.0, s=s)
    if data == "band":
        u = evolved_packed(grid, full_state(grid, 13)[0], params)
    else:
        u = gaussian_bump(grid, 0.05, 0.1).packed()
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
    @pytest.mark.parametrize("n, shape", [
        ((32,), (2, 10)), ((32,), (3, 17)), ((32,), (2, 17, 1)),
        ((16, 24), (3, 16, 24)), ((16, 24), (1, 2, 3, 16, 13)),
    ])
    def test_from_packed_checks_the_shape(self, n, shape):
        """A packed array is (1 + d, *half) or a (B, 1 + d, *half) stack;
        any other shape is refused, naming both."""
        grid = Grid(n)
        want = (1 + grid.dim, *n[:-1], n[-1] // 2 + 1)
        message = f"packed array of shape {shape} does not match {want} or a stack (B, *{want})"
        with pytest.raises(SpectralError) as err:
            WaveState.from_packed(grid, np.zeros(shape, complex), 0.0)
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [(16,), (64,), (16, 16), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_odd_arrays_vanish_on_last_column_and_zero_mode(self, n, mu):
        """The last half-spectrum column is the Nyquist column: the catalog's
        restoring forcing, unit wave vector and phase vanish there and on the
        zero mode.  The solver's tables, the forcing's weight among them, are
        cut to the band, which holds no Nyquist mode, and vanish on the zero
        mode."""
        grid = Grid(n)
        params = Params(kappa=1.0, mu=mu)
        ops = _ops(grid, params)
        zero = (0,) * grid.dim
        cat = SymbolCatalog
        capillary = cat.capillary(grid, params.kappa)
        for arr in (*(g * capillary for g in cat.forcing(grid)), *cat.unit_vectors(grid),
                    cat.frequency(grid, params.kappa)):
            assert arr.shape[-1] == n[-1] // 2 + 1
            assert not np.any(arr[..., -1])
            assert arr[zero] == 0.0
        band_shape = tuple(2 * grid.dealias_band(j) + 1 for j in range(grid.dim - 1))
        band_shape += (grid.dealias_band(-1) + 1,)
        for arr in (*ops.restoring, *ops.unit, ops.phase, *ops.fwd_weight):
            assert arr.shape == band_shape
            assert arr[zero] == 0.0

    @pytest.mark.parametrize("n", [(16,), (256,), (32, 32), (16, 24), (128, 128)])
    def test_packed_round_trip(self, n):
        grid = Grid(n)
        st, full = full_state(grid, 7)
        assert max_rel(st.packed(), half(grid, full)) <= OPERATOR_RTOL
        back = WaveState.from_packed(grid, st.packed(), st.time)
        for a, b in zip(st.samples, back.samples):
            assert np.max(np.abs(a - b)) <= ROUND_TRIP_RTOL * np.max(np.abs(a))

    def test_from_packed_keeps_its_array_read_only(self):
        grid = Grid((16, 24))
        u = np.array(full_state(grid, 7)[0].packed())
        st = WaveState.from_packed(grid, u, 0.5)
        assert st.packed() is st.packed()
        assert np.shares_memory(st.packed(), u) and not st.packed().flags.writeable
        assert u.flags.writeable

    @pytest.mark.parametrize("n", [(16,), (16, 24)])
    def test_state_is_one_samples_array(self, n):
        """A state keeps one read-only (1 + d, *n) samples array, of which
        eta, vel and the 1D v are views: a copy of the constructor's input,
        or a state's row of from_packed's one inverse transform.  The
        constructor checks its shape and finiteness."""
        grid = Grid(n)
        values = np.array(full_state(grid, 7)[0].samples)
        built = WaveState(grid, values)
        stack = np.stack([built.packed(), 2.0 * built.packed()])
        rows = WaveState.from_packed(grid, stack, [0.0, 1.0])
        assert rows[0].samples.base is not None and rows[0].samples.base is rows[1].samples.base
        for st in (built, *rows):
            assert st.samples.shape == (1 + grid.dim, *grid.n) and not st.samples.flags.writeable
            views = [st.eta, st.vel] + ([st.v] if grid.dim == 1 else [])
            assert all(np.shares_memory(v, st.samples) for v in views)
        assert not np.shares_memory(built.samples, values)
        with pytest.raises(SpectralError, match="do not match"):
            WaveState(grid, values[:1])
        values[1].flat[3] = np.nan
        with pytest.raises(SpectralError, match=r"non-finite sample at grid index \(1, "):
            WaveState(grid, values)

    def test_curl_check_reads_the_half_spectrum(self):
        """The curl residue by Parseval on the half spectrum equals the
        full-spectrum one, and both ways to build a state reject a velocity
        that is not curl free."""
        grid = Grid((16, 24))
        x1, x2 = (np.asarray(x) for x in grid.x)
        vel = (Field(grid, np.cos(x2) + 0 * x1), zero(grid))
        d = SymbolCatalog.gradient(full(grid))
        want = math.sqrt(np.sum(np.abs(d[0] * coeffs(vel[1]) - d[1] * coeffs(vel[0])) ** 2))
        got = curl_residue(grid, [f.values for f in vel])
        assert math.isclose(got, want, rel_tol=PARSEVAL_RTOL)
        with pytest.raises(ValueError, match="not curl free"):
            state_of(zero(grid), *vel)
        u = np.stack([cut(grid, coeffs(f)) for f in (zero(grid), *vel)])
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
        scale = float(np.max(np.abs(state.samples[comp])))
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


def old_random_bandlimited(grid, seed, band, amplitude):
    """The former preset: every field by ``Field.from_coeffs``, the 2D
    velocity by full-spectrum derivatives of the potential."""
    rng = np.random.default_rng(seed)

    def draw():
        return Field.from_coeffs(grid, two_loop_band_coeffs(grid, rng, band))

    eta = draw().values
    eta = (amplitude / np.max(np.abs(eta))) * eta
    if grid.dim == 1:
        v = draw().values
        return WaveState(grid, np.stack([eta, (amplitude / np.max(np.abs(v))) * v]))
    psi = draw()
    vel = np.stack([apply_multiplier(d, psi).values for d in SymbolCatalog.gradient(full(grid))])
    speed = math.sqrt(float(np.max(vel[0] ** 2 + vel[1] ** 2)))
    return WaveState(grid, np.concatenate([eta[None], (amplitude / speed) * vel]))


def old_gaussian_bump_2d(grid, amplitude, width):
    g1, g2 = (_periodized_bump(grid.x[j], grid.length[j], width) for j in range(2))
    eta = Field(grid, amplitude * g1 * g2)
    vel = [width * apply_multiplier(d, eta).values for d in SymbolCatalog.gradient(full(grid))]
    return WaveState(grid, np.stack([eta.values, *vel]))


def old_packed(state):
    """The former packing of a state built from samples: each component's
    full fftn spectrum, cut to the half slice."""
    return np.stack([cut(state.grid, coeffs(f)) for f in fields(state)])


class TestPresetsAgainstFieldPath:
    """``random_bandlimited`` and the 2D ``gaussian_bump`` build their states
    on the half spectrum, and a state built from samples is packed by one
    rfftn; they agree with the former field-built states and fftn packing
    to PRESET_RTOL of the largest value."""

    PRESET_RTOL = 1e-13

    def _close_states(self, got, want):
        for new, old in ((got.packed(), want.packed()), (got.samples, want.samples)):
            assert np.max(np.abs(new - old)) <= self.PRESET_RTOL * np.max(np.abs(old))

    @pytest.mark.parametrize("n", [(32, 32), (16, 24), (128, 128)])
    def test_random_bandlimited_2d(self, n):
        grid = Grid(n)
        for seed in (0, 7):
            got = random_bandlimited(grid, seed=seed, band=5, amplitude=0.05)
            self._close_states(got, old_random_bandlimited(grid, seed, 5, 0.05))

    @pytest.mark.parametrize("n", [(32, 32), (16, 24)])
    def test_gaussian_bump_2d(self, n):
        grid = Grid(n)
        got = gaussian_bump(grid, 0.1, 0.6)
        self._close_states(got, old_gaussian_bump_2d(grid, 0.1, 0.6))

    @pytest.mark.parametrize("n", [64, 256])
    def test_random_bandlimited_1d(self, n):
        grid = Grid(n)
        for seed, band in ((0, 6), (3, 21)):
            got = random_bandlimited(grid, seed=seed, band=band, amplitude=0.5)
            self._close_states(got, old_random_bandlimited(grid, seed, band, 0.5))

    @pytest.mark.parametrize("n", [(64,), (32, 32), (16, 24)])
    def test_field_built_states_pack_as_before(self, n, tmp_path):
        """``single_mode`` and a snapshot read back are built from samples."""
        grid = Grid(n)
        path = tmp_path / "state.wbsnap"
        write_snapshot(path, random_bandlimited(grid, seed=2, band=4, amplitude=0.3))
        mode = 3 if grid.dim == 1 else (2, -1)
        for st in (single_mode(grid, 0.2, mode=mode), read_snapshot(path)):
            want = old_packed(st)
            assert np.max(np.abs(st.packed() - want)) <= self.PRESET_RTOL * np.max(np.abs(want))


# The former per-dimension bodies of three helpers that are now written once,
# the 1D formula the d = 1 case of the 2D one, on the full lattice.  The new
# bodies make the same draws and the same floating-point operations on the
# half lattice, so they agree bit for bit with the half of the former arrays.

def two_loop_band_coeffs(grid, rng, band):
    """The former ``_random_band_coeffs``: one loop per dimension, drawn into
    the full lattice."""
    c = np.zeros(grid.shape, dtype=np.complex128)
    if grid.dim == 1:
        for k in range(1, band + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[k] = z
            c[-k] = np.conj(z)
    else:
        for k1 in range(0, band + 1):
            for k2 in range(-band, band + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                z = complex(rng.standard_normal(), rng.standard_normal())
                c[k1, k2] = z
                c[-k1, -k2] = np.conj(z)
    return c


def old_xi_norm(grid):
    if grid.dim == 1:
        return np.abs(grid.xi[0])
    return np.sqrt(grid.xi[0] ** 2 + grid.xi[1] ** 2)


def old_linf_v(x):
    """The former ``linf_v`` column of a (B, 1 + d, *n) stack of samples."""
    if x.ndim == 3:
        return np.abs(x[:, 1]).max(axis=-1)
    return np.sqrt((x[:, 1] ** 2 + x[:, 2] ** 2).max(axis=(-2, -1)))


def old_samples_residue(grid, u):
    """The former realness residue of ``_samples``: per field, the summed
    |Im| of the end columns' inverse over the other axes, its max over x'."""
    d, n = grid.dim, grid.n[-1]
    ends = u[..., :: n // 2]
    if d == 2:
        ends = np.fft.ifft(ends, axis=-2)
    imag = np.abs(ends.imag).sum(axis=-1)
    if d == 2:
        imag = imag.max(axis=-1)
    return imag


BITWISE_GRIDS = [
    Grid(16), Grid(64, 3.7), Grid(256), Grid(18, 100.0),
    Grid((32, 32)), Grid((16, 24), (2.0, 9.5)), Grid((128, 128), (1e-3, 50.0)), Grid((12, 40)),
]


@pytest.mark.parametrize("grid", BITWISE_GRIDS, ids=lambda g: f"{g.n}-{g.length[0]:g}")
class TestOneBodyForBothDimensions:
    def test_band_coeffs_draw_as_before(self, grid):
        top = min(grid.dealias_band(j) for j in range(grid.dim))
        for band in sorted({1, 2, top // 2 or 1, top}):
            for seed in (0, 7, 123):
                new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(2):  # eta's draw, then the velocity's
                    new = _random_band_coeffs(grid, new_rng, band)
                    assert new.shape == grid.half_shape
                    assert np.array_equal(new, cut(grid, two_loop_band_coeffs(grid, old_rng, band)))
                assert new_rng.standard_normal() == old_rng.standard_normal()

    def test_xi_norm_as_before(self, grid):
        assert np.array_equal(grid.xi_norm, cut(grid, old_xi_norm(full(grid))))

    def test_linf_v_as_before(self, grid):
        band = min(grid.dealias_band(j) for j in range(grid.dim))
        states = [random_bandlimited(grid, seed=s, band=max(band // 2, 1), amplitude=a)
                  for s, a in ((0, 0.05), (5, 1.3), (9, 40.0))]
        mode = 1 if grid.dim == 1 else (1, -1)
        states += [single_mode(grid, 0.2, mode=mode, v_amplitude=0.7),
                   gaussian_bump(grid, 0.1, 0.3 * min(grid.length))]
        reports = EnergyReport.measure(states, Params(kappa=1.0, s=1.5))
        want = old_linf_v(np.array([st.samples for st in states]))
        assert np.array_equal([rep.linf_v for rep in reports], want)

    def test_samples_check_as_before(self, grid):
        """Stacks whose end columns carry imaginary parts from a third to
        three times the realness bound: ``_samples`` accepts exactly the
        stacks the former residue accepts, returning the inverse transform,
        and refuses the others naming the former residue of the first
        field past the bound."""
        d, n = grid.dim, grid.n[-1]
        axes = tuple(range(-d, 0))
        rng = np.random.default_rng(11)
        band = max(min(grid.dealias_band(j) for j in range(d)) // 2, 1)
        u = np.stack([random_bandlimited(grid, seed=s, band=band, amplitude=0.3).packed()
                      for s in range(4)])
        x = grid.inverse_half(u)
        bound = (REALNESS_TOL * n * grid._norm_factor) * np.abs(x).max(axis=axes)
        noise = np.zeros_like(u)
        noise[..., :: n // 2] = 1j * rng.standard_normal(noise[..., :: n // 2].shape)
        noise *= (bound / old_samples_residue(grid, noise)).reshape(bound.shape + (1,) * d)
        seen = set()
        for factors in ([0.3] * 4, [0.3, 0.3, 3.0, 0.3], [3.0, 0.3, 3.0, 3.0]):
            scaled = u + noise * np.reshape(factors, (4,) + (1,) * (d + 1))
            for stack in (scaled, scaled[1], scaled[2]):
                imag = old_samples_residue(grid, stack)
                scale = np.abs(grid.inverse_half(stack)).max(axis=axes)
                within = imag <= (REALNESS_TOL * n * grid._norm_factor) * scale
                seen.add(bool(within.all()))
                if within.all():
                    got = _samples(grid, stack)
                    assert np.array_equal(got, grid.inverse_half(stack))
                    assert not got.flags.writeable
                    continue
                i = np.argmin(within)
                with pytest.raises(SpectralError) as err:
                    _samples(grid, stack)
                assert str(err.value) == (
                    f"trajectory sample: imaginary residue "
                    f"{imag.flat[i] / (n * grid._norm_factor):.3e} exceeds "
                    f"{REALNESS_TOL:.0e} of field scale {scale.flat[i]:.3e}"
                )
        assert seen == {True, False}
