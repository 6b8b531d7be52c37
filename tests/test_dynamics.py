import math

import numpy as np
import pytest

from wbwaves import dynamics
from wbwaves.dynamics import (
    IntegratorConfig,
    PicardError,
    _ops,
    _Propagator,
    _resolve_steps,
    energy_derivative_check,
    evolve,
    picard_solve,
    rhs,
)
from wbwaves.functionals import EnergyReport
from wbwaves.presets import random_bandlimited, single_mode
from wbwaves.spectral import Field, Grid, SymbolCatalog, apply_multiplier
from wbwaves.state import Params, WaveState, _weighted_sq_coeffs, weighted_pair_norm


def small_state(grid, seed=0, band=4, amplitude=0.05):
    return random_bandlimited(grid, seed=seed, band=band, amplitude=amplitude)


def propagate(params, t, u):
    """S(t)u by the solver's propagator, as the state at time u.time + t."""
    prop = _ops(u.grid, params, True).propagator(t)
    return WaveState.from_packed(u.grid, prop.apply(u.packed()), u.time + t)


def linear_part(u, params):
    """The linear part of the right-hand side, as the solver evaluates it."""
    return WaveState.from_packed(u.grid, _ops(u.grid, params, True).linear(u.packed()), u.time)


class TestRhs:
    def test_zero_state_is_equilibrium(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        out = rhs(WaveState.zero(g), params)
        assert np.max(np.abs(out.eta.values)) == 0.0
        assert np.max(np.abs(out.v.values)) == 0.0

    def test_single_mode_elevation(self):
        # eta = cos x, v = 0, kappa = 1: deta/dt = 0 and
        # dv/dt = -i tanh(D)(1 + D^2) cos x = (1 + 1) tanh(1) sin x.
        g = Grid(64)
        params = Params(kappa=1.0)
        x = np.asarray(g.x[0])
        st = WaveState(Field(g, np.cos(x)), (g.zero_field(),))
        out = rhs(st, params)
        assert np.max(np.abs(out.eta.values)) < 1e-13
        want = 2.0 * math.tanh(1.0) * np.sin(x)
        # the capillary symbol grows like xi^2, amplifying spectral roundoff
        assert np.max(np.abs(out.v.values - want)) < 1e-12

    def test_neg_i_tanh_orientation(self):
        # The base oracle: the 1D forcing -i tanh(D) maps cos x to tanh(1) sin x.
        g = Grid(64)
        x = np.asarray(g.x[0])
        f = Field(g, np.cos(x))
        out = Field.from_coeffs(g, SymbolCatalog.forcing(g)[0] * f.coeffs)
        assert np.max(np.abs(out.values - math.tanh(1.0) * np.sin(x))) < 1e-13

    def test_linearization_residual_scales_linearly(self):
        g = Grid(64)
        params = Params(kappa=0.5)
        u = random_bandlimited(g, seed=3, band=5, amplitude=1.0)
        lin = linear_part(u, params)

        def residual(a):
            scaled = WaveState(a * u.eta, (a * u.v,))
            r = rhs(scaled, params)
            diff_eta = r.eta.values / a - lin.eta.values
            diff_v = r.v.values / a - lin.v.values
            return math.sqrt(g.quadrature(diff_eta**2 + diff_v**2))

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r2 == pytest.approx(0.5 * r1, rel=1e-6)

    def test_regularized_adds_damping(self):
        g = Grid(64)
        u = small_state(g, seed=4)
        base = rhs(u, Params(kappa=1.0))
        reg = rhs(u, Params(kappa=1.0, mu=0.5, p=1.0))
        heat = apply_multiplier(SymbolCatalog.riesz(1.0), u.eta)
        want = base.eta.values - 1.0 * 0.5 * heat.values
        assert np.max(np.abs(reg.eta.values - want)) < 1e-12

    def test_2d_rhs_is_curl_free_and_real(self):
        g = Grid((32, 32))
        u = small_state(g, seed=5, amplitude=0.1)
        out = rhs(u, Params(kappa=1.0))
        # WaveState construction enforces realness and the curl residue bound
        assert out.dim == 2

    def test_regularized_params_validation(self):
        with pytest.raises(ValueError, match="kappa > 0"):
            Params(kappa=0.0, mu=0.5)


def expm_mode(k, kappa, mu, p, t):
    """Independent per-mode oracle: eigendecomposition of the 2x2 symbol."""
    h = kappa * mu * abs(k) ** p if mu > 0 else 0.0
    m = np.array(
        [
            [-h, -1j * k],
            [-1j * math.tanh(k) * (1.0 + kappa * k * k), -h],
        ]
    )
    lam, vecs = np.linalg.eig(m)
    return vecs @ np.diag(np.exp(t * lam)) @ np.linalg.inv(vecs)


class TestSemigroup:
    def test_identity_at_zero_time(self):
        g = Grid(64)
        u = small_state(g, seed=6)
        out = propagate(Params(kappa=1.0), 0.0, u)
        assert np.max(np.abs(out.eta.values - u.eta.values)) < 1e-12
        assert np.max(np.abs(out.v.values - u.v.values)) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_against_matrix_exponential(self, mu):
        g = Grid(64)
        kappa, p, t = 0.7, 1.0, 0.37
        params = Params(kappa=kappa, mu=mu, p=p)
        u = small_state(g, seed=7, band=6, amplitude=0.3)
        out = propagate(params, t, u)
        for k in (1, 2, 5):
            vec = np.array([u.eta.coeffs[g.coeff_index(k)], u.v.coeffs[g.coeff_index(k)]])
            want = expm_mode(k, kappa, mu, p, t) @ vec
            got = np.array([out.eta.coeffs[g.coeff_index(k)], out.v.coeffs[g.coeff_index(k)]])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_group_property(self):
        g = Grid(64)
        params = Params(kappa=1.0)
        u = small_state(g, seed=8)
        one = propagate(params, 0.7, propagate(params, 0.4, u))
        two = propagate(params, 1.1, u)
        scale = max(np.max(np.abs(two.eta.values)), np.max(np.abs(two.v.values)))
        assert np.max(np.abs(one.eta.values - two.eta.values)) <= 1e-10 * scale
        assert np.max(np.abs(one.v.values - two.v.values)) <= 1e-10 * scale

    def test_semigroup_law_and_contraction_with_viscosity(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.4, p=1.0)
        u = small_state(g, seed=9)
        u = WaveState(u.eta - Field(g, np.full(64, np.mean(u.eta.values))), (u.v,))
        one = propagate(params, 0.3, propagate(params, 0.5, u))
        two = propagate(params, 0.8, u)
        assert np.max(np.abs(one.eta.values - two.eta.values)) < 1e-10
        l2 = lambda st: math.sqrt(g.quadrature(st.eta.values**2 + st.v.values**2))
        decayed = propagate(params, 0.5, u)
        assert l2(decayed) < l2(u)

    def test_energy_of_single_mode_constant(self):
        # mu = 0: each mode rotates, the quadratic energy of the mode is flat.
        g = Grid(64)
        params = Params(kappa=1.0, s=0.5)
        u = single_mode(g, 0.1, mode=3)
        quad = lambda st: weighted_pair_norm(st, 0.5, params.kappa)
        before = quad(u)
        after = quad(propagate(params, 2.3, u))
        assert after == pytest.approx(before, rel=1e-10)

    def test_quadratic_hamiltonian_preserved(self):
        g = Grid(64)
        params = Params(kappa=0.6, s=0.5)
        u = small_state(g, seed=10)
        before = weighted_pair_norm(u, 0.5, params.kappa)
        after = weighted_pair_norm(propagate(params, 1.7, u), 0.5, params.kappa)
        assert after == pytest.approx(before, rel=1e-10)

    def test_generator_matches_linear_rhs(self):
        # centered difference of t -> S(t)u against the linear RHS, dt = 1e-4
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.2, p=1.0)
        u = small_state(g, seed=11)
        dt = 1e-4
        plus = propagate(params, dt, u)
        minus = propagate(params, -dt, u)
        want = linear_part(u, params)
        d_eta = (plus.eta.values - minus.eta.values) / (2 * dt)
        d_v = (plus.v.values - minus.v.values) / (2 * dt)
        scale = max(np.max(np.abs(want.eta.values)), np.max(np.abs(want.v.values)), 1e-12)
        assert np.max(np.abs(d_eta - want.eta.values)) <= 1e-6 * scale
        assert np.max(np.abs(d_v - want.v.values)) <= 1e-6 * scale

    def test_2d_matches_1d_structure_on_plane_wave(self):
        # A plane wave along x1 must rotate with phase |xi| K_kappa(|xi|).
        g = Grid((32, 32))
        params = Params(kappa=0.8)
        u = single_mode(g, 0.1, mode=(2, 0))
        t = 0.41
        out = propagate(params, t, u)
        g1 = Grid(32)
        u1 = single_mode(g1, 0.1, mode=2)
        out1 = propagate(params, t, u1)
        got = out.eta.coeffs[g.coeff_index((2, 0))] / math.sqrt(2 * math.pi)
        want = out1.eta.coeffs[g1.coeff_index(2)]
        assert abs(got - want) < 1e-12


class TestEvolve:
    def test_zero_data_zero_trajectory(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        cfg = IntegratorConfig(dt=0.01)
        res = evolve(WaveState.zero(g), params, cfg, T=0.5, report_every=0.1)
        assert not res.blown_up
        assert all(rep.hamiltonian == 0.0 for rep in res.reports)
        assert len(res.reports) == 6

    def test_report_count_contract(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        res = evolve(small_state(g), params, IntegratorConfig(dt=0.01), T=1.0, report_every=0.3)
        assert len(res.reports) == math.ceil(1.0 / 0.3) + 1
        assert res.reports[-1].time == pytest.approx(1.0, abs=1e-12)

    def test_short_conservation(self):
        g = Grid(128)
        params = Params(kappa=1.0, s=0.5)
        u0 = single_mode(g, 0.1)
        res = evolve(u0, params, IntegratorConfig(dt=1e-3), T=2.0, report_every=0.25)
        h = [rep.hamiltonian for rep in res.reports]
        mom = [rep.momentum for rep in res.reports]
        assert max(abs(x - h[0]) for x in h) <= 1e-9 * abs(h[0])
        assert max(abs(x - mom[0]) for x in mom) <= 1e-9 * (1 + abs(mom[0]))

    def test_viscous_hamiltonian_decreases(self):
        g = Grid(128)
        params = Params(kappa=0.5, mu=0.2, p=1.0, s=0.5)
        u0 = single_mode(g, 0.05)
        res = evolve(u0, params, IntegratorConfig(dt=2e-3), T=3.0, report_every=0.5)
        h = [rep.hamiltonian for rep in res.reports]
        assert all(b <= a + 1e-10 * abs(h[0]) for a, b in zip(h, h[1:]))
        assert h[-1] < h[0]

    def test_blowup_flagged_with_partial_trajectory(self):
        g = Grid(64)
        params = Params(kappa=1.0)
        u0 = single_mode(g, 40.0)
        cfg = IntegratorConfig(method="reference_rk4", dt=0.05, blowup_ceiling=100.0)
        res = evolve(u0, params, cfg, T=5.0, report_every=0.05)
        assert res.blown_up
        assert res.blowup_time is not None and res.blowup_time <= 5.0
        assert len(res.trajectory.states) >= 1

    def test_reference_and_exponential_agree(self):
        g = Grid(64)
        params = Params(kappa=1.0)
        u0 = small_state(g, seed=12)
        a = evolve(u0, params, IntegratorConfig(method="exponential_rk4", dt=1e-3), T=0.5)
        b = evolve(u0, params, IntegratorConfig(method="reference_rk4", dt=1e-3), T=0.5)
        diff = np.max(np.abs(a.final.eta.values - b.final.eta.values))
        assert diff < 1e-9

    def test_report_steps_are_distinct_when_the_cadence_does_not_divide_T(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        res = evolve(small_state(g), params, IntegratorConfig(dt=0.01), T=1.0, report_every=0.333)
        times = res.trajectory.times
        assert len(times) == len(set(times)) == 4
        assert times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_realness_along_trajectory(self):
        # from_coeffs enforces the 1e-12 residue bound at every report time
        g = Grid(64)
        params = Params(kappa=1.0)
        res = evolve(small_state(g, seed=13), params, IntegratorConfig(dt=2e-3), T=1.0, report_every=0.1)
        assert len(res.reports) == 11

    def test_2d_short_run_stays_curl_free(self):
        g = Grid((32, 32))
        params = Params(kappa=1.0)
        u0 = small_state(g, seed=14, amplitude=0.05)
        res = evolve(u0, params, IntegratorConfig(dt=2e-3), T=0.2, report_every=0.05)
        # WaveState materialization would have raised on curl growth
        assert not res.blown_up
        h = [rep.hamiltonian for rep in res.reports]
        assert max(abs(x - h[0]) for x in h) <= 1e-8 * abs(h[0])


class TestPicard:
    def test_zero_data_converges_immediately(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        res = picard_solve(WaveState.zero(g), params, IntegratorConfig(dt=0.01), T=0.1)
        assert res.iterations == 1
        assert all(np.max(np.abs(um)) == 0.0 for um in res.nodes)

    def test_requires_regularization(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        with pytest.raises(ValueError, match="regularized"):
            picard_solve(WaveState.zero(g), params, IntegratorConfig(), T=0.1)

    def test_matches_reference_rk4(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.1, p=1.0, s=1.0)
        u0 = small_state(g, seed=15, amplitude=0.02)
        dt = 1e-3
        cfg = IntegratorConfig(dt=dt, picard_tol=1e-10, picard_max_iter=40)
        pic = picard_solve(u0, params, cfg, T=0.3)
        ref = evolve(u0, params, IntegratorConfig(method="reference_rk4", dt=dt), T=0.3)
        diff = WaveState(
            pic.final.eta - ref.final.eta, (pic.final.v - ref.final.v,)
        )
        err = weighted_pair_norm(diff, params.s, params.kappa)
        assert err <= max(cfg.picard_tol, dt**4)

    def test_discrete_duhamel_identity(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        u0 = small_state(g, seed=16, amplitude=0.02)
        cfg = IntegratorConfig(dt=5e-3, picard_tol=1e-11, picard_max_iter=40)
        res = picard_solve(u0, params, cfg, T=0.2)
        assert res.defects[-1] < cfg.picard_tol

    def test_admissible_horizon_shrinks_with_amplitude(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.2, p=1.0, s=1.0)
        horizons = []
        grid_T = [3.2, 1.6, 0.8, 0.4, 0.2, 0.1]
        for amp in (0.5, 2.0, 8.0):
            u0 = single_mode(g, amp)
            best = 0.0
            for T in grid_T:
                cfg = IntegratorConfig(dt=T / 40, picard_tol=1e-8, picard_max_iter=20)
                try:
                    picard_solve(u0, params, cfg, T=T)
                    best = T
                    break
                except PicardError:
                    continue
            horizons.append(best)
        assert horizons[0] >= horizons[1] >= horizons[2]
        assert horizons[0] > horizons[2]

    def test_nonconvergence_reports_contraction(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.2, p=1.0)
        u0 = single_mode(g, 20.0)
        cfg = IntegratorConfig(dt=0.05, picard_tol=1e-10, picard_max_iter=5)
        with pytest.raises(PicardError, match="contraction"):
            picard_solve(u0, params, cfg, T=2.0)

    def test_nan_defect_counts_as_divergence(self, monkeypatch):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        monkeypatch.setattr(dynamics, "_weighted_sq_coeffs", lambda *args: math.nan)
        with pytest.raises(PicardError, match="diverged"):
            picard_solve(WaveState.zero(g), params, IntegratorConfig(dt=0.01), T=0.1)


# ---------------------------------------------------------------------------
# Reference: the O(N^2) Duhamel sweep that picard_solve's panel recurrence
# replaced.  Every node sums S((m - j) dt) N_j over the composite rule's
# weights, so a sweep applies about N^2/2 propagators.

# The recurrence only regroups the same sum by the semigroup law, so the two
# agree to roundoff accumulated over N panels.
DUHAMEL_RTOL = 1e-12


def duhamel_weights(m, n_nodes, dt):
    """Nodes and weights of a composite fourth-order rule over [0, m*dt]."""
    if m == 0:
        return np.array([], dtype=int), np.array([])
    if m == 1:
        if n_nodes >= 4:  # cubic through nodes 0..3, integrated over [0, dt]
            return np.arange(4), dt * np.array([3 / 8, 19 / 24, -5 / 24, 1 / 24])
        if n_nodes == 3:
            return np.arange(3), dt * np.array([5 / 12, 2 / 3, -1 / 12])
        return np.arange(2), dt * np.array([0.5, 0.5])
    if m == 2:
        return np.arange(3), dt / 3.0 * np.array([1.0, 4.0, 1.0])
    if m == 3:
        return np.arange(4), 3.0 * dt / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    w = np.zeros(m + 1)
    if m % 2 == 0:
        w[0] = w[m] = 1.0
        w[1:m:2] = 4.0
        w[2:m:2] = 2.0
        w *= dt / 3.0
    else:
        head = m - 3
        w[0] = w[head] = 1.0
        w[1:head:2] = 4.0
        w[2:head:2] = 2.0
        w *= dt / 3.0
        w[head:] += 3.0 * dt / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return np.arange(m + 1), w


def weighted_norm(grid, params, u):
    """Weighted norm of half-spectrum coefficients (Parseval weights)."""
    return math.sqrt(_weighted_sq_coeffs(grid, u, params.s, params.kappa))


def quadratic_picard(u0, params, cfg, T):
    """Node coefficient arrays and per-sweep defects of the O(N^2) iteration."""
    n_steps, dt = _resolve_steps(T, cfg.dt)
    ops = _ops(u0.grid, params, cfg.dealias)
    props = {k: _Propagator(ops, k * dt) for k in range(-2, n_steps + 1)}
    free = [props[m].apply(u0.packed()) for m in range(n_steps + 1)]
    u, defects = free, []
    for _ in range(cfg.picard_max_iter):
        forcing = [ops.nonlinear(um) for um in u]
        new_u = []
        for m in range(n_steps + 1):
            nodes, w = duhamel_weights(m, n_steps + 1, dt)
            acc = free[m]
            for j, wj in zip(nodes, w):
                acc = acc + wj * props[m - int(j)].apply(forcing[int(j)])
            new_u.append(acc)
        defects.append(max(weighted_norm(u0.grid, params, a - b) for a, b in zip(new_u, u)))
        u = new_u
        if defects[-1] < cfg.picard_tol:
            return u, defects
    raise AssertionError("reference iteration did not converge")


class TestPanelRecurrence:
    @pytest.mark.parametrize(
        "n, steps",
        [((32,), k) for k in (1, 2, 3, 4, 5, 7, 40, 400)]
        + [((16, 16), k) for k in (1, 2, 3, 4, 5, 7, 40)],
    )
    def test_matches_quadratic_sum(self, n, steps):
        g = Grid(n)
        params = Params(kappa=1.0, mu=0.1, p=1.0, s=1.0)
        u0 = random_bandlimited(g, seed=7, band=4, amplitude=0.05)
        T = 0.2 if steps < 400 else 0.8
        cfg = IntegratorConfig(dt=T / steps, picard_tol=1e-6, picard_max_iter=30)
        res = picard_solve(u0, params, cfg, T)
        ref, ref_defects = quadratic_picard(u0, params, cfg, T)
        assert len(res.nodes) == steps + 1
        scale = max(weighted_norm(g, params, um) for um in ref)
        err = max(weighted_norm(g, params, a - b) for a, b in zip(res.nodes, ref))
        assert err <= DUHAMEL_RTOL * scale
        assert res.iterations == len(ref_defects) >= 2
        # A defect is a norm of a difference of two sweeps, so it moves by at
        # most twice the trajectory discrepancy.
        for d, d_ref in zip(res.defects, ref_defects):
            assert abs(d - d_ref) <= 2 * DUHAMEL_RTOL * scale


class TestOperatorCaches:
    def test_kappa_sweep_keeps_ops_cache_bounded(self):
        g = Grid(16)
        kept = _ops(g, Params(kappa=1.0), True)
        for kappa in np.linspace(0.01, 5.0, 50):
            params = Params(kappa=float(kappa))
            ops = _ops(g, params, True)
            assert _ops(g, params, True) is ops
            assert _ops(g, Params(kappa=1.0), True) is kept  # recently used
            assert len(dynamics._OPS_CACHE) <= dynamics._CACHE_SIZE

    def test_long_solve_keeps_propagator_cache_bounded(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        u0 = small_state(g, seed=3, amplitude=0.02)
        res = picard_solve(u0, params, IntegratorConfig(dt=1e-3, picard_tol=1e-8), T=0.4)
        assert len(res.nodes) == 401
        ops = _ops(g, params, True)
        assert len(ops._props) <= dynamics._CACHE_SIZE
        assert ops.propagator(0.5) is ops.propagator(0.5)

    def test_long_solve_builds_few_propagators(self, monkeypatch):
        # The free trajectory steps by S(dt) and a sweep applies S(k dt) for
        # k = -2 .. 3, so the node count does not set the number of builds.
        builds = []
        init = _Propagator.__init__

        def counted(self, ops, t):
            builds.append(t)
            init(self, ops, t)

        monkeypatch.setattr(_Propagator, "__init__", counted)
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.15, p=1.0)
        u0 = small_state(g, seed=4, amplitude=0.02)
        res = picard_solve(u0, params, IntegratorConfig(dt=1e-3, picard_tol=1e-8), T=0.4)
        assert len(res.nodes) == 401
        assert len(builds) <= 8


def count_report_transforms(monkeypatch):
    """Wrap every np.fft function (as bench/tracer.py does) to record the
    calls made inside ``WaveState.from_packed`` or ``EnergyReport.measure``,
    the transforms of evolve's reports."""
    calls, depth = [], [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def inside(fn):
        def wrapper(cls, *args, **kwargs):
            depth[0] += 1
            try:
                return fn(cls, *args, **kwargs)
            finally:
                depth[0] -= 1

        return classmethod(wrapper)

    for name in dir(np.fft):
        if name.endswith(("fft", "fft2", "fftn")):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    for owner, attr in ((WaveState, "from_packed"), (EnergyReport, "measure")):
        monkeypatch.setattr(owner, attr, inside(owner.__dict__[attr].__func__))
    return calls


class TestPackedTrajectory:
    # A report step samples its stack with one inverse rfftn (plus one small
    # transform of the self-conjugate columns in 2D) and takes both cubic
    # terms from one more: 1 + d transforms, whatever the number of members.

    @pytest.mark.parametrize("n", [(64,), (16, 16)])
    def test_picard_evolve_builds_states_only_for_reports(self, n, monkeypatch):
        g = Grid(n)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        u0 = small_state(g, seed=5, amplitude=0.02)
        calls = count_report_transforms(monkeypatch)
        cfg = IntegratorConfig(method="picard_duhamel", dt=0.01)
        res = evolve(u0, params, cfg, T=0.4, report_every=0.1)
        assert len(res.reports) == 5
        assert len(calls) == (1 + g.dim) * len(res.reports)

    @pytest.mark.parametrize("n", [(64,), (16, 16)])
    def test_batched_reports_transform_once_per_report_step(self, n, monkeypatch):
        g = Grid(n)
        params = Params(kappa=1.0)
        members = [small_state(g, seed=seed, amplitude=0.02) for seed in (5, 6, 7)]
        calls = count_report_transforms(monkeypatch)
        results = evolve(members, params, IntegratorConfig(dt=0.01), T=0.4, report_every=0.1)
        assert [len(r.reports) for r in results] == [5, 5, 5]
        assert len(calls) == (1 + g.dim) * 5

    def test_picard_final_is_the_last_node(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        res = picard_solve(small_state(g, seed=6), params, IntegratorConfig(dt=0.01), T=0.1)
        assert np.array_equal(res.final.packed(), res.nodes[-1])
        assert res.final.time == res.times[-1] == pytest.approx(0.1, abs=1e-15)


class TestEnergyDerivative:
    def test_zero_state(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        chk = energy_derivative_check(WaveState.zero(g), params, s=1.0)
        assert chk.chain_rule == 0.0 and chk.evolution == 0.0 and chk.agree

    def test_conserved_at_half(self):
        g = Grid(64)
        params = Params(kappa=1.0, s=0.5)
        for seed in (20, 21, 22):
            u = small_state(g, seed=seed, amplitude=0.05)
            chk = energy_derivative_check(u, params, s=0.5)
            assert abs(chk.chain_rule) <= 1e-8

    def test_routes_agree_on_family(self):
        g = Grid(64)
        params = Params(kappa=1.0, s=1.0)
        for seed in range(23, 29):
            u = small_state(g, seed=seed, amplitude=0.05)
            chk = energy_derivative_check(u, params, s=1.0)
            assert chk.agree, (chk.chain_rule, chk.evolution)
            assert math.isfinite(chk.ratio)

    def test_viscous_derivative_negative_at_half(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.3, p=1.0, s=0.5)
        u = small_state(g, seed=30, amplitude=0.03)
        chk = energy_derivative_check(u, params, s=0.5)
        assert chk.chain_rule < 0


# ---------------------------------------------------------------------------
# Reference: the per-dimension operators that the dimension-generic _Ops and
# _Propagator replaced, each array written inline.  1D used -i tanh(D) and
# -i tanh(D)(1 + kappa D^2) with the signed phase xi K_kappa; 2D used K^2 div,
# K^2 grad and the potential amplitude psi = e.v, dropping velocity content
# off e.  Agreement is to roundoff on states whose velocity lies on e.

OPERATOR_RTOL = 1e-13


class PerDimensionOperators:
    def __init__(self, grid, params):
        a = grid.xi_norm
        safe = np.where(a == 0.0, 1.0, a)
        k2 = np.where(a == 0.0, 1.0, np.tanh(safe) / safe)
        kk = np.sqrt((1.0 + params.kappa * a * a) * k2)
        self.grid, self.mask, self.dim = grid, grid.dealias_mask, grid.dim
        self.dx = [np.where(grid.axis_nyquist(j), 0.0, 1j * grid.xi[j]) for j in range(grid.dim)]
        self.heat_rate = None
        if params.mu > 0:
            self.heat_rate = params.kappa * params.mu * np.where(a == 0.0, 0.0, safe**params.p)
        self.kk, self.kk_inv = kk, 1.0 / kk
        if grid.dim == 1:
            xi = grid.xi[0]
            t = np.where(grid.axis_nyquist(0), 0.0, np.tanh(xi))
            self.A = -1j * t
            self.Acap = -1j * t * (1.0 + params.kappa * xi * xi)
            self.phase = np.where(grid.axis_nyquist(0), 0.0, xi) * kk
        else:
            self.K2, self.cap = k2, 1.0 + params.kappa * a * a
            self.unit = [np.where(grid.nyquist_mask | (a == 0.0), 0.0, x / safe) for x in grid.xi]
            self.phase = np.where(grid.nyquist_mask, 0.0, a * kk)

    def coeffs(self, values):
        return np.where(self.mask, np.fft.fftn(values) * self.grid._norm_factor, 0.0)

    def phys(self, c):
        return self.grid.inverse(np.where(self.mask, c, 0.0)).real

    def nonlinear(self, u):
        if self.dim == 1:
            eta, v = (self.phys(c) for c in u)
            return (self.A * self.coeffs(eta * v), self.A * self.coeffs(0.5 * v * v))
        eta, v1, v2 = (self.phys(c) for c in u)
        de = -self.K2 * (self.dx[0] * self.coeffs(eta * v1) + self.dx[1] * self.coeffs(eta * v2))
        grad = self.K2 * self.coeffs(0.5 * (v1 * v1 + v2 * v2))
        return (de, -self.dx[0] * grad, -self.dx[1] * grad)

    def linear(self, u):
        if self.dim == 1:
            out = [-self.dx[0] * u[1], self.Acap * u[0]]
        else:
            grad = self.K2 * self.cap * u[0]
            out = [-(self.dx[0] * u[1] + self.dx[1] * u[2]), -self.dx[0] * grad, -self.dx[1] * grad]
        if self.heat_rate is not None:
            out = [d - self.heat_rate * c for d, c in zip(out, u)]
        return out

    def propagate(self, u, t):
        cos, sin = np.cos(t * self.phase), np.sin(t * self.phase)
        psi = u[1] if self.dim == 1 else self.unit[0] * u[1] + self.unit[1] * u[2]
        e_new = cos * u[0] - 1j * self.kk_inv * sin * psi
        p_new = -1j * self.kk * sin * u[0] + cos * psi
        if self.heat_rate is not None:
            heat = np.exp(-t * self.heat_rate)
            e_new, p_new = heat * e_new, heat * p_new
        if self.dim == 1:
            return [e_new, p_new]
        return [e_new, self.unit[0] * p_new, self.unit[1] * p_new]


def _half(grid, u):
    """The half-spectrum layout of a tuple of full spectra."""
    return np.stack([grid.half(c) for c in u])


def _max_rel(got, want):
    scale = max(float(np.max(np.abs(w))) for w in want)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


class TestDimensionGenericOperators:
    @pytest.mark.parametrize("n", [(64,), (256,), (32, 32), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_match_per_dimension_formulas(self, n, mu):
        g = Grid(n)
        params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
        ops, ref = _ops(g, params, True), PerDimensionOperators(g, params)
        for seed in range(3):
            if g.dim == 1:  # full spectrum, velocity mean and Nyquist mode included
                rng = np.random.default_rng(seed)
                u = tuple(g.transform(0.3 * rng.standard_normal(g.shape)) for _ in range(2))
            else:
                st = random_bandlimited(g, seed=seed, band=min(n) // 3, amplitude=0.3)
                u = (st.eta.coeffs,) + tuple(c.coeffs for c in st.vel)
            uh = _half(g, u)
            assert _max_rel(ops.nonlinear(uh), _half(g, ref.nonlinear(u))) <= OPERATOR_RTOL
            assert _max_rel(ops.linear(uh), _half(g, ref.linear(u))) <= OPERATOR_RTOL
            for t in (1e-3, -0.02, 0.37):
                got = ops.propagator(t).apply(uh)
                assert _max_rel(got, _half(g, ref.propagate(u, t))) <= OPERATOR_RTOL

    @pytest.mark.parametrize("n", [(16,), (16, 16)])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_velocity_mean_and_nyquist_pass_with_heat_factor(self, n, mu):
        """Velocity content where the unit wave vector vanishes (the mean and
        the Nyquist modes) is multiplied by the heat factor and nothing else."""
        g = Grid(n)
        params = Params(kappa=1.0, mu=mu, p=1.0)
        t = 0.4
        rng = np.random.default_rng(1)
        modes = [0, 8] if g.dim == 1 else [(0, 0), (8, 3), (5, 8), (8, 8)]
        u = [np.zeros(g.shape, dtype=complex) for _ in range(1 + g.dim)]
        for c in u[1:]:
            for k in modes:
                c[g.coeff_index(k)] = rng.standard_normal()
        uh = _half(g, u)
        out = _ops(g, params, True).propagator(t).apply(uh)
        heat = np.exp(-t * (params.kappa * params.mu * g.xi_norm)) if mu else np.ones(g.shape)
        for got, c in zip(out[1:], uh[1:]):
            assert np.array_equal(got, g.half(heat) * c)
        assert not np.any(out[0])
