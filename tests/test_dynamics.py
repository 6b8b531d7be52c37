import itertools
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest

from wbwaves import dynamics
from wbwaves.dynamics import (
    DerivativeCheck,
    IntegratorConfig,
    PicardError,
    _band,
    _expand,
    _ops,
    _Propagator,
    _horizon,
    _reference_rk4_step,
    energy_derivative_check,
    evolve,
    picard_solve,
    rhs,
)
from wbwaves.functionals import EnergyReport, modified_energy
from wbwaves.presets import gaussian_bump, random_bandlimited, single_mode
from wbwaves.spectral import Field, Grid, SymbolCatalog
from wbwaves.state import Params, WaveState, _part, _weighted_sq_coeffs, weighted_pair_norm

from full_spectrum import apply_multiplier, coeffs, full, index, inverse, transform
from full_spectrum import half as cut


def small_state(grid, seed=0, band=4, amplitude=0.05):
    return random_bandlimited(grid, seed=seed, band=band, amplitude=amplitude)


def propagate(params, t, u):
    """S(t)u by the solver's propagator on the band of u, as the state at
    time u.time + t."""
    prop = _ops(u.grid, params).propagator(t)
    return WaveState.from_packed(u.grid, _expand(u.grid, prop.apply(_band(u.grid, u.packed()))),
                                 u.time + t)


def linear_part(u, params):
    """The linear part of the right-hand side, as the solver evaluates it on
    the band of u."""
    lin = _ops(u.grid, params).linear(_band(u.grid, u.packed()))
    return WaveState.from_packed(u.grid, _expand(u.grid, lin), u.time)


class TestRhs:
    def test_zero_state_is_equilibrium(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        out = rhs(WaveState.zero(g), params)
        assert np.max(np.abs(out.eta)) == 0.0
        assert np.max(np.abs(out.v)) == 0.0

    def test_single_mode_elevation(self):
        # eta = cos x, v = 0, kappa = 1: deta/dt = 0 and
        # dv/dt = -i tanh(D)(1 + D^2) cos x = (1 + 1) tanh(1) sin x.
        g = Grid(64)
        params = Params(kappa=1.0)
        x = np.asarray(g.x[0])
        st = WaveState(g, np.stack([np.cos(x), np.zeros(64)]))
        out = rhs(st, params)
        assert np.max(np.abs(out.eta)) < 1e-13
        want = 2.0 * math.tanh(1.0) * np.sin(x)
        # the capillary symbol grows like xi^2, amplifying spectral roundoff
        assert np.max(np.abs(out.v - want)) < 1e-12

    def test_neg_i_tanh_orientation(self):
        # The base oracle: the 1D forcing -i tanh(D) maps cos x to tanh(1) sin x.
        g = Grid(64)
        x = np.asarray(g.x[0])
        f = Field(g, np.cos(x))
        out = Field.from_coeffs(g, SymbolCatalog.forcing(full(g))[0] * coeffs(f))
        assert np.max(np.abs(out.values - math.tanh(1.0) * np.sin(x))) < 1e-13

    def test_linearization_residual_scales_linearly(self):
        g = Grid(64)
        params = Params(kappa=0.5)
        u = random_bandlimited(g, seed=3, band=5, amplitude=1.0)
        lin = linear_part(u, params)

        def residual(a):
            scaled = WaveState(g, a * u.samples)
            r = rhs(scaled, params)
            diff_eta = r.eta / a - lin.eta
            diff_v = r.v / a - lin.v
            return math.sqrt(g.cell * np.sum(diff_eta**2 + diff_v**2))

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r2 == pytest.approx(0.5 * r1, rel=1e-6)

    def test_regularized_adds_damping(self):
        g = Grid(64)
        u = small_state(g, seed=4)
        base = rhs(u, Params(kappa=1.0))
        reg = rhs(u, Params(kappa=1.0, mu=0.5, p=1.0))
        heat = apply_multiplier(SymbolCatalog.riesz(full(g), 1.0), Field(g, u.eta))
        want = base.eta - 1.0 * 0.5 * heat.values
        assert np.max(np.abs(reg.eta - want)) < 1e-12

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
        assert np.max(np.abs(out.eta - u.eta)) < 1e-12
        assert np.max(np.abs(out.v - u.v)) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_against_matrix_exponential(self, mu):
        g = Grid(64)
        kappa, p, t = 0.7, 1.0, 0.37
        params = Params(kappa=kappa, mu=mu, p=p)
        u = small_state(g, seed=7, band=6, amplitude=0.3)
        out = propagate(params, t, u)
        for k in (1, 2, 5):
            vec = np.array([transform(g, u.eta)[index(g, k)], transform(g, u.v)[index(g, k)]])
            want = expm_mode(k, kappa, mu, p, t) @ vec
            got = np.array([transform(g, out.eta)[index(g, k)], transform(g, out.v)[index(g, k)]])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_group_property(self):
        g = Grid(64)
        params = Params(kappa=1.0)
        u = small_state(g, seed=8)
        one = propagate(params, 0.7, propagate(params, 0.4, u))
        two = propagate(params, 1.1, u)
        scale = max(np.max(np.abs(two.eta)), np.max(np.abs(two.v)))
        assert np.max(np.abs(one.eta - two.eta)) <= 1e-10 * scale
        assert np.max(np.abs(one.v - two.v)) <= 1e-10 * scale

    def test_semigroup_law_and_contraction_with_viscosity(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.4, p=1.0)
        u = small_state(g, seed=9)
        u = WaveState(g, np.stack([u.eta - np.full(64, np.mean(u.eta)), u.v]))
        one = propagate(params, 0.3, propagate(params, 0.5, u))
        two = propagate(params, 0.8, u)
        assert np.max(np.abs(one.eta - two.eta)) < 1e-10
        l2 = lambda st: math.sqrt(g.cell * np.sum(st.eta**2 + st.v**2))
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
        d_eta = (plus.eta - minus.eta) / (2 * dt)
        d_v = (plus.v - minus.v) / (2 * dt)
        scale = max(np.max(np.abs(want.eta)), np.max(np.abs(want.v)), 1e-12)
        assert np.max(np.abs(d_eta - want.eta)) <= 1e-6 * scale
        assert np.max(np.abs(d_v - want.v)) <= 1e-6 * scale

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
        got = transform(g, out.eta)[index(g, (2, 0))] / math.sqrt(2 * math.pi)
        want = transform(g1, out1.eta)[index(g1, 2)]
        assert abs(got - want) < 1e-12


CADENCE_CASES = list(itertools.product([0.1, 1.0, 3.7, 10.0], [1e-3, 7e-3, 0.03],
                                       [1 - 1e-13, 1.0, 1.5, 7.3, 20.0, 1e6]))


def nearest_multiple_rule(T, dt, report_every):
    """The test ``_horizon`` gave before its reported steps became a walk:
    ``reported(k)`` is true for the step nearest each multiple of
    report_every before T and for the last step, in O(1) time and memory."""
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    dt = T / n_steps
    n_rep = max(1, math.ceil(T / report_every - 1e-9))

    def reported(k):
        # Only the multiples i within one of k * dt / report_every can land on k.
        near = round(k * dt / report_every)
        return k == n_steps or any(round(i * report_every / dt) == k
                                   for i in range(max(near - 1, 0), min(near + 2, n_rep)))

    return reported


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
        assert len(res.states) >= 1

    def test_reference_and_exponential_agree(self):
        g = Grid(64)
        params = Params(kappa=1.0)
        u0 = small_state(g, seed=12)
        a = evolve(u0, params, IntegratorConfig(method="exponential_rk4", dt=1e-3), T=0.5)
        b = evolve(u0, params, IntegratorConfig(method="reference_rk4", dt=1e-3), T=0.5)
        diff = np.max(np.abs(a.final.eta - b.final.eta))
        assert diff < 1e-9

    def test_report_steps_are_distinct_when_the_cadence_does_not_divide_T(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        res = evolve(small_state(g), params, IntegratorConfig(dt=0.01), T=1.0, report_every=0.333)
        times = res.times
        assert len(times) == len(set(times)) == 4
        assert times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cadence_past_the_horizon_reports_both_ends(self):
        g = Grid(32)
        res = evolve(small_state(g), Params(kappa=1.0), IntegratorConfig(dt=0.01), T=0.1,
                     report_every=1e12)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert len(res.times) == 2

    @pytest.mark.parametrize("T, report_every, message", [
        (0.0, 0.1, "T must be positive, got 0.0"),
        (math.nan, 0.1, "T must be positive, got nan"),
        (math.inf, 0.1, "T must be finite, got inf"),
        (1.0, 0, "report_every must be positive, got 0"),
        (1.0, math.inf, "report_every must be finite, got inf"),
        (1.0, 0.005, "report_every must be at least the time step"),
        (1e308, 1.0, "T / dt must be finite"),
    ])
    def test_horizon_rejects_a_plan_it_cannot_step(self, T, report_every, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _horizon(T, 0.01, report_every)

    def test_reported_steps_are_the_multiples_of_the_cadence(self):
        """The walk gives, in increasing order, the step nearest each multiple
        of report_every before T, and the last step: report_every a hair
        below the step, a cadence past T and cadences that do not divide T
        among them."""
        for T, dt, cadence in CADENCE_CASES:
            report_every = cadence * T / math.ceil(T / dt - 1e-9)
            n_steps, step, reports = _horizon(T, dt, report_every)
            n_rep = max(1, math.ceil(T / report_every - 1e-9))
            listed = {round(i * report_every / step) for i in range(n_rep)} | {n_steps}
            assert list(reports) == sorted(listed), (T, dt, cadence)

    @pytest.mark.parametrize("T, dt, cadence", CADENCE_CASES + [(200.0, 1e-3, 13.7),
                                                                (50.0, 1e-3, 1 - 1e-13)])
    def test_the_walk_reports_the_steps_the_rule_did(self, T, dt, cadence):
        """On every step of each plan, the last two long ones of 200 000 and
        50 000 steps, the walk reports the steps ``nearest_multiple_rule``
        reported."""
        report_every = cadence * T / math.ceil(T / dt - 1e-9)
        n_steps, step, reports = _horizon(T, dt, report_every)
        reported = nearest_multiple_rule(T, dt, report_every)
        assert list(reports) == [k for k in range(n_steps + 1) if reported(k)]

    def test_a_dense_plan_costs_no_memory(self):
        """Two million report nodes are not listed: the plan is O(1)."""
        tracemalloc.start()
        try:
            n_steps, _, reports = _horizon(200.0, 1e-4, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert n_steps == 2_000_000 and next(reports) == 0
        assert sum(1 for _ in reports) == 2_000_000

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
        diff = WaveState(g, pic.final.samples - ref.final.samples)
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
    """Node coefficient arrays (expanded from the band) and per-sweep defects
    of the O(N^2) iteration."""
    n_steps, dt, _ = _horizon(T, cfg.dt)
    grid = u0.grid
    ops = _ops(grid, params)
    props = {k: _Propagator(ops, k * dt) for k in range(-2, n_steps + 1)}
    free = [props[m].apply(_band(grid, u0.packed())) for m in range(n_steps + 1)]
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
        defects.append(max(weighted_norm(grid, params, _expand(grid, a - b))
                           for a, b in zip(new_u, u)))
        u = new_u
        if defects[-1] < cfg.picard_tol:
            return [_expand(grid, um) for um in u], defects
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


def per_node_duhamel_integrals(ops, forcing, dt):
    """The Duhamel sweep as it was before it was blocked: yield I_m node by
    node, every propagator applied to one node."""
    s1, s2, s3 = (ops.propagator(k * dt) for k in (1, 2, 3))
    before = last = np.zeros_like(forcing[0])
    yield last
    for m in range(1, len(forcing)):
        if m == 1:
            acc = np.zeros_like(last)
            for j, wj in enumerate(dynamics._FIRST_PANEL[min(len(forcing), 4)]):
                acc += dt * wj * ops.propagator((1 - j) * dt).apply(forcing[j])
        elif m % 2 == 0:
            acc = s2.apply(last + dt / 3.0 * forcing[m - 2])
            acc += 4.0 * dt / 3.0 * s1.apply(forcing[m - 1])
            acc += dt / 3.0 * forcing[m]
            before, last = last, acc
        else:
            acc = s3.apply(before + 3.0 * dt / 8.0 * forcing[m - 3])
            acc += 9.0 * dt / 8.0 * (s2.apply(forcing[m - 2]) + s1.apply(forcing[m - 1]))
            acc += 3.0 * dt / 8.0 * forcing[m]
        yield acc


def per_node_sweep(ops, start, forcing, dt):
    """The sweep of ``picard_solve`` node by node, every propagator applied
    to one node: the recurrence of ``per_node_duhamel_integrals`` seeded with
    u_0 = start, which yields u_m = S(m dt)start + I_m."""
    s1, s2, s3 = (ops.propagator(k * dt) for k in (1, 2, 3))
    before = last = start
    yield last
    for m in range(1, len(forcing)):
        if m == 1:
            acc = s1.apply(start)
            for j, wj in enumerate(dynamics._FIRST_PANEL[min(len(forcing), 4)]):
                acc += dt * wj * ops.propagator((1 - j) * dt).apply(forcing[j])
        elif m % 2 == 0:
            acc = s2.apply(last + dt / 3.0 * forcing[m - 2])
            acc += 4.0 * dt / 3.0 * s1.apply(forcing[m - 1])
            acc += dt / 3.0 * forcing[m]
            before, last = last, acc
        else:
            acc = s3.apply(before + 3.0 * dt / 8.0 * forcing[m - 3])
            acc += 9.0 * dt / 8.0 * (s2.apply(forcing[m - 2]) + s1.apply(forcing[m - 1]))
            acc += 3.0 * dt / 8.0 * forcing[m]
        yield acc


def per_node_picard(u0, params, cfg, T):
    """``picard_solve``'s iteration on the per-node sweep, on the band:
    nodes (expanded), defects."""
    n_steps, dt, _ = _horizon(T, cfg.dt)
    grid = u0.grid
    ops = _ops(grid, params)
    start = _band(grid, u0.packed())
    zero = np.zeros((n_steps + 1,) + start.shape, start.dtype)
    u = np.stack(list(per_node_sweep(ops, start, zero, dt)))
    defects = []
    for _ in range(cfg.picard_max_iter):
        forcing = ops.nonlinear(u)
        new_u = np.stack(list(per_node_sweep(ops, start, forcing, dt)))
        sq = _weighted_sq_coeffs(grid, _expand(grid, new_u - u), params.s, params.kappa)
        defects.append(float(np.max(np.sqrt(sq))))
        u = new_u
        if defects[-1] < cfg.picard_tol:
            return _expand(grid, u), defects
    raise AssertionError("reference iteration did not converge")


def free_plus_integrals_picard(u0, params, cfg, T):
    """The iteration ``picard_solve`` once ran, on the per-node sweep: the free
    trajectory stepped node to node by S(dt), and each iterate that
    trajectory plus the Duhamel integrals, on the band.  Nodes (expanded),
    defects."""
    n_steps, dt, _ = _horizon(T, cfg.dt)
    grid = u0.grid
    ops = _ops(grid, params)
    s_dt = ops.propagator(dt)
    free = [_band(grid, u0.packed())]
    for _ in range(n_steps):
        free.append(s_dt.apply(free[-1]))
    free = u = np.stack(free)
    defects = []
    for _ in range(cfg.picard_max_iter):
        forcing = ops.nonlinear(u)
        new_u = free.copy()
        for m, im in enumerate(per_node_duhamel_integrals(ops, forcing, dt)):
            new_u[m] += im
        sq = _weighted_sq_coeffs(grid, _expand(grid, new_u - u), params.s, params.kappa)
        defects.append(float(np.max(np.sqrt(sq))))
        u = new_u
        if defects[-1] < cfg.picard_tol:
            return _expand(grid, u), defects
    raise AssertionError("reference iteration did not converge")


# The step counts where a sweep that took its N + 1 nodes in blocks of
# 2 ceil((N + 1)/16) filled its last block exactly (N = 16k - 1) or began the
# next block size (N = 16k and 16k + 1): edge cases of the batched slices.
BLOCK_EDGES = [16 * k + e for k in (1, 2, 3) for e in (-1, 0, 1)]
PICARD_GRIDS = [(32,), (16, 16)]


class TestBlockedSweep:
    """The one-pass sweep, its applies batched over strided stacks of
    nodes, is bitwise equal to the per-node recurrence, and its temporaries
    keep a solve's peak memory down."""

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", list(range(1, 13)) + BLOCK_EDGES + [400, 401])
    def test_sweep_matches_per_node_recurrence(self, n, steps):
        g = Grid(n)
        ops = _ops(g, Params(kappa=0.7, mu=0.2, p=0.75, s=1.0))
        dt = 0.2 / steps
        s_dt = ops.propagator(dt)
        free = [_band(g, small_state(g, seed=steps, amplitude=0.3).packed())]
        for _ in range(steps):
            free.append(s_dt.apply(free[-1]))
        free = np.stack(free)
        forcing = ops.nonlinear(free)
        want = np.stack(list(per_node_duhamel_integrals(ops, forcing, dt)))
        got = dynamics._duhamel_integrals(ops, np.zeros_like(free[0]), forcing, dt)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 16, 17, 40, 400])
    def test_solve_matches_per_node_iteration(self, n, steps):
        g = Grid(n)
        params = Params(kappa=1.0, mu=0.1, p=1.0, s=1.0)
        u0 = small_state(g, seed=7)
        cfg = IntegratorConfig(method="picard_duhamel", dt=0.2 / steps)
        res = picard_solve(u0, params, cfg, 0.2)
        nodes, defects = per_node_picard(u0, params, cfg, 0.2)
        assert res.iterations == len(defects) >= 2
        assert np.array_equal(res.nodes, nodes)
        assert res.defects == defects

    @staticmethod
    def assert_matches_free_plus_integrals(u0, params, cfg, T):
        """The seeded recurrence gives the nodes of the free trajectory plus
        the integrals to within 1e-13 of the trajectory's weighted-norm scale
        (1.6e-14 at most on these cases), in as many sweeps."""
        res = picard_solve(u0, params, cfg, T)
        nodes, defects = free_plus_integrals_picard(u0, params, cfg, T)
        assert res.iterations == len(defects)
        diff = res.nodes - nodes
        sq = _weighted_sq_coeffs(u0.grid, np.stack([diff, nodes]), params.s, params.kappa)
        err, scale = np.sqrt(np.max(sq, axis=1))
        assert err <= 1e-13 * scale, err / scale

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 16, 17, 40, 400])
    def test_solve_matches_free_plus_integrals(self, n, steps):
        params = Params(kappa=1.0, mu=0.1, p=1.0, s=1.0)
        cfg = IntegratorConfig(method="picard_duhamel", dt=0.2 / steps)
        self.assert_matches_free_plus_integrals(small_state(Grid(n), seed=7), params, cfg, 0.2)

    def test_golden_picard_case_matches_free_plus_integrals(self):
        """The config of the golden ``picard`` record."""
        u0 = random_bandlimited(Grid(128), seed=0, band=6, amplitude=0.04)
        cfg = IntegratorConfig(method="picard_duhamel", dt=2e-3)
        self.assert_matches_free_plus_integrals(u0, Params(kappa=1.0, mu=0.1, s=1.0), cfg, 0.2)

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", [40, 100, 400])
    def test_peak_memory_within_five_node_stacks(self, n, steps):
        """A solve holds band nodes, and its forcing evaluation and its
        defect pad them to the half lattice: 2.8 to 4.3 stacks of packed
        nodes, as when the sweep took its nodes in blocks of an eighth.  A
        sweep that kept its even nodes' temporaries through the odd panels
        read up to 3.9.  When the nodes were the half lattice a solve read
        3.9 to 4.7, and a free-flow stack kept beside the iterates 4.9 to
        5.7."""
        g = Grid(n)
        params = Params(kappa=1.0, mu=0.1, s=1.0)
        u0 = small_state(g, amplitude=0.04)
        cfg = IntegratorConfig(method="picard_duhamel", dt=0.1 / steps)
        picard_solve(u0, params, cfg, 0.1)  # build the propagators and FFT plans
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = picard_solve(u0, params, cfg, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * res.nodes.nbytes, peak / res.nodes.nbytes

    def test_batched_evolve_peak_memory(self):
        """Four members solve one by one and the sampling loop stacks one
        node of each at a time: 5.5 one-member stacks of packed nodes, the
        solves holding band nodes (7.2 when they held packed ones).  A copy
        of all four converged stacks into one array read 8.3."""
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.1, s=1.0)
        members = [small_state(g, seed=k, amplitude=0.04) for k in range(4)]
        cfg = IntegratorConfig(method="picard_duhamel", dt=1e-3)
        evolve(members, params, cfg, 0.4)  # build the propagators and FFT plans
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evolve(members, params, cfg, 0.4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stack = 401 * members[0].packed().nbytes
        assert peak <= 7.5 * stack, peak / stack


class TestOperatorCaches:
    def test_kappa_sweep_keeps_ops_cache_bounded(self):
        g = Grid(16)
        kept = _ops(g, Params(kappa=1.0))
        for kappa in np.linspace(0.01, 5.0, 50):
            params = Params(kappa=float(kappa))
            ops = _ops(g, params)
            assert _ops(g, params) is ops
            assert _ops(g, Params(kappa=1.0)) is kept  # recently used
            assert len(dynamics._OPS_CACHE) <= dynamics._CACHE_SIZE

    def test_long_solve_keeps_propagator_cache_bounded(self):
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.1, p=1.0)
        u0 = small_state(g, seed=3, amplitude=0.02)
        res = picard_solve(u0, params, IntegratorConfig(dt=1e-3, picard_tol=1e-8), T=0.4)
        assert len(res.nodes) == 401
        ops = _ops(g, params)
        assert len(ops._props) <= dynamics._CACHE_SIZE
        assert ops.propagator(0.5) is ops.propagator(0.5)

    def test_long_solve_builds_few_propagators(self, monkeypatch):
        # Every iterate, the free flow among them, is one sweep, which
        # applies S(k dt) for k = -2, -1, 1, 2, 3 (S(0) is the identity), so
        # the node count does not set the number of builds.
        builds = []
        init = _Propagator.__init__

        def counted(self, ops, t):
            builds.append(t)
            init(self, ops, t)

        monkeypatch.setattr(_Propagator, "__init__", counted)
        g = Grid(32)
        params = Params(kappa=1.0, mu=0.15, p=1.0)
        _ops(g, params)._props.clear()
        u0 = small_state(g, seed=4, amplitude=0.02)
        res = picard_solve(u0, params, IntegratorConfig(dt=1e-3, picard_tol=1e-8), T=0.4)
        assert len(res.nodes) == 401
        dt = 0.4 / 400
        assert sorted(builds) == [k * dt for k in (-2, -1, 1, 2, 3)]

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps, applies", [(1, 6), (2, 8), (3, 9), (4, 10), (400, 208),
                                                (401, 208)])
    def test_sweep_apply_count(self, monkeypatch, n, steps, applies):
        """A sweep over N >= 3 steps makes floor(N/2) + 8 applies: one S(2dt)
        per even node, four for node 1 (S(dt) on the start and the first
        panel's S(dt), S(-dt) and S(-2dt) terms), one batched S(dt) for the
        even nodes' Simpson panels and three for the odd nodes' 3/8 panels.
        The batched applies run on empty stacks when N < 3, and node 1's
        first panel has two or three nodes."""
        g = Grid(n)
        ops = _ops(g, Params(kappa=1.0, mu=0.1, p=1.0))
        start = _band(g, small_state(g, seed=5).packed())
        forcing = ops.nonlinear(np.stack([start] * (steps + 1)))
        calls = []
        apply = _Propagator.apply

        def counted(self, u, out=None):
            calls.append(u.shape)
            return apply(self, u, out)

        monkeypatch.setattr(_Propagator, "apply", counted)
        dynamics._duhamel_integrals(ops, start, forcing, 0.2 / steps)
        assert len(calls) == applies


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


def parent_blowup_nodes(grid, params, nodes, ceiling, reported):
    """The node at which each row of a band stack stops, by the rule evolve's
    sampling loop used before its one comparison: from node 1 on, a sup that
    is not finite or passes 1e3 * ceiling, and at a reported node a weighted
    norm past the ceiling.  Each row that stops maps to its node and whether
    that node was reported (a report past the ceiling is kept)."""
    stopped = {}
    for k, u in enumerate(nodes):
        for b in range(len(u)):
            if b in stopped:
                continue
            sup = np.max(np.abs(u[b]))
            if k and (~np.isfinite(sup) | (sup > 1e3 * ceiling)):
                stopped[b] = k, False
            elif reported(k):
                state = WaveState.from_packed(grid, _expand(grid, u[b]), 0.0)
                if EnergyReport.measure(state, params).weighted_norm > ceiling:
                    stopped[b] = k, True
    return stopped


def poisoned(step, member, at, value):
    """``step`` that writes ``value`` into one coefficient of row ``member``
    of the state it returns at its ``at``-th call."""
    calls = itertools.count(1)

    def wrapped(ops, u, dt, work=None):
        out = step(ops, u, dt, work)
        if next(calls) == at:
            out[member, 0, 2] = value
        return out

    return wrapped


class TestSamplingLoop:
    """evolve's blow-up test is one comparison per node, sup <= min(1e3 *
    ceiling, float max), which NaN fails too; a row stops where the rule it
    replaced stopped it."""

    @pytest.mark.parametrize("ceiling", [1.0, 1e6, math.inf])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 900.0, 2e3, 2e9],
                             ids=["nan", "inf", "-inf", "9e2", "2e3", "2e9"])
    @pytest.mark.parametrize("at", [3, 10], ids=["unreported", "last"])
    def test_a_poisoned_member_stops_where_it_stopped(self, monkeypatch, ceiling, value, at):
        g = Grid(32)
        params = Params(kappa=1.0)
        members = [small_state(g, seed=seed) for seed in (1, 2, 3)]
        cfg = IntegratorConfig(dt=0.01, blowup_ceiling=ceiling)
        n_steps, dt, reports = _horizon(0.1, cfg.dt, 0.05)
        reported = set(reports).__contains__
        clean = evolve(members, params, cfg, T=0.1, report_every=0.05)
        ops = _ops(g, params)
        u = _band(g, np.stack([m.packed() for m in members]))
        step = poisoned(dynamics._lawson_rk4_step, 1, at, value)
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = [n.copy() for n in dynamics._stepped(step, ops, u, dt, n_steps)]
        expected = parent_blowup_nodes(g, params, nodes, ceiling, reported)
        monkeypatch.setattr(dynamics, "_lawson_rk4_step",
                            poisoned(dynamics._lawson_rk4_step, 1, at, value))
        before = np.geterr()
        results = evolve(members, params, cfg, T=0.1, report_every=0.05)
        assert np.geterr() == before
        assert set(expected) <= {1}
        res = results[1]
        assert res.blown_up == (1 in expected)
        if res.blown_up:
            stop, kept = expected[1]
            assert res.blowup_time == stop * dt
            assert res.times == [k * dt for k in range(stop + kept) if reported(k)]
        else:
            assert res.times == clean[1].times
        for b in (0, 2):
            assert not results[b].blown_up
            assert np.array_equal(results[b].final.packed(), clean[b].final.packed())

    def test_the_verdicts_the_cases_cover(self):
        """The cases above reach each way of stopping: NaN and inf at once,
        a sup past 1e3 * ceiling, a report past the ceiling, and none."""
        g = Grid(32)
        params = Params(kappa=1.0)
        members = [small_state(g, seed=seed) for seed in (1, 2, 3)]
        u = _band(g, np.stack([m.packed() for m in members]))
        ops = _ops(g, params)

        def verdict(value, ceiling, at):
            n_steps, dt, reports = _horizon(0.1, 0.01, 0.05)
            reported = set(reports).__contains__
            step = poisoned(dynamics._lawson_rk4_step, 1, at, value)
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = [n.copy() for n in dynamics._stepped(step, ops, u, dt, n_steps)]
            return parent_blowup_nodes(g, params, nodes, ceiling, reported).get(1)

        assert verdict(math.nan, math.inf, 3) == (3, False)
        assert verdict(2e3, 1.0, 3) == (3, False)  # sup past 1e3 * ceiling
        assert verdict(900.0, 1.0, 3) == (5, True)  # the report at node 5
        assert verdict(900.0, 1e6, 10) is None

    def test_reports_keep_the_callers_error_state(self, monkeypatch):
        """The steps run with overflow ignored, the reports under the
        caller's error state, and evolve leaves that state as it found it."""
        g = Grid(32)
        params = Params(kappa=1.0)
        steps, reports = [], []
        step, measure = dynamics._lawson_rk4_step, EnergyReport.measure.__func__

        def step_spy(*args):
            steps.append(np.geterr()["over"])
            return step(*args)

        def measure_spy(cls, states, p):
            reports.append(np.geterr()["over"])
            return measure(cls, states, p)

        monkeypatch.setattr(dynamics, "_lawson_rk4_step", step_spy)
        monkeypatch.setattr(EnergyReport, "measure", classmethod(measure_spy))
        with np.errstate(over="raise", invalid="warn"):
            evolve(small_state(g), params, IntegratorConfig(dt=0.01), T=0.1, report_every=0.05)
            assert np.geterr()["over"] == "raise"
        assert steps == ["ignore"] * 10 and reports == ["raise"] * 3


def stepwise_energy_derivative_check(state, params, s=None):
    """The check as it was before it measured its eight energies as one
    stack, verbatim: it projected the state into a new ``WaveState``, took
    an ``s`` that replaced ``params.s``, and measured each energy alone."""
    grid = state.grid
    band = _band(grid, state.packed())
    state = WaveState.from_packed(grid, _expand(grid, band), state.time)
    f = rhs(state, params)
    ops = _ops(grid, params)
    params = params if s is None else replace(params, s=float(s))
    norm_state = weighted_pair_norm(state, params.s, params.kappa)
    norm_rate = weighted_pair_norm(f, params.s, params.kappa)

    if norm_rate == 0.0:
        return DerivativeCheck(0.0, 0.0, True)

    tau = 0.01 * (1.0 + norm_state) / (1.0 + norm_rate)

    u = state.packed()
    h = 5e-4 / (1.0 + norm_state)

    def stencil(packed_at, h):
        em2, em1, ep1, ep2 = (
            modified_energy(WaveState.from_packed(grid, packed_at(sig), state.time), params)
            for sig in (-2, -1, 1, 2)
        )
        return (em2 - 8.0 * em1 + 8.0 * ep1 - ep2) / (12.0 * h)

    chain = stencil(lambda sig: u + sig * tau * f.packed(), tau)
    evol = stencil(lambda sig: _expand(grid, _reference_rk4_step(ops, band, sig * h)), h)

    agree = abs(chain - evol) <= 1e-5 * max(abs(chain), abs(evol)) + 1e-10 * (
        1.0 + norm_state**2
    )
    return DerivativeCheck(chain, evol, agree)


class TestEnergyDerivative:
    def test_zero_state(self):
        g = Grid(32)
        params = Params(kappa=1.0)
        chk = energy_derivative_check(WaveState.zero(g), params)
        assert chk.chain_rule == 0.0 and chk.evolution == 0.0 and chk.agree

    def test_conserved_at_half(self):
        g = Grid(64)
        params = Params(kappa=1.0, s=0.5)
        for seed in (20, 21, 22):
            u = small_state(g, seed=seed, amplitude=0.05)
            chk = energy_derivative_check(u, params)
            assert abs(chk.chain_rule) <= 1e-8

    def test_routes_agree_on_family(self):
        g = Grid(64)
        params = Params(kappa=1.0, s=1.0)
        for seed in range(23, 29):
            u = small_state(g, seed=seed, amplitude=0.05)
            chk = energy_derivative_check(u, params)
            assert chk.agree, (chk.chain_rule, chk.evolution)

    def test_viscous_derivative_negative_at_half(self):
        g = Grid(64)
        params = Params(kappa=1.0, mu=0.3, p=1.0, s=0.5)
        u = small_state(g, seed=30, amplitude=0.03)
        chk = energy_derivative_check(u, params)
        assert chk.chain_rule < 0

    def test_measures_its_eight_energies_as_one_stack(self, monkeypatch):
        """One report call on the four chain-rule and four reference-RK4
        states (eight single-state calls before), with E_s at params.s."""
        sizes, measure = [], EnergyReport.measure.__func__

        def measure_spy(cls, states, p):
            sizes.append(len(states) if isinstance(states, list) else 1)
            return measure(cls, states, p)

        monkeypatch.setattr(EnergyReport, "measure", classmethod(measure_spy))
        energy_derivative_check(small_state(Grid(32), seed=31), Params(kappa=1.0, s=1.5))
        assert sizes == [8]

    @pytest.mark.parametrize("grid", [Grid(32), Grid(64), Grid(256), Grid((16, 16)),
                                      Grid((16, 24))], ids=lambda g: "x".join(map(str, g.n)))
    @pytest.mark.parametrize("s, mu", [(1.0, 0.0), (0.5, 0.0), (0.5, 0.3), (1.5, 0.2),
                                       (2.0, 0.0)])
    def test_matches_stepwise_check_bitwise(self, grid, s, mu):
        """Band data, a bump with content above the band and the zero state
        give the stepwise check's three fields exactly."""
        params = Params(kappa=1.0, mu=mu, s=s)
        states = (small_state(grid, seed=32, band=4, amplitude=0.05),
                  gaussian_bump(grid, 0.05, 0.15), WaveState.zero(grid))
        for u in states:
            check = energy_derivative_check(u, params)
            assert check == stepwise_energy_derivative_check(u, params)


# ---------------------------------------------------------------------------
# Reference: the per-dimension operators that the dimension-generic _Ops and
# _Propagator replaced, each array written inline.  1D used -i tanh(D) and
# -i tanh(D)(1 + kappa D^2) with the signed phase xi K_kappa; 2D used K^2 div,
# K^2 grad and the potential amplitude psi = e.v, dropping velocity content
# off e.  Agreement is to roundoff on states whose velocity lies on e.

OPERATOR_RTOL = 1e-13


class PerDimensionOperators:
    def __init__(self, grid, params):
        lattice = full(grid)
        a = lattice.xi_norm
        safe = np.where(a == 0.0, 1.0, a)
        k2 = np.where(a == 0.0, 1.0, np.tanh(safe) / safe)
        kk = np.sqrt((1.0 + params.kappa * a * a) * k2)
        self.grid, self.mask, self.dim = grid, lattice.dealias_mask, grid.dim
        self.dx = [
            np.where(lattice.axis_nyquist(j), 0.0, 1j * lattice.xi[j]) for j in range(grid.dim)
        ]
        self.heat_rate = None
        if params.mu > 0:
            self.heat_rate = params.kappa * params.mu * np.where(a == 0.0, 0.0, safe**params.p)
        self.kk, self.kk_inv = kk, 1.0 / kk
        if grid.dim == 1:
            xi = lattice.xi[0]
            t = np.where(lattice.axis_nyquist(0), 0.0, np.tanh(xi))
            self.A = -1j * t
            self.Acap = -1j * t * (1.0 + params.kappa * xi * xi)
            self.phase = np.where(lattice.axis_nyquist(0), 0.0, xi) * kk
        else:
            self.K2, self.cap = k2, 1.0 + params.kappa * a * a
            drop = lattice.nyquist_mask | (a == 0.0)
            self.unit = [np.where(drop, 0.0, x / safe) for x in lattice.xi]
            self.phase = np.where(lattice.nyquist_mask, 0.0, a * kk)

    def coeffs(self, values):
        return np.where(self.mask, np.fft.fftn(values) * self.grid._norm_factor, 0.0)

    def phys(self, c):
        return inverse(self.grid, np.where(self.mask, c, 0.0)).real

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
    return np.stack([cut(grid, c) for c in u])


def _max_rel(got, want):
    scale = max(float(np.max(np.abs(w))) for w in want)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


class TestDimensionGenericOperators:
    @pytest.mark.parametrize("n", [(64,), (256,), (32, 32), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_match_per_dimension_formulas(self, n, mu):
        g = Grid(n)
        params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
        ops, ref = _ops(g, params), PerDimensionOperators(g, params)
        for seed in range(3):
            if g.dim == 1:  # full spectrum, velocity mean and Nyquist mode included
                rng = np.random.default_rng(seed)
                u = tuple(transform(g, 0.3 * rng.standard_normal(g.shape)) for _ in range(2))
            else:
                st = random_bandlimited(g, seed=seed, band=min(n) // 3, amplitude=0.3)
                u = tuple(transform(g, c) for c in st.samples)
            uh = _band(g, _half(g, u))
            assert _max_rel(ops.nonlinear(uh), _band(g, _half(g, ref.nonlinear(u)))) <= OPERATOR_RTOL
            assert _max_rel(ops.linear(uh), _band(g, _half(g, ref.linear(u)))) <= OPERATOR_RTOL
            for t in (1e-3, -0.02, 0.37):
                got = ops.propagator(t).apply(uh)
                assert _max_rel(got, _band(g, _half(g, ref.propagate(u, t)))) <= OPERATOR_RTOL

    @pytest.mark.parametrize("n", [(16,), (16, 16)])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_velocity_mean_and_nyquist_pass_with_heat_factor(self, n, mu):
        """Velocity content where the unit wave vector vanishes (the mean and
        the Nyquist modes) is multiplied by the heat factor and nothing else.
        The band holds no Nyquist mode, so the propagator runs here on the
        tables of the whole half lattice (``HalfOps``)."""
        g = Grid(n)
        params = Params(kappa=1.0, mu=mu, p=1.0)
        t = 0.4
        rng = np.random.default_rng(1)
        modes = [0, 8] if g.dim == 1 else [(0, 0), (8, 3), (5, 8), (8, 8)]
        u = [np.zeros(g.shape, dtype=complex) for _ in range(1 + g.dim)]
        for c in u[1:]:
            for k in modes:
                c[index(g, k)] = rng.standard_normal()
        uh = _half(g, u)
        out = HalfOps(g, params).propagator(t).apply(uh)
        heat = np.exp(-t * (params.kappa * params.mu * full(g).xi_norm)) if mu else np.ones(g.shape)
        for got, c in zip(out[1:], uh[1:]):
            assert np.array_equal(got, cut(g, heat) * c)
        assert not np.any(out[0])


# The forcing on the kept band against the exact one: roundoff of a few
# transforms, measured at 1.9e-16 to 7.7e-16 of the largest coefficient on
# the grids below; with the 2/3 mask dropped it reads 0.66 to 1.6, and the
# forcing above the band is no longer zero.
DEALIAS_RTOL = 1e-14


def kept_modes(grid, fine):
    """Half-spectrum indices of the modes |k| <= ``dealias_band`` on ``grid``
    and of the same integer modes on ``fine``, whose coefficients are the
    same numbers (they do not depend on the resolution)."""
    cols = (slice(0, grid.dealias_band(-1) + 1),)
    if grid.dim == 1:
        return cols, cols
    ks = range(-grid.dealias_band(0), grid.dealias_band(0) + 1)
    return ([k % grid.n[0] for k in ks],) + cols, ([k % fine.n[0] for k in ks],) + cols


@pytest.mark.parametrize("n", [(64,), (256,), (32, 32), (16, 24), (64, 64)])
def test_forcing_is_the_exact_forcing_of_the_kept_band(n):
    """On data filling the whole band, the dealiased forcing on grid n is the
    exact forcing of the modes |k| <= K = ``dealias_band``, cut to that band,
    and zero above it.  The exact forcing is the unmasked one on grid 2n,
    where products of band-K fields do not alias.  Band-K data alone could
    not tell a forcing without the mask from one with it (the 2/3 rule)."""
    grid = Grid(n)
    fine = Grid(tuple(2 * m for m in grid.n), grid.length)
    coarse_k, fine_k = kept_modes(grid, fine)
    params = Params(kappa=1.0)
    rng = np.random.default_rng(sum(grid.n))
    u = grid.forward_half(rng.standard_normal((2, 1 + grid.dim) + grid.shape))
    u_fine = np.zeros(u.shape[: -grid.dim] + fine.half_shape, complex)
    u_fine[(Ellipsis, *fine_k)] = u[(Ellipsis, *coarse_k)]
    got = _expand(grid, _ops(grid, params).nonlinear(_band(grid, u)))
    exact = full_width_nonlinear(fine, False, u_fine)
    want = np.zeros_like(got)
    want[(Ellipsis, *coarse_k)] = exact[(Ellipsis, *fine_k)]
    above = np.ones(got.shape, bool)
    above[(Ellipsis, *coarse_k)] = False
    assert not np.any(got[above])
    assert np.max(np.abs(got - want)) <= DEALIAS_RTOL * np.max(np.abs(want))


# The forcing and the Lawson RK4 step as they were before the forcing's
# transforms were pruned to the kept columns and pre-scaled, and before the
# step used the one propagator S(dt/2) with S(dt) = S(dt/2)^2.  Only the
# arithmetic order differs, so one forcing call and one step agree to
# ROUNDOFF_RTOL, and a trajectory of TRAJECTORY_STEPS steps to
# TRAJECTORY_RTOL (observed at most 7.3e-16 for one call or step and
# 2.1e-14 after the trajectory, over the cases below).

ROUNDOFF_RTOL = 1e-13
TRAJECTORY_STEPS = 100
TRAJECTORY_RTOL = 1e-12


def full_width_nonlinear(grid, dealias, u):
    """Scaled ``irfftn`` of the masked state, the products, a scaled
    ``rfftn``, then the masked forcing multipliers; with ``dealias`` false
    nothing is masked, the exact forcing on a grid where nothing aliases."""
    lattice, d = full(grid), grid.dim
    axes, comp = tuple(range(-d, 0)), -d - 1
    forcing = np.stack([cut(grid, g) for g in SymbolCatalog.forcing(lattice)])
    if dealias:
        mask = cut(grid, lattice.dealias_mask.astype(np.float64))
        u, forcing = u * mask, forcing * mask
    phys = np.fft.irfftn(u, s=grid.n, axes=axes) / grid._norm_factor
    eta, vel = phys[_part(d, slice(0, 1))], phys[_part(d, slice(1, None))]
    sq = np.sum(vel * vel, axis=comp, keepdims=True)
    c = np.fft.rfftn(np.concatenate([0.5 * sq, eta * vel], axis=comp), axes=axes)
    c *= grid._norm_factor
    c_eta, c_vel = c[_part(d, slice(0, 1))], c[_part(d, slice(1, None))]
    flux = np.sum(forcing * c_vel, axis=comp, keepdims=True)
    return np.concatenate([flux, forcing * c_eta], axis=comp)


def two_propagator_lawson_step(ops, nonlinear, u, dt):
    """Lawson RK4 with six applies of S(dt/2) and S(dt)."""
    full, half = _Propagator(ops, dt), _Propagator(ops, 0.5 * dt)
    k1 = nonlinear(u)
    k2 = nonlinear(half.apply(u + 0.5 * dt * k1))
    k3 = nonlinear(half.apply(u) + 0.5 * dt * k2)
    su_full = full.apply(u)
    k4 = nonlinear(su_full + dt * half.apply(k3))
    return su_full + dt / 6.0 * (full.apply(k1) + 2.0 * half.apply(k2 + k3) + k4)


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def step_case(n, mu, rows):
    """The operators of one grid and parameter set, on the band and on the
    half lattice (``HalfOps``), and the band of one state or of a stack of
    three."""
    grid = Grid(n)
    params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
    states = [random_bandlimited(grid, seed=s, band=min(n) // 3, amplitude=0.3) for s in range(3)]
    u = states[0].packed() if rows == 1 else np.stack([st.packed() for st in states])
    return _ops(grid, params), _band(grid, u), HalfOps(grid, params)


@pytest.mark.parametrize("n", [(64,), (256,), (32, 32), (16, 24)])
@pytest.mark.parametrize("mu", [0.0, 0.2])
class TestAgainstTwoPropagatorStep:
    """The old step runs on the whole half lattice (``HalfOps``); the new
    one's band is compared with the band of its result."""

    def _setup(self, n, mu, rows):
        ops, u, half = step_case(n, mu, rows)
        return ops.grid, ops, u, half

    @pytest.mark.parametrize("rows", [1, 3])
    def test_forcing_and_step(self, n, mu, rows):
        grid, ops, u, half = self._setup(n, mu, rows)
        old = partial(full_width_nonlinear, grid, True)
        assert rel_err(ops.nonlinear(u), _band(grid, old(_expand(grid, u)))) <= ROUNDOFF_RTOL
        for dt in (1e-2, 0.1):
            got = dynamics._lawson_rk4_step(ops, u, dt)
            want = two_propagator_lawson_step(half, old, _expand(grid, u), dt)
            assert rel_err(got, _band(grid, want)) <= ROUNDOFF_RTOL

    def test_trajectory(self, n, mu):
        grid, ops, u, half = self._setup(n, mu, 1)
        old = partial(full_width_nonlinear, grid, True)
        new, ref = u, _expand(grid, u)
        for _ in range(TRAJECTORY_STEPS):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2)
            ref = two_propagator_lawson_step(half, old, ref, 1e-2)
        assert rel_err(new, _band(grid, ref)) <= TRAJECTORY_RTOL


# A Picard sweep evaluates the forcing of all its nodes on one stack, so the
# forcing's temporaries are as large as the stack of its packed states (the
# half lattice its transforms pad the band to): its peak traced memory,
# output included, stays within these multiples of that stack's size.
@pytest.mark.parametrize(
    "n, shape, bound",
    [((128,), (401, 2, 65), 2.5), ((32, 32), (50, 3, 32, 17), 3.0)],
    ids=["1d", "2d"],
)
def test_forcing_peak_memory_on_a_stack(n, shape, bound):
    ops = _ops(Grid(n), Params(kappa=1.0, mu=0.1, s=1.0))
    rng = np.random.default_rng(0)
    packed = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u = _band(ops.grid, packed)
    ops.nonlinear(u)  # warm the FFT plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ops.nonlinear(u)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == u.shape
    assert peak <= bound * packed.nbytes, peak / packed.nbytes


# ---------------------------------------------------------------------------
# Reference: the Lawson step as it was written before it ran in a workspace,
# every stage a new array.  The workspace step does the same arithmetic in the
# same order, so the two are bitwise equal.  Both references run on the whole
# half lattice (``HalfOps``), and the band step is bitwise equal to their band.


def allocating_lawson_step(ops, u, dt):
    s = ops.propagator(0.5 * dt)
    k1 = ops.nonlinear(u)
    a, b = s.apply(u), s.apply(k1)
    k2 = ops.nonlinear(a + 0.5 * dt * b)
    k3 = ops.nonlinear(a + 0.5 * dt * k2)
    k4 = ops.nonlinear(s.apply(a + dt * k3))
    return s.apply(a + dt / 6.0 * b + dt / 3.0 * (k2 + k3)) + dt / 6.0 * k4


# Reference: the forcing as it was written before its temporaries had buffers,
# each one a new array and the 1/2 of |v|^2/2 applied to the samples.  Halving
# is exact, so folding it into the velocity rows' weight moves no bit.


def allocating_nonlinear(ops, u):
    lead = ops.axes[:-1]
    c = u[..., : ops.width] * ops.inv_weight
    for axis in lead:
        c = np.fft.ifft(c, axis=axis, norm="forward")
    phys = np.fft.irfft(c, n=ops.grid.n[-1], axis=-1, norm="forward")
    eta, vel = phys[ops.eta], phys[ops.vel]
    sq = np.sum(vel * vel, axis=ops.comp, keepdims=True)
    vel *= eta
    np.multiply(sq, 0.5, out=eta)
    c = np.fft.rfft(phys, axis=-1)[..., : ops.width]
    for axis in lead:
        c = np.fft.fft(c, axis=axis)
    out = np.zeros_like(u)
    kept = out[..., : ops.width]
    np.multiply(ops.fwd_weight, c[ops.eta], out=kept[ops.vel])
    c_vel = c[ops.vel]
    c_vel *= ops.fwd_weight
    np.sum(c_vel, axis=ops.comp, keepdims=True, out=kept[ops.eta])
    return out


class HalfOps:
    """The operators on the whole half lattice, as they were before the state
    held only the 2/3 band: every table from the catalog on the half
    lattice, the forcing's weights cut to the columns its transforms saw
    (those the 2/3 mask keeps in 2D, all of them in 1D) and masked.  Its
    propagator is the package's ``_Propagator``, whose arithmetic is
    elementwise, on these tables, and its forcing ``allocating_nonlinear``."""

    def __init__(self, grid, params):
        cat = SymbolCatalog
        batched = isinstance(params, tuple)

        def table(f):
            return np.stack([f(p) for p in params]) if batched else f(params)

        rate = table(lambda p: p.kappa * p.mu * cat.riesz(grid, p.p))
        self.heat_rate = (rate[:, None] if batched else rate) if rate.any() else None
        self.Kk = table(lambda p: cat.K_kappa(grid, p.kappa))
        self.Kk_inv = table(lambda p: cat.K_kappa_inv(grid, p.kappa))
        self.phase = table(lambda p: cat.frequency(grid, p.kappa))
        self.unit = np.stack(cat.unit_vectors(grid))
        d = grid.dim
        self.grid, self.axes, self.comp = grid, tuple(range(-d, 0)), -d - 1
        self.parts = [_part(d, k) for k in range(1 + d)]
        self.eta, self.vel = _part(d, slice(0, 1)), _part(d, slice(1, None))
        self.width = grid.dealias_band(-1) + 1 if d > 1 else grid.n[-1] // 2 + 1
        keep = grid.dealias_mask[..., : self.width]
        self.inv_weight = keep / math.sqrt(math.prod(grid.length))
        forcing = np.stack(cat.forcing(grid))
        self.fwd_weight = forcing[..., : self.width] * (keep * grid._norm_factor)

    def propagator(self, t):
        return _Propagator(self, t)

    def nonlinear(self, u):
        return allocating_nonlinear(self, u)


def garbage(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def garbage_workspace(ops, u, seed=0):
    """A step's workspace whose every slot holds stale numbers."""
    work = dynamics._workspace(ops, u)
    block = work[0].base
    block[...] = garbage(block.shape, seed)
    return work, block


class TestWorkspaceStep:
    @pytest.mark.parametrize("n", [(256,), (32, 32), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_allocating_step(self, n, mu, rows):
        ops, u, half = step_case(n, mu, rows)
        work, block = garbage_workspace(ops, u)
        new, ref = u, _expand(ops.grid, u)
        for _ in range(20):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2, work)
            ref = allocating_lawson_step(half, ref, 1e-2)
            assert np.array_equal(new, _band(ops.grid, ref))
            # evolve's states keep views of the returned array
            assert not np.shares_memory(new, block)

    @pytest.mark.parametrize("n", [(256,), (32, 32), (16, 24)])
    def test_members_with_their_own_params(self, n):
        """A stack whose members step on their own Params, mu 0.2 and 0
        alternating: the propagator's tables and the heat factor have a
        member axis, and the paired applies broadcast over it."""
        grid = Grid(n)
        params = tuple(Params(kappa=0.7, mu=mu, p=0.75) for mu in (0.2, 0.0, 0.2, 0.0))
        band = min(n) // 3
        u = np.stack([random_bandlimited(grid, seed=s, band=band, amplitude=0.3).packed()
                      for s in range(len(params))])
        ops, half = _ops(grid, params), HalfOps(grid, params)
        u, ref = _band(grid, u), u
        work, block = garbage_workspace(ops, u)
        new = u
        for _ in range(20):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2, work)
            ref = allocating_lawson_step(half, ref, 1e-2)
            assert np.array_equal(new, _band(grid, ref))
            assert not np.shares_memory(new, block)

    @pytest.mark.parametrize("n", [(256,), (32, 32), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_out_forms_match_allocating_forms(self, n, mu, rows):
        """The forcing with no buffers, in a workspace's buffers (holding
        garbage, then the last call's numbers), written over its input and
        as it was written before agree bit for bit, and so do both forms of
        an apply."""
        ops, u, half = step_case(n, mu, rows)
        ref = _band(ops.grid, allocating_nonlinear(half, _expand(ops.grid, u)))
        assert np.array_equal(ops.nonlinear(u), ref)
        (_, buffers), _ = garbage_workspace(ops, u, seed=3)
        for seed, work in ((1, None), (4, buffers), (5, buffers)):
            out = garbage(u.shape, seed)
            assert ops.nonlinear(u, out=out, work=work) is out
            assert np.array_equal(out, ref)
        # The step writes k3 over its own input.
        inout = u.copy()
        assert ops.nonlinear(inout, out=inout, work=buffers) is inout
        assert np.array_equal(inout, ref)
        prop = ops.propagator(0.05)
        out = garbage(u.shape, seed=2)
        assert prop.apply(u, out=out) is out
        assert np.array_equal(out, prop.apply(u))


class TestBandLayout:
    @pytest.mark.parametrize("n, shape", [((256,), (86,)), ((128, 128), (85, 43)),
                                          ((16, 24), (11, 8)), ((4,), (2,))])
    def test_band_is_the_modes_the_mask_keeps(self, n, shape):
        """The band of a half-lattice stack is its modes that the 2/3 mask
        keeps, in their order, and expanding it puts them back with zeros
        above the band."""
        grid = Grid(n)
        a = garbage((3, 1 + grid.dim) + grid.half_shape)
        b = _band(grid, a)
        assert b.shape == (3, 1 + grid.dim) + shape and b.flags.c_contiguous
        assert np.array_equal(b.reshape(3, 1 + grid.dim, -1), a[..., grid.dealias_mask])
        back = _expand(grid, b)
        assert np.array_equal(back, np.where(grid.dealias_mask, a, 0))
        assert np.array_equal(_band(grid, back), b)

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 16, 17, 40])
    def test_duhamel_sweep_on_the_band(self, n, steps):
        """The sweep on the band is bitwise the band of the per-node
        sweep on the whole half lattice (``HalfOps``), its forcing
        ``allocating_nonlinear`` on the half-lattice nodes."""
        g = Grid(n)
        params = Params(kappa=0.7, mu=0.2, p=0.75, s=1.0)
        ops, half = _ops(g, params), HalfOps(g, params)
        dt = 0.2 / steps
        start = small_state(g, seed=steps, amplitude=0.3).packed()
        zero = np.zeros((steps + 1,) + start.shape, complex)
        free = np.stack(list(per_node_sweep(half, start, zero, dt)))
        forcing = half.nonlinear(free)
        want = np.stack(list(per_node_sweep(half, start, forcing, dt)))
        got = dynamics._duhamel_integrals(ops, _band(g, start), _band(g, forcing), dt)
        assert np.array_equal(got, _band(g, want))


@pytest.mark.parametrize("n, rows", [((64,), 1), ((16, 24), 3)])
def test_a_step_makes_two_applies_and_four_forcing_calls(monkeypatch, n, rows):
    """The step applies S(dt/2) twice, each time to a pair of states, and
    evaluates the forcing four times."""
    ops, u, _ = step_case(n, 0.2, rows)
    work = dynamics._workspace(ops, u)
    applied, forced = [], []
    apply, nonlinear = dynamics._Propagator.apply, dynamics._Ops.nonlinear

    def counted_apply(self, v, out=None):
        applied.append(v.shape)
        return apply(self, v, out)

    def counted_nonlinear(self, v, out=None, work=None):
        forced.append(v.shape)
        return nonlinear(self, v, out, work)

    monkeypatch.setattr(dynamics._Propagator, "apply", counted_apply)
    monkeypatch.setattr(dynamics._Ops, "nonlinear", counted_nonlinear)
    dynamics._lawson_rk4_step(ops, u, 1e-2, work)
    assert applied == [(2,) + u.shape] * 2
    assert forced == [u.shape] * 4


STEP_ALLOCATION_CASES = {
    "2d-32": ((32, 32), 1, 4.0),
    "1d-256": ((256,), 1, 8.0),
    "1d-256-B20": ((256,), 20, 7.0),
}


@pytest.mark.parametrize("case", list(STEP_ALLOCATION_CASES))
def test_step_allocation_with_a_workspace(case):
    """After warm-up, a step given a workspace allocates the new state, a
    product temporary inside an apply and numpy's iteration buffers, the
    forcing's temporaries being in the workspace.  A 2D 32^2 step peaks at
    2.17 (band) state sizes, with its applies paired as with four single
    ones; on the whole half lattice it peaked at 2.07 of its larger states,
    and the step that made every stage a new array at 9.1.  In 1D numpy
    buffers the broadcast inputs of the column products and of the heat
    factor: n = 256 peaks at 6.77 state sizes for one state (2.66 with
    propagator rows) and at 6.04 for 20 members, half of them viscous
    (3.04 with rows)."""
    n, members, bound = STEP_ALLOCATION_CASES[case]
    grid = Grid(n)
    params = Params(kappa=0.7, mu=0.2, p=0.75)
    u = _band(grid, random_bandlimited(grid, seed=0, band=10, amplitude=0.3).packed())
    if members > 1:
        params = tuple(replace(params, mu=0.2 * (k % 2)) for k in range(members))
        u = np.stack([u] * members)
    ops = _ops(grid, params)
    work = dynamics._workspace(ops, u)
    dynamics._lawson_rk4_step(ops, u, 1e-2, work)  # warm the FFT plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dynamics._lawson_rk4_step(ops, u, 1e-2, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * u.nbytes, peak / u.nbytes


class RowPropagator:
    """The propagator applied by rows, as before its 1D columns: each output
    component is one row of multipliers dotted with (eta, v_1, .., v_d), and
    the heat factor has the band's shape (with a member axis when batched)."""

    def __init__(self, ops, t):
        theta = t * ops.phase
        cos, sin = np.cos(theta), np.sin(theta)
        e = ops.unit
        rows = [(cos,) + tuple(-1j * (ops.Kk_inv * sin * ej) for ej in e)]
        rows += [
            (-1j * (ops.Kk * sin * ej),)
            + tuple(ej * ek * cos + (float(j == k) - ej * ek) for k, ek in enumerate(e))
            for j, ej in enumerate(e)
        ]
        self.rows = [tuple(np.asarray(m, complex) for m in row) for row in rows]
        self.heat = (np.exp(-t * ops.heat_rate).astype(complex) if ops.heat_rate is not None
                     else None)
        self.parts = ops.parts

    def apply(self, u, out=None):
        if out is None:
            out = np.empty_like(u)
        parts = self.parts
        for row, i in zip(self.rows, parts):
            acc = out[i]
            np.multiply(row[0], u[parts[0]], out=acc)
            for m, j in zip(row[1:], parts[1:]):
                acc += m * u[j]
        if self.heat is not None:
            out *= self.heat
        return out


ROW_FORM_PARAMS = {
    "mu0": Params(kappa=0.7),
    "mu": Params(kappa=0.7, mu=0.2, p=0.75),
    "mixed": (Params(kappa=0.7), Params(kappa=1.0, mu=0.2, p=0.75), Params(kappa=0.3, mu=0.1)),
}


def row_form_case(n, which):
    """The operators and a band state (a stack of one per member when the
    params are batched) for one case of the row-form comparisons."""
    grid, params = Grid(n), ROW_FORM_PARAMS[which]
    members = len(params) if isinstance(params, tuple) else 1
    u = np.stack([_band(grid, small_state(grid, seed=k, amplitude=0.3).packed())
                  for k in range(members)])
    return _ops(grid, params), u if isinstance(params, tuple) else u[0]


@pytest.mark.parametrize("which", list(ROW_FORM_PARAMS))
@pytest.mark.parametrize("n", [(64,), (16, 24)], ids=["1d", "2d"])
def test_propagator_apply_is_the_row_form_bitwise(n, which):
    """A single node, an ERK4 pair in its workspace slices and a strided
    stack of nodes, Picard's even nodes into its odd ones: each apply, into
    ``out`` and into a new array, is bit for bit the row form's.  1D applies
    one whole-axis term, 2D one term per row, and the heat factor spans the
    component axis."""
    ops, u = row_form_case(n, which)
    prop, ref = ops.propagator(0.37), RowPropagator(ops, 0.37)
    stages = np.stack([u, 2.0 * u, u, u])
    nodes = np.stack([(1.0 + 0.1 * k) * u for k in range(9)])
    cases = [(u, np.empty_like(u)), (stages[:2], stages[2:]), (nodes[0::2][:4], nodes[1::2])]
    for v, out in cases:
        want = ref.apply(v)
        assert prop.apply(v).tobytes() == want.tobytes()
        assert prop.apply(v, out=out) is out
        assert out.tobytes() == want.tobytes()
    assert len(prop.terms) == (1 if len(n) == 1 else 1 + len(n))
    if ops.heat_rate is not None:
        assert prop.heat.shape == u.shape


@pytest.mark.parametrize("which", list(ROW_FORM_PARAMS))
@pytest.mark.parametrize("n", [(64,), (16, 24)], ids=["1d", "2d"])
def test_fifty_steps_match_the_row_form_bitwise(n, which):
    """50 ERK4 steps with the propagator and with the row form read the same bits."""
    ops, u = row_form_case(n, which)
    ref = dynamics._Ops(ops.grid, ROW_FORM_PARAMS[which])
    ref.propagator = partial(RowPropagator, ref)
    got = want = u
    for _ in range(50):
        got = dynamics._lawson_rk4_step(ops, got, 1e-2)
        want = dynamics._lawson_rk4_step(ref, want, 1e-2)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()


class SquareFirstForcing:
    """The forcing as it was written with |v|^2 as its first product row:
    in every dimension |v|^2 as one product and in-place adds, then every
    eta v_j in one product, and per band block the velocity rows G/2 |v|^2
    and the divergence sum_j G_j (eta v_j) gathered by their own products
    and in-place adds, on the views of its own ``buffers``."""

    def __init__(self, ops):
        self.ops = ops
        self.block_weights = [(0.5 * ops.fwd_weight[b], ops.fwd_weight[b]) for b, _ in ops.blocks]

    def buffers(self, spec, samples):
        ops = self.ops
        grid, d = ops.grid, ops.grid.dim
        real = spec.shape[: ops.comp] + (1 + d,) + grid.n
        width = grid.dealias_band(-1) + 1
        cols, kept = spec[..., :width], samples[..., :width]
        zeros = [spec[..., width:]]
        if d > 1:
            k = grid.dealias_band(0)
            zeros.append(cols[..., k + 1 : grid.n[0] - k, :])
        rows = [_part(d, slice(k, k + 1)) for k in range(1 + d)]

        def split(a):
            return a, a[ops.eta], a[ops.vel], [a[r] for r in rows[1:]]

        return ((spec, cols, zeros, [spec[h] for _, h in ops.blocks]),
                split(dynamics._real(samples, real)), split(dynamics._real(spec, real)),
                (samples, kept, [[samples[h][r] for r in rows] for _, h in ops.blocks]))

    def products(self, u, work=None):
        ops = self.ops
        lead = ops.axes[:-1]
        if work is None:
            shape = u.shape[: ops.comp + 1] + ops.grid.half_shape
            work = self.buffers(np.empty(shape, u.dtype), np.empty(shape, u.dtype))
        (spec, cols, zeros, into), (phys, eta, vel, v), (prod, sq, flux, flux_rows), \
            (fwd, kept, gathered) = work
        for z in zeros:
            z.fill(0)
        for (band, _), block in zip(ops.blocks, into):
            np.multiply(u[band], ops.inv_weight, out=block)
        for axis in lead:
            np.fft.ifft(cols, axis=axis, norm="forward", out=cols)
        np.fft.irfft(spec, n=ops.grid.n[-1], axis=-1, norm="forward", out=phys)
        np.multiply(v[0], v[0], out=sq)
        for vj, tmp in zip(v[1:], flux_rows[1:]):
            np.multiply(vj, vj, out=tmp)
            sq += tmp
        np.multiply(vel, eta, out=flux)
        np.fft.rfft(prod, axis=-1, out=fwd)
        for axis in lead:
            np.fft.fft(kept, axis=axis, out=kept)
        return gathered

    def nonlinear(self, u, out=None, work=None):
        ops = self.ops
        gathered = self.products(u, work)
        if out is None:
            out = np.empty_like(u)
        for (band, _), (vel_weight, fwd_weight), (sq, first, *rest) in zip(
                ops.blocks, self.block_weights, gathered):
            kept = out[band]
            np.multiply(vel_weight, sq, out=kept[ops.vel])
            div = kept[ops.eta]
            np.multiply(first, fwd_weight[0], out=div)
            for c, weight in zip(rest, fwd_weight[1:]):
                c *= weight
                div += c
        return out


def square_first_ops(grid, params):
    """An ``_Ops`` whose forcing, and the workspace it lays out, is
    ``SquareFirstForcing``'s."""
    ref = dynamics._Ops(grid, params)
    forcing = SquareFirstForcing(ref)
    ref.nonlinear, ref.buffers = forcing.nonlinear, forcing.buffers
    return ref


def forcing_case(n, which):
    """The params and a band stack for one case of the square-first
    comparisons: one state, a B = 20 stack whose members alternate mu 0
    and mu 0.2, or a Picard sweep's stack of N + 1 = 9 nodes."""
    grid = Grid(n)
    params = Params(kappa=0.7, mu=0.2, p=0.75)
    u = _band(grid, random_bandlimited(grid, seed=3, band=min(n) // 4, amplitude=0.3).packed())
    if which == "one":
        return grid, params, u
    members = 20 if which == "B20" else 9
    u = np.stack([(1.0 + 0.05 * k) * u for k in range(members)])
    if which == "B20":
        params = tuple(replace(params, mu=0.2 * (k % 2)) for k in range(members))
    return grid, params, u


FORCING_GRIDS = [(64,), (256,), (16, 24)]


@pytest.mark.parametrize("which", ["one", "B20", "picard"])
@pytest.mark.parametrize("n", FORCING_GRIDS, ids=["1d-64", "1d-256", "2d"])
def test_forcing_is_the_square_first_form_bitwise(n, which):
    """Into a new array, into a workspace slot and over its own input, with
    and without buffers, the forcing is bit for bit the square-first form's.
    1D makes one whole-axis product and one whole-axis gather, 2D the
    square-first form's products and sums in the new row order."""
    grid, params, u = forcing_case(n, which)
    ops = _ops(grid, params)
    want = SquareFirstForcing(ops).nonlinear(u).tobytes()
    assert ops.nonlinear(u).tobytes() == want
    (stages, buffers), _ = garbage_workspace(ops, u, seed=7)
    slot = stages[1]
    assert ops.nonlinear(u, out=slot, work=buffers) is slot
    assert slot.tobytes() == want
    for work in (buffers, None):
        inout = u.copy()
        assert ops.nonlinear(inout, out=inout, work=work) is inout
        assert inout.tobytes() == want
    products, gather = buffers[1][2], buffers[2][2]
    blocks = len(ops.blocks)
    assert (len(products), len(gather)) == ((1, 1) if len(n) == 1 else (2, 2 * blocks))


@pytest.mark.parametrize("which", ["one", "B20"])
@pytest.mark.parametrize("n", FORCING_GRIDS, ids=["1d-64", "1d-256", "2d"])
def test_fifty_steps_match_the_square_first_form_bitwise(n, which):
    """50 ERK4 steps with the forcing and with the square-first form, each in
    its own workspace, read the same bits."""
    grid, params, u = forcing_case(n, which)
    ops, ref = _ops(grid, params), square_first_ops(grid, params)
    work, ref_work = dynamics._workspace(ops, u), dynamics._workspace(ref, u)
    got = want = u
    for _ in range(50):
        got = dynamics._lawson_rk4_step(ops, got, 1e-2, work)
        want = dynamics._lawson_rk4_step(ref, want, 1e-2, ref_work)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()


FORCING_ALLOCATION_CASES = {
    "1d-256": ((256,), 1, 2.5),
    "1d-256-B20": ((256,), 20, 2.5),
    "2d-32": ((32, 32), 1, 2.0),
}


@pytest.mark.parametrize("case", list(FORCING_ALLOCATION_CASES))
def test_forcing_allocation_with_a_workspace(case):
    """After warm-up, the forcing given a workspace and ``out=`` allocates
    only numpy's iteration buffers and the transforms' scratch, its
    temporaries being in the workspace.  With numpy 2.4.6 it peaks at 1.98
    (band) state sizes at 1D n = 256 for one state, 2.03 for 20 members
    (the square-first form read 1.53 and 2.26) and 1.60 at 2D 32^2 (1.59):
    the bounds leave 23 to 26% over these."""
    n, members, bound = FORCING_ALLOCATION_CASES[case]
    grid = Grid(n)
    u = _band(grid, random_bandlimited(grid, seed=0, band=10, amplitude=0.3).packed())
    if members > 1:
        u = np.stack([u] * members)
    ops = _ops(grid, Params(kappa=0.7, mu=0.2, p=0.75))
    stages, buffers = dynamics._workspace(ops, u)
    ops.nonlinear(u, out=stages[1], work=buffers)  # warm the FFT plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops.nonlinear(u, out=stages[1], work=buffers)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * u.nbytes, peak / u.nbytes


@pytest.mark.parametrize("shared", [False, True], ids=["two-params", "one-params"])
def test_concurrent_evolves_match_serial_runs(shared):
    """Two threads integrate at once on one grid through the shared operator
    caches, each with its own workspace; each result is its serial run's."""
    g = Grid((32, 32))
    first = Params(kappa=1.0, mu=0.1, p=1.0)
    params = [first, first if shared else Params(kappa=0.5)]
    u0 = [small_state(g, seed=s, band=8, amplitude=0.1) for s in (1, 2)]
    cfg = IntegratorConfig(dt=2.5e-3)

    def run(k):
        return evolve(u0[k], params[k], cfg, 0.5, report_every=0.1)

    serial = [run(k) for k in range(2)]
    with dynamics._CACHE_LOCK:
        dynamics._OPS_CACHE.clear()  # the threads also build the operators at once
    barrier = threading.Barrier(2, timeout=60)
    results = [None, None]

    def worker(k):
        barrier.wait()
        results[k] = run(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the steps' Python code too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        # a 2D report's momentum is NaN (undefined), so compare as arrays
        table = [np.array([astuple(r) for r in res.reports]) for res in (got, want)]
        assert np.array_equal(*table, equal_nan=True)
        assert all(
            np.array_equal(a.packed(), b.packed())
            for a, b in zip(got.states, want.states)
        )
