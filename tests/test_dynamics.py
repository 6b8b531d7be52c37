import itertools
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from wbwaves import dynamics
from wbwaves.dynamics import (
    IntegratorConfig,
    PicardError,
    _ops,
    _Propagator,
    _horizon,
    energy_derivative_check,
    evolve,
    picard_solve,
    rhs,
)
from wbwaves.functionals import EnergyReport
from wbwaves.presets import random_bandlimited, single_mode
from wbwaves.spectral import Field, Grid, SymbolCatalog
from wbwaves.state import Params, WaveState, _part, _weighted_sq_coeffs, weighted_pair_norm

from full_spectrum import apply_multiplier, coeffs, full, index, inverse, transform
from full_spectrum import half as cut


def small_state(grid, seed=0, band=4, amplitude=0.05):
    return random_bandlimited(grid, seed=seed, band=band, amplitude=amplitude)


def propagate(params, t, u):
    """S(t)u by the solver's propagator, as the state at time u.time + t."""
    prop = _ops(u.grid, params).propagator(t)
    return WaveState.from_packed(u.grid, prop.apply(u.packed()), u.time + t)


def linear_part(u, params):
    """The linear part of the right-hand side, as the solver evaluates it."""
    return WaveState.from_packed(u.grid, _ops(u.grid, params).linear(u.packed()), u.time)


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
        """``reported`` picks the step nearest each multiple of report_every
        before T, and the last step: report_every a hair below the step, a
        cadence past T and cadences that do not divide T among them."""
        for T, dt, cadence in itertools.product([0.1, 1.0, 3.7, 10.0], [1e-3, 7e-3, 0.03],
                                                [1 - 1e-13, 1.0, 1.5, 7.3, 20.0, 1e6]):
            report_every = cadence * T / math.ceil(T / dt - 1e-9)
            n_steps, step, reported = _horizon(T, dt, report_every)
            n_rep = max(1, math.ceil(T / report_every - 1e-9))
            listed = {round(i * report_every / step) for i in range(n_rep)} | {n_steps}
            assert {k for k in range(n_steps + 1) if reported(k)} == listed, (T, dt, cadence)

    def test_a_dense_plan_costs_no_memory(self):
        """Two million report nodes are not listed: the plan is O(1)."""
        tracemalloc.start()
        try:
            n_steps, _, reported = _horizon(200.0, 1e-4, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert n_steps == 2_000_000 and reported(0) and reported(1_234_567)

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
    """Node coefficient arrays and per-sweep defects of the O(N^2) iteration."""
    n_steps, dt, _ = _horizon(T, cfg.dt)
    ops = _ops(u0.grid, params)
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


def per_node_picard(u0, params, cfg, T):
    """``picard_solve``'s iteration on the per-node sweep: nodes, defects."""
    n_steps, dt, _ = _horizon(T, cfg.dt)
    ops = _ops(u0.grid, params)
    s_dt = ops.propagator(dt)
    free = [u0.packed()]
    for _ in range(n_steps):
        free.append(s_dt.apply(free[-1]))
    free = u = np.stack(free)
    defects = []
    for _ in range(cfg.picard_max_iter):
        forcing = ops.nonlinear(u)
        new_u = free.copy()
        for m, im in enumerate(per_node_duhamel_integrals(ops, forcing, dt)):
            new_u[m] += im
        sq = _weighted_sq_coeffs(u0.grid, new_u - u, params.s, params.kappa)
        defects.append(float(np.max(np.sqrt(sq))))
        u = new_u
        if defects[-1] < cfg.picard_tol:
            return u, defects
    raise AssertionError("reference iteration did not converge")


# The sweep takes its N + 1 nodes in blocks of 2 ceil((N + 1)/16): N = 16k - 1
# fills its last block exactly, and N = 16k and 16k + 1 are the first step
# counts of the next block size (N = 16 and 48 end on a block of one node).
BLOCK_EDGES = [16 * k + e for k in (1, 2, 3) for e in (-1, 0, 1)]
PICARD_GRIDS = [(32,), (16, 16)]


class TestBlockedSweep:
    """The blocked sweep is bitwise equal to the per-node recurrence it
    replaced, and its temporaries keep a solve's peak memory down."""

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", list(range(1, 13)) + BLOCK_EDGES + [400, 401])
    def test_sweep_matches_per_node_recurrence(self, n, steps):
        g = Grid(n)
        ops = _ops(g, Params(kappa=0.7, mu=0.2, p=0.75, s=1.0))
        dt = 0.2 / steps
        s_dt = ops.propagator(dt)
        free = [small_state(g, seed=steps, amplitude=0.3).packed()]
        for _ in range(steps):
            free.append(s_dt.apply(free[-1]))
        free = np.stack(free)
        forcing = ops.nonlinear(free)
        want = free.copy()
        for m, im in enumerate(per_node_duhamel_integrals(ops, forcing, dt)):
            want[m] += im
        got = free.copy()
        dynamics._duhamel_integrals(ops, forcing, dt, got)
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

    @pytest.mark.parametrize("n", PICARD_GRIDS)
    @pytest.mark.parametrize("steps", [40, 100, 400])
    def test_peak_memory_within_six_node_stacks(self, n, steps):
        """The defect phase holds the peak: 4.9 to 5.7 node stacks.  The
        same sweep in one block of every node reads 7.3 to 7.9, and in fixed
        blocks of 64 nodes 7.7 to 8.2 at 40 steps."""
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
        assert peak <= 6 * res.nodes.nbytes, peak / res.nodes.nbytes


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


def parent_blowup_nodes(grid, params, nodes, ceiling, reported):
    """The node at which each row of a stack stops, by the rule evolve's
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
                state = WaveState.from_packed(grid, u[b], 0.0)
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
        n_steps, dt, reported = _horizon(0.1, cfg.dt, 0.05)
        clean = evolve(members, params, cfg, T=0.1, report_every=0.05)
        ops = _ops(g, params)
        u = np.stack([m.packed() for m in members])
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
        u = np.stack([m.packed() for m in members])
        ops = _ops(g, params)

        def verdict(value, ceiling, at):
            n_steps, dt, reported = _horizon(0.1, 0.01, 0.05)
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
                c[index(g, k)] = rng.standard_normal()
        uh = _half(g, u)
        out = _ops(g, params).propagator(t).apply(uh)
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
    got = _ops(grid, params).nonlinear(u)
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
    """The operators of one grid and parameter set, and one state or a
    stack of three."""
    grid = Grid(n)
    params = Params(kappa=0.7, mu=mu, p=0.75 if mu else 1.0)
    states = [random_bandlimited(grid, seed=s, band=min(n) // 3, amplitude=0.3) for s in range(3)]
    u = states[0].packed() if rows == 1 else np.stack([st.packed() for st in states])
    return _ops(grid, params), u


@pytest.mark.parametrize("n", [(64,), (256,), (32, 32), (16, 24)])
@pytest.mark.parametrize("mu", [0.0, 0.2])
class TestAgainstTwoPropagatorStep:
    def _setup(self, n, mu, rows):
        ops, u = step_case(n, mu, rows)
        return ops.grid, ops, u

    @pytest.mark.parametrize("rows", [1, 3])
    def test_forcing_and_step(self, n, mu, rows):
        grid, ops, u = self._setup(n, mu, rows)
        old = partial(full_width_nonlinear, grid, True)
        assert rel_err(ops.nonlinear(u), old(u)) <= ROUNDOFF_RTOL
        for dt in (1e-2, 0.1):
            got = dynamics._lawson_rk4_step(ops, u, dt)
            assert rel_err(got, two_propagator_lawson_step(ops, old, u, dt)) <= ROUNDOFF_RTOL

    def test_trajectory(self, n, mu):
        grid, ops, u = self._setup(n, mu, 1)
        old = partial(full_width_nonlinear, grid, True)
        new, ref = u, u
        for _ in range(TRAJECTORY_STEPS):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2)
            ref = two_propagator_lawson_step(ops, old, ref, 1e-2)
        assert rel_err(new, ref) <= TRAJECTORY_RTOL


# A Picard sweep evaluates the forcing of all its nodes on one stack, so the
# forcing's temporaries are as large as the stack: its peak traced memory,
# output included, stays within these multiples of the stack's size.
@pytest.mark.parametrize(
    "n, shape, bound",
    [((128,), (401, 2, 65), 2.5), ((32, 32), (50, 3, 32, 17), 3.0)],
    ids=["1d", "2d"],
)
def test_forcing_peak_memory_on_a_stack(n, shape, bound):
    ops = _ops(Grid(n), Params(kappa=1.0, mu=0.1, s=1.0))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ops.nonlinear(u)  # warm the FFT plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ops.nonlinear(u)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == shape
    assert peak <= bound * u.nbytes, peak / u.nbytes


# ---------------------------------------------------------------------------
# Reference: the Lawson step as it was written before it ran in a workspace,
# every stage a new array.  The workspace step does the same arithmetic in the
# same order, so the two are bitwise equal.


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
        ops, u = step_case(n, mu, rows)
        work, block = garbage_workspace(ops, u)
        new, ref = u, u
        for _ in range(20):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2, work)
            ref = allocating_lawson_step(ops, ref, 1e-2)
            assert np.array_equal(new, ref)
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
        ops = _ops(grid, params)
        work, block = garbage_workspace(ops, u)
        new, ref = u, u
        for _ in range(20):
            new = dynamics._lawson_rk4_step(ops, new, 1e-2, work)
            ref = allocating_lawson_step(ops, ref, 1e-2)
            assert np.array_equal(new, ref)
            assert not np.shares_memory(new, block)

    @pytest.mark.parametrize("n", [(256,), (32, 32), (16, 24)])
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_out_forms_match_allocating_forms(self, n, mu, rows):
        """The forcing with no buffers, in a workspace's buffers (holding
        garbage, then the last call's numbers), written over its input and
        as it was written before agree bit for bit, and so do both forms of
        an apply."""
        ops, u = step_case(n, mu, rows)
        ref = allocating_nonlinear(ops, u)
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


@pytest.mark.parametrize("n, rows", [((64,), 1), ((16, 24), 3)])
def test_a_step_makes_two_applies_and_four_forcing_calls(monkeypatch, n, rows):
    """The step applies S(dt/2) twice, each time to a pair of states, and
    evaluates the forcing four times."""
    ops, u = step_case(n, 0.2, rows)
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


def test_step_allocation_with_a_workspace():
    """After warm-up, a 2D 32^2 step given a workspace peaks at 2.07 state
    sizes, with its applies paired as with four single ones: the new state,
    a product temporary inside an apply and numpy's iteration buffers, the
    forcing's temporaries being in the workspace.  The step that made every
    stage a new array peaked at 9.1."""
    ops = _ops(Grid((32, 32)), Params(kappa=0.7, mu=0.2, p=0.75))
    u = random_bandlimited(ops.grid, seed=0, band=10, amplitude=0.3).packed()
    work = dynamics._workspace(ops, u)
    dynamics._lawson_rk4_step(ops, u, 1e-2, work)  # warm the FFT plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dynamics._lawson_rk4_step(ops, u, 1e-2, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * u.nbytes, peak / u.nbytes


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
