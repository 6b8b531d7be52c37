"""The leading batch axis: the operators and both steppers act on a
(..., 1 + d, *band) stack row by row, and one ``evolve`` call on several
states, with one Params or one per member, gives each member its single run,
bit for bit."""

from dataclasses import astuple

import numpy as np
import pytest

from wbwaves import dynamics
from wbwaves.dynamics import IntegratorConfig, evolve
from wbwaves.functionals import EnergyReport
from wbwaves.presets import random_bandlimited
from wbwaves.spectral import Grid
from wbwaves.state import Params, _weighted_sq_coeffs

GRIDS = [Grid(64), Grid(256), Grid((32, 32)), Grid((16, 24))]


def family(grid, count=3, amplitude=0.05):
    return [
        random_bandlimited(grid, seed=40 + i, band=4, amplitude=amplitude) for i in range(count)
    ]


def stacked(states):
    """The band of the states' packed arrays, as the solver holds them."""
    return dynamics._band(states[0].grid, np.stack([st.packed() for st in states]))


def same_rows(f, u):
    batched = f(u)
    return all(np.array_equal(batched[b], f(u[b])) for b in range(len(u)))


@pytest.mark.parametrize("mu", [0.0, 0.2])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
class TestRowByRow:
    def test_operators(self, grid, mu):
        ops = dynamics._ops(grid, Params(kappa=1.0, mu=mu))
        u = stacked(family(grid))
        assert same_rows(ops.nonlinear, u)
        assert same_rows(ops.linear, u)
        assert same_rows(ops.propagator(0.01).apply, u)

    def test_steppers(self, grid, mu):
        ops = dynamics._ops(grid, Params(kappa=1.0, mu=mu))
        u = stacked(family(grid))
        assert same_rows(lambda x: dynamics._lawson_rk4_step(ops, x, 0.01), u)
        assert same_rows(lambda x: dynamics._reference_rk4_step(ops, x, 0.01), u)

    def test_weighted_sum(self, grid, mu):
        u = np.stack([st.packed() for st in family(grid)])
        sums = _weighted_sq_coeffs(grid, u, 1.0, 1.0)
        assert sums.shape == (len(u),)
        assert [float(x) for x in sums] == [_weighted_sq_coeffs(grid, row, 1.0, 1.0) for row in u]


def test_two_leading_axes():
    grid = Grid(64)
    ops = dynamics._ops(grid, Params(kappa=1.0, mu=0.2))
    u = stacked(family(grid, count=6)).reshape(2, 3, 2, -1)
    out = ops.nonlinear(u)
    for i in range(2):
        assert all(np.array_equal(out[i, j], ops.nonlinear(u[i, j])) for j in range(3))


def _same_run(batched, single):
    assert batched.blown_up == single.blown_up
    assert batched.blowup_time == single.blowup_time
    assert batched.defects == single.defects
    assert batched.times == single.times
    # A 2D report's momentum is NaN: compare the columns with NaN equal to NaN.
    columns = [[astuple(rep) for rep in res.reports] for res in (batched, single)]
    assert np.array_equal(*columns, equal_nan=True)
    for a, b in zip(batched.states, single.states):
        assert np.array_equal(a.packed(), b.packed())


@pytest.mark.parametrize("method", ["exponential_rk4", "reference_rk4", "picard_duhamel"])
def test_batched_evolve_gives_each_member_its_single_run(method):
    grid = Grid(64)
    params = Params(kappa=1.0, mu=0.1, s=1.0)
    cfg = IntegratorConfig(method=method, dt=5e-3)
    states = family(grid)
    results = evolve(states, params, cfg, T=0.2, report_every=0.05)
    assert len(results) == len(states)
    for st, res in zip(states, results):
        _same_run(res, evolve(st, params, cfg, T=0.2, report_every=0.05))
        # Only a Duhamel solve has sweeps to report.
        assert (res.defects is None) == (method != "picard_duhamel")


class _StackSpy:
    """numpy as ``dynamics`` sees it, recording the shape of each array that
    ``np.stack`` returns with a member axis before (1 + d, *band)."""

    def __init__(self, ndim):
        self.ndim, self.shapes = ndim, []

    def __getattr__(self, name):
        return getattr(np, name)

    def stack(self, arrays, *args, **kwargs):
        out = np.stack(arrays, *args, **kwargs)
        if out.ndim == self.ndim:
            self.shapes.append(out.shape)
        return out


@pytest.mark.parametrize("method", ["exponential_rk4", "reference_rk4", "picard_duhamel"])
@pytest.mark.parametrize("grid", [Grid(64), Grid((16, 24))], ids=lambda g: "x".join(map(str, g.n)))
def test_a_single_state_steps_as_a_one_member_stack(monkeypatch, grid, method):
    """One WaveState gives the sampling loop (1, 1 + d, *band) nodes under
    every method: the RK4 steppers yield them from ``_stepped``, and the
    Duhamel nodes are stacked one at a time from the solve's."""
    state = family(grid, count=1)[0]
    band = dynamics._band(grid, state.packed()).shape
    nodes = []
    stepped = dynamics._stepped

    def spy(step, ops, u, dt, n_steps):
        for node in stepped(step, ops, u, dt, n_steps):
            nodes.append(node.shape)
            yield node

    monkeypatch.setattr(dynamics, "_stepped", spy)
    numpy = _StackSpy(2 + grid.dim)
    if method == "picard_duhamel":
        monkeypatch.setattr(dynamics, "np", numpy)
    result = evolve(state, Params(kappa=1.0, mu=0.1), IntegratorConfig(method=method, dt=5e-3),
                    T=0.05, report_every=0.025)
    assert len(result.times) == 3
    assert nodes + numpy.shapes == [(1, *band)] * 11


def test_a_blown_member_freezes_and_the_others_go_on():
    grid = Grid(64)
    params = Params(kappa=1.0)
    cfg = IntegratorConfig(dt=5e-3)
    small = family(grid, count=2)
    big = random_bandlimited(grid, seed=3, band=4, amplitude=10.0)
    states = [small[0], big, small[1]]
    results = evolve(states, params, cfg, T=1.0, report_every=0.1)
    singles = [evolve(st, params, cfg, T=1.0, report_every=0.1) for st in states]
    assert singles[1].blown_up and 0 < singles[1].blowup_time < 1.0
    assert not singles[0].blown_up and not singles[2].blown_up
    for res, single in zip(results, singles):
        _same_run(res, single)


def test_keep_replaces_the_states():
    grid = Grid(64)
    states = family(grid, count=2)
    results = evolve(
        states, Params(kappa=1.0), IntegratorConfig(dt=5e-3), T=0.1, report_every=0.05,
        keep=lambda st: st.time,
    )
    for res in results:
        assert res.states == res.times


def test_empty_batch_and_mixed_grids():
    cfg = IntegratorConfig(dt=5e-3)
    assert evolve([], Params(kappa=1.0), cfg, T=0.1) == []
    mixed = family(Grid(32), count=1) + family(Grid(64), count=1)
    with pytest.raises(ValueError, match="grid"):
        evolve(mixed, Params(kappa=1.0), cfg, T=0.1)


# Members with their own kappa and mu: a mu = 0 member of a viscous stack has
# heat factor exactly 1.
MIXED = [Params(kappa=k) for k in (0.0, 1e-1, 1e-4)] + [Params(kappa=1.0, mu=m) for m in (0.0, 0.2)]


@pytest.mark.parametrize("method", ["exponential_rk4", "reference_rk4"])
@pytest.mark.parametrize("grid", [Grid(64), Grid((16, 24))], ids=lambda g: "x".join(map(str, g.n)))
def test_members_with_their_own_params_give_their_single_runs(grid, method):
    cfg = IntegratorConfig(method=method, dt=5e-3)
    states = family(grid, count=len(MIXED))
    results = evolve(states, MIXED, cfg, T=0.1, report_every=0.025)
    for st, params, res in zip(states, MIXED, results):
        _same_run(res, evolve(st, params, cfg, T=0.1, report_every=0.025))


def test_duhamel_members_solve_with_their_own_params():
    grid = Grid(64)
    per = [Params(kappa=1.0, mu=0.1, s=1.0), Params(kappa=0.5, mu=0.2, s=1.0),
           Params(kappa=1.0, mu=0.3, p=0.75, s=1.0)]
    cfg = IntegratorConfig(method="picard_duhamel", dt=5e-3)
    states = family(grid)
    results = evolve(states, per, cfg, T=0.1, report_every=0.05)
    for st, params, res in zip(states, per, results):
        _same_run(res, evolve(st, params, cfg, T=0.1, report_every=0.05))


def test_params_count_must_match_the_members():
    states = family(Grid(32))
    with pytest.raises(ValueError, match="3 states need one Params or as many, got 2"):
        evolve(states, MIXED[:2], IntegratorConfig(dt=5e-3), T=0.1)


def test_a_viscous_stack_with_its_controls_reports_once_per_step(monkeypatch):
    """The dissipation study's batch: runs and their mu = 0 controls share
    kappa and s, the only fields a report reads, so each report step makes
    one measure call for the whole stack."""
    calls = []
    real = EnergyReport.measure.__func__

    def counted(cls, states, params):
        calls.append(len(states))
        return real(cls, states, params)

    monkeypatch.setattr(EnergyReport, "measure", classmethod(counted))
    states = [st for st in family(Grid(64)) for _ in range(2)]
    per = [Params(kappa=1.0, mu=0.2), Params(kappa=1.0)] * 3
    evolve(states, per, IntegratorConfig(dt=5e-3), T=0.1, report_every=0.01)
    assert calls == [6] * 11
