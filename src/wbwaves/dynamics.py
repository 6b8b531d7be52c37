"""Evolution machinery for the Whitham-Boussinesq system in d = 1 and 2:

    eta_t = -div v - K^2 div(eta v)            [- kappa*mu*|D|^p eta]
    v_t   = -K^2 grad(1 + kappa|D|^2) eta
            - K^2 grad(|v|^2/2)                [- kappa*mu*|D|^p v]

with K = sqrt(tanh|D|/|D|) and, in 2D, a curl-free velocity.  In 1D
-K^2 d_x = -i tanh(D), so the system reads

    eta_t = -v_x - i tanh(D)(eta v)
    v_t   = -i tanh(D)(1 + kappa D^2) eta - i tanh(D) v^2/2.

The bracketed viscous terms are active in the regularized variant
(params.mu > 0).  Every operator is written once for both dimensions, from
per-axis multipliers cut to the half spectrum, and acts on the packed
state array of ``WaveState.packed``.

The linear part diagonalizes exactly: with the unit wave vector
e = xi/|xi| (sgn xi in 1D), in the variables eta +- K_kappa^-1 (e.v) it
reduces to phase rotation exp(-+ i t |xi| K_kappa) times the heat factor.
The resulting propagator (``_Ops.propagator``) backs both the exponential
(integrating-factor) RK4 stepper and the Duhamel fixed-point solver; the
linear part itself is ``_Ops.linear``.  The public entry points are
``evolve``, ``picard_solve``, ``rhs`` and ``energy_derivative_check``.

Trajectories stay packed: the two RK4 steppers and the converged Duhamel
nodes each give ``evolve`` a sequence of packed arrays, and its one sampling
loop runs both blow-up checks on them and builds ``WaveState``s only for
the nodes it reports on.

Batch axis: every operator, the propagator and both steppers act on
(..., 1 + d, *half) arrays, the component axis and the d transform axes
counted from the end, so independent runs on one grid with one ``Params``
step as one (B, 1 + d, *half) stack, each row exactly as it would alone.
``evolve`` given a sequence of states integrates them so; its sampling loop
checks each row, reports on the stack of live members with one
``from_packed`` and one ``EnergyReport.measure`` call per report step, and
freezes a blown member at its own time.  A Picard sweep evaluates the
forcing of all its nodes, a (N + 1, 1 + d, *half) stack, in one call.

Lattice conventions: e and the phase vanish on the zero mode and the
Nyquist modes/planes, matching the odd-symbol convention of the spatial
operators, so velocity content there (and off e) is propagated by the heat
factor alone.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .functionals import EnergyReport, modified_energy
from .spectral import Grid, SymbolCatalog
from .state import Params, WaveState, _part, _weighted_sq_coeffs, weighted_pair_norm

INTEGRATOR_METHODS = ("exponential_rk4", "reference_rk4", "picard_duhamel")


class BlowUpError(RuntimeError):
    """A run that a study needs blew up; ``member`` names it, ``time`` says when."""

    def __init__(self, member, time):
        super().__init__(f"{member} run blew up at t={time:g}")
        self.member = member
        self.time = time


class PicardError(RuntimeError):
    """Fixed-point iteration failed to contract (horizon too large for the data).

    ``defects`` holds the defect of every sweep, ``contraction`` the largest
    ratio of successive defects (infinite when the iteration diverged)."""

    def __init__(self, message, defects, contraction):
        super().__init__(message)
        self.defects = list(defects)
        self.contraction = contraction


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "exponential_rk4"
    dt: float = 1e-3
    picard_tol: float = 1e-8
    picard_max_iter: int = 30
    dealias: bool = True
    blowup_ceiling: float = 1e6

    def __post_init__(self):
        if self.method not in INTEGRATOR_METHODS:
            raise ValueError(
                f"method must be one of {INTEGRATOR_METHODS}, got {self.method!r}"
            )
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.picard_tol > 0):
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")


# ---------------------------------------------------------------------------
# Precomputed multiplier arrays for one (grid, params, dealias) combination


class _Ops:
    """The system's multipliers on the half spectrum of one grid, stacked
    over the axes j: the derivative d_j, the unit wave vector e_j, the
    forcing G_j = -K^2 d_j (2/3-masked when dealiasing) and the restoring
    G_j (1 + kappa|xi|^2)."""

    def __init__(self, grid: Grid, params: Params, dealias: bool):
        self.grid = grid
        cat = SymbolCatalog
        half = grid.half
        self.mask = half(grid.dealias_mask.astype(np.float64)) if dealias else None
        rate = cat.riesz(params.p)
        self.heat_rate = half(params.kappa * params.mu * rate.values(grid)) if params.mu > 0 else None
        self.Kk = half(cat.K_kappa(params.kappa).values(grid))
        self.Kk_inv = half(cat.K_kappa_inv(params.kappa).values(grid))
        self.phase = half(cat.frequency(grid, params.kappa))
        self.unit = np.stack([half(e) for e in cat.unit_vectors(grid)])
        self.dx = np.stack([half(cat.partial(j).multiplier(grid, axis=j)) for j in range(grid.dim)])
        forcing = np.stack([half(g) for g in cat.forcing(grid)])
        self.restoring = forcing * half(cat.capillary(params.kappa).values(grid))
        self.forcing = forcing if self.mask is None else forcing * self.mask
        # A packed array is (..., 1 + d, *half): the transform axes and the
        # component axis count from the end, so leading axes batch.
        d = grid.dim
        self.axes = tuple(range(-d, 0))
        self.comp = -d - 1
        self.parts = [_part(d, k) for k in range(1 + d)]
        self.eta, self.vel = _part(d, slice(0, 1)), _part(d, slice(1, None))
        self._props = OrderedDict()

    def nonlinear(self, u):
        """Quadratic forcing of the evolution (the Duhamel integrand):
        -K^2 div(eta v) and -K^2 grad(|v|^2/2), dealiased by the masked G_j,
        from the coefficients of ``_products``."""
        c = self._products(u)
        out = np.empty_like(u)
        np.multiply(self.forcing, c[self.eta], out=out[self.vel])
        c_vel = c[self.vel]
        c_vel *= self.forcing
        np.sum(c_vel, axis=self.comp, keepdims=True, out=out[self.eta])
        return out

    def _products(self, u):
        """The coefficients of (|v|^2/2, eta v_1, .., eta v_d): one inverse
        transform of the masked state, then one forward transform of the
        products in its place.  On a Picard sweep's stack of nodes every
        temporary is as large as the stack, so ``sq`` goes before the forward
        transform and the rest before ``nonlinear`` allocates its output."""
        grid, axes = self.grid, self.axes
        phys = np.fft.irfftn(u if self.mask is None else u * self.mask, s=grid.n, axes=axes)
        phys /= grid._norm_factor
        eta, vel = phys[self.eta], phys[self.vel]
        sq = np.sum(vel * vel, axis=self.comp, keepdims=True)
        vel *= eta
        np.multiply(sq, 0.5, out=eta)
        del sq
        c = np.fft.rfftn(phys, axes=axes)
        c *= grid._norm_factor
        return c

    def linear(self, u):
        div = np.sum(self.dx * u[self.vel], axis=self.comp, keepdims=True)
        out = np.concatenate([-div, self.restoring * u[self.eta]], axis=self.comp)
        if self.heat_rate is not None:
            out -= self.heat_rate * u
        return out

    def full(self, u):
        return self.linear(u) + self.nonlinear(u)

    def propagator(self, t):
        return _cached(self._props, t, lambda: _Propagator(self, t))


class _Propagator:
    """Exact solution operator of the linear(ized) system at a fixed time.

    With theta = t |xi| K_kappa and the unit wave vector e, eta and the
    potential amplitude e.v rotate into each other and velocity content off
    e (the mean and the Nyquist modes) passes through; the heat factor
    multiplies everything.  Per axis that is

        eta -> cos(theta) eta - i K_kappa^-1 sin(theta) sum_j e_j v_j
        v_j -> -i K_kappa sin(theta) e_j eta
               + sum_k (e_j e_k cos(theta) + delta_jk - e_j e_k) v_k

    so each output is one row of multipliers dotted with (eta, v_1, .., v_d).
    """

    def __init__(self, ops: _Ops, t: float):
        theta = t * ops.phase
        cos, sin = np.cos(theta), np.sin(theta)
        e = ops.unit
        self.rows = [(cos,) + tuple(-1j * (ops.Kk_inv * sin * ej) for ej in e)]
        self.rows += [
            (-1j * (ops.Kk * sin * ej),)
            + tuple(ej * ek * cos + (float(j == k) - ej * ek) for k, ek in enumerate(e))
            for j, ej in enumerate(e)
        ]
        self.heat = np.exp(-t * ops.heat_rate) if ops.heat_rate is not None else None
        self.parts = ops.parts

    def apply(self, u):
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


# The _Ops and _Propagator caches keep their _CACHE_SIZE most recently used
# entries; a step or a sweep holds the propagators it applies, so an eviction
# never costs a rebuild inside one.
_CACHE_SIZE = 8
_CACHE_LOCK = threading.Lock()
_OPS_CACHE: OrderedDict = OrderedDict()


def _cached(cache: OrderedDict, key, build):
    with _CACHE_LOCK:
        if key not in cache:
            cache[key] = build()
            if len(cache) > _CACHE_SIZE:
                cache.popitem(last=False)
        cache.move_to_end(key)
        return cache[key]


def _ops(grid: Grid, params: Params, dealias: bool) -> _Ops:
    return _cached(_OPS_CACHE, (grid, params, dealias), lambda: _Ops(grid, params, dealias))


# ---------------------------------------------------------------------------
# Public right-hand side


def rhs(state: WaveState, params: Params) -> WaveState:
    """Time derivative of the state under the system with these parameters."""
    ops = _ops(state.grid, params, True)
    return WaveState.from_packed(state.grid, ops.full(state.packed()), state.time)


# ---------------------------------------------------------------------------
# Time steppers


def _lawson_rk4_step(ops: _Ops, u, dt):
    full = ops.propagator(dt)
    half = ops.propagator(0.5 * dt)
    k1 = ops.nonlinear(u)
    k2 = ops.nonlinear(half.apply(u + 0.5 * dt * k1))
    k3 = ops.nonlinear(half.apply(u) + 0.5 * dt * k2)
    su_full = full.apply(u)
    k4 = ops.nonlinear(su_full + dt * half.apply(k3))
    return su_full + dt / 6.0 * (full.apply(k1) + 2.0 * half.apply(k2 + k3) + k4)


def _reference_rk4_step(ops: _Ops, u, dt):
    k1 = ops.full(u)
    k2 = ops.full(u + 0.5 * dt * k1)
    k3 = ops.full(u + 0.5 * dt * k2)
    k4 = ops.full(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + (2.0 * k3 + k4))


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """A run's reported nodes: the times, the energy reports, and in
    ``states`` what its ``keep`` made of each reported state (by default the
    state itself)."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    def append(self, time, kept, report):
        self.times.append(time)
        self.states.append(kept)
        self.reports.append(report)


@dataclass
class EvolveResult:
    trajectory: Trajectory
    blown_up: bool = False
    blowup_time: float | None = None

    @property
    def reports(self):
        return self.trajectory.reports

    @property
    def final(self) -> WaveState:
        return self.trajectory.states[-1]


def _resolve_steps(T, dt):
    n = max(1, math.ceil(T / dt - 1e-9))
    return n, T / n


def _stepped(step, ops: _Ops, u, dt, n_steps):
    """Yield ``u`` and the ``n_steps`` packed states ``step`` advances it to."""
    yield u
    for _ in range(n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            u = step(ops, u, dt)
        yield u


def evolve(
    u0,
    params: Params,
    cfg: IntegratorConfig,
    T: float,
    report_every: float | None = None,
    keep=None,
):
    """Integrate to time T, sampling energy reports every ``report_every``.

    ``u0`` is one WaveState, or a sequence of states on one grid that are
    integrated together as one (B, 1 + d, *half) stack and give one
    EvolveResult each, equal to their single runs.  dt is adjusted down so an
    integer number of steps lands exactly on T.  At each reported node a
    member's trajectory records the time, the EnergyReport and
    ``keep(state)`` (the state itself when ``keep`` is None).  A member whose
    node is not finite or whose coefficient sup passes 1e3 * blowup_ceiling,
    or whose report's weighted norm passes blowup_ceiling, stops there with
    its partial trajectory and the blow-up flag set; the others go on.
    """
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    report_every = T if report_every is None else report_every
    if report_every <= 0:
        raise ValueError(f"report_every must be positive, got {report_every}")
    n_steps, dt = _resolve_steps(T, cfg.dt)
    if report_every < dt * (1 - 1e-12):
        raise ValueError("report_every must be at least the time step")
    n_rep = math.ceil(T / report_every - 1e-9)
    report_steps = {round(i * report_every / dt) for i in range(n_rep)} | {n_steps}
    single = isinstance(u0, WaveState)
    members = [u0] if single else list(u0)
    results = [EvolveResult(Trajectory()) for _ in members]
    if not members:
        return results
    grid = members[0].grid
    if any(m.grid != grid for m in members):
        raise ValueError("the states of one evolve call must share their grid")
    # One state steps as (1 + d, *half), which small arrays step faster than a
    # one-row stack; the loop below views each of its nodes as that stack.
    if cfg.method == "picard_duhamel":
        # Each member's fixed point converges in its own number of sweeps.
        solved = [picard_solve(m, params, cfg, T).nodes for m in members]
        nodes = solved[0] if single else np.stack(solved, axis=1)
    else:
        step = _lawson_rk4_step if cfg.method == "exponential_rk4" else _reference_rk4_step
        u = members[0].packed() if single else np.stack([m.packed() for m in members])
        nodes = _stepped(step, _ops(grid, params, cfg.dealias), u, dt, n_steps)

    live = list(range(len(members)))
    row_axes = tuple(range(1, 2 + grid.dim))
    for k, u in enumerate(nodes):
        u = u[None] if single else u
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                sup = np.max(np.abs(u), axis=row_axes)
            bad = (~np.isfinite(sup) | (sup > 1e3 * cfg.blowup_ceiling)).tolist()
        else:
            bad = [False] * len(members)
        times = [m.time + k * dt for m in members]
        rows = [b for b in live if not bad[b]] if k in report_steps else []
        if rows:
            states = WaveState.from_packed(grid, u[rows], [times[b] for b in rows])
            for b, state, report in zip(rows, states, EnergyReport.measure(states, params)):
                kept = state if keep is None else keep(state)
                results[b].trajectory.append(times[b], kept, report)
                bad[b] = report.weighted_norm > cfg.blowup_ceiling
        for b in list(live):
            if bad[b]:
                results[b].blown_up, results[b].blowup_time = True, times[b]
                live.remove(b)
        if not live:
            break
    return results[0] if single else results


# ---------------------------------------------------------------------------
# Duhamel fixed point


_FIRST_PANEL = {2: (0.5, 0.5), 3: (5 / 12, 2 / 3, -1 / 12), 4: (3 / 8, 19 / 24, -5 / 24, 1 / 24)}


def _duhamel_integrals(ops: _Ops, forcing, dt):
    """Yield I_m = int_0^{m dt} S(m dt - t') N(t') dt' for each node m.

    The rule is composite Simpson for even m; for odd m >= 3, Simpson up to
    m - 3 plus one 3/8 panel; for m = 1, the polynomial through the first
    nodes (at most four; ``_FIRST_PANEL`` by their number) integrated over
    [0, dt].  By the semigroup law S(a)S(b) = S(a + b) a Simpson panel
    extends the even value two nodes back and a 3/8 panel the even value
    three nodes back, so a sweep applies O(N) propagators and keeps only the
    two latest even values."""
    s1, s2, s3 = (ops.propagator(k * dt) for k in (1, 2, 3))
    before = last = np.zeros_like(forcing[0])
    yield last
    for m in range(1, len(forcing)):
        if m == 1:
            acc = np.zeros_like(last)
            for j, wj in enumerate(_FIRST_PANEL[min(len(forcing), 4)]):
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


@dataclass
class PicardResult:
    """The converged nodes: ``nodes[m]`` is the packed state at ``times[m]``,
    stacked in one (N + 1, 1 + d, *half) array."""

    grid: Grid
    nodes: np.ndarray
    times: list
    iterations: int
    defects: list

    @property
    def final(self) -> WaveState:
        return WaveState.from_packed(self.grid, self.nodes[-1], self.times[-1])


def picard_solve(u0: WaveState, params: Params, cfg: IntegratorConfig, T: float) -> PicardResult:
    """Solve u = S(t)u0 + int_0^t S(t-t') N(u(t')) dt' by fixed-point iteration.

    The free trajectory S(m dt)u0 steps node to node by S(dt), and each sweep
    evaluates the forcing of all nodes in one call on their stack.  The Duhamel
    integral is discretized with a composite fourth-order rule on the
    uniform node set and evaluated by its panel recurrence, O(N) propagator
    applies per sweep; iteration stops when successive trajectories differ
    by less than picard_tol in the sup-in-time weighted pair norm.
    Non-convergence within picard_max_iter reports the observed contraction
    ratio (the horizon is too large for the data size)."""
    if not params.mu > 0:
        raise ValueError("the Duhamel solver is defined for the regularized system (mu > 0)")
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    n_steps, dt = _resolve_steps(T, cfg.dt)
    ops = _ops(u0.grid, params, cfg.dealias)
    grid = u0.grid
    s_dt = ops.propagator(dt)
    free = [u0.packed()]
    for _ in range(n_steps):
        free.append(s_dt.apply(free[-1]))
    free = u = np.stack(free)

    defects = []
    for iteration in range(1, cfg.picard_max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = ops.nonlinear(u)
            new_u = free.copy()
            for m, im in enumerate(_duhamel_integrals(ops, forcing, dt)):
                new_u[m] += im
            del forcing  # each stack is large: free it before the defect's temporaries
            sq = _weighted_sq_coeffs(grid, new_u - u, params.s, params.kappa)
            # np.max, unlike max, lets a NaN defect through to the check below.
            worst = float(np.max(np.sqrt(sq)))
        u = new_u
        defects.append(worst)
        if not math.isfinite(worst):
            raise PicardError(
                f"iteration diverged after {iteration} sweeps "
                "(no contraction; reduce T or the data size)",
                defects,
                math.inf,
            )
        if worst < cfg.picard_tol:
            times = [u0.time + m * dt for m in range(n_steps + 1)]
            return PicardResult(grid, u, times, iteration, defects)
    ratios = [b / a for a, b in zip(defects, defects[1:]) if a > 0]
    contraction = max(ratios) if ratios else math.inf
    raise PicardError(
        f"no contraction after {cfg.picard_max_iter} iterations "
        f"(last defect {defects[-1]:.3e}, contraction estimate {contraction:.3f}); "
        "reduce T or the data size",
        defects,
        contraction,
    )


# ---------------------------------------------------------------------------
# Energy derivative diagnostics


@dataclass(frozen=True)
class DerivativeCheck:
    chain_rule: float
    evolution: float
    ratio: float
    agree: bool
    tolerance: float


def energy_derivative_check(state: WaveState, params: Params, s=None) -> DerivativeCheck:
    """Compare dE/dt computed two ways.

    (a) chain rule: a centered five-point derivative of tau -> E(u + tau*f)
        with f = rhs(u); E is cubic in tau, so the stencil is exact up to
        roundoff.
    (b) evolution: the same stencil applied to E along short reference-RK4
        integrations to +-h, +-2h.

    Also reports dE/dt normalized by (1+kappa)(N^2 + N^4) with N the
    weighted pair norm, the shape of the a priori growth bound.
    """
    f = rhs(state, params)
    ops = _ops(state.grid, params, True)
    params = params if s is None else replace(params, s=float(s))
    norm_state = weighted_pair_norm(state, params.s, params.kappa)
    norm_rate = weighted_pair_norm(f, params.s, params.kappa)
    tol = 1e-5

    if norm_rate == 0.0:
        return DerivativeCheck(0.0, 0.0, 0.0, True, tol)

    tau = 0.01 * (1.0 + norm_state) / (1.0 + norm_rate)

    u = state.packed()
    h = 5e-4 / (1.0 + norm_state)

    def stencil(packed_at, h):
        em2, em1, ep1, ep2 = (
            modified_energy(WaveState.from_packed(state.grid, packed_at(sig), state.time), params)
            for sig in (-2, -1, 1, 2)
        )
        return (em2 - 8.0 * em1 + 8.0 * ep1 - ep2) / (12.0 * h)

    chain = stencil(lambda sig: u + sig * tau * f.packed(), tau)
    evol = stencil(lambda sig: _reference_rk4_step(ops, u, sig * h), h)

    denom = (1.0 + params.kappa) * (norm_state**2 + norm_state**4)
    ratio = chain / denom if denom > 0 else 0.0
    agree = abs(chain - evol) <= tol * max(abs(chain), abs(evol)) + 1e-10 * (
        1.0 + norm_state**2
    )
    return DerivativeCheck(chain, evol, ratio, agree, tol)
