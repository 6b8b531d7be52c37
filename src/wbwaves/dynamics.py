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
per-axis multipliers on the half spectrum, and acts on the packed state
array of ``WaveState.packed``.

The linear part diagonalizes exactly: with the unit wave vector
e = xi/|xi| (sgn xi in 1D), in the variables eta +- K_kappa^-1 (e.v) it
reduces to phase rotation exp(-+ i t |xi| K_kappa) times the heat factor.
The resulting propagator (``_Ops.propagator``) backs both the exponential
(integrating-factor) RK4 stepper and the Duhamel fixed-point solver; the
linear part itself is ``_Ops.linear``.  The public entry points are
``evolve``, ``picard_solve``, ``rhs`` and ``energy_derivative_check``.

The exponential stepper is Lawson's RK4 written with one propagator,
S(dt/2), applied four times per step (S(dt) = S(dt/2)^2) in two calls, each
on a pair of states.  Its stages and the forcing's temporaries live in one
workspace (``_workspace``) that each integration allocates for itself and
never caches, so the cached operators stay read-only and concurrent
integrations share them; a step allocates only the new state.  The
quadratic forcing (``_Ops.nonlinear``) is cut by the 2/3 rule, as are the
cubic terms of H and E_s: one discrete system.  It transforms axis by axis
into its buffers, through views built once per workspace (new buffers when
it is given none, as on a Picard sweep's node stack); in 2D its leading-axis
passes see only the last-axis columns the mask keeps, and the mask, the
transform scaling and the 1/2 of |v|^2/2 are folded into precomputed
weights.  Its sums over the velocity components are in-place adds.

Trajectories stay packed: the two RK4 steppers and the converged Duhamel
nodes each give ``evolve`` a sequence of packed arrays, and its one sampling
loop runs both blow-up checks on them and builds ``WaveState``s only for
the nodes it reports on.  It steps under one ``np.errstate`` that ignores
overflow and reports under the caller's.

Batch axis: every operator, the propagator and both steppers act on
(..., 1 + d, *half) arrays, the component axis and the d transform axes
counted from the end, so independent runs on one grid step as one
(B, 1 + d, *half) stack, each row exactly as it would alone; members with
their own ``Params`` share the forcing and step on parameter tables and
propagator rows with a member axis (a mu = 0 member's heat factor is 1).
``evolve`` given a sequence of states integrates them so; its sampling loop
checks each row, reports on the live members with one ``from_packed`` and
one ``EnergyReport.measure`` call per report step and distinct (kappa, s),
and freezes a blown member at its own time.  A Picard sweep evaluates the
forcing of all its nodes, a (N + 1, 1 + d, *half) stack, in one call, and
applies its propagators to blocks of nodes; only the Simpson recurrence of
the even nodes runs node by node, one S(2dt) apply each.

Lattice conventions: e and the phase vanish on the zero mode and the
Nyquist modes/planes, matching the odd-symbol convention of the spatial
operators, so velocity content there (and off e) is propagated by the heat
factor alone.
"""

from __future__ import annotations

import math
import sys
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

    ``defects`` holds the defect of every sweep; their contraction estimate,
    reported in the message, is infinite when the iteration diverged.
    ``member`` is the index of the failing state in its ``evolve`` call
    (None from ``picard_solve`` itself)."""

    def __init__(self, message, defects):
        super().__init__(message)
        self.defects = list(defects)
        self.member = None


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "exponential_rk4"
    dt: float = 1e-3
    picard_tol: float = 1e-8
    picard_max_iter: int = 30
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
        if not (self.blowup_ceiling > 0):
            raise ValueError(f"blowup_ceiling must be positive, got {self.blowup_ceiling}")


# ---------------------------------------------------------------------------
# Precomputed multiplier arrays for one (grid, params) combination


class _Ops:
    """The system's multipliers on the half spectrum of one grid, stacked
    over the axes j: the derivative d_j, the unit wave vector e_j, the
    restoring G_j (1 + kappa|xi|^2) with G_j = -K^2 d_j, and the forcing's
    transform weights, the 2/3-masked G_j among them.  A tuple of
    ``params``, one per row of a (B, 1 + d, *half) stack, gives the tables
    that depend on them a leading member axis; the forcing's do not."""

    def __init__(self, grid: Grid, params):
        self.grid = grid
        cat = SymbolCatalog
        batched = isinstance(params, tuple)

        def table(f):
            return np.stack([f(p) for p in params]) if batched else f(params)

        # A mu = 0 member has rate 0, so its heat factor is exactly 1; with no
        # viscous member there is no heat factor.
        rate = table(lambda p: p.kappa * p.mu * cat.riesz(grid, p.p))
        self.heat_rate = (rate[:, None] if batched else rate) if rate.any() else None
        self.Kk = table(lambda p: cat.K_kappa(grid, p.kappa))
        self.Kk_inv = table(lambda p: cat.K_kappa_inv(grid, p.kappa))
        self.phase = table(lambda p: cat.frequency(grid, p.kappa))
        self.unit = np.stack(cat.unit_vectors(grid))
        self.dx = np.stack(cat.gradient(grid))
        forcing = np.stack(cat.forcing(grid))
        self.restoring = table(lambda p: forcing * cat.capillary(grid, p.kappa))
        # A packed array is (..., 1 + d, *half): the transform axes and the
        # component axis count from the end, so leading axes batch.
        d = grid.dim
        self.axes = tuple(range(-d, 0))
        self.comp = -d - 1
        self.parts = [_part(d, k) for k in range(1 + d)]
        self.eta, self.vel = _part(d, slice(0, 1)), _part(d, slice(1, None))
        # In 2D the forcing's leading-axis passes see only the last-axis
        # columns the 2/3 mask keeps (43 of 65 at 128^2); a 1D transform has
        # no such pass and runs full width.  The two weights fold in the mask
        # and the transform scaling, the inverse one for norm="forward".
        self.width = grid.dealias_band(-1) + 1 if d > 1 else grid.n[-1] // 2 + 1
        self.cut = self.width < grid.n[-1] // 2 + 1
        keep = grid.dealias_mask[..., : self.width]
        self.inv_weight = keep / math.sqrt(math.prod(grid.length))
        self.fwd_weight = forcing[..., : self.width] * (keep * grid._norm_factor)
        # The velocity rows transform |v|^2 and take the 1/2 of |v|^2/2 here:
        # a power of two scales exactly, so the result is bit for bit the same.
        self.vel_weight = 0.5 * self.fwd_weight
        self._props = OrderedDict()

    def nonlinear(self, u, out=None, work=None):
        """Quadratic forcing of the evolution (the Duhamel integrand):
        -K^2 div(eta v) and -K^2 grad(|v|^2/2), dealiased by the masked G_j,
        from the coefficients of ``_products``, written to ``out`` (a new
        array when None, or ``u`` itself: ``u`` is read before ``out`` is
        written); the columns the mask drops are zero.  ``work`` is the
        temporaries' ``buffers`` (new arrays when None)."""
        sq, first, *rest = self._products(u, work)
        if out is None:
            out = np.empty_like(u)
        if self.cut:
            out[..., self.width :] = 0
        kept = out[..., : self.width]
        np.multiply(self.vel_weight, sq, out=kept[self.vel])
        # The divergence sum_j G_j (eta v_j): one product, then in-place adds.
        # A reduction (the tests' reference) starts from +0, so where every
        # term is -0 (a masked mode) it reads +0 and this reads -0: equal.
        div = kept[self.eta]
        np.multiply(first, self.fwd_weight[0], out=div)
        for c, weight in zip(rest, self.fwd_weight[1:]):
            c *= weight
            div += c
        return out

    def buffers(self, spec, samples):
        """The forcing's temporaries in two contiguous complex arrays of the
        state's shape, as the views ``_products`` works on, built once:
        ``spec`` holds the inverse transform's input, then the products
        (real); ``samples`` holds the samples (real), then the forward
        spectrum, whose kept columns and their rows ``_products`` returns.
        Each real array comes with its eta row, its velocity rows as one
        view and as a list of one view per component."""
        d = self.grid.dim
        real = spec.shape[: self.comp] + (1 + d,) + self.grid.n
        kept = samples[..., : self.width]
        rows = [_part(d, slice(k, k + 1)) for k in range(1 + d)]

        def split(a):
            return a, a[self.eta], a[self.vel], [a[r] for r in rows[1:]]

        return ((spec, spec[..., : self.width]), split(_real(samples, real)),
                split(_real(spec, real)), (samples, kept, [kept[r] for r in rows]))

    def _products(self, u, work=None):
        """The kept coefficients of |v|^2, eta v_1, .., eta v_d, one row
        each: the weighted state's inverse transform, then the products'
        forward one, axis by axis, every temporary in ``work``, the
        ``buffers``.  With no ``work`` they are new arrays, the input
        columns freed on return, so a Picard sweep's stack of nodes peaks at
        about two stacks here."""
        lead = self.axes[:-1]
        if work is None:
            work = self.buffers(np.empty(u.shape, u.dtype), np.empty(u.shape, u.dtype))
        (spec, cols), (phys, eta, vel, v), (prod, sq, flux, flux_rows), (fwd, kept, rows) = work
        np.multiply(u[..., : self.width], self.inv_weight, out=cols)
        for axis in lead:
            np.fft.ifft(cols, axis=axis, norm="forward", out=cols)
        # The last axis transforms all of the contiguous spec, the dropped
        # columns zeroed: the numbers of the kept columns padded to n.
        if self.cut:
            spec[..., self.width :] = 0
        np.fft.irfft(spec, n=self.grid.n[-1], axis=-1, norm="forward", out=phys)
        # |v|^2 as one product and in-place adds over j, the squares past v_1
        # in the rows eta v_j fills next; then every eta v_j in one product.
        np.multiply(v[0], v[0], out=sq)
        for vj, tmp in zip(v[1:], flux_rows[1:]):
            np.multiply(vj, vj, out=tmp)
            sq += tmp
        np.multiply(vel, eta, out=flux)
        np.fft.rfft(prod, axis=-1, out=fwd)
        for axis in lead:
            np.fft.fft(kept, axis=axis, out=kept)
        return rows

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
        rows = [(cos,) + tuple(-1j * (ops.Kk_inv * sin * ej) for ej in e)]
        rows += [
            (-1j * (ops.Kk * sin * ej),)
            + tuple(ej * ek * cos + (float(j == k) - ej * ek) for k, ek in enumerate(e))
            for j, ej in enumerate(e)
        ]
        # Complex multipliers: a float one times a complex state is cast
        # through numpy's buffers on every call, to the same products.
        self.rows = [tuple(np.asarray(m, complex) for m in row) for row in rows]
        self.heat = (np.exp(-t * ops.heat_rate).astype(complex) if ops.heat_rate is not None
                     else None)
        self.parts = ops.parts

    def apply(self, u, out=None):
        """S(t)u, written to ``out`` (a new array when None), which must not
        overlap ``u``."""
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


def _ops(grid: Grid, params: Params) -> _Ops:
    return _cached(_OPS_CACHE, (grid, params), lambda: _Ops(grid, params))


# ---------------------------------------------------------------------------
# Public right-hand side


def rhs(state: WaveState, params: Params) -> WaveState:
    """Time derivative of the state under the system with these parameters."""
    ops = _ops(state.grid, params)
    return WaveState.from_packed(state.grid, ops.full(state.packed()), state.time)


# ---------------------------------------------------------------------------
# Time steppers


def _real(buf, shape):
    """A C-ordered float64 array of ``shape`` in the memory of ``buf``, a
    contiguous complex array."""
    return buf.reshape(-1).view(np.float64)[: math.prod(shape)].reshape(shape)


def _workspace(ops: _Ops, u):
    """One integration's scratch for ``_lawson_rk4_step`` on states shaped
    like ``u``: ``(stages, buffers)``, the four stages and the forcing's
    ``buffers``, all in one (6, *u.shape) array."""
    block = np.empty((6,) + u.shape, u.dtype)
    return block[:4], ops.buffers(block[4], block[5])


def _lawson_rk4_step(ops: _Ops, u, dt, work=None):
    """Lawson RK4 with the one propagator S = S(dt/2), applied twice, each
    time to a pair of states: S(dt) = S^2 turns the scheme's six applies of
    S(dt/2) and S(dt) into four of S, and the pairs [u, k1] -> [a, b] and
    [a + dt k3, c] -> [S(a + dt k3), S c] make them two calls, with

        k2 = N(a + dt/2 b),  k3 = N(a + dt/2 k2),  k4 = N(S(a + dt k3)),
        c = a + dt/6 b + dt/3 (k2 + k3),  S c + dt/6 k4.

    c needs no k4, so it joins the second pair.  The stages live in a
    ``_workspace`` (a new one when ``work`` is None), each pair one
    contiguous slice of it; every combination runs in place in the order
    above (k3 over its own input), and the forcing's temporaries live there
    too, so the step allocates no state-sized array but the new state it
    returns."""
    s = ops.propagator(0.5 * dt)
    stages, f = _workspace(ops, u) if work is None else work
    t, k, a, b = stages
    t[...] = u
    ops.nonlinear(u, out=k, work=f)  # k1
    s.apply(stages[:2], out=stages[2:])  # a, b
    np.multiply(0.5 * dt, b, out=t)
    t += a
    ops.nonlinear(t, out=k, work=f)  # k2
    np.multiply(0.5 * dt, k, out=t)
    t += a
    ops.nonlinear(t, out=t, work=f)  # k3
    k += t  # k2 + k3
    b *= dt / 6.0
    b += a
    k *= dt / 3.0
    b += k  # c
    t *= dt
    a += t  # a + dt k3
    s.apply(stages[2:], out=stages[:2])  # S(a + dt k3), S c
    ops.nonlinear(t, out=a, work=f)  # k4
    a *= dt / 6.0
    return np.add(k, a)


def _reference_rk4_step(ops: _Ops, u, dt, work=None):
    """Classical RK4 on the full right-hand side; ``work`` is accepted for
    the steppers' common call form and not used."""
    k1 = ops.full(u)
    k2 = ops.full(u + 0.5 * dt * k1)
    k3 = ops.full(u + 0.5 * dt * k2)
    k4 = ops.full(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + (2.0 * k3 + k4))


# ---------------------------------------------------------------------------
# Results


@dataclass
class EvolveResult:
    """A member's reported nodes, one entry each in ``times``, ``states`` and
    ``reports``: the time, what ``keep`` made of the state (by default the
    state itself) and the EnergyReport; whether and when it blew up; and for
    ``picard_duhamel`` the defect of each sweep of its converged solve (None
    for the RK4 methods)."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    blown_up: bool = False
    blowup_time: float | None = None
    defects: list | None = None

    @property
    def final(self) -> WaveState:
        return self.states[-1]


def _horizon(T, dt, report_every=None):
    """The one rule of an integration's plan: ``(n_steps, dt, reported)``.

    T and ``report_every`` (None for T) must be positive and finite.  dt is
    adjusted down so an integer number of steps lands exactly on T, and
    ``report_every`` must be at least that step.  ``reported(k)`` is true
    for the step nearest each multiple of ``report_every`` before T, node 0
    among them, and the last step ``n_steps``, in O(1) time and memory."""
    report_every = T if report_every is None else report_every
    for name, value in (("T", T), ("report_every", report_every)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not math.isfinite(T / dt):
        raise ValueError(f"T / dt must be finite, got {T} / {dt}")
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    dt = T / n_steps
    if report_every < dt * (1 - 1e-12):
        raise ValueError("report_every must be at least the time step")
    n_rep = max(1, math.ceil(T / report_every - 1e-9))

    def reported(k):
        # Only the multiples i within one of k * dt / report_every can land on k.
        near = round(k * dt / report_every)
        return k == n_steps or any(round(i * report_every / dt) == k
                                   for i in range(max(near - 1, 0), min(near + 2, n_rep)))

    return n_steps, dt, reported


def _report_cadence(report_every, T, dt):
    """``report_every``, or when it is None the default cadence of a
    configured run or a study: T/20, but at least the step dt."""
    return max(T / 20.0, dt) if report_every is None else report_every


def _stepped(step, ops: _Ops, u, dt, n_steps):
    """Yield ``u`` and the ``n_steps`` packed states ``step`` advances it to,
    every step through one workspace of this integration (never cached, so
    concurrent integrations share only the read-only operators).  A step
    runs as its node is drawn, under the drawer's error state."""
    work = _workspace(ops, u)
    yield u
    for _ in range(n_steps):
        u = step(ops, u, dt, work)
        yield u


def evolve(
    u0,
    params,
    cfg: IntegratorConfig,
    T: float,
    report_every: float | None = None,
    keep=None,
):
    """Integrate to time T, sampling energy reports every ``report_every``.

    ``u0`` is one WaveState, or a sequence of states on one grid that are
    integrated together as one (B, 1 + d, *half) stack and give one
    EvolveResult each, equal to their single runs; ``params`` is one Params
    for all of them or a sequence of one per member.  The steps and the
    reported nodes follow ``_horizon``: T and ``report_every`` (None for T)
    positive and finite, dt adjusted down so an integer number of steps lands
    exactly on T, ``report_every`` at least that step, and the first and the
    last node always reported.  At each reported node a member's result
    appends the time, ``keep(state)`` (the state itself when ``keep`` is
    None) and the EnergyReport.  A member whose node is not finite or whose coefficient sup
    passes 1e3 * blowup_ceiling, or whose report's weighted norm passes
    blowup_ceiling, stops there with the nodes reported so far and the
    blow-up flag set; the others go on.  A member whose Duhamel solve does
    not contract raises its PicardError with the member's index as ``member``.
    """
    n_steps, dt, reported = _horizon(T, cfg.dt, report_every)
    single = isinstance(u0, WaveState)
    members = [u0] if single else list(u0)
    per = [params] * len(members) if isinstance(params, Params) else list(params)
    if len(per) != len(members):
        raise ValueError(f"{len(members)} states need one Params or as many, got {len(per)}")
    results = [EvolveResult() for _ in members]
    if not members:
        return results
    grid = members[0].grid
    if any(m.grid != grid for m in members):
        raise ValueError("the states of one evolve call must share their grid")
    # One state steps as (1 + d, *half), which small arrays step faster than a
    # one-row stack; the loop below views each of its nodes as that stack.
    if cfg.method == "picard_duhamel":
        # Each member's fixed point converges in its own number of sweeps.
        solved = []
        for b, m in enumerate(members):
            try:
                solved.append(picard_solve(m, per[b], cfg, T))
            except PicardError as exc:
                exc.member = b
                raise
        for result, solve in zip(results, solved):
            result.defects = solve.defects
        nodes = solved[0].nodes if single else np.stack([r.nodes for r in solved], axis=1)
    else:
        step = _lawson_rk4_step if cfg.method == "exponential_rk4" else _reference_rk4_step
        u = members[0].packed() if single else np.stack([m.packed() for m in members])
        # Members that share one Params step on its unbatched tables.
        key = per[0] if len(set(per)) == 1 else tuple(per)
        nodes = _stepped(step, _ops(grid, key), u, dt, n_steps)

    live = list(range(len(members)))
    pairs = [(p.kappa, p.s) for p in per]
    # NaN fails the one comparison too, so it catches NaN, inf and a sup
    # past 1e3 * blowup_ceiling.
    limit = min(1e3 * cfg.blowup_ceiling, sys.float_info.max)
    caller = np.geterr()
    # The steps run here, as the loop draws its nodes; the reports keep the
    # caller's error state.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(nodes):
            u = u[None] if single else u
            if k:
                # Between reports one sup over the whole node clears every
                # member at once; the per-member list is made only when a
                # report is due or that sup fails.
                due = reported(k)
                if not due and np.maximum.reduce(np.abs(u).reshape(-1)) <= limit:
                    continue
                sup = np.maximum.reduce(np.abs(u).reshape(len(u), -1), axis=1)
                bad = (~(sup <= limit)).tolist()
            else:
                bad, due = [False] * len(members), True
            times = [m.time + k * dt for m in members]
            rows = [b for b in live if not bad[b]] if due else []
            with np.errstate(**caller):
                # A report reads kappa and s alone: one measure call per such pair.
                for pair in dict.fromkeys(pairs[b] for b in rows):
                    group = [b for b in rows if pairs[b] == pair]
                    states = WaveState.from_packed(grid, u[group], [times[b] for b in group])
                    measured = EnergyReport.measure(states, per[group[0]])
                    for b, state, report in zip(group, states, measured):
                        res = results[b]
                        res.times.append(times[b])
                        res.states.append(state if keep is None else keep(state))
                        res.reports.append(report)
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


def _duhamel_integrals(ops: _Ops, forcing, dt, out):
    """Add I_m = int_0^{m dt} S(m dt - t') N(t') dt' to ``out[m]`` for each
    node m of the (N + 1, 1 + d, *half) ``forcing`` stack, N >= 1.

    The rule is composite Simpson for even m; for odd m >= 3, Simpson up to
    m - 3 plus one 3/8 panel; for m = 1, the polynomial through the first
    nodes (at most four; ``_FIRST_PANEL`` by their number) integrated over
    [0, dt].  By the semigroup law S(a)S(b) = S(a + b) the even values obey

        I_m = S(2dt)(I_{m-2} + dt/3 N_{m-2}) + 4dt/3 S(dt)N_{m-1} + dt/3 N_m

    and an odd value is one 3/8 panel on the even value three nodes back:

        I_m = S(3dt)(I_{m-3} + 3dt/8 N_{m-3})
              + 9dt/8 (S(2dt)N_{m-2} + S(dt)N_{m-1}) + 3dt/8 N_m.

    Only the S(2dt) apply of the even recurrence runs node by node, once per
    even node.  Everything else runs per block of nodes, about an eighth of
    them, which keeps the temporaries a small part of a node stack: one
    batched apply gives the S(dt)N terms of a block's even nodes, and three
    give the whole 3/8 panels of its odd nodes once their even values exist.
    """
    n = len(forcing)
    s1, s2, s3 = (ops.propagator(k * dt) for k in (1, 2, 3))
    acc = np.zeros_like(forcing[0])
    for j, wj in enumerate(_FIRST_PANEL[min(n, 4)]):
        acc += dt * wj * ops.propagator((1 - j) * dt).apply(forcing[j])
    out[1] += acc
    block = 2 * math.ceil(n / 16)
    # evens[k] is I at node lo - 2 + 2k: slot 0 carries the last even value of
    # the block before, and in the first block I_0 = 0 stays in slot 1.
    evens = np.zeros((block // 2 + 1,) + forcing.shape[1:], forcing.dtype)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        evens[0] = evens[-1]
        first = max(lo, 2)
        if first < hi:
            third = dt / 3.0 * forcing[first - 2 : hi : 2]
            mid = 4.0 * dt / 3.0 * s1.apply(forcing[first - 1 : hi - 1 : 2])
            for j, m in enumerate(range(first, hi, 2)):
                k = (m - lo) // 2 + 1
                acc = evens[k]
                acc[...] = s2.apply(evens[k - 1] + third[j])
                acc += mid[j]
                acc += third[j + 1]
        out[lo:hi:2] += evens[1 : len(range(lo, hi, 2)) + 1]
        first = max(lo + 1, 3)
        if first < hi:
            k = (first - lo - 1) // 2  # the slot of I_{first - 3}
            acc = s3.apply(
                evens[k : k + len(range(first, hi, 2))]
                + 3.0 * dt / 8.0 * forcing[first - 3 : hi - 3 : 2]
            )
            acc += 9.0 * dt / 8.0 * (
                s2.apply(forcing[first - 2 : hi - 2 : 2]) + s1.apply(forcing[first - 1 : hi - 1 : 2])
            )
            acc += 3.0 * dt / 8.0 * forcing[first:hi:2]
            out[first:hi:2] += acc


def contraction_estimate(defects):
    """The largest ratio of successive sweep defects: infinite when the last
    defect is not finite (the iteration diverged) or no ratio exists."""
    if not math.isfinite(defects[-1]):
        return math.inf
    return max((b / a for a, b in zip(defects, defects[1:]) if a > 0), default=math.inf)


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

    The free trajectory S(m dt)u0 steps node to node by S(dt), each apply
    writing its node into the node stack, and each sweep evaluates the
    forcing of all nodes in one call on their stack.  The Duhamel
    integral is discretized with a composite fourth-order rule on the
    uniform node set and evaluated by its panel recurrence
    (``_duhamel_integrals``), which adds it to the free trajectory in place:
    one S(2dt) apply per even node runs sequentially, everything else as
    batched applies over blocks of about an eighth of the nodes.  Iteration
    stops when successive trajectories differ by less than picard_tol in the
    sup-in-time weighted pair norm.  Non-convergence within picard_max_iter
    reports the observed contraction ratio (the horizon is too large for the
    data size)."""
    if not params.mu > 0:
        raise ValueError("the Duhamel solver is defined for the regularized system (mu > 0)")
    n_steps, dt, _ = _horizon(T, cfg.dt)
    ops = _ops(u0.grid, params)
    grid = u0.grid
    s_dt = ops.propagator(dt)
    start = u0.packed()
    free = u = np.empty((n_steps + 1,) + start.shape, start.dtype)
    free[0] = start
    for m in range(1, n_steps + 1):
        s_dt.apply(free[m - 1], out=free[m])

    defects = []
    for iteration in range(1, cfg.picard_max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = ops.nonlinear(u)
            new_u = free.copy()
            _duhamel_integrals(ops, forcing, dt, new_u)
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
            )
        if worst < cfg.picard_tol:
            times = [u0.time + m * dt for m in range(n_steps + 1)]
            return PicardResult(grid, u, times, iteration, defects)
    contraction = contraction_estimate(defects)
    raise PicardError(
        f"no contraction after {cfg.picard_max_iter} iterations "
        f"(last defect {defects[-1]:.3e}, contraction estimate {contraction:.3f}); "
        "reduce T or the data size",
        defects,
    )


# ---------------------------------------------------------------------------
# Energy derivative diagnostics


@dataclass(frozen=True)
class DerivativeCheck:
    chain_rule: float
    evolution: float
    agree: bool


def energy_derivative_check(state: WaveState, params: Params, s=None) -> DerivativeCheck:
    """Compare dE/dt computed two ways.

    (a) chain rule: a centered five-point derivative of tau -> E(u + tau*f)
        with f = rhs(u); E is cubic in tau, so the stencil is exact up to
        roundoff.
    (b) evolution: the same stencil applied to E along short reference-RK4
        integrations to +-h, +-2h.
    """
    f = rhs(state, params)
    ops = _ops(state.grid, params)
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
            modified_energy(WaveState.from_packed(state.grid, packed_at(sig), state.time), params)
            for sig in (-2, -1, 1, 2)
        )
        return (em2 - 8.0 * em1 + 8.0 * ep1 - ep2) / (12.0 * h)

    chain = stencil(lambda sig: u + sig * tau * f.packed(), tau)
    evol = stencil(lambda sig: _reference_rk4_step(ops, u, sig * h), h)

    agree = abs(chain - evol) <= 1e-5 * max(abs(chain), abs(evol)) + 1e-10 * (
        1.0 + norm_state**2
    )
    return DerivativeCheck(chain, evol, agree)
