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
per-axis multipliers, and acts on the 2/3 band of the packed state array of
``WaveState.packed``.

The discrete system's state is the 2/3 band (``_band``), the modes |k| <=
``Grid.dealias_band`` per axis: the dealiased quadratic forcing reads and
writes only these, so the modes above would only rotate and damp.
``evolve`` and ``picard_solve`` project each state onto the band and step
it there; only the forcing's transforms pad it to n (the 3/2 rule of
Orszag, J. Atmos. Sci. 28, 1971).  A report expands the nodes it measures
(``_expand``), and ``above_band_share`` says what the projection drops.

The linear part diagonalizes exactly: with the unit wave vector
e = xi/|xi| (sgn xi in 1D), in the variables eta +- K_kappa^-1 (e.v) it
reduces to phase rotation exp(-+ i t |xi| K_kappa) times the heat factor.
The resulting propagator (``_Ops.propagator``) backs both the exponential
(integrating-factor) RK4 stepper and the Duhamel fixed-point solver; the
linear part itself is ``_Ops.linear``.  The public entry points are
``evolve``, ``picard_solve``, ``rhs`` and ``energy_derivative_check`` (dE_s/dt
at s = ``params.s``, by the chain rule and by evolution).

The exponential stepper is Lawson's RK4 written with one propagator,
S(dt/2), applied four times per step (S(dt) = S(dt/2)^2) in two calls, each
on a pair of states.  Its stages and the forcing's temporaries live in one
workspace (``_workspace``) that each integration allocates for itself and
never caches, so the cached operators stay read-only and concurrent
integrations share them; a step allocates only the new state.  The
quadratic forcing (``_Ops.nonlinear``) is cut by the 2/3 rule, as are the
cubic terms of H and E_s: one discrete system.  It scatters the band into
its zeroed half-lattice buffers (one prefix in 1D, two row blocks in 2D),
transforms axis by axis there, and gathers the band of the result the same
way, through views built once per workspace (new buffers when it is given
none, as on a Picard sweep's node stack); in 2D its leading-axis passes see
only the band's columns, and the transform scaling and the 1/2 of |v|^2/2
are folded into precomputed weights.  Its sums over the velocity components
are in-place adds.

Trajectories stay on the band: the two RK4 steppers and the converged
Duhamel nodes each give ``evolve`` a sequence of band arrays, and its one
sampling loop runs both blow-up checks on them and builds ``WaveState``s
only for the nodes it reports on, walking the reported steps in order.  It
steps under one ``np.errstate`` that ignores overflow and reports under the
caller's.

Batch axis: every operator, the propagator and both steppers act on
(..., 1 + d, *band) arrays, the component axis and the d transform axes
counted from the end, so independent runs on one grid step as one
(B, 1 + d, *band) stack, each row exactly as it would alone; members with
their own ``Params`` share the forcing and step on parameter tables and
propagator rows with a member axis (a mu = 0 member's heat factor is 1).
``evolve`` integrates its states so, one state as a one-member stack under
every method, and a single state's result is unwrapped; its sampling loop
checks each row, reports on the live members with one ``from_packed`` and
one ``EnergyReport.measure`` call per report step and distinct (kappa, s),
and freezes a blown member at its own time; Duhamel members solve one by
one and the loop stacks one node of each at a time.  A Picard sweep
evaluates the forcing of all its nodes, a (N + 1, 1 + d, *band) stack, in
one call, and builds the new trajectory, free flow included, by one panel
recurrence seeded with the initial state, in one pass: only the even
nodes' S(2dt) applies run node by node, the others each on a strided stack
of nodes.

Lattice conventions: e and the phase vanish on the zero mode and the
Nyquist modes/planes, matching the odd-symbol convention of the spatial
operators, so velocity content there (and off e) is propagated by the heat
factor alone; the band holds no Nyquist mode, so on it that is the mean.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .functionals import EnergyReport
from .spectral import Grid, SymbolCatalog
# weighted_pair_norm is unused here but stays bound: bench/tracer.py wraps it in this module.
from .state import Params, WaveState, weighted_pair_norm  # noqa: F401
from .state import _part, _weighted_sq_coeffs

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


def _positive_finite(**values):
    """Refuse each value that is not positive, or else not finite, by its name."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
        _positive_finite(dt=self.dt, picard_tol=self.picard_tol)
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if not (self.blowup_ceiling > 0):
            raise ValueError(f"blowup_ceiling must be positive, got {self.blowup_ceiling}")


# ---------------------------------------------------------------------------
# The 2/3 band: the state's layout


@lru_cache(maxsize=16)
def _band_blocks(grid: Grid):
    """The layout of the 2/3 band, the modes |k| <= ``Grid.dealias_band`` per
    axis, as (band index, half index) pairs, one per block: on the last axis
    the columns 0..K, and in 2D on the leading axis the rows 0..K and
    n-K..n-1, two blocks in that order (85 x 43 of 128 x 65 at 128^2); in 1D
    one prefix (86 of 129 at n = 256)."""
    cols = slice(0, grid.dealias_band(-1) + 1)
    if grid.dim == 1:
        return ((Ellipsis, slice(None)), (Ellipsis, cols)),
    n, k = grid.n[0], grid.dealias_band(0)
    return (((Ellipsis, slice(0, k + 1), slice(None)), (Ellipsis, slice(0, k + 1), cols)),
            ((Ellipsis, slice(k + 1, None), slice(None)), (Ellipsis, slice(n - k, None), cols)))


def _band(grid: Grid, a):
    """A new array of the band of ``a`` (..., *half): the projection onto it."""
    return np.concatenate([a[h] for _, h in _band_blocks(grid)], axis=-grid.dim)


def _expand(grid: Grid, b):
    """The half-lattice array (..., *half) of band coefficients ``b``, zero
    above the band."""
    out = np.zeros(b.shape[: -grid.dim] + grid.half_shape, b.dtype)
    for band, h in _band_blocks(grid):
        out[h] = b[band]
    return out


def above_band_share(state: WaveState, params: Params) -> float:
    """The share of the state's squared weighted norm (at ``params.s``) that
    lies above the 2/3 band, which ``evolve`` and ``picard_solve`` drop: 0
    for the zero state."""
    grid, u = state.grid, state.packed()
    total = _weighted_sq_coeffs(grid, u, params.s, params.kappa)
    above = _weighted_sq_coeffs(grid, np.where(grid.dealias_mask, 0, u), params.s, params.kappa)
    return above / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Precomputed multiplier arrays for one (grid, params) combination


class _Ops:
    """The system's multipliers on the 2/3 band of one grid (``_band``),
    stacked over the axes j: the derivative d_j, the unit wave vector e_j,
    the restoring G_j (1 + kappa|xi|^2) with G_j = -K^2 d_j, and the
    forcing's transform weights, G_j among them.  A tuple of ``params``, one
    per row of a (B, 1 + d, *band) stack, gives the tables that depend on
    them a leading member axis; the forcing's do not."""

    def __init__(self, grid: Grid, params):
        self.grid = grid
        cat = SymbolCatalog
        batched = isinstance(params, tuple)

        def table(f):
            return _band(grid, np.stack([f(p) for p in params]) if batched else f(params))

        # A mu = 0 member has rate 0, so its heat factor is exactly 1; with no
        # viscous member there is none (a unit one slows an apply by a quarter).
        rate = table(lambda p: p.kappa * p.mu * cat.riesz(grid, p.p))
        self.heat_rate = (rate[:, None] if batched else rate) if rate.any() else None
        self.Kk = table(lambda p: cat.K_kappa(grid, p.kappa))
        self.Kk_inv = table(lambda p: cat.K_kappa_inv(grid, p.kappa))
        self.phase = table(lambda p: cat.frequency(grid, p.kappa))
        self.unit = _band(grid, np.stack(cat.unit_vectors(grid)))
        self.dx = _band(grid, np.stack(cat.gradient(grid)))
        forcing = np.stack(cat.forcing(grid))
        self.restoring = table(lambda p: forcing * cat.capillary(grid, p.kappa))
        # A packed array is (..., 1 + d, *band): the transform axes and the
        # component axis count from the end, so leading axes batch.
        d = grid.dim
        self.axes = tuple(range(-d, 0))
        self.comp = -d - 1
        self.parts = [_part(d, k) for k in range(1 + d)]
        self.eta, self.vel = _part(d, slice(0, 1)), _part(d, slice(1, None))
        # On the band the 2/3 mask keeps every mode, so the weights fold in
        # only the transform scaling, the inverse one (for norm="forward") a
        # scalar, a complex 0-d array so that numpy converts nothing on each
        # call (the same products).  The velocity rows transform |v|^2 and
        # take the 1/2 of |v|^2/2 here: a power of two scales exactly, so the
        # result is bit for bit the same.
        self.blocks = _band_blocks(grid)
        self.inv_weight = np.array(1.0 / math.sqrt(math.prod(grid.length)), complex)
        self.fwd_weight = _band(grid, forcing) * grid._norm_factor
        vel_weight = 0.5 * self.fwd_weight
        self._block_weights = [(vel_weight[b], self.fwd_weight[b]) for b, _ in self.blocks]
        self._props = OrderedDict()

    def nonlinear(self, u, out=None, work=None):
        """Quadratic forcing of the evolution (the Duhamel integrand):
        -K^2 div(eta v) and -K^2 grad(|v|^2/2) of a band state, dealiased by
        the 2/3 rule, from the coefficients of ``_products``, written to
        ``out`` (a new array when None, or ``u`` itself: ``u`` is read before
        ``out`` is written).  ``work`` is the temporaries' ``buffers`` (new
        arrays when None)."""
        gathered = self._products(u, work)
        if out is None:
            out = np.empty_like(u)
        for (band, _), (vel_weight, fwd_weight), (sq, first, *rest) in zip(
                self.blocks, self._block_weights, gathered):
            kept = out[band]
            np.multiply(vel_weight, sq, out=kept[self.vel])
            # The divergence sum_j G_j (eta v_j): one product, then in-place
            # adds.
            div = kept[self.eta]
            np.multiply(first, fwd_weight[0], out=div)
            for c, weight in zip(rest, fwd_weight[1:]):
                c *= weight
                div += c
        return out

    def buffers(self, spec, samples):
        """The forcing's temporaries in two contiguous complex arrays of the
        half-lattice shape of its input, as the views ``_products`` works on,
        built once: ``spec`` holds the inverse transform's input (the band's
        blocks, zeros elsewhere), then the products (real); ``samples`` holds
        the samples (real), then the forward spectrum, whose band blocks
        ``_products`` returns.  Each real array comes with its eta row, its
        velocity rows as one view and as a list of one view per component."""
        grid, d = self.grid, self.grid.dim
        real = spec.shape[: self.comp] + (1 + d,) + grid.n
        width = grid.dealias_band(-1) + 1
        cols, kept = spec[..., :width], samples[..., :width]
        # The columns the band drops and, in 2D, the rows between its blocks
        # that the leading-axis pass sees.
        zeros = [spec[..., width:]]
        if d > 1:
            k = grid.dealias_band(0)
            zeros.append(cols[..., k + 1 : grid.n[0] - k, :])
        rows = [_part(d, slice(k, k + 1)) for k in range(1 + d)]

        def split(a):
            return a, a[self.eta], a[self.vel], [a[r] for r in rows[1:]]

        return ((spec, cols, zeros, [spec[h] for _, h in self.blocks]),
                split(_real(samples, real)), split(_real(spec, real)),
                (samples, kept, [[samples[h][r] for r in rows] for _, h in self.blocks]))

    def _products(self, u, work=None):
        """The band blocks of the coefficients of |v|^2, eta v_1, .., eta v_d,
        one row each: the weighted state, scattered into the zeroed half
        lattice, inverse transformed, then the products' forward transform,
        axis by axis, every temporary in ``work``, the ``buffers``.  With no
        ``work`` they are new arrays, the input columns freed on return, so a
        Picard sweep's stack of nodes peaks at about two half-lattice stacks
        here."""
        lead = self.axes[:-1]
        if work is None:
            shape = u.shape[: self.comp + 1] + self.grid.half_shape
            work = self.buffers(np.empty(shape, u.dtype), np.empty(shape, u.dtype))
        (spec, cols, zeros, into), (phys, eta, vel, v), (prod, sq, flux, flux_rows), \
            (fwd, kept, gathered) = work
        for z in zeros:
            z.fill(0)
        for (band, _), block in zip(self.blocks, into):
            np.multiply(u[band], self.inv_weight, out=block)
        for axis in lead:
            np.fft.ifft(cols, axis=axis, norm="forward", out=cols)
        # The last axis transforms all of the contiguous spec: the numbers of
        # the band's columns padded to n.
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
        return gathered

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

    so each output is one row of multipliers dotted with (eta, v_1, .., v_d),
    built once from ``_Ops``'s tables on the band.
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
    """Time derivative of the state under the system with these parameters:
    the discrete system's, whose state is the 2/3 band.  So content of
    ``state`` above the band is dropped, and the derivative is zero there."""
    grid = state.grid
    u = _ops(grid, params).full(_band(grid, state.packed()))
    return WaveState.from_packed(grid, _expand(grid, u), state.time)


# ---------------------------------------------------------------------------
# Time steppers


def _real(buf, shape):
    """A C-ordered float64 array of ``shape`` in the memory of ``buf``, a
    contiguous complex array."""
    return buf.reshape(-1).view(np.float64)[: math.prod(shape)].reshape(shape)


def _workspace(ops: _Ops, u):
    """One integration's scratch for ``_lawson_rk4_step`` on band states
    shaped like ``u``: ``(stages, buffers)``, the four stages and the
    forcing's half-lattice ``buffers``, all in one array."""
    size = u.size
    half = u.shape[: ops.comp + 1] + ops.grid.half_shape
    block = np.empty(4 * size + 2 * math.prod(half), u.dtype)
    spec, samples = block[4 * size :].reshape((2,) + half)
    return block[: 4 * size].reshape((4,) + u.shape), ops.buffers(spec, samples)


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
        """The last kept entry of ``states``: a WaveState only when ``keep``
        is None."""
        return self.states[-1]


def _horizon(T, dt, report_every=None):
    """The one rule of an integration's plan: ``(n_steps, dt, reports)``.

    T and ``report_every`` (None for T) must be positive and finite.  dt is
    adjusted down so an integer number of steps lands exactly on T, and
    ``report_every`` must be at least that step.  ``reports`` walks the
    reported steps in increasing order, in O(1) memory: the step nearest
    each multiple of ``report_every`` before T, node 0 among them, and the
    last step ``n_steps``."""
    report_every = T if report_every is None else report_every
    _positive_finite(T=T, report_every=report_every)
    if not math.isfinite(T / dt):
        raise ValueError(f"T / dt must be finite, got {T} / {dt}")
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    dt = T / n_steps
    if report_every < dt * (1 - 1e-12):
        raise ValueError("report_every must be at least the time step")
    n_rep = max(1, math.ceil(T / report_every - 1e-9))

    def reports():
        # The nearest steps do not decrease with the multiple, and none
        # passes n_steps; a step that two multiples share is reported once.
        last = -1
        for i in range(n_rep):
            k = round(i * report_every / dt)
            if k > last:
                yield k
                last = k
        if last < n_steps:
            yield n_steps

    return n_steps, dt, reports()


def _report_cadence(report_every, T, dt):
    """``report_every``, or when it is None the default cadence of a
    configured run or a study: T/20, but at least the step dt."""
    return max(T / 20.0, dt) if report_every is None else report_every


def _stepped(step, ops: _Ops, u, dt, n_steps):
    """Yield ``u`` and the ``n_steps`` band states ``step`` advances it to,
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

    ``u0`` is a sequence of states on one grid that are projected onto the
    2/3 band (``_band``), which drops their content above it, and integrated
    together as one (B, 1 + d, *band) stack and give one EvolveResult each,
    equal to their single runs, or one WaveState, which steps as a one-member
    stack and gives its EvolveResult alone; ``params`` is one Params
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
    n_steps, dt, reports = _horizon(T, cfg.dt, report_every)
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
    # The nodes are (B, 1 + d, *band) stacks (``_band``), one state a
    # one-member stack: each member is projected onto the band, and a report
    # expands what it measures.
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
        # One node of each member at a time: no copy of all their nodes.
        nodes = map(np.stack, zip(*(r.band for r in solved)))
    else:
        step = _lawson_rk4_step if cfg.method == "exponential_rk4" else _reference_rk4_step
        u = np.stack([m.packed() for m in members])
        # Members that share one Params step on its unbatched tables.
        key = per[0] if len(set(per)) == 1 else tuple(per)
        nodes = _stepped(step, _ops(grid, key), _band(grid, u), dt, n_steps)

    live = list(range(len(members)))
    pairs = [(p.kappa, p.s) for p in per]
    # NaN fails the one comparison too, so it catches NaN, inf and a sup
    # past 1e3 * blowup_ceiling.
    limit = min(1e3 * cfg.blowup_ceiling, sys.float_info.max)
    caller = np.geterr()
    # The reported steps are walked in order: one comparison per node.
    next_report = next(reports)
    # The steps run here, as the loop draws its nodes; the reports keep the
    # caller's error state.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(nodes):
            due = k == next_report
            if due:
                next_report = next(reports, None)
            if k:
                # Between reports one sup over the whole node clears every
                # member at once, in two thirds the per-member sups' time; the
                # per-member list is made only when a report is due or it fails.
                if not due and np.maximum.reduce(np.abs(u).reshape(-1)) <= limit:
                    continue
                sup = np.maximum.reduce(np.abs(u).reshape(len(u), -1), axis=1)
                bad = (~(sup <= limit)).tolist()
            else:
                bad = [False] * len(members)
            times = [m.time + k * dt for m in members]
            rows = [b for b in live if not bad[b]] if due else []
            with np.errstate(**caller):
                # A report reads kappa and s alone: one measure call per such pair.
                for pair in dict.fromkeys(pairs[b] for b in rows):
                    group = [b for b in rows if pairs[b] == pair]
                    states = WaveState.from_packed(grid, _expand(grid, u[group]),
                                                   [times[b] for b in group])
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


def _duhamel_integrals(ops: _Ops, start, forcing, dt):
    """A new stack of u_m = S(m dt)start + I_m, I_m = int_0^{m dt} S(m dt - t')
    N(t') dt', for each node m of the (N + 1, 1 + d, *band) ``forcing``
    stack, N >= 1.

    The rule is composite Simpson for even m; for odd m >= 3, Simpson up to
    m - 3 plus one 3/8 panel; for m = 1, the polynomial through the first
    nodes (at most four; ``_FIRST_PANEL`` by their number) integrated over
    [0, dt].  By the semigroup law S(a)S(b) = S(a + b) the free flow obeys
    the integrals' recurrence, so from u_0 = start the even nodes are

        u_m = S(2dt)(u_{m-2} + dt/3 N_{m-2}) + 4dt/3 S(dt)N_{m-1} + dt/3 N_m

    and an odd node is one 3/8 panel on the even node three back:

        u_m = S(3dt)(u_{m-3} + 3dt/8 N_{m-3})
              + 9dt/8 (S(2dt)N_{m-2} + S(dt)N_{m-1}) + 3dt/8 N_m;

    node 1 adds S(dt)start to its first panel, whose S(0) term is the
    forcing itself.  Only the S(2dt) apply of the even recurrence runs node
    by node, writing its node in place.  One batched apply gives every even
    node's S(dt)N term, held in the odd nodes' slots (no temporary of half
    a stack) until node 1 and three batched applies, the whole 3/8 panels,
    write the odd nodes once the even nodes exist.
    """
    s1, s2, s3 = (ops.propagator(k * dt) for k in (1, 2, 3))
    out = np.empty_like(forcing)
    even, odd = out[0::2], out[1::2]
    f_even, f_odd = forcing[0::2], forcing[1::2]
    mid = s1.apply(f_odd[: len(even) - 1], out=odd[: len(even) - 1])
    mid *= 4.0 * dt / 3.0
    third = dt / 3.0 * f_even
    even[0] = start
    for i in range(1, len(even)):
        acc = s2.apply(even[i - 1] + third[i - 1], out=even[i])
        acc += mid[i - 1]
        acc += third[i]
    del third  # free it before the odd nodes' temporaries
    acc = s1.apply(start, out=odd[0])
    for j, wj in enumerate(_FIRST_PANEL[min(len(forcing), 4)]):
        acc += dt * wj * (forcing[j] if j == 1 else ops.propagator((1 - j) * dt).apply(forcing[j]))
    k = len(odd) - 1
    acc = s3.apply(even[:k] + 3.0 * dt / 8.0 * f_even[:k], out=odd[1:])
    t = s2.apply(f_odd[:k])
    t += s1.apply(f_even[1 : k + 1])
    t *= 9.0 * dt / 8.0
    acc += t
    acc += 3.0 * dt / 8.0 * f_odd[1:]
    return out


def contraction_estimate(defects):
    """The largest ratio of successive sweep defects: infinite when the last
    defect is not finite (the iteration diverged) or no ratio exists."""
    if not math.isfinite(defects[-1]):
        return math.inf
    return max((b / a for a, b in zip(defects, defects[1:]) if a > 0), default=math.inf)


@dataclass
class PicardResult:
    """The converged nodes: ``band[m]`` holds the band (``_band``) of the
    state at ``times[m]``, stacked in one (N + 1, 1 + d, *band) array."""

    grid: Grid
    band: np.ndarray
    times: list
    iterations: int
    defects: list

    @property
    def nodes(self) -> np.ndarray:
        """The packed states, a new (N + 1, 1 + d, *half) array: ``nodes[m]``
        is the packed state at ``times[m]``."""
        return _expand(self.grid, self.band)

    @property
    def final(self) -> WaveState:
        return WaveState.from_packed(self.grid, _expand(self.grid, self.band[-1]), self.times[-1])


def picard_solve(u0: WaveState, params: Params, cfg: IntegratorConfig, T: float) -> PicardResult:
    """Solve u = S(t)u0 + int_0^t S(t-t') N(u(t')) dt' by fixed-point iteration.

    The Duhamel integral is discretized with a composite fourth-order rule
    on the uniform node set, and a sweep (``_duhamel_integrals``) builds the
    new trajectory by its panel recurrence seeded with u0, free flow and
    integral together: one S(2dt) apply per even node runs sequentially,
    the rest as four batched applies, and a solve builds only S(k dt) for
    k = -2, -1, 1, 2, 3.  The first iterate is the sweep on a zero forcing,
    the free flow S(m dt)u0; each later one is the sweep on the forcing of
    all nodes of the last, evaluated in one call on their stack.  Iteration
    stops when successive trajectories differ by less than picard_tol in the
    sup-in-time weighted pair norm.  Non-convergence within picard_max_iter
    reports the observed contraction ratio (the horizon is too large for the
    data size).  The nodes are band arrays: u0 is projected onto the band,
    and each defect is measured on the expanded difference."""
    if not params.mu > 0:
        raise ValueError("the Duhamel solver is defined for the regularized system (mu > 0)")
    n_steps, dt, _ = _horizon(T, cfg.dt)
    ops = _ops(u0.grid, params)
    grid = u0.grid
    start = _band(grid, u0.packed())
    u = _duhamel_integrals(ops, start, np.zeros((n_steps + 1,) + start.shape, start.dtype), dt)

    defects = []
    for iteration in range(1, cfg.picard_max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = ops.nonlinear(u)
            new_u = _duhamel_integrals(ops, start, forcing, dt)
            del forcing  # each stack is large: free it before the defect's temporaries
            sq = _weighted_sq_coeffs(grid, _expand(grid, new_u - u), params.s, params.kappa)
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


def energy_derivative_check(state: WaveState, params: Params) -> DerivativeCheck:
    """Compare dE_s/dt, at s = params.s, computed two ways.

    (a) chain rule: a centered five-point derivative of tau -> E(u + tau*f)
        with f the band's time derivative, as ``rhs`` gives it; E is cubic in
        tau, so the stencil is exact up to roundoff.
    (b) evolution: the same stencil applied to E along short reference-RK4
        integrations to +-h, +-2h.

    Both are of the discrete system, whose state is the 2/3 band: ``state``
    is projected onto the band first, so a state with content above the band
    is checked as that projection.  The eight energies are measured as one stack.
    """
    grid = state.grid
    ops = _ops(grid, params)
    band = _band(grid, state.packed())
    u = _expand(grid, band)
    f = _expand(grid, ops.full(band))
    norm_state = math.sqrt(_weighted_sq_coeffs(grid, u, params.s, params.kappa))
    norm_rate = math.sqrt(_weighted_sq_coeffs(grid, f, params.s, params.kappa))

    if norm_rate == 0.0:
        return DerivativeCheck(0.0, 0.0, True)

    tau = 0.01 * (1.0 + norm_state) / (1.0 + norm_rate)
    h = 5e-4 / (1.0 + norm_state)
    sigs = (-2, -1, 1, 2)
    stack = np.array(
        [u + sig * tau * f for sig in sigs]
        + [_expand(grid, _reference_rk4_step(ops, band, sig * h)) for sig in sigs]
    )
    states = WaveState.from_packed(grid, stack, [state.time] * len(stack))
    reports = EnergyReport.measure(states, params)
    # Each of E(-2), E(-1), E(+1), E(+2) is a pair: (chain rule, evolution).
    em2, em1, ep1, ep2 = np.array([rep.modified_energy for rep in reports]).reshape(2, 4).T
    chain, evol = ((em2 - 8.0 * em1 + 8.0 * ep1 - ep2) / (12.0 * np.array([tau, h]))).tolist()

    agree = abs(chain - evol) <= 1e-5 * max(abs(chain), abs(evol)) + 1e-10 * (
        1.0 + norm_state**2
    )
    return DerivativeCheck(chain, evol, agree)
