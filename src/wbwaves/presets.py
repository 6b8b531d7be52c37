"""Initial-data presets with exact formulas.

single_mode(a, k):
    1D: eta = a cos(2 pi k x / L),  v = a_v cos(2 pi k x / L)
    2D: eta = a cos(k~ . x),        v = a_v (k~/|k~|) cos(k~ . x)
    with k~ = (2 pi k_1/L_1, 2 pi k_2/L_2); a_v defaults to a; every |k_j|
    at most the grid's 2/3-rule band ``Grid.dealias_band(j)``.

gaussian_bump(a, w):
    G(x) = sum_{m=-3..3} exp(-(x - L/2 + m L)^2 / (2 w^2))  (periodized bump)
    1D: eta = a G(x), v = a G(x)
    2D: eta = a G(x_1) G(x_2), v = w * grad(eta)  (a gradient, so curl free)

random_bandlimited(seed, band, a):
    coefficients of the integer modes 0 < |k| <= band (max norm per axis in
    2D) drawn i.i.d. standard complex normal, Hermitian-symmetrized, field
    rescaled to max amplitude a; velocity from an independent draw, in 2D
    as the gradient of a random potential rescaled to max speed a.  The
    band is at most the 2/3-rule band of every axis.

A preset is its function, listed in ``PRESETS`` by name.  A config's
``initial_data`` table names it as ``preset``, and its other entries are
the function's parameters other than ``grid``, with the function's
defaults, bound by ``typed.bind`` like every config table; the one
exception is a 2D ``mode``, which may be a pair of integers.
``random_bandlimited``'s ``seed`` defaults to the config's seed, which
defaults to 0 as the function's does.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from .spectral import Grid, SymbolCatalog
from .state import WaveState
from .typed import bind, typed

def single_mode(grid: Grid, amplitude, mode=1, v_amplitude=None) -> WaveState:
    a = float(amplitude)
    av = a if v_amplitude is None else float(v_amplitude)
    ks = tuple(int(k) for k in ((mode, 0)[: grid.dim] if np.isscalar(mode) else mode))
    if len(ks) != grid.dim:
        raise ValueError(f"single_mode needs a {grid.dim}D mode, got {mode!r}")
    for j, k in enumerate(ks):
        if abs(k) > grid.dealias_band(j):
            raise ValueError(f"single_mode: mode {k} on axis {j} lies outside the "
                             f"2/3-rule band |k| <= {grid.dealias_band(j)}")
    xis = [2.0 * math.pi * k / L for k, L in zip(ks, grid.length)]
    if grid.dim == 1:
        wave = np.cos(xis[0] * grid.x[0])
        return WaveState(grid, np.stack([a * wave, av * wave]))
    norm = math.hypot(*xis)
    if norm == 0:
        raise ValueError("single_mode needs a nonzero 2D mode")
    wave = np.cos(xis[0] * grid.x[0] + xis[1] * grid.x[1])
    return WaveState(grid, np.stack([a * wave, *(av * xi / norm * wave for xi in xis)]))


def _periodized_bump(x, L, width):
    acc = np.zeros_like(x)
    for m in range(-3, 4):
        acc += np.exp(-((x - 0.5 * L + m * L) ** 2) / (2.0 * width**2))
    return acc


def _gradient(grid: Grid, c):
    """The (2, *half) half spectra of the gradient of a 2D half spectrum ``c``."""
    return np.stack([d * c for d in SymbolCatalog.gradient(grid)])


def gaussian_bump(grid: Grid, amplitude, width) -> WaveState:
    a = float(amplitude)
    w = float(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if grid.dim == 1:
        g = _periodized_bump(grid.x[0], grid.length[0], w)
        return WaveState(grid, np.stack([a * g, a * g]))
    g1 = _periodized_bump(grid.x[0], grid.length[0], w)
    g2 = _periodized_bump(grid.x[1], grid.length[1], w)
    eta = grid.forward_half(a * g1 * g2)
    return WaveState.from_packed(grid, np.concatenate([eta[None], w * _gradient(grid, eta)]), 0.0)


def _random_band_coeffs(grid: Grid, rng, band):
    # One draw per Hermitian pair, in lexicographic order of k with first nonzero k_j > 0;
    # the half spectrum holds a partner if its last k_j >= 0 (else it would wrap).
    c = np.zeros(grid.half_shape, dtype=np.complex128)
    for k in itertools.product(range(-band, band + 1), repeat=grid.dim):
        if next((kj for kj in k if kj), 0) > 0:
            z = complex(rng.standard_normal(), rng.standard_normal())
            for at, value in ((k, z), (tuple(-kj for kj in k), np.conj(z))):
                if at[-1] >= 0:
                    c[at] = value
    return c


def random_bandlimited(grid: Grid, seed=0, band=8, amplitude=0.1) -> WaveState:
    band = int(band)
    top = min(grid.dealias_band(j) for j in range(grid.dim))
    if not 1 <= band <= top:
        raise ValueError(f"band must lie in [1, {top}], the grid's 2/3-rule band, got {band}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(int(seed))
    eta, psi = (_random_band_coeffs(grid, rng, band) for _ in range(2))
    u = np.concatenate([eta[None], psi[None] if grid.dim == 1 else _gradient(grid, psi)])
    x = grid.inverse_half(u)
    peak = float(np.max(np.abs(x[0])))
    speed = math.sqrt(float(np.max(np.sum(x[1:] ** 2, axis=0))))
    u[0] *= float(amplitude) / peak if peak > 0 else 1.0
    u[1:] *= float(amplitude) / speed if speed > 0 else 1.0
    return WaveState.from_packed(grid, u, 0.0)


PRESETS = {f.__name__: f for f in (single_mode, gaussian_bump, random_bandlimited)}


def build_preset(grid: Grid, data: dict, seed=0) -> WaveState:
    """Build the state described by a config ``initial_data`` table (see
    the module docstring); a ``seed`` left out is the config's ``seed``."""
    data = dict(data)
    name = data.pop("preset")
    preset = PRESETS.get(name) if isinstance(name, str) else None
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")
    if "seed" in inspect.signature(preset).parameters:
        data.setdefault("seed", seed)
    mode = data.get("mode")
    pair = grid.dim == 2 and isinstance(mode, list) and len(mode) == 2
    # A pair is typed apart; its placeholder keeps it unknown to a preset without a mode.
    options = bind(preset, {**data, "mode": 0} if pair else data, "initial_data", skip=1)
    if pair:
        options["mode"] = tuple(typed(m, "initial_data.mode", int) for m in mode)
    return preset(grid, **options)
