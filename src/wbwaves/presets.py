"""Initial-data presets with exact formulas.

single_mode(a, k):
    1D: eta = a cos(2 pi k x / L),  v = a_v cos(2 pi k x / L)
    2D: eta = a cos(k~ . x),        v = a_v (k~/|k~|) cos(k~ . x)
    with k~ = (2 pi k_1/L_1, 2 pi k_2/L_2); a_v defaults to a.

gaussian_bump(a, w):
    G(x) = sum_{m=-3..3} exp(-(x - L/2 + m L)^2 / (2 w^2))  (periodized bump)
    1D: eta = a G(x), v = a G(x)
    2D: eta = a G(x_1) G(x_2), v = w * grad(eta)  (a gradient, so curl free)

random_bandlimited(seed, band, a):
    coefficients of the integer modes 0 < |k| <= band (max norm per axis in
    2D) drawn i.i.d. standard complex normal, Hermitian-symmetrized, field
    rescaled to max amplitude a; velocity from an independent draw, in 2D
    as the gradient of a random potential rescaled to max speed a.

A preset is its function, listed in ``PRESETS`` by name.  A config's
``initial_data`` table names it as ``preset``, and its other entries are
the function's parameters other than ``grid``, with the function's
defaults; ``random_bandlimited``'s ``seed`` defaults to the config's seed.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .spectral import Field, Grid, SymbolCatalog, apply_multiplier
from .state import WaveState
from .typed import typed

def single_mode(grid: Grid, amplitude, mode=1, v_amplitude=None) -> WaveState:
    a = float(amplitude)
    av = a if v_amplitude is None else float(v_amplitude)
    if grid.dim == 1:
        k = int(mode)
        xi = 2.0 * math.pi * k / grid.length[0]
        wave = np.cos(xi * grid.x[0])
        return WaveState(Field(grid, a * wave), (Field(grid, av * wave),))
    if np.isscalar(mode):
        mode = (int(mode), 0)
    k1, k2 = (int(m) for m in mode)
    xi1 = 2.0 * math.pi * k1 / grid.length[0]
    xi2 = 2.0 * math.pi * k2 / grid.length[1]
    norm = math.hypot(xi1, xi2)
    if norm == 0:
        raise ValueError("single_mode needs a nonzero 2D mode")
    phase = xi1 * grid.x[0] + xi2 * grid.x[1]
    wave = np.cos(phase)
    eta = Field(grid, a * wave)
    vel = (Field(grid, av * xi1 / norm * wave), Field(grid, av * xi2 / norm * wave))
    return WaveState(eta, vel)


def _periodized_bump(x, L, width):
    acc = np.zeros_like(x)
    for m in range(-3, 4):
        acc += np.exp(-((x - 0.5 * L + m * L) ** 2) / (2.0 * width**2))
    return acc


def gaussian_bump(grid: Grid, amplitude, width) -> WaveState:
    a = float(amplitude)
    w = float(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if grid.dim == 1:
        g = _periodized_bump(grid.x[0], grid.length[0], w)
        return WaveState(Field(grid, a * g), (Field(grid, a * g),))
    g1 = _periodized_bump(grid.x[0], grid.length[0], w)
    g2 = _periodized_bump(grid.x[1], grid.length[1], w)
    eta = Field(grid, a * g1 * g2)
    vel = tuple(
        w * apply_multiplier(SymbolCatalog.partial(j), eta, axis=j) for j in range(2)
    )
    return WaveState(eta, vel)


def _random_band_field(grid: Grid, rng, band) -> Field:
    c = np.zeros(grid.shape, dtype=np.complex128)
    if grid.dim == 1:
        for k in range(1, band + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[grid.coeff_index(k)] = z
            c[grid.coeff_index(-k)] = np.conj(z)
    else:
        # One representative per Hermitian pair: k1 > 0, or k1 = 0 and k2 > 0.
        for k1 in range(0, band + 1):
            for k2 in range(-band, band + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                z = complex(rng.standard_normal(), rng.standard_normal())
                c[grid.coeff_index((k1, k2))] = z
                c[grid.coeff_index((-k1, -k2))] = np.conj(z)
    return Field.from_coeffs(grid, c)


def random_bandlimited(grid: Grid, seed, band=8, amplitude=0.1) -> WaveState:
    band = int(band)
    if band < 1 or band > min(grid.n) // 3:
        raise ValueError(f"band must lie in [1, n//3], got {band}")
    rng = np.random.default_rng(int(seed))
    eta = _random_band_field(grid, rng, band)
    peak = eta.linf()
    eta = (float(amplitude) / peak) * eta if peak > 0 else eta
    if grid.dim == 1:
        v = _random_band_field(grid, rng, band)
        peak = v.linf()
        v = (float(amplitude) / peak) * v if peak > 0 else v
        return WaveState(eta, (v,))
    psi = _random_band_field(grid, rng, band)
    vel = [apply_multiplier(SymbolCatalog.partial(j), psi, axis=j) for j in range(2)]
    speed = math.sqrt(float(np.max(vel[0].values ** 2 + vel[1].values ** 2)))
    scale = float(amplitude) / speed if speed > 0 else 1.0
    vel = tuple(scale * comp for comp in vel)
    return WaveState(eta, vel)


PRESETS = {f.__name__: f for f in (single_mode, gaussian_bump, random_bandlimited)}

# The type of each preset option; a 2D ``mode`` may also be a pair of
# integers, and ``v_amplitude`` may be null.
_OPTION_KINDS = {
    "mode": int, "seed": int, "band": int, "amplitude": float, "width": float, "v_amplitude": float,
}


def _option(grid: Grid, key, value):
    where = f"initial_data.{key}"
    if key == "v_amplitude" and value is None:
        return None
    if key == "mode" and grid.dim == 2 and isinstance(value, list) and len(value) == 2:
        return tuple(typed(m, where, int) for m in value)
    return typed(value, where, _OPTION_KINDS[key])


def build_preset(grid: Grid, data: dict, seed=0) -> WaveState:
    """Build the state described by a config ``initial_data`` table: the
    preset's function called with the table's other entries, each option
    checked for its type.  A ``seed`` left out is the config's ``seed``."""
    data = dict(data)
    name = data.pop("preset")
    preset = PRESETS.get(name) if isinstance(name, str) else None
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")
    options = list(inspect.signature(preset).parameters.values())[1:]  # all but grid
    unknown = sorted(set(data) - {opt.name for opt in options})
    if unknown:
        raise ValueError(f"unknown preset option(s): {', '.join(unknown)}")
    if any(opt.name == "seed" for opt in options):
        data.setdefault("seed", seed)
    missing = [opt.name for opt in options if opt.default is opt.empty and opt.name not in data]
    if missing:
        raise ValueError(f"preset {name} needs option(s): {', '.join(missing)}")
    return preset(grid, **{k: _option(grid, k, v) for k, v in data.items()})
