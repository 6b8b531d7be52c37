"""Conserved and monitored functionals: energy, momentum, the energy report.

The Hamiltonian

    H(eta, v) = 1/2 int( eta^2 + kappa |grad eta|^2 + v (D/tanh D) v
                         + eta v^2 ) dx

(in 2D the third term is |K^-1 v|^2) is conserved by the unregularized flow
and dissipated by the viscous one.  The energy with cubic correction

    E_s(eta, v) = 1/2 ||eta, v||_w^2 + 1/2 int eta (J^{s-1/2} v)^2 dx

uses the weighted pair norm and reduces to the Hamiltonian at s = 1/2, which
is how the Hamiltonian is computed.  Every functional reads the state's
half spectrum (``WaveState.packed``): quadratic terms are coefficient sums
(exact by Parseval), and a cubic term is one inverse transform of its
dealiased factors plus plain grid quadrature.

``EnergyReport.measure`` reports on one state or on a list of them in one
pass over their (B, 1 + d, *half) stack: each quadratic term (H, E_s, the
weighted norm, the momentum) is one half-spectrum sum over the stack, the
cubic terms of H and E_s share one inverse transform of
(eta, v, J^(s-1/2) v), and eta_min, eta_max and linf_v read the samples the
states were built with (``WaveState.from_packed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import Grid, SpectralError, SymbolCatalog
# weighted_pair_norm is unused here but stays bound: bench/tracer.py wraps it in this module.
from .state import Params, WaveState, weighted_pair_norm  # noqa: F401
from .state import _norm_weights, _part, _sobolev_sq, _weighted_sq_coeffs

#: Default small-data level for invariant-region experiments.  The proofs
#: only assert existence of such a level; this value is calibrated so the
#: reference runs pass with at least a 2x margin.
DEFAULT_SMALLNESS = 0.05

CSV_COLUMNS = (
    "time",
    "hamiltonian",
    "momentum",
    "modified_energy",
    "weighted_norm",
    "eta_min",
    "eta_max",
    "linf_v",
)


@lru_cache(maxsize=16)
def _cubic_weights(grid: Grid, order):
    """Read-only float 2/3 mask and masked <xi>^order on the half spectrum."""
    mask = grid.half(grid.dealias_mask).astype(np.float64)
    weights = mask * grid.half(SymbolCatalog.bessel(order).values(grid))
    mask.flags.writeable = weights.flags.writeable = False
    return mask, weights


def _cubic(grid: Grid, eta_c, w, *orders):
    """int eta |J^order w|^2 dx for each order, from the half spectra eta_c
    (..., *half) and w (..., d, *half): an array (..., len(orders)).

    One inverse transform of the 2/3-masked factors (eta, J^order w, ..),
    then grid quadrature: exact for fields supported in the band, since no
    triple-product alias reaches the zero mode.  J^0 multiplies by exactly 1."""
    d = grid.dim
    parts = [(_cubic_weights(grid, 0.0)[0] * eta_c)[_part(d, None)]]
    parts += [_cubic_weights(grid, float(order))[1] * w for order in orders]
    axes = tuple(range(-d, 0))
    phys = np.fft.irfftn(np.concatenate(parts, axis=-d - 1), s=grid.n, axes=axes)
    phys /= grid._norm_factor
    jw = phys[_part(d, slice(1, None))].reshape(*phys.shape[:-d - 1], len(orders), d, *grid.n)
    terms = phys[_part(d, slice(0, 1))] * (jw**2).sum(axis=-d - 1)
    return grid.cell * terms.sum(axis=axes)


def _energy(state: WaveState, s, kappa) -> float:
    u = state.packed()
    wsq = _weighted_sq_coeffs(state.grid, u, s, kappa)
    return 0.5 * (wsq + float(_cubic(state.grid, u[0], u[1:], s - 0.5)[0]))


def hamiltonian(state: WaveState, params: Params) -> float:
    """The energy at s = 1/2: half the squared weighted norm (by Parseval)
    plus the cubic term 1/2 int eta |v|^2."""
    return _energy(state, 0.5, params.kappa)


def momentum(state: WaveState, params: Params) -> float:
    """int eta (D/tanh D) v dx, the s = 1/2 velocity weight of the pair norm
    between eta and v; defined in one dimension only."""
    if state.dim != 1:
        raise SpectralError("momentum is only defined for 1D states")
    return float(_momentum(state.grid, state.packed(), params.kappa))


def _momentum(grid: Grid, u, kappa):
    """``momentum`` of a packed 1D (..., 2, half) array, one per leading index."""
    vel_w = _norm_weights(grid, 0.5, kappa)[1]
    return (vel_w * (u[..., 0, :].conj() * u[..., 1, :]).real).sum(axis=-1)


def modified_energy(state: WaveState, params: Params) -> float:
    return _energy(state, params.s, params.kappa)


def difference_energy(state1: WaveState, state2: WaveState, r, params: Params) -> float:
    """Energy of the difference (theta, w) = state1 - state2 at regularity r.

    kappa/2 ||theta||^2_{H^{r+1/2}} + 1/2 ||w||^2_{H^r}
    + 1/2 int eta_1 (J^{r-1/2} w)^2, with the elevation of the first state
    weighting the cubic term.
    """
    r = float(r)
    if not (0 < r <= params.s - 0.5):
        raise ValueError(f"difference energy needs 0 < r <= s - 1/2, got r={r}")
    if state1.grid != state2.grid:
        raise SpectralError("difference energy needs states on the same grid")
    grid = state1.grid
    u1 = state1.packed()
    d = u1 - state2.packed()
    total = params.kappa * _sobolev_sq(grid, d[0], r + 0.5) + _sobolev_sq(grid, d[1:], r)
    return 0.5 * (total + float(_cubic(grid, u1[0], d[1:], r - 0.5)[0]))


def smallness_threshold(override=None) -> float:
    """The small-data level used by invariant-region experiments.

    The underlying level exists but is not constructive, so it is a
    configuration value; pass ``override`` to replace the calibrated
    default."""
    if override is None:
        return DEFAULT_SMALLNESS
    eps = float(override)
    if eps <= 0:
        raise ValueError(f"smallness threshold must be positive, got {override}")
    return eps


@dataclass(frozen=True)
class EnergyReport:
    """All monitored quantities at one time, serializable as one CSV row."""

    time: float
    hamiltonian: float
    momentum: float
    modified_energy: float
    weighted_norm: float
    eta_min: float
    eta_max: float
    linf_v: float

    @classmethod
    def measure(cls, states, params: Params):
        """The report of one state, or the list of reports of a sequence of
        states on one grid, measured as one stack: each quadratic term is one
        half-spectrum sum over it, both cubic terms one inverse transform,
        and the pointwise columns read the states' samples."""
        single = isinstance(states, WaveState)
        states = [states] if single else list(states)
        if not states:
            return []
        grid = states[0].grid
        if any(st.grid != grid for st in states):
            raise SpectralError("the states of one report must share their grid")
        d, s, kappa = grid.dim, params.s, params.kappa
        axes = tuple(range(-d, 0))
        u = np.array([st.packed() for st in states])
        x = np.array([[f.values for f in (st.eta, *st.vel)] for st in states])
        wsq = _weighted_sq_coeffs(grid, u, 0.5, kappa)
        cubic = _cubic(grid, u[:, 0], u[:, 1:], *((0.0,) if s == 0.5 else (0.0, s - 0.5)))
        ham = 0.5 * (wsq + cubic[:, 0])
        if s == 0.5:  # the energy is the Hamiltonian
            energy, norm_sq = ham, wsq
        else:
            norm_sq = _weighted_sq_coeffs(grid, u, s, kappa)
            energy = 0.5 * (norm_sq + cubic[:, 1])
        if d == 1:
            mom = _momentum(grid, u, kappa)
            speed = np.abs(x[:, 1]).max(axis=-1)
        else:
            mom = np.full(len(states), math.nan)
            speed = np.sqrt((x[:, 1] ** 2 + x[:, 2] ** 2).max(axis=axes))
        eta = x[:, 0]
        columns = (
            ham, mom, energy, np.sqrt(norm_sq), eta.min(axis=axes), eta.max(axis=axes), speed,
        )
        reports = [
            cls(st.time, *row) for st, row in zip(states, zip(*(c.tolist() for c in columns)))
        ]
        return reports[0] if single else reports

    def csv_row(self) -> str:
        vals = [getattr(self, name) for name in CSV_COLUMNS]
        return ",".join(format(v, ".17g") for v in vals)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)
