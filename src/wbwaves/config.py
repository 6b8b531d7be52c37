"""Declarative run configuration (JSON) with strict validation.

Every key is checked; unknown keys are rejected with the offending name.
A run is fully determined by the config plus its seed, and every output
file starts with a comment header carrying the config hash so results can
be traced back to the exact configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import IntegratorConfig, _horizon, _report_cadence
from .presets import build_preset
from .spectral import Grid, SpectralError
from .state import Params, WaveState, _norm_weights
from .typed import ConfigError, bind, require, typed

ARTIFACT_VERSION = "wbwaves-0.1.0"

SYSTEMS = ("wb1d", "wb1d_regularized", "wb2d")

# The largest share of a norm that coefficient roundoff may take, estimated
# by the params.s rule in config_from_dict.  At 3e-3 the largest accepted s
# still measures a mode-1 state's norm within 1e-4, on periods from 0.1 to
# 100, kappa from 0 to 100 and 64 to 1024 points per axis.
ROUNDOFF_SHARE = 3e-3


def _table(table: dict, key, default=None) -> dict:
    value = table.pop(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a table (JSON object), got {value!r}")
    return dict(value)


def _no_leftovers(table: dict, where):
    if table:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(table))}")


def _section(table: dict, where, cls, required=()):
    """A ``cls`` built from ``table`` by ``bind``, with the class's range checks."""
    try:
        return cls(**bind(cls, table, where, required=required))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    system: str
    grid: Grid
    params: Params
    initial_data: dict
    integrator: IntegratorConfig
    T: float
    report_every: float
    output_dir: str
    seed: int
    snapshots: bool = False
    study: dict = field(default_factory=dict)

    def initial_state(self) -> WaveState:
        data = dict(self.initial_data)
        if "snapshot" in data:
            from .snapshot import read_snapshot

            path = data.pop("snapshot")
            _no_leftovers(data, "initial_data")
            state = read_snapshot(path)
            if state.grid != self.grid:
                raise ConfigError(
                    f"snapshot grid {state.grid} does not match config grid {self.grid}"
                )
            return state
        try:
            return build_preset(self.grid, data, seed=self.seed)
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"initial_data: {exc}") from exc

    def config_hash(self) -> str:
        """The hash of every field as plain JSON data."""
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def resolved_output_dir(self) -> str:
        return os.environ.get("WB_OUTPUT_DIR", self.output_dir)


def _axis_value(raw, name, kind):
    values = raw if isinstance(raw, (list, tuple)) else [raw]
    return tuple(typed(v, name, kind) for v in values)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a table (JSON object), got {raw!r}")
    raw = dict(raw)
    require(raw, ("system", "grid", "params", "initial_data", "T"), "config")
    system = raw.pop("system")
    if system not in SYSTEMS:
        raise ConfigError(f"system must be one of {SYSTEMS}, got {system!r}")
    dim = 2 if system == "wb2d" else 1

    grid_tab = _table(raw, "grid")
    require(grid_tab, ("n",), "grid")
    n = _axis_value(grid_tab.pop("n"), "grid.n", int)
    length = _axis_value(grid_tab.pop("length", 2.0 * math.pi), "grid.length", float)
    _no_leftovers(grid_tab, "grid")
    if len(n) == 1 and dim == 2:
        n = n * 2
    if len(length) == 1 and dim == 2:
        length = length * 2
    if len(n) != dim or len(length) != dim:
        raise ConfigError(f"grid for {system} needs {dim} axis value(s)")

    params = _section(_table(raw, "params"), "params", Params, ("kappa",))
    integrator = _section(_table(raw, "integrator", default={}), "integrator", IntegratorConfig)
    if system == "wb1d_regularized" and params.mu == 0.0:
        raise ConfigError("mu must be positive for wb1d_regularized")
    if system in ("wb1d", "wb2d") and params.mu != 0.0:
        raise ConfigError(f"mu must be 0 for {system}, got {params.mu}")
    if system in ("wb1d", "wb2d") and integrator.method == "picard_duhamel":
        raise ConfigError(f"picard_duhamel needs the regularized system (mu > 0), not {system}")

    data_tab = _table(raw, "initial_data")
    if "snapshot" not in data_tab and "preset" not in data_tab:
        raise ConfigError("initial_data needs either 'preset' or 'snapshot'")

    T = typed(raw.pop("T"), "T", float)
    report_every = raw.pop("report_every", _report_cadence(None, T, integrator.dt))
    report_every = typed(report_every, "report_every", float)
    output_dir = typed(raw.pop("output_dir", "out"), "output_dir", str)
    seed = typed(raw.pop("seed", 0), "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    snapshots = typed(raw.pop("snapshots", False), "snapshots", bool)
    study = _table(raw, "study", default={})
    _no_leftovers(raw, "config")
    try:
        _horizon(T, integrator.dt, report_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = Grid(n, length)
    # Every norm and energy of a run reads <xi>^(2s-1) times its other weights.
    # A coefficient carries roundoff of about eps times the largest one, so in
    # the norm of a state at the lowest mode that roundoff weighs about eps^2
    # times the ratio of the largest weight to the lowest mode's: past
    # ROUNDOFF_SHARE the norm reads roundoff (an overflowing weight is past it).
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ratio = max(float(w.max() / w[grid.xi_norm > 0].min())
                        for w in _norm_weights(grid, params.s, params.kappa))
        except SpectralError:
            ratio = math.inf
    if not ratio * np.finfo(float).eps ** 2 <= ROUNDOFF_SHARE:
        raise ConfigError(
            f"params.s = {params.s:g} is too large: its norm weight grows by a factor {ratio:.3g} from "
            f"the lowest mode to the top of the grid, past {ROUNDOFF_SHARE:g}/eps^2 = "
            f"{ROUNDOFF_SHARE / np.finfo(float).eps ** 2:.3g}, where roundoff shows in the norm"
        )

    return RunConfig(
        system=system,
        grid=grid,
        params=params,
        initial_data=data_tab,
        integrator=integrator,
        T=T,
        report_every=report_every,
        output_dir=output_dir,
        seed=seed,
        snapshots=snapshots,
        study=study,
    )


def output_header(config: RunConfig) -> str:
    return f"# {ARTIFACT_VERSION} config={config.config_hash()} seed={config.seed}"
