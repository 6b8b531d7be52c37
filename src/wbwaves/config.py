"""Declarative run configuration (JSON) with strict validation.

Every key is checked; unknown keys are rejected with the offending name.
A run is fully determined by the config plus its seed, and every output
file starts with a comment header carrying the config hash so results can
be traced back to the exact configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .dynamics import INTEGRATOR_METHODS, IntegratorConfig
from .presets import build_preset
from .spectral import Grid
from .state import Params, WaveState

ARTIFACT_VERSION = "wbwaves-0.1.0"

SYSTEMS = ("wb1d", "wb1d_regularized", "wb2d")


class ConfigError(ValueError):
    pass


def _take(table: dict, key, default=None, required=False):
    if key in table:
        return table.pop(key)
    if required:
        raise ConfigError(f"missing required field {key!r}")
    return default


def _table(table: dict, key, default=None, required=False) -> dict:
    value = _take(table, key, default, required)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a table (JSON object), got {value!r}")
    return dict(value)


def _number(value, name, cast=float):
    """cast(value), or a ConfigError naming the field."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _flag(value, name):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _no_leftovers(table: dict, where):
    if table:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(table))}")


@dataclass
class RunConfig:
    system: str
    grid_n: tuple
    grid_length: tuple
    kappa: float
    mu: float
    p: float
    s: float
    initial_data: dict
    method: str
    dt: float
    picard_tol: float
    picard_max_iter: int
    dealias: bool
    blowup_ceiling: float
    T: float
    report_every: float
    output_dir: str
    seed: int
    snapshots: bool = False
    study: dict = field(default_factory=dict)

    @property
    def dim(self):
        return 2 if self.system == "wb2d" else 1

    def grid(self) -> Grid:
        return Grid(self.grid_n, self.grid_length)

    def params(self) -> Params:
        try:
            return Params(kappa=self.kappa, mu=self.mu, p=self.p, s=self.s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def integrator(self) -> IntegratorConfig:
        try:
            return IntegratorConfig(
                method=self.method,
                dt=self.dt,
                picard_tol=self.picard_tol,
                picard_max_iter=self.picard_max_iter,
                dealias=self.dealias,
                blowup_ceiling=self.blowup_ceiling,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_state(self, grid=None) -> WaveState:
        grid = grid or self.grid()
        data = dict(self.initial_data)
        if "snapshot" in data:
            from .snapshot import read_snapshot

            path = data.pop("snapshot")
            _no_leftovers(data, "initial_data")
            state = read_snapshot(path)
            if state.grid != grid:
                raise ConfigError(
                    f"snapshot grid {state.grid} does not match config grid {grid}"
                )
            return state
        try:
            return build_preset(grid, data, seed=self.seed)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"initial_data: {exc}") from exc

    def canonical(self) -> dict:
        return {
            "system": self.system,
            "grid": {"n": list(self.grid_n), "length": list(self.grid_length)},
            "params": {"kappa": self.kappa, "mu": self.mu, "p": self.p, "s": self.s},
            "initial_data": self.initial_data,
            "integrator": {
                "method": self.method,
                "dt": self.dt,
                "picard_tol": self.picard_tol,
                "picard_max_iter": self.picard_max_iter,
                "dealias": self.dealias,
                "blowup_ceiling": self.blowup_ceiling,
            },
            "T": self.T,
            "report_every": self.report_every,
            "output_dir": self.output_dir,
            "seed": self.seed,
            "snapshots": self.snapshots,
            "study": self.study,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def resolved_output_dir(self) -> str:
        return os.environ.get("WB_OUTPUT_DIR", self.output_dir)


def _axis_value(raw, name, cast):
    values = raw if isinstance(raw, (list, tuple)) else [raw]
    return tuple(_number(v, name, cast) for v in values)


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
    system = _take(raw, "system", required=True)
    if system not in SYSTEMS:
        raise ConfigError(f"system must be one of {SYSTEMS}, got {system!r}")
    dim = 2 if system == "wb2d" else 1

    grid_tab = _table(raw, "grid", required=True)
    n = _axis_value(_take(grid_tab, "n", required=True), "grid.n", int)
    default_l = 2.0 * math.pi
    length = _axis_value(_take(grid_tab, "length", default=default_l), "grid.length", float)
    _no_leftovers(grid_tab, "grid")
    if len(n) == 1 and dim == 2:
        n = n * 2
    if len(length) == 1 and dim == 2:
        length = length * 2
    if len(n) != dim or len(length) != dim:
        raise ConfigError(f"grid for {system} needs {dim} axis value(s)")

    params_tab = _table(raw, "params", required=True)
    kappa = _number(_take(params_tab, "kappa", required=True), "params.kappa")
    mu = _number(_take(params_tab, "mu", default=0.0), "params.mu")
    p = _number(_take(params_tab, "p", default=1.0), "params.p")
    s = _number(_take(params_tab, "s", default=1.0), "params.s")
    _no_leftovers(params_tab, "params")
    if system == "wb1d_regularized" and mu == 0.0:
        raise ConfigError("mu must be positive for wb1d_regularized")
    if system in ("wb1d", "wb2d") and mu != 0.0:
        raise ConfigError(f"mu must be 0 for {system}, got {mu}")

    data_tab = _table(raw, "initial_data", required=True)
    if "snapshot" not in data_tab and "preset" not in data_tab:
        raise ConfigError("initial_data needs either 'preset' or 'snapshot'")

    integ_tab = _table(raw, "integrator", default={})
    method = _take(integ_tab, "method", default="exponential_rk4")
    if method not in INTEGRATOR_METHODS:
        raise ConfigError(f"method must be one of {INTEGRATOR_METHODS}, got {method!r}")
    dt = _number(_take(integ_tab, "dt", default=1e-3), "integrator.dt")
    picard_tol = _number(_take(integ_tab, "picard_tol", default=1e-8), "integrator.picard_tol")
    picard_max_iter = _number(
        _take(integ_tab, "picard_max_iter", default=30), "integrator.picard_max_iter", int
    )
    dealias = _flag(_take(integ_tab, "dealias", default=True), "integrator.dealias")
    blowup_ceiling = _number(
        _take(integ_tab, "blowup_ceiling", default=1e6), "integrator.blowup_ceiling"
    )
    _no_leftovers(integ_tab, "integrator")

    T = _number(_take(raw, "T", required=True), "T")
    report_every = _number(_take(raw, "report_every", default=max(T / 20.0, dt)), "report_every")
    output_dir = str(_take(raw, "output_dir", default="out"))
    seed = _number(_take(raw, "seed", default=0), "seed", int)
    snapshots = _flag(_take(raw, "snapshots", default=False), "snapshots")
    study = _table(raw, "study", default={})
    _no_leftovers(raw, "config")

    if T <= 0:
        raise ConfigError(f"T must be positive, got {T}")
    if report_every <= 0:
        raise ConfigError(f"report_every must be positive, got {report_every}")

    cfg = RunConfig(
        system=system,
        grid_n=n,
        grid_length=length,
        kappa=kappa,
        mu=mu,
        p=p,
        s=s,
        initial_data=data_tab,
        method=method,
        dt=dt,
        picard_tol=picard_tol,
        picard_max_iter=picard_max_iter,
        dealias=dealias,
        blowup_ceiling=blowup_ceiling,
        T=T,
        report_every=report_every,
        output_dir=output_dir,
        seed=seed,
        snapshots=snapshots,
        study=study,
    )
    cfg.params()  # validates ranges, naming the field
    cfg.grid()
    cfg.integrator()
    return cfg


def output_header(config: RunConfig) -> str:
    return f"# {ARTIFACT_VERSION} config={config.config_hash()} seed={config.seed}"
