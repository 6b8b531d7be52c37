"""Refusals the other tests reach only through a subprocess or not at all:
each call raises its error type with its message."""

import math
import re
import struct

import numpy as np
import pytest

from wbwaves import experiments
from wbwaves.config import ConfigError, config_from_dict, load_config
from wbwaves.dynamics import IntegratorConfig
from wbwaves.functionals import EnergyReport, difference_energy
from wbwaves.presets import gaussian_bump, single_mode
from wbwaves.snapshot import MAGIC, SnapshotError, read_snapshot
from wbwaves.spectral import Grid, SpectralError
from wbwaves.state import Params, WaveState, weighted_pair_norm

LINE = Grid(16)
SQUARE = Grid((8, 8))


def config(system="wb1d", **overrides):
    raw = {
        "system": system,
        "grid": {"n": 16},
        "params": {"kappa": 1.0},
        "initial_data": {"preset": "single_mode", "amplitude": 0.05},
        "T": 0.1,
    }
    raw.update(overrides)
    return config_from_dict(raw)


def snapshot(tmp_path, dim, samples):
    """Read a snapshot file of a 1D n = 16 header with this dimension byte
    and these samples as its payload."""
    path = tmp_path / "state.wbsnap"
    header = MAGIC + struct.pack("<BI2d", dim, 16, 2 * math.pi, 0.0)
    path.write_bytes(header + np.asarray(samples, "<f8").tobytes())
    return read_snapshot(path)


def line_state(amplitude=0.1):
    return single_mode(LINE, amplitude)


REFUSALS = {
    "integrator-method": (lambda tmp: IntegratorConfig(method="euler"), ValueError,
                          "method must be one of"),
    "integrator-dt": (lambda tmp: IntegratorConfig(dt=0.0), ValueError,
                      "dt must be positive, got 0.0"),
    "picard_tol": (lambda tmp: IntegratorConfig(picard_tol=-1.0), ValueError,
                   "picard_tol must be positive, got -1.0"),
    "integrator-dt-inf": (lambda tmp: IntegratorConfig(dt=math.inf), ValueError,
                          "dt must be finite, got inf"),
    "picard_tol-inf": (lambda tmp: IntegratorConfig(picard_tol=math.inf), ValueError,
                       "picard_tol must be finite, got inf"),
    "picard_max_iter": (lambda tmp: IntegratorConfig(picard_max_iter=0), ValueError,
                        "picard_max_iter must be at least 1"),
    "negative-kappa": (lambda tmp: Params(kappa=-1.0), ValueError, "kappa must be >= 0, got -1.0"),
    "p-at-half": (lambda tmp: Params(p=0.5), ValueError, "p must lie in (1/2, 1], got 0.5"),
    "p-above-1": (lambda tmp: Params(p=1.5), ValueError, "p must lie in (1/2, 1], got 1.5"),
    "wb2d-grid-of-three-axes": (lambda tmp: config("wb2d", grid={"n": [16, 16, 16]}), ConfigError,
                                "grid for wb2d needs 2 axis value(s)"),
    "wb1d-with-mu": (lambda tmp: config(params={"kappa": 1.0, "mu": 0.1}), ConfigError,
                     "mu must be 0 for wb1d, got 0.1"),
    "wb2d-with-mu": (lambda tmp: config("wb2d", params={"kappa": 1.0, "mu": 0.1}), ConfigError,
                     "mu must be 0 for wb2d, got 0.1"),
    "initial-data-of-neither-kind": (lambda tmp: config(initial_data={"amplitude": 0.05}),
                                     ConfigError, "initial_data needs either 'preset' or 'snapshot'"),
    "unreadable-config": (lambda tmp: load_config(tmp / "missing.json"), ConfigError,
                          "cannot read "),
    "snapshot-dimension-byte": (lambda tmp: snapshot(tmp, 3, np.zeros(32)), SnapshotError,
                                "bad dimension 3"),
    "snapshot-of-an-invalid-state": (lambda tmp: snapshot(tmp, 1, np.full(32, np.nan)),
                                     SnapshotError, "holds an invalid state: non-finite sample"),
    "grid-lengths": (lambda tmp: Grid(16, (1.0, 2.0)), SpectralError,
                     "grid length must match dimension"),
    "v-of-a-2D-state": (lambda tmp: WaveState.zero(SQUARE).v, SpectralError,
                        "v is only defined for 1D states; use vel"),
    "from_packed-times": (lambda tmp: WaveState.from_packed(
                              LINE, np.zeros((2, 2) + LINE.half_shape, complex), [0.0]),
                          ValueError, "2 states need as many times, got 1"),
    "from_packed-non-finite": (lambda tmp: WaveState.from_packed(
                                   LINE, np.full((2,) + LINE.half_shape, np.nan, complex), 0.0),
                               SpectralError, "trajectory sample: non-finite sample"),
    "report-on-two-grids": (lambda tmp: EnergyReport.measure(
                                [line_state(), single_mode(Grid(32), 0.1)], Params()),
                            SpectralError, "the states of one report must share their grid"),
    "difference-energy-r": (lambda tmp: difference_energy(line_state(), line_state(0.2), 1.0,
                                                          Params(s=1.0)),
                            ValueError, "difference energy needs 0 < r <= s - 1/2, got r=1.0"),
    "pair-norm-s": (lambda tmp: weighted_pair_norm(line_state(), 0.25, 1.0), ValueError,
                    "weighted pair norm needs s >= 1/2, got 0.25"),
    "single_mode-dimension": (lambda tmp: single_mode(SQUARE, 0.1, mode=(1,)), ValueError,
                              "single_mode needs a 2D mode, got (1,)"),
    "single_mode-zero-2D-mode": (lambda tmp: single_mode(SQUARE, 0.1, mode=(0, 0)), ValueError,
                                 "single_mode needs a nonzero 2D mode"),
    "gaussian_bump-width": (lambda tmp: gaussian_bump(LINE, 0.1, 0.0), ValueError,
                            "width must be positive, got 0.0"),
    "fit_rate-errors": (lambda tmp: experiments.fit_rate([1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
                        ValueError, "rate fitting needs positive errors"),
    "kappa-sweep": (lambda tmp: experiments.kappa_limit_study(config(), [2.0, 1.0, 0.5]),
                    ValueError, "kappa sweep values must lie in (0, 1]"),
    "mu-study-p": (lambda tmp: experiments.mu_limit_study(
                       config(params={"kappa": 1.0, "p": 0.75}), [0.1, 0.05]),
                   ValueError, "mu_limit_study fixes p = 1"),
    "mu-study-kappa": (lambda tmp: experiments.mu_limit_study(
                           config(params={"kappa": 0.0}), [0.1, 0.05]),
                       ValueError, "mu_limit_study needs kappa > 0"),
    "mu-study-r": (lambda tmp: experiments.mu_limit_study(config(), [0.1, 0.05], r=2.0),
                   ValueError, "mu_limit_study needs 0 < r <= s, got r=2.0"),
    "stability-sizes": (lambda tmp: experiments.stability_test(
                            line_state(), [0.1, 0.2, 0.05], 0.5, Params(s=1.0), 0.1,
                            IntegratorConfig()),
                        ValueError, "perturbation sizes must be strictly decreasing"),
    "inequalities-in-2D": (lambda tmp: experiments.inequality_study(SQUARE, 1, 0), ValueError,
                           "the inequalities study runs on a 1D grid"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def test_report_on_no_states():
    assert EnergyReport.measure([], Params()) == []
