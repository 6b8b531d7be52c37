import dataclasses
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wbwaves
import wbwaves.config
from wbwaves import cli, experiments
from wbwaves.cli import STUDIES, main
from wbwaves.config import ConfigError, RunConfig, config_from_dict, load_config
from wbwaves.dynamics import IntegratorConfig, evolve, picard_solve
from wbwaves.functionals import EnergyReport
from wbwaves.presets import (
    PRESETS,
    build_preset,
    random_bandlimited,
    single_mode,
)
from wbwaves.spectral import Grid
from wbwaves.state import Params, WaveState, weighted_pair_norm


def write_config(tmp_path, raw, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def small_run(outdir, **overrides):
    raw = {
        "system": "wb1d",
        "grid": {"n": 64},
        "params": {"kappa": 1.0, "s": 0.5},
        "initial_data": {"preset": "single_mode", "amplitude": 0.05, "mode": 1},
        "integrator": {"dt": 2e-3},
        "T": 0.5,
        "report_every": 0.1,
        "output_dir": outdir,
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def run_cli(*args, program=("-m", "wbwaves.cli")):
    """Run the command line in a fresh interpreter, as a user would."""
    src = str(Path(wbwaves.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *program, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown field.*frobnicate"):
            config_from_dict(small_run("x", frobnicate=1))

    def test_unknown_nested_key(self):
        raw = small_run("x")
        raw["grid"]["nx"] = 12
        with pytest.raises(ConfigError, match="grid.*nx"):
            config_from_dict(raw)

    def test_bad_mu_named(self):
        raw = small_run("x", system="wb1d_regularized")
        raw["params"]["mu"] = 1.5
        with pytest.raises(ConfigError, match="mu"):
            config_from_dict(raw)

    def test_mu_required_for_regularized(self):
        raw = small_run("x", system="wb1d_regularized")
        with pytest.raises(ConfigError, match="mu"):
            config_from_dict(raw)

    @pytest.mark.parametrize("system", ["wb1d", "wb2d"])
    def test_duhamel_rejected_for_unregularized(self, tmp_path, capsys, system):
        raw = small_run("x", system=system)
        raw["integrator"]["method"] = "picard_duhamel"
        with pytest.raises(ConfigError, match=f"picard_duhamel.*{system}"):
            config_from_dict(raw)
        assert main(["describe", write_config(tmp_path, raw)]) == 1
        assert system in capsys.readouterr().err

    def test_bad_system(self):
        with pytest.raises(ConfigError, match="system"):
            config_from_dict(small_run("x", system="kdv"))

    def test_missing_required(self):
        raw = small_run("x")
        del raw["T"]
        with pytest.raises(ConfigError, match="T"):
            config_from_dict(raw)

    def test_default_length_is_two_pi(self):
        cfg = config_from_dict(small_run("x"))
        assert cfg.grid.length == (2 * math.pi,)

    def test_2d_scalar_broadcast(self):
        raw = small_run("x", system="wb2d")
        raw["grid"] = {"n": 16}
        raw["initial_data"] = {"preset": "single_mode", "amplitude": 0.01, "mode": [1, 0]}
        cfg = config_from_dict(raw)
        assert cfg.grid.n == (16, 16)
        assert cfg.grid.dim == 2

    def test_hash_stable(self):
        a = config_from_dict(small_run("x"))
        b = config_from_dict(small_run("x"))
        assert a.config_hash() == b.config_hash()
        c = config_from_dict(small_run("x", seed=2))
        assert a.config_hash() != c.config_hash()

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"system": "wb1d",\n  "grid": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))


def _grid_not_a_table(raw):
    raw["grid"] = 5


def _kappa_not_a_number(raw):
    raw["params"]["kappa"] = [1.0]


def _study_not_a_table(raw):
    raw["study"] = [1]


def _setting(field, value):
    """A config edit that sets the dotted ``field`` to ``value``."""

    def edit(raw):
        *tables, key = field.split(".")
        for table in tables:
            raw = raw.setdefault(table, {})
        raw[key] = value

    return edit


@pytest.mark.parametrize("break_config, field", [
    (_grid_not_a_table, "grid"),
    (_kappa_not_a_number, "params.kappa"),
    (_study_not_a_table, "study"),
    # Integers take no fraction or boolean, numbers no string or boolean, and
    # output_dir only a string: nothing is truncated or coerced.
    *(pytest.param(_setting(f, v), f, id=f"{f}={v!r}") for f, v in [
        ("seed", 1.7),
        ("grid.n", 16.5),
        ("integrator.picard_max_iter", 2.9),
        ("params.kappa", "1.0"),
        ("params.s", True),
        ("T", True),
        ("output_dir", None),
    ]),
])
def test_wrong_value_type_names_the_field(tmp_path, capsys, break_config, field):
    raw = small_run(str(tmp_path / "o"))
    break_config(raw)
    assert main(["describe", write_config(tmp_path, raw)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("preset, option, value", [
    ("single_mode", "mode", 1.5),
    ("random_bandlimited", "band", 2.7),
    ("single_mode", "amplitude", "0.05"),
    ("single_mode", "amplitude", True),
    ("single_mode", "v_amplitude", "0.05"),
    ("gaussian_bump", "width", [0.5]),
    ("random_bandlimited", "seed", 1.5),
])
def test_mistyped_preset_option_names_it(tmp_path, capsys, preset, option, value):
    outdir = tmp_path / "o"
    data = {"preset": preset, "amplitude": 0.05, "width": 0.5}
    if preset != "gaussian_bump":
        del data["width"]
    data[option] = value
    raw = small_run(str(outdir), initial_data=data)
    assert main(["run", write_config(tmp_path, raw)]) == 1
    assert f"error: initial_data.{option} must be" in capsys.readouterr().err
    assert not outdir.exists()


def _options(fn):
    return list(inspect.signature(fn).parameters.values())[1:]  # all but config or grid


# Every study and preset option, read from its runner's or function's
# parameters, so an option added later is covered here with no edit.
_EVERY_OPTION = [
    *(("study", name, opt.name) for name, (runner, _) in STUDIES.items()
      for opt in _options(runner)),
    *(("initial_data", name, opt.name) for name, preset in PRESETS.items()
      for opt in _options(preset)),
]


@pytest.mark.parametrize("table, name, key", _EVERY_OPTION,
                         ids=[f"{t}-{n}-{k}" for t, n, k in _EVERY_OPTION])
def test_every_option_rejects_a_string(tmp_path, capsys, table, name, key):
    outdir = tmp_path / "o"
    if table == "study":
        raw, command = small_run(str(outdir), study={key: "0.1"}), ["study", name]
    else:
        data = {"preset": name, **{o.name: 0.5 for o in _options(PRESETS[name])
                                   if o.default is o.empty}, key: "0.1"}
        raw, command = small_run(str(outdir), initial_data=data), ["run"]
    assert main([*command, write_config(tmp_path, raw)]) == 1
    assert f"error: {table}.{key} must be" in capsys.readouterr().err
    assert not outdir.exists()


def test_preset_options_of_the_right_type_accepted():
    raw = small_run("x", system="wb2d", grid={"n": 16})
    raw["initial_data"] = {"preset": "single_mode", "amplitude": 1, "mode": [1, 2.0],
                           "v_amplitude": None}
    state = config_from_dict(raw).initial_state()
    assert np.max(np.abs(state.eta)) == pytest.approx(1.0)
    raw["initial_data"]["mode"] = [1, 2.5]
    with pytest.raises(ConfigError, match="initial_data.mode must be an integer"):
        config_from_dict(raw).initial_state()


COMMITTED_HASHES = {
    "kappa_study.json": "7832de288413",
    "reference_run.json": "0f57e82f6478",
    "wb2d_run.json": "d14d2ea5c7f6",
}


@pytest.mark.parametrize("name", sorted(COMMITTED_HASHES))
def test_committed_config_hash_pinned(name):
    """The hash in every output header stays put for the committed configs."""
    path = Path(__file__).resolve().parents[1] / "configs" / name
    assert load_config(str(path)).config_hash() == COMMITTED_HASHES[name]


# One changed value for every RunConfig field: a field added without one
# fails test_config_hash_covers_every_field.
_CHANGED_FIELD = {
    "system": "wb1d_regularized",
    "grid": Grid(32),
    "params": Params(kappa=2.0, s=0.5),
    "initial_data": {"preset": "single_mode", "amplitude": 0.06, "mode": 1},
    "integrator": IntegratorConfig(dt=1e-3),
    "T": 0.6,
    "report_every": 0.2,
    "output_dir": "y",
    "seed": 2,
    "snapshots": True,
    "study": {"count": 3},
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_config_hash_covers_every_field(field):
    cfg = config_from_dict(small_run("x"))
    changed = dataclasses.replace(cfg, **{field: _CHANGED_FIELD[field]})
    assert getattr(changed, field) != getattr(cfg, field)
    assert changed.config_hash() != cfg.config_hash()


_PRESET_OPTIONS = {
    "single_mode": {"amplitude": 0.05, "mode": 2, "v_amplitude": 0.01},
    "gaussian_bump": {"amplitude": 0.05, "width": 0.5},
    "random_bandlimited": {"seed": 3, "band": 4, "amplitude": 0.05},
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_accepts_exactly_its_function_parameters(name):
    """A preset's options are its function's parameters other than ``grid``:
    all of them build the state the function does, and any other option
    of another preset is rejected, named."""
    grid, options = Grid(32), _PRESET_OPTIONS[name]
    assert list(inspect.signature(PRESETS[name]).parameters) == ["grid", *options]
    state = build_preset(grid, {"preset": name, **options})
    assert np.array_equal(state.packed(), PRESETS[name](grid, **options).packed())
    every = {opt.name for preset in PRESETS.values() for opt in _options(preset)}
    for other in sorted(every - set(options)):
        with pytest.raises(ValueError, match=rf"unknown field\(s\) in initial_data: {other}$"):
            build_preset(grid, {"preset": name, **options, other: 1})


def test_preset_defaults_are_its_function_defaults():
    grid = Grid(32)
    state = build_preset(grid, {"preset": "single_mode", "amplitude": 0.05})
    assert np.array_equal(state.packed(), single_mode(grid, 0.05).packed())
    # seed defaults to the config's seed, band and amplitude to the function's.
    state = build_preset(grid, {"preset": "random_bandlimited"}, seed=7)
    assert np.array_equal(state.packed(), random_bandlimited(grid, 7).packed())


@pytest.mark.parametrize("n, mode, axis, band", [
    (16, 9, 0, 5), (16, -6, 0, 5), ((16, 16), (9, 0), 0, 5), ((16, 16), 9, 0, 5),
    ((16, 24), (0, 8), 1, 7), ((16, 24), (6, 7), 0, 5),
])
def test_single_mode_outside_the_dealias_band_rejected(n, mode, axis, band):
    """A mode past the 2/3-rule band on any axis is refused, the bound named:
    mode 9 on 16 points would alias to k = 7."""
    with pytest.raises(ValueError, match=rf"mode -?\d+ on axis {axis} .* band \|k\| <= {band}$"):
        single_mode(Grid(n), 0.1, mode=mode)


@pytest.mark.parametrize("n, mode", [(16, 5), (16, -5), ((16, 16), (5, -5)), ((16, 24), (5, 7))])
def test_single_mode_inside_the_dealias_band_accepted(n, mode):
    grid = Grid(n)
    state = single_mode(grid, 0.1, mode=mode)
    assert np.max(np.abs(state.eta)) == pytest.approx(0.1)


def test_single_mode_outside_the_band_through_a_config(tmp_path, capsys):
    outdir = tmp_path / "o"
    data = {"preset": "single_mode", "amplitude": 0.05, "mode": 40}
    assert main(["run", write_config(tmp_path, small_run(str(outdir), initial_data=data))]) == 1
    assert "lies outside the 2/3-rule band |k| <= 21" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("n, band, ok", [
    (48, 16, False), (48, 15, True), (64, 21, True), (64, 22, False), (64, 0, False),
    ((16, 24), 5, True), ((16, 24), 6, False), ((24, 16), 6, False),
])
def test_random_bandlimited_band_is_the_dealias_band(n, band, ok):
    """The band is at most ``Grid.dealias_band`` of every axis: on 48 points
    the 2/3 rule keeps |k| <= 15, so band 16 would put modes outside it."""
    grid = Grid(n)
    if not ok:
        with pytest.raises(ValueError, match=r"band must lie in \[1, \d+\]"):
            random_bandlimited(grid, seed=1, band=band)
        return
    u = random_bandlimited(grid, seed=1, band=band).packed()
    outside = u[:, ~grid.dealias_mask]
    assert np.max(np.abs(outside)) <= 1e-14 * np.max(np.abs(u))  # transform roundoff


@pytest.mark.parametrize("data, message", [
    ({"preset": "gaussian_bump", "amplitude": 0.05, "widht": 0.5},
     "unknown field(s) in initial_data: widht"),
    ({"preset": "gaussian_bump", "amplitude": 0.05},
     "missing required field(s) in initial_data: width"),
    ({"preset": "single_mode", "mode": 2}, "missing required field(s) in initial_data: amplitude"),
    ({"preset": "bump", "amplitude": 0.05}, "initial_data: unknown preset 'bump'"),
])
def test_preset_option_errors_name_the_option(tmp_path, capsys, data, message):
    outdir = tmp_path / "o"
    assert main(["run", write_config(tmp_path, small_run(str(outdir), initial_data=data))]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("table, command", [
    ("params", ["run"]), ("integrator", ["describe"]), ("initial_data", ["run"]),
    ("study", ["study", "conservation"]),
])
def test_every_bound_table_rejects_an_unknown_key(tmp_path, capsys, table, command):
    """params, integrator, initial_data and study are bound by one rule, with
    one message."""
    outdir = tmp_path / "o"
    raw = small_run(str(outdir))
    raw.setdefault(table, {})["bogus"] = 1
    assert main([*command, write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == f"error: unknown field(s) in {table}: bogus\n"
    assert not outdir.exists()


@pytest.mark.parametrize("system, mode", [("wb1d", 1), ("wb2d", [1, 0])])
def test_mode_is_unknown_to_a_preset_without_it(tmp_path, capsys, system, mode):
    """The 2D mode pair is typed apart, but only for a preset that has a mode."""
    data = {"preset": "gaussian_bump", "amplitude": 0.05, "width": 0.5, "mode": mode}
    raw = small_run(str(tmp_path / "o"), system=system, grid={"n": 16}, initial_data=data)
    assert main(["run", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == "error: unknown field(s) in initial_data: mode\n"


def test_kappa_is_required(tmp_path, capsys):
    raw = small_run(str(tmp_path / "o"), params={"s": 0.5})
    assert main(["describe", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == "error: missing required field(s) in params: kappa\n"


@pytest.mark.parametrize("drop, message", [
    (lambda raw: raw.pop("T"), "config: T"),
    (lambda raw: (raw.pop("T"), raw.pop("system")), "config: system, T"),
    (lambda raw: raw["grid"].pop("n"), "grid: n"),
], ids=["T", "system_and_T", "grid_n"])
def test_missing_key_named_with_its_table(tmp_path, capsys, drop, message):
    """The top-level config and the grid table say what the bound tables say."""
    raw = small_run(str(tmp_path / "o"), grid={"n": 64, "length": 6.0})
    drop(raw)
    assert main(["describe", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == f"error: missing required field(s) in {message}\n"


@pytest.mark.parametrize("field", [
    "initial_data.amplitude", "study.values", "T", "grid.length", "params.s",
])
@pytest.mark.parametrize("preset", ["single_mode", "random_bandlimited"])
def test_nan_named_by_its_field(tmp_path, capsys, no_runs, preset, field):
    """One rule refuses NaN in any number, named by its field, whatever the
    preset or study would have made of it."""
    outdir = tmp_path / "o"
    data = {"preset": preset, "amplitude": 0.05}
    raw = small_run(str(outdir), initial_data=data, study={"values": [0.1, 0.01, 0.001]})
    _setting(field, [0.1, math.nan, 0.001] if field == "study.values" else math.nan)(raw)
    assert main(["study", "kappa_limit", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == f"error: {field} must be a number, got nan\n"
    assert not outdir.exists()


@pytest.fixture
def no_runs(no_member_runs, monkeypatch):
    """Fail the test if a study or a run integrates anything."""
    monkeypatch.setattr(cli, "evolve", experiments.evolve)


def _numbers(fn):
    """(name, default) of each option of ``fn`` that takes a number or a list
    of numbers: the required ones and those whose default is a number, None
    or a tuple."""
    return [(o.name, o.default) for o in _options(fn)
            if o.default is o.empty or o.default is None
            or isinstance(o.default, (int, float, tuple)) and not isinstance(o.default, bool)]


# Every number a config holds, read from the dataclasses' fields and the
# presets' and studies' parameters: (command, preset, field, default).
_EVERY_NUMBER = [
    *((["run"], None, f"params.{f.name}", f.default) for f in dataclasses.fields(Params)),
    *((["run"], None, f"integrator.{f.name}", f.default)
      for f in dataclasses.fields(IntegratorConfig) if not isinstance(f.default, (str, bool))),
    *((["run"], None, field, None) for field in ("T", "report_every", "grid.length")),
    *((["run"], name, f"initial_data.{key}", default) for name, preset in PRESETS.items()
      for key, default in _numbers(preset)),
    *((["study", name], None, f"study.{key}", default) for name, (runner, _) in STUDIES.items()
      for key, default in _numbers(runner)),
]


@pytest.mark.parametrize("command, preset, field, default", _EVERY_NUMBER,
                         ids=[f"{c[-1]}-{p or ''}-{f}" for c, p, f, _ in _EVERY_NUMBER])
def test_every_number_rejects_nan(tmp_path, capsys, no_runs, command, preset, field, default):
    """NaN in any number of a config, or in every entry of a list of
    numbers, is an error before anything runs and leaves no output."""
    outdir = tmp_path / "o"
    raw = small_run(str(outdir), params={"kappa": 1.0, "s": 1.5})
    if preset:
        raw["initial_data"] = {"preset": preset, **{o.name: 0.5 for o in _options(PRESETS[preset])
                                                    if o.default is o.empty}}
    _setting(field, [math.nan] * 3 if isinstance(default, tuple) else math.nan)(raw)
    assert main([*command, write_config(tmp_path, raw)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert not outdir.exists()


@pytest.mark.parametrize("field, value, message", [
    ("integrator.blowup_ceiling", math.nan, "integrator.blowup_ceiling must be a number, got nan"),
    ("integrator.blowup_ceiling", -1, "blowup_ceiling must be positive, got -1.0"),
    ("integrator.picard_tol", math.inf, "picard_tol must be finite, got inf"),
    ("params.s", math.inf, "s must be >= 1/2 and finite, got inf"),
    ("seed", -1, "seed must be non-negative, got -1"),
], ids=["ceiling_nan", "ceiling_negative", "picard_tol_inf", "s_inf", "seed_negative"])
def test_bad_number_named_before_any_run(tmp_path, capsys, no_runs, field, value, message):
    outdir = tmp_path / "o"
    raw = small_run(str(outdir))
    _setting(field, value)(raw)
    assert main(["run", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("overrides, message, commands", [
    ({"seed": -1}, "seed must be non-negative, got -1",
     (["run"], ["describe"], ["study", "dissipation"], ["study", "stability"])),
    ({"initial_data": {"preset": "random_bandlimited", "seed": -1}},
     "initial_data: seed must be non-negative, got -1",
     (["run"], ["describe"], ["study", "stability"])),
], ids=["config", "preset"])
def test_negative_seed_named_by_its_field(tmp_path, capsys, no_runs, overrides, message,
                                          commands):
    """A negative seed is refused by name, not by the random generator."""
    outdir = tmp_path / "o"
    cfgfile = write_config(tmp_path, small_run(str(outdir), **overrides))
    for command in commands:
        assert main([*command, cfgfile]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()


@pytest.mark.parametrize("command", [["run"], ["describe"], ["study", "conservation"]])
def test_dealias_is_not_a_setting(tmp_path, capsys, command):
    """The forcing is always 2/3-rule dealiased: integrator.dealias is an
    unknown field."""
    outdir = tmp_path / "o"
    raw = small_run(str(outdir), integrator={"dt": 2e-3, "dealias": True})
    assert main([*command, write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == "error: unknown field(s) in integrator: dealias\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize("reason, line", [
    ("Unable to allocate 8.00 TiB for an array", "out of memory: Unable to allocate 8.00 TiB"),
    ("", "out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch, command, reason, line):
    """An allocation that fails while the initial state is built (numpy
    refuses the 8 TiB of a 2^40-point grid) ends in an error line, exit 1."""

    def too_big(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.setattr(wbwaves.config, "build_preset", too_big)
    outdir = tmp_path / "o"
    assert main([command, write_config(tmp_path, small_run(str(outdir)))]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {line}") and not captured.out
    assert not outdir.exists()


def test_float_field_spelled_as_integer_hashes_the_same():
    spelled_int = small_run("x", params={"kappa": 1, "s": 1}, integrator={"dt": 1}, T=2,
                            report_every=1)
    spelled_float = small_run("x", params={"kappa": 1.0, "s": 1.0}, integrator={"dt": 1.0},
                              T=2.0, report_every=1.0)
    a, b = config_from_dict(spelled_int), config_from_dict(spelled_float)
    assert a.config_hash() == b.config_hash()


def test_top_level_list_rejected(tmp_path, capsys):
    assert main(["describe", write_config(tmp_path, [small_run("o")])]) == 1
    assert "error: config must be a table" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")),
                         ids=lambda p: p.name)
def test_committed_config_loads_and_describes(path, capsys):
    cfg = load_config(str(path))
    assert main(["describe", str(path)]) == 0
    assert f"(config {cfg.config_hash()})" in capsys.readouterr().out


class TestRunCommand:
    def test_successful_run_writes_csv(self, tmp_path):
        outdir = str(tmp_path / "out")
        cfgfile = write_config(tmp_path, small_run(outdir))
        assert main(["run", cfgfile]) == 0
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert "config=" in lines[0]
        assert lines[1].startswith("time,hamiltonian")
        assert len(lines) == 2 + math.ceil(0.5 / 0.1) + 1
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["status"] == "ok"

    @pytest.mark.parametrize("name, largest", [
        ("gaussian_bump", None), ("reference_run", 1e-25), ("wb2d_run", 0.0),
    ])
    def test_summary_and_describe_give_the_share_above_the_band(
            self, tmp_path, capsys, name, largest):
        """The solver drops the initial data above the 2/3 band, and says how
        much: ``run_summary.json``'s ``above_band_share`` and ``describe``
        give that share of the initial weighted norm squared.  A narrow 2D
        bump has real content there; the committed runs' data lie in the
        band, up to roundoff in 1D (3.3e-29 for ``reference_run``) and
        exactly in 2D."""
        outdir = tmp_path / "out"
        if name == "gaussian_bump":
            raw = small_run(str(outdir), system="wb2d", grid={"n": 32},
                            params={"kappa": 1.0, "s": 1.0},
                            initial_data={"preset": "gaussian_bump", "amplitude": 0.01,
                                          "width": 0.15},
                            integrator={"dt": 0.01}, T=0.05, report_every=0.05)
        else:
            raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                              / f"{name}.json").read_text())
            raw.update(output_dir=str(outdir), T=5 * raw["integrator"]["dt"])
        cfgfile = write_config(tmp_path, raw)
        assert main(["run", cfgfile]) == 0
        summary = json.loads((outdir / "run_summary.json").read_text())
        assert summary["status"] == "ok"
        share = summary["above_band_share"]
        if largest is None:
            # One minus the share that the band's modes keep.
            config = load_config(cfgfile)
            u0, p = config.initial_state(), config.params
            kept = WaveState.from_packed(u0.grid, np.where(u0.grid.dealias_mask, u0.packed(), 0), 0.0)
            ratio = (weighted_pair_norm(kept, p.s, p.kappa) / weighted_pair_norm(u0, p.s, p.kappa))
            assert share == pytest.approx(1 - ratio**2, rel=1e-12) and share > 0.3
        else:
            assert 0 <= share <= largest
            assert (share == 0) == (largest == 0)
        capsys.readouterr()
        assert main(["describe", cfgfile]) == 0
        assert f"dropping {share:.3g} of the initial weighted norm^2" in capsys.readouterr().out

    @pytest.mark.parametrize("system, grid", [("wb1d", {"n": 64}), ("wb2d", {"n": 16})])
    def test_energy_csv_columns_are_the_report_fields(self, tmp_path, system, grid):
        """The header is EnergyReport's fields in order, and each cell reads
        back to the reported float exactly (17 significant digits)."""
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir), system=system, grid=grid,
            initial_data={"preset": "random_bandlimited", "band": 4, "amplitude": 0.05},
        )
        config_path = write_config(tmp_path, raw)
        assert main(["run", config_path]) == 0
        lines = (outdir / "energy.csv").read_text().splitlines()
        assert lines[1].split(",") == [f.name for f in dataclasses.fields(EnergyReport)]
        config = load_config(config_path)
        result = evolve(config.initial_state(), config.params, config.integrator, config.T,
                        config.report_every)
        assert len(lines) == 2 + len(result.reports)
        for line, rep in zip(lines[2:], result.reports):
            got = [float(cell) for cell in line.split(",")]
            assert np.array_equal(got, dataclasses.astuple(rep), equal_nan=True)

    @pytest.mark.parametrize("method", ["exponential_rk4", "reference_rk4", "picard_duhamel"])
    def test_summary_records_steps_and_effective_dt(self, tmp_path, method):
        """dt = 3e-3 does not divide T = 0.1: the run takes ceil(T / dt) = 34
        steps of T / 34."""
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            params={"kappa": 1.0, "mu": 0.1, "s": 0.5},
            integrator={"method": method, "dt": 3e-3},
            T=0.1,
            report_every=0.05,
        )
        path = write_config(tmp_path, raw)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "run_summary.json").read_text())
        assert summary["steps"] == 34
        assert summary["dt"] == 0.1 / 34
        picard_keys = {"iterations", "defects", "contraction_estimate"}
        if method != "picard_duhamel":
            assert not picard_keys & summary.keys()
            return
        # A converged solve reports its sweeps as a non-contracting one does.
        config = load_config(path)
        res = picard_solve(config.initial_state(), config.params, config.integrator, config.T)
        assert summary["iterations"] == res.iterations == len(summary["defects"]) >= 2
        assert summary["defects"] == res.defects
        ratios = [b / a for a, b in zip(res.defects, res.defects[1:])]
        assert summary["contraction_estimate"] == max(ratios) < 1

    def test_invalid_config_exits_one(self, tmp_path):
        raw = small_run(str(tmp_path / "o"))
        raw["params"]["mu"] = 1.5
        raw["system"] = "wb1d_regularized"
        cfgfile = write_config(tmp_path, raw)
        assert main(["run", cfgfile]) == 1

    @pytest.mark.parametrize("system, method", [
        ("wb1d", "exponential_rk4"), ("wb1d_regularized", "picard_duhamel"),
    ])
    def test_report_interval_below_step_rejected(self, tmp_path, capsys, system, method):
        """Every method rejects report_every < dt before it writes anything."""
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), system=system, integrator={"method": method, "dt": 0.01},
                        T=0.02, report_every=0.005)
        if system == "wb1d_regularized":
            raw["params"]["mu"] = 0.1
        assert main(["run", write_config(tmp_path, raw)]) == 1
        assert "report_every must be at least the time step" in capsys.readouterr().err
        assert not outdir.exists()

    def test_blowup_exits_two(self, tmp_path):
        outdir = str(tmp_path / "out")
        raw = small_run(
            outdir,
            initial_data={"preset": "single_mode", "amplitude": 50.0, "mode": 1},
            integrator={"dt": 0.05, "method": "reference_rk4", "blowup_ceiling": 100.0},
            T=5.0,
            report_every=0.05,
        )
        cfgfile = write_config(tmp_path, raw)
        assert main(["run", cfgfile]) == 2
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["status"] == "blowup"
        assert "blowup_time" in summary

    @pytest.mark.parametrize("method", ["exponential_rk4", "picard_duhamel"])
    def test_norm_ceiling_stops_every_method(self, tmp_path, method):
        """Both integrators sample through the same report step, which
        compares each weighted norm with blowup_ceiling."""
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            params={"kappa": 1.0, "mu": 0.1, "s": 0.5},
            integrator={"method": method, "dt": 0.01, "blowup_ceiling": 1e-3},
            T=0.2,
        )
        assert main(["run", write_config(tmp_path, raw)]) == 2
        summary = json.loads((outdir / "run_summary.json").read_text())
        assert summary["status"] == "blowup"
        assert summary["blowup_time"] == 0.0

    def test_no_contraction_exits_one_with_summary(self, tmp_path):
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            grid={"n": 32},
            params={"kappa": 1.0, "mu": 0.1, "s": 1.0},
            initial_data={"preset": "random_bandlimited", "seed": 1, "band": 4, "amplitude": 2.0},
            integrator={"method": "picard_duhamel", "dt": 0.05, "picard_max_iter": 3},
            T=2.0,
        )
        proc = run_cli("run", write_config(tmp_path, raw))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "contraction" in proc.stderr
        summary = json.loads((outdir / "run_summary.json").read_text())
        assert summary["status"] == "no_contraction"
        assert summary["iterations"] == len(summary["defects"]) == 3
        assert summary["steps"] == 40 and summary["dt"] == 0.05
        ratios = [b / a for a, b in zip(summary["defects"], summary["defects"][1:])]
        assert summary["contraction_estimate"] == max(ratios)
        assert 0 < summary["contraction_estimate"] < math.inf

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        f1 = write_config(tmp_path, small_run(out1, output_dir=out1), "c1.json")
        f2 = write_config(tmp_path, small_run(out2, output_dir=out2), "c2.json")
        assert main(["run", f1]) == 0
        assert main(["run", f2]) == 0
        a = (tmp_path / "a" / "energy.csv").read_text().splitlines()[1:]
        b = (tmp_path / "b" / "energy.csv").read_text().splitlines()[1:]
        assert a == b

    def test_env_output_override(self, tmp_path, monkeypatch):
        override = tmp_path / "env_out"
        monkeypatch.setenv("WB_OUTPUT_DIR", str(override))
        cfgfile = write_config(tmp_path, small_run(str(tmp_path / "ignored")))
        assert main(["run", cfgfile]) == 0
        assert (override / "energy.csv").exists()

    @pytest.mark.parametrize("command", [("run",), ("study", "conservation")])
    def test_unwritable_output_dir_is_an_error(self, tmp_path, command):
        """An output directory under a regular file cannot be made: the
        command exits 1 with an error line, not a traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfgfile = write_config(tmp_path, small_run(str(blocker / "out"), T=0.1))
        proc = run_cli(*command, cfgfile)
        assert proc.returncode == 1
        assert f"error: cannot write {blocker / 'out'}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_snapshot_roundtrip_through_config(self, tmp_path):
        outdir = str(tmp_path / "snapout")
        raw = small_run(outdir, snapshots=True, T=0.2, report_every=0.1)
        cfgfile = write_config(tmp_path, raw)
        assert main(["run", cfgfile]) == 0
        snaps = sorted((tmp_path / "snapout").glob("snap_*.wbsnap"))
        assert len(snaps) == 3
        raw2 = small_run(str(tmp_path / "resume"))
        raw2["initial_data"] = {"snapshot": str(snaps[-1])}
        cfgfile2 = write_config(tmp_path, raw2, "resume.json")
        assert main(["run", cfgfile2]) == 0


    def test_snapshots_written_as_reported(self, tmp_path):
        """Each reported state is written as it is reported, under its index
        and with the bytes write_snapshot gives it, and the run keeps none."""
        from wbwaves.snapshot import write_snapshot

        outdir = tmp_path / "snapout"
        path = write_config(tmp_path, small_run(str(outdir), snapshots=True, T=0.2,
                                                 report_every=0.05))
        assert main(["run", path]) == 0
        config = load_config(path)
        result = evolve(config.initial_state(), config.params, config.integrator, config.T,
                        config.report_every)
        assert len(list(outdir.glob("snap_*.wbsnap"))) == len(result.states) == 5
        for i, state in enumerate(result.states):
            want = tmp_path / f"want_{i}.wbsnap"
            write_snapshot(want, state)
            assert (outdir / f"snap_{i:05d}.wbsnap").read_bytes() == want.read_bytes()

    def test_run_memory_does_not_grow_with_its_reports(self, tmp_path):
        """A run keeps no reported state: a 2D 64^2 run's traced peak with
        101 reports stays within one state size of its peak with 2 (keeping
        every reported state read about 20 MB more)."""
        state_bytes = 3 * 64 * 64 * 8 + 3 * 64 * 33 * 16  # samples and packed

        def peak(name, report_every):
            raw = small_run(str(tmp_path / name), system="wb2d", grid={"n": 64},
                            initial_data={"preset": "random_bandlimited", "band": 8,
                                          "amplitude": 0.05},
                            T=0.2, report_every=report_every)
            path = write_config(tmp_path, raw, name + ".json")
            tracemalloc.start()
            try:
                assert main(["run", path]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("warm", 0.2)  # build the operators and the FFT plans
        few, many = peak("few", 0.2), peak("many", 2e-3)
        assert many - few <= state_bytes, (few, many)


class TestStudyCommand:
    def test_unknown_study_lists_names(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, small_run(str(tmp_path / "o")))
        assert main(["study", "nope", cfgfile]) == 1
        err = capsys.readouterr().err
        assert "kappa_limit" in err and "conservation" in err

    def test_conservation_study_passes(self, tmp_path):
        outdir = str(tmp_path / "out")
        raw = small_run(outdir, T=1.0, report_every=0.25,
                        integrator={"dt": 1e-3})
        raw["initial_data"] = {"preset": "single_mode", "amplitude": 0.1, "mode": 1}
        cfgfile = write_config(tmp_path, raw)
        assert main(["study", "conservation", cfgfile]) == 0
        summary = json.loads((tmp_path / "out" / "conservation.json").read_text())
        assert summary["pass"] is True

    def test_kappa_limit_needs_three_values(self, tmp_path):
        outdir = str(tmp_path / "out")
        raw = small_run(outdir, study={"values": [0.1, 0.01]})
        cfgfile = write_config(tmp_path, raw)
        assert main(["study", "kappa_limit", cfgfile]) == 1

    @pytest.mark.parametrize(
        "study, options, member",
        [
            ("kappa_limit", {"values": [0.1, 0.01, 0.001]}, "kappa=0"),
            ("dissipation", {"count": 2}, "datum=0"),
            ("stability", {}, "base"),
        ],
        ids=["kappa_limit", "dissipation", "stability"],
    )
    def test_sweep_member_blowup_exits_two_with_summary(self, tmp_path, study, options, member):
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            params={"kappa": 1.0, "s": 2.0},
            integrator={"dt": 2e-3, "blowup_ceiling": 1e-3},
            study=options,
        )
        proc = run_cli("study", study, write_config(tmp_path, raw))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        summary = json.loads((outdir / f"{study}.json").read_text())
        assert summary["status"] == "blowup"
        assert summary["member"] == member
        assert summary["blowup_time"] == 0.0
        assert summary["pass"] is False

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_no_study_ends_in_an_exception(self, tmp_path, capsys, study):
        """Under a Duhamel solve that cannot contract (two sweeps against a
        1e-12 tolerance) every study ends with an exit code, and the three
        that run the solve write a no_contraction summary naming the member
        whose solve failed."""
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            grid={"n": 32},
            params={"kappa": 1.0, "mu": 0.1, "s": 1.5},
            initial_data={"preset": "single_mode", "amplitude": 0.5, "mode": 1},
            integrator={"method": "picard_duhamel", "dt": 0.01, "picard_max_iter": 2,
                        "picard_tol": 1e-12},
            T=0.2,
            report_every=0.05,
            study={"count": 2} if study in ("invariant_region", "dissipation") else {},
        )
        assert main(["study", study, write_config(tmp_path, raw)]) in (0, 1, 2)
        if study in ("invariant_region", "dissipation", "stability"):
            summary = strict_json(outdir / f"{study}.json")
            assert (summary["study"], summary["status"]) == (study, "no_contraction")
            assert summary["pass"] is False
            assert summary["iterations"] == len(summary["defects"]) == 2
            assert "contraction_estimate" in summary
            assert summary["member"] == ("base" if study == "stability" else "datum=0")
            err = capsys.readouterr().err
            assert err.startswith(f"{study}: no contraction after 2 iterations")
        if study == "mu_limit":
            # Each viscous member is rerun by ERK4.
            assert strict_json(outdir / "mu_limit_mu.json")["fallback_integrator"] is True
            assert len((outdir / "mu_limit_mu.csv").read_text().splitlines()) == 2 + 3

    def test_inequalities_study(self, tmp_path):
        outdir = str(tmp_path / "out")
        raw = small_run(outdir)
        cfgfile = write_config(tmp_path, raw)
        assert main(["study", "inequalities", cfgfile]) == 0
        summary = json.loads((tmp_path / "out" / "inequalities.json").read_text())
        assert summary["pass"] is True
        assert summary["symbol_chain"]["passed"] == summary["symbol_chain"]["checked"] == 63

    def test_invariant_region_study(self, tmp_path):
        outdir = str(tmp_path / "out")
        raw = small_run(outdir, T=0.5, study={"count": 2, "mu": 0.2})
        cfgfile = write_config(tmp_path, raw)
        assert main(["study", "invariant_region", cfgfile]) == 0


def strict_json(path):
    """Parse a JSON file, refusing the non-standard NaN/Infinity constants."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


FAMILY_KEYS = {"config", "study", "pass", "rows", "skipped"}
RATE_KEYS = {"config", "study", "pass", "fitted_order", "residual"}

# study -> (config overrides, output stem, CSV header, JSON summary keys)
STUDY_OUTPUTS = {
    "kappa_limit": (
        {"params": {"kappa": 1.0, "s": 2.0}, "T": 1.0, "integrator": {"dt": 5e-3},
         "study": {"values": [0.1, 0.01, 0.001]}},
        "kappa_limit_kappa",
        "kappa,error,L2xH12,H1xH12,HskappaxHs",
        RATE_KEYS | {"points"},
    ),
    "mu_limit": (
        {"params": {"kappa": 1.0, "s": 2.0}, "T": 1.0, "integrator": {"dt": 5e-3}},
        "mu_limit_mu",
        "mu,error",
        RATE_KEYS | {"strictly_decreasing", "r", "fallback_integrator"},
    ),
    "invariant_region": (
        {"study": {"count": 2, "mu": 0.2, "band": 4}},
        "invariant_region_datum",
        "index,gate_norm,epsilon,max_norm_mu0,ok_mu0,max_norm_mu,ok_mu,ok",
        FAMILY_KEYS | {"epsilon"},
    ),
    "dissipation": (
        {"study": {"count": 2, "mu": 0.2, "delta": 0.1}},
        "dissipation_datum",
        "index,data_size,delta,monotone,total_drop,control_drift,ok",
        FAMILY_KEYS | {"delta"},
    ),
    "stability": (
        {"params": {"kappa": 1.0, "s": 1.5}, "study": {"sizes": [1e-2, 1e-3, 1e-4], "r": 0.5}},
        "stability_size",
        "size,sup_energy",
        {"config", "study", "pass", "slope", "slope_residual", "growth_rates"},
    ),
    "inequalities": (
        {"study": {"count": 2}},
        "inequalities",
        "check,sample,lhs,rhs,ratio",
        {"config", "study", "pass", "symbol_chain", "kato_ponce_max_ratio",
         "leibniz_max_ratio", "trilinear_max_ratio", "brezis_gallouet_max_ratio"},
    ),
    "conservation": (
        {},
        "conservation",
        "drift_hamiltonian,blown_up,drift_momentum,ok",
        FAMILY_KEYS,
    ),
}


@pytest.mark.parametrize("name", sorted(STUDY_OUTPUTS))
def test_study_outputs(tmp_path, name):
    overrides, stem, header, keys = STUDY_OUTPUTS[name]
    outdir = tmp_path / "out"
    assert main(["study", name, write_config(tmp_path, small_run(str(outdir), **overrides))]) == 0
    assert sorted(os.listdir(outdir)) == [stem + ".csv", stem + ".json"]
    lines = (outdir / (stem + ".csv")).read_text().splitlines()
    assert lines[0].startswith("# ") and "config=" in lines[0]
    assert lines[1] == header
    summary = strict_json(outdir / (stem + ".json"))
    assert set(summary) == keys
    assert summary["study"] == name and summary["pass"] is True


@pytest.fixture
def no_member_runs(monkeypatch):
    """Fail the test if a study integrates any member."""

    def no_run(*args, **kwargs):
        raise AssertionError("a member ran")

    monkeypatch.setattr(experiments, "evolve", no_run)


class TestStudyOutputFaults:
    def test_partly_skipped_table_is_written(self, tmp_path):
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            initial_data={"preset": "random_bandlimited", "band": 6, "amplitude": 0.05},
            integrator={"dt": 0.01},
            T=0.2,
            report_every=0.05,
            seed=0,
            study={"count": 6, "mu": 0.2, "delta": 0.019},
        )
        assert main(["study", "dissipation", write_config(tmp_path, raw)]) == 0
        lines = (outdir / "dissipation_datum.csv").read_text().splitlines()
        cols = lines[1].split(",")
        assert cols == ["index", "data_size", "delta", "monotone", "total_drop",
                        "control_drift", "ok", "skipped", "reason"]
        rows = [dict(zip(cols, line.split(","))) for line in lines[2:]]
        assert len(rows) == 6
        skipped = [r for r in rows if r["skipped"]]
        assert len(skipped) == 2
        for r in skipped:
            assert r["skipped"] == "1" and r["reason"] == "data size exceeds delta"
            assert r["monotone"] == r["ok"] == ""
        summary = strict_json(outdir / "dissipation_datum.json")
        assert (summary["rows"], summary["skipped"], summary["pass"]) == (6, 2, True)

    def test_unknown_study_option_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), study={"valeus": [0.1, 0.01, 0.001]})
        assert main(["study", "kappa_limit", write_config(tmp_path, raw)]) == 1
        assert "valeus" in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_inequality_family_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), study={"count": 0})
        assert main(["study", "inequalities", write_config(tmp_path, raw)]) == 1
        assert "count" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("sizes, message", [
        ([0.01, 0.001, -0.0001], "perturbation sizes must be positive"),
        ([0.01, 0.001, 0.0], "perturbation sizes must be positive"),
        ([0.01, math.inf, 0.0001], "perturbation sizes must be positive and finite, got [0.01, inf"),
        ([0.01, 0.001], "stability_test needs at least 3 perturbation sizes, got 2"),
    ])
    def test_bad_stability_sizes_rejected_before_any_run(
        self, tmp_path, capsys, no_member_runs, sizes, message
    ):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), params={"kappa": 1.0, "s": 1.5},
                        study={"sizes": sizes, "r": 0.5})
        assert main(["study", "stability", write_config(tmp_path, raw)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("name, options, message", [
        ("dissipation", {"count": -2}, "the small-data family needs count >= 1, got -2"),
        ("invariant_region", {"count": 0}, "the small-data family needs count >= 1, got 0"),
        ("dissipation", {"delta": -1.0}, "dissipation_test needs delta > 0, got -1.0"),
        ("dissipation", {"delta": 0.0}, "dissipation_test needs delta > 0, got 0.0"),
        ("invariant_region", {"epsilon": math.nan}, "study.epsilon must be a number, got nan"),
        ("dissipation", {"epsilon": math.inf},
         "smallness threshold epsilon must be positive and finite, got inf"),
    ])
    def test_bad_family_options_rejected_before_any_run(
        self, tmp_path, capsys, no_member_runs, name, options, message
    ):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), study=options)
        assert main(["study", name, write_config(tmp_path, raw)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("name, option, value", [
        ("inequalities", "count", [1]),
        ("kappa_limit", "values", 5),
        ("stability", "r", [1]),
        ("inequalities", "count", 2.5),
    ])
    def test_option_of_wrong_type_named(self, tmp_path, capsys, name, option, value):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), study={option: value})
        assert main(["study", name, write_config(tmp_path, raw)]) == 1
        assert f"error: study.{option} must be" in capsys.readouterr().err
        assert not outdir.exists()

    def test_two_value_mu_sweep_writes_null_order(self, tmp_path):
        outdir = tmp_path / "out"
        raw = small_run(str(outdir), params={"kappa": 1.0, "s": 2.0}, T=0.5,
                        integrator={"dt": 5e-3}, study={"values": [0.1, 0.01]})
        assert main(["study", "mu_limit", write_config(tmp_path, raw)]) == 0
        summary = strict_json(outdir / "mu_limit_mu.json")
        assert summary["fitted_order"] is None and summary["residual"] is None

    def test_picard_mu_sweep_runs_its_reference_by_erk4(self, tmp_path, capsys):
        """The mu = 0 reference of a picard_duhamel sweep cannot use the
        Duhamel solver; the study still ends with its verdict and a row per mu."""
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            grid={"n": 32},
            params={"kappa": 1.0, "mu": 0.1, "s": 1.0},
            initial_data={"preset": "random_bandlimited", "band": 4, "amplitude": 0.05},
            integrator={"method": "picard_duhamel", "dt": 0.01},
            T=0.2,
            study={"values": [0.5, 0.2, 0.1]},
        )
        code = main(["study", "mu_limit", write_config(tmp_path, raw)])
        assert "error" not in capsys.readouterr().err
        summary = strict_json(outdir / "mu_limit_mu.json")
        assert code == (0 if summary["pass"] else 1)
        lines = (outdir / "mu_limit_mu.csv").read_text().splitlines()
        assert lines[1] == "mu,error"
        assert [float(line.split(",")[0]) for line in lines[2:]] == [0.5, 0.2, 0.1]

    @pytest.mark.parametrize("study, column", [
        ("invariant_region", "max_norm_mu0"), ("dissipation", "control_drift"),
    ])
    def test_picard_family_study_steps_its_mu0_runs_by_erk4(self, tmp_path, capsys, study,
                                                             column):
        """The mu = 0 variant and controls of a picard_duhamel family study
        cannot use the Duhamel solver; they are the ERK4 config's runs, and
        the study ends with its verdict and a row per datum."""
        rows = {}
        for method in ("picard_duhamel", "exponential_rk4"):
            outdir = tmp_path / method
            raw = small_run(
                str(outdir),
                system="wb1d_regularized",
                grid={"n": 32},
                params={"kappa": 1.0, "mu": 0.1, "s": 1.5},
                initial_data={"preset": "random_bandlimited", "band": 4, "amplitude": 0.02},
                integrator={"method": method, "dt": 0.01},
                T=0.2,
                study={"count": 2},
            )
            code = main(["study", study, write_config(tmp_path, raw, f"{method}.json")])
            assert "error" not in capsys.readouterr().err
            summary = strict_json(outdir / f"{study}_datum.json")
            assert code == (0 if summary["pass"] else 1)
            assert (summary["rows"], summary["skipped"]) == (2, 0)
            lines = (outdir / f"{study}_datum.csv").read_text().splitlines()[1:]
            rows[method] = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [r[column] for r in rows["picard_duhamel"]] == [
            r[column] for r in rows["exponential_rk4"]
        ]

    def test_diverging_picard_run_writes_null_estimate(self, tmp_path):
        outdir = tmp_path / "out"
        raw = small_run(
            str(outdir),
            system="wb1d_regularized",
            grid={"n": 32},
            params={"kappa": 1.0, "mu": 0.1, "s": 1.0},
            initial_data={"preset": "random_bandlimited", "seed": 1, "band": 4,
                          "amplitude": 200.0},
            integrator={"method": "picard_duhamel", "dt": 0.05, "picard_max_iter": 30},
            T=2.0,
        )
        assert main(["run", write_config(tmp_path, raw)]) == 1
        summary = strict_json(outdir / "run_summary.json")
        assert summary["status"] == "no_contraction"
        assert summary["contraction_estimate"] is None
        assert None in summary["defects"]


def test_bench_launcher_traces_a_study(tmp_path):
    """bench/launch.py marks set-up by wrapping cli.small_data_family, and
    bench/tracer.py times the study functions where cli looks them up."""
    launch = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    raw = small_run(str(tmp_path / "out"), T=0.2, study={"count": 2, "mu": 0.2})
    record = tmp_path / "record.json"
    proc = run_cli("study", "dissipation", write_config(tmp_path, raw),
                   program=(str(launch), str(record), "trace", "--"))
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["exit_code"] == 0
    assert "setup_mark" in rec
    assert rec["trace"]["spans"]["experiments.study"][0] == 1


def test_bench_launcher_traces_a_picard_run(tmp_path):
    """bench/tracer.py wraps picard_solve, the forcing and the defect norm's
    _weighted_sq_coeffs where dynamics looks them up, and reads the operator
    caches, which a 20-step solve leaves at their cap or below."""
    from wbwaves.dynamics import _CACHE_SIZE

    launch = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    raw = small_run(
        str(tmp_path / "out"),
        system="wb1d_regularized",
        grid={"n": 32},
        params={"kappa": 1.0, "mu": 0.1, "s": 1.0},
        integrator={"method": "picard_duhamel", "dt": 0.01},
        T=0.2,
    )
    record = tmp_path / "record.json"
    proc = run_cli("run", write_config(tmp_path, raw),
                   program=(str(launch), str(record), "trace", "--"))
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(record.read_text())["trace"]
    spans, counts = trace["spans"], trace["counts"]
    assert spans["dynamics.picard"][0] == 1
    # One forcing call and one defect sum per sweep, on the stacked nodes.
    sweeps = counts["dynamics.picard_iterations"]
    assert spans["dynamics.nonlinear"][0] == sweeps > 0
    assert spans["state.weighted_norm"][0] >= sweeps
    assert counts["dynamics.cached_propagators"] <= _CACHE_SIZE


def test_bench_launcher_traces_a_2d_run(tmp_path):
    """bench/tracer.py counts the generic operators on a 2D run: one step and
    four nonlinear forcings per ERK4 step."""
    launch = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    raw = small_run(
        str(tmp_path / "out"),
        system="wb2d",
        grid={"n": 16},
        params={"kappa": 1.0, "s": 1.0},
        initial_data={"preset": "random_bandlimited", "band": 4, "amplitude": 0.05},
        integrator={"dt": 0.01},
        T=0.1,
        report_every=0.05,
    )
    record = tmp_path / "record.json"
    proc = run_cli("run", write_config(tmp_path, raw),
                   program=(str(launch), str(record), "trace", "--"))
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(record.read_text())["trace"]["spans"]
    assert spans["dynamics.step"][0] == 10
    assert spans["dynamics.nonlinear"][0] == 40


class TestDescribeCommand:
    def test_plan_names_the_preset(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, small_run(str(tmp_path / "o")))
        assert main(["describe", cfgfile]) == 0
        out = capsys.readouterr().out
        assert "single_mode" in out
        assert "dealias" not in out

    def test_2d_plan_lists_projection(self, tmp_path, capsys):
        raw = small_run(str(tmp_path / "o"), system="wb2d")
        raw["grid"] = {"n": 16}
        raw["initial_data"] = {"preset": "single_mode", "amplitude": 0.01, "mode": [1, 0]}
        cfgfile = write_config(tmp_path, raw)
        assert main(["describe", cfgfile]) == 0
        assert "system: wb2d (2D)" in capsys.readouterr().out

    def test_snapshot_header_echoed(self, tmp_path, capsys):
        from wbwaves.presets import single_mode
        from wbwaves.snapshot import write_snapshot
        from wbwaves.spectral import Grid

        snap = tmp_path / "init.wbsnap"
        write_snapshot(snap, single_mode(Grid(64), 0.05))
        raw = small_run(str(tmp_path / "o"))
        raw["initial_data"] = {"snapshot": str(snap)}
        cfgfile = write_config(tmp_path, raw)
        assert main(["describe", cfgfile]) == 0
        out = capsys.readouterr().out
        assert f"initial data: snapshot {snap} time=0\n" in out and "n=(64,)" in out

    def test_snapshot_period_printed_once(self, tmp_path, capsys):
        """The grid: line gives a snapshot's n and period; the snapshot
        line names the file and the time only."""
        from wbwaves.snapshot import write_snapshot

        snap = tmp_path / "init.wbsnap"
        write_snapshot(snap, single_mode(Grid(32, 3.0), 0.05))
        raw = small_run(str(tmp_path / "o"), grid={"n": 32, "length": 3.0},
                        initial_data={"snapshot": str(snap)})
        assert main(["describe", write_config(tmp_path, raw)]) == 0
        out = capsys.readouterr().out
        assert out.count("length=") == out.count("n=(") == 1
        assert "grid: n=(32,) length=(3.0,)\n" in out
        assert f"initial data: snapshot {snap} time=0\n" in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["describe", str(path)]) == 1
        assert "line" in capsys.readouterr().err


def _missing_snapshot(path):
    pass


def _header_cut_after_magic(path):
    path.write_bytes(b"WBSNAP1")


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize("make_snapshot", [_missing_snapshot, _header_cut_after_magic],
                         ids=["missing", "magic_only"])
def test_unreadable_snapshot_exits_one(tmp_path, capsys, command, make_snapshot):
    snap = tmp_path / "init.wbsnap"
    make_snapshot(snap)
    outdir = tmp_path / "o"
    raw = small_run(str(outdir), initial_data={"snapshot": str(snap)})
    assert main([command, write_config(tmp_path, raw)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not outdir.exists()


def _snapshot(tmp_path, n=64, cut=0, header=None, **extra):
    """initial_data naming a single-mode snapshot on ``n`` points, its last
    ``cut`` bytes removed, with ``extra`` keys beside it.  ``header`` names
    a 1D header field ("n", "L" or "time") and the value written over it."""
    from wbwaves.snapshot import write_snapshot

    snap = tmp_path / "init.wbsnap"
    write_snapshot(snap, single_mode(Grid(n), 0.05))
    data = bytearray(snap.read_bytes())
    if header is not None:
        name, value = header
        offset, fmt = {"n": (8, "<I"), "L": (12, "<d"), "time": (20, "<d")}[name]
        struct.pack_into(fmt, data, offset, value)
    snap.write_bytes(bytes(data[: len(data) - cut]))
    return {"initial_data": {"snapshot": str(snap), **extra}}


@pytest.mark.parametrize("overrides", [
    lambda tmp: {"initial_data": {"preset": "bump", "amplitude": 0.05}},
    lambda tmp: {"initial_data": {"preset": "single_mode", "amplitude": 0.05, "widht": 1}},
    lambda tmp: {"initial_data": {"preset": "gaussian_bump", "amplitude": 0.05}},
    lambda tmp: {"grid": {"n": 32}, "initial_data": {"preset": "random_bandlimited", "band": 50}},
    lambda tmp: _snapshot(tmp, n=32),
    lambda tmp: _snapshot(tmp, cut=8),
    lambda tmp: _snapshot(tmp, amplitude=0.1),
    lambda tmp: _snapshot(tmp, header=("time", math.nan)),
    lambda tmp: _snapshot(tmp, header=("n", 63)),
    lambda tmp: _snapshot(tmp, header=("L", math.nan)),
    lambda tmp: {"report_every": 1e-3},
    lambda tmp: {"T": math.nan},
    lambda tmp: {"T": math.inf},
    lambda tmp: {"report_every": math.inf},
    lambda tmp: {"T": 1e308, "integrator": {"dt": 1e-3}},
    lambda tmp: {"seed": -1},
    lambda tmp: {"params": {"kappa": 1.0, "s": 200.0}},
    lambda tmp: {"params": {"kappa": 1.0, "s": 20.0}},
], ids=["unknown_preset", "unknown_option", "missing_option", "band_past_dealias",
        "snapshot_grid", "snapshot_truncated", "snapshot_extra_key", "snapshot_time_nan",
        "snapshot_odd_n", "snapshot_length_nan", "report_below_step",
        "T_nan", "T_inf", "report_every_inf", "steps_overflow", "seed_negative",
        "s_overflow", "s_roundoff"])
def test_describe_and_study_reject_what_run_rejects(tmp_path, capsys, overrides):
    """describe and a config-based study exit 1 on every config run rejects,
    with run's error line free of numpy reprs and warnings, and no command
    makes its output directory."""
    outdir = tmp_path / "o"
    cfgfile = write_config(tmp_path, small_run(str(outdir), **overrides(tmp_path)))
    errors = []
    for command in (["run"], ["describe"], ["study", "conservation"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, cfgfile]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert "np.float64" not in captured.err and "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        errors.append(captured.err)
        assert not outdir.exists()
    assert errors[1] == errors[2] == errors[0]


@pytest.mark.parametrize("n, length, kappa, s", [
    (64, 2 * math.pi, 1.0, 10.0), (256, 2 * math.pi, 1.0, 6.5),
    (1024, 1.0, 1.0, 4.5), (1024, 2 * math.pi, 100.0, 5.0), (256, 0.1, 1.0, 6.0)])
def test_largest_accepted_s_measures_the_state(tmp_path, n, length, kappa, s):
    """The largest s, in steps of 1/2, that the load rule accepts on n
    points still measures a smooth state, not its roundoff: the weighted
    norm of the mode-1 ``single_mode`` state matches its exact value.  Half
    a step more is refused.  The rule is scale free: at period 1 and at
    kappa 100 the largest weight passes 1/eps^2 at the accepted s, since
    the lowest mode's weight grows with it."""

    def load(s):
        raw = small_run(str(tmp_path), grid={"n": n, "length": length},
                        params={"kappa": kappa, "s": s})
        return config_from_dict(raw)

    with pytest.raises(ConfigError, match=rf"^params\.s = {s + 0.5:g} is too large: "):
        load(s + 0.5)
    state = load(s).initial_state()
    # eta = v = 0.05 cos(xi x), xi = 2 pi / L: coefficients sqrt(L) 0.05 / 2
    # at k = +-1, weighted by <xi>^(2s-1) (1 + kappa xi^2) and xi / tanh xi.
    xi = 2.0 * math.pi / length
    weight = (1.0 + xi**2) ** (s - 0.5) * (1.0 + kappa * xi**2 + xi / math.tanh(xi))
    exact = math.sqrt(length * 0.05**2 / 2.0 * weight)
    assert weighted_pair_norm(state, s, kappa) == pytest.approx(exact, rel=1e-4)
