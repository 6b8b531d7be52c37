"""wbwaves benchmark: time one workload through the real CLI, check its output.

Usage (from the repository root):

    python3 bench/run.py --workload run1d --seed 3 --seconds 28 --trace 0

Each workload is a ``wbwaves`` command on a config generated from the seed
(a committed ``configs/`` file, or a spec below, with only ``seed`` and
``output_dir`` replaced).  The command runs in a fresh single-threaded
process, one after another (closed loop), until ``--seconds`` have passed.
Every run's output is checked against the acceptance tolerances of the test
suite; a run that fails its check counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are measured (tracing off).  With
``--trace 1`` at least two traced runs alternate with as many untraced ones;
the traced runs give the per-layer metrics and must repeat every count
exactly, and their median wall time over that of the untraced ones gives
the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every run leaves a fuller
record (samples, spread, checks, machine facts) under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_runs"
DEADLINE_S = 165.0  # the whole invocation must end within 180 s

# Acceptance tolerances, as pinned in tests/test_acceptance.py.
DRIFT_TOL_1D = 1e-8   # criterion 01: H and I drift on the reference run
DRIFT_TOL_2D = 1e-7   # criterion 10: H drift on the 2D run
PICARD_TOL = 1e-6     # criterion 08: Duhamel fixed point vs direct RK4


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Output checks


def _energy_rows(outdir):
    with open(outdir / "energy.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _summary_ok(outdir, config):
    summary = json.loads((outdir / "run_summary.json").read_text())
    final = summary.get("final_time", 0.0)
    if summary.get("status") != "ok" or abs(final - config["T"]) > 1e-9 * config["T"]:
        return f"summary {summary.get('status')} at t={final}"
    return None


def _drift(series, scale):
    return max(abs(x - series[0]) for x in series) / scale


def check_conservation(outdir, config, reference):
    """Criteria 01 (1D: H and I) and 10 (2D: H) on the written energy.csv."""
    problem = _summary_ok(outdir, config)
    if problem:
        return problem
    rows = _energy_rows(outdir)
    h = [r["hamiltonian"] for r in rows]
    if config["system"] == "wb2d":
        drift = _drift(h, abs(h[0]))
        return None if drift <= DRIFT_TOL_2D else f"H drift {drift:.2e} > {DRIFT_TOL_2D}"
    m = [r["momentum"] for r in rows]
    dh, dm = _drift(h, abs(h[0])), _drift(m, 1.0 + abs(m[0]))
    if dh <= DRIFT_TOL_1D and dm <= DRIFT_TOL_1D:
        return None
    return f"H drift {dh:.2e}, I drift {dm:.2e} (tol {DRIFT_TOL_1D})"


def check_dissipation(outdir, config, reference):
    """Criterion 05: the study passes with no datum skipped."""
    summary = json.loads((outdir / "dissipation_datum.json").read_text())
    count = config["study"]["count"]
    if summary.get("pass") is True and summary.get("skipped") == 0 and summary.get("rows") == count:
        return None
    return f"study summary {summary}"


def check_picard(outdir, config, reference):
    """Criterion 08: final H and weighted norm match a direct RK4 run."""
    problem = _summary_ok(outdir, config)
    if problem:
        return problem
    if reference is None:
        return "reference_rk4 run failed"
    final = _energy_rows(outdir)[-1]
    for key in ("hamiltonian", "weighted_norm"):
        rel = abs(final[key] - reference[key]) / abs(reference[key])
        if not rel <= PICARD_TOL:
            return f"final {key} differs from reference_rk4 by {rel:.2e} (tol {PICARD_TOL})"
    return None


# ---------------------------------------------------------------------------
# Workloads


def _steps(config):
    dt = config["integrator"]["dt"]
    return max(1, math.ceil(config["T"] / dt - 1e-9))


def _points(config):
    n = config["grid"]["n"]
    return n * n if config["system"] == "wb2d" else n


def _fields(config):
    return 3 if config["system"] == "wb2d" else 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple            # wbwaves arguments before the config path
    base: Callable[[], dict]  # the config before seed and output_dir are set
    check: Callable
    members: Callable[[dict], int]    # independent runs one command integrates
    resident: Callable[[dict], int]   # state copies alive at once

    def work(self, config):
        """Grid points x delivered time steps, summed over members."""
        return _points(config) * _steps(config) * self.members(config)

    def state_bytes(self, config):
        """Computed bytes of the complex coefficient arrays held at once."""
        return _fields(config) * _points(config) * 16 * self.resident(config)


def _committed(name):
    def load():
        return json.loads((ROOT / "configs" / name).read_text())

    return load


def _spec(**raw):
    return lambda: json.loads(json.dumps(raw))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run1d",
            "1D n=256, 10k ERK4 steps: per-call overhead bound (16 small FFTs and ~100 numpy "
            "calls per step); shows what a bigger-array optimisation costs small arrays",
            ("run",),
            _committed("reference_run.json"),
            check_conservation,
            members=lambda c: 1,
            resident=lambda c: 1,
        ),
        Workload(
            "run2d",
            "2D 128^2, 1k ERK4 steps: FFT- and bandwidth-bound; rfft storage and symbol-table "
            "changes show here",
            ("run",),
            _committed("wb2d_run.json"),
            check_conservation,
            members=lambda c: 1,
            resident=lambda c: 1,
        ),
        Workload(
            "study_dissipation",
            "dissipation study, 20 independent 1D runs with dense energy sampling: the "
            "ensemble path of experiments and the only workload where functionals is busy",
            ("study", "dissipation"),
            _spec(
                system="wb1d", grid={"n": 256}, params={"kappa": 1.0, "s": 0.5},
                initial_data={"preset": "random_bandlimited", "band": 6, "amplitude": 0.05},
                integrator={"dt": 2.5e-3}, T=2.5, report_every=0.01,
                output_dir="out", seed=0,
                study={"count": 10, "mu": 0.2, "delta": 0.1},
            ),
            check_dissipation,
            members=lambda c: 2 * c["study"]["count"],  # viscous run + mu=0 control
            resident=lambda c: 1,
        ),
        Workload(
            "picard",
            "Duhamel fixed point, 400 nodes at 1D n=128: the only workload that runs the "
            "Picard solver and fills the unbounded propagator cache",
            ("run",),
            _spec(
                system="wb1d_regularized", grid={"n": 128},
                params={"kappa": 1.0, "mu": 0.1, "s": 1.0},
                # At amplitude 0.05 about one seed in ten needs a fifth sweep,
                # which would make the work depend on the seed; 0.04 keeps 4.
                initial_data={"preset": "random_bandlimited", "band": 6, "amplitude": 0.04},
                integrator={"method": "picard_duhamel", "dt": 2e-3},
                T=0.8, report_every=0.1, output_dir="out", seed=0,
            ),
            check_picard,
            members=lambda c: 1,
            # A sweep holds four node trajectories at once: free, u, forcing, new_u.
            resident=lambda c: 4 * (_steps(c) + 1),
        ),
    )
}


# ---------------------------------------------------------------------------
# Metrics

# name, unit, better, bound (share of the parent's median); a run reports the
# median over its commands.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("point_steps_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _span(name, field):
    return lambda t: t["spans"].get(name, (0, 0.0, 0.0))[field]


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _hit_ratio(t):
    lookups = _span("dynamics.propagator_lookup", 0)(t)
    return 1.0 - _span("dynamics.propagator_build", 0)(t) / lookups if lookups else 0.0


# name, unit, better, how to read it from one traced run
PER_LAYER = (
    ("spectral.fft_calls", "count", "lower", _span("spectral.fft", 0)),
    ("spectral.fft_s", "s", "lower", _span("spectral.fft", 1)),
    ("spectral.fft_bytes_computed", "B", "lower", _count("spectral.fft_bytes_computed")),
    ("spectral.from_coeffs_calls", "count", "lower", _span("spectral.from_coeffs", 0)),
    ("spectral.from_coeffs_s", "s", "lower", _span("spectral.from_coeffs", 1)),
    ("dynamics.step_calls", "count", "lower", _span("dynamics.step", 0)),
    ("dynamics.step_s", "s", "lower", _span("dynamics.step", 1)),
    ("dynamics.step_self_s", "s", "lower", _span("dynamics.step", 2)),
    ("dynamics.nonlinear_calls", "count", "lower", _span("dynamics.nonlinear", 0)),
    ("dynamics.nonlinear_s", "s", "lower", _span("dynamics.nonlinear", 1)),
    ("dynamics.propagator_apply_calls", "count", "lower", _span("dynamics.propagator_apply", 0)),
    ("dynamics.propagator_apply_s", "s", "lower", _span("dynamics.propagator_apply", 1)),
    ("dynamics.propagator_lookups", "count", "lower", _span("dynamics.propagator_lookup", 0)),
    ("dynamics.propagator_builds", "count", "lower", _span("dynamics.propagator_build", 0)),
    ("dynamics.propagator_hit_ratio", "ratio", "higher", _hit_ratio),
    ("dynamics.cached_propagators", "count", "lower", _count("dynamics.cached_propagators")),
    ("dynamics.ops_builds", "count", "lower", _span("dynamics.ops_build", 0)),
    ("dynamics.ops_build_s", "s", "lower", _span("dynamics.ops_build", 1)),
    ("dynamics.evolve_calls", "count", "lower", _span("dynamics.evolve", 0)),
    ("dynamics.evolve_s", "s", "lower", _span("dynamics.evolve", 1)),
    ("dynamics.picard_iterations", "count", "lower", _count("dynamics.picard_iterations")),
    ("dynamics.picard_s", "s", "lower", _span("dynamics.picard", 1)),
    (
        "dynamics.picard_sweep_s", "s", "lower",
        _ratio(_count("dynamics.picard_sweep_s"), _count("dynamics.picard_iterations")),
    ),
    ("functionals.report_calls", "count", "lower", _span("functionals.report", 0)),
    ("functionals.report_s", "s", "lower", _span("functionals.report", 1)),
    ("state.weighted_norm_calls", "count", "lower", _span("state.weighted_norm", 0)),
    ("state.weighted_norm_s", "s", "lower", _span("state.weighted_norm", 1)),
    ("experiments.study_s", "s", "lower", _span("experiments.study", 1)),
    ("experiments.self_s", "s", "lower", _span("experiments.study", 2)),
    ("config.load_s", "s", "lower", _span("config.load", 1)),
    ("presets.initial_state_s", "s", "lower", _span("presets.initial_state", 1)),
    ("cli.write_s", "s", "lower", _span("cli.write", 1)),
    ("cli.bytes_written", "B", "lower", _count("cli.bytes_written")),
)
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")

# Per-call means of the ad-hoc baseline in ROADMAP.md, in microseconds
# (2 cores, numpy 2.4 pocketfft); traced means are compared against them.
ROADMAP_US = {
    "run1d": {"dynamics.step": 506, "dynamics.nonlinear": 94,
              "dynamics.propagator_apply": 12, "spectral.fft": 15,
              "functionals.report": 462},
    "run2d": {"dynamics.step": 16900, "dynamics.nonlinear": 3100,
              "dynamics.propagator_apply": 320, "spectral.fft": 250,
              "functionals.report": 9900},
}


def spec_document():
    """The BENCHMARK.json describing this benchmark."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 28,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ] + [{"name": OVERHEAD[0], "unit": OVERHEAD[1], "better": OVERHEAD[2]}],
    }


# ---------------------------------------------------------------------------
# Running one command


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for name in ("WB_THREADS", "WB_OUTPUT_DIR"):
        env.pop(name, None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def spawn(args, mode, rundir, deadline):
    """Run launch.py in ``mode`` on ``args``; return timings, rusage and its record."""
    record_path = rundir / "launch.json"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launch.py"), str(record_path), mode, "--", *args]
    with open(rundir / "command.log", "wb") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        start = clock()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - clock()))
        end = clock()
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    if not ready:
        raise BenchError(f"{' '.join(args)} did not finish before the deadline")
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": end - start,
        "setup_s": record["setup_mark"] - start if "setup_mark" in record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "trace": record.get("trace"),
    }


# Host speed.  On a shared host the same command's wall and CPU time move by
# up to 2x, in phases of seconds to minutes, because the host lends the core
# to others.  A probe of fixed numpy work therefore runs on the same core
# before and after every batch of launches, and each batch's times are
# rescaled by the mean of its two probes to the host speed at which the probe
# takes PROBE_NOMINAL_S.  The probe mixes
# 256-point and 128^2 FFTs with small array updates, the operations the
# workloads are made of.
PROBE_NOMINAL_S = 0.3
# Set-up is about 0.2 s and noisier than whole commands, so a run starts with
# this many launches that stop as soon as set-up ends.
SETUP_LAUNCHES = 8


def probe():
    import numpy as np

    small = np.linspace(0.0, 1.0, 256) + 0j
    large = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128) + 0j
    start = clock()
    for _ in range(8):
        for _ in range(750):
            np.fft.ifft(np.fft.fft(small) * 1.0001) * 0.5 + small
        for _ in range(28):
            np.fft.ifft2(np.fft.fft2(large) * 1.0001) * 0.5 + large
    return clock() - start


class Runner:
    """One benchmark invocation: a workload, a seed and its run directory."""

    def __init__(self, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.deadline = started + DEADLINE_S
        self.rundir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.outdir = self.rundir / "out"
        self.config = dict(workload.base(), seed=seed, output_dir=str(self.outdir))
        self.config_path = self.rundir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.reference = None
        self.samples = []
        self.probes = []

    def prepare(self):
        """Untimed: the direct RK4 run the Picard output is checked against."""
        if self.workload.check is not check_picard:
            return
        ref_dir = self.rundir / "reference"
        config = dict(self.config, output_dir=str(ref_dir))
        config["integrator"] = dict(config["integrator"], method="reference_rk4")
        path = self.rundir / "reference.json"
        path.write_text(json.dumps(config, indent=2))
        result = spawn(("run", str(path)), "run", self.rundir, self.deadline)
        if result["exit_code"] == 0 and _summary_ok(ref_dir, config) is None:
            self.reference = _energy_rows(ref_dir)[-1]

    def launch(self, mode):
        """One launch of the workload command; whole commands are checked."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        args = (*self.workload.command, str(self.config_path))
        sample = spawn(args, mode, self.rundir, self.deadline)
        sample["mode"] = mode
        problem = f"exit code {sample['exit_code']}" if sample["exit_code"] != 0 else None
        if problem is None and mode != "setup":
            try:
                problem = self.workload.check(self.outdir, self.config, self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"output unreadable: {exc!r}"
        if sample["setup_s"] is None:
            problem = problem or "initial state never built"
        sample["problem"] = problem
        return sample

    def run(self, mode, launches=1):
        """Launches between two host-speed probes, their times rescaled by them."""
        if not self.probes:
            self.probes.append(probe())
        batch = [self.launch(mode) for _ in range(launches)]
        self.probes.append(probe())
        slowdown = (self.probes[-2] + self.probes[-1]) / (2 * PROBE_NOMINAL_S)
        for sample in batch:
            sample["host_slowdown"] = slowdown
            for name in ("wall_s", "setup_s", "cpu_s"):
                raw = sample["raw_" + name] = sample[name]
                if raw is not None:
                    sample[name] = raw / slowdown
            if sample["problem"] is None and mode != "setup":
                sample["point_steps_per_s"] = self.workload.work(self.config) / (
                    sample["wall_s"] - sample["setup_s"]
                )
        self.samples.extend(batch)


# ---------------------------------------------------------------------------
# Statistics and records


def spread(values):
    """Median, quartiles and (Q3 - Q1) / median of a list of samples."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "iqr_frac": (q3 - q1) / med if med else None,
    }


def layer_values(trace):
    return {name: read(trace) for name, _, _, read in PER_LAYER}


def machine_record(workload, config):
    import numpy as np

    model = llc = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and model is None:
                    model = value
                elif key == "cache size" and llc is None:
                    llc = int(value.split()[0]) * 1024 if value.endswith("KB") else value
    except OSError:
        pass
    commit = None  # a checkout exported without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    state_bytes = workload.state_bytes(config)
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "cpu_model": model or platform.processor() or None,
        "llc_bytes": llc,
        "commit": commit,
        "state_bytes_computed": state_bytes,
        "state_over_llc": state_bytes / llc if isinstance(llc, int) and llc else None,
    }


def baseline_comparison(workload, trace):
    """Traced per-call means beside the ROADMAP baseline; >2x off is flagged."""
    rows = {}
    for span, base_us in ROADMAP_US.get(workload, {}).items():
        calls, busy, _ = trace["spans"].get(span, (0, 0.0, 0.0))
        mean_us = 1e6 * busy / calls if calls else None
        ratio = mean_us / base_us if mean_us else None
        rows[span] = {
            "traced_mean_us": mean_us, "roadmap_us": base_us, "ratio": ratio,
            "flag_over_2x": ratio is None or not (0.5 <= ratio <= 2.0),
        }
    return rows


def measure(workload, seed, seconds, trace, started):
    runner = Runner(workload, seed, started)
    runner.prepare()
    loop_start = clock()
    runner.run("setup", SETUP_LAUNCHES)
    # Traced runs alternate with untraced ones, so that host drift hits both
    # sides of the tracing overhead alike.
    modes = ("run", "trace") if trace else ("run",)
    rounds = []
    while True:
        round_start = clock()
        for mode in modes:
            runner.run(mode)
        rounds.append(clock() - round_start)
        # At least two rounds for a median; then another only if it should end in time.
        if len(rounds) >= 2 and clock() - loop_start + statistics.mean(rounds) > seconds:
            return runner


def summarize(runner, trace):
    samples = runner.samples
    failed = sum(1 for s in samples if s["problem"])
    # Timings come from launches that passed their check only.
    passed = [s for s in samples if not s["problem"]]
    untraced = [s for s in passed if s["mode"] == "run"]
    stats = {
        name: spread([s.get(name) for s in untraced]) for name, *_ in END_TO_END
    }
    stats["setup_s"] = spread([s["setup_s"] for s in passed if s["mode"] != "trace"])
    record = {
        "host_slowdown": statistics.median(s["host_slowdown"] for s in samples),
        "probe_s": runner.probes,
        "stats": stats,
        "raw_stats": {
            name: spread([s["raw_" + name] for s in untraced]) for name in ("wall_s", "cpu_s")
        },
        "problems": [s["problem"] for s in samples if s["problem"]],
    }
    correct = failed == 0
    if not trace:
        metrics = {
            name: {"value": stats[name]["median"] if stats[name] else 0.0, "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
        return correct, failed, metrics, record

    traced = [s for s in samples if s["mode"] == "trace" and s["trace"]]
    layers = [layer_values(s["trace"]) for s in traced]
    exact = [n for n, u, _, _ in PER_LAYER if u in ("count", "B")]
    diverged = sorted({n for lv in layers[1:] for n in exact if lv[n] != layers[0][n]})
    record["self_check"] = {"traced_runs": len(layers), "diverging_counts": diverged}
    correct = correct and len(layers) >= 2 and not diverged
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        value = statistics.median(lv[name] for lv in layers) if layers else 0.0
        metrics[name] = {"value": value, "unit": unit}
    overhead = 0.0
    if traced and untraced:
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        overhead = traced_wall / stats["wall_s"]["median"] - 1.0
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    if traced:
        record["roadmap_baseline"] = baseline_comparison(runner.workload.name, traced[0]["trace"])
    return correct, failed, metrics, record


def report(runner, args, correct, failed, metrics, record):
    """Human-readable lines, the record file, then the result as the last line."""
    attempted = len(runner.samples)
    units = {n: u for n, u, *_ in END_TO_END}
    for name, st in record["stats"].items():
        if st:
            print(
                f"{runner.workload.name} {name} median {st['median']:.6g} {units[name]} "
                f"n={st['n']} min {st['min']:.6g} q1 {st['q1']:.6g} q3 {st['q3']:.6g} "
                f"max {st['max']:.6g}"
            )
    print(f"{runner.workload.name} host slowdown {record['host_slowdown']:.4f} "
          f"(median over launches; {len(runner.probes)} probes, nominal {PROBE_NOMINAL_S} s)")
    for name, st in record["raw_stats"].items():
        if st:
            print(f"{runner.workload.name} {name} before host-speed rescaling: median "
                  f"{st['median']:.6g} {units[name]} min {st['min']:.6g} max {st['max']:.6g}")
    print(f"{runner.workload.name} failed_frac {failed / attempted:.3f} ({failed}/{attempted})")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for span, row in record.get("roadmap_baseline", {}).items():
        mean = row["traced_mean_us"]
        print(
            f"{runner.workload.name} {span} traced mean "
            f"{'n/a' if mean is None else format(mean, '.4g')} us vs roadmap "
            f"{row['roadmap_us']} us" + ("  ** over 2x **" if row["flag_over_2x"] else "")
        )
    if "self_check" in record:
        print(f"trace self-check: {record['self_check']}")
    machine = machine_record(runner.workload, runner.config)
    print(f"machine: {json.dumps(machine)}")
    full = {
        "workload": runner.workload.name, "why": runner.workload.why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": runner.config, "machine": machine, **record,
        "samples": [{k: v for k, v in s.items() if k != "trace"} for s in runner.samples],
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    record_path = WORK / f"{runner.workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(full, indent=2) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec_document()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()
    # The probe must see the core the commands run on; children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for needed in ("src/wbwaves/cli.py", "configs/reference_run.json", "configs/wb2d_run.json"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found; run from a wbwaves checkout", file=sys.stderr)
            return 2
    try:
        runner = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, started)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    correct, failed, metrics, record = summarize(runner, args.trace)
    shutil.rmtree(runner.rundir, ignore_errors=True)
    report(runner, args, correct, failed, metrics, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
