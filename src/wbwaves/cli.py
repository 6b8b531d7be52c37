"""Command-line entry points: run, study, describe.

Exit codes: 0 success (for ``study``: the pass criterion holds), 1 config
or usage error, an output that cannot be written, a Duhamel iteration
that does not contract or an allocation that fails, 2 blow-up
detected during a run or in a study's sweep member.  Every run writes
``run_summary.json`` with status ``ok``, ``blowup`` or ``no_contraction``,
its number of steps, the effective dt (T over the steps, at most the
configured dt) and ``above_band_share``, the share of the initial weighted
norm squared above the 2/3 band that the solver drops, and a
``picard_duhamel`` run its iterations, the defect of
each sweep and the contraction estimate; a study whose member blows up
writes ``<study>.json`` with status ``blowup``, and one whose Duhamel solve
does not contract writes it with status ``no_contraction``, the member and
the solve's Picard fields.
Environment override: WB_OUTPUT_DIR replaces the configured output directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, replace

from .config import ConfigError, RunConfig, load_config, output_header
from .dynamics import (BlowUpError, PicardError, _horizon, above_band_share,
                       contraction_estimate, evolve)
from .experiments import (
    conservation_check,
    dissipation_test,
    inequality_study,
    invariant_region_test,
    kappa_limit_study,
    mu_limit_study,
    small_data_family,
    stability_test,
)
from .typed import bind


def _open_output(path, mode="w"):
    """Open an output file for writing, making its directory on first use, so
    a command rejected before it writes anything leaves no directory; an
    output that cannot be written is a ConfigError naming it."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, config, rows):
    """Write dict rows under the config's provenance line: the columns are
    the union of the rows' keys in first-seen order, numbers with 17
    significant digits, strings as is, missing cells empty."""
    cols = list(dict.fromkeys(key for row in rows for key in row))

    def cell(v):
        return v if isinstance(v, str) else format(float(v), ".17g")

    with _open_output(path) as fh:
        fh.write(output_header(config) + "\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(cell(row[c]) if c in row else "" for c in cols) + "\n")


def _write_json(path, config, payload):
    # Strict JSON has no NaN or Infinity: reading the payload back with those
    # constants mapped to None writes them as null.
    payload = json.loads(
        json.dumps({"config": config.config_hash(), **payload}, default=float),
        parse_constant=lambda name: None,
    )
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _picard_summary(defects):
    return {"iterations": len(defects), "defects": defects,
            "contraction_estimate": contraction_estimate(defects)}


def _snapshot_writer(outdir):
    """A ``keep`` for ``evolve`` that writes each reported state it is given
    to the next ``snap_<i>.wbsnap`` of ``outdir``, i from 0, and keeps
    nothing."""
    from .snapshot import write_snapshot

    count = itertools.count()

    def keep(state):
        with _open_output(os.path.join(outdir, f"snap_{next(count):05d}.wbsnap"), "wb") as fh:
            write_snapshot(fh, state)

    return keep


def _plan(config: RunConfig, u0):
    """The plan ``run_summary.json`` records and ``describe`` prints: the
    number of steps, the effective dt and the share of ``u0`` above the 2/3
    band.  The reported steps are not walked, so a tiny cadence costs nothing."""
    steps, dt, _ = _horizon(config.T, config.integrator.dt, config.report_every)
    return {"steps": steps, "dt": dt, "above_band_share": above_band_share(u0, config.params)}


def cmd_run(config: RunConfig) -> int:
    outdir = config.resolved_output_dir()
    u0 = config.initial_state()
    plan = _plan(config, u0)
    # The run holds no state: a reported one is written as its snapshot, if
    # any, and dropped.
    keep = _snapshot_writer(outdir) if config.snapshots else lambda state: None
    try:
        result = evolve(u0, config.params, config.integrator, config.T, config.report_every,
                        keep=keep)
    except PicardError as exc:
        summary = {"status": "no_contraction", **plan, **_picard_summary(exc.defects)}
        _write_json(os.path.join(outdir, "run_summary.json"), config, summary)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # The first node is always reported, so the header is every report field.
    rows = [asdict(rep) for rep in result.reports]
    _write_csv(os.path.join(outdir, "energy.csv"), config, rows)
    summary = {
        "status": "blowup" if result.blown_up else "ok",
        **plan,
        "final_time": result.times[-1],
    }
    if result.blown_up:
        summary["blowup_time"] = result.blowup_time
    if result.defects is not None:
        summary.update(_picard_summary(result.defects))
    _write_json(os.path.join(outdir, "run_summary.json"), config, summary)
    if result.blown_up:
        print(f"blow-up detected at t={result.blowup_time:g}", file=sys.stderr)
        return 2
    return 0


def _family(c, count, epsilon, band):
    return small_data_family(c.grid, c.params.kappa, count=count, epsilon=epsilon, seed=c.seed,
                             band=band)


def _kappa_limit(c, values=(1e-1, 1e-2, 1e-3, 1e-4)):
    return kappa_limit_study(c, values)


def _mu_limit(c, values=(1e-1, 1e-2, 1e-3), r=None):
    return mu_limit_study(c, values, r)


def _invariant_region(c, count=10, epsilon=None, band=6, mu=0.2):
    family = _family(c, count, epsilon, band)
    return invariant_region_test(family, replace(c.params, mu=mu), c.T, c.integrator,
                                 epsilon=epsilon, report_every=c.report_every)


def _dissipation(c, count=10, epsilon=None, band=6, mu=0.2, delta=0.1):
    family = _family(c, count, epsilon, band)
    return dissipation_test(family, replace(c.params, mu=mu, p=1.0), c.T, c.integrator,
                            delta=delta, report_every=c.report_every)


def _stability(c, sizes=(1e-2, 1e-3, 1e-4), r=0.5):
    return stability_test(c.initial_state(), sizes, r, c.params, c.T, c.integrator,
                          seed=c.seed, report_every=c.report_every)


def _inequalities(c, count=8):
    return inequality_study(c.grid, count, c.seed)


def _conservation(c):
    return conservation_check(c.initial_state(), c.params, c.T, c.integrator,
                              report_every=c.report_every)


# name -> (runner(config, **options), output-file suffix).  A study's options
# are its runner's keyword parameters, with their defaults.  The runners look
# the study functions up in this module at call time, so wrappers installed on
# this module's names (bench/launch.py, bench/tracer.py) see them.
STUDIES = {
    "kappa_limit": (_kappa_limit, "_kappa"),
    "mu_limit": (_mu_limit, "_mu"),
    "invariant_region": (_invariant_region, "_datum"),
    "dissipation": (_dissipation, "_datum"),
    "stability": (_stability, "_size"),
    "inequalities": (_inequalities, ""),
    "conservation": (_conservation, ""),
}


def cmd_study(name: str, config: RunConfig) -> int:
    if name not in STUDIES:
        print(
            f"unknown study {name!r}; valid names: {', '.join(STUDIES)}",
            file=sys.stderr,
        )
        return 1
    runner, suffix = STUDIES[name]
    options = bind(runner, config.study, "study", skip=1)
    outdir = config.resolved_output_dir()
    try:
        report = runner(config, **options)
    except BlowUpError as exc:
        summary = {"study": name, "status": "blowup", "pass": False,
                   "member": exc.member, "blowup_time": exc.time}
        _write_json(os.path.join(outdir, name + ".json"), config, summary)
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    except PicardError as exc:
        summary = {"study": name, "status": "no_contraction", "pass": False,
                   "member": exc.member, **_picard_summary(exc.defects)}
        _write_json(os.path.join(outdir, name + ".json"), config, summary)
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    base = os.path.join(outdir, name + suffix)
    if report.rows:
        _write_csv(base + ".csv", config, report.rows)
    _write_json(base + ".json", config, report.summary())
    return 0 if report.passed else 1


def cmd_describe(config: RunConfig) -> int:
    grid, params, integrator = config.grid, config.params, config.integrator
    state = config.initial_state()
    plan = _plan(config, state)
    lines = [
        f"system: {config.system} ({grid.dim}D)",
        f"grid: n={grid.n} length={tuple(round(L, 12) for L in grid.length)}",
        f"params: kappa={params.kappa:g} mu={params.mu:g} p={params.p:g} s={params.s:g}",
        f"integrator: {integrator.method} dt={integrator.dt:g}",
        f"horizon: T={config.T:g} report_every={config.report_every:g}",
        f"plan: {plan['steps']} steps of dt={plan['dt']!r}",
    ]
    if "snapshot" in config.initial_data:
        lines.append(f"initial data: snapshot {config.initial_data['snapshot']} "
                     f"time={state.time:g}")
    else:
        preset = dict(config.initial_data)
        name = preset.pop("preset")
        args = ", ".join(f"{k}={v}" for k, v in sorted(preset.items()))
        lines.append(f"initial data: {name}({args})")
    band = tuple(grid.dealias_band(j) for j in range(grid.dim))
    lines.append(f"band: |k| <= {band[0] if grid.dim == 1 else band} per axis, "
                 f"dropping {plan['above_band_share']:.3g} of the initial weighted norm^2")
    lines.append(f"output: {config.resolved_output_dir()} (config {config.config_hash()})")
    print("\n".join(lines))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="wbwaves",
        description="Pseudospectral Whitham-Boussinesq solver and verification studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate a configured system")
    p_run.add_argument("config")
    p_study = sub.add_parser("study", help="run a named verification study")
    p_study.add_argument("name")
    p_study.add_argument("config")
    p_desc = sub.add_parser("describe", help="print the resolved plan, no side effects")
    p_desc.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "study":
            return cmd_study(args.name, config)
        return cmd_describe(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
