"""Command-line entry points: run, study, describe.

Exit codes: 0 success (for ``study``: the pass criterion holds), 1 config
or usage error or a Duhamel iteration that does not contract, 2 blow-up
detected during a run or in a study's sweep member.  Every run writes
``run_summary.json`` with status ``ok``, ``blowup`` or ``no_contraction``; a
study whose member blows up writes ``<study>.json`` with status ``blowup``.
Environment override: WB_OUTPUT_DIR replaces the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import STUDIES, ConfigError, RunConfig, load_config, output_header
from .dynamics import BlowUpError, PicardError, evolve
from .experiments import (
    SweepSpec,
    conservation_check,
    dissipation_test,
    invariant_region_test,
    kappa_limit_study,
    mu_limit_study,
    small_data_family,
    stability_test,
)
from .functionals import EnergyReport
from .inequalities import (
    brezis_gallouet_report,
    kato_ponce_report,
    leibniz_report,
    symbol_chain_report,
    trilinear_report,
)
from .presets import random_bandlimited
from .state import Params


def _ensure_outdir(config: RunConfig):
    outdir = config.resolved_output_dir()
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _write_csv(path, config, header_row, rows):
    with open(path, "w") as fh:
        fh.write(output_header(config) + "\n")
        fh.write(header_row + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_json(path, config, payload):
    payload = {"config": config.config_hash(), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def cmd_run(config: RunConfig) -> int:
    outdir = _ensure_outdir(config)
    grid = config.grid()
    u0 = config.initial_state(grid)
    spec = config.system_spec()
    cfg = config.integrator()
    try:
        result = evolve(u0, spec, cfg, config.T, config.report_every)
    except PicardError as exc:
        summary = {"status": "no_contraction", "iterations": len(exc.defects),
                   "defects": exc.defects, "contraction_estimate": exc.contraction}
        _write_json(os.path.join(outdir, "run_summary.json"), config, summary)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [rep.csv_row() for rep in result.reports]
    _write_csv(os.path.join(outdir, "energy.csv"), config, EnergyReport.csv_header(), rows)
    if config.snapshots:
        from .snapshot import write_snapshot

        for i, state in enumerate(result.trajectory.states):
            write_snapshot(os.path.join(outdir, f"snap_{i:05d}.wbsnap"), state)
    summary = {
        "status": "blowup" if result.blown_up else "ok",
        "final_time": result.trajectory.times[-1] if result.trajectory.times else 0.0,
    }
    if result.blown_up:
        summary["blowup_time"] = result.blowup_time
    _write_json(os.path.join(outdir, "run_summary.json"), config, summary)
    if result.blown_up:
        print(f"blow-up detected at t={result.blowup_time:g}", file=sys.stderr)
        return 2
    return 0


def _study_rows_json(config, outdir, name, sweep_param, points, summary):
    base = f"{name}_{sweep_param}" if sweep_param else name
    if points:
        cols = list(points[0].keys())
        rows = [",".join(format(float(pt[c]), ".17g") for c in cols) for pt in points]
        _write_csv(os.path.join(outdir, base + ".csv"), config, ",".join(cols), rows)
    _write_json(os.path.join(outdir, base + ".json"), config, summary)


def cmd_study(name: str, config: RunConfig) -> int:
    if name not in STUDIES:
        print(
            f"unknown study {name!r}; valid names: {', '.join(STUDIES)}",
            file=sys.stderr,
        )
        return 1
    outdir = _ensure_outdir(config)
    if name == "inequalities":
        return _run_inequalities(config, outdir)
    try:
        report, sweep_param, points = _run_study(name, config)
    except BlowUpError as exc:
        summary = {"study": name, "status": "blowup", "pass": False,
                   "member": exc.member, "blowup_time": exc.time}
        _write_json(os.path.join(outdir, name + ".json"), config, summary)
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    _study_rows_json(config, outdir, name, sweep_param, points, report.summary())
    return 0 if report.passed else 1


def _run_study(name: str, config: RunConfig):
    """Run one study; returns its report, the swept quantity and the raw points."""
    opt = config.study
    if name == "kappa_limit":
        values = opt.get("values", [1e-1, 1e-2, 1e-3, 1e-4])
        sweep = SweepSpec(config, "kappa", tuple(values), opt.get("comparison_norm"))
        report = kappa_limit_study(sweep)
        return report, "kappa", report.extra.get("points", [])

    if name == "mu_limit":
        values = opt.get("values", [1e-1, 1e-2, 1e-3])
        report = mu_limit_study(SweepSpec(config, "mu", tuple(values)))
        points = [{"mu": m, "error": e} for m, e in zip(report.param_values, report.errors)]
        return report, "mu", points

    if name in ("invariant_region", "dissipation"):
        family = small_data_family(
            config.grid(),
            config.kappa,
            count=int(opt.get("count", 10)),
            epsilon=opt.get("epsilon"),
            seed=config.seed,
            band=int(opt.get("band", 6)),
        )
        mu = float(opt.get("mu", 0.2))
        if name == "invariant_region":
            params = Params(kappa=config.kappa, mu=mu, p=config.p, s=config.s)
            report = invariant_region_test(
                family, params, config.T, config.integrator(),
                epsilon=opt.get("epsilon"), report_every=config.report_every,
            )
        else:
            params = Params(kappa=config.kappa, mu=mu, p=1.0, s=config.s)
            report = dissipation_test(
                family, params, config.T, config.integrator(),
                delta=float(opt.get("delta", 0.1)), report_every=config.report_every,
            )
        points = [
            {k: v for k, v in row.items() if isinstance(v, (int, float, bool))}
            for row in report.rows
        ]
        return report, "datum", points

    if name == "stability":
        sizes = [float(v) for v in opt.get("sizes", [1e-2, 1e-3, 1e-4])]
        r = float(opt.get("r", 0.5))
        report = stability_test(
            config.initial_state(), sizes, r, config.params(), config.T,
            config.integrator(), seed=config.seed, report_every=config.report_every,
        )
        points = [{"size": s_, "sup_energy": e} for s_, e in zip(report.sizes, report.sup_energies)]
        return report, "size", points

    if name == "conservation":
        report = conservation_check(
            config.initial_state(), config.params(), config.T, config.integrator(),
            report_every=config.report_every,
        )
        return report, "", report.rows

    raise AssertionError(name)


def _run_inequalities(config: RunConfig, outdir) -> int:
    grid = config.grid()
    if grid.dim != 1:
        raise ConfigError("the inequalities study runs on a 1D grid")
    chain = symbol_chain_report(grid)
    count = int(config.study.get("count", 8))
    states = [
        random_bandlimited(grid, seed=config.seed + i, band=6, amplitude=0.5)
        for i in range(count)
    ]
    pairs = [(st.eta, st.v) for st in states]
    triples = [(st.eta, st.v, st.eta) for st in states]
    singles = [st.v for st in states]
    reports = {
        "kato_ponce": kato_ponce_report(pairs),
        "leibniz": leibniz_report(pairs),
        "trilinear": trilinear_report(triples),
        "brezis_gallouet": brezis_gallouet_report(singles),
    }
    points = []
    for which, rep in reports.items():
        for i, sample in enumerate(rep.samples):
            points.append(
                {
                    "check": which,
                    "sample": i,
                    "lhs": sample["lhs"],
                    "rhs": sample["rhs"],
                    "ratio": sample["ratio"],
                }
            )
    ok = chain.ok and all(rep.all_finite for rep in reports.values())
    summary = {
        "study": "inequalities",
        "pass": bool(ok),
        "symbol_chain": {
            "checked": chain.checked,
            "passed": chain.passed,
            "max_violation_ulp": chain.max_violation_ulp,
        },
        **{f"{k}_max_ratio": rep.max_ratio for k, rep in reports.items()},
    }
    cols = ["check", "sample", "lhs", "rhs", "ratio"]
    rows = [
        pt["check"] + "," + ",".join(format(float(pt[c]), ".17g") for c in cols[1:])
        for pt in points
    ]
    _write_csv(os.path.join(outdir, "inequalities.csv"), config, ",".join(cols), rows)
    _write_json(os.path.join(outdir, "inequalities.json"), config, summary)
    return 0 if ok else 1


def cmd_describe(config: RunConfig) -> int:
    grid = config.grid()
    params = config.params()
    lines = [
        f"system: {config.system} ({grid.dim}D)",
        f"grid: n={grid.n} length={tuple(round(L, 12) for L in grid.length)}",
        f"params: kappa={params.kappa:g} mu={params.mu:g} p={params.p:g} s={params.s:g}",
        f"integrator: {config.method} dt={config.dt:g}",
        f"dealias: {'on' if config.dealias else 'off'}",
        f"horizon: T={config.T:g} report_every={config.report_every:g}",
    ]
    symbols = ["-i*tanh(xi)", f"-i*tanh(xi)*(1+{params.kappa:g}*xi^2)", "K_kappa", "K_kappa^-1"]
    if config.regularized:
        symbols.append(f"exp(-{params.kappa * params.mu:g}*t*|xi|^{params.p:g})")
    if grid.dim == 2:
        symbols = ["K^2*grad", "K^2*div", "K_kappa", "K_kappa^-1"]
        lines.append("curl-free projection: active")
    lines.append("symbols: " + ", ".join(symbols))
    fields = 1 + grid.dim
    work_arrays = 12  # state + stages + propagator tables, rough upper bound
    mem = int(np.prod(grid.n)) * 16 * fields * work_arrays
    lines.append(f"estimated working memory: {mem / 1e6:.1f} MB")
    if "snapshot" in config.initial_data:
        from .snapshot import read_header

        head = read_header(config.initial_data["snapshot"])
        lines.append(
            f"initial data: snapshot dim={head['dim']} n={head['n']} "
            f"length={head['length']} time={head['time']:g}"
        )
    else:
        preset = dict(config.initial_data)
        name = preset.pop("preset")
        args = ", ".join(f"{k}={v}" for k, v in sorted(preset.items()))
        lines.append(f"initial data: {name}({args})")
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


if __name__ == "__main__":
    sys.exit(main())
