"""Write the golden records of tests/test_golden.py, or measure a rerun
against them.

Usage (from the repository root):

    python3 tests/golden/make_golden.py            # rewrite every record
    python3 tests/golden/make_golden.py --check    # write nothing; print moves

Each case is one ``wbwaves`` command on a small config.  Its record holds the
exit code and every output file the command writes: a CSV as its header and
cell strings (the ``#`` provenance line, which carries the config hash, is
left out), a JSON summary as its payload without the ``config`` hash.  Rerun
this script when a change moves an output number on purpose; the diff of the
records is then the record of what moved.  ``--check`` prints, for each
record, the largest move of any number and every value outside its bound,
by the rule of ``moves`` that tests/test_golden.py applies, and exits 1 if
any value is outside.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_STUDY_BASE = {
    "system": "wb1d",
    "grid": {"n": 64},
    "params": {"kappa": 1.0, "s": 0.5},
    "initial_data": {"preset": "random_bandlimited", "band": 6, "amplitude": 0.05},
    "integrator": {"dt": 5e-3},
    "T": 0.5,
    "report_every": 0.05,
    "seed": 0,
}


def _config_run(name):
    """A ``configs/`` file with its horizon T cut to a tenth."""
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    return dict(raw, T=raw["T"] / 10)


# name -> (wbwaves arguments before the config path, config)
CASES = {
    "study_dissipation": (
        ("study", "dissipation"),
        dict(_STUDY_BASE, study={"count": 4, "mu": 0.2, "delta": 0.1}),
    ),
    "study_invariant_region": (
        ("study", "invariant_region"),
        dict(_STUDY_BASE, study={"count": 4, "mu": 0.2}),
    ),
    "picard": (
        ("run",),
        {
            "system": "wb1d_regularized",
            "grid": {"n": 128},
            "params": {"kappa": 1.0, "mu": 0.1, "s": 1.0},
            "initial_data": {"preset": "random_bandlimited", "band": 6, "amplitude": 0.04},
            "integrator": {"method": "picard_duhamel", "dt": 2e-3},
            "T": 0.2,
            "report_every": 0.1,
            "seed": 0,
        },
    ),
    # stability needs r in (0, s - 1/2], so it runs at s = 1 with r = 1/2.
    "study_stability": (
        ("study", "stability"),
        dict(_STUDY_BASE, params={"kappa": 1.0, "s": 1.0}, study={"r": 0.5}),
    ),
    "study_conservation": (("study", "conservation"), _STUDY_BASE),
    "study_conservation_2d": (
        ("study", "conservation"),
        dict(
            _STUDY_BASE,
            system="wb2d",
            grid={"n": 16},
            params={"kappa": 1.0, "s": 1.0},
            initial_data={"preset": "random_bandlimited", "band": 4, "amplitude": 0.05},
        ),
    ),
    "study_kappa_limit": (
        ("study", "kappa_limit"),
        dict(_STUDY_BASE, study={"values": [0.1, 0.01, 0.001]}),
    ),
    "study_mu_limit": (
        ("study", "mu_limit"),
        dict(_STUDY_BASE, study={"values": [0.1, 0.01, 0.001], "r": 0.5}),
    ),
    "study_inequalities": (("study", "inequalities"), dict(_STUDY_BASE, study={"count": 4})),
    "reference_run": (("run",), _config_run("reference_run")),
    "wb2d_run": (("run",), _config_run("wb2d_run")),
    "kappa_study": (("run",), _config_run("kappa_study")),
}


def _read_output(path: Path):
    if path.suffix == ".csv":
        with open(path) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        return {"header": rows[0], "rows": rows[1:]}
    payload = json.loads(path.read_text())
    payload.pop("config", None)
    return payload


def run_case(name):
    """Run one case in a temporary directory: ``{"exit_code", "files"}``."""
    from wbwaves import cli

    args, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(dict(config, output_dir=str(outdir))))
        code = cli.main([*args, str(config_path)])
        files = {p.name: _read_output(p) for p in sorted(outdir.iterdir())}
    return {"exit_code": code, "files": files}


#: A number may move by this much of the largest magnitude in its column (a
#: CSV column, a JSON list, or the value alone).
REL_TOL = 1e-12
#: The roundoff-level outputs, recorded at about 1e-15 to 1e-6, may instead
#: move by ABS_TOL: four orders below their pass rules of 1e-8 and 1e-7, and
#: far above the moves any change of arithmetic order makes in them.  A run's
#: ``above_band_share`` is one too: the runs' data lie in the 2/3 band, so it
#: reads 0 or the transforms' roundoff (1.6e-23 at most).
ABS_TOL = 1e-12
ABSOLUTE = frozenset({"drift_hamiltonian", "drift_momentum", "control_drift", "slope_residual",
                      "above_band_share"})


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _move(want, got):
    if got == want or (math.isnan(want) and math.isnan(got)):
        return 0.0
    move = abs(got - want)
    return move if math.isfinite(move) else math.inf


def moves(want, got):
    """How a rerun ``got`` of a case differs from its record ``want``: a list
    of (where, move, bound), one per compared value.  A number moves by its
    absolute difference, within ABS_TOL if its column or key is in ABSOLUTE
    and REL_TOL of its column's scale otherwise.  Everything else (exit
    code, file names, CSV headers and row counts, verdicts, statuses, counts
    and nulls) must match exactly: it moves by 0 or inf, within bound 0."""
    found = []

    def exact(where, w, g):
        found.append((where, 0.0 if g == w and type(g) is type(w) else math.inf, 0.0))

    def number(where, key, w, g, scale):
        found.append((where, _move(w, g), ABS_TOL if key in ABSOLUTE else REL_TOL * scale))

    def csv_file(where, w, g):
        exact(f"{where} header", w["header"], g["header"])
        exact(f"{where} rows", len(w["rows"]), len(g["rows"]))
        for j, name in enumerate(w["header"]):
            column = [row[j] for row in w["rows"]]
            values = [v for v in map(_number, column) if v is not None and math.isfinite(v)]
            scale = max(map(abs, values), default=0.0)
            for i, (wc, gc) in enumerate(zip(column, (row[j] for row in g["rows"]))):
                wn, gn = _number(wc), _number(gc)
                if wn is None or gn is None:
                    exact(f"{where} row {i} {name}", wc, gc)
                else:
                    number(f"{where} row {i} {name}", name, wn, gn, scale)

    def json_value(where, key, w, g, scale=None):
        if isinstance(w, dict):
            exact(f"{where} keys", sorted(w), sorted(g) if isinstance(g, dict) else g)
            for k in sorted(w.keys() & (g.keys() if isinstance(g, dict) else set())):
                json_value(f"{where}.{k}", k, w[k], g[k])
        elif isinstance(w, list):
            exact(f"{where} length", len(w), len(g) if isinstance(g, list) else g)
            numbers = [abs(v) for v in w if isinstance(v, float) and math.isfinite(v)]
            column = max(numbers, default=0.0)
            for i, (wi, gi) in enumerate(zip(w, g if isinstance(g, list) else [])):
                json_value(f"{where}[{i}]", key, wi, gi, column)
        elif isinstance(w, float) and isinstance(g, (int, float)) and not isinstance(g, bool):
            number(where, key, w, float(g), abs(w) if scale is None else scale)
        else:
            exact(where, w, g)

    exact("exit_code", want["exit_code"], got["exit_code"])
    exact("files", sorted(want["files"]), sorted(got["files"]))
    for name in sorted(want["files"].keys() & got["files"].keys()):
        w, g = want["files"][name], got["files"][name]
        if name.endswith(".csv"):
            csv_file(name, w, g)
        else:
            json_value(name, None, w, g)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print each record's largest move and every value "
                        "outside its bound")
    args = parser.parse_args()
    if "WB_OUTPUT_DIR" in os.environ:
        raise SystemExit("unset WB_OUTPUT_DIR: it would redirect the cases' outputs")
    outside = 0
    for name in CASES:
        record = run_case(name)
        path = HERE / f"{name}.json"
        if not args.check:
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"{name}: exit {record['exit_code']}, files {', '.join(record['files'])}")
            continue
        found = moves(json.loads(path.read_text()), record)
        where, move, bound = max(found, key=lambda m: m[1])
        if move:
            print(f"{name}: largest move {move:.3g} at {where} (bound {bound:.3g})")
        else:
            print(f"{name}: nothing moved")
        for where, move, bound in found:
            if not move <= bound:
                outside += 1
                print(f"  outside: {where} moved {move:.3g}, bound {bound:.3g}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
