"""Write the golden records of tests/test_golden.py.

Usage (from the repository root):

    python3 tests/golden/make_golden.py

Each case is one ``wbwaves`` command on a small config.  Its record holds the
exit code and every output file the command writes: a CSV as its header and
cell strings (the ``#`` provenance line, which carries the config hash, is
left out), a JSON summary as its payload without the ``config`` hash.  Rerun
this script when a change moves an output number on purpose; the diff of the
records is then the record of what moved.
"""

from __future__ import annotations

import csv
import json
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
        dict(_STUDY_BASE, study={"values": [0.1, 0.01, 0.001], "comparison_norm": "H1xH12"}),
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


def main():
    if "WB_OUTPUT_DIR" in os.environ:
        raise SystemExit("unset WB_OUTPUT_DIR: it would redirect the cases' outputs")
    for name in CASES:
        record = run_case(name)
        (HERE / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit_code']}, files {', '.join(record['files'])}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
