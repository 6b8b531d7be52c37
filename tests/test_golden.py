"""Every output of the golden cases matches its committed record.

The records under tests/golden/ are written by tests/golden/make_golden.py,
whose ``moves`` is the rule: exit codes, file names, CSV headers, verdicts,
statuses and counts must match exactly; the roundoff-level outputs
(``make_golden.ABSOLUTE``: the conservation and control drifts and
stability's ``slope_residual``) must match within 1e-12 absolute, and every
other number within 1e-12 of the largest magnitude in its column (a CSV
column, a JSON list, or the value alone).
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _load_script()


def _record(case):
    return json.loads((GOLDEN / f"{case}.json").read_text())


def _outside(want, got):
    return [
        f"{where}: moved {move:.3g}, bound {bound:.3g}"
        for where, move, bound in make_golden.moves(want, got)
        if not move <= bound
    ]


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_outputs_match_golden_record(case, monkeypatch):
    monkeypatch.delenv("WB_OUTPUT_DIR", raising=False)
    assert not _outside(_record(case), make_golden.run_case(case))


def _move_cell(record, path, by):
    """A copy of ``record`` whose number at ``path`` (a CSV file, row and
    column, or a JSON file and key) is moved by ``by``."""
    moved = copy.deepcopy(record)
    content = moved["files"][path[0]]
    if "header" in content:
        row = content["rows"][path[1]]
        j = content["header"].index(path[2])
        row[j] = format(float(row[j]) + by, ".17g")
    else:
        content[path[1]] += by
    return moved


@pytest.mark.parametrize("case, path", [
    ("study_conservation", ("conservation.csv", 0, "drift_hamiltonian")),
    ("study_conservation", ("conservation.csv", 0, "drift_momentum")),
    ("study_dissipation", ("dissipation_datum.csv", 0, "control_drift")),
    ("study_stability", ("stability_size.json", "slope_residual")),
])
def test_roundoff_level_outputs_have_an_absolute_bound(case, path):
    """A move of 1e-13 passes, though it is 60 times the recorded
    ``drift_momentum``; a move of 1e-11 fails."""
    record = _record(case)
    assert not _outside(record, _move_cell(record, path, 1e-13))
    outside = _outside(record, _move_cell(record, path, 1e-11))
    assert len(outside) == 1 and path[-1] in outside[0]


def test_other_numbers_keep_the_relative_bound():
    """A momentum near 0.04 may move by 4e-14, not by 1e-13."""
    record = _record("reference_run")
    assert _outside(record, _move_cell(record, ("energy.csv", 0, "momentum"), 1e-13))
