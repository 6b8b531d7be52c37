"""Every output of the golden cases matches its committed record.

The records under tests/golden/ are written by tests/golden/make_golden.py.
Exit codes, file names, CSV headers, verdicts, statuses and counts must
match exactly; every other number must match within 1e-12 of the largest
magnitude in its column (a CSV column, a JSON list, or the value alone).
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12


def _load_script():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _load_script()


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(want, got, scale):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * scale


def _check_csv(where, want, got):
    assert got["header"] == want["header"], where
    assert len(got["rows"]) == len(want["rows"]), where
    for j, name in enumerate(want["header"]):
        column = [row[j] for row in want["rows"]]
        values = [_number(c) for c in column if c != ""]
        scale = max((abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0)
        for i, (w, g) in enumerate(zip(column, (row[j] for row in got["rows"]))):
            wn, gn = _number(w), _number(g)
            if wn is None or gn is None:
                assert g == w, f"{where} row {i} {name}"
            else:
                assert _close(wn, gn, scale), f"{where} row {i} {name}: {g} vs {w}"


def _check_json(where, want, got, scale=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _check_json(f"{where}.{key}", want[key], got[key])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        numbers = [abs(v) for v in want if isinstance(v, float) and math.isfinite(v)]
        column = max(numbers, default=0.0)
        for i, (w, g) in enumerate(zip(want, got)):
            _check_json(f"{where}[{i}]", w, g, column)
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert _close(want, float(got), abs(want) if scale is None else scale), (
            f"{where}: {got} vs {want}"
        )
    else:  # verdicts, statuses, counts and nulls
        assert got == want and type(got) is type(want), f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_outputs_match_golden_record(case, monkeypatch):
    monkeypatch.delenv("WB_OUTPUT_DIR", raising=False)
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    got = make_golden.run_case(case)
    assert got["exit_code"] == want["exit_code"]
    assert sorted(got["files"]) == sorted(want["files"])
    for name, content in want["files"].items():
        where = f"{case}/{name}"
        if name.endswith(".csv"):
            _check_csv(where, content, got["files"][name])
        else:
            _check_json(where, content, got["files"][name])
