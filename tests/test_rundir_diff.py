import importlib.util
import shutil
from pathlib import Path

import circleopt

TOOL = Path(__file__).resolve().parents[1] / "tools" / "rundir_diff.py"
SRC = Path(circleopt.__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("rundir_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _changed_copy(tmp_path, file, old, new):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = changed / "circleopt" / file
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return changed


def test_compare_tells_identical_trees_from_a_changed_constant(tmp_path):
    tool = _tool()
    count, diffs = tool.compare(SRC, SRC, 3, ["certify"], size="TINY")
    assert count == 28 and diffs == []

    changed = _changed_copy(tmp_path, "criteria.py", "KAPPA = 7.0 / 96.0", "KAPPA = 7.0 / 95.0")
    count, diffs = tool.compare(SRC, changed, 3, ["certify"], size="TINY")
    assert count == 28
    assert any(d.startswith("certify/kappa-cos: code 0 != 1") for d in diffs)
    assert any(d.startswith("certify/kappa-cos: run-") and "criterion.json differs" in d for d in diffs)
    # the eta jobs do not read KAPPA
    assert not any(d.startswith("certify/eta-") for d in diffs)


def test_verdicts_pass_moved_numbers(tmp_path):
    tool = _tool()
    # a different extrapolation period moves every beta, no verdict
    changed = _changed_copy(tmp_path, "transfer.py", "_MPE_PERIOD = 15", "_MPE_PERIOD = 16")
    _, diffs = tool.compare(SRC, changed, 3, ["solve"], size="TINY")
    assert any("solution.json differs" in d for d in diffs)
    count, diffs, max_dbeta, residuals = tool.compare_verdicts(SRC, changed, 3, ["solve", "scan"], size="TINY")
    assert count == 10 and diffs == []
    assert 0.0 < max_dbeta < 1e-8
    assert all(0.0 < r < 1e-8 for r in residuals)


def test_verdicts_catch_a_changed_status(tmp_path):
    tool = _tool()
    changed = _changed_copy(tmp_path, "criteria.py", "KAPPA = 7.0 / 96.0", "KAPPA = 7.0 / 95.0")
    count, diffs, max_dbeta, _ = tool.compare_verdicts(SRC, changed, 3, ["certify"], size="TINY")
    assert count == 28 and max_dbeta == 0.0
    assert "certify/kappa-cos: code 0 != 1" in diffs
    assert any(d.startswith("certify/kappa-cos: run-") and "criterion.json status 'pass' != 'fail'" in d
               for d in diffs)
    assert not any(d.startswith("certify/eta-") for d in diffs)
