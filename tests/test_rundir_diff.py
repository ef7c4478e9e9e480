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


def test_compare_tells_identical_trees_from_a_changed_constant(tmp_path):
    tool = _tool()
    count, diffs = tool.compare(SRC, SRC, 3, ["certify"], size="TINY")
    assert count == 28 and diffs == []

    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    criteria = changed / "circleopt" / "criteria.py"
    text = criteria.read_text()
    assert text.count("KAPPA = 7.0 / 96.0") == 1
    criteria.write_text(text.replace("KAPPA = 7.0 / 96.0", "KAPPA = 7.0 / 95.0"))
    count, diffs = tool.compare(SRC, changed, 3, ["certify"], size="TINY")
    assert count == 28
    assert any(d.startswith("certify/kappa-cos: code 0 != 1") for d in diffs)
    assert any(d.startswith("certify/kappa-cos: run-") and "criterion.json differs" in d for d in diffs)
    # the eta jobs do not read KAPPA
    assert not any(d.startswith("certify/eta-") for d in diffs)
