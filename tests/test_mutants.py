import importlib.util
from pathlib import Path

import pytest

import circleopt

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
SRC = Path(circleopt.__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once():
    for m in _tool().MUTANTS:
        assert (SRC / "circleopt" / m.file).read_text().count(m.old) == 1, m.name


def test_tells_a_killed_mutant_from_a_survivor():
    tool = _tool()
    listed = tool.MUTANTS[0]
    # a comment edit changes no behaviour, so the same tests pass
    harmless = tool.Mutant("comment", "criteria.py", "# Lip of the left side", "# Lip of the left", listed.tests)
    assert tool.survivors([listed, harmless], SRC) == [harmless]


def test_text_not_found_once_is_an_error(tmp_path):
    tool = _tool()
    (tmp_path / "circleopt").mkdir()
    (tmp_path / "circleopt" / "cli.py").write_text("x = 1\nx = 1\n")
    for old in ("x = 1", "y = 2"):
        with pytest.raises(ValueError, match="not once"):
            tool.apply(tool.Mutant("m", "cli.py", old, "x = 2", ()), tmp_path)
