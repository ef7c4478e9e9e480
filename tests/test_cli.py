import json
import math
from pathlib import Path

import pytest

from circleopt.catalog import cosine
from circleopt.cli import main


@pytest.fixture()
def cos_spec(tmp_path):
    path = tmp_path / "cos.json"
    path.write_text(json.dumps({"kind": "cos", "freq": 1, "phase": 0.0}))
    return str(path)


def _only_run_dir(out: Path) -> Path:
    runs = sorted(out.glob("run-*"))
    assert len(runs) >= 1
    return runs[-1]


class TestSolve:
    def test_writes_solution_and_grid(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--spec", cos_spec, "--d", "2", "--n", "1024", "--out", str(out)])
        assert code == 0
        rd = _only_run_dir(out)
        doc = json.loads((rd / "solution.json").read_text())
        assert abs(doc["beta"] - 1.0) < 1e-6
        assert doc["converged"] is True
        assert doc["orbit_check"]["ok"] is True
        lines = (rd / "g.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 1025
        assert (rd / "config.json").exists()

    def test_usage_error_on_bad_grid(self, cos_spec, tmp_path):
        code = main(["solve", "--spec", cos_spec, "--d", "3", "--n", "1024", "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_spec_names_node(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        code = main(["solve", "--spec", str(bad), "--out", str(tmp_path)])
        assert code == 3
        assert "mystery" in capsys.readouterr().err

    def test_d3_default_orbit_cap(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--spec", cos_spec, "--d", "3", "--n", "729", "--out", str(out)])
        assert code == 0
        rd = _only_run_dir(out)
        assert json.loads((rd / "config.json").read_text())["orbit_period_cap"] == 10
        assert json.loads((rd / "solution.json").read_text())["orbit_check"]["ok"] is True

    def test_orbit_cap_over_budget_fails_before_solve(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--spec", cos_spec, "--d", "3", "--n", "729",
                     "--orbit-period-cap", "16", "--out", str(out)])
        assert code == 3
        assert "budget" in capsys.readouterr().err
        assert not list(out.glob("run-*/solution.json"))

    def test_non_finite_spec_fails_before_solve(self, tmp_path, capsys):
        spec = tmp_path / "nan.json"
        spec.write_text('{"kind": "cos", "freq": 1, "phase": NaN}')
        out = tmp_path / "out"
        code = main(["solve", "--spec", str(spec), "--n", "512", "--orbit-period-cap", "4",
                     "--out", str(out)])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not list(out.glob("run-*/solution.json"))

    def test_byte_identical_reruns(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--spec", cos_spec, "--n", "512", "--out", str(out)])
        rd = _only_run_dir(out)
        first = {p.name: p.read_bytes() for p in rd.iterdir()}
        main(["solve", "--spec", cos_spec, "--n", "512", "--out", str(out)])
        second = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert first == second


class TestEta:
    def test_report_written(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eta", "--spec", cos_spec, "--out", str(out)])
        assert code == 0
        doc = json.loads((_only_run_dir(out) / "convexity.json").read_text())
        assert doc["eta"] == pytest.approx(4 * math.pi**2, abs=1e-9)
        assert "delta_table" in doc and "witnesses" in doc


class TestSturmian:
    def test_orbit_and_integral(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["sturmian", "--p", "1", "--q", "3", "--spec", cos_spec, "--out", str(out)])
        assert code == 0
        doc = json.loads((_only_run_dir(out) / "sturmian.json").read_text())
        assert doc["orbit"] == ["1/7", "2/7", "4/7"]
        assert doc["best"] == {"p": 0, "q": 1, "value": 1.0}

    def test_rejects_unreduced(self, tmp_path):
        assert main(["sturmian", "--p", "2", "--q", "4", "--out", str(tmp_path)]) == 3


class TestCheck:
    def test_kappa_pass_exit_zero(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--criterion", "kappa", "--spec", cos_spec, "--out", str(out)])
        assert code == 0
        doc = json.loads((_only_run_dir(out) / "criterion.json").read_text())
        assert doc["pass"] is True
        assert doc["tolerances"]["ratio"] == pytest.approx(1 / (4 * math.pi**2))

    def test_kappa_fail_exit_one(self, tmp_path):
        spec = tmp_path / "flat.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "sum",
                    "terms": [
                        {"kind": "cos", "freq": 1, "phase": 0.0},
                        {"kind": "scale", "factor": 1 / 27, "inner": {"kind": "cos", "freq": 3, "phase": 0.0}},
                    ],
                }
            )
        )
        assert main(["check", "--criterion", "kappa", "--spec", str(spec), "--out", str(tmp_path)]) == 1

    def test_class_a_needs_window(self, cos_spec, tmp_path):
        assert main(["check", "--criterion", "classA", "--spec", cos_spec, "--out", str(tmp_path)]) == 3

    def test_class_a_pass(self, cos_spec, tmp_path):
        code = main(
            ["check", "--criterion", "classA", "--spec", cos_spec,
             "--a", "-0.125", "--b", "0.125", "--v", "0.0", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_search_c_profile(self, tmp_path):
        spec = tmp_path / "half.json"
        spec.write_text(
            json.dumps(
                {"kind": "piecewise_poly", "breakpoints": [0.0],
                 "coefficients": [[0.0, 0.0, 0.5]], "wrap": False}
            )
        )
        assert main(["check", "--criterion", "search-c", "--spec", str(spec),
                     "--n", "10000", "--out", str(tmp_path)]) == 0


class TestScan:
    def test_small_scan(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["scan", "--spec", cos_spec, "--omega-count", "4",
                     "--n", "1024", "--out", str(out)])
        assert code == 0
        rd = _only_run_dir(out)
        csv = (rd / "scan.csv").read_text().splitlines()
        assert csv[0] == "omega,beta,rotation_p,rotation_q,certificate_pass,worst_margin"
        assert len(csv) == 5
        assert csv[1].startswith("0,1,0,1,true")
        doc = json.loads((rd / "scan.json").read_text())
        assert doc["all_pass"] is True


class TestErrors:
    def test_library_value_error_exits_3(self, cos_spec, tmp_path, capsys):
        # grid size 2 passes the CLI's own checks and is rejected by sample()
        code = main(["scan", "--spec", cos_spec, "--omega-count", "1", "--n", "2",
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: grid size must be at least 4")


class TestValidate:
    def test_quick_validate(self, tmp_path):
        code = main(["validate", "--cases", "8", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rd = _only_run_dir(tmp_path)
        doc = json.loads((rd / "validate.json").read_text())
        assert all(suite["pass"] for suite in doc)
