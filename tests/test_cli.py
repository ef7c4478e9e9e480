import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circleopt
from circleopt import transfer
from circleopt.catalog import cosine, quadratic_extremal, tent
from circleopt.torus import Cosine, Negate, PiecewisePoly, Scale, Sum
from circleopt.cli import build_parser, main
from circleopt.sturmian import _orbit_table


@pytest.fixture()
def cos_spec(tmp_path):
    path = tmp_path / "cos.json"
    path.write_text(json.dumps({"kind": "cos", "freq": 1, "phase": 0.0}))
    return str(path)


FLAT27 = {
    "kind": "sum",
    "terms": [
        {"kind": "cos", "freq": 1, "phase": 0.0},
        {"kind": "scale", "factor": 1 / 27, "inner": {"kind": "cos", "freq": 3, "phase": 0.0}},
    ],
}

# a seeded random trig polynomial whose d=3 solve sits 7.5e-7 below its
# best periodic orbit at N=2187
TRIG0 = {
    "kind": "sum",
    "terms": [
        {"kind": "scale", "factor": 0.794427601939151,
         "inner": {"kind": "cos", "freq": 4, "phase": 4.873776931938056}},
        {"kind": "scale", "factor": -0.5495856200188163,
         "inner": {"kind": "cos", "freq": 3, "phase": 1.8860003910648933}},
        {"kind": "scale", "factor": -0.9894693908688506,
         "inner": {"kind": "cos", "freq": 2, "phase": 5.159930332220927}},
    ],
}


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

    def test_non_converged_solve_keeps_artifacts(self, cos_spec, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--spec", cos_spec, "--n", "512", "--max-iter", "3", "--out", str(out)])
        assert code == 3
        assert json.loads((_only_run_dir(out) / "solution.json").read_text())["converged"] is False

    @pytest.mark.parametrize(
        "spec, d, n, cap",
        [(TRIG0, 3, 2187, 8), ({"kind": "cos", "freq": 1, "phase": 0.0}, 2, 512, 16)],
        ids=["trig0-d3", "cos"],
    )
    def test_orbit_check_allows_grid_error(self, spec, d, n, cap, tmp_path):
        # trig0 converges with beta - best = -7.5e-7 at N=2187, a first-order
        # grid error that a tolerance of 10*tol alone rejected
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["solve", "--spec", str(path), "--d", str(d), "--n", str(n),
                     "--orbit-period-cap", str(cap), "--out", str(out)])
        assert code == 0
        check = json.loads((_only_run_dir(out) / "solution.json").read_text())["orbit_check"]
        assert check["ok"] is True
        assert check["tolerance"] < 1e-2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "512", "--spec"],
            ["scan", "--omega-count", "4", "--n", "1024", "--spec"],
            ["sturmian", "--p", "1", "--q", "3", "--spec"],
            ["eta", "--n", "512", "--spec"],
            ["check", "--criterion", "kappa", "--n", "1024", "--spec"],
            ["check", "--criterion", "sturm", "--a", "-0.1", "--b", "0.1", "--n", "1024", "--spec"],
            ["check", "--criterion", "classA", "--a", "-0.125", "--b", "0.125", "--v", "0.0",
             "--spec"],
            ["validate", "--cases", "2"],
        ],
        ids=["solve", "scan", "sturmian", "eta", "check-kappa", "check-sturm", "check-classA",
             "validate"],
    )
    def test_byte_identical_reruns(self, argv, cos_spec, tmp_path, capsys):
        # the second run finds the Sturmian orbit table already cached
        _orbit_table.cache_clear()
        out = tmp_path / "out"
        argv = argv + ([cos_spec] if argv[-1] == "--spec" else []) + ["--out", str(out)]
        assert main(argv) == 0
        rd = _only_run_dir(out)
        assert capsys.readouterr().out.splitlines()[-1] == f"artifacts in {rd}"
        first = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"artifacts in {rd}"
        second = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert first == second


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_unchanged(self, cos_spec, tmp_path, capsys):
        def eta_files(out):
            assert main(["eta", "--spec", cos_spec, "--n", "512", "--out", str(out)]) == 0
            rd = _only_run_dir(out)
            return rd.name, {p.name: p.read_bytes() for p in rd.iterdir()}

        build_parser.cache_clear()
        first = eta_files(tmp_path / "out")
        assert main(["eta", "--spec", cos_spec, "--mode", "bogus", "--out", str(tmp_path / "bad")]) == 3
        assert not (tmp_path / "bad").exists()
        assert eta_files(tmp_path / "again") == first

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["eta", "--mode", "exact", "--spec", "SPEC"], "argument --mode: invalid choice: 'exact'"),
            (["check", "--criterion", "kappa", "--n", "abc", "--spec", "SPEC"], "invalid int value: 'abc'"),
            (["scan", "--n", "64"], "the following arguments are required: --spec"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-mode", "non-integer-n", "missing-spec", "missing-subcommand"],
    )
    def test_usage_error_exits_3_without_run_dir(self, argv, named, cos_spec, tmp_path, monkeypatch, capsys):
        # argparse exits 2, which this CLI means as "inconclusive"
        monkeypatch.chdir(tmp_path)
        assert main([cos_spec if a == "SPEC" else a for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: circleopt") and named in err
        assert not list(tmp_path.rglob("run-*"))

    @pytest.mark.parametrize(
        "flag, printed",
        [("--version", f"circleopt {circleopt.__version__}\n"), ("--help", "usage: circleopt [-h]")],
    )
    def test_version_and_help_exit_0(self, flag, printed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([flag]) == 0
        assert capsys.readouterr().out.startswith(printed)
        assert not list(tmp_path.iterdir())


# for each subcommand: arguments that run it quickly, and another value for
# each optional flag; every optional flag of the parser must be listed
RUN_DIR_FLAGS = {
    "solve": (["--n", "64", "--spec"],
              {"--n": "128", "--d": "4", "--tol": "1e-6", "--max-iter": "50",
               "--orbit-period-cap": "4"}),
    "eta": (["--n", "64", "--spec"], {"--n": "128", "--mode": "finite_difference"}),
    "sturmian": (["--p", "1", "--q", "3"], {"--spec": None, "--max-q": "8"}),
    "check": (["--criterion", "classB", "--n", "64", "--spec"],
              {"--n": "128", "--a": "-0.1", "--b": "0.1", "--v": "0.5"}),
    "scan": (["--omega-count", "2", "--n", "64", "--spec"],
             {"--n": "128", "--omega-count": "3", "--max-q": "8", "--tol": "1e-6",
              "--max-iter": "50"}),
    "validate": (["--cases", "2"], {"--seed": "1", "--cases": "3"}),
}


def _optional_flags(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and not a.required and a.dest not in ("help", "out")}


class TestConfig:
    @pytest.mark.parametrize("command", list(RUN_DIR_FLAGS))
    def test_every_optional_flag_moves_the_run_directory(self, command, cos_spec, tmp_path, capsys):
        base, variants = RUN_DIR_FLAGS[command]
        assert set(variants) == _optional_flags(command)
        base = [command] + base + ([cos_spec] if base[-1] == "--spec" else [])

        def run_dir(argv, out):
            main(argv + ["--out", str(tmp_path / out)])
            return _only_run_dir(tmp_path / out).name

        first = run_dir(base, "base")
        assert run_dir(base, "again") == first
        for flag, value in variants.items():
            argv = base + [flag, cos_spec if value is None else value]
            assert run_dir(argv, flag) != first, flag

    def test_records_every_set_argument_but_out(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--criterion", "classB", "--spec", cos_spec, "--n", "64",
                     "--out", str(out)]) == 0
        config = json.loads((_only_run_dir(out) / "config.json").read_text())
        assert config == {"subcommand": "check", "version": circleopt.__version__,
                          "criterion": "classB", "spec": cos_spec, "n": 64,
                          "a": None, "b": None, "v": None}


# 1e305 (cos 2000 pi x - cos(2000 pi x + 0.1)): every sample is finite, but
# f'' overflows to inf and NaN, and so do the finite-difference scores and
# the solve's orbit cross-check tolerance, which once read as a kink (eta =
# inf) and as a tolerance that passes any gap
OVERFLOWING = Sum((Scale(1e305, Cosine(1000, 0.0)), Scale(-1e305, Cosine(1000, 0.1))))


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "argv, named",
    [
        (["eta", "--mode", "second_derivative"], "f''"),
        (["eta"], "f''"),
        (["check", "--criterion", "classB"], "f''"),
        (["check", "--criterion", "kappa"], "f''"),
        (["check", "--criterion", "sturm", "--a", "-0.1", "--b", "0.1"], "f''"),
        (["check", "--criterion", "classA", "--a", "-0.125", "--b", "0.125"], "f''"),
        (["check", "--criterion", "search-c"], "f''"),
    ],
    ids=["eta-second-derivative", "eta-auto", "classB", "kappa", "sturm", "classA", "search-c"],
)
def test_overflowing_second_derivative_exits_3(argv, named, tmp_path, capsys):
    f = OVERFLOWING
    if argv[-1] == "search-c":
        f = Sum((PiecewisePoly((0.0,), ((OVERFLOWING(0.0),),)), Negate(OVERFLOWING)))
    spec = tmp_path / "overflow.json"
    spec.write_text(f.to_json())
    out = tmp_path / "out"
    assert main(argv + ["--spec", str(spec), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {named} is not finite")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "argv, named",
    [
        (["eta", "--mode", "finite_difference"], "finite-difference score overflows"),
        (["solve"], "orbit cross-check tolerance = inf is not finite"),
    ],
    ids=["eta-finite-difference", "solve"],
)
def test_overflowing_score_or_tolerance_exits_3(argv, named, tmp_path, capsys):
    spec = tmp_path / "overflow.json"
    spec.write_text(OVERFLOWING.to_json())
    out = tmp_path / "out"
    assert main(argv + ["--spec", str(spec), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not out.exists()


class TestEta:
    def test_report_written(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eta", "--spec", cos_spec, "--out", str(out)])
        assert code == 0
        doc = json.loads((_only_run_dir(out) / "convexity.json").read_text())
        assert doc["eta"] == pytest.approx(4 * math.pi**2, abs=1e-9)
        assert "delta_table" in doc and "witnesses" in doc

    def test_finite_difference_reads_the_exact_extremal_eta(self, tmp_path, capsys):
        # every shift scores 2 on -x^2 in exact arithmetic; the route reads
        # k = 1 and 2 only, and k = 1 gives the exact value
        spec = tmp_path / "quad.json"
        spec.write_text(json.dumps(quadratic_extremal().to_dict()))
        out = tmp_path / "out"
        argv = ["eta", "--spec", str(spec), "--mode", "finite_difference", "--n", "4096"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads((_only_run_dir(out) / "convexity.json").read_text())
        assert (doc["eta"], doc["witnesses"]["delta"]) == (2.0, 1 / 4096)
        assert "eta = 2.0  (finite_difference, lower_bound)" in capsys.readouterr().out

    def test_kink_writes_inf(self, tmp_path, capsys):
        # JSON has no infinity: the artifact spells the kink's eta "inf"
        spec = tmp_path / "tent.json"
        spec.write_text(json.dumps(tent().to_dict()))
        out = tmp_path / "out"
        argv = ["eta", "--spec", str(spec), "--mode", "finite_difference", "--n", "64"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((_only_run_dir(out) / "convexity.json").read_text())["eta"] == "inf"


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
        spec.write_text(json.dumps(FLAT27))
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

    def test_search_c_non_finite_spec_is_a_usage_error(self, tmp_path, capsys):
        # once "inconclusive (worst net margin nan)", exit 2, with a run directory
        spec = tmp_path / "nan.json"
        spec.write_text('{"kind": "cos", "freq": 1, "phase": NaN}')
        out = tmp_path / "out"
        assert main(["check", "--criterion", "search-c", "--spec", str(spec),
                     "--n", "512", "--out", str(out)]) == 3
        assert "Cosine.phase must be finite" in capsys.readouterr().err
        assert not out.exists()


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
        # row 3 starts from row 1's reflected sub-action, exact for an even f
        assert [r["iterations"] > 1 for r in doc["rows"]] == [True, True, True, False]

    def test_summary_counts_converged_rows_only(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["scan", "--spec", cos_spec, "--omega-count", "2", "--n", "512",
                     "--max-iter", "3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "0/2 certificates pass"
        rows = json.loads((_only_run_dir(out) / "scan.json").read_text())["rows"]
        assert [(r["converged"], r["iterations"]) for r in rows] == [(False, 3), (False, 3)]

    def test_inconclusive_row_exits_2(self, tmp_path, capsys):
        # both rows converge; the translate by 1/2 has zero arcs 4/N wider
        # than w_max = 16/N, so its certificate and the scan are inconclusive
        spec = tmp_path / "ripple.json"
        spec.write_text(Sum((Cosine(1), Scale(0.02, Cosine(64)))).to_json())
        out = tmp_path / "out"
        code = main(["scan", "--spec", str(spec), "--n", "1024", "--omega-count", "2",
                     "--max-q", "8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[0] == "1/2 certificates pass"
        doc = json.loads((_only_run_dir(out) / "scan.json").read_text())
        assert doc["all_pass"] is False
        assert [(r["converged"], r["certificate"]["status"]) for r in doc["rows"]] == [
            (True, "pass"), (True, "inconclusive")]
        assert doc["rows"][1]["certificate"]["worst_margin"] == pytest.approx(-4 / 1024)

    def test_odd_grid_exits_3(self, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scan", "--spec", cos_spec, "--n", "1023", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: d=2 does not divide the grid size 1023\n"
        assert not out.exists()


class TestErrors:
    def test_library_value_error_exits_3(self, cos_spec, tmp_path, capsys):
        # the CLI checks no grid rule of its own: sample(f, 2) refuses grid size 2
        code = main(["scan", "--spec", cos_spec, "--omega-count", "1", "--n", "2",
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: grid size must be at least 4")


class TestFailedRunsLeaveNoRunDirectory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "--mode", "second_derivative"],
            ["check", "--criterion", "sturm", "--b", "0.1"],
            ["scan", "--omega-count", "0"],
            ["scan", "--omega-count", "2", "--max-q", "0"],
        ],
        ids=["eta-kinked-second-derivative", "check-sturm-without-a", "scan-no-translates",
             "scan-no-rotations"],
    )
    def test_exit_3_without_run_dir(self, argv, tmp_path, capsys):
        spec = tmp_path / "tent.json"
        spec.write_text(json.dumps(tent().to_dict()))
        out = tmp_path / "out"
        assert main(argv + ["--spec", str(spec), "--n", "256", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize(
        "text, named",
        [
            (None, ""),
            ("{not json", ""),
            ('{"kind": "cos", "freq": null}', "Cosine frequency"),
            ('{"kind": "cos", "freq": 1.5}', "Cosine frequency"),
            ('{"kind": "cos", "freq": true}', "Cosine frequency"),
            ('{"kind": "piecewise_poly", "breakpoints": 5, "coefficients": [[1]]}',
             "node kind 'piecewise_poly'"),
            ('{"kind": "piecewise_poly", "breakpoints": [0], "coefficients": [[1]], "wrap": "false"}',
             "PiecewisePoly wrap"),
            ('{"kind": "scale", "factor": [1], "inner": {"kind": "cos", "freq": 1}}',
             "node kind 'scale'"),
        ],
        ids=["missing-spec", "non-json-spec", "freq-null", "freq-fractional", "freq-bool",
             "breakpoints-number", "wrap-string", "factor-list"],
    )
    def test_unreadable_spec(self, text, named, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        out = tmp_path / "out"
        assert main(["eta", "--spec", str(spec), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize(
        "window",
        [["sturm", "--a", "-0.1", "--b", "0.1"], ["classA", "--a", "-0.125", "--b", "0.125"]],
        ids=["sturm", "classA"],
    )
    def test_jump_spec_has_no_slope(self, window, tmp_path, capsys):
        # cos 2 pi x plus a 1e-6 step at x = 1/2: no symbolic derivative, and
        # no grid-difference estimate of one either
        spec = tmp_path / "jump.json"
        spec.write_text(Sum((cosine(), PiecewisePoly((0.0, 0.5), ((0.0,), (1e-6,))))).to_json())
        out = tmp_path / "out"
        argv = ["check", "--criterion", *window, "--spec", str(spec), "--n", "512", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(
            "error: derivative of discontinuous piecewise polynomial (jump at x=0.5)")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize("criterion", ["sturm", "classA"])
    def test_kinked_spec_has_no_eta(self, criterion, tmp_path, capsys):
        # -(x - 1/2)^2 has a kink at 0: the finite-difference route would
        # give only a lower bound on eta, and the window checkers refuse it
        spec = tmp_path / "kink.json"
        spec.write_text(PiecewisePoly((0.0,), ((-0.25, 1.0, -1.0),)).to_json())
        out = tmp_path / "out"
        argv = ["check", "--criterion", criterion, "--spec", str(spec), "--a", "0.3", "--b", "0.45",
                "--n", "512", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: derivative of discontinuous piecewise polynomial (jump at x=0)\n")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_search_c_grid_without_interior_point(self, n, tmp_path, capsys):
        spec = tmp_path / "half.json"
        spec.write_text(PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False).to_json())
        out = tmp_path / "out"
        argv = ["check", "--criterion", "search-c", "--spec", str(spec), "--n", n, "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: search_c needs grid_n >= 2 for an interior grid point, got {n}\n")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "piecewise_poly", "breakpoints": [0.0], "coefficients": [[0.5]]},
         {"kind": "scale", "factor": 0.0, "inner": {"kind": "cos", "freq": 1, "phase": 0.0}}],
        ids=["constant", "zero-scaled-cosine"],
    )
    def test_kappa_of_constant(self, spec, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["check", "--criterion", "kappa", "--spec", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: convexity defect is zero")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize("command", ["solve", "scan"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tol", "nan", "tol must be finite and > 0, got nan"),
         ("--tol", "0", "tol must be finite and > 0, got 0.0"),
         ("--tol", "-1", "tol must be finite and > 0, got -1.0"),
         ("--max-iter", "0", "max_iter must be >= 1, got 0")],
        ids=["tol-nan", "tol-zero", "tol-negative", "max-iter-zero"],
    )
    def test_bad_solver_limits(self, command, flag, value, message, cos_spec, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--spec", cos_spec, "--n", "256", flag, value, "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize(
        "argv",
        [["scan", "--omega-count", "2"], ["sturmian", "--p", "1", "--q", "2"]],
        ids=["scan", "sturmian"],
    )
    def test_orbit_table_over_budget(self, argv, cos_spec, tmp_path, capsys):
        # 2.0e8 orbit points at max_q = 1000: refused before the table or a solve
        out = tmp_path / "out"
        assert main(argv + ["--spec", cos_spec, "--max-q", "1000", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: max_q = 1000 exceeds the Sturmian orbit-table budget of 4194304 points")
        assert not list(out.glob("run-*"))

    @pytest.mark.parametrize(
        "flags, owner, message",
        [
            (["--n", "4097", "--d", "2"], lambda: transfer._check_branches(2, 4097),
             "d=2 does not divide the grid size 4097"),
            (["--d", "1"], lambda: transfer.beta_lower_bound(cosine(), d=1),
             "branch count d must be an int >= 2, got 1"),
        ],
        ids=["grid-not-divisible", "one-branch"],
    )
    def test_solve_branch_rule_has_one_owner(self, flags, owner, message, cos_spec, tmp_path, capsys):
        # the message is the library's, word for word: the CLI keeps no copy of the rule
        with pytest.raises(ValueError) as exc:
            owner()
        assert str(exc.value) == message
        out = tmp_path / "out"
        assert main(["solve", "--spec", cos_spec, *flags, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("run-*"))

    def test_validate_without_cases(self, tmp_path, capsys):
        assert main(["validate", "--cases", "0", "--out", str(tmp_path)]) == 3
        assert "cases must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("run-*"))


class TestValidate:
    def test_quick_validate(self, tmp_path):
        code = main(["validate", "--cases", "8", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rd = _only_run_dir(tmp_path)
        doc = json.loads((rd / "validate.json").read_text())
        assert all(suite["pass"] for suite in doc)


class TestConsoleScript:
    """``python -m circleopt.cli``, the entry the ``circleopt`` script runs."""

    @pytest.mark.parametrize("spec, code", [(FLAT27, 1), (None, 3)], ids=["kappa-fail", "unreadable-spec"])
    def test_exit_code_reaches_the_shell(self, spec, code, tmp_path):
        path = tmp_path / "spec.json"
        if spec is not None:
            path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(Path(circleopt.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "circleopt.cli", "check", "--criterion", "kappa",
             "--spec", str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
