"""Tiny-size runs of all four workloads, untraced and traced."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# layers each workload must reach in a traced run (README.md's map)
EXPECTED_CALLS = {
    "scan": ["cli.main", "criteria.scan_translates", "transfer.solve_calibrated",
             "transfer.calibration_residual", "sturmian.best_sturmian", "sturmian.sturmian_measure",
             "sturmian.sturmian_certificate", "sturmian.antipodal_difference", "torus.sample",
             "torus.FunctionSpec.call"],
    "solve": ["cli.main", "transfer.solve_calibrated", "transfer.calibration_residual",
              "transfer.beta_lower_bound", "torus.sample", "torus.FunctionSpec.call",
              "torus.GridFunction.to_csv"],
    "validate": ["cli.main", "transfer.solve_calibrated", "transfer.calibration_residual",
                 "transfer.max_transfer", "sturmian.sturmian_measure", "sturmian.preimage_branch_bound",
                 "convexity.convexity_defect.fd", "convexity.convexity_defect.sd",
                 "convexity.uniform_defect", "convexity.pointwise_defect", "torus.sample",
                 "torus.FunctionSpec.call", "torus.lipschitz_estimate"]
                + [f"validate.suite_{s}" for s in ("cone_laws", "transfer_laws", "defect_contraction",
                                                   "derivative_gap", "orbit_closure", "branch_bound")],
    "certify": ["cli.main", "criteria.check_kappa", "criteria.check_class_b", "criteria.check_class_a",
                "criteria.check_theorem_sturm", "criteria.search_c", "convexity.convexity_defect.fd",
                "convexity.convexity_defect.sd", "convexity.pointwise_defect", "torus.sample",
                "torus.FunctionSpec.call", "torus.lipschitz_estimate"],
}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced(workload, tmp_path):
    line, detail, spans = run.run(workload, 3, 0, False, tmp_path, size=workloads.TINY)
    assert line["correct"] and line["failed"] == 0, detail["problems"]
    passes = workloads.build(workload, 3, tmp_path / "again", workloads.TINY)
    assert line["attempted"] == sum(len(jobs) for jobs in passes)  # one whole cycle
    got = {k: (v["unit"]) for k, v in line["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert spans == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced(workload, tmp_path):
    line, detail, spans = run.run(workload, 3, 0, True, tmp_path, size=workloads.TINY)
    assert line["correct"], detail["problems"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for layer in EXPECTED_CALLS[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["trace.spans"] == len(spans) > 0
    assert metrics["cli.artifact_bytes"] > 0


def test_random_trig_draws_are_not_periodic_on_a_subinterval(tmp_path):
    # unfiltered, seed 17 draws a 1/3-periodic observable the solver never converges on
    for workload in ("scan", "solve"):
        workloads.build(workload, 17, tmp_path / workload)
        for path in (tmp_path / workload).glob("trig*.json"):
            freqs = [t["inner"]["freq"] for t in json.loads(path.read_text())["terms"]]
            assert math.gcd(*freqs) == 1, (path.name, freqs)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_output_that_differs_is_not_correct(tmp_path, monkeypatch):
    real_tree = run.tree
    monkeypatch.setattr(run, "tree", lambda out: {} if out.name.startswith("traced") else real_tree(out))
    line, detail, _ = run.run("certify", 3, 0, True, tmp_path, size=workloads.TINY)
    assert not line["correct"] and line["failed"] == 0
    assert any("differ" in p for p in detail["problems"])
