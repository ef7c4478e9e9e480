"""Each output checker accepts the real artifact and rejects a tampered one."""

import json
import shutil
import sys

import pytest

import run
import workloads
from workloads import TINY, JobResult, check_job


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One tiny pass of every workload, outputs kept, results by job name."""
    cli = sys.modules["circleopt.cli"]
    out = {}
    for name in workloads.WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        jobs = workloads.build(name, 7, root / "inputs", TINY)[0]
        results = run.run_pass(cli, jobs, root / "out")
        assert all(r.ok for r in results), [p for r in results for p in r.problems]
        out[name] = {r.job.name: r for r in results}
    return out


def _edit_json(name):
    def edit(fn):
        def apply(rundir):
            path = rundir / name
            doc = json.loads(path.read_text())
            fn(doc)
            path.write_text(json.dumps(doc))
        return apply
    return edit


@_edit_json("scan.json")
def _cos_half_beta(doc):
    doc["rows"][len(doc["rows"]) // 2]["beta"] += 1e-3


@_edit_json("scan.json")
def _first_rotation(doc):
    doc["rows"][0]["rotation"] = [1, 2]


@_edit_json("scan.json")
def _certificate_fails(doc):
    doc["rows"][1]["certificate"]["pass"] = False


@_edit_json("scan.json")
def _not_converged(doc):
    doc["rows"][-1]["converged"] = False


@_edit_json("scan.json")
def _beta_below_sturmian(doc):
    row = doc["rows"][0]
    row["beta"] = row["best_value"] - 1e-3


@_edit_json("scan.json")
def _certified_gap(doc):
    for row in doc["rows"]:
        if row["certificate"]["pass"]:
            row["beta_gap"] = 1e-3


@_edit_json("solution.json")
def _solve_beta(doc):
    doc["beta"] += 1e-5


@_edit_json("solution.json")
def _orbit_check(doc):
    doc["orbit_check"]["ok"] = False


def _truncate_csv(rundir):
    path = rundir / "g.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@_edit_json("validate.json")
def _violation(doc):
    doc[2]["violations"] = 1


@_edit_json("convexity.json")
def _eta_off(doc):
    doc["eta"] += 1e-6


@_edit_json("convexity.json")
def _fd_above_sd(doc):
    doc["eta"] *= 1.01


@_edit_json("criterion.json")
def _kappa_margin(doc):
    doc["margins"]["ratio_above_kappa"] = 7e-4


@_edit_json("criterion.json")
def _status_fail(doc):
    doc["status"] = "fail"


def _drop_artifact(rundir):
    (rundir / "criterion.json").unlink()


TAMPERS = [
    ("scan", "scan-cos", _cos_half_beta),
    ("scan", "scan-cos", _first_rotation),
    ("scan", "scan-cos", _certificate_fails),
    ("scan", "scan-trig0", _not_converged),
    ("scan", "scan-trig0", _beta_below_sturmian),
    ("scan", "scan-quad", _certified_gap),
    ("solve", "solve-cos", _solve_beta),
    ("solve", "solve-trig0", _orbit_check),
    ("solve", "solve-trig0-d3", _truncate_csv),
    ("validate", "validate", _violation),
    ("certify", "eta-sd-cos", _eta_off),
    ("certify", "eta-fd-quad", _fd_above_sd),
    ("certify", "kappa-cos", _kappa_margin),
    ("certify", "classB-cos", _status_fail),  # kappa passes, class B must too
    ("certify", "classA-cos", _status_fail),  # status disagrees with exit code
    ("certify", "search-c-ae0", _drop_artifact),
]


def _recheck(passes, workload, job_name, rundir, code=None):
    done = passes[workload]
    orig = done[job_name]
    result = JobResult(orig.job, orig.code if code is None else code, rundir, 0.0)
    check_job(result, done)
    return result


@pytest.mark.parametrize("workload,job_name,tamper", TAMPERS,
                         ids=[f"{j}-{t.__name__.strip('_')}" for _, j, t in TAMPERS])
def test_checker_rejects_tampered_artifact(passes, tmp_path, workload, job_name, tamper):
    rundir = tmp_path / "run"
    shutil.copytree(passes[workload][job_name].rundir, rundir)
    assert _recheck(passes, workload, job_name, rundir).ok
    tamper(rundir)
    assert not _recheck(passes, workload, job_name, rundir).ok


@pytest.mark.parametrize("workload,job_name", [("solve", "solve-cos"), ("scan", "scan-trig0"),
                                               ("certify", "kappa-ae0")])
def test_exit_code_three_is_a_failed_job(passes, workload, job_name):
    rundir = passes[workload][job_name].rundir
    assert not _recheck(passes, workload, job_name, rundir, code=3).ok
