"""The four benchmark workloads: seeded spec files, CLI jobs and output checks.

A workload is a list of passes; a pass is a list of ``Job``s, each one
``circleopt`` CLI invocation.  ``build`` writes every spec file the
workload needs (the program receives only these files and CLI flags) and
returns the passes.  Each job carries a checker that reads the job's run
directory and records problems; a job whose exit code is not among its
``ok_codes`` (exit 3 never is) or that raised is a failed job.  Exit 1 or
2 is allowed only where the input may legitimately fail a criterion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("scan", "solve", "validate", "certify")
STATUS_CODE = {"pass": 0, "fail": 1, "inconclusive": 2}
OUTCOME = frozenset(STATUS_CODE.values())  # exit codes of a criterion outcome


@dataclass(frozen=True)
class Size:
    """Problem sizes; FULL is the benchmark, TINY the smoke test."""

    scan_n: int
    scan_max_q: int
    scan_cos_omegas: int
    scan_omegas: int
    solve_n: int
    solve_d3_power: int
    solve_d3_cap: int
    solve_cap: int | None
    solve_pool: int
    validate_cases: int
    eta_n: int
    search_n: int
    certify_draws: int


FULL = Size(scan_n=4096, scan_max_q=32, scan_cos_omegas=64, scan_omegas=16,
            solve_n=65536, solve_d3_power=10, solve_d3_cap=10, solve_cap=None, solve_pool=14,
            validate_cases=200, eta_n=4096, search_n=10_000, certify_draws=4)
TINY = Size(scan_n=2048, scan_max_q=8, scan_cos_omegas=4, scan_omegas=2,
            solve_n=32768, solve_d3_power=9, solve_d3_cap=6, solve_cap=8, solve_pool=2,
            validate_cases=3, eta_n=512, search_n=1000, certify_draws=1)


class JobResult:
    """Outcome of one job: exit code, run directory, time, problems found."""

    def __init__(self, job, code, rundir, seconds, problems=None):
        self.job = job
        self.code = code
        self.rundir = rundir
        self.seconds = seconds
        self.problems: list[str] = list(problems or [])
        self.observed: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond, message: str):
        if not cond:
            self.problems.append(f"{self.job.name}: {message}")

    def observe(self, key: str, value: float):
        """Keep the largest value seen for an accuracy figure."""
        self.observed[key] = max(self.observed.get(key, -math.inf), float(value))

    def artifact(self, name: str):
        return json.loads((self.rundir / name).read_text())


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[JobResult, dict], None]
    ok_codes: frozenset = field(default=frozenset({0}))


def check_job(result: JobResult, done: dict) -> None:
    """Run the job's checker unless the job already failed to finish."""
    job = result.job
    if result.problems:
        return
    if result.code not in job.ok_codes:
        result.require(False, f"exit code {result.code}")
        return
    try:
        job.check(result, done)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        result.require(False, f"malformed artifact: {type(exc).__name__}: {exc}")


def _trig(rng):
    """A seeded ``random_trig`` draw whose frequencies have gcd 1.

    A draw whose frequencies share a factor k > 1 is 1/k-periodic, and on
    some of those the solver never reaches its tolerance: it runs all
    100000 sweeps (~300 s at N=65536) and exits 3 (README.md, known
    defects).  Such draws are redrawn.
    """
    from circleopt.catalog import random_trig

    while True:
        f = random_trig(rng)
        if math.gcd(*(t.inner.freq for t in f.terms)) == 1:
            return f


# ----------------------------------------------------------------- scan

def _scan_rows(r: JobResult, omegas: int, sturmian_family: bool):
    doc = r.artifact("scan.json")
    rows = doc["rows"]
    r.require(len(rows) == omegas, f"{len(rows)} rows, expected {omegas}")
    csv_lines = (r.rundir / "scan.csv").read_text().splitlines()
    r.require(len(csv_lines) == omegas + 1, "scan.csv row count")
    for i, row in enumerate(rows):
        r.observe("max_residual", row["residual"])
        r.require(row["converged"], f"row {i} did not converge")
        # beta is the max over all invariant measures, so it can never sit
        # below a Sturmian integral by more than the solver's accuracy
        r.require(row["beta"] >= row["best_value"] - 1e-4, f"row {i}: beta below best Sturmian")
        if sturmian_family and row["certificate"]["pass"]:
            r.observe("max_beta_gap", row["beta_gap"])
    r.require(doc["all_pass"] == (r.code == 0), f"all_pass {doc['all_pass']} but exit code {r.code}")
    return rows


def _check_scan_cosine(omegas: int):
    def check(r: JobResult, done):
        rows = _scan_rows(r, omegas, sturmian_family=True)
        r.require(all(row["certificate"]["pass"] for row in rows), "a cosine certificate failed")
        r.require(all(row["beta_gap"] < 1e-4 for row in rows), "cosine |beta - best Sturmian| >= 1e-4")
        half = omegas // 2
        r.require(rows[0]["rotation"] == [0, 1], "row 0 rotation is not 0/1")
        r.require(rows[half]["rotation"] == [1, 2], f"row {half} rotation is not 1/2")
        r.require(abs(rows[0]["beta"] - 1.0) <= 1e-6, "row 0 beta != 1")
        r.require(abs(rows[half]["beta"] - 0.5) <= 1e-6, f"row {half} beta != 0.5")

    return check


def _check_scan_family(omegas: int):
    def check(r: JobResult, done):
        rows = _scan_rows(r, omegas, sturmian_family=True)
        for i, row in enumerate(rows):
            if row["certificate"]["pass"]:
                r.require(row["beta_gap"] < 1e-4, f"row {i}: certified but |beta - best| >= 1e-4")

    return check


def _check_scan_other(omegas: int):
    def check(r: JobResult, done):
        _scan_rows(r, omegas, sturmian_family=False)

    return check


def _scan(size: Size, seed: int, inputs: Path):
    from circleopt.catalog import cosine, quadratic_extremal, random_antisym_even

    rng = np.random.default_rng(seed)
    specs = {
        "cos": cosine(),
        "quad": quadratic_extremal(),
        "ae0": random_antisym_even(rng),
        "ae1": random_antisym_even(rng),
        "trig0": _trig(rng),
    }
    paths = _write_specs(inputs, specs)

    def scan(name, omegas, check, ok_codes=frozenset({0})):
        argv = ("scan", "--spec", paths[name], "--n", str(size.scan_n),
                "--max-q", str(size.scan_max_q), "--omega-count", str(omegas))
        return Job(f"scan-{name}", argv, check(omegas), ok_codes)

    return [[
        scan("cos", size.scan_cos_omegas, _check_scan_cosine),
        scan("quad", size.scan_omegas, _check_scan_family),
        scan("ae0", size.scan_omegas, _check_scan_family, OUTCOME),
        scan("ae1", size.scan_omegas, _check_scan_family, OUTCOME),
        scan("trig0", size.scan_omegas, _check_scan_other, OUTCOME),
    ]]


# ---------------------------------------------------------------- solve

def _check_solve(n: int, beta=None):
    def check(r: JobResult, done):
        doc = r.artifact("solution.json")
        r.observe("max_residual", doc["residual"])
        r.require(doc["converged"], "did not converge")
        r.require(doc["orbit_check"]["ok"], "beta below the periodic-orbit lower bound")
        r.require(doc["n"] == n, "grid size")
        if beta is not None:
            r.require(abs(doc["beta"] - beta) <= 1e-6, f"beta {doc['beta']!r} != {beta}")
        with open(r.rundir / "g.csv") as fh:
            r.require(sum(1 for _ in fh) == n + 1, "g.csv row count")

    return check


def _solve(size: Size, seed: int, inputs: Path):
    from circleopt.catalog import cosine

    rng = np.random.default_rng(seed)
    specs = {"cos": cosine()}
    for i in range(size.solve_pool):
        specs[f"trig{i}"] = _trig(rng)
    paths = _write_specs(inputs, specs)
    cap = () if size.solve_cap is None else ("--orbit-period-cap", str(size.solve_cap))
    n3 = 3 ** size.solve_d3_power

    def d2(name, beta=None):
        argv = ("solve", "--spec", paths[name], "--n", str(size.solve_n)) + cap
        return Job(f"solve-{name}", argv, _check_solve(size.solve_n, beta))

    passes = []
    for i in range(size.solve_pool):
        # the d=3 job passes a smaller cap: at the default 16, 3^16 exceeds
        # beta_lower_bound's 2^24 budget and the CLI raises ValueError
        d3 = Job(f"solve-trig{i}-d3",
                 ("solve", "--spec", paths[f"trig{i}"], "--d", "3", "--n", str(n3),
                  "--orbit-period-cap", str(size.solve_d3_cap)),
                 _check_solve(n3))
        passes.append([d2("cos", beta=1.0), d2(f"trig{i}"), d3])
    return passes


# ------------------------------------------------------------- validate

def _check_validate(r: JobResult, done):
    suites = r.artifact("validate.json")
    r.require(len(suites) == 6, f"{len(suites)} suites, expected 6")
    for s in suites:
        r.require(s["cases"] > 0, f"suite {s['name']} ran no cases")
        r.require(s["violations"] == 0, f"suite {s['name']}: {s['violations']} violations")


def _validate(size: Size, seed: int, inputs: Path):
    argv = ("validate", "--seed", str(seed), "--cases", str(size.validate_cases))
    return [[Job("validate", argv, _check_validate)]]


# -------------------------------------------------------------- certify

def _check_status(r: JobResult, done):
    status = r.artifact("criterion.json")["status"]
    r.require(STATUS_CODE[status] == r.code, f"status {status} but exit code {r.code}")


def _check_eta_sd(expect=None):
    def check(r: JobResult, done):
        doc = r.artifact("convexity.json")
        r.require(doc["method"] == "second_derivative", "route")
        if expect is not None:
            r.require(abs(doc["eta"] - expect) <= 1e-9, f"eta {doc['eta']!r} != {expect!r}")

    return check


def _check_eta_fd(sd_job: str):
    def check(r: JobResult, done):
        fd = r.artifact("convexity.json")
        sd = done[sd_job].artifact("convexity.json")
        r.require(fd["method"] == "finite_difference", "route")
        # the FD route is a lower bound; it may not exceed the exact value
        # by more than the two discretization bounds
        r.require(isinstance(fd["eta"], float)
                  and fd["eta"] <= sd["eta"] + fd["error_bound"] + sd["error_bound"],
                  f"FD eta {fd['eta']!r} above SD eta {sd['eta']!r} + bounds")

    return check


def _check_kappa(cos: bool):
    def check(r: JobResult, done):
        _check_status(r, done)
        if cos:
            doc = r.artifact("criterion.json")
            margin = doc["margins"]["ratio_above_kappa"]
            r.require(doc["status"] == "pass" and 5e-4 < margin < 6e-4,
                      f"cosine kappa margin {margin!r} outside (5e-4, 6e-4)")

    return check


def _check_class_b(kappa_job: str):
    def check(r: JobResult, done):
        _check_status(r, done)
        kappa = done[kappa_job].artifact("criterion.json")["status"]
        b = r.artifact("criterion.json")["status"]
        r.require(kappa != "pass" or b == "pass", "kappa passes but class B does not")

    return check


def _certify(size: Size, seed: int, inputs: Path):
    from circleopt.catalog import constant, cosine, flattened_cosine, quadratic_extremal, random_antisym_even
    from circleopt.torus import Negate, Sum

    rng = np.random.default_rng(seed)
    observables = {"cos": cosine(), "quad": quadratic_extremal(), "flat": flattened_cosine(0.02)}
    for i in range(size.certify_draws):
        observables[f"ae{i}"] = random_antisym_even(rng)
    specs = dict(observables)
    for name, f in observables.items():
        # the half-profile h = f(0) - f on [0, 1/4] that search-c expects
        specs[f"{name}-half"] = Sum((constant(f(0.0)), Negate(f)))
    paths = _write_specs(inputs, specs)

    n = str(size.eta_n)
    jobs = []
    for name, f in observables.items():
        spec = paths[name]
        window = ("--a", "-0.125", "--b", "0.125")
        jobs += [
            Job(f"eta-sd-{name}", ("eta", "--spec", spec, "--mode", "second_derivative", "--n", n),
                _check_eta_sd(4 * math.pi**2 if name == "cos" else None)),
            Job(f"eta-fd-{name}", ("eta", "--spec", spec, "--mode", "finite_difference", "--n", n),
                _check_eta_fd(f"eta-sd-{name}")),
            Job(f"kappa-{name}", ("check", "--criterion", "kappa", "--spec", spec, "--n", n),
                _check_kappa(name == "cos"), OUTCOME),
            Job(f"classB-{name}", ("check", "--criterion", "classB", "--spec", spec, "--n", n),
                _check_class_b(f"kappa-{name}"), OUTCOME),
            Job(f"classA-{name}", ("check", "--criterion", "classA", "--spec", spec, "--n", n)
                + window + ("--v", repr(f(0.25))), _check_status, OUTCOME),
            Job(f"sturm-{name}", ("check", "--criterion", "sturm", "--spec", spec, "--n", n) + window,
                _check_status, OUTCOME),
            Job(f"search-c-{name}", ("check", "--criterion", "search-c", "--spec", paths[f"{name}-half"],
                                     "--n", str(size.search_n)), _check_status, OUTCOME),
        ]
    return [jobs]


# -------------------------------------------------------------- shared

def _write_specs(inputs: Path, specs: dict) -> dict[str, str]:
    paths = {}
    for name, spec in specs.items():
        path = inputs / f"{name}.json"
        path.write_text(spec.to_json() + "\n")
        paths[name] = str(path)
    return paths


_MAKERS = {"scan": _scan, "solve": _solve, "validate": _validate, "certify": _certify}


def build(workload: str, seed: int, inputs: Path, size: Size = FULL) -> list[list[Job]]:
    """Write the workload's spec files under ``inputs`` and return its passes."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _MAKERS[workload](size, seed, inputs)
