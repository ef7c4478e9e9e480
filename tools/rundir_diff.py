"""Compare the CLI run directories of two source trees, job by job.

    python tools/rundir_diff.py PARENT_SRC CHANGE_SRC --seed N [--workload W ...] [--verdicts]

Writes the inputs of the benchmark workloads (``benchmarks/workloads.py``
at FULL size; every workload unless ``--workload`` names some) once, then
runs each distinct CLI job of them under each tree: one subprocess per
tree, with that tree's ``src`` first on ``sys.path``.  The exit code,
stdout, stderr and every file of each job's run directory must be equal.
The first differences are printed; the exit status is 1 on any difference
and 0 when every job is identical.

With ``--verdicts``, for a change that moves numbers on purpose, only the
verdicts must be equal: the exit code, the run directory's file names,
and in its JSON files every status, converged flag, ``orbit_check.ok``,
``all_pass``, each scan row's certificate status and rotation, and each
validate suite's violations.  The largest |delta beta| over the solves
and scan rows and each tree's largest residual are printed as well, and,
in units of each solve's tol, the change's widest bracket
[beta_lo, beta_hi] and how far the parent's beta lies outside it; a tree
whose artifacts have no bracket fields has no brackets to report.

The inputs are written by the circleopt this process imports; the command
line puts PARENT_SRC first on ``sys.path`` for that.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 1800
SHOWN = 10  # differences printed


def _workloads():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def distinct_jobs(names, seed: int, inputs: Path, size: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every distinct job of the named workloads, inputs written."""
    wl = _workloads()
    jobs: dict[tuple[str, ...], str] = {}
    for name in names:
        for jobs_of_pass in wl.build(name, seed, inputs / name, getattr(wl, size)):
            for job in jobs_of_pass:
                jobs.setdefault(job.argv, f"{name}/{job.name}")
    return [(label, list(argv)) for argv, label in jobs.items()]


def run_jobs(src: str, jobs_file: str) -> None:
    """Worker: run every job of ``jobs_file`` in this process with ``src``
    first on sys.path, each into job-NNN/ under the working directory, and
    write their exit codes and output to results.json there."""
    sys.path.insert(0, src)
    import circleopt.cli

    if Path(src).resolve() not in Path(circleopt.cli.__file__).resolve().parents:
        raise ImportError(f"circleopt imported from {circleopt.cli.__file__}, not from {src}")
    results = []
    for i, (_, argv) in enumerate(json.loads(Path(jobs_file).read_text())):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = circleopt.cli.main(argv + ["--out", f"job-{i:03d}"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a job that raised is recorded, not fatal
                # no traceback: its file paths name the tree, not the behaviour
                code = f"raised {type(exc).__name__}: {exc}"
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    Path("results.json").write_text(json.dumps(results))


def _files(jobdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(jobdir)): p.read_bytes() for p in sorted(jobdir.rglob("*")) if p.is_file()}


def _first_line_diff(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1}: {x!r} != {y!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def run_both(parent_src, change_src, seed: int, names=None, size: str = "FULL"):
    """Run the workloads' jobs under both trees: per job, its label and, for
    each tree, its result (exit code, stdout, stderr) and run-directory files."""
    names = list(names or _workloads().WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="rundir-diff-") as tmp:
        tmp = Path(tmp)
        jobs = distinct_jobs(names, seed, tmp / "inputs", size)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
        sides, procs = [tmp / "parent", tmp / "change"], []
        try:
            for src, side in zip((parent_src, change_src), sides):
                side.mkdir()
                argv = [sys.executable, str(Path(__file__).resolve()), "--run-jobs",
                        str(Path(src).resolve()), str(jobs_file)]
                procs.append(subprocess.Popen(argv, cwd=side, env=env, stderr=subprocess.PIPE, text=True))
            for src, proc in zip((parent_src, change_src), procs):
                _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"the jobs under {src} did not run: {err.strip()}")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        results = [json.loads((side / "results.json").read_text()) for side in sides]
        runs = []
        for i, ((label, _), a, b) in enumerate(zip(jobs, *results)):
            fa, fb = (_files(side / f"job-{i:03d}") for side in sides)
            runs.append((label, (a, fa), (b, fb)))
        return runs


def compare(parent_src, change_src, seed: int, names=None, size: str = "FULL") -> tuple[int, list[str]]:
    """Run the workloads' jobs under both trees: (number of jobs, differences)."""
    runs = run_both(parent_src, change_src, seed, names, size)
    diffs = []
    for label, (a, fa), (b, fb) in runs:
        for key in ("code", "stdout", "stderr"):
            if a[key] != b[key]:
                diffs.append(f"{label}: {key} {a[key]!r} != {b[key]!r}")
        for name in sorted(fa.keys() | fb.keys()):
            if name not in fa or name not in fb:
                diffs.append(f"{label}: {name} only under {'parent' if name in fa else 'change'}")
            elif fa[name] != fb[name]:
                diffs.append(f"{label}: {name} differs, {_first_line_diff(fa[name], fb[name])}")
    return len(runs), diffs


def verdicts(code, files: dict[str, bytes]) -> tuple[dict, dict, list[float], dict]:
    """One job's verdicts, betas, residuals and brackets, read from its exit
    code and run-directory files; verdicts, betas and brackets (beta_lo,
    beta_hi, tol) are keyed by where they sit, and a solve without bracket
    fields has no bracket.  A non-finite number, written as a string, is
    read back as a float."""
    found: dict = {"code": code, "files": sorted(files)}
    betas: dict[str, float] = {}
    residuals: list[float] = []
    brackets: dict[str, tuple[float, float, float]] = {}

    def read(key, doc):
        betas[key] = float(doc["beta"])
        residuals.append(float(doc["residual"]))
        if "beta_lo" in doc:
            brackets[key] = (float(doc["beta_lo"]), float(doc["beta_hi"]), float(doc["tol"]))

    for name, data in files.items():
        kind = Path(name).name
        if kind not in ("solution.json", "scan.json", "criterion.json", "validate.json"):
            continue
        doc = json.loads(data)
        if kind == "solution.json":
            found[f"{name} converged"] = doc["converged"]
            found[f"{name} orbit_check.ok"] = doc["orbit_check"]["ok"]
            read(name, doc)
        elif kind == "scan.json":
            found[f"{name} all_pass"] = doc["all_pass"]
            for i, row in enumerate(doc["rows"]):
                key = f"{name} row {i}"
                found[f"{key} converged"] = row["converged"]
                found[f"{key} certificate"] = row["certificate"]["status"]
                found[f"{key} rotation"] = row["rotation"]
                read(key, row)
        elif kind == "criterion.json":
            found[f"{name} status"] = doc["status"]
        else:
            for suite in doc:
                found[f"{name} {suite['name']} violations"] = suite["violations"]
    return found, betas, residuals, brackets


def compare_verdicts(parent_src, change_src, seed: int, names=None, size: str = "FULL"):
    """Run the workloads' jobs under both trees: (number of jobs, verdict
    differences, largest |delta beta|, each tree's largest residual, and,
    in units of tol, the change's widest bracket and the parent's beta
    furthest outside the change's bracket, both None without brackets)."""
    runs = run_both(parent_src, change_src, seed, names, size)
    diffs, max_dbeta, max_residual = [], 0.0, [0.0, 0.0]
    widest = outside = None
    for label, *sides in runs:
        (va, ba, ra, _), (vb, bb, rb, brackets) = (verdicts(r["code"], files) for r, files in sides)
        for key in sorted(va.keys() | vb.keys()):
            if va.get(key) != vb.get(key):
                diffs.append(f"{label}: {key} {va.get(key)!r} != {vb.get(key)!r}")
        for key in ba.keys() & bb.keys():
            max_dbeta = max(max_dbeta, abs(ba[key] - bb[key]))
        for k, res in enumerate((ra, rb)):
            max_residual[k] = max([max_residual[k], *res])
        for key, (lo, hi, tol) in brackets.items():
            widest = max(widest or 0.0, (hi - lo) / tol)
            if key in ba:
                outside = max(outside or 0.0, (lo - ba[key]) / tol, (ba[key] - hi) / tol)
    return len(runs), diffs, max_dbeta, tuple(max_residual), widest, outside


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-jobs"]:  # a worker started by compare()
        run_jobs(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=("scan", "solve", "validate", "certify"))
    ap.add_argument("--verdicts", action="store_true",
                    help="compare verdicts only, and report the largest |delta beta| and residuals")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.parent_src.resolve()))
    if args.verdicts:
        count, diffs, max_dbeta, (res_parent, res_change), widest, outside = compare_verdicts(
            args.parent_src, args.change_src, args.seed, args.workload)
    else:
        count, diffs = compare(args.parent_src, args.change_src, args.seed, args.workload)
    for line in diffs[:SHOWN]:
        print(line)
    if len(diffs) > SHOWN:
        print(f"... {len(diffs) - SHOWN} more")
    if args.verdicts:
        print(f"largest |delta beta| {max_dbeta:.3g}; largest residual {res_parent:.3g} (parent), "
              f"{res_change:.3g} (change)")
        if widest is None:
            print("no bracket fields in the change's artifacts")
        else:
            print(f"widest bracket {widest:.3g} tol; parent beta outside the change's bracket by "
                  f"at most {outside:.3g} tol (0: inside)")
        print(f"{count} jobs: " + (f"{len(diffs)} verdict differences" if diffs else "same verdicts"))
    else:
        print(f"{count} jobs: " + (f"{len(diffs)} differences" if diffs else "identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
