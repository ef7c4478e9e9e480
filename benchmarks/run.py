"""Benchmark for the circleopt CLI.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 20 --trace 0

Drives ``circleopt.cli.main(argv)`` in-process on seeded spec files that
the benchmark writes (see workloads.py and README.md).  The run goes
through whole cycles of the workload's passes until ``--seconds`` have
elapsed (at least one cycle) and checks every job's artifacts.

``--trace 0`` reports the end-to-end metrics: setup_s (median over fresh
processes that import circleopt and write the inputs), wall_s (median
time to finish every job of a pass), peak_rss_mb and pass_ratio.
``--trace 1`` alternates an untraced and a traced run of the first pass,
requires their run directories to be byte-identical, and reports the
per-layer metrics (medians over traced passes) and trace.overhead_s.

The last stdout line is the JSON result; the line before it stamps the
machine, versions, commit and seed.  Both go to .bench_out/ as well, with
the spans of a traced run.  Working files live under .bench_tmp/ and are
removed at exit.  Exits 2 without a result if circleopt cannot be
imported from the checkout's src/.
"""

import os

# single-threaded BLAS/OpenMP: set before any import below loads numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5


def load_cli():
    """Import circleopt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import circleopt.cli

    if src not in Path(circleopt.__file__).resolve().parents:
        raise ImportError(f"circleopt imported from {circleopt.__file__}, not from {src}")
    return circleopt.cli


def run_pass(cli, jobs, out: Path, rec=None) -> list:
    """Run one pass of jobs, each into its own --out directory, and check them."""
    done = {}
    results = []
    for i, job in enumerate(jobs):
        jobdir = out / f"job-{i:02d}"
        if rec is not None:
            rec.job = f"{out.name}/{job.name}"
        sink = io.StringIO()
        code, problems = None, []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(job.argv) + ["--out", str(jobdir)])
        except (Exception, SystemExit) as exc:  # a job that raised is a failed job
            problems.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        rundirs = sorted(jobdir.glob("run-*"))
        result = workloads.JobResult(job, code, rundirs[0] if len(rundirs) == 1 else None,
                                     seconds, problems)
        if result.rundir is None:
            result.require(False, "no single run directory")
        workloads.check_job(result, done)
        done[job.name] = result
        results.append(result)
    return results


def tree(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def observed(results, key: str) -> float:
    return max((r.observed[key] for r in results if key in r.observed), default=0.0)


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh processes of the time from spawn until the inputs are written.

    Each process runs this file with ``--setup-into``: it imports circleopt
    and builds the workload's inputs, then exits.
    """
    times = []
    for k in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--setup-into", str(workdir / f"setup-{k}")]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        size=workloads.FULL):
    """Measure one workload; returns (result line, detail, spans)."""
    setup_s = None if trace else setup_seconds(workload, seed, workdir)
    passes = workloads.build(workload, seed, workdir / "inputs", size)

    cli = sys.modules["circleopt.cli"]
    # the untimed run goes through whole cycles of the passes, so every
    # commit times the same inputs; the traced run repeats the first pass
    cycle = 1 if trace else len(passes)
    deadline = time.perf_counter() + seconds
    results, walls, traced_walls, layer_runs, spans, mismatches = [], [], [], [], [], []
    i = 0
    while i == 0 or i % cycle or time.perf_counter() < deadline:
        if not trace:
            out = workdir / f"pass-{i}"
            res = run_pass(cli, passes[i % cycle], out)
            walls.append(sum(r.seconds for r in res))
            results += res
            shutil.rmtree(out, ignore_errors=True)
        else:
            ref_out, out = workdir / f"ref-{i}", workdir / f"traced-{i}"
            ref = run_pass(cli, passes[0], ref_out)
            rec = tracer.Recorder()
            with tracer.instrument(rec):
                res = run_pass(cli, passes[0], out, rec)
            walls.append(sum(r.seconds for r in ref))
            traced_walls.append(sum(r.seconds for r in res))
            if tree(ref_out) != tree(out):
                mismatches.append(f"pass {i}: traced run directories differ from the untraced run's")
            metrics = tracer.layer_metrics(rec.spans)
            metrics["cli.artifact_bytes"] = float(sum(len(b) for b in tree(out).values()))
            metrics["trace.spans"] = float(len(rec.spans))
            layer_runs.append(metrics)
            spans += [s.row(j) for j, s in enumerate(rec.spans)]
            results += ref + res
            shutil.rmtree(ref_out, ignore_errors=True)
            shutil.rmtree(out, ignore_errors=True)
        i += 1

    failed = sum(1 for r in results if not r.ok)
    if trace:
        metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
        metrics["max_residual"] = observed(results, "max_residual")
        metrics["max_beta_gap"] = observed(results, "max_beta_gap")
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = layer_units()
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - failed / len(results),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
    line = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {
        "passes": i,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "problems": [p for r in results for p in r.problems] + mismatches,
    }
    return line, detail, spans


def layer_units() -> dict:
    units = {}
    for name in tracer.layer_metric_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("ns_per_node_sweep"):
            units[name] = "ns"
        else:
            units[name] = "count"
    units.update({"cli.artifact_bytes": "B", "max_residual": "1", "max_beta_gap": "1",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def stamp(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)  # one set-up sample
    args = ap.parse_args(argv)

    try:
        load_cli()
    except ImportError as exc:
        print(f"error: cannot import circleopt: {exc}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        workloads.build(args.workload, args.seed, args.setup_into)
        return 0

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        line, detail, spans = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    head = {"stamp": stamp(args.workload, args.seed, bool(args.trace)), "detail": detail}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({**head, "result": line}, indent=2) + "\n")
    if spans:
        with open(out / f"{stem}.spans.jsonl", "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(head))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
