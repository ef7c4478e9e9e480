"""Command-line front end.

Subcommands: solve, eta, sturmian, check, scan, validate.  Each cmd_*
computes, prints its summary and returns (exit code, config entries beyond
the parsed arguments, {file name: text}); main alone writes those files and
the configuration -- every parsed argument that is set, except --out, plus
those entries -- echoed to config.json, into <out>/run-<confighash>/, so
identical configurations produce byte-identical outputs.  A command that
raises creates no run directory; one that returns gets one, whatever its
exit code.  Exit codes: 0 pass/success, 1 criterion fail,
2 inconclusive, 3 usage (argparse's included) or convergence error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import convexity_defect, uniform_defect
from .criteria import (
    check_class_a,
    check_class_b,
    check_kappa,
    check_theorem_sturm,
    scan_translates,
    search_c,
)
from .sturmian import best_sturmian, sturmian_measure
from .torus import GridFunction, lipschitz_estimate, sample, spec_from_dict
from .transfer import beta_lower_bound, solve_calibrated
from .validate import run_all

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


def _canonical(obj):
    """Make an object JSON-serializable with deterministic content."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _json_text(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def _run_dir(out: str, config: dict) -> Path:
    text = json.dumps(_canonical(config), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    path = Path(out) / f"run-{digest}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_spec(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path} is not valid JSON: {exc}") from exc
    try:
        return spec_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"malformed function spec in {path}: {exc}") from exc


def _common_config(args) -> dict:
    """The subcommand, the version and every parsed argument that is set
    but --out, so that no flag can miss the run-directory hash."""
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("out", "func", "command")}
    return {"subcommand": args.command, "version": __version__, **given}


def _delta_table(g: GridFunction) -> list[dict]:
    """Uniform defect of g at up to 32 node-aligned deltas k/N, as rows
    ``{"delta", "xi_star", "error_bound"}`` of the ``eta`` artifact."""
    n = g.n
    stride = max(1, (n // 2) // 32)
    err = 2.0 * g.lipschitz_estimate() / n
    return [{"delta": k / n, "xi_star": uniform_defect(g, k / n), "error_bound": err}
            for k in range(stride, n // 2 + 1, stride)]


def cmd_solve(args) -> tuple[int, dict, dict]:
    f = _load_spec(args.spec)
    # built first so that a cap over the enumeration budget fails before the solve
    table = beta_lower_bound(f, d=args.d, max_period=args.orbit_period_cap)
    sol = solve_calibrated(f, d=args.d, grid_n=args.n, tol=args.tol, max_iter=args.max_iter)
    gap = sol.beta - table.best.average
    # beta(f) <= sup_x f(x) + h(x) - h(dx) for any continuous h; take h = the
    # interpolant of a calibrated g.  At the d*N fine nodes that sup is the
    # grid's gain, at most beta_hi; a point between fine nodes lies within
    # 1/(2dN) of one, so the sup exceeds the node max by at most
    # (Lip f + (d+1) Lip g) / (2dN), Lip f off f's tree, Lip g the solved g's.
    lip_f, lip_g = lipschitz_estimate(f), sol.g.lipschitz_estimate()
    cross_tol = (sol.beta_hi - sol.beta) + (lip_f + (args.d + 1) * lip_g) / (2 * args.d * args.n)
    if not math.isfinite(cross_tol):
        raise ValueError(f"orbit cross-check tolerance = {cross_tol} is not finite: the slopes of f and g overflow")
    beta_ok = gap >= -cross_tol
    doc = sol.to_dict()
    doc["orbit_check"] = {
        "best_orbit_average": table.best.average,
        "best_orbit_period": table.best.period,
        "beta_minus_best": gap,
        "tolerance": cross_tol,
        "ok": beta_ok,
    }
    print(f"beta = {sol.beta!r}  residual = {sol.residual:.3e}  iterations = {sol.iterations}")
    code = EXIT_PASS if sol.converged and beta_ok else EXIT_ERROR
    return code, {"orbit_period_cap": table.max_period}, {"solution.json": _json_text(doc), "g.csv": sol.g.to_csv()}


def cmd_eta(args) -> tuple[int, dict, dict]:
    f = _load_spec(args.spec)
    rep = convexity_defect(f, args.mode, args.n)
    doc = {**rep.to_dict(), "delta_table": _delta_table(sample(f, args.n))}
    print(f"eta = {rep.eta!r}  ({rep.method}, {rep.bound_direction})")
    return EXIT_PASS, {}, {"convexity.json": _json_text(doc)}


def cmd_sturmian(args) -> tuple[int, dict, dict]:
    mu = sturmian_measure(args.p, args.q)
    doc = mu.to_dict()
    if args.spec:
        f = _load_spec(args.spec)
        doc["integral"] = mu.integrate(f)
        best_mu, best_val = best_sturmian(f, args.max_q)
        doc["best"] = {"p": best_mu.p, "q": best_mu.q, "value": best_val}
    print(f"orbit of {args.p}/{args.q}: {[str(x) for x in mu.orbit]}")
    if "integral" in doc:
        print(f"integral = {doc['integral']!r}; best over q <= {args.max_q}: "
              f"{doc['best']['p']}/{doc['best']['q']} -> {doc['best']['value']!r}")
    return EXIT_PASS, {}, {"sturmian.json": _json_text(doc)}


def cmd_check(args) -> tuple[int, dict, dict]:
    f = _load_spec(args.spec)
    if args.criterion in ("sturm", "classA") and (args.a is None or args.b is None):
        raise ValueError(f"--criterion {args.criterion} needs --a and --b")
    if args.criterion == "sturm":
        rep = check_theorem_sturm(f, args.a, args.b, args.n)
    elif args.criterion == "classA":
        rep = check_class_a(f, args.a, args.b, args.v or 0.0, args.n)
    elif args.criterion == "classB":
        rep = check_class_b(f, args.n)
    elif args.criterion == "kappa":
        rep = check_kappa(f, args.n)
    else:  # search-c
        rep = search_c(f, args.n)
    worst = min(rep.margins.values())
    print(f"{rep.criterion}: {rep.status} (worst net margin {worst!r})")
    # the window flags stay in config.json as null when unset
    extras = {"a": args.a, "b": args.b, "v": args.v}
    return _STATUS_EXIT[rep.status], extras, {"criterion.json": _json_text(rep.to_dict())}


def cmd_scan(args) -> tuple[int, dict, dict]:
    f = _load_spec(args.spec)
    res = scan_translates(f, args.omega_count, grid_n=args.n, max_q=args.max_q,
                          tol=args.tol, max_iter=args.max_iter)
    n_pass = sum(1 for r in res.rows if r.converged and r.certificate.passed)
    print(f"{n_pass}/{len(res.rows)} certificates pass")
    return _STATUS_EXIT[res.status], {}, {"scan.csv": res.to_csv(), "scan.json": _json_text(res.to_dict())}


def cmd_validate(args) -> tuple[int, dict, dict]:
    results = run_all(seed=args.seed, cases=args.cases)
    for r in results:
        print(f"{r.name:22s} cases={r.cases:5d} violations={r.violations} worst_slack={r.worst_slack!r}")
    code = EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL
    return code, {}, {"validate.json": _json_text([r.to_dict() for r in results])}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the process."""
    ap = argparse.ArgumentParser(
        prog="circleopt",
        description="Ergodic optimization toolkit for circle expanding maps",
    )
    ap.add_argument("--version", action="version", version=f"circleopt {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="path to a function-spec JSON file")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
        p.add_argument("--n", "--N", dest="n", type=int, default=4096, help="grid size (default 4096)")

    p = sub.add_parser("solve", help="solve the calibrated sub-action equation")
    add_common(p)
    p.add_argument("--d", type=int, default=2, help="expansion factor (default 2)")
    p.add_argument("--tol", type=float, default=None, help="bracket width tolerance (default 1e-9 * range)")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    p.add_argument("--orbit-period-cap", dest="orbit_period_cap", type=int, default=None,
                   help="period cap for the periodic-orbit cross-check "
                        "(default: largest P with d^P <= 2^16)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eta", help="convexity defect of an observable")
    add_common(p)
    p.add_argument("--mode", choices=["auto", "second_derivative", "finite_difference"], default="auto")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("sturmian", help="construct a Sturmian measure, optionally integrate a spec")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spec", default=None, help="optional spec to integrate")
    p.add_argument("--max-q", dest="max_q", type=int, default=32)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_sturmian)

    p = sub.add_parser("check", help="run a criterion checker")
    add_common(p)
    p.add_argument("--criterion", choices=["sturm", "classA", "classB", "kappa", "search-c"], required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="solve and certify all translates of an observable")
    add_common(p)
    p.add_argument("--omega-count", dest="omega_count", type=int, default=64)
    p.add_argument("--max-q", dest="max_q", type=int, default=32)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("validate", help="run the randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, which here means inconclusive
        return EXIT_ERROR if exc.code else EXIT_PASS
    try:
        code, extras, files = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    config = {**_common_config(args), **extras}
    rundir = _run_dir(args.out, config)
    for name, text in {"config.json": _json_text(config), **files}.items():
        (rundir / name).write_text(text)
    print(f"artifacts in {rundir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
