"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Each test enforces the stated numeric tolerances and
the stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from circleopt import (
    KAPPA,
    GridFunction,
    Translate,
    check_kappa,
    convexity_defect,
    sample,
    scan_translates,
    search_c,
    solve_calibrated,
    uniform_defect,
)
from circleopt.catalog import (
    cosine,
    cosine_extremal_blend,
    quadratic_extremal,
    random_antisym_even,
)
from circleopt.torus import PiecewisePoly
from circleopt.validate import run_all

FOUR_PI_SQ = 4.0 * math.pi**2


def _report(num: int, name: str, ok: bool, detail: str, dt: float, budget: float):
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{detail}; {dt:.2f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert dt < budget, f"criterion {num} exceeded runtime budget: {dt:.2f}s >= {budget}s"


@pytest.fixture(scope="module")
def cosine_solution():
    return solve_calibrated(cosine(), d=2, grid_n=4096)


def test_criterion_1_eta_of_cosine():
    t0 = time.time()
    exact = convexity_defect(cosine(), "second_derivative")
    fd = convexity_defect(cosine(), "finite_difference", 4096)
    ok = abs(exact.eta - FOUR_PI_SQ) <= 1e-9 and abs(fd.eta - FOUR_PI_SQ) <= 0.01 * FOUR_PI_SQ
    _report(
        1,
        "eta of cosine",
        ok,
        f"second-derivative eta={exact.eta!r}, finite-difference eta={fd.eta:.6f}",
        time.time() - t0,
        1.0,
    )


def test_criterion_2_cosine_solve(cosine_solution):
    t0 = time.time()
    sol = solve_calibrated(cosine(), d=2, grid_n=4096)
    ok = sol.converged and abs(sol.beta - 1.0) <= 1e-6 and sol.residual < 1e-6 * 2.0
    _report(
        2,
        "cosine sub-action solve",
        ok,
        f"converged={sol.converged}, beta={sol.beta!r}, residual={sol.residual:.2e}, "
        f"iterations={sol.iterations}",
        time.time() - t0,
        10.0,
    )


def test_criterion_3_defect_contraction_of_solutions():
    t0 = time.time()
    rng = np.random.default_rng(7)
    observables = [
        ("cosine", cosine()),
        ("quadratic-extremal", quadratic_extremal()),
        ("random-antisym", random_antisym_even(rng)),
    ]
    failures = []
    for name, f in observables:
        eta_f = convexity_defect(f, "auto").eta
        for d, n in ((2, 4096), (3, 3072)):
            sol = solve_calibrated(f, d=d, grid_n=n)
            if not sol.converged:
                failures.append(f"{name} d={d}: no convergence")
                continue
            eta_g = convexity_defect(sol.g, "finite_difference", min_delta_nodes=4).eta
            if eta_g > eta_f / (d * d - 1) + 0.02 * eta_f:
                failures.append(f"{name} d={d}: eta(g)={eta_g:.4f} > {eta_f/(d*d-1):.4f}+2%")
            fg = sample(f, n)
            tol = 10.0 * (fg.lipschitz_estimate() + sol.g.lipschitz_estimate()) / n
            for delta in (0.125, 0.25, 0.5):
                lhs = float(uniform_defect(sol.g, delta))
                rhs = float(uniform_defect(fg, delta / d)) + float(uniform_defect(sol.g, delta / d))
                if lhs > rhs + tol:
                    failures.append(f"{name} d={d} delta={delta}: defect chain violated")
    _report(
        3,
        "defect contraction of calibrated solutions",
        not failures,
        "; ".join(failures) if failures else "6 solves, defect bounds and chains all hold",
        time.time() - t0,
        60.0,
    )


def test_criterion_4_cosine_translate_scan():
    t0 = time.time()
    res = scan_translates(cosine(), 64, grid_n=4096, max_q=32)
    failures = []
    for r in res.rows:
        if not r.converged:
            failures.append(f"omega={r.omega}: no convergence")
        if not r.certificate.passed:
            failures.append(f"omega={r.omega}: certificate {r.certificate.status}")
        if r.beta_gap >= 1e-4:
            failures.append(f"omega={r.omega}: |beta - best sturmian| = {r.beta_gap:.2e}")
    r0, r_half = res.rows[0], res.rows[32]
    if (r0.rotation_p, r0.rotation_q) != (0, 1) or abs(r0.beta - 1.0) > 1e-6:
        failures.append(f"omega=0 row wrong: rot={r0.rotation_p}/{r0.rotation_q}, beta={r0.beta}")
    if (r_half.rotation_p, r_half.rotation_q) != (1, 2) or abs(r_half.beta - 0.5) > 1e-6:
        failures.append(
            f"omega=1/2 row wrong: rot={r_half.rotation_p}/{r_half.rotation_q}, beta={r_half.beta}"
        )
    max_gap = max(r.beta_gap for r in res.rows)
    _report(
        4,
        "64-translate scan of cosine",
        not failures,
        "; ".join(failures[:4]) if failures else f"64/64 certificates pass, max beta gap {max_gap:.1e}",
        time.time() - t0,
        300.0,
    )


def test_criterion_5_kappa_gate():
    t0 = time.time()
    cos_rep = check_kappa(cosine())
    ext_rep = check_kappa(quadratic_extremal())
    cos_margin = cos_rep.margins["ratio_above_kappa"]
    ext_margin = ext_rep.raw_margins["ratio_above_kappa"]
    ok = (
        cos_rep.passed
        and 5e-4 < cos_margin < 6e-4
        and ext_rep.passed
        and abs(ext_margin - (1.0 / 32.0 - KAPPA)) < 1e-12
        and 0.02480 < KAPPA < 0.02481
    )
    _report(
        5,
        "kappa gate",
        ok,
        f"kappa={KAPPA!r}, cosine margin={cos_margin:.6f}, extremal margin={ext_margin:.6f}",
        time.time() - t0,
        1.0,
    )


def test_criterion_6_cosine_like_end_to_end():
    t0 = time.time()
    observables = [
        ("cosine", cosine()),
        ("quadratic-extremal", quadratic_extremal()),
        ("blend", cosine_extremal_blend(0.5)),
    ]
    failures = []
    for name, f in observables:
        if not check_kappa(f).passed:
            failures.append(f"{name}: kappa gate failed")
            continue
        res = scan_translates(f, 16, grid_n=4096, max_q=32)
        bad = [r for r in res.rows if not (r.certificate.passed and r.converged)]
        if bad:
            failures.append(f"{name}: {len(bad)}/16 rows failed")
    _report(
        6,
        "cosine-like family end-to-end",
        not failures,
        "; ".join(failures) if failures else "3 observables x 16 translates, all certificates pass",
        time.time() - t0,
        300.0,
    )


def test_criterion_7_search_c_on_half_square():
    t0 = time.time()
    h = PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False)
    rep = search_c(h, 10_000)
    c = rep.witnesses["c"]
    ok = (
        rep.passed
        and 0.0 < c < 0.25
        and rep.raw_margins["H1_window_gap"] > 1e-4
        and rep.raw_margins["H2_slope"] > 1e-4
    )
    _report(
        7,
        "window search on x^2/2",
        ok,
        f"c={c}, margins=({rep.raw_margins['H1_window_gap']:.4f}, {rep.raw_margins['H2_slope']:.4f})",
        time.time() - t0,
        1.0,
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    results = run_all(seed=0, cases=200)
    failures = [f"{r.name}: {r.violations} violations ({r.detail})" for r in results if not r.passed]
    small = [r.name for r in results if r.cases < 200]
    if small:
        failures.append(f"suites below 200 cases: {small}")
    total = sum(r.cases for r in results)
    _report(
        8,
        "randomized property suites",
        not failures,
        "; ".join(failures) if failures else f"{total} checks across {len(results)} suites, zero violations",
        time.time() - t0,
        120.0,
    )


def test_criterion_9_uniqueness_diagnostic(cosine_solution):
    t0 = time.time()
    sol0 = cosine_solution
    rng = np.random.default_rng(42)
    xs = np.arange(4096) / 4096
    g0 = GridFunction(
        0.25 * np.cos(2 * np.pi * xs + rng.uniform(0, 2 * np.pi))
        + 0.1 * np.cos(4 * np.pi * xs + rng.uniform(0, 2 * np.pi))
    )
    sol1 = solve_calibrated(cosine(), d=2, grid_n=4096, g0=g0)
    diff = sol0.g.values - sol1.g.values
    spread = float(np.max(diff) - np.min(diff))
    ok = sol0.converged and sol1.converged and spread < 10.0 * sol0.tol
    _report(
        9,
        "uniqueness up to constants",
        ok,
        f"spread={spread:.2e} vs 10*tol={10*sol0.tol:.2e}",
        time.time() - t0,
        30.0,
    )
