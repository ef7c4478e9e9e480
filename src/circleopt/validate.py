"""Seeded randomized validation suites for the library's inequalities.

Each suite draws deterministic random inputs, checks an inequality family
with explicit tolerances (the repo convention is additive slack of
10 * Lip / N for grid suprema, exact comparisons where the arithmetic is
exact), and reports the number of violations together with the worst
slack seen.  ``run_all`` is the engine behind the ``validate`` CLI
subcommand; zero violations across all suites is the pass condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import constant, cosine, random_trig
from .convexity import convexity_defect, pointwise_defect, uniform_defect
from .sturmian import preimage_branch_bound, rotation_numbers, sturmian_measure
from .torus import GridFunction, Scale, Sum, lipschitz_estimate, sample
from .transfer import max_transfer, solve_calibrated


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    violations: int
    worst_slack: float  # most negative slack seen (>= 0 means all good)
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self):
        return {
            "name": self.name,
            "cases": self.cases,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "pass": self.passed,
            "detail": self.detail,
        }


class _Tally:
    def __init__(self):
        self.cases = 0
        self.violations = 0
        self.worst = math.inf
        self.first = ""

    def check(self, slack: float, desc: str = ""):
        self.cases += 1
        self.worst = min(self.worst, slack)
        if slack < 0.0:
            self.violations += 1
            if not self.first:
                self.first = desc

    def result(self, name: str) -> SuiteResult:
        worst = self.worst if self.cases else 0.0
        return SuiteResult(name, self.cases, self.violations, worst, self.first)


def suite_cone_laws(seed: int, cases: int) -> SuiteResult:
    """Subadditivity, max-law and positive homogeneity of the defect
    functionals (pointwise, uniform, and the defect constant eta)."""
    grid_n = 512
    rng = np.random.default_rng(seed)
    t = _Tally()
    xs = np.arange(grid_n) / grid_n
    for _ in range(cases):
        f = random_trig(rng)
        g = random_trig(rng)
        fv = f(xs)
        gv = g(xs)
        x = float(rng.uniform(0, 1))
        delta = float(rng.choice([0.125, 0.25, 0.0625]))
        a = float(rng.uniform(0, 3))
        b = float(rng.uniform(-2, 2))

        scale = max(1.0, np.max(np.abs(fv)), np.max(np.abs(gv)))
        tol_pt = 1e-9 * scale

        pf = pointwise_defect(f, x, delta)
        pg = pointwise_defect(g, x, delta)
        p_sum = pointwise_defect(lambda y: f(y) + g(y), x, delta)
        p_max = pointwise_defect(lambda y: np.maximum(f(y), g(y)), x, delta)
        p_hom = pointwise_defect(lambda y: a * f(y) + b, x, delta)
        t.check(pf + pg - p_sum + tol_pt, "pointwise subadditivity")
        t.check(max(pf, pg) - p_max + tol_pt, "pointwise max law")
        t.check(tol_pt - abs(p_hom - a * pf), "pointwise homogeneity")

        # every delta is a multiple of 1/grid_n: node lookups in the samples
        sum_grid = GridFunction(fv + gv)
        max_grid = GridFunction(np.maximum(fv, gv))
        uf = uniform_defect(GridFunction(fv), delta)
        ug = uniform_defect(GridFunction(gv), delta)
        u_sum = uniform_defect(sum_grid, delta)
        u_max = uniform_defect(max_grid, delta)
        u_hom = uniform_defect(GridFunction(a * fv + b), delta)
        t.check(uf + ug - u_sum + tol_pt, "uniform subadditivity")
        t.check(max(uf, ug) - u_max + tol_pt, "uniform max law")
        t.check(tol_pt * max(1.0, a) - abs(u_hom - a * uf), "uniform homogeneity")

        rf = convexity_defect(f, "second_derivative", grid_n)
        rg = convexity_defect(g, "second_derivative", grid_n)
        r_sum = convexity_defect(sum_grid, "finite_difference")
        r_max = convexity_defect(max_grid, "finite_difference")
        tol_eta = rf.error_bound + rg.error_bound + 1e-9
        t.check(rf.eta + rg.eta - r_sum.eta + tol_eta, "eta subadditivity")
        t.check(max(rf.eta, rg.eta) - r_max.eta + tol_eta, "eta max law")
        r_hom = convexity_defect(Sum((Scale(a, f), constant(b))), "second_derivative", grid_n)
        t.check(tol_eta * max(1.0, a) - abs(r_hom.eta - a * rf.eta), "eta homogeneity")
    return t.result("cone-laws")


def suite_transfer_laws(seed: int, cases: int) -> SuiteResult:
    """Monotonicity and constant-shift equivariance of the max-transfer
    operator, checked exactly at nodes."""
    grid_n = 1440
    rng = np.random.default_rng(seed)
    t = _Tally()
    for _ in range(cases):
        f = sample(random_trig(rng), grid_n)
        bump = np.abs(rng.normal(size=grid_n))
        h = GridFunction(f.values + bump)
        c = float(rng.uniform(-5, 5))
        d = int(rng.choice([2, 3]))
        mf = max_transfer(f, d)
        mh = max_transfer(h, d)
        t.check(float(np.min(mh.values - mf.values)), "monotonicity")
        shifted = max_transfer(GridFunction(f.values + c), d)
        dev = float(np.max(np.abs(shifted.values - (mf.values + c))))
        t.check(1e-12 * max(1.0, abs(c)) - dev, "constant shift")
    return t.result("transfer-laws")


def suite_defect_contraction(seed: int, cases: int) -> SuiteResult:
    """Uniform-defect contraction under the max-transfer operator:
    defect of M_d f at delta is at most the defect of f at delta/d."""
    grid_n = 1440
    rng = np.random.default_rng(seed)
    t = _Tally()
    for _ in range(cases):
        f = sample(random_trig(rng), grid_n)
        d = int(rng.choice([2, 3]))
        delta = float(rng.choice([0.125, 0.0625]))
        mf = max_transfer(f, d)
        lhs = uniform_defect(mf, delta)
        rhs = uniform_defect(f, delta / d)
        tol = 10.0 * f.lipschitz_estimate() / mf.n
        t.check(rhs - lhs + tol, f"contraction d={d} delta={delta}")
    return t.result("defect-contraction")


def suite_derivative_gap(seed: int, cases: int) -> SuiteResult:
    """f'(x) - f'(x + delta) <= eta(f) * delta for smooth observables."""
    grid_n = 1024
    rng = np.random.default_rng(seed)
    t = _Tally()
    xs = np.arange(64) / 64
    for _ in range(cases):
        f = random_trig(rng)
        fp = f.derivative()
        rep = convexity_defect(f, "second_derivative", grid_n)
        for delta in (0.25, 0.5):
            gap = float(np.max(fp(xs) - fp(xs + delta)))
            tol = rep.error_bound * delta + 1e-12
            t.check(rep.eta * delta - gap + tol, f"derivative gap delta={delta}")
    return t.result("derivative-gap")


def suite_orbit_closure() -> SuiteResult:
    """Doubling permutes every Sturmian orbit with q <= 50 and the orbit fits
    in its stated semicircle (exact: integer numerators over 2^q - 1)."""
    t = _Tally()
    for p, q in rotation_numbers(50):
        mu = sturmian_measure(p, q)
        m, nums = mu.modulus, mu.numerators
        closed = sorted(2 * n % m for n in nums) == sorted(nums)
        inside = all(2 * ((n - mu.start) % m) <= m for n in nums)
        t.check(1.0 if (closed and inside) else -1.0, f"orbit {p}/{q}")
    return t.result("orbit-closure")


def suite_branch_bound(seed: int, cases: int) -> SuiteResult:
    """-2 (g(x) - g(x+1/2)) is bounded by the preimage-branch defect sum
    for a solved cosine pair, at n = 2 and 3."""
    grid_n = 4096
    rng = np.random.default_rng(seed)
    f = cosine()
    sol = solve_calibrated(f, d=2, grid_n=grid_n)
    g = sol.g
    tol = 10.0 * (lipschitz_estimate(f) + g.lipschitz_estimate()) / grid_n
    t = _Tally()
    for _ in range(cases):
        x = float(rng.uniform(0, 1))
        for n in (2, 3):
            lhs = -2.0 * (g(x) - g(x + 0.5))
            rhs = preimage_branch_bound(f, g, x, n)
            t.check(rhs - lhs + tol, f"branch bound n={n} x={x:.4f}")
    return t.result("branch-bound")


def run_all(seed: int = 0, cases: int = 200) -> list[SuiteResult]:
    """Run every suite with deterministic sub-seeds; cases < 1 is a ValueError."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    return [
        suite_cone_laws(seed + 1, cases),
        suite_transfer_laws(seed + 2, cases),
        suite_defect_contraction(seed + 3, cases),
        suite_derivative_gap(seed + 4, cases),
        suite_orbit_closure(),
        suite_branch_bound(seed + 5, cases),
    ]
