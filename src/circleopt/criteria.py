"""Machine checkers for the sufficient conditions of Sturmian optimization.

Each checker evaluates strict inequalities on grids and reports *margins
net of discretization-error bounds*: a "pass" means provably positive
slack at grid scale, a raw violation at a node means "fail", and a
positive raw margin smaller than its error bound is reported as
"inconclusive" rather than silently certified.  Failing a sufficient
condition never claims anything about the observable itself -- the report
only says the hypothesis was not verified.

The checkers take specs: slope conditions are evaluated on f.derivative(),
so a spec without one (a piecewise polynomial with a jump) is a ValueError;
the window checkers take eta from f'' as well, so a kink is one too, and
so is an f'' (or a half-profile's h'') that is not finite.

Checked conditions, all for the doubling map:

* the two-sided slope/positivity test on a window [a, b] (margin names
  "R_positive" and "R_prime_negative");
* membership in the antisymmetric family with window (a, b) and level v
  (conditions A0, A1, A2);
* membership in the even antisymmetric concave family (class "B");
* the cosine-like ratio gate (f(0) - f(1/4)) / eta(f) > kappa with
  kappa = 7/96 - sqrt(3)/36;
* the window search on a half-profile h (conditions H1, H2);
* a full translate scan: the best Sturmian integral, the solve and the
  antipodal-gap certificate of every translate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convexity import (
    _one_sided,
    _second_derivative_report,
    convexity_defect,
    pointwise_defect,
)
from .sturmian import SturmianCertificate, best_sturmian, sturmian_certificate
from .torus import FunctionSpec, GridFunction, Translate, lipschitz_estimate, sample
from .transfer import SubactionSolution, solve_calibrated

KAPPA = 7.0 / 96.0 - math.sqrt(3.0) / 36.0


@dataclass(frozen=True)
class CriterionReport:
    """Named raw margins and their error bounds for one criterion.

    The net margin is each raw margin less its error bound (0 when absent).
    The status follows from the margins: "fail" if any raw margin is <= 0
    (a witnessed violation at a node), "pass" if every net margin is
    positive, "inconclusive" otherwise.  ``witnesses`` holds the locations
    achieving the worst slack.
    """

    criterion: str
    raw_margins: dict
    error_bounds: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def margins(self) -> dict:
        return {k: v - self.error_bounds.get(k, 0.0) for k, v in self.raw_margins.items()}

    @property
    def status(self) -> str:
        if any(v <= 0.0 for v in self.raw_margins.values()):
            return "fail"
        if all(m > 0.0 for m in self.margins.values()):
            return "pass"
        return "inconclusive"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "status": self.status,
            "pass": self.passed,
            "margins": self.margins,
            "raw_margins": dict(self.raw_margins),
            "error_bounds": dict(self.error_bounds),
            "witnesses": dict(self.witnesses),
            "tolerances": dict(self.tolerances),
            "notes": list(self.notes),
        }


def _check_window(a: float, b: float) -> None:
    if not (a < b < a + 0.5):
        raise ValueError(f"need a < b < a + 1/2, got a={a}, b={b}")


def _window_margin(margin, lo, hi, n, slope, eta_term) -> tuple[float, float, float]:
    """The worst raw margin over ``np.linspace(lo, hi, n + 1)``, its witness
    and its error bound: the most it can fall between two points, ``slope``
    (its Lipschitz bound in x) times half the spacing, plus eta's share."""
    xs = np.linspace(lo, hi, n + 1)
    vals = margin(xs)
    i = int(np.argmin(vals))
    return float(vals[i]), float(xs[i]), slope * ((hi - lo) / n) / 2.0 + eta_term


def check_theorem_sturm(f: FunctionSpec, a: float, b: float, grid_n: int = 4096) -> CriterionReport:
    """Two-window test: positivity margin on [a,b], slope margin on [b, a+1/2].

    Inequalities checked (eta = convexity defect of f):
      on [a, b]:        f(x) - f(x+1/2) - (1/2) max_y defect(f; y, 1/4) > eta/96
                        over the two preimages y of x + 1/2,
      on [b, a+1/2]:    f'(x) - f'(x+1/2) < -eta/6.

    f must be a spec with two symbolic derivatives; one without (a jump in
    a piecewise polynomial or in its derivative) raises the ValueError of
    ``f.derivative()``.
    """
    _check_window(a, b)
    fp = f.derivative()
    eta_rep = convexity_defect(f, "second_derivative", grid_n)
    eta = eta_rep.eta
    lip = lipschitz_estimate(f, grid_n)

    def r_positive(xs):
        z = xs + 0.5
        branch = np.maximum(pointwise_defect(f, z / 2.0, 0.25), pointwise_defect(f, z / 2.0 + 0.5, 0.25))
        return f(xs) - f(xs + 0.5) - 0.5 * branch - eta / 96.0

    # Lip of the left side in x: |f(x)| + |f(x+1/2)| + (1/2)*(4 Lip * 1/2)
    raw1, x1, bound1 = _window_margin(r_positive, a, b, grid_n, 3.0 * lip, eta_rep.error_bound / 96.0)
    raw2, x2, bound2 = _window_margin(lambda xs: -eta / 6.0 - (fp(xs) - fp(xs + 0.5)), b, a + 0.5, grid_n,
                                      2.0 * lipschitz_estimate(fp, grid_n), eta_rep.error_bound / 6.0)

    return CriterionReport(
        "theorem-sturm",
        {"R_positive": raw1, "R_prime_negative": raw2},
        {"R_positive": bound1, "R_prime_negative": bound2},
        witnesses={"R_positive": x1, "R_prime_negative": x2},
        tolerances={"eta": eta, "eta_error": eta_rep.error_bound, "grid_n": grid_n},
        notes=("derivative route: symbolic",),
    )


def check_class_a(
    f: FunctionSpec, a: float, b: float, v: float = 0.0, grid_n: int = 4096
) -> CriterionReport:
    """Antisymmetric-family membership: (A0) identity, (A1) window gap, (A2) slope.

    (A0)  f(x) + f(x+1/2) = 2v at nodes (tolerance 1e-10 * range),
    (A1)  2 f(x) - v - max f > eta/96 on [a, b],
    (A2)  f'(x) < -eta/12 on [b, a+1/2] (checked at nodes of f').

    f must be a spec with two symbolic derivatives, as for check_theorem_sturm.
    """
    _check_window(a, b)
    fp = f.derivative()
    eta_rep = convexity_defect(f, "second_derivative", grid_n)
    eta = eta_rep.eta
    fg = sample(f, grid_n)
    lip = fg.lipschitz_estimate()
    rng = fg.value_range()

    xs = np.arange(grid_n) / grid_n
    tol_a0 = 1e-10 * max(1.0, rng)
    dev = float(np.max(np.abs(fg.values + f(xs + 0.5) - 2.0 * v)))
    raw0 = tol_a0 - dev

    # global max of f: fine grid plus non-smooth candidates; upper estimate
    fine = np.arange(4 * grid_n) / (4 * grid_n)
    fmax = float(max([np.max(f(fine))] + [f(bp) for bp in f.nonsmooth_points()]))
    fmax_err = lip / (4 * grid_n) / 2.0
    raw1, x1, bound1 = _window_margin(lambda xs: 2.0 * f(xs) - v - (fmax + fmax_err) - eta / 96.0,
                                      a, b, grid_n, 2.0 * lip, eta_rep.error_bound / 96.0)
    raw2, x2, bound2 = _window_margin(lambda xs: -eta / 12.0 - fp(xs), b, a + 0.5, grid_n,
                                      lipschitz_estimate(fp, grid_n), eta_rep.error_bound / 12.0)

    return CriterionReport(
        "class-A",
        {"A0_identity": raw0, "A1_window_gap": raw1, "A2_slope": raw2},
        {"A0_identity": 0.0, "A1_window_gap": bound1, "A2_slope": bound2},
        witnesses={"A1_window_gap": x1, "A2_slope": x2},
        tolerances={
            "eta": eta,
            "eta_error": eta_rep.error_bound,
            "a0_tolerance": tol_a0,
            "max_f": fmax,
            "grid_n": grid_n,
            "a": a,
            "b": b,
            "v": v,
        },
        notes=("derivative route: symbolic",),
    )


def check_class_b(f: FunctionSpec, grid_n: int = 4096) -> CriterionReport:
    """Even antisymmetric concave family membership.

    Verifies at nodes: f(x) + f(x+1/2) constant, f(-x) = f(x), finite
    convexity defect; concavity on (-1/4, 1/4) at the 2N-grid nodes and
    beside the non-smooth points of f''; and validates the identity
    eta = max f'' = -min f'' together with f'(0) = 0.
    """
    fg = sample(f, grid_n)
    tol_id = 1e-10 * max(1.0, fg.value_range())

    xs = np.arange(grid_n) / grid_n
    s = fg.values + f(xs + 0.5)
    raw_anti = tol_id - float(np.max(s) - np.min(s))
    raw_even = tol_id - float(np.max(np.abs(f(-xs) - fg.values)))

    try:
        fp = f.derivative()
        second = fp.derivative()
    except ValueError as exc:
        return CriterionReport(
            "class-B",
            {"antisymmetry": raw_anti, "evenness": raw_even, "smoothness": -1.0},
            notes=(f"no second symbolic derivative: {exc}",),
            tolerances={"identity_tolerance": tol_id, "grid_n": grid_n},
        )

    # f'' once on the 2N grid, where sample refuses a non-finite value: its
    # even nodes (2i)/(2N) are the N-grid nodes i/N bit for bit, so they
    # feed the eta report as well
    try:
        vals2 = sample(second, 2 * grid_n).values
    except ValueError as exc:
        raise ValueError(f"f'' is not finite on the {2 * grid_n}-node grid: {exc}") from None
    pts, one_sided = _one_sided(second)
    eta_rep = _second_derivative_report(second, vals2[::2], one_sided)
    eta = eta_rep.eta
    raw_finite = 1.0 if eta_rep.is_finite else -1.0

    # concavity strictly inside (-1/4, 1/4): at the 2N-grid nodes i/(2N)
    # for |i| <= k, then beside each non-smooth point of f'' there, so that
    # a convex arc between nodes shows (nodes first: a tie keeps a node as
    # the witness).  Endpoints are excluded so that right-limits at the
    # quarter points do not leak in
    k = (grid_n - 1) // 2
    signed = np.where(pts >= 0.5, pts - 1.0, pts)
    inside = np.abs(signed) < 0.25
    vals = np.concatenate([vals2[2 * grid_n - k :], vals2[: k + 1], one_sided[inside]])
    xs_cc = np.concatenate([np.arange(-k, k + 1) / (2 * grid_n), signed[inside]])
    tol_cc = 1e-9 * max(1.0, eta)
    i_cc = int(np.argmax(vals))
    raw_cc = tol_cc - float(vals[i_cc])

    # eta identity: max f'' and -min f'' agree with eta within 1% + eval noise
    allv = np.concatenate([vals2, one_sided])
    smax, smin = float(np.max(allv)), float(np.min(allv))
    tol_eta = 0.01 * max(1.0, eta)
    raw_sym = tol_eta - abs(smax + smin)
    raw_eta = tol_eta - abs(eta - smax)

    raw_d0 = 1e-8 * max(1.0, fg.lipschitz_estimate()) - abs(fp(0.0))

    raw = {
        "antisymmetry": raw_anti,
        "evenness": raw_even,
        "eta_finite": raw_finite,
        "concavity": raw_cc,
        "second_derivative_symmetry": raw_sym,
        "eta_identity": raw_eta,
        "derivative_at_zero": raw_d0,
    }
    return CriterionReport(
        "class-B",
        raw,
        witnesses={"concavity": float(xs_cc[i_cc])},
        tolerances={
            "eta": eta,
            "identity_tolerance": tol_id,
            "eta_tolerance": tol_eta,
            "max_second": smax,
            "min_second": smin,
            "grid_n": grid_n,
        },
    )


def check_kappa(f: FunctionSpec, grid_n: int = 4096) -> CriterionReport:
    """Ratio gate (f(0) - f(1/4)) / eta(f) > kappa = 7/96 - sqrt(3)/36.

    Requires class-B membership; a class-B failure propagates (the checker
    then certifies nothing about the ratio).  A class-B f with eta = 0 is
    constant and its ratio undefined: ValueError.
    """
    b_rep = check_class_b(f, grid_n)
    if not b_rep.passed:
        return CriterionReport(
            "kappa",
            {"class_B": -1.0},
            notes=("class-B membership failed; ratio not certified",) + b_rep.notes,
            tolerances={"kappa": KAPPA, "grid_n": grid_n},
        )
    eta = b_rep.tolerances["eta"]
    if eta == 0.0:
        raise ValueError("convexity defect is zero (f is constant); kappa ratio undefined")
    drop = f(0.0) - f(0.25)
    ratio = drop / eta
    # a fixed relative bound of 1e-6 on the ratio; neither eta's own
    # error_bound nor the 1% eta validation tolerance of class-B enters it
    return CriterionReport(
        "kappa",
        {"ratio_above_kappa": ratio - KAPPA},
        {"ratio_above_kappa": abs(ratio) * 1e-6},
        witnesses={"drop": drop},
        tolerances={"kappa": KAPPA, "eta": eta, "ratio": ratio, "grid_n": grid_n},
    )


def search_c(h: FunctionSpec, grid_n: int = 10_000) -> tuple[float | None, CriterionReport]:
    """Search c in (0, 1/4) with h(1/4) - 2h(c) > eta/96 and h'(c) > eta/12.

    h is a half-profile on [0, 1/4]: C^1 with increasing Lipschitz
    derivative, h(0) = h'(0) = 0, and eta = esssup h'' over [0, 1/4].
    The scan is exhaustive over a grid of (0, 1/4); reported margins are
    exact evaluations at the returned c, so no discretization bound is
    needed on a success.  On failure the worst margins over the scan are
    reported.  A grid_n < 2 leaves no interior point to scan: ValueError.
    """
    if grid_n < 2:
        raise ValueError(f"search_c needs grid_n >= 2 for an interior grid point, got {grid_n}")
    hp = h.derivative()
    hpp = hp.derivative()
    xs = np.linspace(0.0, 0.25, grid_n + 1)
    # h'' at the grid and, by the eta route's rule, beside its non-smooth points
    pts, one_sided = _one_sided(hpp)
    read = np.concatenate([hpp(xs), one_sided[pts <= 0.25]])
    if not np.all(np.isfinite(read)):
        raise ValueError("h'' is not finite; the curvature bound eta is undefined")
    eta = float(np.max(read))
    if eta <= 0.0:
        raise ValueError("profile has nonpositive curvature bound; search undefined")

    h0 = h(0.0)
    hp0 = hp(0.0)
    h4 = h(0.25)
    prec = {
        "h0_zero": 1e-9 * max(1.0, abs(h4)) - abs(h0),
        "hp0_zero": 1e-9 * max(1.0, eta) - abs(hp0),
        "drop_above_kappa": h4 - KAPPA * eta,
        "hp_increasing": float(np.min(np.diff(hp(xs)))) + 1e-9 * eta,
    }

    cs = xs[1:-1]
    m1 = h4 - 2.0 * h(cs) - eta / 96.0
    m2 = hp(cs) - eta / 12.0
    score = np.minimum(m1, m2)
    i = int(np.argmax(score))
    found = bool(score[i] > 0.0)

    raw = {"H1_window_gap": float(m1[i]), "H2_slope": float(m2[i])}
    raw.update(prec)
    report = CriterionReport(
        "lemma-sturm-search",
        raw,
        witnesses={"c": float(cs[i])},
        tolerances={"eta": eta, "kappa": KAPPA, "h_quarter": h4, "grid_n": grid_n},
        notes=() if found else ("no c with positive margins; hypothesis violated or grid too coarse",),
    )
    return (float(cs[i]) if report.passed else None), report


@dataclass(frozen=True)
class TranslateRow:
    """One translate's solve/certify record in a scan."""

    omega: float
    beta: float
    converged: bool
    residual: float
    iterations: int
    rotation_p: int
    rotation_q: int
    best_value: float
    beta_gap: float
    certificate: SturmianCertificate


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[TranslateRow, ...]
    grid_n: int
    max_q: int

    @property
    def all_pass(self) -> bool:
        return all(r.certificate.passed and r.converged for r in self.rows)

    def to_csv(self) -> str:
        lines = ["omega,beta,rotation_p,rotation_q,certificate_pass,worst_margin"]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        format(r.omega, ".12g"),
                        format(r.beta, ".12g"),
                        str(r.rotation_p),
                        str(r.rotation_q),
                        "true" if r.certificate.passed else "false",
                        format(r.certificate.worst_margin, ".12g"),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "grid_n": self.grid_n,
            "max_q": self.max_q,
            "all_pass": self.all_pass,
            "rows": [
                {
                    "omega": r.omega,
                    "beta": r.beta,
                    "converged": r.converged,
                    "residual": r.residual,
                    "iterations": r.iterations,
                    "rotation": [r.rotation_p, r.rotation_q],
                    "best_value": r.best_value,
                    "beta_gap": r.beta_gap,
                    "certificate": r.certificate.to_dict(),
                }
                for r in self.rows
            ],
        }


def _reflect(g: GridFunction) -> GridFunction:
    """g(-x) on the same grid: reflect(g)[i] = g[(N - i) mod N]."""
    return GridFunction(np.roll(g.values[::-1], 1))


def scan_translates(
    f: FunctionSpec,
    omega_count: int,
    grid_n: int = 4096,
    max_q: int = 32,
    tol: float | None = None,
    max_iter: int = 100_000,
) -> ScanResult:
    """Solve + certify every translate f(x - j/omega_count).

    For each translate: record the best Sturmian rotation number and
    integral, solve the calibrated equation, and certify (f, g) with
    ``sturmian_certificate``, which sets the band.  Non-convergence is
    recorded per row; the scan continues.  An empty scan (omega_count < 1)
    is a ValueError, not a vacuous pass; so are a max_q < 1 and one over
    the orbit-table budget, which ``best_sturmian`` refuses before the
    first solve.

    Translates are solved in pairs (j, K - j), K = omega_count: j from
    g = 0, then K - j from g_j(-x) when row j converged.  The doubling map
    commutes with x -> -x, so for an even f that start is the partner's
    calibrated sub-action up to rounding; for any f it is only a start,
    and the solver's stop rule and residual judge the row as they judge a
    cold one.  Rows are returned in omega order.
    """
    if omega_count < 1:
        raise ValueError(f"omega_count must be >= 1, got {omega_count}")
    rows: list[TranslateRow | None] = [None] * omega_count

    def solve_row(j: int, g0: GridFunction | None) -> SubactionSolution:
        omega = j / omega_count
        f_om = Translate(omega, f)
        mu, val = best_sturmian(f_om, max_q)
        sol = solve_calibrated(f_om, d=2, grid_n=grid_n, tol=tol, max_iter=max_iter, g0=g0)
        rows[j] = TranslateRow(
            omega=omega,
            beta=sol.beta,
            converged=sol.converged,
            residual=sol.residual,
            iterations=sol.iterations,
            rotation_p=mu.p,
            rotation_q=mu.q,
            best_value=val,
            beta_gap=abs(sol.beta - val),
            certificate=sturmian_certificate(sol.f, sol.g),
        )
        return sol

    for j in range(omega_count // 2 + 1):
        sol = solve_row(j, None)
        if 0 < j < omega_count - j:
            solve_row(omega_count - j, _reflect(sol.g) if sol.converged else None)
    return ScanResult(rows=tuple(rows), grid_n=grid_n, max_q=max_q)
