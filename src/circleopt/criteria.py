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
the window checkers take eta from f'' as well (their margins need it, not a
lower bound), so a kink, convex or not, is one too, and so is a non-finite f'' or h''.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .convexity import (
    _second_derivative_report,
    convexity_defect,
    pointwise_defect,
    second_derivative_values,
)
from .sturmian import SturmianCertificate, best_sturmian, sturmian_certificate
from .torus import FunctionSpec, GridFunction, Translate, enclose, lipschitz_estimate, sample, symmetries
from .transfer import SubactionSolution, solve_calibrated

KAPPA = 7.0 / 96.0 - math.sqrt(3.0) / 36.0


@dataclass(frozen=True)
class CriterionReport:
    """Named raw margins and their error bounds for one criterion.

    The net margin is each raw margin less its error bound (0 when absent).
    The status follows from the margins: "fail" if any raw margin is <= 0
    (a witnessed violation at a node), "pass" if every net margin is
    positive, "inconclusive" otherwise.  ``witnesses`` holds the locations
    achieving the worst slack.  A report without margins has no evidence
    for a status: ValueError.
    """

    criterion: str
    raw_margins: dict
    error_bounds: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        if not self.raw_margins:
            raise ValueError(f"report {self.criterion!r} has no margins to decide a status")

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


def _window_margin(margin, lo, hi, n, slope, eta_rep, share) -> tuple[float, float, float]:
    """The worst raw margin, ``margin(x) - eta / share``, over
    ``np.linspace(lo, hi, n + 1)``, its witness and its error bound: the
    most it can fall between two points, ``slope`` (the Lipschitz bound of
    ``margin`` in x) times half the spacing, plus eta's error bound / share."""
    xs = np.linspace(lo, hi, n + 1)
    vals = margin(xs) - eta_rep.eta / share
    i = int(np.argmin(vals))
    return float(vals[i]), float(xs[i]), slope * ((hi - lo) / n) / 2.0 + eta_rep.error_bound / share


def _between_nodes(f: FunctionSpec, grid_n: int, identities: tuple) -> tuple[dict, tuple]:
    """Error bounds of the named identities read at the N nodes, and notes naming those not shown:
    0.0 where ``symmetries`` shows one, else Lip f / grid_n, the most it moves in half a spacing."""
    shown = dict(zip(("antisymmetry", "evenness"), symmetries(f)))
    return ({k: 0.0 if shown[k] else lipschitz_estimate(f) / grid_n for k in identities},
            tuple(f"{k} is not shown by the tree: read at the nodes only" for k in identities if not shown[k]))


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
    lip = lipschitz_estimate(f)

    def r_positive(xs):
        z = xs + 0.5
        branch = np.maximum(pointwise_defect(f, z / 2.0, 0.25), pointwise_defect(f, z / 2.0 + 0.5, 0.25))
        return f(xs) - f(xs + 0.5) - 0.5 * branch

    # Lip of the left side in x: |f(x)| + |f(x+1/2)| + (1/2)*(4 Lip * 1/2)
    raw1, x1, bound1 = _window_margin(r_positive, a, b, grid_n, 3.0 * lip, eta_rep, 96.0)
    raw2, x2, bound2 = _window_margin(lambda xs: fp(xs + 0.5) - fp(xs), b, a + 0.5, grid_n,
                                      2.0 * lipschitz_estimate(fp), eta_rep, 6.0)

    return CriterionReport(
        "theorem-sturm",
        {"R_positive": raw1, "R_prime_negative": raw2},
        {"R_positive": bound1, "R_prime_negative": bound2},
        witnesses={"R_positive": x1, "R_prime_negative": x2},
        tolerances={"eta": eta_rep.eta, "eta_error": eta_rep.error_bound, "grid_n": grid_n},
        notes=("derivative route: symbolic",),
    )


def check_class_a(
    f: FunctionSpec, a: float, b: float, v: float = 0.0, grid_n: int = 4096
) -> CriterionReport:
    """Antisymmetric-family membership: (A0) identity, (A1) window gap, (A2) slope.

    (A0)  f(x) + f(x+1/2) = 2v at nodes (tolerance 1e-10 * range; between them, ``_between_nodes``),
    (A1)  2 f(x) - v - max f > eta/96 on [a, b],
    (A2)  f'(x) < -eta/12 on [b, a+1/2] (checked at nodes of f').

    f must be a spec with two symbolic derivatives, as for check_theorem_sturm.
    """
    _check_window(a, b)
    fp = f.derivative()
    eta_rep = convexity_defect(f, "second_derivative", grid_n)
    fg = sample(f, grid_n)
    lip = lipschitz_estimate(f)

    xs = np.arange(grid_n) / grid_n
    tol_a0 = 1e-10 * max(1.0, fg.value_range())
    dev = float(np.max(np.abs(fg.values + f(xs + 0.5) - 2.0 * v)))
    raw0 = tol_a0 - dev
    bound0, note0 = _between_nodes(f, grid_n, ("antisymmetry",))

    # global max of f: fine grid plus non-smooth candidates; upper estimate
    fine = np.arange(4 * grid_n) / (4 * grid_n)
    fmax = float(max([np.max(f(fine))] + [f(bp) for bp in f.nonsmooth_points()]))
    fmax_err = lip / (4 * grid_n) / 2.0
    raw1, x1, bound1 = _window_margin(lambda xs: 2.0 * f(xs) - v - (fmax + fmax_err),
                                      a, b, grid_n, 2.0 * lip, eta_rep, 96.0)
    raw2, x2, bound2 = _window_margin(lambda xs: -fp(xs), b, a + 0.5, grid_n,
                                      lipschitz_estimate(fp), eta_rep, 12.0)

    return CriterionReport(
        "class-A",
        {"A0_identity": raw0, "A1_window_gap": raw1, "A2_slope": raw2},
        {"A0_identity": bound0["antisymmetry"], "A1_window_gap": bound1, "A2_slope": bound2},
        witnesses={"A1_window_gap": x1, "A2_slope": x2},
        tolerances={
            "eta": eta_rep.eta,
            "eta_error": eta_rep.error_bound,
            "a0_tolerance": tol_a0,
            "max_f": fmax,
            "grid_n": grid_n,
            "a": a,
            "b": b,
            "v": v,
        },
        notes=("derivative route: symbolic",) + note0,
    )


def check_class_b(f: FunctionSpec, grid_n: int = 4096) -> CriterionReport:
    """Even antisymmetric concave family membership.

    Reads f(x) + f(x+1/2) constant and f(-x) = f(x) at the nodes, bounded between them by
    ``_between_nodes``, and concavity on (-1/4, 1/4) at the 2N-grid nodes and beside the
    non-smooth points of f''.  The two identities give eta = max f'' = -min f'' and f'(0) = 0.
    """
    fg = sample(f, grid_n)
    tol_id = 1e-10 * max(1.0, fg.value_range())

    xs = np.arange(grid_n) / grid_n
    raw_anti = tol_id - float(np.ptp(fg.values + f(xs + 0.5)))
    raw_even = tol_id - float(np.max(np.abs(f(-xs) - fg.values)))
    bounds, notes = _between_nodes(f, grid_n, ("antisymmetry", "evenness"))
    bounds["antisymmetry"] *= 2.0  # the spread of f(x) + f(x + 1/2) moves at both its ends

    try:
        second = f.derivative().derivative()
    except ValueError as exc:
        return CriterionReport("class-B", {"antisymmetry": raw_anti, "evenness": raw_even, "smoothness": -1.0},
                               bounds, notes=notes + (f"no second symbolic derivative: {exc}",),
                               tolerances={"identity_tolerance": tol_id, "grid_n": grid_n})

    # f'' once on the 2N grid and beside its non-smooth points: the even
    # nodes (2i)/(2N) are the N-grid nodes i/N bit for bit, so they feed the
    # eta report as well
    vals2, pts, one_sided = second_derivative_values(second, np.arange(2 * grid_n) / (2 * grid_n))
    eta = _second_derivative_report(second, vals2[::2], pts, one_sided).eta

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

    return CriterionReport(
        "class-B",
        {"antisymmetry": raw_anti, "evenness": raw_even, "concavity": raw_cc},
        bounds,
        witnesses={"concavity": float(xs_cc[i_cc])},
        tolerances={"eta": eta, "identity_tolerance": tol_id, "grid_n": grid_n},
        notes=notes,
    )


def check_kappa(f: FunctionSpec, grid_n: int = 4096) -> CriterionReport:
    """Ratio gate (f(0) - f(1/4)) / eta(f) > kappa = 7/96 - sqrt(3)/36.

    The raw margin is drop / eta - kappa at class B's node eta and its bound
    drop / eta - drop / eta_upper, eta_upper = -min ``enclose`` of f'' over
    the N cells, so a pass means drop / eta_upper > kappa.  Requires
    class-B membership: a class B that does not pass gives the report its
    margins, so kappa's status is class B's and it certifies nothing about
    the ratio.  A class-B f with eta = 0 is constant and its ratio
    undefined: ValueError.
    """
    b_rep = check_class_b(f, grid_n)
    if not b_rep.passed:
        notes = (f"class-B membership {b_rep.status}; ratio not certified",) + b_rep.notes
        return replace(b_rep, criterion="kappa", tolerances={"kappa": KAPPA, "grid_n": grid_n}, notes=notes)
    eta = b_rep.tolerances["eta"]
    if eta == 0.0:
        raise ValueError("convexity defect is zero (f is constant); kappa ratio undefined")
    cells = np.arange(grid_n + 1) / grid_n
    eta_hi = max(0.0, -float(np.min(enclose(f.derivative().derivative(), cells[:-1], cells[1:])[0])))
    drop = f(0.0) - f(0.25)
    ratio = drop / eta
    return CriterionReport(
        "kappa",
        {"ratio_above_kappa": ratio - KAPPA},
        {"ratio_above_kappa": ratio - drop / eta_hi},
        witnesses={"drop": drop},
        tolerances={"kappa": KAPPA, "eta": eta, "eta_upper": eta_hi, "ratio": ratio, "grid_n": grid_n},
    )


def search_c(h: FunctionSpec, grid_n: int = 10_000) -> CriterionReport:
    """Search c in (0, 1/4) with h(1/4) - 2h(c) > eta/96 and h'(c) > eta/12.

    h is a half-profile on [0, 1/4]: C^1 with increasing Lipschitz
    derivative, h(0) = h'(0) = 0, and eta = esssup h'' over [0, 1/4].
    The scan is exhaustive over a grid of (0, 1/4); h and h' are exact at
    the best grid point ``witnesses["c"]``, and h'' between the points read
    exceeds eta by at most Lip h'' * (half a spacing + 1e-9), whose shares
    bound H1, H2 and drop_above_kappa.  That c is a valid window end only
    when the report passes.  A grid_n < 2 leaves no interior point: ValueError.
    """
    if grid_n < 2:
        raise ValueError(f"search_c needs grid_n >= 2 for an interior grid point, got {grid_n}")
    hp = h.derivative()
    hpp = hp.derivative()
    xs = np.linspace(0.0, 0.25, grid_n + 1)
    # h'' at the grid and, by the eta route's rule, beside its non-smooth points
    vals, pts, beside = second_derivative_values(hpp, xs)
    eta = float(np.max(np.concatenate([vals, beside[pts <= 0.25]])))
    if eta <= 0.0:
        raise ValueError("profile has nonpositive curvature bound; search undefined")
    radius = lipschitz_estimate(hpp) * (0.125 / grid_n + 1e-9)

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
    return CriterionReport(
        "lemma-sturm-search",
        raw,
        {"H1_window_gap": radius / 96.0, "H2_slope": radius / 12.0, "drop_above_kappa": KAPPA * radius},
        witnesses={"c": float(cs[i])},
        tolerances={"eta": eta, "kappa": KAPPA, "h_quarter": h4, "grid_n": grid_n},
        notes=() if found else ("no c with positive margins; hypothesis violated or grid too coarse",),
    )


@dataclass(frozen=True)
class TranslateRow:
    """One translate's solve/certify record in a scan."""

    omega: float
    beta: float
    beta_lo: float
    beta_hi: float
    tol: float
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
    """Scan rows, at least one, from which the scan's status follows."""

    rows: tuple[TranslateRow, ...]
    grid_n: int
    max_q: int

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a scan needs at least one row to decide a status")

    @property
    def status(self) -> str:
        if any(not r.converged or r.certificate.status == "fail" for r in self.rows):
            return "fail"
        return "pass" if all(r.certificate.passed for r in self.rows) else "inconclusive"

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
            "all_pass": self.status == "pass",
            "rows": [
                {
                    "omega": r.omega,
                    "beta": r.beta,
                    "beta_lo": r.beta_lo,
                    "beta_hi": r.beta_hi,
                    "tol": r.tol,
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
            beta_lo=sol.beta_lo,
            beta_hi=sol.beta_hi,
            tol=sol.tol,
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
