"""Convexity-defect functionals for period-1 functions.

For f on the circle and delta > 0 the pointwise second-difference defect is

    defect(f; x, delta) = max(2 f(x) - f(x + delta) - f(x - delta), 0),

its sup over x is the uniform defect (taken over the nodes of a grid
function, at node-aligned delta), and the convexity defect of f is

    eta(f) = sup_{delta > 0} delta^-2 * (uniform defect at delta),

the least a >= 0 such that f(x) + (a/2) x^2 is convex on the line.  Two
numeric routes are provided: an exact-at-grid second-derivative route for
twice-differentiable specs, and a finite-difference route over the grid
delta = k/N that is honest about being a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import FunctionSpec, GridFunction, _check_grid_size, sample


def _second_difference(vv: np.ndarray, k: int) -> np.ndarray:
    """2 v[x] - v[x+k] - v[x-k] over the nodes x, periodic, for 0 <= k <= N.

    ``vv`` is v||v, the grid values twice over, so both neighbour terms
    are slices; the result is ``2.0 * v - np.roll(v, -k) - np.roll(v, k)``
    bit for bit.
    """
    n = vv.size // 2
    return 2.0 * vv[:n] - vv[k:k + n] - vv[n - k:2 * n - k]


def _candidate_shifts(n: int, m: int) -> list[int]:
    """The shifts k in [m, N/2] with no divisor in [m, k), and 2m, ascending.

    Write D_k = 2v - v(.+k) - v(.-k).  Then D_jk[x] is the sum over |i| < j
    of (j - |i|) D_k[x + ik], whose weights sum to j^2, so the score
    (N/jk)^2 max D_jk is at most (N/k)^2 max D_k in exact arithmetic: the
    maximum over [m, N/2] is carried by these shifts.  2m is the kink
    test's second scale.  A sieve strikes the multiples of each kept k.
    """
    half = n // 2
    keep = np.zeros(half + 1, dtype=bool)
    keep[m:] = True
    for j in range(m, half // 2 + 1):
        if keep[j]:
            keep[2 * j::j] = False
    keep[2 * m] = True
    return np.flatnonzero(keep).tolist()


def pointwise_defect(f, x, delta: float):
    """max(2 f(x) - f(x+delta) - f(x-delta), 0); vectorized over x."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if np.ndim(x) == 0:
        # one call on the three points instead of three scalar calls; arrays
        # keep three calls, since stacking them is slower at 4097 points
        here, right, left = f(np.array([x, x + delta, x - delta]))
        return float(max(2.0 * here - right - left, 0.0))
    val = 2.0 * f(x) - f(np.asarray(x) + delta) - f(np.asarray(x) - delta)
    return np.maximum(val, 0.0)


def uniform_defect(f: GridFunction, delta: float) -> float:
    """Maximum of the pointwise defect over the nodes of a grid function.

    The three evaluations are exact node lookups, so delta must be a
    multiple of the spacing 1/N (ValueError otherwise).  The result is a
    lower bound for the sup over x.  A spec is passed as ``sample(f, N)``.
    """
    if not isinstance(f, GridFunction):
        raise TypeError(f"need a GridFunction, got {type(f).__name__}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = f.n
    k = delta * n
    if abs(k - round(k)) >= 1e-9:
        raise ValueError(f"delta={delta} is not a multiple of the grid spacing 1/{n}")
    d = _second_difference(np.concatenate([f.values, f.values]), int(round(k)) % n)
    return float(max(d.max(), 0.0))


@dataclass(frozen=True)
class ConvexityReport:
    """Result of a convexity-defect computation.

    ``bound_direction`` records whether ``eta`` is exact up to tolerance
    (second-derivative route) or only a certified lower bound
    (finite-difference route); there is no finite procedure for a certified
    upper bound from samples alone.
    """

    eta: float
    method: str  # "second_derivative" | "finite_difference"
    witness_x: float
    witness_delta: float
    error_bound: float
    grid_n: int

    @property
    def bound_direction(self) -> str:
        return "exact_within_tolerance" if self.method == "second_derivative" else "lower_bound"

    def to_dict(self):
        return {
            "eta": self.eta,
            "method": self.method,
            "bound_direction": self.bound_direction,
            "witnesses": {"x": self.witness_x, "delta": self.witness_delta},
            "error_bound": self.error_bound,
            "grid_n": self.grid_n,
        }


def _finite_difference_report(g: GridFunction, min_delta_nodes: int = 1) -> ConvexityReport:
    """The finite-difference route's report: the max over delta = k/N
    (k >= min_delta_nodes) and grid x of delta^-2 * defect, with its
    witnesses, or +inf where the kink test fires.  Only the shifts of
    ``_candidate_shifts`` are read; no other k can score higher.  A second
    difference or score that is not finite (samples near 1e304 overflow
    delta^-2 * defect) is a ValueError, so +inf means a kink only."""
    n = g.n
    m = max(1, min_delta_nodes)
    if 2 * m > n // 2:
        raise ValueError(
            f"min_delta_nodes={min_delta_nodes} leaves no room for the kink test at "
            f"N={n}: need 2 * max(1, min_delta_nodes) <= N/2"
        )
    ks = _candidate_shifts(n, m)
    vv = np.concatenate([g.values, g.values])
    maxima = np.array([_second_difference(vv, k).max() for k in ks])
    # delta^-2 by Python's float pow: numpy's square rounds differently in
    # the last bit for some k, which would move eta and its witness
    inv_delta_sq = np.array([(n / k) ** 2 for k in ks])
    score = np.where(maxima > 0.0, maxima * inv_delta_sq, 0.0)
    finite = np.isfinite(maxima) & np.isfinite(score)  # an overflow would read as a kink's +inf
    if not finite.all():
        raise ValueError(f"finite-difference score overflows at delta = {ks[int(np.argmin(finite))]}/{n}; "
                         "the convexity defect is undefined")
    best = 0.0
    best_x = 0.0
    best_delta = m / n
    i = int(np.argmax(score))  # first maximum: the smallest such delta
    if score[i] > 0.0:
        best = float(score[i])
        best_x = float(_second_difference(vv, ks[i]).argmax()) / n
        best_delta = ks[i] / n
    # A kink makes delta^-2 * defect blow up like 1/delta as delta -> 0:
    # flag +inf when halving delta from 2m/N to m/N, the finest scale the
    # caller admits, grows the score by ~2x (ks starts at m).
    s2m = score[ks.index(2 * m)]
    infinite = bool(n >= 8 and s2m > 0.0 and score[0] > 1.6 * s2m)
    return ConvexityReport(
        eta=math.inf if infinite else best,
        method="finite_difference",
        witness_x=best_x,
        witness_delta=best_delta,
        error_bound=2.0 * g.lipschitz_estimate() / n,
        grid_n=n,
    )


def second_derivative_values(second: FunctionSpec, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f'' at ``xs``, the points 1e-9 either side of each non-smooth point
    of f'' in order, and f'' at each of them.  A value that is not finite
    (an overflow in a spec with finite samples would read as eta = 0 or
    NaN) is a ValueError naming the first one and its x."""
    eps = 1e-9
    pts = np.array([(b + s) % 1.0 for b in second.nonsmooth_points() for s in (-eps, eps)])
    vals = second(xs)
    beside = np.array([second(x) for x in pts])
    read = np.concatenate([vals, beside])
    bad = np.flatnonzero(~np.isfinite(read))
    if bad.size:
        raise ValueError(f"f'' is not finite ({read[bad[0]]} at x = {np.concatenate([xs, pts])[bad[0]]})")
    return vals, pts, beside


def _second_derivative_report(second: FunctionSpec, vals, pts, beside) -> ConvexityReport:
    """The second-derivative route's report from ``second_derivative_values``
    at the N nodes i/N; its witness is where the least f'' was read, the
    node on a tie."""
    grid_n = vals.size
    read = np.concatenate([vals, beside])
    i_min = int(np.argmin(read))
    eta = max(0.0, -float(read[i_min]))
    # error bound: slope of f'' between its discontinuities times the
    # spacing (one-sided limits at the discontinuities are evaluated
    # directly, so jumps do not contribute error)
    diffs = np.abs(np.diff(np.concatenate([vals, vals[:1]])))
    keep = np.ones(grid_n, dtype=bool)
    for b in second.nonsmooth_points():
        i = int(math.floor((b % 1.0) * grid_n))
        keep[i % grid_n] = False
        keep[(i - 1) % grid_n] = False
    lip2 = float(np.max(diffs[keep])) * grid_n if keep.any() else 0.0
    return ConvexityReport(
        eta=eta,
        method="second_derivative",
        witness_x=i_min / grid_n if i_min < grid_n else float(pts[i_min - grid_n]),
        witness_delta=0.0,
        error_bound=lip2 / grid_n,
        grid_n=grid_n,
    )


def convexity_defect(
    f, mode: str = "auto", grid_n: int = 4096, min_delta_nodes: int = 1
) -> ConvexityReport:
    """Compute the convexity defect eta(f) of a spec or grid function.

    Modes: ``second_derivative`` (requires two exact symbolic derivatives;
    returns max(0, -min f'') over the grid plus one-sided values at
    non-smooth points), ``finite_difference`` (grid route, lower bound),
    ``auto`` (second-derivative when available).  The finite-difference
    route flags eta = +inf when the estimates grow without bound as delta
    shrinks, which is what a Lipschitz kink produces.

    ``min_delta_nodes`` restricts the finite-difference delta grid to
    delta >= min_delta_nodes / N.  Solved sub-actions carry an
    interpolation sawtooth below ~4 grid spacings; measuring them with
    min_delta_nodes=4 probes the function rather than the artifact.  The
    kink test compares delta = m/N with 2m/N (m = max(1, min_delta_nodes)),
    so 2m > N/2 raises a ValueError.
    """
    if mode not in ("auto", "second_derivative", "finite_difference"):
        raise ValueError(f"unknown mode {mode!r}")

    if isinstance(f, FunctionSpec) and mode != "finite_difference":
        try:
            second = f.derivative().derivative()
        except ValueError:
            if mode == "second_derivative":
                raise
        else:
            _check_grid_size(grid_n)
            read = second_derivative_values(second, np.arange(grid_n) / grid_n)
            return _second_derivative_report(second, *read)
    elif mode == "second_derivative":
        raise ValueError("second_derivative mode needs a symbolic spec with two derivatives")

    g = f if isinstance(f, GridFunction) else sample(f, grid_n)
    return _finite_difference_report(g, min_delta_nodes)
