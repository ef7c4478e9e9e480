"""Convexity-defect functionals for period-1 functions.

For f on the circle and delta > 0 the pointwise second-difference defect is

    defect(f; x, delta) = max(2 f(x) - f(x + delta) - f(x - delta), 0),

its sup over x is the uniform defect, and the convexity defect of f is

    eta(f) = sup_{delta > 0} delta^-2 * (uniform defect at delta),

the least a >= 0 such that f(x) + (a/2) x^2 is convex on the line.  Two
numeric routes are provided: an exact-at-grid second-derivative route for
twice-differentiable specs, and a finite-difference route over the grid
delta = k/N that is honest about being a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .torus import FunctionSpec, GridFunction, lipschitz_estimate, sample

# Size of the (shifts x nodes) block the second-difference kernel works on;
# a fixed byte count keeps its working memory flat in N.
_BLOCK_BYTES = 128 * 1024


def _second_difference_max(v: np.ndarray, ks) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax over nodes x of 2 v[x] - v[x+k] - v[x-k], per k.

    Indices are periodic and k is reduced mod N, so every integer k gives
    what ``2.0 * v - np.roll(v, -k) - np.roll(v, k)`` gives, bit for bit.
    """
    n = v.size
    ks = np.asarray(ks, dtype=np.int64) % n
    # row r of win is v shifted left by r (r = 0..N), so v[x+k] is win[k, x]
    # and v[x-k] is win[N-k, x]
    win = np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v]), n)
    maxima = np.empty(ks.size)
    argmax = np.empty(ks.size, dtype=np.int64)
    rows = max(1, _BLOCK_BYTES // v.nbytes)
    for lo in range(0, ks.size, rows):
        kb = ks[lo:lo + rows]
        vals = 2.0 * v - win[kb] - win[n - kb]
        maxima[lo:lo + rows] = vals.max(axis=1)
        argmax[lo:lo + rows] = vals.argmax(axis=1)
    return maxima, argmax


class DefectBound(NamedTuple):
    """A grid supremum together with its discretization-error bound."""

    value: float
    error_bound: float

    def __float__(self):
        return float(self.value)


def pointwise_defect(f, x, delta: float):
    """max(2 f(x) - f(x+delta) - f(x-delta), 0); vectorized over x."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    val = 2.0 * f(x) - f(np.asarray(x) + delta) - f(np.asarray(x) - delta)
    return np.maximum(val, 0.0) if np.ndim(x) else float(max(val, 0.0))


def uniform_defect(f, delta: float, search_n: int = 4096) -> DefectBound:
    """Maximum of the pointwise defect over a uniform x-grid.

    The result is a lower bound for the true sup over x; the attached
    error bound Lip(f) * (2 / search_n) covers the gap.  When f is a grid
    function and delta is a multiple of its spacing the three evaluations
    are exact node lookups.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if isinstance(f, GridFunction):
        n = f.n
        k = delta * n
        if abs(k - round(k)) < 1e-9:
            maxima, _ = _second_difference_max(f.values, [int(round(k))])
            value = float(max(maxima[0], 0.0))
            return DefectBound(value, 2.0 * f.lipschitz_estimate() / n)
        search_n = n
    xs = np.arange(search_n) / search_n
    vals = 2.0 * f(xs) - f(xs + delta) - f(xs - delta)
    value = float(max(np.max(vals), 0.0))
    lip = lipschitz_estimate(f)
    err = 2.0 * lip / search_n
    if isinstance(f, GridFunction):
        err += 2.0 * lip / f.n  # interpolated evaluations off the node set
    return DefectBound(value, err)


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
    bound_direction: str  # "exact_within_tolerance" | "lower_bound"
    delta_table: tuple[tuple[float, float, float], ...]  # (delta, defect, error_bound)
    witness_x: float
    witness_delta: float
    error_bound: float
    grid_n: int

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.eta)

    def to_dict(self):
        return {
            "eta": self.eta,
            "method": self.method,
            "bound_direction": self.bound_direction,
            "delta_table": [
                {"delta": d, "xi_star": v, "error_bound": e} for d, v, e in self.delta_table
            ],
            "witnesses": {"x": self.witness_x, "delta": self.witness_delta},
            "error_bound": self.error_bound,
            "grid_n": self.grid_n,
        }


def _delta_table(
    g: GridFunction, maxima: np.ndarray | None = None, max_entries: int = 32
) -> tuple[tuple[float, float, float], ...]:
    """Tabulate the uniform defect over node-aligned deltas k/N.

    ``maxima[k - 1]``, when given, is the second-difference max at shift k
    for k = 1..N/2; otherwise the tabulated shifts are computed here.
    """
    n = g.n
    stride = max(1, (n // 2) // max_entries)
    ks = np.arange(stride, n // 2 + 1, stride)
    m = _second_difference_max(g.values, ks)[0] if maxima is None else maxima[ks - 1]
    err = 2.0 * g.lipschitz_estimate() / n
    return tuple((int(k) / n, float(max(mk, 0.0)), err) for k, mk in zip(ks, m))


def _finite_difference_eta(g: GridFunction, min_delta_nodes: int = 1):
    """max over delta = k/N (k >= min_delta_nodes) and grid x of
    delta^-2 * defect, with witnesses and the per-k maxima."""
    n = g.n
    ks = np.arange(1, n // 2 + 1)
    maxima, argmax = _second_difference_max(g.values, ks)
    # delta^-2 by Python's float pow: numpy's square rounds differently in
    # the last bit for some k, which would move eta and its witness
    inv_delta_sq = np.array([(n / k) ** 2 for k in range(1, n // 2 + 1)])
    score = np.where(maxima > 0.0, maxima * inv_delta_sq, 0.0)
    best = 0.0
    best_x = 0.0
    best_delta = max(1, min_delta_nodes) / n
    eligible = np.where(ks >= min_delta_nodes, score, 0.0)
    i = int(np.argmax(eligible))  # first maximum: the smallest such delta
    if eligible[i] > 0.0:
        best = float(eligible[i])
        best_x = float(argmax[i]) / n
        best_delta = int(ks[i]) / n
    # A kink makes delta^-2 * defect blow up like 1/delta as delta -> 0:
    # flag +inf when halving delta from 2/N to 1/N grows the score by ~2x.
    infinite = bool(n >= 8 and score[1] > 0.0 and score[0] > 1.6 * score[1])
    return best, best_x, best_delta, infinite, maxima


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
    min_delta_nodes=4 probes the function rather than the artifact.
    """
    if mode not in ("auto", "second_derivative", "finite_difference"):
        raise ValueError(f"unknown mode {mode!r}")

    second = None
    if isinstance(f, FunctionSpec) and mode in ("auto", "second_derivative"):
        try:
            second = f.derivative().derivative()
        except ValueError:
            if mode == "second_derivative":
                raise
            second = None
    elif mode == "second_derivative":
        raise ValueError("second_derivative mode needs a symbolic spec with two derivatives")

    if second is not None:
        xs = np.arange(grid_n) / grid_n
        vals = second(xs)
        cands = [vals]
        eps = 1e-9
        for b in second.nonsmooth_points():
            cands.append(np.array([second((b - eps) % 1.0), second((b + eps) % 1.0)]))
        allvals = np.concatenate(cands)
        m = float(np.min(allvals))
        eta = max(0.0, -m)
        witness = float(xs[int(np.argmin(vals))])
        g = sample(f, grid_n)
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
            bound_direction="exact_within_tolerance",
            delta_table=_delta_table(g),
            witness_x=witness,
            witness_delta=0.0,
            error_bound=lip2 / grid_n,
            grid_n=grid_n,
        )

    g = f if isinstance(f, GridFunction) else sample(f, grid_n)
    eta, wx, wd, infinite, maxima = _finite_difference_eta(g, min_delta_nodes)
    return ConvexityReport(
        eta=math.inf if infinite else eta,
        method="finite_difference",
        bound_direction="lower_bound",
        delta_table=_delta_table(g, maxima),
        witness_x=wx,
        witness_delta=wd,
        error_bound=2.0 * g.lipschitz_estimate() / g.n,
        grid_n=g.n,
    )
