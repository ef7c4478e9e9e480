"""Max-transfer operator for x -> d*x and the calibrated sub-action solver.

The operator (M_d f)(x) = max over the d preimages y of x of f(y) maps an
N-point grid function to an (N/d)-point grid function exactly: the
preimages of the coarse node i/(N/d) are the fine nodes (i + k*(N/d))/N,
so no interpolation enters the max.

The calibrated equation g + beta = M_d(f + g) is solved by normalized
fixed-point iteration on an N-point grid.  Each sweep needs f + g at the
d*N preimage nodes of the N-grid: f, a spec, is sampled there exactly,
while g is linearly interpolated (the one approximation in
the scheme, absent at nodes whose index is divisible by d).  Consequently
the reported residual -- the exact node-arithmetic defect of the equation
on the N/d-subgrid -- goes to zero at the fixed point.

Each sweep averages the current iterate with its image.  The plain update
can enter a cycle when the optimal orbit has period >= 2; the averaged one
keeps the same fixed points without that failure mode, and correctness
never rests on convergence claims: the residual is always measured a
posteriori.

A sweep fills buffers allocated once per solve: the interpolated g, f + g
and the image are written in place, with the same floating-point
operations in the same order as a plain linear interpolation
(``refine_linear``) followed by the max, so iterates are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .torus import FunctionSpec, GridFunction, _refine_into, sample


def max_transfer(f: GridFunction, d: int) -> GridFunction:
    """Exact max over preimage branches; output grid size is N/d."""
    if d < 2:
        raise ValueError(f"branch count d must be >= 2, got {d}")
    if f.n % d != 0:
        raise ValueError(f"d={d} does not divide the grid size {f.n}")
    m = f.n // d
    return GridFunction(f.values.reshape(d, m).max(axis=0))


def calibration_residual(f: GridFunction, g: GridFunction, beta: float, d: int) -> float:
    """sup over coarse nodes of |M_d(f+g) - g - beta|, all exact lookups."""
    if f.n != g.n:
        raise ValueError(f"grid sizes disagree: {f.n} vs {g.n}")
    lhs = max_transfer(GridFunction(f.values + g.values), d).values
    return float(np.max(np.abs(lhs - g.values[::d] - beta)))


@dataclass(frozen=True)
class SubactionSolution:
    """Calibrated sub-action g (normalized to max g = 0) with diagnostics;
    f holds the N-grid samples of the observable the residual was measured
    against."""

    g: GridFunction
    f: GridFunction
    beta: float
    residual: float
    iterations: int
    converged: bool
    d: int
    tol: float
    final_step: float

    def to_dict(self):
        return {
            "beta": self.beta,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "d": self.d,
            "n": self.g.n,
            "tol": self.tol,
            "final_step": self.final_step,
        }


def solve_calibrated(
    f: FunctionSpec,
    d: int = 2,
    grid_n: int = 4096,
    tol: float | None = None,
    max_iter: int = 100_000,
    g0: GridFunction | None = None,
) -> SubactionSolution:
    """Solve g + beta = M_d(f + g) on an N-point grid.

    f is a FunctionSpec (TypeError otherwise), sampled exactly on the
    N-grid and on the d*N preimage grid.  Starting point is g = 0 unless
    ``g0`` is given.  Each sweep moves g halfway to its image; iteration
    stops when the sup-norm distance between the two falls below tol
    (default 1e-9 * range(f)); non-convergence is reported, never silently
    accepted.  A given tol must be finite and positive and max_iter at
    least 1 (ValueError otherwise, before any sweep).

    A sweep allocates nothing: it fills buffers allocated once per solve,
    with the same floating-point operations in the same order as
    ``refine_linear`` followed by the max over preimages.  ``g0`` is
    copied, never written.
    """
    if not isinstance(f, FunctionSpec):
        raise TypeError(f"need a FunctionSpec, got {type(f).__name__}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if d < 2:
        raise ValueError(f"branch count d must be >= 2, got {d}")
    n = grid_n
    if n % d != 0:
        raise ValueError(f"d={d} does not divide the grid size {n}")
    f_coarse = sample(f, n)
    f_fine = sample(f, d * n)
    if tol is None:
        rng = f_coarse.value_range()
        tol = 1e-9 * rng if rng > 0.0 else 1e-12

    ff = f_fine.values  # length d*n; index i + k*n is preimage k of node i
    # g lives in the first n entries of g_ext; the fill keeps the last one
    # equal to g[0], so g's right neighbours are a view, never a copy
    g_ext = np.empty(n + 1)
    g = g_ext[:-1]
    if g0 is not None:
        if g0.n != n:
            raise ValueError(f"g0 grid size {g0.n} != {n}")
        np.subtract(g0.values, g0.values.max(), out=g)
    else:
        g[:] = 0.0

    # every sweep works in these buffers; the loop allocates no array.
    # The image overwrites the first preimage row, and the scratch rows,
    # free once the fill is done, hold g's displacement and its modulus.
    scratch = np.empty((2, n))
    fine = np.empty(d * n)
    image = fine[:n]
    diff, absdiff = scratch
    beta = 0.0
    step = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        # g on the d*n grid: exact copies at multiples of d, linear between
        _refine_into(g_ext, d, fine, scratch)
        np.add(ff, fine, out=fine)
        # max over the d preimage rows fine[k*n:(k+1)*n], row by row
        for k in range(1, d):
            np.maximum(image, fine[k * n : (k + 1) * n], out=image)
        beta = float(image.max())
        np.subtract(image, beta, out=image)
        np.subtract(image, g, out=diff)
        step = float(np.abs(diff, out=absdiff).max())
        np.multiply(diff, 0.5, out=diff)
        np.add(g, diff, out=g)
        if step < tol:
            converged = True
            break

    g = g - np.max(g)
    g_fn = GridFunction(g)
    residual = calibration_residual(f_coarse, g_fn, beta, d)
    return SubactionSolution(
        g=g_fn,
        f=f_coarse,
        beta=beta,
        residual=residual,
        iterations=iterations,
        converged=converged,
        d=d,
        tol=float(tol),
        final_step=step,
    )


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit of x -> d*x with its Birkhoff average.

    Held as integers: the orbit starts at its minimal point
    numerator / modulus, modulus = d^period - 1.
    """

    period: int
    numerator: int
    modulus: int
    average: float

    @property
    def representative(self) -> Fraction:
        return Fraction(self.numerator, self.modulus)


@dataclass(frozen=True)
class PeriodicOrbitTable:
    """All periodic orbits up to a period cap, with the best average."""

    d: int
    max_period: int
    orbits: tuple[PeriodicOrbit, ...]
    best_index: int

    @property
    def best(self) -> PeriodicOrbit:
        return self.orbits[self.best_index]

    def to_dict(self):
        ranked = sorted(self.orbits, key=lambda o: -o.average)[:10]
        return {
            "d": self.d,
            "max_period": self.max_period,
            "orbit_count": len(self.orbits),
            "best": {
                "period": self.best.period,
                "representative": str(self.best.representative),
                "average": self.best.average,
            },
            "top": [
                {
                    "period": o.period,
                    "representative": str(o.representative),
                    "average": o.average,
                }
                for o in ranked
            ],
        }


_ORBIT_BUDGET = 2**24  # largest d^P enumerated: P <= 24 for d = 2
_ORBIT_CHUNK = 2**20  # orbit starts enumerated per block


def beta_lower_bound(f, d: int = 2, max_period: int = 16) -> PeriodicOrbitTable:
    """Enumerate periodic orbits x = k/(d^p - 1), p <= max_period.

    The best Birkhoff average over the table is a lower bound for the
    maximal ergodic average beta(f).  Orbits are deduplicated by their
    minimal representative; only exact periods are listed.  Enumeration is
    chunked so memory stays bounded up to the budget of 2^24 points.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if d ** max_period > _ORBIT_BUDGET:
        raise ValueError(
            f"d^P = {d}^{max_period} exceeds the enumeration budget {_ORBIT_BUDGET}"
        )
    orbits: list[PeriodicOrbit] = []
    for p in range(1, max_period + 1):
        m = d**p - 1
        for lo in range(0, max(m, 1), _ORBIT_CHUNK):
            ks = np.arange(lo, min(lo + _ORBIT_CHUNK, m), dtype=np.int64)
            if ks.size == 0:
                continue
            rows = np.empty((p, ks.size), dtype=np.int64)
            rows[0] = ks
            for j in range(1, p):
                rows[j] = (rows[j - 1] * d) % m
            # exact period: the smallest j >= 1 with orbit returning to start
            period = np.full(ks.size, p, dtype=np.int64)
            for j in range(p - 1, 0, -1):
                period[rows[j] == ks] = j
            canonical = rows.min(axis=0)
            reps = np.nonzero((canonical == ks) & (period == p))[0]
            if reps.size == 0:
                continue
            vals = np.asarray(f(rows[:, reps] / m), dtype=float)
            means = vals.mean(axis=0)
            orbits.extend(
                PeriodicOrbit(period=p, numerator=k, modulus=m, average=avg)
                for k, avg in zip(ks[reps].tolist(), means.tolist())
            )
    best = max(range(len(orbits)), key=lambda i: (orbits[i].average, -orbits[i].period))
    return PeriodicOrbitTable(d=d, max_period=max_period, orbits=tuple(orbits), best_index=best)
