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

Once the argmax policy stops changing, the averaged sweep is affine and
its error decays like its slowest eigenvalues: for cos(2 pi (x - 10/64))
at N = 4096, a complex pair of modulus cos(pi/8), from sweep 56 to sweep
223 of the sweeps without extrapolation.  So every
``_MPE_PERIOD``-th sweep moves g to the minimal polynomial extrapolate
(Cabay & Jackson 1976; Sidi, *Vector Extrapolation Methods*, 2017) of the
last ``_MPE_DEPTH`` updates.  A correction that is not finite, or comes
from a singular system, is not applied, and extrapolation stops for the
rest of the solve once the step at an extrapolation point is not below
the step at the previous one.  Averaged sweeps converge from any start,
so a bad extrapolation costs sweeps, never correctness.

A sweep fills buffers allocated once per solve: f + g on the fine grid,
with g interpolated by ``refine_linear``'s fill, and the image are written
in place, so iterates are bit-reproducible.  For d = 2 a sweep makes 12
passes over the grid; an extrapolation makes 42 (30 for the Gram
matrix), three and a half sweeps' worth once every 15 sweeps.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .torus import FunctionSpec, GridFunction, _refine_into, _weight_plan, sample


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
    against; lipschitz_fine is the empirical Lipschitz constant of the
    d*N-grid samples the sweeps read (``lipschitz_estimate(f, d*N)``)."""

    g: GridFunction
    f: GridFunction
    lipschitz_fine: float
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


_MPE_PERIOD = 15  # sweeps from one extrapolation to the next; the first is sweep 14
_MPE_DEPTH = 5  # updates an extrapolation reads: its own sweep's and the 4 before


def _mpe_weights(gram: list[list[float]]) -> list[float] | None:
    """The cumulative minimal polynomial extrapolation weights for updates
    u_0..u_k with Gram matrix ``gram``, or None if the system is singular.

    c, with c_k = 1, minimises |sum_j c_j u_j|: c_0..c_{k-1} solve the
    k x k normal equations by elimination without pivoting, which a
    positive semi-definite matrix does not need; a pivot that is not > 0
    (NaN included) means singular, and so does sum(c) = 0.  The weights
    are Gamma = cumsum(c / sum(c)), every sum taken left to right.
    """
    k = len(gram) - 1
    a = [row[:k] for row in gram[:k]]
    b = [-row[k] for row in gram[:k]]
    for col in range(k):
        pivot = a[col][col]
        if not pivot > 0.0:
            return None
        for r in range(col + 1, k):
            m = a[r][col] / pivot
            for j in range(col + 1, k):
                a[r][j] -= m * a[col][j]
            b[r] -= m * b[col]
    c = [0.0] * k + [1.0]
    for i in reversed(range(k)):
        s = b[i]
        for j in range(i + 1, k):
            s -= a[i][j] * c[j]
        c[i] = s / a[i][i]
    total = c[0]
    for cj in c[1:]:
        total += cj
    if total == 0.0:
        return None
    return list(itertools.accumulate(cj / total for cj in c))


def _extrapolate(g: np.ndarray, u: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """Move g, the iterate the updates ``u`` (rows oldest first) led to, to
    their minimal polynomial extrapolate g - sum_j Gamma_j u_j.

    The correction is built in ``acc``, with ``tmp`` as scratch, and
    applied only if it is finite and its system not singular; overflow
    and NaN stay silent, as the check reads them.  It is subtracted, and
    x - y is -0.0 only if x is, so g gains no -0.0.  Allocates no array.
    """
    depth = len(u)
    gram = [[0.0] * depth for _ in range(depth)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(depth):
            for j in range(i, depth):
                gram[i][j] = gram[j][i] = float(np.multiply(u[i], u[j], out=tmp).sum())
        weights = _mpe_weights(gram)
        if weights is None:
            return
        np.multiply(u[0], weights[0], out=acc)
        for uj, w in zip(u[1:], weights[1:]):
            np.add(acc, np.multiply(uj, w, out=tmp), out=acc)
        if math.isfinite(float(np.abs(acc, out=tmp).max())):
            np.subtract(g, acc, out=g)


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
    ``g0`` is given.  Each sweep moves g halfway to its image, and sweeps
    14, 29, ... then move it to the extrapolate of the last 5 updates,
    kept in one (5, N) buffer (see the module docstring); iteration
    stops when the sup-norm distance between the two falls below tol
    (default 1e-9 * range(f)); non-convergence is reported, never silently
    accepted.  A given tol must be finite and positive and max_iter at
    least 1 (ValueError otherwise, before any sweep).

    A sweep allocates nothing: it fills buffers allocated once per solve
    with ``refine_linear``'s fill plus f, then takes the max over
    preimages.  The fill reads a fine node that is a grid node as f + g,
    which needs the iterate to hold no -0.0: it starts at +0.0, and
    g + diff*0.5 and g - correction are -0.0 only if g is.  So ``g0`` is
    copied with -0.0 read as +0.0, and never written.
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

    lipschitz_fine = f_fine.lipschitz_estimate()
    # the fine samples by residue: ff[k][i] = f at fine node i*d + k
    ff = f_fine.values.reshape(n, d).T.copy()
    del f_fine  # the sweeps read ff only
    # g lives in the first n entries of g_ext; the fill keeps the last one
    # equal to g[0], so g's right neighbours are a view, never a copy
    g_ext = np.empty(n + 1)
    g = g_ext[:-1]
    if g0 is not None:
        if g0.n != n:
            raise ValueError(f"g0 grid size {g0.n} != {n}")
        np.subtract(g0.values, g0.values.max(), out=g)
        np.add(g, 0.0, out=g)  # -0.0 -> +0.0, so the iterate never holds -0.0
    else:
        g[:] = 0.0

    # every sweep works in these buffers; the loop allocates no array.
    # fg holds f + g on the d*n grid by residue, like ff: entry t*m + s of
    # row r is fine node (t*n) + s*d + r, preimage t of node s*d + r.  The
    # image overwrites the fill's products, and two rows of fg, free once
    # the image is taken, hold g's displacement and its modulus.
    m = n // d
    fg = np.empty((d, n))
    products = np.empty((len(_weight_plan(d)[0]), n + 1))
    image = products[0, :n]
    preimages = [(fg[r].reshape(d, m), image[r::d]) for r in range(d)]
    diff, absdiff = fg[-1], fg[0]
    # the last _MPE_DEPTH updates before each extrapolation, oldest first
    updates = np.empty((_MPE_DEPTH, n))
    extrapolating = True
    before = math.inf  # the step at the previous extrapolation point
    beta = 0.0
    step = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        _refine_into(g_ext, fg, products, ff)
        # max over the d preimages, in the order t = 0, 1, ..., d-1
        for pre, out in preimages:
            np.maximum(pre[0], pre[1], out=out)
            for t in range(2, d):
                np.maximum(out, pre[t], out=out)
        beta = float(image.max())
        np.subtract(image, beta, out=image)
        np.subtract(image, g, out=diff)
        step = float(np.abs(diff, out=absdiff).max())
        slot = iterations % _MPE_PERIOD - (_MPE_PERIOD - _MPE_DEPTH)
        update = updates[slot] if slot >= 0 else diff
        np.multiply(diff, 0.5, out=update)
        np.add(g, update, out=g)
        if step < tol:
            converged = True
            break
        if extrapolating and slot == _MPE_DEPTH - 1:
            if step >= before:
                extrapolating = False
            else:
                before = step
                # diff and absdiff are free until the next sweep's image
                _extrapolate(g, updates, diff, absdiff)

    g = g - np.max(g)
    g_fn = GridFunction(g)
    residual = calibration_residual(f_coarse, g_fn, beta, d)
    return SubactionSolution(
        g=g_fn,
        f=f_coarse,
        lipschitz_fine=lipschitz_fine,
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


@dataclass(frozen=True, eq=False)
class PeriodicOrbitTable(Sequence):
    """All periodic orbits up to a period cap, with the best average.

    Held as three read-only arrays in enumeration order (period, then
    minimal numerator): ``periods``, ``numerators`` (the minimal point is
    numerator / (d^period - 1)) and ``averages``.  The table is the
    sequence of its orbits, each PeriodicOrbit built on access; ``len``
    builds none.
    """

    d: int
    max_period: int
    periods: np.ndarray
    numerators: np.ndarray
    averages: np.ndarray
    best_index: int

    def __len__(self) -> int:
        return self.periods.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        period = int(self.periods[i])
        return PeriodicOrbit(
            period=period,
            numerator=int(self.numerators[i]),
            modulus=self.d**period - 1,
            average=float(self.averages[i]),
        )

    @property
    def orbits(self) -> Sequence[PeriodicOrbit]:
        return self

    @property
    def best(self) -> PeriodicOrbit:
        return self[self.best_index]


_ORBIT_BUDGET = 2**24  # largest d^P enumerated: P <= 24 for d = 2
_ORBIT_CHUNK = 2**20  # orbit starts enumerated per block


def beta_lower_bound(f, d: int = 2, max_period: int | None = None) -> PeriodicOrbitTable:
    """Enumerate periodic orbits x = k/(d^p - 1), p <= max_period.

    The best Birkhoff average over the table is a lower bound for the
    maximal ergodic average beta(f).  Orbits are deduplicated by their
    minimal representative; only exact periods are listed.  Enumeration is
    chunked so memory stays bounded up to the budget of 2^24 points.  The
    best orbit is the first with the largest (average, -period).  The
    default max_period is the largest P >= 1 with d^P <= 2^16 (16 for
    d = 2, 10 for d = 3); d must be an int >= 2.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"branch count d must be an int >= 2, got {d!r}")
    if max_period is None:
        max_period = 1
        while d ** (max_period + 1) <= 2**16:
            max_period += 1
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if d ** max_period > _ORBIT_BUDGET:
        raise ValueError(
            f"d^P = {d}^{max_period} exceeds the enumeration budget {_ORBIT_BUDGET}"
        )
    periods, numerators, averages = [], [], []
    for p in range(1, max_period + 1):
        m = d**p - 1
        for lo in range(0, m, _ORBIT_CHUNK):
            # k starts an orbit of exact period p, at its minimal point, iff every
            # later point k * d^j (j < p) is larger: drop k at its first that is not
            reps = np.arange(lo, min(lo + _ORBIT_CHUNK, m), dtype=np.int64)
            x = reps
            for _ in range(1, p):
                x = x * d % m
                keep = x > reps
                reps, x = reps[keep], x[keep]
            if reps.size == 0:
                continue
            points = np.empty((reps.size, p), dtype=np.int64)
            points[:, 0] = reps
            for j in range(1, p):
                points[:, j] = points[:, j - 1] * d % m
            periods.append(np.full(reps.size, p, dtype=np.int64))
            numerators.append(reps)
            averages.append(np.asarray(f(points / m), dtype=float).mean(axis=1))
    arrays = [np.concatenate(a) for a in (periods, numerators, averages)]
    for a in arrays:
        a.setflags(write=False)
    periods_arr, numerators_arr, averages_arr = arrays
    # the first index with the largest (average, -period), compared as
    # Python compares tuples: periods ascend with the index, so that is the
    # first largest average; a NaN compares false, so it wins only at index 0
    best = 0 if math.isnan(averages_arr[0]) else int(np.nanargmax(averages_arr))
    return PeriodicOrbitTable(
        d=d,
        max_period=max_period,
        periods=periods_arr,
        numerators=numerators_arr,
        averages=averages_arr,
        best_index=best,
    )
