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

The solver stops on a bracket of the grid operator's gain: L is monotone
and commutes with constants, so every gain of L lies in [min(Lg - g),
max(Lg - g)] for any g (Cochet-Terrasson, Cohen, Gaubert, McGettrick &
Quadrat 1998), a min and a max of a sweep's image.  A solve converges once
a sweep's bracket, widened by its rounding, is narrower than tol, and
reports the running bracket with beta its midpoint.  It stops as stalled
once the bracket since the last extrapolation has rested for
``_STALL_WINDOW`` sweeps while no node's best preimage could change within
another window (README.md gives the reasons for both rules).

Once the argmax policy stops changing, the averaged sweep is affine and
its error decays like its slowest eigenvalues: for cos(2 pi (x - 10/64))
at N = 4096, a complex pair of modulus cos(pi/8), from sweep 56 to sweep
223 of the sweeps without extrapolation.  So every
``_MPE_PERIOD``-th sweep moves g to the minimal polynomial extrapolate
(Cabay & Jackson 1976; Sidi, *Vector Extrapolation Methods*, 2017) of the
last ``_MPE_DEPTH`` updates.  A correction that is not finite, or comes
from a singular system, is not applied, and extrapolation stops for the
rest of the solve once the step max|Lg - max(Lg) - g| at an extrapolation
point is not below the one before.  Averaged sweeps converge from any start
and the bracket holds for any g, so a bad extrapolation costs only sweeps.

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


def _check_branches(d: int, n: int) -> None:
    """Refuse a branch count that M_d cannot apply to an n-node grid: d must
    be at least 2, divide n and leave a grid of at least 2 nodes."""
    if d < 2:
        raise ValueError(f"branch count d must be >= 2, got {d}")
    if n % d != 0:
        raise ValueError(f"d={d} does not divide the grid size {n}")
    if n // d < 2:
        raise ValueError(f"d={d} needs a grid size N >= 2d = {2 * d}, got N={n}")


def max_transfer(f: GridFunction, d: int) -> GridFunction:
    """Exact max over preimage branches; output grid size is N/d."""
    _check_branches(d, f.n)
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
    f holds the N-grid samples of the observable the residual was measured against."""

    g: GridFunction
    f: GridFunction
    beta: float
    residual: float
    iterations: int
    converged: bool
    d: int
    tol: float
    beta_lo: float
    beta_hi: float

    def to_dict(self):
        return {
            "beta": self.beta,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "d": self.d,
            "n": self.g.n,
            "tol": self.tol,
            "beta_lo": self.beta_lo,
            "beta_hi": self.beta_hi,
        }


_MPE_PERIOD = 15  # sweeps from one extrapolation to the next; the first is sweep 14
_MPE_DEPTH = 5  # updates an extrapolation reads: its own sweep's and the 4 before
_STALL_WINDOW = 30  # sweeps a bracket rests, with its policy locked, to stop a solve as stalled


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


def _extrapolate(g: np.ndarray, u: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> float:
    """Move g, the iterate the updates ``u`` (rows oldest first) led to, to
    their minimal polynomial extrapolate g - sum_j Gamma_j u_j, and return
    the largest |correction| applied (0.0 if none).

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
            return 0.0
        np.multiply(u[0], weights[0], out=acc)
        for uj, w in zip(u[1:], weights[1:]):
            np.add(acc, np.multiply(uj, w, out=tmp), out=acc)
        size = float(np.abs(acc, out=tmp).max())
        if math.isfinite(size):
            np.subtract(g, acc, out=g)
            return size
    return 0.0


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
    kept in one (5, N) buffer.  Iteration stops, converged, once a sweep's
    bracket of the grid's gain is narrower than tol (default 1e-9 *
    range(f), at least 32 eps max|f|), or unconverged after max_iter
    sweeps or a stall (see the module docstring); [beta_lo, beta_hi] is
    the running bracket and beta its midpoint.  A given tol must be finite
    and positive, max_iter at least 1, and d at least 2 dividing grid_n
    with grid_n >= 2d (ValueError otherwise, before the d*N samples or any
    sweep).

    Each end of a sweep's bracket is widened by 8 eps (F + G), F = max|f|
    and G >= max|g| (max|g0| plus half of each step and each correction so
    far), which bounds its rounding, in units of eps/2: F + 4G in the fill,
    2F + 2G in image - beta, 2F + 3G in - g, and F + 2G each in beta + diff
    and the widening; the max over preimages and the min and max are exact.

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
    n = grid_n
    f_coarse = sample(f, n)
    _check_branches(d, n)
    f_fine = sample(f, d * n)
    widening, f_max = 8.0 * math.ulp(1.0), float(np.abs(f_fine.values).max())  # 8 eps, max|f|
    if tol is None:  # twice the least width of two widened ends, 16 eps max|f|
        tol = max(1e-9 * f_coarse.value_range(), 4.0 * widening * f_max) or 1e-12

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
    # image overwrites the fill's products, and a row of fg, free once the
    # image is taken, holds g's displacement.
    m = n // d
    fg = np.empty((d, n))
    products = np.empty((len(_weight_plan(d)[0]), n + 1))
    image = products[0, :n]
    preimages = [(fg[r].reshape(d, m), image[r::d]) for r in range(d)]
    diff, spare = fg[-1], np.empty(m)
    # the last _MPE_DEPTH updates before each extrapolation, oldest first
    updates = np.empty((_MPE_DEPTH, n))
    extrapolating = True
    before = math.inf  # the step at the previous extrapolation point
    lo, hi = -math.inf, math.inf
    g_max = float(np.abs(g).max())  # bounds max|g|: grows by each update's and correction's max
    # the running bracket since the last extrapolation, and the sweeps since it moved
    since_lo, since_hi, still = -math.inf, math.inf, 0
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
        if still + 1 >= _STALL_WINDOW:
            # the least gap from a node's best preimage value to its second
            # best: best - value over fg, then the least max over two preimages
            gap = math.inf
            for pre, out in preimages:
                np.subtract(out, pre, out=pre)
                for s, t in itertools.combinations(range(d), 2):
                    gap = min(gap, float(np.maximum(pre[s], pre[t], out=spare).min()))
        np.subtract(image, beta, out=image)
        np.subtract(image, g, out=diff)
        d_min, d_max = float(diff.min()), float(diff.max())
        step = d_max if d_max > -d_min else -d_min
        err = widening * (f_max + g_max)
        lower, upper = beta + d_min - err, beta + d_max + err
        still += 1
        if lower > since_lo:
            since_lo, lo, still = lower, max(lo, lower), 0
        if upper < since_hi:
            since_hi, hi, still = upper, min(hi, upper), 0
        slot = iterations % _MPE_PERIOD - (_MPE_PERIOD - _MPE_DEPTH)
        update = updates[slot] if slot >= 0 else diff
        np.multiply(diff, 0.5, out=update)
        np.add(g, update, out=g)
        g_max += 0.5 * step
        if upper - lower < tol:
            converged = True
            break
        if still >= _STALL_WINDOW and hi - lo >= tol and _STALL_WINDOW * (upper - lower) < 2.0 * gap:
            break
        if extrapolating and slot == _MPE_DEPTH - 1:
            if step >= before:
                extrapolating = False
            else:
                before = step
                # fg is free until the next sweep's fill
                g_max += _extrapolate(g, updates, fg[0], fg[1])
                since_lo, since_hi = -math.inf, math.inf

    g = g - np.max(g)
    g_fn = GridFunction(g)
    beta = (lo + hi) / 2.0
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
        beta_lo=lo,
        beta_hi=hi,
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
    chunked so memory stays bounded up to the budget of 2^24 points.  A
    non-finite average is refused, naming its orbit; the best orbit is the
    first with the largest average.  The default max_period is the largest
    P >= 1 with d^P <= 2^16 (16 for d = 2, 10 for d = 3); d is an int >= 2.
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
            avg = np.add.reduce(np.asarray(f(points / m), dtype=float), axis=1)
            avg /= p  # in place, as .mean(axis=1) divides: the same bits and no second array
            bad = np.flatnonzero(~np.isfinite(avg))
            if bad.size:
                raise ValueError(f"orbit {reps[bad[0]]}/{m} of period {p} has a non-finite average {avg[bad[0]]}")
            averages.append(avg)
    arrays = [np.concatenate(a) for a in (periods, numerators, averages)]
    for a in arrays:
        a.setflags(write=False)
    periods_arr, numerators_arr, averages_arr = arrays
    return PeriodicOrbitTable(
        d=d,
        max_period=max_period,
        periods=periods_arr,
        numerators=numerators_arr,
        averages=averages_arr,
        best_index=int(np.argmax(averages_arr)),
    )
