"""Sturmian measures of the doubling map and the antipodal-gap certificate.

For each closed semicircle S of T there is a unique invariant probability
measure of x -> 2x supported on S; it is carried by the periodic orbit of
the Sturmian word of its rotation number p/q (for rational rotation
numbers, the only ones needed here).  Orbit points are held as integer
numerators over 2^q - 1, so orbit-closure checks are exact integer
arithmetic; ``Fraction``s are built only on access.  The search for the
best Sturmian measure integrates a cached table of the same points as
correctly rounded floats, one evaluation of f for all orbits.

The certificate machinery works with R(x) = (f+g)(x) - (f+g)(x + 1/2) for
a calibrated sub-action g: when the zero set of R is a single pair of
antipodal points, the maximizing measure of f is unique and Sturmian.  On
a grid the zero set is bracketed by a band |R| <= eps_R, and a pass
requires the band to consist of exactly two antipodal arcs of width at
most w_max; ``sturmian_certificate`` alone sets both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isfinite

import numpy as np

from .convexity import pointwise_defect, uniform_defect
from .torus import GridFunction, _mod1


def sturmian_word(p: int, q: int) -> tuple[int, ...]:
    """Binary word s_n = floor((n+1)p/q) - floor(np/q), n = 0..q-1."""
    return tuple(((n + 1) * p) // q - (n * p) // q for n in range(q))


def _validate_rotation(p: int, q: int):
    if q < 1 or p < 0 or p >= q:
        raise ValueError(f"rotation number must satisfy 0 <= p < q, got {p}/{q}")
    if gcd(p, q) != 1:
        raise ValueError(f"rotation number {p}/{q} is not in lowest terms")


@dataclass(frozen=True)
class SturmianMeasure:
    """Uniform measure on the period-q Sturmian orbit of rotation number p/q:
    points numerators[k] / modulus in doubling order, modulus = 2^q - 1, in
    the closed semicircle that starts at start / modulus."""

    p: int
    q: int
    numerators: tuple[int, ...]
    start: int

    @property
    def modulus(self) -> int:
        return 2**self.q - 1

    @property
    def orbit(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.modulus) for n in self.numerators)

    @property
    def semicircle(self) -> tuple[Fraction, Fraction]:
        lo = Fraction(self.start, self.modulus)
        return lo, lo + Fraction(1, 2)

    def integrate(self, f) -> float:
        """(1/q) * sum of f over the orbit; a ValueError if it is not finite."""
        pts = np.array([n / self.modulus for n in self.numerators])
        return _finite_integral(self.p, self.q, float(np.mean(f(pts))))

    def to_dict(self):
        return {
            "p": self.p,
            "q": self.q,
            "orbit": [str(x) for x in self.orbit],
            "semicircle": [str(x) for x in self.semicircle],
        }


def _finite_integral(p: int, q: int, value: float) -> float:
    if not isfinite(value):
        raise ValueError(f"Sturmian integral over {p}/{q} = {value} is not finite")
    return value


def _orbit_numerators(p: int, q: int) -> list[int]:
    """Numerators n_k of the Sturmian orbit of p/q over m = 2^q - 1.

    n_0 reads the Sturmian word as a binary number (n_0 < m), and doubling
    mod 1 is n_{k+1} = 2 n_k mod m, exactly.
    """
    num = 0
    for s in sturmian_word(p, q):
        num = (num << 1) | s
    m = 2**q - 1
    out = [num]
    for _ in range(q - 1):
        out.append((out[-1] << 1) % m)
    return out


def sturmian_measure(p: int, q: int) -> SturmianMeasure:
    """Construct the Sturmian measure with rotation number p/q (reduced)."""
    _validate_rotation(p, q)
    m = 2**q - 1
    nums = _orbit_numerators(p, q)
    # minimal enclosing arc: the orbit is {0} or lies in [c, c + 1/2], 0 <= c <= 1/2, so the
    # wrap-around gap m - width >= m/2 >= width beats every inner gap (m is odd: no tie)
    start = min(nums)
    width = max(nums) - start
    if 2 * width > m:
        raise AssertionError(f"orbit of {p}/{q} does not fit a semicircle (width {width}/{m})")
    return SturmianMeasure(p=p, q=q, numerators=tuple(nums), start=start)


def rotation_numbers(max_q: int):
    """All reduced p/q with q <= max_q, ordered by (q, p); includes 0/1."""
    return [(p, q) for q in range(1, max_q + 1) for p in range(q) if gcd(p, q) == 1]


_TABLE_BUDGET = 2**22  # orbit points in one table: max_q <= 274


@lru_cache(maxsize=4)
def _orbit_table(max_q: int):
    """Float points of every Sturmian orbit with q <= max_q, built once.

    Returns (rotations, points, blocks): the rotation numbers of
    ``rotation_numbers(max_q)``, their orbit points concatenated in that
    order, and (q, count_q) per denominator.  Each point is n / m, the
    correctly rounded float of Fraction(n, m).  The q * phi(q) points are
    counted q by q, and a count over ``_TABLE_BUDGET`` is a ValueError
    before any orbit point is built.
    """
    rotations, blocks, total = [], [], 0
    for q in range(1, max_q + 1):
        ps = [p for p in range(q) if gcd(p, q) == 1]
        total += q * len(ps)
        if total > _TABLE_BUDGET:
            raise ValueError(
                f"max_q = {max_q} exceeds the Sturmian orbit-table budget of "
                f"{_TABLE_BUDGET} points (passed at q = {q})"
            )
        rotations += [(p, q) for p in ps]
        blocks.append((q, len(ps)))
    points = np.array(
        [n / (2**q - 1) for p, q in rotations for n in _orbit_numerators(p, q)]
    )
    points.flags.writeable = False
    return tuple(rotations), points, tuple(blocks)


def best_sturmian(f, max_q: int = 32) -> tuple[SturmianMeasure, float]:
    """Scan all rotation numbers q <= max_q for the largest integral of f.

    f is evaluated once on the cached orbit table; each integral is the
    mean over its orbit's q points, equal to ``sturmian_measure(p,
    q).integrate(f)``.  The first integral that is not finite is a
    ValueError naming its p/q.  Near-ties (relative 1e-12, the noise floor
    of averaging) keep the first, i.e. smallest-denominator, measure; the
    rule moves only to strict records of the running maximum, as
    b + 1e-12 * (1 + |b|) grows with b, so only those are visited.
    """
    if max_q < 1:
        raise ValueError("max_q must be >= 1")
    rotations, points, blocks = _orbit_table(max_q)
    vals = np.asarray(f(points), dtype=float)
    bounds = np.cumsum([0] + [q * count for q, count in blocks])
    integrals = np.concatenate([vals[lo:hi].reshape(count, q).mean(axis=1)
                                for lo, hi, (q, count) in zip(bounds, bounds[1:], blocks)])
    bad = np.flatnonzero(~np.isfinite(integrals))
    if bad.size:
        _finite_integral(*rotations[bad[0]], integrals[bad[0]])
    running = np.maximum.accumulate(integrals)
    best, best_val = 0, float(integrals[0])
    for i in np.flatnonzero(running[1:] > running[:-1]) + 1:
        if integrals[i] > best_val + 1e-12 * (1.0 + abs(best_val)):
            best, best_val = i, float(integrals[i])
    return sturmian_measure(*rotations[best]), best_val


def antipodal_difference(f: GridFunction, g: GridFunction) -> GridFunction:
    """R(x) = f(x) + g(x) - f(x+1/2) - g(x+1/2), node-exact.

    Computed as s - roll(s, -N/2) for s = f + g, so R(x + 1/2) = -R(x)
    holds exactly in floating point.
    """
    if f.n != g.n:
        raise ValueError(f"grid sizes disagree: {f.n} vs {g.n}")
    if f.n % 2 != 0:
        raise ValueError(f"antipodal difference needs an even grid, got N={f.n}")
    s = f.values + g.values
    return GridFunction(s - np.roll(s, -(f.n // 2)))


def _circular_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal cyclic runs of True as (start_index, length)."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    # rotate so position 0 is False; then rises and falls alternate, and a
    # run still open at the end falls at the appended False
    off = int(np.argmin(mask))  # first False
    edges = np.flatnonzero(np.diff(np.roll(mask, -off), append=False)) + 1
    starts = edges[0::2]
    return list(zip(((starts + off) % n).tolist(), (edges[1::2] - starts).tolist()))


@dataclass(frozen=True)
class SturmianCertificate:
    """Machine-checkable report on the zero set of an antipodal difference.

    The status follows from the arcs: "fail" unless they are one antipodal pair,
    then "pass" if both are at most w_max wide, else "inconclusive"
    (degenerate or under-resolved at this N).
    """

    zero_arcs: tuple[tuple[float, float, int], ...]  # (start_x, width, node_count)
    antipodal_pair: tuple[float, float] | None
    positivity_arc: tuple[float, float] | None  # (start_x, width) of maximal R > eps arc
    worst_margin: float  # min over zero arcs of (w_max - width); negative when too wide
    epsilon_r: float
    w_max: float
    grid_n: int

    @property
    def status(self) -> str:
        if self.antipodal_pair is None:
            return "fail"
        return "pass" if self.worst_margin >= 0.0 else "inconclusive"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self):
        return {
            "status": self.status,
            "pass": self.passed,
            "zero_arcs": [
                {"start": s, "width": w, "nodes": c} for s, w, c in self.zero_arcs
            ],
            "antipodal_pair": list(self.antipodal_pair) if self.antipodal_pair else None,
            "positivity_arc": list(self.positivity_arc) if self.positivity_arc else None,
            "worst_margin": self.worst_margin,
            "epsilon_r": self.epsilon_r,
            "w_max": self.w_max,
            "grid_n": self.grid_n,
        }


def sturmian_certificate(f: GridFunction, g: GridFunction) -> SturmianCertificate:
    """Certify the zero set of R = ``antipodal_difference(f, g)``.

    The band |R| <= epsilon_r, epsilon_r = 5 (Lip f + Lip g) / N, is
    clustered into cyclic arcs, each of which may be at most w_max = 16 / N
    wide.  Grids whose slopes overflow give no finite band: a ValueError,
    not a certificate that fails.
    """
    r = antipodal_difference(f, g)
    n = r.n
    epsilon_r = 5.0 * (f.lipschitz_estimate() + g.lipschitz_estimate()) / n
    if not isfinite(epsilon_r):
        raise ValueError(f"band epsilon_r = {epsilon_r} is not finite: the grids' slopes overflow")
    w_max = 16.0 / n

    mask = np.abs(r.values) <= epsilon_r
    runs = _circular_runs(mask)
    arcs = tuple((start / n, (length - 1) / n, length) for start, length in runs)

    pos_runs = _circular_runs(r.values > epsilon_r)
    positivity = None
    if pos_runs:
        s, ln = max(pos_runs, key=lambda r_: r_[1])
        positivity = (s / n, (ln - 1) / n)

    worst = w_max - max((w for _, w, _ in arcs), default=1.0)
    pair = None
    if len(runs) == 2:  # R(x + 1/2) = -R(x) exactly: each run is the other's antipode
        (s1, l1), _ = runs
        center1 = (s1 + (l1 - 1) / 2.0) / n % 1.0
        pair = (center1, (center1 + 0.5) % 1.0)
    return SturmianCertificate(
        zero_arcs=arcs,
        antipodal_pair=pair,
        positivity_arc=positivity,
        worst_margin=float(worst),
        epsilon_r=epsilon_r,
        w_max=w_max,
        grid_n=n,
    )


def preimage_branch_bound(f, g, x: float, n: int) -> float:
    """Upper bound for -2*(g(x) - g(x+1/2)) from defects along preimage branches.

    Enumerates all 2^(n-1) branches y with T^(n-1) y = x + 1/2 and returns

        max_y sum_{k=2..n} defect(f; T^(n-k) y, 2^-k)  +  sup-defect(g; 2^-n).

    The construction is specific to the doubling map and its antipodal
    structure.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 20:
        raise ValueError(f"n = {n} would enumerate 2^{n-1} branches; capped at 20")
    m = 2 ** (n - 1)
    ys = ((x + 0.5) + np.arange(m)) / m  # all preimages under T^(n-1)
    # forward orbit T^j y for j = 0..n-2; term k uses point T^(n-k) y
    totals = np.zeros(m)
    pts = _mod1(ys)
    powers = [pts]
    for _ in range(n - 2):
        pts = _mod1(2.0 * pts)
        powers.append(pts)
    for k in range(2, n + 1):
        delta = 2.0**-k
        at = powers[n - k]
        totals += pointwise_defect(f, at, delta)
    tail = uniform_defect(g, 2.0**-n)
    return float(np.max(totals) + tail)
