import functools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleopt import (
    GridFunction,
    Negate,
    PeriodicOrbit,
    PiecewisePoly,
    Scale,
    Sum,
    Translate,
    beta_lower_bound,
    calibration_residual,
    convexity_defect,
    max_transfer,
    sample,
    solve_calibrated,
    uniform_defect,
)
from circleopt import criteria, transfer
from circleopt.catalog import constant, cosine, quadratic_extremal, random_antisym_even, random_trig

FOUR_PI_SQ = 4.0 * math.pi**2


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _points(orbit, d):
    """Exact points of a periodic orbit of x -> d*x, from its representative on."""
    out = [Fraction(orbit.numerator, orbit.modulus)]
    for _ in range(orbit.period - 1):
        out.append(out[-1] * d % 1)
    return tuple(out)


class TestMaxTransfer:
    def test_cosine_doubling_gives_abs_half_angle(self):
        # max(cos(pi x), cos(pi x + pi)) = |cos(pi x)| at the coarse nodes
        g = sample(cosine(), 512)
        out = max_transfer(g, 2)
        xs = np.arange(256) / 256
        np.testing.assert_allclose(out.values, np.abs(np.cos(np.pi * xs)), atol=1e-12)

    def test_constant_fixed(self):
        out = max_transfer(sample(constant(2.5), 64), 2)
        np.testing.assert_allclose(out.values, 2.5)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            max_transfer(sample(cosine(), 64), 3)

    def test_defect_contraction_for_cosine(self):
        # the image's convexity defect drops by at least d^2
        out = max_transfer(sample(cosine(), 4096), 2)
        rep = convexity_defect(out, "finite_difference")
        tol = 10 * out.lipschitz_estimate() / out.n
        assert rep.eta <= FOUR_PI_SQ / 4 + tol

    def test_monotone(self):
        rng = np.random.default_rng(0)
        f = sample(random_trig(rng), 96)
        h = GridFunction(f.values + np.abs(rng.normal(size=96)))
        assert np.all(max_transfer(h, 3).values >= max_transfer(f, 3).values)

    def test_constant_shift(self):
        f = sample(cosine(), 96)
        out1 = max_transfer(GridFunction(f.values + 1.7), 2)
        out2 = max_transfer(f, 2)
        np.testing.assert_allclose(out1.values, out2.values + 1.7, atol=1e-12)


class TestBetaLowerBound:
    def test_cosine_fixed_point(self):
        tab = beta_lower_bound(cosine(), 2, 8)
        assert tab.best.average == pytest.approx(1.0)
        assert tab.best.period == 1
        assert _points(tab.best, 2) == (tab.best.representative,)

    def test_translated_cosine_period_two(self):
        # orbit {1/3, 2/3}: (cos(-pi/3) + cos(pi/3)) / 2 = 1/2, and the
        # exhaustive table up to period 12 finds nothing better
        tab = beta_lower_bound(Translate(0.5, cosine()), 2, 12)
        assert tab.best.average == pytest.approx(0.5, abs=1e-12)
        assert sorted(str(x) for x in _points(tab.best, 2)) == ["1/3", "2/3"]

    def test_constant_all_orbits_equal(self):
        tab = beta_lower_bound(constant(0.7), 2, 6)
        assert all(o.average == pytest.approx(0.7) for o in tab.orbits)

    def test_orbit_invariance(self):
        tab = beta_lower_bound(cosine(), 2, 10)
        for orbit in tab.orbits[:50]:
            points = _points(orbit, 2)
            doubled = sorted((x * 2) - int(x * 2) for x in points)
            assert doubled == sorted(points)

    def test_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            beta_lower_bound(cosine(), 2, 30)

    @pytest.mark.parametrize("d", [1, 0, -2, 2.0])
    def test_bad_branch_count_rejected(self, d):
        with pytest.raises(ValueError, match="branch count d must be an int >= 2"):
            beta_lower_bound(cosine(), d)

    @pytest.mark.parametrize("d, cap", [(2, 16), (3, 10)])
    def test_default_cap(self, d, cap):
        # the largest P with d^P <= 2^16
        assert beta_lower_bound(constant(0.5), d).max_period == cap

    def test_exact_periods_no_duplicates(self):
        tab = beta_lower_bound(cosine(), 2, 8)
        reps = [o.representative for o in tab.orbits]
        assert len(reps) == len(set(reps))
        for o in tab.orbits:
            assert len(set(_points(o, 2))) == o.period


def _eager_orbits(d, max_period):
    """(period, representative, points) of every exact-period orbit of x -> d*x."""
    out = []
    for p in range(1, max_period + 1):
        m = d**p - 1
        for k in range(max(m, 1)):
            pts = [Fraction(k, m)]
            for _ in range(p - 1):
                pts.append(pts[-1] * d % 1)
            if len(set(pts)) == p and min(pts) == pts[0]:
                out.append((p, pts[0], tuple(pts)))
    return out


class TestLazyOrbits:
    @pytest.mark.parametrize("d, max_period", [(2, 10), (3, 6)])
    def test_points_match_eager_fractions(self, d, max_period):
        tab = beta_lower_bound(Translate(0.3, cosine()), d, max_period)
        eager = _eager_orbits(d, max_period)
        assert [(o.period, o.representative, _points(o, d)) for o in tab.orbits] == eager


def _object_table(f, d, max_period):
    """The orbit table as a list of PeriodicOrbit and the best index, by the
    row-matrix enumeration with `% m` and Python's max over (average, -period)."""
    orbits = []
    for p in range(1, max_period + 1):
        m = d**p - 1
        ks = np.arange(m, dtype=np.int64)
        rows = np.empty((p, ks.size), dtype=np.int64)
        rows[0] = ks
        for j in range(1, p):
            rows[j] = (rows[j - 1] * d) % m
        period = np.full(ks.size, p, dtype=np.int64)
        for j in range(p - 1, 0, -1):
            period[rows[j] == ks] = j
        reps = np.nonzero((rows.min(axis=0) == ks) & (period == p))[0]
        means = np.asarray(f(rows[:, reps] / m), dtype=float).mean(axis=0)
        orbits += [
            PeriodicOrbit(period=p, numerator=k, modulus=m, average=avg)
            for k, avg in zip(ks[reps].tolist(), means.tolist())
        ]
    best = max(range(len(orbits)), key=lambda i: (orbits[i].average, -orbits[i].period))
    return orbits, best


_TABLE_SPECS = {
    "cosine": cosine(),
    "translate": Translate(0.3, cosine()),
    "random_trig": random_trig(np.random.default_rng(11)),
    "constant_0.7": constant(0.7),
}


class TestOrbitTableArrays:
    @pytest.mark.parametrize("d, max_period", [(2, 16), (3, 10)])
    @pytest.mark.parametrize("name", sorted(_TABLE_SPECS))
    def test_matches_the_object_built_table(self, name, d, max_period):
        f = _TABLE_SPECS[name]
        tab = beta_lower_bound(f, d, max_period)
        orbits, best = _object_table(f, d, max_period)
        assert len(tab.orbits) == tab.periods.size == len(orbits)
        assert tab.best_index == best
        assert tab.best == orbits[best]
        assert tab.best.representative == orbits[best].representative
        assert np.array_equal(tab.periods, [o.period for o in orbits])
        assert np.array_equal(tab.numerators, [o.numerator for o in orbits])
        assert tab.averages.tobytes() == np.array([o.average for o in orbits]).tobytes()
        assert list(tab.orbits) == orbits
        assert tab.orbits[-3:] == tuple(orbits[-3:])

    @pytest.mark.parametrize("d, max_period", [(2, 10), (3, 6)])
    def test_chunk_boundaries_change_no_bit(self, monkeypatch, d, max_period):
        # blocks of 7 starts split every period past the first few, and
        # leave some blocks without a minimal start
        f = _TABLE_SPECS["random_trig"]
        whole = beta_lower_bound(f, d, max_period)
        monkeypatch.setattr(transfer, "_ORBIT_CHUNK", 7)
        chunked = beta_lower_bound(f, d, max_period)
        for name in ("periods", "numerators", "averages"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), name

    def test_len_builds_no_orbit(self, monkeypatch):
        tab = beta_lower_bound(cosine(), 2, 16)

        def refuse(**kwargs):
            raise AssertionError("an orbit was built")

        monkeypatch.setattr(transfer, "PeriodicOrbit", refuse)
        assert len(tab) == len(tab.orbits) == 8799
        with pytest.raises(AssertionError, match="an orbit was built"):
            tab.best

    def test_arrays_are_read_only(self):
        tab = beta_lower_bound(cosine(), 2, 6)
        for a in (tab.periods, tab.numerators, tab.averages):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_exact_tie_picks_the_fixed_point(self):
        # 0.5 sums and divides exactly, so every orbit's average is 0.5
        tab = beta_lower_bound(constant(0.5), 2, 10)
        assert np.all(tab.averages == 0.5)
        assert tab.best_index == 0 and tab.best.period == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nan", "-inf"])
    def test_first_non_finite_average_is_refused_by_its_orbit(self, sign):
        # inf - inf (or -inf alone) on [1/2, 1): the fixed point 0 averages
        # 1.0, and the first orbit to touch [1/2, 1) is {1/3, 2/3}
        inf_step = Scale(1e300, Scale(1e300, PiecewisePoly((0.0, 0.5), ((0.0,), (1.0,)))))
        f = Sum((cosine(), Scale(sign, inf_step), Negate(inf_step)))
        average = "nan" if sign > 0 else "-inf"
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=rf"^orbit 1/3 of period 2 has a non-finite average {average}$"):
            beta_lower_bound(f, 2, 8)

    def test_constant_averages_tie_only_to_rounding(self):
        # 0.7 * p / p is not always 0.7: the best is the first orbit whose
        # rounded mean is largest, whatever its period
        tab = beta_lower_bound(constant(0.7), 2, 10)
        np.testing.assert_allclose(tab.averages, 0.7, rtol=1e-15)
        assert tab.best_index == _object_table(constant(0.7), 2, 10)[1]


class TestSolveCalibrated:
    @pytest.mark.parametrize("c", [1.3, 1000.0, -1e12])
    def test_constant_solves_in_one_step(self, c):
        # tol is at least 32 eps |c|, twice what the two widened ends need
        sol = solve_calibrated(constant(c), d=2, grid_n=64)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.tol == 32.0 * np.finfo(float).eps * abs(c)
        assert sol.beta == pytest.approx(c) and sol.beta_lo <= c <= sol.beta_hi
        assert sol.residual == pytest.approx(0.0, abs=1e-15 * abs(c))
        np.testing.assert_allclose(sol.g.values, 0.0)

    def test_offset_far_above_the_range_converges(self):
        # 1e7 + cos: the widening, 8 eps 1e7 an end, exceeds 1e-9 * range(f)
        f = Sum((constant(1e7), cosine()))
        sol = solve_calibrated(f, d=2, grid_n=512)
        assert sol.converged and sol.tol == 32.0 * np.finfo(float).eps * (1e7 + 1.0)
        assert sol.beta_lo <= 1e7 + 1.0 <= sol.beta_hi

    def test_solution_carries_the_coarse_samples(self):
        f = Translate(0.3, quadratic_extremal())
        sol = solve_calibrated(f, d=2, grid_n=256)
        assert sol.f.values.tobytes() == sample(f, 256).values.tobytes()
        assert sol.residual == calibration_residual(sol.f, sol.g, sol.beta, 2)

    def test_cosine_beta_and_residual(self):
        sol = solve_calibrated(cosine(), d=2, grid_n=4096)
        assert sol.converged
        assert abs(sol.beta - 1.0) < 1e-6
        assert sol.residual < 2e-6
        assert np.max(sol.g.values) == pytest.approx(0.0, abs=1e-15)

    def test_solved_defect_contraction(self):
        sol = solve_calibrated(cosine(), d=2, grid_n=4096)
        rep = convexity_defect(sol.g, "finite_difference", min_delta_nodes=4)
        assert rep.eta <= FOUR_PI_SQ / 3 + 0.02 * FOUR_PI_SQ

    def test_subaction_inequality_at_all_nodes(self):
        f = Translate(0.3, cosine())
        sol = solve_calibrated(f, d=2, grid_n=2048)
        fg = sample(f, 2048)
        g = sol.g.values
        lhs = fg.values + g - g[(np.arange(2048) * 2) % 2048]
        assert np.max(lhs) <= sol.beta + sol.residual + 1e-12

    def test_calibration_residual_detects_perturbation(self):
        f = sample(cosine(), 8)
        sol = solve_calibrated(cosine(), d=2, grid_n=8)
        base = calibration_residual(f, sol.g, sol.beta, 2)
        eps = 1e-3
        bumped = sol.g.values.copy()
        bumped[2] += eps
        pert = calibration_residual(f, GridFunction(bumped), sol.beta, 2)
        assert pert >= base + eps / 2

    def test_beta_dominates_periodic_orbits(self):
        for omega in (0.0, 0.3, 0.5):
            f = Translate(omega, cosine()) if omega else cosine()
            sol = solve_calibrated(f, d=2, grid_n=2048)
            tab = beta_lower_bound(f, 2, 12)
            assert sol.beta >= tab.best.average - 1e-6

    def test_non_convergence_reported(self):
        sol = solve_calibrated(cosine(), d=2, grid_n=256, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        assert sol.beta_hi - sol.beta_lo >= sol.tol

    @pytest.mark.parametrize("d, n", [(2, 4096), (3, 3**7)])
    @pytest.mark.parametrize("name", ["cosine", "quadratic_extremal", "random_trig"])
    def test_converged_residual_is_below_tol(self, name, d, n):
        # the last sweep's bracket, narrower than tol, holds both the reported
        # beta and every Lg - g of the final g
        sol = solve_calibrated(_OBSERVABLES[name], d=d, grid_n=n)
        assert sol.converged
        assert sol.residual < sol.tol
        assert sol.beta_lo <= sol.beta <= sol.beta_hi and sol.beta_hi - sol.beta_lo < sol.tol

    def test_relaxed_iteration_converges_where_plain_cycles(self):
        sol = solve_calibrated(Translate(1 / 3, cosine()), d=2, grid_n=512)
        assert sol.converged

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_calibrated(cosine(), d=2, grid_n=256, tol=tol)

    def test_rejects_no_sweeps(self):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            solve_calibrated(cosine(), d=2, grid_n=256, max_iter=0)

    def test_grid_input_rejected(self):
        with pytest.raises(TypeError, match="need a FunctionSpec, got GridFunction"):
            solve_calibrated(sample(cosine(), 1024), d=2)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            solve_calibrated(cosine(), d=3, grid_n=4096)

    def test_subaction_jumps_are_upward(self):
        # convex-plus-quadratic regularity: one-sided derivatives exist and
        # only jump upward; checked on the solved cosine pair and a translate.
        # The jump of the one-sided difference quotients at node i is
        # (v[i+1] - 2 v[i] + v[i-1]) * N; below 10 Lip / N it is grid noise.
        for omega in (0.0, 0.3):
            f = Translate(omega, cosine()) if omega else cosine()
            sol = solve_calibrated(f, d=2, grid_n=4096)
            v, n = sol.g.values, sol.g.n
            jumps = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) * n
            kinks = jumps[np.abs(jumps) > 10.0 * sol.g.lipschitz_estimate() / n]
            assert 0 < kinks.size < 50
            assert np.all(kinks > 0)

    def test_uniqueness_up_to_constant(self):
        f = cosine()
        sol1 = solve_calibrated(f, d=2, grid_n=1024)
        rng = np.random.default_rng(5)
        g0 = GridFunction(0.2 * np.cos(2 * np.pi * np.arange(1024) / 1024 + rng.uniform()))
        sol2 = solve_calibrated(f, d=2, grid_n=1024, g0=g0)
        diff = sol1.g.values - sol2.g.values
        assert np.max(diff) - np.min(diff) < 10 * sol1.tol


def _reference_extrapolate(g, u):
    """(g - sum_j Gamma_j u_j, max|correction|): the minimal polynomial
    extrapolate of the iterates that led to g by the updates u (oldest
    first); (g, 0.0) when the normal equations are singular or the
    correction is not finite."""
    k = len(u) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.array([[np.sum(a * b) for b in u] for a in u])
        a, b = gram[:k, :k].copy(), -gram[:k, k]
        for col in range(k):  # no pivoting: a Gram matrix is positive semi-definite
            if not a[col, col] > 0.0:
                return g, 0.0
            for r in range(col + 1, k):
                m = a[r, col] / a[col, col]
                a[r, col + 1 :] -= m * a[col, col + 1 :]
                b[r] -= m * b[col]
        c = np.ones(k + 1)
        for i in reversed(range(k)):
            c[i] = b[i]
            for j in range(i + 1, k):
                c[i] -= a[i, j] * c[j]
            c[i] /= a[i, i]
        total = np.cumsum(c)[-1]
        if total == 0.0:
            return g, 0.0
        correction = functools.reduce(operator.add, np.cumsum(c / total)[:, None] * u)
        if not np.isfinite(correction).all():
            return g, 0.0
        return g - correction, float(np.max(np.abs(correction)))


def _reference_solve(f, d, n, max_iter=100_000, g0=None, extrapolate=True):
    """Allocating broadcast form of the sweep, the bitwise reference for the solver.

    Each sweep brackets the gain by beta + min and max of image - beta - g,
    widened by 8 eps (max|f| + a bound on max|g|: max|g0| plus half of each
    step and each correction so far).  The solve
    stops converged once a sweep's bracket is narrower than tol, or stalled
    once the running bracket since the last extrapolation has not moved for
    30 sweeps while the running bracket is at least tol wide and 30 times
    the sweep's bracket width is below twice the least gap from a node's
    best preimage value to its second best.  After sweeps 14, 29, ... g
    moves to the extrapolate of the last 5 updates, until the step at one
    of them is not below the step at the one before."""
    f_coarse = sample(f, n)
    ff = sample(f, d * n).values
    f_max = float(np.max(np.abs(ff)))
    tol = max(1e-9 * f_coarse.value_range(), 32.0 * np.finfo(float).eps * f_max) or 1e-12
    w = np.arange(d) / d
    g = g0.values - np.max(g0.values) if g0 is not None else np.zeros(n)
    lo, hi, converged = -math.inf, math.inf, False
    g_max = float(np.max(np.abs(g)))
    since_lo, since_hi, still = -math.inf, math.inf, 0
    updates, before = [], math.inf
    for iterations in range(1, max_iter + 1):
        refined = (g[:, None] * (1.0 - w) + np.roll(g, -1)[:, None] * w).ravel()
        values = (ff + refined).reshape(d, n)
        image = values.max(axis=0)
        beta = float(np.max(image))
        gap = float(np.min(np.partition(image - values, 1, axis=0)[1]))
        diff = (image - beta) - g
        d_min, d_max = float(np.min(diff)), float(np.max(diff))
        step = max(d_max, -d_min)
        err = 8.0 * np.finfo(float).eps * (f_max + g_max)
        lower, upper = beta + d_min - err, beta + d_max + err
        still = 0 if lower > since_lo or upper < since_hi else still + 1
        since_lo, since_hi = max(since_lo, lower), min(since_hi, upper)
        lo, hi = max(lo, lower), min(hi, upper)
        update = 0.5 * diff
        g = g + update
        g_max += 0.5 * step
        if upper - lower < tol:
            converged = True
            break
        if still >= 30 and hi - lo >= tol and 30 * (upper - lower) < 2.0 * gap:
            break
        updates = (updates + [update])[-5:]
        if extrapolate and iterations % 15 == 14:
            if step >= before:
                extrapolate = False
            else:
                before = step
                g, size = _reference_extrapolate(g, np.array(updates))
                g_max += size
                since_lo, since_hi = -math.inf, math.inf
    g = g - np.max(g)
    beta = (lo + hi) / 2.0
    residual = calibration_residual(f_coarse, GridFunction(g), beta, d)
    return g, beta, residual, iterations, converged, lo, hi


def _assert_same_solution(sol, ref):
    g, beta, residual, iterations, converged, lo, hi = ref
    assert sol.g.values.tobytes() == g.tobytes()
    assert np.array([sol.beta, sol.residual, sol.beta_lo, sol.beta_hi]).tobytes() == np.array(
        [beta, residual, lo, hi]
    ).tobytes()
    assert (sol.iterations, sol.converged) == (iterations, converged)


# -0.0 on [0, 1/2), a non-positive bump on [1/2, 1): beta is a signed zero
_SIGNED_ZEROS = Negate(PiecewisePoly((0.0, 0.5), ((0.0,), (-0.5, 1.5, -1.0))))

_OBSERVABLES = {
    "cosine": cosine(),
    "quadratic_extremal": quadratic_extremal(),
    "random_trig": random_trig(np.random.default_rng(3)),
    "zero_scaled_cosine": Scale(0.0, cosine()),
    "signed_zeros": _SIGNED_ZEROS,
}


def _signed_zero_start(n):
    # max +0.0 at the last node, so the -0.0 nodes can survive the normalization
    start = 0.1 * np.cos(2 * np.pi * (np.arange(n) + 1) / n) - 0.1
    start[::5] = -0.0
    return start


def _criterion_9_start(n):
    rng = np.random.default_rng(42)
    xs = np.arange(n) / n
    return GridFunction(
        0.25 * np.cos(2 * np.pi * xs + rng.uniform(0, 2 * np.pi))
        + 0.1 * np.cos(4 * np.pi * xs + rng.uniform(0, 2 * np.pi))
    )


class TestSweepMatchesBroadcastReference:
    @pytest.mark.parametrize("d, n", [(2, 64), (2, 512), (2, 4096), (3, 243), (3, 3**7)])
    @pytest.mark.parametrize("name", sorted(_OBSERVABLES))
    def test_converged_solve_is_bitwise_the_reference(self, name, d, n):
        f = _OBSERVABLES[name]
        sol = solve_calibrated(f, d=d, grid_n=n)
        assert sol.converged
        _assert_same_solution(sol, _reference_solve(f, d, n))

    def test_signed_zero_observables_hold_negative_zeros(self):
        # the cases above really feed -0.0 samples to the sweep, and beta is 0
        for name in ("zero_scaled_cosine", "signed_zeros"):
            f = _OBSERVABLES[name]
            assert np.sum(_bits(sample(f, 128).values) == _bits(-0.0)) >= 32
            assert solve_calibrated(f, d=2, grid_n=64).beta == 0.0

    @pytest.mark.parametrize("d, n", [(2, 512), (3, 243)])
    def test_stopped_solve_is_bitwise_the_reference(self, d, n):
        f = _OBSERVABLES["random_trig"]
        sol = solve_calibrated(f, d=d, grid_n=n, max_iter=7)
        assert not sol.converged
        _assert_same_solution(sol, _reference_solve(f, d, n, max_iter=7))

    @pytest.mark.parametrize("d, n", [(2, 64), (2, 512), (3, 81), (3, 243)])
    @pytest.mark.parametrize("name", sorted(_OBSERVABLES))
    def test_signed_zero_start_is_bitwise_the_reference(self, name, d, n):
        # g0 - max(g0) can hold -0.0; the solver reads it as +0.0, so it is
        # bitwise the reference started from g0 + 0.0
        start = _signed_zero_start(n)
        g0 = GridFunction(start)
        before = g0.values.tobytes()
        f = _OBSERVABLES[name]
        sol = solve_calibrated(f, d=d, grid_n=n, g0=g0)
        assert g0.values.tobytes() == before
        _assert_same_solution(sol, _reference_solve(f, d, n, g0=GridFunction(start + 0.0)))

    def test_signed_zero_start_moves_only_zeros_halved_from_subnormals(self):
        # where the normalisation shows: a displacement of -5e-324
        # halves to -0.0, so a -0.0 node of the raw start stays -0.0
        f = Scale(1e-323, cosine())
        start = np.array([-0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0,
                          -0.0, 0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0])
        sol = solve_calibrated(f, d=2, grid_n=16, g0=GridFunction(start), max_iter=1)
        normalised = _reference_solve(f, 2, 16, max_iter=1, g0=GridFunction(start + 0.0))
        _assert_same_solution(sol, normalised)
        assert not np.any(_bits(sol.g.values) == _bits(-0.0))
        raw = _reference_solve(f, 2, 16, max_iter=1, g0=GridFunction(start))
        assert np.sum(_bits(raw[0]) == _bits(-0.0)) == 4
        assert np.array(raw[1:]).tobytes() == np.array(normalised[1:]).tobytes()

    @pytest.mark.parametrize("d, n", [(2, 4096), (3, 3**7)])
    def test_criterion_9_start_is_bitwise_the_reference(self, d, n):
        g0 = _criterion_9_start(n)
        sol = solve_calibrated(cosine(), d=d, grid_n=n, g0=g0)
        assert sol.converged
        _assert_same_solution(sol, _reference_solve(cosine(), d, n, g0=g0))

    def test_stalled_solve_is_bitwise_the_reference(self):
        # random_trig(default_rng(17))'s sixth draw: two recurrent classes
        # whose gains differ by 3.6e-7, far above tol, at N = 4096
        rng = np.random.default_rng(17)
        for _ in range(6):
            f = random_trig(rng)
        sol = solve_calibrated(f, d=2, grid_n=4096)
        assert not sol.converged and sol.iterations < 300
        _assert_same_solution(sol, _reference_solve(f, 2, 4096))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), max_iter=st.integers(1, 400))
    def test_random_trig_bitwise_the_reference(self, seed, d, max_iter):
        f = random_trig(np.random.default_rng(seed))
        n = 96 * d
        sol = solve_calibrated(f, d=d, grid_n=n, max_iter=max_iter)
        _assert_same_solution(sol, _reference_solve(f, d, n, max_iter=max_iter))


def _gcd_one_trig(rng):
    """The next random_trig draw whose frequencies have gcd 1, as the benchmark draws them."""
    while True:
        f = random_trig(rng)
        if math.gcd(*(t.inner.freq for t in f.terms)) == 1:
            return f


class TestStallStop:
    def test_resting_bracket_with_a_policy_in_motion_converges(self):
        # the scan's trig draw at seed 270, translate 10/16, from its partner's
        # reflection: the bracket rests 1.55e-4 wide from sweep 137 while g
        # drifts until a best preimage changes at sweep 4936; a bare 30-sweep
        # window stopped it at sweep 167
        rng = np.random.default_rng(270)
        random_antisym_even(rng), random_antisym_even(rng)
        f = _gcd_one_trig(rng)
        partner = solve_calibrated(Translate(6 / 16, f), d=2, grid_n=4096)
        sol = solve_calibrated(Translate(10 / 16, f), d=2, grid_n=4096, g0=criteria._reflect(partner.g))
        assert sol.converged and sol.iterations > 4000

    def test_stall_window_restarts_at_each_extrapolation(self):
        # the solve workload's 10th trig draw at seed 10, d = 2, converges at
        # sweep 431; counted over the bracket of all sweeps, the window
        # stopped it at sweep 149
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = _gcd_one_trig(rng)
        sol = solve_calibrated(f, d=2, grid_n=65536)
        assert sol.converged and sol.iterations > 400


# its slowest error mode is a complex pair of modulus cos(pi/8)
_ROTATING = Translate(10 / 64, cosine())


class TestExtrapolation:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), max_iter=st.integers(1, 13))
    def test_solve_stopped_before_sweep_14_is_the_plain_iteration(self, seed, d, max_iter):
        f = random_trig(np.random.default_rng(seed))
        n = 96 * d
        sol = solve_calibrated(f, d=d, grid_n=n, max_iter=max_iter)
        _assert_same_solution(sol, _reference_solve(f, d, n, max_iter=max_iter, extrapolate=False))

    def test_one_extrapolation_lands_near_the_fixed_point_of_an_affine_map(self):
        # x -> x* + A(x - x*), A a rotation by pi/8 of modulus cos(pi/8) on
        # one plane and two faster real modes: 5 updates see all 4 modes
        n = 256
        xs = np.arange(n) / n
        modes = np.array([np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs),
                          np.cos(4 * np.pi * xs), np.sin(4 * np.pi * xs)])
        t = np.pi / 8
        a = np.zeros((4, 4))
        a[:2, :2] = math.cos(t) * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        a[2, 2], a[3, 3] = 0.3, -0.2
        fixed = 0.1 * np.sin(6 * np.pi * xs) - 1.0
        z = np.array([1.0, 0.5, -0.7, 0.4])
        iterates = [fixed + z @ modes]
        for _ in range(5):
            z = a @ z
            iterates.append(fixed + z @ modes)
        u = np.diff(np.array(iterates), axis=0)
        g = iterates[-1].copy()
        transfer._extrapolate(g, u, np.empty(n), np.empty(n))
        start = np.max(np.abs(iterates[0] - fixed))
        assert np.max(np.abs(iterates[-1] - fixed)) > 0.4 * start
        assert np.max(np.abs(g - fixed)) < 1e-9 * start

    def test_extrapolation_cuts_the_sweeps_of_a_rotating_mode(self):
        sol = solve_calibrated(_ROTATING, d=2, grid_n=4096)
        plain = _reference_solve(_ROTATING, 2, 4096, extrapolate=False)
        assert sol.converged and plain[4]
        assert sol.iterations <= 0.5 * plain[3]
        assert sol.residual <= plain[2]

    def test_non_finite_correction_is_not_applied(self, monkeypatch):
        monkeypatch.setattr(transfer, "_mpe_weights", lambda gram: [math.inf] * len(gram))
        sol = solve_calibrated(_ROTATING, d=2, grid_n=512)
        assert sol.converged
        _assert_same_solution(sol, _reference_solve(_ROTATING, 2, 512, extrapolate=False))

    def test_overflowing_gram_matrix_is_singular(self):
        # updates near 1e299 square to +inf: no extrapolation, no warning
        f = Scale(1e300, _ROTATING)
        sol = solve_calibrated(f, d=2, grid_n=512)
        assert sol.converged
        _assert_same_solution(sol, _reference_solve(f, 2, 512, extrapolate=False))

    def test_safeguard_stops_extrapolating_once_the_step_grows(self, monkeypatch):
        # an extrapolation that kicks g far off: the step at the next
        # extrapolation point is larger, so none follows, and the averaged
        # sweeps still converge
        kicks = []

        def kick(g, u, acc, tmp):
            kicks.append(None)
            g += 100.0 * np.cos(2 * np.pi * np.arange(g.size) / g.size)
            return 100.0

        monkeypatch.setattr(transfer, "_extrapolate", kick)
        sol = solve_calibrated(_ROTATING, d=2, grid_n=512, max_iter=2000)
        assert sol.converged
        assert len(kicks) == 1


class TestSweepAllocatesNothing:
    @pytest.mark.parametrize("d, n", [(2, 4096), (3, 3**7)])
    def test_peak_memory_does_not_grow_with_sweeps(self, d, n):
        # tol far below reach: a solve runs all max_iter sweeps for d = 2 and
        # stalls at float resolution after 94 for d = 3
        def peak(max_iter):
            tracemalloc.start()
            try:
                sol = solve_calibrated(cosine(), d=d, grid_n=n, tol=1e-300, max_iter=max_iter)
                return sol.iterations, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm caches, so both measured calls allocate alike
        (one, low), (many, high) = peak(1), peak(200)
        assert one == 1 and many > 90
        assert high <= low + 4096

    @pytest.mark.parametrize("d, n", [(2, 4096), (3, 3**7)])
    def test_sweeps_allocate_no_array(self, d, n, monkeypatch):
        # traced from the start of sweep 2 to the start of sweep 50: beyond
        # the memory held then, only views and Python floats come and go
        fill = transfer._refine_into
        calls, held = [], []

        def traced_fill(*args):
            calls.append(None)
            if len(calls) == 2:
                tracemalloc.reset_peak()
                held.append(tracemalloc.get_traced_memory()[0])
            elif len(calls) == 50:
                held.append(tracemalloc.get_traced_memory()[1])
            return fill(*args)

        monkeypatch.setattr(transfer, "_refine_into", traced_fill)
        tracemalloc.start()
        try:
            sol = solve_calibrated(cosine(), d=d, grid_n=n, tol=1e-300, max_iter=60)
        finally:
            tracemalloc.stop()
        assert sol.iterations == len(calls) == 60
        start, peak = held
        assert peak - start < 8192  # one array of n floats is 8n bytes


class TestDefectInequalityForSolutions:
    def test_solved_pair_defect_chain(self):
        # uniform defect of g at delta bounded by defects at delta/d
        f = cosine()
        sol = solve_calibrated(f, d=2, grid_n=4096)
        fg = sample(f, 4096)
        tol = 10 * (fg.lipschitz_estimate() + sol.g.lipschitz_estimate()) / 4096
        for delta in (0.125, 0.25, 0.5):
            lhs = float(uniform_defect(sol.g, delta))
            rhs = float(uniform_defect(fg, delta / 2)) + float(uniform_defect(sol.g, delta / 2))
            assert lhs <= rhs + tol
