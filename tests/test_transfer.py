import math
from fractions import Fraction

import numpy as np
import pytest

from circleopt import (
    GridFunction,
    Translate,
    beta_lower_bound,
    calibration_residual,
    convexity_defect,
    max_transfer,
    sample,
    solve_calibrated,
    uniform_defect,
)
from circleopt.catalog import constant, cosine, random_trig

FOUR_PI_SQ = 4.0 * math.pi**2


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
    def test_points_and_to_dict_match_eager_fractions(self, d, max_period):
        tab = beta_lower_bound(Translate(0.3, cosine()), d, max_period)
        eager = _eager_orbits(d, max_period)
        assert [(o.period, o.representative, _points(o, d)) for o in tab.orbits] == eager
        averages = [o.average for o in tab.orbits]
        ranked = sorted(zip(eager, averages), key=lambda e: -e[1])[:10]

        def row(orbit, average):
            return {"period": orbit[0], "representative": str(orbit[1]), "average": average}

        assert tab.to_dict() == {
            "d": d,
            "max_period": max_period,
            "orbit_count": len(eager),
            "best": row(eager[tab.best_index], averages[tab.best_index]),
            "top": [row(*e) for e in ranked],
        }


class TestSolveCalibrated:
    def test_constant_solves_in_one_step(self):
        sol = solve_calibrated(constant(1.3), d=2, grid_n=64)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.beta == pytest.approx(1.3)
        assert sol.residual == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(sol.g.values, 0.0)

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
        sol = solve_calibrated(f, d=2)
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
        assert sol.final_step > sol.tol

    def test_relaxed_iteration_converges_where_plain_cycles(self):
        sol = solve_calibrated(Translate(1 / 3, cosine()), d=2, grid_n=512)
        assert sol.converged

    def test_grid_input_accepted(self):
        sol = solve_calibrated(sample(cosine(), 1024), d=2)
        assert sol.converged
        assert abs(sol.beta - 1.0) < 1e-5

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
