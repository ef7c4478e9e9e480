import math
from fractions import Fraction

import numpy as np
import pytest

from circleopt import (
    GridFunction,
    Translate,
    antipodal_difference,
    best_sturmian,
    preimage_branch_bound,
    sample,
    solve_calibrated,
    sturmian_certificate,
    sturmian_measure,
    sturmian_word,
    uniform_defect,
)
from circleopt.catalog import constant, cosine


class TestSturmianMeasure:
    def test_fixed_point(self):
        mu = sturmian_measure(0, 1)
        assert mu.orbit == (Fraction(0),)

    def test_period_two(self):
        # word "01" -> repeating binary 01 = 1/3; doubling swaps 1/3 and 2/3
        mu = sturmian_measure(1, 2)
        assert sorted(mu.orbit) == [Fraction(1, 3), Fraction(2, 3)]

    def test_period_three(self):
        mu = sturmian_measure(1, 3)
        assert sorted(mu.orbit) == [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]

    def test_word_examples(self):
        assert sturmian_word(1, 2) == (0, 1)
        assert sturmian_word(1, 3) == (0, 0, 1)
        assert sturmian_word(2, 3) == (0, 1, 1)

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            sturmian_measure(2, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sturmian_measure(3, 2)

    def test_orbit_closure_exact(self):
        for p, q in [(1, 5), (2, 5), (3, 7), (5, 12), (8, 21)]:
            mu = sturmian_measure(p, q)
            doubled = sorted((x * 2) - int(x * 2) for x in mu.orbit)
            assert doubled == sorted(mu.orbit)

    def test_semicircle_support(self):
        for q in range(1, 13):
            for p in range(q):
                if math.gcd(p, q) == 1:
                    mu = sturmian_measure(p, q)
                    lo, hi = mu.semicircle
                    assert hi - lo == Fraction(1, 2)
                    assert all(lo <= x <= hi or lo <= x + 1 <= hi for x in mu.orbit)


class TestIntegrate:
    def test_dirac_at_zero(self):
        assert sturmian_measure(0, 1).integrate(cosine()) == pytest.approx(1.0)

    def test_period_two_translated(self):
        val = sturmian_measure(1, 2).integrate(Translate(0.5, cosine()))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        assert sturmian_measure(1, 2).integrate(constant(0.3)) == pytest.approx(0.3)


class TestBestSturmian:
    def test_cosine_dirac(self):
        mu, val = best_sturmian(cosine(), 10)
        assert (mu.p, mu.q) == (0, 1)
        assert val == pytest.approx(1.0)

    def test_translated_cosine(self):
        mu, val = best_sturmian(Translate(0.5, cosine()), 10)
        assert (mu.p, mu.q) == (1, 2)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_constant_ties_break_to_smallest_denominator(self):
        mu, val = best_sturmian(constant(0.4), 3)
        assert (mu.p, mu.q) == (0, 1)
        assert val == pytest.approx(0.4)

    def test_min_max_duality_for_antisymmetric_specs(self):
        # for f with f(x) + f(x+1/2) = 2v, minimizing f is maximizing the
        # half-translate up to the level: max over the family of the
        # negated integrals equals the half-translate maximum minus 2v
        from circleopt import Negate
        from circleopt.catalog import quadratic_extremal
        from circleopt.sturmian import rotation_numbers

        for f, v in ((cosine(), 0.0), (quadratic_extremal(), -1 / 16)):
            _, neg_best = best_sturmian(Negate(f), 16)
            family_min = min(
                sturmian_measure(p, q).integrate(f) for p, q in rotation_numbers(16)
            )
            assert neg_best == pytest.approx(-family_min, abs=1e-12)
            _, shifted_best = best_sturmian(Translate(0.5, f), 16)
            assert neg_best == pytest.approx(shifted_best - 2 * v, abs=1e-12)


def _per_orbit_best(measures, f):
    """best_sturmian as one integrate() per exact orbit, same tie-break."""
    best, best_val = None, 0.0
    for mu in measures:
        val = mu.integrate(f)
        if best is None or val > best_val + 1e-12 * (1.0 + abs(best_val)):
            best, best_val = (mu.p, mu.q), val
    return best, best_val


class TestOrbitTable:
    @pytest.mark.parametrize("max_q", [1, 2, 8, 32, 60])
    def test_matches_per_orbit_loop(self, max_q):
        from circleopt.catalog import quadratic_extremal, random_trig
        from circleopt.sturmian import _orbit_table, rotation_numbers

        measures = [sturmian_measure(p, q) for p, q in rotation_numbers(max_q)]
        observables = [
            cosine(),
            Translate(0.3, cosine()),
            quadratic_extremal(),
            random_trig(np.random.default_rng(7)),
            constant(0.4),
        ]
        _orbit_table.cache_clear()
        for f in observables:
            mu, val = best_sturmian(f, max_q)
            assert ((mu.p, mu.q), val) == _per_orbit_best(measures, f)
            assert best_sturmian(f, max_q) == (mu, val)  # warm cache, same answer

    def test_points_are_correctly_rounded_beyond_double_precision(self):
        # q = 60 > 53: n / m must round once, like float(Fraction(n, m))
        from circleopt.sturmian import _orbit_table, rotation_numbers

        _, points, _ = _orbit_table(60)
        exact = [float(x) for p, q in rotation_numbers(60) for x in sturmian_measure(p, q).orbit]
        assert points.tolist() == exact


class TestAntipodalDifference:
    def test_constants_vanish(self):
        f = sample(constant(2.0), 64)
        g = sample(constant(-1.0), 64)
        np.testing.assert_array_equal(antipodal_difference(f, g).values, 0.0)

    def test_cosine_zero_subaction(self):
        f = sample(cosine(), 256)
        g = GridFunction(np.zeros(256))
        r = antipodal_difference(f, g)
        xs = np.arange(256) / 256
        np.testing.assert_allclose(r.values, 2 * np.cos(2 * np.pi * xs), atol=1e-12)

    def test_antisymmetry_exact_in_floating_point(self):
        rng = np.random.default_rng(1)
        f = GridFunction(rng.normal(size=128))
        g = GridFunction(rng.normal(size=128))
        r = antipodal_difference(f, g)
        assert np.max(np.abs(r.values + np.roll(r.values, -64))) == 0.0

    def test_rejects_odd_grid(self):
        f = GridFunction(np.zeros(63))
        with pytest.raises(ValueError):
            antipodal_difference(f, f)


class TestCertificate:
    def _from_values(self, values):
        return GridFunction(np.asarray(values))

    def test_pure_cosine_passes(self):
        xs = np.arange(512) / 512
        r = GridFunction(2 * np.cos(2 * np.pi * xs) - 2 * np.cos(2 * np.pi * (xs + 0.5)))
        cert = sturmian_certificate(GridFunction(r.values / 2))
        assert cert.passed
        a, b = cert.antipodal_pair
        assert min(abs(a - 0.25), abs(a - 0.75)) < 1e-2

    def test_zero_function_fails(self):
        cert = sturmian_certificate(GridFunction(np.zeros(64)))
        assert cert.status == "fail"
        assert not cert.passed

    def test_multiple_pairs_fail(self):
        # cos(6 pi x) is antisymmetric with six zeros: three antipodal pairs
        xs = np.arange(512) / 512
        s = np.cos(6 * np.pi * xs)
        r = GridFunction(s - np.roll(s, -256))
        cert = sturmian_certificate(r)
        assert cert.status == "fail"
        assert len(cert.zero_arcs) == 6

    def test_half_periodic_input_rejected(self):
        # sin(4 pi x) has period 1/2, so it cannot be an antipodal
        # difference; the precondition catches it
        s = np.sin(4 * np.pi * np.arange(512) / 512)
        with pytest.raises(ValueError, match="antisymmetric"):
            sturmian_certificate(GridFunction(s))

    def test_wraparound_arc_counted_once(self):
        # zeros at 0 and 1/2: the band straddles the x=0 seam
        xs = np.arange(512) / 512
        s = -np.sin(2 * np.pi * xs)
        r = GridFunction(s - np.roll(s, -256))
        cert = sturmian_certificate(r)
        assert cert.passed
        assert len(cert.zero_arcs) == 2

    def test_wide_band_inconclusive(self):
        xs = np.arange(512) / 512
        s = np.cos(2 * np.pi * xs)
        r = GridFunction(s - np.roll(s, -256))
        cert = sturmian_certificate(r, epsilon_r=0.5)
        assert cert.status == "inconclusive"

    def test_requires_antisymmetry(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            sturmian_certificate(GridFunction(np.cos(2 * np.pi * np.arange(64) / 64) + 1.0))

    def test_tolerances_embedded(self):
        xs = np.arange(256) / 256
        s = np.cos(2 * np.pi * xs)
        cert = sturmian_certificate(GridFunction(s - np.roll(s, -128)))
        doc = cert.to_dict()
        assert doc["epsilon_r"] > 0
        assert doc["w_max"] == pytest.approx(16 / 256)


class TestPreimageBranchBound:
    def test_constant_f_reduces_to_tail(self):
        rng = np.random.default_rng(2)
        g = GridFunction(np.cos(2 * np.pi * np.arange(256) / 256) * 0.3)
        bound = preimage_branch_bound(constant(1.0), g, 0.2, 3)
        assert bound == pytest.approx(float(uniform_defect(g, 2**-3)), abs=1e-12)

    def test_n2_bound_for_cosine(self):
        sol = solve_calibrated(cosine(), d=2, grid_n=1024)
        b = preimage_branch_bound(cosine(), sol.g, 0.3, 2)
        assert b <= 2.0 + float(uniform_defect(sol.g, 0.25)) + 1e-9

    def test_inequality_on_solved_pair(self):
        f = cosine()
        sol = solve_calibrated(f, d=2, grid_n=4096)
        g = sol.g
        fg = sample(f, 4096)
        tol = 10 * (fg.lipschitz_estimate() + g.lipschitz_estimate()) / 4096
        for x in np.arange(64) / 64:
            for n in (2, 3):
                lhs = -2 * (g(float(x)) - g(float(x) + 0.5))
                assert lhs <= preimage_branch_bound(f, g, float(x), n) + tol

    def test_branch_cap(self):
        with pytest.raises(ValueError):
            preimage_branch_bound(cosine(), GridFunction(np.zeros(64)), 0.1, 21)
