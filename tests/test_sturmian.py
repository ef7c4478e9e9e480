import math
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleopt import (
    Cosine,
    GridFunction,
    Scale,
    Sum,
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
from circleopt import sturmian
from circleopt.catalog import constant, cosine, quadratic_extremal, random_trig, tent
from circleopt.sturmian import SturmianCertificate, _circular_runs, rotation_numbers


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

    def test_rejects_p_equal_to_q(self):
        with pytest.raises(ValueError, match=r"^rotation number must satisfy 0 <= p < q, got 1/1$"):
            sturmian_measure(1, 1)

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


def _fraction_measure(p, q):
    """The exact-Fraction construction the integer measure replaced."""
    m = 2**q - 1
    num = 0
    for s in sturmian_word(p, q):
        num = (num << 1) | s
    orbit = [Fraction(num, m)]
    for _ in range(q - 1):
        x = orbit[-1] * 2
        orbit.append(x - int(x))
    pts = sorted(orbit)
    if len(pts) == 1:
        start = pts[0]
    else:
        gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
        gaps.append(1 + pts[0] - pts[-1])
        gi = max(range(len(gaps)), key=lambda i: gaps[i])
        start = pts[(gi + 1) % len(pts)]
    return tuple(orbit), (start, start + Fraction(1, 2))


class TestIntegerRepresentation:
    def test_equals_fraction_construction(self):
        f = cosine()
        pairs = rotation_numbers(50) + [(p, 61) for p in range(1, 61)]
        for p, q in pairs:
            mu = sturmian_measure(p, q)
            orbit, semicircle = _fraction_measure(p, q)
            assert mu.orbit == orbit
            assert mu.semicircle == semicircle
            assert mu.to_dict() == {
                "p": p, "q": q, "orbit": [str(x) for x in orbit],
                "semicircle": [str(x) for x in semicircle],
            }
            assert mu.integrate(f) == float(np.mean(f(np.array([float(x) for x in orbit]))))
        assert len(pairs) == 834

    def test_stores_integers_only(self):
        mu = sturmian_measure(2, 5)
        assert mu.modulus == 31
        assert all(type(n) is int for n in mu.numerators + (mu.start,))
        assert [n * 2 % 31 for n in mu.numerators[:-1]] == list(mu.numerators[1:])


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


def _loop_best_sturmian(f, max_q):
    """best_sturmian as a Python loop over every integral: each is refused
    on its own if not finite, then the near-tie rule is applied to it."""
    rotations, points, blocks = sturmian._orbit_table(max_q)
    vals = np.asarray(f(points), dtype=float)
    integrals, start = [], 0
    for q, count in blocks:
        stop = start + q * count
        integrals.extend(vals[start:stop].reshape(count, q).mean(axis=1).tolist())
        start = stop
    best, best_val = 0, integrals[0]
    for i, val in enumerate(integrals):
        if not math.isfinite(val):
            p, q = rotations[i]
            raise ValueError(f"Sturmian integral over {p}/{q} = {val} is not finite")
        if val > best_val + 1e-12 * (1.0 + abs(best_val)):
            best, best_val = i, val
    return rotations[best], best_val


def _outcome(search, f, max_q):
    """(rotation, bits of the value) of a search, or its refusal's message."""
    try:
        rotation, val = search(f, max_q)
    except ValueError as exc:
        return str(exc)
    return rotation, np.float64(val).tobytes()


def _best(f, max_q):
    mu, val = best_sturmian(f, max_q)
    return (mu.p, mu.q), val


_STURMIAN_LEAVES = [cosine(), Cosine(3, 0.4), constant(0.4), quadratic_extremal(), tent()]


@st.composite
def _sturmian_specs(draw, depth=2):
    """Spec trees over catalog leaves and random draws, and near-ties: a
    level c plus eps * cos(2 pi k x + phase) with |eps| far below the rule's
    1e-12 * (1 + |c|), so many integrals lie within the tie tolerance."""
    kind = draw(st.integers(0, 5 if depth else 2))
    if kind == 0:
        return draw(st.sampled_from(_STURMIAN_LEAVES))
    if kind == 1:
        return random_trig(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if kind == 2:
        c = draw(st.floats(-1e3, 1e3))
        eps = draw(st.floats(-3e-12, 3e-12)) * (1.0 + abs(c))
        return Sum((constant(c), Scale(eps, Cosine(draw(st.integers(1, 4)), draw(st.floats(0.0, 6.3))))))
    inner = draw(_sturmian_specs(depth - 1))
    if kind == 3:
        return Scale(draw(st.sampled_from([-1.0, 0.5, 3.0])), inner)
    if kind == 4:
        return Translate(draw(st.floats(0.0, 1.0)), inner)
    return Sum((inner, draw(_sturmian_specs(depth - 1))))


# 1 - 1e-13 cos(2 pi x): 1/2 has the largest integral, 1 + 5e-14, yet lies
# within the tie tolerance of 0/1's 1 - 1e-13, so the rule keeps 0/1
_NEAR_TIE = Sum((constant(1.0), Scale(-1e-13, cosine())))


class TestBestSturmianRecords:
    @settings(max_examples=150, deadline=None)
    @given(_sturmian_specs(), st.sampled_from([1, 2, 5, 16, 32]))
    @example(_NEAR_TIE, 32)
    @example(constant(0.4), 32)
    @example(Sum((constant(0.0), Scale(1e308, Cosine(1, 0.0)), Scale(1e308, Cosine(1, 0.1)))), 8)
    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
    def test_equals_the_loop_over_every_integral(self, f, max_q):
        assert _outcome(_best, f, max_q) == _outcome(_loop_best_sturmian, f, max_q)

    def test_near_tie_keeps_the_fixed_point_over_the_largest_integral(self):
        rotations = rotation_numbers(32)
        mu, val = best_sturmian(_NEAR_TIE, 32)
        assert (mu.p, mu.q) == (0, 1)
        assert val == _NEAR_TIE(0.0)
        integrals = [sturmian_measure(p, q).integrate(_NEAR_TIE) for p, q in rotations]
        assert rotations[int(np.argmax(integrals))] == (1, 2)


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


def _loop_rotation_numbers(max_q):
    """Reference: 0/1, then the reduced p/q for q = 2..max_q, p = 1..q-1."""
    out = [(0, 1)]
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return out


class TestRotationNumbers:
    @pytest.mark.parametrize("max_q", [1, 2, 5, 32, 60])
    def test_matches_nested_loop(self, max_q):
        assert rotation_numbers(max_q) == _loop_rotation_numbers(max_q)

    @pytest.mark.parametrize("max_q", [1, 2, 5, 32])
    def test_table_rotations_and_blocks(self, max_q):
        from circleopt.sturmian import _orbit_table

        rotations, points, blocks = _orbit_table(max_q)
        assert list(rotations) == rotation_numbers(max_q)
        assert blocks == tuple(
            (q, len(list(group))) for q, group in groupby(q for _, q in rotations)
        )
        assert points.size == sum(q * count for q, count in blocks)


class TestOrbitTableBudget:
    def test_largest_table_inside_the_budget(self, monkeypatch):
        # sum of q * phi(q): 7043 points for q <= 32, 4185413 <= 2^22 for
        # q <= 274, so 274 reaches the point construction and 275 does not
        from circleopt.sturmian import _TABLE_BUDGET, _orbit_table

        assert sum(q for _, q in rotation_numbers(32)) == 7043
        assert sum(q for _, q in rotation_numbers(274)) == 4185413 <= _TABLE_BUDGET
        assert sum(q for _, q in rotation_numbers(275)) > _TABLE_BUDGET

        class Built(Exception):
            pass

        def refuse(p, q):
            raise Built

        monkeypatch.setattr(sturmian, "_orbit_numerators", refuse)
        _orbit_table.cache_clear()
        with pytest.raises(Built):
            _orbit_table(274)
        with pytest.raises(ValueError, match=r"max_q = 275 exceeds .* \(passed at q = 275\)"):
            _orbit_table(275)
        assert _orbit_table.cache_info().currsize == 0

    @pytest.mark.parametrize("max_q", [275, 1000, 10**9])
    def test_over_budget_is_refused_before_building(self, max_q):
        from circleopt.sturmian import _orbit_table

        _orbit_table.cache_clear()
        with pytest.raises(ValueError, match="exceeds the Sturmian orbit-table budget"):
            best_sturmian(cosine(), max_q)
        assert _orbit_table.cache_info().currsize == 0


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


def _loop_circular_runs(mask):
    """The Python loop over the rotated mask, the reference for the array form."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    off = int(np.argmin(mask))
    rolled = np.roll(mask, -off)
    runs = []
    in_run = False
    start = 0
    for i, m in enumerate(rolled):
        if m and not in_run:
            in_run = True
            start = i
        elif not m and in_run:
            in_run = False
            runs.append(((start + off) % n, i - start))
    if in_run:
        runs.append(((start + off) % n, rolled.size - start))
    return runs


class TestCircularRuns:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=200))
    @example([True] * 7)
    @example([False] * 7)
    @example([True, False] * 5)  # one-node runs
    @example([True, True, False, False, True])  # a run across the wrap
    @example([True] + [False] * 10 + [True, True])
    @example([False, True])
    @example([True])
    @example([False])
    def test_equals_the_loop(self, bits):
        mask = np.array(bits, dtype=bool)
        runs = _circular_runs(mask)
        assert runs == _loop_circular_runs(mask)
        assert all(type(v) is int for run in runs for v in run)

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
    def test_random_masks_at_certificate_size(self, density):
        rng = np.random.default_rng(int(density * 100))
        mask = rng.random(4096) < density
        assert _circular_runs(mask) == _loop_circular_runs(mask)


def _certify(s):
    """Certificate of R = s - roll(s, -N/2): (f, g) = (s, 0) gives that R,
    and a band of 5 Lip(s) / N, since adding 0.0 is exact."""
    return sturmian_certificate(GridFunction(s), GridFunction(np.zeros(s.size)))


class TestCertificate:
    def test_pure_cosine_passes(self):
        cert = _certify(np.cos(2 * np.pi * np.arange(512) / 512))
        assert cert.passed
        a, b = cert.antipodal_pair
        assert min(abs(a - 0.25), abs(a - 0.75)) < 1e-2

    def test_zero_function_fails(self):
        cert = _certify(np.zeros(64))
        assert cert.status == "fail"
        assert not cert.passed

    def test_multiple_pairs_fail(self):
        # cos(6 pi x) is antisymmetric with six zeros: three antipodal pairs
        cert = _certify(np.cos(6 * np.pi * np.arange(512) / 512))
        assert cert.status == "fail"
        assert len(cert.zero_arcs) == 6

    def test_wraparound_arc_counted_once(self):
        # zeros at 0 and 1/2: the band straddles the x=0 seam
        cert = _certify(-np.sin(2 * np.pi * np.arange(512) / 512))
        assert cert.passed
        assert len(cert.zero_arcs) == 2

    @pytest.mark.parametrize("n, nodes", [(256, 35), (512, 55)])
    def test_wide_band_inconclusive(self, n, nodes):
        # cos^3 has flat zeros: the band holds two antipodal arcs of `nodes`
        # nodes each, wider than w_max = 16/N
        cert = _certify(np.cos(2 * np.pi * np.arange(n) / n) ** 3)
        assert cert.status == "inconclusive"
        assert [c for _, _, c in cert.zero_arcs] == [nodes, nodes]
        assert cert.worst_margin < 0.0

    def test_non_finite_band_rejected(self):
        s = np.where(np.arange(64) % 2 == 0, 1e308, -1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="band epsilon_r = inf"):
            _certify(s)

    def test_tolerances_embedded(self):
        cert = _certify(np.cos(2 * np.pi * np.arange(256) / 256))
        doc = cert.to_dict()
        assert doc["epsilon_r"] > 0
        assert doc["w_max"] == pytest.approx(16 / 256)

    @pytest.mark.parametrize(
        "pair, worst_margin, status",
        [
            (None, 1 / 64, "fail"),  # no antipodal pair, however narrow the arcs
            (None, -1 / 64, "fail"),
            ((0.25, 0.75), 0.0, "pass"),  # an arc exactly w_max wide
            ((0.25, 0.75), -1 / 64, "inconclusive"),
        ],
    )
    def test_status_follows_the_arcs(self, pair, worst_margin, status):
        cert = SturmianCertificate(zero_arcs=(), antipodal_pair=pair, positivity_arc=None,
                                   worst_margin=worst_margin, epsilon_r=0.1, w_max=0.25, grid_n=64)
        assert (cert.status, cert.passed) == (status, status == "pass")
        assert (cert.to_dict()["status"], cert.to_dict()["pass"]) == (status, cert.passed)

    def test_status_is_not_a_field(self):
        with pytest.raises(TypeError):
            SturmianCertificate(status="pass", zero_arcs=(), antipodal_pair=None, positivity_arc=None,
                                worst_margin=-1.0, epsilon_r=0.1, w_max=0.25, grid_n=64)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.integers(0, 3), st.floats(0.0, 4.0))
@example(2, 0, 0, 0.0)
@example(8, 1, 1, 100.0)  # every node in the band: one run over the whole circle
def test_band_runs_are_each_others_antipode(half, seed, decimals, eps):
    # R(x + 1/2) = -R(x) exactly, so the band |R| <= eps repeats every N/2
    # nodes; rounded samples give exact zeros and ties at the band's edge
    n = 2 * half
    s = np.round(np.random.default_rng(seed).normal(size=n), decimals)
    r = antipodal_difference(GridFunction(s), GridFunction(np.zeros(n)))
    runs = _circular_runs(np.abs(r.values) <= eps)
    assert runs == [(0, n)] or set(runs) == {((start + half) % n, length) for start, length in runs}


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

    def test_unchanged_under_numpy_remainder(self, monkeypatch):
        g = solve_calibrated(cosine(), d=2, grid_n=1024).g
        args = [(x, n) for x in (0.0, 0.3, -0.2, 0.75) for n in (2, 5, 9)]
        fast = [preimage_branch_bound(cosine(), g, x, n) for x, n in args]
        monkeypatch.setattr(sturmian, "_mod1", lambda x: x % 1.0)
        ref = [preimage_branch_bound(cosine(), g, x, n) for x, n in args]
        assert np.array(fast).tobytes() == np.array(ref).tobytes()

    def test_branch_cap(self):
        with pytest.raises(ValueError):
            preimage_branch_bound(cosine(), GridFunction(np.zeros(64)), 0.1, 21)
