import json
import math

import numpy as np
import pytest

from circleopt import (
    KAPPA,
    AntisymmetricExtension,
    Cosine,
    CriterionReport,
    Negate,
    Scale,
    Sum,
    Translate,
    antipodal_difference,
    check_class_a,
    check_class_b,
    check_kappa,
    check_theorem_sturm,
    convexity_defect,
    scan_translates,
    search_c,
    solve_calibrated,
)
from circleopt.catalog import (
    constant,
    cosine,
    cosine_extremal_blend,
    flattened_cosine,
    quadratic_extremal,
    random_antisym_even,
    random_trig,
    tent,
)
from circleopt import convexity, criteria, torus
from circleopt.sturmian import _circular_runs, sturmian_certificate
from circleopt.torus import GridFunction, PiecewisePoly

FOUR_PI_SQ = 4.0 * math.pi**2


def _paired_solve(f, k, omega_count, n):
    """Row k's solve in the scan's pair order: cold, or, for k > K/2, from
    g(-x) of its partner K - k's cold solve when that converged."""
    partner = omega_count - k
    f_om = Translate(k / omega_count, f)
    if not 0 < partner < k:
        return solve_calibrated(f_om, d=2, grid_n=n)
    first = solve_calibrated(Translate(partner / omega_count, f), d=2, grid_n=n)
    g0 = GridFunction(first.g.values[(n - np.arange(n)) % n]) if first.converged else None
    return solve_calibrated(f_om, d=2, grid_n=n, g0=g0)


def _bumped_extremal():
    """quadratic_extremal with f'' = +2 on [c, c + 4e-5] and on its mirror
    [-c - 4e-5, -c], c = 0.1 + 0.3/8192: both arcs lie between 2N-grid
    nodes at N = 4096, and f stays C^1, even and antisymmetric, but is
    convex on them, inside (-1/4, 1/4)."""
    c, e = 0.1 + 0.3 / 8192, 4e-5
    # the half-profile h on [0, 1/4]: h(0) = h'(0) = 0, h'' = -2 but +2 on
    # the bump; on [1/4, 1/2) evenness sets h(x) = 2v - h(1/2 - x)
    lo = [(0.0, 0.0, -1.0), (2 * c * c, -4 * c, 1.0), (-2 * e * e - 4 * e * c, 4 * e, -1.0)]
    v = float(np.polynomial.polynomial.polyval(0.25, lo[2]))

    def mirror(a):
        return (2 * v - a[0] - a[1] / 2 - a[2] / 4, a[1] + a[2], -a[2])

    half = PiecewisePoly(
        (0.0, c, c + e, 0.25, 0.5 - c - e, 0.5 - c),
        tuple(lo) + tuple(mirror(a) for a in reversed(lo)),
        wrap=False,
    )
    return AntisymmetricExtension(half, v)


class TestCriterionReport:
    @pytest.mark.parametrize(
        "raw, bounds, status",
        [
            ({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 1.0}, "pass"),
            ({"a": 1.0, "b": 2.0}, {"a": 0.5}, "pass"),  # b has no bound: nets to itself
            ({"a": 1e-300}, {}, "pass"),
            ({"a": 1.0, "b": 2.0}, {"a": 1.0}, "inconclusive"),  # a nets to exactly 0
            ({"a": 1.0, "b": 2.0}, {"b": 3.0}, "inconclusive"),
            ({"a": 1.0, "b": 0.0}, {}, "fail"),  # a raw margin of exactly 0
            ({"a": 1.0, "b": -0.0}, {"a": 0.5}, "fail"),
            ({"a": -1.0, "b": 2.0}, {"b": 5.0}, "fail"),
        ],
    )
    def test_status_follows_the_margins(self, raw, bounds, status):
        rep = CriterionReport("test", raw, bounds)
        assert rep.status == status
        assert rep.margins == {k: v - bounds.get(k, 0.0) for k, v in raw.items()}
        assert rep.passed == (status == "pass") == all(m > 0.0 for m in rep.margins.values())
        doc = rep.to_dict()
        assert set(doc) == {"criterion", "status", "pass", "margins", "raw_margins",
                            "error_bounds", "witnesses", "tolerances", "notes"}
        assert (doc["status"], doc["pass"], doc["margins"]) == (status, rep.passed, rep.margins)

    @pytest.mark.parametrize("given", [{"status": "pass"}, {"margins": {"a": 1.0}}],
                             ids=["status", "margins"])
    def test_status_and_margins_are_not_fields(self, given):
        with pytest.raises(TypeError):
            CriterionReport("test", {"a": -1.0}, **given)


# -(x - 1/2)^2: continuous, with one convex kink at x = 0 where f' jumps
# from -1 to 1.  The finite-difference route reads eta ~ 2 there, a lower
# bound that the window margins must not be built on.
KINKED = PiecewisePoly((0.0,), ((-0.25, 1.0, -1.0),))


@pytest.mark.parametrize("check", [check_theorem_sturm, check_class_a], ids=["sturm", "classA"])
def test_window_checkers_take_eta_from_the_second_derivative_only(check):
    with pytest.raises(ValueError, match=r"discontinuous piecewise polynomial \(jump at x=0\)"):
        check(KINKED, 0.3, 0.45)


# 1e305 (cos 2000 pi x - cos(2000 pi x + 0.1)): every sample is finite
# (|f| <= 1e304), but f' and f'' overflow to inf and NaN.  Once the
# second-derivative route read that f'' as eta = 0.0.
OVERFLOWING = Sum((Scale(1e305, Cosine(1000, 0.0)), Scale(-1e305, Cosine(1000, 0.1))))
# numpy warns as f' and f'' overflow; the tests here are about what follows
OVERFLOW_WARNINGS = "ignore:(overflow|invalid value) encountered:RuntimeWarning"


@pytest.mark.filterwarnings(OVERFLOW_WARNINGS)
@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize(
    "check",
    [check_class_b, check_kappa, lambda f, n: check_theorem_sturm(f, -0.1, 0.1, n),
     lambda f, n: check_class_a(f, -0.125, 0.125, 0.0, n)],
    ids=["classB", "kappa", "sturm", "classA"],
)
def test_overflowing_second_derivative_is_refused(check, n):
    assert np.all(np.abs(OVERFLOWING(np.arange(2 * n) / (2 * n))) <= 1e304)
    with pytest.raises(ValueError, match=r"^f'' is not finite"):
        check(OVERFLOWING, n)


@pytest.mark.filterwarnings(OVERFLOW_WARNINGS)
def test_overflowing_half_profile_is_refused():
    h = Sum((constant(OVERFLOWING(0.0)), Negate(OVERFLOWING)))
    with pytest.raises(ValueError, match=r"^h'' is not finite"):
        search_c(h, 10_000)


class TestTheoremSturm:
    def test_cosine_passes_on_tenth_window(self):
        rep = check_theorem_sturm(cosine(), -0.1, 0.1)
        assert rep.passed
        assert all(m > 0 for m in rep.margins.values())

    def test_constant_fails(self):
        rep = check_theorem_sturm(constant(1.0), -0.1, 0.1)
        assert rep.status == "fail"

    def test_negated_cosine_fails(self):
        rep = check_theorem_sturm(Scale(-1.0, cosine()), -0.1, 0.1)
        assert rep.status == "fail"
        assert rep.raw_margins["R_positive"] < 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            check_theorem_sturm(cosine(), 0.2, 0.1)

    def test_rejects_infinite_defect(self):
        # tent's f' jumps: eta has no second-derivative route to stand on
        with pytest.raises(ValueError, match="discontinuous"):
            check_theorem_sturm(tent(), -0.1, 0.1)

    def test_thin_positivity_margin_is_inconclusive(self):
        # raw R_positive 0.0706 against a bound of 0.0834, of which eta's
        # share is 0.0403: only the Lipschitz term between nodes keeps this
        # from a pass
        rep = check_theorem_sturm(cosine(), -0.125, 0.168, 64)
        raw, bound = rep.raw_margins["R_positive"], rep.error_bounds["R_positive"]
        assert 0.0 < raw < bound
        assert raw > rep.tolerances["eta_error"] / 96.0
        assert rep.margins["R_prime_negative"] > 0.0
        assert rep.status == "inconclusive"

    def test_rejects_jump_without_grid_fallback(self):
        # a 1e-6 step at x = 1/2: the slope condition has no symbolic
        # derivative to stand on, so the checker refuses rather than estimate
        f = Sum((cosine(), PiecewisePoly((0.0, 0.5), ((0.0,), (1e-6,)))))
        with pytest.raises(ValueError, match="discontinuous"):
            check_theorem_sturm(f, -0.1, 0.1, 512)


class TestClassA:
    def test_cosine_eighth_window(self):
        rep = check_class_a(cosine(), -0.125, 0.125, 0.0)
        assert rep.passed

    def test_wrong_level_fails_identity(self):
        rep = check_class_a(cosine(), -0.125, 0.125, 1.0)
        assert rep.status == "fail"
        assert rep.raw_margins["A0_identity"] < 0

    def test_double_frequency_fails_identity(self):
        rep = check_class_a(Cosine(2, 0.0), -0.125, 0.125, 0.0)
        assert rep.status == "fail"
        assert rep.raw_margins["A0_identity"] < 0

    def test_window_validation(self):
        with pytest.raises(ValueError, match="a < b < a"):
            check_class_a(cosine(), 0.0, 0.6)

    def test_rejects_jump_without_grid_fallback(self):
        f = Sum((cosine(), PiecewisePoly((0.0, 0.5), ((0.0,), (1e-6,)))))
        with pytest.raises(ValueError, match="discontinuous"):
            check_class_a(f, -0.125, 0.125, 0.0, 512)

    def test_thin_slope_margin_nets_to_at_most_zero(self):
        # raw A2_slope 0.0099 against a bound of 0.0514
        rep = check_class_a(cosine(), -0.125, 0.088, cosine()(0.25), 512)
        assert 0.0 < rep.raw_margins["A2_slope"] < rep.error_bounds["A2_slope"]
        assert rep.margins["A2_slope"] <= 0.0
        assert rep.status == "inconclusive"

    def test_window_gap_reads_max_f_from_above(self):
        # the grid misses the true max 1.0 of this translate (it reads
        # 0.9999974), so the gap must not exceed its value at the witness
        # computed with the true max
        n = 256
        omega = 0.37 / (4 * n)
        g = Translate(omega, cosine())
        rep = check_class_a(g, -0.125 + omega, 0.125, g(0.25 + omega), n)
        assert rep.tolerances["max_f"] < 1.0
        x, v, eta = rep.witnesses["A1_window_gap"], rep.tolerances["v"], rep.tolerances["eta"]
        assert rep.raw_margins["A1_window_gap"] <= 2.0 * g(x) - v - 1.0 - eta / 96.0

    def test_implies_theorem_window(self):
        # the class-A hypotheses reduce to the two-window test with the
        # same (a, b); check the implication on the standard example
        a_rep = check_class_a(cosine(), -0.125, 0.125, 0.0)
        t_rep = check_theorem_sturm(cosine(), -0.125, 0.125)
        assert a_rep.passed and t_rep.passed


class TestClassB:
    def test_cosine(self):
        rep = check_class_b(cosine())
        assert rep.passed
        assert rep.tolerances["eta"] == pytest.approx(FOUR_PI_SQ, abs=1e-9)

    def test_quadratic_extremal(self):
        rep = check_class_b(quadratic_extremal())
        assert rep.passed
        assert rep.tolerances["eta"] == pytest.approx(2.0, abs=1e-12)
        f = quadratic_extremal()
        ratio = (f(0.0) - f(0.25)) / rep.tolerances["eta"]
        assert ratio == pytest.approx(1 / 32, abs=1e-12)

    def test_translated_cosine_fails_evenness(self):
        rep = check_class_b(Translate(1 / 3, cosine()))
        assert rep.status == "fail"
        assert rep.raw_margins["evenness"] < 0

    def test_kinked_profile_fails_smoothness(self):
        rep = check_class_b(tent())
        assert rep.status == "fail"

    def test_convex_arcs_between_nodes_fail_concavity(self):
        # f'' = +2 on arcs that no 2N-grid node reaches: the one-sided
        # values beside their ends show it
        f = _bumped_extremal()
        x = np.arange(4096) / 4096
        assert np.max(np.abs(f(x) - f(-x))) < 1e-15
        assert np.max(np.abs(f(x) + f(x + 0.5) - 2 * f(0.25))) < 1e-15
        second = f.derivative().derivative()
        assert np.all(second(np.arange(-2047, 2048) / 8192) == -2.0)
        rep = check_class_b(f, 4096)
        assert rep.status == "fail"
        assert rep.raw_margins["concavity"] == pytest.approx(-2.0, abs=1e-8)
        assert 0.1 < rep.witnesses["concavity"] < 0.1 + 1e-4
        assert check_kappa(f, 4096).status == "fail"

    def test_second_derivative_symmetry_validated(self):
        rep = check_class_b(cosine_extremal_blend(0.5))
        assert rep.passed
        assert rep.raw_margins["second_derivative_symmetry"] > 0

    @pytest.mark.parametrize("f", [cosine(), quadratic_extremal()], ids=["cosine", "extremal"])
    def test_second_derivative_derived_and_scanned_once(self, f, monkeypatch):
        def no_sample(g, n):
            raise AssertionError("the eta report sampled f")

        second = f.derivative().derivative()
        derivations, sizes = [], []
        derive, call = type(f).derivative, torus.FunctionSpec.__call__

        def counting_derive(self):
            derivations.append(self)
            return derive(self)

        def counting_call(self, x):
            if self == second:
                sizes.append(int(np.size(x)))
            return call(self, x)

        monkeypatch.setattr(convexity, "sample", no_sample)
        monkeypatch.setattr(type(f), "derivative", counting_derive)
        monkeypatch.setattr(torus.FunctionSpec, "__call__", counting_call)
        rep = check_class_b(f, 1024)
        assert rep.passed
        assert derivations.count(f) == 1
        # the 2N grid, which holds the N-grid eta scan and the concavity scan
        # inside (-1/4, 1/4), and one point either side of each non-smooth point
        one_sided = [1] * 2 * len(second.nonsmooth_points())
        assert sorted(sizes) == sorted([2 * 1024] + one_sided)

    def test_nan_at_an_odd_2n_grid_node_is_refused(self, monkeypatch):
        # the N-grid eta report reads only the even 2N-grid nodes; a NaN at
        # node 1 once left the concavity margin NaN and the status
        # "inconclusive"
        f = cosine()
        second = f.derivative().derivative()
        call = torus.FunctionSpec.__call__

        def nan_at_node_1(self, x):
            out = call(self, x)
            if self == second and np.size(x) == 2 * 1024:
                out = out.copy()
                out[1] = np.nan
            return out

        monkeypatch.setattr(torus.FunctionSpec, "__call__", nan_at_node_1)
        with pytest.raises(ValueError, match=r"^f'' is not finite on the 2048-node grid: .*node 1 is nan"):
            check_class_b(f, 1024)

    @pytest.mark.parametrize("n", [512, 1024, 4096])
    @pytest.mark.parametrize(
        "f",
        [cosine(), quadratic_extremal(), flattened_cosine(0.02), cosine_extremal_blend(0.5),
         random_antisym_even(np.random.default_rng(5)), random_trig(np.random.default_rng(7))],
        ids=["cosine", "extremal", "flattened", "blend", "antisym-even", "trig"],
    )
    def test_concavity_equals_the_linspace_scan_bitwise(self, f, n):
        # at power-of-two N the 2N-grid nodes inside (-1/4, 1/4) are the
        # points of linspace(-1/4, 1/4, N+1)[1:-1] bit for bit; after them
        # come f'' at 1e-9 either side of each non-smooth point inside
        second = f.derivative().derivative()
        xs_in = list(np.linspace(-0.25, 0.25, n + 1)[1:-1])
        vals = list(second(np.array(xs_in)))
        for b in second.nonsmooth_points():
            for x in ((b - 1e-9) % 1.0, (b + 1e-9) % 1.0):
                signed = x - 1.0 if x >= 0.5 else x
                if abs(signed) < 0.25:
                    xs_in.append(signed)
                    vals.append(second(x))
        i = int(np.argmax(vals))
        rep = check_class_b(f, n)
        tol_cc = 1e-9 * max(1.0, rep.tolerances["eta"])
        assert np.float64(rep.raw_margins["concavity"]).tobytes() == np.float64(tol_cc - vals[i]).tobytes()
        assert np.float64(rep.witnesses["concavity"]).tobytes() == np.float64(xs_in[i]).tobytes()

    @pytest.mark.parametrize("n", [512, 4096, 4099])
    @pytest.mark.parametrize(
        "f",
        [cosine(), quadratic_extremal(), flattened_cosine(0.02), cosine_extremal_blend(0.5),
         random_antisym_even(np.random.default_rng(5))],
        ids=["cosine", "extremal", "flattened", "blend", "random"],
    )
    def test_eta_is_the_second_derivative_route_bitwise(self, f, n):
        second = f.derivative().derivative()
        fine = second(np.arange(2 * n) / (2 * n))
        assert fine[::2].tobytes() == second(np.arange(n) / n).tobytes()
        eta = check_class_b(f, n).tolerances["eta"]
        assert np.float64(eta).tobytes() == np.float64(convexity_defect(f, "second_derivative", n).eta).tobytes()


class TestKappa:
    def test_constant_window(self):
        assert 0.02480 < KAPPA < 0.02481

    def test_cosine_margin_in_stated_window(self):
        rep = check_kappa(cosine())
        assert rep.passed
        assert rep.tolerances["ratio"] == pytest.approx(1 / FOUR_PI_SQ, abs=1e-12)
        assert 5e-4 < rep.margins["ratio_above_kappa"] < 6e-4

    def test_extremal_margin(self):
        rep = check_kappa(quadratic_extremal())
        assert rep.passed
        assert rep.raw_margins["ratio_above_kappa"] == pytest.approx(1 / 32 - KAPPA, abs=1e-12)

    def test_blend_tuned_below_threshold_fails(self):
        # bisect the harmonic weight until the computed ratio crosses kappa,
        # then check both sides of the crossing
        lo, hi = 0.0, 1 / 27
        for _ in range(40):
            mid = (lo + hi) / 2
            rep = check_kappa(flattened_cosine(mid))
            if rep.tolerances["ratio"] > KAPPA:
                lo = mid
            else:
                hi = mid
        s_star = (lo + hi) / 2
        assert check_kappa(flattened_cosine(min(s_star + 1e-3, 1 / 27))).status == "fail"
        assert check_kappa(flattened_cosine(s_star - 1e-3)).passed

    @pytest.mark.parametrize(
        "f", [constant(0.5), Scale(0.0, cosine())], ids=["constant", "zero-scaled-cosine"]
    )
    def test_zero_defect_is_undefined(self, f):
        # class B passes with eta = 0 only for a constant; drop / eta is 0 / 0
        assert check_class_b(f).passed
        with pytest.raises(ValueError, match="convexity defect is zero"):
            check_kappa(f)

    def test_class_b_failure_propagates(self):
        rep = check_kappa(Translate(1 / 3, cosine()))
        assert rep.status == "fail"
        assert any("class-B" in n for n in rep.notes)


class TestSearchC:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_grid_without_interior_point_rejected(self, n):
        h = PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False)
        with pytest.raises(ValueError, match=f"search_c needs grid_n >= 2 .*, got {n}$"):
            search_c(h, n)

    def test_smallest_grid_scans_its_one_interior_point(self):
        h = PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False)
        _, rep = search_c(h, 2)
        assert rep.witnesses == {"c": 0.125}

    def test_half_square_profile(self):
        h = PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False)
        c, rep = search_c(h, 10_000)
        assert rep.passed
        assert c is not None and 0 < c < 0.25
        assert rep.raw_margins["H1_window_gap"] > 1e-4
        assert rep.raw_margins["H2_slope"] > 1e-4

    def test_cosine_profile(self):
        # h = 1 - cos(2 pi x): the profile of the cosine drop
        h = Sum((constant(1.0), Negate(cosine())))
        c, rep = search_c(h, 10_000)
        assert rep.passed
        assert 0 < c < 0.25

    def test_boundary_profile_fails(self):
        # quadratic-then-linear profile tuned so h(1/4) = kappa * eta exactly
        c0 = 0.25 - math.sqrt(0.0625 - 2 * KAPPA)
        h = PiecewisePoly(
            (0.0, c0),
            ((0.0, 0.0, 0.5), (-c0 * c0 / 2, c0)),
            wrap=False,
        )
        eta = 1.0
        assert h(0.25) == pytest.approx(KAPPA * eta, abs=1e-12)
        cstar, rep = search_c(h, 10_000)
        assert cstar is None
        assert rep.status in ("fail", "inconclusive")

    def test_kappa_pass_gives_class_a_window(self):
        # constructive chain: ratio gate -> profile search -> window test
        for f in (cosine(), quadratic_extremal(), cosine_extremal_blend(0.5)):
            assert check_kappa(f).passed
            h = Sum((constant(f(0.0)), Negate(f)))
            c, rep = search_c(h, 10_000)
            assert rep.passed
            a_rep = check_class_a(f, -c, c, f(0.25))
            assert a_rep.passed
            t_rep = check_theorem_sturm(f, -c, c)
            assert t_rep.passed


class TestScanTranslates:
    def test_small_cosine_scan(self):
        res = scan_translates(cosine(), 8, grid_n=2048, max_q=16)
        assert res.all_pass
        assert res.rows[0].rotation_p == 0 and res.rows[0].rotation_q == 1
        assert res.rows[0].beta == pytest.approx(1.0, abs=1e-6)
        r_half = res.rows[4]
        assert (r_half.rotation_p, r_half.rotation_q) == (1, 2)
        assert r_half.beta == pytest.approx(0.5, abs=1e-6)

    def test_csv_columns(self):
        res = scan_translates(cosine(), 4, grid_n=1024, max_q=8)
        header = res.to_csv().splitlines()[0]
        assert header == "omega,beta,rotation_p,rotation_q,certificate_pass,worst_margin"
        assert len(res.to_csv().splitlines()) == 5

    def test_rows_record_convergence(self):
        res = scan_translates(cosine(), 4, grid_n=1024, max_iter=2)
        assert not res.all_pass
        assert all(not r.converged for r in res.rows)

    def test_unchanged_under_numpy_remainder(self, monkeypatch):
        fast = scan_translates(cosine(), 4, grid_n=512)
        monkeypatch.setattr(torus, "_mod1", lambda x: x % 1.0)
        ref = scan_translates(cosine(), 4, grid_n=512)
        assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(ref.to_dict(), sort_keys=True)
        assert fast.to_csv() == ref.to_csv()

    @pytest.mark.parametrize("omega_count, max_q", [(0, 32), (-1, 32), (4, 0)])
    def test_empty_scan_rejected(self, omega_count, max_q):
        with pytest.raises(ValueError, match="must be >= 1"):
            scan_translates(cosine(), omega_count, grid_n=256, max_q=max_q)

    def test_oversized_table_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the scan solved before refusing max_q")

        monkeypatch.setattr(criteria, "solve_calibrated", no_solve)
        with pytest.raises(ValueError, match="exceeds the Sturmian orbit-table budget"):
            scan_translates(cosine(), 4, grid_n=256, max_q=1000)

    @pytest.mark.parametrize("f", [cosine(), random_trig(np.random.default_rng(2))], ids=["cosine", "trig"])
    def test_certificates_equal_the_composed_oracle(self, f):
        n = 512
        res = scan_translates(f, 4, grid_n=n, max_q=8)
        for k, row in enumerate(res.rows):
            sol = _paired_solve(f, k, 4, n)
            r = antipodal_difference(sol.f, sol.g)
            eps = 5.0 * (sol.f.lipschitz_estimate() + sol.g.lipschitz_estimate()) / n
            runs = _circular_runs(np.abs(r.values) <= eps)
            cert = row.certificate
            assert (cert.epsilon_r, cert.w_max, cert.grid_n) == (eps, 16.0 / n, n)
            assert cert.zero_arcs == tuple((s / n, (c - 1) / n, c) for s, c in runs)
            assert (row.beta, row.residual, row.iterations) == (sol.beta, sol.residual, sol.iterations)

    @pytest.mark.parametrize("omega_count", [7, 8])
    @pytest.mark.parametrize(
        "f",
        [cosine(), quadratic_extremal(), random_antisym_even(np.random.default_rng(3)),
         random_trig(np.random.default_rng(2))],
        ids=["cosine", "quadratic", "antisym-even", "trig"],
    )
    def test_rows_agree_with_cold_solves(self, f, omega_count, monkeypatch):
        n = 1024
        res = scan_translates(f, omega_count, grid_n=n, max_q=16)
        monkeypatch.setattr(
            criteria, "solve_calibrated", lambda *a, g0=None, **kw: solve_calibrated(*a, **kw)
        )
        cold = scan_translates(f, omega_count, grid_n=n, max_q=16)
        for row, ref in zip(res.rows, cold.rows):
            tol = 1e-9 * torus.sample(Translate(row.omega, f), n).value_range()
            assert row.omega == ref.omega
            assert row.certificate.status == ref.certificate.status
            assert (row.rotation_p, row.rotation_q) == (ref.rotation_p, ref.rotation_q)
            assert row.converged and ref.converged
            assert abs(row.beta - ref.beta) <= tol
            assert row.residual <= tol

    def test_mirrored_rows_of_an_even_observable_take_one_sweep(self):
        res = scan_translates(cosine(), 8, grid_n=1024, max_q=16)
        assert [r.iterations == 1 for r in res.rows] == [False] * 5 + [True] * 3

    def test_unconverged_partner_gives_no_start(self):
        n = 512
        res = scan_translates(cosine(), 5, grid_n=n, max_q=8, max_iter=2)
        for k, row in enumerate(res.rows):
            sol = solve_calibrated(Translate(k / 5, cosine()), d=2, grid_n=n, max_iter=2)
            assert not row.converged
            assert (row.beta, row.residual, row.iterations) == (sol.beta, sol.residual, 2)
            assert row.certificate == sturmian_certificate(sol.f, sol.g)
