import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleopt import (
    AntisymmetricExtension,
    Cosine,
    FunctionSpec,
    GridFunction,
    PiecewisePoly,
    Scale,
    Sum,
    Translate,
    convexity_defect,
    pointwise_defect,
    sample,
    spec_from_dict,
    uniform_defect,
)
from circleopt import convexity
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
from circleopt.cli import _delta_table
from circleopt.convexity import (
    _candidate_shifts,
    _finite_difference_report,
    _second_difference,
    second_derivative_values,
)
from circleopt.criteria import check_class_b
from circleopt.torus import jumps

FOUR_PI_SQ = 4.0 * math.pi**2


class _InfiniteBeside(FunctionSpec):
    """-2 except within 1e-6 of ``b``, its one non-smooth point, where it
    is +inf."""

    def __init__(self, b):
        self.b = b

    def _eval(self, r):
        return np.where(np.abs(r - self.b) < 1e-6, np.inf, -2.0)

    def nonsmooth_points(self):
        return (self.b,)


class TestPointwiseDefect:
    def test_constant_vanishes(self):
        assert pointwise_defect(constant(3.0), 0.37, 0.1) == 0.0

    def test_cosine_peak(self):
        # 2 cos(0) - cos(pi/2) - cos(-pi/2) = 2
        assert pointwise_defect(cosine(), 0.0, 0.25) == pytest.approx(2.0)

    def test_cosine_trough_clamped(self):
        assert pointwise_defect(cosine(), 0.5, 0.25) == 0.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            pointwise_defect(cosine(), 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        which=st.sampled_from(["trig", "quadratic", "grid", "lambda"]),
        x=st.floats(-2.0, 2.0),
        delta=st.floats(1e-6, 1.0),
    )
    def test_scalar_equals_three_scalar_calls(self, seed, which, x, delta):
        rng = np.random.default_rng(seed)
        trig = random_trig(rng)
        f = {
            "trig": trig,
            "quadratic": quadratic_extremal(),
            "grid": GridFunction(rng.standard_normal(64)),
            "lambda": lambda y: trig(y) + quadratic_extremal()(y),
        }[which]
        old = 2.0 * f(x) - f(np.asarray(x) + delta) - f(np.asarray(x) - delta)
        got = pointwise_defect(f, x, delta)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(max(old, 0.0)).tobytes()


class TestUniformDefect:
    def test_cosine_quarter(self):
        # analytic: sup_x 2 cos(2 pi x)(1 - cos(pi/2)) = 2, attained at x=0
        assert float(uniform_defect(sample(cosine(), 4096), 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_cosine_half(self):
        assert float(uniform_defect(sample(cosine(), 4096), 0.5)) == pytest.approx(4.0, abs=1e-12)

    def test_constant(self):
        assert float(uniform_defect(sample(constant(1.5), 4096), 0.125)) == 0.0

    def test_grid_node_aligned_exact(self):
        g = sample(cosine(), 64)
        v = uniform_defect(g, 0.25)
        assert type(v) is float
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_spec_input_rejected(self):
        with pytest.raises(TypeError, match="need a GridFunction, got Cosine"):
            uniform_defect(cosine(), 0.25)

    def test_equals_sampled_formula_on_cone_law_inputs(self):
        # the formula 2 f(xs) - f(xs + delta) - f(xs - delta) evaluated on
        # the specs themselves, as the validation suite once did
        n = 512
        xs = np.arange(n) / n
        rng = np.random.default_rng(3)
        for _ in range(20):
            f, g = random_trig(rng), random_trig(rng)
            a, b = float(rng.uniform(0, 3)), float(rng.uniform(-2, 2))
            fv, gv = f(xs), g(xs)
            pairs = [
                (f, fv),
                (g, gv),
                (lambda y: f(y) + g(y), fv + gv),
                (lambda y: np.maximum(f(y), g(y)), np.maximum(fv, gv)),
                (lambda y: a * f(y) + b, a * fv + b),
            ]
            for fn, values in pairs:
                for delta in (1 / 16, 1 / 8, 1 / 4):
                    ref = float(max(np.max(2.0 * fn(xs) - fn(xs + delta) - fn(xs - delta)), 0.0))
                    assert uniform_defect(GridFunction(values), delta) == ref

    def test_grid_off_lattice_delta_rejected(self):
        # 0.1 is not a multiple of 1/64: no silent interpolated search
        with pytest.raises(ValueError, match="not a multiple of the grid spacing 1/64"):
            uniform_defect(sample(cosine(), 64), 0.1)

    @pytest.mark.parametrize("delta", [0.0, -0.25])
    def test_rejects_nonpositive_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            uniform_defect(sample(cosine(), 64), delta)

    def test_shifts_wrap_around_the_circle(self):
        # the shift is taken mod N: a whole turn leaves nothing, and the
        # defect is even in delta, so 1 - delta reads what delta reads, up
        # to the order of the two neighbour subtractions
        g = sample(random_trig(np.random.default_rng(5)), 64)
        assert uniform_defect(g, 1.0) == 0.0
        for k in range(1, 64):
            ref = uniform_defect(g, k / 64)
            assert uniform_defect(g, 1.0 + k / 64) == ref, k
            assert uniform_defect(g, (64 - k) / 64) == pytest.approx(ref, rel=1e-12, abs=1e-12), k


class TestConvexityDefect:
    def test_cosine_second_derivative_exact(self):
        rep = convexity_defect(cosine(), "second_derivative")
        assert rep.eta == pytest.approx(FOUR_PI_SQ, abs=1e-9)
        assert rep.bound_direction == "exact_within_tolerance"

    def test_cosine_finite_difference_within_one_percent(self):
        rep = convexity_defect(cosine(), "finite_difference", 4096)
        assert rep.eta == pytest.approx(FOUR_PI_SQ, rel=0.01)
        assert rep.bound_direction == "lower_bound"

    @pytest.mark.parametrize("n", [64, 4096])
    def test_second_derivative_bound_covers_the_offset_peak(self, n):
        # f'' = -4 pi^2 cos peaks half a spacing from every node: the nodes
        # read eta short of 4 pi^2 (by 0.048 at N = 64), within error_bound
        rep = convexity_defect(Translate(0.5 / n, Cosine(1)), "second_derivative", n)
        assert 0.0 < FOUR_PI_SQ - rep.eta <= rep.error_bound

    @pytest.mark.parametrize("n", [64, 256, 4096])
    def test_witness_is_where_a_one_sided_eta_was_read(self, n):
        # f'' = -10x on [0, b), b = 0.3 + 1/128 between nodes; the cubic on
        # [b, 1) keeps f and f' continuous at b and at 1 = 0.  eta is
        # f''(b - 1e-9), so the witness is that point, not the nearest node
        b = 0.3 + 1 / 128
        f = spec_from_dict({
            "kind": "piecewise_poly", "breakpoints": [0.0, b],
            "coefficients": [[0.0, 0.0, 0.0, -1.6666666666666667],
                             [0.2931340343062656, -1.8681714724442462, 2.856940841969695, -1.2819034038317147]],
        })
        rep = convexity_defect(f, "second_derivative", n)
        assert rep.eta == 10.0 * (b - 1e-9)
        assert rep.witness_x == (b - 1e-9) % 1.0

    def test_witness_ties_keep_the_node(self):
        # f'' = -2 at the nodes and beside the breakpoints alike
        assert convexity_defect(quadratic_extremal(), "second_derivative", 64).witness_x == 0.0

    def test_constant_is_convex(self):
        assert convexity_defect(constant(2.0), "auto").eta == 0.0

    def test_positive_homogeneity(self):
        # oracle: defect scales linearly under positive scaling; cross-check
        # the two routes against each other
        rep2 = convexity_defect(Scale(3.0, cosine()), "second_derivative")
        assert rep2.eta == pytest.approx(3 * FOUR_PI_SQ, abs=1e-9)
        repf = convexity_defect(Scale(3.0, cosine()), "finite_difference", 4096)
        assert repf.eta == pytest.approx(3 * FOUR_PI_SQ, rel=0.01)

    def test_modes_agree_on_smooth_specs(self):
        for f in (cosine(), quadratic_extremal()):
            r1 = convexity_defect(f, "second_derivative", 4096)
            r2 = convexity_defect(f, "finite_difference", 4096)
            assert abs(r1.eta - r2.eta) / r1.eta < 0.02

    def test_extremal_defect_is_two(self):
        rep = convexity_defect(quadratic_extremal(), "auto")
        assert rep.eta == pytest.approx(2.0, abs=1e-12)
        assert rep.method == "second_derivative"

    def test_kink_flags_infinite(self):
        rep = convexity_defect(tent(), "auto", 1024)
        assert rep.method == "finite_difference"
        assert math.isinf(rep.eta)

    def test_second_derivative_mode_rejects_kinks(self):
        with pytest.raises(ValueError):
            convexity_defect(tent(), "second_derivative")

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["auto", "second_derivative"])
    def test_overflowing_second_derivative_is_refused(self, mode):
        # finite samples (|f| <= 1e304) whose f'' overflows: once eta = 0.0
        f = Sum((Scale(1e305, Cosine(1000, 0.0)), Scale(-1e305, Cosine(1000, 0.1))))
        assert np.all(np.abs(sample(f, 4096).values) <= 1e304)
        with pytest.raises(ValueError, match=r"^f'' is not finite \(nan at x = 0\.0\)$"):
            convexity_defect(f, mode, 4096)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_difference_route_refuses_an_overflowing_score(self):
        # maxima * (N/k)^2 overflows: once it read as eta = +inf, a kink
        f = Sum((Scale(1e305, Cosine(1000, 0.0)), Scale(-1e305, Cosine(1000, 0.1))))
        with pytest.raises(ValueError, match=r"^finite-difference score overflows at delta = 1/4096"):
            convexity_defect(f, "finite_difference", 4096)

    def test_second_derivative_route_refuses_a_non_finite_one_sided_value(self):
        # f'' finite at every node and infinite only 1e-9 either side of 0.3
        second = _InfiniteBeside(0.3)
        xs = np.arange(64) / 64
        assert np.all(np.isfinite(second(xs)))
        x = re.escape(str((0.3 - 1e-9) % 1.0))
        with pytest.raises(ValueError, match=rf"^f'' is not finite \(inf at x = {x}\)$"):
            second_derivative_values(second, xs)

    def test_delta_table_dominated_by_eta(self):
        rep = convexity_defect(cosine(), "second_derivative", 4096)
        for row in _delta_table(sample(cosine(), 4096)):
            delta = row["delta"]
            assert row["xi_star"] / delta**2 <= rep.eta + row["error_bound"] / delta**2 + 1e-9

    def test_grid_input_uses_finite_difference(self):
        rep = convexity_defect(sample(cosine(), 2048), "auto")
        assert rep.method == "finite_difference"
        assert rep.eta == pytest.approx(FOUR_PI_SQ, rel=0.01)

    def test_min_delta_nodes_skips_fine_scales(self):
        g = sample(cosine(), 512)
        noisy = GridFunction(g.values + 1e-6 * (-1.0) ** np.arange(512))
        full = convexity_defect(noisy, "finite_difference")
        coarse = convexity_defect(noisy, "finite_difference", min_delta_nodes=4)
        assert coarse.eta < full.eta

    def test_report_serializes(self):
        doc = convexity_defect(cosine(), "auto").to_dict()
        assert set(doc) >= {"eta", "witnesses", "error_bound", "method"}

    def test_second_derivative_route_samples_nothing(self, monkeypatch):
        def no_sample(f, n):
            raise AssertionError("the second-derivative route sampled f")

        monkeypatch.setattr(convexity, "sample", no_sample)
        rep = convexity_defect(quadratic_extremal(), "second_derivative", 1024)
        assert rep.eta == pytest.approx(2.0, abs=1e-12)
        assert check_class_b(cosine(), 1024).passed

    @pytest.mark.parametrize("grid_n", [0, 3])
    def test_second_derivative_route_rejects_small_grids(self, grid_n):
        with pytest.raises(ValueError, match=f"grid size must be at least 4, got {grid_n}"):
            convexity_defect(cosine(), "second_derivative", grid_n)

    def test_min_delta_nodes_skips_a_sawtooth(self):
        # a 1-node sawtooth: a grid function reads its lower bound, which
        # at min_delta_nodes=1 is the sawtooth's (4e-5 + ~4 pi^2 / N^2) N^2;
        # from k=4 on only its odd-k second differences 4e-5 * (N/k)^2
        # remain (1.7 at k=5)
        g = sample(cosine(), 1024)
        saw = GridFunction(g.values + 1e-5 * (-1.0) ** np.arange(1024))
        assert convexity_defect(saw, "finite_difference").eta == pytest.approx(4e-5 * 1024**2 + FOUR_PI_SQ,
                                                                             rel=1e-3)
        for m in (4, 8):
            eta = convexity_defect(saw, "finite_difference", min_delta_nodes=m).eta
            assert eta == pytest.approx(FOUR_PI_SQ, rel=0.05)
        # a real kink still reads +inf when the finest scales are skipped
        assert math.isinf(convexity_defect(tent(), "finite_difference", 1024, 4).eta)

    def test_largest_min_delta_nodes_still_flags_a_kink(self):
        assert math.isinf(convexity_defect(tent(), "finite_difference", 64, 16).eta)

    @pytest.mark.parametrize("m", [20, 32])
    def test_min_delta_nodes_up_to_half_the_grid_is_read(self, m):
        assert math.isinf(convexity_defect(tent(), "finite_difference", 64, m).eta)
        rep = convexity_defect(cosine(), "finite_difference", 64, m)
        assert rep.witness_delta == m / 64 and math.isfinite(rep.eta)

    @pytest.mark.parametrize("m", [33, 40])
    def test_min_delta_nodes_past_half_the_grid_is_refused(self, m):
        with pytest.raises(ValueError, match=rf"^min_delta_nodes={m} leaves no shift to read at N=64"):
            convexity_defect(tent(), "finite_difference", 64, m)


_STEP = PiecewisePoly((0.0, 0.5), ((0.0,), (1.0,)))


@pytest.mark.parametrize("mode", ["finite_difference", "auto"])
@pytest.mark.parametrize(
    "f, falls_at, eta",
    [
        (tent(), [0.0], math.inf),
        (Scale(-1.0, tent()), [0.5], math.inf),
        (Translate(0.3, tent()), [0.3], math.inf),
        # f' = +1 on (0, 1/2) and -1 on (1/2, 1): it falls at 1/2, a junction
        (AntisymmetricExtension(PiecewisePoly((0.0,), ((0.0, 1.0),), wrap=False), 0.25), None, math.inf),
        (Sum((cosine(), Scale(1e-6, _STEP))), None, math.inf),
        # a convex kink only: f' rises from -1 to +1 at 0
        (PiecewisePoly((0.0,), ((-0.25, 1.0, -1.0),)), [], 2.0),
    ],
    ids=["tent", "negated-tent", "translated-tent", "extension-of-x", "jump", "convex-kink"],
)
def test_eta_is_infinite_exactly_where_the_tree_falls(f, falls_at, eta, mode):
    # falls_at: where a jump of f' falls; None where f.derivative() refuses f
    if falls_at is None:
        with pytest.raises(ValueError):
            f.derivative()
    else:
        assert [x for x, d in jumps(f.derivative()).items() if d < 0.0] == falls_at
    rep = convexity_defect(f, mode, 4096)
    assert (rep.eta, rep.method) == (eta, "finite_difference")


class TestDeltaTable:
    @pytest.mark.parametrize("n", [512, 1024, 4096, 4099])
    @pytest.mark.parametrize(
        "f",
        [cosine(), quadratic_extremal(), random_trig(np.random.default_rng(11))],
        ids=["cosine", "extremal", "random-trig"],
    )
    def test_rows_are_uniform_defects(self, f, n):
        g = sample(f, n)
        rows = _delta_table(g)
        assert 1 <= len(rows) <= 32 and rows[-1]["delta"] <= 0.5
        for row in rows:
            ref = uniform_defect(g, row["delta"])
            assert (row["xi_star"], row["error_bound"]) == (ref, 2 * g.lipschitz_estimate() / n)


def _loop_one_sided(second):
    """Per-point reference: the points 1e-9 either side of each non-smooth
    point, and f'' there."""
    eps = 1e-9
    xs, vals = [], []
    for b in second.nonsmooth_points():
        for x in ((b - eps) % 1.0, (b + eps) % 1.0):
            xs.append(x)
            vals.append(second(x))
    return np.array(xs, dtype=float), np.array(vals, dtype=float)


@pytest.mark.parametrize(
    "f",
    [
        cosine(),
        constant(2.0),
        quadratic_extremal(),
        cosine_extremal_blend(0.5),
        flattened_cosine(1 / 27),
        random_trig(np.random.default_rng(5)),
        random_antisym_even(np.random.default_rng(5)),
        Scale(-1.5, cosine(3, 0.25)),
        Translate(0.3, quadratic_extremal()),
    ],
    ids=["cosine", "constant", "extremal", "blend", "flattened", "random-trig",
         "random-antisym", "scaled-cos3", "translated-extremal"],
)
def test_one_sided_matches_loop(f):
    second = f.derivative().derivative()
    xs = np.arange(64) / 64
    vals, *one_sided = second_derivative_values(second, xs)
    assert vals.tobytes() == second(xs).tobytes()
    for got, ref in zip(one_sided, _loop_one_sided(second)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _roll_second_difference(v, k):
    return 2.0 * v - np.roll(v, -k) - np.roll(v, k)


def _loop_scores(g):
    """Per-k reference for the finite-difference route: for k = 1..N/2,
    the score (N/k)^2 max D_k (0 where max D_k <= 0) and D_k's first argmax."""
    n = g.n
    scores, argmax = {}, {}
    for k in range(1, n // 2 + 1):
        vals = _roll_second_difference(g.values, k)
        m = float(np.max(vals))
        scores[k] = m * (n / k) ** 2 if m > 0.0 else 0.0
        argmax[k] = int(np.argmax(vals))
    return scores, argmax


def _loop_best(g, scores, argmax, ks, min_delta_nodes):
    """The first best score over the shifts ks, with its witnesses."""
    n = g.n
    best, best_x, best_delta = 0.0, 0.0, max(1, min_delta_nodes) / n
    for k in ks:
        if scores[k] > best:
            best, best_x, best_delta = scores[k], argmax[k] / n, k / n
    return best, best_x, best_delta


def _brute_candidates(n, m):
    return {k for k in range(m, n // 2 + 1) if not any(k % j == 0 for j in range(m, k))}


# integer values make exact ties; -0.0 and 0.0 tie with each other
_TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
_FLOAT_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _vector_and_shift(draw):
    n = draw(st.integers(1, 40))
    v = np.array(draw(st.lists(st.one_of(_TIE_VALUES, _FLOAT_VALUES), min_size=n, max_size=n)))
    return v, draw(st.integers(0, n))


def _assert_matches_roll(v, k):
    """The per-shift difference is the roll expression, bit for bit, so its
    max and first argmax are the roll expression's too."""
    got = _second_difference(np.concatenate([v, v]), k)
    ref = _roll_second_difference(v, k)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes(), k
    assert got.argmax() == ref.argmax() and got.max().tobytes() == ref.max().tobytes(), k


class TestSecondDifferenceKernel:
    @pytest.mark.parametrize("n", [7, 101, 4096])
    @pytest.mark.parametrize("kind", ["random", "cosine"])
    def test_matches_roll_bitwise(self, n, kind):
        # cosine samples have exact ties, which exercise the first argmax
        if kind == "random":
            v = np.random.default_rng(n).standard_normal(n)
        else:
            v = sample(cosine(), n).values
        for k in range(n + 1):
            _assert_matches_roll(v, k)

    @settings(max_examples=300, deadline=None)
    @given(_vector_and_shift())
    # an all-zero row whose first maximum is -0.0 while np.max gives +0.0
    @example((np.array([-0.0, 0.0, 0.0, 0.0]), 1))
    def test_matches_roll_on_random_shifts(self, case):
        _assert_matches_roll(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=64))
    def test_a_multiple_of_a_shift_never_scores_higher(self, ints):
        # D_jk is a sum of translates of D_k with weights summing to j^2,
        # so max D_jk <= j^2 max D_k; integer values make every term exact
        vv = np.array(ints + ints, dtype=float)
        n = len(ints)
        for k in range(1, n // 2 + 1):
            top = _second_difference(vv, k).max()
            for j in range(2, n // (2 * k) + 1):
                assert _second_difference(vv, j * k).max() <= j * j * top, (k, j)

    def test_candidate_shifts_are_the_brute_force_set(self):
        for n in range(4, 200):
            for m in range(1, n // 2 + 1):
                ks = _candidate_shifts(n, m)
                assert ks == sorted(_brute_candidates(n, m)), (n, m)
                assert all(type(k) is int for k in ks)

    def test_candidate_shifts_at_the_route_settings(self):
        assert _candidate_shifts(4096, 1) == [1]
        ks = _candidate_shifts(4096, 4)
        assert len(ks) == 310 and ks[:6] == [4, 5, 6, 7, 9, 11]

    @pytest.mark.parametrize("min_delta_nodes", [1, 4])
    def test_route_memory_is_a_few_arrays(self, min_delta_nodes):
        # v||v, the difference and its temporaries, and the Lipschitz
        # estimate's differences: a few N-arrays, whatever the scan reads
        # (1 shift at min_delta_nodes=1, 310 at 4)
        g = sample(cosine(), 4096)
        _finite_difference_report(g, min_delta_nodes)
        tracemalloc.start()
        try:
            _finite_difference_report(g, min_delta_nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * g.values.nbytes

    @pytest.mark.parametrize("min_delta_nodes", [1, 4, 8])
    @pytest.mark.parametrize(
        "g",
        [
            sample(cosine(), 512),
            GridFunction(sample(cosine(), 512).values + 1e-6 * (-1.0) ** np.arange(512)),
            GridFunction(sample(cosine(), 1024).values + 1e-5 * (-1.0) ** np.arange(1024)),
            sample(quadratic_extremal(), 1000),
            sample(tent(), 1024),
            sample(constant(1.0), 64),
            # integer second differences 2k^2: the score ties exactly across many k
            GridFunction(-((np.arange(512) - 256.0) ** 2)),
        ],
        ids=["cosine", "noisy-cosine", "sawtooth-cosine", "extremal", "tent", "constant",
             "parabola"],
    )
    def test_finite_difference_matches_loop(self, g, min_delta_nodes):
        rep = _finite_difference_report(g, min_delta_nodes)
        scores, argmax = _loop_scores(g)
        m = max(1, min_delta_nodes)
        ks = _candidate_shifts(g.n, m)
        best, best_x, best_delta = _loop_best(g, scores, argmax, ks, m)
        assert np.float64(rep.eta).tobytes() == np.float64(best).tobytes()
        assert (rep.witness_x, rep.witness_delta) == (best_x, best_delta)
        # every other shift ties with the candidates at most, up to rounding
        best_all, _, _ = _loop_best(g, scores, argmax, range(m, g.n // 2 + 1), m)
        assert best <= best_all <= best + 4 * math.ulp(best)
        assert (rep.method, rep.grid_n) == ("finite_difference", g.n)
        assert rep.error_bound == 2.0 * g.lipschitz_estimate() / g.n
