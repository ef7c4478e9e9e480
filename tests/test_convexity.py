import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleopt import (
    GridFunction,
    Scale,
    Translate,
    convexity_defect,
    pointwise_defect,
    sample,
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
from circleopt.convexity import (
    _delta_table,
    _finite_difference_report,
    _one_sided,
    _second_difference_max,
)
from circleopt.criteria import check_class_b

FOUR_PI_SQ = 4.0 * math.pi**2


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


class TestUniformDefect:
    def test_cosine_quarter(self):
        # analytic: sup_x 2 cos(2 pi x)(1 - cos(pi/2)) = 2, attained at x=0
        assert float(uniform_defect(sample(cosine(), 4096), 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_cosine_half(self):
        assert float(uniform_defect(sample(cosine(), 4096), 0.5)) == pytest.approx(4.0, abs=1e-12)

    def test_constant(self):
        assert float(uniform_defect(sample(constant(1.5), 4096), 0.125)) == 0.0

    def test_error_bound_reported(self):
        v = uniform_defect(sample(cosine(), 1024), 0.25)
        assert v.error_bound == pytest.approx(2 * sample(cosine(), 4096).lipschitz_estimate() / 1024, rel=0.01)

    def test_grid_node_aligned_exact(self):
        g = sample(cosine(), 64)
        v = uniform_defect(g, 0.25)
        assert v.value == pytest.approx(2.0, abs=1e-12)

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
                    assert uniform_defect(GridFunction(values), delta).value == ref

    def test_grid_off_lattice_delta_rejected(self):
        # 0.1 is not a multiple of 1/64: no silent interpolated search
        with pytest.raises(ValueError, match="not a multiple of the grid spacing 1/64"):
            uniform_defect(sample(cosine(), 64), 0.1)


class TestConvexityDefect:
    def test_cosine_second_derivative_exact(self):
        rep = convexity_defect(cosine(), "second_derivative")
        assert rep.eta == pytest.approx(FOUR_PI_SQ, abs=1e-9)
        assert rep.bound_direction == "exact_within_tolerance"

    def test_cosine_finite_difference_within_one_percent(self):
        rep = convexity_defect(cosine(), "finite_difference", 4096)
        assert rep.eta == pytest.approx(FOUR_PI_SQ, rel=0.01)
        assert rep.bound_direction == "lower_bound"

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
        assert not rep.is_finite

    def test_second_derivative_mode_rejects_kinks(self):
        with pytest.raises(ValueError):
            convexity_defect(tent(), "second_derivative")

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

    def test_min_delta_nodes_moves_the_kink_test(self):
        # a 1-node sawtooth: +inf at min_delta_nodes=1, where its score
        # nearly doubles from k=2 to k=1; from k=4 on only its odd-k second
        # differences 4e-5 * (N/k)^2 remain (1.7 at k=5)
        g = sample(cosine(), 1024)
        saw = GridFunction(g.values + 1e-5 * (-1.0) ** np.arange(1024))
        assert math.isinf(convexity_defect(saw, "finite_difference").eta)
        for m in (4, 8):
            eta = convexity_defect(saw, "finite_difference", min_delta_nodes=m).eta
            assert eta == pytest.approx(FOUR_PI_SQ, rel=0.05)
        # a real kink still reads +inf when the finest scales are skipped
        assert math.isinf(convexity_defect(tent(), "finite_difference", 1024, 4).eta)

    @pytest.mark.parametrize("m", [20, 40])
    def test_min_delta_nodes_without_room_for_the_kink_test(self, m):
        # 2m > N/2: delta = 2m/N is not on the grid, so a kink would read
        # finite (m = 20) or the scan would be empty (m = 40)
        with pytest.raises(ValueError, match=f"min_delta_nodes={m} .* N=64"):
            convexity_defect(tent(), "finite_difference", 64, m)

    def test_largest_min_delta_nodes_still_flags_a_kink(self):
        assert math.isinf(convexity_defect(tent(), "finite_difference", 64, 16).eta)


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
            assert (row["xi_star"], row["error_bound"]) == (ref.value, ref.error_bound)


def _loop_one_sided(second):
    """Per-point reference: f'' at 1e-9 either side of each non-smooth point."""
    eps = 1e-9
    cands = []
    for b in second.nonsmooth_points():
        cands.append(np.array([second((b - eps) % 1.0), second((b + eps) % 1.0)]))
    return np.concatenate(cands) if cands else np.zeros(0)


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
    got, ref = _one_sided(second), _loop_one_sided(second)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _roll_second_difference(v, k):
    return 2.0 * v - np.roll(v, -k) - np.roll(v, k)


def _loop_finite_difference_eta(g, min_delta_nodes):
    """Per-k reference for the finite-difference route."""
    n = g.n
    best, best_x, best_delta = 0.0, 0.0, max(1, min_delta_nodes) / n
    score_by_k = np.zeros(n // 2 + 1)
    for k in range(1, n // 2 + 1):
        vals = _roll_second_difference(g.values, k)
        m = float(np.max(vals))
        if m <= 0.0:
            continue
        score = m * (n / k) ** 2
        score_by_k[k] = score
        if k >= min_delta_nodes and score > best:
            best, best_x, best_delta = score, float(np.argmax(vals)) / n, k / n
    m = max(1, min_delta_nodes)
    infinite = bool(n >= 8 and 2 * m <= n // 2 and score_by_k[2 * m] > 0.0
                    and score_by_k[m] > 1.6 * score_by_k[2 * m])
    return best, best_x, best_delta, infinite


def _assert_matches_roll(v, ks):
    """The kernel's max and first argmax are the roll expression's, bit for bit."""
    maxima, argmax = _second_difference_max(v, ks)
    assert maxima.shape == argmax.shape == (len(ks),)
    for k, m, i in zip(ks, maxima, argmax):
        ref = _roll_second_difference(v, k)
        assert i == ref.argmax(), k
        assert m.tobytes() == ref.max().tobytes(), k


# integer values make exact ties; -0.0 and 0.0 tie with each other
_TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
_FLOAT_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _vector_and_shifts(draw):
    n = draw(st.integers(1, 40))
    v = np.array(draw(st.lists(st.one_of(_TIE_VALUES, _FLOAT_VALUES), min_size=n, max_size=n)))
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n + 1))
    return v, range(start, stop, draw(st.integers(1, n + 1)))


class TestSecondDifferenceKernel:
    @pytest.mark.parametrize("n", [7, 101, 4096])
    @pytest.mark.parametrize("kind", ["random", "cosine"])
    def test_matches_roll_bitwise(self, n, kind):
        # cosine samples have exact ties, which exercise the first-argmax rule
        if kind == "random":
            v = np.random.default_rng(n).standard_normal(n)
        else:
            v = sample(cosine(), n).values
        # every shift 0..N, then strided progressions that start, stop and
        # step off the block boundaries, and the empty and one-shift ranges
        _assert_matches_roll(v, range(n + 1))
        for ks in (range(1, n // 2 + 1, 3), range(2, n + 1, 7), range(n // 3, n, n // 3 or 1),
                   range(n, n + 1), range(5, 5)):
            _assert_matches_roll(v, ks)

    @settings(max_examples=300, deadline=None)
    @given(_vector_and_shifts())
    # an all-zero row whose first maximum is -0.0 while np.max gives +0.0
    @example((np.array([-0.0, 0.0, 0.0, 0.0]), range(1, 2)))
    def test_matches_roll_on_random_progressions(self, case):
        _assert_matches_roll(*case)

    @pytest.mark.parametrize(
        "ks",
        [[1, 2], np.arange(1, 4), range(-1, 3), range(0, 10), range(3, 0, -1), range(9, 12)],
        ids=["list", "array", "negative", "past-n", "descending", "beyond"],
    )
    def test_rejects_shifts_outside_a_forward_range(self, ks):
        with pytest.raises(ValueError, match="range with a positive step inside 0..8"):
            _second_difference_max(np.arange(8.0), ks)

    def test_memory_stays_within_the_block(self):
        # v||v, 2v and the two outputs (N/2 entries each) are 4 N-arrays; the
        # rest is the block, numpy's ufunc buffer (np.getbufsize() elements)
        # for the in-place subtraction of a strided view, and array headers
        v = sample(cosine(), 4096).values
        ks = range(1, 4096 // 2 + 1)
        _second_difference_max(v, ks)
        tracemalloc.start()
        try:
            _second_difference_max(v, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < convexity._BLOCK_BYTES + 4 * v.nbytes + 8 * np.getbufsize() + 16 * 1024

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
        best, best_x, best_delta, infinite = _loop_finite_difference_eta(g, min_delta_nodes)
        assert rep.eta == (math.inf if infinite else best)
        assert (rep.witness_x, rep.witness_delta) == (best_x, best_delta)
        assert (rep.method, rep.grid_n) == ("finite_difference", g.n)
        assert rep.error_bound == 2.0 * g.lipschitz_estimate() / g.n
