import math

import numpy as np
import pytest

from circleopt import (
    GridFunction,
    Scale,
    convexity_defect,
    pointwise_defect,
    sample,
    uniform_defect,
)
from circleopt.catalog import constant, cosine, quadratic_extremal, tent
from circleopt.convexity import _delta_table, _finite_difference_eta, _second_difference_max

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
        assert float(uniform_defect(cosine(), 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_cosine_half(self):
        assert float(uniform_defect(cosine(), 0.5)) == pytest.approx(4.0, abs=1e-12)

    def test_constant(self):
        assert float(uniform_defect(constant(1.5), 0.1)) == 0.0

    def test_error_bound_reported(self):
        v = uniform_defect(cosine(), 0.25, search_n=1024)
        assert v.error_bound == pytest.approx(2 * sample(cosine(), 4096).lipschitz_estimate() / 1024, rel=0.01)

    def test_grid_node_aligned_exact(self):
        g = sample(cosine(), 64)
        v = uniform_defect(g, 0.25)
        assert v.value == pytest.approx(2.0, abs=1e-12)


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
        for delta, xi, err in rep.delta_table:
            assert xi / delta**2 <= rep.eta + err / delta**2 + 1e-9

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
        assert set(doc) >= {"eta", "delta_table", "witnesses", "error_bound", "method"}


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
    infinite = bool(n >= 8 and score_by_k[2] > 0.0 and score_by_k[1] > 1.6 * score_by_k[2])
    return best, best_x, best_delta, infinite


class TestSecondDifferenceKernel:
    @pytest.mark.parametrize("n", [7, 101, 4096])
    @pytest.mark.parametrize("kind", ["random", "cosine"])
    def test_matches_roll_bitwise(self, n, kind):
        # cosine samples have exact ties, which exercise the first-argmax rule
        if kind == "random":
            v = np.random.default_rng(n).standard_normal(n)
        else:
            v = sample(cosine(), n).values
        # every shift 0..N+2 (so k >= N/2 and k >= N), multiples of N, and
        # an unordered tail with repeats
        ks = np.concatenate([np.arange(n + 3), [2 * n, 3 * n, 5 * n + 1, 3, 3 * n - 1, 1]])
        maxima, argmax = _second_difference_max(v, ks)
        for k, m, i in zip(ks, maxima, argmax):
            ref = _roll_second_difference(v, int(k))
            assert (m, i) == (ref.max(), ref.argmax()), k

    @pytest.mark.parametrize("min_delta_nodes", [1, 4])
    @pytest.mark.parametrize(
        "g",
        [
            sample(cosine(), 512),
            GridFunction(sample(cosine(), 512).values + 1e-6 * (-1.0) ** np.arange(512)),
            sample(quadratic_extremal(), 1000),
            sample(tent(), 1024),
            sample(constant(1.0), 64),
            # integer second differences 2k^2: the score ties exactly across many k
            GridFunction(-((np.arange(512) - 256.0) ** 2)),
        ],
        ids=["cosine", "noisy-cosine", "extremal", "tent", "constant", "parabola"],
    )
    def test_finite_difference_matches_loop(self, g, min_delta_nodes):
        *got, maxima = _finite_difference_eta(g, min_delta_nodes)
        assert tuple(got) == _loop_finite_difference_eta(g, min_delta_nodes)
        assert _delta_table(g, maxima) == _delta_table(g)
