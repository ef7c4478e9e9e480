import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleopt import (
    AntisymmetricExtension,
    Cosine,
    GridFunction,
    PiecewisePoly,
    Scale,
    Sum,
    Translate,
    grid_derivative,
    refine_linear,
    sample,
    spec_from_dict,
    spec_from_json,
)
from circleopt.catalog import constant, cosine, quadratic_extremal, tent

TWO_PI = 2.0 * math.pi


class TestEval:
    def test_cosine_at_zero(self):
        assert cosine()(0.0) == 1.0

    def test_cosine_periodicity_at_one(self):
        assert cosine()(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_translate_half(self):
        assert Translate(0.5, cosine())(0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_translate_identity(self):
        f = Sum((cosine(), Scale(0.3, Cosine(3, 1.0))))
        xs = np.linspace(0, 1, 37)
        np.testing.assert_allclose(Translate(0.2, f)(xs), f(xs - 0.2), atol=1e-14)

    def test_piecewise_right_continuous_at_breakpoint(self):
        f = PiecewisePoly((0.0, 0.5), ((1.0,), (2.0,)))
        assert f(0.5) == 2.0
        assert f(0.499999) == 1.0


class TestSample:
    def test_cosine_quarter_values(self):
        np.testing.assert_allclose(sample(cosine(), 4).values, [1, 0, -1, 0], atol=1e-15)

    def test_scaling(self):
        np.testing.assert_allclose(sample(Scale(2.0, cosine()), 4).values, [2, 0, -2, 0], atol=1e-15)

    def test_translate_by_one_node(self):
        np.testing.assert_allclose(
            sample(Translate(0.25, cosine()), 4).values, [0, 1, 0, -1], atol=1e-15
        )

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            sample(cosine(), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite: node 2"):
            GridFunction(np.array([0.0, 1.0, bad, 2.0]))

    def test_node_eval_reproduces_samples_exactly(self):
        f = Sum((cosine(), Scale(0.5, Cosine(2, 0.7))))
        g = sample(f, 48)
        for i in range(48):
            assert g(i / 48) == g.values[i]

    def test_refinement_preserves_old_nodes(self):
        g = sample(cosine(), 32)
        g2 = refine_linear(g, 2)
        np.testing.assert_array_equal(g2.values[::2], g.values)
        for i in range(32):
            assert g2(i / 32) == g.values[i]


class TestDerivative:
    def test_cosine_derivative_exact(self):
        d = cosine().derivative()
        assert d(0.25) == pytest.approx(-TWO_PI, abs=1e-12)

    def test_profile_derivative(self):
        # x^2 on [0, 1/4], used as a profile: derivative 2x
        h = PiecewisePoly((0.0,), ((0.0, 0.0, 1.0),), wrap=False)
        assert h.derivative()(0.125) == pytest.approx(0.25)

    def test_discontinuous_piecewise_rejected(self):
        f = PiecewisePoly((0.0, 0.5), ((1.0,), (2.0,)))
        with pytest.raises(ValueError, match="discontinuous"):
            f.derivative()

    def test_wrap_discontinuity_rejected_for_circle_functions(self):
        f = PiecewisePoly((0.0,), ((0.0, 1.0),))  # x on [0,1): jumps at 0
        with pytest.raises(ValueError, match="discontinuous"):
            f.derivative()

    def test_tent_derivative_allowed(self):
        # continuous but kinked: differentiating gives the a.e. derivative
        d = tent().derivative()
        assert d(0.25) == -1.0
        assert d(0.75) == 1.0

    def test_grid_derivative_matches_symbolic(self):
        g = sample(cosine(), 4096)
        d = grid_derivative(g)
        assert d(0.25) == pytest.approx(-TWO_PI, abs=1e-2)

    def test_central_grid_derivative_second_order(self):
        sym = cosine().derivative()
        errs = []
        for n in (256, 512):
            d = grid_derivative(sample(cosine(), n))
            xs = np.arange(n) / n
            errs.append(np.max(np.abs(d.values - sym(xs))))
        # central differences converge at second order
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_extremal_is_c1(self):
        d = quadratic_extremal().derivative()
        xs = np.linspace(0, 1, 1999)
        vals = d(xs)
        # slope continuous across junctions: piecewise linear with |f''| = 2
        assert np.max(np.abs(np.diff(vals))) < 2.5 * (xs[1] - xs[0]) * 2


class TestAntisymmetricExtension:
    def test_identity(self):
        f = quadratic_extremal()
        xs = np.linspace(0, 1, 501)
        np.testing.assert_allclose(f(xs) + f(xs + 0.5), 2 * (-1 / 16), atol=1e-14)

    def test_evenness(self):
        f = quadratic_extremal()
        xs = np.linspace(0, 1, 501)
        np.testing.assert_allclose(f(-xs), f(xs), atol=1e-14)

    def test_discontinuous_extension_rejected(self):
        h = PiecewisePoly((0.0,), ((0.0, 1.0),), wrap=False)  # h(0)=0, h(1/2)=1/2
        with pytest.raises(ValueError, match="discontinuous"):
            AntisymmetricExtension(h, v=0.0)

    def test_corner_extension_derivative_rejected(self):
        # h = x gives a tent-like extension with downward kinks
        h = PiecewisePoly((0.0,), ((0.0, 1.0),), wrap=False)
        f = AntisymmetricExtension(h, v=0.25)
        with pytest.raises(ValueError):
            f.derivative()


class TestSerialization:
    def test_round_trip(self):
        f = Sum((Scale(0.5, Translate(0.25, cosine())), quadratic_extremal()))
        f2 = spec_from_json(f.to_json())
        xs = np.linspace(0, 1, 101)
        np.testing.assert_allclose(f(xs), f2(xs), atol=0)

    def test_unknown_kind_named_in_error(self):
        with pytest.raises(ValueError, match="bogus"):
            spec_from_dict({"kind": "bogus"})

    def test_missing_field_named_in_error(self):
        with pytest.raises(ValueError, match="freq"):
            spec_from_dict({"kind": "cos"})

    def test_integral_float_frequency_accepted(self):
        assert spec_from_dict({"kind": "cos", "freq": 2.0}) == Cosine(2, 0.0)

    def test_example_grammar(self):
        f = spec_from_dict(
            {"kind": "translate", "omega": 0.25, "inner": {"kind": "cos", "freq": 1, "phase": 0.0}}
        )
        assert f(0.25) == pytest.approx(1.0)

    def test_grid_csv_header(self):
        text = sample(cosine(), 8).to_csv()
        assert text.splitlines()[0] == "x,value"
        assert text.splitlines()[1] == "0,1"

    @pytest.mark.parametrize("kind", ["cosine", "wide-magnitudes", "signed-zeros-subnormals"])
    def test_grid_csv_matches_per_row_format(self, kind):
        if kind == "cosine":
            g = sample(cosine(), 65536)
        elif kind == "wide-magnitudes":
            rng = np.random.default_rng(3)
            mags = 10.0 ** rng.uniform(-300, 300, 4099)
            g = GridFunction(mags * rng.choice([-1.0, 1.0], 4099))
        else:
            tiny = np.finfo(float).smallest_subnormal
            g = GridFunction([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320, 1.0])
        lines = ["x,value"]
        for i, v in enumerate(g.values):
            lines.append(f"{format(i / g.n, '.12g')},{format(v, '.12g')}")
        assert g.to_csv() == "\n".join(lines) + "\n"


@st.composite
def small_specs(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Cosine(draw(st.integers(1, 4)), draw(st.floats(0, 6.28)))
    if kind == 1:
        return Scale(draw(st.floats(-2, 2)), Cosine(draw(st.integers(1, 3)), 0.0))
    return Translate(draw(st.floats(0, 1)), Cosine(draw(st.integers(1, 3)), 0.0))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.floats(-10, 10))
    def test_periodicity(self, f, x):
        assert f(x) == pytest.approx(f(x + 1.0), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 1), st.floats(-3, 3))
    def test_translate_law(self, omega, x):
        f = cosine()
        assert Translate(omega, f)(x) == pytest.approx(f(x - omega), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(small_specs())
    def test_grid_periodicity(self, f):
        g = sample(f, 64)
        xs = np.linspace(0, 1, 13)
        np.testing.assert_allclose(g(xs), g(xs + 1.0), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-1e-20)
    def test_translate_omega_in_unit_interval(self, omega):
        assert 0.0 <= Translate(omega, cosine()).omega < 1.0

    @settings(max_examples=30, deadline=None)
    @given(small_specs())
    def test_serialization_round_trip(self, f):
        f2 = spec_from_dict(json.loads(f.to_json()))
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(f(xs), f2(xs), atol=0)
