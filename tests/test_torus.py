import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleopt import (
    AntisymmetricExtension,
    Cosine,
    FunctionSpec,
    GridFunction,
    Negate,
    PiecewisePoly,
    Scale,
    Sum,
    Translate,
    convexity_defect,
    enclose,
    lipschitz_estimate,
    refine_linear,
    sample,
    spec_from_dict,
    symmetries,
)
from circleopt import torus
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
from circleopt.torus import _mod1, _refine_into, _weight_plan, jumps

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


def _broadcast_refine(v, factor):
    """Broadcast form of the interpolation, the bitwise reference for the residue fill."""
    w = np.arange(factor) / factor
    return (v[:, None] * (1.0 - w) + np.roll(v, -1)[:, None] * w).ravel()


def _hard_values(n, seed):
    """Signed values from 1e-300 to 1e300 with -0.0 and subnormals mixed in."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 301, n).astype(float)
    v *= rng.choice([-1.0, 1.0], n)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310]
    for i, x in zip(rng.choice(n, size=min(n, len(special)), replace=False), special):
        v[i] = x
    return v


def _fill(v, factor, add=None):
    """The interleaved fine grid from the residue fill, every buffer pre-poisoned with NaN."""
    n = v.size
    out = np.full(factor * n, np.nan)
    products = np.full((len(_weight_plan(factor)[0]), n + 1), np.nan)
    rows_add = None if add is None else add.reshape(n, factor).T.copy()
    _refine_into(np.append(v, np.nan), out.reshape(n, factor).T, products, rows_add)
    return out


class TestRefineFill:
    @pytest.mark.parametrize("factor", [2, 3, 5])
    @pytest.mark.parametrize("n", [4, 7, 4096, 3**7])
    def test_bitwise_equal_to_broadcast(self, factor, n):
        # between nodes the broadcast interpolant's bits; at the nodes v's own
        # bits, where the broadcast's v*1.0 + v[i+1]*0.0 differs only by
        # turning some -0.0 into +0.0
        v = _hard_values(n, seed=factor * 10007 + n)
        out = _fill(v, factor)
        ref = _broadcast_refine(v, factor)
        moved = _bits(ref[::factor]) != _bits(v)
        assert np.all(_bits(v[moved]) == _bits(-0.0))
        ref[::factor] = v
        assert np.array_equal(_bits(out), _bits(ref))

    @pytest.mark.parametrize("factor", [2, 3, 5])
    @pytest.mark.parametrize("n", [4, 7, 4096, 3**7])
    def test_added_samples_bitwise_equal_to_broadcast_sum(self, factor, n):
        # the solver's form: f + (interpolated g), g free of -0.0 (its invariant)
        v = _hard_values(n, seed=factor * 10007 + n) + 0.0
        rng = np.random.default_rng(n + factor)
        add = rng.normal(size=factor * n)
        add[rng.choice(factor * n, size=min(factor * n, 8), replace=False)] = [0.0, -0.0] * 4
        out = _fill(v, factor, add)
        assert np.array_equal(_bits(out), _bits(add + _broadcast_refine(v, factor)))

    @pytest.mark.parametrize("factor", [2, 3, 4, 5, 7])
    def test_weight_plan_shares_only_bitwise_equal_weights(self, factor):
        weights, pairs = _weight_plan(factor)
        assert len(set(weights)) == len(weights)
        for k, (lo, hi) in enumerate(pairs, 1):
            assert weights[lo] == 1.0 - k / factor and weights[hi] == k / factor
        shared = sum(1.0 - k / factor == (factor - k) / factor for k in range(1, factor))
        assert len(weights) == 2 * (factor - 1) - shared
        if factor == 2:
            assert weights == (0.5,)

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_refine_linear_unchanged(self, factor):
        g = sample(Sum((cosine(), Scale(0.3, Cosine(3, 0.4)))), 96)
        out = refine_linear(g, factor).values
        ref = _broadcast_refine(g.values, factor)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))

    def test_refine_linear_copies_signed_zero_nodes(self):
        g = GridFunction(np.array([-0.0, 1.0, -0.0, -2.0, 0.0, -0.0]))
        out = refine_linear(g, 2).values
        assert np.array_equal(_bits(out[::2]), _bits(g.values))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# signed zeros, subnormals, tiny negatives that reduce to 1.0, values just
# below an integer, the half-integers where the spacing is 1/2, and huge values
_MOD1_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, -1e-17, -2.0**-54,
    1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.0, -1.0, 0.5, -0.5, 3.7, -3.7,
    2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**53, 1e300, -1e300,
]


class TestMod1:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    @example(_MOD1_EDGES)
    def test_bitwise_numpy_remainder(self, xs):
        x = np.array(xs)
        assert np.array_equal(_bits(_mod1(x)), _bits(x % 1.0))

    def test_every_node_kind_unchanged_under_numpy_remainder(self, monkeypatch):
        half = PiecewisePoly((0.0, 0.25), ((0.0, 4.0), (2.0, -4.0)), wrap=False)
        specs = [
            Cosine(3, 0.4),
            tent(),
            Sum((cosine(), Scale(0.3, Cosine(2, 1.0)))),
            Scale(-1.7, Cosine(2, 0.1)),
            Translate(0.3, quadratic_extremal()),
            Negate(Translate(0.7, tent())),
            AntisymmetricExtension(half),
        ]
        xs = np.concatenate([np.linspace(-3.0, 3.0, 4097), np.arange(512) / 512, _MOD1_EDGES[:10]])
        grid = sample(quadratic_extremal(), 96)

        def evaluate():
            out = [f(xs) for f in specs] + [grid(xs)]
            return out + [np.array([f(x) for x in (-1e-17, 0.3, -2.5)]) for f in specs]

        fast = evaluate()
        monkeypatch.setattr(torus, "_mod1", lambda x: x % 1.0)
        ref = evaluate()
        for a, b in zip(fast, ref):
            assert np.array_equal(_bits(a), _bits(b))


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


# each numeric spec parameter, built with one value put in
NUMERIC_FIELDS = {
    "Cosine.phase": lambda x: Cosine(1, x),
    "Scale.factor": lambda x: Scale(x, cosine()),
    "Translate.omega": lambda x: Translate(x, cosine()),
    "PiecewisePoly breakpoints": lambda x: PiecewisePoly((0.0, x), ((0.0,), (1.0,))),
    "PiecewisePoly coefficients": lambda x: PiecewisePoly((0.0, 0.5), ((0.0, 1.0), (x,))),
    "AntisymmetricExtension.v": lambda x: AntisymmetricExtension(cosine(), x),
}


class TestNonFiniteSpecs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_rejected_at_construction(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
            NUMERIC_FIELDS[field](bad)

    def test_first_breakpoint_named_finite(self):
        with pytest.raises(ValueError, match="breakpoints must be finite, got nan"):
            PiecewisePoly((math.nan,), ((1.0,),))

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind": "cos", "freq": 1, "phase": NaN}', "Cosine.phase"),
            ('{"kind": "scale", "factor": -Infinity, "inner": {"kind": "cos", "freq": 1}}',
             "Scale.factor"),
            ('{"kind": "translate", "omega": Infinity, "inner": {"kind": "cos", "freq": 1}}',
             "Translate.omega"),
            ('{"kind": "piecewise_poly", "breakpoints": [0.0, NaN], "coefficients": [[0], [1]]}',
             "PiecewisePoly breakpoints"),
            ('{"kind": "sum", "terms": [{"kind": "piecewise_poly", "breakpoints": [0.0],'
             ' "coefficients": [[1.0, Infinity]]}]}', "PiecewisePoly coefficients"),
            ('{"kind": "antisym_ext", "v": NaN, "half": {"kind": "cos", "freq": 1}}',
             "AntisymmetricExtension.v"),
        ],
        ids=["cos", "scale", "translate", "breakpoint", "coefficient", "antisym_ext"],
    )
    def test_json_literals_rejected(self, text, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            spec_from_dict(json.loads(text))


class TestSerialization:
    def test_round_trip(self):
        f = Sum((Scale(0.5, Translate(0.25, cosine())), quadratic_extremal()))
        f2 = spec_from_dict(json.loads(f.to_json()))
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
        _assert_csv_matches_reference(g.values)

    @pytest.mark.parametrize("n", [4, torus._CSV_BLOCK - 1, torus._CSV_BLOCK, torus._CSV_BLOCK + 1, 65536, 3**10])
    def test_grid_csv_blocks_match_one_format_per_row(self, n):
        # block edges: one short, exact, one over, several blocks
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
        v[: min(n, 6)] = [-0.0, 1e-300, 5e-324, 1e300, -1e300, 0.0][: min(n, 6)]
        v[-1] = -2.5e-320
        _assert_csv_matches_reference(v)


def _csv_reference(values) -> str:
    """g.csv as one ``%`` per row."""
    n = len(values)
    return "x,value\n" + "".join("%.12g,%.12g\n" % (i / n, v) for i, v in enumerate(values))


def _assert_csv_matches_reference(values) -> None:
    """to_csv equals ``_csv_reference``; a failure names the first row that
    differs, not a diff of the whole text."""
    got = GridFunction(values).to_csv().split("\n")
    want = _csv_reference(values).split("\n")
    assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None
    assert len(got) == len(want)


def _decimal_ties(parity: int, count: int = 64) -> np.ndarray:
    """Doubles (D + 1/2) * 10**k for k = -12..3 and 12-digit integers D of
    the given parity: exact ties of the 13th significant digit.

    With 2D + 1 = m * 5**-k for k < 0 (m odd), the tie is m * 2**(k - 1);
    for k >= 0 it is (2D + 1) * 10**k / 2.  Both are exact doubles.
    """
    rng = np.random.default_rng(parity)
    out = []
    for k in range(-12, 4):
        five = 5 ** max(-k, 0)
        found = 0
        while found < count:
            m = int(rng.integers(2 * 10**11 // five + 1, 2 * 10**12 // five)) | 1
            if (m * five - 1) // 2 % 2 == parity:
                out.append(math.ldexp(m, k - 1) if k < 0 else math.ldexp(m * 10**k, -1))
                found += 1
    return np.array(out)


class TestGridCsvText:
    """``to_csv`` against one ``%`` per row, on the values where exact
    %.12g rounding is hard: ties of the 13th digit, their neighbours,
    carries into the next decade and the values Python formats itself."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_floats(self, values):
        _assert_csv_matches_reference(values)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    def test_exact_ties_round_half_to_even(self, parity):
        v = _decimal_ties(parity)
        digits = [("%.12e" % x).split("e")[0].replace(".", "") for x in v]  # the 12 digits of D, then 5
        assert {d[-1] for d in digits} == {"5"} and {int(d[-2]) % 2 for d in digits} == {parity}
        _assert_csv_matches_reference(np.concatenate([v, -v]))

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["above", "below"])
    def test_tie_neighbours_round_to_their_side(self, parity, direction):
        _assert_csv_matches_reference(np.nextafter(_decimal_ties(parity), direction))

    def test_products_rounded_onto_a_tie_round_by_the_exact_product(self):
        # (F + 1/2) / 10**q times 10**q mostly rounds to the tie F + 1/2,
        # while the exact product lies above or below it
        rng = np.random.default_rng(11)
        q = rng.integers(1, 23, 2000)
        v = (rng.integers(10**11, 10**12, 2000) + 0.5) / 10.0**q
        t = v * 10.0**q
        assert np.count_nonzero(t - np.floor(t) == 0.5) > 1500
        _assert_csv_matches_reference(v)

    def test_decade_carries(self):
        lines = GridFunction([9.9999999999995e-05, 999999999999.5, -999999999999.5, 9.99999999999951]).to_csv()
        assert lines.splitlines()[1:] == ["0,0.0001", "0.25,1e+12", "0.5,-1e+12", "0.75,10"]

    def test_zeros_and_values_outside_the_arithmetic_range(self):
        tiny = np.finfo(float).smallest_subnormal
        v = [-0.0, 0.0, tiny, -3 * tiny, 1e-310, 1e-300, -1e300, 1e300, 1.7976931348623157e308,
             -1.7976931348623157e308, 9.99999999999e-12, 1e-11, 3.3e-15, 1e-20, 999999999999.0, 1e12]
        _assert_csv_matches_reference(v)
        assert GridFunction(v).to_csv().splitlines()[1:3] == ["0,-0", "0.0625,0"]

    @pytest.mark.parametrize("n", [2**j for j in range(1, 18)] + [3**j for j in range(1, 11)])
    def test_x_column(self, n):
        _assert_csv_matches_reference(np.zeros(n))

    def test_memory_peak_and_no_warning(self):
        # the formatter by % blocks that this one replaced peaked at about
        # 5.1 MB at this N; the 2 MB text and its parts take about 4 of it,
        # so the block temporaries must stay small
        n = 65536
        v = np.cos(TWO_PI * np.arange(n) / n) * 0.3
        v[::97] = np.resize([1e308, -1.7976931348623157e308, 5e-324], v[::97].size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the split of a and 10**p must not see 1e308
            _assert_csv_matches_reference(v)
            g = GridFunction(v)
            tracemalloc.start()
            try:
                g.to_csv()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 5.0e6


@st.composite
def small_specs(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Cosine(draw(st.integers(1, 4)), draw(st.floats(0, 6.28)))
    if kind == 1:
        return Scale(draw(st.floats(-2, 2)), Cosine(draw(st.integers(1, 3)), 0.0))
    return Translate(draw(st.floats(0, 1)), Cosine(draw(st.integers(1, 3)), 0.0))


_SCALAR_EDGES = [-0.0, 0.0, 1.0, -1.0, 1e-300, -1e-300, -1e-17, 0.5, 2.0**60,
                 -(2.0**52 + 0.5), 1e300, -1e300]
_LEAVES = [
    cosine(),
    Cosine(3, 0.4),
    tent(),
    constant(0.7),
    quadratic_extremal(),
    cosine_extremal_blend(0.5),
    flattened_cosine(0.02),
    AntisymmetricExtension(PiecewisePoly((0.0, 0.25), ((0.0, 4.0), (2.0, -4.0)), wrap=False)),
]


@st.composite
def spec_trees(draw, depth=2):
    """Catalog observables, seeded random draws, and every node kind over them."""
    kind = draw(st.integers(0, 5 if depth else 1))
    if kind == 0:
        return draw(st.sampled_from(_LEAVES))
    if kind == 1:
        make = draw(st.sampled_from([random_trig, random_antisym_even]))
        return make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    inner = draw(spec_trees(depth - 1))
    if kind == 2:
        return Scale(draw(st.floats(-3, 3)), inner)
    if kind == 3:
        return Translate(draw(st.floats(0, 1)), inner)
    if kind == 4:
        return Negate(inner)
    return Sum((inner, draw(spec_trees(depth - 1))))


class _Recording(FunctionSpec):
    """inner, recording every array of points it is evaluated at."""

    def __init__(self, inner):
        self.inner, self.points = inner, []

    def _eval(self, r):
        self.points.append(r.copy())
        return self.inner._eval(r)


class TestTranslateSamplesByRoll:
    @settings(max_examples=150, deadline=None)
    @given(spec_trees(), st.integers(2, 13), st.data())
    def test_roll_is_the_direct_evaluation_bitwise(self, f, j, data):
        n = 2**j
        t = Translate(data.draw(st.integers(0, n - 1)) / n, f)
        assert sample(t, n).values.tobytes() == t(np.arange(n) / n).tobytes()

    @pytest.mark.parametrize("n, rolled", [(64, True), (4096, True), (96, False), (100, False)])
    def test_only_power_of_two_grids_roll(self, n, rolled):
        # omega * n = n / 4 is an integer on all four grids
        spy = _Recording(cosine())
        t = Translate(0.25, spy)
        assert sample(t, n).values.tobytes() == t(np.arange(n) / n).tobytes()
        nodes = np.arange(n) / n
        assert spy.points[0].tobytes() == (nodes if rolled else _mod1(nodes - 0.25)).tobytes()

    def test_one_inner_evaluation_per_grid_across_translates(self):
        spy = _Recording(cosine())
        for j in range(8):
            for n in (64, 128):
                sample(Translate(j / 8, spy), n)
        assert [p.size for p in spy.points] == [64, 128]

    def test_equal_specs_with_signed_zeros_do_not_share_samples(self):
        plus, minus = Scale(0.0, Cosine(1)), Scale(-0.0, Cosine(1))
        assert plus == minus
        got = [sample(Translate(0.25, h), 64).values for h in (plus, minus)]
        assert got[1].tobytes() == Translate(0.25, minus)(np.arange(64) / 64).tobytes()
        assert got[0].tobytes() != got[1].tobytes()


def _joined(h):
    """h as the half-profile of an AntisymmetricExtension, at the level v
    that joins it: v = (h(0) + h(1/2)) / 2, so h(1/2) need not be 2v - h(0)
    to the bit."""
    return AntisymmetricExtension(h, (h(0.0) + h(0.5)) / 2.0)


class TestAntisymmetricEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.sampled_from([quadratic_extremal(), quadratic_extremal().derivative(),
                                   quadratic_extremal().derivative().derivative()]),
                  spec_trees().map(_joined)),
        st.lists(st.floats(0.0, 1.0), max_size=64),
    )
    def test_one_evaluation_is_the_two_evaluation_select_bitwise(self, f, rs):
        r = np.array(rs + [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0])
        # the former _eval: h over all of r and over (r - 1/2) mod 1, then a select
        with np.errstate(all="ignore"):
            lo = f.half._eval(r)
            hi = 2.0 * f.v - f.half._eval(_mod1(r - 0.5))
        assert f._eval(r).tobytes() == np.where(r < 0.5, lo, hi).tobytes()

    def test_half_profile_is_read_once_on_its_own_interval(self):
        spy = _Recording(quadratic_extremal().half)
        f = AntisymmetricExtension(spy, -1.0 / 16.0)
        spy.points.clear()  # the constructor reads h(0) and h(1/2)
        f(np.linspace(0.0, 1.0, 1001))
        assert len(spy.points) == 1
        assert spy.points[0].size == 1001
        assert spy.points[0].min() >= 0.0 and spy.points[0].max() <= 0.5

    def test_one_half_is_the_reflection_of_zero(self):
        # h(1/2) = 1e-12 joins h(0) = 0 at v = 0 within the join tolerance
        # only, so f(1/2) = 2v - f(0) = 0 tells the reflection from h(1/2)
        f = AntisymmetricExtension(PiecewisePoly((0.0,), ((0.0, 2e-12),), wrap=False), 0.0)
        assert f.half(0.5) == 1e-12
        assert f(0.5) == f(0.0) == 0.0


def _with_derivatives(f):
    """f and its first two symbolic derivatives, as far as they exist."""
    out = [f]
    for _ in range(2):
        try:
            f = f.derivative()
        except ValueError:
            break
        out.append(f)
    return out


class TestScalarEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(spec_trees(), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    def test_scalar_is_the_one_element_array_bitwise(self, f, xs):
        # a scalar goes through the array path as a 1-element array and
        # comes back as a Python float with the same bits
        for g in _with_derivatives(f) + [sample(f, 64)]:
            for x in xs + _SCALAR_EDGES:
                ref = g(np.array([x]))
                assert ref.shape == (1,) and ref.dtype == float
                for arg in (x, np.float64(x), np.asarray(x)):
                    got = g(arg)
                    assert type(got) is float
                    assert _bits(got) == _bits(ref[0])


# inners whose values include +0.0 and -0.0, which the negation swaps
_SIGNED_ZERO_INNERS = [Scale(0.0, cosine()), Scale(-0.0, cosine()), constant(0.0), constant(-0.0)]


class TestNegateNode:
    """A stored "negate" node is read as Scale(-1.0, inner), and no node writes one."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(spec_trees(), st.sampled_from(_SIGNED_ZERO_INNERS)),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16))
    @example(cosine(), [])
    @example(Scale(0.0, cosine()), [0.0, 0.5])
    @example(constant(-0.0), [0.3])
    def test_evaluates_as_the_negation_bitwise(self, inner, xs):
        node = spec_from_dict(json.loads(json.dumps({"kind": "negate", "inner": inner.to_dict()})))
        assert node.to_dict() == {"kind": "scale", "factor": -1.0, "inner": inner.to_dict()}
        x = np.concatenate([np.array(xs + _SCALAR_EDGES), np.arange(64) / 64])
        assert np.array_equal(_bits(node(x)), _bits(-inner(x)))
        assert node.nonsmooth_points() == inner.nonsmooth_points()
        try:
            d_inner = inner.derivative()
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                node.derivative()
        else:
            assert np.array_equal(_bits(node.derivative()(x)), _bits(-d_inner(x)))
            assert node.derivative().nonsmooth_points() == d_inner.nonsmooth_points()


def _second_or_none(f):
    try:
        return f.derivative().derivative()
    except ValueError:
        return None


class TestLipschitzEstimate:
    """lipschitz_estimate(f) bounds |f'| between the non-smooth points, read off the tree."""

    @settings(max_examples=100, deadline=None)
    @given(spec_trees())
    @example(Sum((constant(0.7), Scale(1e-10, cosine()))))
    @example(Scale(2.2250738585e-313, tent()))  # subnormal samples
    def test_bounds_the_slope_and_every_grid_slope(self, f):
        bound = lipschitz_estimate(f)
        dense = np.arange(2**16) / 2**16
        assert np.max(np.abs(f.derivative()(dense))) <= bound * (1.0 + 1e-12)
        for n in (64, 4096):
            g = sample(f, n)
            # a grid slope carries the rounding of its two samples, n times over; below
            # the normal range that rounding is absolute, up to one subnormal step each
            rounding = 1e-12 * max(bound, n * np.max(np.abs(g.values))) + 2 * n * np.finfo(float).smallest_subnormal
            assert g.lipschitz_estimate() <= bound + rounding

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=3, unique=True),
           st.lists(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5), min_size=4, max_size=4))
    @example([0.5], [[0.0, 0.0, 1.0], [0.0], [0.0], [0.0]])
    def test_is_the_slope_at_each_piece_end_for_nonnegative_coefficients(self, inner, coefs):
        # p' is increasing on [0, 1] when no coefficient is negative, so
        # its sup over the piece [b_i, b_{i+1}) is p'(b_{i+1}): the bound is attained
        breakpoints = (0.0,) + tuple(sorted(inner))
        f = PiecewisePoly(breakpoints, tuple(tuple(c) for c in coefs[:len(breakpoints)]), wrap=False)
        ends = breakpoints[1:] + (1.0,)
        poly = np.polynomial.polynomial
        sup = max(poly.polyval(hi, poly.polyder(c)) for c, hi in zip(f.coefficients, ends))
        assert lipschitz_estimate(f) == pytest.approx(sup, rel=1e-12, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=3, unique=True),
           st.lists(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3), min_size=4, max_size=4),
           st.booleans())
    def test_is_the_slope_sup_on_pieces_of_degree_at_most_two(self, inner, coefs, extended):
        # p' is linear on each piece [lo, hi], so sup |p'| is max(|p'(lo)|, |p'(hi)|);
        # an extension reads its half on [0, 1/2] only
        breakpoints = (0.0,) + tuple(sorted(inner))
        h = PiecewisePoly(breakpoints, tuple(tuple(c) for c in coefs[:len(breakpoints)]), wrap=False)
        end = 0.5 if extended else 1.0
        poly = np.polynomial.polynomial
        sup = max(abs(poly.polyval(x, poly.polyder(c))) for c, lo, hi in zip(h.coefficients, breakpoints,
                                                                               breakpoints[1:] + (1.0,))
                  if lo < end for x in (lo, min(hi, end)))
        f = AntisymmetricExtension(h, (h(0.0) + h(0.5)) / 2.0) if extended else h
        assert lipschitz_estimate(f) == pytest.approx(sup, rel=1e-12, abs=1e-12)

    def test_reads_each_node_kind(self):
        half = PiecewisePoly((0.0, 0.25), ((0.0, 0.0, -1.0), (0.125, -1.0, 1.0)), wrap=False)
        assert lipschitz_estimate(Cosine(3, 0.4)) == TWO_PI * 3
        # |p'| = |2x - 1| on the last piece [1/4, 1] peaks at 1; on [1/4, 1/2] it is 1/2, as on [0, 1/4]
        assert lipschitz_estimate(half) == 1.0
        assert lipschitz_estimate(quadratic_extremal()) == 0.5
        f = Sum((Scale(-0.5, Cosine(2)), Translate(0.3, AntisymmetricExtension(half, -1.0 / 16.0))))
        assert lipschitz_estimate(f) == 0.5 * TWO_PI * 2 + 0.5
        assert type(lipschitz_estimate(half)) is float

    def test_a_spec_outside_the_node_kinds_has_no_bound(self):
        with pytest.raises(TypeError, match="no slope bound for a _Recording"):
            lipschitz_estimate(_Recording(cosine()))

    @settings(max_examples=40, deadline=None)
    @given(spec_trees().filter(lambda f: _second_or_none(f) is not None), st.sampled_from([64, 256]))
    def test_eta_interval_holds_the_least_second_derivative_on_a_finer_mesh(self, f, n):
        rep = convexity_defect(f, "second_derivative", n)
        mesh = np.arange(1024 * n) / (1024 * n)
        assert -float(np.min(_second_or_none(f)(mesh))) <= rep.eta + rep.error_bound


def _identities_off_the_nodes(f):
    """The largest |f(x) + f(x + 1/2) - (f(0) + f(1/2))| and |f(-x) - f(x)| over
    4099 points, each (sqrt(2) - 1) / 4099 past a node i / 4099."""
    x = (np.arange(4099) + np.sqrt(2.0) - 1.0) / 4099
    s = f(x) + f(x + 0.5)
    return float(np.max(np.abs(s - (f(0.0) + f(0.5))))), float(np.max(np.abs(f(-x) - f(x))))


class TestSymmetries:
    """symmetries(f) claims an identity only where the tree shows it."""

    @settings(max_examples=200, deadline=None)
    @given(spec_trees())
    def test_each_claim_holds_off_the_nodes(self, f):
        anti, even = symmetries(f)
        scale = max(1.0, float(np.max(np.abs(f(np.arange(4096) / 4096)))))
        dev_anti, dev_even = _identities_off_the_nodes(f)
        assert not anti or dev_anti <= 1e-9 * scale
        assert not even or dev_even <= 1e-9 * scale

    @pytest.mark.parametrize("f, shown", [
        (cosine(), (True, True)),
        (quadratic_extremal(), (True, True)),
        (flattened_cosine(0.02), (True, True)),
        (cosine_extremal_blend(0.5), (True, True)),
        (random_antisym_even(np.random.default_rng(5)), (True, True)),
        (constant(0.5), (True, True)),
        (Scale(0.0, cosine()), (True, True)),
        (Cosine(3, 0.4), (True, False)),
        (Cosine(2), (False, True)),
        (Translate(1 / 3, cosine()), (True, False)),
        (AntisymmetricExtension(PiecewisePoly((0.0,), ((0.0, 0.0, 1.0),), wrap=False), 0.125), (True, False)),
        (tent(), (False, False)),
        # the corpus's entry A: cos(2 pi x) + 1e-7 (sin(2 pi 4096 x) - sin(2 pi 12288 x) / 3)
        (Sum((Cosine(1), Scale(1e-7, Cosine(4096, -math.pi / 2.0)), Scale(-1e-7 / 3.0, Cosine(12288, -math.pi / 2.0)))),
         (False, False)),
    ], ids=["cosine", "extremal", "flattened", "blend", "antisym-even", "constant", "zero-scaled-cosine",
            "phase", "even-frequency", "translate", "x2-half", "tent", "entry-a"])
    def test_reads_each_node_kind(self, f, shown):
        assert symmetries(f) == shown

    def test_x2_half_is_neither_mirrored_nor_even(self):
        # h(x) + h(1/2 - x) = x^2 + (1/2 - x)^2 is not constant: f(-x) - f(x) = x - 2 x^2
        # on [0, 1/2], 1/8 at x = 1/4
        f = AntisymmetricExtension(PiecewisePoly((0.0,), ((0.0, 0.0, 1.0),), wrap=False), 0.125)
        assert _identities_off_the_nodes(f)[1] > 0.1

    def test_mirror_is_read_in_rationals(self):
        # 0.5 - 0.1 rounds, so the ends 0.1 and 0.4 do not mirror exactly and even a
        # zero half is not shown even; nor is the extremal's half one ulp off its level
        zero = PiecewisePoly((0.0, 0.1, 0.5 - 0.1), ((0.0,), (0.0,), (0.0,)), wrap=False)
        assert symmetries(AntisymmetricExtension(zero, 0.0)) == (True, False)
        quad = quadratic_extremal()
        assert symmetries(AntisymmetricExtension(quad.half, quad.v + 2.0**-57)) == (True, False)

    def test_a_spec_outside_the_node_kinds_is_a_type_error(self):
        with pytest.raises(TypeError, match="no symmetries for a _Recording"):
            symmetries(_Recording(cosine()))


_TENT_SLOPE = tent().derivative()  # -1 on [0, 1/2), +1 on [1/2, 1)


class TestJumps:
    @settings(max_examples=200, deadline=None)
    @given(spec_trees())
    def test_jumps_of_f_prime_match_one_sided_samples(self, f):
        # f' 1e-7 either side of a point is within Lip(f') * 1e-7 of its one-sided
        # limits, whose step is the sum of the jumps within 1e-7 of the point
        first = f.derivative()
        found = jumps(first)
        slack = 2e-7 * lipschitz_estimate(first) + 1e-9
        for x, d in found.items():
            near = sum(e for y, e in found.items() if min(abs(y - x), 1.0 - abs(y - x)) < 1e-7)
            assert abs(first(x + 1e-7) - first(x - 1e-7) - near) <= slack, (x, d)
        falls = any(d < 0.0 for d in found.values())
        assert math.isinf(convexity_defect(f, "finite_difference", 64).eta) == falls

    @pytest.mark.parametrize("f, expected", [
        (cosine(), {}),
        (tent(), {0.5: 0.0, 0.0: 0.0}),
        (_TENT_SLOPE, {0.5: 2.0, 0.0: -2.0}),
        (Scale(-1.5, _TENT_SLOPE), {0.5: -3.0, 0.0: 3.0}),
        (Translate(0.25, _TENT_SLOPE), {0.75: 2.0, 0.25: -2.0}),
        (Sum((_TENT_SLOPE, Translate(0.5, _TENT_SLOPE))), {0.5: 0.0, 0.0: 0.0}),
        (_LEAVES[-1].derivative(), {0.0: 0.0, 0.5: 0.0, 0.25: -8.0, 0.75: 8.0}),
        (PiecewisePoly((0.0, 0.5), ((0.0,), (1.0,)), wrap=False), {0.5: 1.0}),
        (PiecewisePoly((0.0, 0.5), ((0.0,), (1e-10,))), {0.5: 0.0, 0.0: 0.0}),
    ], ids=["cosine", "tent", "tent-slope", "scale", "translate", "sum", "extension", "no-wrap",
            "within-join-tolerance"])
    def test_reads_each_node_kind(self, f, expected):
        assert jumps(f) == expected

    def test_a_spec_outside_the_node_kinds_is_a_type_error(self):
        with pytest.raises(TypeError, match="no jumps for a _Recording"):
            jumps(_Recording(cosine()))


class TestEnclose:
    """enclose(f, lo, hi) holds f on each cell, read off the tree."""

    @settings(max_examples=150, deadline=None)
    @given(spec_trees(), st.lists(st.tuples(st.floats(-1.5, 2.5), st.floats(0.0, 0.3)), min_size=1, max_size=6))
    def test_holds_f_on_a_finer_mesh_of_each_cell(self, f, cells):
        # random cells, and the cells of a 16-point grid and their halves shifted onto the
        # nodes, so that each non-smooth point at a multiple of 1/32 sits on an end or inside
        grid = np.arange(17) / 16
        lo = np.concatenate([[c for c, _ in cells], grid[:-1], grid[:-1] - 1 / 32])
        hi = np.concatenate([[c + w for c, w in cells], grid[1:], grid[:-1] + 1 / 32])
        low, high = enclose(f, lo, hi)
        for a, b, l, h in zip(lo, hi, low, high):
            v = f(np.linspace(a, b, 1025))
            assert l <= v.min() and v.max() <= h, (a, b)

    def test_a_far_cosine_cell_holds_the_phase_rounding(self):
        # 7 x + 987.6 / (2 pi) nears 0 on this cell, while each term rounds at the size of 157
        f, lo = Cosine(7, 987.6), -22.46
        low, high = enclose(f, [lo], [lo + 1e-3])
        v = f(np.linspace(lo, lo + 1e-3, 1025))
        assert low[0] <= v.min() and v.max() <= high[0]

    def test_a_cosine_cell_over_an_extremum_reads_it_exactly(self):
        # the phase 6 pi x + 0.4 of Cosine(3, 0.4) is 0 at x0 and pi at x0 + 1/6
        x0 = -0.4 / (3 * TWO_PI)
        mids = np.array([x0, x0 + 1 / 6])
        low, high = enclose(Cosine(3, 0.4), mids - 0.01, mids + 0.01)
        assert high[0] == 1.0 and low[1] == -1.0
        assert enclose(cosine(), [-0.01], [0.01])[1][0] == 1.0

    def test_an_extension_junction_holds_both_sides(self):
        # h(x) = 2e-12 x, v = 0: f is two-valued at 0 in floats, as the join tolerance allows
        f = AntisymmetricExtension(PiecewisePoly((0.0,), ((0.0, 2e-12),), wrap=False), 0.0)
        assert (f(-1e-20), f(0.0)) == (-1e-12, 0.0)
        low, high = enclose(f, [-1e-3, -1e-3], [1e-3, 0.0])
        assert np.all(low <= -1e-12) and np.all(high >= 0.0)

    @pytest.mark.parametrize("f, cell, expected", [
        (Scale(-2.0, cosine()), (0.2, 0.3), (-2.0 * math.cos(TWO_PI * 0.2), -2.0 * math.cos(TWO_PI * 0.3))),
        (Translate(0.25, cosine()), (0.2, 0.3), (math.cos(TWO_PI * 0.05), 1.0)),
        (Sum((constant(1.0), cosine())), (0.4, 0.6), (0.0, 1.0 + math.cos(TWO_PI * 0.4))),
        (tent(), (0.4, 0.7), (0.0, 0.2)),
        (PiecewisePoly((0.0, 0.5), ((0.0,), (1.0,)), wrap=True), (0.9, 1.1), (0.0, 1.0)),
        (_LEAVES[-1], (0.45, 0.55), (-0.2, 0.2)),  # h = 2 - 4x before 1/2, -h(x - 1/2) after it
    ], ids=["scale", "translate", "sum", "piece-split", "wrap", "extension"])
    def test_reads_each_node_kind(self, f, cell, expected):
        # matches the exact range up to outward rounding and the piece's midpoint form
        low, high = enclose(f, [cell[0]], [cell[1]])
        assert low[0] <= expected[0] <= low[0] + 1e-12 and high[0] - 1e-12 <= expected[1] <= high[0]

    def test_a_spec_outside_the_node_kinds_is_a_type_error(self):
        with pytest.raises(TypeError, match="no enclosure for a _Recording"):
            enclose(_Recording(cosine()), [0.0], [0.1])


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
