"""Each named refusal that no other test reaches, one case each.

The spec-grammar refusals are reached through ``spec_from_dict``, since
they guard input that comes from outside the program.
"""

import json

import numpy as np
import pytest

from circleopt import (
    GridFunction,
    antipodal_difference,
    best_sturmian,
    beta_lower_bound,
    calibration_residual,
    convexity_defect,
    max_transfer,
    preimage_branch_bound,
    refine_linear,
    sample,
    search_c,
    solve_calibrated,
    spec_from_dict,
)
from circleopt.catalog import constant, cosine, cosine_extremal_blend
from circleopt.cli import main

G64 = sample(cosine(), 64)
G128 = sample(cosine(), 128)


def _poly(breakpoints, coefficients):
    return {"kind": "piecewise_poly", "breakpoints": breakpoints, "coefficients": coefficients}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cosine_extremal_blend(1.5), r"^blend weight must lie in \[0, 1\]$"),
        (lambda: convexity_defect(cosine(), "exact"), r"^unknown mode 'exact'$"),
        (lambda: convexity_defect(G64, "second_derivative"),
         r"^second_derivative mode needs a symbolic spec with two derivatives$"),
        (lambda: search_c(constant(1.0), 64), r"^profile has nonpositive curvature bound; search undefined$"),
        (lambda: antipodal_difference(G64, G128), r"^grid sizes disagree: 64 vs 128$"),
        (lambda: preimage_branch_bound(cosine(), G64, 0.1, 1), r"^need n >= 2$"),
        (lambda: spec_from_dict(_poly([], [])), r"^PiecewisePoly breakpoints must start at 0\.0$"),
        (lambda: spec_from_dict(_poly([0.1], [[1.0]])), r"^PiecewisePoly breakpoints must start at 0\.0$"),
        (lambda: spec_from_dict(_poly([0.0, 0.5, 0.4], [[1.0], [1.0], [1.0]])),
         r"^PiecewisePoly breakpoints must be strictly increasing in \[0,1\)$"),
        (lambda: spec_from_dict(_poly([0.0, 1.0], [[1.0], [1.0]])),
         r"^PiecewisePoly breakpoints must be strictly increasing in \[0,1\)$"),
        (lambda: spec_from_dict(_poly([0.0, 0.5], [[1.0]])), r"^need one coefficient tuple per piece$"),
        (lambda: spec_from_dict(_poly([0.0], [[]])), r"^empty coefficient tuple$"),
        (lambda: spec_from_dict({"kind": "sum", "terms": []}), r"^Sum needs at least one term$"),
        (lambda: spec_from_dict({"freq": 1}),
         r"^function spec node must be an object with a 'kind' tag, got \{'freq': 1\}$"),
        (lambda: spec_from_dict([1.0]), r"^function spec node must be an object with a 'kind' tag, got \[1\.0\]$"),
        (lambda: GridFunction(np.zeros((2, 2))), r"^GridFunction needs a 1-d array of at least 2 values$"),
        (lambda: GridFunction(np.zeros(1)), r"^GridFunction needs a 1-d array of at least 2 values$"),
        (lambda: refine_linear(G64, 0), r"^refinement factor must be >= 1$"),
        (lambda: max_transfer(G64, 1), r"^branch count d must be >= 2, got 1$"),
        (lambda: calibration_residual(G64, G128, 0.0, 2), r"^grid sizes disagree: 64 vs 128$"),
        (lambda: solve_calibrated(cosine(), d=1, grid_n=64), r"^branch count d must be >= 2, got 1$"),
        (lambda: solve_calibrated(cosine(), grid_n=64, g0=G128), r"^g0 grid size 128 != 64$"),
        (lambda: beta_lower_bound(cosine(), 2, max_period=0), r"^max_period must be >= 1$"),
    ],
    ids=[
        "blend-weight", "eta-mode", "eta-second-derivative-on-a-grid", "search-c-flat-profile",
        "antipodal-grid-sizes", "branch-depth", "breakpoints-empty", "breakpoints-start",
        "breakpoints-order", "breakpoints-range", "coefficient-count", "coefficients-empty",
        "sum-empty", "node-without-kind", "node-not-an-object", "grid-2d", "grid-one-value",
        "refine-factor", "transfer-branches", "residual-grid-sizes", "solve-branches",
        "warm-start-grid-size", "orbit-period",
    ],
)
def test_refused_with_a_named_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# two cosines of amplitude 1e308 whose sum overflows to +inf near x = 0
OVERFLOWING_SUM = {
    "kind": "sum",
    "terms": [
        {"kind": "scale", "factor": 1e308, "inner": {"kind": "cos", "freq": 1, "phase": phase}}
        for phase in (0.0, 0.1)
    ],
}


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_best_sturmian_refuses_an_integral_that_is_not_finite():
    with pytest.raises(ValueError, match=r"^Sturmian integral over 0/1 = inf is not finite$"):
        best_sturmian(spec_from_dict(OVERFLOWING_SUM), 4)


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_sturmian_command_refuses_an_integral_that_is_not_finite(tmp_path, capsys):
    spec = tmp_path / "overflow.json"
    spec.write_text(json.dumps(OVERFLOWING_SUM))
    out = tmp_path / "out"
    assert main(["sturmian", "--p", "0", "--q", "1", "--spec", str(spec), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: Sturmian integral over 0/1 = inf is not finite\n"
    assert not out.exists()
