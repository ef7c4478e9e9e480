"""An exact oracle for the grid operator's gain at d = 2 and small N.

At d = 2 the solver's operator L maps g to the max over the two preimages
of a node of f + the interpolant of g, whose weights are 1 and 1/2.  Float
samples are exact binary fractions, so a policy, one preimage per node, is
a Markov chain with rational rewards and transitions.  Its gain and bias
solve a linear system in Fractions, and Howard's policy iteration (Howard
1960) from the solver's greedy policy ends at a policy whose gain and bias
satisfy the optimality equation exactly: that gain is L's.  Only the
unichain case is handled; a policy whose system is singular is multichain
(Cochet-Terrasson, Cohen, Gaubert, McGettrick & Quadrat 1998), and the
oracle returns None.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circleopt import GridFunction, Translate, refine_linear, sample, solve_calibrated
from circleopt.catalog import cosine, quadratic_extremal, random_trig
from circleopt.criteria import _reflect

HALF = Fraction(1, 2)


def _options(f, n):
    """Per node i and preimage t: the reward f at fine node t*n + i and the
    transitions of the interpolant there, as {node: weight}."""
    ff = sample(f, 2 * n).values
    options = []
    for i in range(n):
        row = []
        for t in (0, 1):
            q, k = divmod(t * n + i, 2)
            moves = {q % n: Fraction(1)} if k == 0 else {q % n: HALF, (q + 1) % n: HALF}
            row.append((Fraction(float(ff[t * n + i])), moves))
        options.append(row)
    return options


def _evaluate(options, policy):
    """(gain, bias with bias[0] = 0) of a policy, or None if its system is singular.

    Unknowns are the gain and bias[1:]; equation i is
    gain + bias[i] - sum_q P[i, q] bias[q] = reward[i]."""
    n = len(policy)
    rows = []
    for i, t in enumerate(policy):
        reward, moves = options[i][t]
        a = [Fraction(0)] * n
        a[0] = Fraction(1)  # the gain's column; bias[0] = 0 has none
        if i:
            a[i] += 1
        for q, w in moves.items():
            if q:
                a[q] -= w
        rows.append(a + [reward])
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                m = rows[r][col] / p[col]
                rows[r] = [x - m * y for x, y in zip(rows[r], p)]
    x = [rows[i][n] / rows[i][i] for i in range(n)]
    return x[0], [Fraction(0)] + x[1:]


def exact_gain(f, n, g):
    """The gain of the d = 2 grid operator of f on n nodes, by policy
    iteration from the greedy policy of the grid function g; None when a
    policy on the way is multichain."""
    options = _options(f, n)
    fine = sample(f, 2 * n).values + refine_linear(GridFunction(np.asarray(g, dtype=float)), 2).values
    policy = [int(b > a) for a, b in zip(fine[:n], fine[n:])]
    for _ in range(4 * n):
        evaluated = _evaluate(options, policy)
        if evaluated is None:
            return None
        gain, bias = evaluated
        values = [[r + sum(w * bias[q] for q, w in m.items()) for r, m in opts] for opts in options]
        better = [t if v[t] >= v[1 - t] else 1 - t for t, v in zip(policy, values)]
        if better == policy:
            # the optimality equation holds exactly: gain + bias = max over preimages
            assert all(gain + b == max(v) for b, v in zip(bias, values))
            return gain
        policy = better
    raise AssertionError("policy iteration did not end")


def _holds(sol, gain):
    return Fraction(sol.beta_lo) <= gain <= Fraction(sol.beta_hi)


@pytest.mark.parametrize(
    "f, n, exact",
    [(cosine(), 16, Fraction(1)), (cosine(), 64, Fraction(1)), (quadratic_extremal(), 32, Fraction(0)),
     (Translate(0.3, cosine()), 32, None)],
    ids=["cosine-16", "cosine-64", "quadratic-extremal-32", "translate-32"],
)
def test_bracket_holds_the_exact_gain(f, n, exact):
    sol = solve_calibrated(f, d=2, grid_n=n)
    gain = exact_gain(f, n, sol.g.values)
    assert sol.converged and gain is not None
    assert exact is None or gain == exact
    assert _holds(sol, gain)
    # the midpoint is within half the width, below tol/2: for the translate,
    # an end of the bracket lies 0.69 tol from the gain
    assert abs(Fraction(sol.beta) - gain) < Fraction(sol.tol) / 2


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_holds_the_exact_gain_of_random_trig_draws(seed):
    f = random_trig(np.random.default_rng(seed))
    sol = solve_calibrated(f, d=2, grid_n=32)
    gain = exact_gain(f, 32, sol.g.values)
    assume(gain is not None)
    assert sol.converged and _holds(sol, gain)


def test_bracket_at_float_resolution_holds_the_exact_gain():
    # tol far below reach: the bracket narrows to rounding, 9e-15 wide, and
    # stalls; its widening by the sweep's rounding bound still holds the gain
    f = random_trig(np.random.default_rng(3))
    sol = solve_calibrated(f, d=2, grid_n=32, tol=1e-300, max_iter=400)
    assert not sol.converged and sol.iterations < 400
    assert _holds(sol, exact_gain(f, 32, sol.g.values))


def test_cold_and_mirrored_solves_of_one_row_agree_within_tol():
    # random_trig(default_rng(7))'s 8th draw, translate 10/16 at N = 4096: a
    # cold solve and one from the reflected sub-action of translate 6/16
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = random_trig(rng)
    cold = solve_calibrated(Translate(10 / 16, f), d=2, grid_n=4096)
    partner = solve_calibrated(Translate(6 / 16, f), d=2, grid_n=4096)
    warm = solve_calibrated(Translate(10 / 16, f), d=2, grid_n=4096, g0=_reflect(partner.g))
    assert cold.converged and warm.converged
    assert max(cold.beta_lo, warm.beta_lo) <= min(cold.beta_hi, warm.beta_hi)
    assert abs(cold.beta - warm.beta) < cold.tol
