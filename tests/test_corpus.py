"""A corpus of inputs that fool the checkers.

Each entry writes out its spec, makes the library call and asserts the
verdict that the truth allows, with the truth computed here: in closed
form, or on a mesh at least 1024 times finer than the checker's grid.  An
entry that the code still gets wrong is a strict xfail whose reason is the
measured fault; the change that mends it turns the xfail into a failure
and removes the marker.  ``TestTruths`` checks, without a marker, the facts
that the entries' verdicts rest on.
"""

import functools
import math

import numpy as np
import pytest

from circleopt import (
    Cosine,
    PiecewisePoly,
    Scale,
    Sum,
    check_class_a,
    check_class_b,
    check_kappa,
    check_theorem_sturm,
    convexity_defect,
    search_c,
    solve_calibrated,
)
from circleopt.catalog import random_trig
from circleopt.criteria import KAPPA

TWO_PI = 2.0 * math.pi


def _open(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _sin(k):
    """sin(2 pi k x) as a cosine node."""
    return Cosine(k, -math.pi / 2.0)


# Entry A: cos(2 pi x) + eps (sin(2 pi 4096 x) - sin(2 pi 12288 x) / 3).  The
# added term and its first two derivatives vanish at every node i/4096; its
# third derivative does not.  It is odd and unchanged by a shift of 1/2.
EPS_A = 1e-7
N_A = 4096
SPEC_A = Sum((Cosine(1, 0.0), Scale(EPS_A, _sin(4096)), Scale(-EPS_A / 3.0, _sin(12288))))
WINDOW_A = (-0.125, 0.125)


def _second_a(x):
    """f'' of entry A in closed form."""
    w1, w2, w3 = TWO_PI, TWO_PI * 4096, TWO_PI * 12288
    return (-w1**2 * np.cos(w1 * x)
            + EPS_A * (-w2**2 * np.sin(w2 * x) + w3**2 / 3.0 * np.sin(w3 * x)))


@functools.lru_cache(maxsize=None)
def _true_eta_a() -> float:
    """-min f'' of entry A on the 2^22 mesh, 1024 times the checkers' grid."""
    m, block = 2**22, 2**20
    return -min(float(_second_a(np.arange(lo, lo + block) / m).min()) for lo in range(0, m, block))


# Entry B: the half-square x^2 / 2 plus amp (sin(2 pi 3K x) / 3 - sin(2 pi K x)).
# The added h'' is 0 at every point of search_c's grid (spacing 1/K at
# grid_n = 10000); h'' = 1 + 0.15 (sin t - 3 sin 3t), t = 2 pi K x, spans [0.4, 1.6].
K_B = 40_000
AMP_B = 0.15 / (TWO_PI * K_B) ** 2
SPEC_B = Sum((
    PiecewisePoly((0.0,), ((0.0, 0.0, 0.5),), wrap=False),
    Scale(AMP_B / 3.0, _sin(3 * K_B)),
    Scale(-AMP_B, _sin(K_B)),
))


@functools.lru_cache(maxsize=None)
def _true_eta_b() -> float:
    """max h'' of entry B over [0, 1/4] on the 2^20 mesh, 1024 times search_c's grid."""
    t = TWO_PI * K_B * np.linspace(0.0, 0.25, 2**20 + 1)
    return float(np.max(1.0 + 0.15 * (np.sin(t) - 3.0 * np.sin(3.0 * t))))


def _drop_b() -> float:
    """h(1/4) of entry B: 1/32, since both sines vanish at 1/4 (K/4 is an integer)."""
    return 0.25**2 / 2.0


def _spec_d():
    """Entry D: the sixth draw of ``random_trig(default_rng(17))``, frequencies 3, 3, 3."""
    rng = np.random.default_rng(17)
    for _ in range(6):
        f = random_trig(rng)
    return f


class TestTruths:
    def test_entry_a_true_eta(self):
        assert _true_eta_a() == pytest.approx(304.41, abs=0.01)

    def test_entry_a_is_neither_even_nor_antisymmetric_off_the_nodes(self):
        # f(-x) - f(x) and f(x) + f(x + 1/2) are both 2 eps (sin(2 pi 4096 x) - sin(2 pi 12288 x) / 3),
        # against class B's identity tolerance 1e-10 * (range of f = 2)
        x = (np.arange(8 * N_A) + 0.5) / (8 * N_A)
        dev = 2.0 * EPS_A * np.abs(np.sin(TWO_PI * 4096 * x) - np.sin(TWO_PI * 12288 * x) / 3.0)
        assert dev.max() > 1000 * 1e-10 * 2.0

    def test_entry_a_window_margins_and_ratio_fail_at_the_true_eta(self):
        # |f| <= 1 + 4 eps / 3, so f(x) - f(x + 1/2) (sturm's R_positive before its
        # defect term) and 2 f(x) - v - max f (class A's A1, v = f(1/4) = 0) are
        # at most 2 + 3 eps, below the true eta / 96 everywhere in the window
        assert 2.0 + 3.0 * EPS_A < _true_eta_a() / 96.0
        assert (1.0 - 0.0) / _true_eta_a() < KAPPA  # (f(0) - f(1/4)) / eta

    def test_entry_b_drop_is_below_kappa_at_the_true_eta(self):
        assert _true_eta_b() == pytest.approx(1.6, abs=1e-9)
        assert _drop_b() - KAPPA * _true_eta_b() == pytest.approx(-0.0084, abs=1e-4)

    def test_entry_d_is_the_sixth_seed_17_draw(self):
        assert [t.inner.freq for t in _spec_d().terms] == [3, 3, 3]


class TestEntryA:
    @_open("the second-derivative eta reads 39.478 +- 0.0606 (exact_within_tolerance) "
           "at N = 4096 from the nodes alone; the true eta is 304.41")
    def test_eta_interval_holds_the_true_eta(self):
        rep = convexity_defect(SPEC_A, "second_derivative", N_A)
        assert rep.eta <= _true_eta_a() <= rep.eta + rep.error_bound

    @_open("class B passes: evenness and antisymmetry are read at the nodes only, "
           "where the added odd term vanishes (off them it deviates by 2.7e-7 and 5.3e-7)")
    def test_class_b_does_not_pass(self):
        assert check_class_b(SPEC_A, N_A).status != "pass"

    @_open("kappa passes with ratio 0.02533 from the node eta 39.478; "
           "the true ratio is 0.00329, below kappa = 0.02480")
    def test_kappa_does_not_pass(self):
        assert check_kappa(SPEC_A, N_A).status != "pass"

    @_open("class A passes on the window +-1/8 with eta/96 = 0.41; the true eta/96 is 3.17")
    def test_class_a_does_not_pass(self):
        rep = check_class_a(SPEC_A, *WINDOW_A, float(SPEC_A(0.25)), N_A)
        assert rep.status != "pass"

    @_open("theorem-sturm passes on the window +-1/8: R_positive reads 0.62 net of "
           "eta/96 = 0.41; the true eta/96 is 3.17")
    def test_theorem_sturm_does_not_pass(self):
        assert check_theorem_sturm(SPEC_A, *WINDOW_A, N_A).status != "pass"


@_open("search_c passes at c = 0.095125 reading eta = 1.0, the h'' of its grid; "
       "the true eta is 1.6, and h(1/4) - kappa * 1.6 = -0.0084")
def test_entry_b_search_c_does_not_pass():
    assert search_c(SPEC_B, 10_000).status != "pass"


@_open("the finite-difference kink test reads eta = +inf for Cosine(1000) at N = 4096")
def test_entry_c_finite_difference_eta_of_a_high_cosine_is_finite():
    rep = convexity_defect(Cosine(1000, 0.0), "finite_difference", 4096)
    assert math.isfinite(rep.eta) and rep.eta <= (TWO_PI * 1000) ** 2


@_open("the solve spends all 2000 sweeps with its step pinned at 3.625e-7, "
       "the gap between recurrent-class gains, instead of stopping as stalled")
def test_entry_d_stalled_solve_stops_before_max_iter():
    assert solve_calibrated(_spec_d(), d=2, grid_n=4096, max_iter=2000).iterations < 2000
