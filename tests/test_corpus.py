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
import json
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
    symmetries,
)
from circleopt.catalog import random_trig
from circleopt.cli import main
from circleopt.criteria import KAPPA

TWO_PI = 2.0 * math.pi


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


# Entry E: cos(2 pi x) + eps [(4N+1) cos 2 pi (N+1) x - 2 (3N+1) cos 2 pi (3N+1) x + (2N+1) cos 2 pi (5N+1) x].
# At a node of the N- or 2N-grid the three cosines are equal (up to one sign for all three), and the
# coefficients a_k and a_k f_k^2 both sum to 0, so the added term and its f'' vanish there.  Every
# frequency is odd with phase 0: the tree shows f even and antisymmetric.
N_E = 4096
EPS_E = 1e-10 / (2 * (3 * N_E + 1))
_TERMS_E = ((1.0, 1), (EPS_E * (4 * N_E + 1), N_E + 1), (-EPS_E * 2 * (3 * N_E + 1), 3 * N_E + 1),
            (EPS_E * (2 * N_E + 1), 5 * N_E + 1))
SPEC_E = Sum(tuple(Cosine(k) if a == 1.0 else Scale(a, Cosine(k)) for a, k in _TERMS_E))


def _second_e(x):
    """f'' of entry E in closed form."""
    return sum(-a * (TWO_PI * k) ** 2 * np.cos(TWO_PI * k * x) for a, k in _TERMS_E)


@functools.lru_cache(maxsize=None)
def _true_second_e() -> tuple[float, float]:
    """-min f'' of entry E, and max f'' strictly inside (-1/4, 1/4), on the 2^22 mesh, 1024 times the grid."""
    m, block = 2**22, 2**20
    least, inside = math.inf, -math.inf
    for lo in range(0, m, block):
        x = np.arange(lo, lo + block) / m
        v = _second_e(x)
        least = min(least, float(v.min()))
        inside = max(inside, float(v[np.abs(np.where(x >= 0.5, x - 1.0, x)) < 0.25].max(initial=-math.inf)))
    return -least, inside


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

    def test_entry_e_vanishes_at_the_nodes_and_its_tree_shows_both_identities(self):
        # the added term and its f'' at the 2N-grid nodes, whose even half is the N grid
        x = np.arange(2 * N_E) / (2 * N_E)
        base = np.cos(TWO_PI * x), -(TWO_PI**2) * np.cos(TWO_PI * x)
        assert np.max(np.abs(SPEC_E(x) - base[0])) < 1e-15
        assert np.max(np.abs(SPEC_E.derivative().derivative()(x) - base[1])) < 1e-10
        assert symmetries(SPEC_E) == (True, True)

    def test_entry_e_true_eta_and_ratio_fall_below_kappa(self):
        eta, _ = _true_second_e()
        assert eta == pytest.approx(40.56, abs=0.01)  # against 4 pi^2 = 39.48 at the nodes
        drop = SPEC_E(0.0) - SPEC_E(0.25)
        assert drop / eta - KAPPA == pytest.approx(-1.49e-4, abs=0.02e-4)

    def test_entry_e_is_convex_inside_the_window(self):
        # class B's concavity on (-1/4, 1/4) fails between the nodes
        assert _true_second_e()[1] == pytest.approx(1.15, abs=0.02)

    def test_entry_d_is_the_sixth_seed_17_draw(self):
        assert [t.inner.freq for t in _spec_d().terms] == [3, 3, 3]


class TestEntryA:
    def test_eta_interval_holds_the_true_eta(self):
        rep = convexity_defect(SPEC_A, "second_derivative", N_A)
        assert rep.eta <= _true_eta_a() <= rep.eta + rep.error_bound

    def test_class_b_does_not_pass(self):
        assert check_class_b(SPEC_A, N_A).status != "pass"

    def test_kappa_does_not_pass(self, tmp_path):
        # class B reads "inconclusive" (no violation witnessed), and so does kappa
        assert check_kappa(SPEC_A, N_A).status == "inconclusive"
        spec = tmp_path / "a.json"
        spec.write_text(json.dumps(SPEC_A.to_dict()))
        argv = ["check", "--criterion", "kappa", "--spec", str(spec), "--n", str(N_A), "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_class_a_does_not_pass(self):
        rep = check_class_a(SPEC_A, *WINDOW_A, float(SPEC_A(0.25)), N_A)
        assert rep.status != "pass"

    def test_theorem_sturm_does_not_pass(self):
        assert check_theorem_sturm(SPEC_A, *WINDOW_A, N_A).status != "pass"


class TestEntryE:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: class B reads concavity at the 2N-grid nodes "
                                           "only, where the added f'' vanishes; max f'' inside the window is +1.15")
    def test_class_b_does_not_pass(self):
        assert check_class_b(SPEC_E, N_E).status != "pass"

    def test_kappa_does_not_pass(self):
        # the node eta is 4 pi^2; the cell enclosure of f'' holds the true 40.56
        rep = check_kappa(SPEC_E, N_E)
        assert rep.tolerances["eta"] <= _true_second_e()[0] <= rep.tolerances["eta_upper"]
        assert rep.status == "inconclusive"


def test_entry_b_search_c_does_not_pass():
    assert search_c(SPEC_B, 10_000).status != "pass"


def test_entry_c_finite_difference_eta_of_a_high_cosine_is_finite():
    rep = convexity_defect(Cosine(1000, 0.0), "finite_difference", 4096)
    assert math.isfinite(rep.eta) and rep.eta <= (TWO_PI * 1000) ** 2


def test_entry_d_stalled_solve_stops_before_max_iter():
    # its bracket stops moving at about 3.6e-7 wide, the gap between the
    # gains of two recurrent classes, far above tol
    sol = solve_calibrated(_spec_d(), d=2, grid_n=4096, max_iter=2000)
    assert not sol.converged and sol.iterations < 300
    assert sol.beta_hi - sol.beta_lo > 100 * sol.tol
