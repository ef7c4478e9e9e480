"""Check that the tests kill a committed list of one-line mutants of src/.

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/circleopt``, a text that
occurs in it exactly once, the text that replaces it, and the test node ids
that must fail once it is replaced.  For each entry the tool copies the
``src`` beside this script to a temporary directory, applies the mutant
there and runs pytest on the named tests with that copy first on
``PYTHONPATH``.  A mutant is killed when pytest reports a failed test; it
survives when the tests pass.  The survivors are printed, and the exit
status is 1 on any.  A mutant whose text is not found once, or whose tests
do not run (a collection error, no test collected), is an error, not a
survivor.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST_FAILED = 1  # pytest's exit code when tests ran and some failed


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "R_positive bound without its Lipschitz term",
        "criteria.py",
        "grid_n, 3.0 * lip, eta_rep, 96.0)",
        "grid_n, 0.0, eta_rep, 96.0)",
        ("tests/test_criteria.py::TestTheoremSturm::test_thin_positivity_margin_is_inconclusive",),
    ),
    Mutant(
        "window margin bound without eta's error bound",
        "criteria.py",
        " + eta_rep.error_bound / share",
        "",
        ("tests/test_criteria.py::TestTheoremSturm::test_slope_margin_within_eta_share_nets_to_at_most_zero",),
    ),
    Mutant(
        "A2_slope bound set to 0",
        "criteria.py",
        '"A2_slope": bound2}',
        '"A2_slope": 0.0}',
        ("tests/test_criteria.py::TestClassA::test_thin_slope_margin_nets_to_at_most_zero",),
    ),
    Mutant(
        "fmax_err set to 0",
        "criteria.py",
        "fmax_err = lip / (4 * grid_n) / 2.0",
        "fmax_err = 0.0",
        ("tests/test_criteria.py::TestClassA::test_window_gap_reads_max_f_from_above",),
    ),
    Mutant(
        "kappa ratio bound read at the node eta",
        "criteria.py",
        '{"ratio_above_kappa": ratio - drop / eta_hi}',
        '{"ratio_above_kappa": ratio - drop / eta}',
        ("tests/test_criteria.py::TestKappa::test_ratio_within_its_bound_is_inconclusive",),
    ),
    Mutant(
        "second-derivative route's error_bound set to 0",
        "convexity.py",
        "error_bound=lipschitz_estimate(second) * (1.0 / (2 * grid_n) + 1e-9),",
        "error_bound=0.0,",
        ("tests/test_convexity.py::TestConvexityDefect::test_second_derivative_bound_covers_the_offset_peak",),
    ),
    Mutant(
        "search_c's eta radius set to 0",
        "criteria.py",
        "radius = lipschitz_estimate(hpp) * (0.125 / grid_n + 1e-9)",
        "radius = 0.0",
        ("tests/test_corpus.py::test_entry_b_search_c_does_not_pass",),
    ),
    Mutant(
        "piece slope bound read at the midpoint only",
        "torus.py",
        "* r ** (k - 1)",
        "* 0.0 ** (k - 1)",
        ("tests/test_torus.py::TestLipschitzEstimate::"
         "test_is_the_slope_at_each_piece_end_for_nonnegative_coefficients",),
    ),
    Mutant(
        "extension's half bounded on [0, 1] instead of [0, 1/2]",
        "torus.py",
        "f, end = f.half, 0.5",
        "f, end = f.half, 1.0",
        ("tests/test_torus.py::TestLipschitzEstimate::test_reads_each_node_kind",),
    ),
    Mutant(
        "identity bound between nodes set to 0",
        "criteria.py",
        "0.0 if shown[k] else lipschitz_estimate(f) / grid_n",
        "0.0",
        ("tests/test_corpus.py::TestEntryA::test_class_b_does_not_pass",),
    ),
    Mutant(
        "antisymmetry spread bounded at one end only",
        "criteria.py",
        '    bounds["antisymmetry"] *= 2.0',
        "    pass",
        ("tests/test_criteria.py::TestClassB::test_identities_the_tree_cannot_show_are_bounded_between_nodes",),
    ),
    Mutant(
        "A0_identity bound set to 0",
        "criteria.py",
        '{"A0_identity": bound0["antisymmetry"],',
        '{"A0_identity": 0.0,',
        ("tests/test_criteria.py::TestClassA::test_identity_bound_is_zero_only_where_the_tree_shows_it[even-frequency]",),
    ),
    Mutant(
        "cosine evenness that ignores the phase",
        "torus.py",
        "return f.freq % 2 == 1, f.phase == 0.0",
        "return f.freq % 2 == 1, True",
        ("tests/test_torus.py::TestSymmetries::test_reads_each_node_kind[phase]",),
    ),
    Mutant(
        "extension's mirror check replaced by True",
        "torus.py",
        "isinstance(f.half, PiecewisePoly) and _mirrors(f.half, f.v)",
        "isinstance(f.half, PiecewisePoly) and True",
        ("tests/test_torus.py::TestSymmetries::test_reads_each_node_kind[x2-half]",),
    ),
    Mutant(
        "certificate band edge excluded",
        "sturmian.py",
        "mask = np.abs(r.values) <= epsilon_r",
        "mask = np.abs(r.values) < epsilon_r",
        ("tests/test_sturmian.py::TestCertificate::test_a_node_on_the_band_edge_is_in_the_band",),
    ),
    Mutant(
        "f'' reader without its non-finite refusal",
        "convexity.py",
        "    if bad.size:",
        "    if False:",
        (
            "tests/test_convexity.py::TestConvexityDefect::test_overflowing_second_derivative_is_refused[auto]",
            "tests/test_convexity.py::TestConvexityDefect::"
            "test_second_derivative_route_refuses_a_non_finite_one_sided_value",
            "tests/test_criteria.py::test_overflowing_half_profile_is_refused",
            "tests/test_cli.py::test_overflowing_second_derivative_exits_3[classB]",
        ),
    ),
    Mutant(
        "min_delta_nodes without its no-shift refusal",
        "convexity.py",
        "if m > n // 2:",
        "if False:",
        ("tests/test_convexity.py::TestConvexityDefect::test_min_delta_nodes_past_half_the_grid_is_refused[40]",),
    ),
    Mutant(
        "min_delta_nodes = N/2 refused",
        "convexity.py",
        "if m > n // 2:",
        "if m >= n // 2:",
        ("tests/test_convexity.py::TestConvexityDefect::test_min_delta_nodes_up_to_half_the_grid_is_read[32]",),
    ),
    Mutant(
        "a fall of f' read as a rise",
        "convexity.py",
        "any(d < 0.0 for d in jumps(f.derivative()).values())",
        "any(d > 0.0 for d in jumps(f.derivative()).values())",
        ("tests/test_convexity.py::test_eta_is_infinite_exactly_where_the_tree_falls[convex-kink-finite_difference]",),
    ),
    Mutant(
        "a refused derivative read as finite",
        "convexity.py",
        "            falls = True",
        "            falls = False",
        ("tests/test_convexity.py::test_eta_is_infinite_exactly_where_the_tree_falls[jump-auto]",),
    ),
    Mutant(
        "a step within the join tolerance read as a jump",
        "torus.py",
        "d if abs(d) > tol else 0.0",
        "d",
        ("tests/test_torus.py::TestJumps::test_reads_each_node_kind[within-join-tolerance]",),
    ),
    Mutant(
        "an extension's mirrored jumps keep their sign",
        "torus.py",
        "b + 0.5: -d for b, d",
        "b + 0.5: d for b, d",
        ("tests/test_torus.py::TestJumps::test_reads_each_node_kind[extension]",),
    ),
    Mutant(
        "finite-difference route without its overflow refusal",
        "convexity.py",
        "    if not finite.all():",
        "    if False:",
        (
            "tests/test_convexity.py::TestConvexityDefect::"
            "test_finite_difference_route_refuses_an_overflowing_score",
            "tests/test_cli.py::test_overflowing_score_or_tolerance_exits_3[eta-finite-difference]",
        ),
    ),
    Mutant(
        "solve without its cross-check tolerance refusal",
        "cli.py",
        "    if not math.isfinite(cross_tol):",
        "    if False:",
        ("tests/test_cli.py::test_overflowing_score_or_tolerance_exits_3[solve]",),
    ),
    Mutant(
        "usage error exits with argparse's code",
        "cli.py",
        "return EXIT_ERROR if exc.code else EXIT_PASS",
        "return exc.code",
        ("tests/test_cli.py::TestParser::test_usage_error_exits_3_without_run_dir[unknown-mode]",),
    ),
    Mutant(
        "mirrored scan start without its roll",
        "criteria.py",
        "np.roll(g.values[::-1], 1)",
        "g.values[::-1]",
        ("tests/test_criteria.py::TestScanTranslates::test_certificates_equal_the_composed_oracle[cosine]",),
    ),
    Mutant(
        "orbit table keeps non-minimal rotations of a period",
        "transfer.py",
        "keep = x > reps",
        "keep = x >= reps",
        ("tests/test_transfer.py::TestBetaLowerBound::test_exact_periods_no_duplicates",),
    ),
    Mutant(
        "orbit points laid out in Fortran order",
        "transfer.py",
        "f(points / m)",
        "f(np.asfortranarray(points / m))",
        ("tests/test_transfer.py::TestOrbitTableArrays::test_matches_the_object_built_table[cosine-2-16]",),
    ),
    Mutant(
        "orbit table without its non-finite refusal",
        "transfer.py",
        "            if bad.size:",
        "            if False:",
        ("tests/test_transfer.py::TestOrbitTableArrays::test_first_non_finite_average_is_refused_by_its_orbit[nan]",),
    ),
    Mutant(
        "warm start keeps -0.0",
        "transfer.py",
        "np.add(g, 0.0, out=g)",
        "pass",
        ("tests/test_transfer.py::TestSweepMatchesBroadcastReference::"
         "test_signed_zero_start_moves_only_zeros_halved_from_subnormals",),
    ),
    Mutant(
        "extrapolation without its safeguard",
        "transfer.py",
        "if step >= before:",
        "if False:",
        ("tests/test_transfer.py::TestExtrapolation::test_safeguard_stops_extrapolating_once_the_step_grows",),
    ),
    Mutant(
        "extrapolation applies a non-finite correction",
        "transfer.py",
        "if math.isfinite(size):",
        "if True:",
        ("tests/test_transfer.py::TestExtrapolation::test_non_finite_correction_is_not_applied",),
    ),
    Mutant(
        "bracket ends not widened by the sweep's rounding",
        "transfer.py",
        "widening, f_max = 8.0 * math.ulp(1.0),",
        "widening, f_max = 0.0,",
        ("tests/test_exact_gain.py::test_bracket_at_float_resolution_holds_the_exact_gain",),
    ),
    Mutant(
        "stall stop disabled",
        "transfer.py",
        "if still >= _STALL_WINDOW and",
        "if False and",
        ("tests/test_corpus.py::test_entry_d_stalled_solve_stops_before_max_iter",),
    ),
    Mutant(
        "stall stop without its policy-lock test",
        "transfer.py",
        " and _STALL_WINDOW * (upper - lower) < 2.0 * gap:",
        ":",
        ("tests/test_transfer.py::TestStallStop::test_resting_bracket_with_a_policy_in_motion_converges",),
    ),
    Mutant(
        "stall bracket kept across an extrapolation",
        "transfer.py",
        "                since_lo, since_hi = -math.inf, math.inf\n",
        "",
        ("tests/test_transfer.py::TestStallStop::test_stall_window_restarts_at_each_extrapolation",),
    ),
    Mutant(
        "beta reported as the bracket's upper end",
        "transfer.py",
        "beta = (lo + hi) / 2.0",
        "beta = hi",
        ("tests/test_exact_gain.py::test_bracket_holds_the_exact_gain[translate-32]",),
    ),
    Mutant(
        "convergence read off the running bracket",
        "transfer.py",
        "if upper - lower < tol:",
        "if hi - lo < tol:",
        ("tests/test_transfer.py::TestSolveCalibrated::test_converged_residual_is_below_tol[cosine-2-4096]",),
    ),
    Mutant(
        "translate samples rolled the wrong way",
        "torus.py",
        "_inner_node_values(f.inner, n), int(f.omega * n))",
        "_inner_node_values(f.inner, n), -int(f.omega * n))",
        ("tests/test_torus.py::TestTranslateSamplesByRoll::test_only_power_of_two_grids_roll[64-True]",),
    ),
    Mutant(
        "translate samples remembered by equality",
        "torus.py",
        "last[0] is inner",
        "last[0] == inner",
        ("tests/test_torus.py::TestTranslateSamplesByRoll::test_equal_specs_with_signed_zeros_do_not_share_samples",),
    ),
    Mutant(
        "g.csv tie decided without the two-product error term",
        "torus.py",
        "np.where(err == 0.0, mant[ties], t + np.sign(err) * 0.5)",
        "mant[ties]",
        ("tests/test_torus.py::TestGridCsvText::test_products_rounded_onto_a_tie_round_by_the_exact_product",),
    ),
    Mutant(
        "g.csv tie rounded half up instead of to even",
        "torus.py",
        "mant = np.rint(t)",
        "mant = np.floor(t + 0.5)",
        ("tests/test_torus.py::TestGridCsvText::test_exact_ties_round_half_to_even[even]",),
    ),
    Mutant(
        "g.csv without the carry into the next decade",
        "torus.py",
        "carry = mant == 1e12",
        "carry = mant > 1e12",
        ("tests/test_torus.py::TestGridCsvText::test_decade_carries",),
    ),
    Mutant(
        "g.csv arithmetic range widened to 1e-30",
        "torus.py",
        "fast = (a >= 1e-11) & (a < 1e12)",
        "fast = (a >= 1e-30) & (a < 1e12)",
        ("tests/test_torus.py::TestGridCsvText::test_zeros_and_values_outside_the_arithmetic_range",),
    ),
    Mutant(
        "antisymmetric extension folds only r > 1/2",
        "torus.py",
        "upper = r >= 0.5",
        "upper = r > 0.5",
        ("tests/test_torus.py::TestAntisymmetricEvaluation::test_one_half_is_the_reflection_of_zero",),
    ),
    Mutant(
        "best Sturmian without its tie tolerance",
        "sturmian.py",
        "integrals[i] > best_val + 1e-12 * (1.0 + abs(best_val))",
        "integrals[i] > best_val",
        ("tests/test_sturmian.py::TestBestSturmian::test_constant_ties_break_to_smallest_denominator",),
    ),
    Mutant(
        "Sturmian integrals averaged across orbits",
        "sturmian.py",
        ".reshape(count, q), axis=1) / q",
        ".reshape(q, count).T, axis=1) / q",
        ("tests/test_sturmian.py::TestOrbitTable::test_matches_per_orbit_loop[8]",),
    ),
    Mutant(
        "best Sturmian without its non-finite refusal",
        "sturmian.py",
        "    if bad.size:",
        "    if False:",
        ("tests/test_refusals.py::test_best_sturmian_refuses_an_integral_that_is_not_finite",),
    ),
    Mutant(
        "branch cap refuses n = 20",
        "sturmian.py",
        "if n > 20:",
        "if n >= 20:",
        ("tests/test_sturmian.py::TestPreimageBranchBound::test_branch_cap",),
    ),
    Mutant(
        "rotation number p = q accepted",
        "sturmian.py",
        "p >= q",
        "p > q",
        ("tests/test_sturmian.py::TestSturmianMeasure::test_rejects_p_equal_to_q",),
    ),
    Mutant(
        "cosine enclosure ignoring an interior extremum",
        "torus.py",
        "np.where(top, 1.0, np.minimum(np.maximum(ca, cb) + 4.0 * _EPS, 1.0))",
        "np.minimum(np.maximum(ca, cb) + 4.0 * _EPS, 1.0)",
        ("tests/test_torus.py::TestEnclose::test_a_cosine_cell_over_an_extremum_reads_it_exactly",),
    ),
    Mutant(
        "cosine enclosure without its phase slack",
        "torus.py",
        "slack = 8.0 * _EPS * (size + abs(p) + 1.0)",
        "slack = 0.0",
        ("tests/test_torus.py::TestEnclose::test_a_far_cosine_cell_holds_the_phase_rounding",),
    ),
    Mutant(
        "extension enclosure reading the next half-period with the cell's parity",
        "torus.py",
        "(k + on) % 2 == 1",
        "k % 2 == 1",
        ("tests/test_torus.py::TestEnclose::test_reads_each_node_kind",),
    ),
    Mutant(
        "negation built as a scale by +1",
        "torus.py",
        "return Scale(-1.0, inner)",
        "return Scale(1.0, inner)",
        ("tests/test_torus.py::TestNegateNode::test_evaluates_as_the_negation_bitwise",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's text in its file under ``src``, in place."""
    path = src / "circleopt" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant, src: Path) -> bool:
    """Whether the mutant's tests fail on a mutated copy of ``src``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, PYTEST_FAILED):
        raise RuntimeError(f"{mutant.name}: the tests did not run (pytest exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == PYTEST_FAILED


def survivors(mutants, src: Path) -> list[Mutant]:
    """The mutants whose tests pass, in list order."""
    return [m for m in mutants if not killed(m, src)]


def main() -> int:
    alive = survivors(MUTANTS, ROOT / "src")
    for m in alive:
        print(f"survived: {m.name} ({m.file}: {m.old!r} -> {m.new!r})")
    print(f"{len(MUTANTS)} mutants: " + (f"{len(alive)} survived" if alive else "all killed"))
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
