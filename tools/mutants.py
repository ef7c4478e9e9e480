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
        "kappa ratio bound set to 0",
        "criteria.py",
        '{"ratio_above_kappa": abs(ratio) * 1e-6}',
        '{"ratio_above_kappa": 0.0}',
        ("tests/test_criteria.py::TestKappa::test_ratio_within_its_bound_is_inconclusive",),
    ),
    Mutant(
        "second-derivative route's error_bound set to 0",
        "convexity.py",
        "error_bound=lip2 / grid_n,",
        "error_bound=0.0,",
        ("tests/test_convexity.py::TestConvexityDefect::test_second_derivative_bound_covers_the_offset_peak",),
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
        "min_delta_nodes without its kink-test room refusal",
        "convexity.py",
        "if 2 * m > n // 2:",
        "if False:",
        ("tests/test_convexity.py::TestConvexityDefect::test_min_delta_nodes_without_room_for_the_kink_test[20]",),
    ),
    Mutant(
        "kink test reads the second shift's score",
        "convexity.py",
        "score[0] > 1.6 * s2m",
        "score[1] > 1.6 * s2m",
        ("tests/test_convexity.py::TestConvexityDefect::test_kink_flags_infinite",),
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
         "test_signed_zero_start_moves_only_a_one_sweep_zero_beta",),
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
        "if math.isfinite(float(np.abs(acc, out=tmp).max())):",
        "if True:",
        ("tests/test_transfer.py::TestExtrapolation::test_non_finite_correction_is_not_applied",),
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
        ".reshape(count, q).mean(axis=1)",
        ".reshape(q, count).T.mean(axis=1)",
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
        "rotation number p = q accepted",
        "sturmian.py",
        "p >= q",
        "p > q",
        ("tests/test_sturmian.py::TestSturmianMeasure::test_rejects_p_equal_to_q",),
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
