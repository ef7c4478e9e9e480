import pytest

from circleopt.validate import (
    run_all,
    suite_branch_bound,
    suite_cone_laws,
    suite_defect_contraction,
    suite_derivative_gap,
    suite_orbit_closure,
    suite_transfer_laws,
)


class TestSuites:
    def test_cone_laws_clean(self):
        r = suite_cone_laws(seed=11, cases=40)
        assert r.violations == 0, r.detail
        assert r.cases >= 40

    def test_transfer_laws_clean(self):
        r = suite_transfer_laws(seed=12, cases=40)
        assert r.violations == 0, r.detail

    def test_defect_contraction_clean(self):
        r = suite_defect_contraction(seed=13, cases=40)
        assert r.violations == 0, r.detail

    def test_derivative_gap_clean(self):
        r = suite_derivative_gap(seed=14, cases=40)
        assert r.violations == 0, r.detail

    def test_orbit_closure_exhaustive(self):
        r = suite_orbit_closure()
        assert r.violations == 0
        # all reduced rotation numbers with q <= 50, 0/1 included
        assert r.cases == 1 + sum(
            sum(1 for p in range(1, q) if __import__("math").gcd(p, q) == 1)
            for q in range(2, 51)
        )

    def test_branch_bound_clean(self):
        r = suite_branch_bound(seed=15, cases=25)
        assert r.violations == 0, r.detail


class TestRunAll:
    def test_deterministic(self):
        a = [r.to_dict() for r in run_all(seed=3, cases=10)]
        b = [r.to_dict() for r in run_all(seed=3, cases=10)]
        assert a == b

    def test_all_pass_quick(self):
        results = run_all(seed=0, cases=25)
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert names == {
            "cone-laws",
            "transfer-laws",
            "defect-contraction",
            "derivative-gap",
            "orbit-closure",
            "branch-bound",
        }

    def test_no_cases_rejected(self):
        with pytest.raises(ValueError, match="cases must be >= 1"):
            run_all(seed=0, cases=0)
