"""Ergodic optimization for circle expanding maps x -> d*x (mod 1).

The toolkit solves the calibrated sub-action equation with a max-transfer
operator, measures convexity defects, constructs Sturmian measures of the
doubling map, and machine-checks the sufficient conditions under which the
maximizing measure of an observable is uniquely Sturmian.
"""

from .torus import (
    AntisymmetricExtension,
    Cosine,
    FunctionSpec,
    GridFunction,
    Negate,
    PiecewisePoly,
    Scale,
    Sum,
    Translate,
    enclose,
    lipschitz_estimate,
    refine_linear,
    sample,
    spec_from_dict,
    symmetries,
)
from .convexity import (
    ConvexityReport,
    convexity_defect,
    pointwise_defect,
    uniform_defect,
)
from .transfer import (
    PeriodicOrbit,
    PeriodicOrbitTable,
    SubactionSolution,
    beta_lower_bound,
    calibration_residual,
    max_transfer,
    solve_calibrated,
)
from .sturmian import (
    SturmianCertificate,
    SturmianMeasure,
    antipodal_difference,
    best_sturmian,
    preimage_branch_bound,
    sturmian_certificate,
    sturmian_measure,
    sturmian_word,
)
from .criteria import (
    KAPPA,
    CriterionReport,
    ScanResult,
    TranslateRow,
    check_class_a,
    check_class_b,
    check_kappa,
    check_theorem_sturm,
    scan_translates,
    search_c,
)

__version__ = "0.1.0"
