"""Shape-blended Schurer-Kantorovich approximation operators.

The package evaluates a family of positive linear operators built from a
blended Bernstein-type basis with local integral sampling, computes their
raw and central moments on two independent paths, estimates moduli of
continuity, and assembles the published error bounds.  A command-line
surface regenerates the reference table and figures and runs the
verification suites; see ``skl --help``.
"""

from .analysis import (
    LipschitzParams,
    WeightedNormReport,
    bound_thm33,
    bound_thm41,
    bound_thm71,
    bound_thm72,
    korovkin_defects,
    moment_defect_curve,
    point_delta,
    weighted_convergence,
)
from .basis import BasisParams, basis_row, basis_rows, bernstein_rows
from .bivariate import (
    BiCentralMomentSet,
    BiMomentSet,
    BivariateConfig,
    SeparableFunction,
    SurfaceTable,
    apply_bi,
    bi_central_moments,
    bi_moments,
    surface_table,
    window_deltas,
)
from .errors import DomainError, EvaluationError, UsageError
from .functions import Expression, ExpressionError, parse_expression, resolve_function
from .modulus import (
    ModulusEstimate,
    ModulusScan,
    SurfaceModulus,
    modulus,
    modulus_scan,
    partial_moduli,
    surface_modulus,
)
from .numerics import Grid, integrate_unit, unit_grid
from .reports import (
    AuditRecord,
    AuditReport,
    AuditSummary,
    CheckResult,
    RunConfig,
    Table1Result,
    VerifyResult,
    cmd_figure,
    cmd_table1,
    cmd_verify,
    run_audit,
    table1_errors,
)
from .univariate import (
    CentralMomentSet,
    ErrorTable,
    MomentSet,
    OperatorConfig,
    apply,
    central_moments,
    error_curve,
    moments_closed,
    monomial_kantorovich_integral,
    monomial_moment,
    oracle_central_moments,
    oracle_moments,
    window_integrals,
)

__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "AuditReport",
    "AuditSummary",
    "BasisParams",
    "BiCentralMomentSet",
    "BiMomentSet",
    "BivariateConfig",
    "CentralMomentSet",
    "CheckResult",
    "DomainError",
    "ErrorTable",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "Grid",
    "LipschitzParams",
    "ModulusEstimate",
    "ModulusScan",
    "MomentSet",
    "OperatorConfig",
    "RunConfig",
    "SeparableFunction",
    "SurfaceModulus",
    "SurfaceTable",
    "Table1Result",
    "UsageError",
    "VerifyResult",
    "WeightedNormReport",
    "apply",
    "apply_bi",
    "basis_row",
    "basis_rows",
    "bernstein_rows",
    "bi_central_moments",
    "bi_moments",
    "bound_thm33",
    "bound_thm41",
    "bound_thm71",
    "bound_thm72",
    "central_moments",
    "cmd_figure",
    "cmd_table1",
    "cmd_verify",
    "error_curve",
    "integrate_unit",
    "korovkin_defects",
    "moment_defect_curve",
    "moments_closed",
    "modulus",
    "modulus_scan",
    "monomial_kantorovich_integral",
    "monomial_moment",
    "oracle_central_moments",
    "oracle_moments",
    "parse_expression",
    "partial_moduli",
    "point_delta",
    "resolve_function",
    "run_audit",
    "surface_modulus",
    "surface_table",
    "table1_errors",
    "unit_grid",
    "weighted_convergence",
    "window_deltas",
    "window_integrals",
]
