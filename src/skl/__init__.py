"""Shape-blended Schurer-Kantorovich approximation operators.

The package evaluates a family of positive linear operators built from a
blended Bernstein-type basis with local integral sampling, computes their
raw and central moments by exact summation, estimates moduli of
continuity, and assembles the published error bounds.  A command-line
surface regenerates the reference table and figures and runs the
verification suites; see ``skl --help``.

The package root exports the four names of the README's library example
and the error types; every other name is imported from its own module,
for example ``from skl.bivariate import apply_bi``.
"""

from .analysis import bound_thm33
from .errors import DomainError, EvaluationError, UsageError
from .univariate import OperatorConfig, apply, oracle_central_moments

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EvaluationError",
    "OperatorConfig",
    "UsageError",
    "apply",
    "bound_thm33",
    "oracle_central_moments",
]
