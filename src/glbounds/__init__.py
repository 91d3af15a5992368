"""Quadrature error bounds over the Godunova-Levin function class.

A single parameter lambda in [0, 1] blends the midpoint (0), Simpson (1/3),
averaged midpoint-trapezoid (1/2) and trapezoid (1) rules. For twice
differentiable f whose |f''|^q belongs to the Godunova-Levin class, the
quadrature error admits closed-form bounds built from |f''| at the endpoints.
This package implements the exact error identity, the bound coefficients and
evaluators, a membership falsification checker, and the numeric oracles that
verify all of it.
"""

from .bounds import (
    BoundInput,
    BoundReport,
    MembershipStatus,
    Proposition,
    corollary_bound_q1,
    evaluate_bound_report,
    proposition_bound,
    sweep_rows,
    theorem_bound,
)
from .coefficients import CoefficientSet, Regime, coefficient_set
from .corpus import CorpusEntry, ExpectedMembership, corpus_entries
from .expressions import (
    DomainError,
    ExpressionError,
    Jet2,
    NonSmoothError,
    ParseError,
    compile_expression,
    evaluate,
    evaluate_jet2,
    parse,
)
from .kernel import (
    IdentityReport,
    kernel_k,
    lhs_functional,
    rhs_identity,
    verify_identity,
)
from .qclass import (
    QClassReport,
    Violation,
    check_expression,
    check_godunova_levin,
    membership_for_bound,
)
from .quadrature import (
    DepthExhaustedError,
    EvalBudgetError,
    Interval,
    NonFiniteValueError,
    QuadratureError,
    integrate,
    integrate_piecewise,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInput",
    "BoundReport",
    "CoefficientSet",
    "CorpusEntry",
    "DepthExhaustedError",
    "DomainError",
    "EvalBudgetError",
    "ExpectedMembership",
    "ExpressionError",
    "IdentityReport",
    "Interval",
    "Jet2",
    "MembershipStatus",
    "NonFiniteValueError",
    "NonSmoothError",
    "ParseError",
    "Proposition",
    "QClassReport",
    "QuadratureError",
    "Regime",
    "Violation",
    "check_expression",
    "check_godunova_levin",
    "coefficient_set",
    "compile_expression",
    "corollary_bound_q1",
    "corpus_entries",
    "evaluate",
    "evaluate_bound_report",
    "evaluate_jet2",
    "integrate",
    "integrate_piecewise",
    "kernel_k",
    "lhs_functional",
    "membership_for_bound",
    "parse",
    "proposition_bound",
    "rhs_identity",
    "sweep_rows",
    "theorem_bound",
    "verify_identity",
]
