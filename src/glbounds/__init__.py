"""Quadrature error bounds over the Godunova-Levin function class.

A single parameter lambda in [0, 1] blends the midpoint (0), Simpson (1/3),
averaged midpoint-trapezoid (1/2) and trapezoid (1) rules. For twice
differentiable f whose |f''|^q belongs to the Godunova-Levin class, the
quadrature error admits closed-form bounds built from |f''| at the endpoints.
This package implements the exact error identity, the bound coefficients and
evaluators, a membership falsification checker, and the numeric oracles that
verify all of it.

`import glbounds` loads none of the package's modules. A public name is
read from its home module at each access, and that module is imported at
the first (PEP 562 module __getattr__). Each such module, and the
enclosure, is imported the same way at the first access by its own name,
so `glbounds.qclass` works after a bare `import glbounds`. A `glbounds`
command thus loads only the modules it runs (see glbounds.cli).
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "BoundInput": "bounds",
    "BoundReport": "bounds",
    "CoefficientSet": "coefficients",
    "CorpusEntry": "corpus",
    "Decision": "qclass",
    "DepthExhaustedError": "quadrature",
    "DomainError": "expressions",
    "EvalBudgetError": "quadrature",
    "ExpectedMembership": "corpus",
    "ExpressionError": "expressions",
    "IdentityReport": "kernel",
    "Interval": "quadrature",
    "NonFiniteValueError": "quadrature",
    "NonSmoothError": "expressions",
    "ParseError": "expressions",
    "Proposition": "bounds",
    "QClassReport": "qclass",
    "QuadratureError": "quadrature",
    "Regime": "coefficients",
    "Violation": "qclass",
    "check_expression": "qclass",
    "check_godunova_levin": "qclass",
    "coefficient_set": "coefficients",
    "compile_expression": "expressions",
    "corollary_bound_q1": "bounds",
    "corpus_entries": "corpus",
    "evaluate": "expressions",
    "evaluate_bound_report": "bounds",
    "evaluate_jet2": "expressions",
    "integrate": "quadrature",
    "integrate_piecewise": "quadrature",
    "lhs_functional": "kernel",
    "membership_for_bound": "qclass",
    "parse": "expressions",
    "proposition_bound": "bounds",
    "rhs_identity": "kernel",
    "sweep_rows": "bounds",
    "theorem_bound": "bounds",
    "verify_identity": "kernel",
}

__all__ = list(_HOMES)

# the modules reached by name: those of the public names, and the interval
# enclosure, which holds none but which qclass reaches through the package
_MODULES = {*_HOMES.values(), "enclosure"}


def __getattr__(name: str) -> object:
    # called only for a name the package does not hold: a public name is read
    # from its home module on every access, so it is always that module's own
    home = _HOMES.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _MODULES:  # importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
