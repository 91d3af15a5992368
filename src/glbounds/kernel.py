"""Piecewise quadratic kernel and the exact error-functional identity.

The error functional

    E(lam, f) = (lam - 1) f((a+b)/2) - lam (f(a) + f(b))/2 + (1/(b-a)) int_a^b f

equals (b-a)^2 times the kernel-weighted integral of f'' over the unit
interval. Both sides are computed independently here so the equality can be
verified numerically for any parsed expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import _check_lambda
from .expressions import Node, compile_expression
from .quadrature import Interval, QuadratureError, integrate, integrate_piecewise

__all__ = [
    "RuleParams",
    "IdentityReport",
    "FunctionalTerms",
    "kernel_k",
    "functional_terms",
    "lhs_functional",
    "rhs_identity",
    "verify_identity",
]


@dataclass(frozen=True)
class RuleParams:
    """Rule parameter in [0, 1]: 0 is midpoint, 1/3 Simpson, 1/2 averaged
    midpoint-trapezoid, 1 trapezoid."""

    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    abs_diff: float


def kernel_k(t: float, p: RuleParams) -> float:
    """Piecewise quadratic weight on [0, 1]; t = 1/2 is served by the first branch.

    The second branch writes its last factor as (1/2 - lam) + (1/2 - t) so both
    branches agree bitwise at the joint for every lam.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t!r}")
    lam = p.lam
    if t <= 0.5:
        return 0.5 * t * (t - lam)
    return 0.5 * (1.0 - t) * ((0.5 - lam) + (0.5 - t))


@dataclass(frozen=True)
class FunctionalTerms:
    """The lambda-free parts of E(lam, f): f at a, b and the midpoint, and int_a^b f."""

    fa: float
    fb: float
    fm: float
    integral: float
    width: float

    def at(self, lam: float) -> float:
        """E(lam, f); E is affine in lam, so one set of terms serves every lam."""
        return (lam - 1.0) * self.fm - lam * 0.5 * (self.fa + self.fb) + self.integral / self.width


def functional_terms(e: Node, iv: Interval) -> FunctionalTerms:
    """Evaluate f at a, b and the midpoint and integrate it numerically over iv."""
    f, _ = compile_expression(e)
    fa = f(iv.a)
    fb = f(iv.b)
    fm = f(iv.midpoint)
    integral = integrate(f, iv)
    return FunctionalTerms(fa, fb, fm, integral, iv.width)


def lhs_functional(e: Node, iv: Interval, p: RuleParams) -> float:
    """Quadrature error functional E(lam, f) with the integral taken numerically."""
    return functional_terms(e, iv).at(p.lam)


def rhs_identity(e: Node, iv: Interval, p: RuleParams) -> float:
    """Kernel-weighted integral of f'' over [0, 1], scaled by width^2.

    Cuts at lam, 1/2 and 1 - lam are always passed; integrate_piecewise drops
    the ones that land outside (0, 1) or coincide. A QuadratureError from this
    integral is raised again with a prefix saying that its panel is in t.
    """
    a, b = iv.a, iv.b
    w = iv.width
    _, jet = compile_expression(e)

    def integrand(t: float) -> float:
        return kernel_k(t, p) * jet(t * a + (1.0 - t) * b)[2]

    cuts = [p.lam, 0.5, 1.0 - p.lam]
    try:
        total = integrate_piecewise(integrand, Interval(0.0, 1.0), cuts)
    except QuadratureError as exc:
        raise type(exc)(f"kernel integral over t in [0, 1]: {exc}") from exc
    return w * w * total


def verify_identity(e: Node, iv: Interval, p: RuleParams) -> IdentityReport:
    """Compute both sides of the identity and their absolute difference."""
    lhs = lhs_functional(e, iv, p)
    rhs = rhs_identity(e, iv, p)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))
