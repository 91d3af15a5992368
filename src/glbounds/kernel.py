"""Piecewise quadratic kernel and the exact error-functional identity.

The error functional

    E(lam, f) = (lam - 1) f((a+b)/2) - lam (f(a) + f(b))/2 + (1/(b-a)) int_a^b f

equals (b-a)^2 times the kernel-weighted integral of f'' over the unit
interval. Both sides are computed independently here so the equality can be
verified numerically for any parsed expression. lam is a plain float, which
lhs_functional, rhs_identity and verify_identity check first. The kernel k
is written once, in the integrand of the kernel side (_kernel_integrand).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .coefficients import _check_lambda
from .expressions import Node, _compile_jet, _compile_value
from .quadrature import Interval, QuadratureError, integrate, integrate_piecewise

__all__ = [
    "IdentityReport",
    "FunctionalTerms",
    "functional_terms",
    "lhs_functional",
    "rhs_identity",
    "verify_identity",
]


class IdentityReport(NamedTuple):
    lhs: float
    rhs: float
    abs_diff: float


def _kernel_integrand(
    jet: Callable[[float], tuple[float, float, float]], a: float, b: float, lam: float
) -> Callable[[float], float]:
    """t -> k(t) f''(t a + (1 - t) b), f'' read from jet; the one coding of k.

    k is piecewise quadratic on [0, 1]; t = 1/2 is served by the first
    branch. The second branch writes its last factor as
    (1/2 - lam) + (1/2 - t) so both branches agree bitwise at the joint for
    every lam.
    """

    def integrand(t: float) -> float:
        if t <= 0.5:
            k = 0.5 * t * (t - lam)
        else:
            k = 0.5 * (1.0 - t) * ((0.5 - lam) + (0.5 - t))
        return k * jet(t * a + (1.0 - t) * b)[2]

    return integrand


class FunctionalTerms(NamedTuple):
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
    f = _compile_value(e)
    m = iv.midpoint  # raises where it overflows, before f is sampled
    fa = f(iv.a)
    fb = f(iv.b)
    fm = f(m)
    integral = integrate(f, iv)
    return FunctionalTerms(fa, fb, fm, integral, iv.width)


def lhs_functional(e: Node, iv: Interval, lam: float) -> float:
    """Quadrature error functional E(lam, f) with the integral taken numerically."""
    _check_lambda(lam)
    return functional_terms(e, iv).at(lam)


def rhs_identity(e: Node, iv: Interval, lam: float) -> float:
    """Kernel-weighted integral of f'' over [0, 1], scaled by width^2.

    The integral is cut at t = 1/2 only (integrate_piecewise), where k
    changes branch; lam and 1 - lam are zeros of k, not kinks, so they need
    no cut. A QuadratureError from this integral, a sum past the float range
    included, is raised again with a prefix saying that its panel is in t; a
    sample that is not finite is named by its t and by the x = t a + (1 - t) b
    where f'' was read.
    """
    _check_lambda(lam)
    w = iv.width
    integrand = _kernel_integrand(_compile_jet(e), iv.a, iv.b, lam)
    try:
        total = integrate_piecewise(integrand, Interval(0.0, 1.0), [0.5])
    except QuadratureError as exc:
        why = str(exc)
        if getattr(exc, "sample", None):
            t, y = exc.sample
            why = f"function returned non-finite value {y!r} at t={t!r} (x={t * iv.a + (1.0 - t) * iv.b!r})"
        raise type(exc)(f"kernel integral over t in [0, 1]: {why}") from exc
    return w * w * total


def verify_identity(e: Node, iv: Interval, lam: float) -> IdentityReport:
    """Compute both sides of the identity and their absolute difference."""
    _check_lambda(lam)
    lhs = lhs_functional(e, iv, lam)
    rhs = rhs_identity(e, iv, lam)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))
