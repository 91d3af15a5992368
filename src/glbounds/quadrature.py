"""Interval primitives and the adaptive quadrature oracle.

Every closed form in the package is cross-checked against ``integrate`` /
``integrate_piecewise``; keep this layer boring and well tested.

ABS_TOL, MAX_DEPTH and MAX_EVALS are decided here only: every integral in
the package is taken to an estimated absolute error of ABS_TOL (split evenly
across the pieces of a piecewise integral) within MAX_DEPTH bisections and
MAX_EVALS evaluations of the integrand, or it raises a QuadratureError. The
budget bounds the run time of every call; the depth cap alone allowed about
2**MAX_DEPTH samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Interval",
    "QuadratureError",
    "DepthExhaustedError",
    "EvalBudgetError",
    "NonFiniteValueError",
    "integrate",
    "integrate_piecewise",
]

ScalarFunction = Callable[[float], float]

ABS_TOL = 1e-10
MAX_DEPTH = 50
MAX_EVALS = 2**17  # evaluations of f per integrate() call


class QuadratureError(Exception):
    pass


class DepthExhaustedError(QuadratureError):
    """Requested tolerance unreachable within the recursion cap."""


class EvalBudgetError(QuadratureError):
    """Requested tolerance unreachable within MAX_EVALS evaluations."""


class NonFiniteValueError(QuadratureError):
    """The sampled function returned inf or nan."""


@dataclass(frozen=True)
class Interval:
    """Integration domain [a, b] with a < b, both finite and a finite width b - a."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a!r}, {self.b!r}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a!r}, {self.b!r}]")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval width overflows, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


def _sample(f: ScalarFunction, x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise NonFiniteValueError(f"function returned non-finite value {y!r} at x={x!r}")
    return y


def integrate(f: ScalarFunction, iv: Interval, abs_tol: float = ABS_TOL) -> float:
    """Integral of f over iv with estimated absolute error <= abs_tol.

    Adaptive bisection with a local Simpson estimate; the error indicator is
    the difference between one- and two-panel refinements, so cubics are
    integrated exactly at the first level.

    f is evaluated at most MAX_EVALS times: a split that would pass that
    budget raises EvalBudgetError, and a panel still unresolved after
    MAX_DEPTH bisections raises DepthExhaustedError. Both name the panel's
    tolerance and its ends, in the coordinates of f. A panel whose Simpson
    estimates are not finite because its midpoint or a weighted sum of f's
    values overflows, which no halving mends, raises NonFiniteValueError
    naming its ends at once. So does an integral whose converged panels add
    up past the float range, naming iv.
    """
    a, b = iv.a, iv.b
    fa = _sample(f, a)
    fm = _sample(f, 0.5 * (a + b))
    fb = _sample(f, b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    # 3 samples so far and 2 more in the first _refine
    return _finite_integral(_refine(f, a, b, fa, fm, fb, whole, abs_tol, MAX_DEPTH, [5]), iv)


def _finite_integral(total: float, iv: Interval) -> float:
    if not math.isfinite(total):
        raise NonFiniteValueError(f"integral over [{iv.a!r}, {iv.b!r}] overflows: {total!r}")
    return total


def _refine(
    f: ScalarFunction,
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
    evals: list[int],
) -> float:
    # evals[0] counts the samples of f this integrate() call has taken or
    # committed to: each split commits the two samples of each half, so the
    # budget is checked only where a panel splits and leaves pay nothing
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _sample(f, lm)
    frm = _sample(f, rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        # Richardson correction; |delta|/15 bounds the remaining error
        return left + right + delta / 15.0
    if not math.isfinite(delta) and not all(
        map(math.isfinite, (m, fa + 4.0 * flm + fm, fm + 4.0 * frm + fb))
    ):
        # halving shrinks a product that overflows with the width, but never an
        # overflowing midpoint or sum of values: no depth would converge
        raise NonFiniteValueError(f"Simpson estimate is not finite on [{a!r}, {b!r}]")
    if depth <= 0:
        raise DepthExhaustedError(f"tolerance {tol:g} unreachable on [{a!r}, {b!r}]")
    evals[0] += 4
    if evals[0] > MAX_EVALS:
        raise EvalBudgetError(
            f"evaluation budget {MAX_EVALS} exhausted at tolerance {tol:g} on [{a!r}, {b!r}]"
        )
    half = 0.5 * tol
    return _refine(f, a, m, fa, flm, fm, left, half, depth - 1, evals) + _refine(
        f, m, b, fm, frm, fb, right, half, depth - 1, evals
    )


def integrate_piecewise(f: ScalarFunction, iv: Interval, breakpoints: list[float]) -> float:
    """Sum of integrate() over iv split at the given interior breakpoints.

    Entries outside (a, b) are dropped and duplicates collapse, so callers can
    pass candidate kink locations unconditionally. Same total error contract
    as integrate(); robust when f has kinks exactly at the cuts.

    The pieces are added left to right from 0.0 in a plain loop: sum() adds
    floats with compensation from Python 3.12 on, which would make the last
    bits depend on the Python version. A sum past the float range raises
    NonFiniteValueError naming iv.
    """
    cuts = sorted({float(t) for t in breakpoints if iv.a < t < iv.b})
    edges = [iv.a, *cuts, iv.b]
    piece_tol = ABS_TOL / (len(edges) - 1)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += integrate(f, Interval(lo, hi), piece_tol)
    return _finite_integral(total, iv)
