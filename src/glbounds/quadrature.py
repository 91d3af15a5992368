"""Interval primitives and the adaptive quadrature oracle.

Every closed form in the package is cross-checked against ``integrate`` /
``integrate_piecewise``; keep this layer boring and well tested.

ABS_TOL and MAX_DEPTH are decided here only: every integral in the package
is taken to an estimated absolute error of ABS_TOL (split evenly across the
pieces of a piecewise integral) within MAX_DEPTH bisections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Interval",
    "QuadratureError",
    "DepthExhaustedError",
    "NonFiniteValueError",
    "integrate",
    "integrate_piecewise",
]

ScalarFunction = Callable[[float], float]

ABS_TOL = 1e-10
MAX_DEPTH = 50


class QuadratureError(Exception):
    pass


class DepthExhaustedError(QuadratureError):
    """Requested tolerance unreachable within the recursion cap."""


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
    """
    a, b = iv.a, iv.b
    fa = _sample(f, a)
    fm = _sample(f, 0.5 * (a + b))
    fb = _sample(f, b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _refine(f, a, b, fa, fm, fb, whole, abs_tol, MAX_DEPTH)


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
) -> float:
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
    if depth <= 0:
        raise DepthExhaustedError(f"tolerance {tol:g} unreachable on [{a:g}, {b:g}]")
    half = 0.5 * tol
    return _refine(f, a, m, fa, flm, fm, left, half, depth - 1) + _refine(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def integrate_piecewise(f: ScalarFunction, iv: Interval, breakpoints: list[float]) -> float:
    """Sum of integrate() over iv split at the given interior breakpoints.

    Entries outside (a, b) are dropped and duplicates collapse, so callers can
    pass candidate kink locations unconditionally. Same total error contract
    as integrate(); robust when f has kinks exactly at the cuts.

    The pieces are added left to right from 0.0 in a plain loop: sum() adds
    floats with compensation from Python 3.12 on, which would make the last
    bits depend on the Python version.
    """
    cuts = sorted({float(t) for t in breakpoints if iv.a < t < iv.b})
    edges = [iv.a, *cuts, iv.b]
    piece_tol = ABS_TOL / (len(edges) - 1)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += integrate(f, Interval(lo, hi), piece_tol)
    return total
