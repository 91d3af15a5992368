"""Interval primitives and the adaptive quadrature oracle, against which
every closed form in the package is cross-checked; keep this layer boring.

Gander and Gautschi's adaptive Gauss-Lobatto-Kronrod (adaptlob, BIT 40, 2000):
on a panel of half-width h about m, the 4-point Lobatto rule i2 (nodes m +- h,
m +- h/sqrt(5); weights 1/6, 5/6) and its 7-point Kronrod extension i1 (adding
m, m +- h sqrt(2/3); weights 77, 432, 625, 672 over 1470). The first panel is
the whole interval, 7 samples. A panel keeps i1 where is + (i1 - i2) == is,
is = max(REL_TOL * I0, ABS_TOL) / eps, and else splits into six at its nodes.
I0 estimates the integral of |f|, not of f, so an integral that cancels still
ends (sin over [0, 2 pi]: 7 samples). Every panel meets that one scale, none
a share of it, and the error stays bounded: i1 - i2 is the error of i2, exact
to degree 5, but the panel keeps i1, exact to degree 9, whose error on smooth
f is smaller by a factor that falls with the width. Where the accepted panels'
sum of |i1| is RESCALE times below the first scale (one huge sample), the walk
is made again at that scale. MAX_EVALS bounds the run time of every integral.
The panels are walked from a list, so a walk hundreds of splits deep, into
the subnormals, needs no recursion.
"""

from __future__ import annotations

import math
import sys
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

REL_TOL = 1e-14
ABS_TOL = 1e-10
MAX_EVALS = 2**17  # evaluations of f per integrate() call
RESCALE = 1e3  # how far the first scale may exceed the accepted panels' sum of |i1|

_EPS = sys.float_info.epsilon
_ALPHA, _BETA = math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(5.0)
# weights per unit of h, each at most 0.46, applied before adding
_L1, _L2 = 1.0 / 6.0, 5.0 / 6.0
_K1, _K2, _K3, _K4 = 77.0 / 1470.0, 432.0 / 1470.0, 625.0 / 1470.0, 672.0 / 1470.0


class QuadratureError(Exception):
    pass


class DepthExhaustedError(QuadratureError):
    """Requested tolerance unreachable on a panel that can no longer be split."""


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


def _finite(x: float, y: float) -> float:
    """y, the sample f(x), checked to be finite."""
    if not math.isfinite(y):
        raise NonFiniteValueError(f"function returned non-finite value {y!r} at x={x!r}")
    return y


def integrate(f: ScalarFunction, iv: Interval) -> float:
    """Integral of f over iv to REL_TOL of the integral of |f|, or ABS_TOL.

    EvalBudgetError past MAX_EVALS samples and DepthExhaustedError on a panel
    that can no longer be split name the tolerance and the panel. A sample
    that is not finite raises NonFiniteValueError naming x; a weighted sum of
    samples that overflows, the panel (an overflowing product with the width
    splits instead); an overflowing midpoint or sum of the panels, iv.
    """
    a, b = iv.a, iv.b
    if not math.isfinite(iv.midpoint):
        raise NonFiniteValueError(f"midpoint of [{a!r}, {b!r}] overflows")
    fa, fb = _finite(a, f(a)), _finite(b, f(b))
    total, size, scale, evals = _walk(f, a, b, fa, fb, None, 7)
    while scale > RESCALE * size and REL_TOL * scale > ABS_TOL:
        total, size, scale, evals = _walk(f, a, b, fa, fb, size, evals + 5)
    return _finite_integral(total, iv)


def _finite_integral(total: float, iv: Interval) -> float:
    if not math.isfinite(total):
        raise NonFiniteValueError(f"integral over [{iv.a!r}, {iv.b!r}] overflows: {total!r}")
    return total


def _walk(f, a, b, fa, fb, scale: float | None, evals: int) -> tuple[float, float, float, int]:
    """The accepted panels' sums of i1 and of |i1|, added left to right, the
    scale (the first panel's, if None) and the count of samples taken or due."""
    total = size = 0.0
    tol = None if scale is None else max(REL_TOL * scale, ABS_TOL)
    todo = [(a, b, fa, fb)]
    while todo:
        a, b, fa, fb = todo.pop()
        h = 0.5 * (b - a)
        m = a + h
        mll, ml, mr, mrr = m - _ALPHA * h, m - _BETA * h, m + _BETA * h, m + _ALPHA * h
        fmll, fml, fm, fmr, fmrr = f(mll), f(ml), f(m), f(mr), f(mrr)
        # each rule's weights add up to 2: it is 2 f(m) plus weighted departures
        # from it of symmetric pairs, exact where f is constant
        mid = fm + fm
        ends, inner = fa + fb - mid, fml + fmr - mid
        s = mid + _K3 * inner + _K2 * (fmll + fmrr - mid) + _K1 * ends
        i1, i2 = h * s, h * (mid + _L2 * inner + _L1 * ends)
        if tol is None:
            s_abs = _K4 * abs(fm) + _K3 * (abs(fml) + abs(fmr)) + _K2 * (abs(fmll) + abs(fmrr))
            # capped at the float range, where the sum of the panels tells
            # whether the integral is past it; nan, as a sample, fails below
            scale = min(h * (s_abs + _K1 * (abs(fa) + abs(fb))), sys.float_info.max)
            tol = max(REL_TOL * scale, ABS_TOL)
        if tol + _EPS * (i1 - i2) == tol:  # is + (i1 - i2) == is, times eps: no overflow
            total, size = total + i1, size + abs(i1)
            continue
        xs, ys = (a, mll, ml, m, mr, mrr, b), (fa, fmll, fml, fm, fmr, fmrr, fb)
        if not math.isfinite(s):  # a sample, or a weighted sum no split mends
            for x, y in zip(xs, ys):
                _finite(x, y)
            raise NonFiniteValueError(f"Lobatto-Kronrod estimate is not finite on [{a!r}, {b!r}]")
        if mll <= a or b <= mrr:
            raise DepthExhaustedError(f"tolerance {tol:g} unreachable on [{a!r}, {b!r}]")
        evals += 30
        if evals > MAX_EVALS:
            raise EvalBudgetError(
                f"evaluation budget {MAX_EVALS} exhausted at tolerance {tol:g} on [{a!r}, {b!r}]"
            )
        # popped left to right, so f is sampled in the order of x
        todo += reversed(tuple(zip(xs, xs[1:], ys, ys[1:])))
    return total, size, scale, evals


def integrate_piecewise(f: ScalarFunction, iv: Interval, breakpoints: list[float]) -> float:
    """Sum of integrate() over iv split at the given interior breakpoints.

    Entries outside (a, b) are dropped and duplicates collapse, so callers can
    pass candidate kink locations unconditionally; robust when f has kinks
    exactly at the cuts. The pieces are added left to right from 0.0 in a
    plain loop: sum() adds with compensation from Python 3.12 on, which would
    make the last bits depend on the version. A sum past the float range
    raises NonFiniteValueError naming iv.
    """
    cuts = sorted({float(t) for t in breakpoints if iv.a < t < iv.b})
    edges = [iv.a, *cuts, iv.b]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += integrate(f, Interval(lo, hi))
    return _finite_integral(total, iv)
