"""Interval primitives and the adaptive quadrature oracle, against which
every closed form in the package is cross-checked; keep this layer boring.

Adaptive Gauss-Kronrod (7, 15), QUADPACK's qk15 (Piessens et al., 1983): on a
panel of half-width h about m, the 15-point Kronrod rule i1 (exact to degree
23) and the 7-point Gauss rule i2 (exact to degree 13) share the Gauss rule's 7
samples. f(a) and f(b) are sampled first and checked finite, so the first
panel, the whole interval, costs 17 samples. A panel keeps i1 where
is + (i1 - i2) == is, is = max(REL_TOL * I0, ABS_TOL) / eps, and else splits
at its midpoint. I0 is the first panel's Kronrod estimate of the integral of
|f|, not of f, so an integral that cancels still ends (sin over [0, 2 pi]: 17
samples). Every panel meets that one scale, none a share of it, and the error
stays bounded: i1 - i2 is the error of i2, but the panel keeps i1, whose error
on smooth f is smaller by a factor that falls with the width. Where the
accepted panels' sum of |i1| is RESCALE times below the first scale (one huge
sample), the walk is made again at that scale. MAX_EVALS bounds the run time
of every integral. A panel that fails once its outermost nodes round onto its
ends can no longer be split: bisected further, its nodes would collapse onto
its ends and midpoint, and it could accept a pole. The panels are walked
from a list, so a walk a thousand splits deep needs no recursion.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

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
# QUADPACK qk15's xgk, wgk and wg rounded to double, outermost node first: the
# Gauss nodes are _XK[1], _XK[3] and _XK[5], and both rules weigh the midpoint.
# Weights are per unit of h, each pair's at most 0.39, applied before adding
_XK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789848,
)
_WK = (
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
)
_WK0 = 0.20948214108472782
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189)
_WG0 = 0.4179591836734694


class QuadratureError(Exception):
    pass


class DepthExhaustedError(QuadratureError):
    """Requested tolerance unreachable on a panel that can no longer be split."""


class EvalBudgetError(QuadratureError):
    """Requested tolerance unreachable within MAX_EVALS evaluations."""


class NonFiniteValueError(QuadratureError):
    """The sampled function returned inf or nan: sample is that (x, f(x)),
    None where a sum or a midpoint is not finite."""

    def __init__(self, message: str, sample: tuple[float, float] | None = None) -> None:
        super().__init__(message)
        self.sample = sample


class _Interval(NamedTuple):
    a: float
    b: float


class Interval(_Interval):
    """Integration domain [a, b] with a < b, both finite and a finite width b - a."""

    __slots__ = ()  # no instance dict, so no attribute can be set

    def __new__(cls, a: float, b: float) -> Interval:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval endpoints must be finite, got [{a!r}, {b!r}]")
        if not a < b:
            raise ValueError(f"interval requires a < b, got [{a!r}, {b!r}]")
        if not math.isfinite(b - a):
            raise ValueError(f"interval width overflows, got [{a!r}, {b!r}]")
        return super().__new__(cls, a, b)

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        """0.5 * (a + b); NonFiniteValueError where a + b overflows, though b - a does not."""
        m = 0.5 * (self.a + self.b)
        if not math.isfinite(m):
            raise NonFiniteValueError(f"midpoint of [{self.a!r}, {self.b!r}] overflows")
        return m


def _finite(x: float, y: float) -> float:
    """y, the sample f(x), checked to be finite."""
    if not math.isfinite(y):
        raise NonFiniteValueError(f"function returned non-finite value {y!r} at x={x!r}", (x, y))
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
    iv.midpoint  # raises where it overflows, before f is sampled
    _finite(a, f(a))
    _finite(b, f(b))
    total, size, scale, evals = _walk(f, a, b, None, 17)
    while scale > RESCALE * size and REL_TOL * scale > ABS_TOL:
        total, size, scale, evals = _walk(f, a, b, size, evals + 15)
    return _finite_integral(total, iv)


def _finite_integral(total: float, iv: Interval) -> float:
    if not math.isfinite(total):
        raise NonFiniteValueError(f"integral over [{iv.a!r}, {iv.b!r}] overflows: {total!r}")
    return total


def _walk(f, a, b, scale: float | None, evals: int) -> tuple[float, float, float, int]:
    """The accepted panels' sums of i1 and of |i1|, added left to right, the
    scale (the first panel's, if None) and the count of samples taken or due."""
    x1, x2, x3, x4, x5, x6, x7 = _XK
    w1, w2, w3, w4, w5, w6, w7 = _WK
    g2, g4, g6 = _WG
    total = size = 0.0
    tol = None if scale is None else max(REL_TOL * scale, ABS_TOL)
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        h = 0.5 * (b - a)
        m = a + h
        # in the order of x, the outermost nodes at either end
        xs = (
            m - x1 * h, m - x2 * h, m - x3 * h, m - x4 * h, m - x5 * h, m - x6 * h, m - x7 * h,
            m,
            m + x7 * h, m + x6 * h, m + x5 * h, m + x4 * h, m + x3 * h, m + x2 * h, m + x1 * h,
        )
        ys = tuple(map(f, xs))
        y1, y2, y3, y4, y5, y6, y7, fm, z7, z6, z5, z4, z3, z2, z1 = ys
        # each rule's weights add up to 2: it is 2 f(m) plus weighted departures
        # from it of symmetric pairs, exact where f is constant
        mid = fm + fm
        d2, d4, d6 = y2 + z2 - mid, y4 + z4 - mid, y6 + z6 - mid
        s = mid + (
            w1 * (y1 + z1 - mid) + w2 * d2 + w3 * (y3 + z3 - mid) + w4 * d4
            + w5 * (y5 + z5 - mid) + w6 * d6 + w7 * (y7 + z7 - mid)
        )
        i1, i2 = h * s, h * (mid + (g2 * d2 + g4 * d4 + g6 * d6))
        if tol is None:
            s_abs = _WK0 * abs(fm) + (
                w1 * (abs(y1) + abs(z1)) + w2 * (abs(y2) + abs(z2)) + w3 * (abs(y3) + abs(z3))
                + w4 * (abs(y4) + abs(z4)) + w5 * (abs(y5) + abs(z5)) + w6 * (abs(y6) + abs(z6))
                + w7 * (abs(y7) + abs(z7))
            )
            # capped at the float range, where the sum of the panels tells
            # whether the integral is past it; nan, as a sample, fails below
            scale = min(h * s_abs, sys.float_info.max)
            tol = max(REL_TOL * scale, ABS_TOL)
        if tol + _EPS * (i1 - i2) == tol:  # is + (i1 - i2) == is, times eps: no overflow
            total, size = total + i1, size + abs(i1)
            continue
        if not math.isfinite(s):  # a sample, or a weighted sum no split mends
            for x, y in zip(xs, ys):
                _finite(x, y)
            raise NonFiniteValueError(f"Gauss-Kronrod estimate is not finite on [{a!r}, {b!r}]")
        if xs[0] <= a or b <= xs[-1]:
            raise DepthExhaustedError(f"tolerance {tol:g} unreachable on [{a!r}, {b!r}]")
        evals += 30
        if evals > MAX_EVALS:
            raise EvalBudgetError(
                f"evaluation budget {MAX_EVALS} exhausted at tolerance {tol:g} on [{a!r}, {b!r}]"
            )
        # popped left to right, so f is sampled in the order of x
        todo += ((m, b), (a, m))
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
