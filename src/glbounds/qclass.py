"""Grid falsification of Godunova-Levin class membership.

A nonnegative g on an interval belongs to the class when

    g(lam*x + (1-lam)*y) <= g(x)/lam + g(y)/(1-lam)

for all interior x, y and lam in (0, 1). Membership is only semidecidable by
sampling: the scan walks midpoint grids (offset 1/(2n) from the endpoints, so
refining the grid by an odd factor keeps every coarse triple), records every
violating triple, and reports the worst margin seen. Passing is falsification
evidence, not proof; downstream consumers label it CheckedPass, never
Certified.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point and its values are kept until
the scan returns: g must be deterministic, and memory grows with the number
of distinct points (about 100 bytes each: up to 3 MB at n = 64 and 15 MB at
n = 128).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .expressions import Node, evaluate_jet2
from .quadrature import Interval

__all__ = [
    "Violation",
    "QClassReport",
    "check_godunova_levin",
    "membership_for_bound",
    "nonneg_convex_witness",
]

DEFAULT_GRID_N = 64
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class Violation:
    x: float
    y: float
    lam: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class QClassReport:
    samples_checked: int
    violations: tuple[Violation, ...]
    max_margin: float
    passed: bool


class _PointMemo(dict):
    """g at each distinct point of one scan, keyed on the exact float.

    0.0 and -0.0 compare equal as keys but g may tell them apart, so zeros
    are kept by sign outside the dict and every lookup of one lands here.
    """

    def __init__(self, g: Callable[[float], float]) -> None:
        super().__init__()
        self._g = g
        self._zeros: dict[float, float] = {}

    def __missing__(self, x: float) -> float:
        if x == 0.0:
            sign = math.copysign(1.0, x)
            if sign not in self._zeros:
                self._zeros[sign] = self._sample(x)
            return self._zeros[sign]
        v = self[x] = self._sample(x)
        return v

    def _sample(self, x: float) -> float:
        v = self._g(x)
        if not math.isfinite(v):
            # NaN fails every comparison, so the scan could never flag it
            raise ValueError(f"g is not finite at x={x!r}: {v!r}")
        return v


def check_godunova_levin(
    g: Callable[[float], float],
    iv: Interval,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
) -> QClassReport:
    """Scan the defining inequality over a grid_n^3 triple grid.

    samples_checked counts the (x, y, lam) triples. A negative sample value is
    itself a violation (the class contains nonnegative functions only) and is
    recorded at the degenerate triple (x, x, 1/2). Violations are reported
    sorted by (x, y, lam) with their evaluated sides so borderline margins can
    be audited.

    g is called once per distinct sample point (the triples share 2n^2 to
    about 9n^2 points), so it must be deterministic; the values are held
    until the scan returns. Raises ValueError naming x when g(x) is not
    finite.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    n = grid_n
    width = iv.width
    xs = [iv.a + width * (i + 0.5) / n for i in range(n)]
    lams = [(k + 0.5) / n for k in range(n)]
    memo = _PointMemo(g)
    gx = [memo[x] for x in xs]

    violations: list[Violation] = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            # 0.5*x + 0.5*x reproduces x exactly, so this re-checks soundly
            rhs = gv / 0.5 + gv / 0.5
            violations.append(Violation(x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    for lam in lams:
        clam = 1.0 - lam
        left = [v / lam for v in gx]
        right = [v / clam for v in gx]
        cy = [clam * y for y in xs]
        for i in range(n):
            base = lam * xs[i]
            li = left[i]
            xi = xs[i]
            for j in range(n):
                lhs = memo[base + cy[j]]
                rhs = li + right[j]
                m = lhs - rhs
                if m > max_margin:
                    max_margin = m
                if m > tol:
                    violations.append(Violation(xi, xs[j], lam, lhs, rhs))

    unique = sorted(dict.fromkeys(violations), key=lambda v: (v.x, v.y, v.lam))
    return QClassReport(n * n * n, tuple(unique), max_margin, not unique)


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes."""
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q!r}")

    def g(x: float) -> float:
        return abs(evaluate_jet2(e, x).d2) ** q

    return check_godunova_levin(g, iv, grid_n, tol)


def nonneg_convex_witness(
    g: Callable[[float], float],
    iv: Interval,
    grid_n: int = 129,
    tol: float = 1e-9,
) -> bool:
    """Sampled witness that g is nonnegative and convex, hence a class member.

    Nonnegative convex functions (constants included) all satisfy the defining
    inequality, so catalogue entries backed by this witness can skip the
    triple scan and be labelled Certified.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be >= 3, got {grid_n!r}")
    xs = [iv.a + iv.width * (i + 0.5) / grid_n for i in range(grid_n)]
    vals = [g(x) for x in xs]
    if any(v < -tol for v in vals):
        return False
    return all(
        vals[i - 1] - 2.0 * vals[i] + vals[i + 1] >= -tol for i in range(1, grid_n - 1)
    )
