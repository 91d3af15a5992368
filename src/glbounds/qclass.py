"""Grid falsification of Godunova-Levin class membership.

A nonnegative g on an interval belongs to the class when

    g(lam*x + (1-lam)*y) <= g(x)/lam + g(y)/(1-lam)

for all interior x, y and lam in (0, 1). Membership is only semidecidable by
sampling: the scan walks midpoint grids (offset 1/(2n) from the endpoints, so
refining the grid by an odd factor keeps every coarse triple), records every
violating triple, and reports the worst margin seen. Passing is falsification
evidence, not proof; downstream consumers label it CheckedPass, never
Certified.

bound and sweep read only whether their default-grid scan of |f''|^q passes,
and scan_proven_to_pass can often prove that it does without running it: it
bounds |f''|^q on one cell per grid point (second_derivative_cover, from the
interval enclosure in glbounds.enclosure, shared by every q of a sweep) and
applies the ratio lemma to every pair of grid points. It says True only when
the scan would pass and raise nothing, so the label is the same either way;
where it declines, the scan runs. qclass prints the scan's margins and
violations, so it always scans.

DEFAULT_GRID_N and DEFAULT_TOL are decided here only: bound and sweep scan
with them, and they are the defaults of the CLI's qclass --grid and --tol.
MAX_GRID_N caps every scan, since a scan costs n^3 time and holds up to
about 9n^2 points.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point and its values are kept until
the scan returns: g must be deterministic, and memory grows with the number
of distinct points (about 100 bytes each: up to 3 MB at n = 64 and 15 MB at
n = 128). The points do not depend on g, so scans of |f''|^q for several q
can share one memo of |f''| (second_derivative_memo).

The triple (y, x, 1-lam) has the same point and the same right side as
(x, y, lam), because float addition is commutative. So when a grid lam and
its mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and 1 - lam' == lam
exactly (every lam at n = 64 and 128, some at other n), one pass over lam
decides both, and samples_checked still counts every triple.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

from .expressions import Node, compile_expression
from .quadrature import Interval

__all__ = [
    "Violation",
    "QClassReport",
    "check_godunova_levin",
    "membership_for_bound",
    "second_derivative_memo",
    "SecondDerivativeCover",
    "second_derivative_cover",
    "scan_proven_to_pass",
]

DEFAULT_GRID_N = 64
DEFAULT_TOL = 1e-12
MAX_GRID_N = 256


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


def _check_q(q: float) -> None:
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError(f"q must be finite and >= 1, got {q!r}")


class _PointMemo(dict):
    """g at each distinct point it is asked for, keyed on the exact float.

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
                self._zeros[sign] = self._g(x)
            return self._zeros[sign]
        v = self[x] = self._g(x)
        return v


def _grid_points(iv: Interval, n: int) -> list[float]:
    width = iv.width
    return [iv.a + width * (i + 0.5) / n for i in range(n)]


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
    be audited. max_margin is the first largest margin in the order lam, x, y
    (NaN margins, from g spanning +-1e308, never count).

    g is called once per distinct sample point (the triples share 2n^2 to
    about 9n^2 points), so it must be deterministic; the values are held
    until the scan returns. Raises ValueError naming x when g(x) is not
    finite.

    Each pair of grid lams that mirror each other exactly is scanned once:
    the later lam of the pair sees the same margins as the earlier one, so it
    adds its violations but can never raise max_margin (only a strictly
    larger margin does). Every triple still counts in samples_checked.
    """
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}], got {grid_n!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n = grid_n
    xs = _grid_points(iv, n)
    lams = [(k + 0.5) / n for k in range(n)]

    def sample(x: float) -> float:
        v = g(x)
        if not math.isfinite(v):
            # NaN fails every comparison, so the scan could never flag it
            raise ValueError(f"g is not finite at x={x!r}: {v!r}")
        return v

    memo = _PointMemo(sample)
    gx = [memo[x] for x in xs]

    violations: list[Violation] = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            # 0.5*x + 0.5*x reproduces x exactly, so this re-checks soundly
            rhs = gv / 0.5 + gv / 0.5
            violations.append(Violation(x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    for k, lam in enumerate(lams):
        mirror = lams[n - 1 - k]
        paired = k != n - 1 - k and 1.0 - lam == mirror and 1.0 - mirror == lam
        if paired and k > n - 1 - k:
            continue  # scanned with its mirror, which comes first
        clam = 1.0 - lam
        right = [v / clam for v in gx]
        cols = list(zip(xs, [clam * y for y in xs], right))
        for xi, gi in zip(xs, gx):
            base = lam * xi
            li = gi / lam
            for xj, cj, rj in cols:
                lhs = memo[base + cj]
                rhs = li + rj
                m = lhs - rhs
                if m > max_margin:
                    max_margin = m
                if m > tol:
                    violations.append(Violation(xi, xj, lam, lhs, rhs))
                    if paired:
                        # (x_j, x_i, mirror) has the same point and sides
                        violations.append(Violation(xj, xi, mirror, lhs, rhs))

    unique = sorted(dict.fromkeys(violations), key=lambda v: (v.x, v.y, v.lam))
    return QClassReport(n * n * n, tuple(unique), max_margin, not unique)


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    abs_d2: Callable[[float], float] | None = None,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes.

    abs_d2 is x -> |f''(x)| for e; scans of several q pass one
    second_derivative_memo(e) so that each point's jet is evaluated once.
    """
    _check_q(q)
    if abs_d2 is None:
        abs_d2 = _abs_second_derivative(e)
    return check_godunova_levin(_q_power(abs_d2, q), iv, grid_n, tol)


def _q_power(abs_d2: Callable[[float], float], q: float) -> Callable[[float], float]:
    """x -> |f''(x)|^q, the g of membership_for_bound's scan."""

    def g(x: float) -> float:
        d2 = abs_d2(x)
        try:
            return d2**q
        except OverflowError:
            msg = f"|f''(x)|^q overflows at x={x!r}: |f''| = {d2!r}, q = {q!r}"
            raise ValueError(msg) from None

    return g


def _abs_second_derivative(e: Node) -> Callable[[float], float]:
    _, jet = compile_expression(e)
    return lambda x: abs(jet(x)[2])


def second_derivative_memo(e: Node) -> Callable[[float], float]:
    """x -> |f''(x)| with each distinct point evaluated once (zeros kept by
    sign); the values are held as long as the returned function is."""
    return _PointMemo(_abs_second_derivative(e)).__getitem__


@dataclass(frozen=True)
class SecondDerivativeCover:
    """sup |f''| over one cell per point of the default grid, for every q.

    Cell k is [bounds[k], bounds[k+1]]; the cells run from delta below the
    first grid point to delta above the last. first[i] and last[i] are the
    first and the last cell that [x_i - delta, x_i + delta] meets.
    """

    xs: list[float]
    bounds: list[float]
    first: list[int]
    last: list[int]
    sup_abs_d2: list[float]


def second_derivative_cover(e: Node, iv: Interval) -> SecondDerivativeCover | None:
    """The cover of |f''| that scan_proven_to_pass reads, or None where the
    enclosure declines; one cover serves the decisions for every q.

    delta bounds how far a scan point z = fl(fl(lam*x) + fl(fl(1-lam)*y)) of
    grid points x and y can fall outside [min(x, y), max(x, y)]. With
    u = 2^-53, A the largest |x_i| and eta = 2^-1075 (half the least
    subnormal): fl(1-lam) = 1 - lam + e0 with |e0| <= u/2 (1 - lam < 1), so
    lam*x + fl(1-lam)*y lies within u/2*A of [min, max]; the two products are
    off by at most u*A*lam + eta and u*A*fl(1-lam) + eta, and their sum by u
    times |sum| <= (1 + u/2)(1 + u)*A. In all |z - (lam*x + (1-lam)*y)| <=
    (2.5u + O(u^2))*A + 2*eta < 3*ulp(A) + ulp(A), since u*A < ulp(A) and
    2*eta = 2^-1074 <= ulp(A). So delta = 5*ulp(A) covers every scan point.
    """
    # imported here, as only bound and sweep use it: every other command
    # starts without compiling it (about 5% of start-up without bytecode caches)
    from .enclosure import compile_second_derivative

    try:
        sup_abs_d2 = compile_second_derivative(e)
        n = DEFAULT_GRID_N
        xs = _grid_points(iv, n)
        delta = 5.0 * math.ulp(max(abs(xs[0]), abs(xs[-1])))
        lows = [math.nextafter(x - delta, -math.inf) for x in xs]
        highs = [math.nextafter(x + delta, math.inf) for x in xs]
        bounds = [lows[0]]
        bounds += [u + 0.5 * (v - u) for u, v in zip(xs, xs[1:])]  # in [u, v]
        bounds.append(highs[-1])
        return SecondDerivativeCover(
            xs,
            bounds,
            [bisect.bisect_left(bounds, lo, 1) - 1 for lo in lows],
            [bisect.bisect_right(bounds, hi, 0, n) - 1 for hi in highs],
            [sup_abs_d2(bounds[k], bounds[k + 1]) for k in range(n)],
        )
    except Exception:  # the enclosure declines, however it fails
        return None


_SHRINK = 1.0 - 2.0**-51  # 1 - 4u (u = 2^-53), below the 1 - 2.5u the scan's rounded rhs needs


def scan_proven_to_pass(
    e: Node,
    iv: Interval,
    q: float,
    cover: SecondDerivativeCover | None,
    abs_d2: Callable[[float], float] | None = None,
) -> bool:
    """True only if membership_for_bound(e, iv, q, abs_d2=abs_d2) would return
    passed=True without raising: a proof by the ratio lemma, not a scan.

    For every lam in (0, 1), g_i/lam + g_j/(1-lam) >= (sqrt(g_i) + sqrt(g_j))^2
    (Cauchy-Schwarz). With g_i the scan's own float g at grid point x_i, the
    scan's float right side fl(fl(g_i/lam) + fl(g_j/fl(1-lam))) is at least
    (sqrt(g_i) + sqrt(g_j))^2 * (1 - 2.5u) - 3*eta, since lam + fl(1-lam) <=
    1 + u/2 and three roundings lose at most u and eta each. Every scan point
    z of x_i and x_j lies in a cell from first[i] to last[j] (i <= j), and g(z)
    <= U, the bound of |f''|^q over those cells. So U <= (that lower bound) +
    tol, computed rounding down, proves every margin g(z) - rhs <= tol. The
    cover being finite also proves g finite at every point of every cell, and
    the enclosure declines wherever the jet could raise, so the scan raises
    nothing either. Any exception, and a None cover, mean False.
    """
    if cover is None:
        return False
    from .enclosure import sup_power  # loaded by second_derivative_cover

    try:
        g = _q_power(abs_d2 or _abs_second_derivative(e), q)
        gx = [g(x) for x in cover.xs]
        if not all(math.isfinite(v) for v in gx):
            return False
        sup_g = [sup_power(s, q) for s in cover.sup_abs_d2]
        down = -math.inf
        roots = [max(math.nextafter(math.sqrt(v), down), 0.0) for v in gx]
        tol = math.nextafter(DEFAULT_TOL - 2.0**-1073, down)
        first, last = cover.first, cover.last
        n = len(gx)
        for i in range(n):
            ri = roots[i]
            k = first[i]
            worst = -math.inf
            for j in range(i, n):
                while k <= last[j]:
                    if sup_g[k] > worst:
                        worst = sup_g[k]
                    k += 1
                s = max(math.nextafter(ri + roots[j], down), 0.0)
                rhs = math.nextafter(math.nextafter(s * s, down) * _SHRINK, down)
                if worst > math.nextafter(rhs + tol, down):
                    return False
        return True
    except Exception:  # declining is always safe: the scan decides
        return False
