"""Grid falsification of Godunova-Levin class membership.

A nonnegative g on an interval belongs to the class when

    g(lam*x + (1-lam)*y) <= g(x)/lam + g(y)/(1-lam)

for all interior x, y and lam in (0, 1). Membership is only semidecidable by
sampling: the scan walks midpoint grids (offset 1/(2n) from the endpoints, so
refining the grid by an odd factor keeps every coarse triple), records every
violating triple, and reports the worst margin seen. Passing is falsification
evidence, not proof; downstream consumers label it CheckedPass, never
Certified.

Membership is decided here only. check_godunova_levin scans any callable g.
Three entry points scan an expression: check_expression scans g = f
(qclass --g), membership_for_bound scans g = |f''|^q (qclass --fn), and
bound_memberships answers, for each q, whether the default-grid scan of
|f''|^q passes, which is all that bound and sweep read.

Each entry point builds one cover: an interval enclosure
(glbounds.enclosure) bounding f or |f''| on one cell per grid step. By the
ratio lemma it bounds every margin of each pair of grid points over the
span the pair's scan points reach (glbounds.ratio), and it is used two
ways. The scan skips each pair whose bound shows that it can hold neither a
violation nor the first largest margin; its report is the same, bit for
bit. bound_memberships needs no report, so for each q it first asks
_decide, from the same cover: where every pair bound is at most the
tolerance, the scan would pass (a proof); otherwise only the pairs above
the tolerance can violate, and _decide visits them hottest first at every
lam, as the scan computes each margin, and stops at the first violation.
Where the cover is finite the scan would raise nothing, so either answer is
the scan's, and the scan is not run. Where _decide declines, the scan
decides. The cover never leaves this module.

DEFAULT_GRID_N and DEFAULT_TOL are decided here only: bound and sweep scan
with them, and they are the defaults of the CLI's qclass --grid and --tol.
MAX_GRID_N caps every scan, since a scan costs n^3 time and holds up to
about 9n^2 points.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point it visits and its values are
kept until the scan returns: g must be deterministic, and memory grows with
the number of distinct points (about 100 bytes each: up to 3 MB at n = 64
and 15 MB at n = 128, less where pairs are skipped).

The triple (y, x, 1-lam) has the same point and the same right side as
(x, y, lam), because float addition is commutative. So when a grid lam and
its mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and 1 - lam' == lam
exactly (every lam at n = 64 and 128, some at other n), one pass over lam
decides both, and samples_checked still counts every triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from .expressions import Node, compile_expression
from .quadrature import Interval

if TYPE_CHECKING:
    from .ratio import CellCover

__all__ = [
    "Violation",
    "QClassReport",
    "check_godunova_levin",
    "check_expression",
    "membership_for_bound",
    "bound_memberships",
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


def _check_grid(grid_n: int) -> None:
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}], got {grid_n!r}")


def _grid_points(iv: Interval, n: int) -> list[float]:
    width = iv.width
    xs = [iv.a + width * (i + 0.5) / n for i in range(n)]
    if math.isinf(xs[-1]):  # width * (n - 0.5) passed the float range
        raise ValueError(f"the {n} grid points of [{iv.a!r}, {iv.b!r}] overflow the float range")
    return xs


def check_godunova_levin(
    g: Callable[[float], float],
    iv: Interval,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    cover: CellCover | None = None,
) -> QClassReport:
    """Scan the defining inequality over a grid_n^3 triple grid.

    samples_checked counts the (x, y, lam) triples. A negative sample value is
    itself a violation (the class contains nonnegative functions only) and is
    recorded at the degenerate triple (x, x, 1/2). Violations are reported
    sorted by (x, y, lam) with their evaluated sides so borderline margins can
    be audited. max_margin is the first largest margin in the order lam, x, y
    (NaN margins, from g spanning +-1e308, never count).

    g is called once per distinct sample point the scan visits (the triples
    share 2n^2 to about 9n^2 points), so it must be deterministic; the values
    are held until the scan returns. Raises ValueError naming x when g(x) is
    not finite.

    Each pair of grid lams that mirror each other exactly is scanned once:
    the later lam of the pair sees the same margins as the earlier one, so it
    adds its violations but can never raise max_margin (only a strictly
    larger margin does). Every triple still counts in samples_checked.

    cover, built for this iv and grid_n with cover.sup bounding g on each
    cell, lets the scan skip the pairs of grid points that can hold neither
    a violation nor the first largest margin (ratio.kept_columns); the
    report is the same, bit for bit. The scan cannot derive it from g, which
    may be any callable: the entry points below build it from the expression
    behind g.

    Raises ValueError where the grid points of iv pass the float range (a
    width above about 2.8e306 at grid_n = 64).
    """
    _check_grid(grid_n)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n = grid_n
    xs = _grid_points(iv, n)
    if cover is not None and cover.xs != xs:
        raise ValueError("cover was built for another interval or grid")

    def sample(x: float) -> float:
        v = g(x)
        if not math.isfinite(v):
            # NaN fails every comparison, so the scan could never flag it
            raise ValueError(f"g is not finite at x={x!r}: {v!r}")
        return v

    memo = _PointMemo(sample)
    gx = [memo[x] for x in xs]

    # (x, y, lam, lhs, rhs) of each violation; a failing scan records
    # thousands, so each Violation is built once, after the dedup
    raw: list[tuple[float, float, float, float, float]] = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            # 0.5*x + 0.5*x reproduces x exactly, so this re-checks soundly
            rhs = gv / 0.5 + gv / 0.5
            raw.append((x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    visits = _visits(n)
    if cover is None:
        keep = [range(n)] * n
    else:
        from .ratio import kept_columns

        keep = kept_columns(xs, gx, memo, visits, cover, tol)
    rows = [(xi, gi, _picker(cols, n)) for xi, gi, cols in zip(xs, gx, keep) if cols]
    for lam, mirror, paired in visits:
        clam = 1.0 - lam
        right = [v / clam for v in gx]
        cols = list(zip(xs, [clam * y for y in xs], right))
        for xi, gi, pick in rows:
            base = lam * xi
            li = gi / lam
            for xj, cj, rj in cols if pick is None else pick(cols):
                lhs = memo[base + cj]
                rhs = li + rj
                m = lhs - rhs
                if m > max_margin:
                    max_margin = m
                if m > tol:
                    raw.append((xi, xj, lam, lhs, rhs))
                    if paired:
                        # (x_j, x_i, mirror) has the same point and sides
                        raw.append((xj, xi, mirror, lhs, rhs))

    # tuples dedup and sort as the Violations would: field by field, stably
    unique = sorted(dict.fromkeys(raw), key=itemgetter(0, 1, 2))
    violations = tuple(Violation(*v) for v in unique)
    return QClassReport(n * n * n, violations, max_margin, not violations)


def _visits(n: int) -> list[tuple[float, float, bool]]:
    """The passes of a scan over the grid lams (k + 1/2)/n, in order, as
    (lam, its mirror, whether the pass also decides the mirror). Where lam
    and its mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and
    1 - lam' == lam exactly, the later of the two gets no pass of its own.
    """
    lams = [(k + 0.5) / n for k in range(n)]
    visits = []
    for k, lam in enumerate(lams):
        mirror = lams[n - 1 - k]
        paired = k != n - 1 - k and 1.0 - lam == mirror and 1.0 - mirror == lam
        if not (paired and k > n - 1 - k):
            visits.append((lam, mirror, paired))
    return visits


def _picker(cols: Sequence[int], n: int) -> Callable[[list], Sequence] | None:
    """cols -> the entries a row visits, in order; None where it visits all n."""
    if len(cols) == n:
        return None
    if len(cols) == 1:
        j = cols[0]
        return lambda entries: (entries[j],)
    return itemgetter(*cols)


def check_expression(
    e: Node, iv: Interval, grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_TOL
) -> QClassReport:
    """Scan g = e itself, as compile_expression(e)[0] computes it: qclass --g.

    The scan skips pairs by a cover of g, with the same report.
    """
    g, _ = compile_expression(e)
    return check_godunova_levin(g, iv, grid_n, tol, cover=_cover(e, iv, grid_n, of_value=True))


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes:
    qclass --fn. The scan skips pairs by a cover of |f''|, with the same report.
    """
    _check_q(q)
    return _scan_power(e, iv, q, grid_n, tol, _cover(e, iv, grid_n))


def bound_memberships(e: Node, iv: Interval, q_list: Sequence[float]) -> dict[float, bool]:
    """q -> whether membership_for_bound(e, iv, q) passes, for each q of q_list
    in order: the membership decision of bound and sweep.

    One cover of |f''| serves every q. For each q the decision by the ratio
    lemma (_decide) answers where it can, and the scan, which skips pairs by
    the same cover, answers where it declines. The decision answers only
    where the scan would raise nothing, and then as the scan would, so the
    answers, and the first error raised, are the scans'.
    """
    for q in q_list:
        _check_q(q)
    cover = _cover(e, iv, DEFAULT_GRID_N)
    passed = {}
    for q in dict.fromkeys(q_list):
        decided = _decide(e, q, cover)
        if decided is None:
            decided = _scan_power(e, iv, q, DEFAULT_GRID_N, DEFAULT_TOL, cover).passed
        passed[q] = decided
    return passed


def _scan_power(
    e: Node, iv: Interval, q: float, grid_n: int, tol: float, cover: CellCover | None
) -> QClassReport:
    """The scan of x -> |f''(x)|^q; cover, of |f''| on its cells, lets it skip pairs."""
    if cover is not None:
        from .ratio import power_cover  # loaded with the cover

        cover = power_cover(cover, q)
    return check_godunova_levin(_q_power(e, q), iv, grid_n, tol, cover=cover)


def _q_power(e: Node, q: float) -> Callable[[float], float]:
    """x -> |f''(x)|^q, the g of membership_for_bound's scan."""
    _, jet = compile_expression(e)

    def g(x: float) -> float:
        d2 = abs(jet(x)[2])
        try:
            return d2**q
        except OverflowError:
            msg = f"|f''(x)|^q overflows at x={x!r}: |f''| = {d2!r}, q = {q!r}"
            raise ValueError(msg) from None

    return g


def _cover(e: Node, iv: Interval, grid_n: int, of_value: bool = False) -> CellCover | None:
    """sup |f''| (sup f where of_value, as compile_expression(e)[0] computes it)
    on the cells of the grid_n scan of iv, or None where the enclosure declines
    or the grid is invalid, which the scan then reports.

    The enclosure and glbounds.ratio are imported here, when a cover is first
    built: every command but bound, sweep and qclass starts without them.
    """
    try:
        _check_grid(grid_n)
        xs = _grid_points(iv, grid_n)
    except ValueError:
        return None
    from .enclosure import compile_second_derivative, compile_value
    from .ratio import cell_cover

    return cell_cover(compile_value if of_value else compile_second_derivative, e, xs)


def _decide(e: Node, q: float, cover: CellCover | None) -> bool | None:
    """membership_for_bound(e, iv, q).passed, decided without the scan, for
    the iv that cover = _cover(e, iv, DEFAULT_GRID_N) was built on; None
    where this cannot be done, and the scan decides.

    With g = |f''|^q at the grid points and the cover of g on the cells,
    every margin the scan computes for a pair of grid points is at most the
    pair's bound (ratio.pair_bound_rows), so a pair whose bound is at most
    DEFAULT_TOL holds no violation. Where no pair is above the tolerance, the
    scan passes, and the answer is True: the ratio lemma's proof. Otherwise
    the pairs above it are visited hottest first, each at every lam of the
    scan's visits in both orders of its two points (which covers each exact
    mirror lam too), every margin computed as the scan computes it: the
    first violation answers False, and none answers True. g >= 0, so the
    scan's check for negative values never fires.

    The cover being finite proves g finite at every point of every cell, and
    the enclosure declines wherever the jet could raise, so the scan raises
    nothing: whichever violation is found first, in whatever order, the scan
    would fail too. A None cover or power cover, a g value at a grid point
    that is not finite, and any exception mean None.
    """
    if cover is None:
        return None
    from .ratio import pair_bound_rows, power_cover  # loaded with the cover

    try:
        memo = _PointMemo(_q_power(e, q))
        xs = cover.xs
        gx = [memo[x] for x in xs]
        if not all(math.isfinite(v) for v in gx):
            return None
        power = power_cover(cover, q)
        if power is None:
            return None
        tol = DEFAULT_TOL
        hot = []
        for i, row in enumerate(pair_bound_rows(gx, power)):
            if max(row) > tol:
                hot += [(b, i, j) for j, b in enumerate(row, i) if b > tol]
        if not hot:
            return True
        hot.sort(reverse=True)
        steps = [(lam, 1.0 - lam) for lam, _, _ in _visits(len(xs))]
        for _, i, j in hot:
            xi, xj, gi, gj = xs[i], xs[j], gx[i], gx[j]
            for lam, clam in steps:
                if memo[lam * xi + clam * xj] - (gi / lam + gj / clam) > tol:
                    return False
                if memo[lam * xj + clam * xi] - (gj / lam + gi / clam) > tol:
                    return False
        return True
    except Exception:  # declining is always safe: the scan decides
        return None
