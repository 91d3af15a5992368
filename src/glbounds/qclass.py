"""Grid falsification of Godunova-Levin class membership.

A nonnegative g on an interval belongs to the class when

    g(lam*x + (1-lam)*y) <= g(x)/lam + g(y)/(1-lam)

for all interior x, y and lam in (0, 1). Membership is only semidecidable by
sampling: the scan walks midpoint grids (offset 1/(2n) from the endpoints, so
refining the grid by an odd factor keeps every coarse triple), counts every
violating triple, keeps the worst few, and reports the worst margin seen.
Passing is falsification
evidence, not proof; downstream consumers label it CheckedPass, never
Certified.

Membership is decided here only. check_godunova_levin is the one scan, of
any callable g. check_expression (qclass --g) and membership_for_bound
(qclass --fn) run it on g = f and on g = |f''|^q, with the enclosure of the
expression as its bound, and return its report. bound_memberships answers,
for each q, whether the default-grid scan of |f''|^q passes, which is all
that bound and sweep read, and runs no scan.

The scan is defined by a loop over lam, then x, then y. For every lam in
(0, 1) and g(x), g(y) >= 0,

    g(x)/lam + g(y)/(1-lam) >= (sqrt(g(x)) + sqrt(g(y)))^2

(Cauchy-Schwarz, the ratio lemma), so an upper bound of g between two grid
points bounds every margin g(z) - rhs of the pair, whatever lam. The scan
takes such bounds from its argument bound, one per cell of the grid
(_cells: one cell per grid step, reaching a few ulps past its two grid
points), and turns them into one bound per pair of grid points over just
the cells its scan points reach (_bound_row). The entry points pass an
interval enclosure (glbounds.enclosure) of f or |f''|, as a pair (low, high)
of g per cell, (-inf, inf) on a cell where it declines; for |f''|^q, _q_ends
raises both ends to q. That list of pairs, one per cell, is all the walk
reads of the bound. One walk (_walk) visits the pairs hottest first by the
high ends, computing each margin as the loop does, but for a triple that
its own cell decides, which reads no g:
with u = fl(high - rhs), the cell clears it where u is at most the tolerance
and below the largest margin so far, and proves it a violation where u is
above the tolerance and below that margin and fl(low - rhs) is above the
tolerance too (monotone rounding puts the margin between the two). Those
bounds rest on the enclosure's premise that libm is accurate to the 2^-50
that enclosure._LIBM_WIDEN widens by. The scan is that walk, stopped where
no pair left can change its report, and its report and first error are the
loop's. The walk takes its pairs from a lazy ranking (ranked_pairs), which
computes a row's bounds only when an O(1) key of the row reaches the top of
its heap, and sorts only the rows it takes a pair from. The key of row i
(_row_keys) is the smaller of two bounds of every b of the row, each
rounded outward: with m_i the least root r_j of the row,

    up(max(alone_i, max(sup[i:])) - down(fl(fl(r_i + m_i)^2)*_SHRINK)),

since each pair reads a cell bound of at most the first term, and

    up(T_i - down(r_i*(r_i + 2*m_i))),

with T_i the largest sup_k - mu_{k+1}^2 over the cells k >= i-1 (mu_{k+1}
the least root right of cell k), since a pair that reads cell k has
r_j >= mu_{k+1} and r_j >= m_i. The keys are monotone in the roots, so
keys from any lower bounds of g at the grid points are keys too.
bound_memberships needs no report, and decides each q in three steps. It
encloses |f''| first on one cell that holds every cell of the grid, a valid
cover as it is, and a q whose row keys from that cell's two ends of |f''|
are all at most the tolerance passes with no g evaluated and no ranking at
all. Then on 8 coarse cells, each the union of 8 cells of the grid, with
the same keys from their low ends. For any other q, _decide walks, on the
cells of the grid, only the pairs above the tolerance and answers after
the pair that holds the first violation (with none, or no such pair, the
scan passes). Its ranking keys the rows from the cells' low ends of g and
reads g at the grid points only when it must build a row. The pairs with
b = inf come first and hold every point where g may raise, so _decide
answers False only once they are all visited, and raises the scan's error
where the scan would: it answers every input as the scan would, and bound
and sweep run no scan. The cells, and what a bound means for a pair, are
decided in this module only.

The enclosure and heapq are imported when the first scan or decision runs,
so every command but bound, sweep and qclass starts without them. Each call
reaches the enclosure as glbounds.enclosure, an attribute of the package
that imports it on first access, as glbounds.cli's handlers reach their
modules.

DEFAULT_GRID_N and DEFAULT_TOL are decided here only: bound and sweep decide
with them, and they are the defaults of the CLI's qclass --grid and --tol.
MAX_GRID_N caps every scan, since a scan costs n^3 time and holds up to
about 9n^2 points.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point it reads, and its values are
kept in the scan's memo (_PointMemo) until the scan returns: g must be
deterministic, and memory grows with the number of distinct points (about
100 bytes each: up to 3 MB at n = 64 and 15 MB at n = 128, less where the
walk stops early or its cells decide triples).

A scan keeps no record of its violations, whose number grows as n^3: its
report, QClassReport, holds their count and the keep of them with the
largest margins (10 by default, all that the CLI's qclass prints), taken
from a heap as the walk meets them. A violation its cell proves gets g read
at its point, and a place in the heap, only while its u reaches the least
margin kept; that floor only rises, so a scan holds its memo and keep
violations. Each violation is met once: the scan runs on the distinct grid
values (at large offsets grid points coincide, and a repeated point would
repeat its triples), and at an odd grid the check for negative values counts
nothing, since the walk meets its triple (x, x, 1/2) at lam = 1/2.

The triple (y, x, 1-lam) has the same point and the same right side as
(x, y, lam), because float addition is commutative. So when a grid lam and
its mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and 1 - lam' == lam
exactly (every lam at n = 64 and 128, some at other n), one pass over lam
decides both, and samples_checked still counts every triple.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .expressions import Node, _compile_jet, _compile_value
from .quadrature import Interval

glbounds = sys.modules[__package__]  # the package, through which the enclosure is reached

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


class Violation(NamedTuple):
    """A triple (x, y, lam) where lhs = g(lam*x + (1-lam)*y) exceeds
    rhs = g(x)/lam + g(y)/(1-lam) by more than the tolerance.

    A Violation is a tuple: it unpacks and indexes as (x, y, lam, lhs, rhs),
    orders as that tuple does, and compares equal to a plain 5-tuple of the
    same floats.
    """

    x: float
    y: float
    lam: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


class QClassReport(NamedTuple):
    """The report of one scan: the samples_checked triples of the grid, the
    first largest margin max_margin, the count of violations, each once, and
    kept, the keep of them with the largest margins (check_godunova_levin),
    ties in (x, y, lam) order, largest first. A report is a tuple of those
    four fields."""

    samples_checked: int
    max_margin: float
    count: int
    kept: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.count

    def worst(self, k: int) -> list[Violation]:
        """The k violations with the largest margins, ties in (x, y, lam)
        order: sorted(violations, key=lambda v: (-v.margin, v.x, v.y, v.lam))[:k].
        Raises ValueError where the scan kept fewer than k of more."""
        if k > len(self.kept) < self.count:
            raise ValueError(f"the scan kept {len(self.kept)} of {self.count} violations, not {k}")
        return list(self.kept[: max(k, 0)])

    @property
    def violations(self) -> tuple[Violation, ...]:
        """Every violation, sorted by (x, y, lam), where the scan kept them
        all; (x, y, lam) fixes lhs and rhs, so sorting the whole tuples sorts
        by it."""
        return tuple(sorted(self.worst(self.count)))


Cells = list[tuple[float, float]]  # [lo, hi] of each cell
Bound = Callable[[Cells], Sequence[tuple[float, float]]]  # cells -> (low, high) of g on each


def _check_q(q: float) -> None:
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError(f"q must be finite and >= 1, got {q!r}")


class _PointMemo(dict):
    """g at each distinct point it is asked for, keyed on the exact float.

    Raises ValueError naming x where g(x) is not finite: NaN fails every
    comparison, so a scan could never flag it. 0.0 and -0.0 compare equal as
    keys but g may tell them apart, so a zero is kept under the key (sign,)
    and every lookup of one lands here.
    """

    def __init__(self, g: Callable[[float], float]) -> None:
        super().__init__()
        self._g = g

    def __missing__(self, x: float) -> float:
        key = (math.copysign(1.0, x),) if x == 0.0 else x
        if key in self:  # a zero's value, kept by sign
            return self[key]
        v = self._g(x)
        if not math.isfinite(v):
            raise ValueError(f"g is not finite at x={x!r}: {v!r}")
        self[key] = v
        return v


def _scan_grid(iv: Interval, n: int, tol: float) -> list[float]:
    """The grid points of the scan of iv at grid n with tolerance tol; raises
    ValueError where one of the three is invalid."""
    if not 2 <= n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}], got {n!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    width = iv.width
    xs = [iv.a + width * (i + 0.5) / n for i in range(n)]
    if math.isinf(xs[-1]):  # width * (n - 0.5) passed the float range
        raise ValueError(f"the {n} grid points of [{iv.a!r}, {iv.b!r}] overflow the float range")
    return xs


def _cells(xs: list[float]) -> Cells:
    """The n-1 cells of the scan with grid points xs (ascending and distinct),
    or one cell [lows[0], highs[0]] where n = 1.

    Cell k (k = 0 ... n-2) is [lows[k], highs[k+1]], where lows[i] and
    highs[i] lie at least delta below and above x_i. Every scan point of x_i
    and x_j (i < j) lies in the cells i to j-1, and every scan point of x_i
    alone in cell i-1 and in cell i, where each exists.

    delta bounds how far a scan point z = fl(fl(lam*x) + fl(fl(1-lam)*y)) of
    grid points x and y can fall outside [min(x, y), max(x, y)]. With
    u = 2^-53, A the largest |x_i| and eta = 2^-1075 (half the least
    subnormal): fl(1-lam) = 1 - lam + e0 with |e0| <= u/2 (1 - lam < 1), so
    lam*x + fl(1-lam)*y lies within u/2*A of [min, max]; the two products are
    off by at most u*A*lam + eta and u*A*fl(1-lam) + eta, and their sum by u
    times |sum| <= (1 + u/2)(1 + u)*A. In all |z - (lam*x + (1-lam)*y)| <=
    (2.5u + O(u^2))*A + 2*eta < 3*ulp(A) + ulp(A), since u*A < ulp(A) and
    2*eta = 2^-1074 <= ulp(A). So delta = 5*ulp(A) covers every scan point.

    lows[i] = down(fl(x_i - delta)) <= x_i - delta, and highs[i] >= x_i +
    delta likewise, both ascending in i. Cell k holds [lows[k], highs[k]]
    and [lows[k+1], highs[k+1]], so neighbouring cells overlap, and cells i
    to j-1 together hold [lows[i], highs[j]], which holds every scan point
    of x_i and x_j (i < j). Cells i-1 and i each hold [lows[i], highs[i]],
    every scan point of x_i alone. That is n-1 cells, none reaching more
    than delta past the pair it serves; the one cell of a lone point is
    [lows[0], highs[0]], and serves as cell i-1 and cell i of x_0.
    """
    delta = 5.0 * math.ulp(max(abs(xs[0]), abs(xs[-1])))
    lows = [math.nextafter(x - delta, -math.inf) for x in xs]
    highs = [math.nextafter(x + delta, math.inf) for x in xs]
    return list(zip(lows, highs[1:] or highs))


_SHRINK = 1.0 - 2.0**-50  # 1 - 8u (u = 2^-53): outweighs the roundings of s and s*s
_SLACK = 2.0**-1070  # 32*eta (eta = 2^-1075)
_SHRINK_SUM = 1.0 - 2.0**-48  # 1 - 32u: outweighs the roundings of a coupled key (_row_keys)
_ROOT_CAP = 2.0**510  # 3*_ROOT_CAP^2 is a quarter of the largest float


def _row_parts(gx: list[float], sup: list[float]) -> tuple[list[float], list[float], list[float | None]]:
    """What _bound_row and _row_keys read of g at the grid points (gx) and
    its cell bounds (sup): each sup[k] raised by at least 16*eta (a pair's W
    is the largest of those it reads); alone[i], the W of the diagonal pair
    of x_i; and the roots r_i <= sqrt(g_i), None where g_i is negative."""
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    # s + _SLACK loses at most half an ulp of itself, and nextafter adds a whole one
    sup = [nextafter(s + _SLACK, up) for s in sup]
    # the diagonal pair of x_i reads cell i-1 or cell i, whichever bound is less
    alone = [sup[0]] + [min(u, v) for u, v in zip(sup, sup[1:])] + [sup[-1]]
    roots = [max(nextafter(math.sqrt(v), down), 0.0) if v >= 0.0 else None for v in gx]
    return sup, alone, roots


def _bound_row(i: int, sup: list[float], alone: list[float], roots: list[float | None]) -> list[float]:
    """Row i: for each j >= i, a bound b on every scan margin of x_i and x_j,
    from the _row_parts of gx and sup, where g_i = gx[i] is the scan's own
    float g at grid point x_i and sup[k] an upper bound of g on cell k of
    _cells (inf where there is none).

    With X = (sqrt(g_i) + sqrt(g_j))^2, the scan's float right side
    R = fl(fl(g_i/lam) + fl(g_j/fl(1-lam))) is at least X*(1 - 2.5u) - 3*eta,
    since lam + fl(1-lam) <= 1 + u/2 and three roundings lose at most u and
    eta each. Here r_i <= sqrt(g_i), so s = fl(r_i + r_j) <= sqrt(X)*(1 + u),
    and rhs = down(fl(fl(s*s)*_SHRINK)) <= X*(1 + u)^4*(1 - 8u) + 2*eta <=
    X*(1 - 2.5u) + 2*eta <= R + 5*eta; down also makes an overflow max
    float, below R, which is then inf. Every scan point z of the pair lies
    in cells i to j-1 for i < j, and in either of cells i-1 and i for i = j
    (_cells), so g(z) <= U, the largest sup over cells i to j-1, or the
    smaller of the two for i = j. So b = up(W - rhs), with W >= U + 16*eta,
    is at least g(z) - R, and so at least every float margin fl(g(z) - R)
    of the pair. b is inf where U is (rhs is at most the largest float), and
    where g_i or g_j is negative, as the lemma needs both >= 0.

    Any sup that bounds g on each cell will do: one bound of g on a cell
    holding every cell, repeated, is one.
    """
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    ri = roots[i]
    if ri is None:
        return [math.inf] * (len(roots) - i)
    # the largest bound the pair (i, j) reads; alone[i] <= sup[i], so from
    # j = i+1 on it is the largest of cells i to j-1
    worst = alone[i]
    row = []
    for rj, cell in zip(roots[i:], sup[i:] + [down]):
        if rj is None:
            row.append(math.inf)
        else:
            s = ri + rj
            row.append(nextafter(worst - nextafter(s * s * _SHRINK, down), up))
        if cell > worst:  # cell j, read from the pair (i, j+1) on
            worst = cell
    return row


def _row_keys(sup: list[float], alone: list[float], roots: list[float | None]) -> list[float]:
    """key_i, at least every b of row i (_bound_row), from the _row_parts,
    in one backward pass: the smaller of two bounds, each rounded outward,
    and inf where some g_j (j >= i) is negative, as every b of such a row
    may be. With m = min(roots[i:]), the first is

        up(max(alone[i], max(sup[i:])) - down(fl(fl(r_i + m)^2)*_SHRINK)):

    the pair (i, j) reads a W of at most max(alone[i], max(sup[i:])), and
    its s = fl(r_i + r_j) is at least fl(r_i + m). Each rounding is
    monotone, so b = up(W - rhs) of every pair of the row is at most it.

    The second couples the cell that a pair reads with the roots right of
    it. The pair (i, j), j > i, reads the bound of some cell k in [i, j-1],
    and r_j >= mu_{k+1} = min(roots[k+1:]); the pair (i, i) reads alone[i],
    at most the bound of cell i-1 (of cell 0 for i = 0), and r_i >= mu_i.
    Both have r_j >= m, so (r_i + r_j)^2 >= mu^2 + r_i*(r_i + 2m), with mu
    the mu of the cell read. With c = 1 - 32u (_SHRINK_SUM) and the roots
    capped at 2^510 (lowering a root keeps each inequality), let
    a(mu) = fl(fl(fl(mu*mu)*c) - 32*eta) and B_i = fl(fl(fl(r_i*fl(r_i +
    2m))*c) - 32*eta). Each is at most c*(1 + u)^4 times its real product,
    less 29*eta, and the pair's rhs (_bound_row) is at least
    (1 - 14u)*(r_i + r_j)^2 - 4*eta, or the largest float where fl(s*s)
    overflows, so a(mu) + B_i <= rhs (the cap keeps the sum below the
    largest float). So W - rhs <= A - B_i for A = up(fl(sup - a(mu))) of
    the cell read, and with T_i the largest such A over the cells i-1 to
    n-2 (a suffix maximum), every b of the row is at most up(fl(T_i - B_i)).
    """
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    keys = []
    top, least, lead = down, up, down  # max(sup[i:]), m (None past a negative g) and T_i
    tops, lefts = sup + [down], sup[:1] + sup  # cell i, and cell i-1 (cell 0 for i = 0), of row i
    # conditional expressions, not max and min: this pass runs for every ranking and proof
    for i in range(len(roots) - 1, -1, -1):
        ri = roots[i]
        if ri is None or least is None:
            least = None
            keys.append(up)
            continue
        if ri < least:
            least = ri
        if tops[i] > top:
            top = tops[i]
        s, w = ri + least, alone[i]
        key = nextafter((w if w > top else top) - nextafter(s * s * _SHRINK, down), up)
        c, m = (ri if ri < _ROOT_CAP else _ROOT_CAP), (least if least < _ROOT_CAP else _ROOT_CAP)
        a = nextafter(lefts[i] - (m * m * _SHRINK_SUM - _SLACK), up)
        if a > lead:
            lead = a
        coupled = nextafter(lead - (c * (c + 2.0 * m) * _SHRINK_SUM - _SLACK), up)
        keys.append(coupled if coupled < key else key)
    keys.reverse()
    return keys


def ranked_pairs(
    lows: list[float], sup: list[float], floor: float, values: Callable[[], list[float]]
) -> Iterator[tuple[float, int, int]]:
    """(b, i, j) for each pair of grid points i <= j whose bound b
    (_bound_row) is above floor, highest b first: the order of
    sorted(..., reverse=True), ties of b broken by the higher i, then the
    higher j.

    b is that of g at the grid points, values(), under the cell bounds sup.
    A walk that stops early takes few pairs, so the pairs are ranked lazily
    from a heap with one entry per row, keyed on (a bound of) the row's
    largest b not yet taken and then on i (no two rows share an i). A row
    enters under its key (_row_keys), at least every b of the row, where
    that is above floor. The keys come first from lows, lower bounds of g
    at the grid points (g itself for a scan, which has read it), and are
    keys of g too, since a key only grows as a root falls. values() is
    called once, when the first row must be built; where its g differs from
    lows, every row is keyed again from g. A row's bounds are computed
    (_bound_row) only when its key reaches the top, and the row goes back
    under its exact largest b, or is dropped where that is at most floor. A
    row's pairs are sorted only when the first of them is taken.
    An exact entry at the top is at or above every other entry's key, and
    so above or tied with every b left in the heap, ties broken by i as
    the sort breaks them, so the order is the sort's.
    """
    import heapq  # loaded at the first ranking, not at start-up

    def keyed(gx):
        parts = _row_parts(gx, sup)
        # (-key, -i, row, left): row None until built, left None until sorted
        heap = [(-key, -i, None, None) for i, key in enumerate(_row_keys(*parts)) if key > floor]
        heapq.heapify(heap)
        return parts, heap

    (parts, heap), gx = keyed(lows), None
    while heap:
        _, neg_i, row, left = heap[0]
        i = -neg_i
        if row is None:  # the key reached the top: build the row, and key it exactly
            if gx is None and (gx := values()) != lows:  # the first row: key every row from g
                parts, heap = keyed(gx)
                continue
            row = _bound_row(i, *parts)
            top = max(row)
            if top > floor:
                heapq.heapreplace(heap, (-top, neg_i, row, None))
            else:
                heapq.heappop(heap)
            continue
        if left is None:  # the row's first pair taken: sort it, highest (b, j) last
            left = sorted([(b, j) for j, b in enumerate(row, i) if b > floor])
        b, j = left.pop()
        yield b, i, j
        if left:
            heapq.heapreplace(heap, (-left[-1][0], neg_i, row, left))
        else:
            heapq.heappop(heap)


def check_godunova_levin(
    g: Callable[[float], float],
    iv: Interval,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    bound: Bound | None = None,
    *,
    keep: int = 10,
) -> QClassReport:
    """Scan the defining inequality over a grid_n^3 triple grid, with the
    report and the error of a loop over lam, then x, then y.

    samples_checked counts the (x, y, lam) triples. A negative sample value is
    itself a violation (the class contains nonnegative functions only) at the
    degenerate triple (x, x, 1/2). count is the number of distinct violating
    triples, and kept holds the keep of them with the largest margins, with
    their evaluated sides, so borderline margins can be audited (keep =
    samples_checked keeps every one). max_margin is the first largest margin
    in the order lam, x, y (NaN margins, from g spanning +-1e308, never
    count).

    g is called once per distinct sample point the scan visits (the triples
    share 2n^2 to about 9n^2 points), so it must be deterministic; the values
    are held until the scan returns. Raises ValueError naming x when g(x) is
    not finite (_PointMemo). Where g raises, or is not finite, at several
    points, the error is that of the first grid point in order, or, with
    none there, of the first point in the order lam, x, y.

    Each pair of grid lams that mirror each other exactly is scanned once:
    the later lam of the pair sees the same margins as the earlier one, so it
    adds its violations but can never raise max_margin (only a strictly
    larger margin does). Every triple still counts in samples_checked.

    The scan walks the pairs of distinct grid points in descending
    ratio-lemma bound (_walk) and stops where no pair left can hold a
    violation or the first largest margin; the report is the loop's, bit for
    bit. bound gives the bounds: bound(cells), called once with the cells
    [lo, hi] of _cells (grid_n - 1 where no grid points coincide), is
    one pair (low, high) of g per cell, a tuple or any other sequence of two
    floats: high an upper bound, inf on a cell where it cannot give one (a
    NaN counts as inf), and low a lower bound, -inf where it cannot (a NaN
    proves nothing). The scan hands the walk these pairs, as tuples with a
    NaN high made inf, and nothing else of the bound. The scan cannot derive
    them from g, which may be any callable: the entry points below pass the
    enclosure of the expression behind g. A triple whose cell proves it a
    violation reads g only where it may be kept (_walk). Without a bound
    every cell is (-inf, inf), and the walk visits every pair and reads g at
    every point of each.

    Raises ValueError where grid_n, tol or keep is invalid, where the grid
    points of iv pass the float range (a width above about 2.8e306 at
    grid_n = 64), or where bound gives other than one value per cell.
    """
    n = grid_n
    xs = _scan_grid(iv, n, tol)
    # each value once: at large offsets grid points coincide, and xs ascends
    xs = xs[:1] + [y for x, y in zip(xs, xs[1:]) if y != x]
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep!r}")
    cells = _cells(xs)
    ends: Sequence = [(-math.inf, math.inf)] * len(cells)
    if bound is not None:
        given = bound(cells)
        if len(given) != len(cells):
            raise ValueError(f"bound gave {len(given)} values for the {len(cells)} cells of the grid")
        ends = [(low, math.inf if math.isnan(high) else high) for low, high in given]
    memo = _PointMemo(g)

    worst: list = []  # the heap of the kept violations (_keep)
    count, max_margin = 0, -math.inf
    gx = [memo[x] for x in xs]
    for x, gv in zip(xs, gx):
        if gv < -tol:
            # 0.5*x + 0.5*x reproduces x exactly, so this re-checks soundly
            rhs = gv / 0.5 + gv / 0.5
            max_margin = max(max_margin, gv - rhs)
            if n % 2 == 0:  # at an odd grid the walk meets (x, x, 1/2) at lam = 1/2 and counts it
                count += 1
                _keep(worst, keep, gv - rhs, x, x, 0.5, gv, rhs, False)

    found = 0
    # the walk's last yield, after its last pair, has the largest margin and every violation
    for _, max_margin, found in _walk(xs, n, cells, ends, memo, tol, max_margin, gx, worst, keep):
        pass
    kept = tuple(Violation._make((-x, -y, -lam, lhs, rhs)) for _, x, y, lam, lhs, rhs in sorted(worst, reverse=True))
    return QClassReport(n * n * n, max_margin, count + found, kept)


def _keep(worst: list, keep: int, m: float, x: float, y: float, lam: float, lhs: float, rhs: float,
          paired: bool) -> float:
    """Put the violation (x, y, lam, lhs, rhs) of margin m, and its mirror
    (y, x, 1 - lam) where paired, among the keep largest of the heap worst,
    and return the floor: the least margin kept once keep are (-inf before,
    inf where keep is 0). An entry is (m, -x, -y, -lam, lhs, rhs), so the
    heap's least is the one that sorted(..., key=lambda v: (-v.margin, v.x,
    v.y, v.lam)) puts last; its (x, y, lam) fixes the rest."""
    import heapq

    for entry in ((m, -x, -y, -lam, lhs, rhs), (m, -y, -x, -(1.0 - lam), lhs, rhs))[: 1 + paired]:
        if len(worst) < keep:
            heapq.heappush(worst, entry)
        elif worst and entry > worst[0]:
            heapq.heapreplace(worst, entry)
    return _floor(worst, keep)


def _floor(worst: list, keep: int) -> float:
    """The least margin of the heap worst of _keep, once it holds keep."""
    return -math.inf if len(worst) < keep else worst[0][0] if worst else math.inf


@cache
def _visits(n: int) -> tuple[tuple[float, bool], ...]:
    """The passes of a scan over the grid lams (k + 1/2)/n, in order, as
    (lam, whether the pass also decides its mirror). Where lam and its
    mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and 1 - lam' == lam
    exactly, the later of the two gets no pass of its own. Made once per n.
    """
    lams = [(k + 0.5) / n for k in range(n)]
    visits = []
    for k, lam in enumerate(lams):
        mirror = lams[n - 1 - k]
        paired = k != n - 1 - k and 1.0 - lam == mirror and 1.0 - mirror == lam
        if not (paired and k > n - 1 - k):
            visits.append((lam, paired))
    return tuple(visits)


def _walk(
    xs: list[float],
    n: int,
    cells: Cells,
    ends: Sequence[tuple[float, float]],
    memo: _PointMemo,
    tol: float,
    top: float,
    lows: list[float],
    worst: list,
    keep: int,
) -> Iterator[tuple[float, float, int]]:
    """Visit the pairs (b, i, j) of the grid points xs of grid n, i <= j
    (distinct for a scan, so that it meets each violation once), highest
    bound b first (ranked_pairs, from g at xs, read through memo once it
    builds a row, and the high ends of ends; lows, lower bounds of g at xs,
    key the rows until then), each at every lam of _visits(n) in both
    orders of its points, and yield (b, top, count), the pair's bound, the
    largest margin so far and the violations met so far, once after each
    pair: a caller that stops at the first violation reads the count between
    pairs, at the cost of the rest of that pair's margins (63 at most at
    grid 64, two for each of its 32 visits). Margins are as the lam-major
    loop that defines the scan computes them, and a violation at a lam
    whose mirror has no visit of its own counts for the mirror's too, and
    goes to the heap worst (_keep) with it where its margin reaches the
    floor of the keep kept. Of margins tied at top (0.0 and -0.0 compare
    equal), the first in lam-major order (visit, row, column) is kept, as
    in that loop.

    The walk stops at the first pair with b <= tol and b < top: every margin
    of a pair is at most its bound (_bound_row), and no bound left is above
    b, so no pair left holds a violation or a margin that reaches top. A
    mirror lam, with no visit of its own, repeats the margins of an earlier
    visit. So the violations and top are the lam-major loop's. top only
    grows, so where it starts above tol (a scan's negative values, or inf
    for a decision) every pair with b <= tol is one the walk stops at: the
    ranking leaves them out (its floor is tol), and the walk ends when the
    pairs above tol run out.

    A triple's own cell may decide it with no g read. ends[k] = (low_k,
    high_k) bounds g below and above on cell k of cells, the _cells of xs,
    high_k never NaN. The triple's point z lies at index position
    lam*p + (1-lam)*q, so in cell k = p + floor((1-lam)*(q-p)) (the last
    cell where that is past it), which lo_k <= z <= hi_k confirms. There
    low_k <= g(z) <= high_k, so by monotone rounding its margin
    m = fl(g(z) - rhs) lies between fl(low_k - rhs) and
    u = fl(high_k - rhs). Where u <= tol and u < top, the triple neither
    violates nor reaches top: the cell clears it. Where tol < u < top and
    fl(low_k - rhs) > tol, the triple violates, with m <= u < top, so it
    moves neither top nor the first place of a tie with it: the cell proves
    it, and g is read at z only where u reaches the floor of the kept ones,
    which a margin below it cannot join. high_k = inf gives u = inf or NaN,
    which clears and proves nothing, and so does a low_k of -inf or NaN: a
    cell where the enclosure behind the bound declines decides no triple.
    The bounds rest on the enclosure's premise, libm accurate to the 2^-50
    that enclosure._LIBM_WIDEN widens by.

    A finite cell proves g finite, and raising nothing, at every point of
    the cell; a cell where the enclosure declines is inf. Every point the
    walk asks for lies in a cell of its pair, so a point where g raises
    lies only in pairs with b = inf, which rank before every other pair.
    The walk meets the points in another order than the loop, so where it
    raises it asks for them again in the loop's order, the grid points
    first (a decision reads them only when its ranking builds a row; a scan
    reads them before its walk), then each visit's lam, then x, then y, at
    the walk's own point (the values it has cost nothing), and the loop's
    first failing point raises.
    """
    steps = [(v, lam, 1.0 - lam, paired) for v, (lam, paired) in enumerate(_visits(n))]
    # (lo, hi, low, high) of each cell, the last one again past it
    table = [(lo, hi, low, high) for (lo, hi), (low, high) in zip(cells, ends)]
    table.append(table[-1])
    offsets: dict[int, list[int]] = {}  # q - p -> each visit's cell, less p
    at = (-1, 0, 0)  # where top is in lam-major order; -1 is before every visit
    count, floor = 0, _floor(worst, keep)
    try:
        highs = [high for _, high in ends]
        for b, i, j in ranked_pairs(lows, highs, tol if top > tol else -math.inf, lambda: [memo[x] for x in xs]):
            if b <= tol and b < top:
                return
            for p, q in ((i, j), (j, i)) if i < j else ((i, i),):
                xp, xq = xs[p], xs[q]
                gp, gq = memo[xp], memo[xq]
                offs = offsets.get(q - p)
                if offs is None:
                    offs = offsets[q - p] = [math.floor(clam * (q - p)) for _, _, clam, _ in steps]
                held = [table[p + o] for o in offs]
                for (v, lam, clam, paired), (lo, hi, low, high) in zip(steps, held):
                    z = lam * xp + clam * xq
                    rhs = gp / lam + gq / clam
                    if lo <= z <= hi:
                        u = high - rhs
                        if u < top:
                            if u <= tol:  # the cell clears the triple
                                continue
                            if low - rhs > tol:  # the cell proves a violation
                                count += 1 + paired
                                if u >= floor:  # its margin, at most u, may be kept
                                    lhs = memo[z]
                                    floor = _keep(worst, keep, lhs - rhs, xp, xq, lam, lhs, rhs, paired)
                                continue
                    lhs = memo[z]
                    m = lhs - rhs
                    if m >= top and (m > top or (v, p, q) < at):
                        top, at = m, (v, p, q)
                    if m > tol:
                        count += 1 + paired
                        if m >= floor:
                            floor = _keep(worst, keep, m, xp, xq, lam, lhs, rhs, paired)
            yield b, top, count
    except Exception:
        for x in xs:
            memo[x]
        for _, lam, clam, _ in steps:
            for xp in xs:
                for xq in xs:
                    memo[lam * xp + clam * xq]
        raise


def check_expression(
    e: Node, iv: Interval, grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_TOL, *, keep: int = 10
) -> QClassReport:
    """Scan g = e itself, as its value closure computes it: qclass --g.

    The scan walks the pairs by the enclosure of g, its (low, high) on each
    cell, with the same report.
    """
    bound = glbounds.enclosure.compile_value(e)
    return check_godunova_levin(_compile_value(e), iv, grid_n, tol, bound, keep=keep)


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    *,
    keep: int = 10,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes:
    qclass --fn. The scan walks the pairs by the enclosure of |f''|, its
    (low, high) on each cell raised to q (_q_ends), with the same report.
    """
    _check_q(q)
    d2 = glbounds.enclosure.compile_second_derivative(e)
    return check_godunova_levin(_q_power(e, q), iv, grid_n, tol, lambda cells: _q_ends(d2(cells), q), keep=keep)


def bound_memberships(e: Node, iv: Interval, q_list: Sequence[float]) -> dict[float, bool]:
    """q -> whether membership_for_bound(e, iv, q) passes, for each q of q_list
    in order: the membership decision of bound and sweep.

    Each q is decided in up to three steps. First, |f''| is enclosed on one cell,
    the _cells of the grid's two end points, which runs from the first low
    of the grid's cells to their last high and so holds every cell and
    every scan point, as one pair (L, H), which _q_ends raises to q: H
    bounds |f''| on each cell, and L puts every grid value g_i at or above
    low = inf_power(L, q). So the row keys (_row_keys) of the two values
    [low, low] under the one bound S = sup_power(H, q) are at least the
    keys of the grid's own values under [S] * (n-1), a cover that the proof
    of _bound_row takes as it is (each rounding in a key is monotone).
    Where every such key is at most DEFAULT_TOL, no pair can hold a
    violation, and the scan passes with no g evaluated (S finite also
    proves that g raises nowhere).

    That proves a constant |f''| (x^2 on any interval) and a g that stays
    within the ratio lemma's factor 4 of its least value, as on tiny
    windows away from a zero of f'' (sin on the edge benchmark's windows)
    or exp on [0, 1] at q = 1.2. It does not prove exp on [0, 1] at q = 2
    (e^2 > 4), sin on [0, 1e-9], where g is near 0 at the left end, or
    cosh on [-1, 1], where interval dependency widens |f''| to [0.37, 2.7]
    on the one cell against the true [1, 1.54]. Second, for such a q,
    |f''| is enclosed, once for that q and every later one, on 8 coarse
    cells, each the union of 8 cells of the grid from their own ends (the
    last of 7), and the q passes where the keys of the larger low of g on
    the two coarse cells that hold each grid point (_point_lows) under the
    high of each grid cell's coarse cell are all at most DEFAULT_TOL
    (_proves): the coarse cells hold the cells they cover, so these are keys
    of the grid's own values under a valid cover, and no g is evaluated.
    That proves cosh on [-1, 1] at q = 1.2 and exp on [0, 1] at q = 2.
    Third, |f''| is enclosed on the n-1 cells of the default grid, once,
    for that q and every later one (which then skip the coarse cells, whose
    bounds hold these), and the decision by the ratio lemma (_decide)
    answers it without a scan. Each cell's enclosure lies inside its coarse
    cell's and the one cell's (interval arithmetic is inclusion-isotone),
    so the cells prove whatever the wider covers prove, with no row of pair
    bounds built and no g evaluated. Every step answers as the scan: the
    answers, and the first error raised, are the scans'.
    """
    for q in q_list:
        _check_q(q)
    xs = _scan_grid(iv, DEFAULT_GRID_N, DEFAULT_TOL)
    d2 = glbounds.enclosure.compile_second_derivative(e)
    hull = d2(_cells([xs[0], xs[-1]]))
    cells = coarse = ends = None  # the cells of the grid, and |f''| on 8 and on each of them
    memberships = {}
    for q in dict.fromkeys(q_list):
        if _proves(_q_ends(hull, q)):
            memberships[q] = True  # no g evaluated
            continue
        if ends is None:
            if coarse is None:
                cells = _cells(xs)
                coarse = d2([(cells[k][0], cells[min(k + 7, len(cells) - 1)][1]) for k in range(0, len(cells), 8)])
            if _proves([cover for cover in _q_ends(coarse, q) for _ in range(8)][: len(cells)]):
                memberships[q] = True  # no g evaluated
                continue
            ends = d2(cells)
        memberships[q] = _decide(e, q, xs, cells, ends)
    return memberships


def _point_lows(ends: Sequence[tuple[float, float]]) -> list[float]:
    """A lower bound of g at each grid point from the (low, high) of g on
    each of the _cells: the larger low of the two cells that hold the point,
    of the one cell that holds each end point."""
    lows = [low for low, _ in ends]
    return lows[:1] + list(map(max, lows, lows[1:])) + lows[-1:]


def _proves(ends: Sequence[tuple[float, float]]) -> bool:
    """Whether every row key (_row_keys) from the lows of g at the grid
    points (_point_lows) under its highs on the cells is at most
    DEFAULT_TOL: then no pair can hold a violation, and the scan passes."""
    parts = _row_parts(_point_lows(ends), [high for _, high in ends])
    return all(key <= DEFAULT_TOL for key in _row_keys(*parts))


def _q_ends(ends: Sequence[tuple[float, float]], q: float) -> list[tuple[float, float]]:
    """The (low, high) of g = |f''|^q on each cell, from the (low, high) of
    |f''| there: the low end by inf_power and the high end by sup_power,
    each widened past the rounding of the float power that g computes."""
    inf_power, sup_power = glbounds.enclosure.inf_power, glbounds.enclosure.sup_power
    return [(inf_power(low, q), sup_power(high, q)) for low, high in ends]


def _q_power(e: Node, q: float) -> Callable[[float], float]:
    """x -> |f''(x)|^q, the g of membership_for_bound's scan."""
    jet = _compile_jet(e)

    def g(x: float) -> float:
        d2 = abs(jet(x)[2])
        try:
            return d2**q
        except OverflowError:
            msg = f"|f''(x)|^q overflows at x={x!r}: |f''| = {d2!r}, q = {q!r}"
            raise ValueError(msg) from None

    return g


def _decide(e: Node, q: float, xs: list[float], cells: Cells, ends: list[tuple[float, float]]) -> bool:
    """membership_for_bound(e, iv, q).passed, decided without the scan, or
    the error that scan raises; xs are the grid points of iv at
    DEFAULT_GRID_N, cells their _cells, and ends the pair (low, high) of
    |f''| on each cell ((0, inf) where the enclosure declines), which
    _q_ends raises to q.

    Only a pair whose bound is above DEFAULT_TOL can hold a violation
    (_bound_row), so _walk visits just those pairs, hottest first, with the
    same cell tests as the scan: a violation that its cell proves reads no
    g. Its ranking keys the rows from the larger low of g on the two cells
    that hold each grid point (_point_lows), and reads g at the grid points
    only when it must build a row; where no key is above DEFAULT_TOL, the
    decision reads no g, and every cell is finite, so g raises nowhere.
    g >= 0, so the scan's check for negative values never fires. The
    pairs with b = inf come first, and they hold every point where g may
    raise (_walk), so the walk raises where the scan does, with its error.
    Once they are all visited, the pair that holds the first violation
    answers False: after it where its b is finite, else after the first
    pair with a finite b, or at the end of the walk. No violation at all,
    or no pair to visit (the ratio lemma's proof), answers True.
    """
    ends = _q_ends(ends, q)
    # no margin is reported, so top starts at inf, where no margin reaches it; nothing is kept
    walk = _walk(xs, DEFAULT_GRID_N, cells, ends, _PointMemo(_q_power(e, q)), DEFAULT_TOL, math.inf,
                 _point_lows(ends), [], 0)
    found = 0
    for b, _, found in walk:
        if found and b < math.inf:  # every pair where g may raise is visited
            return False
    return not found
