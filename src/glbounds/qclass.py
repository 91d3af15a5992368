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

The scan is defined by a loop over lam, then x, then y. For every lam in
(0, 1) and g(x), g(y) >= 0,

    g(x)/lam + g(y)/(1-lam) >= (sqrt(g(x)) + sqrt(g(y)))^2

(Cauchy-Schwarz, the ratio lemma), so an upper bound of g between two grid
points bounds every margin g(z) - rhs of the pair, whatever lam. The scan
takes such bounds from its argument bound, one per cell of the grid
(_cells: one cell per grid step, reaching a few ulps past its two grid
points), and turns them into one bound per pair of grid points over just
the cells its scan points reach (pair_bound_rows). The entry points pass an
interval enclosure (glbounds.enclosure) of f or |f''|, inf on a cell where
it declines. One walk (_walk) visits the pairs hottest first by that bound,
computing each margin as the loop does. The scan is that walk, stopped
where no pair left can change its report, and its report and first error
are the loop's. The walk takes its pairs from a lazy ranking
(ranked_pairs), which computes a row's bounds only when an O(1) key of
the row reaches the top of its heap, and sorts only the rows it takes a
pair from. The key of row i,

    key_i = up(max(alone_i, max(sup[i:])) - down(fl(fl(r_i + m_i)^2)*_SHRINK)),

with m_i the least root r_j of the row (_row_keys), is at least every b of
the row, since every rounding is monotone: each pair reads a cell bound of
at most the first term, and its s = fl(r_i + r_j) is at least
fl(r_i + m_i). bound_memberships needs no report. It encloses |f''| first
on one cell that holds every cell of the grid, a valid cover as it is, and
a q whose row keys there are all at most the tolerance passes with no
ranking at all: from the cell's lower bound of |f''| alone where it can,
with no g evaluated, else from g at the grid points. For any other q,
_decide walks only the pairs above the tolerance and answers after the
pair that holds the first violation (with none, or no such pair, the scan
passes). The pairs with b = inf come first and hold every point where g
may raise, so _decide answers False only once they are all visited, and
raises the scan's error where the scan would: it answers every input as
the scan would, and bound and sweep run no scan. The cells, and what a
bound means for a pair, are decided in this module only.

The enclosure and heapq are imported when the first scan or decision runs,
so every command but bound, sweep and qclass starts without them.

DEFAULT_GRID_N and DEFAULT_TOL are decided here only: bound and sweep decide
with them, and they are the defaults of the CLI's qclass --grid and --tol.
MAX_GRID_N caps every scan, since a scan costs n^3 time and holds up to
about 9n^2 points.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point it visits and its values are
kept until the scan returns: g must be deterministic, and memory grows with
the number of distinct points (about 100 bytes each: up to 3 MB at n = 64
and 15 MB at n = 128, less where the walk stops early).

A report is built after its scan: the scan records each violation, and
the mirror's where a pass decides two lams, as a plain tuple (x, y, lam,
lhs, rhs), and the report keeps each once, sorted by (x, y, lam), as a
Violation, the named tuple made from it. A failing scan reports thousands,
so none becomes a Violation before its duplicates are dropped.

The triple (y, x, 1-lam) has the same point and the same right side as
(x, y, lam), because float addition is commutative. So when a grid lam and
its mirror lam' = lams[n-1-k] satisfy 1 - lam == lam' and 1 - lam' == lam
exactly (every lam at n = 64 and 128, some at other n), one pass over lam
decides both, and samples_checked still counts every triple.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .expressions import Node, _compile_jet, _compile_value
from .quadrature import Interval

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
    samples_checked: int
    violations: tuple[Violation, ...]
    max_margin: float
    passed: bool


Raw = list[tuple[float, float, float, float, float]]  # (x, y, lam, lhs, rhs) of each violation
Cells = list[tuple[float, float]]  # [lo, hi] of each cell
Bound = Callable[[Cells], list[float]]  # cells -> an upper bound of g on each


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
    """The n-1 cells of the scan with grid points xs (ascending, n >= 2).

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
    than delta past the pair it serves.
    """
    delta = 5.0 * math.ulp(max(abs(xs[0]), abs(xs[-1])))
    lows = [math.nextafter(x - delta, -math.inf) for x in xs]
    highs = [math.nextafter(x + delta, math.inf) for x in xs]
    return list(zip(lows, highs[1:]))


def _hull(xs: list[float]) -> tuple[float, float]:
    """The cell from the first low of _cells(xs) to its last high, which
    holds every cell: the one cell of the grid's two end points, whose delta
    is the grid's."""
    [hull] = _cells([xs[0], xs[-1]])
    return hull


def _cell_bounds(bound: Bound | None, xs: list[float]) -> list[float]:
    """bound(cells) on the cells of the scan with grid points xs, called
    once: inf on every cell where bound is None (_bounds_on otherwise)."""
    if bound is None:
        return [math.inf] * (len(xs) - 1)
    return _bounds_on(bound, _cells(xs))


def _bounds_on(bound: Bound, cells: Cells) -> list[float]:
    """bound(cells), called once, with inf on each cell where it gives NaN.
    Raises ValueError where it gives other than one bound per cell."""
    sup = [math.inf if math.isnan(s) else s for s in bound(cells)]
    if len(sup) != len(cells):
        raise ValueError(f"bound gave {len(sup)} values for the {len(cells)} cells of the grid")
    return sup


_SHRINK = 1.0 - 2.0**-50  # 1 - 8u (u = 2^-53): outweighs the roundings of s and s*s
_SLACK = 2.0**-1070  # 32*eta (eta = 2^-1075)


def pair_bound_rows(gx: list[float], sup: list[float]) -> Iterator[list[float]]:
    """Row i: for each j >= i, a bound b on every scan margin of x_i and x_j,
    from g_i = gx[i], the scan's own float g at grid point x_i, and sup[k],
    an upper bound of g on cell k of _cells (inf where there is none).

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
    parts = _row_parts(gx, sup)
    for i in range(len(gx)):
        yield _bound_row(i, *parts)


def _row_parts(gx: list[float], sup: list[float]) -> tuple[list[float], list[float], list[float | None]]:
    """What the rows of pair_bound_rows read: each sup[k] raised by at least
    16*eta (a pair's W is the largest of those it reads); alone[i], the W of
    the diagonal pair of x_i; and the roots r_i <= sqrt(g_i), None where g_i
    is negative."""
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    # s + _SLACK loses at most half an ulp of itself, and nextafter adds a whole one
    sup = [nextafter(s + _SLACK, up) for s in sup]
    # the diagonal pair of x_i reads cell i-1 or cell i, whichever bound is less
    alone = [sup[0]] + [min(u, v) for u, v in zip(sup, sup[1:])] + [sup[-1]]
    roots = [max(nextafter(math.sqrt(v), down), 0.0) if v >= 0.0 else None for v in gx]
    return sup, alone, roots


def _bound_row(i: int, sup: list[float], alone: list[float], roots: list[float | None]) -> list[float]:
    """Row i of pair_bound_rows, from its _row_parts."""
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
    """key_i, at least every b of row i of pair_bound_rows, from its
    _row_parts, in one backward pass:

        key_i = up(max(alone[i], max(sup[i:])) - down(fl(fl(r_i + m_i)^2)*_SHRINK))

    with m_i = min(roots[i:]), and inf where some g_j (j >= i) is negative,
    as every b of such a row may be. The pair (i, j) reads a W of at most
    max(alone[i], max(sup[i:])), and its s = fl(r_i + r_j) is at least
    fl(r_i + m_i). Each rounding is monotone, so b = up(W - rhs) of every
    pair of the row is at most key_i.
    """
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    keys = []
    top, least = down, up  # max(sup[i:]) and min(roots[i:]); least None past a negative g
    for i in range(len(roots) - 1, -1, -1):
        if i < len(sup):
            top = max(top, sup[i])
        ri = roots[i]
        least = None if ri is None or least is None else min(least, ri)
        if least is None:
            keys.append(math.inf)
        else:
            s = ri + least
            keys.append(nextafter(max(alone[i], top) - nextafter(s * s * _SHRINK, down), up))
    keys.reverse()
    return keys


def ranked_pairs(gx: list[float], sup: list[float], floor: float) -> Iterator[tuple[float, int, int]]:
    """(b, i, j) for each pair of grid points i <= j whose bound b
    (pair_bound_rows) is above floor, highest b first: the order of
    sorted(..., reverse=True), ties of b broken by the higher i, then the
    higher j.

    A walk that stops early takes few pairs, so the pairs are ranked lazily
    from a heap with one entry per row, keyed on (a bound of) the row's
    largest b not yet taken and then on i (no two rows share an i). A row
    enters under its key (_row_keys), at least every b of the row, where
    that is above floor; its bounds are computed (_bound_row, the code of
    pair_bound_rows) only when the key reaches the top, and the row goes
    back under its exact largest b, or is dropped where that is at most
    floor. A row's pairs are sorted only when the first of them is taken.
    An exact entry at the top is at or above every other entry's key, and
    so above or tied with every b left in the heap, ties broken by i as
    the sort breaks them, so the order is the sort's.
    """
    import heapq  # loaded at the first ranking, not at start-up

    parts = _row_parts(gx, sup)
    # (-key, -i, row, left): row None until built, left None until sorted
    heap = [(-key, -i, None, None) for i, key in enumerate(_row_keys(*parts)) if key > floor]
    heapq.heapify(heap)
    while heap:
        _, neg_i, row, left = heap[0]
        i = -neg_i
        if row is None:  # the key reached the top: build the row, and key it exactly
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
) -> QClassReport:
    """Scan the defining inequality over a grid_n^3 triple grid, with the
    report and the error of a loop over lam, then x, then y.

    samples_checked counts the (x, y, lam) triples. A negative sample value is
    itself a violation (the class contains nonnegative functions only) and is
    recorded at the degenerate triple (x, x, 1/2). Violations are reported
    sorted by (x, y, lam) with their evaluated sides so borderline margins can
    be audited. max_margin is the first largest margin in the order lam, x, y
    (NaN margins, from g spanning +-1e308, never count).

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

    The scan walks the pairs of grid points in descending ratio-lemma bound
    (_walk) and stops where no pair left can hold a violation or the first
    largest margin; the report is the loop's, bit for bit. bound gives the
    bounds: bound(cells), called once with the grid_n - 1 cells [lo, hi] of
    _cells, is one upper bound of g per cell, inf on a cell where it cannot
    give one (a NaN counts as inf). The scan cannot derive it from g, which
    may be any callable: the entry points below pass the enclosure of the
    expression behind g. Without a bound every cell is inf, and the walk
    visits every pair.

    Raises ValueError where grid_n or tol is invalid, where the grid points
    of iv pass the float range (a width above about 2.8e306 at grid_n = 64),
    or where bound gives other than grid_n - 1 values.
    """
    n = grid_n
    xs = _scan_grid(iv, n, tol)
    sup = _cell_bounds(bound, xs)
    memo = _PointMemo(g)
    gx = [memo[x] for x in xs]

    # a failing scan records thousands of violations, so each Violation is
    # built once, after the dedup
    raw: Raw = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            # 0.5*x + 0.5*x reproduces x exactly, so this re-checks soundly
            rhs = gv / 0.5 + gv / 0.5
            raw.append((x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    pairs = ranked_pairs(gx, sup, -math.inf)
    # the walk's last yield, after its last pair, has the largest margin
    for _, max_margin in _walk(pairs, xs, gx, memo, tol, raw, max_margin):
        pass

    # tuples dedup and sort as the Violations would: field by field, stably
    unique = sorted(dict.fromkeys(raw), key=itemgetter(0, 1, 2))
    violations = tuple(map(Violation._make, unique))
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


def _lam_major(xs: list[float]) -> Iterator[tuple[tuple[float, float, bool], float, list[float]]]:
    """The rows of the lam-major loop that defines the scan of the grid xs, in
    its order: for each visit of _visits, then each grid point x, the visit,
    x and the points lam*x + (1-lam)*y of every grid point y in turn."""
    for visit in _visits(len(xs)):
        lam = visit[0]
        cols = [(1.0 - lam) * y for y in xs]
        for x in xs:
            base = lam * x
            yield visit, x, [base + c for c in cols]


def _walk(
    pairs: Iterable[tuple[float, int, int]],
    xs: list[float],
    gx: list[float],
    memo: _PointMemo,
    tol: float,
    raw: Raw,
    top: float,
) -> Iterator[tuple[float, float]]:
    """Visit the pairs (b, i, j) of grid points, i <= j, in the order given
    (ranked_pairs: highest b first), each at every lam of _visits in
    both orders of its points, and yield (b, top), the pair's bound and the
    largest margin so far, once after each pair: a caller that stops at the
    first violation reads raw between pairs, at the cost of the rest of that
    pair's margins (63 at most at grid 64, two for each of its 32 visits).
    Margins, and violations with their mirrors in raw, are as the lam-major
    loop that defines the scan computes and records them. Of margins tied at
    top (0.0 and -0.0 compare equal), the first in lam-major order (visit,
    row, column) is kept, as in that loop.

    The walk stops at the first pair with b <= tol and b < top: every margin
    of a pair is at most its bound (pair_bound_rows), and no bound left
    is above b, so no pair left holds a violation or a margin that reaches
    top. A mirror lam, with no visit of its own, repeats the margins of an
    earlier visit. So raw and top are the lam-major loop's.

    A finite cell proves g finite, and raising nothing, at every point of
    the cell; a cell where the enclosure behind the bound declines is inf.
    Every point the walk asks for lies in a cell of its pair, so a point
    where g raises lies only in pairs with b = inf, which rank before every
    other pair. The walk meets the points in another order than the loop, so
    where it raises it asks for them again in the loop's order (_lam_major;
    the values it has cost nothing), and the loop's first failing point
    raises.
    """
    visits = _visits(len(xs))
    steps = [(lam, 1.0 - lam) for lam, _, _ in visits]
    at = (-1, 0, 0)  # where top is in lam-major order; -1 is before every visit
    try:
        for b, i, j in pairs:
            if b <= tol and b < top:
                return
            for p, q in ((i, j), (j, i)) if i < j else ((i, i),):
                xp, xq, gp, gq = xs[p], xs[q], gx[p], gx[q]
                for v, (lam, clam) in enumerate(steps):
                    lhs = memo[lam * xp + clam * xq]
                    rhs = gp / lam + gq / clam
                    m = lhs - rhs
                    if m >= top and (m > top or (v, p, q) < at):
                        top, at = m, (v, p, q)
                    if m > tol:
                        _, mirror, paired = visits[v]
                        raw.append((xp, xq, lam, lhs, rhs))
                        if paired:
                            raw.append((xq, xp, mirror, lhs, rhs))
            yield b, top
    except Exception:
        for _, _, points in _lam_major(xs):
            for z in points:
                memo[z]
        raise


def check_expression(
    e: Node, iv: Interval, grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_TOL
) -> QClassReport:
    """Scan g = e itself, as its value closure computes it: qclass --g.

    The scan walks the pairs by the enclosure of g, with the same report.
    """
    from .enclosure import compile_value

    g = _compile_value(e)
    return check_godunova_levin(g, iv, grid_n, tol, bound=compile_value(e))


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes:
    qclass --fn. The scan walks the pairs by the enclosure of |f''| raised to
    q, with the same report.
    """
    _check_q(q)
    from .enclosure import compile_second_derivative, sup_power

    d2 = compile_second_derivative(e)

    def bound(cells: Cells) -> list[float]:
        return [sup_power(s, q) for s in d2(cells)]

    return check_godunova_levin(_q_power(e, q), iv, grid_n, tol, bound=bound)


def bound_memberships(e: Node, iv: Interval, q_list: Sequence[float]) -> dict[float, bool]:
    """q -> whether membership_for_bound(e, iv, q) passes, for each q of q_list
    in order: the membership decision of bound and sweep.

    |f''| is enclosed first on one cell, from the first cell of _cells to
    the last (_hull), which holds every cell and so every scan point: its
    upper bound H bounds |f''| on each cell, and [H^q] * (n-1) is a cover
    that the proof of pair_bound_rows takes as it is. Where every row key
    (_row_keys) of that cover is at most DEFAULT_TOL, no pair can hold a
    violation, and the scan passes (H^q finite also proves that g raises
    nowhere). The keys are tried twice, and the first try evaluates no g:
    the cell's lower bound L of |f''| puts every grid value g_i at or above
    low = inf_power(L, q), so the keys of the two values [low, low] under
    the one bound S = sup_power(H, q) are at least the keys of the grid's
    own values (each rounding in a key is monotone). Only where those fail
    is g evaluated at the n grid points, and their keys tried.

    That proves a constant |f''| (x^2 on any interval) and a g that stays
    within the ratio lemma's factor 4 of its least value, as on tiny
    windows away from a zero of f'' (sin on the edge benchmark's windows)
    or exp on [0, 1] at q = 1.2, all with no g. The grid's values prove
    cosh on [-1, 1] at q = 1.2, where interval dependency widens |f''| to
    [0.37, 2.7] on the one cell against the true [1, 1.54]. Neither proves
    exp on [0, 1] at q = 2 (e^2 > 4), cosh on [-1, 1] from q = 2, or sin
    on [0, 1e-9], where g is near 0 at the left end. Only for a q the one
    cell does not prove is |f''| enclosed on the n-1 cells of the default
    grid, once, for that q and every later one, and the decision by the
    ratio lemma (_decide) answers it without a scan. Its answers, and the
    first error it raises, are the scans'.
    """
    for q in q_list:
        _check_q(q)
    xs = _scan_grid(iv, DEFAULT_GRID_N, DEFAULT_TOL)
    from .enclosure import compile_second_derivative, inf_power, sup_power

    d2 = compile_second_derivative(e)
    ends = d2([_hull(xs)])
    # sup_power reads a NaN as inf; a bound that gives no lows gives 0
    [high], [low] = ends, getattr(ends, "lows", [0.0])
    sup = None  # the bound of |f''| on each cell, where the one cell proves nothing
    memberships = {}
    for q in dict.fromkeys(q_list):
        low_q, high_q = inf_power(low, q), sup_power(high, q)
        if _keys_pass([low_q, low_q], [high_q]):  # no g evaluated
            memberships[q] = True
            continue
        memo = _PointMemo(_q_power(e, q))
        gx = [memo[x] for x in xs]
        if _keys_pass(gx, [high_q] * (len(xs) - 1)):
            memberships[q] = True
            continue
        if sup is None:
            sup = _bounds_on(d2, _cells(xs))
        memberships[q] = _decide(e, q, xs, sup, memo)
    return memberships


def _keys_pass(gx: list[float], sup: list[float]) -> bool:
    """Whether every row key (_row_keys) of g values gx under the cell
    bounds sup is at most DEFAULT_TOL, so that no pair can violate."""
    return all(key <= DEFAULT_TOL for key in _row_keys(*_row_parts(gx, sup)))


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


def _decide(e: Node, q: float, xs: list[float], sup: list[float], memo: _PointMemo | None = None) -> bool:
    """membership_for_bound(e, iv, q).passed, decided without the scan, or
    the error that scan raises; xs are the grid points of iv at
    DEFAULT_GRID_N, sup bounds |f''| on each of their cells (inf where
    the enclosure declines), and memo, where given, holds the scan's g.

    Only a pair whose bound is above DEFAULT_TOL can hold a violation
    (pair_bound_rows), so _walk visits just those pairs, hottest first.
    g >= 0, so the scan's check for negative values never fires. The pairs
    with b = inf come first, and they hold every point where g may raise
    (_walk), so the walk raises where the scan does, with its error. Once
    they are all visited, the pair that holds the first violation answers
    False: after it where its b is finite, else after the first pair with a
    finite b, or at the end of the walk. No violation at all, or no pair to
    visit (the ratio lemma's proof), answers True.
    """
    from .enclosure import sup_power

    if memo is None:
        memo = _PointMemo(_q_power(e, q))
    gx = [memo[x] for x in xs]
    hot = ranked_pairs(gx, [sup_power(s, q) for s in sup], DEFAULT_TOL)
    raw: Raw = []
    # no margin is reported, so top starts at inf, where no margin reaches it
    for b, _ in _walk(hot, xs, gx, memo, DEFAULT_TOL, raw, math.inf):
        if raw and b < math.inf:  # every pair where g may raise is visited
            return False
    return not raw
