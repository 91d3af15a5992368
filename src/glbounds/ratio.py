"""Ratio-lemma bounds on the margins of the Godunova-Levin scan.

For every lam in (0, 1) and g(x), g(y) >= 0,

    g(x)/lam + g(y)/(1-lam) >= (sqrt(g(x)) + sqrt(g(y)))^2

(Cauchy-Schwarz), so an upper bound of g between two grid points bounds
every scan margin g(z) - rhs of the pair, whatever lam. A CellCover holds
such bounds, from the interval enclosure in glbounds.enclosure, on one cell
per grid step, each reaching a few ulps past its two grid points, and inf
on a cell where the enclosure declines. pair_bound_rows turns it into one
bound per pair of grid points, over just the span that the pair's scan
points can reach, so an inf cell makes b = inf for just the pairs that read
it. ranked_pairs ranks the pairs by it, lazily: every bound is computed,
but a row's pairs are sorted only when the walk takes the first of them, so
a walk that stops after a few pairs sorts a few rows. glbounds.qclass, the
only caller, builds every cover and walks the ranked pairs hottest first:
its membership decision proves that a scan passes where no pair bound is
above the tolerance and otherwise visits only the pairs above it, and its
scan stops where the next bound can change neither the violations nor the
largest margin.

qclass imports this module (and with it the enclosure) only when it scans
or builds a cover, so every command but bound, sweep and qclass starts
without compiling either. This module imports nothing from qclass.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .enclosure import sup_power

__all__ = ["CellCover", "cell_cover", "power_cover", "pair_bound_rows", "ranked_pairs"]


@dataclass(frozen=True)
class CellCover:
    """An upper bound sup[k] of a function over cell k, one cell per grid step.

    Cell k (k = 0 ... n-2) is [lows[k], highs[k+1]], where lows[i] and
    highs[i] lie at least delta below and above the grid point x_i
    (cell_cover). Every scan point of x_i and x_j (i < j) lies in the cells
    i to j-1, and every scan point of x_i alone in cell i-1 and in cell i,
    where each exists.
    """

    xs: list[float]
    lows: list[float]
    highs: list[float]
    sup: list[float]


def cell_cover(
    sup_of: Callable[[list[tuple[float, float]]], list[float]], xs: list[float]
) -> CellCover:
    """The cells of the scan with grid points xs (ascending, at least two),
    bounded in one call sup_of(cells), which gives one bound per cell
    [lo, hi] of the list, such as a bound that glbounds.enclosure compiles
    (inf where it declines).

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
    delta likewise, both ascending in i. Cell k is [lows[k], highs[k+1]]:
    it holds [lows[k], highs[k]] and [lows[k+1], highs[k+1]], so neighbouring
    cells overlap, and cells i to j-1 together hold [lows[i], highs[j]],
    which holds every scan point of x_i and x_j (i < j). Cells i-1 and i
    each hold [lows[i], highs[i]], every scan point of x_i alone. That is
    n-1 enclosures, none reaching more than delta past the pair it serves.
    """
    delta = 5.0 * math.ulp(max(abs(xs[0]), abs(xs[-1])))
    lows = [math.nextafter(x - delta, -math.inf) for x in xs]
    highs = [math.nextafter(x + delta, math.inf) for x in xs]
    return CellCover(xs, lows, highs, sup_of(list(zip(lows, highs[1:]))))


def power_cover(cover: CellCover, q: float) -> CellCover:
    """The cover of |f''|^q from that of |f''|: inf on a cell whose bound is
    inf or overflows."""
    return replace(cover, sup=[sup_power(s, q) for s in cover.sup])


_SHRINK = 1.0 - 2.0**-50  # 1 - 8u (u = 2^-53): outweighs the roundings of s and s*s
_SLACK = 2.0**-1070  # 32*eta (eta = 2^-1075)


def pair_bound_rows(gx: list[float], cover: CellCover) -> Iterator[list[float]]:
    """Row i: for each j >= i, a bound b on every scan margin of x_i and x_j.

    With g_i the scan's own float g at grid point x_i and X = (sqrt(g_i) +
    sqrt(g_j))^2, the scan's float right side R = fl(fl(g_i/lam) +
    fl(g_j/fl(1-lam))) is at least X*(1 - 2.5u) - 3*eta, since lam +
    fl(1-lam) <= 1 + u/2 and three roundings lose at most u and eta each.
    Here r_i <= sqrt(g_i), so s = fl(r_i + r_j) <= sqrt(X)*(1 + u), and
    rhs = down(fl(fl(s*s)*_SHRINK)) <= X*(1 + u)^4*(1 - 8u) + 2*eta <=
    X*(1 - 2.5u) + 2*eta <= R + 5*eta; down also makes an overflow max
    float, below R, which is then inf. Every scan point z of the pair lies
    in cells i to j-1 for i < j, and in either of cells i-1 and i for
    i = j (CellCover), so g(z) <= U, the largest cover.sup over cells i to
    j-1, or the smaller of the two for i = j. So b = up(W - rhs), with
    W >= U + 16*eta, is at least g(z) - R, and so at least every float
    margin fl(g(z) - R) of the pair. b is inf where U is (rhs is at most the
    largest float), and where g_i or g_j is negative, as the lemma needs
    both >= 0.
    """
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    # s + _SLACK loses at most half an ulp of itself, and nextafter adds a whole one
    sup = [nextafter(s + _SLACK, up) for s in cover.sup]
    # the diagonal pair of x_i reads cell i-1 or cell i, whichever bound is less
    alone = [sup[0]] + [min(u, v) for u, v in zip(sup, sup[1:])] + [sup[-1]]
    roots = [max(nextafter(math.sqrt(v), down), 0.0) if v >= 0.0 else None for v in gx]
    n = len(gx)
    for i in range(n):
        ri = roots[i]
        if ri is None:
            yield [math.inf] * (n - i)
            continue
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
        yield row


def ranked_pairs(
    gx: list[float], cover: CellCover, floor: float
) -> Iterator[tuple[float, int, int]]:
    """(b, i, j) for each pair of grid points i <= j whose bound b
    (pair_bound_rows) is above floor, highest b first: the order of
    sorted(..., reverse=True), ties of b broken by the higher i, then the
    higher j.

    A walk that stops early takes few pairs, so the pairs are ranked lazily:
    a heap holds one entry per row with some b above floor, keyed on the
    row's largest b not yet taken and then on i (no two rows share an i), and
    a row's pairs are sorted only when the first of them is taken. Every
    bound is still computed, since the rows' largest bounds key the heap.
    """
    heap = []
    for i, row in enumerate(pair_bound_rows(gx, cover)):
        top = max(row)
        if top > floor:
            heap.append((-top, -i, row, None))
    heapq.heapify(heap)
    while heap:
        _, neg_i, row, left = heap[0]
        i = -neg_i
        if left is None:  # the row's first pair taken: sort it, highest (b, j) last
            left = sorted([(b, j) for j, b in enumerate(row, i) if b > floor])
        b, j = left.pop()
        yield b, i, j
        if left:
            heapq.heapreplace(heap, (-left[-1][0], neg_i, row, left))
        else:
            heapq.heappop(heap)
