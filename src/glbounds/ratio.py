"""Ratio-lemma bounds on the margins of the Godunova-Levin scan.

For every lam in (0, 1) and g(x), g(y) >= 0,

    g(x)/lam + g(y)/(1-lam) >= (sqrt(g(x)) + sqrt(g(y)))^2

(Cauchy-Schwarz), so an upper bound of g between two grid points bounds
every scan margin g(z) - rhs of the pair, whatever lam. A CellCover holds
such bounds, from the interval enclosure in glbounds.enclosure, on one cell
per grid point; pair_bound_rows turns it into one bound per pair of grid
points. qclass reads them two ways: scan_proven_to_pass proves that a scan
passes where every pair bound is at most the tolerance, and the scan skips
the pairs kept_columns shows cannot change its report.

Only bound, sweep and qclass import this module (and with it the
enclosure), so every other command starts without compiling either.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .enclosure import Declined, sup_power
from .expressions import Node
from .qclass import _check_grid, _grid_points, _PointMemo
from .quadrature import Interval

__all__ = ["CellCover", "cell_cover", "power_cover", "pair_bound_rows", "kept_columns"]


@dataclass(frozen=True)
class CellCover:
    """An upper bound sup[k] of a function over cell k, one cell per grid point.

    Cell k is [bounds[k], bounds[k+1]]; the cells run from delta below the
    first grid point to delta above the last. first[i] and last[i] are the
    first and the last cell that [x_i - delta, x_i + delta] meets, so every
    scan point of x_i and x_j (i <= j) lies in the cells first[i] to last[j].
    """

    xs: list[float]
    bounds: list[float]
    first: list[int]
    last: list[int]
    sup: list[float]


def cell_cover(
    compile_sup: Callable[[Node], Callable[[float, float], float]],
    e: Node,
    iv: Interval,
    grid_n: int,
) -> CellCover | None:
    """The cells of the grid_n scan of iv, each bounded by compile_sup(e), a
    compile function of glbounds.enclosure; None where it declines.

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
    try:
        _check_grid(grid_n)
        sup_of = compile_sup(e)
        n = grid_n
        xs = _grid_points(iv, n)
        delta = 5.0 * math.ulp(max(abs(xs[0]), abs(xs[-1])))
        lows = [math.nextafter(x - delta, -math.inf) for x in xs]
        highs = [math.nextafter(x + delta, math.inf) for x in xs]
        bounds = [lows[0]]
        bounds += [u + 0.5 * (v - u) for u, v in zip(xs, xs[1:])]  # in [u, v]
        bounds.append(highs[-1])
        return CellCover(
            xs,
            bounds,
            [bisect.bisect_left(bounds, lo, 1) - 1 for lo in lows],
            [bisect.bisect_right(bounds, hi, 0, n) - 1 for hi in highs],
            [sup_of(bounds[k], bounds[k + 1]) for k in range(n)],
        )
    except Exception:  # the enclosure declines, however it fails
        return None


def power_cover(cover: CellCover, q: float) -> CellCover | None:
    """The cover of |f''|^q from that of |f''|, or None where a bound overflows."""
    try:
        return replace(cover, sup=[sup_power(s, q) for s in cover.sup])
    except Declined:
        return None


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
    in a cell from first[i] to last[j], and g(z) <= U, the largest
    cover.sup over those cells. So b = up(W - rhs), with W >= U + 16*eta,
    is at least g(z) - R, and so at least every float margin fl(g(z) - R)
    of the pair. b is inf where g_i or g_j is negative, as the lemma needs
    both >= 0.
    """
    down, up = -math.inf, math.inf
    nextafter = math.nextafter
    # s + _SLACK loses at most half an ulp of itself, and nextafter adds a whole one
    sup = [nextafter(s + _SLACK, up) for s in cover.sup]
    first, last = cover.first, cover.last
    roots = [max(nextafter(math.sqrt(v), down), 0.0) if v >= 0.0 else None for v in gx]
    n = len(gx)
    for i in range(n):
        ri = roots[i]
        if ri is None:
            yield [math.inf] * (n - i)
            continue
        row = []
        k = first[i]
        worst = -math.inf
        for j in range(i, n):
            while k <= last[j]:
                if sup[k] > worst:
                    worst = sup[k]
                k += 1
            rj = roots[j]
            if rj is None:
                row.append(math.inf)
                continue
            s = ri + rj
            row.append(nextafter(worst - nextafter(s * s * _SHRINK, down), up))
        yield row


def kept_columns(
    xs: list[float],
    gx: list[float],
    memo: _PointMemo,
    visits: list[tuple[float, float, bool]],
    cover: CellCover,
    tol: float,
) -> list[list[int]]:
    """For each row i, the columns j of the pairs (x_i, x_j) the scan visits.

    Every scan margin of the pair is at most its bound b (pair_bound_rows).
    L is the largest margin of some real scan triples, computed as the scan
    computes it: the diagonal pairs and each row's highest-bound pair at every
    lam the scan visits. A pair with b <= tol and b < L holds no violation and
    no margin that could be the first largest, since max_margin >= L > b; it
    is skipped. The pair of the triple that gave L has b >= L, so it is kept,
    and the scan visits that triple. The cover being finite proves g finite
    and free of errors at every point of every cell, so calling g at the
    probed points first changes no error the scan raises.
    """
    n = len(xs)
    upper = list(pair_bound_rows(gx, cover))
    bound = [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]
    probes = [(i, i) for i in range(n)]
    probes += [(i, max(range(n), key=row.__getitem__)) for i, row in enumerate(bound)]
    floor = -math.inf
    for lam, _, _ in visits:
        clam = 1.0 - lam
        for i, j in probes:
            m = memo[lam * xs[i] + clam * xs[j]] - (gx[i] / lam + gx[j] / clam)
            if m > floor:
                floor = m
    return [[j for j, b in enumerate(row) if not (b < floor and b <= tol)] for row in bound]
