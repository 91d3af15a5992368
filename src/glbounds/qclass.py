"""Grid falsification of Godunova-Levin class membership.

A nonnegative g on an interval belongs to the class when

    g(lam*x + (1-lam)*y) <= g(x)/lam + g(y)/(1-lam)

for all interior x, y and lam in (0, 1). Membership is only semidecidable by
sampling: the scan walks midpoint grids (offset 1/(2n) from the endpoints, so
refining the grid by an odd factor keeps every coarse triple), records every
violating triple, and reports the worst margin seen. Passing is falsification
evidence, not proof; downstream consumers label it CheckedPass, never
Certified.

An interval enclosure (glbounds.enclosure) bounds g on one cell per grid
point: a cover, of f for qclass --g (value_cover) and of |f''| for every q
of |f''|^q (second_derivative_cover). By the ratio lemma it bounds every
margin of each pair of grid points (glbounds.ratio). bound and sweep read
only whether their default-grid scan of |f''|^q passes, and
scan_proven_to_pass proves that it does, without scanning, where every pair
bound is at most the tolerance. It says True only when the scan would pass
and raise nothing, so the label is the same either way. Where it declines,
and in every qclass, which prints the scan's margins and violations, the
scan runs but skips each pair whose bound shows that it can hold neither a
violation nor the first largest margin; its report is the same, bit for
bit.

DEFAULT_GRID_N and DEFAULT_TOL are decided here only: bound and sweep scan
with them, and they are the defaults of the CLI's qclass --grid and --tol.
MAX_GRID_N caps every scan, since a scan costs n^3 time and holds up to
about 9n^2 points.

The n^3 triples of a scan land on far fewer distinct points (2n^2 to about
9n^2), so g is called once per distinct point it visits and its values are
kept until the scan returns: g must be deterministic, and memory grows with
the number of distinct points (about 100 bytes each: up to 3 MB at n = 64
and 15 MB at n = 128, less where pairs are skipped). The points do not
depend on g, so scans of |f''|^q for several q can share one memo of |f''|
(second_derivative_memo).

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
    "membership_for_bound",
    "second_derivative_memo",
    "second_derivative_cover",
    "value_cover",
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


def _check_grid(grid_n: int) -> None:
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}], got {grid_n!r}")


def _grid_points(iv: Interval, n: int) -> list[float]:
    width = iv.width
    return [iv.a + width * (i + 0.5) / n for i in range(n)]


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
    may be any callable: it comes from the expression behind g (value_cover
    for qclass --g, second_derivative_cover through membership_for_bound for
    --fn).
    """
    _check_grid(grid_n)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n = grid_n
    xs = _grid_points(iv, n)
    if cover is not None and cover.xs != xs:
        raise ValueError("cover was built for another interval or grid")
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

    visits = []  # (lam, its mirror, whether the pass decides both)
    for k, lam in enumerate(lams):
        mirror = lams[n - 1 - k]
        paired = k != n - 1 - k and 1.0 - lam == mirror and 1.0 - mirror == lam
        if paired and k > n - 1 - k:
            continue  # scanned with its mirror, which comes first
        visits.append((lam, mirror, paired))

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
                    violations.append(Violation(xi, xj, lam, lhs, rhs))
                    if paired:
                        # (x_j, x_i, mirror) has the same point and sides
                        violations.append(Violation(xj, xi, mirror, lhs, rhs))

    unique = sorted(dict.fromkeys(violations), key=lambda v: (v.x, v.y, v.lam))
    return QClassReport(n * n * n, tuple(unique), max_margin, not unique)


def _picker(cols: Sequence[int], n: int) -> Callable[[list], Sequence] | None:
    """cols -> the entries a row visits, in order; None where it visits all n."""
    if len(cols) == n:
        return None
    if len(cols) == 1:
        j = cols[0]
        return lambda entries: (entries[j],)
    return itemgetter(*cols)


def membership_for_bound(
    e: Node,
    iv: Interval,
    q: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    abs_d2: Callable[[float], float] | None = None,
    cover: CellCover | None = None,
) -> QClassReport:
    """Scan x -> |f''(x)|^q, the function whose membership the bound assumes.

    abs_d2 is x -> |f''(x)| for e; scans of several q pass one
    second_derivative_memo(e) so that each point's jet is evaluated once.
    cover is second_derivative_cover(e, iv, grid_n), shared by every q: the
    scan reads |f''|^q's bound on each cell from it to skip pairs, with the
    same report.
    """
    _check_q(q)
    if abs_d2 is None:
        abs_d2 = _abs_second_derivative(e)
    if cover is not None:
        from .ratio import power_cover

        cover = power_cover(cover, q)
    return check_godunova_levin(_q_power(abs_d2, q), iv, grid_n, tol, cover=cover)


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


# The covers import glbounds.ratio and glbounds.enclosure when first built:
# every command but bound, sweep and qclass starts without compiling them.


def second_derivative_cover(
    e: Node, iv: Interval, grid_n: int = DEFAULT_GRID_N
) -> CellCover | None:
    """sup |f''| on the cells of the grid_n scan of iv, or None where the
    enclosure declines; one cover serves the scans and proofs of every q."""
    from .enclosure import compile_second_derivative
    from .ratio import cell_cover

    return cell_cover(compile_second_derivative, e, iv, grid_n)


def value_cover(e: Node, iv: Interval, grid_n: int = DEFAULT_GRID_N) -> CellCover | None:
    """sup f on the cells of the grid_n scan of iv, as compile_expression(e)[0]
    computes f, or None where the enclosure declines."""
    from .enclosure import compile_value
    from .ratio import cell_cover

    return cell_cover(compile_value, e, iv, grid_n)


def scan_proven_to_pass(
    e: Node,
    iv: Interval,
    q: float,
    cover: CellCover | None,
    abs_d2: Callable[[float], float] | None = None,
) -> bool:
    """True only if membership_for_bound(e, iv, q, abs_d2=abs_d2) would return
    passed=True without raising: a proof by the ratio lemma, not a scan.

    cover is second_derivative_cover(e, iv). Every pair bound of
    ratio.pair_bound_rows at most DEFAULT_TOL proves every margin <= tol. The
    cover being finite also proves g finite at every point of every cell, and
    the enclosure declines wherever the jet could raise, so the scan raises
    nothing either. Any exception, and a None cover, mean False.
    """
    if cover is None:
        return False
    from .ratio import pair_bound_rows, power_cover  # loaded with the cover

    try:
        g = _q_power(abs_d2 or _abs_second_derivative(e), q)
        gx = [g(x) for x in cover.xs]
        if not all(math.isfinite(v) for v in gx):
            return False
        power = power_cover(cover, q)
        if power is None:
            return False
        return all(max(row) <= DEFAULT_TOL for row in pair_bound_rows(gx, power))
    except Exception:  # declining is always safe: the scan decides
        return False
