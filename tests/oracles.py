"""Independent helpers the suite checks the package against.

No program path uses them, so they live with the tests: a finite-difference
second derivative for the jets, a sampled nonnegative-convexity witness for
the corpus's Certified labels, the Hermite-Hadamard double inequality for
convex entries, a printer for parse round trips, expressions of each
shape nested to a given depth, the eager pair ranking
that the lazy one must reproduce, and the lam-major loop that defines the
Godunova-Levin scan, which the scan's pair walk must reproduce.
"""

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from glbounds.expressions import Bin, Call, Const, Neg, Node, Pow, Var, compile_expression
from glbounds.kernel import functional_terms
from glbounds.qclass import QClassReport, Violation, _lam_major, _PointMemo, pair_bound_rows
from glbounds.quadrature import Interval, _finite


def second_derivative_fd(f: Callable[[float], float], x: float, h: float = 1e-4) -> float:
    """Central second difference (f(x-h) - 2 f(x) + f(x+h)) / h^2."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    lo = _finite(x - h, f(x - h))
    mid = _finite(x, f(x))
    hi = _finite(x + h, f(x + h))
    return (lo - 2.0 * mid + hi) / (h * h)


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


@dataclass(frozen=True)
class HermiteHadamardReport:
    lower: float
    mid: float
    upper: float
    holds: bool


def hermite_hadamard_check(e: Node, iv: Interval) -> HermiteHadamardReport:
    """Midpoint value <= mean integral <= endpoint average, for convex f.

    Convexity is a caller assertion, screened numerically by requiring
    f'' >= -1e-9 at 101 interior midpoints; both inequalities are allowed a
    slack of 1e-9.
    """
    _, jet = compile_expression(e)
    for i in range(101):
        x = iv.a + iv.width * (i + 0.5) / 101
        if jet(x)[2] < -1e-9:
            raise ValueError(f"convexity sample check failed at x={x!r}")
    terms = functional_terms(e, iv)
    lower = terms.fm
    mid = terms.integral / terms.width
    upper = 0.5 * (terms.fa + terms.fb)
    holds = lower <= mid + 1e-9 and mid <= upper + 1e-9
    return HermiteHadamardReport(lower, mid, upper, holds)


def to_text(node: Node) -> str:
    """Render an AST as text that re-parses to a structurally identical tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"(-{to_text(node.arg)})"
    if isinstance(node, Bin):
        return f"({to_text(node.left)}{node.op}{to_text(node.right)})"
    if isinstance(node, Pow):
        return f"({to_text(node.base)}^{to_text(node.exponent)})"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# Each shape nested n levels deep: its text, and the offset of the level past
# n - 1, where parse reports n = MAX_NESTING + 1 levels as too deep (the x
# under the last parenthesis, call or minus, or the last operator).
DEEP_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, lambda n: n),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, lambda n: 4 * n),
    "variable powers": (lambda n: "x" + "^x" * n, lambda n: 2 * n - 1),
    "unary minus": (lambda n: "-" * n + "x", lambda n: n),
    "sum": (lambda n: "x" + "+x" * n, lambda n: 2 * n - 1),
    "product": (lambda n: "x" + "*x" * n, lambda n: 2 * n - 1),
    "constant powers": (lambda n: "x" + "^1" * n, lambda n: 2 * n - 1),
}


def ranked_pairs_eager(gx: list[float], sup: list[float], floor: float) -> list[tuple[float, int, int]]:
    """qclass.ranked_pairs as one sort of every (b, i, j) whose b is above
    floor, highest first (rows whose largest b is at or below floor skipped)."""
    pairs = []
    for i, row in enumerate(pair_bound_rows(gx, sup)):
        if max(row) > floor:
            pairs += [(b, i, j) for j, b in enumerate(row, i) if b > floor]
    pairs.sort(reverse=True)
    return pairs


def plain_scan(
    g: Callable[[float], float], iv: Interval, grid_n: int = 64, tol: float = 1e-12
) -> QClassReport:
    """qclass.check_godunova_levin as the lam-major loop that defines it: g
    once per distinct point and an error where g is not finite (the scan's
    _PointMemo), and one pass for each exact mirror pair of lams. It computes
    every margin, in the order lam, x, y (the scan's _lam_major), so it
    raises at the first point in that order where g raises."""
    n = grid_n
    xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
    memo = _PointMemo(g)
    gx = [memo[x] for x in xs]
    raw = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            rhs = gv / 0.5 + gv / 0.5
            raw.append((x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)
    for (lam, mirror, paired), xi, points in _lam_major(xs):
        clam = 1.0 - lam
        li = memo[xi] / lam
        for xj, gj, z in zip(xs, gx, points):
            lhs = memo[z]
            rhs = li + gj / clam
            m = lhs - rhs
            if m > max_margin:
                max_margin = m
            if m > tol:
                raw.append((xi, xj, lam, lhs, rhs))
                if paired:
                    # (x_j, x_i, mirror) has the same point and sides
                    raw.append((xj, xi, mirror, lhs, rhs))
    unique = sorted(dict.fromkeys(raw), key=itemgetter(0, 1, 2))
    violations = tuple(map(Violation._make, unique))
    return QClassReport(n * n * n, violations, max_margin, not violations)
