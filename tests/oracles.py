"""Independent helpers the suite checks the package against.

No program path uses them, so they live with the tests: a finite-difference
second derivative for the jets, a sampled nonnegative-convexity witness for
the corpus's Certified labels, the Hermite-Hadamard double inequality for
convex entries, a printer for parse round trips, expressions of each
shape nested to a given depth, the CLI's sweep files as CSV cells and
json.dumps write them, which its row templates must reproduce, the rows of
pair bounds and their eager ranking, which the lazy one must reproduce,
and the lam-major loop that
defines the Godunova-Levin scan, which the scan's pair walk must
reproduce, with the plain four-field report (PlainReport) that scans are
compared by, and the keep (EVERY) under which a scan keeps every violation.
The loop has its own lams, points and memo of g, so it shares
no code with the scan it checks.
"""

import json
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from glbounds.expressions import Bin, Call, Const, Neg, Node, Pow, Var, compile_expression
from glbounds.kernel import functional_terms
from glbounds.qclass import _SHRINK, Violation, _bound_row, _row_parts
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
    # right operands read one level deeper across precedence levels
    "product right of a sum": (lambda n: "x+" + "x*" * (n - 1) + "x", lambda n: 2 * n - 1),
    "sum in parentheses right of a product": (lambda n: "x*(" + "x+" * (n - 2) + "x)", lambda n: 2 * n - 2),
    "minus signs right of a power": (lambda n: "x^" + "-" * (n - 1) + "x", lambda n: n + 1),
}


SWEEP_COLUMNS = ("lambda", "q", "regime", "lhs_abs", "bound", "ratio", "membership")


def _sweep_cells(r) -> tuple:
    """A sweep row's (bounds.BoundReport) values, in SWEEP_COLUMNS' order."""
    return (r.lam, r.q, r.regime.value, r.lhs_abs, r.bound, r.ratio, r.q_membership.value)


def sweep_csv(rows) -> str:
    """The sweep file of rows as CSV: a header line, then each cell as
    format(v, ".17g"), as it is for a number, or empty for None."""
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [
        ",".join("" if v is None else v if isinstance(v, str) else format(v, ".17g") for v in _sweep_cells(r))
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def sweep_json(rows) -> str:
    """The sweep file of rows as JSON: json.dumps of an object per row, with a
    ratio that is not finite made None; json's ValueError where another
    number is not finite."""
    payload = [dict(zip(SWEEP_COLUMNS, _sweep_cells(r))) for r in rows]
    for row in payload:
        if row["ratio"] is not None and not math.isfinite(row["ratio"]):
            row["ratio"] = None
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def bound_rows(gx: list[float], sup: list[float]) -> list[list[float]]:
    """Every row of pair bounds that qclass.ranked_pairs ranks: row i holds
    b for each pair (i, j), j >= i, of g values gx under the cell bounds
    sup (qclass._bound_row)."""
    parts = _row_parts(gx, sup)
    return [_bound_row(i, *parts) for i in range(len(gx))]


def suffix_keys(sup: list[float], alone: list[float], roots: list[float | None]) -> list[float]:
    """The first of qclass._row_keys' two bounds alone, from the same parts:
    up(max(alone[i], max(sup[i:])) - down(fl(fl(r_i + m_i)^2)*_SHRINK)),
    with m_i = min(roots[i:]) and inf where some root right of i is None,
    written out per row."""
    keys = []
    for i, ri in enumerate(roots):
        if any(r is None for r in roots[i:]):
            keys.append(math.inf)
            continue
        s = ri + min(roots[i:])
        w = max([alone[i], *sup[i:]])
        keys.append(math.nextafter(w - math.nextafter(s * s * _SHRINK, -math.inf), math.inf))
    return keys


def ranked_pairs_eager(gx: list[float], sup: list[float], floor: float) -> list[tuple[float, int, int]]:
    """qclass.ranked_pairs as one sort of every (b, i, j) whose b is above
    floor, highest first (rows whose largest b is at or below floor skipped)."""
    pairs = []
    for i, row in enumerate(bound_rows(gx, sup)):
        if max(row) > floor:
            pairs += [(b, i, j) for j, b in enumerate(row, i) if b > floor]
    pairs.sort(reverse=True)
    return pairs


# a scan's keep that keeps every violation, so that its report's violations
# can be compared, as a whole set, with plain_scan's
EVERY = sys.maxsize


class PlainReport(NamedTuple):
    """What a scan reports, as plain fields: the record the oracles build,
    and what same_report and the suites' outcomes compare."""

    samples_checked: int
    violations: tuple[Violation, ...]
    max_margin: float
    passed: bool


def plain_report(rep) -> PlainReport:
    """The four fields of any scan's report: a qclass.QClassReport, whose
    violations it raises on where the scan kept fewer than all (keep=EVERY
    keeps them all), or a PlainReport."""
    return PlainReport(rep.samples_checked, rep.violations, rep.max_margin, rep.passed)


class _Values(dict):
    """g at each point plain_scan reads, once, keyed on the float. 0.0 and
    -0.0 are equal keys, so a zero is kept under its hex string instead:
    every lookup of a zero misses, and its sign picks its own value. Raises
    the scan's ValueError where g is not finite."""

    def __init__(self, g: Callable[[float], float]) -> None:
        super().__init__()
        self.g = g

    def __missing__(self, x: float) -> float:
        key = x.hex() if x == 0.0 else x
        if key not in self:
            v = self.g(x)
            if not math.isfinite(v):
                raise ValueError(f"g is not finite at x={x!r}: {v!r}")
            self[key] = v
        return dict.__getitem__(self, key)


def lam_major(xs: list[float]) -> Iterator[tuple[tuple[float, float, bool], float, list[float]]]:
    """The rows of the lam-major loop that defines the scan of the grid xs,
    in its order: for each grid lam (k + 1/2)/n that gets a pass, then each
    grid point x, the pass (lam, mirror, paired), x and the points
    lam*x + (1-lam)*y of every grid point y in turn. A lam whose mirror
    lams[n-1-k] satisfies 1 - lam == mirror and 1 - mirror == lam exactly
    is paired with it, and only the earlier of the two gets a pass."""
    n = len(xs)
    lams = [(k + 0.5) / n for k in range(n)]
    for k, lam in enumerate(lams):
        mirror = lams[n - 1 - k]
        paired = k != n - 1 - k and 1.0 - lam == mirror and 1.0 - mirror == lam
        if paired and k > n - 1 - k:
            continue  # the earlier lam's pass decides this one
        for x in xs:
            yield (lam, mirror, paired), x, [lam * x + (1.0 - lam) * y for y in xs]


def plain_scan(
    g: Callable[[float], float], iv: Interval, grid_n: int = 64, tol: float = 1e-12
) -> PlainReport:
    """qclass.check_godunova_levin as the lam-major loop that defines it: g
    once per distinct point, 0.0 and -0.0 apart, and the scan's error where
    g is not finite; one pass for each exact mirror pair of lams. It
    computes every margin, in the order lam, x, y (lam_major), so it raises
    at the first point in that order where g raises."""
    at = _Values(g)
    n = grid_n
    xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
    gx = [at[x] for x in xs]
    raw = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            rhs = gv / 0.5 + gv / 0.5
            raw.append((x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)
    for (lam, mirror, paired), xi, points in lam_major(xs):
        clam = 1.0 - lam
        li = at[xi] / lam
        for xj, gj, z in zip(xs, gx, points):
            lhs = at[z]
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
    return PlainReport(n * n * n, violations, max_margin, not violations)
