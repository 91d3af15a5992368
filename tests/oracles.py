"""Independent helpers the suite checks the package against.

No program path uses them, so they live with the tests: a finite-difference
second derivative for the jets, a sampled nonnegative-convexity witness for
the corpus's Certified labels, the Hermite-Hadamard double inequality for
convex entries, and a printer for parse round trips.
"""

import math
from dataclasses import dataclass
from typing import Callable

from glbounds.expressions import Bin, Call, Const, Neg, Node, Pow, Var, compile_expression
from glbounds.kernel import functional_terms
from glbounds.quadrature import Interval, _sample


def second_derivative_fd(f: Callable[[float], float], x: float, h: float = 1e-4) -> float:
    """Central second difference (f(x-h) - 2 f(x) + f(x+h)) / h^2."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    lo = _sample(f, x - h)
    mid = _sample(f, x)
    hi = _sample(f, x + h)
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
