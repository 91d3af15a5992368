"""Error-bound evaluators and report assembly.

theorem_bound is the general power-mean bound; corollary_bound_q1 is its
q = 1 collapse coded separately; proposition_bound holds the rule-specific
specializations coded verbatim from their printed constants. Keeping three
independent codings of the same mathematics lets the test suite cross-check
them against each other and against the quadrature oracle.

Reports are assembled in one place, sweep_rows, one BoundReport per
(lambda, q) row; a single bound (evaluate_bound_report) is its one-row
case. A sweep does each piece of work at the level it depends on: per q,
the q check, 1/q and the weight powers (_q_parts); per lambda, the
coefficients and |E(lambda, f)|; per row, only M^(1-1/q), the bracket and
the overflow check of the bound (_bound_at, which theorem_bound calls too).
Unless membership is skipped, the labels come from one call,
qclass.bound_memberships, which answers for each q as the default-grid
scan of |f''|^q would, from an interval enclosure of |f''|, and runs no
scan. qclass is reached through the package at that call, so a bound that
skips membership never imports it.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .coefficients import CoefficientSet, Regime, _check_lambda, _check_q, coefficient_set
from .expressions import Node, _compile_jet
from .kernel import functional_terms
from .quadrature import Interval

glbounds = sys.modules[__package__]  # the package, through which qclass is reached

__all__ = [
    "MembershipStatus",
    "BoundInput",
    "BoundReport",
    "Proposition",
    "theorem_bound",
    "corollary_bound_q1",
    "proposition_bound",
    "evaluate_bound_report",
    "sweep_rows",
]


class MembershipStatus(Enum):
    CHECKED_PASS = "CheckedPass"
    CHECKED_FAIL = "CheckedFail"
    UNCHECKED = "Unchecked"  # membership skipped: the report makes no claim


def _check_weight(name: str, g: float) -> None:
    if not (g >= 0.0 and math.isfinite(g)):
        raise ValueError(f"{name} must be finite and >= 0, got {g!r}")


def _weight_powers(g_a: float, g_b: float, q: float) -> tuple[float, float, float]:
    """(g_a/G)^q, (g_b/G)^q and G, for a bracket of terms (c g_a^q + d g_b^q)^(1/q):
    each term is G times the same term built from (g_a/G)^q and (g_b/G)^q.

    G is 1, so the powers are g_a^q and g_b^q, unless those leave the float
    range: where g_a^q or g_b^q overflows, as e^1000 does, or both fall below
    the normal range while a weight is positive, as (1e-5)^100 does, G is
    max(g_a, g_b), and the bracket keeps its digits where g_a^q and g_b^q
    would have overflowed, lost them or underflowed to 0. A decided bound or
    sweep of such weights still fails where the decision's |f''|^q overflows:
    its tolerance is absolute, so a rescaled scan would be another decision.
    """
    scale = max(g_a, g_b)
    try:
        ga_q, gb_q = g_a**q, g_b**q
    except OverflowError:
        return (g_a / scale) ** q, (g_b / scale) ** q, scale
    if max(ga_q, gb_q) >= sys.float_info.min or scale == 0.0:
        return ga_q, gb_q, 1.0
    return (g_a / scale) ** q, (g_b / scale) ** q, scale


class _BoundInput(NamedTuple):
    iv: Interval
    lam: float
    q: float
    g_a: float  # |f''(a)|
    g_b: float  # |f''(b)|


class BoundInput(_BoundInput):
    __slots__ = ()  # no instance dict, so no attribute can be set

    def __new__(cls, iv: Interval, lam: float, q: float, g_a: float, g_b: float) -> BoundInput:
        _check_lambda(lam)
        _check_q(q)
        _check_weight("g_a", g_a)
        _check_weight("g_b", g_b)
        return super().__new__(cls, iv, lam, q, g_a, g_b)


class BoundReport(NamedTuple):
    lam: float
    q: float
    lhs_abs: float
    bound: float
    # None when bound == 0: g_a = g_b = 0, or a bound that underflows (a width
    # and weights whose product is below the float range); inf when
    # lhs_abs / bound overflows
    ratio: float | None
    regime: Regime
    q_membership: MembershipStatus


def _finite_square(name: str, iv: Interval, square: float) -> float:
    """square, a multiple of the width of iv squared, where it is finite.

    Raises ValueError naming the width where it overflows: times a zero
    bracket or zero weights it would give nan.
    """
    if math.isinf(square):
        raise ValueError(f"{name} overflows: the width of [{iv.a!r}, {iv.b!r}] is {iv.width!r}")
    return square


def _finite_bound(bound: float, iv: Interval, g_a: float, g_b: float) -> float:
    """bound, built from the weights g_a and g_b on iv, where it is finite.

    Raises ValueError naming the weights where it overflows, or is nan: a
    width square that underflows to 0 times a weight term that overflows.
    """
    if not math.isfinite(bound):
        what = "overflows" if math.isinf(bound) else "is nan (0 times inf)"
        raise ValueError(f"bound {what}: g_a = {g_a!r}, g_b = {g_b!r} on [{iv.a!r}, {iv.b!r}]")
    return bound


def theorem_bound(inp: BoundInput) -> float:
    """General bound: (w^2/2) M^(1-1/q) [(A ga^q + B gb^q)^(1/q) + (B ga^q + A gb^q)^(1/q)].

    A single formula covers both regimes via coefficient_set's branch; at
    q = 1 the prefactor exponent vanishes and the bracket collapses to
    (A + B)(ga + gb).

    Raises ValueError naming the width where w^2/2 overflows (times a zero
    bracket it would give nan), and naming the weights where the bound does.
    """
    cs = coefficient_set(inp.lam)
    parts = _q_parts(inp.q, inp.g_a, inp.g_b)
    return _bound_at(cs, parts, _half_square(inp.iv), inp.iv, inp.g_a, inp.g_b)


def _q_parts(q: float, g_a: float, g_b: float) -> tuple[float, float, float, float]:
    """1/q and _weight_powers(g_a, g_b, q): what a bound takes from q alone."""
    return (1.0 / q, *_weight_powers(g_a, g_b, q))


def _half_square(iv: Interval) -> float:
    """w^2/2 for the width w of iv, where it is finite (_finite_square)."""
    w = iv.width
    return _finite_square("w^2/2", iv, 0.5 * w * w)


def _bound_at(
    cs: CoefficientSet,
    parts: tuple[float, float, float, float],
    half_w2: float,
    iv: Interval,
    g_a: float,
    g_b: float,
) -> float:
    """The theorem's bound at cs = coefficient_set(lam), given q's parts
    (_q_parts) and half_w2 = _half_square(iv): the one coding of the theorem.

    Raises ValueError naming the weights where the bound overflows.
    """
    inv_q, ga_q, gb_q, scale = parts
    bracket = scale * (
        (cs.a_coef * ga_q + cs.b_coef * gb_q) ** inv_q + (cs.b_coef * ga_q + cs.a_coef * gb_q) ** inv_q
    )
    return _finite_bound(half_w2 * cs.m ** (1.0 - inv_q) * bracket, iv, g_a, g_b)


def corollary_bound_q1(iv: Interval, lam: float, g_a: float, g_b: float) -> float:
    """q = 1 bound via the collapsed total coefficient; cross-checks theorem_bound."""
    _check_lambda(lam)
    _check_weight("g_a", g_a)
    _check_weight("g_b", g_b)
    w = iv.width
    bound = _finite_square("w^2/2", iv, 0.5 * w * w) * coefficient_set(lam).c_q1 * (g_a + g_b)
    return _finite_bound(bound, iv, g_a, g_b)


class Proposition(Enum):
    """Rule-specific specializations (lambda pinned; Q1 variants also pin q = 1)."""

    MIDPOINT_Q1 = "midpoint-q1"  # lam = 0
    TRAPEZOID_Q1 = "trapezoid-q1"  # lam = 1
    SIMPSON_Q1 = "simpson-q1"  # lam = 1/3
    MIDTRAP_Q1 = "midpoint-trapezoid-q1"  # lam = 1/2
    MIDPOINT_PM = "midpoint-power-mean"  # lam = 0, q >= 1
    TRAPEZOID_PM = "trapezoid-power-mean"  # lam = 1, q >= 1
    SIMPSON_PM = "simpson-power-mean"  # lam = 1/3, q >= 1


_Q1_ONLY = (
    Proposition.MIDPOINT_Q1,
    Proposition.TRAPEZOID_Q1,
    Proposition.SIMPSON_Q1,
    Proposition.MIDTRAP_Q1,
)

# (same-endpoint weight, cross-endpoint weight, prefactor base)
_PM_CONSTANTS = {
    Proposition.MIDPOINT_PM: (1.0 / 8.0, math.log(2.0) - 5.0 / 8.0, 1.0 / 24.0),
    Proposition.TRAPEZOID_PM: (3.0 / 8.0, 1.0 / 8.0, 1.0 / 12.0),
    Proposition.SIMPSON_PM: (
        5.0 / 72.0,
        (2.0 / 3.0) * math.log(8.0 / 9.0) + 7.0 / 72.0,
        1.0 / 81.0,
    ),
}


def proposition_bound(
    which: Proposition, iv: Interval, q: float, g_a: float, g_b: float
) -> float:
    """Specialized bounds coded directly from their printed constants.

    Intentionally independent of the coefficient module so the suite can
    cross-validate two codings of the same mathematics.
    """
    _check_q(q)
    _check_weight("g_a", g_a)
    _check_weight("g_b", g_b)
    w2 = _finite_square("w^2", iv, iv.width * iv.width)
    if which in _Q1_ONLY:
        if q != 1.0:
            raise ValueError(f"{which.value} requires q = 1, got q = {q!r}")
        total = g_a + g_b
        if which is Proposition.MIDPOINT_Q1:
            bound = 0.25 * w2 * math.log(4.0 / math.e) * total
        elif which is Proposition.TRAPEZOID_Q1:
            bound = 0.5 * w2 * 0.5 * total
        elif which is Proposition.SIMPSON_Q1:
            bound = 0.5 * w2 * ((2.0 / 3.0) * math.log(8.0 / 9.0) + 1.0 / 6.0) * total
        else:
            bound = 0.25 * w2 * (math.log(0.5) + 1.0) * total
    else:
        same, cross, base = _PM_CONSTANTS[which]
        inv_q = 1.0 / q
        ga_q, gb_q, scale = _weight_powers(g_a, g_b, q)
        bracket = scale * ((same * ga_q + cross * gb_q) ** inv_q + (cross * ga_q + same * gb_q) ** inv_q)
        bound = 0.5 * w2 * base ** (1.0 - inv_q) * bracket
    return _finite_bound(bound, iv, g_a, g_b)


def _endpoint_weights(e: Node, iv: Interval) -> tuple[float, float]:
    """|f''(a)| and |f''(b)|, the weights every bound is built from.

    Raises ValueError naming the point and the value where one is not finite.
    """
    jet = _compile_jet(e)

    def weight(x: float) -> float:
        d2 = abs(jet(x)[2])
        if not math.isfinite(d2):
            raise ValueError(f"|f''(x)| is not finite at x={x!r}: {d2!r}")
        return d2

    return weight(iv.a), weight(iv.b)


def evaluate_bound_report(
    e: Node,
    iv: Interval,
    lam: float,
    q: float,
    skip_membership: bool = False,
) -> BoundReport:
    """Tie the measured |E(lam, f)| to its bound, with membership gating.

    This is the report of the one-row sweep_rows(e, iv, [lam], (q,)). The
    inequality is only a claim when membership is CheckedPass; a CheckedFail
    report still carries lhs/bound for inspection (the bound may genuinely
    fail there, which is informative).
    """
    return sweep_rows(e, iv, [lam], (q,), skip_membership)[0]


def sweep_rows(
    e: Node,
    iv: Interval,
    lams: list[float],
    q_list: tuple[float, ...],
    skip_membership: bool = False,
) -> list[BoundReport]:
    """Bound reports for every (lam, q), lam-major; every BoundReport is built here.

    The work that does not depend on lam is done once, in this order: |f''|
    at the ends, every bound (cheap, so a bound that overflows fails before
    any quadrature or scan), f at a, b and the midpoint with int_a^b f, and,
    unless skip_membership labels every row Unchecked, one membership
    decision per q (qclass.bound_memberships).

    Each piece of a bound is done at the level it depends on: per q, the q
    check, 1/q and the weight powers (_q_parts); per lam, the coefficients
    and |E(lam, f)|; per row, only M^(1-1/q), the bracket and the bound's
    overflow check (_bound_at); once, w^2/2, since _endpoint_weights returns
    weights that are finite and >= 0. The first lam's rows do each q's work as
    they meet it, with w^2/2 at the first, so the first input error is the one
    that checking each row in turn (BoundInput, then theorem_bound) would meet.
    """
    g_a, g_b = _endpoint_weights(e, iv)
    parts: list[tuple[float, float, float, float]] = []  # per q, in q_list's order
    half_w2 = 0.0
    by_lam = []
    for lam in lams:
        cs = coefficient_set(lam)
        if by_lam:
            bounds = [_bound_at(cs, p, half_w2, iv, g_a, g_b) for p in parts]
        else:  # the first lam
            bounds = []
            for q in q_list:
                _check_q(q)
                if not parts:
                    half_w2 = _half_square(iv)
                parts.append(_q_parts(q, g_a, g_b))
                bounds.append(_bound_at(cs, parts[-1], half_w2, iv, g_a, g_b))
        by_lam.append((lam, cs.regime, bounds))
    terms = functional_terms(e, iv)
    if skip_membership:
        status = dict.fromkeys(q_list, MembershipStatus.UNCHECKED)
    else:
        # membership is a property of |f''|^q alone, so decide once per q
        status = {
            q: MembershipStatus.CHECKED_PASS if passed else MembershipStatus.CHECKED_FAIL
            for q, passed in glbounds.qclass.bound_memberships(e, iv, q_list).items()
        }
    statuses = [status[q] for q in q_list]
    rows: list[BoundReport] = []
    for lam, regime, bounds in by_lam:
        lhs_abs = abs(terms.at(lam))
        for q, bound, q_status in zip(q_list, bounds, statuses):
            ratio = lhs_abs / bound if bound > 0.0 else None
            rows.append(BoundReport(lam, q, lhs_abs, bound, ratio, regime, q_status))
    return rows
