"""Outward-rounded interval enclosure of the float jet of an expression.

compile_second_derivative(node) returns cells -> one bound per cell [lo, hi]
of |f''|, where f'' is the float value that the jet closure computes,
x -> compile_expression(node)[1](x)[2], at every float x in the cell, and
with it a lower bound of |f''| per cell (its lows): the interval [l, h] of
f'' gives l where l > 0, -h where h < 0, and 0 where it holds 0. It
encloses that float value, not the real f''. compile_value(node) bounds f
the same way: the jet's value component is computed by the same float
operations as the value closure compile_expression(node)[0], so wherever
the jet returns, the value closure returns that component bit for bit
(test_the_value_closure_computes_the_jets_value_part in
tests/test_enclosure.py).

Soundness holds by construction: the enclosure is the jet closure itself.
glbounds.expressions writes each derivative rule, and the walk that strings
them together, once for any arithmetic (_jet_rules, _jet_compiler), and here
they run on a batch of cells, _Cells, in place of a float. A batch holds one
interval per cell, and each of +, -, *, /, unary -, float * batch and
** constant is one pass over the cells; so every float operation of the jet
is an interval operation here, in the same order, on intervals holding its
operands. Only the constants and x, the elementary functions and abs are
this module's; a power whose exponent depends on x is exp(e * ln b) in
these intervals, and an exponent free of x is the float that the jet takes.

Round-to-nearest is monotone, so for +, -, *, / and sqrt (all correctly
rounded) the float result of operands taken from two intervals lies between
the float results at the corners, which is what the interval operations
compute; each result is then moved one float outward with math.nextafter
for good measure. exp, ln, sin, cos and ** go through libm, which is assumed
accurate to 1 ulp (glibc documents less for all five on x86-64); their
enclosures take the real function's range, bounded by libm values at the
extremes, and widen it by 2^-50 relative (twice the 2 ulps that two libm
errors, at the extreme and at the point, can add up to) plus an absolute
2^-1070 for results in the subnormal range. sup_power and inf_power bound
the float |f''| ** q above and below from bounds of |f''|, widened the same
way under the same assumption: ** is monotone in the base for q > 0.

It declines wherever the float jet could raise or go non-finite in the cell:
a divisor interval holding 0; ln or sqrt of an argument touching <= 0, the
base of a power whose exponent depends on x included; abs of an argument
holding 0; a non-integer power of a base touching <= 0, and a negative
integer power of a base holding 0; exp or ** overflowing; and any interval
end that is not finite. A cell declines as a whole, whatever component the
failing operation feeds, and no other cell with it; every cell declines
where an exponent free of x raises. What cannot be bounded is unbounded: the
bound is inf on a cell where it declines, and the lower bound of |f''| 0.
So a finite bound also proves that the jet raises nothing in the cell.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Callable

from .expressions import ExpressionError, Node, _jet_compiler, _jet_rules

__all__ = ["compile_second_derivative", "compile_value", "sup_power", "inf_power"]

_LIBM_WIDEN = 2.0**-50  # relative; libm is assumed accurate to 1 ulp (2^-52 relative)
_TINY = 2.0**-1070
_INF = math.inf
_nextafter = math.nextafter

_Iv = tuple[float, float]
_IJet = tuple[_Iv, _Iv, _Iv]


class Declined(Exception):
    """The enclosure cannot vouch for the float jet on this cell."""


def _out(lo: float, hi: float) -> _Iv:
    lo, hi = _nextafter(lo, -_INF), _nextafter(hi, _INF)
    if not (lo > -_INF and hi < _INF):  # also false for NaN
        raise Declined
    return lo, hi


def _libm(lo: float, hi: float) -> _Iv:
    """[lo, hi] from libm values at the range's extremes, widened by their error."""
    return _out(lo - abs(lo) * _LIBM_WIDEN - _TINY, hi + abs(hi) * _LIBM_WIDEN + _TINY)


_ZERO = (0.0, 0.0)


def _add(a: _Iv, b: _Iv) -> _Iv:
    return _out(a[0] + b[0], a[1] + b[1])


def _sub(a: _Iv, b: _Iv) -> _Iv:
    return _out(a[0] - b[1], a[1] - b[0])


def _mul(a: _Iv, b: _Iv) -> _Iv:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _out(min(p), max(p))


def _div(a: _Iv, b: _Iv) -> _Iv:
    if b[0] <= 0.0 <= b[1]:
        raise Declined
    p = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return _out(min(p), max(p))


def _exp(u: _Iv) -> _Iv:
    return _libm(math.exp(u[0]), math.exp(u[1]))


def _ln(u: _Iv) -> _Iv:
    if u[0] <= 0.0:
        raise Declined
    return _libm(math.log(u[0]), math.log(u[1]))


def _sqrt(u: _Iv) -> _Iv:
    if u[0] <= 0.0:  # the jet raises at 0 as well as below
        raise Declined
    return _out(math.sqrt(u[0]), math.sqrt(u[1]))


def _periodic(u: _Iv, fn: Callable[[float], float], shift: float) -> _Iv:
    """Range of sin (shift 1/2) or cos (shift 0): extremes (-1)^m at (m + shift)*pi."""
    lo, hi = u
    t_lo, t_hi = lo / math.pi - shift, hi / math.pi - shift
    slack = 2.0**-40 * (1.0 + max(abs(t_lo), abs(t_hi)))  # covers pi's and t's roundings
    first, last = math.ceil(t_lo - slack), math.floor(t_hi + slack)
    ends = (fn(lo), fn(hi))
    r_lo, r_hi = min(ends), max(ends)
    if last > first:  # a maximum and a minimum may both lie inside
        return _libm(-1.0, 1.0)
    if last == first:
        if first % 2 == 0:
            r_hi = 1.0
        else:
            r_lo = -1.0
    return _libm(r_lo, r_hi)


def _ipow(b: _Iv, c: float) -> _Iv:
    """b ** c for a float constant c, as Python's float power computes it."""
    if c == 0.0:
        return 1.0, 1.0  # pow(x, 0) is exactly 1 for every x
    lo, hi = b
    if c.is_integer():
        if c < 0.0 and lo <= 0.0 <= hi:
            raise Declined
        ends = (lo**c, hi**c)
        r_lo, r_hi = min(ends), max(ends)
        if c % 2.0 == 0.0 and lo < 0.0 < hi:
            r_lo = 0.0
        return _libm(r_lo, r_hi)
    if lo <= 0.0:
        raise Declined
    ends = (lo**c, hi**c)
    return _libm(min(ends), max(ends))


def _flip(a: _Iv, sign: _Iv) -> _Iv:
    """a, negated where the interval sign is not positive."""
    return a if sign[0] > 0.0 else (-a[1], -a[0])


def _abs(u: _Iv) -> _Iv:
    if u[0] <= 0.0 <= u[1]:
        raise Declined
    return _flip(u, u)


class _Cells:
    """One interval per cell: the batch that one evaluation of the jet runs on.

    Each operation is one pass over the cells. Where it fails on a cell (a
    rule above declines, or exp or ** overflows), the cell's index joins
    dead, which all batches of the evaluation share, and the cell holds
    [0, 0] from there on, while the pass goes on over the other cells.
    """

    __slots__ = ("ivs", "dead")

    def __init__(self, ivs: list[_Iv], dead: set[int]) -> None:
        self.ivs = ivs
        self.dead = dead

    def each(self, rule: Callable[..., _Iv], *operands) -> _Cells:
        """rule(iv, ...) per cell, with one more argument from each operand."""
        cells = map(rule, self.ivs, *operands)
        ivs: list[_Iv] = []
        while True:
            try:
                for iv in cells:
                    ivs.append(iv)
                return _Cells(ivs, self.dead)
            except (Declined, OverflowError):  # on cell len(ivs); map goes on with the next
                self.dead.add(len(ivs))
                ivs.append(_ZERO)

    def like(self, iv: _Iv) -> _Cells:
        return _Cells([iv] * len(self.ivs), self.dead)

    def __add__(self, other: _Cells) -> _Cells:
        return self.each(_add, other.ivs)

    def __sub__(self, other: _Cells) -> _Cells:
        return self.each(_sub, other.ivs)

    def __mul__(self, other: _Cells) -> _Cells:
        return self.each(_mul, other.ivs)

    def __rmul__(self, c: float) -> _Cells:  # [c, c] * self; c not finite declines
        return self.each(_mul, repeat((c, c)))

    def __truediv__(self, other: _Cells) -> _Cells:
        return self.each(_div, other.ivs)

    def __neg__(self) -> _Cells:
        return _Cells([(-hi, -lo) for lo, hi in self.ivs], self.dead)

    def __pow__(self, c: float) -> _Cells:
        return self.each(_ipow, repeat(c))


def _batched(rule: Callable[..., _Iv], *args) -> Callable[[_Cells], _Cells]:
    return lambda u: u.each(rule, *map(repeat, args))


def _abs_jet(uv: _Cells, u1: _Cells, u2: _Cells) -> tuple[_Cells, _Cells, _Cells]:
    # the float jet raises where the argument is 0 and negates where it is negative
    return uv.each(_abs), u1.each(_flip, uv.ivs), u2.each(_flip, uv.ivs)


_RULES = {
    **_jet_rules(
        _batched(_periodic, math.sin, 0.5), _batched(_periodic, math.cos, 0.0),
        _batched(_exp), _batched(_ln), _batched(_sqrt),
        operator.pow, lambda a, b, x: a / b, lambda v: v.like(_ZERO),
    ),
    "abs": _abs_jet,
}


def _const(c: float) -> Callable[[_Cells], tuple[_Cells, _Cells, _Cells]]:
    if not math.isfinite(c):
        raise Declined
    return lambda x: (x.like((c, c)), x.like(_ZERO), x.like(_ZERO))


_walk = _jet_compiler(_RULES, _const, lambda x: (x, x.like((1.0, 1.0)), x.like(_ZERO)))


def _compile_jet(node: Node) -> Callable[[list[_Iv]], list[_IJet | None]]:
    """cells -> per cell, the interval jet enclosing the float jet at every
    float of the cell, or None where the cell declines."""
    try:
        jet = _walk(node)
    except Declined:  # on every cell
        return lambda cells: [None] * len(cells)

    def per_cell(cells: list[_Iv]) -> list[_IJet | None]:
        x = _Cells(cells, set())
        try:
            v, d1, d2 = jet(x)
        except ExpressionError:  # from an exponent free of x: the jet raises it at every x
            return [None] * len(cells)
        return [None if k in x.dead else j for k, j in enumerate(zip(v.ivs, d1.ivs, d2.ivs))]

    return per_cell


def sup_power(s: float, q: float) -> float:
    """An upper bound of the float d ** q for every float d in [0, s], q > 0;
    inf where s is inf or s ** q overflows."""
    try:
        return _libm(0.0, s**q)[1]
    except (Declined, OverflowError):
        return _INF


def inf_power(s: float, q: float) -> float:
    """A lower bound of the float d ** q for every float d >= s, q > 0,
    widened down as sup_power widens up; 0 where s <= 0 or is NaN, or where
    s ** q underflows or overflows."""
    if not s > 0.0:
        return 0.0
    try:
        return max(_libm(s**q, 0.0)[0], 0.0)  # the upper end is not read
    except (Declined, OverflowError):
        return 0.0


class Bounds(list):
    """One upper bound per cell, as a list, and lows: one lower bound per cell."""

    __slots__ = ("lows",)


def _abs_ends(d: _Iv) -> _Iv:
    """A lower and an upper bound of |v| for every v in the interval d."""
    lo, hi = d
    return (lo if lo > 0.0 else -hi if hi < 0.0 else 0.0), max(-lo, hi)


def compile_second_derivative(node: Node) -> Callable[[list[_Iv]], Bounds]:
    """cells -> per cell [lo, hi], an upper bound of |f''| as the float jet
    computes it at any float in the cell, and in the lows of the result a
    lower bound of it; (0, inf) where it cannot vouch for those bounds (see
    the module docstring)."""
    jet = _compile_jet(node)

    def bounds(cells: list[_Iv]) -> Bounds:
        ends = [(0.0, _INF) if j is None else _abs_ends(j[2]) for j in jet(cells)]
        sups = Bounds(hi for _, hi in ends)
        sups.lows = [lo for lo, _ in ends]
        return sups

    return bounds


def compile_value(node: Node) -> Callable[[list[_Iv]], list[float]]:
    """cells -> per cell [lo, hi], an upper bound of f as the value closure
    computes it at any float in the cell; inf where it cannot vouch for that
    bound. The jet raises wherever the value closure does, so a finite bound
    also proves that the value closure raises nothing in the cell."""
    jet = _compile_jet(node)
    return lambda cells: [_INF if j is None else j[0][1] for j in jet(cells)]
