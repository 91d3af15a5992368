"""Outward-rounded interval enclosure of the float jet of an expression, and
of its float value.

compile_second_derivative(node) returns cells -> one pair (low, high) per
cell [lo, hi], a lower and an upper bound of |f''|, where f'' is the float
value that the jet closure computes, x -> compile_expression(node)[1](x)[2],
at every float x in the cell: the interval [l, h] of f'' gives the high
max(-l, h) and the low l where l > 0, -h where h < 0, and 0 where it holds
0. It encloses that float value, not the real f''. compile_value(node)
gives one pair (low, high) of f per cell, the float value of the value
closure compile_expression(node)[0], and computes no derivative: the value
closure's own rules run on the cells. Where the jet does not decline, its
value part is the same pair, since the jet computes its value component by
the same float operations as the value closure
(test_the_value_closure_computes_the_jets_value_part in
tests/test_enclosure.py).

Soundness holds by construction: the enclosure is the closure itself.
glbounds.expressions writes each derivative rule, each value rule, and the
walk that strings them together, once for any arithmetic (_jet_rules,
_value_rules, _jet_compiler), and here they run on a batch of cells,
_Cells, in place of a float (_CELL_ARITHMETIC). The float closures
fold x and constants into their parents' rules by the same float operations;
the cells take them as closures. A batch holds one
interval per cell, and each of +, -, *, /, unary - and ** constant is one
pass over the cells; so every float operation of the jet is an interval
operation here, in the same order, on intervals holding its operands, but
for the jet's exact floats. x's jet is (x, 1.0, 0.0) and a constant's
(c, 0.0, 0.0), as in the float jet, so a part computed from those and the
rules' own constants alone stays the float that the jet computes at every
x; with such a float the exact results v*1 = v, v + 0 = v, v - 0 = v,
0 - v = -v, v*0 = 0 (v finite) and 0/v = 0 (v not holding 0) are taken as
they are, any other float c is [c, c], and one not finite declines. Only
the constants and x, the elementary functions and abs are this module's; a
power whose exponent depends on x is exp(e * ln b) in these intervals, and
an exponent free of x is the float that the jet takes.
The cells' values run _value_rules on the jet's cell arithmetic, so each
power and quotient is computed as the jet's value part computes it.

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

Each declines wherever its float closure could raise or go non-finite in
the cell. The jet declines at a divisor interval holding 0; ln or sqrt of
an argument touching <= 0, the base of a power whose exponent depends on x
included; abs of an argument holding 0; a non-integer power of a base
touching <= 0, and a negative integer power of a base holding 0; exp or **
overflowing; and any interval end that is not finite. The float jet's
smoothness checks never meet a batch; a cell rule declines where each
raises: _sqrt for sqrt_jet, _ipow for power_jet, _abs for _abs_jet. The
value declines by the same rules on the operations it computes (so also at
a zero of sqrt or abs, where the value closure raises nothing), and may be
finite where only f' or f'' fails. A cell declines as a whole, whatever
component the failing operation feeds, and no other cell with it; every
cell declines where an exponent free of x raises. What cannot be bounded is
unbounded: f has the pair (-inf, inf) on a cell where it declines, and
|f''| the pair (0, inf). So a finite bound also proves that its closure
raises nothing in the cell. qclass reads both ends: the high to clear a
scan's triples, and the low, under the same libm premise (_LIBM_WIDEN), to
prove violations.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Callable

from .expressions import ExpressionError, Node, _jet_compiler, _jet_rules, _value_rules

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


def _widen_down(v: float) -> float:
    """A libm value v widened down by its error and rounded out: at most
    every float the true value may be; -inf past the float range, NaN for NaN."""
    return _nextafter(v - abs(v) * _LIBM_WIDEN - _TINY, -_INF)


def _widen_up(v: float) -> float:
    """v widened up as _widen_down widens it down."""
    return _nextafter(v + abs(v) * _LIBM_WIDEN + _TINY, _INF)


def _libm(lo: float, hi: float) -> _Iv:
    """[lo, hi] from libm values at the range's extremes, widened by their error."""
    lo, hi = _widen_down(lo), _widen_up(hi)
    if not (lo > -_INF and hi < _INF):  # also false for NaN
        raise Declined
    return lo, hi


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
    An operand may also be one of the jet's exact floats (the module
    docstring).
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

    def held(self, part: _Part) -> list[_Iv]:
        """A jet part's interval on each cell; a float part not finite declines all."""
        if part.__class__ is _Cells:
            return part.ivs
        if not math.isfinite(part):
            self.dead.update(range(len(self.ivs)))
            part = 0.0
        return [(part, part)] * len(self.ivs)

    def __add__(self, other: _Part) -> _Cells:
        if other.__class__ is _Cells:
            return self.each(_add, other.ivs)
        return self if other == 0.0 else self.each(_add, repeat((other, other)))

    __radd__ = __add__  # float addition is commutative

    def __sub__(self, other: _Part) -> _Cells:
        if other.__class__ is _Cells:
            return self.each(_sub, other.ivs)
        return self if other == 0.0 else self.each(_sub, repeat((other, other)))

    def __rsub__(self, c: float) -> _Cells:
        return -self if c == 0.0 else self.like((c, c)).each(_sub, self.ivs)

    def __mul__(self, other: _Part) -> _Part:
        if other.__class__ is _Cells:
            return self.each(_mul, other.ivs)
        if other == 1.0:
            return self
        if other == 0.0:
            for k, (lo, hi) in enumerate(self.ivs):
                if not (-_INF < lo and hi < _INF):  # v*0 is NaN at v = inf
                    self.dead.add(k)
            return 0.0
        return self.each(_mul, repeat((other, other)))  # c not finite declines

    __rmul__ = __mul__  # float multiplication is commutative

    def __truediv__(self, other: _Cells) -> _Cells:  # a divisor is a value part, never a float
        return self.each(_div, other.ivs)

    def __rtruediv__(self, c: float) -> _Part:
        if c == 0.0:
            for k, (lo, hi) in enumerate(self.ivs):
                if lo <= 0.0 <= hi:  # the float jet raises at a divisor of 0
                    self.dead.add(k)
            return 0.0
        return self.like((c, c)).each(_div, self.ivs)

    def __neg__(self) -> _Cells:
        return _Cells([(-hi, -lo) for lo, hi in self.ivs], self.dead)

    def __pow__(self, c: float) -> _Cells:
        return self.each(_ipow, repeat(c))


_Part = _Cells | float  # a part of an interval jet: a batch, or an exact float


def _batched(rule: Callable[..., _Iv], *args) -> Callable[[_Cells], _Cells]:
    return lambda u: u.each(rule, *map(repeat, args))


def _abs_jet(uv: _Cells, u1: _Part, u2: _Part) -> tuple[_Cells, _Part, _Part]:
    # the float jet raises where the argument is 0 and negates where it is negative
    return uv.each(_abs), _signed(u1, uv), _signed(u2, uv)


def _signed(part: _Part, uv: _Cells) -> _Part:
    """part times the sign of uv, as the float jet's s * part: a float 0 stays 0."""
    if part == 0.0:  # a float part: a batch compares unequal to every float
        return part
    return _Cells(uv.held(part), uv.dead).each(_flip, uv.ivs)


_CELL_ARITHMETIC = (_batched(_periodic, math.sin, 0.5), _batched(_periodic, math.cos, 0.0), _batched(_exp),
                    _batched(_ln), _batched(_sqrt), operator.pow, lambda a, b, x: a / b)

_RULES = {**_jet_rules(*_CELL_ARITHMETIC), "abs": _abs_jet}
_VALUE_CELL_RULES = {**_value_rules(*_CELL_ARITHMETIC), "abs": _batched(_abs)}


def _const_value(c: float) -> Callable[[_Cells], _Cells]:
    if not math.isfinite(c):
        raise Declined
    return lambda x: x.like((c, c))


def _const(c: float) -> Callable[[_Cells], tuple[_Cells, float, float]]:
    value = _const_value(c)
    return lambda x: (value(x), 0.0, 0.0)


_walk = _jet_compiler(_RULES, _const, lambda x: (x, 1.0, 0.0))
_value_walk = _jet_compiler(_VALUE_CELL_RULES, _const_value, lambda x: x)


def _per_cell(walk: Callable, node: Node, ivs: Callable) -> Callable[[list[_Iv]], list]:
    """cells -> per cell, what walk(node) encloses at every float of the
    cell, as ivs(output, x) reads it per cell from the closure's output on
    the batch x, or None where the cell declines."""
    try:
        closure = walk(node)
    except Declined:  # on every cell
        return lambda cells: [None] * len(cells)

    def per_cell(cells: list[_Iv]) -> list:
        x = _Cells(cells, set())
        try:
            out = closure(x)
        except ExpressionError:  # from an exponent free of x: the closure raises it at every x
            return [None] * len(cells)
        read = list(ivs(out, x))  # before dead is read: a part may decline every cell
        return [None if k in x.dead else iv for k, iv in enumerate(read)]

    return per_cell


def _compile_jet(node: Node) -> Callable[[list[_Iv]], list[_IJet | None]]:
    """cells -> per cell, the interval jet enclosing the float jet at every
    float of the cell, or None where the cell declines."""
    return _per_cell(_walk, node, lambda jet, x: zip(*map(x.held, jet)))


def sup_power(s: float, q: float) -> float:
    """An upper bound of the float d ** q for every float d in [0, s], q > 0;
    inf where s is inf or s ** q overflows: the high end of
    _libm(0.0, s ** q), inf where that declines."""
    try:
        high = _widen_up(s**q)
    except OverflowError:
        return _INF
    return high if high < _INF else _INF  # also inf for NaN


def inf_power(s: float, q: float) -> float:
    """A lower bound of the float d ** q for every float d >= s, q > 0,
    widened down as sup_power widens up; 0 where s <= 0 or is NaN, or where
    s ** q underflows or overflows: the low end of _libm(s ** q, 0.0), at
    least 0, and 0 where that declines."""
    if not s > 0.0:
        return 0.0
    try:
        low = _widen_down(s**q)
    except OverflowError:
        return 0.0
    return low if low > 0.0 else 0.0  # also 0 for -inf and NaN


def _abs_ends(d: _Iv) -> _Iv:
    """A lower and an upper bound of |v| for every v in the interval d."""
    lo, hi = d
    return (lo if lo > 0.0 else -hi if hi < 0.0 else 0.0), max(-lo, hi)


def compile_second_derivative(node: Node) -> Callable[[list[_Iv]], list[_Iv]]:
    """cells -> per cell [lo, hi], the pair (low, high) of a lower and an
    upper bound of |f''| as the float jet computes it at any float in the
    cell; (0, inf) where it cannot vouch for those bounds (see the module
    docstring)."""
    jet = _compile_jet(node)
    return lambda cells: [(0.0, _INF) if j is None else _abs_ends(j[2]) for j in jet(cells)]


def compile_value(node: Node) -> Callable[[list[_Iv]], list[_Iv]]:
    """cells -> per cell [lo, hi], the pair (low, high) of a lower and an
    upper bound of f as the value closure computes it at any float in the
    cell; (-inf, inf) where it cannot vouch for those bounds. The value
    closure's own rules run on the cells (_value_walk), so the bounds
    decline where that closure may raise, and a finite pair also proves
    that it raises nothing in the cell."""
    value = _per_cell(_value_walk, node, lambda v, x: v.ivs)
    return lambda cells: [(-_INF, _INF) if v is None else v for v in value(cells)]
