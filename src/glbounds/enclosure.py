"""Outward-rounded interval enclosure of the float jet of an expression.

compile_second_derivative(node) walks the same tree as compile_expression and
returns cell -> sup |f''| over the cell, where f'' is the float value that the
jet closure computes, x -> compile_expression(node)[1](x)[2], at every float x
in the closed cell [lo, hi]. It encloses that float value, not the real f'':
every interval operation mirrors one float operation of the jet closure, in
the same order, on intervals holding its operands. compile_value(node) bounds
f the same way, from the same walk: the jet's value component is computed
by the same float operations as the value closure compile_expression(node)[0],
so one enclosure covers both.

Soundness. Round-to-nearest is monotone, so for +, -, *, / and sqrt (all
correctly rounded) the float result of operands taken from two intervals lies
between the float results at the corners, which is what the interval
operations compute; each result is then moved one float outward with
math.nextafter for good measure. exp, ln, sin, cos and ** go through libm,
which is assumed accurate to 1 ulp (glibc documents less for all five on
x86-64); their enclosures take the real function's range, bounded by libm
values at the extremes, and widen it by 2^-50 relative (twice the 2 ulps
that two libm errors, at the extreme and at the point, can add up to) plus
an absolute 2^-1070 for results in the subnormal range.

It declines wherever the float jet could raise or go non-finite in the cell:
a divisor interval holding 0; ln or sqrt of an argument touching <= 0; abs of
an argument holding 0; a non-integer power of a base touching <= 0, a
negative integer power of a base holding 0, and any exponent that depends on
x; exp or ** overflowing; and any interval end that is not finite. As in
interval arithmetic generally, what cannot be bounded is unbounded: the bound
is inf on a cell where it declines, and on every cell where it declines at
compile time. So a finite bound also proves that the jet raises nothing in
the cell.
"""

from __future__ import annotations

import math
from typing import Callable

from .expressions import Bin, Call, Const, ExpressionError, Neg, Node, Pow, Var, _compile

__all__ = ["compile_second_derivative", "compile_value", "sup_power"]

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


def _point(c: float) -> _Iv:
    if not math.isfinite(c):
        raise Declined
    return c, c


_ZERO = (0.0, 0.0)


def _add(a: _Iv, b: _Iv) -> _Iv:
    return _out(a[0] + b[0], a[1] + b[1])


def _sub(a: _Iv, b: _Iv) -> _Iv:
    return _out(a[0] - b[1], a[1] - b[0])


def _neg(a: _Iv) -> _Iv:
    return -a[1], -a[0]


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


def _sin(u: _Iv) -> _Iv:
    return _periodic(u, math.sin, 0.5)


def _cos(u: _Iv) -> _Iv:
    return _periodic(u, math.cos, 0.0)


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


def _power_jet(bj: _IJet, c: float) -> _IJet:
    # mirrors expressions._power and _power_jet
    (bv, b1, b2) = bj
    if not math.isfinite(c):
        raise Declined
    v = _ipow(bv, c)
    d1 = d2 = _ZERO
    if c != 0.0:
        t1 = _mul(_point(c), _ipow(bv, c - 1.0))
        d1 = _mul(t1, b1)
        d2 = _mul(t1, b2)
        c2 = c * (c - 1.0)
        if c2 != 0.0:
            d2 = _add(d2, _mul(_mul(_mul(_point(c2), _ipow(bv, c - 2.0)), b1), b1))
    return v, d1, d2


def _sin_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    s, c = _sin(uv), _cos(uv)
    return s, _mul(c, u1), _add(_mul(_mul(_neg(s), u1), u1), _mul(c, u2))


def _cos_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    s, c = _sin(uv), _cos(uv)
    return c, _mul(_neg(s), u1), _sub(_mul(_mul(_neg(c), u1), u1), _mul(s, u2))


def _exp_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    w = _exp(uv)
    return w, _mul(w, u1), _mul(w, _add(_mul(u1, u1), u2))


def _ln_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    v = _ln(uv)
    w1 = _div(u1, uv)
    return v, w1, _sub(_div(u2, uv), _mul(w1, w1))


def _sqrt_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    w = _sqrt(uv)
    w1 = _div(_mul((0.5, 0.5), u1), w)
    return w, w1, _div(_sub(_mul((0.5, 0.5), u2), _mul(w1, w1)), w)


def _abs_jet(uv: _Iv, u1: _Iv, u2: _Iv) -> _IJet:
    if uv[0] <= 0.0 <= uv[1]:
        raise Declined
    if uv[0] > 0.0:
        return uv, u1, u2
    return _neg(uv), _neg(u1), _neg(u2)


_CALLS = {
    "sin": _sin_jet,
    "cos": _cos_jet,
    "exp": _exp_jet,
    "ln": _ln_jet,
    "sqrt": _sqrt_jet,
    "abs": _abs_jet,
}


def _add_jet(a: _IJet, b: _IJet) -> _IJet:
    return _add(a[0], b[0]), _add(a[1], b[1]), _add(a[2], b[2])


def _sub_jet(a: _IJet, b: _IJet) -> _IJet:
    return _sub(a[0], b[0]), _sub(a[1], b[1]), _sub(a[2], b[2])


def _mul_jet(a: _IJet, b: _IJet) -> _IJet:
    (av, a1, a2), (bv, b1, b2) = a, b
    d1 = _add(_mul(a1, bv), _mul(av, b1))
    d2 = _add(_add(_mul(a2, bv), _mul(_mul((2.0, 2.0), a1), b1)), _mul(av, b2))
    return _mul(av, bv), d1, d2


def _div_jet(a: _IJet, b: _IJet) -> _IJet:
    (av, a1, a2), (bv, b1, b2) = a, b
    w = _div(av, bv)
    w1 = _div(_sub(a1, _mul(w, b1)), bv)
    w2 = _div(_sub(_sub(a2, _mul(_mul((2.0, 2.0), w1), b1)), _mul(w, b2)), bv)
    return w, w1, w2


_BINARY = {"+": _add_jet, "-": _sub_jet, "*": _mul_jet, "/": _div_jet}


def _compile_jet(node: Node) -> Callable[[_Iv], _IJet]:
    """cell -> interval jet enclosing the float jet at every float of the cell."""
    if isinstance(node, Const):
        jet = (_point(node.value), _ZERO, _ZERO)
        return lambda cell: jet
    if isinstance(node, Var):
        return lambda cell: (cell, (1.0, 1.0), _ZERO)
    if isinstance(node, Call):
        f, rule = _compile_jet(node.arg), _CALLS[node.func]
        return lambda cell: rule(*f(cell))
    if isinstance(node, Neg):
        f = _compile_jet(node.arg)

        def neg(cell: _Iv) -> _IJet:
            v, d1, d2 = f(cell)
            return _neg(v), _neg(d1), _neg(d2)

        return neg
    if isinstance(node, Pow):
        f = _compile_jet(node.base)
        value, _, has_x = _compile(node.exponent)
        if has_x:
            raise Declined
        try:
            c = value(0.0)  # free of x, so the jet computes this same float at every x
        except ExpressionError:  # the jet raises it at every x
            raise Declined from None
        return lambda cell: _power_jet(f(cell), c)
    if not isinstance(node, Bin):
        raise TypeError(f"not an expression node: {node!r}")
    f, g, rule = _compile_jet(node.left), _compile_jet(node.right), _BINARY[node.op]
    return lambda cell: rule(f(cell), g(cell))


def sup_power(s: float, q: float) -> float:
    """An upper bound of the float d ** q for every float d in [0, s], q > 0;
    inf where s is inf or s ** q overflows."""
    try:
        return _libm(0.0, s**q)[1]
    except (Declined, OverflowError):
        return _INF


def _compile_bound(node: Node, part: Callable[[_IJet], float]) -> Callable[[float, float], float]:
    """(lo, hi) -> part of the interval jet of node on the cell [lo, hi], or
    inf where the enclosure declines."""
    try:
        jet = _compile_jet(node)
    except Declined:
        return lambda lo, hi: _INF

    def bound(lo: float, hi: float) -> float:
        try:
            return part(jet((lo, hi)))
        except (Declined, OverflowError):  # OverflowError from exp, ** or a cell end at inf
            return _INF

    return bound


def compile_second_derivative(node: Node) -> Callable[[float, float], float]:
    """(lo, hi) -> an upper bound of |f''| as the float jet computes it at any
    float in [lo, hi]; inf where it cannot vouch for that bound (see the
    module docstring)."""
    return _compile_bound(node, lambda jet: max(-jet[2][0], jet[2][1]))


def compile_value(node: Node) -> Callable[[float, float], float]:
    """(lo, hi) -> an upper bound of f as the value closure computes it at any
    float in [lo, hi]; inf where it cannot vouch for that bound. The jet
    raises wherever the value closure does, so a finite bound also proves
    that the value closure raises nothing in the cell."""
    return _compile_bound(node, lambda jet: jet[0][1])
