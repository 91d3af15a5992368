"""Expression parsing and evaluation with exact first and second derivatives.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-' unary | atom
    atom   := number | 'x' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt' | 'abs'
    number := decimal literal, optional fraction and exponent part

Unary minus binds tighter than '^', so "-x^2" parses as (-x)^2. There are
no named constants; write the literal (e.g. 3.141592653589793) or exp(1).

A parsed expression is compiled once into closures, x -> f(x) and
x -> (f, f', f''), to be called at every point (evaluate and evaluate_jet2
compile on each call). Derivatives come from second-order forward propagation
(Taylor jets), not finite differences; points where the expression is not
twice differentiable (abs at 0, fractional powers of a zero base) raise
NonSmoothError instead of returning a silently wrong value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Pow",
    "Call",
    "Node",
    "Jet2",
    "ExpressionError",
    "ParseError",
    "DomainError",
    "NonSmoothError",
    "parse",
    "compile_expression",
    "evaluate",
    "evaluate_jet2",
]


class ExpressionError(Exception):
    pass


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ExpressionError):
    """Evaluation outside the natural domain (ln/sqrt of negatives, zero division, bad powers)."""


class NonSmoothError(DomainError):
    """Point where the expression is not twice differentiable."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Const, Var, Neg, Bin, Pow, Call]


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of an expression at a point."""

    v: float
    d1: float
    d2: float


_Jet = tuple[float, float, float]  # (f, f', f'') at one point


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Node:
        node = self.term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+" or c == "-":
                self.pos += 1
                node = Bin(c, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*" or c == "/":
                self.pos += 1
                node = Bin(c, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.unary()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            node = Pow(node, self.factor())
        return node

    def unary(self) -> Node:
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Node:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.identifier()
        if c == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected {c!r}", self.pos)

    def number(self) -> Node:
        m = _NUMBER.match(self.text, self.pos)
        if m is None:
            raise ParseError("malformed number", self.pos)
        value = float(m.group())
        if not math.isfinite(value):
            raise ParseError("number literal out of range", self.pos)
        self.pos = m.end()
        return Const(value)

    def identifier(self) -> Node:
        start = self.pos
        m = _IDENT.match(self.text, start)
        name = m.group()
        self.pos = m.end()
        if name == "x":
            return Var()
        if name not in _CALLS:
            raise ParseError(f"unknown identifier {name!r}", start)
        self.skip_ws()
        if self.peek() != "(":
            raise ParseError(f"expected '(' after {name!r}", self.pos)
        self.pos += 1
        arg = self.expr()
        self.skip_ws()
        if self.peek() != ")":
            raise ParseError("expected ')'", self.pos)
        self.pos += 1
        return Call(name, arg)


def parse(text: str) -> Node:
    """Parse expression text into an AST; ParseError carries the character offset."""
    p = _Parser(text)
    p.skip_ws()
    if p.peek() == "":
        raise ParseError("empty expression", 0)
    node = p.expr()
    p.skip_ws()
    if p.peek() != "":
        raise ParseError(f"unexpected {p.peek()!r}", p.pos)
    return node


# Domain and smoothness rules, shared by the value and the jet closures
def _divide(a: float, b: float, x: float) -> float:
    if b == 0.0:
        raise DomainError(f"division by zero at x={x!r}")
    return a / b


def _exp(u: float, overflow: str | None = None) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        raise DomainError(overflow or f"exp overflow at argument {u!r}") from None


def _ln(u: float, domain: str | None = None) -> float:
    if u <= 0.0:
        raise DomainError(domain or f"ln of non-positive value {u!r}")
    return math.log(u)


def _sqrt(u: float) -> float:
    if u < 0.0:
        raise DomainError(f"sqrt of negative value {u!r}")
    return math.sqrt(u)


# a power whose exponent depends on x is exp(e * ln b)
_BASE_DOMAIN = "power with variable exponent requires a positive base"
_POWER_OVERFLOW = "power overflow"


def _power(base: float, c: float, smooth: bool = False) -> float:
    """base**c for an exponent free of x; smooth also requires it twice differentiable."""
    integral = c.is_integer()
    if base < 0.0 and not integral:
        raise DomainError("negative base with non-integer exponent")
    if base == 0.0:
        if c < 0.0:
            raise DomainError("zero base with negative exponent")
        if smooth and not integral and c < 2.0:
            raise NonSmoothError(
                "power of zero base with exponent in (0, 2) is not twice differentiable"
            )
    try:
        return base**c
    except OverflowError:
        raise DomainError(_POWER_OVERFLOW) from None


def _power_jet(bv: float, b1: float, b2: float, c: float) -> _Jet:
    v = _power(bv, c, True)
    d1 = d2 = 0.0
    try:
        if c != 0.0:
            t1 = c * bv ** (c - 1.0)
            d1 = t1 * b1
            d2 = t1 * b2
            c2 = c * (c - 1.0)
            if c2 != 0.0:
                d2 += c2 * bv ** (c - 2.0) * b1 * b1
    except OverflowError:
        raise DomainError(_POWER_OVERFLOW) from None
    return (v, d1, d2)


def _sin_jet(uv: float, u1: float, u2: float) -> _Jet:
    s, c = math.sin(uv), math.cos(uv)
    return (s, c * u1, -s * u1 * u1 + c * u2)


def _cos_jet(uv: float, u1: float, u2: float) -> _Jet:
    s, c = math.sin(uv), math.cos(uv)
    return (c, -s * u1, -c * u1 * u1 - s * u2)


def _exp_jet(uv: float, u1: float, u2: float) -> _Jet:
    w = _exp(uv)
    return (w, w * u1, w * (u1 * u1 + u2))


def _ln_jet(uv: float, u1: float, u2: float) -> _Jet:
    v = _ln(uv)
    w1 = u1 / uv
    return (v, w1, u2 / uv - w1 * w1)


def _sqrt_jet(uv: float, u1: float, u2: float) -> _Jet:
    w = _sqrt(uv)
    if uv == 0.0:
        raise NonSmoothError("sqrt is not differentiable at 0")
    w1 = 0.5 * u1 / w
    return (w, w1, (0.5 * u2 - w1 * w1) / w)


def _abs_jet(uv: float, u1: float, u2: float) -> _Jet:
    if uv == 0.0:
        raise NonSmoothError("abs is not differentiable where its argument is 0")
    s = 1.0 if uv > 0.0 else -1.0
    return (abs(uv), s * u1, s * u2)


_CALLS = {  # function name -> (value rule, jet rule)
    "sin": (math.sin, _sin_jet),
    "cos": (math.cos, _cos_jet),
    "exp": (_exp, _exp_jet),
    "ln": (_ln, _ln_jet),
    "sqrt": (_sqrt, _sqrt_jet),
    "abs": (abs, _abs_jet),
}


def _compile(node: Node) -> tuple[Callable[[float], float], Callable[[float], _Jet], bool]:
    """The value closure, the jet closure, and whether node depends on x.
    Each closure computes its operands left to right, as the grammar reads."""
    if isinstance(node, Const):
        c = node.value
        return (lambda x: c), (lambda x: (c, 0.0, 0.0)), False
    if isinstance(node, Var):
        return (lambda x: x), (lambda x: (x, 1.0, 0.0)), True
    if isinstance(node, Call):
        f, fj, has_x = _compile(node.arg)
        rule, jet_rule = _CALLS[node.func]
        return (lambda x: rule(f(x))), (lambda x: jet_rule(*fj(x))), has_x
    if isinstance(node, Neg):
        f, fj, has_x = _compile(node.arg)

        def neg(x: float) -> _Jet:
            v, d1, d2 = fj(x)
            return (-v, -d1, -d2)

        return (lambda x: -f(x)), neg, has_x
    if isinstance(node, Pow):
        f, fj, has_x = _compile(node.base)
        if isinstance(node.exponent, Const):
            c = node.exponent.value
            return (lambda x: _power(f(x), c)), (lambda x: _power_jet(*fj(x), c)), has_x
        g, gj, expo_has_x = _compile(node.exponent)
        if not expo_has_x:
            # evaluated at every call all the same, so that its errors name x
            return (lambda x: _power(f(x), g(x))), (lambda x: _power_jet(*fj(x), g(x))), has_x

        def power(x: float) -> float:
            lb = _ln(f(x), _BASE_DOMAIN)
            return _exp(g(x) * lb, _POWER_OVERFLOW)

        def power_jet(x: float) -> _Jet:
            bv, b1, b2 = fj(x)
            lv = _ln(bv, _BASE_DOMAIN)
            ev, e1, e2 = gj(x)
            l1 = b1 / bv
            l2 = b2 / bv - l1 * l1
            pv = ev * lv
            p1 = e1 * lv + ev * l1
            p2 = e2 * lv + 2.0 * e1 * l1 + ev * l2
            w = _exp(pv, _POWER_OVERFLOW)
            return (w, w * p1, w * (p1 * p1 + p2))

        return power, power_jet, True
    if not isinstance(node, Bin):
        raise TypeError(f"not an expression node: {node!r}")
    f, fj, has_x = _compile(node.left)
    g, gj, g_has_x = _compile(node.right)
    has_x = has_x or g_has_x
    if node.op == "+":
        def add(x: float) -> _Jet:
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av + bv, a1 + b1, a2 + b2)
        return (lambda x: f(x) + g(x)), add, has_x
    if node.op == "-":
        def sub(x: float) -> _Jet:
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av - bv, a1 - b1, a2 - b2)
        return (lambda x: f(x) - g(x)), sub, has_x
    if node.op == "*":
        def mul(x: float) -> _Jet:
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av * bv, a1 * bv + av * b1, a2 * bv + 2.0 * a1 * b1 + av * b2)
        return (lambda x: f(x) * g(x)), mul, has_x

    def div(x: float) -> _Jet:
        (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
        w = _divide(av, bv, x)
        w1 = (a1 - w * b1) / bv
        w2 = (a2 - 2.0 * w1 * b1 - w * b2) / bv
        return (w, w1, w2)
    return (lambda x: _divide(f(x), g(x), x)), div, has_x


def compile_expression(node: Node) -> tuple[Callable[[float], float], Callable[[float], _Jet]]:
    """Closures x -> f(x) and x -> (f, f', f'') built once, to be called at many points;
    the jet also raises NonSmoothError where f is not twice differentiable."""
    return _compile(node)[:2]


def evaluate(node: Node, x: float) -> float:
    """Evaluate node at x; raises DomainError outside the natural domain."""
    return _compile(node)[0](x)


def evaluate_jet2(node: Node, x: float) -> Jet2:
    """Exact (f, f', f'') at x via second-order forward propagation."""
    return Jet2(*_compile(node)[1](x))
