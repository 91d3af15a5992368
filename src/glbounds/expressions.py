"""Expression parsing and evaluation with exact first and second derivatives.

Grammar, over tokens:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-' unary | atom
    atom   := number | 'x' | func group | group
    group  := '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt' | 'abs'
    number := decimal literal, optional fraction and exponent part

One regular expression splits the text into tokens: a number, an ASCII name
(a letter or '_', then letters, digits and '_'), or any other single
character. Whitespace is space, tab, CR and LF only, and may stand before
any token. A number's digits are any Unicode decimal digits, read as float()
reads them ("٣" is 3). Where an operand should begin, any other character c
is "unexpected 'c' (offset n)", except that a '.' or a digit that begins no
number (such as "²") is a "malformed number".

Unary minus binds tighter than '^', so "-x^2" parses as (-x)^2. There are
no named constants; write the literal (e.g. 3.141592653589793) or exp(1).
An expression nests at most MAX_NESTING (100) levels deep: each pair of
parentheses, a call's included, each unary minus and each binary operator
is a level above its operands, and deeper text is "nesting deeper than 100
levels". So neither the parser nor the closures compiled from its tree can
exhaust Python's stack.

A parsed expression is compiled once into closures, x -> f(x) and
x -> (f, f', f''), to be called at every point (evaluate compiles the value
closure on each call, evaluate_jet2 the jet). Derivatives come from
second-order forward propagation (Taylor jets), not finite differences;
points where the expression is not twice differentiable (abs at 0,
fractional powers of a zero base) raise NonSmoothError instead of returning
a silently wrong value.

Each derivative rule, and the walk that strings the rules together, is
written once (_jet_rules, _jet_compiler) for any arithmetic that supplies
the elementary functions and the operators. Powers are coded in the walk: a
power whose exponent depends on x is exp(e * ln b), built from the shared ln,
product and exp rules. Floats make the jet closures; glbounds.enclosure runs
the same rules over a batch of interval cells.
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


# One match per token, after any run of space, tab, CR and LF: a number,
# an ASCII name, or any other single character; "" at the end of the text.
_TOKEN = re.compile(r"[ \t\r\n]*(((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|.?)")

# the most levels a number or x may sit under (see the module docstring)
MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


class _Parser:
    """Recursive descent over the tokens, numbers read as floats. Each rule takes the
    depth d of the node it reads, and returns it with the depth of its deepest leaf."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = [float(t) if n else t for t, n, _ in _TOKEN.findall(text)]
        self.i = 0

    def match(self) -> re.Match:
        """The current token's match, for an error's offset and wording."""
        return list(_TOKEN.finditer(self.text))[self.i]

    def fail(self, message: str | None = None) -> ParseError:
        """A ParseError at the current token: message, or else why no operand begins there."""
        m = self.match()
        tok = m[1]
        if message is None:
            message = (
                "number literal out of range" if m[2]
                else f"unknown identifier {tok!r}" if m[3]
                else "unexpected end of input" if tok == ""
                else "malformed number" if tok == "." or tok.isdigit()
                else f"unexpected {tok!r}"
            )
        return ParseError(message, m.start(1))

    def operand(self, m: int, rule: Callable, d: int) -> tuple[Node, int]:
        """The operand right of the current operator, read by rule, and the
        depth the operator's node at d reaches. Its left operand, read at d
        too, reached m, and now sits a level deeper."""
        if m >= MAX_NESTING:
            raise self.fail(_TOO_DEEP)
        self.i += 1
        right, r = rule(d + 1)
        return right, (m + 1 if m >= r else r)

    def expr(self, d: int) -> tuple[Node, int]:
        node, m = self.term(d)
        while (op := self.tokens[self.i]) == "+" or op == "-":
            right, m = self.operand(m, self.term, d)
            node = Bin(op, node, right)
        return node, m

    def term(self, d: int) -> tuple[Node, int]:
        node, m = self.factor(d)
        while (op := self.tokens[self.i]) == "*" or op == "/":
            right, m = self.operand(m, self.factor, d)
            node = Bin(op, node, right)
        return node, m

    def factor(self, d: int) -> tuple[Node, int]:
        node, m = self.unary(d)
        if self.tokens[self.i] == "^":
            exponent, m = self.operand(m, self.factor, d)
            node = Pow(node, exponent)
        return node, m

    def unary(self, d: int) -> tuple[Node, int]:
        if d > MAX_NESTING:
            raise self.fail(_TOO_DEEP)
        if self.tokens[self.i] == "-":
            self.i += 1
            node, m = self.unary(d + 1)
            return Neg(node), m
        return self.atom(d)

    def atom(self, d: int) -> tuple[Node, int]:
        tok = self.tokens[self.i]
        if tok == "(":
            return self.group(d)
        if tok == "x":
            self.i += 1
            return Var(), d
        if isinstance(tok, float) and math.isfinite(tok):
            self.i += 1
            return Const(tok), d
        if tok not in _CALLS:
            raise self.fail()
        self.i += 1
        if self.tokens[self.i] != "(":
            raise self.fail(f"expected '(' after {tok!r}")
        arg, m = self.group(d)
        return Call(tok, arg), m

    def group(self, d: int) -> tuple[Node, int]:
        """'(' expr ')' from the current token, a '('; the parentheses are at depth d."""
        self.i += 1
        node, m = self.expr(d + 1)
        if self.tokens[self.i] != ")":
            raise self.fail("expected ')'")
        self.i += 1
        return node, m


def parse(text: str) -> Node:
    """Parse expression text into an AST; ParseError carries the character offset."""
    p = _Parser(text)
    if p.tokens[0] == "":
        raise ParseError("empty expression", 0)
    node, _ = p.expr(0)
    if p.tokens[p.i] != "":
        m = p.match()
        raise ParseError(f"unexpected {m[1][0]!r}", m.start(1))
    return node


# Domain and smoothness rules of the float closures
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


def _jet_sqrt(u: float) -> float:
    """_sqrt where it is also differentiable, as the jet needs."""
    w = _sqrt(u)
    if u == 0.0:
        raise NonSmoothError("sqrt is not differentiable at 0")
    return w


# a power whose exponent depends on x is exp(e * ln b)
_BASE_DOMAIN = "power with variable exponent requires a positive base"
_POWER_OVERFLOW = "power overflow"


def _power(base: float, c: float, smooth: bool = True) -> float:
    """base**c for an exponent free of x; smooth, as the jet needs, also
    requires it twice differentiable."""
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


_CALLS = {  # function name -> value rule
    "sin": math.sin,
    "cos": math.cos,
    "exp": _exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": abs,
}


def _compile_value(node: Node) -> tuple[Callable[[float], float], bool]:
    """The value closure x -> f(x), and whether node depends on x. It computes
    its operands left to right, as the grammar reads."""
    if isinstance(node, Const):
        c = node.value
        return (lambda x: c), False
    if isinstance(node, Var):
        return (lambda x: x), True
    if isinstance(node, Call):
        f, has_x = _compile_value(node.arg)
        name, rule = node.func, _CALLS[node.func]

        def call(x: float) -> float:
            try:
                return rule(f(x))
            except ValueError:  # math.sin and math.cos of inf; f raises none
                raise DomainError(f"{name} of infinite argument {f(x)!r}") from None

        return call, has_x
    if isinstance(node, Neg):
        f, has_x = _compile_value(node.arg)
        return (lambda x: -f(x)), has_x
    if isinstance(node, Pow):
        f, has_x = _compile_value(node.base)
        if isinstance(node.exponent, Const):
            c = node.exponent.value
            return (lambda x: _power(f(x), c, False)), has_x
        g, expo_has_x = _compile_value(node.exponent)
        if not expo_has_x:
            # evaluated at every call all the same, so that its errors name x
            return (lambda x: _power(f(x), g(x), False)), has_x

        def power(x: float) -> float:
            lb = _ln(f(x), _BASE_DOMAIN)
            return _exp(g(x) * lb, _POWER_OVERFLOW)

        return power, True
    if not isinstance(node, Bin):
        raise TypeError(f"not an expression node: {node!r}")
    f, has_x = _compile_value(node.left)
    g, g_has_x = _compile_value(node.right)
    has_x = has_x or g_has_x
    if node.op == "+":
        return (lambda x: f(x) + g(x)), has_x
    if node.op == "-":
        return (lambda x: f(x) - g(x)), has_x
    if node.op == "*":
        return (lambda x: f(x) * g(x)), has_x
    return (lambda x: _divide(f(x), g(x), x)), has_x


def _jet_rules(sin, cos, exp, ln, sqrt, power, divide, zero) -> dict[str, Callable]:
    """The jet's derivative rules, written once for any arithmetic.

    An arithmetic brings its elementary functions with their domain checks,
    power(b, c) for an exponent c free of x, divide(a, b, x) for the first
    quotient of a division at x, and zero(v), the zero of v's kind; the
    rules do everything else with the operands' own operators, in the order
    written. A call's rule maps the jet (u, u', u'') of its argument to its
    own, "^" maps (b, b', b'', c) to the jet of b**c, and a binary rule maps
    its operands' jet closures to the operation's, x -> (f, f', f'').
    """

    def sin_jet(uv, u1, u2):
        try:
            s, c = sin(uv), cos(uv)
        except ValueError:
            raise DomainError(f"sin of infinite argument {uv!r}") from None
        return (s, c * u1, -s * u1 * u1 + c * u2)

    def cos_jet(uv, u1, u2):
        try:
            s, c = sin(uv), cos(uv)
        except ValueError:
            raise DomainError(f"cos of infinite argument {uv!r}") from None
        return (c, -s * u1, -c * u1 * u1 - s * u2)

    def exp_jet(uv, u1, u2):
        w = exp(uv)
        return (w, w * u1, w * (u1 * u1 + u2))

    def ln_jet(uv, u1, u2):
        v = ln(uv)
        w1 = u1 / uv
        return (v, w1, u2 / uv - w1 * w1)

    def sqrt_jet(uv, u1, u2):
        w = sqrt(uv)
        w1 = 0.5 * u1 / w
        return (w, w1, (0.5 * u2 - w1 * w1) / w)

    def power_jet(bv, b1, b2, c):
        v = power(bv, c)
        if c == 0.0:
            return (v, zero(v), zero(v))
        try:
            t1 = c * bv ** (c - 1.0)
            d1 = t1 * b1
            d2 = t1 * b2
            c2 = c * (c - 1.0)
            if c2 != 0.0:
                d2 += c2 * bv ** (c - 2.0) * b1 * b1
        except OverflowError:
            raise DomainError(_POWER_OVERFLOW) from None
        return (v, d1, d2)

    def add(fj, gj):
        def jet(x):
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av + bv, a1 + b1, a2 + b2)
        return jet

    def sub(fj, gj):
        def jet(x):
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av - bv, a1 - b1, a2 - b2)
        return jet

    def mul(fj, gj):
        def jet(x):
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            return (av * bv, a1 * bv + av * b1, a2 * bv + 2.0 * a1 * b1 + av * b2)
        return jet

    def div(fj, gj):
        def jet(x):
            (av, a1, a2), (bv, b1, b2) = fj(x), gj(x)
            w = divide(av, bv, x)
            w1 = (a1 - w * b1) / bv
            w2 = (a2 - 2.0 * w1 * b1 - w * b2) / bv
            return (w, w1, w2)
        return jet

    return {"sin": sin_jet, "cos": cos_jet, "exp": exp_jet, "ln": ln_jet, "sqrt": sqrt_jet,
            "^": power_jet, "+": add, "-": sub, "*": mul, "/": div}


def _jet_compiler(rules: dict[str, Callable], const, var) -> Callable:
    """node -> its jet closure, strung together from rules (_jet_rules',
    "abs", and "ln^" and "exp^", the ln and exp of a power) in one
    arithmetic: const(c) is a constant's closure and var is x's.

    An exponent free of x goes to "^" as a float, its value closure evaluated
    at every x all the same, so that its errors name x. b**e is exp(e * ln b)
    where e depends on x, with ln b taken before e.
    """

    def walk(node: Node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, Var):
            return var
        if isinstance(node, Call):
            fj, rule = walk(node.arg), rules[node.func]
            return lambda x: rule(*fj(x))
        if isinstance(node, Neg):
            fj = walk(node.arg)

            def neg(x):
                v, d1, d2 = fj(x)
                return (-v, -d1, -d2)

            return neg
        if isinstance(node, Pow):
            bj, e, power = walk(node.base), node.exponent, rules["^"]
            if isinstance(e, Const):
                c = e.value
                return lambda x: power(*bj(x), c)
            g, has_x = _compile_value(e)
            if not has_x:
                return lambda x: power(*bj(x), g(x))
            ln, exp, ej = rules["ln^"], rules["exp^"], walk(e)
            # the product runs on the pair (x, jet of ln b), taken first
            times = rules["*"](lambda xl: ej(xl[0]), lambda xl: xl[1])
            return lambda x: exp(*times((x, ln(*bj(x)))))
        if not isinstance(node, Bin):
            raise TypeError(f"not an expression node: {node!r}")
        return rules[node.op](walk(node.left), walk(node.right))

    return walk


def _abs_jet(uv: float, u1: float, u2: float) -> _Jet:
    if uv == 0.0:
        raise NonSmoothError("abs is not differentiable where its argument is 0")
    s = 1.0 if uv > 0.0 else -1.0
    return (abs(uv), s * u1, s * u2)


def _float_rules(exp, ln) -> dict[str, Callable]:
    return _jet_rules(math.sin, math.cos, exp, ln, _jet_sqrt, _power, _divide, lambda v: 0.0)


# exp(e * ln b) takes the ln and exp rules with a power's error messages
_POWER_RULES = _float_rules(lambda u: _exp(u, _POWER_OVERFLOW), lambda u: _ln(u, _BASE_DOMAIN))
_JET_RULES = {
    **_float_rules(_exp, _ln),
    "abs": _abs_jet,
    "ln^": _POWER_RULES["ln"],
    "exp^": _POWER_RULES["exp"],
}
_compile_jet = _jet_compiler(_JET_RULES, lambda c: (lambda x: (c, 0.0, 0.0)), lambda x: (x, 1.0, 0.0))


def compile_expression(node: Node) -> tuple[Callable[[float], float], Callable[[float], _Jet]]:
    """Closures x -> f(x) and x -> (f, f', f'') built once, to be called at many points;
    the jet also raises NonSmoothError where f is not twice differentiable."""
    return _compile_value(node)[0], _compile_jet(node)


def evaluate(node: Node, x: float) -> float:
    """Evaluate node at x; raises DomainError outside the natural domain."""
    return _compile_value(node)[0](x)


def evaluate_jet2(node: Node, x: float) -> Jet2:
    """Exact (f, f', f'') at x via second-order forward propagation."""
    return Jet2(*_compile_jet(node)(x))
