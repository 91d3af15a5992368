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

The parser reads + - * / ^ by precedence climbing from one table
(_PRECEDENCE), '^' grouping to the right and the others to the left.
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

One walk (_jet_compiler) compiles every tree, and each node kind takes its
closure from a rule table, so the walk has four instances: the value
closures (_VALUE_RULES), the float jets (_JET_RULES) and, in
glbounds.enclosure, interval jets and interval values over a batch of
cells, the latter from _VALUE_RULES' own entries where they test no float.
Each derivative rule is written once (_jet_rules) for any arithmetic that
supplies the elementary functions and the operators, and both jets take
it; a power whose exponent depends on x is exp(e * ln b), built from that
table's ln, product and exp rules.

The float closures fold their leaves (_jet_compiler's fold): a rule reads
an operand that is x or a constant inline, as its jet (x, 1.0, 0.0) or (c,
0.0, 0.0), through the float operations and checked helpers of the closures
it replaces, in their order. w*1.0 and c*0.0 stay: at -0.0, inf and nan they
are no identities. Folding saves calls and changes no float and no error, so
the enclosure, whose cells run the rules unfolded, still holds the closures'.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple, Union

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Pow",
    "Call",
    "Node",
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


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    pass


class Neg(NamedTuple):
    arg: "Node"


class Bin(NamedTuple):
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


class Pow(NamedTuple):
    base: "Node"
    exponent: "Node"


class Call(NamedTuple):
    func: str
    arg: "Node"


Node = Union[Const, Var, Neg, Bin, Pow, Call]


_Jet = tuple[float, float, float]  # (f, f', f'') at one point


# One match per token, after any run of space, tab, CR and LF: a number,
# an ASCII name, or any other single character; "" at the end of the text.
_TOKEN = re.compile(r"[ \t\r\n]*(((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|.?)")

# the most levels a number or x may sit under (see the module docstring)
MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


# each binary operator's precedence: '^' groups to the right, the others to the left
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


class _Parser:
    """Precedence climbing over the tokens, numbers read as floats: binary
    reads every binary operator from _PRECEDENCE, atom every operand. Each
    rule takes the depth d of the node it reads, and returns it with the
    depth of its deepest leaf."""

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

    def binary(self, d: int, floor: int = 1) -> tuple[Node, int]:
        """Operands joined by the operators of precedence at least floor. Each
        operator's node sits a level above its operands: the left one, whose
        deepest leaf reached m, and the right one, read at d + 1."""
        node, m = self.atom(d)
        while (p := _PRECEDENCE.get(op := self.tokens[self.i], 0)) >= floor:
            if m >= MAX_NESTING:
                raise self.fail(_TOO_DEEP)
            self.i += 1
            right, r = self.binary(d + 1, p if op == "^" else p + 1)
            node = Pow(node, right) if op == "^" else Bin(op, node, right)
            m = m + 1 if m >= r else r
        return node, m

    def atom(self, d: int) -> tuple[Node, int]:
        if d > MAX_NESTING:
            raise self.fail(_TOO_DEEP)
        tok = self.tokens[self.i]
        if tok == "-":
            self.i += 1
            node, m = self.atom(d + 1)
            return Neg(node), m
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
        node, m = self.binary(d + 1)
        if self.tokens[self.i] != ")":
            raise self.fail("expected ')'")
        self.i += 1
        return node, m


def parse(text: str) -> Node:
    """Parse expression text into an AST; ParseError carries the character offset."""
    p = _Parser(text)
    if p.tokens[0] == "":
        raise ParseError("empty expression", 0)
    node, _ = p.binary(0)
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


_CALLS = ("sin", "cos", "exp", "ln", "sqrt", "abs")  # the parser's function names


def _has_x(node: Node) -> bool:
    return isinstance(node, Var) or any(isinstance(n, tuple) and _has_x(n) for n in node)


def _folding(both: Callable, c_first: Callable, c_last: Callable) -> Callable:
    """A binary operator's rule: both(f, g) of two closures, and where the
    walk folds a constant c, c_first(c, g) or c_last(f, c); beside the
    constant of "+" and "-", g or f is x itself (the node Var())."""
    return lambda f, g: (
        c_first(f.value, g) if isinstance(f, Const) else c_last(f, g.value) if isinstance(g, Const) else both(f, g)
    )


def _jet_rules(sin, cos, exp, ln, sqrt, power, divide) -> dict[str, Callable]:
    """The jet's derivative rules, written once for any arithmetic.

    An arithmetic brings its elementary functions with their domain checks,
    power(b, c) for an exponent c free of x and divide(a, b, x) for the
    first quotient of a division at x; the rules do everything else with
    the operands' own operators, in the order written. A call's rule maps
    the jet (u, u', u'') of its argument to its own, x's jet (u, 1.0, 0.0)
    where it is given u alone; the others map operand
    closures, or the leaves that _jet_compiler folds, to the node's closure,
    x -> (f, f', f''): "apply" a call's (name, rule, argument), "neg", "^c"
    (base, literal exponent), "^g" (base, value closure of an exponent free
    of x), "^x" (base, exponent: exp(e * ln b), ln b taken first) and "+",
    "-", "*", "/".
    """

    def sin_jet(uv, u1=1.0, u2=0.0):
        try:
            s, c = sin(uv), cos(uv)
        except ValueError:
            raise DomainError(f"sin of infinite argument {uv!r}") from None
        return (s, c * u1, -s * u1 * u1 + c * u2)

    def cos_jet(uv, u1=1.0, u2=0.0):
        try:
            s, c = sin(uv), cos(uv)
        except ValueError:
            raise DomainError(f"cos of infinite argument {uv!r}") from None
        return (c, -s * u1, -c * u1 * u1 - s * u2)

    def exp_jet(uv, u1=1.0, u2=0.0):
        w = exp(uv)
        return (w, w * u1, w * (u1 * u1 + u2))

    def ln_jet(uv, u1=1.0, u2=0.0):
        v = ln(uv)
        w1 = u1 / uv
        return (v, w1, u2 / uv - w1 * w1)

    def sqrt_jet(uv, u1=1.0, u2=0.0):
        w = sqrt(uv)
        w1 = 0.5 * u1 / w
        return (w, w1, (0.5 * u2 - w1 * w1) / w)

    def power_jet(bv, b1, b2, c):
        v = power(bv, c)
        if c == 0.0:
            return (v, 0.0, 0.0)
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

    # mul and div with a constant c folded: its jet (c, 0.0, 0.0) read inline
    def c_times(c, gj):
        def jet(x):
            bv, b1, b2 = gj(x)
            return (c * bv, 0.0 * bv + c * b1, 0.0 * bv + 2.0 * 0.0 * b1 + c * b2)
        return jet

    def times_c(fj, c):
        def jet(x):
            av, a1, a2 = fj(x)
            return (av * c, a1 * c + av * 0.0, a2 * c + 2.0 * a1 * 0.0 + av * 0.0)
        return jet

    def c_over(c, gj):
        def jet(x):
            bv, b1, b2 = gj(x)
            w = divide(c, bv, x)
            w1 = (0.0 - w * b1) / bv
            return (w, w1, (0.0 - 2.0 * w1 * b1 - w * b2) / bv)
        return jet

    def over_c(fj, c):
        def jet(x):
            av, a1, a2 = fj(x)
            w = divide(av, c, x)
            w1 = (a1 - w * 0.0) / c
            return (w, w1, (a2 - 2.0 * w1 * 0.0 - w * 0.0) / c)
        return jet

    def apply(name, rule, fj):
        if isinstance(fj, Var):
            return rule  # a call of x: its rule's default jet of the argument is x's
        return lambda x: rule(*fj(x))

    def neg(fj):
        if isinstance(fj, Var):
            return lambda x: (-x, -1.0, -0.0)

        def jet(x):
            v, d1, d2 = fj(x)
            return (-v, -d1, -d2)
        return jet

    def power_c(bj, c):
        if isinstance(bj, Var):
            return lambda x: power_jet(x, 1.0, 0.0, c)
        return lambda x: power_jet(*bj(x), c)

    def power_g(bj, g):
        return lambda x: power_jet(*bj(x), g(x))

    def power_x(bj, ej):
        # the product runs on the pair (x, jet of ln b), taken first
        times = mul(lambda xl: ej(xl[0]), lambda xl: xl[1])
        return lambda x: exp_jet(*times((x, ln_jet(*bj(x)))))

    return {"sin": sin_jet, "cos": cos_jet, "exp": exp_jet, "ln": ln_jet, "sqrt": sqrt_jet,
            "apply": apply, "neg": neg, "^c": power_c, "^g": power_g, "^x": power_x,
            # x + c, c + x, x - c and c - x: the jets of x and c read inline
            "+": _folding(add, lambda c, _: lambda x: (c + x, 0.0 + 1.0, 0.0 + 0.0),
                          lambda _, c: lambda x: (x + c, 1.0 + 0.0, 0.0 + 0.0)),
            "-": _folding(sub, lambda c, _: lambda x: (c - x, 0.0 - 1.0, 0.0 - 0.0),
                          lambda _, c: lambda x: (x - c, 1.0 - 0.0, 0.0 - 0.0)),
            "*": _folding(mul, c_times, times_c), "/": _folding(div, c_over, over_c)}


def _jet_compiler(rules: dict[str, Callable], const, var, fold: bool = False) -> Callable:
    """node -> its closure, strung together from rules in one arithmetic:
    const(c) is a constant's closure and var is x's. rules holds a rule for
    each name in _CALLS, and "apply", "neg", "^c", "^g", "^x", "+", "-", "*"
    and "/" (see _jet_rules), which build a node's closure from its operands'.

    An exponent free of x goes to "^g" as its float value closure, evaluated
    at every x all the same, so that its errors name x.

    With fold, the rule gets these operands as leaves, the nodes themselves:
    x as the argument of a call, the base of "^c" and the operand of "neg";
    x and a constant as the two operands of "+" and "-"; and a constant
    operand of "*" and "/", the left one where both are.
    """

    def operand(node: Node):
        return node if fold and isinstance(node, Var) else walk(node)

    def walk(node: Node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, Var):
            return var
        if isinstance(node, Call):
            return rules["apply"](node.func, rules[node.func], operand(node.arg))
        if isinstance(node, Neg):
            return rules["neg"](operand(node.arg))
        if isinstance(node, Pow):
            e = node.exponent
            if isinstance(e, Const):
                return rules["^c"](operand(node.base), e.value)
            b = walk(node.base)
            if not _has_x(e):
                return rules["^g"](b, _compile_value(e))
            return rules["^x"](b, walk(e))
        if not isinstance(node, Bin):
            raise TypeError(f"not an expression node: {node!r}")
        op, left, right = node
        if fold and op in "+-" and {left.__class__, right.__class__} == {Var, Const}:
            return rules[op](left, right)
        if fold and op in "*/":
            if isinstance(left, Const):
                return rules[op](left, walk(right))
            if isinstance(right, Const):
                return rules[op](walk(left), right)
        return rules[op](walk(left), walk(right))

    return walk


def _call(name: str, rule: Callable, f: Callable | Var) -> Callable[[float], float]:
    if isinstance(f, Var) and rule not in (math.sin, math.cos):
        return rule  # a call of x: the checked rule itself

    def call(x: float) -> float:
        try:
            return rule(f(x))
        except ValueError:  # math.sin and math.cos of inf; f raises none
            raise DomainError(f"{name} of infinite argument {f(x)!r}") from None

    def call_x(x: float) -> float:  # sin or cos of x
        try:
            return rule(x)
        except ValueError:
            raise DomainError(f"{name} of infinite argument {x!r}") from None
    return call_x if isinstance(f, Var) else call


def _variable_power(f: Callable, g: Callable) -> Callable[[float], float]:
    def power(x: float) -> float:
        lb = _ln(f(x), _BASE_DOMAIN)
        return _exp(g(x) * lb, _POWER_OVERFLOW)
    return power


# The value closures x -> f(x), operands computed left to right as the grammar reads
_VALUE_RULES = {
    "sin": math.sin, "cos": math.cos, "exp": _exp, "ln": _ln, "sqrt": _sqrt, "abs": abs,
    "apply": _call,
    "neg": lambda f: operator.neg if isinstance(f, Var) else lambda x: -f(x),
    "^c": lambda f, c: (lambda x: _power(x, c, False)) if isinstance(f, Var) else (
        lambda x: _power(f(x), c, False)),
    "^g": lambda f, g: lambda x: _power(f(x), g(x), False),
    "^x": _variable_power,
    "+": _folding(lambda f, g: lambda x: f(x) + g(x), lambda c, _: lambda x: c + x, lambda _, c: lambda x: x + c),
    "-": _folding(lambda f, g: lambda x: f(x) - g(x), lambda c, _: lambda x: c - x, lambda _, c: lambda x: x - c),
    "*": _folding(lambda f, g: lambda x: f(x) * g(x),
                  lambda c, g: lambda x: c * g(x), lambda f, c: lambda x: f(x) * c),
    "/": _folding(lambda f, g: lambda x: _divide(f(x), g(x), x),
                  lambda c, g: lambda x: _divide(c, g(x), x), lambda f, c: lambda x: _divide(f(x), c, x)),
}
_compile_value = _jet_compiler(_VALUE_RULES, lambda c: (lambda x: c), lambda x: x, True)


def _abs_jet(uv: float, u1: float = 1.0, u2: float = 0.0) -> _Jet:
    if uv == 0.0:
        raise NonSmoothError("abs is not differentiable where its argument is 0")
    s = 1.0 if uv > 0.0 else -1.0
    return (abs(uv), s * u1, s * u2)


def _float_rules(exp, ln) -> dict[str, Callable]:
    return _jet_rules(math.sin, math.cos, exp, ln, _jet_sqrt, _power, _divide)


# exp(e * ln b) takes the ln and exp rules with a power's error messages
_POWER_RULES = _float_rules(lambda u: _exp(u, _POWER_OVERFLOW), lambda u: _ln(u, _BASE_DOMAIN))
_JET_RULES = {**_float_rules(_exp, _ln), "abs": _abs_jet, "^x": _POWER_RULES["^x"]}
_compile_jet = _jet_compiler(_JET_RULES, lambda c: (lambda x: (c, 0.0, 0.0)), lambda x: (x, 1.0, 0.0), True)


def compile_expression(node: Node) -> tuple[Callable[[float], float], Callable[[float], _Jet]]:
    """Closures x -> f(x) and x -> (f, f', f'') built once, to be called at many points;
    the jet also raises NonSmoothError where f is not twice differentiable."""
    return _compile_value(node), _compile_jet(node)


def evaluate(node: Node, x: float) -> float:
    """Evaluate node at x; raises DomainError outside the natural domain."""
    return _compile_value(node)(x)


def evaluate_jet2(node: Node, x: float) -> _Jet:
    """Exact (f, f', f'') at x via second-order forward propagation."""
    return _compile_jet(node)(x)
