import math
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import (
    DomainError,
    NonSmoothError,
    ParseError,
    corpus_entries,
    evaluate,
    evaluate_jet2,
    parse,
)
from glbounds.expressions import (
    _CALLS,
    MAX_NESTING,
    Bin,
    Call,
    Const,
    Jet2,
    Neg,
    Node,
    Pow,
    Var,
    compile_expression,
)
from conftest import examples
from oracles import DEEP_SHAPES, second_derivative_fd, to_text

# The recursive tree-walkers that compile_expression replaced, kept verbatim
# (only the two entry points renamed) as the reference the closures must
# reproduce bit for bit, errors included.


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Const):
        return False
    if isinstance(node, Neg):
        return _contains_var(node.arg)
    if isinstance(node, Bin):
        return _contains_var(node.left) or _contains_var(node.right)
    if isinstance(node, Pow):
        return _contains_var(node.base) or _contains_var(node.exponent)
    return _contains_var(node.arg)


def reference_evaluate(node, x):
    """The recursive walker that compile_expression replaced, kept verbatim."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -reference_evaluate(node.arg, x)
    if isinstance(node, Bin):
        a = reference_evaluate(node.left, x)
        b = reference_evaluate(node.right, x)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0.0:
            raise DomainError(f"division by zero at x={x!r}")
        return a / b
    if isinstance(node, Pow):
        return _eval_pow(node, x)
    if isinstance(node, Call):
        return _eval_call(node.func, reference_evaluate(node.arg, x))
    raise TypeError(f"not an expression node: {node!r}")


def _eval_call(name: str, u: float) -> float:
    if name in ("sin", "cos") and math.isinf(u):
        raise DomainError(f"{name} of infinite argument {u!r}")
    if name == "sin":
        return math.sin(u)
    if name == "cos":
        return math.cos(u)
    if name == "exp":
        try:
            return math.exp(u)
        except OverflowError:
            raise DomainError(f"exp overflow at argument {u!r}") from None
    if name == "ln":
        if u <= 0.0:
            raise DomainError(f"ln of non-positive value {u!r}")
        return math.log(u)
    if name == "sqrt":
        if u < 0.0:
            raise DomainError(f"sqrt of negative value {u!r}")
        return math.sqrt(u)
    return abs(u)


def _eval_pow(node: Pow, x: float) -> float:
    base = reference_evaluate(node.base, x)
    if _contains_var(node.exponent):
        if base <= 0.0:
            raise DomainError("power with variable exponent requires a positive base")
        expo = reference_evaluate(node.exponent, x)
        try:
            return math.exp(expo * math.log(base))
        except OverflowError:
            raise DomainError("power overflow") from None
    c = reference_evaluate(node.exponent, x)
    if c.is_integer():
        if base == 0.0 and c < 0.0:
            raise DomainError("zero base with negative exponent")
    else:
        if base < 0.0:
            raise DomainError("negative base with non-integer exponent")
        if base == 0.0 and c < 0.0:
            raise DomainError("zero base with negative exponent")
    try:
        return base**c
    except OverflowError:
        raise DomainError("power overflow") from None


def reference_jet2(node, x):
    """The recursive jet walker that compile_expression replaced, kept verbatim."""
    return Jet2(*_jet(node, x))


def _jet(node: Node, x: float) -> tuple[float, float, float]:
    if isinstance(node, Const):
        return (node.value, 0.0, 0.0)
    if isinstance(node, Var):
        return (x, 1.0, 0.0)
    if isinstance(node, Neg):
        v, d1, d2 = _jet(node.arg, x)
        return (-v, -d1, -d2)
    if isinstance(node, Bin):
        av, a1, a2 = _jet(node.left, x)
        bv, b1, b2 = _jet(node.right, x)
        op = node.op
        if op == "+":
            return (av + bv, a1 + b1, a2 + b2)
        if op == "-":
            return (av - bv, a1 - b1, a2 - b2)
        if op == "*":
            return (av * bv, a1 * bv + av * b1, a2 * bv + 2.0 * a1 * b1 + av * b2)
        if bv == 0.0:
            raise DomainError(f"division by zero at x={x!r}")
        w = av / bv
        w1 = (a1 - w * b1) / bv
        w2 = (a2 - 2.0 * w1 * b1 - w * b2) / bv
        return (w, w1, w2)
    if isinstance(node, Pow):
        return _jet_pow(node, x)
    if isinstance(node, Call):
        return _jet_call(node.func, _jet(node.arg, x))
    raise TypeError(f"not an expression node: {node!r}")


def _jet_call(name: str, u: tuple[float, float, float]) -> tuple[float, float, float]:
    uv, u1, u2 = u
    if name in ("sin", "cos") and math.isinf(uv):
        raise DomainError(f"{name} of infinite argument {uv!r}")
    if name == "sin":
        s = math.sin(uv)
        c = math.cos(uv)
        return (s, c * u1, -s * u1 * u1 + c * u2)
    if name == "cos":
        s = math.sin(uv)
        c = math.cos(uv)
        return (c, -s * u1, -c * u1 * u1 - s * u2)
    if name == "exp":
        try:
            w = math.exp(uv)
        except OverflowError:
            raise DomainError(f"exp overflow at argument {uv!r}") from None
        return (w, w * u1, w * (u1 * u1 + u2))
    if name == "ln":
        if uv <= 0.0:
            raise DomainError(f"ln of non-positive value {uv!r}")
        w1 = u1 / uv
        return (math.log(uv), w1, u2 / uv - w1 * w1)
    if name == "sqrt":
        if uv < 0.0:
            raise DomainError(f"sqrt of negative value {uv!r}")
        if uv == 0.0:
            raise NonSmoothError("sqrt is not differentiable at 0")
        w = math.sqrt(uv)
        w1 = 0.5 * u1 / w
        return (w, w1, (0.5 * u2 - w1 * w1) / w)
    # abs
    if uv == 0.0:
        raise NonSmoothError("abs is not differentiable where its argument is 0")
    s = 1.0 if uv > 0.0 else -1.0
    return (abs(uv), s * u1, s * u2)


def _jet_pow(node: Pow, x: float) -> tuple[float, float, float]:
    bv, b1, b2 = _jet(node.base, x)
    if _contains_var(node.exponent):
        if bv <= 0.0:
            raise DomainError("power with variable exponent requires a positive base")
        ev, e1, e2 = _jet(node.exponent, x)
        # w = exp(e * ln b)
        lv = math.log(bv)
        l1 = b1 / bv
        l2 = b2 / bv - l1 * l1
        pv = ev * lv
        p1 = e1 * lv + ev * l1
        p2 = e2 * lv + 2.0 * e1 * l1 + ev * l2
        try:
            w = math.exp(pv)
        except OverflowError:
            raise DomainError("power overflow") from None
        return (w, w * p1, w * (p1 * p1 + p2))
    c = reference_evaluate(node.exponent, x)
    if c.is_integer():
        if bv == 0.0 and c < 0.0:
            raise DomainError("zero base with negative exponent")
    else:
        if bv < 0.0:
            raise DomainError("negative base with non-integer exponent")
        if bv == 0.0:
            if c < 0.0:
                raise DomainError("zero base with negative exponent")
            if c < 2.0:
                raise NonSmoothError(
                    "power of zero base with exponent in (0, 2) is not twice differentiable"
                )
    try:
        v = bv**c
        d1 = 0.0
        d2 = 0.0
        if c != 0.0:
            t1 = c * bv ** (c - 1.0)
            d1 = t1 * b1
            d2 = t1 * b2
            c2 = c * (c - 1.0)
            if c2 != 0.0:
                d2 += c2 * bv ** (c - 2.0) * b1 * b1
    except OverflowError:
        raise DomainError("power overflow") from None
    return (v, d1, d2)


# The character-level parser that the tokenizer and parse replaced, kept
# verbatim (only its entry point renamed) as the reference parse must agree
# with wherever it answers, with an AST or a ParseError.

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


def reference_parse(text: str) -> Node:
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



class TestParse:
    def test_power_structure(self):
        assert parse("x^2") == Pow(Var(), Const(2.0))

    def test_sum_of_call_and_product(self):
        assert parse("sin(x)+2*x") == Bin("+", Call("sin", Var()), Bin("*", Const(2.0), Var()))

    def test_double_star_rejected_with_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2**x")
        assert err.value.offset == 2

    def test_right_associative_power(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        # grammar: factor := unary ('^' factor)?, so -2^2 is (-2)^2
        assert evaluate(parse("-2^2"), 0.0) == 4.0

    def test_negative_exponent(self):
        assert evaluate(parse("2^-3"), 0.0) == 0.125

    def test_precedence(self):
        assert evaluate(parse("2+3*4"), 0.0) == 14.0
        assert evaluate(parse("2*3+4"), 0.0) == 10.0
        assert evaluate(parse("(2+3)*4"), 0.0) == 20.0

    def test_whitespace_ignored(self):
        assert parse(" sin ( x ) + 2 ") == parse("sin(x)+2")

    @pytest.mark.parametrize("text,value", [("1e-3", 1e-3), ("2.5", 2.5), (".5", 0.5), ("3.", 3.0), ("1.25E2", 125.0)])
    def test_number_forms(self, text, value):
        assert parse(text) == Const(value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo(x)")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("y")

    def test_function_requires_parenthesis(self):
        with pytest.raises(ParseError):
            parse("sin x")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse("x+1)")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(x+1")

    def test_out_of_range_literal(self):
        with pytest.raises(ParseError):
            parse("1e999")

    def test_unicode_decimal_digits_read_as_numbers(self):
        assert parse("٣") == Const(3.0)
        assert parse("x*١٢.٥") == Bin("*", Var(), Const(12.5))

    def test_a_digit_or_dot_that_begins_no_number_is_malformed(self):
        # '²' is a digit to str.isdigit but not a decimal digit
        for text, offset in (("²", 0), (".", 0), ("x+.", 2), ("x-.e1", 2)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == f"malformed number (offset {offset})"

    def test_non_ascii_letter_is_unexpected(self):
        # the character-level parser took 'π' for the start of a name, then
        # its ASCII name pattern matched nothing
        with pytest.raises(AttributeError):
            reference_parse("sin(π*x)")
        with pytest.raises(ParseError) as err:
            parse("sin(π*x)")
        assert (str(err.value), err.value.offset) == ("unexpected 'π' (offset 4)", 4)
        # a name is ASCII: 'xé' is x, then an unexpected 'é'
        with pytest.raises(ParseError, match=r"^unexpected 'é' \(offset 1\)$"):
            parse("xé")

    @pytest.mark.parametrize("space", ["\v", "\f", "\xa0", "\u2003", "\u3000"])
    def test_whitespace_is_space_tab_cr_and_lf(self, space):
        assert parse(" \t\r\nx \t\r\n+\n1\r") == Bin("+", Var(), Const(1.0))
        with pytest.raises(ParseError) as err:
            parse(f"x{space}+1")
        assert str(err.value) == f"unexpected {space!r} (offset 1)"


class TestNesting:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_each_shape_at_the_limit_and_past_it(self, shape):
        text, offset = DEEP_SHAPES[shape]
        assert parse(text(MAX_NESTING)) == reference_parse(text(MAX_NESTING))
        with pytest.raises(ParseError) as err:
            parse(text(MAX_NESTING + 1))
        assert str(err.value) == f"nesting deeper than {MAX_NESTING} levels (offset {offset(MAX_NESTING + 1)})"

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_any_depth_is_a_parse_error(self, shape):
        # the reference parser's recursion ran out of stack long before this
        with pytest.raises(ParseError, match="^nesting deeper than"):
            parse(DEEP_SHAPES[shape][0](20_000))

    def test_a_chain_counts_its_operators_above_its_first_operand(self):
        # 50 parentheses, then 50 additions over the first x
        assert parse("(" * 50 + "x" + "+x" * 50 + ")" * 50)
        with pytest.raises(ParseError, match=r"^nesting deeper than 100 levels \(offset 151\)$"):
            parse("(" * 50 + "x" + "+x" * 51 + ")" * 50)

    def test_nested_chains_add_up(self):
        # each group holds a chain of 4 additions: 5 levels per group
        text = "x"
        for _ in range(20):
            text = "(" + text + "+x" * 4 + ")"
        assert parse(text) == reference_parse(text)
        with pytest.raises(ParseError, match="^nesting deeper than"):
            parse(text + "+x")
        with pytest.raises(ParseError, match="^nesting deeper than"):
            parse("(" + text + ")")

    def test_a_power_sits_above_its_base(self):
        # unary minus binds tighter than '^': the 99 minus signs are the base
        assert parse("-" * 99 + "x^2") == Pow(reference_parse("-" * 99 + "x"), Const(2.0))
        with pytest.raises(ParseError, match=r"^nesting deeper than 100 levels \(offset 101\)$"):
            parse("-" * 100 + "x^2")


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_ln_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("exp(x)/x"), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), -4.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^-1"), 0.0)

    def test_negative_base_non_integer_exponent(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), -1.0)

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("x^3"), -2.0) == -8.0
        assert evaluate(parse("x^2.0"), -3.0) == 9.0

    def test_variable_exponent(self):
        assert evaluate(parse("x^x"), 2.0) == pytest.approx(4.0, rel=1e-15)
        with pytest.raises(DomainError):
            evaluate(parse("x^x"), -1.0)

    def test_abs_and_sqrt(self):
        assert evaluate(parse("abs(x)"), -3.5) == 3.5
        assert evaluate(parse("sqrt(x)"), 0.0) == 0.0

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_periodic_of_infinite_argument(self, name):
        # math.sin and math.cos raise a bare "math domain error" there
        with pytest.raises(DomainError, match=rf"^{name} of infinite argument -inf$"):
            evaluate(parse(f"{name}(x*1e300)"), -1e300)


class TestJet2:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("x^3", 2.0, (8.0, 12.0, 12.0)),
            ("exp(2*x)", 0.0, (1.0, 2.0, 4.0)),
            ("sin(x)", 0.0, (0.0, 1.0, 0.0)),
            ("x^1", 0.0, (0.0, 1.0, 0.0)),
            ("x^2", 0.0, (0.0, 0.0, 2.0)),
        ],
    )
    def test_exact_jets(self, text, x, expected):
        jet = evaluate_jet2(parse(text), x)
        assert (jet.v, jet.d1, jet.d2) == pytest.approx(expected, abs=1e-15)

    def test_ln_jet(self):
        jet = evaluate_jet2(parse("ln(x)"), 2.0)
        assert jet.v == pytest.approx(math.log(2.0), rel=1e-15)
        assert jet.d1 == pytest.approx(0.5, rel=1e-15)
        assert jet.d2 == pytest.approx(-0.25, rel=1e-15)

    def test_sqrt_jet(self):
        jet = evaluate_jet2(parse("sqrt(x)"), 4.0)
        assert (jet.v, jet.d1, jet.d2) == pytest.approx((2.0, 0.25, -1.0 / 32.0), rel=1e-15)

    def test_cosh_like_jet(self):
        jet = evaluate_jet2(parse("(exp(x)+exp(-x))/2"), 0.0)
        assert (jet.v, jet.d1, jet.d2) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)

    def test_quotient_jet(self):
        jet = evaluate_jet2(parse("1/x"), 2.0)
        assert (jet.v, jet.d1, jet.d2) == pytest.approx((0.5, -0.25, 0.25), rel=1e-15)

    def test_abs_jet_away_from_kink(self):
        jet = evaluate_jet2(parse("abs(x)"), -3.0)
        assert (jet.v, jet.d1, jet.d2) == (3.0, -1.0, 0.0)

    def test_abs_at_kink_raises(self):
        with pytest.raises(NonSmoothError):
            evaluate_jet2(parse("abs(x)"), 0.0)

    def test_sqrt_at_zero_raises(self):
        with pytest.raises(NonSmoothError):
            evaluate_jet2(parse("sqrt(x)"), 0.0)

    def test_fractional_power_at_zero_raises(self):
        with pytest.raises(NonSmoothError):
            evaluate_jet2(parse("x^1.5"), 0.0)

    def test_fractional_power_above_two_at_zero(self):
        jet = evaluate_jet2(parse("x^2.5"), 0.0)
        assert (jet.v, jet.d1, jet.d2) == (0.0, 0.0, 0.0)

    def test_zero_base_negative_exponent_raises(self):
        with pytest.raises(DomainError):
            evaluate_jet2(parse("x^-2"), 0.0)

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_periodic_of_infinite_argument_raises(self, name):
        with pytest.raises(DomainError, match=rf"^{name} of infinite argument inf$"):
            evaluate_jet2(parse(f"{name}(x*1e300)"), 1e300)

    def test_variable_exponent_jet(self):
        # x^x: f'' = x^x ((ln x + 1)^2 + 1/x)
        jet = evaluate_jet2(parse("x^x"), 2.0)
        expected = 4.0 * ((math.log(2.0) + 1.0) ** 2 + 0.5)
        assert jet.d2 == pytest.approx(expected, rel=1e-14)


class TestConsistencyProperties:
    def test_value_matches_evaluate_bitwise(self):
        rng = random.Random(20260810)
        for entry in corpus_entries():
            e = parse(entry.expression)
            a, b = entry.interval.a, entry.interval.b
            for _ in range(100):
                x = rng.uniform(a + 1e-9, b - 1e-9)
                assert evaluate_jet2(e, x).v == evaluate(e, x)

    def test_second_derivative_matches_finite_differences(self):
        rng = random.Random(99173)
        h = 1e-4
        for entry in corpus_entries():
            e = parse(entry.expression)
            a, b = entry.interval.a, entry.interval.b
            for _ in range(100):
                x = rng.uniform(a + 2.0 * h, b - 2.0 * h)
                d2 = evaluate_jet2(e, x).d2
                fd = second_derivative_fd(lambda t: evaluate(e, t), x, h)
                assert abs(d2 - fd) / max(1.0, abs(d2)) <= 1e-6

    def test_corpus_round_trip(self):
        for entry in corpus_entries():
            ast = parse(entry.expression)
            assert parse(to_text(ast)) == ast


def _ast_strategy():
    # abs() keeps -0.0 out: its repr would re-parse as a Neg node
    leaves = st.one_of(
        st.builds(Const, st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False).map(abs)),
        st.just(Var()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, children),
            st.builds(Call, st.sampled_from(("sin", "cos", "exp", "ln", "sqrt", "abs")), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=examples(200), deadline=None)
@given(_ast_strategy())
def test_print_parse_round_trip(ast):
    assert parse(to_text(ast)) == ast


# The grammar's tokens and the characters of its quirks, among any Unicode
# characters. At most MAX_NESTING characters, so no text nests too deep:
# every level takes a token.
_PARSE_PIECES = st.one_of(
    st.sampled_from([*"x0123456789.eE+-*/^() \t\r\n_", "sin", "cos", "exp", "ln", "sqrt", "abs",
                     "y", "٣", "²", "π", "\v"]),
    st.characters(),
)
_PARSE_TEXTS = st.one_of(
    st.lists(_PARSE_PIECES, max_size=MAX_NESTING // 4).map("".join),
    st.text(max_size=MAX_NESTING),
)


def _parsed(parser, text):
    """The AST, or the ParseError's message and offset."""
    try:
        return parser(text)
    except ParseError as exc:
        return (str(exc), exc.offset)


@settings(max_examples=examples(1000), deadline=None)
@given(_PARSE_TEXTS)
def test_parse_agrees_with_the_reference_parser(text):
    try:
        expected = _parsed(reference_parse, text)
    except AttributeError:  # the reference's crash on a non-ASCII letter
        expected = None
    got = _parsed(parse, text)  # any other exception fails the test
    if expected is None:
        assert isinstance(got, tuple), "a ParseError where the reference crashed"
    else:
        assert got == expected


_POINTS = st.one_of(
    # signed zeros, the domain edges of the leaves below, subnormals and overflow
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 5e-324, 1e-300, 710.0, 1e308]),
    st.floats(-20.0, 20.0),
)


def _exponent_strategy(children):
    # literal, constant-expression (Neg, Call) and variable exponents
    literal = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]).map(Const)
    return st.one_of(literal, st.builds(Neg, literal), st.builds(Call, st.just("exp"), literal), children)


def _tree_strategy():
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Const),
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False).map(Const),
        st.just(Var()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, _exponent_strategy(children)),
            st.builds(Call, st.sampled_from(("sin", "cos", "exp", "ln", "sqrt", "abs")), children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _outcome(fn, *args):
    """The floats' bits, or the exception's type and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc), str(exc))
    values = (result.v, result.d1, result.d2) if isinstance(result, Jet2) else (result,)
    return tuple(struct.pack("<d", v) for v in values)


@settings(max_examples=examples(1500), deadline=None)
@given(_tree_strategy(), _POINTS)
def test_compiled_closures_match_the_reference_walkers(ast, x):
    value, jet = compile_expression(ast)
    expected_value = _outcome(reference_evaluate, ast, x)
    assert _outcome(value, x) == expected_value
    assert _outcome(evaluate, ast, x) == expected_value
    expected_jet = _outcome(reference_jet2, ast, x)
    assert _outcome(lambda t: Jet2(*jet(t)), x) == expected_jet
    assert _outcome(evaluate_jet2, ast, x) == expected_jet
