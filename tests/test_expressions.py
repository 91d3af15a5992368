import math
import random
import re
import struct
import sys

import pytest
from hypothesis import example, given, settings
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
    Neg,
    Node,
    Pow,
    Var,
    compile_expression,
)
from conftest import examples
from oracles import DEEP_SHAPES, reference_evaluate, reference_jet2, second_derivative_fd, to_text

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
        assert evaluate_jet2(parse(text), x) == pytest.approx(expected, abs=1e-15)

    def test_ln_jet(self):
        v, d1, d2 = evaluate_jet2(parse("ln(x)"), 2.0)
        assert v == pytest.approx(math.log(2.0), rel=1e-15)
        assert d1 == pytest.approx(0.5, rel=1e-15)
        assert d2 == pytest.approx(-0.25, rel=1e-15)

    def test_sqrt_jet(self):
        assert evaluate_jet2(parse("sqrt(x)"), 4.0) == pytest.approx((2.0, 0.25, -1.0 / 32.0), rel=1e-15)

    def test_cosh_like_jet(self):
        assert evaluate_jet2(parse("(exp(x)+exp(-x))/2"), 0.0) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)

    def test_quotient_jet(self):
        assert evaluate_jet2(parse("1/x"), 2.0) == pytest.approx((0.5, -0.25, 0.25), rel=1e-15)

    def test_abs_jet_away_from_kink(self):
        assert evaluate_jet2(parse("abs(x)"), -3.0) == (3.0, -1.0, 0.0)

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
        assert evaluate_jet2(parse("x^2.5"), 0.0) == (0.0, 0.0, 0.0)

    def test_zero_base_negative_exponent_raises(self):
        with pytest.raises(DomainError):
            evaluate_jet2(parse("x^-2"), 0.0)

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_periodic_of_infinite_argument_raises(self, name):
        with pytest.raises(DomainError, match=rf"^{name} of infinite argument inf$"):
            evaluate_jet2(parse(f"{name}(x*1e300)"), 1e300)

    def test_variable_exponent_jet(self):
        # x^x: f'' = x^x ((ln x + 1)^2 + 1/x)
        d2 = evaluate_jet2(parse("x^x"), 2.0)[2]
        expected = 4.0 * ((math.log(2.0) + 1.0) ** 2 + 0.5)
        assert d2 == pytest.approx(expected, rel=1e-14)


class TestConsistencyProperties:
    def test_value_matches_evaluate_bitwise(self):
        rng = random.Random(20260810)
        for entry in corpus_entries():
            e = parse(entry.expression)
            a, b = entry.interval.a, entry.interval.b
            for _ in range(100):
                x = rng.uniform(a + 1e-9, b - 1e-9)
                assert evaluate_jet2(e, x)[0] == evaluate(e, x)

    def test_second_derivative_matches_finite_differences(self):
        rng = random.Random(99173)
        h = 1e-4
        for entry in corpus_entries():
            e = parse(entry.expression)
            a, b = entry.interval.a, entry.interval.b
            for _ in range(100):
                x = rng.uniform(a + 2.0 * h, b - 2.0 * h)
                d2 = evaluate_jet2(e, x)[2]
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
        # exactly a tuple: every AST node is a named tuple, a tuple subclass
        assert type(got) is tuple, "a ParseError where the reference crashed"
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
    values = result if isinstance(result, tuple) else (result,)
    return tuple(struct.pack("<d", v) for v in values)


@settings(max_examples=examples(1500), deadline=None)
@given(_tree_strategy(), _POINTS)
# each shape whose x or constant the closures read inline, at ordinary points
# and where it raises or goes non-finite: a call and a power of x
@example(parse("sin(x)"), 1.0)
@example(parse("sin(x)"), math.inf)
@example(parse("exp(x)"), 710.0)
@example(parse("ln(x)"), -0.0)
@example(parse("sqrt(x)"), 0.0)
@example(parse("abs(x)"), 0.0)
@example(parse("abs(x)"), -0.0)
@example(parse("x^4"), 1.3)
@example(parse("x^4"), 1e308)
@example(parse("x^1.5"), 0.0)
@example(parse("x^0.5"), -1.0)
@example(Pow(Var(), Const(-1.0)), 0.0)
# -x, x ± c and c ± x
@example(parse("-x"), 0.0)
@example(parse("-x"), -0.0)
@example(parse("x+2"), -2.0)
@example(parse("x-2"), 2.0)
@example(parse("2+x"), -2.0)
@example(parse("2-x"), 2.0)
@example(parse("0-x"), 0.0)
@example(Bin("+", Var(), Const(-0.0)), -0.0)
@example(parse("x+2"), 1e308)
# c * f, f * c, c / f and f / c, where 0 * inf is nan
@example(parse("2*sin(x)"), 1.0)
@example(parse("sin(x)*2"), 1.0)
@example(parse("2*x"), 1e308)
@example(parse("x*2"), 1e308)
@example(parse("0*(x*x)"), 1e308)
@example(parse("(x*x)*0"), 1e308)
@example(parse("0*exp(x)"), 710.0)
@example(parse("1/x"), 0.0)
@example(parse("1/x"), -0.0)
@example(parse("1/(x+2)"), 1.5)
@example(parse("1/(x+2)"), -2.0)
@example(parse("x/0"), 1.0)
@example(parse("(x*x)/2"), 1e308)
@example(parse("exp(x)/3"), 710.0)
@example(parse("exp(x)*sin(x)+1/(x+2)"), 1.3)
# the jet's smoothness checks after the arithmetic's domain checks: sqrt at
# 0, and a zero base through "^c" on an operand that is not x and through
# "^g"; c = 0 returns before the check, c = 2.5 passes it, and c = -0.5 is
# the domain error; the exponent that depends on x, through the power's ln and exp
@example(parse("sqrt(x-1)"), 1.0)
@example(parse("(x-1)^1.5"), 1.0)
@example(parse("x^(1/2)"), 0.0)
@example(parse("x^0"), 0.0)
@example(parse("x^2.5"), 0.0)
@example(Pow(Var(), Const(-0.5)), 0.0)
@example(parse("x^x"), 0.0)
@example(parse("x^x"), -1.0)
@example(parse("2^x"), 1100.0)
def test_compiled_closures_match_the_reference_walkers(ast, x):
    value, jet = compile_expression(ast)
    expected_value = _outcome(reference_evaluate, ast, x)
    assert _outcome(value, x) == expected_value
    assert _outcome(evaluate, ast, x) == expected_value
    expected_jet = _outcome(reference_jet2, ast, x)
    assert _outcome(jet, x) == expected_jet
    assert _outcome(evaluate_jet2, ast, x) == expected_jet


def _frames(f, x):
    """The Python frames that the call f(x) runs, f's own included."""
    frames = []
    sys.setprofile(lambda frame, event, arg: frames.append(frame) if event == "call" else None)
    try:
        f(x)
    finally:
        sys.setprofile(None)
    return len(frames)


@pytest.mark.parametrize(
    "text,value,jet",
    [
        ("exp(x)*sin(x)+1/(x+2)", 7, 8),  # a walk that folds no leaf runs 13 and 15
        ("(exp(x)+exp(-x))/2", 6, 9),  # and 11 and 13
        ("sin(x)", 1, 1),  # a call of x is its rule; sin and cos values need a wrapper
        ("exp(x)", 1, 2),
        ("x^4", 2, 3),
        ("-x", 0, 1),  # operator.neg
        ("2-x", 1, 1),
        ("3*x/2", 4, 4),  # c times the closure of x, then f / c through the checked divide
    ],
)
def test_x_and_constants_are_read_inline(text, value, jet):
    # the closures read x and constants inline instead of calling a closure
    # for each; bit-identical results alone would not show that they do
    v, j = compile_expression(parse(text))
    assert (_frames(v, 1.3), _frames(j, 1.3)) == (value, jet)
