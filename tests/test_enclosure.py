import inspect
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import Interval, corpus_entries, parse
from glbounds.enclosure import (
    _RULES,
    _VALUE_CELL_RULES,
    _Cells,
    _compile_jet,
    _libm,
    _value_walk,
    _walk,
    compile_second_derivative,
    compile_value,
    inf_power,
    sup_power,
)
from glbounds.expressions import (
    _CALLS,
    _JET_RULES,
    _VALUE_RULES,
    Bin,
    Call,
    Const,
    ExpressionError,
    Neg,
    Pow,
    Var,
    _compile_value,
    _jet_compiler,
    compile_expression,
)
from glbounds.expressions import _compile_jet as _float_jet
from glbounds.qclass import DEFAULT_TOL, _cells, _scan_grid
from conftest import examples
from test_expressions import _POINTS, _tree_strategy

_CELLS = st.one_of(
    st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 5.0)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1e-6)),
    st.tuples(st.floats(1e3, 1e8), st.floats(0.0, 1e-3)),
    st.tuples(st.sampled_from([0.0, -0.0, 5e-324, 709.0, 1e300]), st.floats(0.0, 1.0)),
).map(lambda c: (c[0], c[0] + c[1]))


def _exact_parts():
    """Expressions whose interval jet keeps derivative parts as exact floats:
    linear f (constants, x, x*1, 0*x and their sums, differences, negations,
    constant multiples and quotients by a constant), and abs, sqrt and ln of
    one, and a power of one whose exponent is one."""
    const = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 100.0)).map(Const)
    leaves = st.one_of(
        const,
        st.just(Var()),
        st.just(Bin("*", Var(), Const(1.0))),
        st.just(Bin("*", Const(0.0), Var())),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from("+-"), children, children),
            st.builds(Bin, st.just("*"), const, children),
            st.builds(Bin, st.just("/"), children, const),
        )

    linear = st.recursive(leaves, extend, max_leaves=6)
    return st.one_of(
        linear,
        st.builds(Call, st.sampled_from(("abs", "sqrt", "ln")), linear),
        st.builds(Pow, linear, linear),
    )


_EXPRESSIONS = st.one_of(_tree_strategy(), _exact_parts())


def _cell_points(lo, hi, inner):
    """The ends, their neighbours inside the cell, and the drawn points."""
    ends = [lo, hi, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    return [x for x in ends + inner if lo <= x <= hi]


@settings(max_examples=examples(600), deadline=None)
@given(_EXPRESSIONS, _CELLS, st.data())
def test_enclosure_covers_the_float_jet(ast, cell, data):
    lo, hi = cell
    inner = data.draw(st.lists(st.floats(lo, hi), max_size=6))
    value, jet = compile_expression(ast)
    try:
        enclosure = _compile_jet(ast)([cell])[0]
    except Exception:  # declined: the float jet may do anything here
        return
    if enclosure is None:  # declined on the cell
        return
    for x in _cell_points(lo, hi, inner):
        values = jet(x)  # where it raises, the enclosure must have declined
        for v, (e_lo, e_hi) in zip(values, enclosure):
            assert e_lo <= v <= e_hi, (x, values, enclosure)
    [(low, sup)] = compile_second_derivative(ast)([cell])
    assert all(low <= abs(jet(x)[2]) <= sup for x in _cell_points(lo, hi, inner))
    # the value closure computes the jet's value part, so that bounds it too
    [(low_f, sup_f)] = compile_value(ast)([cell])
    assert all(low_f <= value(x) <= sup_f for x in _cell_points(lo, hi, inner))


@settings(max_examples=examples(300), deadline=None)
@given(_EXPRESSIONS, st.lists(_CELLS, min_size=1, max_size=5), st.data())
def test_a_batch_bounds_each_cell_as_alone(ast, cells, data):
    value, jet = compile_expression(ast)
    sup_d2, sup_f = compile_second_derivative(ast), compile_value(ast)
    d2s, fs = sup_d2(cells), sup_f(cells)
    # a cell that declines takes no other cell with it
    assert d2s == [sup_d2([cell])[0] for cell in cells]
    assert fs == [sup_f([cell])[0] for cell in cells]
    for (lo, hi), (low, d2), (f_low, f), ijet in zip(cells, d2s, fs, _compile_jet(ast)(cells), strict=True):
        # one pair (low, high) of |f''| per cell, (0, inf) exactly where the interval jet declines
        assert 0.0 <= low <= d2 and ((low, d2) == (0.0, math.inf)) is (ijet is None)
        # one pair (low, high) of f per cell, both finite or (-inf, inf)
        assert f_low <= f and (f_low == -math.inf) is (f == math.inf)
        if d2 == f == math.inf:
            continue
        # a finite bound: its closure raises nowhere in the cell, and the bound holds
        for x in _cell_points(lo, hi, data.draw(st.lists(st.floats(lo, hi), max_size=4))):
            assert d2 == math.inf or low <= abs(jet(x)[2]) <= d2
            assert f == math.inf or f_low <= value(x) <= f


@settings(max_examples=examples(1500), deadline=None)
@given(_tree_strategy(), _POINTS)
def test_the_value_closure_computes_the_jets_value_part(ast, x):
    # the premise of compile_value: wherever the jet returns, the value
    # closure returns the jet's value part, bit for bit
    value, jet = compile_expression(ast)
    try:
        v = jet(x)[0]
    except ExpressionError:
        return
    assert struct.pack("<d", value(x)) == struct.pack("<d", v)


_WALK_KEYS = {*_CALLS, "apply", "neg", "^c", "^g", "^x", "+", "-", "*", "/"}


class _Reads(dict):
    """A rule table that records the keys read from it."""

    def __init__(self, rules):
        super().__init__(rules)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_cells_run_the_float_jet_rules():
    # one coding of each rule: the float jet's, run over a batch of cells
    for rule in ("sin", "cos", "exp", "ln", "sqrt", "apply", "neg", "^c", "^g", "^x", "+", "-", "*", "/"):
        assert _RULES[rule].__code__ is _JET_RULES[rule].__code__, rule


def test_one_walk_compiles_every_closure():
    # the value closures, the float jets, the cells' jets and the cells'
    # values are instances of one walk
    assert _compile_value.__code__ is _float_jet.__code__ is _walk.__code__ is _value_walk.__code__
    # the cells' values run the value closure's own rules where they test no float
    for rule in ("apply", "neg", "+", "-", "*"):
        assert _VALUE_CELL_RULES[rule] is _VALUE_RULES[rule], rule
    # every node kind and power form: a call of each name, neg, ^c, ^g, ^x, + - * /
    tree = parse("-sin(x) + cos(x)^2 - exp(x)^(1+1) * ln(x)^x / sqrt(abs(x))")
    instances = (
        (_compile_value, _VALUE_RULES),
        (_float_jet, _JET_RULES),
        (_walk, _RULES),
        (_value_walk, _VALUE_CELL_RULES),
    )
    for walk, rules in instances:
        assert None not in rules.values()
        # the instance's table, constant and x, rebuilt with a table that records its reads
        bound = inspect.getclosurevars(walk).nonlocals
        assert bound["rules"] is rules
        reads = _Reads(rules)
        _jet_compiler(reads, bound["const"], bound["var"])(tree)
        assert reads.read == set(rules) == _WALK_KEYS


@pytest.mark.parametrize(
    "text,lo,hi",
    [
        ("1/x", -1.0, 1.0),  # a divisor holding 0
        ("1/(x-x)", 1.0, 2.0),
        ("ln(x)", 0.0, 1.0),  # ln or sqrt touching <= 0
        ("sqrt(x)", 0.0, 1.0),
        ("sqrt(x)", -1.0, -0.5),
        ("abs(x)", -1.0, 1.0),  # abs holding 0
        ("x^0.5", 0.0, 1.0),  # non-integer power touching <= 0
        ("x^2.5", -1.0, 1.0),
        ("x^(0-1)", -1.0, 1.0),  # negative integer power holding 0
        ("x^x", 0.0, 1.0),  # a base touching <= 0 under an exponent that depends on x
        ("x^ln(0-1)", 1.0, 2.0),  # an exponent that raises
        ("exp(x)", 700.0, 710.0),  # overflow
        ("exp(exp(x))", 6.0, 7.0),
        ("x^300", 1e2, 1e3),
        ("1e308*x*x", 1.0, 2.0),  # a non-finite end
        # the cell declines as a whole, though the failing part feeds no bound:
        ("x^31", 1e10, 1.0000001e10),  # f overflows, f'' does not
        ("x^(-0.5)", 1.0437212337495636e-149, 1.0437212337495636e-149),  # f'' overflows
        ("ln(x)^0", 0.0, 0.0),  # the power of 0 drops the jet of ln, which raises
    ],
)
def test_declines_where_the_jet_may_raise(text, lo, hi):
    # what cannot be bounded is unbounded, whether at compile time or on the cell
    e = parse(text)
    assert compile_second_derivative(e)([(lo, hi)]) == [(0.0, math.inf)]
    if text != "x^(-0.5)":  # the value closure may raise too (the x^(-0.5) cell: below)
        assert compile_value(e)([(lo, hi)]) == [(-math.inf, math.inf)]


def test_the_value_is_bounded_where_only_the_jet_raises():
    # f'' = 0.75*x^(-2.5) overflows at 1.04e-149, so the jet declines; the
    # value closure raises nothing there, and compile_value bounds it
    x = 1.0437212337495636e-149
    e = parse("x^(-0.5)")
    assert compile_second_derivative(e)([(x, x)]) == [(0.0, math.inf)]
    assert compile_value(e)([(x, x)]) == [(3.0953355848968474e74, 3.0953355848968534e74)]
    assert _compile_value(e)(x) == 3.0953355848968504e74


@settings(max_examples=examples(600), deadline=None)
@given(_tree_strategy(), st.lists(_CELLS, min_size=1, max_size=4), st.data())
def test_the_value_bound_is_the_jets_value_part(ast, cells, data):
    # where the interval jet does not decline, compile_value is its value
    # part; elsewhere it is (-inf, inf), or bounds the value closure, which
    # then raises nothing in the cell
    value = _compile_value(ast)
    for (lo, hi), jet, (low, sup) in zip(cells, _compile_jet(ast)(cells), compile_value(ast)(cells)):
        if jet is not None:
            assert (low, sup) == jet[0]
        elif sup < math.inf:
            for x in _cell_points(lo, hi, data.draw(st.lists(st.floats(lo, hi), max_size=4))):
                assert low <= value(x) <= sup, (x, low, sup)


@pytest.mark.parametrize(
    "text,top_d2,d2_cap",
    [
        ("2^x", 4.0 * math.log(2.0) ** 2, 1.922),  # |f''| = 2^x ln(2)^2
        ("x^x", 4.0 * ((math.log(2.0) + 1.0) ** 2 + 0.5), 36.02),  # x^x ((ln x + 1)^2 + 1/x)
    ],
    ids=["2^x", "x^x"],
)
def test_exponents_that_depend_on_x_are_bounded(text, top_d2, d2_cap):
    # exp(e * ln b) in interval arithmetic holds the float jet and value on [1, 2];
    # x^x's f'' bound is loose, as e and ln b both vary with x
    e = parse(text)
    value, jet = compile_expression(e)
    [(_, d2)] = compile_second_derivative(e)([(1.0, 2.0)])
    [(f_low, f)] = compile_value(e)([(1.0, 2.0)])
    assert top_d2 <= d2 <= d2_cap and 4.0 <= f <= 4.0 * (1.0 + 1e-14)
    for x in _cell_points(1.0, 2.0, [1.25, 1.5, 1.75]):
        assert abs(jet(x)[2]) <= d2 and f_low <= value(x) <= f


@pytest.mark.parametrize(
    "text,lo,hi,expected",
    [
        ("x^2", -1.0, 1.0, 2.0),
        ("x^3", -1.0, 2.0, 12.0),
        ("sin(x)", 1.5, 1.6, 1.0),  # the maximum pi/2 lies inside
        ("cos(x)", 3.0, 3.2, 1.0),  # the minimum pi lies inside
        ("exp(x)", 0.0, 1.0, math.e),
        ("1/(x+2)", 0.0, 1.0, 0.25),
    ],
)
def test_bounds_are_tight_to_rounding(text, lo, hi, expected):
    [(_, sup)] = compile_second_derivative(parse(text))([(lo, hi)])
    assert expected <= sup <= expected * (1.0 + 1e-12)


@pytest.mark.parametrize("text", ["x", "3*x+2", "x*1", "0*x", "2-x/4", "-(x+x)/3", "0.5*(1-x)"])
def test_a_linear_f_has_an_exact_zero_second_derivative(text):
    # x's jet carries the exact floats 1.0 and 0.0, and a constant's 0.0 and
    # 0.0, so f'' is the float 0 the float jet computes, with no widening
    cells = [(-1.0, 1.0), (0.5, 0.6), (1e8, 1e8 + 1.0), (-3e-323, 3e-323)]
    assert compile_second_derivative(parse(text))(cells) == [(0.0, 0.0)] * len(cells)


def test_zero_times_an_unbounded_x_declines():
    # the float jet of 0*x is NaN at x = inf, so that cell declines, and no other
    cells = [(1.0, math.inf), (1.0, 2.0)]
    assert compile_second_derivative(parse("0*x"))(cells) == [(0.0, math.inf), (0.0, 0.0)]
    assert math.isnan(compile_expression(parse("0*x"))[1](math.inf)[2])


def test_sine_reads_the_libm_maximum_with_no_product_widening():
    # f'' = -sin(x)*1.0*1.0 + cos(x)*0.0: each product with x's exact parts is
    # exact, so |f''| is the enclosure of sin itself, libm's widened range
    assert compile_second_derivative(parse("sin(x)"))([(1.5, 1.6)]) == [_libm(math.sin(1.5), 1.0)]


@pytest.mark.parametrize("part", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "op",
    [
        lambda v, c: v + c,
        lambda v, c: v - c,
        lambda v, c: c - v,
        lambda v, c: v * c,
        lambda v, c: c * v,
        lambda v, c: c / v,
        lambda v, c: v.held(c),
    ],
    ids=["v+c", "v-c", "c-v", "v*c", "c*v", "c/v", "held"],
)
def test_a_float_part_that_is_not_finite_declines_every_cell(part, op):
    v = _Cells([(0.5, 1.0), (1.0, 2.0)], set())
    op(v, part)
    assert v.dead == {0, 1}


@pytest.mark.parametrize(
    "text,lo,hi,expected",
    [
        ("x^2", -1.0, 2.0, (0.0, 4.0)),  # an even power's minimum inside
        ("x^3", -1.0, 2.0, (-1.0, 8.0)),
        ("sin(x)", 1.5, 1.6, (math.sin(1.5), 1.0)),
        ("cos(x)", 3.0, 3.2, (-1.0, math.cos(3.0))),
        ("sin(x)", 0.0, 7.0, (-1.0, 1.0)),
    ],
)
def test_value_enclosures_hold_interior_extremes(text, lo, hi, expected):
    v_lo, v_hi = _compile_jet(parse(text))([(lo, hi)])[0][0]
    assert v_lo <= expected[0] and expected[1] <= v_hi
    assert expected[0] - v_lo <= 1e-12 and v_hi - expected[1] <= 1e-12


def test_sup_power_bounds_every_smaller_base():
    for s, q in [(2.0, 1.0), (0.3, 2.5), (1e-200, 1.7), (3.0, 3.0)]:
        sup = sup_power(s, q)
        assert all(d**q <= sup for d in (s, math.nextafter(s, 0.0), 0.5 * s, 0.0))
        assert sup <= s**q * (1.0 + 1e-12) + 1e-300
    assert sup_power(1e200, 2.0) == math.inf  # overflows
    assert sup_power(math.inf, 1.0) == math.inf


@settings(max_examples=examples(300), deadline=None)
@given(st.floats(5e-324, 1e300), st.floats(1.0, 64.0), st.integers(0, 2**20))
def test_inf_power_bounds_every_larger_base(s, q, k):
    low = inf_power(s, q)
    assert low >= 0.0
    for d in (s, math.nextafter(s, math.inf), s * (1.0 + k * 2.0**-40)):
        try:
            power = d**q
        except OverflowError:  # no float d ** q to bound
            continue
        assert low <= power, d
    try:
        assert low >= s**q * (1.0 - 1e-12) - 1e-300  # tight to libm's error
    except OverflowError:
        assert low == 0.0


@pytest.mark.parametrize(
    "s,q",
    [
        (0.0, 2.0),
        (-0.0, 1.0),
        (-1.0, 1.5),
        (math.nan, 2.0),
        (math.inf, 1.0),
        (1e200, 2.0),  # overflows
        (1e-200, 2.0),  # underflows to 0
        (5e-324, 1.0),  # within the widening of a subnormal
    ],
)
def test_inf_power_is_zero_where_it_cannot_bound(s, q):
    assert inf_power(s, q) == 0.0


@pytest.mark.parametrize(
    "text,lo,hi,low",
    [
        ("x^2", -1.0, 1.0, 2.0),  # a constant f''
        ("sin(x)", 1.5, 1.6, math.sin(1.5)),  # f'' = -sin < 0: the low end is -hi
        ("x^3", 1.0, 2.0, 6.0),  # f'' = 6x > 0: the low end is lo
        ("x^3", -1.0, 2.0, 0.0),  # f'' holds 0
        ("ln(x)", -1.0, 1.0, 0.0),  # declined: (0, inf)
    ],
)
def test_lower_ends_of_the_second_derivative(text, lo, hi, low):
    [(got, _)] = compile_second_derivative(parse(text))([(lo, hi)])
    assert got <= low and low - got <= 1e-12 * low


@settings(max_examples=examples(300), deadline=None)
@given(
    st.one_of(_tree_strategy(), st.sampled_from([parse(entry.expression) for entry in corpus_entries()])),
    st.floats(-20.0, 20.0),
    st.floats(1e-9, 30.0),
)
def test_each_grid_cell_lies_inside_the_hull(ast, a, width):
    # interval arithmetic is inclusion-isotone: on every cell of the grid-64
    # scan, the ends of |f''| lie inside its ends on the one cell that holds
    # them all, so the cells prove whatever the one cell's bound proves
    xs = _scan_grid(Interval(a, a + width), 64, DEFAULT_TOL)
    bound = compile_second_derivative(ast)
    [(low, high)], cells = bound(_cells([xs[0], xs[-1]])), bound(_cells(xs))
    assert all(low <= inf and sup <= high for inf, sup in cells), (low, high, cells)
