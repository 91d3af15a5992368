import inspect
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import parse
from glbounds.enclosure import (
    _RULES,
    _compile_jet,
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
    ExpressionError,
    _compile_value,
    _jet_compiler,
    compile_expression,
)
from glbounds.expressions import _compile_jet as _float_jet
from conftest import examples
from test_expressions import _POINTS, _tree_strategy

_CELLS = st.one_of(
    st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 5.0)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1e-6)),
    st.tuples(st.floats(1e3, 1e8), st.floats(0.0, 1e-3)),
    st.tuples(st.sampled_from([0.0, -0.0, 5e-324, 709.0, 1e300]), st.floats(0.0, 1.0)),
).map(lambda c: (c[0], c[0] + c[1]))


def _cell_points(lo, hi, inner):
    """The ends, their neighbours inside the cell, and the drawn points."""
    ends = [lo, hi, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    return [x for x in ends + inner if lo <= x <= hi]


@settings(max_examples=examples(600), deadline=None)
@given(_tree_strategy(), _CELLS, st.data())
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
    bounds = compile_second_derivative(ast)([cell])
    [low], [sup] = bounds.lows, bounds
    assert all(low <= abs(jet(x)[2]) <= sup for x in _cell_points(lo, hi, inner))
    # the value closure computes the jet's value part, so that bounds it too
    [sup_f] = compile_value(ast)([cell])
    assert all(value(x) <= sup_f for x in _cell_points(lo, hi, inner))


@settings(max_examples=examples(300), deadline=None)
@given(_tree_strategy(), st.lists(_CELLS, min_size=1, max_size=5), st.data())
def test_a_batch_bounds_each_cell_as_alone(ast, cells, data):
    value, jet = compile_expression(ast)
    sup_d2, sup_f = compile_second_derivative(ast), compile_value(ast)
    d2s, fs = sup_d2(cells), sup_f(cells)
    # a cell that declines takes no other cell with it
    assert d2s == [sup_d2([cell])[0] for cell in cells]
    assert fs == [sup_f([cell])[0] for cell in cells]
    for (lo, hi), d2, f in zip(cells, d2s, fs):
        if d2 == f == math.inf:
            continue
        # a finite bound: the jet raises nowhere in the cell, and both bounds hold
        for x in _cell_points(lo, hi, data.draw(st.lists(st.floats(lo, hi), max_size=4))):
            assert abs(jet(x)[2]) <= d2 and value(x) <= f


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
    # the value closures, the float jets and the cells' jets are instances of one walk
    assert _compile_value.__code__ is _float_jet.__code__ is _walk.__code__
    # every node kind and power form: a call of each name, neg, ^c, ^g, ^x, + - * /
    tree = parse("-sin(x) + cos(x)^2 - exp(x)^(1+1) * ln(x)^x / sqrt(abs(x))")
    for walk, rules in ((_compile_value, _VALUE_RULES), (_float_jet, _JET_RULES), (_walk, _RULES)):
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
    assert compile_second_derivative(e)([(lo, hi)]) == compile_value(e)([(lo, hi)]) == [math.inf]


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
    [d2] = compile_second_derivative(e)([(1.0, 2.0)])
    [f] = compile_value(e)([(1.0, 2.0)])
    assert top_d2 <= d2 <= d2_cap and 4.0 <= f <= 4.0 * (1.0 + 1e-14)
    for x in _cell_points(1.0, 2.0, [1.25, 1.5, 1.75]):
        assert abs(jet(x)[2]) <= d2 and value(x) <= f


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
    [sup] = compile_second_derivative(parse(text))([(lo, hi)])
    assert expected <= sup <= expected * (1.0 + 1e-12)


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
    bounds = compile_second_derivative(parse(text))([(lo, hi)])
    [got] = bounds.lows
    assert got <= low and low - got <= 1e-12 * low
