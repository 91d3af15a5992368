import bisect
import math
import sys
from collections import Counter

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import glbounds
import glbounds.qclass
from glbounds import (
    BoundInput,
    ExpectedMembership,
    Interval,
    QClassReport,
    Violation,
    check_expression,
    check_godunova_levin,
    compile_expression,
    corpus_entries,
    evaluate,
    membership_for_bound,
    parse,
    sweep_rows,
)
from glbounds.cli import main
from glbounds.expressions import Bin, Const, DomainError, ExpressionError, NonSmoothError
from glbounds.enclosure import compile_second_derivative, compile_value, sup_power
from glbounds.qclass import (
    DEFAULT_TOL,
    _cell_bounds,
    _cells,
    _decide,
    _hull,
    _PointMemo,
    _q_power,
    _row_keys,
    _row_parts,
    _scan_grid,
    bound_memberships,
    pair_bound_rows,
)
from conftest import examples
from oracles import nonneg_convex_witness, plain_scan, ranked_pairs_eager
from test_expressions import _tree_strategy

SINE_INTERVAL = Interval(0.000001, 3.141592)
EDGE_SINE_WINDOW = Interval(1.8493089598931096, 1.8493095160393422)  # a window of the edge benchmark
UNIT_IV = Interval(0.0, 1.0)
COMPOSITE = "exp(x)*sin(x)+1/(x+2)"


def reference_scan(g, iv, grid_n=64, tol=1e-12):
    """The plain triple loop: g called at every triple, nothing shared."""
    n = grid_n
    width = iv.width
    xs = [iv.a + width * (i + 0.5) / n for i in range(n)]
    lams = [(k + 0.5) / n for k in range(n)]
    gx = [g(x) for x in xs]

    violations = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            rhs = gv / 0.5 + gv / 0.5
            violations.append(Violation(x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    for lam in lams:
        clam = 1.0 - lam
        left = [v / lam for v in gx]
        right = [v / clam for v in gx]
        cy = [clam * y for y in xs]
        for i in range(n):
            base = lam * xs[i]
            li = left[i]
            xi = xs[i]
            for j in range(n):
                lhs = g(base + cy[j])
                rhs = li + right[j]
                m = lhs - rhs
                if m > max_margin:
                    max_margin = m
                if m > tol:
                    violations.append(Violation(xi, xs[j], lam, lhs, rhs))

    unique = sorted(dict.fromkeys(violations), key=lambda v: (v.x, v.y, v.lam))
    return QClassReport(n * n * n, tuple(unique), max_margin, not unique)


def enclosed(e, iv, grid_n, of_value=False):
    """The grid points of the scan of iv at grid_n, and the enclosure's bound
    of |f''| (of f where of_value) on each of their cells, as the scan reads
    it: inf where the enclosure declines."""
    xs = _scan_grid(iv, grid_n, DEFAULT_TOL)
    return xs, _cell_bounds((compile_value if of_value else compile_second_derivative)(e), xs)


def powered(sup, q):
    """The cell bounds of |f''|^q from those of |f''|."""
    return [sup_power(s, q) for s in sup]


def scan_points(iv, grid_n):
    """Every point the scan samples, keyed by float.hex so 0.0 and -0.0 differ."""
    n = grid_n
    xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
    points = {x.hex() for x in xs}
    for k in range(n):
        lam = (k + 0.5) / n
        clam = 1.0 - lam
        points.update((lam * xi + clam * xj).hex() for xi in xs for xj in xs)
    return points


def second_derivative_power(text, q):
    _, jet = compile_expression(parse(text))
    return lambda x: abs(jet(x)[2]) ** q


def value_of(text):
    """x -> f(x), compiled once: the reference scans call it n^3 times."""
    return compile_expression(parse(text))[0]


def same_report(one, two):
    """Bitwise equality, including the sign of a zero max_margin."""
    return one == two and math.copysign(1.0, one.max_margin) == math.copysign(1.0, two.max_margin)


class TestCheck:
    def test_constant_one_passes(self):
        rep = check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), grid_n=16)
        assert rep.passed
        assert rep.violations == ()
        assert rep.samples_checked == 16**3
        # 1 <= 1/lam + 1/(1-lam) always, since 1/(lam(1-lam)) >= 4
        assert rep.max_margin <= -3.0

    def test_square_passes(self):
        rep = check_godunova_levin(lambda x: x * x, Interval(0.0, 1.0), grid_n=16)
        assert rep.passed

    def test_zero_function_passes_with_zero_margin(self):
        rep = check_godunova_levin(lambda x: 0.0, Interval(0.0, 1.0), grid_n=8)
        assert rep.passed
        assert rep.max_margin == 0.0

    def test_sine_fails_with_large_margin(self, membership_report):
        rep = membership_report("sine", 1.0)
        assert not rep.passed
        assert rep.max_margin > 0.5
        worst = max(rep.violations, key=lambda v: v.margin)
        # the worst triple combines both near-endpoint samples through the middle
        assert worst.x < 0.1
        assert worst.y > 3.0
        assert 0.4 < worst.lam < 0.6
        assert worst.lhs > 0.9
        assert worst.rhs < 0.15

    def test_violations_sound_on_reevaluation(self, membership_report):
        rep = membership_report("sine", 1.0)
        e = parse("sin(x)")
        tol = 1e-12
        for v in rep.violations:
            lhs = evaluate(e, v.lam * v.x + (1.0 - v.lam) * v.y)
            rhs = evaluate(e, v.x) / v.lam + evaluate(e, v.y) / (1.0 - v.lam)
            assert lhs > rhs + tol
            assert lhs == v.lhs
            assert rhs == v.rhs

    def test_monotone_refinement_odd_factor(self):
        # midpoint grids nest under odd refinement factors, so every coarse
        # triple reappears bitwise in the fine scan
        g = lambda x: math.sin(x)
        coarse = check_godunova_levin(g, SINE_INTERVAL, grid_n=8)
        fine = check_godunova_levin(g, SINE_INTERVAL, grid_n=24)
        assert not coarse.passed
        coarse_triples = {(v.x, v.y, v.lam) for v in coarse.violations}
        fine_triples = {(v.x, v.y, v.lam) for v in fine.violations}
        assert coarse_triples <= fine_triples

    def test_negative_function_fails(self):
        rep = check_godunova_levin(lambda x: -1.0, Interval(0.0, 1.0), grid_n=8)
        assert not rep.passed
        assert rep.max_margin >= 3.0 - 1e-15

    def test_negative_region_recorded_at_degenerate_triple(self):
        rep = check_godunova_levin(lambda x: x, Interval(-1.0, 1.0), grid_n=8)
        assert not rep.passed
        degenerate = [v for v in rep.violations if v.x == v.y and v.lam == 0.5]
        assert degenerate
        for v in degenerate:
            assert v.lhs < 0.0

    def test_violations_sorted_canonically(self, membership_report):
        rep = membership_report("sine", 1.0)
        keys = [(v.x, v.y, v.lam) for v in rep.violations]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_passed_iff_no_violations(self, membership_report):
        for name, q in [("quadratic", 1.0), ("sine", 1.0)]:
            rep = membership_report(name, q)
            assert rep.passed == (len(rep.violations) == 0)
            if rep.passed:
                assert rep.max_margin <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), grid_n=1)
        with pytest.raises(ValueError):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), tol=0.0)
        # an infinite tolerance would pass every function
        with pytest.raises(ValueError, match="tol must be finite and positive, got inf"):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), tol=math.inf)
        # a bound must give one value per cell: 15 at grid 16
        for count in (7, 16):
            with pytest.raises(ValueError, match=f"bound gave {count} values for the 15 cells of the grid"):
                check_godunova_levin(lambda x: 1.0, UNIT_IV, 16, bound=lambda cells: [1.0] * count)

    def test_nan_cell_bounds_count_as_inf(self):
        # a NaN bound would fail every comparison, and drop its pairs from the
        # ranking: the failing sine scan would pass with no violation
        g = _q_power(parse("sin(x)"), 1.0)
        ref = reference_scan(g, SINE_INTERVAL)
        assert len(ref.violations) == 3520
        for nan_at in (lambda k: True, lambda k: k % 2 == 0):
            calls = []

            def bound(cells):
                calls.append(len(cells))
                return [math.nan if nan_at(k) else 1.0 for k in range(len(cells))]

            rep = check_godunova_levin(g, SINE_INTERVAL, bound=bound)
            assert calls == [63]  # called once, on the 63 cells of grid 64
            assert same_report(rep, ref)

    def test_rejects_grid_points_past_the_float_range(self):
        # iv.a + width*(i + 0.5)/n: width*(n - 0.5) overflows at grid 8 once
        # the width passes 1.797e308/7.5, about 2.4e307
        assert check_godunova_levin(lambda x: 1.0, Interval(0.0, 2.3e307), 8).passed
        msg = r"the 8 grid points of \[0\.0, 2\.4e\+307\] overflow the float range"
        with pytest.raises(ValueError, match=msg):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 2.4e307), 8)
        with pytest.raises(ValueError, match="the 64 grid points"):
            membership_for_bound(parse("x^2"), Interval(-1e307, 1e307), 1.0)


class TestViolation:
    """A Violation is a tuple of five floats with a margin, and keeps the
    surface the dataclass it replaced had."""

    def test_fields_and_margin(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert Violation._fields == ("x", "y", "lam", "lhs", "rhs")
        assert (v.x, v.y, v.lam, v.lhs, v.rhs) == (0.25, 0.75, 0.5, 3.0, 1.25)
        assert v.margin == 1.75
        assert Violation(0.0, 0.0, 0.5, 1.0, -math.inf).margin == math.inf

    def test_repr_is_the_dataclass_one(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert repr(v) == "Violation(x=0.25, y=0.75, lam=0.5, lhs=3.0, rhs=1.25)"

    def test_equality_and_hashing(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        same = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert v == same and hash(v) == hash(same) and len({v, same}) == 1
        assert v != Violation(0.75, 0.25, 0.5, 3.0, 1.25)
        # a tuple: it unpacks, orders and compares as the plain 5-tuple does
        assert tuple(v) == (0.25, 0.75, 0.5, 3.0, 1.25) and v == (0.25, 0.75, 0.5, 3.0, 1.25)
        assert v < Violation(0.25, 0.75, 0.625, 0.0, 0.0)
        with pytest.raises(AttributeError):
            v.x = 1.0


class TestValidatingTypes:
    """Interval and BoundInput validate in a __new__ on a subclass of a named
    tuple, and keep the surface of the dataclasses they replaced: the repr
    that error messages quote, and no attribute to assign."""

    @pytest.mark.parametrize(
        "value,text",
        [
            (Interval(-2.5, 3.0), "Interval(a=-2.5, b=3.0)"),
            (Interval(-0.0, 5e-324), "Interval(a=-0.0, b=5e-324)"),  # the sign of 0 and a subnormal kept
            (
                BoundInput(Interval(0.0, 1.0), 0.25, 2.0, 1.0, 0.0),
                "BoundInput(iv=Interval(a=0.0, b=1.0), lam=0.25, q=2.0, g_a=1.0, g_b=0.0)",
            ),
        ],
    )
    def test_repr_names_every_field(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize(
        "value,field",
        [
            (Interval(0.0, 1.0), "a"),
            (BoundInput(Interval(0.0, 1.0), 0.5, 1.0, 1.0, 1.0), "lam"),
            (BoundInput(Interval(0.0, 1.0), 0.5, 1.0, 1.0, 1.0), "q"),
        ],
    )
    def test_immutable(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.75)
        with pytest.raises(AttributeError):
            value.extra = 1.0  # no __dict__ to put it in

    def test_tuples_that_unpack_compare_and_hash(self):
        a, b = Interval(0.0, 1.0)
        assert (a, b) == (0.0, 1.0)
        assert Interval(0.0, 1.0) == (0.0, 1.0) and hash(Interval(0.0, 1.0)) == hash((0.0, 1.0))


def record_taken(monkeypatch):
    """Make qclass.ranked_pairs hand its pairs (b, i, j) out one at a time, and
    record each pair a walk takes, one list per ranking, in the list returned.
    A walk visits every pair it takes but the one it stops at, whose b is at
    most the tolerance."""
    taken = []
    original = glbounds.qclass.ranked_pairs

    def recorded(*args):
        taken.append([])
        for pair in original(*args):
            taken[-1].append(pair)
            yield pair

    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", recorded)
    return taken


def record_work(monkeypatch):
    """Record the work of every membership decision in the dict returned: the
    number of cells of each enclosure of |f''| ("covers"), the evaluations
    of g = |f''|^q ("points"), the rankings started ("rankings") and the
    rows of pair bounds built ("rows")."""
    work = {"covers": [], "points": 0, "rankings": 0, "rows": 0}
    compile_d2 = glbounds.enclosure.compile_second_derivative
    q_power = glbounds.qclass._q_power
    rank, build = glbounds.qclass.ranked_pairs, glbounds.qclass._bound_row

    def counted_compile(e):
        bound = compile_d2(e)

        def each(cells):
            work["covers"].append(len(cells))
            return bound(cells)

        return each

    def counted_q_power(e, q):
        g = q_power(e, q)

        def counted(x):
            work["points"] += 1
            return g(x)

        return counted

    def counted_rank(*args):
        work["rankings"] += 1
        return rank(*args)

    def counted_build(*args):
        work["rows"] += 1
        return build(*args)

    monkeypatch.setattr(glbounds.enclosure, "compile_second_derivative", counted_compile)
    monkeypatch.setattr(glbounds.qclass, "_q_power", counted_q_power)
    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", counted_rank)
    monkeypatch.setattr(glbounds.qclass, "_bound_row", counted_build)
    return work


def decision_paths(e, iv, qs):
    """bound_memberships(e, iv, qs), or its error (_outcome), and the path
    that answered each q: "one cell" (the keys of the two ends of |f''| on
    the one cell that holds the grid, with no g evaluated), "grid values"
    (the keys of g at the grid points under that cell's bound), "cells"
    (_decide on the cells of the grid, which passes) or "violation"
    (_decide, which fails); ["error"] where it raises."""
    decide, q_power = glbounds.qclass._decide, glbounds.qclass._q_power
    decided, evaluated = {}, set()

    def recorded(e, q, *args):
        decided[q] = decide(e, q, *args)
        return decided[q]

    def built(e, q):
        evaluated.add(q)
        return q_power(e, q)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(glbounds.qclass, "_decide", recorded)
        m.setattr(glbounds.qclass, "_q_power", built)
        outcome = _outcome(lambda: bound_memberships(e, iv, qs))
    if not isinstance(outcome, dict):
        return outcome, ["error"]
    paths = [
        "one cell" if q not in evaluated else "grid values" if q not in decided else "cells" if decided[q] else "violation"
        for q in outcome
    ]
    return outcome, paths


def pruned_and_unpruned(text, iv, grid_n=64, q=None):
    """g, and the scan of it with no bound and with its enclosure: g = f for q None
    (qclass --g, check_expression), else |f''|^q (qclass --fn,
    membership_for_bound). Asserts that both give the plain loop's outcome
    (oracles.plain_scan), exceptions included."""
    e = parse(text)
    if q is None:
        g = ref_g = value_of(text)
        covered = lambda: check_expression(e, iv, grid_n)
    else:
        g, ref_g = _q_power(e, q), second_derivative_power(text, q)
        covered = lambda: membership_for_bound(e, iv, q, grid_n)
    plain = _outcome(lambda: plain_scan(g, iv, grid_n))
    outcomes = [_outcome(lambda: check_godunova_levin(g, iv, grid_n)), _outcome(covered)]
    assert outcomes == [plain, plain]
    return ref_g, [rep for rep, _ in outcomes]


class TestAgainstPlainLoop:
    """Every scan, with its enclosure and without, is the plain loop's, bit for bit."""

    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("name", [entry.name for entry in corpus_entries()])
    def test_corpus_scans_match(self, membership_report, corpus_by_name, name, q):
        entry = corpus_by_name[name]
        e = parse(entry.expression)
        g = second_derivative_power(entry.expression, q)
        ref = reference_scan(g, entry.interval)
        assert math.inf not in enclosed(e, entry.interval, 64)[1]  # every cell bounded
        assert same_report(membership_report(name, q), ref)
        assert same_report(check_godunova_levin(_q_power(e, q), entry.interval), ref)
        if (name, q) == ("sine", 1.0):
            assert len(ref.violations) == 3520

    @pytest.mark.parametrize(
        "text,iv,grid_n,q",
        [
            (COMPOSITE, Interval(0.123, 0.987), 64, 2.0),
            (COMPOSITE, Interval(0.123, 0.987), 64, None),
            ("sin(x)", Interval(-3.7, 5.2), 64, None),
            ("sin(x)", Interval(0.0, 1e-9), 64, 1.0),
            # grids where only some lams have an exact mirror; odd ones have lam = 1/2
            ("sin(x)", SINE_INTERVAL, 31, None),
            ("sin(x)", SINE_INTERVAL, 101, None),
            ("x*x", Interval(-3.7, 5.2), 100, None),
            ("x^2", Interval(-3.7, 5.2), 128, None),
            ("x^2", Interval(-3.7, 5.2), 256, None),
            (COMPOSITE, Interval(0.123, 0.987), 9, None),
            # g < 0 on half the grid: no pair with a negative end is skipped
            ("x", Interval(-1.0, 1.0), 64, None),
            # g spans +-1e308, so g(x)/lam + g(y)/(1-lam) is inf + -inf, a NaN
            # margin, near lam = 1/2 (998 of the 64^3 triples, 110 of the 31^3)
            ("1e308*sin(x)", Interval(0.1, 6.2), 64, None),
            ("1e308*sin(x)", Interval(0.1, 6.2), 31, None),
            # partial enclosures: inf on the cells holding a pole or a kink
            ("1/x", Interval(-1.0, 1.0), 64, None),
            ("abs(x-0.3)", UNIT_IV, 128, None),
            ("abs(x-0.3)", UNIT_IV, 64, 2.0),
            # an exponent that depends on x, enclosed as exp(x * ln x)
            ("x^x", Interval(0.5, 2.0), 64, None),
        ],
        ids=[
            "composite-fn-q2",
            "composite-g",
            "sin-g-wide",
            "sin-fn-window",
            "sin-31",
            "sin-101",
            "square-100",
            "square-128",
            "square-256",
            "composite-9",
            "identity-negative",
            "nan-margins-64",
            "nan-margins-31",
            "pole-g",
            "kink-g-128",
            "kink-fn-q2",
            "power-of-x-g",
        ],
    )
    def test_other_scans_match(self, text, iv, grid_n, q):
        g, reports = pruned_and_unpruned(text, iv, grid_n, q)
        ref = reference_scan(g, iv, grid_n)
        assert all(same_report(rep, ref) for rep in reports)

    def test_pairs_with_a_negative_end_are_kept(self, monkeypatch):
        taken = record_taken(monkeypatch)
        check_expression(parse("x"), Interval(-1.0, 1.0))
        [pairs] = taken
        negative = range(32)  # g = x < 0 at the first half of the grid
        # such a pair has b = inf, so the walk visits it rather than stop there
        assert {(i, j) for i in negative for j in range(i, 64)} <= {(i, j) for _, i, j in pairs}
        assert all(b == math.inf for b, i, _ in pairs if i in negative)
        assert len(pairs) < 64 * 65 // 2  # and the walk stopped before its last pair

    @pytest.mark.parametrize(
        "grid_n,mirrored", [(64, 64), (128, 128), (31, 8), (100, 34), (101, 30), (9, 2)]
    )
    def test_exact_mirror_counts(self, grid_n, mirrored):
        # the grids above cover all, some and (with lam = 1/2) odd mirror cases
        n = grid_n
        lams = [(k + 0.5) / n for k in range(n)]
        exact = [
            k
            for k in range(n)
            if k != n - 1 - k and 1.0 - lams[k] == lams[n - 1 - k] and 1.0 - lams[n - 1 - k] == lams[k]
        ]
        assert len(exact) == mirrored

    def test_signed_zeros_kept_apart(self):
        # on this window both 0.0 and -0.0 are scan points, and they compare equal
        iv = Interval(-3e-323, 3e-323)
        points = scan_points(iv, 9)
        assert {(0.0).hex(), (-0.0).hex()} <= points
        g = lambda x: 2.0 + math.copysign(1.0, x)
        assert same_report(check_godunova_levin(g, iv, grid_n=9), reference_scan(g, iv, grid_n=9))

    def test_signed_zero_maximum_keeps_the_visit_order(self):
        # All margins are <= 0. The first zero margins share the mirrored lam
        # (k = 3 of 23): (x_p, x_q, lam) gives -0.0 - 0.0 = -0.0, while
        # (x_q, x_p, lam) gives 0.0 - 0.0 = 0.0. The lam visits the first of
        # them first, its mirror the second, and the plain loop keeps -0.0.
        iv, n, k, p, q = Interval(1.1, 1.3), 23, 3, 9, 20
        xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
        lam, mirror = (k + 0.5) / n, (n - 1 - k + 0.5) / n
        assert 1.0 - lam == mirror and 1.0 - mirror == lam
        values = dict.fromkeys(scan_points(iv, n), -1.0)
        values.update((x.hex(), 1.0) for x in xs)
        values[xs[p].hex()] = values[xs[q].hex()] = 0.0
        values[(lam * xs[p] + (1.0 - lam) * xs[q]).hex()] = -0.0
        values[(lam * xs[q] + (1.0 - lam) * xs[p]).hex()] = 0.0
        g = lambda x: values[x.hex()]
        ref = reference_scan(g, iv, n)
        assert ref.max_margin == 0.0 and math.copysign(1.0, ref.max_margin) == -1.0
        assert same_report(check_godunova_levin(g, iv, n), ref)

    def test_covered_signed_zero_maximum_keeps_the_visit_order(self):
        # The zeros of the test above, and one more, 0.0, at (x_r, x_t, lam')
        # with lam' (k' = 4) after lam: g there is the right side, 1/lam' +
        # 1/(1-lam'). The bound of g is 10 on the one cell holding that
        # point and by 1 elsewhere, so the walk visits the pair (r, t) before
        # (p, q) and meets 0.0 first; the plain loop still keeps -0.0.
        iv, n, k, p, q, k2, r, t = Interval(1.1, 1.3), 23, 3, 9, 20, 4, 2, 3
        xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
        lam, lam2 = (k + 0.5) / n, (k2 + 0.5) / n
        values = dict.fromkeys(scan_points(iv, n), -1.0)
        values.update((x.hex(), 1.0) for x in xs)
        values[xs[p].hex()] = values[xs[q].hex()] = 0.0
        values[(lam * xs[p] + (1.0 - lam) * xs[q]).hex()] = -0.0
        values[(lam * xs[q] + (1.0 - lam) * xs[p]).hex()] = 0.0
        z = lam2 * xs[r] + (1.0 - lam2) * xs[t]
        values[z.hex()] = 1.0 / lam2 + 1.0 / (1.0 - lam2)
        g = lambda x: values[x.hex()]
        bound = lambda cells: [10.0 if lo <= z <= hi else 1.0 for lo, hi in cells]
        sup = _cell_bounds(bound, xs)
        assert sup.count(10.0) == 1
        rows = list(pair_bound_rows([g(x) for x in xs], sup))
        assert rows[r][t - r] > rows[p][q - p]
        ref = reference_scan(g, iv, n)
        assert ref.max_margin == 0.0 and math.copysign(1.0, ref.max_margin) == -1.0
        assert same_report(check_godunova_levin(g, iv, n, bound=bound), ref)

    def test_sine_violations_come_in_mirror_pairs(self, membership_report):
        # at grid 64 every lam has an exact mirror, and (y, x, 1 - lam) is
        # the same inequality as (x, y, lam), with the same sides
        violations = membership_report("sine", 1.0).violations
        mirrored = {Violation(v.y, v.x, 1.0 - v.lam, v.lhs, v.rhs) for v in violations}
        assert mirrored == set(violations)
        assert any(v.lam < 0.5 for v in violations) and any(v.lam > 0.5 for v in violations)

    @pytest.mark.parametrize(
        "iv,grid_n",
        [(SINE_INTERVAL, 64), (Interval(-1.0, 1.0), 64), (Interval(-3.7, 5.2), 31), (Interval(-3e-323, 3e-323), 9)],
    )
    def test_g_called_once_per_distinct_point(self, iv, grid_n):
        seen = Counter()

        def g(x):
            seen[x.hex()] += 1
            return math.sin(x) ** 2

        check_godunova_levin(g, iv, grid_n)
        assert set(seen) == scan_points(iv, grid_n)
        assert set(seen.values()) == {1}
        # far fewer calls than the grid_n^3 triples
        assert len(seen) <= 10 * grid_n * grid_n


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raises_naming_the_point(self, bad):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ValueError, match=r"not finite at x=0\.5625"):
            check_godunova_levin(lambda x: bad if x == 0.5625 else 1.0, iv, grid_n=8)

    def test_cancelled_overflow_is_rejected(self):
        # inf - inf is nan at every point: the scan used to report passed = True
        e = parse("(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)")
        with pytest.raises(ValueError, match=r"not finite at x=0\.53125"):
            check_godunova_levin(lambda x: evaluate(e, x), Interval(0.5, 1.0), grid_n=8)

    def test_membership_for_bound_rejects_overflowing_power(self):
        # |f''| of exp near 300 is about 2e130, and its cube passes 1.8e308
        with pytest.raises(ValueError, match=r"overflows at x=300\.125: \|f''\| = 2\.2\d*e\+130, q = 3\.0"):
            membership_for_bound(parse("exp(x)"), Interval(300.0, 301.0), 3.0, grid_n=4)

    def test_membership_for_bound_rejects_nan_second_derivative(self):
        e = parse("(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)")
        with pytest.raises(ValueError, match="not finite"):
            membership_for_bound(e, Interval(0.5, 1.0), 1.0, grid_n=8)

    def test_an_error_off_the_grid_is_the_first_in_lam_major_order(self, capsys):
        # g is finite at every grid point and raises at scan points near c:
        # the walk alone would meet -4.997523459242999e-05 first
        text = "sqrt((x-0.5393847733123374)^2-5e-05)"
        argv = ["qclass", "--g", text, "--a", "0", "--b", "1", "--grid", "31"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: sqrt of negative value -6.355248700360323e-06\n")
        plain = _outcome(lambda: plain_scan(value_of(text), UNIT_IV, 31))
        assert plain == (DomainError, "sqrt of negative value -6.355248700360323e-06")


class TestMembershipForBound:
    def test_exp_squared_passes(self):
        rep = membership_for_bound(parse("exp(x)"), Interval(0.0, 1.0), 2.0, grid_n=16)
        assert rep.passed

    def test_quartic_passes(self):
        rep = membership_for_bound(parse("x^4"), Interval(0.0, 1.0), 1.0, grid_n=16)
        assert rep.passed

    def test_negated_sine_second_derivative_fails(self):
        # f = -sin(x) has |f''| = sin, the known counterexample
        rep = membership_for_bound(parse("-sin(x)"), SINE_INTERVAL, 1.0, grid_n=16)
        assert not rep.passed

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            membership_for_bound(parse("x^2"), Interval(0.0, 1.0), 0.5)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_q_that_is_not_finite(self, q, monkeypatch):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            membership_for_bound(parse("sin(x)"), SINE_INTERVAL, q)


def _counting_compile(monkeypatch, counters):
    """Make every jet compiled in qclass count its calls per point (by float.hex),
    one Counter per compiled jet, appended to counters."""
    original = glbounds.qclass._compile_jet

    def compile_counting(e):
        jet = original(e)
        seen = Counter()
        counters.append(seen)

        def counted(x):
            seen[x.hex()] += 1
            return jet(x)

        return counted

    monkeypatch.setattr(glbounds.qclass, "_compile_jet", compile_counting)


class TestSweepSharesSecondDerivative:
    """A sweep decides every q from one enclosure of |f''|, proof or pruned scan."""

    def test_covered_scans_skip_points(self, monkeypatch):
        counters = []
        _counting_compile(monkeypatch, counters)
        rows = sweep_rows(parse(COMPOSITE), Interval(0.0, 3.0), [0.0, 0.5, 1.0], (1.0, 2.0, 3.0))
        assert len(rows) == 9
        # each proof and each scan evaluates |f''| once per distinct point it visits
        assert counters and all(set(seen.values()) == {1} for seen in counters)
        assert set().union(*counters) < scan_points(Interval(0.0, 3.0), 64)

    # each sweep's first error, pinned byte for byte: every bound comes first,
    # then int_a^b f, then each q's proof or scan in turn
    @pytest.mark.parametrize(
        "fn,a,b,err",
        [
            # a scan point lands on the pole
            ("1/(x-0.5)", "0", "1", "error: division by zero at x=0.5\n"),
            # |f''|^3 overflows, |f''| does not
            ("exp(x)", "300", "301",
             "error: |f''(x)|^q overflows at x=300.0078125: |f''| = 1.9576610342755035e+130, q = 3.0\n"),
            # non-smooth at the scan point 11/128
            ("abs(x-0.0859375)", "0", "1", "error: abs is not differentiable where its argument is 0\n"),
        ],
        ids=["1/(x-0.5)-0-1", "exp(x)-300-301", "abs(x-0.0859375)-0-1"],
    )
    def test_first_error_is_unchanged(self, fn, a, b, err, tmp_path, capsys):
        argv = ["sweep", "--fn", fn, "--a", a, "--b", b, "--lambda-grid", "0:1:0.5", "--q", "1,2,3",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)


def _window(a, width):
    return (a, a + width)


_PROOF_ENDS = st.one_of(
    st.sampled_from([(entry.interval.a, entry.interval.b) for entry in corpus_entries()]),
    st.builds(_window, st.floats(0.0, 3.0), st.floats(1e-9, 1e-6)),
    st.builds(_window, st.floats(1e3, 1e8), st.floats(1e-6, 1.0)),
)


def _scans(e, iv, qs):
    """What bound_memberships(e, iv, qs) must give: each q's scan passed, or
    the first error."""
    return _outcome(lambda: {q: membership_for_bound(e, iv, q).passed for q in qs})


class TestProof:
    """bound_memberships answers every input as the scans do, errors included,
    and runs no scan."""

    @settings(max_examples=examples(100), deadline=None)  # about 60 ms per scanned example
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.floats(1.0, 3.0),
    )
    def test_a_proof_implies_the_scan_passes(self, e, ends, q):
        """A decision, True or False, is the scan's passed, and an error the
        decision raises is the scan's. Where the one cell's two ends of |f''|
        prove q, the keys of g at the grid points under its bound pass too."""
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        decided, [path] = decision_paths(e, iv, (q,))
        event(f"path: {path}")
        assert decided == _scans(e, iv, (q,))
        if path == "one cell":
            xs = _scan_grid(iv, 64, DEFAULT_TOL)
            [hull] = compile_second_derivative(e)([_hull(xs)])
            gx = list(map(_q_power(e, q), xs))
            assert all(key <= DEFAULT_TOL for key in _row_keys(*_row_parts(gx, [sup_power(hull, q)] * 63)))

    @pytest.mark.parametrize(
        "text,iv,q,path",
        [
            ("sin(x)", EDGE_SINE_WINDOW, 1.34, "one cell"),  # the keys of the cell's two ends are at most the tolerance
            ("exp(x)", UNIT_IV, 2.0, "cells"),  # e^2 > 4: the one cell fails the ratio lemma's factor 4
            ("sin(x)", SINE_INTERVAL, 1.0, "violation"),
            ("(exp(x)+exp(-x))/2", Interval(-1.0, 1.0), 1.2, "grid values"),  # cosh: its cell is too wide for its ends
        ],
    )
    def test_each_path_answers_as_the_scan(self, text, iv, q, path):
        e = parse(text)
        assert decision_paths(e, iv, (q,)) == (_scans(e, iv, (q,)), [path])

    @pytest.mark.parametrize(
        "text,iv,qs",
        [("sin(x)", EDGE_SINE_WINDOW, (1.34,)), ("x^2", UNIT_IV, (1.0, 3.0))],
    )
    def test_one_cell_proves_with_no_pair_row(self, monkeypatch, text, iv, qs):
        """A proof on the one cell that holds the grid encloses |f''| once, on
        that cell, and evaluates no g, ranks no pair and builds no row of pair
        bounds."""
        work = record_work(monkeypatch)
        assert bound_memberships(parse(text), iv, qs) == dict.fromkeys(qs, True)
        assert work == {"covers": [1], "points": 0, "rankings": 0, "rows": 0}

    def test_grid_values_prove_what_the_hull_ends_cannot(self, monkeypatch):
        # interval dependency widens cosh's |f''| to [0.37, 2.7] on the one
        # cell, against the true [1, 1.54]: only g at the 64 grid points
        # proves q = 1.2 under the cell's bound
        work = record_work(monkeypatch)
        assert bound_memberships(parse("(exp(x)+exp(-x))/2"), Interval(-1.0, 1.0), (1.2,)) == {1.2: True}
        assert work == {"covers": [1], "points": 64, "rankings": 0, "rows": 0}

    def test_one_cell_leaves_a_vanishing_g_to_the_cells(self, monkeypatch):
        # |sin| is near 0 at the left end of [0, 1e-9]: the ratio lemma's
        # factor 4 cannot cover the one cell's bound there
        work = record_work(monkeypatch)
        assert bound_memberships(parse("sin(x)"), Interval(0.0, 1e-9), (1.0,)) == {1.0: True}
        assert work["covers"] == [1, 63] and work["rankings"] == 1

    def test_partial_covers_and_errors_are_the_scans(self, monkeypatch):
        # a pole leaves one cell unbounded, where g may raise; the scan fails
        pole, iv = parse("1/x"), Interval(-1.0, 1.0)
        assert math.inf in enclosed(pole, iv, 64)[1]
        assert _outcome(lambda: bound_memberships(pole, iv, (1.0,))) == _scans(pole, iv, (1.0,)) == {1.0: False}
        e = parse("x^2")

        def broken(*args):
            raise RuntimeError("boom")

        def unbounded(cells):
            return [math.inf] * len(cells)

        def same(e, iv, qs):
            decided = _outcome(lambda: bound_memberships(e, iv, qs))
            assert decided == _scans(e, iv, qs)
            return decided

        assert same(e, UNIT_IV, (1.0,)) == {1.0: True}
        # a jet that is not f's own has no enclosure: with the enclosure
        # declining on every cell, g is evaluated, and raises as in the scan
        with monkeypatch.context() as m:
            m.setattr(glbounds.enclosure, "compile_second_derivative", lambda e: unbounded)
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: broken)
            assert same(e, UNIT_IV, (1.0,)) == (RuntimeError, "boom")
        with monkeypatch.context() as m:
            m.setattr(glbounds.enclosure, "compile_second_derivative", lambda e: unbounded)
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: lambda x: (0.0, 0.0, math.inf))
            assert same(e, UNIT_IV, (1.0,)) == (ValueError, "g is not finite at x=0.0078125: inf")
        # sine's decision visits pairs above the tolerance; a jet that raises
        # off the grid points raises the scan's error there, rather than
        # answering False at the first violation
        sine = parse("sin(x)")
        assert same(sine, SINE_INTERVAL, (1.0,)) == {1.0: False}
        _, jet = compile_expression(sine)
        grid = set(_scan_grid(SINE_INTERVAL, 64, DEFAULT_TOL))
        with monkeypatch.context() as m:
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: lambda x: jet(x) if x in grid else broken())
            assert same(sine, SINE_INTERVAL, (1.0,)) == (RuntimeError, "boom")

    def test_unbounded_pairs_alone_decide_a_kink(self, monkeypatch):
        """|f''| of abs(x-0.3) is 0 wherever it is defined, so only the 855
        pairs that read the kink's unbounded cell are above the tolerance; the
        decision visits those and no other, and passes."""
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse("abs(x-0.3)"), UNIT_IV, (2.0,)) == {2.0: True}
        assert len(taken) == 1 and len(taken[0]) == 855 < 64 * 65 // 2
        assert all(b == math.inf for b, _, _ in taken[0])
        # the kink on a grid point's scan point: the scan's error, with no scan
        with pytest.raises(NonSmoothError, match="^abs is not differentiable where its argument is 0$"):
            bound_memberships(parse("abs(x-0.0859375)"), UNIT_IV, (1.0,))

    def test_a_violation_ends_the_decision_without_a_scan(self, monkeypatch):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        assert bound_memberships(parse("-sin(x)"), SINE_INTERVAL, (1.0,)) == {1.0: False}
        # x^4 keeps one pair above the tolerance at each q, its diagonal at the
        # first grid point, and that pair does not violate
        assert bound_memberships(parse("x^4"), UNIT_IV, (2.0, 3.0)) == {2.0: True, 3.0: True}

    @pytest.mark.parametrize(
        "text,iv,qs",
        [("2^x", UNIT_IV, (1.5,)), ("x^x", Interval(0.5, 2.0), (1.0, 2.0, 3.0))],
    )
    def test_exponents_that_depend_on_x_are_proven_with_no_pair(self, monkeypatch, text, iv, qs):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse(text), iv, qs) == dict.fromkeys(qs, True)
        assert not any(taken)

    # pairs each decision below takes: the composite's hottest pairs straddle
    # the steep rise of |f''|^q near 3 and hold, so its first violation comes
    # at pair 54 (q = 2) and 540 (q = 3)
    PAIRS_TAKEN = {
        ("sin(x)", 1.0): 1,
        ("sin(x)", 2.5): 1,
        (COMPOSITE, 1.0): 7,
        (COMPOSITE, 2.0): 54,
        (COMPOSITE, 3.0): 540,
        ("x^4", 2.0): 1,
    }

    @pytest.mark.parametrize(
        "text,iv,q",
        [
            ("sin(x)", SINE_INTERVAL, 1.0),  # fails at the first hot pair
            ("sin(x)", SINE_INTERVAL, 2.5),
            (COMPOSITE, Interval(0.0, 3.0), 1.0),  # passes
            (COMPOSITE, Interval(0.0, 3.0), 2.0),  # fails deep in the list
            (COMPOSITE, Interval(0.0, 3.0), 3.0),
            ("x^4", UNIT_IV, 2.0),  # one hot pair, which holds
        ],
    )
    def test_a_decision_answers_after_the_pair_that_violates(self, monkeypatch, text, iv, q):
        """The decision is the scan's passed; a False one takes no pair after
        the first that holds a violation of the scan, and each takes the
        pinned number of pairs, hottest first."""
        e = parse(text)
        taken = record_taken(monkeypatch)
        xs, sup = enclosed(e, iv, 64)
        decided = _decide(e, q, xs, sup)
        rep = membership_for_bound(e, iv, q)
        assert decided is rep.passed
        violating = {frozenset((v.x, v.y)) for v in rep.violations}
        holds = [frozenset((xs[i], xs[j])) in violating for _, i, j in taken[0]]
        if decided:
            assert not any(holds)
        else:
            assert holds[-1] and not any(holds[:-1])
        assert len(taken[0]) == self.PAIRS_TAKEN[text, q]

    # the work of passing decisions today, the baseline that ROADMAP open item
    # 4 (decisions that evaluate only what can violate) is expected to lower:
    # the row keys stay above the tolerance on most rows, so each decision
    # builds 45-50 of the 64 rows to take at most 14 pairs, and evaluates g
    # at the 64 grid points and at the points of those pairs (POINTS)
    POINTS = {"x^4": 64, "(exp(x)+exp(-x))/2": 64, COMPOSITE: 843}

    @pytest.mark.parametrize(
        "text,iv,q,rows,pairs",
        [
            ("x^4", UNIT_IV, 2.0, 45, 1),
            ("x^4", UNIT_IV, 3.0, 50, 1),
            ("(exp(x)+exp(-x))/2", Interval(-1.0, 2.0), 2.0, 47, 0),  # cosh
            (COMPOSITE, Interval(0.0, 3.0), 1.2, 48, 14),
        ],
    )
    def test_passing_decisions_build_rows_for_few_pairs(self, monkeypatch, text, iv, q, rows, pairs):
        work = record_work(monkeypatch)
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse(text), iv, (q,)) == {q: True}
        assert work == {"covers": [1, 63], "points": self.POINTS[text], "rankings": 1, "rows": rows}
        assert [len(t) for t in taken] == [pairs]

    def test_a_zero_margin_walks_every_pair(self, monkeypatch):
        """|f''| of abs(x-0.3) is 0 off its kink, so the largest margin, top,
        is 0.0. The 855 pairs that read the kink's cell have b = inf, and
        rounding leaves the other 1,225 a subnormal above 0, so no b falls
        below top and the scan walks all 2,080 pairs: a baseline that
        ROADMAP open item 4 is expected to lower."""
        taken = record_taken(monkeypatch)
        rep = membership_for_bound(parse("abs(x-0.3)"), UNIT_IV, 2.0)
        assert rep.passed and rep.max_margin == 0.0
        [pairs] = taken
        assert len(pairs) == 64 * 65 // 2
        assert Counter(b == math.inf for b, _, _ in pairs) == {True: 855, False: 1225}
        assert all(0.0 < b < sys.float_info.min for b, _, _ in pairs if b < math.inf)

    @pytest.mark.parametrize(
        "text,iv,qs",
        [
            ("x^2", UNIT_IV, (1.0, 2.0)),  # proven
            ("x^4", UNIT_IV, (1.0, 2.0, 3.0)),  # its one hot pair holds at every q
            ("sin(x)", SINE_INTERVAL, (1.0, 2.5)),  # fails at the first hot pair
            (COMPOSITE, Interval(0.0, 3.0), (1.0, 2.0, 3.0)),  # passes, then fails deep in the list
            ("1/x", Interval(-1.0, 1.0), (1.0,)),  # a pole's cell is inf; the scan fails
            ("abs(x-0.3)", UNIT_IV, (1.0, 2.0)),  # a kink's cell is inf; the scan passes
            ("abs(x-0.0859375)", UNIT_IV, (1.0,)),  # the scan raises at the kink
            ("exp(x)", Interval(300.0, 301.0), (1.0, 3.0)),  # decided at q = 1; |f''|^3 overflows in the scan
        ],
    )
    def test_memberships_equal_the_scans(self, text, iv, qs):
        e = parse(text)
        decided = _outcome(lambda: bound_memberships(e, iv, qs))
        scanned = _outcome(lambda: {q: membership_for_bound(e, iv, q).passed for q in qs})
        assert decided == scanned

    def test_a_pole_leaves_only_its_cell_unbounded(self):
        xs, sup = enclosed(parse("1/x"), Interval(-1.0, 1.0), 64)
        unbounded = [k for k, s in enumerate(sup) if s == math.inf]
        assert unbounded == [31]  # cell 31 joins x_31 = -1/64 and x_32 = 1/64
        lo, hi = _cells(xs)[31]
        assert lo < 0.0 < hi

    @pytest.mark.parametrize(
        "iv",
        [
            UNIT_IV,
            Interval(-3.7, 5.2),
            Interval(0.0, 1e-9),
            Interval(1e8, 1e8 + 1e-6),  # grid spacing 1.6e-8 at grid 64, about one ulp and below delta
            Interval(-1e8 - 1e-6, -1e8),
        ],
    )
    def test_cells_hold_every_scan_point(self, iv):
        """At grids 9, 31 and 64: the pair (x_i, x_j), i < j, reads cells i to
        j-1, and some cell of them holds each of its scan points; the diagonal
        pair of x_i reads the smaller bound of cells i-1 and i, and each of
        them holds its points."""
        for n in (9, 31, 64):
            xs = _scan_grid(iv, n, DEFAULT_TOL)
            # cell k is [lows[k], highs[k]]
            lows, highs = map(list, zip(*_cells(xs)))
            assert xs == [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
            assert lows == sorted(lows) and highs == sorted(highs) and len(lows) == n - 1
            for k in range(n):
                lam = (k + 0.5) / n
                clam = 1.0 - lam
                for i, xi in enumerate(xs):
                    for j, xj in enumerate(xs):
                        z = lam * xi + clam * xj
                        lo, hi = min(i, j), max(i, j)
                        if lo == hi:
                            cells = [c for c in (lo - 1, lo) if 0 <= c < n - 1]
                            assert cells and all(lows[c] <= z <= highs[c] for c in cells)
                            continue
                        # of cells lo to hi-1, the last that starts at or below z ends highest
                        c = bisect.bisect_right(lows, z, lo, hi) - 1
                        assert c >= lo and z <= highs[c]

    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.sampled_from([9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_every_scan_margin_is_within_its_pair_bound(self, e, ends, grid_n, q):
        """For g = f (q None) and g = |f''|^q: every float margin the scan
        computes for a pair of grid points is at most the pair's bound. A
        pair with b = inf reads a cell where g may raise, and is skipped."""
        assume(ends[0] < ends[1])
        iv, n = Interval(*ends), grid_n
        xs, sup = enclosed(e, iv, n, of_value=q is None)
        if q is not None:
            sup = powered(sup, q)
        # g at each point, zeros kept by sign, as the scan keeps it
        memo = _PointMemo(compile_expression(e)[0] if q is None else _q_power(e, q))
        try:
            gx = [memo[x] for x in xs]
        except (ExpressionError, ValueError, ArithmeticError):
            return  # the scan raises before it ranks
        bound = list(pair_bound_rows(gx, sup))
        for k in range(n):
            lam = (k + 0.5) / n
            clam = 1.0 - lam
            for i, xi in enumerate(xs):
                for j, xj in enumerate(xs):
                    lo, hi = min(i, j), max(i, j)
                    b = bound[lo][hi - lo]
                    if b < math.inf:
                        m = memo[lam * xi + clam * xj] - (gx[i] / lam + gx[j] / clam)
                        assert not m > b, (xi, xj, lam)

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_quartic_keeps_at_most_one_hot_pair(self, q):
        # |f''|^q = (12x^2)^q rises 9^q-fold from x_0 to x_1, and the one cell
        # x_0 reads reaches x_1, so its diagonal pair may stay above the tolerance
        e = parse("x^4")
        xs, sup = enclosed(e, UNIT_IV, 64)
        gx = [_q_power(e, q)(x) for x in xs]
        hot = sum(b > DEFAULT_TOL for row in pair_bound_rows(gx, powered(sup, q)) for b in row)
        assert hot <= 1


def _outcome(scan):
    """The report with the sign of its max_margin (any other result as it is),
    or the exception's type and message."""
    try:
        rep = scan()
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc), str(exc))
    if isinstance(rep, QClassReport):
        return rep, math.copysign(1.0, rep.max_margin)
    return rep


class TestPruning:
    """An enclosure changes no scan's report or error, and it does skip points."""

    @settings(max_examples=examples(60), deadline=None)
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.sampled_from([9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_a_cover_changes_no_outcome(self, e, ends, grid_n, q):
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        if q is None:  # qclass --g
            g = compile_expression(e)[0]
            pruned = lambda: check_expression(e, iv, grid_n)
        else:  # qclass --fn
            g = _q_power(e, q)
            pruned = lambda: membership_for_bound(e, iv, q, grid_n)
        plain = _outcome(lambda: plain_scan(g, iv, grid_n))
        assert _outcome(pruned) == _outcome(lambda: check_godunova_levin(g, iv, grid_n)) == plain

    @pytest.mark.parametrize(
        "name", [e.name for e in corpus_entries() if e.membership is not ExpectedMembership.EXPECT_FAIL]
    )
    def test_passing_members_skip_points(self, corpus_by_name, name):
        entry = corpus_by_name[name]
        e, iv = parse(entry.expression), entry.interval
        seen = Counter()
        f, _ = compile_expression(e)

        def g(x):
            seen[x.hex()] += 1
            return f(x)

        rep = check_godunova_levin(g, iv, bound=compile_value(e))
        assert rep.passed
        assert len(seen) < len(scan_points(iv, 64))

    def test_a_partial_cover_skips_points(self):
        # abs declines on the one cell holding its kink: the walk visits the
        # pairs that read it, and still stops before most of the rest
        e, n = parse("abs(x-0.3)"), 128
        assert enclosed(e, UNIT_IV, n, of_value=True)[1].count(math.inf) == 1
        seen = Counter()
        f, _ = compile_expression(e)

        def g(x):
            seen[x.hex()] += 1
            return f(x)

        assert check_godunova_levin(g, UNIT_IV, n, bound=compile_value(e)).passed
        assert len(seen) < len(scan_points(UNIT_IV, n))


_RANKED = (
    st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
    _PROOF_ENDS,
    st.sampled_from([2, 9, 31, 64]),
    st.one_of(st.none(), st.floats(1.0, 3.0)),
)


class TestRanking:
    """qclass.ranked_pairs hands out the pairs in the order of the eager sort,
    and sorts only the rows the walk takes a pair from."""

    @staticmethod
    def _ranked(e, iv, grid_n, q):
        """g at the grid points and its cell bounds, for g = f (q None) or
        g = |f''|^q on iv, inf on a cell where the enclosure declines; None
        where g raises at a grid point."""
        xs, sup = enclosed(e, iv, grid_n, of_value=q is None)
        if q is not None:
            sup = powered(sup, q)
        try:
            g = compile_expression(e)[0] if q is None else _q_power(e, q)
            gx = [g(x) for x in xs]
        except (ExpressionError, ValueError, ArithmeticError):
            return None  # the scan raises before it ranks
        return gx, sup

    @classmethod
    def _both(cls, e, iv, grid_n, q, floor):
        """The lazy and the eager ranking of the pairs of _ranked; None where
        g raises at a grid point."""
        ranked = cls._ranked(e, iv, grid_n, q)
        if ranked is None:
            return None
        gx, sup = ranked
        return list(glbounds.qclass.ranked_pairs(gx, sup, floor)), ranked_pairs_eager(gx, sup, floor)

    @settings(max_examples=examples(100), deadline=None)
    @given(*_RANKED, st.sampled_from([-math.inf, DEFAULT_TOL]), st.sampled_from([0.0, 0.5]))
    def test_lazy_order_is_the_eager_sort(self, e, ends, grid_n, q, floor, shift):
        """shift, taken off g = f, gives some examples rows with b = inf."""
        assume(ends[0] < ends[1])
        if q is None and shift:
            e = Bin("-", e, Const(shift))
        both = self._both(e, Interval(*ends), grid_n, q, floor)
        if both is not None:
            lazy, eager = both
            assert lazy == eager
            # ties of b, 0.0 against -0.0 among them, keep the sign the eager sort keeps
            assert [math.copysign(1.0, b) for b, _, _ in lazy] == [math.copysign(1.0, b) for b, _, _ in eager]

    @pytest.mark.parametrize("floor", [-math.inf, DEFAULT_TOL])
    @pytest.mark.parametrize(
        "text,iv,grid_n,q",
        [
            ("x", Interval(-1.0, 1.0), 64, None),  # half the rows have b = inf
            ("x^2-0.25", UNIT_IV, 31, None),  # a negative middle
            ("sin(x)", SINE_INTERVAL, 64, 2.0),
            ("1e308*sin(x)", Interval(0.1, 6.2), 64, None),
            ("1", UNIT_IV, 9, None),  # every pair of a row tied
            (COMPOSITE, Interval(0.0, 3.0), 128, 3.0),
        ],
    )
    def test_lazy_order_on_chosen_rows(self, text, iv, grid_n, q, floor):
        lazy, eager = self._both(parse(text), iv, grid_n, q, floor)
        assert lazy == eager

    @settings(max_examples=examples(100), deadline=None)
    @given(*_RANKED, st.sampled_from([0.0, 0.5]))
    def test_keys_bound_their_rows(self, e, ends, grid_n, q, shift):
        """key_i is at least every b of row i, and inf where some g_j (j >= i)
        is negative; shift, taken off g = f, gives some examples such a g."""
        assume(ends[0] < ends[1])
        if q is None and shift:
            e = Bin("-", e, Const(shift))
        ranked = self._ranked(e, Interval(*ends), grid_n, q)
        if ranked is None:
            return
        gx, sup = ranked
        keys = _row_keys(*_row_parts(gx, sup))
        rows = list(pair_bound_rows(gx, sup))
        assert all(key >= max(row) for key, row in zip(keys, rows))
        assert all(key == math.inf for i, key in enumerate(keys) if any(not v >= 0.0 for v in gx[i:]))

    @pytest.mark.parametrize("floor", [-math.inf, DEFAULT_TOL])
    @pytest.mark.parametrize(
        "text,iv,q",
        [
            ("sin(x)", EDGE_SINE_WINDOW, 1.34),  # every key at most the tolerance
            ("exp(x)", UNIT_IV, 2.0),
            ("sin(x)", SINE_INTERVAL, 1.0),
            ("x^2-0.25", UNIT_IV, None),  # a negative middle
        ],
    )
    def test_lazy_order_under_one_cell(self, text, iv, q, floor):
        """Every cell bound equal, as the one cell that holds the grid gives
        them: the keys of all rows are close, and the order is still the sort's."""
        e = parse(text)
        xs = _scan_grid(iv, 64, DEFAULT_TOL)
        cells = _cells(xs)
        bound = (compile_value if q is None else compile_second_derivative)(e)
        [hull] = bound([(cells[0][0], cells[-1][1])])
        sup = [hull if q is None else sup_power(hull, q)] * len(cells)
        gx = [(compile_expression(e)[0] if q is None else _q_power(e, q))(x) for x in xs]
        assert list(glbounds.qclass.ranked_pairs(gx, sup, floor)) == ranked_pairs_eager(gx, sup, floor)

    def test_a_negative_g_right_of_the_diagonal_keys_its_row_inf(self):
        # 0.25 - x is negative from x_2 = 0.2777... on: every row keys inf, rows
        # 0 and 1 too, though their own g is not negative
        e, iv = parse("0.25-x"), UNIT_IV
        xs, sup = enclosed(e, iv, 9, of_value=True)
        gx = [0.25 - x for x in xs]
        keys = _row_keys(*_row_parts(gx, sup))
        assert [key == math.inf for key in keys] == [True] * 9
        assert [v >= 0.0 for v in gx] == [True, True] + [False] * 7
        for floor in (-math.inf, DEFAULT_TOL):
            assert list(glbounds.qclass.ranked_pairs(gx, sup, floor)) == ranked_pairs_eager(gx, sup, floor)

    def test_a_passing_scan_builds_only_the_rows_its_keys_reach(self, monkeypatch, capsys):
        """x^2 on [0, 1] at grid 128 takes 2 pairs; the keys of the other
        rows put 64 of the 128 rows of pair bounds ahead of the stop."""
        work = record_work(monkeypatch)
        taken = record_taken(monkeypatch)
        assert main(["qclass", "--g", "x^2", "--a", "0", "--b", "1", "--grid", "128"]) == 0
        assert work["rows"] == 64 and len(taken[0]) == 2

    def test_a_passing_scan_sorts_only_the_rows_it_takes_from(self, monkeypatch, capsys):
        taken = record_taken(monkeypatch)
        rows = []

        def recorded_sorted(pairs, **kwargs):
            if kwargs:  # the report's sort of its violations, keyed on (x, y, lam)
                return sorted(pairs, **kwargs)
            # with floor -inf a row's list holds every (b, j), from j = i on
            rows.append(min(j for _, j in pairs))
            return sorted(pairs)

        monkeypatch.setattr(glbounds.qclass, "sorted", recorded_sorted, raising=False)
        assert main(["qclass", "--g", "x^2", "--a", "-3.7", "--b", "5.2", "--grid", "64"]) == 0
        [pairs] = taken
        assert sorted(rows) == sorted({i for _, i, _ in pairs})
        assert len(rows) < 64


class TestWitness:
    def test_constant_and_convex_pass(self):
        iv = Interval(0.0, 1.0)
        assert nonneg_convex_witness(lambda x: 2.0, iv)
        assert nonneg_convex_witness(lambda x: 12.0 * x * x, iv)
        assert nonneg_convex_witness(math.exp, iv)

    def test_concave_or_negative_fail(self):
        assert not nonneg_convex_witness(math.sin, Interval(0.1, 3.0))
        assert not nonneg_convex_witness(lambda x: -1.0, Interval(0.0, 1.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            nonneg_convex_witness(lambda x: 1.0, Interval(0.0, 1.0), grid_n=2)
